"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`.  Every tolerance and
time budget is pinned here.
"""

import itertools
import random
import subprocess
import sys
import time
from pathlib import Path

from blockramsey import (
    BlockSequence,
    BlockVector,
    Colouring,
    Exhausted,
    ParamMatrix,
    PipelineBounds,
    PipelineResult,
    SearchProblem,
    VarWordSequence,
    Witness,
    approx_negT,
    block_sum,
    compatible,
    decode_witness,
    derive_B,
    dist_words,
    embed_delta,
    enumerate_universe,
    halve,
    linf_dist,
    net_defect,
    parametrized_pipeline,
    perfect_set,
    phi_encode,
    psi_encode,
    product_to_sigmas,
    reflect_word,
    search_approx,
    search_exact,
    span,
    span_negT,
    span_words,
    tetris,
    verify_witness,
)
from blockramsey import Alphabet, bit_letter
from blockramsey.encodings import bitstring_alphabet, substituted_pairs
from blockramsey.sampling import random_block_pair, random_sequence
from blockramsey.search import FAMILIES, oracle_span_vectors, vector_ball
from blockramsey.words import (
    Letter,
    Var,
    Word,
    classify,
    concat,
    tetris_power,
    word,
)

GOLDEN = Path(__file__).parent / "golden"
DECODE_K2_BLOCKS = ('[{"entries":[[8,2],[9,-1],[11,-1],[12,2],[34,-1],[36,-1],'
                    '[38,-1],[42,1],[48,1],[54,1],[55,-1],[61,-1]]}]')


def _report(criterion, started, budget, detail=""):
    elapsed = time.perf_counter() - started
    assert elapsed < budget, f"criterion {criterion} took {elapsed:.1f}s (budget {budget}s)"
    print(f"PASS criterion {criterion} ({elapsed:.2f}s) {detail}")


# --- criterion 1: tetris homomorphism -------------------------------------

def test_c01_tetris_homomorphism():
    started = time.perf_counter()
    rng = random.Random(20260810)
    for k in (2, 3):
        for mode in ("unsigned", "signed"):
            for _ in range(2500):
                p, q = random_block_pair(rng, k, mode, N=12)
                assert tetris(block_sum(p, q)) == block_sum(tetris(p), tetris(q))
    _report(1, started, 5.0, "10^4 block-ordered pairs, k in {2,3}, both modes")


# --- criterion 2: span enumeration vs generate-then-filter ----------------

def _tetris_entries_local(entries, j, sign):
    out = []
    for n, v in entries:
        m = abs(v) - j
        if m > 0:
            out.append((n, sign * m if v > 0 else -sign * m))
    return tuple(out)


def _filter_span(blocks, k, mode):
    """Test-local generate-then-filter oracle over the union support.

    The candidate cube over the union of the supports factorizes through
    the blocks, so each candidate is classified by looking up its local
    slice per block: either all-zero, or a signed tetris image with a
    unique exponent, or garbage (rejected).
    """
    signs = (1,) if mode == "unsigned" else (1, -1)
    values = range(0, k + 1) if mode == "unsigned" else range(-k, k + 1)
    per_block = []
    for b in blocks:
        images = {}
        for j in range(k):
            for s in signs:
                img = dict(_tetris_entries_local(b.entries, j, s))
                local = tuple(img.get(n, 0) for n, _ in b.entries)
                images[local] = j
        verdicts = []
        for local in itertools.product(values, repeat=len(b.entries)):
            if not any(local):
                verdicts.append(("zero", ()))
            elif local in images:
                entries = tuple(
                    (n, v) for (n, _), v in zip(b.entries, local) if v != 0)
                verdicts.append((images[local], entries))
            else:
                verdicts.append((None, ()))
        per_block.append(verdicts)
    found = set()
    for combo in itertools.product(*per_block):
        best = k
        ok = False
        for verdict, _ in combo:
            if verdict is None:
                break
            if verdict != "zero":
                ok = True
                if verdict < best:
                    best = verdict
        else:
            if ok and best == 0:
                found.add(tuple(
                    e for _, entries in combo for e in entries))
    return found


def _value_patterns(k, mode, size):
    values = range(1, k + 1) if mode == "unsigned" else \
        [v for v in range(-k, k + 1) if v != 0]
    for combo in itertools.product(values, repeat=size):
        if max(abs(v) for v in combo) == k:
            yield combo


def test_c02_span_oracle_equivalence():
    started = time.perf_counter()
    shapes = [(a,) for a in (1, 2, 3)]
    shapes += [(a, b) for a in (1, 2, 3) for b in (1, 2, 3) if a + b <= 5]
    shapes += [(a, b, c) for a in (1, 2) for b in (1, 2) for c in (1, 2)
               if a + b + c <= 5]
    checked = 0
    for mode in ("unsigned", "signed"):
        for k in (1, 2):
            for shape in shapes:
                cuts = [0]
                for s in shape:
                    cuts.append(cuts[-1] + s)
                for patterns in itertools.product(
                        *(_value_patterns(k, mode, s) for s in shape)):
                    blocks = tuple(
                        BlockVector(k, mode,
                                    tuple(zip(range(lo, hi), pat)))
                        for lo, hi, pat in zip(cuts, cuts[1:], patterns)
                    )
                    got = {v.entries for v in span(BlockSequence(blocks))}
                    assert got == _filter_span(blocks, k, mode)
                    checked += 1
    # word spans: all two-generator instances over small alphabets, plus
    # three-generator instances over the one-letter alphabet (the signed
    # three-generator family samples the largest slot systematically)
    word_checked = 0
    cases = [
        ("unsigned", 1, ["0", "a", "b"], (1, 2), (1, 1)),
        ("signed", 1, ["0", "a", "b"], (1, 2), (1, 1)),
        ("unsigned", 2, ["0", "a"], (1, 2), (1, 1)),
        ("signed", 2, ["0", "a"], (1, 2), (1, 1)),
        ("unsigned", 1, ["0"], (1, 2, 4), (1, 1, 1)),
        ("signed", 1, ["0"], (1, 2, 4), (1, 1, 2)),
    ]
    from blockramsey.search import oracle_span_words
    for mode, k, letters, lengths, strides in cases:
        ab = Alphabet.make([letters], "0")
        indices = range(1, k + 1) if mode == "unsigned" else \
            [i for i in range(-k, k + 1) if i != 0]
        symbols = letters + list(indices)
        slot_words = []
        for ln, stride in zip(lengths, strides):
            cands = []
            for combo in itertools.product(symbols, repeat=ln):
                w = word(k, mode, ab, combo)
                if classify(w) == k:
                    cands.append(w)
            slot_words.append(cands[::stride])
        for gens in itertools.product(*slot_words):
            Y = VarWordSequence(gens)
            assert span_words(Y) == oracle_span_words(Y)
            word_checked += 1
    _report(2, started, 60.0,
            f"{checked} vector and {word_checked} word instances")


# --- criterion 3: halving map properties ----------------------------------

def _random_signed_word(rng, k2, length, ab):
    letters = sorted(ab.top, key=str)
    syms = []
    for _ in range(length):
        if rng.random() < 0.4:
            syms.append(Letter(rng.choice(letters)))
        else:
            syms.append(Var(rng.choice(
                [i for i in range(-k2, k2 + 1) if i != 0])))
    return Word(k2, "signed", ab, tuple(syms))


def test_c03_halving_properties():
    started = time.perf_counter()
    rng = random.Random(33)
    ab = Alphabet.make([["0", "a"]], "0")
    for _ in range(1000):
        k = rng.choice((1, 2, 3))
        k2 = 2 * k
        x = _random_signed_word(rng, k2, rng.randint(1, 12), ab)
        y = _random_signed_word(rng, k2, rng.randint(1, 12), ab)
        # (i) halving is a homomorphism commuting with reflection
        assert halve(concat(x, y)) == concat(halve(x), halve(y))
        assert halve(reflect_word(x)) == reflect_word(halve(x))
        # (ii) doubled tetris powers interchange, min(i, j) = 0
        i = rng.randint(0, k)
        j = 0 if rng.random() < 0.5 else i
        if rng.random() < 0.5:
            i, j = j, i
        if min(i, j) != 0:
            j = 0
        lhs = halve(concat(tetris_power(x, 2 * i), tetris_power(y, 2 * j)))
        rhs = concat(tetris_power(halve(x), i), tetris_power(halve(y), j))
        assert lhs == rhs
        # (iii) distance at most 2 contracts to at most 1
        z_syms = []
        for s in x.symbols:
            if isinstance(s, Letter) and s.token != "0":
                z_syms.append(s)
                continue
            idx = s.index if isinstance(s, Var) else 0
            idx = max(-k2, min(k2, idx + rng.randint(-2, 2)))
            z_syms.append(Letter("0") if idx == 0 else Var(idx))
        z = Word(k2, "signed", ab, tuple(z_syms))
        assert dist_words(x, z) <= 2
        assert dist_words(halve(x), halve(z)) <= 1
        assert compatible(halve(x), halve(z))
    _report(3, started, 5.0, "properties (i)-(iii) on 10^3 seeded words")


# --- criterion 4: the (-T) approximation contract --------------------------

def test_c04_neg_tetris_approximation():
    started = time.perf_counter()
    ab = Alphabet.make([["0", "a"]], "0")
    Y = VarWordSequence((
        word(2, "signed", ab, [2]),
        word(2, "signed", ab, ["a", -2]),
        word(2, "signed", ab, [1, 2, "0", -1]),
    ))
    neg_span = set(span_negT(Y))
    elements = span_words(Y)
    for x in elements:
        z, matched = approx_negT(Y, x)
        assert z in neg_span
        direct = dist_words(x, z)
        reflected = dist_words(reflect_word(x), z)
        assert min(direct, reflected) <= 1
        assert (direct <= 1) if matched == "direct" else (reflected <= 1)
    _report(4, started, 60.0,
            f"exhaustive over {len(elements)} span elements at k=2")


# --- criterion 5: encode/decode round trips --------------------------------

def _random_span_sequence(rng, B):
    """Random block sequence in the span of B, possibly merging blocks."""
    k, mode = B.k, B.mode
    elements = []
    current = []
    for bi in range(len(B.blocks)):
        roll = rng.random()
        if roll < 0.3:
            continue
        j = rng.randrange(k)
        s = rng.choice((1, -1)) if mode == "signed" else 1
        current.append((bi, j, s))
        if rng.random() < 0.5:
            elements.append(current)
            current = []
    if current:
        elements.append(current)
    if not elements:
        elements = [[(0, 0, 1)]]
    blocks = []
    for group in elements:
        group[rng.randrange(len(group))] = (group[0][0], 0, group[0][2])
        seen = {}
        for bi, j, s in group:
            seen[bi] = (j, s)
        entries = []
        for bi in sorted(seen):
            j, s = seen[bi]
            for n, v in B.blocks[bi].entries:
                m = abs(v) - j
                if m > 0:
                    entries.append((n, s * m if v > 0 else -s * m))
        blocks.append(BlockVector(k, mode, tuple(entries)))
    return BlockSequence(tuple(blocks))


def test_c05_encode_decode_round_trip():
    started = time.perf_counter()
    rng = random.Random(55)
    ab = bitstring_alphabet(3)
    for case in range(200):
        mode = ("unsigned", "signed")[case % 2]
        n_words = rng.choice((4, 6))
        lengths = []
        total = 0
        for _ in range(n_words):
            ln = total + rng.randint(1, 2)
            lengths.append(ln)
            total += ln
        Y = random_sequence(rng, ab, rng.choice((1, 2)), mode, tuple(lengths))
        B = derive_B(Y)
        A = _random_span_sequence(rng, B)
        sigmas = []
        for m in range(n_words // 2):
            depth = min(2 * m, 3)
            bits = tuple(rng.randrange(2) for _ in range(depth + 1))
            sigmas.append(bit_letter(bits))
        Z = decode_witness(Y, A, sigmas)
        assert phi_encode(Z) == A
        X = substituted_pairs(Y, sigmas)
        assert psi_encode(Z) == psi_encode(X)
    _report(5, started, 30.0, "200 seeded cases, both modes")


# --- criterion 6: perfect-set structure ------------------------------------

def test_c06_perfect_set_structure():
    started = time.perf_counter()
    ab = bitstring_alphabet(2)
    e0 = (1,)
    e1 = (0, 1)
    Y = VarWordSequence((
        word(1, "unsigned", ab, [1]),
        word(1, "unsigned", ab, [e0, 1]),
        word(1, "unsigned", ab, [1, (), 1, e1]),
        word(1, "unsigned", ab, [e0, 1, (), 1, e1, 1, (), 1]),
    ))
    from blockramsey.encodings import default_cols
    cols = default_cols(Y)
    assert cols == 2
    variable_intervals = 1  # only the interval covering the third word
    descs = [perfect_set(Y, i) for i in range(cols)]
    for desc in descs:
        strings = list(desc.strings())
        assert len(strings) == 2 ** variable_intervals
        assert len(set(strings)) == len(strings)
        assert all(desc.satisfies(s) for s in strings)
    # every product choice maps to a matrix reproduced by the encoder
    for deltas in itertools.product(*(d.strings() for d in descs)):
        sigmas = product_to_sigmas(Y, list(deltas))
        X = substituted_pairs(Y, sigmas)
        assembled = ParamMatrix(
            descs[0].length, cols,
            frozenset((n, i) for i, delta in enumerate(deltas)
                      for n, b in enumerate(delta) if b),
        )
        assert psi_encode(X, cols=cols) == assembled
    _report(6, started, 30.0,
            f"{2 ** len(descs)} product choices over {cols} columns")


# --- criterion 7: the embedded span is a delta-net --------------------------

def test_c07_delta_net_and_lipschitz():
    started = time.perf_counter()
    k, delta = 3, 0.5
    assert (1 + delta) ** (1 - k) < delta
    B = BlockSequence((
        BlockVector.make(k, "signed", {0: 3, 1: -2}),
        BlockVector.make(k, "signed", {2: 1, 3: 3}),
        BlockVector.make(k, "signed", {4: -3}),
        BlockVector.make(k, "signed", {5: 2, 6: -3, 7: 1}),
    ))
    defect = net_defect(B, delta, 10_000, seed=2026)
    assert 0.0 <= defect <= 0.5 + 1e-9
    rng = random.Random(77)
    for _ in range(10_000):
        positions = sorted(rng.sample(range(10), rng.randint(1, 5)))
        anchor = rng.randrange(len(positions))
        pe, qe = [], []
        for i, n in enumerate(positions):
            if i == anchor:
                v = rng.choice((k, -k))
                pe.append((n, v))
                qe.append((n, v))
                continue
            v = rng.choice([x for x in range(-k, k + 1) if x != 0])
            w = max(-k, min(k, v + rng.choice((-1, 0, 1))))
            pe.append((n, v))
            if w != 0:
                qe.append((n, w))
        p = BlockVector(k, "signed", tuple(pe))
        q = BlockVector(k, "signed", tuple(qe))
        assert linf_dist(p, q) <= 1
        ia = dict(embed_delta(p, delta).entries)
        ib = dict(embed_delta(q, delta).entries)
        gap = max(abs(ia.get(n, 0.0) - ib.get(n, 0.0))
                  for n in set(ia) | set(ib))
        assert gap <= delta + 1e-12
    _report(7, started, 30.0,
            f"defect {defect:.4f} <= 0.5 + 1e-9; 10^4 Lipschitz pairs")


# --- criterion 8: search soundness and small-scale completeness ------------

def _brute_force_pair(problem, colouring):
    universe = enumerate_universe(problem.k, problem.N, problem.mode)
    feasible = {}

    def feas(v):
        if v not in feasible:
            feasible[v] = frozenset(
                colouring(q)
                for q in vector_ball(v, problem.N, problem.radius))
        return feasible[v]

    for p in universe:
        for q in universe:
            if not p.max_support < q.min_support:
                continue
            common = frozenset(range(problem.r))
            for v in oracle_span_vectors(BlockSequence((p, q))):
                common &= feas(v)
                if not common:
                    break
            if common:
                return (p, q)
    return None


def test_c08_search_soundness_and_completeness():
    started = time.perf_counter()
    witnesses = exhausted = 0
    for family in FAMILIES:
        colouring = Colouring.family(family, 2)
        for mode in ("unsigned", "signed"):
            for k in (1, 2):
                for N in (2, 3, 4, 5):
                    radii = (0,) if mode == "unsigned" else (0, 1)
                    for radius in radii:
                        problem = SearchProblem(mode=mode, k=k, r=2, N=N,
                                                m=2, radius=radius)
                        run = search_exact if radius == 0 else search_approx
                        res = run(problem, colouring)
                        if isinstance(res, Witness):
                            witnesses += 1
                            assert verify_witness(res, colouring).passed
                        else:
                            exhausted += 1
                            assert _brute_force_pair(problem, colouring) is None
    # the three documented structured outcomes
    c = Colouring.family("support-size-mod", 2)
    res = search_exact(SearchProblem(mode="unsigned", k=1, r=2, N=4, m=2), c)
    assert isinstance(res, Witness) and verify_witness(res, c).passed
    c = Colouring.family("min-position-mod", 2)
    res = search_exact(SearchProblem(mode="unsigned", k=1, r=2, N=4, m=2), c)
    assert isinstance(res, Witness) and verify_witness(res, c).passed
    res = search_exact(SearchProblem(mode="unsigned", k=1, r=2, N=2, m=2), c)
    assert isinstance(res, Exhausted)
    sign_c = Colouring.custom(lambda p: 0 if p.entries[0][1] > 0 else 1, 2,
                              arity="vector", name="sign-at-min-support")
    res = search_approx(
        SearchProblem(mode="signed", k=2, r=2, N=6, m=2, radius=1), sign_c)
    assert isinstance(res, Witness) and verify_witness(res, sign_c).passed
    _report(8, started, 300.0,
            f"{witnesses} witnesses verified, {exhausted} exhaustions cross-checked")


# --- criterion 9: the parametrized pipeline ---------------------------------

def test_c09_pipeline():
    started = time.perf_counter()
    for mode in ("unsigned", "signed"):
        constant = Colouring.custom(lambda A, M: 0, 2, arity="vector_matrix",
                                    name="constant")
        matrix_only = Colouring.custom(lambda A, M: M.bit(0, 0), 2,
                                       arity="vector_matrix", name="matrix-bit")
        for colouring in (constant, matrix_only):
            bounds = PipelineBounds(mode=mode, k=1, lengths=(2, 3),
                                    letter_level=0, sample_count=60, seed=9)
            res = parametrized_pipeline(colouring, bounds)
            assert isinstance(res, PipelineResult)
            assert res.passed, res.failures
    _report(9, started, 120.0,
            "constant and matrix-only colourings, both modes, 60 samples each")


# --- criterion 10: CLI golden files -----------------------------------------

def test_c10_cli_golden_files():
    started = time.perf_counter()
    cases = [
        (["span", "--mode", "unsigned", "--k", "1", "--blocks",
          '[{"entries":[[0,1]]},{"entries":[[1,1]]}]'],
         "span_k1.jsonl", 0),
        (["search", "--mode", "unsigned", "--k", "1", "--N", "2", "--m", "2",
          "--colours", "2", "--family", "min-position-mod"],
         "search_exhausted.json", 3),
        (["search", "--mode", "unsigned", "--k", "1", "--N", "4", "--m", "2",
          "--colours", "2", "--family", "support-size-mod"],
         "search_witness.json", 0),
        (["search", "--mode", "signed", "--k", "1", "--N", "5", "--m", "3",
          "--colours", "3", "--radius", "1", "--seed", "1"],
         "search_radius1.json", 0),
        (["search", "--mode", "signed", "--k", "1", "--N", "12", "--m", "3",
          "--radius", "1", "--seed", "7"],
         "search_radius1_N12.json", 0),
        (["search", "--mode", "signed", "--k", "2", "--N", "5", "--m", "2",
          "--colours", "2", "--family", "weighted-sum-mod"],
         "search_weighted_sum_k2.json", 0),
        # k=2 radius 1: neighbours move entries between +-2 and +-1
        (["search", "--mode", "signed", "--k", "2", "--N", "5", "--m", "2",
          "--radius", "1", "--colours", "3", "--seed", "2"],
         "search_radius1_k2.json", 0),
        (["search", "--kind", "word", "--mode", "signed", "--k", "1",
          "--lengths", "2,3", "--radius", "1", "--colours", "3", "--seed", "5"],
         "search_word_radius1.json", 0),
        (["search", "--kind", "word", "--mode", "signed", "--k", "1",
          "--lengths", "1,2,4", "--radius", "1", "--family",
          "value-at-min-support", "--alphabet",
          '{"levels":[["0","a"]],"zero":"0"}'],
         "search_word_radius1_124.json", 0),
        (["search", "--kind", "word", "--mode", "signed", "--k", "2",
          "--lengths", "2,3", "--radius", "1", "--family", "support-size-mod",
          "--alphabet", '{"levels":[["0","a"]],"zero":"0"}'],
         "search_word_radius1_k2.json", 0),
        (["pipeline", "--mode", "signed", "--k", "1", "--lengths", "2,3",
          "--family", "support-size-mod", "--samples", "8"],
         "pipeline_signed.json", 0),
        (["pipeline", "--mode", "unsigned", "--k", "1", "--lengths", "1,2,4,8",
          "--family", "support-size-mod", "--samples", "60"],
         "pipeline_unsigned_1248.json", 0),
        (["pipeline", "--mode", "unsigned", "--k", "1", "--lengths", "1,2,4,8",
          "--family", "value-at-min-support", "--samples", "60"],
         "pipeline_unsigned_1248_vams.json", 0),
        (["selftest", "--seed", "0"], "selftest.json", 0),
        # signed k=2 over four pairs: pair 0 is substituted away by the
        # zero letter, block 1 enters as -b and block 2 as +T(b), and the
        # element absorbs the trailing pair 3
        (["decode", "--words", f"@{GOLDEN / 'decode_base_k2.json'}",
          "--blocks", DECODE_K2_BLOCKS, "--sigmas", "[[1],[0,1],[1,0,1],[1,1]]"],
         "decode_signed_k2.json", 0),
    ]
    for args, golden, want_code in cases:
        proc = subprocess.run(
            [sys.executable, "-m", "blockramsey.cli", *args],
            capture_output=True, text=True,
        )
        assert proc.returncode == want_code, proc.stderr
        assert proc.stdout == (GOLDEN / golden).read_text()
    _report(10, started, 30.0,
            "span/search (vector radius 0 and 1, word)/pipeline/selftest/"
            "decode byte-identical")
