"""The integer-coded kernel of the vector search (its universe codes, tetris
variants, on-demand colouring and box walks), against the independent
`enumerate_universe`, `_tetris_entries`, `tetris_images`, `vector_ball` and
scalar `Colouring.seeded` and `Colouring.family` oracles, plus pinned search
outcomes."""

import hashlib
import math
import random
from types import SimpleNamespace

import pytest

import blockramsey.search as S
from blockramsey import (
    BlockSequence,
    BlockVector,
    Colouring,
    Exhausted,
    PipelineBounds,
    SearchProblem,
    enumerate_universe,
    parametrized_pipeline,
    search_approx,
    search_exact,
    search_ghj,
)
from blockramsey.search import (
    _VectorKernel,
    canonical_json,
    element_key,
    vector_ball,
)
from blockramsey.encodings import ParamMatrix
from blockramsey.vectors import (
    _tetris_entries,
    embed_delta,
    span_step,
    tetris_images,
)
from blockramsey.words import Alphabet

KERNEL_COLOURINGS = [
    ("min-position-mod", 3), ("weighted-sum-mod", 2),
    ("value-at-min-support", 3), ("support-size-mod", 2),
    (11, 2), (12, 3),
]
# (k, N): every signed universe with N <= 5 whose balls stay cheap to build
KERNEL_SIZES = [(1, 1), (1, 2), (1, 3), (1, 4), (1, 5), (2, 2), (2, 3), (2, 4)]


def _colouring(spec, r):
    if isinstance(spec, int):
        return Colouring.seeded(spec, r)
    return Colouring.family(spec, r)


def _kernel(k, N, colouring, r, radius):
    problem = SearchProblem(mode="signed", k=k, r=r, N=N, m=1, radius=radius)
    # the universe comes from the independent generate-then-sort oracle
    return enumerate_universe(k, N, "signed"), _VectorKernel(problem, colouring)


def _code(kernel, entries):
    # the vector's code: sum(v * B**n) over its entries
    return sum(v * kernel.B ** n for n, v in entries)


def _box(kernel, code):
    # the cells of code's ball, level by level through axis: each centre's
    # sub-box centres in turn, so position 0 varies slowest
    centres = [code]
    for level in range(kernel.levels):
        centres = [sub for centre in centres for sub in kernel.axis(level, centre)]
    return centres


def _colours(bits, r):
    return frozenset(c for c in range(r) if bits >> c & 1)


@pytest.mark.parametrize("k,N", KERNEL_SIZES)
@pytest.mark.parametrize("spec,r", KERNEL_COLOURINGS)
def test_grid_feasibility_and_neighbours_match_ball(k, N, spec, r):
    # "grid" is the cell grid of all B**N value assignments that codes index
    colouring = _colouring(spec, r)
    for radius in (0, 1):
        universe, kernel = _kernel(k, N, colouring, r, radius)
        for p in universe:
            ball = vector_ball(p, N, radius)
            bits = list(map(kernel.colour, _box(kernel, _code(kernel, p.entries))))
            # one bit per cell of the box: a member's colour bit, else 0
            vals = dict(p.entries)
            assert len(bits) == math.prod(
                sum(abs(u - vals.get(n, 0)) <= radius for u in range(-k, k + 1))
                for n in range(N))
            assert sorted(b for b in bits if b) == \
                sorted(1 << colouring(q) for q in ball)
            if not radius:
                continue  # a radius-0 certificate names no neighbour
            # the certificate's neighbour: the first member of the walk with
            # the colour is the least such member in canonical order
            for colour in {colouring(q) for q in ball}:
                first = next(c for c in kernel.walk(_code(kernel, p.entries))
                             if kernel.colour(c) == 1 << colour)
                assert kernel.decode(first) == min(
                    (q for q in ball if colouring(q) == colour),
                    key=BlockVector.sort_key)


def test_grid_with_more_colours_than_a_machine_word():
    # 70 colours do not fit a 64-bit mask; the bitmasks are Python ints
    colouring = Colouring.seeded(5, 70)
    for radius in (0, 1):
        universe, kernel = _kernel(1, 3, colouring, 70, radius)
        for p in universe:
            expected = frozenset(colouring(q)
                                 for q in vector_ball(p, 3, radius))
            bits = 0
            for bit in map(kernel.colour, _box(kernel, _code(kernel, p.entries))):
                bits |= bit
            assert _colours(bits, 70) == expected


# (mode, k, N): every universe with k <= 3 of at most a few hundred cells
UNIVERSES = [(mode, k, N) for mode in ("unsigned", "signed")
             for k, top in ((1, 5), (2, 4), (3, 3)) for N in range(1, top + 1)]


def _bare_kernel(mode, k, N):
    problem = SearchProblem(mode=mode, k=k, r=2, N=N, m=1)
    return _VectorKernel(problem, Colouring.seeded(0, 2))


@pytest.mark.parametrize("mode,k,N", UNIVERSES)
def test_codes_follow_the_enumerated_universe(mode, k, N):
    # the codes are generated in canonical order; enumerate_universe
    # generates every value assignment and sorts
    universe = enumerate_universe(k, N, mode)
    kernel = _bare_kernel(mode, k, N)
    assert kernel.codes == [_code(kernel, p.entries) for p in universe]
    assert kernel.index == {c: i for i, c in enumerate(kernel.codes)}
    assert list(kernel.candidates([])) == kernel.codes
    for code, p in zip(kernel.codes, universe):
        assert kernel.decode(code) == p
        assert list(kernel.candidates([code])) == [
            _code(kernel, q.entries) for q in universe
            if q.min_support > p.max_support]


@pytest.mark.parametrize("mode,k,N", UNIVERSES)
def test_variants_are_the_tetris_images(mode, k, N):
    kernel = _bare_kernel(mode, k, N)
    signs = (1, -1) if mode == "signed" else (1,)
    for p in enumerate_universe(k, N, mode):
        assert kernel.pieces(_code(kernel, p.entries)) == [
            (_code(kernel, _tetris_entries(p.entries, j, sg)), j)
            for j in range(k) for sg in signs]


@pytest.mark.parametrize("mode,k,N", UNIVERSES)
def test_variants_built_from_prefixes_match_the_decoded_images(mode, k, N):
    # the kernel builds a code's images from its prefix code's; a fresh
    # kernel asked last block first meets each prefix in another order
    kernel = _bare_kernel(mode, k, N)
    for code in reversed(kernel.codes):
        images = tetris_images(kernel.decode(code).entries, k, mode)
        assert kernel.pieces(code) == [(_code(kernel, e), j) for e, j in images]


# seeds -1 and 2**70 + 5 lie outside [0, 2**64) and exercise the seed mask
@pytest.mark.parametrize("seed", [0, 7, -1, 2 ** 70 + 5])
@pytest.mark.parametrize("mode,k,N", UNIVERSES)
def test_seeded_colours_resumed_from_prefixes_match_colouring_seeded(
        mode, k, N, seed):
    for r in (2, 3):
        reference = Colouring.seeded(seed, r)
        colouring = Colouring.seeded(seed, r)
        # the kernel never calls the scalar colour of a seeded colouring
        colouring.fn = lambda *elem: pytest.fail("the scalar colour was called")
        kernel = _VectorKernel(SearchProblem(mode, k, r, N, 1), colouring)
        for code in reversed(kernel.codes):
            assert kernel.colour(code) == 1 << reference(kernel.decode(code))


@pytest.mark.parametrize("family", S.FAMILIES)
@pytest.mark.parametrize("mode,k,N", UNIVERSES)
def test_family_colours_resumed_from_prefixes_match_colouring_family(
        mode, k, N, family):
    for r in (2, 3, 5):
        reference = Colouring.family(family, r)
        colouring = Colouring.family(family, r)
        # the kernel never calls the scalar rule of a family colouring
        colouring.fn = lambda *elem: pytest.fail("the scalar colour was called")
        kernel = _VectorKernel(SearchProblem(mode, k, r, N, 1), colouring)
        # last code first, so each prefix is met in another order
        for code in reversed(kernel.codes):
            assert kernel.colour(code) == 1 << reference(kernel.decode(code))


# the tails of k = 1, 9, 10 and 1000 run from 24 to 29 bytes
@pytest.mark.parametrize("mode", ["unsigned", "signed"])
@pytest.mark.parametrize("k", [1, 9, 10, 1000])
def test_tail_table_resumes_fnv1a(mode, k):
    # FNV-1a over the fixed key tail is h * P**len(tail) plus a term of
    # h's low byte alone: every low byte, then random 64-bit states
    kernel = _VectorKernel(SearchProblem(mode, k, 2, 1, 1), Colouring.seeded(0, 2))
    assert kernel._tail == S._KEY_TAIL.format(k, mode).encode()
    rng = random.Random(k)
    states = [*range(256), 2 ** 64 - 1, *(rng.getrandbits(64) for _ in range(300))]
    for h in states:
        assert kernel._after_tail(h) == S._fnv1a(kernel._tail, h)
    assert len(kernel._tail_terms) == 256


@pytest.mark.parametrize("mode,k,N", UNIVERSES)
def test_element_key_is_the_canonical_json(mode, k, N):
    for p in enumerate_universe(k, N, mode):
        assert element_key(p) == canonical_json(p.to_dict())


def _matrices(rows, cols, rng):
    # no bits, every bit, and a random subset
    cells = [(n, i) for n in range(rows) for i in range(cols)]
    return [ParamMatrix(rows, cols, frozenset(bits)) for bits in
            ((), cells, rng.sample(cells, rng.randrange(len(cells) + 1)))]


@pytest.mark.parametrize("mode", ["unsigned", "signed"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_pair_key_is_the_canonical_json(mode, k):
    # sequences of one to three blocks, each from the N=3 universe moved
    # past the one before, against matrices of 0 to 3 rows and columns
    rng = random.Random(k)
    universe = enumerate_universe(k, 3, mode)
    for size in (1, 2, 3):
        for _ in range(20):
            seq = BlockSequence(tuple(
                BlockVector(k, mode, tuple((n + 3 * j, v) for n, v in p.entries))
                for j, p in enumerate(rng.choices(universe, k=size))))
            for rows in range(4):
                for cols in range(4):
                    for matrix in _matrices(rows, cols, rng):
                        assert element_key((seq, matrix)) == canonical_json(
                            [seq.to_list(), matrix.to_dict()])


def test_a_table_pipeline_hits_its_canonical_json_keys():
    # a table keyed by json.dumps colours a pipeline as the seeded rule it
    # was recorded from: every key the lift makes is found
    seeded = Colouring.seeded(3, 2, arity="vector_matrix")
    mapping = {}

    def record(seq, matrix):
        key = canonical_json([seq.to_list(), matrix.to_dict()])
        mapping[key] = seeded(seq, matrix)
        return mapping[key]

    bounds = PipelineBounds(mode="signed", k=1, lengths=(2, 3), letter_level=1,
                            sample_count=16)
    want = parametrized_pipeline(seeded, bounds)
    assert parametrized_pipeline(Colouring.custom(record, 2, arity="vector_matrix"),
                                 bounds) == want
    assert len(mapping) > 20
    assert parametrized_pipeline(Colouring.table(mapping, 2, arity="vector_matrix"),
                                 bounds) == want


def test_certificate_colours_only_until_the_first_on_colour_cell(monkeypatch):
    # the witness comes at the first prefix, so nearly all the colouring is
    # the certificate's; colouring each element's whole box would colour
    # all 3^9 - 1 = 19,682 cells of the universe.  The digest was recorded
    # from a kernel that did so.  Each seeded colour, scalar or resumed by
    # the kernel, ends in one splitmix64 round, so counting those counts
    # the cells coloured.
    splitmix64, calls = S._splitmix64, []

    def counted(x):
        calls.append(x)
        return splitmix64(x)

    monkeypatch.setattr(S, "_splitmix64", counted)
    res = search_approx(SearchProblem("signed", 1, 2, 9, 3, radius=1),
                        Colouring.seeded(7, 2))
    digest = hashlib.sha256(canonical_json(res.to_dict()).encode()).hexdigest()
    assert digest[:16] == "0225d8a65c88b0a3"
    assert 0 < len(calls) <= 100


def _sign_at_min_support(p):
    return 0 if p.entries[0][1] > 0 else 1


def _negative_count_mod_3(p):
    return sum(1 for _, v in p.entries if v < 0) % 3


SIGN = Colouring.custom(_sign_at_min_support, 2, name="sign-at-min-support")
NEG3 = Colouring.custom(_negative_count_mod_3, 3, name="negative-count-mod-3")

# Outcomes recorded from the search before the integer kernel: a witness by
# the first 16 hex digits of the SHA-256 of its canonical JSON, an
# exhaustion by its node and dead-end counts.  A change of candidate order
# or pruning moves them.
PINNED = [
    (SearchProblem("unsigned", 2, 2, 6, 3), Colouring.seeded(1, 2),
     (1804, 1083)),
    (SearchProblem("signed", 2, 2, 4, 2), Colouring.seeded(1, 2),
     (880, 618)),
    (SearchProblem("signed", 1, 2, 6, 2), Colouring.seeded(1, 2),
     "c84cb4470122be88"),
    (SearchProblem("signed", 2, 2, 5, 2),
     Colouring.family("min-position-mod", 2), "1200a2d9694122ed"),
    (SearchProblem("signed", 2, 3, 4, 3, radius=1), NEG3, (1288, 558)),
    (SearchProblem("signed", 2, 9, 3, 3, radius=1), Colouring.seeded(1, 9),
     (166, 40)),
    (SearchProblem("signed", 2, 2, 4, 2, radius=1), SIGN,
     "65b76ac67a135878"),
    (SearchProblem("signed", 1, 3, 5, 3, radius=1), Colouring.seeded(1, 3),
     "1712f52c3a24299c"),
    (SearchProblem("signed", 2, 3, 5, 2, radius=1), Colouring.seeded(1, 3),
     "7578e1dd1e061c80"),
    # recorded before the kernel built images and seeded colours from
    # prefix codes
    (SearchProblem("signed", 1, 2, 8, 3), Colouring.seeded(0, 2),
     (16256, 12844)),
]


@pytest.mark.parametrize("problem,colouring,expected", PINNED)
def test_pinned_outcomes(problem, colouring, expected):
    run = search_exact if problem.radius == 0 else search_approx
    res = run(problem, colouring)
    if isinstance(expected, tuple):
        assert isinstance(res, Exhausted)
        assert (res.nodes, res.dead_ends) == expected
    else:
        digest = hashlib.sha256(
            canonical_json(res.to_dict()).encode()).hexdigest()[:16]
        assert digest == expected


def _c0_buckets(p):
    # f(x) = sum of 2^-(n+1) x_n over the delta = 0.5 embedding, a
    # 1-Lipschitz function into [-1, 1], cut into 4 buckets of width 0.5
    f = sum(x / 2 ** (n + 1) for n, x in embed_delta(p, 0.5).entries)
    return min(3, int((f + 1) / 0.5))


def _sha16(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


AB = Alphabet.make([["0", "a"]], "0")
C0 = Colouring.custom(_c0_buckets, 4, name="c0-buckets")


def _approx(fields, colouring):
    return lambda: search_approx(SearchProblem(*fields, radius=1), colouring)


def _words(k, r, colouring):
    return lambda: search_ghj(AB, k, "signed", r, colouring, (2, 3), radius=1)


# Radius-1 searches, each with its certificate: the number of colour calls,
# and the first 16 hex digits of the SHA-256 of those calls' codes in call
# order (one repr a line) and of the result's canonical JSON.  Recorded
# from the search that walked each ball cell by cell, so they show that
# reading balls through kept sub-boxes colours the same cells in the same
# order and finds the same results.
COLOUR_LOGS = [
    pytest.param(_approx(("signed", 1, 3, 5, 3), Colouring.seeded(1, 3)),
                 58, "f0875c18066d9f5d", "1712f52c3a24299c", id="seeded-k1-m3"),
    pytest.param(_approx(("signed", 3, 2, 4, 3), Colouring.seeded(4, 2)),
                 566, "be4ffd343dcfe105", "7e46a104a715bb64", id="seeded-k3-m3"),
    pytest.param(_approx(("signed", 2, 9, 3, 3), Colouring.seeded(1, 9)),
                 124, "f99602e2cbc0d040", "554c365fc92f56d8",
                 id="seeded-k2-m3-exhausted"),
    pytest.param(_approx(("signed", 2, 2, 5, 3),
                         Colouring.family("weighted-sum-mod", 2)),
                 301, "affa92e18092586b", "b3a0dd805fde26f8", id="family-k2-m3"),
    pytest.param(_approx(("signed", 3, 3, 5, 3),
                         Colouring.family("support-size-mod", 3)),
                 1259, "7da0fa5b07735608", "fe37ea59567487af", id="family-k3-m3"),
    pytest.param(_approx(("signed", 1, 2, 6, 3), SIGN),
                 370, "d90d0c2af36d0fe2", "7b07dfa1d83bafdb", id="sign-k1-m3"),
    pytest.param(_approx(("signed", 2, 2, 5, 2), SIGN),
                 3124, "2b56a2726e85c4cc", "c49a75322927c062", id="sign-k2-m2"),
    pytest.param(_approx(("signed", 3, 2, 4, 2), SIGN),
                 2320, "0bb6507b48e1d5a9", "728566724b5ee65d", id="sign-k3-m2"),
    pytest.param(_approx(("signed", 2, 3, 4, 3), NEG3),
                 624, "91e63f1844aaf1d8", "c86d01dc47dd30aa",
                 id="negative-count-k2-m3-exhausted"),
    pytest.param(_approx(("signed", 3, 4, 5, 2), C0),
                 8841, "18fe3c89fdddcdd2", "5611ead315ed6fc3", id="c0-buckets-k3-m2"),
    pytest.param(_words(1, 3, Colouring.seeded(5, 3, arity="word")),
                 29, "3808e2f33da7d008", "fbd868aeb63467e4", id="word-seeded-k1"),
    pytest.param(_words(2, 2, Colouring.family("support-size-mod", 2, arity="word")),
                 33, "b67725587da97f23", "0930262035e4322f", id="word-family-k2"),
]


def _pipeline(colouring, bounds):
    # the pipeline, summed up by its source words, B, colour and verdict,
    # or its word search's exhaustion
    def run():
        res = parametrized_pipeline(colouring, bounds)
        if isinstance(res, Exhausted):
            return res
        return SimpleNamespace(to_dict=lambda: {
            "source": res.pair.source.to_list(), "B": res.pair.B.to_list(),
            "colour": res.colour, "passed": res.passed})
    return run


# Radius-0 searches, pinned as in COLOUR_LOGS and recorded while radius-0
# word searches still walked a one-cell ball through a per-element memo
# in front of the cell memo, so they show that reading the cell memo
# directly colours the same cells in the same order.
COLOUR_LOGS += [
    pytest.param(lambda: search_ghj(
        AB, 1, "unsigned", 2,
        Colouring.family("value-at-min-support", 2, arity="word"), (1, 3, 5)),
        37, "baf18a560b5383f9", "21eebfd527f27d38", id="word-unsigned-k1"),
    pytest.param(lambda: search_ghj(
        AB, 1, "signed", 2,
        Colouring.family("value-at-min-support", 2, arity="word"), (1, 2, 4),
        radius=0),
        98, "1769f08206d0f046", "22a067f118358cf1", id="word-signed-radius0-k1"),
    pytest.param(_pipeline(Colouring.seeded(1, 2, arity="vector_matrix"),
                           PipelineBounds(mode="unsigned", k=1, lengths=(2, 3))),
                 83, "c977d43a4874f588", "c07af39d1e710550", id="pipeline-unsigned-k1"),
    pytest.param(lambda: search_exact(SearchProblem("signed", 2, 2, 5, 2),
                                      Colouring.family("weighted-sum-mod", 2)),
                 1390, "c78bdbcf79581e13", "706433f517eef360", id="exact-family-k2-m2"),
    pytest.param(lambda: search_exact(SearchProblem("signed", 1, 2, 5, 2),
                                      Colouring.seeded(3, 2)),
                 34, "83efc0a58b351eb0", "b9ba3539f1ea7055", id="exact-seeded-k1-m2"),
]


# Radius-0 exhaustions, pinned as in COLOUR_LOGS and recorded while `_dfs`
# built a candidate's whole `span_step` list before checking any of it, so
# they show that checking each span element as it is made, and building
# nothing past a dead end, colours the same cells in the same order.
COLOUR_LOGS += [
    pytest.param(lambda: search_exact(SearchProblem("signed", 1, 2, 7, 3),
                                      Colouring.seeded(0, 2)),
                 2186, "4565c33812f703da", "675c77971d9cf2ac",
                 id="exact-seeded-k1-m3-exhausted"),
    pytest.param(lambda: search_exact(SearchProblem("signed", 2, 2, 5, 2),
                                      Colouring.seeded(0, 2)),
                 2882, "67ce4220069c9093", "dd6718e4498b71e2",
                 id="exact-seeded-k2-m2-exhausted"),
    pytest.param(lambda: search_exact(SearchProblem("unsigned", 2, 2, 6, 3),
                                      Colouring.seeded(0, 2)),
                 665, "5d32524a15b67c8b", "5fc04ef8c106e26a",
                 id="exact-unsigned-k2-m3-exhausted"),
    pytest.param(lambda: search_exact(SearchProblem("signed", 3, 2, 4, 2),
                                      Colouring.seeded(0, 2)),
                 1776, "f815d5ab4418fadf", "78daf596efc36629",
                 id="exact-seeded-k3-m2-exhausted"),
]


# Radius-0 family searches (the bench's signed k=2 N=5 cases), pinned as in
# COLOUR_LOGS and recorded while the kernel coloured every family cell by
# calling the family rule on the decoded BlockVector, so they show that
# resuming the rule's running quantity from the prefix colours the same
# cells in the same order and finds the same witnesses.
COLOUR_LOGS += [
    pytest.param(lambda: search_exact(SearchProblem("signed", 2, 2, 5, 2),
                                      Colouring.family("value-at-min-support", 2)),
                 2343, "6d118447c392578f", "8bf6c93ce38f8ec6",
                 id="exact-value-at-min-support-k2-m2"),
    pytest.param(lambda: search_exact(SearchProblem("signed", 2, 2, 5, 2),
                                      Colouring.family("support-size-mod", 2)),
                 787, "65468188b2fae947", "54494e8983355696",
                 id="exact-support-size-k2-m2"),
    pytest.param(lambda: search_exact(SearchProblem("signed", 2, 2, 5, 3),
                                      Colouring.family("min-position-mod", 2)),
                 558, "d9a514d61a0e5bf2", "9406235df3fbc57c",
                 id="exact-min-position-k2-m3"),
]


# Pipelines, pinned as in COLOUR_LOGS and recorded while every lifted colour
# call built a validated BlockSequence and ParamMatrix from the code's lift
# pairs (and a seeded one its key through json.dumps), so they show that
# colouring the pairs directly colours the same words in the same order.
# The seeded row is the bench's slowest seeded pipeline at seed 0
# (`seeded-unsigned-23-l1-1`), which exhausts.
COLOUR_LOGS += [
    pytest.param(_pipeline(Colouring.family("weighted-sum-mod", 2, arity="vector_matrix"),
                           PipelineBounds(mode="signed", k=1, lengths=(2, 3),
                                          letter_level=1)),
                 21, "3a1996ab1f6f9012", "28afa26ba0d74741",
                 id="pipeline-weighted-sum-signed-l1"),
    pytest.param(_pipeline(Colouring.family("value-at-min-support", 2,
                                            arity="vector_matrix"),
                           PipelineBounds(mode="unsigned", k=1, lengths=(1, 2, 4, 8))),
                 2025, "fabe67c90fc28b1f", "7ac32716d0819a2c",
                 id="pipeline-value-at-min-support-unsigned-1248"),
    pytest.param(_pipeline(Colouring.seeded(2361592934, 2, arity="vector_matrix"),
                           PipelineBounds(mode="unsigned", k=1, lengths=(2, 3),
                                          letter_level=1)),
                 616, "4f4f0bf618be9e04", "12513eea0ff5b9b0",
                 id="pipeline-seeded-unsigned-l1-exhausted"),
]


@pytest.mark.parametrize("search,calls,log,result", COLOUR_LOGS)
def test_colour_call_log_is_pinned(monkeypatch, search, calls, log, result):
    codes = []
    for space in (S._VectorKernel, S._WordCodes):
        def logged(self, code, colour=space.colour):
            codes.append(code)
            return colour(self, code)

        monkeypatch.setattr(space, "colour", logged)
    res = search()
    assert len(codes) == calls
    assert _sha16("\n".join(map(repr, codes))) == log
    assert _sha16(canonical_json(res.to_dict())) == result


# witnesses of two or three slots, vectors at k = 1, 2, 3 and words
SURVIVORS = [
    pytest.param(lambda: search_exact(SearchProblem("signed", 1, 2, 6, 3),
                                      Colouring.family("weighted-sum-mod", 2)),
                 id="exact-k1-m3"),
    pytest.param(lambda: search_exact(SearchProblem("signed", 2, 2, 5, 2),
                                      Colouring.family("weighted-sum-mod", 2)),
                 id="exact-k2-m2"),
    pytest.param(lambda: search_exact(SearchProblem("signed", 3, 2, 4, 2),
                                      Colouring.family("weighted-sum-mod", 2)),
                 id="exact-k3-m2"),
    pytest.param(lambda: search_exact(SearchProblem("unsigned", 2, 2, 6, 3),
                                      Colouring.family("weighted-sum-mod", 2)),
                 id="exact-unsigned-k2-m3"),
    pytest.param(_approx(("signed", 1, 3, 5, 3), Colouring.seeded(1, 3)),
                 id="approx-k1-m3"),
    pytest.param(_approx(("signed", 2, 2, 5, 3), Colouring.seeded(1, 2)),
                 id="approx-k2-m3"),
    pytest.param(_approx(("signed", 3, 2, 4, 3), Colouring.seeded(4, 2)),
                 id="approx-k3-m3"),
    pytest.param(_words(1, 3, Colouring.seeded(5, 3, arity="word")),
                 id="word-radius1-k1"),
    pytest.param(_words(2, 2, Colouring.family("support-size-mod", 2, arity="word")),
                 id="word-radius1-k2"),
    pytest.param(lambda: search_ghj(
        AB, 1, "signed", 2,
        Colouring.family("value-at-min-support", 2, arity="word"), (1, 2, 4),
        radius=0), id="word-radius0-k1"),
]


@pytest.mark.parametrize("search", SURVIVORS)
def test_survivors_carry_the_span_step_fold(monkeypatch, search):
    # `_dfs` builds a candidate's span elements itself and stops at a dead
    # end; the span a witness hands `_certificate` is still the fold of
    # span_step over its slots' pieces, element for element, in order, after
    # the empty combination every span starts with
    dfs, certificate, runs, spans = S._dfs, S._certificate, [], []

    def recorded_dfs(m, space, r, *args, **kwargs):
        runs.append((space, dfs(m, space, r, *args, **kwargs)))
        return runs[-1][1]

    def recorded_certificate(space, span, colour, bits):
        spans.append(span)
        return certificate(space, span, colour, bits)

    monkeypatch.setattr(S, "_dfs", recorded_dfs)
    monkeypatch.setattr(S, "_certificate", recorded_certificate)
    assert isinstance(search(), S.Witness)
    (space, (prefix, _, _)), = runs
    want = []
    for cand in prefix:
        want += span_step(want, space.pieces(cand))
    assert len(prefix) > 1 and spans == [[(space.zero, math.inf)] + want]
