"""Block-vector algebra: examples, metric laws, spans against brute force."""

import collections
import itertools
import math
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from blockramsey import (
    BlockSequence,
    BlockVector,
    block_lt,
    block_sum,
    embed_delta,
    in_fattening,
    linf_dist,
    negate,
    net_defect,
    seq_dist,
    span,
    support,
    tetris,
)
from blockramsey import search as S
from blockramsey import vectors as V
from blockramsey.search import oracle_span_vectors


def u(k, entries):
    return BlockVector.make(k, "unsigned", entries)


def s(k, entries):
    return BlockVector.make(k, "signed", entries)


@st.composite
def vectors(draw, k=None, mode=None, hi=10):
    k = k if k is not None else draw(st.integers(1, 3))
    mode = mode if mode is not None else draw(st.sampled_from(["unsigned", "signed"]))
    size = draw(st.integers(1, min(4, hi)))
    positions = draw(
        st.lists(st.integers(0, hi - 1), min_size=size, max_size=size, unique=True)
    )
    positions.sort()
    if mode == "unsigned":
        values = draw(st.lists(st.integers(1, k), min_size=size, max_size=size))
        anchor = k
    else:
        values = draw(
            st.lists(
                st.integers(-k, k).filter(lambda v: v != 0),
                min_size=size,
                max_size=size,
            )
        )
        anchor = draw(st.sampled_from([k, -k]))
    idx = draw(st.integers(0, size - 1))
    values[idx] = anchor
    return BlockVector(k, mode, tuple(zip(positions, values)))


@st.composite
def ordered_pairs(draw, k=None, mode=None):
    cut = draw(st.integers(1, 8))
    kk = k if k is not None else draw(st.integers(1, 3))
    mm = mode if mode is not None else draw(st.sampled_from(["unsigned", "signed"]))
    p = draw(vectors(k=kk, mode=mm, hi=cut))
    q0 = draw(vectors(k=kk, mode=mm, hi=4))
    q = BlockVector(kk, mm, tuple((n + cut, v) for n, v in q0.entries))
    return p, q


class TestBasics:
    def test_support_examples(self):
        assert support(u(2, {0: 2, 3: 1})) == (0, 3)
        assert support(u(1, {5: 1})) == (5,)
        assert support(s(2, {0: -2, 1: 2})) == (0, 1)

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            BlockVector(2, "unsigned", ((0, 1),))  # never attains 2
        with pytest.raises(ValueError):
            BlockVector(1, "unsigned", ())
        with pytest.raises(ValueError):
            BlockVector(1, "unsigned", ((0, -1),))
        with pytest.raises(ValueError):
            BlockVector(1, "signed", ((1, 1), (0, 1)))  # out of order

    def test_block_lt_examples(self):
        assert block_lt(u(1, {0: 1}), u(1, {1: 1}))
        assert not block_lt(u(1, {0: 1, 2: 1}), u(1, {1: 1, 3: 1}))
        assert not block_lt(u(2, {3: 2}), u(2, {3: 2}))

    def test_block_sum_examples(self):
        assert block_sum(u(2, {0: 2}), u(2, {2: 1, 3: 2})) == u(2, {0: 2, 2: 1, 3: 2})
        assert block_sum(u(1, {0: 1}), u(1, {1: 1})) == u(1, {0: 1, 1: 1})
        assert block_sum(s(2, {1: -2}), s(2, {4: 2})) == s(2, {1: -2, 4: 2})
        with pytest.raises(ValueError):
            block_sum(u(1, {1: 1}), u(1, {0: 1}))

    def test_tetris_examples(self):
        assert tetris(u(2, {0: 2, 3: 1})) == u(1, {0: 1})
        assert tetris(s(2, {0: 2, 3: -1})) == s(1, {0: 1})
        assert tetris(s(3, {1: 3, 2: -3})) == s(2, {1: 2, 2: -2})
        with pytest.raises(ValueError):
            tetris(u(1, {0: 1}))

    def test_negate_examples(self):
        assert negate(s(2, {0: 2, 1: -1})) == s(2, {0: -2, 1: 1})
        assert negate(s(2, {4: -2})) == s(2, {4: 2})
        with pytest.raises(ValueError):
            negate(u(2, {0: 2}))

    @given(vectors(mode="signed"))
    def test_negate_involution(self, p):
        assert negate(negate(p)) == p

    def test_json_round_trip(self):
        p = s(2, {0: 2, 3: -1})
        assert BlockVector.from_dict(p.to_dict()) == p
        seq = BlockSequence((s(2, {0: 2}), s(2, {3: -1, 4: 2})))
        assert BlockSequence.from_list(seq.to_list()) == seq


def brute_span_entries(blocks, k, mode):
    """Assignment-level brute force, the oracle for the library span."""
    signs = (1, -1) if mode == "signed" else (1,)
    out = set()
    n = len(blocks)
    for size in range(1, n + 1):
        for subset in itertools.combinations(range(n), size):
            for js in itertools.product(range(k), repeat=size):
                if min(js) != 0:
                    continue
                for ss in itertools.product(signs, repeat=size):
                    acc = {}
                    for bi, j, sg in zip(subset, js, ss):
                        for pos, v in blocks[bi].entries:
                            m = abs(v) - j
                            if m > 0:
                                acc[pos] = sg * m if v > 0 else -sg * m
                    out.add(tuple(sorted(acc.items())))
    return out


class TestSpan:
    def test_span_examples(self):
        p1 = span(BlockSequence((u(1, {0: 1}), u(1, {1: 1}))))
        assert {v.entries for v in p1} == {((0, 1),), ((1, 1),), ((0, 1), (1, 1))}
        assert len(span(BlockSequence((u(2, {0: 2}), u(2, {1: 2}))))) == 5
        assert {v.entries for v in span(BlockSequence((s(1, {0: 1}),)))} == {
            ((0, 1),),
            ((0, -1),),
        }

    @pytest.mark.parametrize("mode", ["unsigned", "signed"])
    @pytest.mark.parametrize("k", [1, 2])
    def test_span_matches_brute_force(self, k, mode):
        rng = random.Random(1234 + k)
        for _ in range(20):
            cuts = sorted(rng.sample(range(1, 8), rng.randint(0, 2)))
            bounds = [0] + cuts + [8]
            blocks = []
            for lo, hi in zip(bounds, bounds[1:]):
                size = rng.randint(1, min(2, hi - lo))
                positions = sorted(rng.sample(range(lo, hi), size))
                if mode == "unsigned":
                    values = [rng.randint(1, k) for _ in positions]
                    values[rng.randrange(size)] = k
                else:
                    values = [
                        rng.choice([v for v in range(-k, k + 1) if v != 0])
                        for _ in positions
                    ]
                    values[rng.randrange(size)] = rng.choice((k, -k))
                blocks.append(BlockVector(k, mode, tuple(zip(positions, values))))
            seq = BlockSequence(tuple(blocks))
            want = brute_span_entries(blocks, k, mode)
            assert {v.entries for v in span(seq)} == want
            assert {v.entries for v in oracle_span_vectors(seq)} == want

    def test_span_matches_generate_then_filter(self):
        seq = BlockSequence(
            (s(2, {0: 2, 1: 1}), s(2, {2: -2}), s(2, {4: 1, 5: -2}))
        )
        assert span(seq) == oracle_span_vectors(seq)

    def test_oracle_calls_none_of_the_code_it_checks(self, monkeypatch):
        seq = BlockSequence((s(2, {0: 2, 1: 1}), s(2, {2: -2})))
        want = span(seq)

        def forbidden(*args, **kwargs):
            raise AssertionError("the oracle called the span code it checks")

        for name in ("span", "span_combinations", "span_step", "tetris_images"):
            monkeypatch.setattr(V, name, forbidden)
        for name in ("_VectorKernel", "tetris_images"):
            monkeypatch.setattr(S, name, forbidden)
        assert oracle_span_vectors(seq) == want

    def test_span_over_the_cap_fails_before_combining(self, monkeypatch):
        monkeypatch.setattr(V, "span_step", lambda *a: pytest.fail("combined"))
        # 16 signed one-entry blocks: 3^16 - 1 combinations
        seq = BlockSequence(tuple(s(1, {n: 1}) for n in range(16)))
        with pytest.raises(ValueError, match="^43046720 span combinations "
                                             "exceed the cap of 1000000$"):
            span(seq)

    @pytest.mark.parametrize("count,shown", [
        (16777216, "16777216"), (10**12 - 1, "999999999999"),
        (10**12, "about 10^12"), (2**2000, "about 10^602"),
        (16**600000, "about 10^722472"),
    ], ids=["8-digits", "12-digits", "13-digits", "603-digits", "722473-digits"])
    def test_cap_shows_a_huge_count_as_a_power_of_ten(self, count, shown):
        # in full up to 12 digits, as in every pinned refusal; past 4,300
        # digits Python refuses to print an int at all
        with pytest.raises(ValueError) as info:
            V.check_cap(count, "things")
        assert str(info.value) == f"{shown} things exceed the cap of 1000000"

    def test_word_spans_over_the_cap_fail_before_combining(self, monkeypatch):
        from blockramsey import words as W
        ab = W.Alphabet.make([["0", "a"]], "0")
        Y = W.VarWordSequence((W.word(1, "signed", ab, [1]),
                               W.word(1, "signed", ab, ["0", 1])))
        for fn in (W.span_words, W.span_letters, W.span_negT):
            assert fn(Y)  # under the real cap
        # 4 = 2^2 substitution pieces per generator stay under the cap
        monkeypatch.setattr(V, "MAX_UNIVERSE_CELLS", 4)
        monkeypatch.setattr(V, "span_step", lambda *a: pytest.fail("combined"))
        for fn in (W.span_words, W.span_letters, W.span_negT):
            with pytest.raises(ValueError, match="span combinations exceed "
                                                 "the cap of 4$"):
                fn(Y)

    def test_substitution_pieces_over_the_cap_fail_before_building(
            self, monkeypatch):
        # a signed k=3 generator substitutes 6 variables: 16^6 pieces over a
        # 16-letter level, which once ran past any timeout
        from blockramsey import words as W
        ab = W.Alphabet.make([[str(t) for t in range(16)]], "0")
        Y = W.VarWordSequence((W.word(3, "signed", ab, [3]),))
        monkeypatch.setattr(W, "eval_segment", lambda *a: pytest.fail("built"))
        for fn in (W.span_words, W.span_letters, W.span_negT):
            with pytest.raises(ValueError, match="^16777216 substitution pieces "
                                                 "exceed the cap of 1000000$"):
                fn(Y)

    @staticmethod
    def _subset_products(slots):
        # the definition: one piece from each slot of every nonempty set of
        # slots, values added in slot order, exponents at their minimum
        out = []
        for size in range(1, len(slots) + 1):
            for subset in itertools.combinations(slots, size):
                for choice in itertools.product(*subset):
                    value = choice[0][0]
                    for v, _ in choice[1:]:
                        value = value + v
                    out.append((value, min(e for _, e in choice)))
        return out

    @pytest.mark.parametrize("kind", ["int", "tuple"])
    def test_span_combinations_is_the_subset_product(self, kind):
        rng = random.Random(kind)
        # a slot repeating a piece, and two slots holding the same values
        cases = [[[(1, 0), (1, 0)], [(1, 1), (2, 0)], [(1, 1), (2, 0)]]]
        for _ in range(40):
            # values from a small range, so they repeat within and across slots
            cases.append([[(rng.randint(-2, 2), rng.randint(0, 2))
                           for _ in range(rng.randint(0, 3))]
                          for _ in range(rng.randint(0, 4))])
        for slots in cases:
            if kind == "tuple":
                slots = [[((v,) * (1 + abs(v) % 2), e) for v, e in pieces]
                         for pieces in slots]
            want = collections.Counter(self._subset_products(slots))
            assert collections.Counter(V.span_combinations(slots)) == want

    def test_span_step_order(self):
        # each piece alone, then that piece after each element of the span
        span = [((1,), 1), ((2,), 0)]
        assert V.span_step(span, [((3,), 0), ((4,), 2)]) == [
            ((3,), 0), ((1, 3), 0), ((2, 3), 0),
            ((4,), 2), ((1, 4), 1), ((2, 4), 0)]
        assert V.span_step([(5, 2)], [(-5, 1)]) == [(-5, 1), (0, 1)]

    def test_span_canonical_order(self):
        out = span(BlockSequence((s(1, {0: 1}), s(1, {1: 1}))))
        keys = [v.sort_key() for v in out]
        assert keys == sorted(keys)


class TestMetric:
    def test_linf_examples(self):
        # distance only needs a shared mode, not a shared bound
        assert linf_dist(u(2, {0: 2}), u(1, {0: 1})) == 1
        assert linf_dist(u(1, {0: 1}), u(1, {1: 1})) == 1
        assert linf_dist(s(2, {0: 2, 1: -2}), s(2, {0: -2})) == 4

    @given(vectors(k=2, mode="signed"), vectors(k=2, mode="signed"),
           vectors(k=2, mode="signed"))
    def test_linf_is_a_metric(self, p, q, r):
        assert linf_dist(p, q) == linf_dist(q, p)
        assert (linf_dist(p, q) == 0) == (p == q)
        assert linf_dist(p, r) <= linf_dist(p, q) + linf_dist(q, r)

    def test_in_fattening_examples(self):
        assert in_fattening(u(1, {0: 1}), [u(2, {0: 2})], 1)
        assert not in_fattening(u(1, {0: 1}), [u(2, {0: 2})], 0)
        p = s(1, {0: 1})
        assert in_fattening(p, [p], 0)

    def test_seq_dist_examples(self):
        A = BlockSequence((s(2, {0: 2}),))
        assert seq_dist(A, A) == 0
        B = BlockSequence((s(2, {0: 2, 1: 1}),))
        assert seq_dist(A, B) == 1
        C = BlockSequence((s(2, {0: 2}), s(2, {1: 2})))
        assert seq_dist(A, C) == math.inf


class TestTetrisLaws:
    @given(ordered_pairs(k=2))
    def test_homomorphism_k2(self, pq):
        p, q = pq
        assert tetris(block_sum(p, q)) == block_sum(tetris(p), tetris(q))

    @given(ordered_pairs(k=3))
    def test_homomorphism_k3(self, pq):
        p, q = pq
        assert tetris(block_sum(p, q)) == block_sum(tetris(p), tetris(q))

    @given(vectors(k=2))
    def test_support_shrinks(self, p):
        sub = set(support(tetris(p))) <= set(support(p))
        assert sub
        has_unit = any(abs(v) == 1 for _, v in p.entries)
        assert (support(tetris(p)) == support(p)) == (not has_unit)


GRID_K, GRID_DELTA = 3, 0.5


def blockwise_round(sample, seq, delta):
    """Round per block to the best sign and tetris power (or drop the block);
    returns the rounded dense vector, which is the image of a span element."""
    k = seq.k
    positions = sorted({n for b in seq for n, _ in b.entries})
    index = {n: i for i, n in enumerate(positions)}
    rounded = np.zeros(len(positions))
    used = []
    for b in seq:
        best, best_err, best_j = None, None, None
        options = [(0, None, None)]  # drop the block
        for j in range(k):
            for sg in (1, -1):
                options.append((None, j, sg))
        for drop, j, sg in options:
            vals = np.zeros(len(positions))
            if drop is None:
                for n, v in b.entries:
                    m = abs(v) - j
                    if m > 0:
                        vals[index[n]] = sg * np.sign(v) * (1 + delta) ** (m - k)
            err = max(
                abs(vals[index[n]] - sample[index[n]]) for n, _ in b.entries
            )
            if best_err is None or err < best_err - 1e-15:
                best, best_err, best_j = vals, err, j if drop is None else None
        rounded += best
        used.append(best_j)
    assert any(j == 0 for j in used if j is not None), "top block must stay whole"
    return rounded


class TestEmbedding:
    def test_embed_examples(self):
        img = embed_delta(s(3, {0: 3}), 0.5)
        assert img.entries == ((0, 1.0),)
        img = embed_delta(s(3, {0: 3, 2: -1}), 0.5)
        assert img.value_at(0) == 1.0
        assert img.value_at(2) == pytest.approx(-(1.5) ** -2)

    @given(vectors(k=3, mode="signed"))
    def test_embed_odd_and_normalized(self, p):
        img = embed_delta(p, 0.5)
        neg = embed_delta(negate(p), 0.5)
        assert neg.entries == tuple((n, -v) for n, v in img.entries)
        assert img.sup_norm() == pytest.approx(1.0)

    def test_embed_lipschitz(self):
        rng = random.Random(7)
        for _ in range(500):
            positions = sorted(rng.sample(range(8), rng.randint(1, 4)))
            anchor = rng.randrange(len(positions))
            pe, qe = [], []
            for i, n in enumerate(positions):
                if i == anchor:
                    v = rng.choice((3, -3))
                    pe.append((n, v))
                    qe.append((n, v))
                    continue
                v = rng.choice([x for x in range(-3, 4) if x != 0])
                w = max(-3, min(3, v + rng.choice((-1, 0, 1))))
                pe.append((n, v))
                if w != 0:
                    qe.append((n, w))
            p = BlockVector(3, "signed", tuple(pe))
            q = BlockVector(3, "signed", tuple(qe))
            assert linf_dist(p, q) <= 1
            ia, ib = dict(embed_delta(p, 0.5).entries), dict(embed_delta(q, 0.5).entries)
            gap = max(abs(ia.get(n, 0) - ib.get(n, 0)) for n in set(ia) | set(ib))
            assert gap <= 0.5 + 1e-12

    def test_net_defect_single_block(self):
        seq = BlockSequence((s(3, {0: 3, 1: -2}),))
        # every normalized sample is +-(the block image), a net point
        assert net_defect(seq, 0.5, 200, seed=5) == pytest.approx(0.0, abs=1e-12)

    def test_net_defect_two_blocks_bounded_by_rounding_oracle(self):
        seq = BlockSequence((s(3, {0: 3, 1: -2}), s(3, {3: 1, 4: 3})))
        defect = net_defect(seq, GRID_DELTA, 1000, seed=11)
        assert 0 <= defect <= 0.5 + 1e-9
        # reproduce the sampling and bound each sample by per-block rounding
        positions = sorted({n for b in seq for n, _ in b.entries})
        index = {n: i for i, n in enumerate(positions)}
        basis = []
        for b in seq:
            row = np.zeros(len(positions))
            for n, v in embed_delta(b, GRID_DELTA).entries:
                row[index[n]] = v
            basis.append(row)
        basis = np.array(basis)
        rng = np.random.default_rng(11)
        coeffs = rng.uniform(-1, 1, size=(1000, 2))
        pts = coeffs @ basis
        norms = np.abs(pts).max(axis=1)
        pts = pts[norms > 0] / norms[norms > 0, None]
        worst = 0.0
        for sample in pts:
            rounded = blockwise_round(sample, seq, GRID_DELTA)
            worst = max(worst, float(np.abs(sample - rounded).max()))
        assert worst <= 0.5 + 1e-9
        assert defect <= worst + 1e-12

    def test_net_defect_precondition(self):
        seq = BlockSequence((s(2, {0: 2}),))
        with pytest.raises(ValueError):
            net_defect(seq, 0.5, 10, seed=0)  # (1.5)^-1 > 0.5

    def test_importing_the_library_does_not_load_numpy(self):
        # numpy is imported by net_defect alone, when it is first called
        import blockramsey
        src = Path(blockramsey.__file__).parent.parent
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, blockramsey, blockramsey.cli; "
                                   "print('numpy' in sys.modules)"],
            capture_output=True, text=True, cwd=src,
        )
        assert (proc.returncode, proc.stdout) == (0, "False\n")
