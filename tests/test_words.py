"""Variable-word algebra: substitution, tetris, spans, parsing, the metric."""

import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from blockramsey import (
    Alphabet,
    Decomposition,
    Letter,
    Segment,
    Var,
    VarWordSequence,
    Word,
    approx_negT,
    classify,
    compatible,
    compose,
    concat,
    dist_seqs,
    dist_words,
    halve,
    is_block_subseq,
    is_rapidly_increasing,
    lift_double,
    parse_support,
    reflect_word,
    span_letters,
    span_negT,
    span_words,
    substitute,
    tetris_word,
)
from blockramsey.sampling import random_sequence
from blockramsey.words import neg_tetris, tetris_power, word

AB = Alphabet.make([["0", "a", "b", "c"]], "0")
AB01 = Alphabet.make([["0", "a"]], "0")
# the substitution letter "a" is only allowed from generator index 1 on
GRADED = Alphabet.make([["0"], ["0", "a"]], "0")
INF = float("inf")


def uw(k, syms):
    return word(k, "unsigned", AB, syms)


def sw(k, syms):
    return word(k, "signed", AB, syms)


@st.composite
def signed_words(draw, k, min_len=1, max_len=12, letters=("0", "a")):
    length = draw(st.integers(min_len, max_len))
    syms = []
    for _ in range(length):
        pick = draw(st.integers(0, 2 * k + len(letters) - 1))
        if pick < len(letters):
            syms.append(letters[pick])
        else:
            idx = pick - len(letters) - k
            syms.append(idx if idx < 0 else idx + 1)
    return sw(k, syms)


class TestBasicOps:
    def test_concat_examples(self):
        assert concat(uw(1, [1]), uw(1, ["a", 1])) == uw(1, [1, "a", 1])

    @given(signed_words(k=2, max_len=5), signed_words(k=2, max_len=5),
           signed_words(k=2, max_len=5))
    def test_concat_associative_and_additive(self, x, y, z):
        assert concat(concat(x, y), z) == concat(x, concat(y, z))
        assert len(concat(x, y)) == len(x) + len(y)

    def test_substitute_examples(self):
        assert substitute(uw(1, [1, "a"]), ("b",)) == uw(1, ["b", "a"])
        x = uw(2, [1, "a", 2])
        assert substitute(x, None) == x
        # signed tuples are ordered (lam_{-k}, .., lam_{-1}, lam_1, .., lam_k)
        assert substitute(sw(1, [1, -1]), ("c", "b")) == sw(1, ["b", "c"])

    def test_substitute_arity(self):
        with pytest.raises(ValueError):
            substitute(uw(2, [1, 2]), ("a",))

    def test_tetris_examples(self):
        assert tetris_word(uw(2, [2, 1, "a"])) == uw(2, [1, "0", "a"])
        assert tetris_word(sw(2, [-2, 1])) == sw(2, [-1, "0"])
        w = uw(1, ["a", "b"])
        assert tetris_word(w) == w

    def test_reflect_examples(self):
        assert reflect_word(sw(2, [2, "a", -1])) == sw(2, [-2, "a", 1])
        w = sw(1, ["a", "b"])
        assert reflect_word(w) == w
        with pytest.raises(ValueError):
            reflect_word(uw(1, [1]))

    @given(signed_words(k=3))
    def test_reflect_involution(self, x):
        assert reflect_word(reflect_word(x)) == x

    @given(signed_words(k=2, max_len=6), signed_words(k=2, max_len=6))
    def test_reflect_homomorphism(self, x, y):
        assert reflect_word(concat(x, y)) == concat(reflect_word(x), reflect_word(y))

    def test_classify_examples(self):
        assert classify(uw(1, ["a", "b"])) == 0
        assert classify(uw(2, [1, 2, "a"])) == 2
        assert classify(sw(3, [-3, 1])) == 3

    @given(signed_words(k=3))
    def test_classify_drops_under_tetris(self, x):
        c = classify(x)
        if c >= 2:
            assert classify(tetris_word(x)) == c - 1

    def test_rapidly_increasing(self):
        assert is_rapidly_increasing([uw(1, [1]), uw(1, [1, 1]),
                                      uw(1, [1, 1, 1, 1])])
        assert not is_rapidly_increasing([uw(1, [1]), uw(1, [1, 1]),
                                          uw(1, [1, 1, 1])])
        assert is_rapidly_increasing([uw(1, [1])])


# six distinct substitution letters, so every slot of a signed k=3 tuple differs
AB6 = Alphabet.make([["0", "a", "b", "c", "d", "e", "f"]], "0")


def _per_symbol(x, f, k=None):
    """x with f applied to each symbol on its own (the reference below)."""
    return Word(x.k if k is None else k, x.mode, x.alphabet,
                tuple(f(sym) for sym in x.symbols))


def _tetris_once(sym):
    if not isinstance(sym, Var):
        return sym
    i = sym.index
    return Var(i - 1) if i > 1 else Var(i + 1) if i < -1 else Letter("0")


def _reflect(sym):
    return Var(-sym.index) if isinstance(sym, Var) else sym


class TestRewritesAgainstPerSymbolReference:
    """tetris_power, neg_tetris, substitute and halve against one-step maps
    applied symbol by symbol, on every word of length <= 3."""

    @pytest.mark.parametrize("mode", ["unsigned", "signed"])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_rewrites(self, mode, k):
        # (v_1, ..., v_k) unsigned, (v_-k, ..., v_-1, v_1, ..., v_k) signed:
        # also the order of the slots of a substitution tuple
        indices = list(range(1, k + 1)) if mode == "unsigned" else \
            list(range(-k, 0)) + list(range(1, k + 1))
        lam = tuple("abcdef"[:len(indices)])
        symbols = [Letter("0"), Letter("a")] + [Var(i) for i in indices]
        for length in (1, 2, 3):
            for combo in itertools.product(symbols, repeat=length):
                x = Word(k, mode, AB6, combo)
                assert tetris_power(x, 0) is x
                # T^j(x) and (-T)^j(x), one step at a time
                y = z = x
                for j in range(k + 2):
                    assert tetris_power(x, j) == y
                    if mode == "signed":
                        assert neg_tetris(x, j) == z
                        z = _per_symbol(_per_symbol(z, _tetris_once), _reflect)
                    y = _per_symbol(y, _tetris_once)
                assert substitute(x, lam) == _per_symbol(
                    x, lambda sym: Letter(lam[indices.index(sym.index)])
                    if isinstance(sym, Var) else sym)
                if mode == "signed" and k % 2 == 0:
                    # halving rounds toward zero, and +-1 land on the zero letter
                    assert halve(x) == _per_symbol(
                        x, lambda sym: (Var(int(sym.index / 2))
                                        if abs(sym.index) > 1 else Letter("0"))
                        if isinstance(sym, Var) else sym, k // 2)

    def test_neg_tetris_requires_signed_mode(self):
        x = uw(2, [2, 1])
        assert neg_tetris(x, 0) is x
        for j in (1, 2):
            with pytest.raises(ValueError, match="signed mode"):
                neg_tetris(x, j)


class TestCompose:
    def setup_method(self):
        self.Y = VarWordSequence((uw(2, [2, "a"]), uw(2, ["a", 1, 2])))

    def test_identity_segment(self):
        d = Decomposition((Segment(0, 1, 0, None),))
        assert compose(self.Y, d) == self.Y.words[0]

    def test_full_tetris_kills_variables(self):
        d = Decomposition((Segment(0, 1, 2, None),))
        out = compose(self.Y, d)
        assert classify(out) == 0
        assert out == uw(2, ["0", "a"])

    def test_two_segments_by_hand(self):
        d = Decomposition((Segment(0, 1, 1, None), Segment(1, 1, 0, None)))
        out = compose(self.Y, d)
        assert out == concat(tetris_word(self.Y.words[0]), self.Y.words[1])

    def test_grading_violation(self):
        ab = Alphabet.make([["0"], ["0", "a"]], "0")
        Y = VarWordSequence((word(1, "unsigned", ab, [1]),
                             word(1, "unsigned", ab, [1, "a"])))
        with pytest.raises(ValueError):
            compose(Y, Decomposition((Segment(0, 1, 0, ("a",)),)))
        # the same letter is fine one level up
        out = compose(Y, Decomposition((Segment(1, 1, 0, ("a",)),)))
        assert classify(out) == 0


def brute_span_words(Y, kind="words"):
    """Assignment-level brute force over all parameter choices.

    kind "words" keeps the full-class elements of the span, "negT" those of
    the (-T) span (pieces (-T)^j(x) or x[lam], some generator kept whole
    with sign +1), and "letters" every concatenation of substituted
    generators.
    """
    k, mode = Y.k, Y.mode
    arity = k if mode == "unsigned" else 2 * k
    signs = (1,) if mode == "unsigned" else (1, -1)
    out = set()
    n = len(Y)
    for size in range(1, n + 1):
        for subset in itertools.combinations(range(n), size):
            per_slot = []
            for pos in subset:
                opts = []
                level = sorted(Y.alphabet.level_at(Y.indices[pos]), key=str)
                if kind == "words":
                    for j in range(k + 1):
                        for s in signs:
                            opts.append((s, j, None))
                elif kind == "negT":
                    for j in range(k + 1):
                        opts.append(((-1) ** j, j, None))
                for lam in itertools.product(level, repeat=arity):
                    opts.append((1, 0, lam))
                per_slot.append(opts)
            for choice in itertools.product(*per_slot):
                if kind == "negT" and not any(
                        s == 1 and j == 0 and lam is None for s, j, lam in choice):
                    continue
                segs = tuple(
                    Segment(Y.indices[p], s, j, lam)
                    for p, (s, j, lam) in zip(subset, choice)
                )
                w = compose(Y, Decomposition(segs))
                if kind == "letters" or classify(w) == k:
                    out.add(w)
    return out


class TestSpans:
    def test_span_words_example(self):
        ab = Alphabet.make([["0", "a"]], "0")
        X = VarWordSequence((word(1, "unsigned", ab, [1]),
                             word(1, "unsigned", ab, [1, 1])))
        out = span_words(X)
        assert len(out) == 7
        assert set(out) == brute_span_words(X)

    def test_span_words_contains_generators(self):
        X = VarWordSequence((sw(2, [2]), sw(2, ["a", -2, 1])))
        out = set(span_words(X))
        assert X.words[0] in out and X.words[1] in out

    def test_span_words_signed_singleton(self):
        ab = Alphabet.make([["0", "a"]], "0")
        X = VarWordSequence((word(1, "signed", ab, [1]),))
        assert set(span_words(X)) == {word(1, "signed", ab, [1]),
                                      word(1, "signed", ab, [-1])}

    def test_span_letters_example(self):
        ab = Alphabet.make([["0", "a"]], "0")
        X = VarWordSequence((word(1, "unsigned", ab, [1]),))
        out = span_letters(X)
        assert set(out) == {word(1, "unsigned", ab, ["0"]),
                            word(1, "unsigned", ab, ["a"])}
        assert all(classify(w) == 0 for w in out)

    def test_span_negT_examples(self):
        ab = Alphabet.make([["0", "a"]], "0")
        x0 = word(2, "signed", ab, [1, 2])
        X = VarWordSequence((x0,))
        out = set(span_negT(X))
        assert x0 in out
        assert neg_tetris(x0) == word(2, "signed", ab, ["0", -1])

    def test_span_negT_inside_span_words(self):
        ab = Alphabet.make([["0", "a"]], "0")
        for mode_words in [
            (word(1, "signed", ab, [1]), word(1, "signed", ab, ["a", -1])),
            (word(2, "signed", ab, [2]), word(2, "signed", ab, [1, -2])),
        ]:
            X = VarWordSequence(mode_words)
            assert set(span_negT(X)) <= set(span_words(X))

    @pytest.mark.parametrize("mode,k,alphabet,lengths,positions", [
        ("unsigned", 1, AB01, (1, 2, 4), None),
        ("unsigned", 1, GRADED, (1, 2, 4), None),
        ("unsigned", 2, AB01, (1, 2), None),
        ("unsigned", 2, GRADED, (1, 2, 4), None),
        ("signed", 1, AB01, (1, 2, 4), None),
        ("signed", 1, GRADED, (1, 2, 4), None),
        ("signed", 1, GRADED, (2, 3), None),
        ("signed", 2, AB01, (1, 2), None),
        ("signed", 2, GRADED, (1, 2), None),
        ("signed", 2, GRADED, (2, 3), None),
        ("unsigned", 1, GRADED, (1, 2, 4), (1, 2)),
        ("signed", 2, GRADED, (1, 2, 4), (1, 2)),
    ])
    def test_three_spans_match_brute_force(self, mode, k, alphabet, lengths,
                                           positions):
        rng = random.Random(f"{mode}-{k}-{lengths}-{positions}")
        X = random_sequence(rng, alphabet, k, mode, lengths)
        if positions is not None:
            # the generators at `positions`, keeping their global indices
            X = VarWordSequence(tuple(X.words[p] for p in positions), positions)
            assert X.indices[0] == 1
        spans = {"words": span_words, "letters": span_letters}
        if mode == "signed":
            spans["negT"] = span_negT
        for kind, fn in spans.items():
            want = sorted(brute_span_words(X, kind), key=Word.sort_key)
            assert fn(X) == want, kind


class TestParse:
    def setup_method(self):
        ab = Alphabet.make([["0", "a"]], "0")
        self.ab = ab
        self.Y = VarWordSequence((word(1, "unsigned", ab, [1]),
                                  word(1, "unsigned", ab, ["a", 1, 1])))

    def test_generator_itself(self):
        d = parse_support(self.Y, self.Y.words[0])
        assert d == Decomposition((Segment(0, 1, 0, None),))

    def test_substituted_segment(self):
        x = word(1, "unsigned", self.ab, ["a", "a", 1, 1])
        d = parse_support(self.Y, x)
        assert d is not None
        assert d.gen_indices() == (0, 1)
        assert d.segments[0].lam == ("a",)
        assert compose(self.Y, d) == x

    def test_bad_length(self):
        x = word(1, "unsigned", self.ab, ["a", 1])
        assert parse_support(self.Y, x) is None

    def test_membership_iff_parse(self):
        members = set(span_words(self.Y))
        symbols = ["0", "a", 1]
        for ln in (1, 3, 4):
            for combo in itertools.product(symbols, repeat=ln):
                w = word(1, "unsigned", self.ab, combo)
                assert (w in members) == (parse_support(self.Y, w) is not None)

    def test_round_trip_random_decompositions(self):
        rng = random.Random(99)
        ab = Alphabet.make([["0", "a"], ["0", "a", "b"]], "0")
        Y = VarWordSequence((word(2, "signed", ab, [-2, "a"]),
                             word(2, "signed", ab, ["b", 2, 1]),
                             word(2, "signed", ab, ["0", 1, -2, "a", 2, "b"])))
        level_letters = [sorted(ab.level_at(i), key=str) for i in range(3)]
        for _ in range(200):
            size = rng.randint(1, 3)
            subset = sorted(rng.sample(range(3), size))
            segs = []
            full = rng.choice(range(size))
            for which, pos in enumerate(subset):
                if which == full:
                    segs.append(Segment(pos, rng.choice((1, -1)), 0, None))
                elif rng.random() < 0.5:
                    segs.append(Segment(pos, rng.choice((1, -1)),
                                        rng.randint(0, 1), None))
                else:
                    lam = tuple(rng.choice(level_letters[pos]) for _ in range(4))
                    segs.append(Segment(pos, 1, 0, lam))
            x = compose(Y, Decomposition(tuple(segs)))
            if classify(x) != 2:
                continue
            d = parse_support(Y, x)
            assert d is not None
            assert d.gen_indices() == tuple(subset)
            assert compose(Y, d) == x

    def test_is_block_subseq(self):
        Y = self.Y
        assert is_block_subseq(Y, Y)
        a = compose(Y, Decomposition((Segment(0, 1, 0, None),)))
        b = compose(Y, Decomposition((Segment(1, 1, 0, None),)))
        X = VarWordSequence((a, b))
        assert is_block_subseq(X, Y)
        # order violation: the second word reuses the first generator
        same = VarWordSequence((a, concat(a, b)))
        assert not is_block_subseq(same, Y)


class TestMetric:
    def test_compatible_examples(self):
        assert compatible(sw(2, [1, "a"]), sw(2, [-2, "a"]))
        assert not compatible(sw(2, ["a", 1]), sw(2, ["b", 1]))

    @given(signed_words(k=2, max_len=6), signed_words(k=2, max_len=6),
           signed_words(k=2, max_len=6))
    def test_compatibility_transitive(self, x, y, z):
        if compatible(x, y) and compatible(y, z):
            assert compatible(x, z)

    def test_dist_examples(self):
        assert dist_words(sw(2, [2, 1]), sw(2, [1, "0"])) == 1
        assert dist_words(sw(1, [1, "a"]), sw(1, [-1, "a"])) == 2
        assert dist_words(sw(1, ["a", 1]), sw(1, ["b", 1])) == INF

    @given(signed_words(k=2, max_len=8), signed_words(k=2, max_len=8),
           signed_words(k=2, max_len=8))
    def test_dist_metric_laws(self, x, y, z):
        assert dist_words(x, y) == dist_words(y, x)
        assert (dist_words(x, y) == 0) == (x == y)
        assert dist_words(x, z) <= dist_words(x, y) + dist_words(y, z)

    def test_dist_seqs(self):
        X = VarWordSequence((sw(1, [1]), sw(1, ["a", 1])))
        assert dist_seqs(X, X) == 0
        Y = VarWordSequence((sw(1, [-1]), sw(1, ["a", -1])))
        assert dist_seqs(X, Y) == 2
        short = VarWordSequence((sw(1, [1]),))
        assert dist_seqs(X, short) == INF


class TestHalving:
    def test_halve_examples(self):
        assert halve(sw(4, [4, 3, -3, "a"])) == sw(2, [2, 1, -1, "a"])
        assert halve(sw(2, [2, 1])) == sw(1, [1, "0"])

    @given(signed_words(k=3, max_len=12))
    def test_halve_commutes_with_reflection(self, x):
        x = word(6, "signed", AB, [s.index if isinstance(s, Var) else s.token
                                   for s in x.symbols])
        assert halve(reflect_word(x)) == reflect_word(halve(x))

    @given(signed_words(k=2, max_len=6), signed_words(k=2, max_len=6))
    def test_halve_is_homomorphism(self, x, y):
        x = _rebound(x, 4)
        y = _rebound(y, 4)
        assert halve(concat(x, y)) == concat(halve(x), halve(y))

    def test_halve_tetris_interchange(self):
        rng = random.Random(3)
        for _ in range(200):
            k = rng.choice((1, 2, 3))
            x = _random_signed(rng, 2 * k, rng.randint(1, 8))
            y = _random_signed(rng, 2 * k, rng.randint(1, 8))
            i = rng.randint(0, k)
            j = rng.choice((0, i)) if i else 0
            if rng.random() < 0.5:
                i, j = j, i
            lhs = halve(concat(tetris_power(x, 2 * i), tetris_power(y, 2 * j)))
            rhs = concat(tetris_power(halve(x), i), tetris_power(halve(y), j))
            assert lhs == rhs

    def test_halve_contracts_distance(self):
        rng = random.Random(4)
        for _ in range(300):
            k = rng.choice((1, 2, 3))
            x = _random_signed(rng, 2 * k, rng.randint(1, 12))
            y = _perturb(rng, x, 2)
            assert dist_words(x, y) <= 2
            assert dist_words(halve(x), halve(y)) <= 1
            assert compatible(halve(x), halve(y))


def _rebound(x, k):
    return word(k, "signed", x.alphabet,
                [s.index if isinstance(s, Var) else s.token for s in x.symbols])


def _random_signed(rng, k, length, letters=("0", "a")):
    syms = []
    for _ in range(length):
        if rng.random() < 0.4:
            syms.append(rng.choice(letters))
        else:
            syms.append(rng.choice([i for i in range(-k, k + 1) if i != 0]))
    return sw(k, syms)


def _perturb(rng, x, radius):
    """A word within the given distance of x (letters left alone)."""
    k = x.k
    syms = []
    for s in x.symbols:
        if isinstance(s, Letter) and s.token != "0":
            syms.append(s.token)
            continue
        idx = 0 if isinstance(s, Letter) else s.index
        new = idx + rng.randint(-radius, radius)
        new = max(-k, min(k, new))
        syms.append("0" if new == 0 else new)
    return sw(k, syms)


class TestLiftDouble:
    def setup_method(self):
        ab = Alphabet.make([["0", "a"]], "0")
        self.ab = ab
        self.Yt = VarWordSequence((word(4, "signed", ab, [4, "a"]),
                                   word(4, "signed", ab, ["a", -4, 2]),
                                   word(4, "signed", ab, [1, 4, "0", -3, 2, "a"])))
        self.Y = VarWordSequence(tuple(halve(w) for w in self.Yt.words))

    def test_identity_segment(self):
        d = Decomposition((Segment(0, 1, 0, None),))
        out = lift_double(self.Yt, d)
        assert out == self.Yt.words[0]
        assert halve(out) == self.Y.words[0]

    def test_exponent_doubles(self):
        d = Decomposition((Segment(1, 1, 1, None),))
        out = lift_double(self.Yt, d)
        assert out == tetris_power(self.Yt.words[1], 2)
        assert halve(out) == tetris_word(halve(self.Yt.words[1]))

    def test_mixed_signs_round_trip(self):
        rng = random.Random(17)
        letters = ["0", "a"]
        for _ in range(100):
            segs = []
            subset = sorted(rng.sample(range(3), rng.randint(1, 3)))
            full = rng.choice(range(len(subset)))
            for which, pos in enumerate(subset):
                sign = rng.choice((1, -1))
                if which == full:
                    segs.append(Segment(pos, sign, 0, None))
                elif rng.random() < 0.5:
                    segs.append(Segment(pos, sign, rng.randint(0, 2), None))
                else:
                    lam = tuple(rng.choice(letters) for _ in range(4))
                    segs.append(Segment(pos, 1, 0, lam))
            d = Decomposition(tuple(segs))
            assert halve(lift_double(self.Yt, d)) == compose(self.Y, d)


class TestApproxNegT:
    def setup_method(self):
        ab = Alphabet.make([["0", "a"]], "0")
        self.ab = ab
        self.Y = VarWordSequence((word(2, "signed", ab, [2]),
                                  word(2, "signed", ab, ["a", -1, 2]),
                                  word(2, "signed", ab, [1, 2, "0", -2, "a"])))

    def test_generator_is_fixed(self):
        z, matched = approx_negT(self.Y, self.Y.words[0])
        assert matched == "direct"
        assert z == self.Y.words[0]

    def test_odd_exponent_gets_bumped(self):
        x = concat(tetris_word(self.Y.words[0]), self.Y.words[1])
        z, matched = approx_negT(self.Y, x)
        assert matched == "direct"
        expect = concat(tetris_power(reflect_word(tetris_word(self.Y.words[0])), 1),
                        self.Y.words[1])
        assert z == concat(neg_tetris(self.Y.words[0], 2), self.Y.words[1])
        assert dist_words(x, z) <= 1
        assert z in set(span_negT(self.Y))

    def test_reflected_generator(self):
        x = reflect_word(self.Y.words[0])
        z, matched = approx_negT(self.Y, x)
        assert matched == "reflected"
        assert dist_words(reflect_word(x), z) == 0

    def test_exhaustive_contract_small(self):
        Y = VarWordSequence((self.Y.words[0], self.Y.words[1]))
        neg_span = set(span_negT(Y))
        for x in span_words(Y):
            z, matched = approx_negT(Y, x)
            assert z in neg_span
            d_direct = dist_words(x, z)
            d_reflected = dist_words(reflect_word(x), z)
            assert min(d_direct, d_reflected) <= 1
            if matched == "direct":
                assert d_direct <= 1
            else:
                assert d_reflected <= 1
