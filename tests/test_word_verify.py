"""The word side of verify_witness: the per-slot span oracle and the word
ball, each against a brute-force reference kept here."""

import itertools
import random

import numpy as np
import pytest

from blockramsey import Alphabet, Colouring, Witness, search_ghj, verify_witness
from blockramsey import search as S
from blockramsey import vectors as V
from blockramsey import words as W
from blockramsey.encodings import bitstring_alphabet
from blockramsey.search import oracle_span_words, word_ball, word_candidates
from blockramsey.words import Letter, Var, VarWordSequence, Word, classify

AB = Alphabet.make([["0", "a"]], "0")
# the substitution letter "a" is only allowed from generator index 1 on
GRADED = Alphabet.make([["0"], ["0", "a"]], "0")


def brute_force_span(Y):
    """Every word whose length is a subset sum of the generator lengths,
    kept when it parses over Y (the unfactorised generate-then-filter)."""
    lengths = [len(w) for w in Y.words]
    sums = sorted({
        sum(lengths[i] for i in subset)
        for size in range(1, len(lengths) + 1)
        for subset in itertools.combinations(range(len(lengths)), size)
    })
    letters = sorted(Y.alphabet.top, key=W.letter_key)
    indices = range(1, Y.k + 1) if Y.mode == "unsigned" else \
        [i for i in range(-Y.k, Y.k + 1) if i != 0]
    symbols = [Letter(t) for t in letters] + [Var(i) for i in indices]
    out = []
    for ln in sums:
        for combo in itertools.product(symbols, repeat=ln):
            w = Word(Y.k, Y.mode, Y.alphabet, combo)
            if W.parse_support(Y, w) is not None:
                out.append(w)
    out.sort(key=Word.sort_key)
    return out


def _sequence(rng, alphabet, k, mode, lengths):
    return VarWordSequence(tuple(
        rng.choice(word_candidates(alphabet, k, mode, ln)) for ln in lengths))


@pytest.mark.parametrize("mode", ["unsigned", "signed"])
@pytest.mark.parametrize("k", [1, 2])
def test_oracle_matches_brute_force(mode, k):
    rng = random.Random(f"{mode}-{k}")
    for alphabet in (AB, GRADED):
        for _ in range(2 if (k, mode) == (1, "unsigned") else 1):
            pair = _sequence(rng, alphabet, k, mode, (1, 2))
            # the last two generators, keeping their global indices
            tail = VarWordSequence(
                _sequence(rng, alphabet, k, mode, (1, 2, 4)).words[1:], (1, 2))
            assert tail.indices == (1, 2)
            for Y in (pair, tail):
                assert oracle_span_words(Y) == brute_force_span(Y)


def test_oracle_calls_none_of_the_code_it_checks(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the oracle called the span code it checks")

    Y = _sequence(random.Random(5), GRADED, 2, "signed", (1, 2))
    for module, name in ((W, "span_words"), (W, "compose"), (W, "_slot_pieces"),
                         (W, "span_combinations"), (W, "eval_segment"),
                         (V, "span_step"),
                         (S, "_full_class_words"), (S, "word_candidates")):
        monkeypatch.setattr(module, name, forbidden)
    assert oracle_span_words(Y) == brute_force_span(Y)


@pytest.mark.parametrize("mode", ["unsigned", "signed"])
@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("letters", [None, ["a"]])
def test_word_candidates_match_product_then_classify(mode, k, letters):
    tokens = sorted(GRADED.top) if letters is None else letters
    indices = range(1, k + 1) if mode == "unsigned" else \
        [i for i in range(-k, k + 1) if i != 0]
    symbols = [Letter(t) for t in tokens] + [Var(i) for i in indices]
    for length in range(1, 5):
        words = (Word(k, mode, GRADED, combo)
                 for combo in itertools.product(symbols, repeat=length))
        want = sorted((w for w in words if classify(w) == k), key=Word.sort_key)
        assert word_candidates(GRADED, k, mode, length, letters) == want


def test_oracle_grades_by_global_index():
    # "a" may substitute into a generator from index 1 on, also in a
    # subsequence where that generator comes first
    mk = lambda *syms: W.word(1, "unsigned", GRADED, syms)
    Y = VarWordSequence((mk(1), mk("0", 1), mk("0", "0", "0", 1)))
    assert W.concat(mk("a"), Y.words[1]) not in oracle_span_words(Y)
    assert W.concat(mk("0", "a"), Y.words[2]) in oracle_span_words(Y)
    tail = VarWordSequence(Y.words[1:], (1, 2))
    assert W.concat(mk("0", "a"), Y.words[2]) in oracle_span_words(tail)


@pytest.mark.parametrize("k", [1, 2])
def test_word_ball_matches_brute_force_in_canonical_order(k):
    symbols = [Letter("0"), Letter("a")] + \
        [Var(i) for i in range(-k, k + 1) if i != 0]
    for ln in range(1, 5):
        # words with other nonzero-letter positions are at infinite distance,
        # so each word is compared with its own group only
        groups = {}
        for combo in itertools.product(symbols, repeat=ln):
            y = Word(k, "signed", AB, combo)
            groups.setdefault(tuple(W._letter_positions(y)), []).append(y)
        for group in groups.values():
            index = np.array([[0 if isinstance(s, Letter) else s.index
                               for s in y.symbols] for y in group])
            near = np.abs(index[:, None, :] - index[None, :, :]).max(axis=2) <= 1
            for x, row in zip(group, near):
                if classify(x) != k:
                    continue
                want = sorted((y for y, ok in zip(group, row)
                               if ok and classify(y) == k), key=Word.sort_key)
                assert all(W.dist_words(x, y) <= 1 for y in want)
                ball = word_ball(x, 1)
                assert ball == want
                assert ball == sorted(ball, key=Word.sort_key)


def test_word_oracle_over_the_cap_fails_before_trying(monkeypatch):
    # a witness the search finds in well under a second; its length-8
    # generator alone has 9^8 candidate pieces
    c = Colouring.family("value-at-min-support", 2, arity="word")
    found = search_ghj(bitstring_alphabet(2), 1, "unsigned", 2, c, (1, 2, 4, 8))
    assert isinstance(found, Witness)
    monkeypatch.setattr(W, "_parse_segment",
                        lambda *a: pytest.fail("a piece was tried"))
    with pytest.raises(ValueError, match="^43053372 oracle pieces to try "
                                         "exceed the cap of 1000000$"):
        verify_witness(found, c)


def test_four_generator_word_witness_verifies():
    c = Colouring.family("value-at-min-support", 2, arity="word")
    found = search_ghj(AB, 1, "unsigned", 2, c, (1, 2, 4, 8))
    assert isinstance(found, Witness)
    report = verify_witness(found, c)
    assert report.passed and report.checked == 175
