"""Vector/matrix encodings of word sequences and the decode construction."""

import functools
import itertools
import random

import pytest

from blockramsey import (
    BlockSequence,
    BlockVector,
    ParamMatrix,
    VarWordSequence,
    bit_letter,
    bitstring_alphabet,
    decode_witness,
    derive_B,
    perfect_set,
    phi_encode,
    product_to_sigmas,
    psi_encode,
)
from blockramsey import encodings as E
from blockramsey.encodings import letter_level, substituted_pairs
from blockramsey.sampling import (
    random_satisfying_string,
    random_sequence,
    random_span_element,
)
from blockramsey.words import (Letter, Var, VarWordSequence, Word, concat,
                              is_block_subseq, word)

AB = bitstring_alphabet(3)
E0 = (1,)  # the level-0 letter with bit 0 set
ZERO = ()


def bw(k, mode, syms):
    return word(k, mode, AB, syms)


class TestBitLetters:
    def test_canonical_form(self):
        assert bit_letter((1, 0, 0)) == (1,)
        assert bit_letter(()) == ()
        assert letter_level(()) == 0
        assert letter_level((1,)) == 0
        assert letter_level((0, 1)) == 1

    def test_alphabet_levels(self):
        ab = bitstring_alphabet(2)
        assert [len(lv) for lv in ab.levels] == [2, 4, 8]
        assert ab.zero == ()
        assert ab.levels[0] < ab.levels[1] < ab.levels[2]

    def test_alphabet_over_the_cap_fails_before_building(self, monkeypatch):
        def no_letters(*args, **kwargs):
            raise AssertionError("a letter was built")

        # level n has 2^(n+1) letters: with a cap of 8, level 2 is the last
        monkeypatch.setattr(E, "MAX_UNIVERSE_CELLS", 8)
        assert len(bitstring_alphabet(2).top) == 8
        monkeypatch.setattr(E.itertools, "product", no_letters)
        for level in (3, 40, 10**9):
            with pytest.raises(ValueError, match=f"bitstring level {level} "
                                                 "has 2\\^"):
                bitstring_alphabet(level)


class TestPhi:
    def test_single_word(self):
        X = VarWordSequence((bw(2, "unsigned", [E0, 2, 1]),))
        assert phi_encode(X).blocks == (
            BlockVector.make(2, "unsigned", {1: 2, 2: 1}),
        )

    def test_offsets_accumulate(self):
        X = VarWordSequence((bw(1, "unsigned", [1]),
                             bw(1, "unsigned", [1, 1])))
        A = phi_encode(X)
        assert A.blocks[0] == BlockVector.make(1, "unsigned", {0: 1})
        assert A.blocks[1] == BlockVector.make(1, "unsigned", {1: 1, 2: 1})

    def test_signed_indices(self):
        X = VarWordSequence((bw(1, "signed", [1, -1]),))
        assert phi_encode(X).blocks == (
            BlockVector.make(1, "signed", {0: 1, 1: -1}),
        )

    def test_always_block_ordered(self):
        rng = random.Random(0)
        for _ in range(30):
            X = random_sequence(rng, AB, 2, "signed", (2, 3, 6))
            phi_encode(X)  # constructor validates strict block order


class TestPsi:
    def test_letter_rows(self):
        X = VarWordSequence((bw(1, "unsigned", [E0, 1]),))
        M = psi_encode(X)
        assert (M.rows, M.cols) == (2, 1)
        assert M.bit(0, 0) == 1 and M.bit(1, 0) == 0

    def test_all_variables_zero_matrix(self):
        X = VarWordSequence((bw(1, "signed", [1, -1]),))
        assert psi_encode(X).bits == frozenset()

    def test_zero_letter_indistinguishable_from_variable(self):
        rng = random.Random(1)
        for _ in range(30):
            X = random_sequence(rng, AB, 1, "unsigned", (2, 3))
            words = list(X.words)
            syms = list(words[0].symbols)
            spots = [i for i, s in enumerate(syms) if isinstance(s, Var)]
            syms[rng.choice(spots)] = Letter(ZERO)
            replaced = Word(1, "unsigned", AB, tuple(syms))
            if not any(isinstance(s, Var) for s in replaced.symbols):
                continue
            Y = VarWordSequence((replaced, words[1]))
            assert psi_encode(Y, cols=4) == psi_encode(X, cols=4)

    def test_rejects_non_bitstring_letters(self):
        from blockramsey import Alphabet
        ab = Alphabet.make([["0", "a"]], "0")
        X = VarWordSequence((word(1, "unsigned", ab, ["a", 1]),))
        with pytest.raises(ValueError):
            psi_encode(X)


class TestDeriveB:
    def test_example(self):
        Y = VarWordSequence((bw(1, "unsigned", [1]),
                             bw(1, "unsigned", [E0, 1, 1])))
        B = derive_B(Y)
        assert B.blocks == (BlockVector.make(1, "unsigned", {2: 1, 3: 1}),)

    def test_four_words(self):
        Y = VarWordSequence((bw(1, "unsigned", [1]),
                             bw(1, "unsigned", [E0, 1]),
                             bw(1, "unsigned", [1, 1, E0, 1]),
                             bw(1, "unsigned", [1, E0, 1, 1, E0, 1, E0, 1])))
        B = derive_B(Y)
        assert len(B) == 2
        assert B.blocks[0].min_support >= 1
        assert B.blocks[0].max_support < B.blocks[1].min_support

    def test_signed_entries(self):
        Y = VarWordSequence((bw(1, "signed", [1]),
                             bw(1, "signed", [E0, -1, 1])))
        B = derive_B(Y)
        assert B.blocks[0] == BlockVector.make(1, "signed", {2: -1, 3: 1})

    def test_odd_length_rejected(self):
        Y = VarWordSequence((bw(1, "unsigned", [1]),))
        with pytest.raises(ValueError):
            derive_B(Y)


def _four_word_Y(mode="unsigned"):
    idx = -1 if mode == "signed" else 1
    return VarWordSequence((
        bw(1, mode, [1]),
        bw(1, mode, [E0, 1]),
        bw(1, mode, [1, ZERO, idx, E0]),
        bw(1, mode, [E0, 1, ZERO, 1, E0, idx, ZERO, 1]),
    ))


class TestPerfectSets:
    def test_letter_positions_forced(self):
        Y = _four_word_Y()
        word_y = functools.reduce(concat, Y.words)
        for i in range(2):
            desc = perfect_set(Y, i)
            forced = dict(desc.forced)
            for n, sym in enumerate(word_y.symbols):
                if isinstance(sym, Letter):
                    assert forced[n] == (sym.token[i] if i < len(sym.token) else 0)

    def test_variables_below_threshold_forced_zero(self):
        Y = _four_word_Y()
        desc = perfect_set(Y, 1)
        forced = dict(desc.forced)
        # variables of words 0 and 1 sit below the threshold |y0|+|y1|
        assert forced[0] == 0
        word_y = functools.reduce(concat, Y.words)
        for n in range(1, 3):
            if isinstance(word_y.symbols[n], Var):
                assert forced[n] == 0

    def test_free_bit_count_doubles_per_interval(self):
        Y = _four_word_Y()
        for i in range(2):
            desc = perfect_set(Y, i)
            strings = list(desc.strings())
            assert len(strings) == desc.count() == 2
            assert all(desc.satisfies(s) for s in strings)
            assert len(set(strings)) == len(strings)

    def test_branching_when_interval_has_variables(self):
        Y = _four_word_Y("signed")
        for i in range(2):
            assert perfect_set(Y, i).count() >= 2

    def test_exhaustive_membership(self):
        Y = _four_word_Y()
        desc = perfect_set(Y, 0)
        members = set(desc.strings())
        for bits in itertools.product((0, 1), repeat=desc.length):
            assert desc.satisfies(bits) == (bits in members)


class TestProductToSigmas:
    def test_all_zero_strings(self):
        Y = _four_word_Y()
        deltas = []
        for i in range(2):
            desc = perfect_set(Y, i)
            base = [0] * desc.length
            for n, b in desc.forced:
                base[n] = b
            deltas.append(tuple(base))
        sigmas = product_to_sigmas(Y, deltas)
        assert sigmas[0] == ()
        # free class bits are zero, so the interval letter has no set bits
        assert sigmas[1] == ()

    def test_flipping_free_bit_flips_letter(self):
        Y = _four_word_Y()
        descs = [perfect_set(Y, i) for i in range(2)]
        base = []
        for desc in descs:
            bits = [0] * desc.length
            for n, b in desc.forced:
                bits[n] = b
            base.append(bits)
        flipped = [list(b) for b in base]
        for n in descs[0].classes[0]:
            flipped[0][n] = 1
        sigmas = product_to_sigmas(Y, [tuple(flipped[0]), tuple(base[1])])
        assert sigmas[1] == (1,)

    def test_matrix_round_trip(self):
        rng = random.Random(5)
        Y = _four_word_Y()
        descs = [perfect_set(Y, i) for i in range(2)]
        for _ in range(8):
            deltas = [random_satisfying_string(rng, d) for d in descs]
            sigmas = product_to_sigmas(Y, deltas)
            X = substituted_pairs(Y, sigmas)
            assembled = ParamMatrix(
                descs[0].length, 2,
                frozenset((n, i) for i, delta in enumerate(deltas)
                          for n, b in enumerate(delta) if b),
            )
            assert psi_encode(X, cols=2) == assembled

    def test_sigma_levels(self):
        rng = random.Random(6)
        Y = random_sequence(rng, bitstring_alphabet(4), 1, "unsigned",
                            (1, 2, 4, 8, 16, 32))
        descs = [perfect_set(Y, i) for i in range(3)]
        deltas = [random_satisfying_string(rng, d) for d in descs]
        sigmas = product_to_sigmas(Y, deltas)
        for m, tok in enumerate(sigmas):
            assert letter_level(tok) <= 2 * m

    def test_violating_string_rejected(self):
        Y = _four_word_Y()
        desc = perfect_set(Y, 0)
        bad = [1] * desc.length
        with pytest.raises(ValueError):
            product_to_sigmas(Y, [tuple(bad)])

    def test_odd_length_rejected_without_columns(self):
        # no column builds no perfect set, so this once returned [()]
        Y = VarWordSequence(_four_word_Y().words[:3])
        with pytest.raises(ValueError, match="even length"):
            product_to_sigmas(Y, [])


class TestDecode:
    def test_identity_decode(self):
        Y = _four_word_Y()
        B = derive_B(Y)
        sigmas = [ZERO, ZERO]
        Z = decode_witness(Y, B, sigmas)
        assert phi_encode(Z) == B
        X = substituted_pairs(Y, sigmas)
        assert psi_encode(Z) == psi_encode(X)

    def test_merged_block(self):
        Y = _four_word_Y()
        B = derive_B(Y)
        merged = BlockVector(1, "unsigned",
                             B.blocks[0].entries + B.blocks[1].entries)
        A = BlockSequence((merged,))
        Z = decode_witness(Y, A, [ZERO, E0])
        assert len(Z) == 1
        assert phi_encode(Z) == A
        X = substituted_pairs(Y, [ZERO, E0])
        assert psi_encode(Z) == psi_encode(X)

    def test_signed_reflection(self):
        Y = _four_word_Y("signed")
        B = derive_B(Y)
        from blockramsey import negate
        A = BlockSequence((negate(B.blocks[0]),))
        Z = decode_witness(Y, A, [ZERO, ZERO])
        assert phi_encode(Z) == A
        direct = decode_witness(Y, B, [ZERO, ZERO])
        from blockramsey.words import reflect_word
        # the reflected decode mirrors the direct one on the covered pair
        head = len(Y.words[0]) + len(Y.words[1])
        assert Z.words[0].symbols[:head] == \
            reflect_word(direct.words[0]).symbols[:head]

    def test_block_subsequence_of_pairs(self):
        rng = random.Random(9)
        for mode in ("unsigned", "signed"):
            Y = random_sequence(rng, AB, 2, mode, (2, 3, 6, 12))
            B = derive_B(Y)
            sigmas = [ZERO, bit_letter((rng.randrange(2), rng.randrange(2)))]
            a = random_span_element(rng, B)
            Z = decode_witness(Y, BlockSequence((a,)), sigmas)
            X = substituted_pairs(Y, sigmas)
            assert is_block_subseq(Z, X)
            assert is_block_subseq(Z, Y)

    def test_not_in_span_rejected(self):
        Y = _four_word_Y()
        bad = BlockSequence((BlockVector.make(1, "unsigned", {0: 1}),))
        with pytest.raises(ValueError):
            decode_witness(Y, bad, [ZERO, ZERO])

    def test_piece_above_the_block_magnitude_rejected(self):
        # a k=2 piece over a k=1 block once parsed as the tetris power T^-1
        Y = _four_word_Y()
        b = derive_B(Y).blocks[0]
        above = BlockVector(2, "unsigned", tuple((n, 2 * v) for n, v in b.entries))
        with pytest.raises(ValueError, match="does not restrict to a tetris image"):
            decode_witness(Y, BlockSequence((above,)), [ZERO, ZERO])

    def test_random_round_trips(self):
        rng = random.Random(11)
        for mode in ("unsigned", "signed"):
            for _ in range(20):
                n_words = rng.choice((4, 6))
                lengths = []
                total = 0
                for _ in range(n_words):
                    ln = total + rng.randint(1, 2)
                    lengths.append(ln)
                    total += ln
                Y = random_sequence(rng, AB, rng.choice((1, 2)), mode,
                                    tuple(lengths))
                B = derive_B(Y)
                sigmas = []
                for m in range(n_words // 2):
                    depth = min(2 * m, 3)
                    sigmas.append(bit_letter(
                        tuple(rng.randrange(2) for _ in range(depth + 1))))
                size = rng.randint(1, len(B))
                picked = sorted(rng.sample(range(len(B)), size))
                blocks = []
                for bi in picked:
                    blocks.append(random_span_element(
                        rng, BlockSequence((B.blocks[bi],))))
                A = BlockSequence(tuple(blocks))
                Z = decode_witness(Y, A, sigmas)
                assert phi_encode(Z) == A
                X = substituted_pairs(Y, sigmas)
                assert psi_encode(Z) == psi_encode(X)
