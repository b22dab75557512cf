"""Values the searches decode from their own codes are built without their
constructors' checks.  These tests hold them, and the certificate dicts
and lifted colours read off codes, to what the validating constructors
and the Word-level paths give; and they check that the public
constructors and the independent oracles still validate."""

import pytest

import blockramsey.search as S
from blockramsey import (
    BlockSequence,
    BlockVector,
    Colouring,
    PipelineBounds,
    SearchProblem,
    Witness,
    enumerate_universe,
    parametrized_pipeline,
    search_approx,
    search_ghj,
)
from blockramsey.encodings import ParamMatrix, bitstring_alphabet, phi_encode, psi_encode
from blockramsey.search import iter_vector_ball, iter_word_ball, oracle_span_vectors
from blockramsey.words import Alphabet, Letter, Var, VarWordSequence, Word

STRING_LETTERS = Alphabet.make([["0", "a", "b"]], "0")
BIT_LETTERS = Alphabet.make([[(), (1,)]], ())


def _containers(obj):
    """Every dict and list inside a JSON-shaped value, obj included."""
    if isinstance(obj, dict):
        yield obj
        for value in obj.values():
            yield from _containers(value)
    elif isinstance(obj, list):
        yield obj
        for value in obj:
            yield from _containers(value)


@pytest.mark.parametrize("mode,k,N", [(mode, k, N) for mode in ("unsigned", "signed")
                                      for k in (1, 2) for N in range(1, 6)])
def test_decoded_vectors_equal_validated_ones(mode, k, N):
    # enumerate_universe builds every member through BlockVector's checks,
    # in the kernel's code order
    kernel = S._VectorKernel(SearchProblem(mode, k, 2, N, 1), Colouring.seeded(0, 2))
    universe = enumerate_universe(k, N, mode)
    assert len(kernel.codes) == len(universe)
    for code, validated in zip(kernel.codes, universe):
        trusted = kernel.decode(code)
        assert type(trusted) is BlockVector
        assert trusted == validated and hash(trusted) == hash(validated)
        assert trusted.to_dict() == validated.to_dict() == kernel.to_dict(code)


@pytest.mark.parametrize("k,lengths", [(1, (1, 2, 4)), (2, (2, 3))])
@pytest.mark.parametrize("alphabet", [STRING_LETTERS, BIT_LETTERS])
def test_decoded_words_equal_validated_ones(alphabet, k, lengths):
    # every code that signed radius-1 searches and their certificates
    # colour, and every piece code they combine, against the Word its
    # symbols make through the checks
    codes = set()
    for colouring in ([Colouring.seeded(seed, 2, arity="word") for seed in range(3)]
                      + [Colouring.family(name, 2, arity="word")
                         for name in S.FAMILIES]):
        space = S._WordCodes(alphabet, k, "signed", 1, colouring, lengths, None)
        colour, pieces = space.colour, space.pieces
        space.colour = lambda code: codes.add(code) or colour(code)
        space.pieces = lambda cand: codes.update(
            code for code, _ in pieces(cand)) or pieces(cand)
        S._dfs(len(lengths), space, 2)  # its certificate's walks included
    assert len(codes) > 50
    for code in codes:
        trusted = space.decode(code)
        validated = Word(k, "signed", alphabet,
                         tuple(space.table[p] for p in code))
        assert type(trusted) is Word
        assert trusted == validated and hash(trusted) == hash(validated)
        assert trusted.to_dict() == validated.to_dict() == space.to_dict(code)


@pytest.mark.parametrize("make", [
    lambda: search_approx(SearchProblem("signed", 1, 3, 5, 3, 1),
                          Colouring.seeded(1, 3)),
    lambda: search_approx(SearchProblem("signed", 2, 3, 5, 2, 1),
                          Colouring.seeded(2, 3)),
    lambda: search_ghj(BIT_LETTERS, 1, "signed", 2,
                       Colouring.family("support-size-mod", 2, arity="word"),
                       (1, 2, 4)),
    lambda: search_ghj(STRING_LETTERS, 2, "signed", 2,
                       Colouring.family("support-size-mod", 2, arity="word"),
                       (2, 3)),
], ids=["vector-k1", "vector-k2", "word-bits", "word-strings"])
def test_certificate_entries_share_no_mutable_object(make):
    # an edit to one entry's dicts or lists (a bit-tuple letter's list
    # included) must show nowhere else in the certificate
    res = make()
    assert isinstance(res, Witness) and len(res.certificate) > 10
    found = [id(c) for c in _containers(list(res.certificate))]
    assert len(found) == len(set(found))


@pytest.mark.parametrize("mode,k", [("unsigned", 1), ("unsigned", 2),
                                    ("signed", 1), ("signed", 2)])
def test_code_path_lifts_as_lifted_words(mode, k):
    # the search feeds the lift rule a code's per-place lift pairs; the
    # sampling check feeds it a Word: both must hand the colouring the
    # encodings of the one-word sequence, for every word of a (1,2,4) slot
    seen = []
    record = Colouring.custom(lambda A, M: seen.append((A, M)) or len(M.bits) % 2,
                              2, arity="vector_matrix")
    alphabet = bitstring_alphabet(1)
    lifted = S._lift(record, 2)
    space = S._WordCodes(alphabet, k, mode, 0, lifted, (1, 2, 4), None)
    for length in (1, 2, 4):
        for w in S.word_candidates(alphabet, k, mode, length):
            seen.clear()
            from_code = space.colour(space.code(w.symbols))
            from_word = 1 << lifted(w)
            seq = VarWordSequence((w,))
            assert seen == [(phi_encode(seq), psi_encode(seq, 2))] * 2
            assert from_code == from_word


@pytest.mark.parametrize("mode", ["unsigned", "signed"])
@pytest.mark.parametrize("colour,message", [
    (True, "colour True is not an integer"),
    (1.0, "colour 1.0 is not an integer"),
    (2, r"colour 2 out of range \[0, 2\)"),
    (-1, r"colour -1 out of range \[0, 2\)"),
])
def test_code_path_checks_every_colour(monkeypatch, mode, colour, message):
    # the pipeline's word search colours codes, never decoded words
    def no_decode(self, code):
        raise AssertionError("the search decoded a code to colour it")

    monkeypatch.setattr(S._WordCodes, "decode", no_decode)
    bad = Colouring.custom(lambda A, M: colour, 2, arity="vector_matrix")
    with pytest.raises(ValueError, match=message):
        parametrized_pipeline(bad, PipelineBounds(mode=mode, k=1, lengths=(2, 3)))


def test_public_constructors_still_validate():
    # searches made trusted values of these classes before this runs
    search_ghj(BIT_LETTERS, 1, "signed", 2,
               Colouring.family("support-size-mod", 2, arity="word"), (1, 2))
    search_approx(SearchProblem("signed", 1, 2, 4, 2, 1), Colouring.seeded(0, 2))
    refused = [
        lambda: BlockVector(1, "signed", ()),
        lambda: BlockVector(1, "signed", ((0, 2),)),
        lambda: BlockVector(2, "signed", ((0, 1),)),
        lambda: BlockVector(1, "unsigned", ((0, -1),)),
        lambda: BlockVector(1, "signed", ((1, 1), (0, 1))),
        lambda: Word(1, "signed", BIT_LETTERS, ()),
        lambda: Word(1, "signed", BIT_LETTERS, (Var(2),)),
        lambda: Word(1, "unsigned", BIT_LETTERS, (Var(-1),)),
        lambda: Word(1, "signed", BIT_LETTERS, (Letter((0, 1)),)),
        lambda: BlockSequence((BlockVector(1, "signed", ((1, 1),)),
                               BlockVector(1, "signed", ((0, 1),)))),
        lambda: ParamMatrix(1, 1, frozenset({(1, 0)})),
    ]
    for make in refused:
        with pytest.raises(ValueError):
            make()


def test_oracles_build_validated_values(monkeypatch):
    # verify_witness's span oracle and ball walks stay independent of the
    # search's trusted decoding: every value they yield passed the checks
    validated = set()
    for cls in (BlockVector, Word):
        def checked(self, original=cls.__post_init__):
            original(self)
            validated.add(id(self))
        monkeypatch.setattr(cls, "__post_init__", checked)
    res = search_approx(SearchProblem("signed", 1, 3, 5, 3, 1), Colouring.seeded(1, 3))
    kept = oracle_span_vectors(res.blocks)
    kept += [q for x in kept for q in iter_vector_ball(x, res.N, 1)]
    words = search_ghj(BIT_LETTERS, 1, "signed", 2,
                       Colouring.family("support-size-mod", 2, arity="word"),
                       (1, 2, 4))
    members = S.oracle_span_words(words.words)
    kept += members + [y for x in members for y in iter_word_ball(x, 1)]
    assert len(kept) > 500
    assert all(id(value) in validated for value in kept)
