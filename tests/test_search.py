"""Search engine: universes, documented outcomes, soundness, determinism."""

import collections
import dataclasses
import gc
import hashlib
import itertools
import json
import random
import time
import tracemalloc
from types import SimpleNamespace

import pytest

import blockramsey.search as S
from blockramsey import (
    Alphabet,
    BlockSequence,
    BlockVector,
    Colouring,
    Exhausted,
    PipelineBounds,
    PipelineResult,
    SearchProblem,
    Witness,
    enumerate_universe,
    linf_dist,
    parametrized_pipeline,
    search_approx,
    search_exact,
    search_ghj,
    verify_witness,
)
from blockramsey.search import (
    FAMILIES,
    element_key,
    oracle_span_vectors,
    vector_ball,
    witness_from_dict,
    word_ball,
)
from blockramsey.encodings import (
    ParamMatrix,
    bitstring_alphabet,
    phi_encode,
    psi_encode,
)
from blockramsey.sampling import random_satisfying_string, random_span_element
from blockramsey.words import Letter, Var, VarWordSequence, Word, classify
from blockramsey.words import word as mkword

AB = Alphabet.make([["0", "a"]], "0")
VECTOR_C = Colouring.family("support-size-mod", 2)
WORD_C = Colouring.family("support-size-mod", 2, arity="word")
MATRIX_C = Colouring.family("support-size-mod", 2, arity="vector_matrix")


@pytest.fixture(scope="module")
def witnesses():
    """An unsigned radius-0 witness of each kind, with its colouring."""
    word_c = Colouring.family("value-at-min-support", 2, arity="word")
    return {"vector": (search_exact(SearchProblem("unsigned", 1, 2, 4, 2),
                                    VECTOR_C), VECTOR_C),
            "word": (search_ghj(AB, 1, "unsigned", 2, word_c, (1,)), word_c)}


def _verify(kind, colouring=None, **edits):
    """verify_witness on the kind's witness with the edits, under its own
    colouring or the one given."""
    def call(witnesses):
        res, own = witnesses[kind]
        return verify_witness(dataclasses.replace(res, **edits), colouring or own)
    return call


def _on_both_kinds(**edits):
    return {f"verify-{kind}": _verify(kind, **edits) for kind in ("vector", "word")}


def _bad_radius(radius):
    return {
        "SearchProblem": lambda w: SearchProblem("signed", 1, 2, 3, 2, radius),
        "search_ghj": lambda w: search_ghj(AB, 1, "signed", 2, WORD_C, (1, 2),
                                           radius=radius),
        **_on_both_kinds(radius=radius),
    }


# (rule, its one message, {entry point: a call that breaks the rule})
BAD_REQUESTS = [
    ("mode", 'unknown mode "foo"', {
        "BlockVector": lambda w: BlockVector(1, "foo", ((0, 1),)),
        "Word": lambda w: Word(1, "foo", AB, (Var(1),)),
        "SearchProblem": lambda w: SearchProblem("foo", 1, 2, 3, 2),
        "enumerate_universe": lambda w: enumerate_universe(1, 3, "foo"),
        "search_ghj": lambda w: search_ghj(AB, 1, "foo", 2, WORD_C, (1, 2)),
        "PipelineBounds": lambda w: PipelineBounds("foo", 1, (1, 2)),
        **_on_both_kinds(mode="foo"),
    }),
    ("k0", "k must be at least 1", {
        "BlockVector": lambda w: BlockVector(0, "signed", ((0, 1),)),
        "Word": lambda w: Word(0, "signed", AB, (Var(1),)),
        "SearchProblem": lambda w: SearchProblem("signed", 0, 2, 3, 2),
        "enumerate_universe": lambda w: enumerate_universe(0, 3, "signed"),
        "search_ghj": lambda w: search_ghj(AB, 0, "signed", 2, WORD_C, (1, 2)),
        "PipelineBounds": lambda w: PipelineBounds("signed", 0, (1, 2)),
        **_on_both_kinds(k=0),
    }),
    ("radius2", "radius 2 is not 0 or 1", _bad_radius(2)),
    ("radius-1", "radius -1 is not 0 or 1", _bad_radius(-1)),
    ("unsigned-radius1", "radius 1 requires signed mode", {
        "SearchProblem": lambda w: SearchProblem("unsigned", 1, 2, 3, 2, 1),
        "search_ghj": lambda w: search_ghj(AB, 1, "unsigned", 2, WORD_C, (1, 2),
                                           radius=1),
        **_on_both_kinds(radius=1),
    }),
    ("search-arity", "the search needs a vector colouring", {
        f"{name}-given-{c.arity}": lambda w, search=search, radius=radius, c=c: search(
            SearchProblem("signed", 1, 2, 3, 2, radius), c)
        for name, search, radius in (("exact", search_exact, 0),
                                     ("approx", search_approx, 1))
        for c in (WORD_C, MATRIX_C)
    }),
    ("search-arity", "the search needs a word colouring", {
        f"search_ghj-given-{c.arity}": lambda w, c=c: search_ghj(
            AB, 1, "signed", 2, c, (1, 2))
        for c in (VECTOR_C, MATRIX_C)
    }),
    ("witness-arity", "the witness needs a vector colouring", {
        f"verify-vector-given-{c.arity}": _verify("vector", c) for c in (WORD_C, MATRIX_C)
    }),
    ("witness-arity", "the witness needs a word colouring", {
        f"verify-word-given-{c.arity}": _verify("word", c) for c in (VECTOR_C, MATRIX_C)
    }),
    ("pipeline-arity", "the pipeline needs a vector_matrix colouring", {
        f"given-{c.arity}": lambda w, c=c: parametrized_pipeline(
            c, PipelineBounds("unsigned", 1, (1, 2)))
        for c in (VECTOR_C, WORD_C)
    }),
    ("search-r", "the colouring has 3 colours but the search has r=2", {
        "exact": lambda w: search_exact(SearchProblem("signed", 1, 2, 3, 2),
                                        Colouring.seeded(0, 3)),
        "approx": lambda w: search_approx(
            SearchProblem("signed", 1, 2, 3, 2, radius=1), Colouring.seeded(0, 3)),
        "search_ghj": lambda w: search_ghj(
            AB, 1, "signed", 2, Colouring.seeded(0, 3, arity="word"), (1, 2)),
    }),
    ("witness-r", "the colouring has 3 colours but the witness has r=2", {
        f"verify-{kind}": _verify(kind, Colouring.seeded(0, 3, arity=kind))
        for kind in ("vector", "word")
    }),
]


def spans_of_pair(p, q, colouring):
    seq = BlockSequence((p, q))
    return [colouring(v) for v in oracle_span_vectors(seq)]


def brute_force_exact(problem, colouring):
    """Unpruned reference: scan every block pair and test the full span."""
    universe = enumerate_universe(problem.k, problem.N, problem.mode)
    assert problem.m == 2
    for p in universe:
        for q in universe:
            if not p.max_support < q.min_support:
                continue
            cols = spans_of_pair(p, q, colouring)
            if len(set(cols)) == 1:
                return (p, q)
    return None


def brute_force_approx(problem, colouring):
    universe = enumerate_universe(problem.k, problem.N, problem.mode)
    assert problem.m == 2
    feasible = {}

    def feas(v):
        if v not in feasible:
            feasible[v] = frozenset(
                colouring(q) for q in vector_ball(v, problem.N, problem.radius))
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


class TestUniverse:
    def test_counts(self):
        assert len(enumerate_universe(1, 3, "unsigned")) == 7
        assert len(enumerate_universe(2, 2, "unsigned")) == 5
        assert len(enumerate_universe(1, 2, "signed")) == 8

    def test_canonical_order(self):
        out = enumerate_universe(2, 3, "signed")
        keys = [v.sort_key() for v in out]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)


class TestVectorSearch:
    def test_support_parity_witness(self):
        prob = SearchProblem(mode="unsigned", k=1, r=2, N=4, m=2)
        c = Colouring.family("support-size-mod", 2)
        res = search_exact(prob, c)
        assert isinstance(res, Witness)
        assert verify_witness(res, c).passed
        # spans are closed under the sum, so parities must be compatible
        assert all(e["colour"] == res.colour for e in res.certificate)

    def test_min_position_witness(self):
        prob = SearchProblem(mode="unsigned", k=1, r=2, N=4, m=2)
        c = Colouring.family("min-position-mod", 2)
        res = search_exact(prob, c)
        assert isinstance(res, Witness)
        assert verify_witness(res, c).passed

    def test_min_position_exhausted_at_n2(self):
        prob = SearchProblem(mode="unsigned", k=1, r=2, N=2, m=2)
        c = Colouring.family("min-position-mod", 2)
        res = search_exact(prob, c)
        assert isinstance(res, Exhausted)
        assert brute_force_exact(prob, c) is None

    def test_witness_is_least(self):
        prob = SearchProblem(mode="unsigned", k=1, r=2, N=4, m=2)
        c = Colouring.family("support-size-mod", 2)
        res = search_exact(prob, c)
        best = brute_force_exact(prob, c)
        assert res.blocks.blocks == best

    def test_approx_witness_is_least(self):
        prob = SearchProblem(mode="signed", k=1, r=2, N=3, m=2, radius=1)
        c = Colouring.family("weighted-sum-mod", 2)
        res = search_approx(prob, c)
        best = brute_force_approx(prob, c)
        if best is None:
            assert isinstance(res, Exhausted)
        else:
            assert res.blocks.blocks == best

    def test_exhaustion_matches_brute_force_all_families(self):
        for family in FAMILIES:
            for mode in ("unsigned", "signed"):
                for k in (1, 2):
                    for N in (2, 3):
                        c = Colouring.family(family, 2)
                        prob = SearchProblem(mode=mode, k=k, r=2, N=N, m=2)
                        res = search_exact(prob, c)
                        brute = brute_force_exact(prob, c)
                        assert isinstance(res, Exhausted) == (brute is None)

    def test_approx_radius0_equals_exact(self):
        for family in FAMILIES:
            c = Colouring.family(family, 2)
            prob = SearchProblem(mode="signed", k=2, r=2, N=4, m=2, radius=0)
            a = search_exact(prob, c)
            b = search_approx(prob, c)
            if isinstance(a, Exhausted):
                assert b == a
            else:
                assert b.blocks == a.blocks and b.colour == a.colour

    def test_degenerate_fattening_first_pair_wins(self):
        # min-position parity at k=1: every class 1-fattens to the whole
        # universe, so the least ordered pair is already a witness
        prob = SearchProblem(mode="signed", k=1, r=2, N=2, m=2, radius=1)
        c = Colouring.family("min-position-mod", 2)
        res = search_approx(prob, c)
        assert isinstance(res, Witness)
        universe = enumerate_universe(1, 2, "signed")
        assert res.blocks.blocks[0] == universe[0]

    def test_sign_at_min_support_witness(self):
        c = Colouring.custom(
            lambda p: 0 if p.entries[0][1] > 0 else 1, 2,
            arity="vector", name="sign-at-min-support")
        prob = SearchProblem(mode="signed", k=2, r=2, N=6, m=2, radius=1)
        res = search_approx(prob, c)
        assert isinstance(res, Witness)
        report = verify_witness(res, c)
        assert report.passed
        for entry in res.certificate:
            assert entry["dist"] <= 1
            nb = BlockVector.from_dict(entry["neighbour"])
            assert c(nb) == res.colour

    def test_monotone_in_N(self):
        c = Colouring.family("support-size-mod", 2)
        prob = SearchProblem(mode="signed", k=1, r=2, N=3, m=2, radius=1)
        res = search_approx(prob, c)
        assert isinstance(res, Witness)
        import dataclasses
        bigger = dataclasses.replace(res, N=5)
        assert verify_witness(bigger, c).passed

    def test_corrupted_witness_fails_verification(self):
        prob = SearchProblem(mode="unsigned", k=1, r=2, N=4, m=2)
        c = Colouring.family("support-size-mod", 2)
        res = search_exact(prob, c)
        bad_blocks = BlockSequence(
            (res.blocks.blocks[0],
             BlockVector.make(1, "unsigned", {res.blocks.blocks[1].min_support: 1})))
        import dataclasses
        corrupted = dataclasses.replace(res, blocks=bad_blocks)
        report = verify_witness(corrupted, c)
        if report.passed:  # the mutation may accidentally stay monochromatic
            assert {e.entries for e in oracle_span_vectors(bad_blocks)} != \
                {e.entries for e in oracle_span_vectors(res.blocks)}
        else:
            assert report.failures


class TestWordSearch:
    def test_constant_first_candidate(self):
        c = Colouring.custom(lambda w: 0, 2, arity="word", name="constant")
        res = search_ghj(AB, 1, "unsigned", 2, c, (1, 2))
        assert isinstance(res, Witness)
        assert res.words.words[0] == mkword(1, "unsigned", AB, [1])
        assert res.words.words[1] == mkword(1, "unsigned", AB, ["0", 1])

    def test_length_parity(self):
        c = Colouring.custom(lambda w: len(w) % 2, 2, arity="word",
                             name="length-mod")
        assert isinstance(search_ghj(AB, 1, "unsigned", 2, c, (1, 2)), Exhausted)
        res = search_ghj(AB, 1, "unsigned", 2, c, (2, 4))
        assert isinstance(res, Witness)
        assert verify_witness(res, c).passed

    def test_signed_first_variable_sign(self):
        def first_var_sign(w):
            for s in w.symbols:
                if isinstance(s, Var):
                    return 0 if s.index > 0 else 1
            return 0

        c = Colouring.custom(first_var_sign, 2, arity="word",
                             name="first-var-sign")
        # single-symbol generators force both signs exactly: no witness
        assert isinstance(
            search_ghj(AB, 1, "signed", 2, c, (1, 2), radius=1), Exhausted)
        # longer generators admit a radius-1 witness even though the exact
        # search stays exhausted
        res = search_ghj(AB, 1, "signed", 2, c, (2, 3), radius=1)
        assert isinstance(res, Witness)
        assert verify_witness(res, c).passed
        assert isinstance(
            search_ghj(AB, 1, "signed", 2, c, (2, 3), radius=0), Exhausted)

    def test_bad_lengths_rejected(self):
        c = Colouring.custom(lambda w: 0, 1, arity="word", name="constant")
        with pytest.raises(ValueError):
            search_ghj(AB, 1, "unsigned", 1, c, (2, 2))


# Word-search outcomes recorded from the search before its DFS was shared
# with the vector search: a witness by the first 16 hex digits of the
# SHA-256 of its canonical JSON, an exhaustion by its node and dead-end
# counts.  (k, mode, lengths, radius, colouring seed, r, expected)
WORD_PINNED = [
    (1, "unsigned", (1, 3), 0, 1, 2, (20, 19)),
    (1, "unsigned", (2, 3), 0, 3, 2, (100, 95)),
    (1, "unsigned", (2, 3), 0, 1, 2, "2fa86d04b27edb96"),
    (2, "unsigned", (1, 2), 0, 4, 2, "f408454cdfc3f968"),
    (1, "signed", (1, 3), 0, 1, 2, (114, 112)),
    (1, "signed", (2, 3), 0, 4, 2, (236, 232)),
    (1, "signed", (1, 2), 1, 1, 2, "d56532ce75e63ee9"),
    (2, "signed", (1, 3), 1, 1, 2, "eadb8fbfb0d08b6e"),
    (1, "signed", (2, 3), 1, 3, 2, "831813f9d3750209"),
    (2, "signed", (1, 3), 1, 1, 3, (2, 2)),
]


@pytest.mark.parametrize("k,mode,lengths,radius,seed,r,expected", WORD_PINNED)
def test_pinned_word_search_outcomes(k, mode, lengths, radius, seed, r,
                                     expected):
    c = Colouring.seeded(seed, r, arity="word")
    res = search_ghj(AB, k, mode, r, c, lengths, radius=radius)
    if isinstance(expected, tuple):
        assert isinstance(res, Exhausted)
        assert (res.nodes, res.dead_ends) == expected
    else:
        digest = hashlib.sha256(
            S.canonical_json(res.to_dict()).encode()).hexdigest()[:16]
        assert digest == expected


def test_searches_leave_no_reference_cycles():
    # a cycle would keep a search's universe, grids and caches alive until
    # the cyclic collector happens to run
    runs = [
        lambda: search_exact(SearchProblem(mode="signed", k=1, r=2, N=4, m=2),
                             Colouring.seeded(3, 2)),
        lambda: search_approx(
            SearchProblem(mode="signed", k=2, r=2, N=4, m=2, radius=1),
            Colouring.seeded(3, 2)),
        lambda: search_ghj(AB, 1, "signed", 2,
                           Colouring.seeded(1, 2, arity="word"), (1, 2)),
        lambda: parametrized_pipeline(
            Colouring.family("support-size-mod", 2, arity="vector_matrix"),
            PipelineBounds(mode="unsigned", k=1, lengths=(1, 2))),
    ]
    for run in runs:
        run()  # warm-up: first calls may fill interpreter-wide caches
    enabled = gc.isenabled()
    gc.disable()
    try:
        for run in runs:
            gc.collect()
            run()
            assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


class TestColourings:
    def test_families_total_and_ranged(self):
        for family in FAMILIES:
            c = Colouring.family(family, 3)
            for v in enumerate_universe(2, 3, "signed"):
                assert 0 <= c(v) < 3

    def test_seeded_deterministic(self):
        c1 = Colouring.seeded(42, 5)
        c2 = Colouring.seeded(42, 5)
        p = BlockVector.make(2, "signed", {0: 2, 3: -1})
        assert c1(p) == c2(p)
        assert Colouring.seeded(43, 5)(p) in range(5)
        # frozen value guards the documented mixing scheme
        assert c1(p) == 2

    def test_table_colouring(self):
        p = BlockVector.make(1, "unsigned", {0: 1})
        q = BlockVector.make(1, "unsigned", {1: 1})
        table = {element_key(p): 1}
        c = Colouring.table(table, 2, default=0)
        assert c(p) == 1 and c(q) == 0
        strict = Colouring.table(table, 2)
        with pytest.raises(KeyError):
            strict(q)

    @pytest.mark.parametrize("colour", ["1", True, 1.0])
    def test_colour_that_is_not_an_integer_is_rejected(self, colour):
        c = Colouring.custom(lambda p: colour, 2)
        with pytest.raises(ValueError, match="not an integer"):
            c(BlockVector.make(1, "unsigned", {0: 1}))

    def test_word_families(self):
        w = mkword(2, "signed", AB, ["a", -2, 1])
        for family in FAMILIES:
            c = Colouring.family(family, 2, arity="word")
            assert c(w) in (0, 1)

    def test_vector_matrix_families(self):
        seq = BlockSequence((BlockVector.make(1, "unsigned", {0: 1}),
                             BlockVector.make(1, "unsigned", {1: 1})))
        M = ParamMatrix(2, 1, frozenset({(0, 0)}))
        count = Colouring.family("support-size-mod", 2, arity="vector_matrix")
        assert count(seq, M) == 0  # two blocks

    @pytest.mark.parametrize("family,colour", [
        ("min-position-mod", 1),  # the first block's first position
        ("value-at-min-support", 6),  # its value there, -1, mod 7
        ("support-size-mod", 3),  # three blocks
        # the first block's 2*(-1) + 3*1, plus (n+1)*(i+1) per bit: 1*2 + 2*1
        ("weighted-sum-mod", 5),
    ])
    def test_vector_matrix_family_values(self, family, colour):
        seq = BlockSequence((BlockVector.make(1, "signed", {1: -1, 2: 1}),
                             BlockVector.make(1, "signed", {4: 1}),
                             BlockVector.make(1, "signed", {5: -1})))
        M = ParamMatrix(3, 2, frozenset({(0, 1), (1, 0)}))
        c = Colouring.family(family, 7, arity="vector_matrix")
        assert c(seq, M) == colour

    @pytest.mark.parametrize("make,rule", [
        (lambda: Colouring.family("support-size-mod", 2), "family:support-size-mod"),
        (lambda: Colouring.seeded(7, 2), "seeded:7"),
        (lambda: Colouring.custom(lambda p: 0, 2, name="zero"), "custom:zero"),
        (lambda: Colouring.custom(lambda p: 0, 2), "custom:custom"),
        (lambda: Colouring.table({}, 2, default=0), "table"),
    ], ids=["family", "seeded", "custom", "custom-default", "table"])
    def test_witness_rule_names_the_colouring(self, make, rule):
        c = make()
        assert c.rule_name() == rule
        res = search_exact(SearchProblem(mode="unsigned", k=1, r=2, N=3, m=1), c)
        assert res.rule == rule and res.to_dict()["rule"] == rule

    def test_witness_json_round_trip(self):
        prob = SearchProblem(mode="unsigned", k=1, r=2, N=4, m=2)
        c = Colouring.family("support-size-mod", 2)
        res = search_exact(prob, c)
        rebuilt = witness_from_dict(json.loads(json.dumps(res.to_dict())))
        assert rebuilt.blocks == res.blocks
        assert verify_witness(rebuilt, c).passed


class TestBalls:
    def test_vector_ball_membership(self):
        p = BlockVector.make(2, "signed", {0: 2, 2: -1})
        ball = vector_ball(p, 4, 1)
        from blockramsey import linf_dist
        universe = set(enumerate_universe(2, 4, "signed"))
        assert p in ball
        for q in ball:
            assert linf_dist(p, q) <= 1 and q in universe
        for q in universe:
            if linf_dist(p, q) <= 1:
                assert q in ball

    def test_word_ball_membership(self):
        from blockramsey import dist_words
        x = mkword(2, "signed", AB, ["a", -1, 2, "0"])
        ball = word_ball(x, 1)
        assert x in ball
        for y in ball:
            assert dist_words(x, y) <= 1 and classify(y) == 2

    @pytest.mark.parametrize("radius", [0, 1])
    def test_walkers_yield_the_balls(self, radius):
        for x in (mkword(2, "signed", AB, ["a", -1, 2, "0"]),
                  mkword(1, "signed", AB, [-1, "0", "a", 1]),
                  mkword(2, "signed", AB, ["0", 1, -2, "a", 1])):
            assert list(S.iter_word_ball(x, radius)) == word_ball(x, radius)
        for p, N in ((BlockVector.make(2, "signed", {0: 2, 2: -1}), 4),
                     (BlockVector.make(1, "signed", {1: -1}), 5),
                     (BlockVector.make(2, "unsigned", {0: 1, 1: 2}), 3)):
            assert list(S.iter_vector_ball(p, N, radius)) == \
                vector_ball(p, N, radius)

    @pytest.mark.parametrize("mode", ["unsigned", "signed"])
    def test_vector_walker_order_matches_brute_force(self, mode):
        # order and membership of every member's ball in every universe with
        # k <= 3 of at most a few hundred cells, against a scan of the
        # universe that enumerate_universe generates and sorts
        for k, top in ((1, 5), (2, 4), (3, 3)):
            for N in range(1, top + 1):
                universe = enumerate_universe(k, N, mode)
                for p in universe:
                    assert list(S.iter_vector_ball(p, N, 1)) == \
                        [q for q in universe if linf_dist(p, q) <= 1]

    def test_recoloured_witness_fails_every_element(self):
        # under a constant colouring no ball holds the other colour, so each
        # element's walk runs to its end before the failure is recorded
        import dataclasses
        vec = search_approx(
            SearchProblem(mode="signed", k=1, r=2, N=3, m=2, radius=1),
            Colouring.custom(lambda p: 0, 2))
        wrd = search_ghj(AB, 1, "signed", 2,
                         Colouring.custom(lambda w: 0, 2, arity="word"),
                         (1, 2), radius=1)
        for res in (vec, wrd):
            assert isinstance(res, Witness) and res.colour == 0
            const = Colouring.custom(lambda x: 0, 2, arity=res.kind)
            report = verify_witness(dataclasses.replace(res, colour=1), const)
            assert not report.passed
            assert len(report.failures) == report.checked > 0
            assert [f["element"] for f in report.failures] == \
                [e["element"] for e in res.certificate]

    def test_feasibility_resumes_its_walk(self):
        # _dfs over six one-slot candidates, each a list of span elements:
        # ("want", i) narrows the live colours to wants[i], then x is asked
        # for them.  The probe ("has", i, c) shows whether colour c survived
        # x: its ball holds every colour, but colour c only second, so its
        # walk reads a second member exactly when c is still live.
        # ("end", i) has an empty ball, so every candidate dead-ends.
        wants = (1, 2, 4, 7, 3, 7)
        balls = {"x": (1, 4, 4)}  # colours 0 and 2
        for i, want in enumerate(wants):
            balls["want", i] = tuple(1 << c for c in range(3) if want >> c & 1)
            for c in range(3):
                balls["has", i, c] = (7 & ~(1 << c), 1 << c)
            balls["end", i] = ()
        walks, reads = collections.Counter(), collections.Counter()

        def axis(level, value):
            # one level: a cell is (value, n), the n-th member of value's ball
            walks[value] += 1
            for n in range(len(balls[value])):
                reads[value] += 1
                yield value, n

        def pieces(i):
            return [(("want", i), 0), ("x", 0),
                    *((("has", i, c), 0) for c in range(3)), (("end", i), 0)]

        space = SimpleNamespace(candidates=lambda prefix: range(len(wants)),
                                pieces=pieces, levels=1, axis=axis,
                                colour=lambda cell: balls[cell[0]][cell[1]])
        res = S._dfs(1, space, 3)
        assert res == Exhausted(6, 6)
        answers = [sum(1 << c for c in range(3) if reads["has", i, c] == 2)
                   for i in range(len(wants))]
        assert answers == [0b101 & want for want in wants]
        # x's first walk stops at colour 0; wanting colour 1 walks its whole
        # ball, and no later visit walks it again; every other ball is
        # walked once
        assert walks.pop("x") == 2 and reads["x"] == 1 + 3
        assert set(walks.values()) == {1}

    def test_feasibility_resumes_sub_boxes(self):
        # _dfs over two-level balls: x's box is the sub-boxes A (cells of
        # colours 0, then 1) and B (colour 2), y's is A and C (colour 2);
        # "zero" narrows the live colours to colour 0, and "end" has an
        # empty ball, so every candidate dead-ends
        boxes = {"x": "AB", "y": "AC", "zero": "Z", "end": "E"}
        cells = {"A": (1, 2), "B": (4,), "C": (4,), "Z": (1,), "E": ()}
        walks, reads = collections.Counter(), collections.Counter()

        def axis(level, centre):
            walks[level, centre] += 1
            if level == 0:
                yield from boxes[centre]
                return
            for n in range(len(cells[centre])):
                reads[centre] += 1
                yield centre, n

        lists = [["zero", "x", "end"], ["x", "y", "end"], ["x", "y", "end"]]
        space = SimpleNamespace(
            candidates=lambda prefix: range(len(lists)),
            pieces=lambda i: [(value, 0) for value in lists[i]],
            levels=2, axis=axis, colour=lambda cell: cells[cell[0]][cell[1]])
        assert S._dfs(1, space, 3) == Exhausted(3, 3)
        # x asked for colour 0 reads A's first cell alone; asked for every
        # colour, x is walked again and so is the partly walked A, from its
        # start, to its end, and then B; y reads the whole A from its memo
        # and walks only C; the third visit finds x and y's colours kept
        assert walks[0, "x"] == 2 and walks[0, "y"] == 1
        assert walks[1, "A"] == 2 and reads["A"] == 1 + 2
        assert walks[1, "B"] == walks[1, "C"] == 1
        assert reads["B"] == reads["C"] == 1

    def test_word_search_colours_only_what_it_needs(self):
        # the search stops each ball walk once every live colour is seen, so
        # it colours far fewer words than the balls of its span elements hold
        family = Colouring.family("value-at-min-support", 2, arity="word")
        calls = 0

        def counted(w):
            nonlocal calls
            calls += 1
            return family(w)

        res = search_ghj(AB, 1, "signed", 2,
                         Colouring.custom(counted, 2, arity="word"),
                         (1, 2, 4), radius=1)
        digest = hashlib.sha256(
            S.canonical_json(res.to_dict()).encode()).hexdigest()[:16]
        assert digest == "379e79fd4d9a6b31"  # the whole-ball search's witness
        # the span elements, each of whose balls the search walks
        walked = [Word.from_dict(e["element"], AB) for e in res.certificate]
        full = sum(len(word_ball(x, 1)) for x in walked)
        assert 0 < calls < full


# the code tables below only walk and order codes, never colour them
ANY_WORD_COLOURING = Colouring.seeded(0, 2, arity="word")


class TestWordCodes:
    """The word search's code table against the Word-level walkers."""

    # only a radius-1 search walks a word's ball; iter_word_ball at radius
    # 0 is checked against word_ball in test_walkers_yield_the_balls
    @pytest.mark.parametrize("radius", [1])
    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("letters", [("0", "a"), ("0", "a", "b")])
    def test_code_ball_is_iter_word_ball(self, letters, k, radius):
        alphabet = Alphabet.make([letters], "0")
        codes = S._WordCodes(alphabet, k, "signed", radius, ANY_WORD_COLOURING,
                             (), None)
        for length in range(1, 5):
            for x in S.word_candidates(alphabet, k, "signed", length):
                got = codes.walk(codes.code(x.symbols))
                assert list(map(codes.decode, got)) == \
                    list(S.iter_word_ball(x, radius))

    @pytest.mark.parametrize("k,mode", [(1, "signed"), (2, "unsigned")])
    def test_code_order_is_sort_key_order(self, k, mode):
        # bitstring letters differ in length, so letter_key orders them by
        # length before content
        alphabet = bitstring_alphabet(2)
        indices = range(1, k + 1) if mode == "unsigned" else (-k, -1, 1, k)
        symbols = [Letter(t) for t in alphabet.top] + [Var(i) for i in indices]
        words = [Word(k, mode, alphabet, syms) for n in (1, 2, 3)
                 for syms in itertools.product(symbols, repeat=n)]
        random.Random(0).shuffle(words)
        codes = S._WordCodes(alphabet, k, mode, 0, ANY_WORD_COLOURING, (), None)
        # the order the word search lists its witness's span elements in
        got = sorted((codes.code(w.symbols) for w in words), key=codes.order)
        assert list(map(codes.decode, got)) == sorted(words, key=Word.sort_key)


def test_unsigned_1248_word_witness_is_pinned():
    # recorded before the word search ran on codes: 1,185 span elements,
    # the certificate sorted by Word.sort_key over bitstring letters
    res = search_ghj(bitstring_alphabet(2), 1, "unsigned", 2,
                     Colouring.family("value-at-min-support", 2, arity="word"),
                     (1, 2, 4, 8))
    assert len(res.certificate) == 1185
    digest = hashlib.sha256(
        S.canonical_json(res.to_dict()).encode()).hexdigest()[:16]
    assert digest == "fe6e29605b7712c1"


# (colouring, mode, lengths, radius, outcome) of word searches whose outcome
# was recorded before the search kept one colour per word: a witness by the
# first 16 hex digits of the SHA-256 of its canonical JSON (certificate
# included), an exhaustion by its node and dead-end counts
COLOUR_ONCE = [
    (Colouring.family("value-at-min-support", 2, arity="word"), 1, "unsigned",
     (1, 3, 5), 0, "1521541eec93fd13"),
    (Colouring.family("value-at-min-support", 2, arity="word"), 1, "signed",
     (1, 2, 4), 1, "379e79fd4d9a6b31"),
    (Colouring.family("min-position-mod", 2, arity="word"), 1, "signed",
     (2, 3), 1, "73fa1e21ec6cc308"),
    (Colouring.seeded(0, 2, arity="word"), 2, "signed", (1, 2), 1,
     Exhausted(42, 40)),
]


@pytest.mark.parametrize("colouring,k,mode,lengths,radius,outcome", COLOUR_ONCE)
def test_word_search_colours_each_word_once(colouring, k, mode, lengths, radius,
                                            outcome):
    # the DFS, the re-walks of balls that must show more colours and the
    # certificate all read one colour memo
    calls = collections.Counter()

    def counted(w):
        calls[w.symbols] += 1
        return colouring(w)

    res = search_ghj(AB, k, mode, 2, Colouring.custom(counted, 2, arity="word"),
                     lengths, radius=radius)
    assert calls and max(calls.values()) == 1
    if isinstance(outcome, Exhausted):
        assert res == outcome
    else:
        digest = hashlib.sha256(
            S.canonical_json(res.to_dict()).encode()).hexdigest()[:16]
        assert digest == outcome


# (colouring, k, N, m, radius, outcome) of signed vector searches, recorded
# before the colour memo moved from the kernel into the DFS, as in
# COLOUR_ONCE; each colouring goes through Colouring.custom, so the kernel
# colours every cell by calling it on the decoded vector
VECTOR_COLOUR_ONCE = [
    (Colouring.seeded(1, 3), 1, 5, 3, 1, "95d1f4f3538f9b03"),
    (Colouring.family("value-at-min-support", 2), 1, 6, 3, 1, "02ba1db43abd96f6"),
    (Colouring.seeded(2, 3), 2, 4, 2, 1, "78e2d152b2bd360b"),
    (Colouring.family("weighted-sum-mod", 2), 2, 5, 2, 0, "6894066354af22d0"),
    (Colouring.seeded(0, 2), 1, 6, 3, 0, Exhausted(1336, 1008)),
]


@pytest.mark.parametrize("colouring,k,N,m,radius,outcome", VECTOR_COLOUR_ONCE)
def test_vector_search_colours_each_vector_once(colouring, k, N, m, radius,
                                                outcome):
    # the DFS walks, its re-walks of boxes that must show more colours and
    # the certificate's canonical walks all read one colour memo
    calls = collections.Counter()

    def counted(p):
        calls[p.entries] += 1
        return colouring(p)

    res = S._vector_search(SearchProblem("signed", k, colouring.r, N, m, radius),
                           Colouring.custom(counted, colouring.r))
    assert calls and max(calls.values()) == 1
    if isinstance(outcome, Exhausted):
        assert res == outcome
    else:
        digest = hashlib.sha256(
            S.canonical_json(res.to_dict()).encode()).hexdigest()[:16]
        assert digest == outcome


# colour 0 when a vector's first and last nonzero entries share a sign: for
# blocks b1 < b2, b1 + b2 and b1 - b2 share b1's first entry but end in
# opposite signs, so no two blocks have a monochromatic span
END_SIGNS = Colouring.custom(
    lambda p: int((p.entries[0][1] > 0) != (p.entries[-1][1] > 0)), 2,
    name="end-signs")


@pytest.mark.parametrize("N,m", [(N, 2) for N in range(3, 9)] + [(6, 3)])
def test_end_signs_exhausts_with_known_counts(N, m):
    # the first slot tries all 3^N - 1 vectors, none a dead end, and every
    # one of the (2N - 3) * 3^(N - 1) + 1 block pairs is a dead end
    res = search_exact(SearchProblem("signed", 1, 2, N, m), END_SIGNS)
    assert res == Exhausted(nodes=2 * N * 3 ** (N - 1),
                            dead_ends=(2 * N - 3) * 3 ** (N - 1) + 1)


@pytest.mark.parametrize("N", [4, 5])
def test_end_signs_has_a_radius1_witness(N):
    res = search_approx(SearchProblem("signed", 1, 2, N, 2, radius=1), END_SIGNS)
    assert isinstance(res, Witness)
    assert verify_witness(res, END_SIGNS).passed


def test_word_search_makes_only_the_words_it_visits(monkeypatch):
    # the signed (1, 2, 4, 8) level-1 slot holds 6^8 symbol strings; the
    # search dead-ends on its first two length-1 candidates, so it must make
    # none of the longer slots' words
    made = 0
    post_init = S.Word.__post_init__

    def counted(self):
        nonlocal made
        made += 1
        post_init(self)

    monkeypatch.setattr(S.Word, "__post_init__", counted)
    res = parametrized_pipeline(
        Colouring.seeded(2, 2, arity="vector_matrix"),
        PipelineBounds(mode="signed", k=1, lengths=(1, 2, 4, 8),
                       letter_level=1, seed=2))
    assert res == Exhausted(nodes=2, dead_ends=2)
    assert made < 1000


def _pipeline_search(colouring, lengths, letter_level):
    """The alphabet, lifted colouring and content letters of the word search
    `parametrized_pipeline` runs for these bounds."""
    depth = max(letter_level, len(lengths) - 1)
    alphabet = bitstring_alphabet(depth)
    content = [t for t in alphabet.top if len(t) <= letter_level + 1]
    return alphabet, S._lift(colouring, depth + 1), content


LIFT_SOURCES = [Colouring.seeded(0, 2, arity="vector_matrix")] + [
    Colouring.family(name, 2, arity="vector_matrix") for name in FAMILIES]
# (alphabet, k, mode, colouring, lengths, radius, letters) of word searches
UNCERTIFIED = [
    pytest.param(alphabet, 1, mode, lifted, lengths, None, content,
                 id=f"lifted-{mode}-{len(lengths)}-l{level}-{c.rule_name()}")
    for mode in ("unsigned", "signed") for lengths in ((2, 3), (1, 2, 4, 8))
    for level in (0, 1) for c in LIFT_SOURCES
    for alphabet, lifted, content in [_pipeline_search(c, lengths, level)]
] + [
    pytest.param(AB, k, mode, c, lengths, radius, None,
                 id=f"word-{mode}-k{k}-{len(lengths)}-r{radius}-{c.rule_name()}")
    for c in ([Colouring.seeded(seed, 2, arity="word") for seed in range(3)]
              + [Colouring.family(name, 2, arity="word") for name in FAMILIES])
    for k, mode, lengths, radius in [(1, "unsigned", (1, 3, 5), 0),
                                     (1, "signed", (1, 2, 4), 0),
                                     (1, "signed", (1, 2, 4), 1),
                                     (2, "signed", (1, 2), 1)]
]


@pytest.mark.parametrize("alphabet,k,mode,colouring,lengths,radius,letters",
                         UNCERTIFIED)
def test_an_uncertified_search_differs_only_in_its_certificate(
        alphabet, k, mode, colouring, lengths, radius, letters):
    full, lean = (search_ghj(alphabet, k, mode, 2, colouring, lengths,
                             radius=radius, letters=letters, **certify)
                  for certify in ({}, {"certify": False}))
    if isinstance(full, Exhausted):
        assert lean == full  # nodes and dead ends included
    else:
        assert lean.certificate == ()
        assert lean == dataclasses.replace(full, certificate=())


def test_the_pipeline_builds_no_certificate(monkeypatch):
    calls = 0
    certificate = S._certificate

    def counted(*args):
        nonlocal calls
        calls += 1
        return certificate(*args)

    monkeypatch.setattr(S, "_certificate", counted)
    for name in ("value-at-min-support", "support-size-mod"):
        res = parametrized_pipeline(
            Colouring.family(name, 2, arity="vector_matrix"),
            PipelineBounds(mode="unsigned", k=1, lengths=(1, 2, 4, 8),
                           sample_count=60))
        assert isinstance(res, PipelineResult) and res.passed
    res = parametrized_pipeline(
        Colouring.family("support-size-mod", 2, arity="vector_matrix"),
        PipelineBounds(mode="signed", k=1, lengths=(2, 3), sample_count=8))
    assert isinstance(res, PipelineResult) and res.passed
    assert calls == 0
    # the hook is live: a search with the default does call it
    assert isinstance(search_ghj(
        AB, 1, "unsigned", 2,
        Colouring.family("value-at-min-support", 2, arity="word"), (1,)),
        Witness)
    assert calls == 1


def test_the_pipeline_search_stays_small():
    # the unsigned (1, 2, 4, 8) family witness has 2,025 span elements; a
    # certificate of their JSON dicts peaked at 7.78 MB, the search and the
    # 60-draw sample check without it at 0.35 MB
    bounds = PipelineBounds(mode="unsigned", k=1, lengths=(1, 2, 4, 8),
                            sample_count=60)
    colouring = Colouring.family("value-at-min-support", 2, arity="vector_matrix")
    tracemalloc.start()
    try:
        res = parametrized_pipeline(colouring, bounds)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert isinstance(res, PipelineResult) and res.passed
    assert peak < 2 * 1024 * 1024, f"peak {peak / 2**20:.2f} MB"


class TestPipeline:
    @pytest.mark.parametrize("mode", ["unsigned", "signed"])
    def test_constant_colouring(self, mode):
        c = Colouring.custom(lambda A, M: 0, 2, arity="vector_matrix",
                             name="constant")
        bounds = PipelineBounds(mode=mode, k=1, lengths=(2, 3),
                                letter_level=0, sample_count=25, seed=3)
        res = parametrized_pipeline(c, bounds)
        assert isinstance(res, PipelineResult)
        assert res.passed
        assert len(res.pair.B) == 1
        assert len(res.pair.perfect_sets) == res.cols

    @pytest.mark.parametrize("mode", ["unsigned", "signed"])
    def test_matrix_only_colouring(self, mode):
        c = Colouring.custom(lambda A, M: M.bit(0, 0), 2,
                             arity="vector_matrix", name="matrix-bit00")
        bounds = PipelineBounds(mode=mode, k=1, lengths=(2, 3),
                                letter_level=0, sample_count=25, seed=4)
        res = parametrized_pipeline(c, bounds)
        assert isinstance(res, PipelineResult)
        assert res.passed

    def test_block_count_parity_colouring(self):
        c = Colouring.family("support-size-mod", 2, arity="vector_matrix")
        bounds = PipelineBounds(mode="unsigned", k=1, lengths=(2, 3),
                                letter_level=0, sample_count=25, seed=5)
        res = parametrized_pipeline(c, bounds)
        # every sampled product member decodes through the encodings; the
        # outcome (witness or exhausted) must at least be verifiable
        if isinstance(res, PipelineResult):
            assert res.passed

    def test_exhausts_when_lengths_force_mixed_parity(self):
        # span element lengths are subset sums {2, 3, 5}, so a colouring by
        # matrix row count (word length) can never become monochromatic
        c = Colouring.custom(lambda A, M: M.rows % 2, 2,
                             arity="vector_matrix", name="rows-parity")
        bounds = PipelineBounds(mode="unsigned", k=1, lengths=(2, 3),
                                letter_level=0, sample_count=5, seed=0)
        res = parametrized_pipeline(c, bounds)
        assert isinstance(res, Exhausted)
        assert res.nodes > 0

    @pytest.mark.parametrize("mode", ["unsigned", "signed"])
    @pytest.mark.parametrize("k", [1, 2])
    def test_lift_matches_the_encodings(self, mode, k):
        # the lifted colouring reads both encodings straight off the word;
        # they must equal the encodings of the one-word sequence
        seen = []
        record = Colouring.custom(lambda A, M: seen.append((A, M)) or 0, 2,
                                  arity="vector_matrix")
        ab = bitstring_alphabet(1)
        for cols in (1, 3):
            lifted = S._lift(record, cols)
            for length in range(1, 5):
                for w in S.word_candidates(ab, k, mode, length):
                    seen.clear()
                    lifted(w)
                    seq = VarWordSequence((w,))
                    assert seen == [(phi_encode(seq), psi_encode(seq, cols))]

    def test_lift_needs_a_bitstring_alphabet(self):
        lifted = S._lift(Colouring.custom(lambda A, M: 0, 2,
                                          arity="vector_matrix"), 2)
        with pytest.raises(ValueError, match="encodings need a bitstring alphabet"):
            lifted(mkword(1, "unsigned", AB, ["a", 1]))

    def test_signed_four_generator_pipeline_finishes(self):
        # the lifted colouring is constant on words, so no ball ever shows
        # both colours: this finishes only if each walk stops at the first
        # colour still needed (colouring whole balls takes over 600 s)
        started = time.perf_counter()
        c = Colouring.family("support-size-mod", 2, arity="vector_matrix")
        res = parametrized_pipeline(
            c, PipelineBounds(mode="signed", k=1, lengths=(1, 2, 4, 8)))
        elapsed = time.perf_counter() - started
        assert isinstance(res, PipelineResult) and res.passed
        assert elapsed < 60.0, f"{elapsed:.1f} s over the 60 s budget"

    def test_each_distinct_point_is_checked_once(self, monkeypatch):
        # the 60 draws hit 12 distinct points of the derived product; each
        # point is decoded once, where every draw once decoded its own
        calls = 0
        decode = S.decode_witness

        def counted(*args):
            nonlocal calls
            calls += 1
            return decode(*args)

        monkeypatch.setattr(S, "decode_witness", counted)
        res = parametrized_pipeline(
            Colouring.family("support-size-mod", 2, arity="vector_matrix"),
            PipelineBounds(mode="unsigned", k=1, lengths=(1, 2, 4, 8),
                           sample_count=60))
        assert calls <= 12
        doc = {"B": [b.to_dict() for b in res.pair.B.blocks],
               "perfect_sets": [d.to_dict() for d in res.pair.perfect_sets],
               "colour": res.colour, "cols": res.cols,
               "samples": res.samples, "failures": list(res.failures)}
        digest = hashlib.sha256(S.canonical_json(doc).encode()).hexdigest()[:16]
        assert digest == "7fee66292c7e83ef"  # recorded when every draw was checked

    @pytest.mark.parametrize("mode,reason", [
        ("unsigned", "colour mismatch"),
        ("signed", "no on-colour word within distance 1"),
    ])
    def test_an_off_colour_point_is_reported(self, mode, reason):
        # a constant-0 colouring lifts to colour 0 on every word, so each
        # point of the derived product fails when checked against colour 1
        const = Colouring.custom(lambda A, M: 0, 2, arity="vector_matrix",
                                 name="constant")
        res = parametrized_pipeline(
            const, PipelineBounds(mode=mode, k=1, lengths=(2, 3), sample_count=5))
        rng = random.Random(0)
        a = random_span_element(rng, res.pair.B)
        deltas = tuple(random_satisfying_string(rng, desc)
                       for desc in res.pair.perfect_sets)
        lifted = S._lift(const, res.cols)
        assert S._check_sample(res.pair, a, deltas, lifted, 0) is None
        assert S._check_sample(res.pair, a, deltas, lifted, 1) == \
            {"sample": a.to_dict(), "reason": reason}

    @pytest.mark.parametrize("name,reason", [
        ("phi_encode", "vector encode mismatch"),
        ("psi_encode", "matrix encode mismatch"),
    ])
    def test_an_encoding_that_disagrees_is_reported(self, monkeypatch, name,
                                                    reason):
        # an encoding whose result equals no decoded point fails every draw
        monkeypatch.setattr(S, name, lambda *args: SimpleNamespace(blocks=()))
        c = Colouring.custom(lambda A, M: 0, 2, arity="vector_matrix",
                             name="constant")
        res = parametrized_pipeline(
            c, PipelineBounds(mode="unsigned", k=1, lengths=(2, 3),
                              sample_count=5))
        assert [f["reason"] for f in res.failures] == [reason] * 5

    def test_a_failing_point_is_listed_once_per_draw(self, monkeypatch):
        # the (2, 3) product has few points, so the 25 draws repeat them;
        # each draw of a failing point still adds its own failure
        monkeypatch.setattr(S, "linf_dist", lambda a, b: 2)
        c = Colouring.custom(lambda A, M: 0, 2, arity="vector_matrix",
                             name="constant")
        res = parametrized_pipeline(
            c, PipelineBounds(mode="signed", k=1, lengths=(2, 3),
                              sample_count=25, seed=3))
        assert res.samples == 25
        assert [f["reason"] for f in res.failures] == \
            ["decoded vector drifted"] * 25


class TestCertificates:
    def test_vector_certificate_lists_whole_span(self):
        prob = SearchProblem(mode="signed", k=2, r=2, N=4, m=2)
        c = Colouring.family("support-size-mod", 2)
        res = search_exact(prob, c)
        assert isinstance(res, Witness)
        from blockramsey import span
        want = [v.to_dict() for v in span(res.blocks)]
        assert [e["element"] for e in res.certificate] == want

    def test_word_certificate_lists_whole_span(self):
        from blockramsey import span_words
        c = Colouring.custom(lambda w: len(w) % 2, 2, arity="word",
                             name="length-mod")
        res = search_ghj(AB, 1, "unsigned", 2, c, (2, 4))
        assert isinstance(res, Witness)
        want = [w.to_dict() for w in span_words(res.words)]
        assert [e["element"] for e in res.certificate] == want

    def test_word_witness_json_round_trip(self):
        c = Colouring.seeded(13, 2, arity="word")
        res = search_ghj(AB, 1, "unsigned", 2, c, (1, 2))
        assert isinstance(res, Witness)
        rebuilt = witness_from_dict(json.loads(json.dumps(res.to_dict())))
        assert rebuilt.words == res.words
        assert verify_witness(rebuilt, c).passed

    @pytest.mark.parametrize("lengths", [[True], [1.0], ["1"]])
    def test_word_witness_lengths_must_be_integers(self, lengths):
        # [True] and [1.0] once verified as passed: [1] == [True] in Python
        c = Colouring.seeded(13, 2, arity="word")
        res = search_ghj(AB, 1, "unsigned", 2, c, (1,))
        assert isinstance(res, Witness)
        with pytest.raises(ValueError, match="'lengths' must be a JSON list "
                                             "of integers"):
            witness_from_dict(dict(res.to_dict(), lengths=lengths))

    def test_radius1_certificates_recomputed_independently(self):
        # every entry against the oracle span, the first on-colour member of
        # the object-level ball walk (coloured by the colouring itself) and
        # the object-level distance
        from blockramsey.search import iter_vector_ball, iter_word_ball
        from blockramsey.words import dist_words

        def vector_runs():
            for seed, (k, N), r in itertools.product(
                    range(12), [(1, 4), (1, 5), (2, 3), (2, 4)], (2, 3)):
                c = Colouring.seeded(seed, r)
                res = search_approx(SearchProblem("signed", k, r, N, 2, 1), c)
                if isinstance(res, Witness):
                    yield (res, c, oracle_span_vectors(res.blocks),
                           lambda x, N=N: iter_vector_ball(x, N, 1), linf_dist,
                           BlockVector.from_dict)

        def word_runs():
            colourings = ([Colouring.seeded(s, 2, arity="word")
                           for s in range(6)] +
                          [Colouring.family(f, 2, arity="word")
                           for f in FAMILIES])
            for letters, k, lengths, c in itertools.product(
                    [("0", "a"), ("0", "a", "b")], (1, 2), [(1, 2), (2, 3)],
                    colourings):
                alphabet = Alphabet.make([letters], "0")
                res = search_ghj(alphabet, k, "signed", 2, c, lengths)
                if isinstance(res, Witness):
                    yield (res, c, S.oracle_span_words(res.words),
                           lambda x: iter_word_ball(x, 1), dist_words,
                           lambda d, a=alphabet: Word.from_dict(d, a))

        witnesses = entries = 0
        for res, c, elements, walk, dist, load in itertools.chain(
                vector_runs(), word_runs()):
            assert res.radius == 1
            witnesses += 1
            assert [e["element"] for e in res.certificate] == \
                [x.to_dict() for x in elements]
            for x, entry in zip(elements, res.certificate):
                entries += 1
                nb = next(y for y in walk(x) if c(y) == res.colour)
                assert entry["colour"] == res.colour
                assert entry["neighbour"] == nb.to_dict()
                assert entry["dist"] == dist(x, load(entry["neighbour"]))
        assert (witnesses, entries) == (160, 2560)


class TestValidation:
    def test_universe_needs_positions(self):
        with pytest.raises(ValueError):
            enumerate_universe(1, 0, "unsigned")
        with pytest.raises(ValueError):
            enumerate_universe(0, 3, "unsigned")

    def test_universe_cap_fails_before_enumerating(self, monkeypatch):
        def no_enumeration(*args, **kwargs):
            raise AssertionError("enumeration started")

        monkeypatch.setattr(S.itertools, "product", no_enumeration)
        for k, N, mode in ((2, 20, "signed"), (1, 20, "unsigned"),
                           (1, 10**9, "signed")):
            with pytest.raises(ValueError, match="exceeds the cap"):
                enumerate_universe(k, N, mode)
        with pytest.raises(ValueError, match="exceeds the cap"):
            search_exact(SearchProblem(mode="signed", k=2, r=2, N=20, m=2),
                         Colouring.family("support-size-mod", 2))
        # the search builds its universe without enumerate_universe; it must
        # refuse before building anything, or this would not return
        with pytest.raises(ValueError, match="exceeds the cap"):
            search_approx(SearchProblem(mode="signed", k=1, r=2, N=10**9, m=2,
                                        radius=1),
                          Colouring.family("support-size-mod", 2))

    def test_colour_count_is_capped(self):
        # MAX_COLOURS colours are allowed, one more is refused by every
        # constructor, so no search, verifier or pipeline gets past it
        assert S.MAX_COLOURS == 1024
        res = search_approx(SearchProblem("signed", 1, 1024, 3, 2, radius=1),
                            Colouring.seeded(0, 1024))
        assert isinstance(res, Witness) and res.r == 1024
        message = "^1025 colours exceed the cap of 1024$"
        for make in (lambda: Colouring.seeded(0, 1025),
                     lambda: Colouring.family("support-size-mod", 1025),
                     lambda: Colouring.table({}, 1025, "word"),
                     lambda: Colouring.custom(len, 1025, "vector_matrix")):
            with pytest.raises(ValueError, match=message):
                make()

    @pytest.mark.parametrize("blocks,N,message", [
        # one 13-entry block: 3^13 candidate pieces over its support
        ([BlockVector.make(1, "signed", {n: 1 for n in range(13)})], 13,
         "^1594323 oracle pieces to try exceed the cap of 1000000$"),
        # 16 one-entry blocks: 48 tries, but 3^16 - 1 products
        ([BlockVector.make(1, "signed", {n: 1}) for n in range(16)], 16,
         "^43046720 oracle span products exceed the cap of 1000000$"),
    ], ids=["tries", "products"])
    def test_vector_oracle_over_the_cap_fails_before_enumerating(
            self, monkeypatch, blocks, N, message):
        c = Colouring.seeded(0, 2)
        witness = Witness(kind="vector", mode="signed", k=1, r=2, radius=0,
                          colour=0, certificate=(), N=N,
                          blocks=BlockSequence(tuple(blocks)))
        if "pieces to try" in message:
            monkeypatch.setattr(S, "_block_image",
                                lambda *a: pytest.fail("a piece was tried"))
        monkeypatch.setattr(S.itertools, "combinations",
                            lambda *a: pytest.fail("a product was made"))
        with pytest.raises(ValueError, match=message):
            verify_witness(witness, c)

    def test_verify_refuses_a_radius1_universe_over_the_cap(self, monkeypatch):
        # each ball walk is linear in N: this witness with N=100,000 once
        # took over a second to pass 8 elements
        c = Colouring.seeded(1, 2)
        w = search_approx(SearchProblem("signed", 1, 2, 4, 2, radius=1), c)
        assert verify_witness(w, c).passed
        big = dataclasses.replace(w, N=100000)
        monkeypatch.setattr(S, "iter_vector_ball",
                            lambda *a: pytest.fail("a ball was walked"))
        with pytest.raises(ValueError, match="^universe of 3\\^100000 cells "
                                             "exceeds the cap of 1000000"):
            verify_witness(big, c)

    def test_universe_cap_admits_the_largest_tested_instance(self):
        # signed k=2, N=6 (the sign-at-min-support search) has 5^6 cells
        assert 5 ** 6 <= S.MAX_UNIVERSE_CELLS < 2 ** 20

    def test_verify_rejects_colour_count_mismatch(self):
        c = Colouring.family("support-size-mod", 2)
        res = search_exact(SearchProblem(mode="unsigned", k=1, r=2, N=4, m=2), c)
        with pytest.raises(ValueError, match="r=2"):
            verify_witness(res, Colouring.family("support-size-mod", 7))

    @pytest.mark.parametrize("arity,search", [
        ("vector", lambda c: search_exact(SearchProblem("signed", 1, 2, 5, 2), c)),
        ("vector", lambda c: search_approx(
            SearchProblem("signed", 1, 2, 5, 2, radius=1), c)),
        ("word", lambda c: search_ghj(AB, 1, "signed", 2, c, (1, 2))),
    ], ids=["exact", "approx", "ghj"])
    def test_search_rejects_colour_count_mismatch(self, arity, search):
        # a 3-colour colouring once gave a verdict for r=2 (exact:
        # Exhausted(274, 238), against Exhausted(294, 228) at r=3)
        with pytest.raises(ValueError, match="3 colours but the search has r=2"):
            search(Colouring.seeded(0, 3, arity=arity))

    def test_verify_rejects_blocks_outside_n(self):
        import dataclasses
        c = Colouring.family("support-size-mod", 2)
        prob = SearchProblem(mode="signed", k=1, r=2, N=3, m=2, radius=1)
        res = search_approx(prob, c)
        reach = res.blocks.blocks[-1].max_support
        assert verify_witness(dataclasses.replace(res, N=reach + 1), c).passed
        for N in (reach, 1):
            with pytest.raises(ValueError, match="outside"):
                verify_witness(dataclasses.replace(res, N=N), c)

    def test_verify_ignores_the_certificate(self):
        # the certificate is informational: the verdict re-enumerates the span
        import dataclasses
        vec = Colouring.family("support-size-mod", 2)
        wrd = Colouring.seeded(13, 2, arity="word")
        cases = [
            (search_exact(SearchProblem("unsigned", 1, 2, 4, 2), vec), vec),
            (search_approx(SearchProblem("signed", 1, 2, 3, 2, radius=1), vec),
             vec),
            (search_ghj(AB, 1, "unsigned", 2, wrd, (1, 2)), wrd),
        ]
        for res, c in cases:
            assert isinstance(res, Witness) and res.certificate
            report = verify_witness(res, c)
            assert report.passed
            blank = dataclasses.replace(res, certificate=())
            assert verify_witness(blank, c) == report

    def test_verify_rejects_a_header_that_disagrees_with_the_body(self):
        # the mode, radius and k=3 cases once passed verification
        import dataclasses
        vec = Colouring.family("support-size-mod", 2)
        wrd = Colouring.family("value-at-min-support", 2, arity="word")
        exact = search_exact(SearchProblem("unsigned", 1, 2, 4, 2), vec)
        word = search_ghj(AB, 1, "unsigned", 2, wrd, (1,))
        assert verify_witness(exact, vec).passed
        assert verify_witness(word, wrd).passed
        cases = [
            (exact, vec, dict(mode="signed", radius=1), 'mode "signed"'),
            (exact, vec, dict(k=2), "k=2"),
            (exact, vec, dict(colour=2), r"colour 2 lies outside \[0, 2\)"),
            (exact, vec, dict(colour=-1), r"colour -1 lies outside \[0, 2\)"),
            (word, wrd, dict(k=3, lengths=(7, 9)), "k=3"),
            (word, wrd, dict(mode="signed"), 'mode "signed"'),
            (word, wrd, dict(lengths=(7, 9)), r"lengths \[7, 9\]"),
        ]
        for res, c, edits, message in cases:
            with pytest.raises(ValueError, match=message):
                verify_witness(dataclasses.replace(res, **edits), c)

    def test_problem_validation(self):
        with pytest.raises(ValueError):
            SearchProblem(mode="unsigned", k=1, r=2, N=1, m=2)
        with pytest.raises(ValueError):
            SearchProblem(mode="unsigned", k=1, r=2, N=3, m=2, radius=1)
        with pytest.raises(ValueError):
            SearchProblem(mode="signed", k=1, r=2, N=3, m=2, radius=2)

    @pytest.mark.parametrize("call,message", [
        (lambda: search_approx(SearchProblem("unsigned", 1, 2, 3, 2), VECTOR_C),
         "search_approx requires signed mode"),
        (lambda: search_ghj(AB, 1, "signed", 2, WORD_C, ()),
         "need at least one generator length"),
        (lambda: search_ghj(AB, 1, "unsigned", 2, WORD_C, (1, 2), radius=1),
         "radius 1 requires signed mode"),
        (lambda: search_ghj(AB, 1, "signed", 2, VECTOR_C, (1, 2)),
         "the search needs a word colouring"),
        (lambda: PipelineBounds(mode="unsigned", k=1, lengths=(1, 2, 4)),
         "the word search needs an even number of lengths"),
        (lambda: PipelineBounds(mode="unsigned", k=1, lengths=(1, 2),
                                sample_count=0),
         "sample_count must be at least 1"),
        (lambda: parametrized_pipeline(
            WORD_C, PipelineBounds(mode="unsigned", k=1, lengths=(1, 2))),
         "the pipeline needs a vector_matrix colouring"),
    ], ids=["approx-unsigned", "no-lengths", "word-unsigned-radius1",
            "word-given-vector-colouring", "odd-lengths", "no-samples",
            "pipeline-given-word-colouring"])
    def test_refusals_name_their_cause(self, call, message):
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == message

    @pytest.mark.parametrize("call,message", [
        pytest.param(call, message, id=f"{rule}-{entry}")
        for rule, message, calls in BAD_REQUESTS
        for entry, call in calls.items()
    ])
    def test_each_rule_has_one_message(self, witnesses, call, message):
        # every entry point that takes a request refuses it with the rule's
        # one message; the copies once drifted: a word search asked for
        # radius 2 ran at radius 1 and returned Witness(radius=2), and
        # verify_witness raised AttributeError on the other kind's colouring
        with pytest.raises(ValueError) as err:
            call(witnesses)
        assert str(err.value) == message

    def test_search_mode_guards(self):
        c = Colouring.family("support-size-mod", 2)
        prob = SearchProblem(mode="signed", k=1, r=2, N=3, m=2, radius=1)
        with pytest.raises(ValueError):
            search_exact(prob, c)
        word_c = Colouring.family("support-size-mod", 2, arity="word")
        with pytest.raises(ValueError):
            search_exact(SearchProblem(mode="unsigned", k=1, r=2, N=3, m=2),
                         word_c)
