"""The integer-coded kernel of the vector search (its universe codes, tetris
variants, on-demand colouring and box walks), against the independent
`enumerate_universe`, `_tetris_entries`, `tetris_images`, `vector_ball` and
scalar `Colouring.seeded` oracles, plus pinned search outcomes."""

import hashlib
import math

import pytest

import blockramsey.search as S
from blockramsey import (
    BlockVector,
    Colouring,
    Exhausted,
    SearchProblem,
    enumerate_universe,
    search_approx,
    search_exact,
)
from blockramsey.search import (
    _VectorKernel,
    canonical_json,
    element_key,
    vector_ball,
)
from blockramsey.vectors import _tetris_entries, tetris_images

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
            bits = list(map(kernel.colour, kernel.cells(_code(kernel, p.entries))))
            # one bit per cell of the box: a member's colour bit, else 0
            vals = dict(p.entries)
            assert len(bits) == math.prod(
                sum(abs(u - vals.get(n, 0)) <= radius for u in range(-k, k + 1))
                for n in range(N))
            assert sorted(b for b in bits if b) == \
                sorted(1 << colouring(q) for q in ball)
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
            for bit in map(kernel.colour, kernel.cells(_code(kernel, p.entries))):
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


@pytest.mark.parametrize("mode,k,N", UNIVERSES)
def test_element_key_is_the_canonical_json(mode, k, N):
    for p in enumerate_universe(k, N, mode):
        assert element_key(p) == canonical_json(p.to_dict())


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
