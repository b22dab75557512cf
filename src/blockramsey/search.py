"""Finite Ramsey witness search: exact and 1-approximate monochromatic spans.

The searches look for a block sequence (of vectors, or of variable
words) of a requested length whose span is monochromatic under a given
colouring, either exactly or after fattening each colour class by
distance 1.  The engine is a depth-first search in canonical order with
incremental pruning: the span of a prefix sits inside the span of every
extension, so a prefix whose span already rules out every colour is
dead.  The first witness found is therefore the lexicographically least
one.  Exhaustion is reported with node counts so pruning changes are
observable in regression runs.

Colourings are total oracles over a declared finite universe.  They can
be lookup tables keyed by the canonical JSON of an element, seeded
pseudo-random mixes of that JSON, members of a small family of
structured rules, or arbitrary callables (not serializable).

The parametrized pipeline mirrors the two-step construction that derives
a coarser block sequence and per-column constraint records from a word
search: it lifts a (vector sequence, matrix) colouring to single words
through the encodings, searches for an even-length witness sequence,
and samples the derived product to confirm the colour guarantee.
"""

from __future__ import annotations

import bisect
import copy
import functools
import itertools
import json
import math
import random
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from . import words as W
from .encodings import (
    DerivedPair,
    ParamMatrix,
    _set_bits,
    bitstring_alphabet,
    decode_witness,
    derived_pair,
    phi_encode,
    product_to_sigmas,
    psi_encode,
)
from .sampling import random_satisfying_string, random_span_element
from .vectors import (
    MAX_UNIVERSE_CELLS,
    SIGNED,
    UNSIGNED,
    BlockSequence,
    BlockVector,
    _block_image,
    _is_int,
    check_cap,
    check_mode_k,
    json_field,
    linf_dist,
    tetris_images,
)
from .words import Alphabet, Letter, Var, VarWordSequence, Word, classify

FAMILIES = (
    "value-at-min-support",
    "support-size-mod",
    "min-position-mod",
    "weighted-sum-mod",
)
# Colour sets are bitmasks with a mark above the top colour, and a search
# keeps one per ball box it walks, so each costs about r/8 bytes.
MAX_COLOURS = 1024


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


_FNV_PRIME = 0x100000001B3


def _fnv1a(data: bytes, h: int = 0xCBF29CE484222325) -> int:
    # h: the state to resume from; the default is FNV-1a's offset basis
    for byte in data:
        h = ((h ^ byte) * _FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return h


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


# A block vector's key is the head, one chunk per entry joined by commas,
# and the tail; the vector kernel hashes it piece by piece.  A (sequence,
# matrix) key is its blocks' keys in a list, then the matrix's, whose bits
# are chunks too.
_KEY_HEAD, _KEY_CHUNK, _KEY_TAIL = '{"entries":[', "[{},{}]", '],"k":{},"mode":"{}"}}'
_MATRIX_KEY = '],{{"bits":[{}],"cols":{},"rows":{}}}]'


def _vector_key(k: int, mode: str, entries) -> str:
    """canonical_json of the block vector's dict, formatted without json.dumps."""
    return (_KEY_HEAD + ",".join(_KEY_CHUNK.format(n, v) for n, v in entries) +
            _KEY_TAIL.format(k, mode))


def _pair_key(blocks, rows: int, cols: int, bits) -> str:
    """canonical_json([seq.to_list(), matrix.to_dict()]), formatted without
    json.dumps, from each block's (k, mode, entries) and the matrix's
    one-positions in sorted order."""
    return ("[[" + ",".join(_vector_key(*block) for block in blocks) +
            _MATRIX_KEY.format(",".join(_KEY_CHUNK.format(n, i) for n, i in bits),
                               cols, rows))


def element_key(elem) -> str:
    """Canonical serialization used by tables and seeded colourings."""
    if isinstance(elem, BlockVector):
        return _vector_key(elem.k, elem.mode, elem.entries)
    if isinstance(elem, Word):
        return canonical_json(elem.to_dict())
    if isinstance(elem, tuple) and len(elem) == 2:
        seq, matrix = elem
        return _pair_key([(b.k, b.mode, b.entries) for b in seq.blocks],
                         matrix.rows, matrix.cols, sorted(matrix.bits))
    raise ValueError(f"cannot serialize {elem!r}")


def _seeded_colour(key: str, seed: int, r: int) -> int:
    # FNV-1a over the canonical JSON bytes, xor'd with the seed and
    # finished with a splitmix64 round; reproducible across runs.
    return _splitmix64(_fnv1a(key.encode()) ^ (seed & 0xFFFFFFFFFFFFFFFF)) % r


def _family_rule(name: str, r: int) -> Callable:
    """The family's colour as rule(entries, bits, size): a vector or word
    passes its (position, value) entries, no bits and its entry count; a
    (sequence, matrix) pair its first block's entries, the matrix's
    (row, col) one-positions and its number of blocks."""
    if name in ("min-position-mod", "value-at-min-support"):
        field = 0 if name == "min-position-mod" else 1  # of the first entry
        return lambda entries, bits, size: (entries[0][field] if entries else 0) % r
    if name == "support-size-mod":
        return lambda entries, bits, size: size % r
    if name == "weighted-sum-mod":
        return lambda entries, bits, size: (
            sum((n + 1) * v for n, v in entries) +
            sum((n + 1) * (i + 1) for n, i in bits)) % r
    raise ValueError(f"unknown family {name!r}; choose from {FAMILIES}")


def _family_fn(name: str, r: int, arity: str) -> Callable:
    rule = _family_rule(name, r)
    if arity == "vector_matrix":
        return lambda seq, matrix: rule(seq.blocks[0].entries, matrix.bits,
                                        len(seq.blocks))
    # the entries a rule reads, picked once per colouring; an unknown arity
    # gets None here and is refused by Colouring
    profile = {"vector": lambda p: p.entries, "word": W._var_entries}.get(arity)

    def fn(elem):
        entries = profile(elem)
        return rule(entries, (), len(entries))
    return fn


class Colouring:
    """Total colour oracle with colours in [0, r); `rule` names it in witnesses."""

    def __init__(self, arity: str, r: int, rule: str, fn: Callable):
        if arity not in ("vector", "word", "vector_matrix"):
            raise ValueError(f"unknown arity {arity!r}")
        if r < 1:
            raise ValueError("need at least one colour")
        if r > MAX_COLOURS:
            raise ValueError(f"{r} colours exceed the cap of {MAX_COLOURS}")
        self.arity = arity
        self.r = r
        self.rule = rule
        self.fn = fn
        self.seed = None  # set by `seeded` alone: the vector kernel reads it
        self.family = None  # set by `family` alone: the vector kernel reads it
        self.lift = None  # set by `_lift` alone: the word search reads it

    @classmethod
    def family(cls, name: str, r: int, arity: str = "vector") -> "Colouring":
        colouring = cls(arity, r, f"family:{name}", _family_fn(name, r, arity))
        colouring.family = name
        return colouring

    @classmethod
    def table(cls, mapping: dict, r: int, arity: str = "vector",
              default: Optional[int] = None) -> "Colouring":
        def fn(*elem):
            key = element_key(elem[0] if len(elem) == 1 else elem)
            if key in mapping:
                return mapping[key]
            if default is None:
                raise KeyError(f"no colour for {key}")
            return default

        return cls(arity, r, "table", fn)

    @classmethod
    def seeded(cls, seed: int, r: int, arity: str = "vector") -> "Colouring":
        def fn(*elem):
            return _seeded_colour(element_key(elem[0] if len(elem) == 1 else elem),
                                  seed, r)

        colouring = cls(arity, r, f"seeded:{seed}", fn)
        colouring.seed = seed
        return colouring

    @classmethod
    def custom(cls, fn: Callable, r: int, arity: str = "vector",
               name: str = "custom") -> "Colouring":
        return cls(arity, r, f"custom:{name}", fn)

    def __call__(self, *elem) -> int:
        c = self.fn(*elem)
        # type(), not isinstance: a bool is an int but not a colour
        if type(c) is not int:
            raise ValueError(f"colour {c!r} is not an integer")
        if not 0 <= c < self.r:
            raise ValueError(f"colour {c} out of range [0, {self.r})")
        return c

    def rule_name(self) -> str:
        return self.rule


def _check_request(mode: str, k: int, radius: int) -> None:
    """Refuse a search or witness the statements do not cover: an unknown
    mode, k below 1, a radius other than 0 or 1, or radius 1 unsigned."""
    check_mode_k(mode, k)
    if radius not in (0, 1):
        raise ValueError(f"radius {json.dumps(radius, default=repr)} is not 0 or 1")
    if radius == 1 and mode != SIGNED:
        raise ValueError("radius 1 requires signed mode")


def _check_colouring(colouring: Colouring, arity: str, r: int, what: str) -> None:
    """Refuse a colouring of another arity or with another number of colours."""
    if colouring.arity != arity:
        raise ValueError(f"{what} needs a {arity} colouring")
    if colouring.r != r:
        raise ValueError(f"the colouring has {colouring.r} colours but {what} "
                         f"has r={r}")


@dataclass(frozen=True)
class SearchProblem:
    mode: str
    k: int
    r: int
    N: int
    m: int
    radius: int = 0

    def __post_init__(self):
        _check_request(self.mode, self.k, self.radius)
        if self.m < 1 or self.N < self.m:
            raise ValueError("need N >= m >= 1")


@dataclass(frozen=True)
class Witness:
    kind: str  # "vector" | "word"
    mode: str
    k: int
    r: int
    radius: int
    colour: int
    certificate: tuple
    blocks: Optional[BlockSequence] = None
    words: Optional[VarWordSequence] = None
    N: Optional[int] = None
    lengths: Optional[tuple] = None
    rule: str = ""

    def to_dict(self) -> dict:
        out = {
            "kind": self.kind, "mode": self.mode, "k": self.k, "r": self.r,
            "radius": self.radius, "colour": self.colour,
            "certificate": list(self.certificate), "rule": self.rule,
        }
        if self.blocks is not None:
            out["blocks"] = self.blocks.to_list()
            out["N"] = self.N
        if self.words is not None:
            out["words"] = self.words.to_list()
            out["alphabet"] = self.words.alphabet.to_dict()
            out["lengths"] = list(self.lengths)
        return out


@dataclass(frozen=True)
class Exhausted:
    nodes: int
    dead_ends: int

    def to_dict(self) -> dict:
        return {"exhausted": True, "nodes": self.nodes,
                "dead_ends": self.dead_ends}


def _coordinate_values(k: int, N: int, mode: str) -> range:
    """The values one coordinate of the universe takes.

    Refuses, before anything is enumerated, a request whose value grid
    (2k+1)^N (signed) or (k+1)^N (unsigned) exceeds MAX_UNIVERSE_CELLS.
    """
    check_mode_k(mode, k)
    if N < 1:
        raise ValueError("N must be positive")
    values = range(0, k + 1) if mode == UNSIGNED else range(-k, k + 1)
    cells = 1
    for _ in range(N):
        cells *= len(values)
        if cells > MAX_UNIVERSE_CELLS:
            raise ValueError(
                f"universe of {len(values)}^{N} cells exceeds the cap of "
                f"{MAX_UNIVERSE_CELLS}; lower k or N")
    return values


def enumerate_universe(k: int, N: int, mode: str) -> list[BlockVector]:
    """Every valid block vector supported inside [0, N), canonical order.

    Refuses, before enumerating anything, a request whose value grid
    (2k+1)^N (signed) or (k+1)^N (unsigned) exceeds MAX_UNIVERSE_CELLS.
    """
    values = _coordinate_values(k, N, mode)
    out = []
    for combo in itertools.product(values, repeat=N):
        entries = tuple((n, v) for n, v in enumerate(combo) if v != 0)
        if entries and max(abs(v) for _, v in entries) == k:
            out.append(BlockVector(k, mode, entries))
    out.sort(key=BlockVector.sort_key)
    return out


def iter_vector_ball(p: BlockVector, N: int, radius: int):
    """Yield the universe members within sup-norm distance radius of p in
    canonical (BlockVector.sort_key) order, each built only when asked for."""
    lo = 0 if p.mode == UNSIGNED else -p.k
    vals = dict(p.entries)
    options = [[u for u in range(v - radius, v + radius + 1) if lo <= u <= p.k]
               for v in (vals.get(n, 0) for n in range(N))]
    # no member ends before the last position that cannot be 0
    last = max([n for n, opts in enumerate(options) if 0 not in opts] + [-1])
    return _ball_walk(p, options, last, 0, (), False)


def _ball_walk(p: BlockVector, options: list, last: int, start: int,
               head: tuple, full: bool):
    """Yield the members of p's ball that extend `head` by values from
    options[n] at positions n >= start: the next nonzero position ascending,
    then its value ascending, each member before its extensions."""
    for n in range(start, len(options)):
        for u in options[n]:
            if u:
                entries = head + ((n, u),)
                reached = full or abs(u) == p.k
                if reached and n >= last:
                    yield BlockVector(p.k, p.mode, entries)
                yield from _ball_walk(p, options, last, n + 1, entries, reached)
        if 0 not in options[n]:
            return  # a position that cannot be 0 cannot be skipped


def vector_ball(p: BlockVector, N: int, radius: int) -> list[BlockVector]:
    """Universe members within sup-norm distance radius of p, canonical order."""
    return list(iter_vector_ball(p, N, radius))


def iter_word_ball(x: Word, radius: int):
    """Yield the compatible full-class words within word distance radius of
    x in canonical (Word.sort_key) order, building each only when asked."""
    if radius == 0:
        yield x
        return
    zero = x.alphabet.zero
    fixed = W._letter_positions(x)
    choices = []
    for n, sym in enumerate(x.symbols):
        if n in fixed:
            choices.append([sym])
            continue
        # options in symbol_key order (the zero letter, then variables by
        # index) make the product come out in Word.sort_key order
        idx = W._symbol_index(sym, zero)
        window = range(idx - radius, idx + radius + 1)
        choices.append([Letter(zero)] * (0 in window) +
                       [Var(i) for i in window if i and abs(i) <= x.k])
    yield from _full_class_words(x.k, x.mode, x.alphabet, choices)


def _full_class_words(k: int, mode: str, alphabet: Alphabet, choices):
    """Yield the full-class words whose n-th symbol comes from choices[n], in
    the order of the choice product (canonical when every list is sorted by
    symbol_key)."""
    # a combo has full class iff some position holds v_k or v_-k
    full = [[isinstance(s, Var) and abs(s.index) == k for s in opts]
            for opts in choices]
    for combo, flags in zip(itertools.product(*choices),
                            itertools.product(*full)):
        if any(flags):
            yield Word(k, mode, alphabet, combo)


def word_ball(x: Word, radius: int) -> list[Word]:
    """Compatible full-class words within word distance radius of x."""
    return list(iter_word_ball(x, radius))


def _trusted(cls, **fields):
    """A `cls` holding `fields`, made without the checks of its
    __post_init__: for a frozen dataclass value that a search decodes from
    its own codes, which is valid by construction.  Everything else goes
    through the validating constructor."""
    value = object.__new__(cls)
    value.__dict__.update(fields)
    return value


# Each family's running quantity over a vector's entries in order, from 0
# for no entries: step(h, prefix, n, v) adds the entry (n, v) to the
# quantity h of the entries before it (prefix is 0 when there are none).
# The family colour is the quantity % r, as `_family_fn` defines it.
_FAMILY_STEPS = {
    "value-at-min-support": lambda h, prefix, n, v: h if prefix else v,
    "min-position-mod": lambda h, prefix, n, v: h if prefix else n,
    "support-size-mod": lambda h, prefix, n, v: h + 1,
    "weighted-sum-mod": lambda h, prefix, n, v: h + (n + 1) * v,
}


def _key_step(h: int, prefix: int, n: int, v: int) -> int:
    # FNV-1a from state h over the key chunk of the entry (n, v)
    return _fnv1a((("," if prefix else "") + _KEY_CHUNK.format(n, v)).encode(), h)


class _VectorKernel:
    """One vector search's universe as integer codes, and its colour oracle.

    A vector on [0, N) is coded as sum(v * B**n) with B = 2k+1 (signed) or
    k+1 (unsigned).  Block supports are disjoint, so the code of a
    block-ordered sum is the sum of the codes, and `code + base` is the
    vector's cell in the grid of all B**N value assignments.  Feasible
    colour sets are bitmasks (bit c set when colour c is possible).

    `codes` lists the universe in canonical order and `index` maps a code
    to its place there.  A nonzero code is its prefix code (the code with
    its last entry (n, v) peeled off) plus v * B**n, and a code's tetris
    images and colour state are built from its prefix's, each memoized by
    code: T and the sign act position by position, a seeded colouring's
    FNV-1a resumes from the state after the prefix's key, and a family's
    running quantity (first value, first position, entry count or weighted
    sum) from the prefix's.  `colour` gives a cell `1 << colour`, or 0
    outside the universe, afresh on every call; only a custom or table
    colouring gets the decoded BlockVector.  The sup-norm
    ball of radius 1 is a box of cells, so a span element's feasible colours
    are the OR over the cells of its box (at radius 0, the element alone).
    `axis` splits a box one digit per level, position 0 outermost, so the
    boxes of nearby elements share sub-boxes.  A code's vector and its JSON
    dict are both read off the code's digits.
    """

    zero = 0  # the code of the empty sum

    def __init__(self, problem: SearchProblem, colouring: Colouring):
        values = _coordinate_values(problem.k, problem.N, problem.mode)
        self.k, self.mode = problem.k, problem.mode
        self.lo, self.B = values.start, len(values)
        self.powers = [self.B ** n for n in range(problem.N)]
        self.base = -self.lo * sum(self.powers)
        # least[n]: the least |code| whose last nonzero position is n, with
        # one at n and the lowest value at every position below
        self.least = [p + self.lo * (p - 1) // (self.B - 1) for p in self.powers]
        self.colouring = colouring
        self.levels = problem.N if problem.radius else 0
        # Built bottom-up over the min support s: `every` codes the vectors
        # with min support above s, `full` those of them attaining magnitude
        # k, both in canonical order.  A vector with value v at its min
        # support s is (s, v) alone or followed by a vector above s, a full
        # one when |v| < k; canonical order sorts by v, then puts the
        # alone case before the tail's own order.
        every, full = [], []
        sizes = [0] * (problem.N + 1)
        for s in reversed(range(problem.N)):
            head_every, head_full = [], []
            for v in values:
                if v:
                    head = v * self.powers[s]
                    codes = [head] + [head + c for c in every]
                    head_every += codes
                    head_full += codes if abs(v) == self.k else \
                        [head + c for c in full]
            every, full = head_every + every, head_full + full
            sizes[s] = len(full)
        # starts[s]: the first place in `codes` whose min support is >= s
        self.codes, self.starts = full, [len(full) - size for size in sizes]
        self.index = {code: i for i, code in enumerate(full)}
        self.order = self.index.__getitem__  # a code's canonical sort key
        # the images of the zero code, and the image values of one entry
        self._images = {0: [(0, j) for _, j in tetris_images((), self.k, self.mode)]}
        self._digits = {v: [sum(u for _, u in e) for e, _ in
                            tetris_images(((0, v),), self.k, self.mode)]
                        for v in values if v}
        self._tail = _KEY_TAIL.format(self.k, self.mode).encode()
        # `_step(h, prefix, n, v)` makes a code's colour state from its
        # prefix's state h and its last entry; None for custom and tables
        if colouring.seed is not None:
            self._step, self._states = _key_step, {0: _fnv1a(_KEY_HEAD.encode())}
        else:
            self._step, self._states = _FAMILY_STEPS.get(colouring.family), {0: 0}
        # FNV-1a over the tail is affine in the state: (h ^ byte) moves only
        # h's low byte, and a product's low byte mod 2**64 depends only on
        # its factors' low bytes, so _fnv1a(tail, h) is h * P**len(tail)
        # plus a term that depends only on h & 0xFF, kept in _tail_terms
        # (at most 256 entries, each made when first needed)
        self._tail_power = pow(_FNV_PRIME, len(self._tail), 1 << 64)
        self._tail_terms = {}

    def _entries(self, code: int) -> list[tuple[int, int]]:
        """The (position, value) entries of the vector with this code."""
        cell, B, lo, entries = code + self.base, self.B, self.lo, []
        for n in range(len(self.powers)):
            cell, digit = divmod(cell, B)
            if digit + lo:
                entries.append((n, digit + lo))
        return entries

    def decode(self, code: int) -> BlockVector:
        """The vector with this code."""
        return _trusted(BlockVector, k=self.k, mode=self.mode,
                        entries=tuple(self._entries(code)))

    def to_dict(self, code: int) -> dict:
        """self.decode(code).to_dict(), with no BlockVector."""
        return {"k": self.k, "mode": self.mode,
                "entries": [list(e) for e in self._entries(code)]}

    def candidates(self, prefix: list[int]) -> list[int]:
        """Codes of the blocks that can follow the prefix: the universe is
        sorted by min support, so these are the codes past the last block's
        max support."""
        if not prefix:
            return self.codes
        return self.codes[self.starts[self._peel(prefix[-1])[1] + 1]:]

    def _peel(self, code: int) -> tuple[int, int, int]:
        """(prefix code, n, v) for the last entry (n, v) of a nonzero code."""
        n = bisect.bisect_right(self.least, abs(code)) - 1
        v = (code + self.base) // self.powers[n] % self.B + self.lo
        return code - v * self.powers[n], n, v

    def _state(self, code: int) -> int:
        """A code's colour state: the FNV-1a state after the key head and
        its entries (seeded), or the family's quantity over its entries."""
        h = self._states.get(code)
        if h is None:
            prefix, n, v = self._peel(code)
            h = self._states[code] = self._step(self._state(prefix), prefix, n, v)
        return h

    def colour(self, code: int) -> int:
        """The cell's colour bit, 1 << colour, or 0 outside the universe."""
        if code not in self.index:
            return 0
        if self._step is None:
            return 1 << self.colouring(self.decode(code))
        h = self._state(code)
        if self.colouring.seed is None:  # Colouring.family
            return 1 << h % self.colouring.r
        # Colouring.seeded, resumed from the prefix's state
        h = self._after_tail(h)
        h ^= self.colouring.seed & 0xFFFFFFFFFFFFFFFF
        return 1 << _splitmix64(h) % self.colouring.r

    def _after_tail(self, h: int) -> int:
        """_fnv1a(self._tail, h), as one multiply-add and a table entry."""
        low, power = h & 0xFF, self._tail_power
        term = self._tail_terms.get(low)
        if term is None:
            term = self._tail_terms[low] = \
                (_fnv1a(self._tail, low) - low * power) & 0xFFFFFFFFFFFFFFFF
        return (h * power + term) & 0xFFFFFFFFFFFFFFFF

    def axis(self, level: int, centre: int) -> list[int]:
        """The centres of the sub-boxes of `centre`'s radius-1 box at
        `level`: its digit `level` moved by -1, 0 and +1 within the grid."""
        step = self.powers[level]
        digit = (centre + self.base) // step % self.B
        return [centre + d * step for d in (-1, 0, 1)
                if 0 <= digit + d < self.B]

    def walk(self, code: int) -> Iterable[int]:
        """The codes of iter_vector_ball(decode(code), N, 1), in order."""
        return (sum(v * self.powers[n] for n, v in q.entries) for q in
                iter_vector_ball(self.decode(code), len(self.powers), 1))

    def pieces(self, code: int) -> list[tuple[int, int]]:
        """(code, tetris exponent) of every signed tetris image of a block."""
        out = self._images.get(code)
        if out is None:
            prefix, n, v = self._peel(code)
            step = self.powers[n]
            out = self._images[code] = [
                (c + d * step, j)
                for (c, j), d in zip(self.pieces(prefix), self._digits[v])]
        return out


def _dfs(m: int, space, r: int, certify: bool = True):
    """Least m-slot prefix, in canonical order, whose span keeps a colour.

    `space.candidates(prefix)` lists the next slot's candidates in canonical
    order, and `space.pieces(cand)` a candidate's distinct span pieces as
    (value, exponent) pairs.  A candidate adds to its prefix's span each
    piece after each element of that span, in `vectors.span_step`'s order
    (integer codes of vectors or tuple codes of words).  Every span starts
    with the empty combination `(space.zero, math.inf)`, its exponent above
    every piece's, so a piece after it is the piece alone.  Exponent 0 marks
    a span element, each checked as soon as it is made, so a dead end stops
    the building.

    `space.axis(level, centre)` lists the centres of a box's sub-boxes in
    walk order, from a span element's ball at level 0 down to its cells at
    level `space.levels` (0 when the element has no ball and is its own
    cell), and `space.colour(cell)` gives a cell's colour bit (1 << c, or 0
    for a vector cell outside the universe).

    Each level keeps, per centre, the colour bits its box walk saw and a
    mark once the walk reached the box's end (as every cell has).  A walk
    stops once every colour still wanted is seen, asking each sub-box only
    for the colours it still lacks; a later visit that wants more colours
    walks the box again from its start, and a box walked whole is never
    walked again.  A kept box holds only coloured cells, so the search
    colours the cells a flat walk of each ball would, in the same order,
    and each element allows exactly the colours of its whole ball.

    A node is one evaluated candidate prefix; a dead end is a node whose
    partial span already excludes every colour.  Returns the first
    surviving prefix of m slots, its colour and its `_certificate`, whose
    colour calls also go through `walk` into the cell memo, or Exhausted.
    With `certify` false the certificate is `()` and is never built.
    """
    nodes = dead_ends = 0
    levels, axis = space.levels, space.axis
    whole = 1 << r  # above every colour bit, so `colours &= bits` drops it
    colour_bits = {}  # cell -> colour bit and `whole`, for search and certificate
    memos = [{} for _ in range(levels)] + [colour_bits]  # centre -> bits
    top = memos[0].get

    def walk(level, centre, want):
        # the box's bits, walked from its start until `want` is seen
        if level == levels:
            bits = space.colour(centre) | whole
        else:
            bits = 0
            memo = memos[level + 1]
            for sub in axis(level, centre):
                got = memo.get(sub, 0)
                if not got & whole:
                    need = want & ~bits
                    if got & need != need:
                        got = walk(level + 1, sub, need)
                bits |= got
                if bits & want == want:
                    bits &= ~whole
                    break
            # else every sub-box was whole, so `bits` holds `whole`
        memos[level][centre] = bits
        return bits

    def extend(prefix, span, want):
        nonlocal nodes, dead_ends
        for cand in space.candidates(prefix):
            nodes += 1
            # span_step(span[1:], space.pieces(cand)), each span element
            # checked as soon as it is made, and nothing made past a dead end
            fresh, colours = [], want
            add = fresh.append
            for value, exp in space.pieces(cand):
                for v, e in span:
                    if e and exp:
                        add((v + value, e if e < exp else exp))
                        continue
                    v += value
                    add((v, 0))
                    bits = top(v, 0)
                    if bits & colours != colours and not bits & whole:
                        bits = walk(0, v, colours)
                    colours &= bits
                    if not colours:
                        break
                else:
                    continue
                break
            if not colours:
                dead_ends += 1
                continue
            if len(prefix) + 1 == m:
                # the witness colour is the least one the span keeps
                colour = (colours & -colours).bit_length() - 1
                if not certify:
                    return prefix + [cand], colour, ()
                return prefix + [cand], colour, _certificate(
                    space, span + fresh, colour,
                    lambda cell: colour_bits.get(cell) or walk(levels, cell, 0))
            found = extend(prefix + [cand], span + fresh, colours)
            if found is not None:
                return found
        return None

    found = extend([], [(space.zero, math.inf)], whole - 1)
    # extend and walk reach themselves through their closures; breaking
    # that cycle frees the memos now, not at the next cyclic collection
    del extend, walk
    return Exhausted(nodes, dead_ends) if found is None else found


def _certificate(space, span, colour: int, bits) -> tuple:
    """The span's elements (exponent 0) in `space.order`, each with its
    evidence when the space has ball levels: the first code of
    `space.walk(code)` whose `bits(cell)`, `_dfs`'s memo entry, holds the
    colour's bit, 1 away unless it is the element (integer metrics).  Each
    code's JSON dict comes from `space.to_dict`."""
    cert = []
    for code in sorted((v for v, exp in span if exp == 0), key=space.order):
        entry = {"element": space.to_dict(code), "colour": colour}
        if space.levels:
            nb = next(c for c in space.walk(code) if bits(c) >> colour & 1)
            entry.update(neighbour=space.to_dict(nb), dist=int(nb != code))
        cert.append(entry)
    return tuple(cert)


def _vector_search(problem: SearchProblem, colouring: Colouring):
    _check_colouring(colouring, "vector", problem.r, "the search")
    kernel = _VectorKernel(problem, colouring)
    found = _dfs(problem.m, kernel, problem.r)
    if isinstance(found, Exhausted):
        return found
    prefix, colour, certificate = found
    return Witness(
        kind="vector", mode=problem.mode, k=problem.k, r=problem.r, N=problem.N,
        radius=problem.radius, colour=colour, rule=colouring.rule_name(),
        certificate=certificate,
        blocks=BlockSequence(tuple(map(kernel.decode, prefix))),
    )


def search_exact(problem: SearchProblem, colouring: Colouring):
    """Least block sequence with an exactly monochromatic span, or Exhausted."""
    if problem.radius != 0:
        raise ValueError("search_exact requires radius 0")
    return _vector_search(problem, colouring)


def search_approx(problem: SearchProblem, colouring: Colouring):
    """Least block sequence whose span sits in the `problem.radius`
    fattening of one colour class (computed over the declared universe), or
    Exhausted; at radius 0 this is search_exact's search."""
    if problem.mode != SIGNED:
        raise ValueError("search_approx requires signed mode")
    return _vector_search(problem, colouring)


def _slot_symbols(alphabet: Alphabet, k: int, mode: str,
                  letters: Optional[Iterable] = None) -> list:
    """The symbols a generator may hold in symbol_key order: the given
    letters (every letter of the alphabet when None), then the variables
    by index.  Refuses more than MAX_UNIVERSE_CELLS before making any."""
    letters = sorted(alphabet.top if letters is None else letters,
                     key=W.letter_key)
    check_cap(len(letters) + (k if mode == UNSIGNED else 2 * k), "word symbols")
    indices = range(1, k + 1) if mode == UNSIGNED else \
        [i for i in range(-k, k + 1) if i != 0]
    return [Letter(t) for t in letters] + [Var(i) for i in indices]


class _WordCodes:
    """One word search's words as codes, and its slots.  A code is the tuple
    of each symbol's place in `table`: every letter of the alphabet, then
    the variables, in symbol_key order.  Codes hash as ints, and `order`,
    (len, code), sorts codes as Word.sort_key sorts their words.  A slot's
    candidates, each a word with its coded span pieces, are made as the DFS
    first reaches them and kept: a copy of a never-advanced tee re-reads the
    candidates made so far, then draws more.

    `levels` is 1 with a radius-1 ball (signed words only), whose members
    are its cells, and 0 without, when the DFS colours each word directly.
    The ball is a product over places, as in iter_word_ball: a nonzero
    letter stays, and the zero letter or v_i moves to the places of the
    indices within 1 of its own, sorted by place; a member has full class
    when it holds v_k or v_-k.

    A code's JSON dict is built from a per-place table of each symbol's
    key and value.  A lifted colouring (`colouring.lift` set) is fed a
    code's per-place lift pairs instead of a decoded Word; from a family or
    seeded source it colours them with no value built (see `_lift`).
    """

    zero = ()  # the code of the empty concatenation

    def __init__(self, alphabet: Alphabet, k: int, mode: str, radius: int,
                 colouring: Colouring, lengths: tuple, letters: Optional[Iterable]):
        self.k, self.mode, self.alphabet = k, mode, alphabet
        self.colouring = colouring
        self.levels = 1 if radius else 0
        self.table = _slot_symbols(alphabet, k, mode)
        self.place = {sym: p for p, sym in enumerate(self.table)}
        self._json = [("var", sym.index) if isinstance(sym, Var) else
                      ("letter", sym.token) for sym in self.table]
        self._pairs = None if colouring.lift is None else \
            [colouring.lift(sym) for sym in self.table]
        symbols = _slot_symbols(alphabet, k, mode, letters)
        self.slots = [itertools.tee(self._coded(slot, _full_class_words(
            k, mode, alphabet, [symbols] * ln)), 1)[0]
            for slot, ln in enumerate(lengths)]
        if radius:
            zero = alphabet.zero
            self.near = []
            for sym in self.table:
                if isinstance(sym, Letter) and sym.token != zero:
                    self.near.append([self.place[sym]])
                    continue
                idx = W._symbol_index(sym, zero)
                self.near.append(sorted(
                    self.place[Var(i) if i else Letter(zero)]
                    for i in range(idx - 1, idx + 2) if abs(i) <= k))
            self.full = {self.place[Var(k)], self.place[Var(-k)]}

    # codes and words are built from lists: tuple(map(...)) grows its tuple
    # by resizing, past the tuple free list that freeing it then fills
    def code(self, symbols: tuple) -> tuple:
        return tuple([self.place[sym] for sym in symbols])

    def decode(self, code: tuple) -> Word:
        return _trusted(Word, k=self.k, mode=self.mode, alphabet=self.alphabet,
                        symbols=tuple([self.table[p] for p in code]))

    def to_dict(self, code: tuple) -> dict:
        """self.decode(code).to_dict(), with no Word: fresh dicts and lists
        (a bit-tuple letter becomes a list) for every call."""
        return {"k": self.k, "mode": self.mode, "symbols": [
            {key: list(value) if type(value) is tuple else value}
            for key, value in map(self._json.__getitem__, code)]}

    def order(self, code: tuple) -> tuple:
        return len(code), code

    def _coded(self, slot: int, words: Iterable[Word]):
        # rapid increase keeps the concatenations of distinct pieces distinct
        for wrd in words:
            yield wrd, [(self.code(syms), exp)
                        for syms, exp in W._slot_pieces(wrd, slot)]

    def candidates(self, prefix: list) -> Iterable[tuple]:
        """The next slot's (word, coded pieces) candidates."""
        return copy.copy(self.slots[len(prefix)])

    def pieces(self, cand: tuple) -> list[tuple[tuple, int]]:
        return cand[1]

    def colour(self, code: tuple) -> int:
        """The colour bit, 1 << colour, of the word with this code."""
        if self._pairs is None:
            return 1 << self.colouring(self.decode(code))
        # a lifted colouring reads the code's lift pairs
        return 1 << self.colouring(self.k, self.mode, [self._pairs[p] for p in code])

    def walk(self, code: tuple):
        """The codes of iter_word_ball(self.decode(code), 1), in its order."""
        return itertools.filterfalse(self.full.isdisjoint, itertools.product(
            *map(self.near.__getitem__, code)))

    def axis(self, level: int, code: tuple):
        return self.walk(code)


def word_candidates(alphabet: Alphabet, k: int, mode: str, length: int,
                    letters: Optional[Iterable] = None) -> list[Word]:
    """All full-class words of the given length, canonical order."""
    symbols = _slot_symbols(alphabet, k, mode, letters)
    return list(_full_class_words(k, mode, alphabet, [symbols] * length))


def search_ghj(alphabet: Alphabet, k: int, mode: str, r: int,
               colouring: Colouring, lengths: Iterable[int],
               radius: Optional[int] = None,
               letters: Optional[Iterable] = None, *, certify: bool = True):
    """Least rapidly increasing word sequence with the requested lengths whose
    span is monochromatic (exactly, or within the radius-1 fattening).

    Generator lengths are exact and must themselves increase rapidly, so
    every assembled sequence is structurally valid.  `letters` optionally
    restricts the letters available for generator content (substitution
    letters still follow the per-slot level grading).  With `certify` false
    the returned Witness has an empty certificate, which `verify_witness`
    does not read; the search itself is the same.
    """
    if radius is None:
        radius = 0 if mode == UNSIGNED else 1
    _check_request(mode, k, radius)
    lengths = tuple(lengths)
    if not lengths:
        raise ValueError("need at least one generator length")
    if not W._rapid(lengths):
        raise ValueError("generator lengths must increase rapidly")
    _check_colouring(colouring, "word", r, "the search")
    space = _WordCodes(alphabet, k, mode, radius, colouring, lengths, letters)
    found = _dfs(len(lengths), space, r, certify=certify)
    if isinstance(found, Exhausted):
        return found
    prefix, colour, certificate = found
    return Witness(
        kind="word", mode=mode, k=k, r=r, radius=radius, colour=colour,
        certificate=certificate, rule=colouring.rule_name(),
        words=VarWordSequence(tuple(wrd for wrd, _ in prefix)), lengths=lengths,
    )


def _slice_products(slices):
    """The concatenation of one piece from each slice of every nonempty set
    of slices, in slice order.  Only the two generate-then-filter oracles
    use this loop, so they share none with the spans they check.  Refuses
    more than MAX_UNIVERSE_CELLS products before making any."""
    check_cap(math.prod(len(pieces) + 1 for pieces in slices) - 1,
              "oracle span products")
    for size in range(1, len(slices) + 1):
        for subset in itertools.combinations(slices, size):
            for pieces in itertools.product(*subset):
                yield sum(pieces, ())


def oracle_span_vectors(blocks: BlockSequence) -> list[BlockVector]:
    """Generate-then-filter span, factorised per block.

    A span element restricts to each block it touches as a signed tetris
    image of that block.  Every value string over each block's support is
    tried once and kept when `_block_image` accepts it; the kept pieces are
    multiplied out per set of blocks, and a product is kept when it attains
    magnitude k, that is when some piece has exponent 0.  Independent of
    the combination enumeration used by span() and of the search kernel.
    Refuses more than MAX_UNIVERSE_CELLS tries before trying any.
    """
    k, mode = blocks.k, blocks.mode
    values = range(0, k + 1) if mode == UNSIGNED else range(-k, k + 1)
    check_cap(sum(len(values) ** len(b.entries) for b in blocks),
              "oracle pieces to try")
    slices = []
    for b in blocks:
        pieces = (tuple((n, v) for (n, _), v in zip(b.entries, combo) if v)
                  for combo in itertools.product(values, repeat=len(b.entries)))
        slices.append([p for p in pieces if p and _block_image(b, p)])
    out = [BlockVector(k, mode, e) for e in _slice_products(slices)
           if max(abs(v) for _, v in e) == k]
    out.sort(key=BlockVector.sort_key)
    return out


def oracle_span_words(Y: VarWordSequence) -> list[Word]:
    """Generate-then-filter span, factorised per generator slot.

    Rapid increase makes the slot partition of each span length unique, so
    a span element is a concatenation of one accepted piece per generator
    of a nonempty subset.  Every candidate piece (every symbol string of the
    generator's length) is tried once per generator and kept when
    `_parse_segment` accepts it, graded by the generator's global index;
    the kept pieces are multiplied out per subset and filtered by class.
    Independent of the slot pieces and the combination loop used by
    span_words().  Refuses more than MAX_UNIVERSE_CELLS tries before trying
    any.
    """
    letters = sorted(Y.alphabet.top, key=W.letter_key)
    size = len(letters) + (Y.k if Y.mode == UNSIGNED else 2 * Y.k)
    check_cap(sum(size ** len(gen) for gen in Y.words), "oracle pieces to try")
    indices = range(1, Y.k + 1) if Y.mode == UNSIGNED else \
        [i for i in range(-Y.k, Y.k + 1) if i != 0]
    symbols = [Letter(t) for t in letters] + [Var(i) for i in indices]
    slices = [
        [piece for piece in itertools.product(symbols, repeat=len(gen))
         if W._parse_segment(Y, pos, gen, piece) is not None]
        for pos, gen in enumerate(Y.words)
    ]
    out = []
    for syms in _slice_products(slices):
        w = Word(Y.k, Y.mode, Y.alphabet, syms)
        if classify(w) == Y.k:
            out.append(w)
    out.sort(key=Word.sort_key)
    return out


@dataclass(frozen=True)
class VerifyReport:
    passed: bool
    colour: int
    checked: int
    failures: tuple

    def to_dict(self) -> dict:
        return {"passed": self.passed, "colour": self.colour,
                "checked": self.checked, "failures": list(self.failures)}


def verify_witness(witness: Witness, colouring: Colouring) -> VerifyReport:
    """Re-enumerate the witness span independently and re-check the colour
    condition; failures are reported, never raised.

    The certificate is informational and is not read: the verdict comes
    from the re-enumerated span alone, so an edited or empty certificate
    gives the same report.

    A malformed request raises ValueError instead: a witness whose mode is
    unknown, whose k is below 1, whose radius is not 0 or 1, or whose radius
    is 1 outside signed mode; a colouring of another kind than the witness
    (a word colouring for a vector witness) or with another number of
    colours; a colour outside [0, r); a k or mode other than the blocks' or
    words'; a vector witness with a block position outside [0, N), or of
    radius 1 over a universe the search would refuse; word lengths other
    than `lengths`, or of radius 1 with 3^(sum of lengths) over
    MAX_UNIVERSE_CELLS; or a witness whose independent span would take more
    than MAX_UNIVERSE_CELLS candidate pieces (summed over its blocks or
    generators) or piece products to enumerate, refused before any is made.
    """
    _check_request(witness.mode, witness.k, witness.radius)
    _check_colouring(colouring, witness.kind, witness.r, "the witness")
    if not 0 <= witness.colour < witness.r:
        raise ValueError(f"witness colour {witness.colour} lies outside "
                         f"[0, {witness.r})")
    seq = witness.blocks if witness.kind == "vector" else witness.words
    if (seq.k, seq.mode) != (witness.k, witness.mode):
        raise ValueError(f"the witness has k={witness.k} and mode "
                         f"{json.dumps(witness.mode)} but its {witness.kind}s "
                         f"have k={seq.k} and mode {json.dumps(seq.mode)}")
    if witness.kind == "vector":
        reach = seq.blocks[-1].max_support
        if witness.N is None or reach >= witness.N:
            raise ValueError(f"witness block position {reach} lies outside "
                             f"[0, N) for N={witness.N}")
        if witness.radius:  # each ball walk is linear in N
            _coordinate_values(witness.k, witness.N, witness.mode)
    elif [len(w) for w in seq] != list(witness.lengths):
        raise ValueError(f"the witness lengths {list(witness.lengths)} differ "
                         f"from its words' {[len(w) for w in seq]}")
    elif witness.radius:  # the ball of a length-n word holds up to 3^n words
        check_cap(3 ** sum(witness.lengths), "possible words in one ball")
    failures = []
    elements = (oracle_span_vectors(seq) if witness.kind == "vector" else
                oracle_span_words(seq))
    for x in elements:
        if witness.radius == 0:
            c = colouring(x)
            if c != witness.colour:
                failures.append({
                    "element": x.to_dict(), "colour": c,
                    "expected": witness.colour,
                })
        else:
            ball = (iter_vector_ball(x, witness.N, witness.radius)
                    if witness.kind == "vector" else
                    iter_word_ball(x, witness.radius))
            if not any(colouring(q) == witness.colour for q in ball):
                failures.append({
                    "element": x.to_dict(),
                    "reason": f"no colour-{witness.colour} neighbour in radius "
                              f"{witness.radius}",
                })
    return VerifyReport(
        passed=not failures, colour=witness.colour, checked=len(elements),
        failures=tuple(failures),
    )


def _lift(colouring: Colouring, cols: int) -> Colouring:
    """The word colouring w -> colouring(phi_encode(X), psi_encode(X, cols))
    for X = (w,), with both encodings read off w's lift pairs, one per
    position: `lifted.lift(symbol)` is (index, ()) for a variable and (0, the
    letter's set bits below cols) for a letter.

    `lifted(w)` takes a word and calls `colouring.fn` on the validated
    encodings.  `lifted(k, mode, pairs)` takes the pairs alone, as the word
    search passes them from its codes, which are valid by construction: for
    a family or seeded colouring it computes the colour from the pairs, with
    the family's rule or the seeded key formatted from them, and builds no
    value; a custom or table colouring still gets validated values, since
    they reach the caller's code.  The lift has exactly one block, so a
    lifted support-size-mod is constant.  `lifted`'s own call checks the
    colour against the same r."""
    letter_bits = functools.cache(lambda token: tuple(_set_bits(token, cols)))

    def pair(sym) -> tuple:
        return (sym.index, ()) if isinstance(sym, Var) else \
            (0, letter_bits(sym.token))

    # direct(k, mode, entries, bits, rows): the colour, with no value built
    if colouring.seed is not None:
        seed, r = colouring.seed, colouring.r

        def direct(k, mode, entries, bits, rows):
            return _seeded_colour(_pair_key(((k, mode, entries),), rows, cols, bits),
                                  seed, r)
    elif colouring.family is not None:
        rule = _family_rule(colouring.family, colouring.r)

        def direct(k, mode, entries, bits, rows):
            return rule(entries, bits, 1)
    else:
        direct = None

    def lifted(*elem) -> int:
        if len(elem) == 1:  # a word, for colouring.fn
            wrd, = elem
            k, mode, pairs, fast = wrd.k, wrd.mode, list(map(pair, wrd.symbols)), None
        else:  # a code's pairs
            (k, mode, pairs), fast = elem, direct
        # entries and bits in position order, so the bits are sorted
        entries, bits = [], []
        for n, (i, set_bits) in enumerate(pairs):
            if i:
                entries.append((n, i))
            for b in set_bits:
                bits.append((n, b))
        if fast is not None:
            return fast(k, mode, entries, bits, len(pairs))
        return colouring.fn(BlockSequence((BlockVector(k, mode, tuple(entries)),)),
                            ParamMatrix(len(pairs), cols, frozenset(bits)))
    out = Colouring.custom(lifted, colouring.r, arity="word", name="lifted")
    out.lift = pair
    return out


@dataclass(frozen=True)
class PipelineBounds:
    mode: str
    k: int
    lengths: tuple[int, ...]
    letter_level: int = 0
    sample_count: int = 32
    seed: int = 0

    def __post_init__(self):
        check_mode_k(self.mode, self.k)
        if len(self.lengths) % 2 != 0 or not self.lengths:
            raise ValueError("the word search needs an even number of lengths")
        if self.letter_level < 0:
            raise ValueError("letter_level must be nonnegative")
        if self.sample_count < 1:  # no sample would make a pass that checked nothing
            raise ValueError("sample_count must be at least 1")


@dataclass(frozen=True)
class PipelineResult:
    pair: DerivedPair
    colour: int
    cols: int
    samples: int
    failures: tuple

    @property
    def passed(self) -> bool:
        return not self.failures


def _check_sample(pair: DerivedPair, a: BlockVector, deltas: tuple,
                  lifted: Colouring, colour: int) -> Optional[dict]:
    """Decode one point (a, deltas) of the derived product back to a word and
    check it; the failure record, or None when the point passes."""
    Y, cols = pair.source, len(deltas)
    Z = decode_witness(Y, BlockSequence((a,)), product_to_sigmas(Y, deltas))
    z = Z.words[0]
    assembled = ParamMatrix(
        pair.perfect_sets[0].length, cols,
        frozenset((n, i) for i, delta in enumerate(deltas)
                  for n, b in enumerate(delta) if b),
    )
    if phi_encode(Z).blocks != (a,):
        return {"sample": a.to_dict(), "reason": "vector encode mismatch"}
    if psi_encode(Z, cols) != assembled:
        return {"sample": a.to_dict(), "reason": "matrix encode mismatch"}
    if Y.mode == UNSIGNED:
        if lifted(z) != colour:
            return {"sample": a.to_dict(), "reason": "colour mismatch"}
        return None
    near = next((y for y in iter_word_ball(z, 1) if lifted(y) == colour), None)
    if near is None:
        return {"sample": a.to_dict(),
                "reason": "no on-colour word within distance 1"}
    a_tilde = phi_encode(VarWordSequence((near,))).blocks[0]
    if linf_dist(a, a_tilde) > 1:
        return {"sample": a.to_dict(), "reason": "decoded vector drifted"}
    return None


def parametrized_pipeline(colouring: Colouring, bounds: PipelineBounds):
    """Lift a (vector sequence, matrix) colouring to single words, search for
    an even-length witness sequence, and derive the block sequence plus the
    per-column constraint records.  The derived product is then sampled: each
    sample decodes back to a word and must land on the witness colour
    (exactly in unsigned mode, within sequence distance 1 in signed mode).
    Each distinct drawn point is checked once; a failing point is listed
    once per draw, and `samples` counts draws.
    """
    _check_colouring(colouring, "vector_matrix", colouring.r, "the pipeline")
    depth = max(bounds.letter_level, len(bounds.lengths) - 1)
    alphabet = bitstring_alphabet(depth)
    cols = depth + 1
    content = [t for t in alphabet.top if len(t) <= bounds.letter_level + 1]
    lifted = _lift(colouring, cols)
    # only the words and colour are read, so no certificate is built
    found = search_ghj(alphabet, bounds.k, bounds.mode, colouring.r,
                       lifted, bounds.lengths, letters=content, certify=False)
    if isinstance(found, Exhausted):
        return found
    pair = derived_pair(found.words, cols)
    rng = random.Random(bounds.seed)
    failures = []
    checked = {}
    for _ in range(bounds.sample_count):
        a = random_span_element(rng, pair.B)
        deltas = tuple(random_satisfying_string(rng, desc)
                       for desc in pair.perfect_sets)
        if (a, deltas) not in checked:
            checked[a, deltas] = _check_sample(pair, a, deltas, lifted,
                                               found.colour)
        failure = checked[a, deltas]
        if failure is not None:
            failures.append(failure)
    return PipelineResult(pair=pair, colour=found.colour, cols=cols,
                          samples=bounds.sample_count,
                          failures=tuple(failures))


# the JSON type of every witness field, common and per kind
_WITNESS_FIELDS = {"mode": str, "k": int, "r": int, "radius": int,
                   "colour": int, "certificate": list}
_KIND_FIELDS = {"vector": {"blocks": list, "N": int},
                "word": {"alphabet": dict, "words": list, "lengths": list}}
_JSON_TYPE_NAMES = {str: "string", int: "integer", list: "list", dict: "object"}


def witness_from_dict(data: dict) -> Witness:
    """Rebuild a witness from its JSON form (the output of Witness.to_dict).

    Input of the wrong shape raises ValueError naming what is wrong.
    """
    if not isinstance(data, dict):
        raise ValueError("a witness must be a JSON object")
    kind = data.get("kind")
    if not isinstance(kind, str) or kind not in _KIND_FIELDS:
        raise ValueError(f"unknown witness kind {json.dumps(kind)}")
    for field, want in {**_WITNESS_FIELDS, **_KIND_FIELDS[kind]}.items():
        value = json_field(data, field, "the witness")
        if not (_is_int(value) if want is int else isinstance(value, want)):
            raise ValueError(f"the witness field {field!r} must be a JSON "
                             f"{_JSON_TYPE_NAMES[want]}")
    if not isinstance(data.get("rule", ""), str):  # optional, but a string
        raise ValueError("the witness field 'rule' must be a JSON string")
    common = dict(
        kind=data["kind"], mode=data["mode"], k=data["k"], r=data["r"],
        radius=data["radius"], colour=data["colour"],
        certificate=tuple(data["certificate"]), rule=data.get("rule", ""),
    )
    if data["kind"] == "vector":
        return Witness(
            blocks=BlockSequence.from_list(data["blocks"]), N=data["N"],
            **common,
        )
    if not all(map(_is_int, data["lengths"])):
        raise ValueError("the witness field 'lengths' must be a JSON list of "
                         "integers")
    alphabet = Alphabet.from_dict(data["alphabet"])
    return Witness(
        words=VarWordSequence.from_list(data["words"], alphabet),
        lengths=tuple(data["lengths"]), **common,
    )
