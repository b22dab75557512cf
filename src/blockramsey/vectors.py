"""Finitely supported integer vectors under sums and the tetris operation.

A block vector is a finitely supported map from positions to nonzero
integers whose largest magnitude equals a declared bound k.  Unsigned
vectors take values in {1, ..., k}, signed ones in {-k, ..., -1, 1, ..., k}.
Two vectors whose supports are separated (every position of the first
below every position of the second) can be summed coordinate-wise, which
makes each family a partial semigroup.  The tetris operation T lowers
every magnitude by one and drops entries that reach zero.

The span of a block sequence collects every sum of per-block tetris
images, with independent signs in signed mode, subject to at least one
block being used at full magnitude.  Distances are sup-norm; the
embedding into real sequences with coordinates +-(1+delta)^(i-k) links
signed vectors to the unit sphere of c_0.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

UNSIGNED = "unsigned"
SIGNED = "signed"
MODES = (UNSIGNED, SIGNED)

# the most cells of a vector universe, or letters of an alphabet level,
# that the library builds; larger requests are refused before building
MAX_UNIVERSE_CELLS = 10**6


def check_cap(count: int, what: str) -> None:
    """Refuse, in one line, a request to make `count` > MAX_UNIVERSE_CELLS
    things; a count of 13 digits or more is shown as its power of ten."""
    if count > MAX_UNIVERSE_CELLS:
        shown = count if count < 10**12 else f"about 10^{math.log10(count):.0f}"
        raise ValueError(f"{shown} {what} exceed the cap of {MAX_UNIVERSE_CELLS}")


def check_mode_k(mode, k) -> None:
    """Refuse, in one line, a mode other than unsigned or signed, or a k below 1."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {json.dumps(mode, default=repr)}")
    if k < 1:
        raise ValueError("k must be at least 1")


@dataclass(frozen=True)
class BlockVector:
    """Sparse vector with magnitude bound k, stored as ordered (position, value) pairs."""

    k: int
    mode: str
    entries: tuple[tuple[int, int], ...]

    def __post_init__(self):
        check_mode_k(self.mode, self.k)
        if not self.entries:
            raise ValueError("a block vector has nonempty support")
        prev = -1
        for n, v in self.entries:
            if n <= prev:
                raise ValueError("positions must be strictly increasing")
            if n < 0:
                raise ValueError("positions are nonnegative")
            prev = n
            if v == 0 or abs(v) > self.k:
                raise ValueError(f"value {v} out of range for k={self.k}")
            if self.mode == UNSIGNED and v < 0:
                raise ValueError("unsigned vectors take positive values")
        if max(abs(v) for _, v in self.entries) != self.k:
            raise ValueError(f"magnitude {self.k} must be attained")

    @classmethod
    def make(cls, k: int, mode: str, entries) -> "BlockVector":
        """Build from a mapping or an iterable of (position, value) pairs.

        k, positions and values must be integers: 1.7, "1" or true raise
        ValueError instead of being coerced.
        """
        if isinstance(entries, Mapping):
            entries = entries.items()
        try:
            items = sorted((n, v) for n, v in entries)
            ok = _is_int(k) and all(_is_int(n) and _is_int(v) for n, v in items)
        except (TypeError, ValueError):
            ok = False
        if not ok:
            raise ValueError("a block vector needs an integer k and a list of "
                             "(position, value) integer pairs")
        return cls(k, mode, tuple(items))

    def support(self) -> tuple[int, ...]:
        return tuple(n for n, _ in self.entries)

    @property
    def min_support(self) -> int:
        return self.entries[0][0]

    @property
    def max_support(self) -> int:
        return self.entries[-1][0]

    def sort_key(self):
        # canonical order: lexicographic by (min support, entries)
        return (self.min_support, self.entries)

    def to_dict(self) -> dict:
        return {"k": self.k, "mode": self.mode, "entries": [list(e) for e in self.entries]}

    @classmethod
    def from_dict(cls, data: dict) -> "BlockVector":
        if not isinstance(data, dict):
            raise ValueError("a block vector must be a JSON object")
        return cls.make(*(json_field(data, name, "a block vector")
                          for name in ("k", "mode", "entries")))


@dataclass(frozen=True)
class BlockSequence:
    """Finite list of block vectors with shared (k, mode) and strictly separated supports."""

    blocks: tuple[BlockVector, ...]

    def __post_init__(self):
        if not self.blocks:
            raise ValueError("a block sequence is nonempty")
        first = self.blocks[0]
        for b in self.blocks[1:]:
            if b.k != first.k or b.mode != first.mode:
                raise ValueError("blocks must share k and mode")
        for a, b in zip(self.blocks, self.blocks[1:]):
            if not a.max_support < b.min_support:
                raise ValueError("blocks must be in strict block order")

    @property
    def k(self) -> int:
        return self.blocks[0].k

    @property
    def mode(self) -> str:
        return self.blocks[0].mode

    def __len__(self):
        return len(self.blocks)

    def __iter__(self):
        return iter(self.blocks)

    def to_list(self) -> list:
        return [b.to_dict() for b in self.blocks]

    @classmethod
    def from_list(cls, data: list[dict]) -> "BlockSequence":
        return cls(tuple(BlockVector.from_dict(d)
                         for d in json_objects(data, "a block sequence")))


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def json_field(data: dict, name: str, what: str):
    """data[name]; a ValueError naming `what` and the field when it is absent."""
    if name not in data:
        raise ValueError(f"{what} lacks the field {name!r}")
    return data[name]


def json_objects(data, what: str) -> list:
    """data itself when it is a list of JSON objects; ValueError otherwise."""
    if not isinstance(data, list) or not all(isinstance(d, dict) for d in data):
        raise ValueError(f"{what} must be a JSON list of objects")
    return data


@dataclass(frozen=True)
class RealVector:
    """Finitely supported real vector, ordered (position, value) pairs."""

    entries: tuple[tuple[int, float], ...]

    def __post_init__(self):
        prev = -1
        for n, v in self.entries:
            if n <= prev:
                raise ValueError("positions must be strictly increasing")
            prev = n
            if not math.isfinite(v):
                raise ValueError("values must be finite")

    def value_at(self, n: int) -> float:
        for pos, v in self.entries:
            if pos == n:
                return v
        return 0.0

    def sup_norm(self) -> float:
        return max((abs(v) for _, v in self.entries), default=0.0)


def support(p: BlockVector) -> tuple[int, ...]:
    """Positions where p is nonzero."""
    return p.support()


def block_lt(p: BlockVector, q: BlockVector) -> bool:
    """True iff every position of p lies below every position of q."""
    _check_compatible(p, q)
    return p.max_support < q.min_support


def block_sum(p: BlockVector, q: BlockVector) -> BlockVector:
    """Coordinate-wise sum; requires block_lt(p, q)."""
    if not block_lt(p, q):
        raise ValueError("block_sum requires p < q in block order")
    return BlockVector(p.k, p.mode, p.entries + q.entries)


def tetris(p: BlockVector) -> BlockVector:
    """Lower every magnitude by one; maps bound k to bound k-1."""
    if p.k < 2:
        raise ValueError("tetris needs k >= 2; the bound-0 family is not modeled")
    return BlockVector(p.k - 1, p.mode, _tetris_entries(p.entries, 1, 1))


def negate(p: BlockVector) -> BlockVector:
    """Flip the sign of every value (signed mode only)."""
    if p.mode != SIGNED:
        raise ValueError("negate requires signed mode")
    return BlockVector(p.k, p.mode, _tetris_entries(p.entries, 0, -1))


def _tetris_entries(entries, j: int, sign: int) -> tuple[tuple[int, int], ...]:
    # raw helper: apply T j times and an overall sign, dropping zeros
    if not j and sign == 1:
        return tuple(entries)
    out = []
    for n, v in entries:
        m = abs(v) - j
        if m > 0:
            out.append((n, sign * m if v > 0 else -sign * m))
    return tuple(out)


def tetris_images(entries, k: int, mode: str) -> list:
    """(entries of sign * T^j(b), j) for the block b with these entries, for
    j < k, each exponent's signs in the order (+1, -1) (+1 alone unsigned)."""
    signs = (1, -1) if mode == SIGNED else (1,)
    return [(_tetris_entries(entries, j, s), j) for j in range(k) for s in signs]


def _block_image(b: BlockVector, piece) -> Optional[tuple[int, int]]:
    """(sign, j) with piece == sign * T^j(b), or None when the nonempty
    (position, value) pairs of piece are no signed tetris image of b."""
    j = b.k - max(abs(v) for _, v in piece)
    if j < 0:  # a piece never exceeds its block's magnitude
        return None
    for s in (1, -1) if b.mode == SIGNED else (1,):
        if _tetris_entries(b.entries, j, s) == piece:
            return s, j
    return None


def span_step(span, pieces) -> list:
    """The (value, exponent) elements taking a piece from one new last slot:
    each piece alone, then that piece after each element of `span`.  Values
    add with `+` (codes add, tuples concatenate) and exponents, which count
    how far a piece sits below full magnitude, take their minimum."""
    out = []
    for value, exp in pieces:
        out.append((value, exp))
        for v, e in span:
            out.append((v + value, e if e < exp else exp))
    return out


def span_combinations(slots) -> list:
    """(value, exponent) for one piece from each slot of every nonempty set
    of slots: the fold of span_step over the slots, in no fixed order.
    Refuses more than MAX_UNIVERSE_CELLS combinations before making any."""
    check_cap(math.prod(len(pieces) + 1 for pieces in slots) - 1,
              "span combinations")
    span = []
    for pieces in slots:
        span += span_step(span, pieces)
    return span


def span(P: BlockSequence) -> list[BlockVector]:
    """All sums of signed tetris images over nonempty subsets of P.

    Per-block exponents run over 0..k-1 with at least one exponent 0,
    signs over {+1, -1} in signed mode.  Deduplicated, canonical order.
    """
    slots = [tetris_images(b.entries, P.k, P.mode) for b in P.blocks]
    seen = {value for value, exp in span_combinations(slots) if exp == 0}
    return sorted((BlockVector(P.k, P.mode, e) for e in seen), key=BlockVector.sort_key)


def linf_dist(p: BlockVector, q: BlockVector) -> int:
    """Sup-norm distance, treating absent entries as 0."""
    if p.mode != q.mode:
        raise ValueError("mode mismatch")
    a, b = dict(p.entries), dict(q.entries)
    return max(abs(a.get(n, 0) - b.get(n, 0)) for n in set(a) | set(b))

def in_fattening(p: BlockVector, A: Iterable[BlockVector], eps: int) -> bool:
    """True iff some member of A lies within sup-norm distance eps of p."""
    return any(linf_dist(p, q) <= eps for q in A)


def seq_dist(A: BlockSequence, B: BlockSequence) -> float:
    """Sup of element-wise distances; infinity when lengths differ."""
    if len(A) != len(B):
        return math.inf
    return max(linf_dist(a, b) for a, b in zip(A, B))


def embed_delta(p: BlockVector, delta: float) -> RealVector:
    """Send value +-i to +-(1+delta)^(i-k); the image has sup-norm exactly 1."""
    if p.mode != SIGNED:
        raise ValueError("embed_delta requires signed mode")
    base = 1.0 + delta
    out = []
    for n, v in p.entries:
        mag = base ** (abs(v) - p.k)
        out.append((n, mag if v > 0 else -mag))
    return RealVector(tuple(out))


def net_defect(B: BlockSequence, delta: float, sample_count: int, seed: int) -> float:
    """Largest sup-norm gap between random unit vectors of the embedded span
    of B's basis and the embedded images of span(B).

    Samples coefficients uniform in [-1, 1] over the images of B's blocks,
    normalizes to sup-norm 1, and measures distance to the embedded span.
    Requires (1+delta)^(1-k) < delta so that the image grid is delta-dense.
    """
    import numpy as np  # only here, so importing the library stays light

    if B.mode != SIGNED:
        raise ValueError("net_defect requires signed mode")
    if sample_count < 1:
        raise ValueError("sample_count must be positive")
    k = B.k
    if (1.0 + delta) ** (1 - k) >= delta:
        raise ValueError(f"need (1+delta)^(1-k) < delta; got k={k}, delta={delta}")
    positions = sorted({n for b in B for n, _ in b.entries})
    index = {n: i for i, n in enumerate(positions)}

    def dense(rv: RealVector) -> np.ndarray:
        row = np.zeros(len(positions))
        for n, v in rv.entries:
            row[index[n]] = v
        return row

    basis = np.array([dense(embed_delta(b, delta)) for b in B])
    net = np.array([dense(embed_delta(q, delta)) for q in span(B)])
    rng = np.random.default_rng(seed)
    coeffs = rng.uniform(-1.0, 1.0, size=(sample_count, len(B.blocks)))
    pts = coeffs @ basis
    norms = np.abs(pts).max(axis=1)
    pts = pts[norms > 0] / norms[norms > 0, None]
    defect = 0.0
    chunk = max(1, 10**7 // max(1, net.shape[0] * net.shape[1]))
    for start in range(0, len(pts), chunk):
        batch = pts[start : start + chunk]
        dists = np.abs(batch[:, None, :] - net[None, :, :]).max(axis=2).min(axis=1)
        if dists.size:
            defect = max(defect, float(dists.max()))
    return defect


def _check_compatible(p: BlockVector, q: BlockVector):
    if p.mode != q.mode or p.k != q.k:
        raise ValueError("vectors must share k and mode")
