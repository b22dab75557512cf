"""Encoding block sequences and bit matrices into variable-word sequences.

Over the bitstring alphabet (letters are finitely supported 0/1 tuples,
level n letters vanish beyond position n) a word sequence encodes two
things at once: the positions and indices of its variables give a block
sequence of integer vectors, and the bits of its letters fill a 0/1
matrix indexed by (global position, bit index).

From an even-length sequence Y one derives a coarser block sequence B
(one block per odd-indexed word, offset by all preceding lengths) and,
for each bit index i, a constraint record describing which 0/1 strings
arise as column i of an encoded matrix when the even-indexed words are
substituted by letters.  The decoder inverts the construction: given a
vector sequence A in the span of B and a letter per even word, it
produces a word sequence whose two encodings are exactly A and the
matrix of the substituted sequence.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .vectors import (MAX_UNIVERSE_CELLS, UNSIGNED, BlockSequence, BlockVector,
                      _block_image)
from .words import (
    Alphabet,
    Decomposition,
    Letter,
    Segment,
    Var,
    VarWordSequence,
    _var_entries,
    compose,
    concat,
    substitute,
)


def bit_letter(bits: Iterable[int]) -> tuple[int, ...]:
    """Canonical bitstring token: trailing zeros stripped."""
    bits = tuple(int(b) for b in bits)
    if any(b not in (0, 1) for b in bits):
        raise ValueError("bits must be 0 or 1")
    while bits and bits[-1] == 0:
        bits = bits[:-1]
    return bits


def letter_level(token: tuple[int, ...]) -> int:
    """Least n with support contained in [0, n]."""
    return max(0, len(token) - 1)


def bit_at(token, i: int) -> int:
    if not isinstance(token, tuple):
        raise ValueError("encodings need a bitstring alphabet")
    return token[i] if i < len(token) else 0


def _set_bits(token, cols: int) -> list[int]:
    """The indices i < cols at which the bitstring token has a 1."""
    if not isinstance(token, tuple):
        raise ValueError("encodings need a bitstring alphabet")
    return [i for i, b in enumerate(token[:cols]) if b]


def bitstring_alphabet(max_level: int) -> Alphabet:
    """Levels of all canonical bitstrings supported within [0, n], n <= max_level.
    Level n has 2^(n+1) letters; a top level of more than MAX_UNIVERSE_CELLS
    letters is refused before any letter is built."""
    if max_level + 1 >= MAX_UNIVERSE_CELLS.bit_length():  # 2^(n+1) > cap
        raise ValueError(f"bitstring level {max_level} has 2^{max_level + 1} letters, "
                         f"over the cap of {MAX_UNIVERSE_CELLS}; lower the level")
    levels = []
    for n in range(max_level + 1):
        level = {()}
        for length in range(1, n + 2):
            for head in itertools.product((0, 1), repeat=length - 1):
                level.add(head + (1,))
        levels.append(level)
    return Alphabet.make(levels, ())


@dataclass(frozen=True)
class ParamMatrix:
    """0/1 matrix with explicit bounds, stored as the set of one-positions."""

    rows: int
    cols: int
    bits: frozenset

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("a matrix needs nonnegative rows and cols")
        for n, i in self.bits:
            if not (0 <= n < self.rows and 0 <= i < self.cols):
                raise ValueError("bit out of bounds")

    def bit(self, n: int, i: int) -> int:
        return 1 if (n, i) in self.bits else 0

    def to_dict(self) -> dict:
        return {"rows": self.rows, "cols": self.cols, "bits": sorted(map(list, self.bits))}


def _check_pairs(Y: VarWordSequence):
    if len(Y) % 2 != 0 or len(Y) < 2:
        raise ValueError("the sequence must have even length >= 2")


def phi_encode(X: VarWordSequence) -> BlockSequence:
    """One block per word: its variable positions (cumulative offsets) and indices."""
    blocks = []
    offset = 0
    for w in X.words:
        entries = _var_entries(w, offset)
        if not entries:
            raise ValueError("a variable-free word has no block image")
        blocks.append(BlockVector(X.k, X.mode, entries))
        offset += len(w)
    return BlockSequence(tuple(blocks))


def default_cols(X: VarWordSequence) -> int:
    """One more than the largest letter level occurring in the concatenation."""
    best = 0
    for w in X.words:
        for sym in w.symbols:
            if isinstance(sym, Letter):
                best = max(best, letter_level(bit_letter(sym.token)))
    return best + 1


def psi_encode(X: VarWordSequence, cols: Optional[int] = None) -> ParamMatrix:
    """Row n holds the bits of the letter at global position n; variables give zeros."""
    if cols is None:
        cols = default_cols(X)
    symbols = [sym for w in X.words for sym in w.symbols]
    return ParamMatrix(len(symbols), cols, frozenset(
        (n, i) for n, sym in enumerate(symbols) if isinstance(sym, Letter)
        for i in _set_bits(sym.token, cols)))


def derive_B(Y: VarWordSequence) -> BlockSequence:
    """Block per odd-indexed word, offset by the lengths of all earlier words."""
    _check_pairs(Y)
    return BlockSequence(phi_encode(Y).blocks[1::2])


@dataclass(frozen=True)
class PerfectSetDescription:
    """Constraints cutting out the strings realizable as one matrix column.

    Every position is either forced (letter bits; variables pinned to 0)
    or belongs to an equality class of variable positions inside one
    even-word interval, each class contributing one free bit.
    """

    index: int
    length: int
    forced: tuple[tuple[int, int], ...]
    classes: tuple[tuple[int, ...], ...]

    def satisfies(self, bits: Sequence[int]) -> bool:
        if len(bits) != self.length:
            return False
        if any(bits[n] != b for n, b in self.forced):
            return False
        return all(len({bits[n] for n in cls}) == 1 for cls in self.classes)

    def fill(self, free_bits: Sequence[int]) -> tuple:
        """The satisfying 0/1 tuple with free_bits[c] on every position of
        class c, and the forced bits elsewhere."""
        bits = [0] * self.length
        for n, b in self.forced:
            bits[n] = b
        for cls, bit in zip(self.classes, free_bits):
            for n in cls:
                bits[n] = bit
        return tuple(bits)

    def strings(self):
        """All satisfying 0/1 tuples of the ambient length, lexicographic."""
        return map(self.fill, itertools.product((0, 1), repeat=len(self.classes)))

    def count(self) -> int:
        return 2 ** len(self.classes)

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "forced": sorted(map(list, self.forced)),
            "classes": sorted(sorted(c) for c in self.classes),
        }


def perfect_set(Y: VarWordSequence, i: int) -> PerfectSetDescription:
    """Constraint record for column i of the matrices encodable over Y.

    Letter positions are forced to the letter's bit i.  Variable
    positions are forced to 0 except inside an even-word interval at or
    past the column threshold (the end of word 2i-1), where the interval's
    variables share one free bit.
    """
    if i < 0:
        raise ValueError(f"column index {i} is negative")
    _check_pairs(Y)
    lens = [len(w) for w in Y.words]
    total = sum(lens)
    threshold = sum(lens[: min(2 * i, len(lens))])
    intervals = []
    for m in range(1, (len(Y) + 1) // 2):
        start = sum(lens[: 2 * m])
        intervals.append((start, start + lens[2 * m]))
    symbols = [sym for w in Y.words for sym in w.symbols]
    forced = []
    classes = []
    free = set()
    for start, end in intervals:
        if start < threshold:
            continue
        group = [n for n in range(start, end) if isinstance(symbols[n], Var)]
        if group:
            classes.append(tuple(group))
            free.update(group)
    for n, sym in enumerate(symbols):
        if isinstance(sym, Letter):
            forced.append((n, bit_at(bit_letter(sym.token), i)))
        elif n not in free:
            forced.append((n, 0))
    return PerfectSetDescription(i, total, tuple(forced), tuple(classes))


def product_to_sigmas(Y: VarWordSequence, deltas: Sequence[Sequence[int]]) -> list:
    """Letters for the even-indexed words realizing the given column strings.

    deltas[i] must satisfy perfect_set(Y, i).  The letter for word 2m
    reads bit i off the least variable position of interval m; the first
    word's letter is the zero letter (its variables are pinned to 0 in
    every column).
    """
    _check_pairs(Y)
    descs = [perfect_set(Y, i) for i in range(len(deltas))]
    for desc, delta in zip(descs, deltas):
        if not desc.satisfies(delta):
            raise ValueError(f"string for column {desc.index} violates its constraints")
    lens = [len(w) for w in Y.words]
    sigmas = [()]
    for m in range(1, len(Y) // 2):
        n_m = _var_entries(Y.words[2 * m], sum(lens[: 2 * m]))[0][0]
        tok = bit_letter(tuple(delta[n_m] for delta in deltas))
        if letter_level(tok) > 2 * m:
            raise ValueError("letter level exceeds its slot")
        sigmas.append(tok)
    return sigmas


def substituted_pairs(Y: VarWordSequence, sigmas: Sequence) -> VarWordSequence:
    """The sequence (y_{2m}[sigma_{2m}] ++ y_{2m+1})."""
    _check_pairs(Y)
    if len(sigmas) != len(Y) // 2:
        raise ValueError("one letter per even-indexed word")
    k = Y.k
    arity = k if Y.mode == UNSIGNED else 2 * k
    words = []
    for m in range(len(Y) // 2):
        tok = sigmas[m]
        if letter_level(bit_letter(tok)) > 2 * m:
            raise ValueError(f"letter for word {2 * m} exceeds level {2 * m}")
        even = substitute(Y.words[2 * m], (tok,) * arity)
        words.append(concat(even, Y.words[2 * m + 1]))
    return VarWordSequence(tuple(words))


def _parse_over_blocks(A: BlockSequence, B: BlockSequence):
    """Per element of A: the covering block interval with exponents and signs."""
    owner = {n: bi for bi, b in enumerate(B.blocks) for n, _ in b.entries}
    parsed = []
    prev_hi = -1
    for a in A.blocks:
        by_block = {}
        for n, v in a.entries:
            if n not in owner:
                raise ValueError("position outside the span of the base sequence")
            by_block.setdefault(owner[n], []).append((n, v))
        used = {}
        for bi, restriction in by_block.items():
            used[bi] = _block_image(B.blocks[bi], tuple(restriction))
            if used[bi] is None:
                raise ValueError("element does not restrict to a tetris image")
        lo, hi = min(used), max(used)
        if lo <= prev_hi:
            raise ValueError("elements overlap on the base sequence")
        prev_hi = hi
        for bi in range(lo, hi + 1):
            used.setdefault(bi, (1, B.k))
        parsed.append((lo, hi, used))
    return parsed


def decode_witness(
    Y: VarWordSequence, A: BlockSequence, sigmas: Sequence
) -> VarWordSequence:
    """Invert the encodings: build Z with phi_encode(Z) = A and with the
    matrix of Z equal to the matrix of the substituted pair sequence.

    Each element of A is expressed over derive_B(Y); the pairs covered by
    its block interval enter with the recovered signs and exponents, all
    other pairs are substituted away by the zero letter.  The last element
    absorbs every trailing pair so the encodings have full length.
    """
    X = substituted_pairs(Y, sigmas)
    B = derive_B(Y)
    parsed = _parse_over_blocks(A, B)
    arity = Y.k if Y.mode == UNSIGNED else 2 * Y.k
    zero_tuple = (Y.alphabet.zero,) * arity
    pairs = len(Y) // 2
    out = []
    prev_hi = -1
    for which, (lo, hi, used) in enumerate(parsed):
        last = which == len(parsed) - 1
        group_end = pairs - 1 if last else hi
        segs = [Segment(p, *used[p], None) if p in used else
                Segment(p, 1, 0, zero_tuple)
                for p in range(prev_hi + 1, group_end + 1)]
        prev_hi = hi
        out.append(compose(X, Decomposition(tuple(segs))))
    return VarWordSequence(tuple(out))


@dataclass(frozen=True)
class DerivedPair:
    """Derived block sequence plus the per-column constraint records."""

    B: BlockSequence
    perfect_sets: tuple[PerfectSetDescription, ...]
    source: VarWordSequence


def derived_pair(Y: VarWordSequence, cols: Optional[int] = None) -> DerivedPair:
    if cols is None:
        cols = default_cols(Y)
    if cols < 0:
        raise ValueError(f"column count {cols} is negative")
    return DerivedPair(
        derive_B(Y), tuple(perfect_set(Y, i) for i in range(cols)), Y
    )
