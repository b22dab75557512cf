"""Variable words over graded alphabets: substitution, tetris, spans, parsing.

Words mix letters drawn from an increasing chain of finite alphabet
levels with variables v_1, ..., v_k (and v_{-1}, ..., v_{-k} in signed
mode).  Substitution replaces every variable occurrence by a letter from
a tuple, the word tetris lowers each variable index by one (sending
v_{+-1} to the zero letter), and reflection negates variable indices.

Spans of rapidly increasing sequences concatenate per-generator pieces
of the form sign * T^j(x[tuple]), where the tuple for the generator with
global index n must come from level n of the alphabet.  Rapid increase
(each word longer than all predecessors combined) makes the generator
index set of any span element unique, so span elements can be parsed
back into a canonical decomposition.

Signed words carry a metric: two words are compatible when they have
equal length and agree on positions holding nonzero letters, and their
distance is the largest index gap over the remaining positions (zero
letter counting as index 0).  The halving map folds variable indices
+-1..+-2k down to 0..+-k and contracts this metric by a factor of two.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass
from typing import Iterable, Optional

from .vectors import (SIGNED, UNSIGNED, _is_int, check_cap, check_mode_k,
                      json_field, json_objects, span_combinations)


def letter_key(token):
    """Deterministic sort key for letter tokens (strings or bit tuples)."""
    if isinstance(token, str):
        return (0, token)
    return (1, len(token), tuple(token))


@dataclass(frozen=True)
class Alphabet:
    """Increasing chain of finite letter sets with a designated zero letter."""

    levels: tuple[frozenset, ...]
    zero: object

    def __post_init__(self):
        if not self.levels:
            raise ValueError("an alphabet has at least one level")
        if self.zero not in self.levels[0]:
            raise ValueError("the zero letter must lie in the bottom level")
        for lo, hi in zip(self.levels, self.levels[1:]):
            if not lo <= hi:
                raise ValueError("levels must form an increasing chain")

    @classmethod
    def make(cls, levels: Iterable[Iterable], zero) -> "Alphabet":
        return cls(tuple(frozenset(l) for l in levels), zero)

    @property
    def top(self) -> frozenset:
        return self.levels[-1]

    def level_at(self, n: int) -> frozenset:
        """Level n of the chain; indices past the top return the full alphabet."""
        return self.levels[min(n, len(self.levels) - 1)]

    def letters(self, n: int) -> list:
        return sorted(self.level_at(n), key=letter_key)

    def to_dict(self) -> dict:
        return {
            "levels": [sorted((_token_json(t) for t in lv), key=str) for lv in self.levels],
            "zero": _token_json(self.zero),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Alphabet":
        if not (isinstance(data, dict) and isinstance(data.get("levels"), list)
                and all(isinstance(lv, list) for lv in data["levels"])):
            raise ValueError("an alphabet must be a JSON object whose levels "
                             "are lists of letters")
        levels = [frozenset(_token_parse(t) for t in lv) for lv in data["levels"]]
        return cls(tuple(levels),
                   _token_parse(json_field(data, "zero", "an alphabet")))


def _token_json(token):
    return list(token) if isinstance(token, tuple) else token


def _token_parse(token):
    if isinstance(token, str):
        return token
    if isinstance(token, list) and all(_is_int(b) and b in (0, 1) for b in token):
        return tuple(token)
    raise ValueError(f"a letter is a string or a list of bits, not "
                     f"{json.dumps(token)}")


@dataclass(frozen=True)
class Var:
    """Variable symbol v_i; index is nonzero, negative only in signed mode."""

    index: int


@dataclass(frozen=True)
class Letter:
    """Letter symbol holding an alphabet token."""

    token: object


def symbol_key(sym):
    if isinstance(sym, Letter):
        return (0,) + letter_key(sym.token)
    return (1, sym.index)


@dataclass(frozen=True)
class Word:
    """Finite nonempty symbol sequence over an alphabet with variable bound k."""

    k: int
    mode: str
    alphabet: Alphabet
    symbols: tuple

    def __post_init__(self):
        check_mode_k(self.mode, self.k)
        if not self.symbols:
            raise ValueError("words are nonempty")
        top = self.alphabet.top
        for sym in self.symbols:
            if isinstance(sym, Var):
                i = sym.index
                if i == 0 or abs(i) > self.k:
                    raise ValueError(f"variable index {i} out of range for k={self.k}")
                if self.mode == UNSIGNED and i < 0:
                    raise ValueError("negative variable in unsigned mode")
            elif isinstance(sym, Letter):
                if sym.token not in top:
                    letter = json.dumps(_token_json(sym.token), default=repr)
                    raise ValueError(f"letter {letter} not in the alphabet")
            else:
                raise ValueError(f"bad symbol {sym!r}")

    def __len__(self):
        return len(self.symbols)

    def sort_key(self):
        return (len(self.symbols), tuple(symbol_key(s) for s in self.symbols))

    def to_dict(self) -> dict:
        syms = []
        for s in self.symbols:
            if isinstance(s, Var):
                syms.append({"var": s.index})
            else:
                syms.append({"letter": _token_json(s.token)})
        return {"k": self.k, "mode": self.mode, "symbols": syms}

    @classmethod
    def from_dict(cls, data: dict, alphabet: Alphabet) -> "Word":
        if not isinstance(data, dict):
            raise ValueError("a word must be a JSON object")
        k, mode, symbols = (json_field(data, name, "a word")
                            for name in ("k", "mode", "symbols"))
        if not _is_int(k):
            raise ValueError("a word must have an integer k")
        syms = []
        for s in json_objects(symbols, "word symbols"):
            if "var" in s:
                if not _is_int(s["var"]):
                    raise ValueError(f"variable index {json.dumps(s['var'])} "
                                     "is not an integer")
                syms.append(Var(s["var"]))
            else:
                syms.append(Letter(_token_parse(
                    json_field(s, "letter", "a word symbol"))))
        return cls(k, mode, alphabet, tuple(syms))


def word(k: int, mode: str, alphabet: Alphabet, symbols) -> Word:
    """Convenience constructor accepting ints (variables) and raw tokens (letters)."""
    out = []
    for s in symbols:
        if isinstance(s, (Var, Letter)):
            out.append(s)
        elif isinstance(s, int):
            out.append(Var(s))
        else:
            out.append(Letter(s))
    return Word(k, mode, alphabet, tuple(out))


def classify(x: Word) -> int:
    """0 for variable-free words, otherwise the largest |variable index|."""
    best = 0
    for s in x.symbols:
        if isinstance(s, Var):
            best = max(best, abs(s.index))
    return best


def _var_entries(x: Word, offset: int = 0) -> tuple[tuple[int, int], ...]:
    """(offset + position, index) of each variable of x, in position order."""
    return tuple((n, s.index) for n, s in enumerate(x.symbols, offset)
                 if isinstance(s, Var))


def concat(x: Word, y: Word) -> Word:
    if (x.k, x.mode, x.alphabet) != (y.k, y.mode, y.alphabet):
        raise ValueError("words must share alphabet, k and mode")
    return Word(x.k, x.mode, x.alphabet, x.symbols + y.symbols)


def _map_vars(x: Word, f, k: Optional[int] = None) -> Word:
    """x with each variable v_i rewritten to the symbol f(i), under variable
    bound k (x's own when None); letters are unchanged."""
    return Word(x.k if k is None else k, x.mode, x.alphabet,
                tuple(f(s.index) if isinstance(s, Var) else s for s in x.symbols))


def substitute(x: Word, lam: Optional[tuple]) -> Word:
    """Replace each variable v_i by lam's letter for i; lam=None is the identity."""
    if lam is None:
        return x
    arity = x.k if x.mode == UNSIGNED else 2 * x.k
    if len(lam) != arity:
        raise ValueError(f"substitution tuple must have arity {arity}")
    return _map_vars(x, lambda i: Letter(lam[_lam_slot(i, x.k, x.mode)]))


def _lam_slot(index: int, k: int, mode: str) -> int:
    # unsigned tuples are (lam_1, ..., lam_k); signed ones
    # (lam_{-k}, ..., lam_{-1}, lam_1, ..., lam_k)
    if mode == UNSIGNED:
        return index - 1
    return k + index - 1 if index > 0 else index + k


def tetris_word(x: Word) -> Word:
    """Lower each variable index by one toward zero; v_{+-1} becomes the zero letter."""
    return tetris_power(x, 1)


def tetris_power(x: Word, j: int) -> Word:
    """T^j(x): each variable index drops by j toward zero, and v_i with
    |i| <= j becomes the zero letter."""
    if j <= 0:
        return x
    zero = Letter(x.alphabet.zero)
    return _map_vars(x, lambda i: Var(i - j) if i > j else
                     Var(i + j) if i < -j else zero)


def reflect_word(x: Word) -> Word:
    """Replace each variable v_i by v_{-i} (signed mode only)."""
    if x.mode != SIGNED:
        raise ValueError("reflect_word requires signed mode")
    return _map_vars(x, lambda i: Var(-i))


def neg_tetris(x: Word, j: int = 1) -> Word:
    """The composite map x -> -T(x), iterated j times: (-T)^j = (-1)^j T^j."""
    if j and x.mode != SIGNED:
        raise ValueError("neg_tetris requires signed mode")
    return eval_segment(x, (-1) ** j, j, None)


def _rapid(lengths: Iterable[int]) -> bool:
    """Each length exceeds the sum of all lengths before it."""
    total = 0
    for n in lengths:
        if n <= total:
            return False
        total += n
    return True


def is_rapidly_increasing(words: Iterable[Word]) -> bool:
    return _rapid(len(w) for w in words)


@dataclass(frozen=True)
class VarWordSequence:
    """Rapidly increasing sequence of variable words of full class k.

    Each word carries a global index; subsequences keep their original
    indices so that span grading (level n letters at generator n) is
    preserved under restriction.
    """

    words: tuple[Word, ...]
    indices: tuple[int, ...] = None

    def __post_init__(self):
        if not self.words:
            raise ValueError("a word sequence is nonempty")
        if self.indices is None:
            object.__setattr__(self, "indices", tuple(range(len(self.words))))
        if len(self.indices) != len(self.words):
            raise ValueError("one index per word")
        if any(b <= a for a, b in zip(self.indices, self.indices[1:])):
            raise ValueError("indices must be strictly increasing")
        first = self.words[0]
        for w in self.words:
            if (w.k, w.mode, w.alphabet) != (first.k, first.mode, first.alphabet):
                raise ValueError("words must share alphabet, k and mode")
            if classify(w) != w.k:
                raise ValueError("every word must have full variable class k")
        if not is_rapidly_increasing(self.words):
            raise ValueError("sequence must be rapidly increasing")

    @property
    def k(self) -> int:
        return self.words[0].k

    @property
    def mode(self) -> str:
        return self.words[0].mode

    @property
    def alphabet(self) -> Alphabet:
        return self.words[0].alphabet

    def __len__(self):
        return len(self.words)

    def __iter__(self):
        return iter(self.words)

    def to_list(self) -> list:
        return [w.to_dict() for w in self.words]

    @classmethod
    def from_list(cls, data: list[dict], alphabet: Alphabet) -> "VarWordSequence":
        return cls(tuple(Word.from_dict(d, alphabet)
                         for d in json_objects(data, "a word sequence")))


@dataclass(frozen=True)
class Segment:
    """One span piece: sign * T^exponent(generator[lam]); lam=None means v-vector."""

    gen_index: int
    sign: int
    exponent: int
    lam: Optional[tuple]

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if self.exponent < 0:
            raise ValueError("exponent must be nonnegative")


@dataclass(frozen=True)
class Decomposition:
    segments: tuple[Segment, ...]

    def __post_init__(self):
        if not self.segments:
            raise ValueError("a decomposition is nonempty")
        ids = [s.gen_index for s in self.segments]
        if any(b <= a for a, b in zip(ids, ids[1:])):
            raise ValueError("generator indices must be strictly increasing")

    def gen_indices(self) -> tuple[int, ...]:
        return tuple(s.gen_index for s in self.segments)


def eval_segment(gen: Word, sign: int, exponent: int, lam) -> Word:
    """The span piece sign * T^exponent(gen[lam]); lam=None keeps the variables."""
    piece = tetris_power(substitute(gen, lam), exponent)
    return reflect_word(piece) if sign == -1 else piece


def compose(X: VarWordSequence, d: Decomposition) -> Word:
    """Evaluate a decomposition against X and concatenate the pieces."""
    pieces = []
    lookup = {g: w for g, w in zip(X.indices, X.words)}
    for seg in d.segments:
        if seg.gen_index not in lookup:
            raise ValueError(f"generator {seg.gen_index} not in the sequence")
        gen = lookup[seg.gen_index]
        if seg.exponent > X.k:
            raise ValueError("exponent exceeds k")
        if seg.sign == -1 and X.mode != SIGNED:
            raise ValueError("signs require signed mode")
        if seg.lam is not None:
            level = X.alphabet.level_at(seg.gen_index)
            if any(t not in level for t in seg.lam):
                raise ValueError(f"letters must come from level {seg.gen_index}")
        pieces.append(eval_segment(gen, seg.sign, seg.exponent, seg.lam))
    return functools.reduce(concat, pieces)


def _slot_pieces(gen: Word, level: int, neg_t: bool = False):
    """Distinct (symbols, k - class) pieces of the generator `gen` whose
    substitution letters come from alphabet level `level`.

    The pieces are sign * T^j(gen) for j in 0..k (with sign = (-1)^j when
    neg_t, so that the piece is (-T)^j(gen)) and gen[lam] for every lam
    over that level, in that order.  Exponent 0 marks a piece of full
    class k, which is gen itself or, signed, its reflection.  Refuses more
    than MAX_UNIVERSE_CELLS tetris pieces or substitutions before making any.
    """
    k = gen.k
    arity = k if gen.mode == UNSIGNED else 2 * k
    signs = (1, -1) if gen.mode == SIGNED and not neg_t else (1,)
    check_cap(len(signs) * (k + 1), "tetris pieces")
    if neg_t:
        opts = [((-1) ** j, j, None) for j in range(k + 1)]
    else:
        opts = [(s, j, None) for j in range(k + 1) for s in signs]
    letters = gen.alphabet.letters(level)
    check_cap(len(letters) ** arity, "substitution pieces")
    opts.extend((1, 0, lam) for lam in itertools.product(letters, repeat=arity))
    distinct = {}
    for sign, j, lam in opts:
        piece = eval_segment(gen, sign, j, lam)
        distinct.setdefault(piece.symbols, k - classify(piece))
    return list(distinct.items())


def _sorted_words(X: VarWordSequence, symbol_tuples) -> list[Word]:
    return sorted((Word(X.k, X.mode, X.alphabet, syms) for syms in set(symbol_tuples)),
                  key=Word.sort_key)


def span_words(X: VarWordSequence) -> list[Word]:
    """All span elements of full class k, deduplicated, canonical order."""
    slots = [_slot_pieces(w, n) for w, n in zip(X.words, X.indices)]
    return _sorted_words(X, (syms for syms, exp in span_combinations(slots)
                             if exp == 0))


def span_letters(X: VarWordSequence) -> list[Word]:
    """All variable-free concatenations under graded substitutions."""
    # the variable-free pieces are the substituted generators: T^k(x) is
    # x substituted with the zero letter, which every level holds
    slots = [[(syms, exp) for syms, exp in _slot_pieces(w, n) if exp == X.k]
             for w, n in zip(X.words, X.indices)]
    return _sorted_words(X, (syms for syms, _ in span_combinations(slots)))


def span_negT(X: VarWordSequence) -> list[Word]:
    """Span built from (-T)^j pieces with some piece kept whole (exponent 0)."""
    if X.mode != SIGNED:
        raise ValueError("the (-T) span requires signed mode")
    # the one piece of full class is (-T)^0(x) = x, so exponent 0 is
    # exactly "some generator kept whole with sign +1"
    slots = [_slot_pieces(w, n, neg_t=True) for w, n in zip(X.words, X.indices)]
    return _sorted_words(X, (syms for syms, exp in span_combinations(slots)
                             if exp == 0))


def parse_support(Y: VarWordSequence, x: Word) -> Optional[Decomposition]:
    """Canonical decomposition of x over Y, or None when x is not in the span.

    Rapid increase makes generator lengths superincreasing, so the index
    set is recovered greedily from |x|.  Segments holding variables are
    forced to lam = v-vector with a unique shift and sign; variable-free
    segments are normalized to exponent 0, sign +1 and a letter tuple
    read off pointwise (absent variables receive the zero letter).
    """
    if (x.k, x.mode, x.alphabet) != (Y.k, Y.mode, Y.alphabet):
        return None
    if classify(x) != Y.k:
        return None
    lengths = [len(w) for w in Y.words]
    remaining = len(x)
    picked = []
    for pos in range(len(Y) - 1, -1, -1):
        if lengths[pos] <= remaining:
            picked.append(pos)
            remaining -= lengths[pos]
    if remaining != 0:
        return None
    picked.reverse()
    segments = []
    offset = 0
    for pos in picked:
        gen = Y.words[pos]
        piece = x.symbols[offset : offset + len(gen)]
        offset += len(gen)
        seg = _parse_segment(Y, pos, gen, piece)
        if seg is None:
            return None
        segments.append(seg)
    return Decomposition(tuple(segments))


def _parse_segment(Y, pos, gen, piece) -> Optional[Segment]:
    k = Y.k
    zero = Y.alphabet.zero
    # letters of the generator survive substitution and tetris unchanged
    for g, p in zip(gen.symbols, piece):
        if isinstance(g, Letter) and g != p:
            return None
    maxidx = max((abs(p.index) for p in piece if isinstance(p, Var)), default=0)
    if maxidx:
        j = k - maxidx
        if j < 0:
            return None
        cand = tetris_power(gen, j)
        for s in (1, -1) if Y.mode == SIGNED else (1,):
            if (cand if s == 1 else reflect_word(cand)).symbols == tuple(piece):
                return Segment(Y.indices[pos], s, j, None)
        return None
    # variable-free piece: read off a substitution tuple
    arity = k if Y.mode == UNSIGNED else 2 * k
    lam = [zero] * arity
    seen = {}
    for g, p in zip(gen.symbols, piece):
        if isinstance(g, Var):
            if not isinstance(p, Letter):
                return None
            tok = p.token
            if g.index in seen and seen[g.index] != tok:
                return None
            seen[g.index] = tok
            lam[_lam_slot(g.index, k, Y.mode)] = tok
    level = Y.alphabet.level_at(Y.indices[pos])
    if any(t not in level for t in lam):
        return None
    return Segment(Y.indices[pos], 1, 0, tuple(lam))


def supp_of(Y: VarWordSequence, x: Word) -> Optional[tuple[int, ...]]:
    """Generator index set of x over Y, or None when not in the span."""
    d = parse_support(Y, x)
    return None if d is None else d.gen_indices()


def is_block_subseq(X: VarWordSequence, Y: VarWordSequence) -> bool:
    """True iff every word of X parses over Y with strictly separated supports."""
    prev_max = None
    for w in X.words:
        supp = supp_of(Y, w)
        if supp is None:
            return False
        if prev_max is not None and not prev_max < min(supp):
            return False
        prev_max = max(supp)
    return True


def _letter_positions(x: Word) -> dict:
    """Positions holding a nonzero letter, with their tokens."""
    zero = x.alphabet.zero
    return {
        n: s.token
        for n, s in enumerate(x.symbols)
        if isinstance(s, Letter) and s.token != zero
    }


def compatible(x: Word, y: Word) -> bool:
    """Equal length, same nonzero-letter positions, same letters there."""
    return dist_words(x, y) != float("inf")


def _symbol_index(sym, zero) -> int:
    if isinstance(sym, Var):
        return sym.index
    if sym.token == zero:
        return 0
    raise ValueError("position holds a nonzero letter")


def dist_words(x: Word, y: Word) -> float:
    """Largest variable-index gap over non-letter positions; infinity if incompatible."""
    if x.mode != SIGNED or y.mode != SIGNED:
        raise ValueError("compatibility is defined for signed words")
    skip = _letter_positions(x)
    if len(x) != len(y) or skip != _letter_positions(y):
        return float("inf")
    zero = x.alphabet.zero
    best = 0
    for n in range(len(x)):
        if n in skip:
            continue
        best = max(
            best,
            abs(_symbol_index(x.symbols[n], zero) - _symbol_index(y.symbols[n], zero)),
        )
    return best


def dist_seqs(X: VarWordSequence, Y: VarWordSequence) -> float:
    if len(X) != len(Y):
        return float("inf")
    return max(dist_words(a, b) for a, b in zip(X.words, Y.words))


def halve(x: Word) -> Word:
    """Fold variable indices +-1..+-2k down to the 0..+-k range.

    Indices +-1 land on the zero letter; even indices are halved exactly
    and odd ones are rounded toward zero.  Letters are unchanged.
    """
    if x.mode != SIGNED:
        raise ValueError("halve requires signed mode")
    if x.k % 2 != 0:
        raise ValueError("halve needs an even variable bound")
    zero = Letter(x.alphabet.zero)
    return _map_vars(x, lambda i: Var(_halve_index(i)) if abs(i) > 1 else zero,
                     x.k // 2)


def _halve_index(i: int) -> int:
    if i % 2 == 0:
        return i // 2
    return (i - 1) // 2 if i > 0 else (i + 1) // 2


def widen_tuple(lam: tuple, k: int, zero) -> tuple:
    """Lift a 2k-arity tuple to 4k arity so that halving undoes the lift.

    The doubled word's variable v_w collapses to v_{h(w)} under halving,
    so slot w receives the original letter for h(w), and the slots with
    |w| = 1 (which collapse to the zero letter) receive the zero letter.
    """
    out = []
    for w in itertools.chain(range(-2 * k, 0), range(1, 2 * k + 1)):
        h = _halve_index(w)
        out.append(zero if h == 0 else lam[_lam_slot(h, k, SIGNED)])
    return tuple(out)


def lift_double(Ytilde: VarWordSequence, d: Decomposition) -> Word:
    """Evaluate d against the doubled-bound sequence, doubling exponents and
    widening letter tuples; halving the result reproduces the plain compose."""
    if Ytilde.mode != SIGNED:
        raise ValueError("lift_double requires signed mode")
    if Ytilde.k % 2 != 0:
        raise ValueError("the ambient sequence must have an even bound")
    k = Ytilde.k // 2
    zero = Ytilde.alphabet.zero
    segs = []
    for seg in d.segments:
        if seg.exponent > k:
            raise ValueError("exponent exceeds the halved bound")
        lam = None if seg.lam is None else widen_tuple(seg.lam, k, zero)
        segs.append(Segment(seg.gen_index, seg.sign, 2 * seg.exponent, lam))
    return compose(Ytilde, Decomposition(tuple(segs)))


def approx_negT(Y: VarWordSequence, x: Word) -> tuple[Word, str]:
    """Replace a span element by a nearby member of the (-T) span.

    Returns (z, "direct") with d(x, z) <= 1 when x's decomposition keeps
    some generator whole with a plus sign; otherwise (z, "reflected")
    with d(-x, z) <= 1.  Either way min(d(x, z), d(-x, z)) <= 1.
    """
    if Y.mode != SIGNED:
        raise ValueError("approx_negT requires signed mode")
    d = parse_support(Y, x)
    if d is None:
        raise ValueError("word is not in the span")
    how = "direct"
    if not any(s.sign == 1 and s.exponent == 0 and s.lam is None
               for s in d.segments):
        d, how = parse_support(Y, reflect_word(x)), "reflected"
    # a variable segment whose sign is not (-1)^j moves one tetris step on,
    # to the (-T) piece (-1)^(j+1) T^(j+1); its j <= k-1, so j+1 <= k
    return compose(Y, Decomposition(tuple(
        Segment(s.gen_index, s.sign, s.exponent + 1, None)
        if s.lam is None and s.sign != (-1) ** s.exponent else s
        for s in d.segments))), how
