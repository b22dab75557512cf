"""Seeded random generators for vectors, words and span elements.

Used by the CLI self-test and the test suite; everything takes an
explicit random.Random so runs are reproducible.
"""

from __future__ import annotations

import random

from .vectors import SIGNED, UNSIGNED, BlockSequence, BlockVector, _tetris_entries
from .words import Alphabet, Letter, Var, VarWordSequence, Word


def random_block_vector(rng: random.Random, k: int, mode: str, lo: int, hi: int,
                        max_size: int = 3) -> BlockVector:
    size = rng.randint(1, max(1, min(max_size, hi - lo)))
    positions = sorted(rng.sample(range(lo, hi), size))
    if mode == UNSIGNED:
        values = [rng.randint(1, k) for _ in positions]
        values[rng.randrange(size)] = k
    else:
        values = [rng.choice([v for v in range(-k, k + 1) if v != 0])
                  for _ in positions]
        values[rng.randrange(size)] = rng.choice((k, -k))
    return BlockVector(k, mode, tuple(zip(positions, values)))


def random_block_pair(rng: random.Random, k: int, mode: str, N: int = 12):
    """A block-ordered pair (p, q) supported inside [0, N)."""
    cut = rng.randint(1, N - 1)
    p = random_block_vector(rng, k, mode, 0, cut)
    q = random_block_vector(rng, k, mode, cut, N)
    return p, q


def random_word(rng: random.Random, alphabet: Alphabet, k: int, mode: str,
                length: int, full_class: bool = True) -> Word:
    letters = sorted(alphabet.top, key=lambda t: str(t))
    indices = list(range(1, k + 1)) if mode == UNSIGNED else \
        [i for i in range(-k, k + 1) if i != 0]
    syms = []
    for _ in range(length):
        if rng.random() < 0.5:
            syms.append(Letter(rng.choice(letters)))
        else:
            syms.append(Var(rng.choice(indices)))
    if full_class:
        top = k if mode == UNSIGNED else rng.choice((k, -k))
        syms[rng.randrange(length)] = Var(top)
    return Word(k, mode, alphabet, tuple(syms))


def random_sequence(rng: random.Random, alphabet: Alphabet, k: int, mode: str,
                    lengths) -> VarWordSequence:
    return VarWordSequence(tuple(
        random_word(rng, alphabet, k, mode, ln) for ln in lengths
    ))


def random_span_element(rng: random.Random, B: BlockSequence) -> BlockVector:
    """Random member of the span of B: subset, exponents with min 0, signs."""
    k, mode = B.k, B.mode
    size = rng.randint(1, len(B.blocks))
    subset = sorted(rng.sample(range(len(B.blocks)), size))
    while True:
        exps = [rng.randrange(k) for _ in subset]
        if min(exps) == 0:
            break
    entries = []
    for bi, j in zip(subset, exps):
        s = rng.choice((1, -1)) if mode == SIGNED else 1
        entries.extend(_tetris_entries(B.blocks[bi].entries, j, s))
    return BlockVector(k, mode, tuple(entries))


def random_satisfying_string(rng: random.Random, desc) -> tuple:
    """Random string meeting a perfect-set constraint record: one
    rng.randrange(2) per class, in class order."""
    return desc.fill([rng.randrange(2) for _ in desc.classes])
