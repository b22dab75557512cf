"""Command-line surface: JSON in, canonical JSON out.

Inputs are inline JSON, @file paths, or "-" for standard input.  Output
is canonical JSON (sorted keys, compact separators), one document per
line for streaming enumerations.  Exit codes: 0 success, 1 domain error,
2 usage error, 3 search exhausted.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys

from . import encodings as E
from . import sampling
from . import search as S
from . import vectors as V
from . import words as W
from .search import Colouring, Exhausted, PipelineBounds, SearchProblem, canonical_json

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2
EXIT_EXHAUSTED = 3


def _load_json(value: str):
    if value == "-":
        return json.load(sys.stdin)
    if value.startswith("@"):
        with open(value[1:]) as fh:
            return json.load(fh)
    return json.loads(value)


def _emit(obj):
    sys.stdout.write(canonical_json(obj) + "\n")


def _blocks_from_arg(data, k: int, mode: str) -> V.BlockSequence:
    blocks = []
    for d in V.json_objects(data, "--blocks"):
        blocks.append(V.BlockVector.make(
            d.get("k", k), d.get("mode", mode),
            V.json_field(d, "entries", "a block vector")))
    return V.BlockSequence(tuple(blocks))


def _alphabet_from_arg(value) -> W.Alphabet:
    if value is None:
        return E.bitstring_alphabet(2)
    return W.Alphabet.from_dict(_load_json(value))


def _words_from_args(args) -> W.VarWordSequence:
    """The --words sequence over the --alphabet alphabet."""
    alphabet = _alphabet_from_arg(args.alphabet)
    return W.VarWordSequence.from_list(_load_json(args.words), alphabet)


def _lengths_from_arg(value: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in value.split(","))
    except ValueError:
        raise ValueError(f"--lengths must be comma-separated integers, not "
                         f"{json.dumps(value)}") from None


def _sigmas_from_arg(value: str) -> list:
    """The letters of --sigmas: a JSON list of lists of integer 0/1 bits."""
    data = _load_json(value)
    if not (isinstance(data, list) and all(isinstance(bits, list) and all(
            V._is_int(b) and b in (0, 1) for b in bits) for bits in data)):
        raise ValueError(f"--sigmas must be a JSON list of lists of 0/1 "
                         f"integer bits, not {json.dumps(data)}")
    return [E.bit_letter(bits) for bits in data]


def _table_from_file(path: str) -> tuple[dict, int | None]:
    """The mapping and default of a colour table file: a JSON object whose
    "mapping" maps element keys to integer colours, with an optional
    integer "default"."""
    data = _load_json("@" + path)
    if not isinstance(data, dict):
        raise ValueError("a colour table must be a JSON object")
    mapping = V.json_field(data, "mapping", "a colour table")
    if not (isinstance(mapping, dict) and all(map(V._is_int, mapping.values()))):
        raise ValueError("a colour table's mapping must be a JSON object of "
                         "integer colours")
    default = data.get("default")
    if default is not None and not V._is_int(default):
        raise ValueError(f"a colour table's default must be an integer, not "
                         f"{json.dumps(default)}")
    return mapping, default


def _colouring_from_args(args, arity: str) -> Colouring:
    r = args.colours
    if args.table and args.family:
        raise ValueError("give --table or --family, not both")
    if args.table:
        mapping, default = _table_from_file(args.table)
        return Colouring.table(mapping, r, arity, default=default)
    if args.family:
        return Colouring.family(args.family, r, arity)
    return Colouring.seeded(args.seed, r, arity)


def _cmd_span(args) -> int:
    needs = "blocks" if args.kind == "vectors" else "words"
    if getattr(args, needs) is None:
        raise ValueError(f"span --kind {args.kind} needs --{needs}")
    if args.limit is not None and args.limit < 0:
        raise ValueError(f"--limit {args.limit} is negative")
    if args.kind == "vectors":
        k = 1 if args.k is None else args.k
        seq = _blocks_from_arg(_load_json(args.blocks), k, args.mode or V.UNSIGNED)
        out = [v.to_dict() for v in V.span(seq)]
    elif args.mode is not None or args.k is not None:
        raise ValueError(f"span --kind {args.kind} takes its mode and k from --words")
    else:
        spans = {"words": W.span_words, "letters": W.span_letters,
                 "neg-t": W.span_negT}
        out = [w.to_dict() for w in spans[args.kind](_words_from_args(args))]
    if args.limit is not None:
        out = out[: args.limit]
    for item in out:
        _emit(item)
    return EXIT_OK


def _cmd_dist(args) -> int:
    load, dist = {"vector": (V.BlockVector.from_dict, V.linf_dist),
                  "vector-seq": (V.BlockSequence.from_list, V.seq_dist),
                  "word": (W.Word.from_dict, W.dist_words),
                  "word-seq": (W.VarWordSequence.from_list, W.dist_seqs)}[args.kind]
    if args.kind.startswith("word"):
        load = functools.partial(load, alphabet=_alphabet_from_arg(args.alphabet))
    d = dist(load(_load_json(args.a)), load(_load_json(args.b)))
    _emit({"dist": "infinity" if d == float("inf") else int(d)})
    return EXIT_OK


def _cmd_tetris(args) -> int:
    if args.kind == "vector":
        p = V.BlockVector.from_dict(_load_json(args.input))
        _emit(V.tetris(p).to_dict())
    else:
        alphabet = _alphabet_from_arg(args.alphabet)
        x = W.Word.from_dict(_load_json(args.input), alphabet)
        _emit(W.tetris_word(x).to_dict())
    return EXIT_OK


def _cmd_encode(args) -> int:
    seq = _words_from_args(args)
    _emit({
        "phi": E.phi_encode(seq).to_list(),
        "psi": E.psi_encode(seq, args.cols).to_dict(),
    })
    return EXIT_OK


def _cmd_decode(args) -> int:
    Y = _words_from_args(args)
    A = _blocks_from_arg(_load_json(args.blocks), Y.k, Y.mode)
    for field in ("k", "mode"):
        theirs, ours = getattr(A, field), getattr(Y, field)
        if theirs != ours:
            raise ValueError(f"decode --blocks has {field} {json.dumps(theirs)} "
                             f"but the base sequence has {field} {json.dumps(ours)}")
    Z = E.decode_witness(Y, A, _sigmas_from_arg(args.sigmas))
    _emit({"words": Z.to_list()})
    return EXIT_OK


def _cmd_derive_b(args) -> int:
    Y = _words_from_args(args)
    _emit(E.derive_B(Y).to_list())
    return EXIT_OK


def _cmd_perfect_sets(args) -> int:
    Y = _words_from_args(args)
    if args.index is None:
        descs = E.derived_pair(Y, args.cols).perfect_sets
    else:
        if args.cols is not None and args.cols < 0:
            raise ValueError(f"column count {args.cols} is negative")
        if args.cols is not None and args.index >= args.cols:
            raise ValueError(f"column index {args.index} is not below the "
                             f"column count {args.cols}")
        descs = [E.perfect_set(Y, args.index)]
    for desc in descs:
        _emit(desc.to_dict())
    return EXIT_OK


def _cmd_search(args) -> int:
    # a given option that only the other kind reads is refused, not ignored
    foreign = ({"--lengths": args.lengths, "--alphabet": args.alphabet}
               if args.kind == "vector" else {"--N": args.N, "--m": args.m})
    given = [name for name, value in foreign.items() if value is not None]
    if given:
        raise ValueError(f"search --kind {args.kind} takes no "
                         f"{' or '.join(given)}")
    if args.kind == "vector":
        problem = SearchProblem(mode=args.mode, k=args.k, r=args.colours,
                                N=4 if args.N is None else args.N,
                                m=2 if args.m is None else args.m,
                                radius=args.radius)
        colouring = _colouring_from_args(args, "vector")
        search = S.search_exact if args.radius == 0 else S.search_approx
        result = search(problem, colouring)
    else:
        alphabet = _alphabet_from_arg(args.alphabet)
        lengths = _lengths_from_arg("1,2" if args.lengths is None else args.lengths)
        colouring = _colouring_from_args(args, "word")
        result = S.search_ghj(alphabet, args.k, args.mode, args.colours,
                              colouring, lengths, radius=args.radius)
    _emit(result.to_dict())
    return EXIT_EXHAUSTED if isinstance(result, Exhausted) else EXIT_OK


def _cmd_verify(args) -> int:
    witness = S.witness_from_dict(_load_json(args.witness))
    colouring = _colouring_from_args(args, witness.kind)
    report = S.verify_witness(witness, colouring)
    _emit(report.to_dict())
    return EXIT_OK if report.passed else EXIT_DOMAIN


def _cmd_pipeline(args) -> int:
    colouring = _colouring_from_args(args, "vector_matrix")
    lengths = _lengths_from_arg(args.lengths)
    bounds = PipelineBounds(mode=args.mode, k=args.k, lengths=lengths,
                            letter_level=args.letter_level,
                            sample_count=args.samples, seed=args.seed)
    result = S.parametrized_pipeline(colouring, bounds)
    if isinstance(result, Exhausted):
        _emit(result.to_dict())
        return EXIT_EXHAUSTED
    _emit({
        "B": result.pair.B.to_list(),
        "perfect_sets": [d.to_dict() for d in result.pair.perfect_sets],
        "source": result.pair.source.to_list(),
        "colour": result.colour,
        "cols": result.cols,
        "verification": {
            "samples": result.samples,
            "failures": list(result.failures),
            "passed": result.passed,
        },
    })
    return EXIT_OK if result.passed else EXIT_DOMAIN


def _selftest_checks(seed: int):
    rng = random.Random(seed)
    checks = []

    def check(name, ok):
        checks.append((name, bool(ok)))

    # tetris is a homomorphism on block-ordered pairs
    ok = True
    for _ in range(200):
        k = rng.choice((2, 3))
        mode = rng.choice((V.UNSIGNED, V.SIGNED))
        p, q = sampling.random_block_pair(rng, k, mode)
        ok &= V.tetris(V.block_sum(p, q)) == V.block_sum(V.tetris(p), V.tetris(q))
    check("tetris-homomorphism", ok)

    # span sizes on the documented small instances
    u = lambda k, e: V.BlockVector.make(k, V.UNSIGNED, e)
    check("span-count-k1", len(V.span(V.BlockSequence((u(1, {0: 1}), u(1, {1: 1}))))) == 3)
    check("span-count-k2", len(V.span(V.BlockSequence((u(2, {0: 2}), u(2, {1: 2}))))) == 5)
    s1 = V.BlockVector.make(1, V.SIGNED, {0: 1})
    check("span-count-signed", len(V.span(V.BlockSequence((s1,)))) == 2)

    # span agrees with the generate-then-filter oracle on a small instance
    P = V.BlockSequence((V.BlockVector.make(2, V.SIGNED, {0: 2, 1: 1}),
                         V.BlockVector.make(2, V.SIGNED, {2: -2})))
    check("span-oracle", V.span(P) == S.oracle_span_vectors(P))

    # halving contracts the word metric and commutes with reflection
    ab = E.bitstring_alphabet(1)
    ok = True
    for _ in range(100):
        x = sampling.random_word(rng, ab, 4, V.SIGNED, rng.randint(1, 8),
                                 full_class=False)
        hx = W.halve(x)
        ok &= W.halve(W.reflect_word(x)) == W.reflect_word(hx)
    check("halve-reflect", ok)

    # parse/compose round trip on a fixed sequence
    Y = sampling.random_sequence(rng, ab, 2, V.SIGNED, (2, 3, 6))
    ok = True
    for w in W.span_words(Y)[:50]:
        d = W.parse_support(Y, w)
        ok &= d is not None and W.compose(Y, d) == w
    check("parse-compose", ok)

    # encode/decode round trip
    Y2 = sampling.random_sequence(rng, ab, 1, V.UNSIGNED, (1, 2, 4, 8))
    B = E.derive_B(Y2)
    a = sampling.random_span_element(rng, B)
    sigmas = [(), E.bit_letter((rng.randrange(2),))]
    Z = E.decode_witness(Y2, V.BlockSequence((a,)), sigmas)
    X = E.substituted_pairs(Y2, sigmas)
    check("decode-phi", E.phi_encode(Z).blocks == (a,))
    check("decode-psi", E.psi_encode(Z) == E.psi_encode(X))

    # perfect sets of a 4-word sequence have one free bit per column
    ok = all(E.perfect_set(Y2, i).count() == 2 for i in range(2))
    check("perfect-free-bits", ok)

    # documented search outcomes
    prob = SearchProblem(mode=V.UNSIGNED, k=1, r=2, N=2, m=2)
    res = S.search_exact(prob, Colouring.family("min-position-mod", 2))
    check("search-exhausted", isinstance(res, Exhausted))
    prob = SearchProblem(mode=V.UNSIGNED, k=1, r=2, N=4, m=2)
    res = S.search_exact(prob, Colouring.family("support-size-mod", 2))
    check("search-witness",
          not isinstance(res, Exhausted)
          and S.verify_witness(res, Colouring.family("support-size-mod", 2)).passed)

    # the embedding is 1-Lipschitz at scale delta
    delta, k = 0.5, 3
    ok = True
    for _ in range(100):
        p, q = _lipschitz_pair(rng, k)
        img = _real_dist(V.embed_delta(p, delta), V.embed_delta(q, delta))
        ok &= img <= delta + 1e-12
    check("embed-lipschitz", ok)
    return checks


def _lipschitz_pair(rng, k):
    positions = sorted(rng.sample(range(8), rng.randint(1, 4)))
    anchor = rng.randrange(len(positions))
    pe, qe = [], []
    for i, n in enumerate(positions):
        if i == anchor:
            v = rng.choice((k, -k))
            pe.append((n, v))
            qe.append((n, v))
            continue
        v = rng.choice([x for x in range(-k, k + 1) if x != 0])
        w = max(-k, min(k, v + rng.choice((-1, 0, 1))))
        pe.append((n, v))
        if w != 0:
            qe.append((n, w))
    p = V.BlockVector(k, V.SIGNED, tuple(pe))
    q = V.BlockVector(k, V.SIGNED, tuple(qe))
    return p, q


def _real_dist(a: V.RealVector, b: V.RealVector) -> float:
    da, db = dict(a.entries), dict(b.entries)
    return max(abs(da.get(n, 0.0) - db.get(n, 0.0)) for n in set(da) | set(db))


def _cmd_selftest(args) -> int:
    checks = _selftest_checks(args.seed)
    failures = [name for name, ok in checks if not ok]
    _emit({"checks": len(checks), "failures": failures, "passed": not failures})
    return EXIT_OK if not failures else EXIT_DOMAIN


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blockramsey", allow_abbrev=False,
        description="Block-sequence spans, word encodings, and Ramsey witness search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # neither the parser nor a subcommand takes a prefix for an option
    command = functools.partial(sub.add_parser, allow_abbrev=False)

    def add_common(p):
        p.add_argument("--mode", choices=(V.UNSIGNED, V.SIGNED),
                       default=V.UNSIGNED)
        p.add_argument("--k", type=int, default=1)

    def add_colouring(p):
        p.add_argument("--colours", type=int, default=2)
        p.add_argument("--family", choices=S.FAMILIES)
        p.add_argument("--table", help="JSON file with a colour table")
        p.add_argument("--seed", type=int, default=0)

    p = command("span", help="enumerate a span, one JSON element per line")
    add_common(p)
    # None marks an option left out: word kinds refuse the two, vectors
    # default them to unsigned and k=1
    p.set_defaults(mode=None, k=None)
    p.add_argument("--kind", choices=("vectors", "words", "letters", "neg-t"),
                   default="vectors")
    p.add_argument("--blocks", help="JSON block list (vector spans)")
    p.add_argument("--words", help="JSON word list (word spans)")
    p.add_argument("--alphabet", help="JSON alphabet (word spans)")
    p.add_argument("--limit", type=int)
    p.set_defaults(func=_cmd_span)

    p = command("dist", help="distance between two objects")
    p.add_argument("--kind", choices=("vector", "word", "vector-seq", "word-seq"),
                   default="vector")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--alphabet")
    p.set_defaults(func=_cmd_dist)

    p = command("tetris", help="apply the tetris operation once")
    p.add_argument("--kind", choices=("vector", "word"), default="vector")
    p.add_argument("--input", required=True)
    p.add_argument("--alphabet")
    p.set_defaults(func=_cmd_tetris)

    p = command("encode", help="vector and matrix encodings of a word sequence")
    p.add_argument("--words", required=True)
    p.add_argument("--alphabet")
    p.add_argument("--cols", type=int)
    p.set_defaults(func=_cmd_encode)

    p = command("decode", help="decode a vector sequence back into words")
    p.add_argument("--words", required=True, help="the base sequence Y")
    p.add_argument("--alphabet")
    p.add_argument("--blocks", required=True, help="vector sequence in the derived span")
    p.add_argument("--sigmas", required=True, help="JSON list of bit lists")
    p.set_defaults(func=_cmd_decode)

    p = command("derive-b", help="derived block sequence of an even-length Y")
    p.add_argument("--words", required=True)
    p.add_argument("--alphabet")
    p.set_defaults(func=_cmd_derive_b)

    p = command("perfect-sets", help="per-column constraint records")
    p.add_argument("--words", required=True)
    p.add_argument("--alphabet")
    p.add_argument("--cols", type=int)
    p.add_argument("--index", type=int)
    p.set_defaults(func=_cmd_perfect_sets)

    p = command("search", help="find a monochromatic-span witness")
    add_common(p)
    add_colouring(p)
    p.add_argument("--kind", choices=("vector", "word"), default="vector")
    # each kind's options default to None, so that the other kind refuses them
    p.add_argument("--N", type=int, help="vector search (default 4)")
    p.add_argument("--m", type=int, help="vector search (default 2)")
    p.add_argument("--radius", type=int, default=0, choices=(0, 1))
    p.add_argument("--lengths", help="word search: exact lengths (default 1,2)")
    p.add_argument("--alphabet", help="word search")
    p.set_defaults(func=_cmd_search)

    p = command("verify", help="re-check a witness independently")
    p.add_argument("--witness", required=True)
    add_colouring(p)
    p.set_defaults(func=_cmd_verify)

    p = command("pipeline", help="derived pair from a lifted colouring")
    add_common(p)
    add_colouring(p)
    p.add_argument("--lengths", default="2,3")
    p.add_argument("--letter-level", type=int, default=0)
    p.add_argument("--samples", type=int, default=32)
    p.set_defaults(func=_cmd_pipeline)

    p = command("selftest", help="run the embedded invariant suite")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, json.JSONDecodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
