"""Tracing installed from the benchmark's own files, around calls into layers.

`Tracer.install()` replaces each target function at every `blockramsey.*`
module binding that holds it (so `phi_encode` is wrapped both in
`blockramsey.encodings` and where `blockramsey.search` imported it), and
wraps methods on their class.  A target that no longer exists is listed
in `absent` instead of failing, so renames in the library do not break
the benchmark.

Three kinds of wrapper:
  * timed: a frame on one stack; self time is the call's duration minus
    the durations of timed calls directly below it.  `.calls`, `.self_s`
    and, where the result is a list, `.out` (elements returned).
  * search: timed, and additionally tallies witnesses, exhaustions and the
    node/dead-end counts of every `Exhausted` result.
  * counted: only `.calls`, or `.made` for a class's `__post_init__`; their
    time stays in the caller.

Calls of the coarse layers (search entries, verification, the pipeline,
universe and candidate enumeration, the oracles) are also kept as spans
with an id and a parent id; `write_spans` writes them out at the end.
The hot layers (colour calls, balls, word operations) are only tallied,
because a pass makes millions of those calls.
"""

from __future__ import annotations

import importlib
import json
import sys
from time import perf_counter

TIMED, SPAN_OUT, SEARCH, COUNTED = "timed", "out", "search", "counted"

# (metric prefix, defining module, attribute, kind, kept as spans)
FUNCTIONS = (
    ("search.dfs", "blockramsey.search", "search_exact", SEARCH, True),
    ("search.dfs", "blockramsey.search", "search_approx", SEARCH, True),
    ("search.dfs", "blockramsey.search", "search_ghj", SEARCH, True),
    ("search.verify_witness", "blockramsey.search", "verify_witness", TIMED, True),
    ("search.parametrized_pipeline", "blockramsey.search",
     "parametrized_pipeline", TIMED, True),
    ("search.enumerate_universe", "blockramsey.search", "enumerate_universe",
     TIMED, True),
    ("search.word_candidates", "blockramsey.search", "word_candidates",
     TIMED, True),
    ("search.oracle_span_vectors", "blockramsey.search", "oracle_span_vectors",
     SPAN_OUT, True),
    ("search.oracle_span_words", "blockramsey.search", "oracle_span_words",
     SPAN_OUT, True),
    ("search.vector_ball", "blockramsey.search", "vector_ball", SPAN_OUT, False),
    ("search.word_ball", "blockramsey.search", "word_ball", SPAN_OUT, False),
    ("words.substitute", "blockramsey.words", "substitute", TIMED, False),
    ("words.tetris_power", "blockramsey.words", "tetris_power", TIMED, False),
    ("words.reflect_word", "blockramsey.words", "reflect_word", TIMED, False),
    ("words.classify", "blockramsey.words", "classify", TIMED, False),
    ("words.parse_support", "blockramsey.words", "parse_support", TIMED, False),
    ("words.dist_words", "blockramsey.words", "dist_words", COUNTED, False),
    ("vectors.linf_dist", "blockramsey.vectors", "linf_dist", COUNTED, False),
    ("encodings.phi_encode", "blockramsey.encodings", "phi_encode", TIMED, False),
    ("encodings.psi_encode", "blockramsey.encodings", "psi_encode", TIMED, False),
    ("encodings.derived_pair", "blockramsey.encodings", "derived_pair",
     TIMED, True),
    ("encodings.decode_witness", "blockramsey.encodings", "decode_witness",
     TIMED, False),
    ("encodings.product_to_sigmas", "blockramsey.encodings",
     "product_to_sigmas", TIMED, False),
    ("sampling.random_span_element", "blockramsey.sampling",
     "random_span_element", TIMED, False),
    ("sampling.random_satisfying_string", "blockramsey.sampling",
     "random_satisfying_string", TIMED, False),
)

# (metric prefix, defining module, class, method, kind)
METHODS = (
    ("search.colouring", "blockramsey.search", "Colouring", "__call__", TIMED),
    ("vectors.BlockVector", "blockramsey.vectors", "BlockVector",
     "__post_init__", COUNTED),
    ("words.Word", "blockramsey.words", "Word", "__post_init__", COUNTED),
    ("words.VarWordSequence", "blockramsey.words", "VarWordSequence",
     "__post_init__", COUNTED),
)

SEARCH_COUNTS = ("search.exhausted.nodes", "search.exhausted.dead_ends",
                 "search.witnesses", "search.exhaustions")


class Tracer:
    def __init__(self):
        self.stats = {}  # metric prefix -> [calls, self_s, out]
        self.search = dict.fromkeys(SEARCH_COUNTS, 0)
        self.stack = [[0.0, None]]  # frames: [child time, span id]
        self.spans = []
        self.absent = []
        self.constructors = set()  # prefixes counting objects made, not calls
        self._undo = []

    # -- installing -------------------------------------------------------

    def install(self):
        from blockramsey.search import Exhausted, Witness
        self._outcome_types = (Witness, Exhausted)
        for prefix, module, attr, kind, keep in FUNCTIONS:
            fn = getattr(_module(module), attr, None)
            if fn is None:
                self.absent.append(f"{module}.{attr}")
                continue
            wrapped = self._wrap(prefix, fn, kind, keep)
            for mod in [m for n, m in sys.modules.items()
                        if n == "blockramsey" or n.startswith("blockramsey.")]:
                for name, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, name, wrapped)
        for prefix, module, cls_name, method, kind in METHODS:
            cls = getattr(_module(module), cls_name, None)
            fn = vars(cls).get(method) if cls is not None else None
            if fn is None:
                self.absent.append(f"{module}.{cls_name}.{method}")
                continue
            self._patch(cls, method, self._wrap(prefix, fn, kind, False))
            if method == "__post_init__":
                self.constructors.add(prefix)
        return self

    def uninstall(self):
        for owner, name, old in reversed(self._undo):
            setattr(owner, name, old)
        self._undo.clear()

    def _patch(self, owner, name, new):
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, new)

    def _wrap(self, prefix, fn, kind, keep):
        stats = self.stats.setdefault(prefix, [0, 0.0, 0])
        if kind == COUNTED:
            def counted(*args, **kwargs):
                stats[0] += 1
                return fn(*args, **kwargs)
            return counted

        stack, spans, search = self.stack, self.spans, self.search
        outcome_types = self._outcome_types

        def timed(*args, **kwargs):
            span_id = None
            if keep:
                span_id = len(spans)
                spans.append({"id": span_id, "parent": _owner(stack),
                              "name": f"{prefix}:{fn.__name__}"})
            frame = [0.0, span_id]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                stack[-1][0] += end - start
                stats[0] += 1
                stats[1] += end - start - frame[0]
                if keep:
                    spans[span_id].update(start=start, end=end,
                                          self_s=end - start - frame[0])
            if kind == SPAN_OUT:
                stats[2] += len(result)
            elif kind == SEARCH:
                witness_type, exhausted_type = outcome_types
                if isinstance(result, exhausted_type):
                    search["search.exhaustions"] += 1
                    search["search.exhausted.nodes"] += result.nodes
                    search["search.exhausted.dead_ends"] += result.dead_ends
                elif isinstance(result, witness_type):
                    search["search.witnesses"] += 1
            return result

        return timed

    # -- spans opened by the benchmark itself ------------------------------

    def open(self, name: str) -> int:
        """Start a root-level span (one benchmark instance)."""
        span_id = len(self.spans)
        self.spans.append({"id": span_id, "parent": _owner(self.stack),
                           "name": name, "start": perf_counter()})
        self.stack.append([0.0, span_id])
        return span_id

    def close(self, span_id: int):
        frame = self.stack.pop()
        span = self.spans[span_id]
        span["end"] = perf_counter()
        span["self_s"] = span["end"] - span["start"] - frame[0]
        self.stack[-1][0] += span["end"] - span["start"]

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict:
        out = dict(self.search)
        for prefix, (calls, self_s, returned) in self.stats.items():
            if prefix in self.constructors:
                out[f"{prefix}.made"] = calls
                continue
            out[f"{prefix}.calls"] = calls
            out[f"{prefix}.self_s"] = self_s
            out[f"{prefix}.out"] = returned
        nodes = self.search["search.exhausted.nodes"]
        out["search.dead_end_ratio"] = (
            self.search["search.exhausted.dead_ends"] / nodes if nodes else 0.0)
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")


def _owner(stack):
    """Id of the innermost kept span on the stack, or None at the root."""
    for _, span_id in reversed(stack):
        if span_id is not None:
            return span_id
    return None


def _module(name):
    try:
        return importlib.import_module(name)
    except ImportError:
        return None
