"""Benchmark of the blockramsey search engine, driven through its Python API.

    python3 bench/run.py --workload vector-exact --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from
`src/`.  One run measures one workload for about `--seconds` seconds.  It
runs the workload's whole instance list once per pass, each pass in a
fresh single-threaded interpreter started one after another, because the
CLI pays a fresh process per command and so that no cache in the library
carries over from one pass to the next.

Timings are reported in seconds at a reference speed.  Before the first
instance and after each one, a pass times a fixed piece of pure-Python
work (`Reference`); each timing of the pass is multiplied by
`REFERENCE_S` over the median of those samples.  On a shared machine the
speed a pass gets drifts by a quarter or more from minute to minute, and
the scaling takes most of that drift out while leaving every change in
the program's own work in.  The unscaled times and the speed factor of
every pass are kept in `.bench_out/<workload>-seed<n>-trace<t>.json`.

With `--trace 0` the last line of standard output is a JSON object whose
metrics are the end-to-end metrics of BENCHMARK.json, medians over the
passes.  With `--trace 1` untraced and traced passes alternate and the
metrics are the per-layer metrics, taken from the traced passes.  Every
pass checks every outcome: each witness is re-verified with
`verify_witness`, each pipeline must pass its own sample check, outcomes
must be identical across passes (traced or not), and at the default seed
each outcome must match its pin in pins.json.  README.md explains the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
MIN_PASSES = 3
MAX_PASSES = 60
REFERENCE_ITEMS = 6000
REFERENCE_S = 0.010  # nominal seconds of one sample: the speed timings are scaled to
RUN_LIMIT_S = 170  # a pass still running then is stopped and the run fails


def declared_metrics(trace: bool) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


# --- one pass, in a child interpreter ----------------------------------------

class Reference:
    """A fixed piece of pure-Python work, timed between instances to follow the
    speed the machine gives the pass.  It mixes the two kinds of work the
    library does: a small-working-set loop of tuples, generator expressions
    and dict updates, and random lookups in a table of a few megabytes.  The
    cyclic collector is off while it runs, so the library's heap does not
    enter its time."""

    def __init__(self):
        rng = random.Random(REFERENCE_ITEMS)
        self.table = {rng.getrandbits(40): i for i in range(REFERENCE_ITEMS * 4)}
        keys = list(self.table)
        self.order = [keys[rng.randrange(len(keys))] for _ in range(REFERENCE_ITEMS * 2)]

    def sample(self) -> float:
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            start = perf_counter()
            counts = {}
            for i in range(REFERENCE_ITEMS):
                entries = ((i % 7, i % 5 - 2), (i % 11 + 7, 1))
                key = tuple(v for _, v in entries if v)
                counts[key] = counts.get(key, 0) + len(entries)
            for key in self.order:
                bucket = (self.table[key] & 15, key & 7)
                counts[bucket] = counts.get(bucket, 0) + 1
            sorted(counts, key=lambda k: (len(k), k))
            return perf_counter() - start
        finally:
            if was_enabled:
                gc.enable()


def _digest(obj) -> str:
    from blockramsey.search import canonical_json
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()[:16]


def _outcome(result):
    """(pin, full digest, nodes) of one result; the pin leaves out node counts."""
    from blockramsey.search import Exhausted, PipelineResult, Witness
    if isinstance(result, Witness):
        digest = _digest(result.to_dict())
        return digest, digest, None
    if isinstance(result, Exhausted):
        return "exhausted", _digest(result.to_dict()), result.nodes
    if isinstance(result, PipelineResult):
        return f"passed={result.passed}", _digest({
            "B": result.pair.B.to_list(),
            "perfect_sets": [p.to_dict() for p in result.pair.perfect_sets],
            "colour": result.colour, "cols": result.cols,
            "samples": result.samples, "failures": list(result.failures),
        }), None
    raise TypeError(f"unexpected result {type(result).__name__}")


class _SearchClock:
    """Time spent inside the pipeline's own `search_ghj` calls."""

    def __init__(self, S):
        self.total = 0.0
        inner = S.search_ghj

        def timed(*args, **kwargs):
            start = perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                self.total += perf_counter() - start

        S.search_ghj = timed


def run_pass(workload: str, seed: int, trace: bool) -> dict:
    import blockramsey.search as S
    from tracer import Tracer
    from workloads import WORKLOADS

    instances = WORKLOADS[workload](seed)
    tracer = Tracer().install() if trace else None
    clock = _SearchClock(S)  # outside the tracer's wrapper, if any
    rows = []
    ready = perf_counter()
    ref = Reference()
    reference = [ref.sample()]
    for inst in instances:
        span = tracer.open(f"instance:{inst.name}") if tracer else None
        row = {"name": inst.name, "error": None,
               "search_s": 0.0, "verify_s": 0.0, "instance_s": 0.0}
        before = clock.total
        start = perf_counter()
        try:
            result = inst.call()
            searched = perf_counter()
            if inst.kind == "pipeline":
                row["search_s"] = clock.total - before
                if isinstance(result, S.PipelineResult) and not result.passed:
                    row["error"] = f"pipeline sample check failed: {result.failures[:2]}"
            else:
                row["search_s"] = searched - start
                if isinstance(result, S.Witness):
                    report = S.verify_witness(result, inst.colouring)
                    if not report.passed:
                        row["error"] = f"verify failed: {report.failures[:2]}"
            row["instance_s"] = perf_counter() - start
            row["verify_s"] = row["instance_s"] - row["search_s"]
            row["pin"], row["full"], row["nodes"] = _outcome(result)
        except Exception as exc:  # reported per instance; the pass goes on
            row["error"] = f"{type(exc).__name__}: {exc}"
        if tracer:
            tracer.close(span)
        rows.append(row)
        reference.append(ref.sample())
    out = {"ready": ready, "instances": rows,
           "wall_s": sum(r["instance_s"] for r in rows),
           "speed": REFERENCE_S / statistics.median(reference),
           "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer:
        out["trace"] = tracer.metrics()
        out["absent"] = tracer.absent
        OUT.mkdir(exist_ok=True)
        tracer.write_spans(OUT / f"{workload}-seed{seed}-pid{os.getpid()}.spans.jsonl")
    return out


# --- the run, in the parent interpreter --------------------------------------

def spawn_pass(workload: str, seed: int, trace: bool,
               timeout: float = RUN_LIMIT_S) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child",
           "--workload", workload, "--seed", str(seed),
           "--trace", str(int(trace)), "--seconds", "0"]
    spawned = perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"pass exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    # perf_counter is the system-wide monotonic clock, shared with the child
    result["setup_s"] = result["ready"] - spawned
    result["traced"] = trace
    return result


def at_reference_speed(p: dict) -> dict:
    """The timings of one pass, scaled by the speed its reference samples saw."""
    speed = p["speed"]
    return {
        "wall_s": p["wall_s"] * speed,
        "search_s": sum(r["search_s"] for r in p["instances"]) * speed,
        "verify_s": sum(r["verify_s"] for r in p["instances"]) * speed,
        "setup_s": p["setup_s"] * speed,
        "instance_s": [r["instance_s"] * speed for r in p["instances"]],
    }


def run_passes(workload: str, seed: int, seconds: float, trace: bool) -> list:
    """Untraced passes; with trace, untraced and traced passes alternate."""
    cycle = (False, True) if trace else (False,)
    min_cycles = 1 if trace else MIN_PASSES
    passes = []
    start = perf_counter()
    while len(passes) < MAX_PASSES:
        cycle_start = perf_counter()
        passes += [spawn_pass(workload, seed, t,
                              timeout=start + RUN_LIMIT_S - perf_counter())
                   for t in cycle]
        now = perf_counter()
        if (len(passes) >= min_cycles * len(cycle)
                and now + (now - cycle_start) > start + seconds):
            break
    return passes


def check(passes: list, pins) -> tuple[int, int, list]:
    """(attempted, failed, messages) over every instance of every pass."""
    first = {row["name"]: row.get("full") for row in passes[0]["instances"]}
    attempted = failed = 0
    messages = []
    for i, p in enumerate(passes):
        for row in p["instances"]:
            attempted += 1
            problem = row["error"]
            if problem is None and row["full"] != first[row["name"]]:
                problem = "outcome differs from the first pass"
            if problem is None and pins is not None and \
                    pins.get(row["name"]) != row["pin"]:
                problem = f"pinned {pins.get(row['name'])}, got {row['pin']}"
            if problem is not None:
                failed += 1
                messages.append(f"pass {i} {row['name']}: {problem}")
    return attempted, failed, messages


def end_to_end(passes: list) -> dict:
    scaled = [at_reference_speed(p) for p in passes]
    out = {name: statistics.median(s[name] for s in scaled)
           for name in ("wall_s", "search_s", "verify_s", "setup_s")}
    out["instance_s.p50"] = statistics.median(
        t for s in scaled for t in s["instance_s"])
    out["peak_rss_mb"] = statistics.median(p["rss_mb"] for p in passes)
    return out


def per_layer(passes: list) -> tuple[dict, list]:
    traced = [p for p in passes if p["traced"]]
    out = {}
    for name in traced[0]["trace"]:
        if name.endswith("_s"):
            out[name] = statistics.median(p["trace"][name] * p["speed"]
                                          for p in traced)
        else:  # counts must repeat exactly, see count_mismatches
            out[name] = traced[0]["trace"][name]
    wall = {t: statistics.median(p["wall_s"] * p["speed"]
                                 for p in passes if p["traced"] == t)
            for t in (False, True)}
    out["trace.overhead_ratio"] = wall[True] / wall[False]
    return out, traced[0]["absent"]


def count_mismatches(passes: list) -> list:
    """Machine-independent counts that differ between traced passes."""
    traced = [p["trace"] for p in passes if p["traced"]]
    return sorted(name for name in traced[0]
                  if not name.endswith("_s") and len({t[name] for t in traced}) > 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    trace = bool(args.trace)

    if not (ROOT / "src" / "blockramsey" / "__init__.py").is_file():
        print(f"no blockramsey sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    if args.child:
        print(json.dumps(run_pass(args.workload, args.seed, trace)))
        return 0
    from workloads import DEFAULT_SEED, WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    declared = declared_metrics(trace)
    pins = None
    if args.seed == DEFAULT_SEED:
        pins = json.loads((BENCH / "pins.json").read_text()).get(args.workload, {})

    try:
        passes = run_passes(args.workload, args.seed, args.seconds, trace)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"pass failed: {exc}", file=sys.stderr)
        return 1
    attempted, failed, messages = check(passes, pins)
    mismatched = count_mismatches(passes) if trace else []
    messages += [f"count {name} differs between traced passes" for name in mismatched]
    for line in messages:
        print(f"FAILED {line}")

    if trace:
        values, absent = per_layer(passes)
    else:
        values, absent = end_to_end(passes), []
    missing = sorted(set(declared) - set(values))
    if absent or missing:
        print(f"absent wrap targets: {absent}; reported as 0: {missing}")
    n_inst = len(passes[0]["instances"])
    print(f"{args.workload} seed {args.seed}: {len(passes)} passes "
          f"({sum(p['traced'] for p in passes)} traced) x {n_inst} instances; "
          f"failed_frac {failed / attempted:.4f} ({failed}/{attempted}); "
          f"instance_s.p50 over {attempted} samples; unscaled wall_s "
          f"{statistics.median(p['wall_s'] for p in passes):.4f} at speed "
          f"{statistics.median(p['speed'] for p in passes):.4f}")
    metrics = {name: {"value": values.get(name, 0), "unit": unit}
               for name, unit in declared.items()}
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"metrics": metrics, "passes": passes}, indent=1))
    print(json.dumps({"correct": failed == 0 and not mismatched,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
