"""Rewrite pins.json: the outcome of every instance at the default seed.

    python3 bench/pin.py

Run from the root of a source checkout, and only when a change of outcome
is intended.  A witness is pinned by the digest of its canonical JSON, an
exhaustion by its kind (node counts may move), a pipeline by whether it
passed.  Nothing is written unless every witness verifies and every
pipeline passes its sample check.
"""

import json
import sys

import run


def main() -> int:
    sys.path[:0] = [str(run.ROOT / "src"), str(run.BENCH)]
    from workloads import DEFAULT_SEED, WORKLOADS
    pins = {}
    for workload in WORKLOADS:
        rows = run.run_pass(workload, DEFAULT_SEED, trace=False)["instances"]
        errors = [f"{workload} {r['name']}: {r['error']}" for r in rows if r["error"]]
        if errors:
            print("\n".join(errors), file=sys.stderr)
            return 1
        pins[workload] = {r["name"]: r["pin"] for r in rows}
        print(f"{workload}: {len(rows)} instances pinned", file=sys.stderr)
    (run.BENCH / "pins.json").write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
