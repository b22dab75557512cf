"""Tests of the benchmark itself, on the second-long `smoke` instance list.

    python3 -m pytest bench -q

They are kept out of the library's test suite so that no timing enters its
pass/fail.
"""

import json
import shutil
import subprocess
import sys

import pytest

import run

sys.path[:0] = [str(run.ROOT / "src"), str(run.BENCH)]

import tracer  # noqa: E402


def _run(*args, cwd=run.ROOT):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "smoke", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_declared_metric_is_emitted_with_its_unit(trace):
    proc = _run("--seed", "0", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = run.declared_metrics(trace == "1")
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    assert "absent" not in proc.stdout


def test_machine_independent_counts_repeat_exactly():
    # separate interpreters, so string hashing differs between the passes
    first, second = (run.spawn_pass("smoke", 3, trace=True) for _ in range(2))
    counts = [{name: value for name, value in p["trace"].items()
               if not name.endswith("_s")} for p in (first, second)]
    assert counts[0] == counts[1]
    assert counts[0]["search.exhaustions"] > 0 and counts[0]["search.witnesses"] > 0
    assert [r["full"] for r in first["instances"]] == \
        [r["full"] for r in second["instances"]]


def test_traced_and_untraced_outcomes_are_identical():
    plain = run.spawn_pass("smoke", 5, trace=False)
    traced = run.spawn_pass("smoke", 5, trace=True)
    assert [r["full"] for r in plain["instances"]] == \
        [r["full"] for r in traced["instances"]]


def test_pins_cover_every_instance_at_the_default_seed():
    from workloads import DEFAULT_SEED, WORKLOADS
    pins = json.loads((run.BENCH / "pins.json").read_text())
    for name, build in WORKLOADS.items():
        assert sorted(pins[name]) == sorted(i.name for i in build(DEFAULT_SEED))


def test_workloads_follow_the_seed():
    from workloads import WORKLOADS
    for build in WORKLOADS.values():
        assert [i.name for i in build(1)] == [i.name for i in build(2)]
    a, b = (WORKLOADS["vector-exact"](s)[0].colouring for s in (1, 2))
    assert a.rule_name() != b.rule_name()
    assert WORKLOADS["vector-exact"](1)[0].colouring.rule_name() == a.rule_name()


def test_spans_nest_under_their_instance():
    t = tracer.Tracer().install()
    try:
        from workloads import WORKLOADS
        for inst in WORKLOADS["smoke"](0):
            span = t.open(f"instance:{inst.name}")
            inst.call()
            t.close(span)
    finally:
        t.uninstall()
    by_id = {s["id"]: s for s in t.spans}
    for span in t.spans:
        assert span["end"] >= span["start"] and span["self_s"] >= 0
        if span["name"].startswith("instance:"):
            assert span["parent"] is None
        else:
            assert span["parent"] is not None and span["parent"] < span["id"]
            parent = by_id[span["parent"]]
            assert parent["start"] <= span["start"] and span["end"] <= parent["end"]
    import blockramsey.search as S
    assert S.search_exact.__name__ == "search_exact"  # uninstall restored it


def test_missing_wrap_target_is_reported_absent(monkeypatch):
    monkeypatch.setattr(tracer, "FUNCTIONS", tracer.FUNCTIONS + (
        ("search.renamed", "blockramsey.search", "no_such_function",
         tracer.TIMED, False),))
    t = tracer.Tracer().install()
    t.uninstall()
    assert t.absent == ["blockramsey.search.no_such_function"]
    assert "search.renamed.calls" not in t.metrics()


def test_fails_without_the_library_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
