"""Tests of the benchmark itself: `python3 -m pytest perfbench -q`.

The same seed must give byte-identical workloads, and another seed
different bytes with the same shape, so that a claim can be rechecked on a
seed not used while the change was written.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402


def _tree(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_seed_fixes_bytes_and_shape(workload, tmp_path):
    first = workloads.generate(workload, 11, tmp_path / "a")
    again = workloads.generate(workload, 11, tmp_path / "b")
    other = workloads.generate(workload, 12, tmp_path / "c")
    a, b, c = (_tree(tmp_path / d) for d in "abc")
    assert a == b and first == again
    for name in ("coverage.jsonl", "expected.diff", "descriptor.json"):
        assert name in a
    assert any(k.startswith("responses/") for k in a)
    assert first["shape"] == other["shape"]
    assert len(a) == len(c)
    assert a["expected.diff"] != c["expected.diff"]
    assert a["coverage.jsonl"] != c["coverage.jsonl"]
    assert {k: v for k, v in a.items() if k.startswith("responses/")} != \
        {k: v for k, v in c.items() if k.startswith("responses/")}
    if first["expected_attempt_log"] is not None:
        assert len(first["expected_attempt_log"]) == \
            len(other["expected_attempt_log"])


def test_harness_fails_at_first_unfixed_site_and_logs(tmp_path):
    workloads.generate("iterate-carry", 3, tmp_path / "w")
    project = tmp_path / "w" / "project"
    spec = json.loads((project / "harness_spec.json").read_text())
    log = tmp_path / "harness.log"

    def run() -> dict:
        results = tmp_path / "results.jsonl"
        env = dict(os.environ, RESULTS_PATH=str(results),
                   PERFBENCH_HARNESS_LOG=str(log))
        subprocess.run([sys.executable, "harness.py"], cwd=project, env=env,
                       check=False, timeout=60)
        return json.loads(results.read_text().splitlines()[0])

    first = run()
    assert first["status"] == "fail"
    assert first["frames"][1]["method"] == spec["sites"][0]["method"]
    site = spec["sites"][0]
    path = project / site["file"]
    path.write_text(path.read_text().replace(workloads.BUGGY, workloads.FIXED))
    moved = run()
    assert moved["frames"][1]["method"] == spec["sites"][2]["method"]
    for p in (project / "src").rglob("*.java"):
        p.write_text(p.read_text().replace(workloads.BUGGY, workloads.FIXED))
    assert run()["status"] == "pass"
    assert len(log.read_text().splitlines()) == 3


def test_self_times_sum_to_root_span():
    t = tracer.Tracer()

    def leaf():
        return sum(range(20000))

    inner = t.wrap("inner", lambda: [leaf_traced() for _ in range(3)])
    leaf_traced = t.wrap("leaf", leaf)
    root = t.wrap(tracer.ROOT, lambda: (inner(), leaf_traced()))
    root()
    selfs = t.self_times()
    assert set(selfs) == {tracer.ROOT, "inner", "leaf"}
    assert all(v >= 0 for v in selfs.values())
    assert tracer.self_time_check(t)["ok"]
    assert len(t.durations("leaf")) == 4


def test_benchmark_json_names_what_the_bench_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    produced = (set(tracer.SELF_TIME) | set(tracer.CALLS) | set(tracer.COUNTERS)
                | {"embeddings.cache_hit_ratio", "matching.token_match_p50_ms",
                   "engine.attempts", "engine.useful_attempt_ratio",
                   "engine.locations_tried", "trace.overhead_ratio"})
    assert {m["name"] for m in spec["per_layer"]} == produced
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert "setup_s" in {m["name"] for m in spec["end_to_end"]}
