"""Golden runs on the miniproject fixture: the behaviour refactors must keep.

Each case runs the fixture end to end and compares what it observed with
JSON under fixtures/miniproject/golden/. Orchestrator runs compare
report.json without its timings, plus a SHA-256 per prompt file; engine
runs compare the attempt log, the plausible and promising patch ids and
the stop reason.

Regenerate the JSON, only for a change meant to alter behaviour, with
`PYTHONPATH=src python tests/test_golden.py`.
"""

import dataclasses
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from conftest import DESCRIPTOR, DESCRIPTOR_SLOW, FIXTURES, PROJECT, RuleBackend
from siblingfix import (EmbeddingCache, LocalHashProvider, RepairConfig,
                        RepairEngine, index_source, load_coverage, ochiai_rank)
from siblingfix.orchestrator import run

GOLDEN = FIXTURES / "golden"

RUNS = {
    "run_sbfl": (DESCRIPTOR, {}),
    "run_spfl": (DESCRIPTOR, {"mode": "spfl"}),
    "run_slow_sbfl": (DESCRIPTOR_SLOW, {}),
}
ENGINE_ATTEMPTS = {"engine_attempts1": 1, "engine_attempts2": 2}


def observe_run(descriptor: Path, overrides: dict, out_dir: Path) -> dict:
    _, report, run_dir = run(descriptor, overrides, out_dir=out_dir)
    report = {k: v for k, v in report.items() if k != "timings"}
    prompts = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted((run_dir / "prompts").iterdir())}
    return {"report": report, "prompt_sha256": prompts}


def observe_engine(attempts: int) -> dict:
    coverage = load_coverage(FIXTURES / "coverage.jsonl")
    engine = RepairEngine(
        project_root=str(PROJECT), index=index_source(PROJECT, ["src/**/*.java"]),
        coverage=coverage, backend=RuleBackend(), provider=LocalHashProvider(),
        cache=EmbeddingCache(), harness_command="python3 harness.py",
        config=RepairConfig(attempts=attempts))
    state = engine.repair_bug(ochiai_rank(coverage))
    return {"attempt_log": [dataclasses.asdict(a) for a in state.attempt_log],
            "plausible": [p.id for p in state.plausible],
            "promising": [p.id for p in state.promising],
            "stopped": state.stopped}


def observe(name: str, tmp: Path) -> dict:
    if name in RUNS:
        return observe_run(*RUNS[name], out_dir=tmp / "runs")
    return observe_engine(ENGINE_ATTEMPTS[name])


def golden(name: str) -> dict:
    return json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", [*RUNS, *ENGINE_ATTEMPTS])
def test_golden(name, tmp_tempdir):
    assert observe(name, tmp_tempdir) == golden(name)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name in [*RUNS, *ENGINE_ATTEMPTS]:
        with tempfile.TemporaryDirectory() as tmp:
            data = observe(name, Path(tmp))
        (GOLDEN / f"{name}.json").write_text(
            json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {name}: {len(json.dumps(data))} bytes", file=sys.stderr)
