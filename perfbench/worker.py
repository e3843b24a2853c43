"""One benchmark sample, run in a fresh process.

    python3 perfbench/worker.py <workload dir> <sample dir> <trace 0|1> <setup reps>

It runs `siblingfix.cli.main(["run", descriptor, "--out", ...])` once,
timed from inside, and writes `result.json` into the sample directory:
wall time, its own CPU time (`process_time`, and its user and system
parts from `RUSAGE_SELF`), the harness's CPU time (the `RUSAGE_CHILDREN`
delta), peak RSS, the harness invocations logged by the
generated harness, the report's counts, its attempt log and plausible
diffs. An untraced sample then times set-up (`index_source`,
`load_coverage`, `ochiai_rank`, plus `apply_spfl` in SPFL mode) `setup
reps` times, each followed by one timing of the reference kernel. A traced sample installs the span hooks first and adds the
per-layer figures and the spans file instead.
"""

from __future__ import annotations

import json
import os
import random
import re
import resource
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOKEN = re.compile(r"[A-Za-z_]\w*|\d+|\S")


def reference_lines() -> list[str]:
    """The reference kernel's fixed input: Java-like statements, seed 0."""
    rng = random.Random(0)
    names = ["".join(rng.choice("bdfgklmnprstvz") + rng.choice("aeiou")
                     for _ in range(3)) for _ in range(400)]
    return [f"        double {rng.choice(names)} = {rng.choice(names)}."
            f"{rng.choice(names)}({rng.choice(names)}, {rng.randrange(100)});"
            for _ in range(12000)]


def reference_kernel(lines: list[str]) -> float:
    """Wall time of fixed work shaped like siblingfix's own (tokenizing,
    counting, set similarity, sorting) that uses no siblingfix code. It
    measures the speed of the host at the moment, so that run.py can
    scale the times of the program by it."""
    t = time.perf_counter()
    sets = [frozenset(TOKEN.findall(line)) for line in lines]
    counts = Counter(tok for s in sets for tok in s)
    sum(len(a & b) / len(a | b) for a, b in zip(sets, sets[1:]))
    sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return time.perf_counter() - t


def _cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def main(argv: list[str]) -> int:
    gen, sample, trace, reps = Path(argv[0]), Path(argv[1]), argv[2] == "1", int(argv[3])
    sys.path.insert(0, str(ROOT / "src"))
    import siblingfix
    from siblingfix import cli

    manifest = json.loads((gen / "manifest.json").read_text(encoding="utf-8"))
    descriptor = json.loads((gen / "descriptor.json").read_text(encoding="utf-8"))
    if manifest["params"]["cache"] == "cold":
        (gen / descriptor["cache"]).unlink(missing_ok=True)
    tracer = None
    if trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    harness_log = sample / "harness.log"
    os.environ["PERFBENCH_HARNESS_LOG"] = str(harness_log)

    children0 = _cpu(resource.getrusage(resource.RUSAGE_CHILDREN))
    self0 = resource.getrusage(resource.RUSAGE_SELF)
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    code = cli.main(["run", str(gen / "descriptor.json"),
                     "--out", str(sample / "runs")])
    wall = time.perf_counter() - t0
    own_cpu = time.process_time() - cpu0
    self1 = resource.getrusage(resource.RUSAGE_SELF)
    harness_cpu = _cpu(resource.getrusage(resource.RUSAGE_CHILDREN)) - children0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    invocations = [json.loads(line) for line in
                   harness_log.read_text(encoding="utf-8").splitlines()] \
        if harness_log.exists() else []
    runs = sorted((sample / "runs").iterdir()) if (sample / "runs").exists() else []
    report = (json.loads((runs[0] / "report.json").read_text(encoding="utf-8"))
              if runs and (runs[0] / "report.json").exists() else {})
    log = report.get("attempt_log", [])
    useful = sum(a["verdict"] in ("pass-all", "promising") for a in log)
    result = {
        "exit": code,
        "run_wall_s": wall,
        "own_cpu_s": own_cpu,
        "own_user_s": self1.ru_utime - self0.ru_utime,
        "own_sys_s": self1.ru_stime - self0.ru_stime,
        "harness_cpu_s": harness_cpu,
        "peak_rss_mb": peak_rss_mb,
        "harness_runs": len(invocations),
        "harness_wall_s": sum(end - start for _, start, end in invocations),
        "llm_requests": report.get("counts", {}).get("llm_requests", 0),
        "prompt_tokens": report.get("counts", {}).get("prompt_tokens_estimate", 0),
        "attempt_log": log,
        "plausible_diffs": [p["diff"] for p in report.get("plausible", [])],
        "engine": {
            "engine.attempts": len(log),
            "engine.useful_attempt_ratio": useful / len(log) if log else 0.0,
            "engine.locations_tried": len(report.get("candidate_counts", {})),
        },
        "setup_s": [],
        "reference_s": [],
    }
    if tracer is not None:
        tracer.write(sample / "spans.jsonl")
        result["layers"] = tracing.layer_metrics(tracer)
        result["self_time_check"] = tracing.self_time_check(tracer)
        result["untraced_hooks"] = tracer.missing
    else:
        project = gen / descriptor["project_root"]
        lines = reference_lines()
        for _ in range(reps):
            t = time.perf_counter()
            siblingfix.index_source(project, descriptor["include"])
            coverage = siblingfix.load_coverage(gen / descriptor["coverage"])
            ranked = siblingfix.ochiai_rank(coverage)
            if descriptor["mode"] == "spfl":
                spfl = descriptor["spfl"]
                siblingfix.apply_spfl(ranked, (spfl["file"], spfl["line"]))
            result["setup_s"].append(time.perf_counter() - t)
            result["reference_s"].append(reference_kernel(lines))
    (sample / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
