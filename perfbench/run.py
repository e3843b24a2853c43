"""Offline, seeded benchmark for siblingfix.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

For each workload it generates a synthetic project from the seed (see
workloads.py), then runs `repair run` on it again and again for S seconds,
one run at a time, each in a fresh worker process (worker.py), after one
untimed warm-up run that is checked like the others. Every run
must exit 0, write exactly the planted fix as its plausible diff, and
repeat the first run's attempt log; a run that does not counts as failed
and is never retried. With `--trace 0` it reports the end-to-end metrics
named in BENCHMARK.json; with `--trace 1` it alternates untraced and
traced runs and reports the per-layer metrics (tracer.py).

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The exit status is 0 when
every run was correct, 1 when one was not, and 2 when the benchmark could
not run at all (for instance when siblingfix's sources are missing).
Working files live in `.perfbench/` under the checkout; a results file with
the provenance of the numbers is kept in `.perfbench/results/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
MIN_SAMPLES = 3         # untraced runs per invocation, whatever --seconds says
MIN_TRACED = 2          # traced and untraced runs each, with --trace 1
SETUP_REPS = 3          # set-up timings per untraced run
HARD_LIMIT = 170.0      # seconds per invocation; a run cut by it counts as failed


class BenchError(Exception):
    """The benchmark cannot run here."""


def _spec() -> dict:
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read BENCHMARK.json: {exc}") from exc


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def provenance(seed: int, seconds: float) -> dict:
    return {
        "git_commit": _git_commit(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "seed": seed,
        "seconds": seconds,
    }


class Sampler:
    """Runs worker processes for one workload and checks each result."""

    def __init__(self, gen: Path, work: Path, manifest: dict, cutoff: float,
                 spans_to: Path):
        self.gen = gen
        self.work = work
        self.spans_to = spans_to  # where the last traced run's spans go
        self.cutoff = cutoff  # perf_counter() by which every worker has ended
        self.expected_diff = (gen / "expected.diff").read_text(encoding="utf-8")
        self.reference_log = manifest["expected_attempt_log"]
        self.env = dict(os.environ, TMPDIR=str(work / "tmp"),
                        PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED="0")
        self.samples: list[dict] = []

    def run(self, traced: bool) -> dict:
        i = len(self.samples)
        sample = self.work / f"sample{i:03d}"
        sample.mkdir()
        started = time.perf_counter()
        with open(sample / "worker.log", "wb") as log:
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "worker.py"), str(self.gen),
                 str(sample), "1" if traced else "0",
                 "0" if traced else str(SETUP_REPS)],
                stdout=log, stderr=subprocess.STDOUT, env=self.env,
                start_new_session=True)
            try:
                proc.wait(timeout=max(1.0, self.cutoff - time.perf_counter()))
            except subprocess.TimeoutExpired:
                pass
            finally:
                if proc.poll() is None:
                    os.killpg(proc.pid, signal.SIGKILL)
                    proc.wait()
        result_path = sample / "result.json"
        if proc.returncode == 0 and result_path.exists():
            result = json.loads(result_path.read_text(encoding="utf-8"))
        else:
            tail = (sample / "worker.log").read_text(errors="replace")[-2000:]
            result = {"exit": None, "error": f"worker exit {proc.returncode}: {tail}"}
        result["traced"] = traced
        result["sample_s"] = time.perf_counter() - started
        result["problems"] = self._check(result)
        if traced and (sample / "spans.jsonl").exists():
            shutil.copyfile(sample / "spans.jsonl", self.spans_to)
        shutil.rmtree(sample, ignore_errors=True)
        self.samples.append(result)
        return result

    def _check(self, result: dict) -> list[str]:
        if result.get("exit") is None:
            return [result.get("error", "no result")]
        problems = []
        if result["exit"] != 0:
            problems.append(f"repair run exited {result['exit']}")
        if result["plausible_diffs"] != [self.expected_diff]:
            problems.append(f"{len(result['plausible_diffs'])} plausible diffs, "
                            "expected exactly the planted fix")
        if self.reference_log is None:
            self.reference_log = result["attempt_log"]
        elif result["attempt_log"] != self.reference_log:
            problems.append("attempt log differs from the first run's")
        check = result.get("self_time_check")
        if check is not None and not check["ok"]:
            problems.append(f"self times do not sum to the run span: {check}")
        return problems


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


# Gated times are reported as the upper quartile of an invocation's
# timings: the time three runs in four finish within. The host the benchmark
# was built on runs at its usual speed most of the time but has fast spells
# of seconds to minutes, whose share differs from one invocation to the
# next. The upper quartile follows the usual speed; the mean and the median
# move with the share of fast spells (see README.md). Everything else is a
# median.
UPPER_QUARTILE_OF = frozenset({"run_wall_s", "own_user_s", "setup_s",
                               "reference_s"})
# The host's usual speed itself drifts by up to 2x over tens of minutes. So
# each gated time is scaled by REFERENCE_S / the upper quartile of the
# reference kernel's timings in the same invocation (worker.reference_kernel,
# timed in the same workers as set-up): it reads as seconds on a host where
# the kernel takes REFERENCE_S, which is its usual time on the VM the
# benchmark was built on. The unscaled figures are stored and printed too.
SCALED = ("run_wall_s", "own_user_s", "setup_s")
REFERENCE_S = 0.13
# Printed and stored beside the metrics, not gated. The harness is not ours
# to tune. Our kernel time is almost all file creation for workspace
# copies, whose cost for the same work swings several-fold from minute to
# minute on the VM the benchmark was built on (see README.md), so it is
# reported apart from own_user_s; it still counts in run_wall_s.
APART = ("own_cpu_s", "own_sys_s", "harness_cpu_s", "harness_wall_s")


def _aggregate(name: str, values: list[float]) -> dict:
    if name in UPPER_QUARTILE_OF and len(values) >= 2:
        return {"value": statistics.quantiles(values, n=4)[2],
                "stat": "upper quartile", "n": len(values)}
    return {"value": _median(values), "stat": "median", "n": len(values)}


def measure(workload: str, seed: int, seconds: float, trace: bool,
            spec: dict) -> dict:
    """Generate one workload, sample it for `seconds`, and aggregate."""
    work = WORK / "work" / f"{workload}-seed{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "tmp").mkdir(parents=True)
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    tempfile.tempdir = str(work / "tmp")
    try:
        t = time.perf_counter()
        manifest = workloads.generate(workload, seed, work / "gen")
        generation_s = time.perf_counter() - t
        sampler = Sampler(work / "gen", work, manifest, t + HARD_LIMIT,
                          results / f"spans_{workload}_seed{seed}.jsonl")
        deadline = time.perf_counter() + seconds
        # One untimed run first, checked like the others. It warms the page
        # cache, and the filesystem state the workspace copies depend on.
        sampler.run(traced=False)["warmup"] = True
        while True:
            done = [s for s in sampler.samples if not s.get("warmup")]
            untraced = [s for s in done if not s["traced"]]
            traced = [s for s in done if s["traced"]]
            if trace:
                enough = min(len(untraced), len(traced)) >= MIN_TRACED
            else:
                enough = len(done) >= MIN_SAMPLES
            last = done[-1]["sample_s"] if done else 0.0
            if ((enough and time.perf_counter() + last / 2 > deadline)
                    or time.perf_counter() + last > sampler.cutoff):
                break
            sampler.run(traced=trace and len(traced) < len(untraced))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    samples = sampler.samples
    failed = sum(bool(s["problems"]) for s in samples)
    timed = [s for s in samples if not s.get("warmup")]
    ok = [s for s in timed if s.get("exit") is not None]
    untraced = [s for s in ok if not s["traced"]]
    traced = [s for s in ok if s["traced"]]
    if trace:
        wanted = spec["per_layer"]
        values = {m["name"]: [] for m in wanted}
        for s in traced:
            figures = {**s["layers"], **s["engine"]}
            for name in values:
                if name in figures:
                    values[name].append(figures[name])
        # Each traced run against the untraced run just before it, so that
        # drift in machine speed between the two halves does not count.
        values["trace.overhead_ratio"] = [
            t["run_wall_s"] / u["run_wall_s"]
            for u, t in zip(timed, timed[1:])
            if t["traced"] and not u["traced"]
            and t.get("exit") is not None and u.get("exit") is not None]
    else:
        wanted = spec["end_to_end"]
        values = {m["name"]: [s[m["name"]] for s in untraced]
                  for m in wanted if m["name"] != "setup_s"}
        values["setup_s"] = [t for s in untraced for t in s["setup_s"]]
    metrics = {m["name"]: {**_aggregate(m["name"], values.get(m["name"], [])),
                           "unit": m["unit"]}
               for m in wanted}
    apart = {}
    if not trace:
        apart = {name: _aggregate(name, [s[name] for s in untraced])["value"]
                 for name in APART}
        reference = _aggregate("reference_s", [t for s in untraced
                                               for t in s["reference_s"]])
        apart["reference_s"] = reference["value"]
        for name in SCALED:
            apart[f"{name}_unscaled"] = metrics[name]["value"]
            metrics[name]["value"] *= REFERENCE_S / reference["value"]
            metrics[name]["stat"] += ", scaled"
    record = {
        "workload": workload,
        "trace": trace,
        "provenance": provenance(seed, seconds),
        "params": manifest["params"],
        "shape": manifest["shape"],
        "generation_s": generation_s,
        "attempted": len(samples),
        "failed": failed,
        "failed_run_ratio": failed / len(samples),
        "metrics": metrics,
        "apart": apart,
        "untraced_hooks": sorted({h for s in traced for h in s["untraced_hooks"]}),
        "problems": [s["problems"] for s in samples if s["problems"]],
        "samples": [{k: v for k, v in s.items()
                     if k not in ("attempt_log", "plausible_diffs")}
                    for s in samples],
    }
    path = results / f"{workload}_seed{seed}_trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return record


def _print_record(record: dict) -> None:
    prov = record["provenance"]
    print(f"== {record['workload']} seed {prov['seed']} "
          f"({'traced' if record['trace'] else 'untraced'}): "
          f"{record['attempted']} runs, {record['failed']} failed, "
          f"generated in {record['generation_s']:.2f} s")
    for name, m in record["metrics"].items():
        print(f"  {name:40s} {m['value']:>14.6g} {m['unit']:8s} "
              f"{m['stat']} of {m['n']}")
    print(f"  {'failed_run_ratio':40s} {record['failed_run_ratio']:>14.6g} "
          f"{'ratio':8s} {record['failed']}/{record['attempted']}")
    if not record["trace"]:
        for name, value in record["apart"].items():
            print(f"  {name:40s} {value:>14.6g} {'s':8s} not gated")
    for hook in record["untraced_hooks"]:
        print(f"  warning: layer hook not found, reported as 0: {hook}")
    for problems in record["problems"]:
        print(f"  FAILED RUN: {'; '.join(problems)}")
    print(f"  commit {prov['git_commit']}, {prov['python']}, "
          f"nproc {prov['nproc']}, {prov['cpu_model']}")
    sys.stdout.flush()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind so that the running worker's process group is killed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        if not (ROOT / "src" / "siblingfix" / "__init__.py").is_file():
            raise BenchError(f"siblingfix sources not found under {ROOT / 'src'}")
        spec = _spec()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    records = []
    for name in names:
        try:
            records.append(measure(name, args.seed, args.seconds,
                                   bool(args.trace), spec))
        except workloads.GenerationError as exc:
            print(f"FAILED RUN: {exc}")
            print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                              "metrics": {}}))
            return 1
        _print_record(records[-1])
    if len(records) == 1:
        metrics = {k: {"value": m["value"], "unit": m["unit"]}
                   for k, m in records[0]["metrics"].items()}
    else:
        metrics = {f"{r['workload']}.{k}": {"value": m["value"], "unit": m["unit"]}
                   for r in records for k, m in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
