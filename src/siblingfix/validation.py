"""Patch application, test execution, and verdict classification.

Patches are applied in an isolated copy of the project; the subject's test
command communicates results through a JSON-lines file named by the
RESULTS_PATH environment variable. Verdicts follow the positive criterion:
pass-all beats promising beats no-progress, where promising needs a newly
passing test or stack-trace progress.
"""

from __future__ import annotations

import contextlib
import json
import logging
import os
import shutil
import signal
import subprocess
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from .llm import Patch
from .source_index import SourceIndex, text_digest

logger = logging.getLogger(__name__)


class PatchApplicationError(Exception):
    """Patch edit cannot be resolved against the index."""


class HarnessProtocolError(Exception):
    """The results file violates the harness protocol."""


@dataclass(frozen=True)
class StackFrame:
    unit: str
    method: str
    file: str
    line: int  # 0 = unknown

    def __post_init__(self):
        if self.line < 0:
            raise ValueError("frame line must be >= 0")


@dataclass
class TestResult:
    test: str
    status: str  # pass | fail | error | timeout
    message: str = ""
    frames: list[StackFrame] = field(default_factory=list)


@dataclass
class TestReport:
    results: list[TestResult]
    wall_time: float = 0.0
    harness_exit: int = 0
    log_tail: str = ""  # end of the harness's output, when it gave no results

    def by_id(self) -> dict[str, TestResult]:
        return {r.test: r for r in self.results}

    @property
    def failing(self) -> list[TestResult]:
        return [r for r in self.results if r.status != "pass"]


@dataclass
class TraceProgress:
    test: str
    divergence_index: int
    before: StackFrame
    after: StackFrame


@dataclass
class PatchVerdict:
    kind: str  # pass-all | promising | no-progress
    newly_passing: list[str] = field(default_factory=list)
    trace_progress: TraceProgress | None = None
    regressions: list[str] = field(default_factory=list)


@dataclass
class HarnessConfig:
    command: str
    timeout: float = 300.0
    expected_tests: list[str] = field(default_factory=list)


def patched_texts(patch: Patch, index: SourceIndex) -> dict[str, str]:
    """The text of each edited file with the patch applied, rendered from
    the indexed text. Lines are split on "\n" only, as the index counts them."""
    spans: dict[str, list[tuple[int, int, str, str]]] = {}
    for edit in patch.edits:
        if edit.file not in index.files:
            raise PatchApplicationError(f"file not indexed: {edit.file}")
        matches = index.methods_named(edit.file, edit.method)
        if not matches:
            raise PatchApplicationError(
                f"method not found: {edit.file}:{edit.method}")
        if len(matches) > 1:
            raise PatchApplicationError(
                f"ambiguous method (overloads): {edit.file}:{edit.method}")
        ref = matches[0]
        spans.setdefault(edit.file, []).append(
            (ref.body_start, ref.body_end, edit.method, edit.body))
    texts = {}
    for rel, edits in spans.items():
        lines = index.files[rel].text.split("\n")
        # An edit giving its lines their own text changes nothing; any other
        # overlap, such as a method and one nested in it, is refused.
        edits = sorted((start, end, method, body) for start, end, method, body in edits
                       if body != "\n".join(lines[start - 1:end]))
        for (_, end, outer, _), (start, _, inner, _) in zip(edits, edits[1:]):
            if start <= end:
                raise PatchApplicationError(
                    f"overlapping edits: {rel}:{outer} and {rel}:{inner}")
        # Apply bottom-up so earlier spans stay valid.
        for start, end, _, body in reversed(edits):
            lines[start - 1:end] = body.split("\n")
        texts[rel] = "\n".join(lines)
    return texts


def apply_patch(project_root: str | Path, patch: Patch, index: SourceIndex,
                workspace_root: str | Path | None = None) -> Path:
    """Copy the project into a fresh workspace and write the edited files.

    An edited file whose copy no longer has the indexed digest changed on
    disk since indexing; the workspace is removed and the patch rejected.
    """
    texts = patched_texts(patch, index)
    workspace = Path(tempfile.mkdtemp(prefix="repair-ws-",
                                      dir=workspace_root))
    shutil.copytree(project_root, workspace, dirs_exist_ok=True)
    for rel, text in texts.items():
        path = workspace / rel
        if not path.is_file() or text_digest(
                path.read_text(encoding="utf-8")) != index.files[rel].digest:
            shutil.rmtree(workspace, ignore_errors=True)
            raise PatchApplicationError(f"file changed since indexing: {rel}")
        path.write_text(text, encoding="utf-8")
    return workspace


_LOG_TAIL_BYTES = 4096


def _tail(path: Path) -> str:
    """The last `_LOG_TAIL_BYTES` of a file, decoded leniently."""
    with path.open("rb") as fh:
        fh.seek(max(0, fh.seek(0, os.SEEK_END) - _LOG_TAIL_BYTES))
        return fh.read().decode("utf-8", errors="replace")


def run_tests(workspace: str | Path, harness: HarnessConfig) -> TestReport:
    """Run the harness command; its RESULTS_PATH file is authoritative.
    A run that times out or writes no results keeps its log's tail."""
    workspace = Path(workspace)
    results_path = workspace / ".repair-results.jsonl"
    log_path = workspace / ".repair-harness.log"
    results_path.unlink(missing_ok=True)
    start = time.monotonic()
    env = dict(os.environ, RESULTS_PATH=str(results_path))
    # The harness leads its own process group, so a timeout also kills
    # what it forked (build tools, JVMs) before the workspace is removed.
    # Its stdout and stderr go to .repair-harness.log, not a pipe, and only
    # the shell is waited on: a detached child cannot hold the run. A thread
    # blocks in the wait; `Popen.wait(timeout)` would poll, sleeping up to 50 ms.
    with log_path.open("wb") as log, \
            subprocess.Popen(harness.command, shell=True, cwd=workspace,
                             env=env, start_new_session=True, stdout=log,
                             stderr=subprocess.STDOUT) as proc:
        waiter = threading.Thread(target=proc.wait, daemon=True)
        waiter.start()
        waiter.join(harness.timeout)
        timed_out = waiter.is_alive()
        if timed_out:
            with contextlib.suppress(ProcessLookupError):  # it just exited
                os.killpg(proc.pid, signal.SIGKILL)
            waiter.join()
    exit_code = -1 if timed_out else proc.returncode
    wall = time.monotonic() - start
    if timed_out:
        results = [TestResult(t, "timeout", "harness timeout")
                   for t in harness.expected_tests]
        return TestReport(results=results, wall_time=wall, harness_exit=exit_code,
                          log_tail=_tail(log_path))
    if not results_path.exists():
        logger.warning("harness produced no results file (exit %d)", exit_code)
        results = [TestResult(t, "error", "harness produced no results")
                   for t in harness.expected_tests]
        return TestReport(results=results, wall_time=wall, harness_exit=exit_code,
                          log_tail=_tail(log_path))
    results = []
    seen = set()
    for lineno, raw in enumerate(
            results_path.read_text(encoding="utf-8").splitlines(), 1):
        if not raw.strip():
            continue
        try:
            rec = json.loads(raw)
            frames = [StackFrame(f["unit"], f["method"], f["file"], int(f["line"]))
                      for f in rec.get("frames", [])]
            result = TestResult(rec["test"], rec["status"],
                                rec.get("message", ""), frames)
            if result.status not in ("pass", "fail", "error"):
                raise ValueError(f"bad status {result.status!r}")
        except (KeyError, ValueError, TypeError) as exc:
            raise HarnessProtocolError(
                f"{results_path}:{lineno}: {exc}") from exc
        if result.test in seen:
            raise HarnessProtocolError(
                f"{results_path}:{lineno}: duplicate test id {result.test!r}")
        seen.add(result.test)
        results.append(result)
    return TestReport(results=results, wall_time=wall, harness_exit=exit_code)


def _divergence(before: list[StackFrame], after: list[StackFrame]) -> int:
    """Length of the common prefix of two traces; line 0 matches any line."""
    d = 0
    for b, a in zip(before, after):
        if ((b.unit, b.method, b.file) != (a.unit, a.method, a.file)
                or b.line and a.line and b.line != a.line):
            break
        d += 1
    return d


def align_traces(before: list[StackFrame], after: list[StackFrame]) -> str:
    """'identical', 'progressed', or 'other' per the frame-walk rules."""
    if not before:
        return "other"
    d = _divergence(before, after)
    if d == len(before) and d == len(after):
        return "identical"
    if d >= len(before) or d >= len(after):
        return "other"  # one trace is a strict prefix of the other
    b, a = before[d], after[d]
    if (b.unit, b.method, b.file) == (a.unit, a.method, a.file):
        if a.line > b.line and b.line != 0 and a.line != 0:
            return "progressed"
        return "other"
    if b.method != a.method and d >= 1:
        return "progressed"  # cross-method divergence with identical prefix
    return "other"


def classify(baseline: TestReport, patched: TestReport) -> PatchVerdict:
    """pass-all, promising (newly passing test or trace progress), or no-progress."""
    base = baseline.by_id()
    after = patched.by_id()
    all_pass = (bool(patched.results)
                and all(r.status == "pass" for r in patched.results)
                and all(t in after for t in base))
    newly_passing = sorted(
        t for t, r in base.items()
        if r.status != "pass" and t in after and after[t].status == "pass")
    regressions = sorted(
        t for t, r in base.items()
        if r.status == "pass" and t in after and after[t].status != "pass")
    progress = None
    if not newly_passing:
        for test, r in base.items():
            p = after.get(test)
            if (r.status != "pass" and p is not None and p.status != "pass"
                    and align_traces(r.frames, p.frames) == "progressed"):
                d = _divergence(r.frames, p.frames)
                progress = TraceProgress(test=test, divergence_index=d,
                                         before=r.frames[d], after=p.frames[d])
                break
    kind = ("pass-all" if all_pass
            else "promising" if newly_passing or progress is not None
            else "no-progress")
    return PatchVerdict(kind=kind, newly_passing=newly_passing,
                        trace_progress=progress, regressions=regressions)
