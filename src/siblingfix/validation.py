"""Patch application, test execution, and verdict classification.

Patches are applied in one copy of the project per run; the subject's test
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

from .checks import check_type
from .llm import Patch
from .source_index import SourceIndex, text_digest

logger = logging.getLogger(__name__)


class PatchApplicationError(Exception):
    """Patch edit cannot be resolved against the index."""


class HarnessProtocolError(Exception):
    """The results file violates the harness protocol."""

    log_tail = ""  # end of the harness's output, set by `run_tests`


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
    harness_exit: int = 0
    log_tail: str = ""  # end of the harness's output, when it gave no results

    def by_id(self) -> dict[str, TestResult]:
        return {r.test: r for r in self.results}

    @property
    def failing(self) -> list[TestResult]:
        return [r for r in self.results if r.status != "pass"]


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


def _stamp(path: str) -> tuple[int, int] | None:
    """A file's (mtime in ns, size), or None if it is absent."""
    try:
        st = os.stat(path)
    except FileNotFoundError:
        return None
    return st.st_mtime_ns, st.st_size


class Workspace:
    """The one copy of the project that successive validations share.

    `apply_patch` makes it on first use and brings it to each patch in
    turn, so files outside the index, such as build output, persist from
    one validation to the next. Indexed files hold exactly what a fresh
    copy with the patch applied would hold: the `(mtime, size)` of each is
    recorded after siblingfix writes it, and if one differs before the
    next patch, the harness touched sources and the project is copied
    afresh.
    """

    def __init__(self, project_root: str | Path, index: SourceIndex):
        self.project_root = Path(project_root)
        self.index = index
        self.path: Path | None = None
        self.edited: set[str] = set()  # files the last patch wrote
        self.stamps: dict[str, tuple[int, int] | None] = {}

    def stat(self) -> dict[str, tuple[int, int] | None]:
        """The `(mtime, size)` of each indexed file in the workspace."""
        root = str(self.path)
        return {rel: _stamp(os.path.join(root, rel)) for rel in self.index.files}

    def copy(self) -> None:
        """Copy the project into a new temporary directory."""
        self.path = Path(tempfile.mkdtemp(prefix="repair-ws-"))
        shutil.copytree(self.project_root, self.path, dirs_exist_ok=True)
        self.edited = set()
        self.stamps = self.stat()

    def write(self, rel: str, data: bytes) -> None:
        """Write an indexed file. Its mtime is made later than the one it
        had and no earlier than now, so a timestamp-based incremental build
        rebuilds it even when two writes share a clock tick."""
        path = os.path.join(self.path, rel)
        with open(path, "wb") as fh:
            fh.write(data)
        mtime = max(time.time_ns(), self.stamps[rel][0] + 1)
        os.utime(path, ns=(mtime, mtime))
        self.stamps[rel] = _stamp(path)

    def remove(self) -> None:
        if self.path is not None:
            shutil.rmtree(self.path, ignore_errors=True)
            self.path = None


def apply_patch(workspace: Workspace, patch: Patch) -> Path:
    """Bring the workspace to the project with `patch` applied; return its
    path. Files the previous patch edited and this one does not are copied
    from the project again, and this patch's files are written.

    An edited file whose project-root text no longer has the indexed
    digest changed on disk since indexing; the patch is rejected before
    anything is copied or written.
    """
    index = workspace.index
    texts = patched_texts(patch, index)
    for rel in texts:
        path = workspace.project_root / rel
        if not path.is_file() or text_digest(
                path.read_text(encoding="utf-8")) != index.files[rel].digest:
            raise PatchApplicationError(f"file changed since indexing: {rel}")
    if workspace.path is not None and workspace.stat() != workspace.stamps:
        logger.warning("indexed files changed in the workspace since the "
                       "last patch; copying the project afresh")
        workspace.remove()
    if workspace.path is None:
        workspace.copy()
    for rel in workspace.edited - texts.keys():
        workspace.write(rel, (workspace.project_root / rel).read_bytes())
    for rel, text in texts.items():
        workspace.write(rel, index.files[rel].with_newline(text).encode())
    workspace.edited = set(texts)
    return workspace.path


_LOG_TAIL_BYTES = 4096


def _tail(path: Path) -> str:
    """The last `_LOG_TAIL_BYTES` of a file, decoded leniently."""
    with path.open("rb") as fh:
        fh.seek(max(0, fh.seek(0, os.SEEK_END) - _LOG_TAIL_BYTES))
        return fh.read().decode("utf-8", errors="replace")


def _kill_group(proc: subprocess.Popen) -> None:
    with contextlib.suppress(ProcessLookupError):  # it just exited
        os.killpg(proc.pid, signal.SIGKILL)


def run_tests(workspace: str | Path, harness: HarnessConfig,
              meanwhile=None) -> TestReport:
    """Run the harness command; its RESULTS_PATH file is authoritative.
    A run that times out or writes no results keeps its log's tail, as
    does the `HarnessProtocolError` of a run whose results are malformed.
    `meanwhile()` runs once the harness has started; the timeout, counted
    from the start, is acted on once it returns."""
    workspace = Path(workspace)
    results_path = workspace / ".repair-results.jsonl"
    log_path = workspace / ".repair-harness.log"
    results_path.unlink(missing_ok=True)
    env = dict(os.environ, RESULTS_PATH=str(results_path))
    # The harness leads its own process group, so a timeout also kills
    # what it forked (build tools, JVMs) before the workspace is removed.
    # Its stdout and stderr go to .repair-harness.log, not a pipe, and only
    # the shell is waited on: a detached child cannot hold the run. A thread
    # blocks in the wait; `Popen.wait(timeout)` would poll, sleeping up to 50 ms.
    # An exception that leaves `meanwhile` or the wait, such as KeyboardInterrupt,
    # kills the group first: the terminal's SIGINT does not reach another session.
    with log_path.open("wb") as log, \
            subprocess.Popen(harness.command, shell=True, cwd=workspace,
                             env=env, start_new_session=True, stdout=log,
                             stderr=subprocess.STDOUT) as proc:
        waiter = threading.Thread(target=proc.wait, daemon=True)
        deadline = time.monotonic() + harness.timeout
        waiter.start()
        try:
            if meanwhile is not None:
                meanwhile()
            waiter.join(max(0.0, deadline - time.monotonic()))
        except BaseException:
            _kill_group(proc)
            raise
        timed_out = waiter.is_alive()
        if timed_out:
            _kill_group(proc)
            waiter.join()
    exit_code = -1 if timed_out else proc.returncode
    if timed_out:
        status, message = "timeout", "harness timeout"
    elif not results_path.exists():
        logger.warning("harness produced no results file (exit %d)", exit_code)
        status, message = "error", "harness produced no results"
    else:
        try:
            results = _read_results(results_path)
        except HarnessProtocolError as exc:
            exc.log_tail = _tail(log_path)
            raise
        return TestReport(results=results, harness_exit=exit_code)
    return TestReport(results=[TestResult(t, status, message)
                               for t in harness.expected_tests],
                      harness_exit=exit_code, log_tail=_tail(log_path))


def _read_results(results_path: Path) -> list[TestResult]:
    """The results file's records, one test each."""
    try:
        lines = results_path.read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise HarnessProtocolError(f"{results_path}: not UTF-8: {exc}") from exc
    results = []
    seen = set()
    for lineno, raw in enumerate(lines, 1):
        if not raw.strip():
            continue
        try:
            rec = check_type("record", json.loads(raw), dict)
            frames = [StackFrame(*(check_type(f"frame {key}", f[key], str)
                                   for key in ("unit", "method", "file")),
                                 check_type("frame line", f["line"], int))
                      for f in rec.get("frames", [])]
            result = TestResult(check_type("test", rec["test"], str),
                                rec["status"],
                                check_type("message", rec.get("message", ""), str),
                                frames)
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
    return results


def align_traces(before: list[StackFrame], after: list[StackFrame]) -> str:
    """'identical', 'progressed', or 'other' per the frame-walk rules."""
    if not before:
        return "other"
    # d: length of the common prefix; line 0 matches any line.
    d = 0
    for b, a in zip(before, after):
        if ((b.unit, b.method, b.file) != (a.unit, a.method, a.file)
                or b.line and a.line and b.line != a.line):
            break
        d += 1
    if d == len(before) and d == len(after):
        return "identical"
    if d >= len(before) or d >= len(after):
        return "other"  # one trace is a strict prefix of the other
    b, a = before[d], after[d]
    if (b.unit, b.method, b.file) == (a.unit, a.method, a.file):
        # The walk stopped here, so both lines are known and differ.
        return "progressed" if a.line > b.line else "other"
    if b.method != a.method and d >= 1:
        return "progressed"  # cross-method divergence with identical prefix
    return "other"


def classify(baseline: TestReport, patched: TestReport) -> str:
    """pass-all, promising (newly passing test or trace progress), or no-progress."""
    base = baseline.by_id()
    after = patched.by_id()
    if (patched.results and all(r.status == "pass" for r in patched.results)
            and all(t in after for t in base)):
        return "pass-all"
    for r in base.values():
        p = after.get(r.test)
        if r.status != "pass" and p is not None and (
                p.status == "pass"
                or align_traces(r.frames, p.frames) == "progressed"):
            return "promising"
    return "no-progress"
