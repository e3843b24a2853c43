import filecmp
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import siblingfix
from conftest import PROJECT, estimator_method, fresh_copy, tree_bytes
from siblingfix.llm import Patch, PatchEdit
from siblingfix.source_index import index_source
from siblingfix.validation import (HarnessConfig, HarnessProtocolError,
                                   PatchApplicationError, StackFrame,
                                   TestReport, TestResult, Workspace,
                                   align_traces, apply_patch, classify,
                                   patched_texts, run_tests)


def tree_equal(a: Path, b: Path) -> bool:
    cmp = filecmp.dircmp(a, b)
    if cmp.left_only or cmp.right_only or cmp.diff_files:
        return False
    return all(tree_equal(a / d, b / d) for d in cmp.common_dirs)


@pytest.mark.usefixtures("tmp_tempdir")
def test_empty_patch_identity(mini_index):
    ws = apply_patch(Workspace(PROJECT, mini_index), Patch(edits=()))
    assert tree_equal(PROJECT, ws)


@pytest.mark.usefixtures("tmp_tempdir")
def test_single_edit_locality(mini_index):
    patch = Patch(edits=(PatchEdit("src/Estimator.java", "getRms",
                                   estimator_method("getRms", fixed=True)),))
    ws = apply_patch(Workspace(PROJECT, mini_index), patch)
    changed = []
    for p in PROJECT.rglob("*"):
        if p.is_file():
            rel = p.relative_to(PROJECT)
            if p.read_bytes() != (ws / rel).read_bytes():
                changed.append(str(rel))
    assert changed == ["src/Estimator.java"]
    after = (ws / "src/Estimator.java").read_text()
    assert after.count("getUnboundParameters()") == 1
    assert after.splitlines()[3].endswith("problem.getUnboundParameters();")


def test_unresolvable_method_errors(mini_index, tmp_tempdir):
    workspace = Workspace(PROJECT, mini_index)
    missing = Patch(edits=(PatchEdit("src/Estimator.java", "vanished", "x"),))
    with pytest.raises(PatchApplicationError):
        apply_patch(workspace, missing)
    unknown_file = Patch(edits=(PatchEdit("src/Nope.java", "f", "x"),))
    with pytest.raises(PatchApplicationError):
        apply_patch(workspace, unknown_file)
    assert workspace.path is None
    assert list(tmp_tempdir.glob("repair-ws-*")) == []


@pytest.mark.usefixtures("tmp_tempdir")
def test_own_body_patch_is_identity_across_form_feed(tmp_path):
    project = tmp_path / "project"
    project.mkdir()
    text = "class F {\n  // page\x0cbreak\n  int f() {\n    return 1;\n  }\n}\n"
    (project / "F.java").write_text(text, encoding="utf-8")
    index = index_source(project, ["*.java"])
    ref = index.methods_named("F.java", "f")[0]
    patch = Patch(edits=(PatchEdit("F.java", "f", index.method_body(ref)),))
    ws = apply_patch(Workspace(project, index), patch)
    assert (ws / "F.java").read_text(encoding="utf-8") == text


NESTED = """class Outer {
    void outer() {
        Runnable r = new Runnable() {
            public void run() {
                step();
            }
        };
        r.run();
    }
}
"""


def test_overlapping_edits_are_refused(tmp_path):
    """`run` lies inside `outer`, so splicing a new `run` and then a new
    `outer` would leave the old tail of `outer` behind: a stray `}`."""
    (tmp_path / "Outer.java").write_text(NESTED, encoding="utf-8")
    index = index_source(tmp_path, ["*.java"])
    outer = PatchEdit("Outer.java", "outer", "    void outer() {\n        go();\n    }")
    run = PatchEdit("Outer.java", "run", "            public void run() {\n"
                    "                step();\n                step();\n            }")
    with pytest.raises(PatchApplicationError,
                       match="overlapping edits: Outer.java:outer and Outer.java:run"):
        patched_texts(Patch(edits=(outer, run)), index)
    for edit in (outer, run):
        text = patched_texts(Patch(edits=(edit,)), index)["Outer.java"]
        assert text.count("{") == text.count("}")
    # A nested edit that keeps its method's own text changes nothing.
    own_run = index.method_body(index.methods_named("Outer.java", "run")[0])
    noop = PatchEdit("Outer.java", "run", own_run)
    assert patched_texts(Patch(edits=(outer, noop)), index) == \
        patched_texts(Patch(edits=(outer,)), index)


@pytest.mark.parametrize("change", ["edit", "delete"])
@pytest.mark.usefixtures("tmp_tempdir")
def test_file_changed_since_indexing_is_rejected(tmp_path, change):
    project = tmp_path / "project"
    project.mkdir()
    source = project / "F.java"
    source.write_text("class F {\n  int f() {\n    return 1;\n  }\n}\n",
                      encoding="utf-8")
    index = index_source(project, ["*.java"])
    if change == "edit":
        source.write_text("class F {\n  int g;\n  int f() {\n    return 1;\n"
                          "  }\n}\n", encoding="utf-8")
    else:
        source.unlink()
    patch = Patch(edits=(PatchEdit("F.java", "f",
                                   "  int f() {\n    return 2;\n  }"),))
    with pytest.raises(PatchApplicationError,
                       match="file changed since indexing: F.java"):
        apply_patch(Workspace(project, index), patch)
    assert list(tmp_path.glob("repair-ws-*")) == []



# Two indexed files, one with CRLF line ends, and one file outside the index.
SOURCES = {
    "A.java": b"class A {\n  int f() {\n    return 1;\n  }\n  int g() {\n"
              b"    return 2;\n  }\n}\n",
    "B.java": b"class B {\r\n  int h() {\r\n    return 3;\r\n  }\r\n}\r\n",
    "notes.txt": b"not indexed\n",
}
EDITS = [
    PatchEdit("A.java", "f", "  int f() {\n    return 10;\n  }"),
    PatchEdit("A.java", "g", "  int g() {\n    return 20;\n  }"),
    PatchEdit("B.java", "h", "  int h() {\n    return 30;\n  }"),
    PatchEdit("B.java", "h", "  int h() {\n    return 3;\n  }"),  # its own text
]


@pytest.fixture(scope="module")
def two_files(tmp_path_factory):
    project = tmp_path_factory.mktemp("two-files")
    for rel, data in SOURCES.items():
        (project / rel).write_bytes(data)
    return project, index_source(project, ["*.java"])


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.sets(st.integers(0, len(EDITS) - 1)), min_size=1,
                max_size=6))
def test_successive_patches_match_a_fresh_copy(two_files, tmp_tempdir,
                                               patches):
    """After every patch of any sequence, the one workspace holds byte for
    byte what a fresh copy with that patch applied holds: files the
    previous patch edited and this one does not get the project's bytes
    back, CRLF line ends included."""
    project, index = two_files
    workspace = Workspace(project, index)
    try:
        for chosen in patches:
            patch = Patch(edits=tuple(EDITS[i] for i in sorted(chosen)))
            assert tree_bytes(apply_patch(workspace, patch)) == \
                fresh_copy(project, patch, index)
    finally:
        workspace.remove()
    assert list(tmp_tempdir.glob("repair-ws-*")) == []


def test_written_and_restored_files_get_strictly_later_mtimes(
        two_files, tmp_tempdir, monkeypatch):
    """Each write or restore of a file sets an mtime past the one it had,
    even when the clock stands still, and an untouched file keeps the
    project's."""
    project, index = two_files
    now = time.time_ns() + 3600 * 10**9
    monkeypatch.setattr(time, "time_ns", lambda: now)
    workspace = Workspace(project, index)
    mtimes = []
    for patch in [Patch(edits=(EDITS[0],)), Patch(edits=(EDITS[1],)),
                  Patch(edits=())]:
        ws = apply_patch(workspace, patch)
        mtimes.append((ws / "A.java").stat().st_mtime_ns)
    assert mtimes == [now, now + 1, now + 2]
    assert (ws / "B.java").stat().st_mtime_ns == \
        (project / "B.java").stat().st_mtime_ns


@pytest.mark.parametrize("touch", ["rewrite", "mtime", "delete"])
def test_indexed_file_touched_in_the_workspace_gives_a_fresh_copy(
        two_files, tmp_tempdir, caplog, touch):
    """A harness that changes an indexed file (its content, its mtime
    alone, or its presence) gets a fresh copy with a warning; a file
    outside the index that it leaves stays without one."""
    project, index = two_files
    workspace = Workspace(project, index)
    first = apply_patch(workspace, Patch(edits=(EDITS[0],)))
    (first / "build.out").write_text("incremental state")
    patch = Patch(edits=(EDITS[2],))
    assert apply_patch(workspace, patch) == first
    assert "copying the project afresh" not in caplog.text
    b = first / "B.java"
    if touch == "rewrite":
        b.write_text("class B {}\n")
    elif touch == "mtime":
        os.utime(b, ns=(0, 0))
    else:
        b.unlink()
    ws = apply_patch(workspace, patch)
    assert "copying the project afresh" in caplog.text
    assert ws != first and not first.exists()
    assert tree_bytes(ws) == fresh_copy(project, patch, index)
    workspace.remove()
    assert list(tmp_tempdir.glob("repair-ws-*")) == []


def test_file_changed_since_indexing_leaves_the_workspace_as_it_was(
        tmp_tempdir):
    """A patch rejected after earlier validations writes nothing: the
    workspace keeps the previous patch's tree."""
    project = tmp_tempdir / "project"
    project.mkdir()
    for rel, data in SOURCES.items():
        (project / rel).write_bytes(data)
    index = index_source(project, ["*.java"])
    workspace = Workspace(project, index)
    ws = apply_patch(workspace, Patch(edits=(EDITS[0],)))
    before = tree_bytes(ws)
    (project / "B.java").write_text("class B {}\n")
    with pytest.raises(PatchApplicationError,
                       match="file changed since indexing: B.java"):
        apply_patch(workspace, Patch(edits=(EDITS[2],)))
    assert workspace.path == ws and tree_bytes(ws) == before
    workspace.remove()


def harness_writing(tmp_path, records, sleep=0.0):
    script = tmp_path / "h.py"
    script.write_text(
        "import json, os, time\n"
        f"time.sleep({sleep})\n"
        f"records = {records!r}\n"
        "with open(os.environ['RESULTS_PATH'], 'w') as fh:\n"
        "    for r in records:\n"
        "        fh.write(json.dumps(r) + '\\n')\n",
        encoding="utf-8")
    return HarnessConfig(command="python3 h.py", timeout=20.0,
                         expected_tests=["t1", "t2"])


def test_run_tests_all_pass(tmp_path):
    harness = harness_writing(tmp_path, [
        {"test": "t1", "status": "pass", "message": "", "frames": []},
        {"test": "t2", "status": "pass", "message": "", "frames": []}])
    report = run_tests(tmp_path, harness)
    assert report.failing == []
    assert {r.test for r in report.results} == {"t1", "t2"}


def test_run_tests_preserves_frame_order(tmp_path):
    frames = [{"unit": "T", "method": "test", "file": "T.java", "line": 5},
              {"unit": "A", "method": "mid", "file": "A.java", "line": 9},
              {"unit": "B", "method": "deep", "file": "B.java", "line": 2}]
    harness = harness_writing(tmp_path, [
        {"test": "t1", "status": "fail", "message": "boom", "frames": frames}])
    report = run_tests(tmp_path, harness)
    got = report.by_id()["t1"].frames
    assert [(f.unit, f.method, f.file, f.line) for f in got] == [
        ("T", "test", "T.java", 5), ("A", "mid", "A.java", 9),
        ("B", "deep", "B.java", 2)]


def test_run_tests_timeout(tmp_path):
    harness = harness_writing(tmp_path, [], sleep=5.0)
    harness.timeout = 0.4
    report = run_tests(tmp_path, harness)
    assert all(r.status == "timeout" for r in report.results)
    assert {r.test for r in report.results} == {"t1", "t2"}


def test_run_tests_timeout_kills_the_process_group(tmp_path):
    harness = HarnessConfig(command="(sleep 1; touch late) & sleep 30",
                            timeout=0.3, expected_tests=["t1"])
    start = time.monotonic()
    report = run_tests(tmp_path, harness)
    assert time.monotonic() - start < 5
    assert [r.status for r in report.results] == ["timeout"]
    time.sleep(1.5)
    assert not (tmp_path / "late").exists()
    # A child outside the group does not hold the run past its timeout.
    harness.command = "setsid sleep 3 & sleep 30"
    start = time.monotonic()
    run_tests(tmp_path, harness)
    assert time.monotonic() - start < 2


def test_run_tests_kills_the_process_group_on_an_interrupt(tmp_path):
    """A KeyboardInterrupt during the wait kills the harness's group, which
    leads its own session and so never sees the terminal's SIGINT, then
    propagates."""
    script = (
        "import os, signal, sys, threading\n"
        "from siblingfix.validation import HarnessConfig, run_tests\n"
        "threading.Timer(0.3, os.kill, (os.getpid(), signal.SIGINT)).start()\n"
        "harness = HarnessConfig(command='(sleep 1; touch late) & sleep 3',\n"
        "                        timeout=30, expected_tests=['t1'])\n"
        "try:\n"
        "    run_tests(sys.argv[1], harness)\n"
        "except KeyboardInterrupt:\n"
        "    sys.exit(130)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(siblingfix.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env,
                          timeout=30)
    assert proc.returncode == 130
    time.sleep(1.5)  # the interrupt came 0.3 s into the harness's 1 s
    assert not (tmp_path / "late").exists()


def test_run_tests_waits_on_the_shell_alone(tmp_path):
    """A detached child that outlives the harness, as a build daemon may,
    does not hold the run; the harness's output goes to its log file."""
    harness = HarnessConfig(
        command="echo '{\"test\": \"t1\", \"status\": \"pass\"}' "
                "> \"$RESULTS_PATH\"; echo out; echo err >&2; "
                "setsid sleep 3 & exit 0",
        timeout=0.5, expected_tests=["t1"])
    start = time.monotonic()
    report = run_tests(tmp_path, harness)
    assert time.monotonic() - start < 2
    assert [(r.test, r.status) for r in report.results] == [("t1", "pass")]
    assert report.harness_exit == 0
    assert (tmp_path / ".repair-harness.log").read_text() == "out\nerr\n"


def test_run_tests_missing_results_file(tmp_path):
    harness = HarnessConfig(command="true", timeout=5.0,
                            expected_tests=["t1"])
    report = run_tests(tmp_path, harness)
    assert [r.status for r in report.results] == ["error"]


def test_run_tests_without_results_keeps_the_log_tail(tmp_path):
    """A harness that fails before writing results, as a build that does
    not compile does, leaves what it printed in the report."""
    harness = HarnessConfig(
        command="echo compiling; echo 'error: cannot find symbol' >&2; exit 1",
        timeout=5.0, expected_tests=["t1"])
    report = run_tests(tmp_path, harness)
    assert [r.status for r in report.results] == ["error"]
    assert report.harness_exit == 1
    assert report.log_tail == "compiling\nerror: cannot find symbol\n"


def test_run_tests_timeout_keeps_the_log_tail(tmp_path):
    harness = HarnessConfig(command="echo started; echo waiting >&2; sleep 30",
                            timeout=0.5, expected_tests=["t1"])
    report = run_tests(tmp_path, harness)
    assert [r.status for r in report.results] == ["timeout"]
    assert report.log_tail == "started\nwaiting\n"


def test_run_tests_log_tail_is_the_last_4_kib(tmp_path):
    """Only the end of a long log is kept; a character cut in two by the
    limit is replaced, not fatal. A run with results keeps no tail."""
    harness = HarnessConfig(  # 10,005 bytes: the tail starts inside an 'é'
        command="python3 -c \"print('\u00e9' * 5000, end=''); print('xEND')\"",
        timeout=5.0, expected_tests=["t1"])
    tail = run_tests(tmp_path, harness).log_tail
    assert tail == "\ufffd" + "\u00e9" * 2045 + "xEND\n"
    harness = harness_writing(tmp_path, [
        {"test": "t1", "status": "fail", "message": "", "frames": []}])
    harness.command = "echo noise; python3 h.py"
    assert run_tests(tmp_path, harness).log_tail == ""


def test_run_tests_duplicate_test_id(tmp_path):
    harness = harness_writing(tmp_path, [
        {"test": "t1", "status": "pass", "message": "", "frames": []},
        {"test": "t1", "status": "fail", "message": "", "frames": []}])
    with pytest.raises(HarnessProtocolError, match="duplicate"):
        run_tests(tmp_path, harness)


def test_run_tests_bad_status(tmp_path):
    harness = harness_writing(tmp_path, [
        {"test": "t1", "status": "exploded", "message": "", "frames": []}])
    with pytest.raises(HarnessProtocolError):
        run_tests(tmp_path, harness)


@pytest.mark.parametrize("line", [4.7, "4", True])
def test_run_tests_frame_line_must_be_an_int(tmp_path, line):
    frames = [{"unit": "T", "method": "test", "file": "T.java", "line": line}]
    harness = harness_writing(tmp_path, [
        {"test": "t1", "status": "fail", "message": "", "frames": frames}])
    with pytest.raises(HarnessProtocolError, match=":1: frame line must be int"):
        run_tests(tmp_path, harness)


@pytest.mark.parametrize("line, match", [
    (b'{"test": "t1", "status": "fail", "message": "Andr\xe9"}', ": not UTF-8: "),
    (b"[1, 2]", ":1: record must be dict, not list"),
    (b'"t"', ":1: record must be dict, not str"),
    (b'{"test": ["a"], "status": "pass"}', ":1: test must be str, not list"),
    (b'{"test": 5, "status": "pass"}', ":1: test must be str, not int"),
    (b'{"test": "t1", "status": "fail", "message": ["x"]}',
     ":1: message must be str, not list"),
    (b'{"test": "t1", "status": "fail", "frames": [{"unit": ["a"], '
     b'"method": "m", "file": "F.java", "line": 1}]}',
     ":1: frame unit must be str, not list"),
    (b'{"test": "t1", "status": "fail", "frames": [{"unit": "U", '
     b'"method": 3, "file": "F.java", "line": 1}]}',
     ":1: frame method must be str, not int"),
    (b'{"test": "t1", "status": "fail", "frames": [{"unit": "U", '
     b'"method": "m", "file": null, "line": 1}]}',
     ":1: frame file must be str, not NoneType"),
], ids=["latin1-message", "list-record", "string-record", "list-test",
        "int-test", "list-message", "list-frame-unit", "int-frame-method",
        "null-frame-file"])
def test_results_that_break_the_protocol_are_protocol_errors(tmp_path, line,
                                                              match):
    """Each of these results files is a protocol error that names the file,
    and the line where one is at fault."""
    (tmp_path / "results.bin").write_bytes(line + b"\n")
    harness = HarnessConfig(command='cat results.bin > "$RESULTS_PATH"',
                            expected_tests=["t1"])
    with pytest.raises(HarnessProtocolError, match=re.escape(match)):
        run_tests(tmp_path, harness)


def test_run_tests_protocol_error_keeps_the_log_tail(tmp_path):
    harness = harness_writing(tmp_path, [{"status": "pass"}])
    harness.command = "echo 'reporter crashed' >&2; python3 h.py"
    with pytest.raises(HarnessProtocolError) as info:
        run_tests(tmp_path, harness)
    assert info.value.log_tail == "reporter crashed\n"


def frame(method="work", line=10, unit="C", file="C.java"):
    return StackFrame(unit=unit, method=method, file=file, line=line)


TEST_FRAME = frame(method="test_it", line=3, unit="T", file="T.java")


def test_align_identical():
    trace = [TEST_FRAME, frame(line=10)]
    assert align_traces(trace, list(trace)) == "identical"


def test_align_same_method_deeper_line():
    before = [TEST_FRAME, frame(line=95)]
    after = [TEST_FRAME, frame(line=120)]
    assert align_traces(before, after) == "progressed"


def test_align_same_method_shallower_line():
    before = [TEST_FRAME, frame(line=120)]
    after = [TEST_FRAME, frame(line=95)]
    assert align_traces(before, after) == "other"


def test_align_cross_method_with_identical_prefix():
    before = [TEST_FRAME, frame(method="stageOne", line=10)]
    after = [TEST_FRAME, frame(method="stageTwo", line=4)]
    assert align_traces(before, after) == "progressed"


def test_align_divergence_at_test_frame_is_other():
    before = [frame(method="test_a", unit="T", file="T.java", line=3)]
    after = [frame(method="test_b", unit="T", file="T.java", line=3)]
    assert align_traces(before, after) == "other"


def test_align_strict_prefix_is_other():
    before = [TEST_FRAME, frame(line=10)]
    after = [TEST_FRAME, frame(line=10), frame(method="deeper", line=1)]
    assert align_traces(before, after) == "other"


def test_align_empty_before_is_other():
    assert align_traces([], [TEST_FRAME]) == "other"


def test_align_unknown_line_compares_equal():
    before = [TEST_FRAME, frame(line=0), frame(method="inner", line=7)]
    after = [TEST_FRAME, frame(line=55), frame(method="inner", line=7)]
    assert align_traces(before, after) == "identical"


def report(*results):
    return TestReport(results=list(results))


def res(test, status, frames=(), message=""):
    return TestResult(test, status, message, list(frames))


def test_classify_pass_all():
    baseline = report(res("t1", "fail"), res("t2", "pass"))
    patched = report(res("t1", "pass"), res("t2", "pass"))
    assert classify(baseline, patched) == "pass-all"


def test_classify_newly_passing_promising():
    baseline = report(res("t1", "fail"), res("t2", "fail"))
    patched = report(res("t1", "pass"), res("t2", "fail"))
    assert classify(baseline, patched) == "promising"


def test_classify_trace_progress_promising():
    baseline = report(res("t1", "fail", [TEST_FRAME, frame(line=10)]))
    patched = report(res("t1", "fail", [TEST_FRAME, frame(line=22)]))
    assert classify(baseline, patched) == "promising"


def test_classify_self_comparison_no_progress():
    baseline = report(res("t1", "fail", [TEST_FRAME, frame(line=10)]),
                      res("t2", "pass"))
    assert classify(baseline, baseline) == "no-progress"


def test_classify_regression_does_not_veto():
    baseline = report(res("t1", "fail"), res("t2", "pass"))
    patched = report(res("t1", "pass"), res("t2", "fail"))
    assert classify(baseline, patched) == "promising"


def test_classify_missing_test_blocks_pass_all():
    baseline = report(res("t1", "fail"), res("t2", "pass"))
    patched = report(res("t2", "pass"))  # t1 vanished from the results
    assert classify(baseline, patched) == "no-progress"


def _ref_divergence(before, after):
    d = 0
    for b, a in zip(before, after):
        if ((b.unit, b.method, b.file) != (a.unit, a.method, a.file)
                or b.line and a.line and b.line != a.line):
            break
        d += 1
    return d


def _ref_align_traces(before, after):
    if not before:
        return "other"
    d = _ref_divergence(before, after)
    if d == len(before) and d == len(after):
        return "identical"
    if d >= len(before) or d >= len(after):
        return "other"
    b, a = before[d], after[d]
    if (b.unit, b.method, b.file) == (a.unit, a.method, a.file):
        if a.line > b.line and b.line != 0 and a.line != 0:
            return "progressed"
        return "other"
    if b.method != a.method and d >= 1:
        return "progressed"
    return "other"


def _ref_classify(baseline, patched):
    """The verdict kind as the classifier computed it when it also built
    the newly passing and regressed test lists and the trace progress."""
    base = baseline.by_id()
    after = patched.by_id()
    all_pass = (bool(patched.results)
                and all(r.status == "pass" for r in patched.results)
                and all(t in after for t in base))
    newly_passing = sorted(
        t for t, r in base.items()
        if r.status != "pass" and t in after and after[t].status == "pass")
    progress = None
    if not newly_passing:
        for test, r in base.items():
            p = after.get(test)
            if (r.status != "pass" and p is not None and p.status != "pass"
                    and _ref_align_traces(r.frames, p.frames) == "progressed"):
                d = _ref_divergence(r.frames, p.frames)
                progress = (test, d, r.frames[d], p.frames[d])
                break
    return ("pass-all" if all_pass
            else "promising" if newly_passing or progress is not None
            else "no-progress")


FRAMES = st.lists(st.builds(
    StackFrame, unit=st.sampled_from(["C", "T"]),
    method=st.sampled_from(["test", "work", "inner"]),
    file=st.sampled_from(["C.java", "T.java"]),
    line=st.integers(0, 3)), max_size=4)
# Each side draws its own test ids, so a test can be missing from either.
REPORT = st.builds(TestReport, st.lists(st.builds(
    TestResult, test=st.sampled_from(["t1", "t2", "t3"]),
    status=st.sampled_from(["pass", "fail", "error", "timeout"]),
    frames=FRAMES), max_size=4))


@settings(max_examples=500, deadline=None)
@given(REPORT, REPORT)
def test_classify_equals_the_reference(baseline, patched):
    assert classify(baseline, patched) == _ref_classify(baseline, patched)
    for b in baseline.results:
        for p in patched.results:
            assert align_traces(b.frames, p.frames) == \
                _ref_align_traces(b.frames, p.frames)


def test_results_file_is_authoritative(tmp_path):
    # Nonzero harness exit with a valid results file still parses normally.
    script = tmp_path / "h.py"
    script.write_text(
        "import json, os, sys\n"
        "with open(os.environ['RESULTS_PATH'], 'w') as fh:\n"
        "    fh.write(json.dumps({'test': 't1', 'status': 'fail',"
        " 'message': 'x', 'frames': []}) + '\\n')\n"
        "sys.exit(3)\n", encoding="utf-8")
    harness = HarnessConfig(command="python3 h.py", timeout=10.0)
    rep = run_tests(tmp_path, harness)
    assert rep.harness_exit == 3
    assert [r.status for r in rep.results] == ["fail"]
