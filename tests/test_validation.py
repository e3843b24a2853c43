import filecmp
import json
import time
from pathlib import Path

import pytest

from conftest import PROJECT, estimator_method
from siblingfix.llm import Patch, PatchEdit
from siblingfix.source_index import index_source
from siblingfix.validation import (HarnessConfig, HarnessProtocolError,
                                   PatchApplicationError, StackFrame,
                                   TestReport, TestResult, align_traces,
                                   apply_patch, classify, patched_texts,
                                   run_tests)


def tree_equal(a: Path, b: Path) -> bool:
    cmp = filecmp.dircmp(a, b)
    if cmp.left_only or cmp.right_only or cmp.diff_files:
        return False
    return all(tree_equal(a / d, b / d) for d in cmp.common_dirs)


def test_empty_patch_identity(mini_index, tmp_path):
    ws = apply_patch(PROJECT, Patch(edits=()), mini_index, workspace_root=tmp_path)
    assert tree_equal(PROJECT, ws)


def test_single_edit_locality(mini_index, tmp_path):
    patch = Patch(edits=(PatchEdit("src/Estimator.java", "getRms",
                                   estimator_method("getRms", fixed=True)),))
    ws = apply_patch(PROJECT, patch, mini_index, workspace_root=tmp_path)
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


def test_unresolvable_method_errors(mini_index, tmp_path):
    missing = Patch(edits=(PatchEdit("src/Estimator.java", "vanished", "x"),))
    with pytest.raises(PatchApplicationError):
        apply_patch(PROJECT, missing, mini_index, workspace_root=tmp_path)
    unknown_file = Patch(edits=(PatchEdit("src/Nope.java", "f", "x"),))
    with pytest.raises(PatchApplicationError):
        apply_patch(PROJECT, unknown_file, mini_index, workspace_root=tmp_path)


def test_own_body_patch_is_identity_across_form_feed(tmp_path):
    project = tmp_path / "project"
    project.mkdir()
    text = "class F {\n  // page\x0cbreak\n  int f() {\n    return 1;\n  }\n}\n"
    (project / "F.java").write_text(text, encoding="utf-8")
    index = index_source(project, ["*.java"])
    ref = index.methods_named("F.java", "f")[0]
    patch = Patch(edits=(PatchEdit("F.java", "f", index.method_body(ref)),))
    ws = apply_patch(project, patch, index, workspace_root=tmp_path)
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
    workspaces = tmp_path / "workspaces"
    workspaces.mkdir()
    patch = Patch(edits=(PatchEdit("F.java", "f",
                                   "  int f() {\n    return 2;\n  }"),))
    with pytest.raises(PatchApplicationError,
                       match="file changed since indexing: F.java"):
        apply_patch(project, patch, index, workspace_root=workspaces)
    assert list(workspaces.glob("repair-ws-*")) == []


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
    assert classify(baseline, patched).kind == "pass-all"


def test_classify_newly_passing_promising():
    baseline = report(res("t1", "fail"), res("t2", "fail"))
    patched = report(res("t1", "pass"), res("t2", "fail"))
    verdict = classify(baseline, patched)
    assert verdict.kind == "promising"
    assert verdict.newly_passing == ["t1"]


def test_classify_trace_progress_promising():
    baseline = report(res("t1", "fail", [TEST_FRAME, frame(line=10)]))
    patched = report(res("t1", "fail", [TEST_FRAME, frame(line=22)]))
    verdict = classify(baseline, patched)
    assert verdict.kind == "promising"
    assert verdict.trace_progress.test == "t1"
    assert verdict.trace_progress.divergence_index == 1


def test_classify_self_comparison_no_progress():
    baseline = report(res("t1", "fail", [TEST_FRAME, frame(line=10)]),
                      res("t2", "pass"))
    verdict = classify(baseline, baseline)
    assert verdict.kind == "no-progress"


def test_classify_regressions_recorded_not_vetoing():
    baseline = report(res("t1", "fail"), res("t2", "pass"))
    patched = report(res("t1", "pass"), res("t2", "fail"))
    verdict = classify(baseline, patched)
    assert verdict.kind == "promising"
    assert verdict.regressions == ["t2"]


def test_classify_missing_test_blocks_pass_all():
    baseline = report(res("t1", "fail"), res("t2", "pass"))
    patched = report(res("t2", "pass"))  # t1 vanished from the results
    assert classify(baseline, patched).kind == "no-progress"


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
