import json
import os
import re
import shutil
import signal
import sqlite3
import subprocess
import sys
import threading
import time
from contextlib import closing

import pytest

from conftest import (DESCRIPTOR, EXPECTED_DIFF, FIXTURES,
                      PartialThenFullBackend, write_descriptor)
from siblingfix import orchestrator
from siblingfix.cli import main, parse_duration
from siblingfix.embeddings import EmbeddingCache
from siblingfix.llm import Patch, PatchEdit
from siblingfix.orchestrator import (DescriptorError, load_descriptor,
                                     make_backend, make_provider, patch_to_diff,
                                     run)
from siblingfix.source_index import index_source
from siblingfix.validation import Workspace, apply_patch


def test_load_descriptor_defaults():
    desc = load_descriptor(DESCRIPTOR)
    assert desc.mode == "sbfl"
    assert desc.config.attempts == 1
    assert desc.config.test_timeout == 30.0
    assert desc.harness_command == "python3 harness.py"
    assert desc.project_root.is_dir()


def test_overrides_win():
    desc = load_descriptor(DESCRIPTOR, {"mode": "spfl", "attempts": 3,
                                        "theta": 0.5})
    assert desc.mode == "spfl"
    assert desc.spfl_location == ("src/Estimator.java", 22)
    assert desc.config.attempts == 3
    assert desc.config.theta == 0.5


def test_descriptor_errors(tmp_path):
    with pytest.raises(DescriptorError):
        load_descriptor(tmp_path / "nope.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    with pytest.raises(DescriptorError):
        load_descriptor(bad)
    incomplete = tmp_path / "inc.json"
    incomplete.write_text(json.dumps({"project_root": "."}))
    with pytest.raises(DescriptorError):
        load_descriptor(incomplete)
    with pytest.raises(DescriptorError):
        load_descriptor(DESCRIPTOR, {"mode": "telepathy"})


def test_missing_coverage_is_exit_2(tmp_path):
    data = json.loads(DESCRIPTOR.read_text())
    data["project_root"] = str(FIXTURES / "project")
    data["backend"]["directory"] = str(FIXTURES / "responses")
    data["coverage"] = "missing.jsonl"
    desc = tmp_path / "d.json"
    desc.write_text(json.dumps(data))
    code, report, run_dir = run(desc, out_dir=tmp_path / "runs")
    assert code == 2
    assert run_dir is None
    assert "error" in report


@pytest.mark.parametrize("bad", [{"theta": 1.5}, {"alpha": 7},
                                 {"temperature": -0.5}, {"cap": 0},
                                 {"token_budget": 0}, {"max_tokens": 0},
                                 {"test_timeout": 0}],
                         ids=["theta", "alpha", "temperature", "cap",
                              "token-budget", "max-tokens", "test-timeout"])
def test_bad_config_value_is_exit_2_before_any_harness_run(tmp_path, bad):
    data = json.loads(DESCRIPTOR.read_text())
    data["project_root"] = str(FIXTURES / "project")
    data["coverage"] = str(FIXTURES / "coverage.jsonl")
    data["backend"]["directory"] = str(FIXTURES / "responses")
    marker = tmp_path / "harness-ran"
    data["harness"]["command"] = f"touch '{marker}'; python3 harness.py"
    data["config"].update(bad)
    desc = tmp_path / "d.json"
    desc.write_text(json.dumps(data))
    code, report, run_dir = run(desc, out_dir=tmp_path / "runs")
    assert code == 2
    assert run_dir is None and not (tmp_path / "runs").exists()
    assert "bad config value" in report["error"]
    assert not marker.exists()


def test_zero_harness_timeout_is_exit_2(tmp_path, capsys):
    desc = write_descriptor(
        tmp_path, harness={"command": "python3 harness.py", "timeout": 0})
    code = main(["run", str(desc), "--out", str(tmp_path / "runs")])
    assert code == 2
    assert not (tmp_path / "runs").exists()
    assert "bad config value" in capsys.readouterr().err


def test_crlf_file_keeps_its_line_ends(tmp_tempdir):
    """A CRLF file is indexed with "\n" ends, written back patched with
    CRLF throughout, and diffed against its own bytes, so the diff applies
    to the original."""
    original = (b"class B {\r\n  int h() {\r\n    return 3;\r\n  }\r\n"
                b"  int k() {\r\n    return 4;\r\n  }\r\n}\r\n")
    project = tmp_tempdir / "project"
    project.mkdir()
    (project / "B.java").write_bytes(original)
    index = index_source(project, ["*.java"])
    assert "\r" not in index.files["B.java"].text
    patch = Patch(edits=(PatchEdit("B.java", "h",
                                   "  int h() {\n    return 30;\n  }"),))
    workspace = Workspace(project, index)
    try:
        written = (apply_patch(workspace, patch) / "B.java").read_bytes()
    finally:
        workspace.remove()
    assert written == original.replace(b"return 3;", b"return 30;")
    assert written.count(b"\n") == written.count(b"\r\n") == 8
    lines = original.decode().splitlines(keepends=True)
    body = re.findall(r"[^\n]*\n", patch_to_diff(patch, index))[3:]
    assert [l for l in body if l[0] in "-+"] == [
        "-    return 3;\r\n", "+    return 30;\r\n"]
    assert all(l[1:] in lines for l in body if l[0] in " -")


def test_make_backend_and_provider():
    backend = make_backend({"type": "scripted", "directory": str(FIXTURES)})
    assert backend.on_missing == "error"
    provider = make_provider({"type": "local-hash", "dimension": 16})
    assert provider.dimension == 16
    # A setting the spec leaves out takes its constructor's default.
    assert make_provider({}).dimension == 512
    remote = {"type": "remote", "url": "http://x", "model": "m"}
    assert make_backend(remote).api_key_env == "LLM_API_KEY"
    assert make_provider(remote).api_key_env == "EMBED_API_KEY"
    with pytest.raises(DescriptorError):
        make_backend({"type": "quantum"})
    with pytest.raises(DescriptorError):
        make_provider({"type": "quantum"})


@pytest.mark.parametrize("changes", [{"backend": {"type": "quantum"}},
                                     {"provider": {"type": "quantum"}}],
                         ids=["backend", "provider"])
def test_unknown_component_type_is_exit_2(tmp_path, capsys, changes):
    desc = write_descriptor(tmp_path, **changes)
    with pytest.raises(DescriptorError, match="unknown .* type: 'quantum'"):
        load_descriptor(desc)
    assert main(["run", str(desc), "--out", str(tmp_path / "runs")]) == 2
    assert not (tmp_path / "runs").exists()
    assert capsys.readouterr().err.startswith("error: unknown ")


def test_run_directory_artifacts(tmp_path):
    code, report, run_dir = run(DESCRIPTOR, out_dir=tmp_path / "runs")
    assert code == 0
    assert (run_dir / "report.json").is_file()
    prompts = list((run_dir / "prompts").iterdir())
    responses = list((run_dir / "responses").iterdir())
    assert [p.name for p in prompts] == ["src_Estimator_java_L4_attempt1.txt"]
    assert [p.name for p in responses] == ["src_Estimator_java_L4_attempt1.txt"]
    diff = (run_dir / "patches" / "plausible_1.diff").read_bytes()
    assert diff == EXPECTED_DIFF.read_bytes()


def test_run_directory_taken_after_the_check_gets_the_next_name(tmp_path,
                                                                monkeypatch):
    """A run that starts in the same second as another, into the same
    `--out`, and finds its stamp taken only when it creates it, takes the
    next free name."""
    monkeypatch.setattr(orchestrator.time, "strftime",
                        lambda fmt: "20260101-000000")
    out = tmp_path / "runs"
    (out / "20260101-000000").mkdir(parents=True)
    monkeypatch.setattr(orchestrator.Path, "exists", lambda self: False)
    assert orchestrator._make_run_dir(out) == out / "20260101-000000-1"


def test_diff_lines_end_at_newline_only(tmp_path):
    (tmp_path / "F.java").write_text(
        "class F {\n  // page\x0cbreak\n  int f() {\n    return 1;\n  }\n}\n",
        encoding="utf-8")
    index = index_source(tmp_path, ["*.java"])
    patch = Patch(edits=(PatchEdit("F.java", "f",
                                   "  int f() {\n    return 2;\n  }"),))
    assert patch_to_diff(patch, index) == (
        "--- a/F.java\n+++ b/F.java\n@@ -1,6 +1,6 @@\n"
        " class F {\n   // page\x0cbreak\n   int f() {\n"
        "-    return 1;\n+    return 2;\n   }\n }\n")


def test_report_schema(tmp_path):
    code, report, run_dir = run(DESCRIPTOR, out_dir=tmp_path / "runs")
    assert report["schema_version"] == 1
    assert report["mode"] == "sbfl"
    assert report["stopped"] == "plausible"
    assert report["config"]["theta"] == 0.75
    assert report["suspicious"][0] == {
        "file": "src/Estimator.java", "line": 4, "score": 1.0, "rank": 1}
    assert report["candidate_counts"]["src_Estimator_java_L4"]["pool"] > 0
    assert len(report["plausible"]) == 1
    assert report["plausible"][0]["diff"] == EXPECTED_DIFF.read_text()
    assert report["counts"]["llm_requests"] == 1
    # Attempt log carries no timestamps or absolute paths.
    dumped = json.dumps(report["attempt_log"])
    assert str(run_dir) not in dumped


def test_pfl_mode_uses_given_locations(tmp_path):
    data = json.loads(DESCRIPTOR.read_text())
    data["project_root"] = str(FIXTURES / "project")
    data["coverage"] = str(FIXTURES / "coverage.jsonl")
    data["backend"]["directory"] = str(FIXTURES / "responses")
    data["mode"] = "pfl"
    data["pfl"] = [{"file": "src/Estimator.java", "line": 22},
                   {"file": "src/Estimator.java", "line": 4}]
    desc = tmp_path / "d.json"
    desc.write_text(json.dumps(data))
    code, report, _ = run(desc, out_dir=tmp_path / "runs")
    assert code == 0
    assert [(s["file"], s["line"], s["rank"]) for s in report["suspicious"][:2]] \
        == [("src/Estimator.java", 22, 1), ("src/Estimator.java", 4, 2)]
    assert report["attempt_log"][0]["location"] == "src_Estimator_java_L22"


def test_backend_fatal_is_exit_3(tmp_path):
    data = json.loads(DESCRIPTOR.read_text())
    data["project_root"] = str(FIXTURES / "project")
    data["coverage"] = str(FIXTURES / "coverage.jsonl")
    data["backend"] = {"type": "scripted", "directory": str(tmp_path / "empty")}
    (tmp_path / "empty").mkdir()
    desc = tmp_path / "d.json"
    desc.write_text(json.dumps(data))
    code, report, _ = run(desc, out_dir=tmp_path / "runs")
    assert code == 3
    assert report["stopped"] == "backend-error"


def test_embedding_cache_persisted(tmp_path):
    data = json.loads(DESCRIPTOR.read_text())
    data["project_root"] = str(FIXTURES / "project")
    data["coverage"] = str(FIXTURES / "coverage.jsonl")
    data["backend"]["directory"] = str(FIXTURES / "responses")
    data["cache"] = str(tmp_path / "embeddings.json")
    desc = tmp_path / "d.json"
    desc.write_text(json.dumps(data))
    code, _, _ = run(desc, out_dir=tmp_path / "runs")
    assert code == 0
    assert (tmp_path / "embeddings.json").is_file()
    # Second run reuses the store and still succeeds identically.
    code2, report2, _ = run(desc, out_dir=tmp_path / "runs")
    assert code2 == 0
    assert report2["stopped"] == "plausible"


def test_parse_duration():
    assert parse_duration("5h") == 5 * 3600
    assert parse_duration("30m") == 1800
    assert parse_duration("90s") == 90
    assert parse_duration("1h30m") == 5400
    assert parse_duration("42") == 42
    with pytest.raises(Exception):
        parse_duration("soon")
    with pytest.raises(Exception):
        parse_duration("0s")


def test_cli_end_to_end(tmp_path, capsys):
    code = main(["run", str(DESCRIPTOR), "--out", str(tmp_path / "runs")])
    assert code == 0
    out = capsys.readouterr().out
    assert "plausible patches: 1" in out


def test_cli_invalid_descriptor(tmp_path):
    code = main(["run", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "runs")])
    assert code == 2


def test_cli_input_error_is_reported_once_on_stderr(tmp_path, capsys):
    code = main(["run", str(DESCRIPTOR), "--theta", "1.5",
                 "--out", str(tmp_path / "runs")])
    assert code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: bad config value: theta must be in [-1, 1]\n"


def test_baseline_harness_protocol_error_is_exit_2_with_report(tmp_path,
                                                                capsys):
    desc = write_descriptor(
        tmp_path, harness={"command": 'echo garbage > "$RESULTS_PATH"'})
    code, report, run_dir = run(desc, out_dir=tmp_path / "runs")
    assert code == 2
    assert json.loads((run_dir / "report.json").read_text()) == report
    assert report["stopped"] == "error"
    assert report["error"].startswith("HarnessProtocolError: ")
    assert ".repair-results.jsonl:1: " in report["error"]
    assert report["attempt_log"] == [] and report["plausible"] == []
    assert capsys.readouterr().err.startswith("error: ")


def test_baseline_with_no_failing_test_is_exit_2_with_report(tmp_path, capsys):
    """A harness that passes every test, as on an already fixed tree."""
    desc = write_descriptor(tmp_path, harness={
        "command": 'echo \'{"test": "t_smoke", "status": "pass"}\' > "$RESULTS_PATH"'})
    code, report, run_dir = run(desc, out_dir=tmp_path / "runs")
    assert code == 2
    assert json.loads((run_dir / "report.json").read_text()) == report
    assert report["stopped"] == "error"
    assert report["error"] == ("BaselineError: baseline run has no failing "
                               "tests; coverage and harness disagree")
    assert report["attempt_log"] == [] and report["plausible"] == []
    assert capsys.readouterr().err == (
        "error: baseline run has no failing tests; coverage and harness disagree\n")


def test_unexpected_error_propagates_after_report_and_cache(tmp_path,
                                                            monkeypatch):
    class CrashingBackend:
        requests = 0

        def complete(self, request):
            self.requests += 1
            if self.requests > 1:
                raise RuntimeError("backend crashed")
            return "no patch here"

    monkeypatch.setattr(orchestrator, "make_backend",
                        lambda spec: CrashingBackend())
    desc = write_descriptor(tmp_path)
    with pytest.raises(RuntimeError, match="backend crashed"):
        run(desc, out_dir=tmp_path / "runs")
    (run_dir,) = (tmp_path / "runs").iterdir()
    report = json.loads((run_dir / "report.json").read_text())
    assert report["stopped"] == "error"
    assert report["error"] == "RuntimeError: backend crashed"
    assert [(a["phase"], a["verdict"]) for a in report["attempt_log"]] == [
        ("sim-A", "parse-error")]
    assert report["counts"]["llm_requests"] == 2
    assert (tmp_path / "embeddings.json").is_file()


@pytest.mark.parametrize("changes", [
    {"mode": "spfl", "spfl": {"file": "src/Estimator.java", "line": "abc"}},
    {"mode": "pfl", "pfl": [{"file": "src/Estimator.java"}]},
    {"mode": "pfl", "pfl": ["src/Estimator.java:22"]},
    {"harness": {"command": "python3 harness.py", "timeout": "soon"}},
    {"config": 5},
    {"backend": {"type": "scripted"}},
    {"cache": 5},
    {"backend": {"type": "remote", "model": "m"}},
    {"provider": {"type": "remote", "url": "http://localhost:1"}},
    {"provider": {"type": "local-hash", "dimension": "x"}},
    {"provider": {"type": "local-hash", "dimension": 0}},
    {"provider": {"type": "local-hash", "dimension": -3}},
    {"include": "src/**/*.java"},
    {"include": ["src/**/*.java", 7]},
    {"include": ["/src/**/*.java"]},
    {"include": [""]},
    {"include": ["../**/*.java"]},
    {"config": {"attempts": 2.5}},
    {"config": {"k": 2.5}},
    {"config": {"cap": 1.5}},
    {"config": {"ingredients": 1.5}},
    {"config": {"token_budget": "x"}},
    {"config": {"test_timeout": "x"}},
    {"config": {"stop_on_first_plausible": "no"}},
    {"provider": {"type": "local-hash", "dimension": 7.9}},
    {"provider": {"type": "local-hash", "dimension": True}},
    {"mode": "spfl", "spfl": {"file": "src/Estimator.java", "line": 22.7}},
    {"mode": "pfl", "pfl": [{"file": "src/Estimator.java", "line": "4"}]},
    {"mode": "pfl", "pfl": [{"file": "src/Estimator.java", "line": 17}] * 2},
    {"harness": {"command": "python3 harness.py", "timeout": True}},
    {"harness": {"command": "python3 harness.py", "timeout": "30"}},
    {"backend": {"type": "scripted", "directory": str(FIXTURES / "responses"),
                 "on_missing": "bogus"}},
    {"harness": {"command": 5}},
    {"backend": {"type": "remote", "url": "http://localhost:1", "model": "m",
                 "api_key_env": 5}},
], ids=["spfl-line-not-a-number", "pfl-entry-without-line",
        "pfl-entry-a-string", "harness-timeout-not-a-number",
        "config-not-an-object", "scripted-backend-without-directory",
        "cache-not-a-path", "remote-backend-without-url",
        "remote-provider-without-model", "dimension-not-a-number",
        "dimension-zero", "dimension-negative", "include-a-string",
        "include-entry-not-a-string", "include-absolute", "include-empty",
        "include-parent", "attempts-a-float", "k-a-float", "cap-a-float",
        "ingredients-a-float", "token-budget-a-string",
        "test-timeout-a-string", "stop-on-first-plausible-a-string",
        "dimension-a-float", "dimension-a-bool", "spfl-line-a-float",
        "pfl-line-a-string", "pfl-location-repeated", "harness-timeout-a-bool",
        "harness-timeout-a-string", "on-missing-unknown",
        "harness-command-not-a-string", "api-key-env-not-a-string"])
def test_malformed_descriptor_value_is_exit_2(tmp_path, capsys, request,
                                              changes):
    desc = write_descriptor(tmp_path, **changes)
    with pytest.raises(DescriptorError):
        load_descriptor(desc)
    code = main(["run", str(desc), "--out", str(tmp_path / "runs")])
    assert code == 2
    assert not (tmp_path / "runs").exists()
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    if isinstance(changes.get("config"), dict):
        assert "bad config value" in err
    elif "-without-" in request.node.callspec.id:
        assert "descriptor missing required key" in err
    else:
        assert "bad descriptor value" in err


@pytest.mark.parametrize("cache", ["no-such-dir/emb.db", "."],
                         ids=["in-a-missing-directory", "a-directory"])
def test_unusable_embedding_store_is_exit_2(tmp_path, capsys, cache):
    desc = write_descriptor(tmp_path, cache=str(tmp_path / cache))
    code = main(["run", str(desc), "--out", str(tmp_path / "runs")])
    assert code == 2
    assert not (tmp_path / "runs").exists()
    assert capsys.readouterr().err.startswith(
        f"error: embedding cache unusable: {tmp_path / cache}: ")


@pytest.mark.parametrize("bad", [{"line": 4.7}, {"file": 5}],
                         ids=["line-a-float", "file-a-number"])
def test_cover_record_of_the_wrong_type_is_exit_2(tmp_path, capsys, bad):
    lines = (FIXTURES / "coverage.jsonl").read_text().splitlines()
    k = next(i for i, raw in enumerate(lines) if '"cover"' in raw)
    lines[k] = json.dumps({**json.loads(lines[k]), **bad})
    coverage = tmp_path / "coverage.jsonl"
    coverage.write_text("\n".join(lines) + "\n")
    desc = write_descriptor(tmp_path, coverage=str(coverage))
    code = main(["run", str(desc), "--out", str(tmp_path / "runs")])
    assert code == 2
    assert not (tmp_path / "runs").exists()
    assert capsys.readouterr().err.startswith(
        f"error: {coverage}:{k + 1}: malformed record: ")


def test_coverage_file_not_utf8_is_exit_2(tmp_path, capsys):
    coverage = tmp_path / "coverage.jsonl"
    coverage.write_bytes((FIXTURES / "coverage.jsonl").read_bytes()
                         + '{"type": "test", "id": "Andr\u00e9", "outcome": "pass"}\n'
                         .encode("latin-1"))
    desc = write_descriptor(tmp_path, coverage=str(coverage))
    code = main(["run", str(desc), "--out", str(tmp_path / "runs")])
    assert code == 2
    assert not (tmp_path / "runs").exists()
    assert capsys.readouterr().err.startswith(f"error: {coverage}: not UTF-8: ")


def test_latin1_source_file_is_skipped(tmp_tempdir, caplog):
    """A source file that is not UTF-8 is left out of the index with a
    warning; the run repairs the rest as before."""
    project = tmp_tempdir / "project"
    shutil.copytree(FIXTURES / "project", project)
    (project / "src" / "Legacy.java").write_bytes(
        "// Auteur: Andr\u00e9\nclass Legacy { }\n".encode("latin-1"))
    desc = write_descriptor(tmp_tempdir, project_root=str(project))
    code, report, run_dir = run(desc, out_dir=tmp_tempdir / "runs")
    assert code == 0
    assert "unreadable file skipped: src/Legacy.java" in caplog.text
    assert [p["diff"] for p in report["plausible"]] == [EXPECTED_DIFF.read_text()]


def test_report_is_written_before_the_cache_flush(tmp_path, monkeypatch):
    """A store that fails on write ends the run at the first flush; the
    report still records that, and the failure propagates."""
    def failing_flush(self):
        if self._pending:
            raise OSError("disk full")

    monkeypatch.setattr(EmbeddingCache, "flush", failing_flush)
    desc = write_descriptor(tmp_path)
    with pytest.raises(OSError, match="disk full"):
        run(desc, out_dir=tmp_path / "runs")
    (run_dir,) = (tmp_path / "runs").iterdir()
    report = json.loads((run_dir / "report.json").read_text())
    assert report["stopped"] == "error"
    assert report["error"] == "OSError: disk full"


def test_report_lists_promising_patches_with_their_edits(tmp_path,
                                                         monkeypatch):
    monkeypatch.setattr(orchestrator, "make_backend",
                        lambda spec: PartialThenFullBackend())
    desc = write_descriptor(tmp_path)
    code, report, run_dir = run(desc, {"attempts": 2,
                                       "stop_on_first_plausible": True},
                                out_dir=tmp_path / "runs")
    assert code == 0
    promising = report["attempt_log"][2]
    assert promising["verdict"] == "promising"
    assert report["promising"] == [{
        "id": promising["patch_id"], "provenance": "generated",
        "parent_id": None, "edits": [["src/Estimator.java", "getRms"]]}]
    assert json.loads((run_dir / "report.json").read_text()) == report


# Python ignores SIGINT when started with it ignored (as under `nohup` or
# a background job), so the child puts back its default handler.
_CLI_RUN = """import signal, sys
signal.signal(signal.SIGINT, signal.default_int_handler)
from siblingfix.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("signum, status", [(signal.SIGTERM, 143),
                                            (signal.SIGINT, 130)])
def test_cli_signal_stops_the_harness_and_writes_the_report(tmp_path, signum,
                                                            status):
    """SIGTERM, like Ctrl-C, during an attempt's harness run kills the
    harness's group, removes the workspace, writes report.json with
    `stopped: "interrupted"` and keeps the embeddings computed so far."""
    marks = tmp_path / "marks"
    ws_tmp = tmp_path / "ws-tmp"
    marks.mkdir()
    ws_tmp.mkdir()
    # The baseline runs the real harness; the first attempt's run forks a
    # child that would write `late` a second later, then hangs.
    desc = write_descriptor(tmp_path, harness={"command": (
        f"if [ -e {marks}/baseline ]; then touch {marks}/hung; "
        f"(sleep 1; touch {marks}/late) & sleep 30; "
        f"else touch {marks}/baseline; python3 harness.py; fi"), "timeout": 60})
    env = {**os.environ, "TMPDIR": str(ws_tmp), "PYTHONPATH": os.pathsep.join(
        [str(FIXTURES.parents[2] / "src"), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.Popen(
        [sys.executable, "-c", _CLI_RUN, "run", str(desc),
         "--out", str(tmp_path / "runs")], env=env, stderr=subprocess.PIPE)
    try:
        deadline = time.monotonic() + 60
        while not (marks / "hung").exists() and proc.poll() is None \
                and time.monotonic() < deadline:
            time.sleep(0.05)
        assert (marks / "hung").exists(), f"run exited with {proc.returncode}"
        proc.send_signal(signum)
        _, err = proc.communicate(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate(timeout=30)
    assert proc.returncode == status
    assert f"interrupted by {signum.name}" in err.decode()
    time.sleep(1.5)  # the signal came within the child's 1 s
    assert not (marks / "late").exists()
    assert list(ws_tmp.iterdir()) == []
    [report_path] = (tmp_path / "runs").glob("*/report.json")
    report = json.loads(report_path.read_text())
    assert report["stopped"] == "interrupted"
    assert report["attempt_log"] == []
    with closing(sqlite3.connect(tmp_path / "embeddings.json")) as db:
        assert db.execute("SELECT count(*) FROM embeddings").fetchone()[0] > 0


def test_cli_restores_the_sigterm_handler(tmp_path):
    before = signal.getsignal(signal.SIGTERM)
    assert main(["run", str(DESCRIPTOR), "--out", str(tmp_path / "runs")]) == 0
    assert signal.getsignal(signal.SIGTERM) is before


def test_cli_off_the_main_thread_leaves_signals_alone(tmp_path):
    before = signal.getsignal(signal.SIGTERM)
    codes = []
    worker = threading.Thread(target=lambda: codes.append(
        main(["run", str(DESCRIPTOR), "--out", str(tmp_path / "runs")])))
    worker.start()
    worker.join(timeout=60)
    assert codes == [0]
    assert signal.getsignal(signal.SIGTERM) is before


def test_signal_during_the_report_write_waits_for_it(tmp_path, monkeypatch):
    """A SIGTERM that arrives while the report is being written is held
    until the writes end: report.json is whole, and the CLI exits 143."""
    expected = run(DESCRIPTOR, out_dir=tmp_path / "reference")[1]
    build_report = orchestrator.build_report

    def signalled_build_report(*args):
        os.kill(os.getpid(), signal.SIGTERM)
        return build_report(*args)

    monkeypatch.setattr(orchestrator, "build_report", signalled_build_report)
    assert main(["run", str(DESCRIPTOR), "--out", str(tmp_path / "runs")]) == 143
    [report_path] = (tmp_path / "runs").glob("*/report.json")
    report = json.loads(report_path.read_text())
    assert report["attempt_log"] == expected["attempt_log"] != []
