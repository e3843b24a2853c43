import hashlib
import json
import math
import re
import shutil
import signal
import sys
import threading
import time
from pathlib import Path

import pytest

from conftest import (DESCRIPTOR_SLOW, FIXTURES, RESPONSES, PROJECT,
                      PartialThenFullBackend, RuleBackend, fresh_copy,
                      patch_response, prompt_section)
from siblingfix import (EmbeddingCache, LocalHashProvider, RepairConfig,
                        RepairEngine, SuspiciousLocation, engine as engine_module,
                        index_source, ochiai_rank, parse_patch)
from siblingfix.embeddings import EmbeddingError
from siblingfix.engine import (BaselineError, RepairState, _FileWriter, _Run,
                               location_id)
from siblingfix.llm import BackendError, Patch, ScriptedBackend, attempt_file
from siblingfix.localization import CoverageMatrix
from siblingfix.matching import CandidateSibling, extract_context
from siblingfix.orchestrator import run
from siblingfix.prompting import FEEDBACK_OTHER_TESTS
from siblingfix.validation import classify

pytestmark = pytest.mark.usefixtures("tmp_tempdir")


def make_engine(mini_index, mini_coverage, backend, run_dir=None, **cfg):
    config = RepairConfig(**cfg)
    return RepairEngine(
        project_root=str(PROJECT), index=mini_index, coverage=mini_coverage,
        backend=backend, provider=LocalHashProvider(), cache=EmbeddingCache(),
        harness_command="python3 harness.py", config=config, run_dir=run_dir)


def test_location_id():
    assert location_id("src/Estimator.java", 4) == "src_Estimator_java_L4"


def one_test_engine(tmp_path, files: dict[str, str], covered, backend):
    """An engine over a project of `files` whose one test `t` fails and
    covers the (file, line) pairs `covered`, saving to `tmp_path/run`."""
    project = tmp_path / "project"
    for rel, text in files.items():
        (project / rel).parent.mkdir(parents=True, exist_ok=True)
        (project / rel).write_text(text, encoding="utf-8")
    (project / "harness.py").write_text(
        "import json, os\n"
        "with open(os.environ['RESULTS_PATH'], 'w') as fh:\n"
        "    json.dump({'test': 't', 'status': 'fail'}, fh)\n", encoding="utf-8")
    return RepairEngine(
        project_root=str(project), index=index_source(project, ["**/*.java"]),
        coverage=CoverageMatrix(tests=[("t", "fail")], covered={"t": covered}),
        backend=backend, provider=LocalHashProvider(),
        cache=EmbeddingCache(), harness_command="python3 harness.py",
        config=RepairConfig(attempts=1), run_dir=tmp_path / "run")


def test_colliding_paths_get_their_own_location_ids(tmp_path):
    """`src/A.java` and `src_A.java` have one safe name. Each gets the path's
    SHA-1 prefix, so their attempt counters and prompt and response files
    stay apart; `B.java`, which shares its safe name with no path, keeps
    the plain id."""
    paths = ["src/A.java", "src_A.java", "B.java"]
    engine = one_test_engine(
        tmp_path,
        {rel: f"class C{i} {{\n    int f() {{\n        return total + 1;\n    }}\n}}\n"
         for i, rel in enumerate(paths)},
        {(rel, 3) for rel in paths}, ProseBackend())
    run_dir = tmp_path / "run"
    state = engine.repair_bug([SuspiciousLocation(rel, 3, 1.0, i)
                               for i, rel in enumerate(paths, 1)])
    assert state.stopped == "exhausted"
    sha = {rel: hashlib.sha1(rel.encode()).hexdigest()[:8] for rel in paths}
    ids = [f"src_A_java_{sha['src/A.java']}_L3", f"src_A_java_{sha['src_A.java']}_L3",
           "B_java_L3"]
    assert list(state.candidate_counts) == ids
    for loc in ids:
        attempts = [r.attempt for r in state.attempt_log if r.location == loc]
        assert attempts == list(range(1, len(attempts) + 1)) and attempts
    names = {f"{r.location}_attempt{r.attempt}.txt" for r in state.attempt_log}
    assert {p.name for p in (run_dir / "prompts").iterdir()} == names
    assert {p.name for p in (run_dir / "responses").iterdir()} == names


def test_config_validation():
    with pytest.raises(ValueError):
        RepairConfig(attempts=0)
    with pytest.raises(ValueError):
        RepairConfig(budget=0)
    with pytest.raises(ValueError):
        RepairConfig(alpha=7)
    # `cap: -1` would drop the last suspicious location, and a zero test
    # timeout would turn every validation into a timeout.
    for bad in [{"cap": 0}, {"cap": -1}, {"token_budget": 0}, {"max_tokens": 0},
                {"max_tokens": -5}, {"test_timeout": 0}, {"test_timeout": -1.5}]:
        with pytest.raises(ValueError):
            RepairConfig(**bad)


def test_early_exit_after_first_plausible(mini_index, mini_coverage):
    backend = ScriptedBackend(RESPONSES)
    engine = make_engine(mini_index, mini_coverage, backend, attempts=1)
    state = engine.repair_bug(ochiai_rank(mini_coverage))
    assert state.stopped == "plausible"
    assert len(state.attempt_log) == 1
    record = state.attempt_log[0]
    assert (record.location, record.phase, record.verdict) == (
        "src_Estimator_java_L4", "sim-A", "pass-all")
    # Only the top-ranked location was ever processed.
    assert set(state.candidate_counts) == {"src_Estimator_java_L4"}


def test_plausible_revalidates_from_pristine(mini_index, mini_coverage):
    backend = ScriptedBackend(RESPONSES)
    engine = make_engine(mini_index, mini_coverage, backend, attempts=1)
    state = engine.repair_bug(ochiai_rank(mini_coverage))
    (patch,) = state.plausible
    fresh = make_engine(mini_index, mini_coverage, backend, attempts=1)
    writer = _FileWriter()
    baseline = fresh._validate(Patch(edits=()), writer)
    report = fresh._validate(patch, writer)
    fresh.workspace.remove()
    assert baseline.failing
    assert classify(baseline, report) == "pass-all"


class ProseBackend:
    def complete(self, request):
        return "I am not able to produce a patch."


class PromptKeepingBackend(ProseBackend):
    def __init__(self):
        self.prompts = []

    def complete(self, request):
        self.prompts.append(request.prompt)
        return super().complete(request)


def test_sibling_outside_any_method_is_a_top_level_group(tmp_path):
    """A covered statement outside every method body, here a field
    initializer, groups with no method and is shown whole under a
    `(top-level)` header."""
    backend = PromptKeepingBackend()
    engine = one_test_engine(
        tmp_path, {"C.java": "class C {\n    int total = base + 1;\n"
                             "    int f() {\n        return total + 1;\n    }\n}\n"},
        {("C.java", 2), ("C.java", 4)}, backend)
    engine.repair_bug([SuspiciousLocation("C.java", 2, 1.0, 1)])
    buggy = prompt_section(backend.prompts[0], "buggy-methods")
    assert buggy.startswith("// file: C.java  (top-level)\nclass C {\n"
                            "    int total = base + 1;  // SIBLING\n")


def test_stop_on_first_plausible_stops_mid_phase(mini_index, mini_coverage):
    engine = make_engine(mini_index, mini_coverage, FixBackend(), attempts=3,
                         stop_on_first_plausible=True)
    state = engine.repair_bug(ochiai_rank(mini_coverage))
    assert [(r.phase, r.verdict) for r in state.attempt_log] == [
        ("sim-A", "pass-all")]


def test_stop_on_first_plausible_stops_between_groups(mini_index,
                                                       mini_coverage):
    """The first iterative group finds a promising and then a plausible
    patch; no later group starts, so the promising set it carried stays."""
    engine = make_engine(mini_index, mini_coverage, PartialThenFullBackend(),
                         attempts=2, stop_on_first_plausible=True)
    state = engine.repair_bug(ochiai_rank(mini_coverage))
    assert [(r.phase, r.verdict) for r in state.attempt_log] == [
        ("sim-A", "parse-error"), ("sim-A", "parse-error"),
        ("iter-A", "promising"), ("iter-A", "pass-all")]
    assert [[e.method for e in p.edits] for p in state.promising] == [["getRms"]]


def test_exhaustion_without_patches(mini_index, mini_coverage):
    engine = make_engine(mini_index, mini_coverage, ProseBackend(),
                         attempts=2, cap=2)
    state = engine.repair_bug(ochiai_rank(mini_coverage))
    assert state.stopped == "exhausted"
    assert state.plausible == []
    assert all(r.verdict == "parse-error" for r in state.attempt_log)


def test_attempt_counts_bounded(mini_index, mini_coverage):
    t = 2
    engine = make_engine(mini_index, mini_coverage, ProseBackend(),
                         attempts=t, cap=1)
    state = engine.repair_bug(ochiai_rank(mini_coverage))
    phases = {}
    for rec in state.attempt_log:
        phases.setdefault((rec.phase, rec.location), []).append(rec)
    # Phase A runs exactly t attempts; Phase B never runs with empty P_pro.
    assert len(phases[("sim-A", "src_Estimator_java_L4")]) == t
    assert not any(phase in ("sim-B", "iter-B") for phase, _ in phases)
    for (phase, _), recs in phases.items():
        if phase in ("sim-A",):
            assert len(recs) <= t


def test_sim_phase_b_combines_disjoint_edits(mini_index, mini_coverage):
    class CBackend:
        def complete(self, request):
            return patch_response("getCovariances")

    engine = make_engine(mini_index, mini_coverage, CBackend(),
                         attempts=1, stop_on_first_plausible=True)
    writer = _FileWriter()
    run = _Run(RepairState(), engine._validate(Patch(edits=()), writer),
               writer, math.inf)
    assert run.baseline.failing
    state = run.state
    state.promising = [parse_patch(patch_response("getRms", "guessErrors"))]
    stmt = mini_index.statement_at("src/Estimator.java", 4)
    target = extract_context(mini_index, stmt)
    cands = [CandidateSibling(context=target, token_similarity=1.0,
                              embedding_similarity=1.0, jaccard_similarity=1.0)]
    engine.simultaneous_repair(cands, target, run, "src_Estimator_java_L4")
    engine.workspace.remove()
    (patch,) = state.plausible
    assert patch.provenance == "combined"
    assert sorted(e.method for e in patch.edits) == [
        "getCovariances", "getRms", "guessErrors"]
    # Simultaneous repair reads but never writes the promising set.
    assert [p.id for p in state.promising] == [state.promising[0].id]
    assert len(state.promising) == 1


def test_iterative_carry_over_composes_fix(mini_index, mini_coverage):
    backend = RuleBackend()
    engine = make_engine(mini_index, mini_coverage, backend, attempts=1)
    state = engine.repair_bug(ochiai_rank(mini_coverage))
    assert state.stopped == "plausible"
    (patch,) = state.plausible
    assert sorted(e.method for e in patch.edits) == [
        "getCovariances", "getRms", "guessErrors"]
    verdicts = [(r.phase, r.verdict) for r in state.attempt_log]
    # Simultaneous repair failed outright; progress came from iteration.
    assert ("sim-A", "parse-error") in verdicts
    assert ("iter-A", "promising") in verdicts
    assert ("iter-B", "promising") in verdicts
    assert ("iter-B", "no-progress") in verdicts  # carried patch survived this
    assert verdicts[-1] == ("iter-B", "pass-all")


def test_promising_set_never_holds_no_progress_patches(mini_index,
                                                       mini_coverage):
    class PartialBackend:
        """Only ever fixes getRms; everything else is prose."""

        def complete(self, request):
            buggy = prompt_section(request.prompt, "buggy-methods")
            methods = re.findall(r"// file: \S+  method: (\w+)", buggy)
            if methods == ["getRms"]:
                return patch_response("getRms")
            return "no idea"

    engine = make_engine(mini_index, mini_coverage, PartialBackend(),
                         attempts=1)
    state = engine.repair_bug(ochiai_rank(mini_coverage))
    assert state.plausible == []
    promising_ids = {p.id for p in state.promising}
    logged_promising = {r.patch_id for r in state.attempt_log
                        if r.verdict == "promising"}
    logged_bad = {r.patch_id for r in state.attempt_log
                  if r.verdict == "no-progress"}
    assert promising_ids <= (logged_promising | set())
    assert not promising_ids & (logged_bad - logged_promising)


def test_deterministic_attempt_log(mini_index, mini_coverage):
    runs = []
    for i in range(2):
        engine = make_engine(mini_index, mini_coverage, RuleBackend(),
                             attempts=1)
        state = engine.repair_bug(ochiai_rank(mini_coverage))
        runs.append([(r.location, r.phase, r.attempt, r.verdict, r.patch_id)
                     for r in state.attempt_log])
    assert runs[0] == runs[1]


def test_second_repair_bug_numbers_its_attempts_afresh(mini_index, mini_coverage):
    """A second run on one engine numbers its attempts from 1, as the first
    did, so it reads the same scripted responses and logs the same attempts."""
    engine = make_engine(mini_index, mini_coverage, ScriptedBackend(RESPONSES),
                         attempts=1)
    first = engine.repair_bug(ochiai_rank(mini_coverage))
    second = engine.repair_bug(ochiai_rank(mini_coverage))
    assert (first.stopped, second.stopped) == ("plausible", "plausible")
    assert second.attempt_log == first.attempt_log


def _run_files(run_dir: Path) -> dict[str, bytes]:
    return {f"{sub}/{p.name}": p.read_bytes()
            for sub in ("prompts", "responses") for p in (run_dir / sub).iterdir()}


@pytest.mark.parametrize("first", ["returns", "write-fails", "interrupted"])
def test_no_run_state_is_left_on_the_engine(mini_index, mini_coverage, tmp_path,
                                            monkeypatch, first):
    """However a run ends (it returns, raises on a failed run-directory
    write, or is interrupted while the pool is built), repair_bug binds no
    engine attribute anew. Once the run directory is repaired, a second run
    on the same engine logs and writes what a run on a fresh engine does."""
    interrupt = [first == "interrupted"]
    build = RepairEngine._build_pool

    def build_pool(self):
        if interrupt[0]:
            raise KeyboardInterrupt
        return build(self)
    monkeypatch.setattr(RepairEngine, "_build_pool", build_pool)
    run_dir = tmp_path / "run"
    engine = make_engine(mini_index, mini_coverage, RuleBackend(),
                         run_dir=run_dir, attempts=1)
    attributes = {k: id(v) for k, v in vars(engine).items()}
    if first == "returns":
        assert engine.repair_bug(ochiai_rank(mini_coverage)).stopped == "plausible"
    else:
        if first == "write-fails":
            (run_dir / "responses").rmdir()
            (run_dir / "responses").write_text("", encoding="utf-8")
        with pytest.raises(KeyboardInterrupt if interrupt[0]
                           else NotADirectoryError):
            engine.repair_bug(ochiai_rank(mini_coverage))
    assert {k: id(v) for k, v in vars(engine).items()} == attributes
    interrupt[0] = False
    for sub in ("prompts", "responses"):
        if (run_dir / sub).is_dir():
            shutil.rmtree(run_dir / sub)
        else:
            (run_dir / sub).unlink()
        (run_dir / sub).mkdir()
    second = engine.repair_bug(ochiai_rank(mini_coverage))
    assert {k: id(v) for k, v in vars(engine).items()} == attributes
    fresh = make_engine(mini_index, mini_coverage, RuleBackend(),
                        run_dir=tmp_path / "fresh", attempts=1)
    assert second.attempt_log == \
        fresh.repair_bug(ochiai_rank(mini_coverage)).attempt_log
    assert _run_files(run_dir) == _run_files(tmp_path / "fresh")


def test_baseline_disagreement_is_fatal(mini_index, mini_coverage, tmp_tempdir):
    engine = make_engine(mini_index, mini_coverage, ProseBackend())
    engine.harness.command = "python3 -c \"import os;open(os.environ['RESULTS_PATH'],'w').write('')\""
    state = RepairState()
    with pytest.raises(BaselineError, match="no failing tests"):
        engine.repair_bug(ochiai_rank(mini_coverage), state)
    assert state.attempt_log == []
    assert engine.workspace.path is None
    assert not list(tmp_tempdir.glob("repair-ws-*"))


def test_failing_embedding_provider_stops_the_run(mini_index, mini_coverage):
    class DownProvider:
        name, model, batch_size = "down", "d", 8

        def embed_batch(self, texts):
            raise EmbeddingError("embedding provider failed after retries")

    engine = make_engine(mini_index, mini_coverage, ProseBackend())
    engine.provider = DownProvider()
    state = engine.repair_bug(ochiai_rank(mini_coverage))
    assert state.stopped == "backend-error"
    assert state.error == "embedding provider failed after retries"
    assert state.attempt_log == []


class FixBackend:
    """Always answers with the full fix; keeps each prompt's feedback."""

    def __init__(self):
        self.feedback = []

    def complete(self, request):
        self.feedback.append(prompt_section(request.prompt, "feedback"))
        return patch_response("getRms", "guessErrors", "getCovariances")


def test_plausible_patch_is_fed_back_without_its_report(mini_index,
                                                        mini_coverage):
    backend = FixBackend()
    engine = make_engine(mini_index, mini_coverage, backend, attempts=2, cap=1)
    state = engine.repair_bug(ochiai_rank(mini_coverage))
    assert [(r.phase, r.verdict) for r in state.attempt_log][:2] == [
        ("sim-A", "pass-all"), ("sim-A", "pass-all")]
    second = backend.feedback[1]
    assert "PREVIOUS PATCH:" in second
    assert "OUTCOME: passed all tests (plausible)" in second
    assert "TEST " not in second


def test_harness_protocol_error_on_a_candidate_is_fed_back(mini_index,
                                                           mini_coverage):
    """A harness that writes a malformed results line once the fix is in
    gives `harness-error` attempts; the run goes on, and the next prompt
    carries the error."""
    backend = FixBackend()
    engine = make_engine(mini_index, mini_coverage, backend, attempts=2, cap=1)
    engine.harness.command = (
        "if grep -q getUnboundParameters src/Estimator.java; "
        "then echo garbage > \"$RESULTS_PATH\"; else python3 harness.py; fi")
    state = engine.repair_bug(ochiai_rank(mini_coverage))
    assert state.stopped == "exhausted" and state.plausible == []
    assert [(r.phase, r.verdict) for r in state.attempt_log][:2] == [
        ("sim-A", "harness-error"), ("sim-A", "harness-error")]
    assert all(r.patch_id for r in state.attempt_log)
    assert "ATTEMPT OUTCOME: harness protocol error: " in backend.feedback[1]
    assert ".repair-results.jsonl:1: " in backend.feedback[1]


def test_harness_log_tail_is_saved_under_the_patch_id(mini_index, mini_coverage,
                                                      tmp_path):
    """A candidate whose harness run writes no results leaves the log's
    tail in `harness/<patch id>.txt`; the baseline, which gave results,
    leaves none."""
    run_dir = tmp_path / "run"
    engine = RepairEngine(
        project_root=str(PROJECT), index=mini_index, coverage=mini_coverage,
        backend=FixBackend(), provider=LocalHashProvider(), cache=EmbeddingCache(),
        harness_command=(
            "if grep -q getUnboundParameters src/Estimator.java; "
            "then echo 'Estimator.java:4: error: cannot find symbol' >&2; exit 1; "
            "else python3 harness.py; fi"),
        config=RepairConfig(attempts=1, cap=1), run_dir=run_dir)
    state = engine.repair_bug(ochiai_rank(mini_coverage))
    ids = {r.patch_id for r in state.attempt_log}
    assert ids and None not in ids
    assert sorted(p.name for p in (run_dir / "harness").iterdir()) == \
        sorted(f"{i}.txt" for i in ids)
    for i in ids:
        assert (run_dir / "harness" / f"{i}.txt").read_text(encoding="utf-8") == \
            "Estimator.java:4: error: cannot find symbol\n"


def test_harness_error_keeps_the_log_tail(mini_index, mini_coverage, tmp_path):
    """A candidate whose harness writes a malformed results line is a
    `harness-error` attempt and leaves the log's tail in
    `harness/<patch id>.txt`, as a run without results does."""
    run_dir = tmp_path / "run"
    engine = RepairEngine(
        project_root=str(PROJECT), index=mini_index, coverage=mini_coverage,
        backend=FixBackend(), provider=LocalHashProvider(), cache=EmbeddingCache(),
        harness_command=(
            "if grep -q getUnboundParameters src/Estimator.java; "
            "then echo 'reporter crashed' >&2; echo garbage > \"$RESULTS_PATH\"; "
            "else python3 harness.py; fi"),
        config=RepairConfig(attempts=1, cap=1), run_dir=run_dir)
    state = engine.repair_bug(ochiai_rank(mini_coverage))
    errors = {r.patch_id for r in state.attempt_log if r.verdict == "harness-error"}
    assert errors and None not in errors
    assert sorted(p.name for p in (run_dir / "harness").iterdir()) == \
        sorted(f"{i}.txt" for i in errors)
    for i in errors:
        assert (run_dir / "harness" / f"{i}.txt").read_text(encoding="utf-8") == \
            "reporter crashed\n"


# Records the SHA-256 of every file under the harness's working directory,
# the harness's own files left out, as one JSON line appended to argv[1];
# then runs the fixture's harness script argv[2], with no sleep.
RECORDER = """
import hashlib, json, os, runpy, sys, time
tree = {}
for dirpath, _, names in os.walk("."):
    for name in names:
        if not name.startswith(".repair-"):
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                rel = os.path.relpath(path).replace(os.sep, "/")
                tree[rel] = hashlib.sha256(fh.read()).hexdigest()
with open(sys.argv[1], "a") as fh:
    fh.write(json.dumps(tree, sort_keys=True) + "\\n")
time.sleep = lambda seconds: None
runpy.run_path(sys.argv[2], run_name="__main__")
"""


@pytest.mark.parametrize("case", ["slow-run", "carry"])
def test_harness_sees_the_fresh_copy_tree_on_every_validation(
        mini_index, mini_coverage, tmp_tempdir, monkeypatch, case):
    """On every validation of the fixture's slow run, and of a run whose
    iterative phases carry promising patches, the harness sees exactly the
    tree a fresh copy of the project with that validation's patch applied
    would show."""
    recorder, seen = tmp_tempdir / "recorder.py", tmp_tempdir / "seen.jsonl"
    recorder.write_text(RECORDER, encoding="utf-8")
    command = f'"{sys.executable}" "{recorder}" "{seen}"'
    patches = []
    apply = engine_module.apply_patch
    monkeypatch.setattr(engine_module, "apply_patch",
                        lambda ws, patch: patches.append(patch) or apply(ws, patch))
    if case == "slow-run":
        data = json.loads(DESCRIPTOR_SLOW.read_text(encoding="utf-8"))
        data.update(project_root=str(PROJECT),
                    coverage=str(FIXTURES / "coverage.jsonl"),
                    cache=str(tmp_tempdir / "embeddings.db"))
        data["backend"]["directory"] = str(FIXTURES / data["backend"]["directory"])
        data["harness"]["command"] = f"{command} slow_harness.py"
        desc = tmp_tempdir / "slow.json"
        desc.write_text(json.dumps(data), encoding="utf-8")
        _, report, _ = run(desc, out_dir=tmp_tempdir / "runs")
        assert report["stopped"] == "exhausted"
    else:
        engine = make_engine(mini_index, mini_coverage, RuleBackend(),
                             attempts=2)
        engine.harness.command = f"{command} harness.py"
        assert engine.repair_bug(ochiai_rank(mini_coverage)).stopped == "plausible"
    trees = [json.loads(line) for line in seen.read_text().splitlines()]
    assert len(trees) == len(patches) >= 2 and patches[1].edits
    assert trees == [{rel: hashlib.sha256(data).hexdigest() for rel, data
                      in fresh_copy(PROJECT, p, mini_index).items()}
                     for p in patches]
    assert list(tmp_tempdir.glob("repair-ws-*")) == []


def test_harness_that_rewrites_a_source_gets_a_fresh_copy(
        mini_index, mini_coverage, caplog):
    """A harness that appends to an indexed source after each run makes
    every later validation copy the project afresh, with a warning, and
    the run goes as with a harness that leaves sources alone."""
    runs = []
    for command in ["python3 harness.py",
                    "python3 harness.py; echo '// touched' >> src/Solver.java"]:
        engine = make_engine(mini_index, mini_coverage, RuleBackend(),
                             attempts=1)
        engine.harness.command = command
        state = engine.repair_bug(ochiai_rank(mini_coverage))
        runs.append((state.attempt_log, [p.id for p in state.plausible],
                     [p.id for p in state.promising], state.stopped,
                     caplog.text.count("copying the project afresh")))
    (clean_log, *clean, clean_warnings), (log, *rest, warnings) = runs
    assert log == clean_log and rest == clean and clean_warnings == 0
    assert warnings == len(engine._validation_cache) - 1 > 1


def test_successive_edits_of_a_file_raise_its_mtime(mini_index, mini_coverage,
                                                    tmp_tempdir):
    """Every validation after the baseline edits src/Estimator.java; the
    harness sees its mtime rise strictly from one validation to the next."""
    log = tmp_tempdir / "mtimes.txt"
    engine = make_engine(mini_index, mini_coverage, RuleBackend(), attempts=1)
    engine.harness.command = (
        "python3 -c \"import os; print(os.stat('src/Estimator.java')"
        f".st_mtime_ns)\" >> '{log}'; python3 harness.py")
    engine.repair_bug(ochiai_rank(mini_coverage))
    mtimes = [int(line) for line in log.read_text().split()]
    assert len(mtimes) == len(engine._validation_cache) > 2
    assert all(a < b for a, b in zip(mtimes, mtimes[1:]))


class RaisingBackend:
    def __init__(self, exc):
        self.exc = exc

    def complete(self, request):
        raise self.exc


# How to make a run stop each way: the backend and the config.
STOPS = {
    "plausible": (lambda: ScriptedBackend(RESPONSES), {}),
    "exhausted": (ProseBackend, {"cap": 1}),
    "budget": (ProseBackend, {"budget": 1e-9}),
    "backend-error": (lambda: RaisingBackend(BackendError("down")), {}),
    "exception": (lambda: RaisingBackend(RuntimeError("bug")), {}),
}


@pytest.mark.parametrize("keep", [False, True], ids=["removed", "kept"])
@pytest.mark.parametrize("stop", STOPS)
def test_no_workspace_is_left_behind(mini_index, mini_coverage, tmp_tempdir,
                                     stop, keep):
    """However a run ends, its workspace is removed; `keep_workspaces`
    leaves one copy per distinct validated patch, holding that patch."""
    backend, cfg = STOPS[stop]
    engine = make_engine(mini_index, mini_coverage, backend(), attempts=1,
                         keep_workspaces=keep, **cfg)
    if stop == "exception":
        with pytest.raises(RuntimeError, match="bug"):
            engine.repair_bug(ochiai_rank(mini_coverage))
    else:
        assert engine.repair_bug(ochiai_rank(mini_coverage)).stopped == stop
    kept = list(tmp_tempdir.glob("repair-ws-*"))
    validated = len(engine._validation_cache)
    assert validated == (2 if stop == "plausible" else 1)
    assert len(kept) == (validated if keep else 0)
    # Each copy is named after the patch it holds, as the attempt log is.
    assert sorted(ws.name.split("-")[2] for ws in kept) == \
        (sorted(engine._validation_cache) if keep else [])
    assert len({(ws / "src/Estimator.java").read_bytes() for ws in kept}) == \
        len(kept)


class RecordingBackend:
    """Answers as `inner` does, keeping each prompt sent and each response
    received under its attempt file name."""

    def __init__(self, inner):
        self.inner, self.prompts, self.responses = inner, {}, {}

    def complete(self, request):
        name = attempt_file(request.location_id, request.attempt)
        self.prompts[name] = request.prompt
        self.responses[name] = self.inner.complete(request)
        return self.responses[name]


class InterruptingBackend(ProseBackend):
    """Prose, then a KeyboardInterrupt at the second request."""

    def __init__(self):
        self.requests = 0

    def complete(self, request):
        self.requests += 1
        if self.requests == 2:
            raise KeyboardInterrupt
        return super().complete(request)


# As STOPS, with two attempts per phase where the backend has them to give.
WRITER_STOPS = {
    "plausible": (STOPS["plausible"][0], {"attempts": 1}),
    "exhausted": (ProseBackend, {"cap": 1, "attempts": 2}),
    "budget": STOPS["budget"],
    "backend-error": STOPS["backend-error"],
    "interrupted": (InterruptingBackend, {"cap": 1, "attempts": 2}),
}


@pytest.mark.parametrize("stop", WRITER_STOPS)
def test_run_directory_holds_every_prompt_and_response(mini_index, mini_coverage,
                                                       tmp_path, stop):
    """However a run ends, once repair_bug has returned or raised, the run
    directory holds the exact text of every prompt sent and every response
    received, among them those of each attempt the log names, and the
    threads alive are those alive before the run: no writer thread is left."""
    backend_factory, cfg = WRITER_STOPS[stop]
    backend = RecordingBackend(backend_factory())
    run_dir = tmp_path / "run"
    engine = make_engine(mini_index, mini_coverage, backend, run_dir=run_dir,
                         **cfg)
    state = RepairState()
    threads = set(threading.enumerate())
    if stop == "interrupted":
        with pytest.raises(KeyboardInterrupt):
            engine.repair_bug(ochiai_rank(mini_coverage), state)
    else:
        assert engine.repair_bug(ochiai_rank(mini_coverage), state).stopped == stop
    assert {attempt_file(r.location, r.attempt) for r in state.attempt_log} <= \
        backend.responses.keys()
    for sub, sent in (("prompts", backend.prompts),
                      ("responses", backend.responses)):
        assert {p.name: p.read_text(encoding="utf-8")
                for p in (run_dir / sub).iterdir()} == sent
    assert set(threading.enumerate()) == threads


@pytest.mark.parametrize("backend, cfg", [
    (FixBackend, {"attempts": 2, "cap": 1}),
    (lambda: ScriptedBackend(RESPONSES), {"attempts": 1}),
], ids=["at-next-write", "at-close"])
def test_failed_write_is_raised(mini_index, mini_coverage, tmp_path, backend, cfg):
    """A run-directory write that fails is raised from repair_bug: at the
    next write, or once the run's files are written. The run goes at most
    one request past the attempt whose write failed, here the first."""
    run_dir = tmp_path / "run"
    engine = make_engine(mini_index, mini_coverage, backend(), run_dir=run_dir,
                         **cfg)
    (run_dir / "responses").rmdir()
    (run_dir / "responses").write_text("", encoding="utf-8")
    state = RepairState()
    with pytest.raises(NotADirectoryError):
        engine.repair_bug(ochiai_rank(mini_coverage), state)
    assert 1 <= state.requests <= 2


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads the thread's mask from /proc")
def test_writer_thread_blocks_sigint_and_sigterm(mini_index, mini_coverage,
                                                 tmp_path):
    """The writer thread blocks SIGINT and SIGTERM, so they reach the main
    thread's harness wait; the main thread's mask is as it was."""
    masks = []
    threads = set(threading.enumerate())

    class MaskReadingBackend(ProseBackend):
        def complete(self, request):
            # The writer, started by the prompt's write, is the one new thread.
            (thread,) = set(threading.enumerate()) - threads
            status = Path(f"/proc/self/task/{thread.native_id}/status").read_text()
            masks.append(int(re.search(r"^SigBlk:\s*(\w+)$", status, re.M)[1], 16))
            return super().complete(request)

    before = signal.pthread_sigmask(signal.SIG_BLOCK, [])
    engine = make_engine(mini_index, mini_coverage, MaskReadingBackend(),
                         run_dir=tmp_path / "run", attempts=2, cap=1)
    engine.repair_bug(ochiai_rank(mini_coverage))
    assert masks
    for mask in masks:
        assert mask >> (signal.SIGINT - 1) & 1 and mask >> (signal.SIGTERM - 1) & 1
    assert signal.pthread_sigmask(signal.SIG_BLOCK, []) == before


def test_pool_is_built_while_the_baseline_harness_runs(mini_index, mini_coverage,
                                                       tmp_path, monkeypatch):
    """The sibling pool's build starts before the baseline harness run, one
    second long, ends."""
    end = tmp_path / "harness-end"
    starts = []
    build = RepairEngine._build_pool
    monkeypatch.setattr(RepairEngine, "_build_pool",
                        lambda self: starts.append(time.time()) or build(self))
    engine = make_engine(mini_index, mini_coverage, ProseBackend(), budget=0.5)
    engine.harness.command = (
        "sleep 1; python3 harness.py; "
        f"python3 -c 'import time; print(repr(time.time()))' > '{end}'")
    assert engine.repair_bug(ochiai_rank(mini_coverage)).stopped == "budget"
    assert len(starts) == 1 and starts[0] < float(end.read_text())


def test_interrupt_while_the_pool_is_built_kills_the_baseline_harness(
        mini_index, mini_coverage, tmp_tempdir, monkeypatch):
    """A KeyboardInterrupt from the pool build leaves repair_bug at once; the
    baseline harness's process group is killed and the workspace removed."""
    def interrupted(self):
        raise KeyboardInterrupt
    monkeypatch.setattr(RepairEngine, "_build_pool", interrupted)
    late = tmp_tempdir / "late"
    engine = make_engine(mini_index, mini_coverage, ProseBackend(),
                         test_timeout=60.0)
    engine.harness.command = f"(sleep 1; touch '{late}') & sleep 30"
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        engine.repair_bug(ochiai_rank(mini_coverage))
    assert time.monotonic() - start < 2
    assert engine.workspace.path is None
    assert not list(tmp_tempdir.glob("repair-ws-*"))
    time.sleep(1.5)  # the interrupt came well within the harness's 1 s
    assert not late.exists()


def test_baseline_validation_calls_meanwhile_once_each_time(
        mini_index, mini_coverage, monkeypatch):
    """`meanwhile` runs once per validation of the empty patch: during the
    harness run, then on the validation-cache hit of the second call."""
    runs = []
    run_tests = engine_module.run_tests
    monkeypatch.setattr(engine_module, "run_tests",
                        lambda *args: runs.append(args) or run_tests(*args))
    engine = make_engine(mini_index, mini_coverage, ProseBackend())
    calls = []
    for _ in range(2):
        baseline = engine._validate(Patch(edits=()), _FileWriter(),
                                    lambda: calls.append(len(runs)))
        assert baseline.failing
    engine.workspace.remove()
    assert len(runs) == 1 and calls == [1, 1]


def test_each_sibling_line_gives_ingredients_once_per_run(
        mini_index, mini_coverage, monkeypatch):
    """Simultaneous and then iterative repair of one location need the
    same sibling lines' ingredients; a run extracts each line's once, and
    the next run again."""
    from collections import Counter

    from siblingfix import ingredients
    seen = Counter()
    identifiers_in = ingredients.identifiers_in

    def counted(stmt):
        seen[stmt] += 1
        return identifiers_in(stmt)

    monkeypatch.setattr(ingredients, "identifiers_in", counted)
    for run_no in (1, 2):
        engine = make_engine(mini_index, mini_coverage, RuleBackend(),
                             attempts=1)
        state = engine.repair_bug(ochiai_rank(mini_coverage))
        assert {"sim-A", "iter-A"} <= {a.phase for a in state.attempt_log}
        assert len(seen) > 1
        assert set(seen.values()) == {run_no}


# Runs the fixture's harness, then appends argv[1] more tests to its
# results: passing on the unpatched project, with status argv[2] once
# src/Estimator.java carries the fix's accessor.
WIDE_SUITE = """
import json, os, runpy, sys
try:
    runpy.run_path("harness.py", run_name="__main__")
except SystemExit:
    pass
with open("src/Estimator.java") as fh:
    patched = "getUnboundParameters" in fh.read()
with open(os.environ["RESULTS_PATH"], "a") as fh:
    for i in range(int(sys.argv[1])):
        fh.write(json.dumps({
            "test": f"org.apache.commons.math3.SomeLongTestName{i}#testCase{i}",
            "status": sys.argv[2] if patched else "pass",
            "message": "cannot find symbol" if patched else ""}) + "\\n")
"""


class RmsBackend(FixBackend):
    """Answers with the getRms fix alone, which is promising."""

    def complete(self, request):
        super().complete(request)
        return patch_response("getRms")


@pytest.mark.parametrize("status, counted", [
    ("pass", "OTHER TESTS: 3008 pass"),
    ("error", "OTHER TESTS: 8 pass, 2990 more not passing")])
def test_a_large_suite_still_gets_feedback(mini_index, mini_coverage,
                                           tmp_tempdir, status, counted):
    """The harness reports 3,000 tests beyond the fixture's. Whether a
    patch leaves them passing or turns them to `error`, the next attempt
    gets a prompt: its feedback lists the originally failing test, at most
    FEEDBACK_OTHER_TESTS of the others, and counts the rest."""
    script = tmp_tempdir / "wide_suite.py"
    script.write_text(WIDE_SUITE, encoding="utf-8")
    backend = RmsBackend()
    engine = make_engine(mini_index, mini_coverage, backend, attempts=2, cap=1)
    engine.harness.command = f'"{sys.executable}" "{script}" 3000 {status}'
    state = engine.repair_bug(ochiai_rank(mini_coverage))
    verdicts = [r.verdict for r in state.attempt_log]
    assert verdicts[:2] == ["promising", "promising"]
    assert "prompt-error" not in verdicts
    second = backend.feedback[1]
    assert "TEST t_estimator_rms: fail - expected 1.41 but was 2.00" in second
    assert second.count("TEST org.apache.commons.math3.") == (
        0 if status == "pass" else FEEDBACK_OTHER_TESTS)
    assert second.rstrip("\n").endswith(counted)
