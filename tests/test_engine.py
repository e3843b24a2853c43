import hashlib
import re

import pytest

from conftest import RESPONSES, PROJECT, RuleBackend, patch_response, prompt_section
from siblingfix import (EmbeddingCache, LocalHashProvider, RepairConfig,
                        RepairEngine, SuspiciousLocation, index_source,
                        ochiai_rank, parse_patch)
from siblingfix.embeddings import EmbeddingError
from siblingfix.engine import location_id
from siblingfix.llm import ScriptedBackend
from siblingfix.localization import CoverageMatrix

pytestmark = pytest.mark.usefixtures("tmp_tempdir")


def make_engine(mini_index, mini_coverage, backend, **cfg):
    config = RepairConfig(**cfg)
    return RepairEngine(
        project_root=str(PROJECT), index=mini_index, coverage=mini_coverage,
        backend=backend, provider=LocalHashProvider(), cache=EmbeddingCache(),
        harness_command="python3 harness.py", config=config)


def test_location_id():
    assert location_id("src/Estimator.java", 4) == "src_Estimator_java_L4"


def test_colliding_paths_get_their_own_location_ids(tmp_path):
    """`src/A.java` and `src_A.java` have one safe name. Each gets the path's
    SHA-1 prefix, so their attempt counters and prompt and response files
    stay apart; `B.java`, which shares its safe name with no path, keeps
    the plain id."""
    project = tmp_path / "project"
    (project / "src").mkdir(parents=True)
    paths = ["src/A.java", "src_A.java", "B.java"]
    for i, rel in enumerate(paths):
        (project / rel).write_text(
            f"class C{i} {{\n    int f() {{\n        return total + 1;\n    }}\n}}\n",
            encoding="utf-8")
    (project / "harness.py").write_text(
        "import json, os\n"
        "with open(os.environ['RESULTS_PATH'], 'w') as fh:\n"
        "    json.dump({'test': 't', 'status': 'fail'}, fh)\n", encoding="utf-8")
    run_dir = tmp_path / "run"
    engine = RepairEngine(
        project_root=str(project), index=index_source(project, ["**/*.java"]),
        coverage=CoverageMatrix(tests=[("t", "fail")],
                                covered={"t": {(rel, 3) for rel in paths}}),
        backend=ProseBackend(), provider=LocalHashProvider(),
        cache=EmbeddingCache(), harness_command="python3 harness.py",
        config=RepairConfig(attempts=1), run_dir=run_dir)
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
    fresh._ensure_baseline()
    report = fresh._validate(patch)
    from siblingfix.validation import classify
    assert classify(fresh.baseline, report) == "pass-all"


class ProseBackend:
    def complete(self, request):
        return "I am not able to produce a patch."


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
    engine._ensure_baseline()
    from siblingfix.engine import RepairState
    from siblingfix.matching import CandidateSibling, extract_context
    state = RepairState()
    state.promising = [parse_patch(patch_response("getRms", "guessErrors"))]
    stmt = mini_index.statement_at("src/Estimator.java", 4)
    target = extract_context(mini_index, stmt)
    cands = [CandidateSibling(context=target, token_similarity=1.0,
                              embedding_similarity=1.0, jaccard_similarity=1.0)]
    engine.simultaneous_repair(cands, target, state, "src_Estimator_java_L4")
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


def test_baseline_disagreement_is_fatal(mini_index, mini_coverage):
    engine = make_engine(mini_index, mini_coverage, ProseBackend())
    engine.harness.command = "python3 -c \"import os;open(os.environ['RESULTS_PATH'],'w').write('')\""
    with pytest.raises(RuntimeError, match="no failing tests"):
        engine._ensure_baseline()


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
