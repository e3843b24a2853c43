"""Acceptance suite: one test per top-level behavioral guarantee.

Each test is self-contained, uses independent oracles where the guarantee
is numeric, and pins runtimes and tolerances.
"""

import json
import math
import random
import re
import time

import pytest

from conftest import (DESCRIPTOR, DESCRIPTOR_SLOW, EXPECTED_DIFF, PROJECT,
                      RESPONSES, RuleBackend, patch_response, prompt_section)
from siblingfix import (EmbeddingCache, LocalHashProvider, RepairConfig,
                        RepairEngine, SuspiciousLocation, apply_spfl,
                        ochiai_rank, tokenize)
from siblingfix.localization import CoverageMatrix
from siblingfix.matching import StatementContext, TokenPool, token_match
from siblingfix.orchestrator import run
from siblingfix.source_index import Statement
from siblingfix.validation import (StackFrame, TestReport, TestResult,
                                   classify)

pytestmark = pytest.mark.usefixtures("tmp_tempdir")


# --- 1. Ochiai oracle equivalence --------------------------------------


def _brute_force_ochiai(matrix):
    failing = {t for t, o in matrix.tests if o == "fail"}
    passing = {t for t, o in matrix.tests if o == "pass"}
    locations = set()
    for locs in matrix.covered.values():
        locations |= locs
    scored = []
    for loc in locations:
        ef = sum(1 for t in failing if loc in matrix.covered[t])
        ep = sum(1 for t in passing if loc in matrix.covered[t])
        nf = len(failing) - ef
        score = 0.0 if ef == 0 else ef / math.sqrt((ef + nf) * (ef + ep))
        scored.append((loc, score))
    scored.sort(key=lambda x: (-x[1], x[0][0], x[0][1]))
    return scored


def test_acceptance_ochiai_oracle_equivalence():
    rng = random.Random(20260823)
    start = time.monotonic()
    for case in range(100):
        n_tests = rng.randint(2, 200)
        n_locs = rng.randint(1, 500)
        locs = list({(f"f{rng.randint(0, 9)}.java", rng.randint(1, 2000))
                     for _ in range(n_locs)})
        tests, covered = [], {}
        for i in range(n_tests):
            outcome = "fail" if i == 0 or rng.random() < 0.25 else "pass"
            tid = f"t{i}"
            tests.append((tid, outcome))
            density = rng.random() * 0.5
            covered[tid] = {l for l in locs if rng.random() < density}
        matrix = CoverageMatrix(tests=tests, covered=covered)
        got = ochiai_rank(matrix)
        expected = _brute_force_ochiai(matrix)
        assert [(g.file, g.line) for g in got] == \
            [loc for loc, _ in expected], f"ranking mismatch in case {case}"
        for g, (_, score) in zip(got, expected):
            assert abs(g.score - score) <= 1e-9
        assert [g.rank for g in got] == list(range(1, len(got) + 1))
    assert time.monotonic() - start < 10.0


# --- 2. Tokenizer ground truth ------------------------------------------


TOKEN_TABLE = [
    ("getUnboundParameters()", ["get", "unbound", "parameters"]),
    ("", []),
    (";;;", []),
    ("x", ["x"]),
    ("X", ["x"]),
    ("foo_bar", ["foo", "bar"]),
    ("__init__", ["init"]),
    ("maxValue2 += foo_bar;", ["max", "value", "2", "foo", "bar"]),
    ("HTMLParser", ["html", "parser"]),
    # A trailing acronym has no following word to bound it, so it splits.
    ("parseHTML", ["parse", "h", "t", "m", "l"]),
    ("XMLHttpRequest", ["xml", "http", "request"]),
    ("a.b.c(d)", ["a", "b", "c", "d"]),
    ("int count = 0;", ["int", "count", "0"]),
    ("double[] sig = problem.getAllParameters();",
     ["double", "sig", "problem", "get", "all", "parameters"]),
    ("for (int i = 0; i < n; i++)", ["for", "int", "i", "0", "i", "n", "i"]),
    ("snake_case_name", ["snake", "case", "name"]),
    ("camelCase", ["camel", "case"]),
    ("PascalCase", ["pascal", "case"]),
    ("SCREAMING_SNAKE", list("screamingsnake")),
    ("value42plus", ["value", "42", "plus"]),
    ("v2Counter", ["v", "2", "counter"]),
    ("matrix2D", ["matrix", "2", "d"]),
    ("a+b-c*d/e", ["a", "b", "c", "d", "e"]),
    ("return this.size;", ["return", "this", "size"]),
    ("new ArrayList<String>()", ["new", "array", "list", "string"]),
    ("x == y != z", ["x", "y", "z"]),
    ("obj.method(arg1, arg2)", ["obj", "method", "arg", "1", "arg", "2"]),
    ("IOError", ["io", "error"]),
    ("toUTF8String", ["to", "u", "t", "f", "8", "string"]),
    ("  spaced   out  ", ["spaced", "out"]),
]


def test_acceptance_tokenizer_ground_truth():
    assert tokenize("getUnboundParameters()") == ["get", "unbound", "parameters"]
    assert len(TOKEN_TABLE) >= 30
    for text, expected in TOKEN_TABLE:
        assert tokenize(text) == expected, f"tokenize({text!r})"


# --- 3. token_match oracle equivalence ----------------------------------


def _ctx(text, file, line):
    s = Statement(file=file, start_line=line, end_line=line, text=text,
                  kind="simple")
    return StatementContext(target=s, context=(s,))


def _oracle_tfidf_topk(target_doc, docs, keys, limit):
    """Independent raw-tf / ln-idf cosine ranking over the full pool."""
    from collections import Counter
    all_docs = [target_doc] + docs
    n = len(all_docs)
    df = Counter()
    for doc in all_docs:
        df.update(set(doc))
    idf = {t: math.log(n / c) for t, c in df.items()}

    def vec(doc):
        counts = Counter(doc)
        return {t: c * idf[t] for t, c in counts.items()}

    def cos(a, b):
        dot = sum(v * b.get(t, 0.0) for t, v in a.items())
        na = math.sqrt(sum(v * v for v in a.values()))
        nb = math.sqrt(sum(v * v for v in b.values()))
        return 0.0 if na == 0 or nb == 0 else dot / (na * nb)

    tv = vec(target_doc)
    scored = sorted(((cos(tv, vec(d)), k) for d, k in zip(docs, keys)),
                    key=lambda x: (-x[0], x[1]))
    return scored[:limit]


def test_acceptance_token_match_oracle():
    rng = random.Random(99)
    vocab = [f"word{i}" for i in range(400)]
    target_text = "double result = accumulator.applyWeightedSum(values, offset);"
    pool = []
    for i in range(995):
        words = " ".join(rng.choice(vocab) for _ in range(rng.randint(3, 20)))
        pool.append(_ctx(words, f"doc{i:04d}.java", 1))
    near_dups = [
        "double result = accumulator.applyWeightedSum(values, offset);",
        "double result2 = accumulator.applyWeightedSum(values, offset);",
        "float result = accumulator.applyWeightedSum(values, delta);",
        "double total = accumulator.applyWeightedSum(values, offset);",
        "double result = acc.applyWeightedSum(values, offset);",
    ]
    planted_keys = []
    for i, text in enumerate(near_dups):
        ctx = _ctx(text, f"planted{i}.java", 7)
        planted_keys.append(ctx.key)
        pool.append(ctx)
    assert len(pool) == 1000
    target = _ctx(target_text, "target.java", 1)

    start = time.monotonic()
    got = token_match(target, TokenPool(pool), limit=100)
    elapsed = time.monotonic() - start

    docs = [tokenize(c.rendered) for c in pool]
    keys = [c.key for c in pool]
    expected = _oracle_tfidf_topk(tokenize(target.rendered), docs, keys, 100)
    assert [c.key for c in got] == [k for _, k in expected]
    for cand, (score, _) in zip(got, expected):
        assert abs(cand.token_similarity - score) <= 1e-9
    assert set(planted_keys) <= {c.key for c in got}
    assert elapsed < 30.0


# --- 4. Promising-verdict table -----------------------------------------


def _f(method, line, unit="C", file="C.java"):
    return StackFrame(unit=unit, method=method, file=file, line=line)


_T = _f("test_it", 3, unit="T", file="T.java")


def _rep(*results):
    return TestReport(results=list(results))


def _r(test, status, frames=(), message=""):
    return TestResult(test, status, message, list(frames))


VERDICT_TABLE = [
    # (name, baseline, patched, expected kind)
    ("newly passing",
     _rep(_r("t1", "fail"), _r("t2", "fail")),
     _rep(_r("t1", "pass"), _r("t2", "fail")), "promising"),
    ("all passing",
     _rep(_r("t1", "fail"), _r("t2", "pass")),
     _rep(_r("t1", "pass"), _r("t2", "pass")), "pass-all"),
    ("same-method deeper line",
     _rep(_r("t1", "fail", [_T, _f("work", 95)])),
     _rep(_r("t1", "fail", [_T, _f("work", 120)])), "promising"),
    ("cross-method divergence, identical prefix",
     _rep(_r("t1", "fail", [_T, _f("stageOne", 10)])),
     _rep(_r("t1", "fail", [_T, _f("stageTwo", 4)])), "promising"),
    ("identical traces",
     _rep(_r("t1", "fail", [_T, _f("work", 10)])),
     _rep(_r("t1", "fail", [_T, _f("work", 10)])), "no-progress"),
    ("same-method shallower line",
     _rep(_r("t1", "fail", [_T, _f("work", 120)])),
     _rep(_r("t1", "fail", [_T, _f("work", 95)])), "no-progress"),
    ("regression only",
     _rep(_r("t1", "fail", [_T, _f("work", 10)]), _r("t2", "pass")),
     _rep(_r("t1", "fail", [_T, _f("work", 10)]), _r("t2", "fail")),
     "no-progress"),
    ("divergence at the test frame itself",
     _rep(_r("t1", "fail", [_f("test_a", 3, unit="T", file="T.java")])),
     _rep(_r("t1", "fail", [_f("test_b", 3, unit="T", file="T.java")])),
     "no-progress"),
    ("newly passing beats a regression",
     _rep(_r("t1", "fail"), _r("t2", "pass"), _r("t3", "fail")),
     _rep(_r("t1", "pass"), _r("t2", "fail"), _r("t3", "fail")), "promising"),
    ("empty baseline trace",
     _rep(_r("t1", "fail", [])),
     _rep(_r("t1", "fail", [_T])), "no-progress"),
    ("unknown line compares equal",
     _rep(_r("t1", "fail", [_T, _f("work", 0)])),
     _rep(_r("t1", "fail", [_T, _f("work", 55)])), "no-progress"),
    ("same frames, different message",
     _rep(_r("t1", "fail", [_T, _f("work", 10)], message="assert A")),
     _rep(_r("t1", "fail", [_T, _f("work", 10)], message="assert B")),
     "no-progress"),
    ("strict-prefix trace is not progress",
     _rep(_r("t1", "fail", [_T, _f("work", 10)])),
     _rep(_r("t1", "fail", [_T, _f("work", 10), _f("inner", 2)])),
     "no-progress"),
    ("vanished failing test is not pass-all",
     _rep(_r("t1", "fail"), _r("t2", "pass")),
     _rep(_r("t2", "pass")), "no-progress"),
]


def test_acceptance_promising_verdict_table():
    assert len(VERDICT_TABLE) >= 12
    for name, baseline, patched, expected in VERDICT_TABLE:
        verdict = classify(baseline, patched)
        assert verdict == expected, f"case {name!r}: got {verdict}"


# --- 5. End-to-end seeded sibling bug -----------------------------------


def test_acceptance_end_to_end_seeded_bug(tmp_path):
    start = time.monotonic()
    code, report, run_dir = run(DESCRIPTOR, out_dir=tmp_path / "runs")
    elapsed = time.monotonic() - start
    assert code == 0
    assert elapsed < 60.0
    assert len(report["plausible"]) == 1
    diff = (run_dir / "patches" / "plausible_1.diff").read_bytes()
    assert diff == EXPECTED_DIFF.read_bytes()
    methods = set(re.findall(r"method=(\w+)",
                             (RESPONSES / "src_Estimator_java_L4_attempt1.txt")
                             .read_text()))
    assert methods == {"getRms", "guessErrors", "getCovariances"}
    assert diff.decode().count("+        double[] params = "
                               "problem.getUnboundParameters();") == 3


# --- helpers for the engine-level scenarios ------------------------------


def _engine(mini_index, mini_coverage, backend, **cfg):
    return RepairEngine(
        project_root=str(PROJECT), index=mini_index, coverage=mini_coverage,
        backend=backend, provider=LocalHashProvider(), cache=EmbeddingCache(),
        harness_command="python3 harness.py", config=RepairConfig(**cfg))


# --- 6. Feedback loop proof ----------------------------------------------


class FeedbackGatedBackend:
    """Emits the full fix only when the previous attempt's failing test
    name appears in the prompt's feedback section."""

    def __init__(self):
        self.fed_back = False

    def complete(self, request):
        fb = prompt_section(request.prompt, "feedback")
        if "TEST t_estimator_rms: fail" in fb:
            self.fed_back = True
            return patch_response("getRms", "guessErrors", "getCovariances")
        return patch_response("getRms")  # incomplete first attempt


def test_acceptance_feedback_loop(mini_index, mini_coverage):
    backend = FeedbackGatedBackend()
    engine = _engine(mini_index, mini_coverage, backend,
                     attempts=2, stop_on_first_plausible=True)
    state = engine.repair_bug(ochiai_rank(mini_coverage))
    assert state.stopped == "plausible"
    assert backend.fed_back
    outcomes = [(r.attempt, r.verdict) for r in state.attempt_log]
    assert outcomes == [(1, "promising"), (2, "pass-all")]


# --- 7. Iterative carry-over ---------------------------------------------


def test_acceptance_iterative_carry_over(mini_index, mini_coverage):
    engine = _engine(mini_index, mini_coverage, RuleBackend(), attempts=1)
    state = engine.repair_bug(ochiai_rank(mini_coverage))
    assert state.stopped == "plausible"
    (patch,) = state.plausible
    assert sorted(e.method for e in patch.edits) == [
        "getCovariances", "getRms", "guessErrors"]
    assert patch.provenance == "combined"
    log = [(r.phase, r.verdict, r.patch_id) for r in state.attempt_log]
    # Simultaneous repair was scripted to fail outright.
    assert log[0][:2] == ("sim-A", "parse-error")
    # Per-method promising patches composed across groups.
    promising = [p for p in log if p[1] == "promising"]
    assert len(promising) == 2
    # The carried patch survived a no-progress combined attempt (the
    # carry-forward rule) and seeded the final pass-all combination.
    carried_id = promising[-1][2]
    assert ("iter-B", "no-progress") in [p[:2] for p in log]
    assert log[-1][:2] == ("iter-B", "pass-all")
    assert patch.parent_id == carried_id


# --- 8. SPFL contract -----------------------------------------------------


def test_acceptance_spfl_contract(tmp_path):
    ranked = [SuspiciousLocation(file=f"f{i}", line=i, score=1.0 - 0.1 * i,
                                 rank=i + 1) for i in range(5)]
    out = apply_spfl(ranked, ("f4", 4))
    assert (out[0].file, out[0].line, out[0].rank) == ("f4", 4, 1)
    assert [(o.file, o.line) for o in out[1:]] == [
        ("f0", 0), ("f1", 1), ("f2", 2), ("f3", 3)]
    assert sorted((o.file, o.line) for o in out) == \
        sorted((r.file, r.line) for r in ranked)

    code, report, _ = run(DESCRIPTOR, {"mode": "spfl"},
                          out_dir=tmp_path / "runs")
    assert code == 0
    assert report["suspicious"][0]["line"] == 22
    assert report["attempt_log"][0]["location"] == "src_Estimator_java_L22"


# --- 9. Determinism & replay ----------------------------------------------


def test_acceptance_determinism_and_replay(tmp_path):
    reports = []
    for i in range(2):
        code, report, _ = run(DESCRIPTOR, out_dir=tmp_path / f"runs{i}")
        assert code == 0
        reports.append(report)
    a = json.dumps(reports[0]["attempt_log"], sort_keys=True).encode()
    b = json.dumps(reports[1]["attempt_log"], sort_keys=True).encode()
    assert a == b
    diffs_a = [p["diff"] for p in reports[0]["plausible"]]
    diffs_b = [p["diff"] for p in reports[1]["plausible"]]
    assert diffs_a == diffs_b


# --- 10. Budget enforcement ------------------------------------------------


def test_acceptance_budget_enforcement(tmp_path):
    budget = 5.0
    start = time.monotonic()
    code, report, run_dir = run(DESCRIPTOR_SLOW, {"budget": budget},
                                out_dir=tmp_path / "runs")
    elapsed = time.monotonic() - start
    harness_timeout = 30.0  # per the slow descriptor
    assert elapsed < budget + harness_timeout
    assert code == 1
    assert report["stopped"] == "budget"
    assert (run_dir / "report.json").is_file()  # partial report persisted
