import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siblingfix.ingredients import FixIngredient
from siblingfix.llm import Patch, PatchEdit
from siblingfix.matching import MethodGroup
from siblingfix.prompting import (EVIDENCE_FRAMES, FEEDBACK_OTHER_TESTS,
                                  ROLE_TEXT, SIBLING_MARKER, FeedbackEntry,
                                  PromptBudgetError, _render_feedback,
                                  build_prompt, estimate_tokens)
from siblingfix.source_index import index_source
from siblingfix.validation import StackFrame, TestReport, TestResult


def evidence():
    return [TestResult(
        "t_fail", "fail", "expected 1 but was 2",
        [StackFrame("T", "test_it", "T.java", 10),
         StackFrame("C", "work", "C.java", 42)])]


_MARKER_RE = re.compile(r"^### SECTION: ([a-z-]+)$", re.MULTILINE)


def parse_sections(text):
    """(name, body) pairs recovered from a rendered prompt's marker lines."""
    markers = list(_MARKER_RE.finditer(text))
    ends = [m.start() for m in markers[1:]] + [len(text)]
    return [(m.group(1), text[m.end():end].strip("\n"))
            for m, end in zip(markers, ends)]


def one_group(index, file, line, jaccard=None):
    method = index.enclosing_method(file, line)
    return MethodGroup(method=method, file=file,
                       siblings=[index.statement_at(file, line)], jaccard=jaccard)


def test_all_eight_sections_in_order(mini_index):
    group = one_group(mini_index, "src/Estimator.java", 4)
    bundle = build_prompt([group], evidence(), [], [], mini_index)
    assert parse_sections(bundle.text) == bundle.sections
    assert [name for name, _ in bundle.sections] == [
        "role", "task", "reasoning-steps", "patch-definitions",
        "buggy-methods", "test-results", "feedback", "ingredients"]
    sections = dict(bundle.sections)
    assert sections["role"] == ROLE_TEXT
    assert sections["feedback"] == "(no previous attempts)"
    assert sections["ingredients"] == "(none)"


def test_role_line_verbatim():
    assert ROLE_TEXT == "You are an Automated Program Repair Tool."


def test_sibling_markers_and_method_body(mini_index):
    group = one_group(mini_index, "src/Estimator.java", 4)
    bundle = build_prompt([group], evidence(), [], [], mini_index)
    assert bundle.text.count(SIBLING_MARKER) == 1
    body = dict(bundle.sections)["buggy-methods"]
    assert "double getRms(EstimationProblem problem)" in body
    assert "problem.getAllParameters();  " + SIBLING_MARKER in body


def test_feedback_entry_rendered(mini_index):
    group = one_group(mini_index, "src/Estimator.java", 4)
    patch = Patch(edits=(PatchEdit("src/Estimator.java", "getRms", "body"),))
    report = TestReport(results=[
        TestResult("t_fail", "fail", "still broken",
                   [StackFrame("T", "test_it", "T.java", 10)]),
        TestResult("t_ok", "pass"),
    ])
    bundle = build_prompt([group], evidence(),
                          [FeedbackEntry(patch=patch, report=report)],
                          [], mini_index)
    fb = dict(bundle.sections)["feedback"]
    assert "=== PATCH file=src/Estimator.java method=getRms ===" in fb
    assert "TEST t_fail: fail - still broken" in fb
    assert "TEST t_ok" not in fb  # a passing test is only counted
    assert fb.endswith("\nOTHER TESTS: 1 pass")


def suite_test_id(i):
    return f"org.apache.commons.math3.SomeLongTestName{i}#testCase{i}"


def test_feedback_for_a_5000_test_suite_fits_the_default_budget(mini_index):
    """One failing and 5,000 passing tests: the passing ones are counted,
    not listed, so the prompt fits the default 24,000-token budget."""
    group = one_group(mini_index, "src/Estimator.java", 4)
    patch = Patch(edits=(PatchEdit("src/Estimator.java", "getRms", "body"),))
    failing = [TestResult(suite_test_id(0), "fail", "expected 1 but was 2",
                          [StackFrame("T", "test_it", "T.java", 10)])]
    report = TestReport(results=failing + [
        TestResult(suite_test_id(i), "pass") for i in range(1, 5001)])
    bundle = build_prompt([group], failing,
                          [FeedbackEntry(patch=patch, report=report)],
                          [], mini_index)
    assert estimate_tokens(len(bundle.text)) <= 24000
    fb = dict(bundle.sections)["feedback"]
    assert fb.endswith(f"TEST {suite_test_id(0)}: fail - expected 1 but was 2\n"
                       "    at T.test_it (T.java:10)\n"
                       "OTHER TESTS: 5000 pass")


_LISTED_RE = re.compile(r"^TEST (\S+): (\w+)", re.MULTILINE)
_SUMMARY_RE = re.compile(r"OTHER TESTS: (\d+) pass(?:, (\d+) more not passing)?"
                         r"(?:, (\d+) originally failing not reported)?")


@settings(max_examples=60, deadline=None)
@given(size=st.integers(0, 3000), seed=st.integers(0, 2 ** 32 - 1),
       pass_share=st.sampled_from([0.0, 0.5, 0.95, 1.0]),
       baseline_share=st.floats(0, 1), missing=st.integers(0, 30),
       frames=st.booleans())
def test_feedback_lists_what_can_change_the_next_patch(
        size, seed, pass_share, baseline_share, missing, frames):
    """A report's originally failing tests are each listed once, in report
    order, then at most FEEDBACK_OTHER_TESTS other tests that do not pass;
    one line counts the rest, and passing tests add nothing else."""
    rng = random.Random(seed)
    results = [TestResult(
        f"T{rng.getrandbits(32):08x}_{i}",
        "pass" if rng.random() < pass_share
        else rng.choice(["fail", "error", "timeout"]),
        rng.choice(["", "boom"]),
        [StackFrame("U", f"m{k}", "U.java", k) for k in range(rng.randrange(9))])
        for i in range(size)]
    baseline = [r for r in results if rng.random() < baseline_share]
    baseline += [TestResult(f"gone{i}", "fail") for i in range(missing)]
    rng.shuffle(baseline)  # the evidence's order is not the report's
    ids = {t.test for t in baseline}

    def render(report_results):
        entry = FeedbackEntry(patch=None, report=TestReport(report_results))
        return _render_feedback([entry], baseline, frames)

    fb = render(results)
    *lines, summary = fb.split("\n")
    first = [r for r in results if r.test in ids]
    others = [r for r in results if r.test not in ids and r.status != "pass"]
    shown = first + others[:FEEDBACK_OTHER_TESTS]
    assert _LISTED_RE.findall(fb) == [(r.test, r.status) for r in shown]
    assert sum(line.startswith("    at ") for line in lines) == (
        sum(min(len(r.frames), EVIDENCE_FRAMES) for r in shown) if frames else 0)
    passed, more, absent = (int(n or 0) for n in
                            _SUMMARY_RE.fullmatch(summary).groups())
    assert len(shown) + passed + more == size
    assert more == max(0, len(others) - FEEDBACK_OTHER_TESTS)
    assert absent == missing
    # Without its other passing tests the report renders the same lines,
    # and the count differs only in its digits.
    lean = render([r for r in results if r.test in ids or r.status != "pass"])
    assert lean.split("\n")[:-1] == lines
    assert len(fb) - len(lean) == len(str(passed)) - 1


def test_bare_plausible_feedback(mini_index):
    group = one_group(mini_index, "src/Estimator.java", 4)
    patch = Patch(edits=(PatchEdit("src/Estimator.java", "getRms", "body"),))
    bundle = build_prompt([group], evidence(), [FeedbackEntry(patch=patch)],
                          [], mini_index)
    fb = dict(bundle.sections)["feedback"]
    assert "passed all tests (plausible)" in fb


def test_marker_count_matches_sibling_lines(tmp_path):
    body = "class Wide {\n"
    lines = []
    for i in range(13):
        body += f"    void m{i}() {{\n"
        lines.append(3 * i + 3)
        body += f"        use(value{i});\n    }}\n"
    body += "}\n"
    (tmp_path / "Wide.java").write_text(body, encoding="utf-8")
    index = index_source(tmp_path, ["*.java"])
    groups = []
    for line in lines:
        method = index.enclosing_method("Wide.java", line)
        groups.append(MethodGroup(
            method=method, file="Wide.java",
            siblings=[index.statement_at("Wide.java", n) for n in (line, line - 1)]))
    bundle = build_prompt(groups, evidence(), [], [], index)
    assert bundle.text.count(SIBLING_MARKER) == 26
    assert len(groups) == 13


def test_requires_a_group(mini_index):
    with pytest.raises(ValueError):
        build_prompt([], evidence(), [], [], mini_index)


def ingredient(i, score):
    return FixIngredient("method-declaration", f"void helper{i}(int arg{i})",
                         "C", "C.java", score, i)


def test_truncation_drops_ingredients_first(mini_index):
    group = one_group(mini_index, "src/Estimator.java", 4)
    ingredients = [ingredient(i, 1.0 - i * 0.01) for i in range(40)]
    full = build_prompt([group], evidence(), [], ingredients, mini_index)
    budget = (len(full.text) // 4) - 60
    trimmed = build_prompt([group], evidence(), [], ingredients, mini_index,
                           token_budget=budget)
    kept = dict(trimmed.sections)["ingredients"]
    # Lowest-scored ingredients go first; the best one survives.
    assert "helper0" in kept
    assert "helper39" not in kept
    # Groups were never touched.
    assert "getRms" in dict(trimmed.sections)["buggy-methods"]


def test_truncation_drops_lowest_jaccard_group(mini_index):
    groups = [one_group(mini_index, "src/Estimator.java", 4, jaccard=0.9),
              one_group(mini_index, "src/Estimator.java", 10, jaccard=0.2),
              one_group(mini_index, "src/Estimator.java", 22, jaccard=0.8)]
    full = build_prompt(groups, evidence(), [], [], mini_index)
    budget = (len(full.text) // 4) - 30
    trimmed = build_prompt(groups, evidence(), [], [], mini_index,
                           token_budget=budget)
    body = dict(trimmed.sections)["buggy-methods"]
    assert "guessErrors" not in body  # lowest Jaccard dropped first
    assert "getRms" in body and "getCovariances" in body


def test_truncation_drops_feedback_frames_before_groups(mini_index):
    groups = [one_group(mini_index, "src/Estimator.java", 4, jaccard=0.9),
              one_group(mini_index, "src/Estimator.java", 10, jaccard=0.2)]
    patch = Patch(edits=(PatchEdit("src/Estimator.java", "getRms", "body"),))

    def feedback(frames):
        return [FeedbackEntry(patch=patch, report=TestReport(results=[
            TestResult("t_fail", "fail", "still broken", frames)]))]

    frames = [StackFrame("T", "test_it", "T.java", 10),
              StackFrame("C", "work", "C.java", 42)]
    full = build_prompt(groups, evidence(), feedback(frames), [], mini_index)
    frameless = build_prompt(groups, evidence(), feedback([]), [], mini_index)
    assert "    at C.work (C.java:42)" in dict(full.sections)["feedback"]

    trimmed = build_prompt(groups, evidence(), feedback(frames), [], mini_index,
                           token_budget=len(full.text) // 4 - 1)
    assert trimmed.text == frameless.text  # frames gone, every group kept
    sections = dict(trimmed.sections)
    assert "TEST t_fail: fail - still broken" in sections["feedback"]
    assert "    at " not in sections["feedback"]
    assert "    at C.work (C.java:42)" in sections["test-results"]

    tighter = build_prompt(groups, evidence(), feedback(frames), [], mini_index,
                           token_budget=len(frameless.text) // 4 - 1)
    sections = dict(tighter.sections)
    assert "    at " not in sections["feedback"]
    assert "getRms" in sections["buggy-methods"]
    assert "guessErrors" not in sections["buggy-methods"]


def test_over_budget_after_all_truncation(mini_index):
    group = one_group(mini_index, "src/Estimator.java", 4)
    with pytest.raises(PromptBudgetError):
        build_prompt([group], evidence(), [], [], mini_index, token_budget=10)


def test_rendering_deterministic(mini_index):
    group = one_group(mini_index, "src/Estimator.java", 4)
    a = build_prompt([group], evidence(), [], [], mini_index)
    b = build_prompt([group], evidence(), [], [], mini_index)
    assert a.text == b.text
