"""Repair prompt construction.

The rendered prompt always carries eight sections in a fixed order, each
introduced by a recoverable marker line. Sibling lines inside the rendered
method bodies are annotated with a `// SIBLING` marker comment.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ingredients import FixIngredient
from .llm import OUTPUT_FORMAT_SPEC, Patch, render_patch
from .matching import MethodGroup
from .source_index import SourceIndex
from .validation import StackFrame, TestReport, TestResult

_MARKER = "### SECTION: {name}"

SIBLING_MARKER = "// SIBLING"
EVIDENCE_FRAMES = 5  # frames shown per originally failing test

ROLE_TEXT = "You are an Automated Program Repair Tool."

TASK_TEXT = """\
Your task is to:
(a) analyze the buggy methods below together with their labeled sibling statements,
(b) evaluate previous patching attempts,
(c) learn from previous patching results, and
(d) generate consistent patches across the sibling locations."""

REASONING_TEXT = f"""\
Follow these steps:
1. Examine bug-related information and identify failure-relevant siblings.
2. Analyze previous patches and infer repair rationales.
3. Map fixing ingredients to the inferred repair rationales.
4. Design consistent repair strategies.
5. Define the required output format.

{OUTPUT_FORMAT_SPEC}"""

DEFINITIONS_TEXT = """\
A plausible patch is a patch that makes all tests pass.
A promising patch partially addresses the root cause and leads to repair
progress in terms of test outcomes and execution."""


class PromptBudgetError(Exception):
    """Prompt exceeds the token budget even after all truncation stages."""


@dataclass
class FeedbackEntry:
    patch: Patch | None
    report: TestReport | None = None
    note: str | None = None


@dataclass
class PromptBundle:
    text: str
    sections: list[tuple[str, str]]  # (name, body), in the text's order


def _render_group(group: MethodGroup, index: SourceIndex) -> str:
    if group.method is not None:
        body = index.method_body(group.method)
        start = group.method.body_start
        header = f"// file: {group.file}  method: {group.method.name}"
    else:
        body = index.files[group.file].text
        start = 1
        header = f"// file: {group.file}  (top-level)"
    lines = body.split("\n")
    marked = {s.start_line for s in group.siblings}
    rendered = []
    for offset, line in enumerate(lines):
        if start + offset in marked:
            rendered.append(f"{line}  {SIBLING_MARKER}")
        else:
            rendered.append(line)
    return header + "\n" + "\n".join(rendered)


def _render_frame(f: StackFrame) -> str:
    return f"    at {f.unit}.{f.method} ({f.file}:{f.line})"


def _render_evidence(failing: list[TestResult]) -> str:
    parts = [f"Originally failing tests: {len(failing)}"]
    for t in failing:
        parts.append(f"FAILING TEST {t.test}: {t.message}")
        parts.extend(map(_render_frame, t.frames[:EVIDENCE_FRAMES]))
    return "\n".join(parts)


def _render_feedback(feedback: list[FeedbackEntry], include_frames: bool) -> str:
    if not feedback:
        return "(no previous attempts)"
    parts = []
    for entry in feedback:
        if entry.patch is not None:
            parts.append("PREVIOUS PATCH:")
            parts.append(render_patch(entry.patch))
        if entry.note:
            parts.append(f"ATTEMPT OUTCOME: {entry.note}")
        report = entry.report
        if report is None:
            if entry.patch is not None and not entry.note:
                parts.append("OUTCOME: passed all tests (plausible)")
            continue
        for r in report.results:
            parts.append(f"TEST {r.test}: {r.status}"
                         + (f" - {r.message}" if r.message else ""))
            if include_frames:
                parts.extend(map(_render_frame, r.frames))
    return "\n".join(parts)


def _render_ingredients(ingredients: list[FixIngredient]) -> str:
    if not ingredients:
        return "(none)"
    return "\n".join(
        f"{i.kind} in {i.declaring_class or i.source_file}: {i.signature_text}"
        for i in ingredients)


def _assemble(groups, failing, feedback, ingredients, index,
              feedback_frames: bool) -> PromptBundle:
    sections = [
        ("role", ROLE_TEXT),
        ("task", TASK_TEXT),
        ("reasoning-steps", REASONING_TEXT),
        ("patch-definitions", DEFINITIONS_TEXT),
        ("buggy-methods", "\n\n".join(_render_group(g, index) for g in groups)),
        ("test-results", _render_evidence(failing)),
        ("feedback", _render_feedback(feedback, feedback_frames)),
        ("ingredients", _render_ingredients(ingredients)),
    ]
    text = "\n\n".join(_MARKER.format(name=name) + "\n" + body
                       for name, body in sections)
    return PromptBundle(text=text, sections=sections)


def estimate_tokens(text: str) -> int:
    return len(text) // 4


def build_prompt(groups: list[MethodGroup], failing: list[TestResult],
                 feedback: list[FeedbackEntry], ingredients: list[FixIngredient],
                 index: SourceIndex, token_budget: int = 24000
                 ) -> PromptBundle:
    """Render the eight-section repair prompt within the token budget.

    `failing` holds the baseline run's failing tests, shown as evidence.
    Over budget, each pass cuts the lowest-scored ingredient, else the
    feedback stack traces, else the lowest-Jaccard group (groups without
    a Jaccard score are kept longest), else raises PromptBudgetError.
    """
    if not groups:
        raise ValueError("build_prompt requires at least one method group")
    groups = list(groups)
    ingredients = sorted(ingredients, key=lambda i: -i.rank_score)
    feedback_frames = True
    while True:
        bundle = _assemble(groups, failing, feedback, ingredients, index,
                           feedback_frames)
        if estimate_tokens(bundle.text) <= token_budget:
            return bundle
        if ingredients:
            ingredients.pop()
        elif feedback_frames:
            feedback_frames = False
        elif len(groups) > 1:
            groups.pop(min(range(len(groups)),
                           key=lambda i: (float("inf") if groups[i].jaccard is None
                                          else groups[i].jaccard)))
        else:
            raise PromptBudgetError(
                f"prompt needs ~{estimate_tokens(bundle.text)} tokens, "
                f"budget is {token_budget}")
