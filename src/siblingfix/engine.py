"""The repair engine: per-suspicious-location loop, simultaneous repair,
and iterative repair with promising-patch carry-over.

All LLM and validation calls are serialized; each attempt's prompt depends
on the previous verdict. The wall-clock budget is checked before every
attempt, and an in-flight validation is allowed to finish.
"""

from __future__ import annotations

import logging
import math
import shutil
import time
from dataclasses import dataclass, field

from .embeddings import EmbeddingCache, embedding_match
from .ingredients import extract_fix_ingredients
from .llm import (BackendError, CompletionRequest, Patch, PatchParseError,
                  combine, parse_patch)
from .localization import CoverageMatrix, SuspiciousLocation
from .matching import (CandidateSibling, StatementContext, TokenPool,
                       extract_context, group_by_method, jaccard_filter,
                       token_match)
from .prompting import (BugEvidence, FailingTest, FeedbackEntry,
                        PromptBudgetError, build_prompt)
from .source_index import SourceIndex
from .validation import (HarnessConfig, PatchApplicationError, TestReport,
                         apply_patch, classify, run_tests)

logger = logging.getLogger(__name__)


@dataclass
class RepairConfig:
    k: int = 100                  # max candidate siblings
    theta: float = 0.75           # embedding similarity threshold
    alpha: float = 0.30           # Jaccard similarity threshold
    attempts: int = 5             # repair attempts per phase
    ingredients: int = 10         # max fix ingredients per sibling line
    budget: float = 5 * 3600.0    # seconds
    cap: int = 50                 # suspicious-list truncation
    token_budget: int = 24000
    temperature: float = 0.7
    max_tokens: int = 4096
    test_timeout: float = 300.0
    stop_on_first_plausible: bool = False
    keep_workspaces: bool = False

    def __post_init__(self):
        if min(self.k, self.attempts) < 1 or self.ingredients < 0:
            raise ValueError("k and attempts must be >= 1, ingredients >= 0")
        if self.budget <= 0:
            raise ValueError("budget must be positive")


@dataclass
class AttemptRecord:
    location: str
    phase: str    # sim-A | sim-B | iter-A | iter-B
    attempt: int
    verdict: str  # pass-all | promising | no-progress | parse-error |
                  # apply-error | prompt-error
    patch_id: str | None = None


@dataclass
class RepairState:
    plausible: list[Patch] = field(default_factory=list)
    promising: list[Patch] = field(default_factory=list)
    attempt_log: list[AttemptRecord] = field(default_factory=list)
    candidate_counts: dict[str, dict[str, int]] = field(default_factory=dict)
    stopped: str = "exhausted"  # plausible | budget | exhausted | backend-error
    error: str | None = None


class _BudgetExhausted(Exception):
    pass


class _NullRecorder:
    def prompt(self, location_id: str, attempt: int, text: str) -> None:
        pass

    def response(self, location_id: str, attempt: int, text: str) -> None:
        pass


def location_id(file: str, line: int) -> str:
    safe = "".join(c if c.isalnum() else "_" for c in file)
    return f"{safe}_L{line}"


_VERDICT_NAMES = {"PassAll": "pass-all", "Promising": "promising",
                  "NoProgress": "no-progress"}


class RepairEngine:
    def __init__(self, project_root: str, index: SourceIndex,
                 coverage: CoverageMatrix, backend, provider,
                 harness_command: str, config: RepairConfig,
                 cache: EmbeddingCache | None = None, recorder=None,
                 workspace_root: str | None = None):
        self.project_root = project_root
        self.index = index
        self.coverage = coverage
        self.backend = backend
        self.provider = provider
        self.config = config
        self.cache = cache
        self.recorder = recorder or _NullRecorder()
        self.workspace_root = workspace_root
        self.harness = HarnessConfig(
            command=harness_command, timeout=config.test_timeout,
            expected_tests=[t for t, _ in coverage.tests])
        self.baseline: TestReport | None = None
        self.evidence: BugEvidence | None = None
        self._attempt_counters: dict[str, int] = {}
        self._validation_cache: dict[str, TestReport] = {}
        self._deadline = math.inf  # armed by repair_bug from config.budget
        self.requests = 0
        self.prompt_chars = 0

    # -- plumbing ---------------------------------------------------------

    def _check_budget(self) -> None:
        if time.monotonic() >= self._deadline:
            raise _BudgetExhausted()

    def _next_attempt(self, loc_id: str) -> int:
        self._attempt_counters[loc_id] = self._attempt_counters.get(loc_id, 0) + 1
        return self._attempt_counters[loc_id]

    def _validate(self, patch: Patch) -> TestReport:
        """Apply and test a patch, caching reports by patch content."""
        cached = self._validation_cache.get(patch.id)
        if cached is not None:
            return cached
        workspace = apply_patch(self.project_root, patch, self.index,
                                workspace_root=self.workspace_root)
        try:
            report = run_tests(workspace, self.harness)
        finally:
            if not self.config.keep_workspaces:
                shutil.rmtree(workspace, ignore_errors=True)
        self._validation_cache[patch.id] = report
        return report

    def _ensure_baseline(self) -> None:
        if self.baseline is not None:
            return
        self.baseline = self._validate(Patch(edits=()))
        failing = [FailingTest(r.test, r.message, list(r.frames))
                   for r in self.baseline.failing]
        if not failing:
            raise RuntimeError("baseline run has no failing tests; "
                               "coverage and harness disagree")
        self.evidence = BugEvidence(failing_tests=failing,
                                    originally_failing_count=len(failing))

    def _build_pool(self) -> list[StatementContext]:
        """Contexts for every statement exercised by any test."""
        stmts = {}
        for file, line in sorted(self.coverage.all_locations()):
            if file not in self.index.files:
                continue
            stmt = self.index.statement_at(file, line)
            if stmt is not None:
                stmts[(stmt.file, stmt.start_line)] = stmt
        return [extract_context(self.index, stmts[k]) for k in sorted(stmts)]

    def _add_plausible(self, state: RepairState, patch: Patch) -> None:
        if all(p.id != patch.id for p in state.plausible):
            state.plausible.append(patch)

    @staticmethod
    def _dedupe(patches: list[Patch]) -> list[Patch]:
        seen: dict[str, Patch] = {}
        for p in patches:
            seen.setdefault(p.id, p)
        return list(seen.values())

    # -- single attempt ---------------------------------------------------

    def _attempt(self, state: RepairState, loc_id: str, phase: str,
                 groups, ingredients, fb: list[FeedbackEntry],
                 group_jaccard, promising: Patch | None):
        """One prompt/generate/validate cycle.

        Returns (patch, report, verdict-name); patch/report are None on
        prompt, parse, or application failures, which still consume the
        attempt and produce feedback.
        """
        self._check_budget()
        attempt_no = self._next_attempt(loc_id)

        def record(verdict: str, patch_id: str | None = None):
            state.attempt_log.append(AttemptRecord(
                location=loc_id, phase=phase, attempt=attempt_no,
                verdict=verdict, patch_id=patch_id))

        try:
            bundle = build_prompt(groups, self.evidence, fb, ingredients,
                                  self.index, token_budget=self.config.token_budget,
                                  group_jaccard=group_jaccard)
        except PromptBudgetError as exc:
            logger.warning("prompt over budget at %s attempt %d: %s",
                           loc_id, attempt_no, exc)
            record("prompt-error")
            return None, None, "prompt-error", f"prompt construction failed: {exc}"
        self.recorder.prompt(loc_id, attempt_no, bundle.text)
        self.prompt_chars += len(bundle.text)
        self.requests += 1
        response = self.backend.complete(CompletionRequest(
            prompt=bundle.text, temperature=self.config.temperature,
            max_tokens=self.config.max_tokens, seed=attempt_no,
            location_id=loc_id, attempt=attempt_no))
        self.recorder.response(loc_id, attempt_no, response)
        try:
            patch = parse_patch(response)
        except PatchParseError as exc:
            record("parse-error")
            return None, None, "parse-error", f"output format error: {exc}"
        if promising is not None:
            patch = combine(patch, promising)
        try:
            report = self._validate(patch)
        except PatchApplicationError as exc:
            record("apply-error", patch.id)
            return None, None, "apply-error", f"patch application failed: {exc}"
        verdict = classify(self.baseline, report)
        record(_VERDICT_NAMES[verdict.kind], patch.id)
        return patch, report, verdict.kind, None

    # -- Algorithm: simultaneous repair -----------------------------------

    def simultaneous_repair(self, candidates: list[CandidateSibling],
                            target: StatementContext, state: RepairState,
                            loc_id: str) -> None:
        filtered = jaccard_filter(list(candidates), target, self.config.alpha)
        groups = group_by_method(filtered, self.index)
        if not groups:
            logger.info("no groups after Jaccard filter at %s", loc_id)
            return
        group_jaccard = {}
        for cand in filtered:
            stmt = cand.context.target
            method = self.index.enclosing_method(stmt.file, stmt.start_line)
            for g in groups:
                if g.file == stmt.file and (
                        (g.method is None and method is None)
                        or (g.method is not None and method is not None
                            and g.method.signature_line == method.signature_line)):
                    key = (g.file, min(g.sibling_lines))
                    group_jaccard[key] = max(group_jaccard.get(key, 0.0),
                                             cand.jaccard_similarity or 0.0)
        ingredients = extract_fix_ingredients(groups, self.index,
                                              self.config.ingredients)
        fb: list[FeedbackEntry] = []
        for _ in range(self.config.attempts):
            if self.config.stop_on_first_plausible and state.plausible:
                return
            patch, report, verdict, note = self._attempt(
                state, loc_id, "sim-A", groups, ingredients, fb,
                group_jaccard, promising=None)
            if verdict == "PassAll":
                self._add_plausible(state, patch)
                fb = [FeedbackEntry(patch=patch)]
            elif patch is None:
                fb = [FeedbackEntry(patch=None, note=note)]
            else:
                fb = [FeedbackEntry(patch=patch, report=report)]
        for p_pro in list(state.promising):
            if self.config.stop_on_first_plausible and state.plausible:
                return
            self._check_budget()
            try:
                seed_report = self._validate(p_pro)
            except PatchApplicationError as exc:
                logger.warning("promising patch %s no longer applies: %s",
                               p_pro.id, exc)
                continue
            fb = [FeedbackEntry(patch=p_pro, report=seed_report)]
            for _ in range(self.config.attempts):
                if self.config.stop_on_first_plausible and state.plausible:
                    return
                patch, report, verdict, note = self._attempt(
                    state, loc_id, "sim-B", groups, ingredients, fb,
                    group_jaccard, promising=p_pro)
                if verdict == "PassAll":
                    self._add_plausible(state, patch)
                    fb = [FeedbackEntry(patch=patch)]
                elif patch is None:
                    fb = [FeedbackEntry(patch=None, note=note)]
                else:
                    fb = [FeedbackEntry(patch=patch, report=report)]

    # -- Algorithm: iterative repair --------------------------------------

    def iterative_repair(self, candidates: list[CandidateSibling],
                         state: RepairState, loc_id: str) -> None:
        groups = group_by_method(list(candidates), self.index)
        for group in groups:
            if self.config.stop_on_first_plausible and state.plausible:
                return
            fb: list[FeedbackEntry] = []
            new_pro: list[Patch] = []
            ingredients = extract_fix_ingredients([group], self.index,
                                                  self.config.ingredients)
            for _ in range(self.config.attempts):
                if self.config.stop_on_first_plausible and state.plausible:
                    break
                patch, report, verdict, note = self._attempt(
                    state, loc_id, "iter-A", [group], ingredients, fb,
                    None, promising=None)
                if verdict == "PassAll":
                    self._add_plausible(state, patch)
                    fb = [FeedbackEntry(patch=patch)]
                elif patch is None:
                    fb = [FeedbackEntry(patch=None, note=note)]
                else:
                    if verdict == "Promising":
                        new_pro.append(patch)
                    fb = [FeedbackEntry(patch=patch, report=report)]
            for p_pro in list(state.promising):
                if self.config.stop_on_first_plausible and state.plausible:
                    break
                self._check_budget()
                try:
                    seed_report = self._validate(p_pro)
                except PatchApplicationError as exc:
                    logger.warning("promising patch %s no longer applies: %s",
                                   p_pro.id, exc)
                    new_pro.append(p_pro)
                    continue
                fb = [FeedbackEntry(patch=p_pro, report=seed_report)]
                for _ in range(self.config.attempts):
                    if self.config.stop_on_first_plausible and state.plausible:
                        break
                    patch, report, verdict, note = self._attempt(
                        state, loc_id, "iter-B", [group], ingredients, fb,
                        None, promising=p_pro)
                    if verdict == "PassAll":
                        self._add_plausible(state, patch)
                        fb = [FeedbackEntry(patch=patch)]
                    elif patch is None:
                        # Failed attempt: carry the prior promising patch.
                        new_pro.append(p_pro)
                        fb = [FeedbackEntry(patch=None, note=note)]
                    else:
                        if verdict == "Promising":
                            new_pro.append(patch)
                        else:
                            new_pro.append(p_pro)  # carry-forward rule
                        fb = [FeedbackEntry(patch=patch, report=report)]
            state.promising = self._dedupe(new_pro)

    # -- Algorithm: main loop ---------------------------------------------

    def repair_bug(self, suspicious: list[SuspiciousLocation]) -> RepairState:
        state = RepairState()
        self._deadline = time.monotonic() + self.config.budget
        try:
            self._ensure_baseline()
        except _BudgetExhausted:
            state.stopped = "budget"
            return state
        pool = TokenPool(self._build_pool())
        try:
            for loc in suspicious[:self.config.cap]:
                self._check_budget()
                if loc.file not in self.index.files:
                    logger.info("suspicious file not indexed: %s", loc.file)
                    continue
                stmt = self.index.statement_at(loc.file, loc.line)
                if stmt is None:
                    logger.info("no statement at %s:%d", loc.file, loc.line)
                    continue
                loc_id = location_id(loc.file, loc.line)
                target = extract_context(self.index, stmt)
                token_cands = token_match(target, pool, limit=self.config.k)
                cands = embedding_match(target, token_cands, self.config.theta,
                                        self.provider, self.cache)
                state.candidate_counts[loc_id] = {
                    "pool": len(pool),
                    "token_matched": len(token_cands),
                    "embedding_matched": len(cands),
                }
                # The suspicious statement itself is always in scope.
                candidates = [CandidateSibling(
                    context=target, token_similarity=1.0,
                    embedding_similarity=1.0, jaccard_similarity=1.0)]
                candidates += [c for c in cands if c.key != target.key]
                self.simultaneous_repair(candidates, target, state, loc_id)
                if state.plausible:
                    state.stopped = "plausible"
                    return state
                self.iterative_repair(candidates, state, loc_id)
                if state.plausible:
                    state.stopped = "plausible"
                    return state
        except _BudgetExhausted:
            state.stopped = "budget"
            return state
        except BackendError as exc:
            logger.error("backend fatal: %s", exc)
            state.stopped = "backend-error"
            state.error = str(exc)
            return state
        state.stopped = "plausible" if state.plausible else "exhausted"
        return state
