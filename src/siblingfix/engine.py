"""The repair engine: per-suspicious-location loop, simultaneous repair,
and iterative repair with promising-patch carry-over.

All LLM and validation calls are serialized; each attempt's prompt depends
on the previous verdict. The wall-clock budget is checked before every
attempt, and an in-flight validation is allowed to finish.
"""

from __future__ import annotations

import hashlib
import logging
import math
import shutil
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field, fields
from pathlib import Path

from .checks import check_type
from .embeddings import EmbeddingCache, embedding_match
from .ingredients import extract_fix_ingredients
from .llm import (BackendError, CompletionRequest, Patch, PatchParseError,
                  attempt_file, combine, parse_patch)
from .localization import CoverageMatrix, SuspiciousLocation
from .matching import (CandidateSibling, StatementContext, TokenPool,
                       extract_context, group_by_method, jaccard_filter,
                       statement_contexts, token_match)
from .prompting import FeedbackEntry, PromptBudgetError, build_prompt
from .source_index import SourceIndex
from .validation import (HarnessConfig, HarnessProtocolError,
                         PatchApplicationError, TestReport, Workspace,
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
        for f in fields(self):  # each value has its default's type
            check_type(f.name, getattr(self, f.name), type(f.default))
        if min(self.k, self.attempts, self.cap, self.token_budget,
               self.max_tokens) < 1 or self.ingredients < 0:
            raise ValueError("k, attempts, cap, token_budget and max_tokens "
                             "must be >= 1, ingredients >= 0")
        if min(self.budget, self.test_timeout) <= 0:
            raise ValueError("budget and test_timeout must be positive")
        if not -1.0 <= self.theta <= 1.0:
            raise ValueError("theta must be in [-1, 1]")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must be in [0, 1]")
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")


@dataclass
class AttemptRecord:
    location: str
    phase: str    # sim-A | sim-B | iter-A | iter-B
    attempt: int
    verdict: str  # pass-all | promising | no-progress | prompt-error |
                  # parse-error | apply-error | harness-error
    patch_id: str | None = None


@dataclass
class RepairState:
    plausible: list[Patch] = field(default_factory=list)
    promising: list[Patch] = field(default_factory=list)
    attempt_log: list[AttemptRecord] = field(default_factory=list)
    candidate_counts: dict[str, dict[str, int]] = field(default_factory=dict)
    stopped: str = "exhausted"  # plausible | budget | exhausted |
                                # backend-error | interrupted | error
    error: str | None = None
    requests: int = 0       # LLM requests sent
    prompt_chars: int = 0   # characters over all prompts sent


class _BudgetExhausted(Exception):
    pass


class BaselineError(RuntimeError):
    """The unpatched project's run has no failing test to repair."""


def _safe_name(file: str) -> str:
    return "".join(c if c.isalnum() else "_" for c in file)


def location_id(file: str, line: int, shared: frozenset[str] = frozenset()) -> str:
    """`<safe path>_L<line>`, with the path's SHA-1 prefix if `shared`
    (safe paths of more than one indexed path) holds the safe path."""
    safe = _safe_name(file)
    if safe in shared:
        safe += "_" + hashlib.sha1(file.encode()).hexdigest()[:8]
    return f"{safe}_L{line}"


# Failures that end an attempt before a verdict: (verdict, feedback note).
_ATTEMPT_FAILURES = {
    PromptBudgetError: ("prompt-error", "prompt construction failed"),
    PatchParseError: ("parse-error", "output format error"),
    PatchApplicationError: ("apply-error", "patch application failed"),
    HarnessProtocolError: ("harness-error", "harness protocol error"),
}


class RepairEngine:
    def __init__(self, project_root: str, index: SourceIndex,
                 coverage: CoverageMatrix, backend, provider,
                 harness_command: str, config: RepairConfig,
                 cache: EmbeddingCache, run_dir: str | Path | None = None):
        # The project's copy, made by the baseline validation; its tree
        # lives as long as repair_bug.
        self.workspace = Workspace(project_root, index)
        self.index = index
        self.coverage = coverage
        self.backend = backend
        self.provider = provider
        self.config = config
        self.cache = cache
        self.run_dir = Path(run_dir) if run_dir else None
        if self.run_dir:
            for sub in ("prompts", "responses"):
                (self.run_dir / sub).mkdir(parents=True, exist_ok=True)
        names = Counter(map(_safe_name, index.files))
        self._shared_names = frozenset(n for n, c in names.items() if c > 1)
        self.harness = HarnessConfig(
            command=harness_command, timeout=config.test_timeout,
            expected_tests=[t for t, _ in coverage.tests])
        self.baseline: TestReport | None = None
        self._attempt_counters: dict[str, int] = {}
        self._validation_cache: dict[str, TestReport] = {}
        self._deadline = math.inf  # armed by repair_bug from config.budget

    # -- plumbing ---------------------------------------------------------

    def _check_budget(self) -> None:
        if time.monotonic() >= self._deadline:
            raise _BudgetExhausted()

    def _save(self, sub: str, loc_id: str, attempt: int, text: str) -> None:
        if self.run_dir:
            (self.run_dir / sub / attempt_file(loc_id, attempt)).write_text(
                text, encoding="utf-8")

    def _next_attempt(self, loc_id: str) -> int:
        self._attempt_counters[loc_id] = self._attempt_counters.get(loc_id, 0) + 1
        return self._attempt_counters[loc_id]

    def _validate(self, patch: Patch) -> TestReport:
        """Apply and test a patch in the run's workspace, caching reports
        by patch content. A run that gave no results, or malformed ones,
        leaves its log's tail in `harness/<patch id>.txt` of the run
        directory. `keep_workspaces` keeps a copy of the tree the harness
        left, in a temporary directory whose name holds the patch id."""
        cached = self._validation_cache.get(patch.id)
        if cached is not None:
            return cached
        workspace = apply_patch(self.workspace, patch)
        try:
            report = run_tests(workspace, self.harness)
        except HarnessProtocolError as exc:
            self._save_log_tail(patch, exc.log_tail)
            raise
        finally:
            if self.config.keep_workspaces:
                kept = tempfile.mkdtemp(prefix=f"repair-ws-{patch.id}-")
                shutil.copytree(workspace, kept, dirs_exist_ok=True)
                logger.info("kept the workspace of patch %s: %s", patch.id, kept)
        self._save_log_tail(patch, report.log_tail)
        self._validation_cache[patch.id] = report
        return report

    def _save_log_tail(self, patch: Patch, tail: str) -> None:
        if tail and self.run_dir:
            tails = self.run_dir / "harness"
            tails.mkdir(exist_ok=True)
            (tails / f"{patch.id}.txt").write_text(tail, encoding="utf-8")

    def _ensure_baseline(self) -> None:
        self.baseline = self._validate(Patch(edits=()))
        if not self.baseline.failing:
            raise BaselineError("baseline run has no failing tests; "
                                "coverage and harness disagree")

    def _build_pool(self) -> list[StatementContext]:
        """Contexts for every statement exercised by any test, in
        (file, start line) order."""
        stmts = dict.fromkeys(
            self.index.statement_at(file, line)
            for file, line in sorted(self.coverage.all_locations())
            if file in self.index.files)
        stmts.pop(None, None)
        return statement_contexts(
            self.index, sorted(stmts, key=lambda s: (s.file, s.start_line)))

    @staticmethod
    def _dedupe(patches: list[Patch]) -> list[Patch]:
        seen: dict[str, Patch] = {}
        for p in patches:
            seen.setdefault(p.id, p)
        return list(seen.values())

    # -- single attempt ---------------------------------------------------

    def _attempt(self, state: RepairState, loc_id: str, phase: str,
                 groups, ingredients, fb: list[FeedbackEntry],
                 seed: Patch | None) -> tuple[str, FeedbackEntry]:
        """One prompt/generate/validate cycle.

        Returns the verdict and the feedback for the next attempt, whose
        patch is the validated one. A failure before a verdict still
        consumes the attempt; its feedback carries only a note.
        """
        self._check_budget()
        attempt_no = self._next_attempt(loc_id)
        patch = None
        try:
            bundle = build_prompt(groups, self.baseline.failing, fb,
                                  ingredients, self.index,
                                  token_budget=self.config.token_budget)
            self._save("prompts", loc_id, attempt_no, bundle.text)
            state.prompt_chars += len(bundle.text)
            state.requests += 1
            response = self.backend.complete(CompletionRequest(
                prompt=bundle.text, temperature=self.config.temperature,
                max_tokens=self.config.max_tokens, location_id=loc_id,
                attempt=attempt_no))
            self._save("responses", loc_id, attempt_no, response)
            patch = parse_patch(response)
            if seed is not None:
                patch = combine(patch, seed)
            report = self._validate(patch)
            verdict = classify(self.baseline, report)
            # A plausible patch is fed back without its (all-pass) report.
            entry = FeedbackEntry(
                patch=patch, report=None if verdict == "pass-all" else report)
        except tuple(_ATTEMPT_FAILURES) as exc:
            verdict, what = _ATTEMPT_FAILURES[type(exc)]
            logger.debug("%s at %s attempt %d: %s", verdict, loc_id,
                         attempt_no, exc)
            entry = FeedbackEntry(patch=None, note=f"{what}: {exc}")
        state.attempt_log.append(AttemptRecord(
            location=loc_id, phase=phase, attempt=attempt_no, verdict=verdict,
            patch_id=None if patch is None else patch.id))
        return verdict, entry

    # -- Algorithm: one phase ---------------------------------------------

    def _run_phase(self, state: RepairState, loc_id: str, phase: str,
                   groups, ingredients, seed: Patch | None = None
                   ) -> list[Patch]:
        """Up to `attempts` cycles, each fed back the previous outcome.

        Phase A starts fresh. Phase B starts from the seed, a carried
        promising patch, and combines it into every generated patch.
        Returns the patches to carry: each promising patch, plus the seed
        after any seeded attempt that did not pass all.
        """
        carry: list[Patch] = []
        fb: list[FeedbackEntry] = []
        if seed is not None:
            fb = [FeedbackEntry(patch=seed, report=self._validate(seed))]
        for _ in range(self.config.attempts):
            if self.config.stop_on_first_plausible and state.plausible:
                break
            verdict, entry = self._attempt(state, loc_id, phase, groups,
                                           ingredients, fb, seed)
            fb = [entry]
            if verdict == "pass-all":
                if all(p.id != entry.patch.id for p in state.plausible):
                    state.plausible.append(entry.patch)
            elif verdict == "promising":
                carry.append(entry.patch)
            elif seed is not None:
                carry.append(seed)  # carry-forward rule
        return carry

    def _run_phases(self, state: RepairState, loc_id: str, prefix: str,
                    groups, ingredients) -> list[Patch]:
        """Phase A, then one phase B per promising patch held on entry."""
        carry = self._run_phase(state, loc_id, f"{prefix}-A", groups,
                                ingredients)
        for seed in list(state.promising):
            carry += self._run_phase(state, loc_id, f"{prefix}-B", groups,
                                     ingredients, seed)
        return carry

    # -- Algorithm: simultaneous repair -----------------------------------

    def simultaneous_repair(self, candidates: list[CandidateSibling],
                            target: StatementContext, state: RepairState,
                            loc_id: str) -> None:
        """All sibling groups in one prompt; the promising set is only read."""
        filtered = jaccard_filter(list(candidates), target, self.config.alpha)
        groups = group_by_method(filtered, self.index)
        ingredients = extract_fix_ingredients(groups, self.index,
                                              self.config.ingredients)
        self._run_phases(state, loc_id, "sim", groups, ingredients)

    # -- Algorithm: iterative repair --------------------------------------

    def iterative_repair(self, candidates: list[CandidateSibling],
                         state: RepairState, loc_id: str) -> None:
        """One group at a time; each group started replaces the promising
        set with what its phases carry."""
        for group in group_by_method(list(candidates), self.index):
            if self.config.stop_on_first_plausible and state.plausible:
                return
            ingredients = extract_fix_ingredients([group], self.index,
                                                  self.config.ingredients)
            state.promising = self._dedupe(self._run_phases(
                state, loc_id, "iter", [group], ingredients))

    # -- Algorithm: main loop ---------------------------------------------

    def repair_bug(self, suspicious: list[SuspiciousLocation],
                   state: RepairState | None = None) -> RepairState:
        """Try each suspicious location until a plausible patch is found,
        filling `state` in place if given, so an escaping exception keeps it.
        The workspace is removed on every exit."""
        state = state if state is not None else RepairState()
        self._deadline = time.monotonic() + self.config.budget
        try:
            self._ensure_baseline()
            pool = TokenPool(self._build_pool())
            for loc in suspicious[:self.config.cap]:
                self._check_budget()
                if loc.file not in self.index.files:
                    logger.info("suspicious file not indexed: %s", loc.file)
                    continue
                stmt = self.index.statement_at(loc.file, loc.line)
                if stmt is None:
                    logger.info("no statement at %s:%d", loc.file, loc.line)
                    continue
                loc_id = location_id(loc.file, loc.line, self._shared_names)
                target = extract_context(self.index, stmt)
                token_cands = token_match(target, pool, limit=self.config.k)
                cands = embedding_match(target, token_cands, self.config.theta,
                                        self.provider, self.cache)
                state.candidate_counts[loc_id] = {
                    "pool": len(pool),
                    "token_matched": len(token_cands),
                    "embedding_matched": len(cands),
                }
                # The suspicious statement itself is always in scope; token
                # matching has already left it out of `cands`.
                candidates = [CandidateSibling(
                    context=target, token_similarity=1.0,
                    embedding_similarity=1.0, jaccard_similarity=1.0)] + cands
                self.simultaneous_repair(candidates, target, state, loc_id)
                if not state.plausible:
                    self.iterative_repair(candidates, state, loc_id)
                if state.plausible:
                    break
            state.stopped = "plausible" if state.plausible else "exhausted"
        except _BudgetExhausted:
            state.stopped = "budget"
        except BackendError as exc:
            logger.error("backend fatal: %s", exc)
            state.stopped = "backend-error"
            state.error = str(exc)
        finally:
            self.workspace.remove()
        return state
