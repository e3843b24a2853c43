"""Sibling-based multi-hunk automated program repair.

Pipeline: spectrum-based fault localization over test coverage, sibling
candidate detection via token- and embedding-based matching, then
LLM-driven simultaneous and iterative repair with test feedback and
promising-patch carry-over.
"""

from .embeddings import EmbeddingCache, LocalHashProvider, embed, embedding_match
from .engine import RepairConfig, RepairEngine, RepairState
from .ingredients import FixIngredient, extract_fix_ingredients
from .llm import (CompletionRequest, Patch, PatchEdit, RemoteChatBackend,
                  ScriptedBackend, combine, parse_patch, render_patch)
from .localization import (CoverageMatrix, SuspiciousLocation, apply_spfl,
                           load_coverage, ochiai_rank)
from .matching import (CandidateSibling, StatementContext, extract_context,
                       group_by_method, jaccard_filter, token_match, tokenize)
from .prompting import FeedbackEntry, PromptBundle, build_prompt
from .source_index import (MethodRef, SourceIndex, Statement, identifiers_in,
                           index_source)
from .validation import (HarnessConfig, StackFrame, TestReport, TestResult,
                         Workspace, align_traces, apply_patch, classify,
                         run_tests)

__version__ = "0.1.0"

__all__ = [
    "EmbeddingCache", "LocalHashProvider", "embed", "embedding_match",
    "RepairConfig", "RepairEngine", "RepairState",
    "FixIngredient", "extract_fix_ingredients",
    "CompletionRequest", "Patch", "PatchEdit", "RemoteChatBackend",
    "ScriptedBackend", "combine", "parse_patch", "render_patch",
    "CoverageMatrix", "SuspiciousLocation", "apply_spfl", "load_coverage",
    "ochiai_rank",
    "CandidateSibling", "StatementContext", "extract_context",
    "group_by_method", "jaccard_filter", "token_match", "tokenize",
    "FeedbackEntry", "PromptBundle", "build_prompt",
    "MethodRef", "SourceIndex", "Statement", "identifiers_in", "index_source",
    "HarnessConfig", "StackFrame", "TestReport", "TestResult", "Workspace",
    "align_traces", "apply_patch", "classify", "run_tests",
]
