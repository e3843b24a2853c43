"""Span recorder for the traced run, and the hooks that feed it.

The hooks rebind the module attributes through which `cli`,
`orchestrator` and `engine` reach each layer, and wrap methods of
`SourceIndex`, `RepairEngine`, `EmbeddingCache`, the embedding provider and
the scripted backend, inside the traced worker process only; siblingfix's sources are not touched. Each span records its name,
start, end and parent; spans stay in memory and are written out once the
run has ended. A span's self time is its duration minus its children's,
so the self times of one run sum to its root span.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from array import array
from collections import Counter, defaultdict
from pathlib import Path

ROOT = "orchestrator.run"


class Tracer:
    """Spans in flat arrays, so recording them allocates no objects that
    the garbage collector tracks and run-time collection behaves as in an
    untraced run."""

    def __init__(self):
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")  # index of the parent span, -1 for a root
        self._stack: list[int] = []
        self.counts: Counter[str] = Counter()
        self.missing: list[str] = []

    def wrap(self, name: str, fn, after=None, errors: dict | None = None):
        """`fn` recording one span per call.

        `after(result, *args)` runs once the span has closed; `errors` maps
        an exception class name to the counter its raises increment.
        """
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                counter = (errors or {}).get(type(exc).__name__)
                if counter:
                    self.counts[counter] += 1
                raise
            finally:
                ends[i] = clock()
                stack.pop()
            if after is not None:
                after(result, *args)
            return result
        return traced

    def hook(self, owner, attr: str, name: str, **kw) -> None:
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        setattr(owner, attr, self.wrap(name, fn, **kw))

    def self_times(self) -> dict[str, float]:
        spans = list(zip(self.names, self.starts, self.ends, self.parents))
        child = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _), c in zip(spans, child):
            out[name] += end - start - c
        return dict(out)

    def durations(self, name: str) -> list[float]:
        return [e - s for n, s, e in zip(self.names, self.starts, self.ends)
                if n == name]

    def write(self, path: Path) -> None:
        """One JSON line per span: [name, start, end, parent index]."""
        with path.open("w", encoding="utf-8") as fh:
            for rec in zip(self.names, self.starts, self.ends, self.parents):
                fh.write(json.dumps(rec) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary of the imported siblingfix package."""
    from siblingfix import (cli, embeddings, engine, llm, orchestrator,
                            source_index)

    c = tracer.counts

    def count(key, fn=len):
        def after(result, *args):
            c[key] += fn(result)
        return after

    tracer.hook(cli, "run", ROOT)
    tracer.hook(orchestrator, "index_source", "source_index.index_source")
    tracer.hook(orchestrator, "load_coverage", "localization.load_coverage")
    tracer.hook(orchestrator, "ochiai_rank", "localization.ochiai_rank")
    tracer.hook(orchestrator, "patch_to_diff", "orchestrator.patch_to_diff")
    index = source_index.SourceIndex
    tracer.hook(index, "statement_at", "source_index.statement_at")
    tracer.hook(index, "enclosing_method", "source_index.enclosing_method")
    tracer.hook(index, "statements_in_method",
                "source_index.statements_in_method")
    repair = engine.RepairEngine
    tracer.hook(repair, "repair_bug", "engine.repair_bug")
    tracer.hook(repair, "_validate", "engine.validate")
    tracer.hook(repair, "_build_pool", "engine.build_pool",
                after=count("engine.pool_size"))
    tracer.hook(engine, "extract_context", "matching.extract_context")
    tracer.hook(engine, "token_match", "matching.token_match")
    tracer.hook(engine, "jaccard_filter", "matching.jaccard_filter")
    tracer.hook(engine, "group_by_method", "matching.group_by_method",
                after=count("matching.groups"))
    tracer.hook(engine, "embedding_match", "embeddings.embedding_match",
                after=lambda result, target, cands, *rest:
                c.update({"embeddings.texts": 1 + len(cands)}))
    tracer.hook(engine, "extract_fix_ingredients", "ingredients.extract",
                after=count("ingredients.returned"))
    tracer.hook(engine, "build_prompt", "prompting.build_prompt",
                after=_prompt_counter(c))
    tracer.hook(engine, "parse_patch", "llm.parse_patch",
                errors={"PatchParseError": "llm.parse_errors"})
    tracer.hook(engine, "combine", "llm.combine")
    tracer.hook(engine, "apply_patch", "validation.apply_patch",
                errors={"PatchApplicationError": "validation.apply_errors"})
    tracer.hook(engine, "run_tests", "validation.run_tests",
                after=count("validation.harness_failures",
                            lambda report: bool(report.failing)))
    tracer.hook(engine, "classify", "validation.classify")
    tracer.hook(llm.ScriptedBackend, "complete", "llm.complete")
    tracer.hook(embeddings.LocalHashProvider, "embed_batch",
                "embeddings.embed_batch")
    cache = embeddings.EmbeddingCache
    tracer.hook(cache, "__init__", "embeddings.cache_load")
    tracer.hook(cache, "flush", "embeddings.cache_flush")
    get = cache.get

    def counted_get(self, key):
        value = get(self, key)
        c["embeddings.cache_hits" if value is not None
          else "embeddings.cache_misses"] += 1
        return value
    cache.get = counted_get


def _prompt_counter(c: Counter):
    def after(bundle, groups, evidence, feedback, ingredients, *rest):
        c["prompting.prompt_chars"] += len(bundle.text)
        body = dict(bundle.sections)
        shown = body["buggy-methods"].count("// file: ")
        listed = 0 if body["ingredients"] == "(none)" else \
            body["ingredients"].count("\n") + 1
        if shown < len(groups) or listed < len(ingredients):
            c["prompting.truncated_prompts"] += 1
    return after


# Per-layer metrics read from the spans (summed self time, or number of
# calls, of the named span) and from Tracer.counts.
SELF_TIME = {
    "source_index.index_source_s": "source_index.index_source",
    "source_index.statement_at_s": "source_index.statement_at",
    "source_index.enclosing_method_s": "source_index.enclosing_method",
    "source_index.statements_in_method_s": "source_index.statements_in_method",
    "localization.load_coverage_s": "localization.load_coverage",
    "localization.ochiai_rank_s": "localization.ochiai_rank",
    "engine.build_pool_s": "engine.build_pool",
    "matching.extract_context_s": "matching.extract_context",
    "matching.token_match_s": "matching.token_match",
    "matching.jaccard_filter_s": "matching.jaccard_filter",
    "matching.group_by_method_s": "matching.group_by_method",
    "embeddings.embedding_match_s": "embeddings.embedding_match",
    "embeddings.embed_batch_s": "embeddings.embed_batch",
    "embeddings.cache_load_s": "embeddings.cache_load",
    "embeddings.cache_flush_s": "embeddings.cache_flush",
    "ingredients.extract_s": "ingredients.extract",
    "prompting.build_prompt_s": "prompting.build_prompt",
    "llm.complete_s": "llm.complete",
    "llm.parse_patch_s": "llm.parse_patch",
    "validation.apply_patch_s": "validation.apply_patch",
    "validation.classify_s": "validation.classify",
    "validation.run_tests_s": "validation.run_tests",
    "engine.repair_bug_self_s": "engine.repair_bug",
    "engine.validate_self_s": "engine.validate",
    "orchestrator.patch_to_diff_s": "orchestrator.patch_to_diff",
    "orchestrator.run_self_s": ROOT,
}
CALLS = {
    "source_index.statement_at_calls": "source_index.statement_at",
    "source_index.enclosing_method_calls": "source_index.enclosing_method",
    "matching.extract_context_calls": "matching.extract_context",
    "matching.token_match_calls": "matching.token_match",
    "ingredients.extract_calls": "ingredients.extract",
    "prompting.build_prompt_calls": "prompting.build_prompt",
    "llm.combine_calls": "llm.combine",
    "validation.apply_patch_calls": "validation.apply_patch",
    "validation.harness_runs": "validation.run_tests",
    "orchestrator.patch_to_diff_calls": "orchestrator.patch_to_diff",
}
COUNTERS = (
    "engine.pool_size", "matching.groups", "embeddings.texts",
    "embeddings.cache_hits", "embeddings.cache_misses",
    "ingredients.returned", "prompting.prompt_chars",
    "prompting.truncated_prompts", "llm.parse_errors",
    "validation.apply_errors", "validation.harness_failures",
)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures of one traced run (without the report's counts)."""
    selfs = tracer.self_times()
    calls = Counter(tracer.names)
    out = {k: selfs.get(span, 0.0) for k, span in SELF_TIME.items()}
    out.update({k: calls[span] for k, span in CALLS.items()})
    out.update({k: tracer.counts[k] for k in COUNTERS})
    lookups = out["embeddings.cache_hits"] + out["embeddings.cache_misses"]
    out["embeddings.cache_hit_ratio"] = (out["embeddings.cache_hits"] / lookups
                                         if lookups else 0.0)
    matches = tracer.durations("matching.token_match")
    out["matching.token_match_p50_ms"] = (statistics.median(matches) * 1000
                                          if matches else 0.0)
    return out


def self_time_check(tracer: Tracer) -> dict:
    """Self times must add up to the root span; report by how much."""
    roots = [e - s for s, e, p in zip(tracer.starts, tracer.ends, tracer.parents)
             if p == -1]
    total = sum(tracer.self_times().values())
    return {"root_spans": len(roots), "root_s": sum(roots), "self_sum_s": total,
            "ok": len(roots) == 1 and abs(total - roots[0]) <= 1e-6 * max(1.0, roots[0])}
