"""Run orchestration: descriptor loading, run directory, machine-readable
report, and wiring of backends/providers/cache into the engine.

The run directory holds prompts/, responses/, patches/, and report.json.
The attempt log inside report.json is free of timestamps and absolute
paths so scripted runs replay byte-identically.
"""

from __future__ import annotations

import dataclasses
import difflib
import json
import re
import signal
import sqlite3
import sys
import time
from contextlib import closing, suppress
from dataclasses import dataclass
from itertools import count
from pathlib import Path

from .checks import check_type
from .embeddings import EmbeddingCache, LocalHashProvider, RemoteEmbeddingProvider
from .engine import BaselineError, RepairConfig, RepairEngine, RepairState
from .llm import Patch, RemoteChatBackend, ScriptedBackend
from .localization import (CoverageError, SuspiciousLocation, apply_spfl,
                           load_coverage, ochiai_rank)
from .source_index import SourceIndex, index_source
from .validation import HarnessProtocolError, patched_texts

REPORT_SCHEMA_VERSION = 1


class DescriptorError(Exception):
    """Invalid project descriptor or unusable referenced inputs."""


@dataclass
class ProjectDescriptor:
    project_root: Path
    include: list[str]
    coverage_path: Path
    harness_command: str
    backend: ScriptedBackend | RemoteChatBackend
    provider: LocalHashProvider | RemoteEmbeddingProvider
    mode: str  # sbfl | spfl | pfl
    spfl_location: tuple[str, int] | None
    pfl_locations: list[tuple[str, int]]
    config: RepairConfig
    cache_path: Path | None


def _resolve(base: Path, value: str) -> Path:
    p = Path(value)
    return p if p.is_absolute() else (base / p)


def _location(entry: dict) -> tuple[str, int]:
    return (check_type("location file", entry["file"], str),
            check_type("location line", entry["line"], int))


def load_descriptor(path: str | Path, overrides: dict | None = None
                    ) -> ProjectDescriptor:
    """Parse and validate the JSON descriptor; CLI overrides win."""
    path = Path(path)
    if not path.is_file():
        raise DescriptorError(f"descriptor not found: {path}")
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise DescriptorError(f"descriptor is not valid JSON: {exc}") from exc
    base = path.parent
    overrides = overrides or {}
    try:
        root = _resolve(base, data["project_root"])
        include = data.get("include", ["**/*"])
        if not (isinstance(include, list)
                and all(isinstance(p, str) for p in include)):
            raise ValueError("include must be a list of glob strings")
        for pattern in include:
            glob_path = Path(pattern)
            if not pattern or glob_path.is_absolute() or ".." in glob_path.parts:
                raise ValueError(f"include pattern must be a non-empty path "
                                 f"inside the project: {pattern!r}")
        coverage = _resolve(base, data["coverage"])
        harness = data["harness"]
        command = check_type("harness command", harness["command"], str)
        backend_spec = dict(data["backend"])
        if backend_spec.get("type") == "scripted":
            backend_spec["directory"] = str(_resolve(base, backend_spec["directory"]))
        backend = make_backend(backend_spec)
        provider = make_provider(dict(data.get("provider", {})))
        cache_path = data.get("cache")
        cache_path = _resolve(base, cache_path) if cache_path else None
        cfg = dict(data.get("config", {}))
        if "timeout" in harness:
            cfg.setdefault("test_timeout", float(
                check_type("harness timeout", harness["timeout"], float)))
        mode = overrides.get("mode") or data.get("mode", "sbfl")
        spfl_location = _location(data["spfl"]) if mode == "spfl" else None
        pfl_locations = ([_location(l) for l in data.get("pfl") or []]
                         if mode == "pfl" else [])
        if len(set(pfl_locations)) < len(pfl_locations):
            raise ValueError("pfl lists a location twice")
    except KeyError as exc:
        raise DescriptorError(f"descriptor missing required key: {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise DescriptorError(f"bad descriptor value: {exc}") from exc
    if mode not in ("sbfl", "spfl", "pfl"):
        raise DescriptorError(f"unknown mode: {mode}")
    if mode == "pfl" and not pfl_locations:
        raise DescriptorError("pfl mode requires a non-empty location list")
    if not root.is_dir():
        raise DescriptorError(f"project root missing: {root}")
    if not coverage.is_file():
        raise DescriptorError(f"coverage file missing: {coverage}")

    for key, value in overrides.items():
        if key != "mode" and value is not None:
            cfg[key] = value
    try:
        config = RepairConfig(**cfg)
    except (TypeError, ValueError) as exc:
        raise DescriptorError(f"bad config value: {exc}") from exc

    return ProjectDescriptor(
        project_root=root, include=include, coverage_path=coverage,
        harness_command=command, backend=backend, provider=provider,
        mode=mode, spfl_location=spfl_location,
        pfl_locations=pfl_locations, config=config, cache_path=cache_path)


def _given(spec: dict, *keys: str) -> dict:
    """The settings among `keys` that `spec` gives; constructors default the rest."""
    return {key: spec[key] for key in keys if key in spec}


def make_backend(spec: dict):
    kind = spec.get("type")
    if kind == "scripted":
        return ScriptedBackend(spec["directory"], **_given(spec, "on_missing"))
    if kind == "remote":
        return RemoteChatBackend(spec["url"], spec["model"],
                                 **_given(spec, "api_key_env"))
    raise DescriptorError(f"unknown backend type: {kind!r}")


def make_provider(spec: dict):
    kind = spec.get("type", "local-hash")
    if kind == "local-hash":
        return LocalHashProvider(**_given(spec, "dimension"))
    if kind == "remote":
        return RemoteEmbeddingProvider(spec["url"], spec["model"],
                                       **_given(spec, "api_key_env"))
    raise DescriptorError(f"unknown provider type: {kind!r}")


# Diff lines end at "\n", as the index counts them; a CRLF line keeps its "\r".
_LINE_RE = re.compile(r"[^\n]*\n|[^\n]+")


def patch_to_diff(patch: Patch, index: SourceIndex) -> str:
    """Unified diff of the patch against the indexed project text, with
    each file's own line ending."""
    chunks = []
    for rel, after in sorted(patched_texts(patch, index).items()):
        sf = index.files[rel]
        diff = difflib.unified_diff(
            _LINE_RE.findall(sf.with_newline(sf.text)),
            _LINE_RE.findall(sf.with_newline(after)),
            fromfile=f"a/{rel}", tofile=f"b/{rel}")
        chunks.append("".join(diff))
    return "".join(chunks)


def _make_run_dir(out_dir: Path) -> Path:
    stamp = time.strftime("%Y%m%d-%H%M%S")
    out_dir.mkdir(parents=True, exist_ok=True)
    for n in count():
        run_dir = out_dir / (f"{stamp}-{n}" if n else stamp)
        with suppress(FileExistsError):
            run_dir.mkdir()
            return run_dir


def _suspicious_list(desc: ProjectDescriptor, coverage) -> list[SuspiciousLocation]:
    if desc.mode == "pfl":
        return [SuspiciousLocation(file=f, line=l, score=1.0, rank=i)
                for i, (f, l) in enumerate(desc.pfl_locations, 1)]
    ranked = ochiai_rank(coverage)
    if desc.mode == "spfl":
        ranked = apply_spfl(ranked, desc.spfl_location)
    return ranked


def build_report(desc: ProjectDescriptor, suspicious: list[SuspiciousLocation],
                 state: RepairState, diffs: list[str], elapsed: float) -> dict:
    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "mode": desc.mode,
        "config": dataclasses.asdict(desc.config),
        "suspicious": [dataclasses.asdict(s)
                       for s in suspicious[:desc.config.cap]],
        "candidate_counts": state.candidate_counts,
        "attempt_log": [dataclasses.asdict(a) for a in state.attempt_log],
        "plausible": [{"id": p.id, "provenance": p.provenance,
                       "parent_id": p.parent_id, "diff": d}
                      for p, d in zip(state.plausible, diffs)],
        "promising": [{"id": p.id, "provenance": p.provenance,
                       "parent_id": p.parent_id,
                       "edits": [[e.file, e.method] for e in p.edits]}
                      for p in state.promising],
        "stopped": state.stopped,
        "error": state.error,
        "timings": {"elapsed_seconds": round(elapsed, 3)},
        "counts": {"llm_requests": state.requests,
                   "prompt_tokens_estimate": state.prompt_chars // 4},
    }


def run(descriptor_path: str | Path, overrides: dict | None = None,
        out_dir: str | Path = "runs") -> tuple[int, dict, Path | None]:
    """Execute a repair run. Returns (exit status, report, run directory).

    Once the run directory exists, report.json and then the embedding cache
    are written on every path, with `stopped: "interrupted"` if a
    `KeyboardInterrupt` (Ctrl-C, or SIGTERM through the CLI) ended the run
    and `stopped: "error"` if another exception did. An embedding store
    that cannot be opened, a harness protocol error, which only the
    baseline lets through, or a baseline with no failing test is an input
    error (exit 2); any other exception propagates."""
    try:
        desc = load_descriptor(descriptor_path, overrides)
        index = index_source(desc.project_root, desc.include)
        coverage = load_coverage(desc.coverage_path)
        suspicious = _suspicious_list(desc, coverage)
        try:
            cache = EmbeddingCache(desc.cache_path)
        except (OSError, sqlite3.OperationalError) as exc:
            raise DescriptorError(
                f"embedding cache unusable: {desc.cache_path}: {exc}") from exc
    except (DescriptorError, CoverageError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2, {"error": str(exc)}, None

    with closing(cache):  # closed after the last flush, on every path
        run_dir = _make_run_dir(Path(out_dir))
        state = RepairState()
        start = time.monotonic()
        try:
            RepairEngine(
                project_root=str(desc.project_root), index=index,
                coverage=coverage, backend=desc.backend, provider=desc.provider,
                harness_command=desc.harness_command, config=desc.config,
                cache=cache, run_dir=run_dir).repair_bug(suspicious, state)
        except BaseException as exc:
            state.stopped = ("interrupted" if isinstance(exc, KeyboardInterrupt)
                             else "error")
            state.error = f"{type(exc).__name__}: {exc}"
            if not isinstance(exc, (HarnessProtocolError, BaselineError)):
                raise
            print(f"error: {exc}", file=sys.stderr)
        finally:
            elapsed = time.monotonic() - start
            # A SIGINT or SIGTERM arriving now is held until the writes end.
            mask = signal.pthread_sigmask(signal.SIG_BLOCK,
                                          {signal.SIGINT, signal.SIGTERM})
            try:
                diffs = [patch_to_diff(p, index) for p in state.plausible]
                patches_dir = run_dir / "patches"
                patches_dir.mkdir(exist_ok=True)
                for i, diff in enumerate(diffs, 1):
                    (patches_dir / f"plausible_{i}.diff").write_text(
                        diff, encoding="utf-8")
                report = build_report(desc, suspicious, state, diffs, elapsed)
                (run_dir / "report.json").write_text(
                    json.dumps(report, indent=2) + "\n", encoding="utf-8")
                cache.flush()
            finally:
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
    exit_code = 0 if state.plausible else {"backend-error": 3,
                                            "error": 2}.get(state.stopped, 1)
    return exit_code, report, run_dir
