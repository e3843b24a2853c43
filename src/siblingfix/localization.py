"""Spectrum-based fault localization over a line-level coverage matrix.

Coverage is ingested from a JSON-lines protocol file; scoring uses the
Ochiai metric. Locations covered by no test never enter the ranking.
"""

from __future__ import annotations

import json
import logging
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from .checks import check_type

logger = logging.getLogger(__name__)

Location = tuple[str, int]


class CoverageError(Exception):
    """Fatal problem with the coverage protocol file."""


@dataclass
class CoverageMatrix:
    tests: list[tuple[str, str]]  # (test id, "pass" | "fail")
    covered: dict[str, set[Location]]

    @property
    def failing(self) -> list[str]:
        return [t for t, outcome in self.tests if outcome == "fail"]

    def all_locations(self) -> set[Location]:
        out: set[Location] = set()
        for locs in self.covered.values():
            out |= locs
        return out


@dataclass(frozen=True)
class SuspiciousLocation:
    file: str
    line: int
    score: float
    rank: int


_DECODER = json.JSONDecoder()


def load_coverage(path: str | Path) -> CoverageMatrix:
    """Parse the JSON-lines coverage protocol.

    Records: {"type": "test", "id": ..., "outcome": "pass"|"fail"} and
    {"type": "cover", "test": ..., "file": <str>, "line": <int>}. A test
    may be declared again only with the same outcome.
    """
    path = Path(path)
    outcomes: dict[str, str] = {}
    covered: dict[str, set[Location]] = {}
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise CoverageError(f"{path}: not UTF-8: {exc}") from exc
    for lineno, raw in enumerate(lines, 1):
        if not raw.strip():
            continue
        try:
            # `raw_decode` skips the checks `json.loads` wraps it in. A line
            # it does not take whole (a BOM, blanks around the record,
            # trailing data or an error) goes to `json.loads`, which then
            # returns or raises what it would have.
            try:
                rec, end = _DECODER.raw_decode(raw)
            except ValueError:
                end = -1
            if end != len(raw):
                rec = json.loads(raw)
            kind = rec["type"]
            if kind == "test":
                tid, outcome = rec["id"], rec["outcome"]
                if outcome not in ("pass", "fail"):
                    raise ValueError(f"bad outcome {outcome!r}")
                if outcomes.setdefault(tid, outcome) != outcome:
                    raise ValueError(f"test {tid!r} declared {outcome!r} "
                                     f"after {outcomes[tid]!r}")
                covered.setdefault(tid, set())
            elif kind == "cover":
                tid = rec["test"]
                if tid not in outcomes:
                    raise ValueError(f"coverage for undeclared test {tid!r}")
                covered[tid].add((check_type("file", rec["file"], str),
                                  check_type("line", rec["line"], int)))
            else:
                raise ValueError(f"unknown record type {kind!r}")
        except (KeyError, ValueError, TypeError) as exc:
            raise CoverageError(f"{path}:{lineno}: malformed record: {exc}") from exc
    matrix = CoverageMatrix(tests=list(outcomes.items()), covered=covered)
    if not matrix.failing:
        raise CoverageError(f"{path}: zero failing tests, nothing to repair")
    return matrix


def ochiai_rank(matrix: CoverageMatrix) -> list[SuspiciousLocation]:
    """Score every covered location and rank descending.

    Ties break by (file, line) ascending; ranks are 1..N.
    """
    if not matrix.failing:
        raise CoverageError("ranking requires at least one failing test")
    failing = set(matrix.failing)
    ef: Counter[Location] = Counter()
    ep: Counter[Location] = Counter()
    for tid, locs in matrix.covered.items():
        (ef if tid in failing else ep).update(locs)
    # Ochiai is ef / sqrt((ef + nf) * (ef + ep)), and ef + nf = len(failing).
    # Sorting (-score, file, line) tuples needs no key function. Every zero
    # score is the one 0.0, not a new float per location.
    n_failing = len(failing)
    scored = []
    for loc in ef.keys() | ep.keys():
        e_f = ef[loc]
        score = e_f / math.sqrt(n_failing * (e_f + ep[loc])) if e_f else 0.0
        scored.append((-score, *loc))
    scored.sort()
    return [SuspiciousLocation(file=file, line=line, score=-neg if neg else 0.0,
                               rank=i)
            for i, (neg, file, line) in enumerate(scored, 1)]


def apply_spfl(ranked: list[SuspiciousLocation],
               known: Location) -> list[SuspiciousLocation]:
    """Force a known buggy location to rank 1, keeping relative order."""
    head = [loc for loc in ranked if (loc.file, loc.line) == known]
    rest = [loc for loc in ranked if (loc.file, loc.line) != known]
    if head:
        if head[0].rank == 1:
            return list(ranked)
        top = head[0]
    else:
        logger.warning("SPFL location %s:%d absent from ranking, inserting", *known)
        top = SuspiciousLocation(file=known[0], line=known[1], score=1.0, rank=1)
    # Score lifted to the list maximum so scores stay non-increasing with rank.
    score = max(top.score, rest[0].score) if rest else top.score
    return [SuspiciousLocation(top.file, top.line, score, 1)] + [
        SuspiciousLocation(loc.file, loc.line, loc.score, i)
        for i, loc in enumerate(rest, 2)]
