"""Spectrum-based fault localization over a line-level coverage matrix.

Coverage is ingested from a JSON-lines protocol file; scoring uses the
Ochiai metric. Locations covered by no test never enter the ranking.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass
from pathlib import Path

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

    @property
    def passing(self) -> list[str]:
        return [t for t, outcome in self.tests if outcome == "pass"]

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


def load_coverage(path: str | Path) -> CoverageMatrix:
    """Parse the JSON-lines coverage protocol.

    Records: {"type": "test", "id": ..., "outcome": "pass"|"fail"} and
    {"type": "cover", "test": ..., "file": ..., "line": ...}.
    """
    path = Path(path)
    tests: list[tuple[str, str]] = []
    ids: set[str] = set()
    covered: dict[str, set[Location]] = {}
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        if not raw.strip():
            continue
        try:
            rec = json.loads(raw)
            kind = rec["type"]
            if kind == "test":
                tid, outcome = rec["id"], rec["outcome"]
                if outcome not in ("pass", "fail"):
                    raise ValueError(f"bad outcome {outcome!r}")
                if tid not in ids:
                    ids.add(tid)
                    tests.append((tid, outcome))
                    covered[tid] = set()
            elif kind == "cover":
                tid = rec["test"]
                if tid not in ids:
                    raise ValueError(f"coverage for undeclared test {tid!r}")
                covered[tid].add((rec["file"], int(rec["line"])))
            else:
                raise ValueError(f"unknown record type {kind!r}")
        except (KeyError, ValueError, TypeError) as exc:
            raise CoverageError(f"{path}:{lineno}: malformed record: {exc}") from exc
    matrix = CoverageMatrix(tests=tests, covered=covered)
    if not matrix.failing:
        raise CoverageError(f"{path}: zero failing tests, nothing to repair")
    return matrix


def ochiai(ef: int, ep: int, nf: int, np: int) -> float:
    if ef == 0:
        return 0.0
    return ef / math.sqrt((ef + nf) * (ef + ep))


def ochiai_rank(matrix: CoverageMatrix) -> list[SuspiciousLocation]:
    """Score every covered location and rank descending.

    Ties break by (file, line) ascending; ranks are 1..N.
    """
    if not matrix.failing:
        raise CoverageError("ranking requires at least one failing test")
    failing = set(matrix.failing)
    passing = set(matrix.passing)
    ef: dict[Location, int] = {}
    ep: dict[Location, int] = {}
    for tid, locs in matrix.covered.items():
        bucket = ef if tid in failing else ep
        for loc in locs:
            bucket[loc] = bucket.get(loc, 0) + 1
    scored = []
    for loc in matrix.all_locations():
        e_f = ef.get(loc, 0)
        e_p = ep.get(loc, 0)
        score = ochiai(e_f, e_p, len(failing) - e_f, len(passing) - e_p)
        scored.append((loc, score))
    scored.sort(key=lambda item: (-item[1], item[0][0], item[0][1]))
    return [SuspiciousLocation(file=loc[0], line=loc[1], score=score, rank=i)
            for i, (loc, score) in enumerate(scored, 1)]


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
