import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siblingfix.localization import (CoverageError, CoverageMatrix,
                                     SuspiciousLocation, apply_spfl,
                                     load_coverage, ochiai, ochiai_rank)


def write_coverage(tmp_path, records):
    path = tmp_path / "cov.jsonl"
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n")
    return path


def test_load_small_matrix(tmp_path):
    path = write_coverage(tmp_path, [
        {"type": "test", "id": "t1", "outcome": "fail"},
        {"type": "test", "id": "t2", "outcome": "pass"},
        {"type": "cover", "test": "t1", "file": "a", "line": 1},
        {"type": "cover", "test": "t1", "file": "a", "line": 2},
        {"type": "cover", "test": "t2", "file": "b", "line": 9},
    ])
    matrix = load_coverage(path)
    assert len(matrix.tests) == 2
    assert matrix.covered["t1"] == {("a", 1), ("a", 2)}
    assert matrix.failing == ["t1"]


def test_undeclared_test_is_fatal(tmp_path):
    path = write_coverage(tmp_path, [
        {"type": "test", "id": "t1", "outcome": "fail"},
        {"type": "cover", "test": "ghost", "file": "a", "line": 1},
    ])
    with pytest.raises(CoverageError, match=":2"):
        load_coverage(path)


def test_duplicate_cover_record_dedupes(tmp_path):
    rec = {"type": "cover", "test": "t1", "file": "a", "line": 1}
    path = write_coverage(tmp_path, [
        {"type": "test", "id": "t1", "outcome": "fail"}, rec, rec,
    ])
    assert load_coverage(path).covered["t1"] == {("a", 1)}


def test_zero_failing_is_fatal(tmp_path):
    path = write_coverage(tmp_path, [
        {"type": "test", "id": "t1", "outcome": "pass"},
    ])
    with pytest.raises(CoverageError, match="zero failing"):
        load_coverage(path)


def test_malformed_record_reports_line(tmp_path):
    path = tmp_path / "cov.jsonl"
    path.write_text('{"type": "test", "id": "t1", "outcome": "fail"}\nnot json\n')
    with pytest.raises(CoverageError, match=":2"):
        load_coverage(path)


def matrix_of(tests, covered):
    return CoverageMatrix(tests=tests, covered={t: set(l) for t, l in covered.items()})


def test_ochiai_known_values():
    assert ochiai(1, 0, 0, 5) == 1.0
    assert ochiai(0, 3, 2, 0) == 0.0
    assert ochiai(2, 2, 0, 0) == pytest.approx(2 / math.sqrt(2 * 4), abs=1e-12)


def test_rank_perfect_and_zero_scores():
    matrix = matrix_of(
        [("f1", "fail"), ("p1", "pass")],
        {"f1": [("a", 1)], "p1": [("a", 2)]})
    ranked = ochiai_rank(matrix)
    assert (ranked[0].file, ranked[0].line, ranked[0].score) == ("a", 1, 1.0)
    assert ranked[1].score == 0.0
    assert [r.rank for r in ranked] == [1, 2]


def test_rank_tiebreak_file_line():
    matrix = matrix_of(
        [("f1", "fail")],
        {"f1": [("b", 9), ("a", 5), ("a", 2)]})
    ranked = ochiai_rank(matrix)
    assert [(r.file, r.line) for r in ranked] == [("a", 2), ("a", 5), ("b", 9)]


def brute_force_rank(matrix):
    """Independent per-location recomputation of the Ochiai ranking."""
    failing = {t for t, o in matrix.tests if o == "fail"}
    passing = {t for t, o in matrix.tests if o == "pass"}
    locations = set()
    for locs in matrix.covered.values():
        locations |= locs
    scored = []
    for loc in locations:
        ef = sum(1 for t in failing if loc in matrix.covered.get(t, set()))
        ep = sum(1 for t in passing if loc in matrix.covered.get(t, set()))
        nf = len(failing) - ef
        score = 0.0 if ef == 0 else ef / math.sqrt((ef + nf) * (ef + ep))
        scored.append((loc, score))
    scored.sort(key=lambda x: (-x[1], x[0][0], x[0][1]))
    return scored


def random_matrix(rng, max_tests=30, max_locs=60):
    n_tests = rng.randint(2, max_tests)
    n_locs = rng.randint(1, max_locs)
    locs = [(f"f{rng.randint(0, 5)}", rng.randint(1, 200)) for _ in range(n_locs)]
    tests = []
    covered = {}
    for i in range(n_tests):
        outcome = "fail" if i == 0 or rng.random() < 0.3 else "pass"
        tid = f"t{i}"
        tests.append((tid, outcome))
        covered[tid] = {l for l in locs if rng.random() < 0.4}
    return matrix_of(tests, covered)


def test_rank_matches_oracle_small_random():
    rng = random.Random(7)
    for _ in range(25):
        matrix = random_matrix(rng)
        got = ochiai_rank(matrix)
        expected = brute_force_rank(matrix)
        assert [(g.file, g.line) for g in got] == [loc for loc, _ in expected]
        for g, (_, score) in zip(got, expected):
            assert g.score == pytest.approx(score, abs=1e-9)


def ranking(n):
    return [SuspiciousLocation(file=f"f{i}", line=i, score=1.0 - i * 0.1, rank=i + 1)
            for i in range(n)]


def test_spfl_already_top_is_identity():
    ranked = ranking(3)
    assert apply_spfl(ranked, ("f0", 0)) == ranked


def test_spfl_moves_last_to_front():
    ranked = ranking(5)
    out = apply_spfl(ranked, ("f4", 4))
    assert (out[0].file, out[0].line, out[0].rank) == ("f4", 4, 1)
    assert [(o.file, o.line) for o in out[1:]] == [
        ("f0", 0), ("f1", 1), ("f2", 2), ("f3", 3)]
    assert [o.rank for o in out] == [1, 2, 3, 4, 5]
    # Scores must stay non-increasing with rank.
    assert all(a.score >= b.score for a, b in zip(out, out[1:]))


def test_spfl_absent_location_inserted():
    out = apply_spfl(ranking(2), ("zz", 99))
    assert (out[0].file, out[0].line, out[0].rank) == ("zz", 99, 1)
    assert len(out) == 3


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.integers(0, 11))
def test_spfl_is_permutation(n, pick):
    ranked = ranking(n)
    known = ranked[pick % n]
    out = apply_spfl(ranked, (known.file, known.line))
    assert sorted((o.file, o.line) for o in out) == \
        sorted((r.file, r.line) for r in ranked)
    assert [o.rank for o in out] == list(range(1, n + 1))


def _ref_apply_spfl(ranked, known):
    """apply_spfl as it was: every location copied with dataclasses.replace."""
    from dataclasses import replace
    head = [loc for loc in ranked if (loc.file, loc.line) == known]
    rest = [loc for loc in ranked if (loc.file, loc.line) != known]
    if head:
        if head[0].rank == 1:
            return list(ranked)
        top = head[0]
    else:
        top = SuspiciousLocation(file=known[0], line=known[1], score=1.0, rank=1)
    score = max([top.score] + [rest[0].score] if rest else [top.score])
    reordered = [replace(top, score=score)] + rest
    return [replace(loc, rank=i) for i, loc in enumerate(reordered, 1)]


_RANKING = st.lists(
    st.tuples(st.sampled_from(["a", "b", "c"]), st.integers(0, 20),
              st.floats(0.0, 1.0)),
    max_size=12, unique_by=lambda t: t[:2]).map(
    lambda rows: [SuspiciousLocation(f, line, score, rank)
                  for rank, (f, line, score) in enumerate(
                      sorted(rows, key=lambda r: -r[2]), 1)])


@settings(max_examples=200, deadline=None)
@given(_RANKING, st.integers(0, 11), st.sampled_from(["present", "top", "absent"]))
def test_spfl_equals_replace_based_reference(ranked, pick, case):
    """Present, already at rank 1, or absent, the known location gets the
    reference's list: equal fields, and fresh objects wherever it made them."""
    if case == "absent" or not ranked:
        known = ("zz", 99)
    else:
        loc = ranked[0 if case == "top" else pick % len(ranked)]
        known = (loc.file, loc.line)
    got = apply_spfl(ranked, known)
    want = _ref_apply_spfl(ranked, known)
    assert got == want
    assert [g is r for g, r in zip(got, ranked)] == [w is r for w, r in zip(want, ranked)]
