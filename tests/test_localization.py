import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siblingfix.checks import check_type
from siblingfix.localization import (CoverageError, CoverageMatrix,
                                     SuspiciousLocation, apply_spfl,
                                     load_coverage, ochiai_rank)


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


@pytest.mark.parametrize("first, again", [("fail", "pass"), ("pass", "fail")])
def test_test_declared_again_with_another_outcome_is_fatal(tmp_path, first,
                                                            again):
    """Neither outcome of a conflicting pair is kept in silence; a repeat
    with the same outcome is accepted."""
    records = [{"type": "test", "id": "t1", "outcome": first},
               {"type": "test", "id": "t2", "outcome": "fail"},
               {"type": "test", "id": "t1", "outcome": first}]
    assert load_coverage(write_coverage(tmp_path, records)).tests == [
        ("t1", first), ("t2", "fail")]
    records.append({"type": "test", "id": "t1", "outcome": again})
    with pytest.raises(CoverageError, match=f":4: malformed record: test 't1' "
                                            f"declared '{again}' after '{first}'"):
        load_coverage(write_coverage(tmp_path, records))


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


@pytest.mark.parametrize("bad", [{"line": 4.7}, {"line": "4"}, {"line": True},
                                 {"file": 5}],
                         ids=["line-a-float", "line-a-string", "line-a-bool",
                              "file-a-number"])
def test_cover_record_of_the_wrong_type_reports_line(tmp_path, bad):
    """A cover record's file is a string and its line an int; no other
    value is converted to one."""
    path = write_coverage(tmp_path, [
        {"type": "test", "id": "t1", "outcome": "fail"},
        {"type": "cover", "test": "t1", "file": "a", "line": 1},
        {"type": "cover", "test": "t1", "file": "a", "line": 4, **bad},
    ])
    with pytest.raises(CoverageError, match=":3: malformed record: "
                                            f"{next(iter(bad))} must be"):
        load_coverage(path)


def test_coverage_file_not_utf8_is_fatal(tmp_path):
    path = tmp_path / "cov.jsonl"
    path.write_bytes('{"type": "test", "id": "Andr\u00e9", "outcome": "fail"}\n'
                     .encode("latin-1"))
    with pytest.raises(CoverageError, match=f"^{path}: not UTF-8: 'utf-8' codec "):
        load_coverage(path)


def _ref_load_coverage(path):
    """load_coverage's records and errors, each line read by json.loads."""
    outcomes, covered = {}, {}
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
            return f"{path}:{lineno}: malformed record: {exc}"
    return list(outcomes.items()), covered


_RECORD = st.sampled_from([
    '{"type": "test", "id": "t2", "outcome": "pass"}',
    '{"type": "test", "id": "t1", "outcome": "pass"}',
    '{"type": "cover", "test": "t1", "file": "a", "line": 3}',
    '{"type": "cover", "test": "t1", "file": "a", "line": NaN}',
    '{"type": "cover", "test": "t1", "file": "a", "line": 1e400}',
    '{"type": "cover", "test": "t9", "file": "a", "line": 3}',
    '{"type": "cover", "test": "t1", "file": "a"}',
    '{"type": "cover", "test": "t1", "file": "a", "line": 3',
    '{"type": "bogus"}', '["type"]', '"test"', "NaN", "-Infinity", "7", "",
    "not json", "{}", "{\"type\": \"test\", \"id\": \"t\\u00e9\"}"])
_PAD = st.sampled_from(["", " ", "\t", "  ", "\ufeff", "\u00a0", "\x0c", "\r"])
_TAIL = st.sampled_from(["", " ", "\t ", "x", "{}", " 1", ",", "]", "\u2028"])


@settings(max_examples=400, deadline=None)
@given(st.tuples(_PAD, _RECORD, _TAIL).map("".join) | st.text(max_size=40))
def test_coverage_line_reads_as_json_loads_reads_it(tmp_path_factory, line):
    """Whatever a line holds, the fast path gives json.loads's record, or
    the CoverageError text json.loads's error gives."""
    path = tmp_path_factory.mktemp("cov") / "cov.jsonl"
    path.write_text('{"type": "test", "id": "t1", "outcome": "fail"}\n' + line
                    + "\n", encoding="utf-8")
    want = _ref_load_coverage(path)
    try:
        matrix = load_coverage(path)
    except CoverageError as exc:
        assert str(exc) == want
    else:
        assert (matrix.tests, matrix.covered) == want


def matrix_of(tests, covered):
    return CoverageMatrix(tests=tests, covered={t: set(l) for t, l in covered.items()})


def test_ochiai_known_values():
    """The one location's score, for ef/ep failing/passing tests that cover
    it and nf/np that do not."""
    for ef, ep, nf, np, score in [(1, 0, 0, 5, 1.0),
                                  (0, 3, 2, 0, 0.0),  # 0.0 itself, not -0.0
                                  (2, 2, 0, 0, 2 / math.sqrt(2 * 4))]:
        outcomes = ["fail"] * (ef + nf) + ["pass"] * (ep + np)
        tests = [(f"t{i}", o) for i, o in enumerate(outcomes)]
        covering = [f"t{i}" for i in [*range(ef), *range(ef + nf, ef + nf + ep)]]
        ranked = ochiai_rank(matrix_of(tests, {t: [("a", 1)] for t in covering}))
        assert [float.hex(r.score) for r in ranked] == [float.hex(score)]


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
        assert [(g.file, g.line, g.score.hex()) for g in got] == \
            [(*loc, score.hex()) for loc, score in expected]


# Few files, lines and tests, so many locations tie on their counts, and
# the (file, line) order decides their ranks.
_TIED_MATRIX = st.integers(1, 8).flatmap(lambda n: st.tuples(
    st.lists(st.sampled_from(["fail", "pass"]), min_size=n, max_size=n),
    st.lists(st.sets(st.tuples(st.sampled_from(["a", "b", "b/c"]),
                               st.integers(1, 6))), min_size=n, max_size=n)))


@settings(max_examples=300, deadline=None)
@given(_TIED_MATRIX)
def test_rank_matches_oracle_with_ties(outcomes_and_sets):
    outcomes, sets = outcomes_and_sets
    outcomes[0] = "fail"
    matrix = CoverageMatrix(
        tests=[(f"t{i}", o) for i, o in enumerate(outcomes)],
        covered={f"t{i}": locs for i, locs in enumerate(sets)})
    got = ochiai_rank(matrix)
    assert [(g.file, g.line, g.score.hex()) for g in got] == \
        [(*loc, score.hex()) for loc, score in brute_force_rank(matrix)]
    assert [g.rank for g in got] == list(range(1, len(got) + 1))


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


def _rows(ranked):
    return [(s.file, s.line, s.score.hex(), s.rank) for s in ranked]


@settings(max_examples=300, deadline=None)
@given(_TIED_MATRIX, st.integers(1, 6), st.integers(0, 100),
       st.sampled_from(["none", "inside", "outside", "absent"]))
def test_bounded_rank_is_the_full_rankings_head(outcomes_and_sets, cap, pick,
                                                case):
    """`ochiai_rank(matrix, cap, spfl)` is the first `cap` entries of the
    full ranking after `apply_spfl`, with an SPFL location inside the top
    `cap`, outside it, or covered by no test."""
    outcomes, sets = outcomes_and_sets
    outcomes[0] = "fail"
    matrix = CoverageMatrix(
        tests=[(f"t{i}", o) for i, o in enumerate(outcomes)],
        covered={f"t{i}": locs for i, locs in enumerate(sets)})
    full = ochiai_rank(matrix)
    known = None
    if case == "absent":
        known = ("zz", 99)
    elif case == "inside" and full:
        loc = full[pick % min(cap, len(full))]
        known = (loc.file, loc.line)
    elif case == "outside" and len(full) > cap:
        loc = full[cap + pick % (len(full) - cap)]
        known = (loc.file, loc.line)
    want = full if known is None else apply_spfl(full, known)
    assert _rows(ochiai_rank(matrix, cap, known)) == _rows(want[:cap])


def test_spfl_outside_the_cap_keeps_its_score_and_logs_nothing(caplog):
    """A covered SPFL location ranked below the cap is lifted to the top
    score, not inserted as absent with 1.0."""
    matrix = matrix_of([("f1", "fail"), ("f2", "fail"), ("p1", "pass"),
                        ("p2", "pass")],
                       {"f1": [("a", 1), ("a", 2), ("a", 3)], "f2": [("a", 1)],
                        "p1": [("a", 3)], "p2": [("a", 1)]})
    top = 2 / math.sqrt(2 * 3)  # a:1's score; a:2 has 0.707, a:3 0.5
    with caplog.at_level("WARNING"):
        got = ochiai_rank(matrix, 1, ("a", 3))
    assert caplog.records == []
    assert _rows(got) == [("a", 3, top.hex(), 1)]
    got = ochiai_rank(matrix, 2, ("a", 3))[1]
    assert (got.file, got.line, got.score.hex(), got.rank) == \
        ("a", 1, top.hex(), 2)
    with caplog.at_level("WARNING"):
        ochiai_rank(matrix, 1, ("b", 7))
    assert "absent from ranking" in caplog.text
