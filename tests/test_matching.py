import string

from hypothesis import given, settings
from hypothesis import strategies as st

from siblingfix.matching import (StatementContext, extract_context,
                                 group_by_method, jaccard, jaccard_filter,
                                 token_match, tokenize)
from siblingfix.source_index import Statement, identifiers_in, index_source


def test_tokenize_camel_case():
    assert tokenize("getUnboundParameters()") == ["get", "unbound", "parameters"]


def test_tokenize_empty():
    assert tokenize("") == []


def test_tokenize_digits_and_underscores():
    assert tokenize("maxValue2 += foo_bar;") == ["max", "value", "2", "foo", "bar"]


@settings(max_examples=100, deadline=None)
@given(st.text(max_size=80))
def test_tokenize_output_shape(text):
    for token in tokenize(text):
        assert token and token == token.lower()
        assert token.isalnum()


def ctx(text, file="x.java", line=1):
    s = Statement(file=file, start_line=line, end_line=line, text=text,
                  kind="simple")
    return StatementContext(target=s, context=(s,))


def test_token_match_verbatim_copy_first():
    target = ctx("double total = base + offset;", "t.java", 4)
    pool = [
        ctx("double total = base + offset;", "a.java", 9),
        ctx("int unrelated = 0;", "b.java", 2),
        ctx("print(hello);", "c.java", 3),
        target,
    ]
    out = token_match(target, pool, limit=10)
    assert out[0].key == ("a.java", 9)
    assert out[0].token_similarity == 1.0
    # Target excluded from its own results.
    assert all(c.key != target.key for c in out)
    assert len(out) == 3


def test_token_match_pool_smaller_than_limit_sorted():
    target = ctx("a b c", "t.java", 1)
    pool = [ctx("a b", "p.java", i) for i in range(2, 5)]
    out = token_match(target, pool, limit=100)
    assert len(out) == 3
    sims = [c.token_similarity for c in out]
    assert sims == sorted(sims, reverse=True)
    # Equal scores fall back to (file, line) order.
    assert [c.key for c in out] == [("p.java", 2), ("p.java", 3), ("p.java", 4)]


def test_token_match_empty_pool():
    assert token_match(ctx("a"), [], limit=5) == []


def test_jaccard_values():
    assert jaccard({"a", "b", "c"}, {"b", "c", "d"}) == 0.5
    assert jaccard(set(), set()) == 1.0
    assert jaccard({"a"}, {"b"}) == 0.0


@settings(max_examples=100, deadline=None)
@given(st.sets(st.sampled_from(string.ascii_lowercase)),
       st.sets(st.sampled_from(string.ascii_lowercase)))
def test_jaccard_symmetric_bounded(a, b):
    assert jaccard(a, b) == jaccard(b, a)
    assert 0.0 <= jaccard(a, b) <= 1.0


def test_jaccard_filter_thresholds():
    target = ctx("alpha beta gamma")
    from siblingfix.matching import CandidateSibling
    same = CandidateSibling(context=ctx("gamma beta alpha", "a.java", 1))
    disjoint = CandidateSibling(context=ctx("delta epsilon", "b.java", 2))
    kept = jaccard_filter([same, disjoint], target, alpha=0.5)
    assert kept == [same]
    assert same.jaccard_similarity == 1.0
    assert disjoint.jaccard_similarity == 0.0
    # alpha = 0 is the identity on the candidate list.
    assert jaccard_filter([same, disjoint], target, alpha=0.0) == [same, disjoint]


CONTEXT_SRC = """\
class K {
    void work(Problem problem) {
        int base = problem.size();
        int scale = 2;
        log(base);
        int result = base * scale + extra();
    }

    void first() {
        cleanup();
    }
}
"""


def make_index(tmp_path, text=CONTEXT_SRC, name="K.java"):
    (tmp_path / name).write_text(text, encoding="utf-8")
    return index_source(tmp_path, ["*.java"])


def test_extract_context_reaching_definitions(tmp_path):
    index = make_index(tmp_path)
    target = index.statement_at("K.java", 6)
    out = extract_context(index, target)
    # Both variable definitions included, in original order, plus the target.
    assert [s.start_line for s in out.context] == [3, 4, 6]
    assert out.target is target

    # Brute-force oracle: nearest preceding assigning statement per variable.
    method = index.enclosing_method("K.java", 6)
    scope = index.statements_in_method(method)
    variables = [i.name for i in identifiers_in(target) if i.kind == "variable"]
    expected = set()
    for name in variables:
        for s in reversed(scope[:scope.index(target)]):
            if f"{name} =" in s.text or f" {name};" in s.text:
                expected.add(s.start_line)
                break
    assert {s.start_line for s in out.context} == expected | {6}


def test_extract_context_first_statement_no_vars(tmp_path):
    index = make_index(tmp_path)
    target = index.statement_at("K.java", 10)  # cleanup(); call, no variables
    out = extract_context(index, target)
    assert out.context == (target,)


def test_extract_context_reference_shape(mini_index):
    target = mini_index.statement_at("src/Estimator.java", 4)
    out = extract_context(mini_index, target)
    # The declaration of `problem` (the signature line) plus the target.
    assert [s.start_line for s in out.context] == [3, 4]


def test_group_by_method(mini_index):
    from siblingfix.matching import CandidateSibling
    cands = [
        CandidateSibling(context=StatementContext(
            target=mini_index.statement_at("src/Estimator.java", line),
            context=(mini_index.statement_at("src/Estimator.java", line),)))
        for line in (4, 5, 10)
    ]
    groups = group_by_method(cands, mini_index)
    assert len(groups) == 2
    assert groups[0].method.name == "getRms"
    assert groups[0].sibling_lines == {4, 5}
    assert groups[1].method.name == "guessErrors"
    assert groups[1].sibling_lines == {10}
    assert group_by_method([], mini_index) == []


def test_group_by_method_thirteen_methods(tmp_path):
    from siblingfix.matching import CandidateSibling
    body = "class Wide {\n"
    lines = []
    for i in range(13):
        body += f"    void m{i}() {{\n"
        lines.append(3 * i + 3)
        body += f"        use(value{i});\n    }}\n"
    body += "}\n"
    (tmp_path / "Wide.java").write_text(body, encoding="utf-8")
    index = index_source(tmp_path, ["*.java"])
    cands = []
    for line in lines:
        s = index.statement_at("Wide.java", line)
        cands.append(CandidateSibling(
            context=StatementContext(target=s, context=(s,))))
    groups = group_by_method(cands, index)
    assert len(groups) == 13


# -- run-scoped token pool ----------------------------------------------

def _ranked(cands):
    return [(c.key, c.token_similarity) for c in cands]


def _covered_pool(index, coverage):
    from siblingfix.engine import RepairConfig, RepairEngine
    engine = RepairEngine(project_root=".", index=index, coverage=coverage,
                          backend=None, provider=None, harness_command="true",
                          config=RepairConfig())
    return engine._build_pool()


def _no_fallback(*args):
    raise AssertionError("a covered target took the per-call path")


def test_token_pool_matches_per_call_on_miniproject(mini_index, mini_coverage,
                                                    monkeypatch):
    from siblingfix import matching
    from siblingfix.matching import TokenPool
    pool = _covered_pool(mini_index, mini_coverage)
    tokens = TokenPool(pool)
    assert len(tokens) == len(pool)
    for member in pool:
        # A fresh context for the same statement, as repair_bug makes one.
        target = extract_context(mini_index, member.target)
        want = token_match(target, pool, limit=100)
        with monkeypatch.context() as m:
            m.setattr(matching, "_score", _no_fallback)
            got = token_match(target, tokens, limit=100)
        assert _ranked(got) == _ranked(want)
        assert [c.context for c in got] == [c.context for c in want]


def test_token_pool_ties_beyond_limit(monkeypatch):
    """A pool larger than `limit`, much of it scoring exactly 0.0 against a
    target, ranks the same keys in the same order with equal floats."""
    from siblingfix import matching
    from siblingfix.matching import TokenPool
    # Five families of contexts share no token with one another, so a
    # target scores 0.0 against the four other families.
    words = [["alpha", "beta", "gamma", "delta"], ["omega", "sigma", "kappa"],
             ["theta", "lambda", "tau", "rho"], ["mu", "nu", "xi"],
             ["phi", "chi", "psi", "eta"]]
    pool = []
    for i in range(160):
        fam = words[i % 5]
        a, b = fam[i % len(fam)], fam[(i * 7 + 3) % len(fam)]
        pool.append(ctx(f"{a} = {b}({a}, {i % 5});",
                        f"f{(i * 13) % 9}.java", 1 + (i * 37) % 400))
    pool.append(ctx("unrelated();", "z.java", 1))
    tokens = TokenPool(pool)
    cut_ties = 0
    for target in pool[:40] + pool[-1:]:
        want = token_match(target, pool, limit=100)
        with monkeypatch.context() as m:
            m.setattr(matching, "_score", _no_fallback)
            got = token_match(target, tokens, limit=100)
        assert _ranked(got) == _ranked(want)
        # The cut at `limit` falls inside a run of zero-score ties.
        cut_ties += want[-1].token_similarity == 0.0
    assert cut_ties > 1
    # The last target shares no token with the pool: every score is 0.0 and
    # the order is (file, line).
    last = token_match(pool[-1], tokens, limit=100)
    assert {c.token_similarity for c in last} == {0.0}
    assert [c.key for c in last] == sorted(c.key for c in last)


def test_token_pool_uncovered_target_falls_back(mini_index, mini_coverage,
                                                monkeypatch):
    from siblingfix import matching
    from siblingfix.matching import TokenPool
    pool = _covered_pool(mini_index, mini_coverage)
    tokens = TokenPool(pool)
    covered = {c.target for c in pool}
    uncovered = [s for sf in mini_index.files.values() for s in sf.statements
                 if s not in covered]
    assert uncovered
    calls = []

    def spy(target, contexts):
        calls.append(target.key)
        return original(target, contexts)
    original = matching._score
    monkeypatch.setattr(matching, "_score", spy)
    for stmt in uncovered:
        target = extract_context(mini_index, stmt)
        assert _ranked(token_match(target, tokens, limit=100)) == \
            _ranked(token_match(target, pool, limit=100))
    assert len(calls) == 2 * len(uncovered)
    # A statement at a member's key whose text differs is not the pool's
    # corpus.
    member = pool[0]
    other = ctx(member.rendered + " extra", *member.key)
    calls.clear()
    assert _ranked(token_match(other, tokens)) == _ranked(token_match(other, pool))
    assert len(calls) == 2
    # A pool that repeats a statement never takes the shared vectors.
    repeated = pool + [pool[0]]
    calls.clear()
    assert _ranked(token_match(member, TokenPool(repeated))) == \
        _ranked(token_match(member, repeated))
    assert len(calls) == 2


def test_pool_keeps_statements_that_share_a_start_line(tmp_path):
    """Two covered statements starting on one line both enter the pool,
    and neither is a token match of itself."""
    from siblingfix.localization import CoverageMatrix
    (tmp_path / "S.java").write_text(
        "class S {\n  int f(int b) {\n    int a = b + 1; foo(a,\n        b);\n"
        "    return a;\n  }\n}\n", encoding="utf-8")
    index = index_source(tmp_path, ["*.java"])
    coverage = CoverageMatrix(tests=[("t", "fail")],
                              covered={"t": {("S.java", n) for n in (3, 4, 5)}})
    pool = _covered_pool(index, coverage)
    assert [c.target.text for c in pool] == [
        "int a = b + 1;", "foo(a,\n        b);", "return a;"]
    for member in pool:
        matched = [c.context.target for c in token_match(member, pool)]
        assert member.target not in matched and len(matched) == 2


# -- _assigns pattern cache ---------------------------------------------

def _assigns_uncached(stmt, name):
    """_assigns as it was: two regex searches compiled per call (the
    statement's masked text is mask_code(stmt.text))."""
    import re
    from siblingfix.matching import _ASSIGN_OPS
    masked = stmt.masked
    if re.search(rf"(?<![\w.$]){re.escape(name)}\s*(?:\[[^\]]*\])?\s*{_ASSIGN_OPS}",
                 masked):
        return True
    return bool(re.search(
        rf"[\w>\]]\s+{re.escape(name)}\s*(?:[;,=)]|:)", masked))


def test_extract_context_over_600_distinct_locals(tmp_path, monkeypatch):
    """More distinct local names than the `re` module caches patterns for."""
    from siblingfix import matching
    blocks, width = 21, 30  # 630 locals, each use reads 30 fresh ones
    body = ["class Many {", "    int run(int seed) {"]
    for b in range(blocks):
        names = [f"v{b * width + j}" for j in range(width)]
        body += [f"        int {name} = seed + {j};" for j, name in enumerate(names)]
        # Assignments inside a string or a comment do not count.
        body.append(f'        note("{names[0]} = 0"); // {names[1]} = 0')
        body.append(f"        seed = use({' + '.join(names)});")
    body += ["        return seed;", "    }", "}", ""]
    index = make_index(tmp_path, "\n".join(body), "Many.java")
    method = index.enclosing_method("Many.java", 3)
    targets = [s for s in index.statements_in_method(method)
               if "use(" in s.text or s.text.startswith("int v1")]
    assert len(targets) > blocks
    got = [extract_context(index, s) for s in targets]
    monkeypatch.setattr(matching, "_assigns", _assigns_uncached)
    want = [extract_context(index, s) for s in targets]
    assert got == want
    assert all(len(c.context) > width for c in got if "use(" in c.target.text)
    assert matching._assign_patterns.cache_info().currsize >= blocks * width
