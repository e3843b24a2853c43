import math
import random
import re
import string

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from siblingfix import matching
from siblingfix.matching import (StatementContext, TokenPool, _cosine, _norm,
                                 defined_names, extract_context,
                                 group_by_method, jaccard, jaccard_filter,
                                 statement_contexts, tfidf_similarities,
                                 token_match, tokenize)
from siblingfix.source_index import (Statement, identifiers_in, index_source,
                                     mask_code, variables_in)
from strategies import FILE


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
                  kind="simple", masked=mask_code(text))
    return StatementContext(target=s, context=(s,))


def test_token_match_verbatim_copy_first():
    target = ctx("double total = base + offset;", "t.java", 4)
    pool = [
        ctx("double total = base + offset;", "a.java", 9),
        ctx("int unrelated = 0;", "b.java", 2),
        ctx("print(hello);", "c.java", 3),
        target,
    ]
    out = token_match(target, TokenPool(pool), limit=10)
    assert out[0].key == ("a.java", 9)
    assert out[0].token_similarity == 1.0
    # Target excluded from its own results.
    assert all(c.key != target.key for c in out)
    assert len(out) == 3


def test_token_match_pool_smaller_than_limit_sorted():
    target = ctx("a b c", "t.java", 1)
    pool = [ctx("a b", "p.java", i) for i in range(2, 5)]
    out = token_match(target, TokenPool(pool), limit=100)
    assert len(out) == 3
    sims = [c.token_similarity for c in out]
    assert sims == sorted(sims, reverse=True)
    # Equal scores fall back to (file, line) order.
    assert [c.key for c in out] == [("p.java", 2), ("p.java", 3), ("p.java", 4)]


def test_token_match_empty_pool():
    assert token_match(ctx("a"), TokenPool([]), limit=5) == []


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
    assert [s.start_line for s in groups[0].siblings] == [4, 5]
    assert groups[1].method.name == "guessErrors"
    assert [s.start_line for s in groups[1].siblings] == [10]
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

def _covered_pool(index, coverage):
    from siblingfix.embeddings import EmbeddingCache
    from siblingfix.engine import RepairConfig, RepairEngine
    engine = RepairEngine(project_root=".", index=index, coverage=coverage,
                          backend=None, provider=None, harness_command="true",
                          config=RepairConfig(), cache=EmbeddingCache())
    return engine._build_pool()


def _per_call(target, contexts, limit):
    """The per-call ranking `TokenPool` must reproduce: the cosine of each
    context but the target's own, over the corpus of the target plus those
    contexts, sorted stably by (-similarity, key), then cut at `limit`."""
    candidates = [c for c in contexts if c.target != target.target]
    sims = tfidf_similarities(tokenize(target.rendered),
                              [tokenize(c.rendered) for c in candidates])
    scored = sorted(zip(sims, candidates),
                    key=lambda item: (-item[0], item[1].key))
    return [(c.key, float.hex(sim), c) for sim, c in scored[:limit]]


def _exact(cands):
    return [(c.key, float.hex(c.token_similarity), c.context) for c in cands]


def _no_fallback(*args):
    raise AssertionError("a member target built a pool of its own")


def _member_ranking(tokens, target, limit):
    """`token_match` over a built pool, with the per-call pool barred."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(matching, "TokenPool", _no_fallback)
        return token_match(target, tokens, limit)


def test_token_pool_matches_per_call_on_miniproject(mini_index, mini_coverage):
    pool = _covered_pool(mini_index, mini_coverage)
    tokens = TokenPool(pool)
    assert len(tokens) == len(pool)
    for member in pool:
        # A fresh context for the same statement, as repair_bug makes one.
        target = extract_context(mini_index, member.target)
        got = _member_ranking(tokens, target, 100)
        assert _exact(got) == _per_call(target, pool, 100)


def test_token_pool_ties_beyond_limit():
    """A pool larger than `limit`, much of it scoring exactly 0.0 against a
    target, ranks the same keys in the same order with equal floats."""
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
        got = _member_ranking(tokens, target, 100)
        assert _exact(got) == _per_call(target, pool, 100)
        # The cut at `limit` falls inside a run of zero-score ties.
        cut_ties += got[-1].token_similarity == 0.0
    assert cut_ties > 1
    # The last target shares no token with the pool: every score is 0.0 and
    # the order is (file, line).
    last = token_match(pool[-1], tokens, limit=100)
    assert {c.token_similarity for c in last} == {0.0}
    assert [c.key for c in last] == sorted(c.key for c in last)


def _other_context(member):
    """The member's statement with a context the pool does not hold."""
    return StatementContext(target=member.target, context=(member.target,))


def test_token_pool_uncovered_target_falls_back(mini_index, mini_coverage,
                                                monkeypatch):
    """A target whose statement, or whose context, the pool does not hold
    is ranked by a pool of the pool minus its statement, plus itself."""
    pool = _covered_pool(mini_index, mini_coverage)
    tokens = TokenPool(pool)
    covered = {c.target for c in pool}
    uncovered = [s for sf in mini_index.files.values() for s in sf.statements
                 if s not in covered]
    assert uncovered
    built = []

    def spy(contexts):
        built.append(contexts[-1].key)
        return TokenPool(contexts)
    monkeypatch.setattr(matching, "TokenPool", spy)
    for stmt in uncovered:
        target = extract_context(mini_index, stmt)
        for limit in (1, 5, len(pool) + 3):
            assert _exact(token_match(target, tokens, limit)) == \
                _per_call(target, pool, limit)
    assert len(built) == 3 * len(uncovered)
    # A statement at a member's key whose text differs is not the pool's
    # corpus.
    member = pool[0]
    other = ctx(member.rendered + " extra", *member.key)
    built.clear()
    assert _exact(token_match(other, tokens, 100)) == _per_call(other, pool, 100)
    assert built == [member.key]
    # Nor is a member's statement with another context: it is ranked with
    # its own context, not the pool's.
    member = next(c for c in pool if len(c.context) > 1)
    other = _other_context(member)
    built.clear()
    for limit in (1, 5, len(pool) + 3):
        got = token_match(other, tokens, limit)
        assert _exact(got) == _per_call(other, pool, limit)
        assert member not in [c.context for c in got]
    assert len(built) == 3
    assert _exact(token_match(other, tokens, 100)) != \
        _exact(token_match(member, tokens, 100))


def test_token_pool_refuses_a_repeated_statement(mini_index, mini_coverage):
    pool = _covered_pool(mini_index, mini_coverage)
    with pytest.raises(ValueError, match="distinct"):
        TokenPool(pool + [pool[0]])
    with pytest.raises(ValueError, match="distinct"):
        TokenPool(pool + [_other_context(pool[-1])])


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
    tokens = TokenPool(pool)
    for member in pool:
        matched = [c.context.target for c in token_match(member, tokens)]
        assert member.target not in matched and len(matched) == 2


def _indexed_equals_per_call(pool, target, limit):
    """The shared-vector ranking of a member target, with the per-call pool
    barred, against the per-call ranking."""
    got = _member_ranking(TokenPool(pool), target, limit)
    assert _exact(got) == _per_call(target, pool, limit)
    return got


@settings(max_examples=100, deadline=None)
@given(st.lists(FILE, min_size=1, max_size=3))
def test_token_pool_bit_identical_on_generated_files(tmp_path_factory, texts):
    """For every member target, a target outside the pool and a member's
    statement with another context, at a limit of 1, 5 and more than the
    pool, the ranking has the per-call keys and floats, bit for bit."""
    tmp = tmp_path_factory.mktemp("pool")
    for i, text in enumerate(texts):
        (tmp / f"F{i}.java").write_text(text, encoding="utf-8")
    index = index_source(tmp, ["*.java"])
    pool = statement_contexts(
        index, [s for sf in index.files.values() for s in sf.statements])
    # A pool must not repeat a statement (equal statements on one line).
    assume(len({c.target for c in pool}) == len(pool))
    limits = (1, 5, len(pool) + 3)
    for member in pool:
        for limit in limits:
            _indexed_equals_per_call(pool, member, limit)
    # The first context is outside the rest of the pool, and a member with
    # definitions in its context gets another context.
    cases = [(c, pool[1:]) for c in pool[:1]] + [
        (_other_context(c), pool) for c in pool if len(c.context) > 1][:2]
    for target, contexts in cases:
        for limit in limits:
            assert _exact(token_match(target, TokenPool(contexts), limit)) == \
                _per_call(target, contexts, limit)


@settings(max_examples=100, deadline=None)
@given(st.lists(FILE, min_size=1, max_size=3))
def test_token_pool_tokens_equal_rendered_tokens(tmp_path_factory, texts):
    """A context's tokens are its statements' tokens in order, since no
    word spans the "\n" that `rendered` joins them with; so the pool's
    vectors, built from per-statement tokens, have the terms, order and
    weights of vectors built from each rendered context."""
    from collections import Counter

    from siblingfix.matching import tfidf_vectors
    tmp = tmp_path_factory.mktemp("tokens")
    for i, text in enumerate(texts):
        (tmp / f"F{i}.java").write_text(text, encoding="utf-8")
    index = index_source(tmp, ["*.java"])
    pool = statement_contexts(
        index, [s for sf in index.files.values() for s in sf.statements])
    for c in pool:
        assert [t for s in c.context for t in tokenize(s.text)] == tokenize(c.rendered)
    want = tfidf_vectors([Counter(tokenize(c.rendered)) for c in pool])
    got = TokenPool(pool)._tfidf[0]
    assert [[(t, float.hex(w)) for t, w in v.items()] for v in got] == \
        [[(t, float.hex(w)) for t, w in v.items()] for v in want]


def test_token_pool_tokenizes_each_statement_once(tmp_path, monkeypatch):
    """A statement in several contexts, as a definition and as a target,
    is tokenized once per pool build."""
    index = make_index(tmp_path, _chained_method(50), "Chain.java")
    scope = index.statements_in_method(index.enclosing_method("Chain.java", 3))
    pool = statement_contexts(index, scope)
    assert sum(len(c.context) for c in pool) > len(scope)
    texts = []

    def counted(text):
        texts.append(text)
        return tokenize(text)
    monkeypatch.setattr(matching, "tokenize", counted)
    TokenPool(pool)._tfidf
    assert sorted(texts) == sorted(s.text for s in scope)


def test_token_pool_walks_a_shorter_context():
    """A context with fewer distinct tokens than the target is scored by
    walking the target, as the per-call cosine does; here walking the
    context instead gives a different last bit."""
    from collections import Counter

    from siblingfix.matching import tfidf_vectors
    texts = ["theta zeta eps alpha iota", "delta", "beta delta iota",
             "delta delta eps", "eps eps iota eta eps theta"]
    pool = [ctx(t, "s.java", i + 1) for i, t in enumerate(texts)]
    target, shorter = tfidf_vectors([Counter(tokenize(t)) for t in texts])[0::4]
    assert len(shorter) < len(target)
    walk_target = _left_sum(w * shorter.get(t, 0.0) for t, w in target.items())
    walk_shorter = _left_sum(w * target.get(t, 0.0) for t, w in shorter.items())
    assert walk_target != walk_shorter
    got = _indexed_equals_per_call(pool, pool[0], 10)
    sim = {c.key: c.token_similarity for c in got}[("s.java", 5)]
    assert sim == walk_target / (_norm(target) * _norm(shorter))


def test_token_pool_skips_a_token_in_every_context():
    """A token every context holds has idf 0, so a context sharing only
    that token with the target scores exactly 0.0."""
    texts = ["value = alpha + beta;", "value = gamma;", "use(value, alpha);",
             "value++;", "print(value, beta, beta);"]
    pool = [ctx(t, "v.java", i + 1) for i, t in enumerate(texts)]
    for target in pool:
        got = _indexed_equals_per_call(pool, target, 10)
        assert len(got) == 4
    got = _indexed_equals_per_call(pool, pool[1], 10)
    assert {c.token_similarity for c in got} == {0.0}


def test_token_pool_pads_with_zero_scores_in_key_order():
    """Past the contexts that share a weighted token with the target, the
    ranking continues with the zero-score ones in (file, line) order, and
    stops at `limit`."""
    pool = [ctx("alpha beta", "b.java", 7), ctx("gamma", "c.java", 2),
            ctx("alpha", "z.java", 1), ctx("delta", "a.java", 9),
            ctx("alpha beta gamma", "t.java", 4), ctx("eta", "a.java", 3),
            ctx("beta", "b.java", 1)]
    target = pool[4]
    got = _indexed_equals_per_call(pool, target, 100)
    assert [c.key for c in got] == [
        ("c.java", 2), ("b.java", 7), ("b.java", 1), ("z.java", 1),
        ("a.java", 3), ("a.java", 9)]
    assert [c.token_similarity == 0.0 for c in got] == [False] * 4 + [True] * 2
    for limit in range(1, 8):
        short = _indexed_equals_per_call(pool, target, limit)
        assert _exact(short) == _exact(got[:limit])


def _hexes(cands):
    return [float.hex(c.token_similarity) for c in cands]


def test_token_identical_contexts_tie_and_break_by_key():
    """Contexts with the same tokens in another order score the same float,
    so (file, line) breaks the tie: line 2 before line 3."""
    texts = ["delta zeta kappa gamma iota alpha", "zeta delta alpha gamma",
             "alpha gamma zeta delta", "eps eta", "eps delta", "beta kappa"]
    pool = [ctx(t, "a.java", i + 1) for i, t in enumerate(texts)]
    got = _indexed_equals_per_call(pool, pool[0], 10)
    assert [c.key[1] for c in got] == [2, 3, 6, 5, 4]
    assert got[0].token_similarity == got[1].token_similarity
    assert [c.key for c in token_match(pool[0], TokenPool(pool), 1)] == \
        [("a.java", 2)]


_ORDER_WORDS = st.lists(st.sampled_from(
    ["alpha", "beta", "gamma", "delta", "eps", "zeta", "eta", "theta"]),
    max_size=8)


@settings(max_examples=200, deadline=None)
@given(st.lists(_ORDER_WORDS, min_size=2, max_size=10), st.randoms())
@example([["delta", "zeta", "kappa", "gamma", "iota", "alpha"],
          ["zeta", "delta", "alpha", "gamma"], ["eps", "delta"]],
         random.Random(3))
def test_token_ranking_ignores_each_contexts_word_order(docs, rng):
    """Shuffling the words of every context but the target's changes no
    similarity bits and no ranking."""
    def pool_of(order):
        return [ctx(" ".join(order(words)), "o.java", i + 1)
                for i, words in enumerate(docs)]
    pool = pool_of(list)
    for pos, target in enumerate(pool):
        shuffled = pool_of(lambda words: rng.sample(words, len(words)))
        shuffled[pos] = target
        for limit in (1, 3, len(pool)):
            want = token_match(target, TokenPool(pool), limit)
            got = token_match(target, TokenPool(shuffled), limit)
            assert [c.key for c in got] == [c.key for c in want]
            assert _hexes(got) == _hexes(want)


def test_token_pool_ties_straddling_the_cut():
    """Equal contexts score equal floats; where `limit` cuts a run of them,
    the (file, line) order decides, as in the per-call sort."""
    texts = ["alpha beta"] * 4 + ["alpha gamma"] * 5 + ["beta delta"] * 3 + \
        ["omega"] * 2
    pool = [ctx(t, f"f{(i * 5) % 7}.java", 1 + (i * 11) % 23)
            for i, t in enumerate(texts)]
    pool.append(ctx("alpha beta gamma", "t.java", 1))
    straddled = 0
    full = _indexed_equals_per_call(pool, pool[-1], len(pool))
    for limit in range(1, len(pool) + 3):
        got = _indexed_equals_per_call(pool, pool[-1], limit)
        straddled += 0 < limit < len(full) and \
            full[limit - 1].token_similarity == full[limit].token_similarity
    assert straddled >= 5


def test_token_pool_heaps_only_scoring_contexts(monkeypatch):
    """On 2,000 contexts in 50 families with disjoint vocabularies, a target
    scores against the 39 others of its family. Only those enter the
    ranking heap, and the zero-score padding follows in (file, line) order,
    the per-call ranking's keys and floats."""
    def word(n):
        return "".join(string.ascii_lowercase[n // 26 ** k % 26] for k in range(3))
    pool = []
    for f in range(50):
        vocab = [word(3 * f + j) for j in range(3)]
        pool += [ctx(f"{vocab[i % 3]} {vocab[(i + 1) % 3]}",
                     f"f{(f * 7) % 50:02}.java", 1 + (i * 13) % 40)
                 for i in range(40)]
    tokens = TokenPool(pool)
    fed = []
    nsmallest = matching.heapq.nsmallest

    def counted(n, iterable):
        items = list(iterable)
        fed.append(len(items))
        return nsmallest(n, items)
    for target in pool[::397]:
        monkeypatch.setattr(matching.heapq, "nsmallest", counted)
        got = _member_ranking(tokens, target, 100)
        monkeypatch.undo()
        assert fed.pop() == 39 and not fed
        assert [c.token_similarity > 0.0 for c in got] == [True] * 39 + [False] * 61
        assert _exact(got) == _per_call(target, pool, 100)


def test_token_pool_pads_fewer_positive_contexts_with_plus_zero():
    """With fewer positive scores than `limit`, the rest are +0.0, never
    -0.0, in (file, line) order."""
    pool = [ctx("alpha", "b.java", 2), ctx("gamma", "a.java", 9),
            ctx("alpha beta", "c.java", 1), ctx("delta", "a.java", 4),
            ctx("eta", "a.java", 1), ctx("alpha beta", "t.java", 1)]
    got = _indexed_equals_per_call(pool, pool[-1], 100)
    assert _hexes(got)[2:] == [float.hex(0.0)] * 3 == ["0x0.0p+0"] * 3
    assert [c.key for c in got[2:]] == [("a.java", 1), ("a.java", 4),
                                        ("a.java", 9)]


def test_token_pool_limit_at_or_beyond_the_pool():
    pool = [ctx(t, "l.java", i + 1) for i, t in enumerate(
        ["alpha beta", "beta gamma", "gamma delta", "alpha", "eta", "beta"])]
    for target in pool:
        for limit in (len(pool) - 1, len(pool), len(pool) + 3, 10 ** 6):
            got = _indexed_equals_per_call(pool, target, limit)
            assert len(got) == len(pool) - 1
        assert _indexed_equals_per_call(pool, target, 0) == []


def test_token_pool_target_with_no_tokens():
    """A target with no tokens scores +0.0 against every context, which
    come in (file, line) order."""
    pool = [ctx("alpha beta", "b.java", 3), ctx("();", "t.java", 1),
            ctx("gamma", "a.java", 5), ctx("beta", "a.java", 2)]
    assert tokenize(pool[1].target.text) == []
    for limit in (1, 2, 3, 5):
        got = _indexed_equals_per_call(pool, pool[1], limit)
        assert _hexes(got) == ["0x0.0p+0"] * min(limit, 3)
        assert [c.key for c in got] == [("a.java", 2), ("a.java", 5),
                                        ("b.java", 3)][:limit]


def test_token_pool_target_only_of_terms_in_every_context():
    """A target whose terms all have idf 0 has norm 0 and scores +0.0
    against every context, while other targets still rank by their other
    terms."""
    texts = ["value", "value = alpha;", "value = beta;", "value(alpha, gamma);",
             "print(value);"]
    pool = [ctx(t, "v.java", i + 1) for i, t in enumerate(texts)]
    for limit in (1, 3, 10):
        got = _indexed_equals_per_call(pool, pool[0], limit)
        assert _hexes(got) == ["0x0.0p+0"] * min(limit, 4)
    got = _indexed_equals_per_call(pool, pool[1], 10)
    assert [c.key[1] for c in got][:1] == [4]
    assert _hexes(got)[1:] == ["0x0.0p+0"] * 3


def test_token_pool_scores_about_limit_contexts_exactly(monkeypatch):
    """On a pool of 2,000 contexts, a member ranking has the per-call keys
    and floats without one `_cosine` call: its postings sum each dot
    product exactly as `_cosine` does."""
    rng = random.Random(18)
    words = [f"w{a}{b}" for a in "abcdefghijklmnop" for b in "qrstuvwxyz"]
    pool = [ctx(" ".join(rng.choices(words, k=rng.randint(2, 9))),
                f"g{i % 37}.java", 1 + i // 37) for i in range(2000)]
    tokens = TokenPool(pool)
    calls = []

    def counted(*args):
        calls.append(args)
        return _cosine(*args)
    for target in pool[::400]:
        full = _per_call(target, pool, len(pool))
        calls.clear()
        with monkeypatch.context() as m:
            m.setattr(matching, "_cosine", counted)
            got = _member_ranking(tokens, target, 10)
        assert _exact(got) == full[:10]
        assert calls == []


def _left_sum(values):
    """Floats added left to right, as `sum` adds them before CPython 3.12."""
    total = 0.0
    for v in values:
        total += v
    return total


def test_float_sum_adds_left_to_right():
    """Left to right on every CPython: the `sum` of 3.12 and later, which
    compensates rounding, gives 1.0000000000000002 here."""
    from siblingfix.matching import float_sum
    assert float_sum([1.0, 1e-16, 1e-16]) == 1.0
    assert float_sum([]) == 0.0
    assert float_sum(iter([0.5, 0.25])) == 0.75


_SUM_TERMS = st.lists(st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.0 ** -1022, -1e-310,
                     math.inf, -math.inf, 1e308, -1e308, 1.0, -1.0]),
    st.floats(-1e-300, 1e-300), st.floats(allow_nan=True)), max_size=12)


@settings(max_examples=1000, deadline=None)
@given(_SUM_TERMS)
@example([-0.0])
@example([-0.0, -0.0])
@example([1.0, -1.0, -0.0])
@example([math.inf, -math.inf, 0.0])
def test_float_sum_equals_the_plain_loop(values):
    """Skipping zero terms gives the plain left-to-right loop's bits, signed
    zeros, subnormals, infinities and overflow included."""
    from siblingfix.matching import float_sum
    got, want = float_sum(values), _left_sum(values)
    if math.isnan(want):
        assert math.isnan(got)
    else:
        assert float.hex(got) == float.hex(want)


def _ref_norm(v):
    return math.sqrt(math.fsum(x * x for x in v.values()))


def _ref_cosine(a, na, b, nb):
    dot = _left_sum(v * b.get(t, 0.0) for t, v in a.items())
    if na == 0.0 or nb == 0.0:
        return 0.0
    return dot / (na * nb)


_WEIGHTS = st.dictionaries(
    st.sampled_from("abcdefghij"),
    st.sampled_from([0.0, 1.0, math.log(2)]) | st.floats(0, 1e6), max_size=10)


@settings(max_examples=300, deadline=None)
@given(_WEIGHTS, _WEIGHTS)
def test_cosine_and_norm_equal_generator_formulas(a, b):
    """Same products in the same order: the same floats as the generator
    sums, with either vector first, the dot product walking the first."""
    na, nb = _norm(a), _norm(b)
    assert float.hex(na) == float.hex(_ref_norm(a))
    assert float.hex(nb) == float.hex(_ref_norm(b))
    assert float.hex(_cosine(a, na, b, nb)) == float.hex(_ref_cosine(a, na, b, nb))
    assert float.hex(_cosine(b, nb, a, na)) == float.hex(_ref_cosine(b, nb, a, na))


# -- reaching-definition contexts against the per-variable scan ---------

def _assigns_uncached(stmt, name):
    """_assigns as it was: two regex searches compiled per call (the
    statement's masked text is mask_code(stmt.text))."""
    from siblingfix.matching import _ASSIGN_OPS
    masked = stmt.masked
    if re.search(rf"(?<![\w.$]){re.escape(name)}\s*(?:\[[^\]]*\])?\s*{_ASSIGN_OPS}",
                 masked):
        return True
    return bool(re.search(
        rf"[\w>\]]\s+{re.escape(name)}\s*(?:[;,=)]|:)", masked))


def _ref_extract_context(index, target):
    """extract_context as it was: for each variable the target uses, a
    backward scan of its scope for the nearest statement assigning it."""
    sf = index.files[target.file]
    method = index.enclosing_method(target.file, target.start_line)
    # A statement belongs to the innermost method at its start line, or to
    # its file's statements that no method owns.
    scope = [s for s in sf.statements
             if index.enclosing_method(s.file, s.start_line) is method]
    pos = scope.index(target)
    preceding = scope[:pos]
    variables = [i.name for i in identifiers_in(target) if i.kind == "variable"]
    chosen = []
    for name in dict.fromkeys(variables):
        for stmt in reversed(preceding):
            if _assigns_uncached(stmt, name):
                if stmt not in chosen:
                    chosen.append(stmt)
                break
    if variables and not chosen and preceding:
        chosen.append(preceding[-1])
    ordered = [s for s in scope if s in chosen or s is target]
    return StatementContext(target=target, context=tuple(ordered))


def _assert_contexts_match_reference(index):
    stmts = [s for sf in index.files.values() for s in sf.statements]
    want = [_ref_extract_context(index, s) for s in stmts]
    assert statement_contexts(index, stmts) == want
    assert [extract_context(index, s) for s in stmts] == want


@settings(max_examples=150, deadline=None)
@given(FILE)
def test_contexts_match_reference_on_generated_files(tmp_path_factory, text):
    tmp = tmp_path_factory.mktemp("contexts")
    (tmp / "T.java").write_text(text, encoding="utf-8")
    _assert_contexts_match_reference(index_source(tmp, ["*.java"]))


_LOCAL = st.sampled_from(["a", "b", "total", "x1", "s", "$d", "arr"])
_LONG_STATEMENT = st.one_of(
    st.builds("int {} = {} + 1;".format, _LOCAL, _LOCAL),
    st.builds("{} += {};".format, _LOCAL, _LOCAL),
    st.builds("{}++;".format, _LOCAL),
    st.builds("{}[i] = {};".format, _LOCAL, _LOCAL),
    st.builds("String {};".format, _LOCAL),
    st.builds("use({}.{}, {});".format, _LOCAL, _LOCAL, _LOCAL),
    st.builds("{} = f({},\n      {});".format, _LOCAL, _LOCAL, _LOCAL),
    st.builds("if ({} == {}) {{".format, _LOCAL, _LOCAL),
    st.builds("for (T {} : {}) {{".format, _LOCAL, _LOCAL),
    st.builds('note("{0} = 0"); // {0} = 1'.format, _LOCAL),
    st.just("}"),
    st.just("done();"),
)


@settings(max_examples=100, deadline=None)
@given(st.lists(_LONG_STATEMENT, min_size=20, max_size=120))
def test_contexts_match_reference_on_long_methods(tmp_path_factory, body):
    opened = sum(line.endswith("{") for line in body) - body.count("}")
    text = ("class L {\n  int run(int a, int[] arr) {\n    "
            + "\n    ".join(body) + "\n" + "  }\n" * max(opened, 0) + "  }\n}\n")
    tmp = tmp_path_factory.mktemp("long")
    (tmp / "L.java").write_text(text, encoding="utf-8")
    _assert_contexts_match_reference(index_source(tmp, ["*.java"]))


_PIECES = st.sampled_from(["a", "b1", "$c", "d$", "\u00e9", "9", ".", " ", "\t",
                           "=", "==", "+=", "<<=", "++", "-", "[i]", "[", "]",
                           "(", ")", ";", ",", ":", ">", "int"])


@settings(max_examples=300, deadline=None)
@given(FILE | st.lists(_PIECES, max_size=16).map("".join))
@example("i--;")  # "--" is the only sign of this assignment
@example("accumulatedWeightedResidualSum[index] += partialDerivativeOfTheModel * "
         "x; iterationCounterForTheOuterLoop++; int notAssignedButDeclaredHere;")
def test_defined_names_match_per_name_search(text):
    """A name is defined by a statement exactly when the per-name search
    says it is assigned or declared there, for every identifier of the text."""
    stmt = Statement(file="T.java", start_line=1, end_line=1, text=text,
                     kind="simple", masked=mask_code(text))
    names = set(re.findall(r"[A-Za-z_$][\w$]*", text))
    defined = defined_names(stmt)
    assert defined <= names
    for name in names:
        assert (name in defined) == _assigns_uncached(stmt, name), name


def _chained_method(n):
    body = ["class Chain {", "  int run() {", "    int v0 = 0;"]
    body += [f"    int v{i} = v{i - 1} + {i};" for i in range(1, n)]
    body += [f"    return v{n - 1};", "  }", "}", ""]
    return "\n".join(body)


def test_chained_method_takes_one_pass(tmp_path, monkeypatch):
    """Each statement's uses are read once per scope, not once per target:
    N chained definitions cost N `variables_in` calls."""
    n = 2000
    index = make_index(tmp_path, _chained_method(n), "Chain.java")
    method = index.enclosing_method("Chain.java", 3)
    scope = index.statements_in_method(method)
    assert len(scope) == n + 2  # header, n definitions, return
    calls = []

    def counted(stmt):
        calls.append(stmt)
        return variables_in(stmt)
    monkeypatch.setattr(matching, "variables_in", counted)
    contexts = statement_contexts(index, scope)
    assert len(calls) == len(scope)
    assert [c.text for c in contexts[5].context] == ["int v3 = v2 + 3;",
                                                     "int v4 = v3 + 4;"]
    assert [c.text for c in contexts[-1].context] == [
        f"int v{n - 1} = v{n - 2} + {n - 1};", f"return v{n - 1};"]


def test_equal_statements_on_one_line_are_told_apart(tmp_path):
    """Two equal statements on one line are two positions: each sees the
    other only as the definition that reaches it. The per-variable scan
    matched by equality, so it gave the second `i++` the first one's
    context and put both into the context of `use(i)`."""
    index = make_index(tmp_path, "class E {\n  void f(int i) {\n    i++; i++;\n"
                                 "    use(i);\n  }\n}\n", "E.java")
    header, first, second, use = index.statements_in_method(
        index.enclosing_method("E.java", 3))
    assert first == second and first is not second
    got = statement_contexts(index, [first, second, use])
    assert [c.context for c in got] == [(header, first), (first, second),
                                        (second, use)]
    assert all(c.context[-1] is c.target for c in got)
    assert got[2].context[0] is second
    assert _ref_extract_context(index, use).context == (first, second, use)


def test_statement_past_its_method_end_keeps_its_own_text(tmp_path):
    """A statement that starts in a one-line method and ends after it
    belongs to that method, the innermost one at its start line, and is
    the last of the method's statements."""
    index = make_index(tmp_path, "class P {\n  void h() { a = 0; } int z\n"
                                 "      = a;\n}\n", "P.java")
    target = index.statement_at("P.java", 3)
    assert target.text == "int z\n      = a;"
    scope = index.statements_in_method(index.enclosing_method("P.java", 2))
    assert target in scope
    assign = scope[-2]
    assert extract_context(index, target).context == (assign, target)
    assert _ref_extract_context(index, target).context == (assign, target)


def test_nested_method_locals_stay_out_of_the_outer_context(tmp_path):
    """A local of an anonymous class's method is not a definition that
    reaches a later statement of the method around it."""
    index = make_index(tmp_path, (
        "class A {\n"
        "  int f(int n) {\n"
        "    int x = n;\n"
        "    Runnable r = new Runnable() {\n"
        "      public void run() { int x = 7; use(x); }\n"
        "    };\n"
        "    return x + 1;\n"
        "  }\n"
        "}\n"), "A.java")
    target = index.statement_at("A.java", 7)
    assert target.text == "return x + 1;"
    assert [s.text for s in extract_context(index, target).context] == [
        "int x = n;", "return x + 1;"]
    inner = index.statements_in_method(index.enclosing_method("A.java", 5))[-1]
    assert inner.text == "use(x);"
    assert [s.text for s in extract_context(index, inner).context] == [
        "int x = 7;", "use(x);"]


def test_class_level_statement_context_skips_method_locals(tmp_path):
    """A field initializer's scope is its file's statements outside every
    method, so a method's local of the same name does not reach it."""
    index = make_index(tmp_path, (
        "class A {\n"
        "  int base = 3;\n"
        "  void f() {\n"
        "    int base = 9;\n"
        "  }\n"
        "  int scaled = base * 2;\n"
        "}\n"), "A.java")
    target = index.statement_at("A.java", 6)
    assert [s.text for s in extract_context(index, target).context] == [
        "int base = 3;", "int scaled = base * 2;"]


def test_extract_context_over_600_distinct_locals(tmp_path):
    """More distinct local names than the `re` module caches patterns for."""
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
    want = [_ref_extract_context(index, s) for s in targets]
    assert got == want
    assert all(len(c.context) > width for c in got if "use(" in c.target.text)
