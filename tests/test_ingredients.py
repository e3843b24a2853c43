import math
from collections import Counter
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from siblingfix.ingredients import (FixIngredient, _declared_type, _receiver_of,
                                    extract_fix_ingredients)
from siblingfix.matching import MethodGroup, tfidf_similarities, tokenize
from siblingfix.source_index import identifiers_in, index_source
from strategies import FILE


def groups_for_line(index, file, line):
    method = index.enclosing_method(file, line)
    return [MethodGroup(method=method, file=file,
                        siblings=[index.statement_at(file, line)])]


def test_referenced_declaration_surfaces_related_accessor(mini_index):
    groups = groups_for_line(mini_index, "src/Estimator.java", 4)
    out = extract_fix_ingredients(groups, mini_index, n=10)
    signatures = {i.signature_text for i in out}
    # The sibling line calls getAllParameters(); its declaring class also
    # exposes the accessor the fix needs.
    assert "double[] getAllParameters()" in signatures
    assert "double[] getUnboundParameters()" in signatures
    classes = {i.declaring_class for i in out
               if "Parameters()" in i.signature_text}
    assert classes == {"EstimationProblem"}


def test_n_zero_returns_only_direct_references(mini_index):
    groups = groups_for_line(mini_index, "src/Estimator.java", 4)
    out = extract_fix_ingredients(groups, mini_index, n=0)
    assert {i.signature_text for i in out} == {"double[] getAllParameters()"}
    assert all(i.rank_score == 1.0 for i in out)


def oracle_rank(line_text, decls):
    """Independent raw-tf/ln-idf cosine ranking of declaration texts."""
    docs = [tokenize(line_text)] + [tokenize(t) for t in decls]
    n = len(docs)
    df = Counter()
    for doc in docs:
        df.update(set(doc))
    idf = {t: math.log(n / c) for t, c in df.items()}

    def vec(doc):
        counts = Counter(doc)
        return {t: c * idf[t] for t, c in counts.items()}

    def cos(a, b):
        dot = sum(v * b.get(t, 0.0) for t, v in a.items())
        na = math.sqrt(sum(v * v for v in a.values()))
        nb = math.sqrt(sum(v * v for v in b.values()))
        return 0.0 if na == 0 or nb == 0 else dot / (na * nb)

    target = vec(docs[0])
    return [cos(target, vec(d)) for d in docs[1:]]


def test_top_n_matches_bruteforce_ranking(mini_index):
    line = 4
    stmt = mini_index.statement_at("src/Estimator.java", line)
    cls = mini_index.classes_by_name("EstimationProblem")[0]
    decls = ([m.signature_text for m in cls.methods]
             + [f.text for f in cls.fields])
    assert len(decls) == 5  # 3 methods + 2 fields
    scores = oracle_rank(stmt.text, decls)
    ranked = sorted(zip(scores, decls), key=lambda x: -x[0])
    expected_top2 = {d for _, d in ranked[:2]}

    groups = groups_for_line(mini_index, "src/Estimator.java", line)
    out = extract_fix_ingredients(groups, mini_index, n=2)
    # Directly referenced elements stay regardless; the ranked tail must be
    # exactly the oracle's top 2 (overlap with the direct set is deduped).
    assert {i.signature_text for i in out} == \
        {"double[] getAllParameters()"} | expected_top2


def test_deterministic_and_well_formed(mini_index):
    groups = groups_for_line(mini_index, "src/Estimator.java", 4)
    a = extract_fix_ingredients(groups, mini_index, n=5)
    b = extract_fix_ingredients(groups, mini_index, n=5)
    assert a == b
    for ing in a:
        assert ing.source_file in mini_index.files
        assert ing.signature_text
        assert ing.kind in ("method-declaration", "field-declaration")


def test_output_bound_per_line(mini_index):
    groups = groups_for_line(mini_index, "src/Estimator.java", 4)
    out = extract_fix_ingredients(groups, mini_index, n=2)
    direct = [i for i in out if i.rank_score == 1.0]
    ranked = [i for i in out if i.rank_score < 1.0]
    assert len(ranked) <= 2
    assert len(out) <= len(direct) + 2


def test_unresolvable_reference_skipped(tmp_path):
    (tmp_path / "Lone.java").write_text(
        "class Lone {\n    void go() {\n        phantom.mystery();\n    }\n}\n",
        encoding="utf-8")
    from siblingfix.source_index import index_source
    index = index_source(tmp_path, ["*.java"])
    groups = groups_for_line(index, "Lone.java", 3)
    out = extract_fix_ingredients(groups, index, n=5)
    assert out == []  # nothing resolvable, silently skipped


def test_class_name_receiver_resolves_by_member_name(tmp_path):
    from siblingfix.ingredients import _declared_type
    from siblingfix.source_index import index_source
    (tmp_path / "Util.java").write_text(
        "class Util {\n    static int sum(int a, int b) {\n        return a + b;\n    }\n"
        "    static int twice(int a) {\n        return sum(a, a);\n    }\n}\n",
        encoding="utf-8")
    (tmp_path / "Calc.java").write_text(
        "class Calc {\n    int run() {\n        int y = Util.sum(1, 2);\n"
        "        return y;\n    }\n}\n", encoding="utf-8")
    index = index_source(tmp_path, ["*.java"])
    # `Util` is a class name: no statement declares it, so resolution falls
    # back to the classes that declare the member `sum`.
    call = index.statement_at("Calc.java", 3)
    assert _declared_type(index, call, "Util") is None
    assert _declared_type(index, call, "y") == "int"
    out = extract_fix_ingredients(groups_for_line(index, "Calc.java", 3), index, n=5)
    assert {(i.declaring_class, i.signature_text) for i in out} == {
        ("Util", "static int sum(int a, int b)"),
        ("Util", "static int twice(int a)"),
    }


def test_sibling_sharing_a_start_line_gets_its_own_ingredients(tmp_path):
    """A sibling is harvested from its own statement, not from whichever
    statement a lookup by its start line returns."""
    from siblingfix.matching import (CandidateSibling, StatementContext,
                                     group_by_method)
    from siblingfix.source_index import index_source
    (tmp_path / "S.java").write_text(
        "class S {\n  int f(int b) {\n    int a = b + 1; foo(a,\n        b);\n"
        "    return a;\n  }\n  void foo(int x, int y) {\n  }\n}\n",
        encoding="utf-8")
    index = index_source(tmp_path, ["*.java"])
    call = next(s for s in index.files["S.java"].statements
                if s.text.startswith("foo("))
    assert call.start_line == 3 and index.statement_at("S.java", 3) is not call
    groups = group_by_method(
        [CandidateSibling(StatementContext(target=call, context=(call,)))], index)
    out = extract_fix_ingredients(groups, index, n=5)
    assert {i.signature_text for i in out} == {"void foo(int x, int y)",
                                               "int f(int b)"}


def test_field_access_is_a_direct_field_ingredient(tmp_path):
    (tmp_path / "Box.java").write_text(
        "class Box {\n    int count;\n    int size() {\n"
        "        return this.count + 1;\n    }\n}\n", encoding="utf-8")
    index = index_source(tmp_path, ["*.java"])
    out = extract_fix_ingredients(groups_for_line(index, "Box.java", 4),
                                  index, n=0)
    assert out == [FixIngredient("field-declaration", "int count;", "Box",
                                 "Box.java", 1.0, 2)]


def test_nested_class_field_names_its_own_class(tmp_path):
    """A field of a nested class is declared by that class, not by the
    class around it."""
    (tmp_path / "A.java").write_text(
        "class A {\n    int a = 1;\n    static class B {\n        int b = 2;\n    }\n"
        "    int f(B x) {\n        return x.b;\n    }\n}\n", encoding="utf-8")
    index = index_source(tmp_path, ["*.java"])
    out = extract_fix_ingredients(groups_for_line(index, "A.java", 7), index, n=0)
    assert out == [FixIngredient("field-declaration", "int b = 2;", "B",
                                 "A.java", 1.0, 4)]


def test_receiver_type_comes_from_the_siblings_own_scope(tmp_path):
    """A receiver declared in the sibling's own method names its class,
    not a same-named local of another method earlier in the file; a field
    declared outside every method comes next."""
    (tmp_path / "Foo.java").write_text(
        "class Foo {\n    int size;\n    void run() {\n    }\n}\n", encoding="utf-8")
    (tmp_path / "Bar.java").write_text(
        "class Bar {\n    int depth;\n    void run() {\n    }\n}\n", encoding="utf-8")
    (tmp_path / "Use.java").write_text(
        "class Use {\n    void f() {\n        Foo p = null;\n    }\n"
        "    void g() {\n        Bar p = null;\n        p.run();\n    }\n"
        "    void k() {\n        Foo q = null;\n    }\n"
        "    void h() {\n        q.run();\n    }\n    Bar q = null;\n}\n",
        encoding="utf-8")
    index = index_source(tmp_path, ["*.java"])
    for line in (7, 13):
        out = extract_fix_ingredients(groups_for_line(index, "Use.java", line),
                                      index, n=5)
        fields = {i.signature_text for i in out if i.kind == "field-declaration"}
        assert fields == {"int depth;"}, line


def scan_ingredients(groups, index, n):
    """`extract_fix_ingredients` by whole-index scans: each reference visits
    every method, class and field of the index."""
    result = {}

    def add(ing):
        result.setdefault((ing.kind, ing.source_file, ing.line,
                           ing.signature_text), ing)

    def owner(m):
        return next((c for c in index.files[m.file].classes
                     if any(x is m for x in c.methods)), None)

    def class_declarations(cls):
        return ([FixIngredient("method-declaration", m.signature_text, cls.name,
                               cls.file, 0.0, m.signature_line)
                 for m in cls.methods]
                + [FixIngredient("field-declaration", f.text, cls.name,
                                 cls.file, 0.0, f.line) for f in cls.fields])

    for group in groups:
        for stmt in sorted(group.siblings, key=lambda s: s.start_line):
            classes = {}
            for ref in identifiers_in(stmt):
                if ref.kind == "variable":
                    continue
                for sf in index.files.values():
                    if ref.kind == "call":
                        for m in sf.methods:
                            if m.name == ref.name:
                                cls = owner(m)
                                add(FixIngredient(
                                    "method-declaration", m.signature_text,
                                    cls.name if cls else "", m.file, 1.0,
                                    m.signature_line))
                    else:
                        for cls in sf.classes:
                            for f in cls.fields:
                                if f.name == ref.name:
                                    add(FixIngredient(
                                        "field-declaration", f.text, cls.name,
                                        cls.file, 1.0, f.line))
                receiver = _receiver_of(stmt, ref.name)
                type_token = receiver and _declared_type(index, stmt, receiver)
                resolved = index.classes_by_name(type_token) if type_token else []
                if not resolved:
                    resolved = [
                        cls for sf in index.files.values() for cls in sf.classes
                        if any(m.name == ref.name for m in cls.methods)
                        or any(f.name == ref.name for f in cls.fields)]
                for cls in resolved:
                    classes[cls.file, cls.body_start, cls.name] = cls
            if n == 0 or not classes:
                continue
            decls = [d for key in sorted(classes)
                     for d in class_declarations(classes[key])]
            sims = tfidf_similarities(tokenize(stmt.text),
                                      [tokenize(d.signature_text) for d in decls])
            ranked = sorted(zip(sims, decls),
                            key=lambda p: (-p[0], p[1].source_file, p[1].line))
            for score, decl in ranked[:n]:
                add(replace(decl, rank_score=score))
    return list(result.values())


@settings(max_examples=40, deadline=None)
@given(st.lists(FILE, min_size=1, max_size=3))
def test_declarations_table_matches_whole_index_scans(tmp_path_factory, texts):
    """Over every scope of a multi-file project, the ingredients read from
    the declarations table equal the scans', in the same order."""
    tmp = tmp_path_factory.mktemp("ingredients")
    for i, text in enumerate(texts):
        (tmp / f"F{i}.java").write_text(text, encoding="utf-8")
    index = index_source(tmp, ["*.java"])
    groups = [MethodGroup(method=owner, file=rel, siblings=stmts)
              for rel, sf in index.files.items()
              for owner, stmts in sf.scopes.items()]
    for n in (0, 3):
        assert extract_fix_ingredients(groups, index, n) == \
            scan_ingredients(groups, index, n)


def test_memo_replays_each_lines_ingredients(mini_index):
    """Groups read from a memo filled by other calls, in another order and
    combination, give a fresh extraction's ingredients."""
    first = groups_for_line(mini_index, "src/Estimator.java", 4)
    second = groups_for_line(mini_index, "src/Estimator.java", 22)
    memo = {}
    extract_fix_ingredients(first, mini_index, 10, memo)
    extract_fix_ingredients(second, mini_index, 10, memo)
    assert set(memo) == {g.siblings[0] for g in first + second}
    both = second + first
    assert extract_fix_ingredients(both, mini_index, 10, memo) == \
        extract_fix_ingredients(both, mini_index, 10)
