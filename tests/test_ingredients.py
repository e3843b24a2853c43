import math
from collections import Counter

from siblingfix.ingredients import FixIngredient, extract_fix_ingredients
from siblingfix.matching import MethodGroup, tokenize
from siblingfix.source_index import index_source


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
    assert _declared_type(index, "Calc.java", "Util") is None
    assert _declared_type(index, "Calc.java", "y") == "int"
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
