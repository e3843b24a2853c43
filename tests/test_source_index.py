import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siblingfix.source_index import (IndexError_, Statement, StaleRefError,
                                     identifiers_in, index_source, mask_code)


def write(tmp_path, name, text):
    (tmp_path / name).write_text(text, encoding="utf-8")


def test_empty_project(tmp_path):
    index = index_source(tmp_path, ["**/*.java"])
    assert index.files == {}


def test_single_method_single_statement(tmp_path):
    write(tmp_path, "F.java", "int f(){ return 1; }\n")
    index = index_source(tmp_path, ["*.java"])
    sf = index.files["F.java"]
    assert [m.name for m in sf.methods] == ["f"]
    simple = [s for s in sf.statements if s.kind == "simple"]
    assert [s.text for s in simple] == ["return 1;"]


def test_unbalanced_braces_fall_back_linewise(tmp_path):
    write(tmp_path, "Bad.java", "class Bad {\n  int x;\n")
    index = index_source(tmp_path, ["*.java"])
    assert index.files["Bad.java"].line_wise
    assert any("Bad.java" in w for w in index.warnings)
    # Line-wise statements still cover every non-blank line.
    assert [s.start_line for s in index.files["Bad.java"].statements] == [1, 2]


NESTED = """\
class C {
    void outer() {
        int a = 1;
        Runnable r = new Runnable() {
            public void run() {
                int b = 2;
            }
        };
    }

    void later() {
        int c = 3;
    }
}
"""


def test_enclosing_method_rules(tmp_path):
    write(tmp_path, "C.java", NESTED)
    index = index_source(tmp_path, ["*.java"])
    assert index.enclosing_method("C.java", 3).name == "outer"
    # Between two methods: no enclosing method.
    assert index.enclosing_method("C.java", 10) is None
    # Innermost span wins for the nested declaration.
    inner = index.enclosing_method("C.java", 6)
    assert inner.name == "run"
    # Brute-force oracle: absent iff no span contains the line.
    methods = index.files["C.java"].methods
    for line in range(1, 15):
        hit = index.enclosing_method("C.java", line)
        assert (hit is None) == (not any(m.contains(line) for m in methods))


def test_enclosing_method_unknown_file(tmp_path):
    write(tmp_path, "C.java", NESTED)
    index = index_source(tmp_path, ["*.java"])
    with pytest.raises(IndexError_):
        index.enclosing_method("Missing.java", 1)


def stmt(text):
    return Statement(file="x", start_line=1, end_line=1, text=text, kind="simple")


def test_identifiers_classification():
    ids = identifiers_in(stmt("double[] sig = problem.getUnboundParameters();"))
    assert [(i.kind, i.name) for i in ids] == [
        ("variable", "sig"), ("variable", "problem"),
        ("call", "getUnboundParameters"),
    ]


def test_identifiers_keyword_only():
    assert identifiers_in(stmt("return;")) == []


def test_identifiers_chained_access():
    ids = [(i.kind, i.name) for i in identifiers_in(stmt("a.b.c(d)"))]
    assert ("field-access", "b") in ids
    assert ("call", "c") in ids
    assert ("variable", "a") in ids
    assert ("variable", "d") in ids
    assert len(ids) == 4


def test_method_body_roundtrip_and_stale(tmp_path):
    write(tmp_path, "F.java", "class F {\n  int f() {\n    return 1;\n  }\n}\n")
    index = index_source(tmp_path, ["*.java"])
    ref = index.methods_named("F.java", "f")[0]
    assert index.method_body(ref) == "  int f() {\n    return 1;\n  }"
    # A ref from a previous index generation is stale after the file changes.
    write(tmp_path, "F.java", "class F {\n  int f() {\n    return 2;\n  }\n}\n")
    fresh = index_source(tmp_path, ["*.java"])
    with pytest.raises(StaleRefError):
        fresh.method_body(ref)


def test_one_line_method_body(tmp_path):
    write(tmp_path, "F.java", "int g(){ return 7; }\n")
    index = index_source(tmp_path, ["*.java"])
    ref = index.methods_named("F.java", "g")[0]
    assert index.method_body(ref) == "int g(){ return 7; }"


def test_mask_code_preserves_length_and_newlines():
    text = 'int x = 1; // trailing "quote\nString s = "a;{b}"; /* c\nd */ int y;\n'
    masked = mask_code(text)
    assert len(masked) == len(text)
    assert masked.count("\n") == text.count("\n")
    assert "{" not in masked.split("\n")[1]  # brace inside string is masked


def test_statement_roundtrip_order(mini_index):
    """Statements appear in order as verbatim, non-overlapping file slices."""
    for sf in mini_index.files.values():
        pos = 0
        for s in sf.statements:
            idx = sf.text.index(s.text, pos)
            assert idx >= pos
            pos = idx + len(s.text)


def test_reindex_deterministic(tmp_path):
    write(tmp_path, "C.java", NESTED)
    a = index_source(tmp_path, ["*.java"])
    b = index_source(tmp_path, ["*.java"])
    assert a.files["C.java"] == b.files["C.java"]


_WORD = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=6)


@settings(max_examples=50, deadline=None)
@given(st.lists(_WORD, min_size=0, max_size=8))
def test_generated_methods_index_cleanly(tmp_path_factory, names):
    tmp = tmp_path_factory.mktemp("gen")
    body = "class G {\n"
    for i, name in enumerate(names):
        body += f"  int m{i}{name}() {{\n    int v = {i};\n    return v;\n  }}\n"
    body += "}\n"
    (tmp / "G.java").write_text(body, encoding="utf-8")
    index = index_source(tmp, ["*.java"])
    sf = index.files["G.java"]
    assert not sf.line_wise
    assert len(sf.methods) == len(names)
    # Every simple statement lies inside the method that encloses its line.
    for s in sf.statements:
        if s.kind == "simple":
            m = index.enclosing_method("G.java", s.start_line)
            assert m is not None and m.contains(s.start_line)


# -- lookup tables against linear scans ---------------------------------

def _scan_statement_at(sf, line):
    hits = [s for s in sf.statements if s.start_line <= line <= s.end_line]
    if not hits:
        return None
    hits.sort(key=lambda s: (s.kind != "simple",
                             s.end_line - s.start_line, s.start_line))
    return hits[0]


def _scan_enclosing_method(sf, line):
    hits = [m for m in sf.methods if m.contains(line)]
    if not hits:
        return None
    return min(hits, key=lambda m: (m.span_length, m.body_start))


def _scan_statements_in_method(sf, ref):
    return [s for s in sf.statements
            if ref.body_start <= s.start_line and s.end_line <= ref.body_end]


_VAR = st.sampled_from(["a", "b", "total", "x1", "s"])

_STATEMENT = st.one_of(
    st.builds("{0} = {0} + 1;".format, _VAR),
    st.builds("use({});".format, _VAR),
    st.builds("{0} = 1; {0}++; use({0});".format, _VAR),          # one line
    st.builds("{0} = compute({0},\n    {0} + 2);".format, _VAR),  # multi-line
    st.builds('{} = "a;{{b}}"; // c "d"'.format, _VAR),
    st.just("/* block\n   comment */ int z = 0;"),
    st.builds("if ({0} > 0) {{\n use({0});\n }}".format, _VAR),
    st.builds("Runnable r = new Runnable() {{\n public void run() {{ use({}); }}\n}};"
              .format, _VAR),
)

_METHOD = st.one_of(
    st.builds(lambda n, body: f"void m{n}() {{\n" + "\n".join(body) + "\n}",
              st.integers(0, 9), st.lists(_STATEMENT, max_size=4)),
    st.builds("int g{0}() {{ return {0}; }}".format, st.integers(0, 9)),  # one-line
    st.builds("void h{0}() {{ a = {0}; b = a; }}".format, st.integers(0, 9)),
    st.builds("int p{0}() {{ return 0; }} int q{0}() {{ return 1; }}".format,
              st.integers(0, 9)),                                   # same line
)


def _class_strategy(depth):
    member = _METHOD | st.builds("int f{} = 0;".format, st.integers(0, 9))
    if depth:
        member = member | st.deferred(lambda: _class_strategy(depth - 1))
    return st.builds(lambda n, members: f"class N{n} {{\n" + "\n".join(members) + "\n}",
                     st.integers(0, 9), st.lists(member, max_size=4))


_FILE = st.builds(
    lambda head, classes, tail, broken: "\n".join(head + classes + tail)
    + ("\n}" if broken else "") + "\n",
    st.lists(st.sampled_from(["package p;", "import q.R;", "int top = 1;"]),
             max_size=3),
    st.lists(_class_strategy(2), max_size=3),
    st.lists(_STATEMENT, max_size=2),          # statements outside any class
    st.sampled_from([False, False, True]),     # unbalanced: line-wise fallback
)


@settings(max_examples=150, deadline=None)
@given(_FILE)
def test_lookup_tables_match_linear_scans(tmp_path_factory, text):
    tmp = tmp_path_factory.mktemp("tables")
    (tmp / "T.java").write_text(text, encoding="utf-8")
    index = index_source(tmp, ["*.java"])
    sf = index.files["T.java"]
    for line in range(0, len(text.splitlines()) + 2):
        assert index.statement_at("T.java", line) is _scan_statement_at(sf, line)
        assert index.enclosing_method("T.java", line) is \
            _scan_enclosing_method(sf, line)
    for ref in sf.methods:
        assert index.statements_in_method(ref) == \
            _scan_statements_in_method(sf, ref)
    for s in sf.statements:
        assert s.masked == mask_code(s.text)


def test_lookup_tables_stay_out_of_equality(tmp_path):
    write(tmp_path, "C.java", NESTED)
    a = index_source(tmp_path, ["*.java"])
    b = index_source(tmp_path, ["*.java"])
    a.statement_at("C.java", 3)
    a.enclosing_method("C.java", 3)
    assert a.files["C.java"] == b.files["C.java"]
    assert a.statement_at("C.java", -1) is None
    assert a.enclosing_method("C.java", 10_000) is None
