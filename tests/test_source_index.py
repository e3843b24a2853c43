import hashlib
import re
import string
import time
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from siblingfix.llm import Patch, PatchEdit
from siblingfix.source_index import (_CLASS_RE, _FIELD_NAME_RE, KEYWORDS,
                                     ClassRef, FieldDecl, MethodRef,
                                     SourceFile, Statement,
                                     _linewise_statements, _name_before,
                                     _signature_text,
                                     Identifier, identifiers_in, index_source,
                                     mask_code, variables_in)
from siblingfix.validation import patched_texts
from strategies import FILE


def _contains(method, line):
    return method.body_start <= line <= method.body_end


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


def test_unbalanced_braces_fall_back_linewise(tmp_path, caplog):
    write(tmp_path, "Bad.java", "class Bad {\n  int x;\n")
    sf = index_source(tmp_path, ["*.java"]).files["Bad.java"]
    assert "unbalanced braces, indexed line-wise: Bad.java" in caplog.text
    # Line-wise statements still cover every non-blank line, and no
    # method or class is found.
    assert [s.start_line for s in sf.statements] == [1, 2]
    assert sf.methods == [] and sf.classes == []


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
        assert (hit is None) == (not any(_contains(m, line) for m in methods))


NESTED_CLASSES = """\
class A {
    int a = 1;
    static class B {
        int b = 2;
        int g() { return b; }
    }
    int f(B x) {
        return x.b;
    }
}
class C {
    static class B {
        int z;
        int k() { return z; }
    }
}
"""


def test_each_member_belongs_to_its_innermost_class(tmp_path):
    """A method or field is listed by the innermost class holding it, and
    by no other: not by an outer class, nor by a class of the same name."""
    write(tmp_path, "A.java", NESTED_CLASSES)
    sf = index_source(tmp_path, ["*.java"]).files["A.java"]
    assert [(c.name, [f.name for f in c.fields], [m.name for m in c.methods])
            for c in sf.classes] == [("A", ["a"], ["f"]), ("B", ["b"], ["g"]),
                                     ("C", [], []), ("B", ["z"], ["k"])]


def test_enclosing_method_unknown_file(tmp_path):
    write(tmp_path, "C.java", NESTED)
    index = index_source(tmp_path, ["*.java"])
    with pytest.raises(KeyError):
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


def test_words_reserved_only_in_c_are_java_names(tmp_path):
    """`union`, `sizeof`, `unsigned` and `signed` are keywords of C, not of
    Java, where a method or a variable may have such a name."""
    text = ("class Sets {\n"
            "  static int union(int a, int b) {\n"
            "    return a | b;\n"
            "  }\n"
            "  int sizeof(int[] xs) {\n"
            "    int unsigned = signed + 1;\n"
            "    return xs.length;\n"
            "  }\n"
            "}\n")
    write(tmp_path, "Sets.java", text)
    index = index_source(tmp_path, ["*.java"])
    assert [m.name for m in index.files["Sets.java"].methods] == [
        "union", "sizeof"]
    ids = identifiers_in(stmt("int unsigned = signed + 1;"))
    assert [(i.kind, i.name) for i in ids] == [
        ("variable", "unsigned"), ("variable", "signed")]
    body = "  static int union(int a, int b) {\n    return a & b;\n  }"
    patch = Patch(edits=(PatchEdit("Sets.java", "union", body),))
    assert patched_texts(patch, index) == {
        "Sets.java": text.replace("a | b", "a & b")}


def test_var_is_a_java_name(tmp_path):
    """`var` is a contextual keyword (JLS 3.9), not a reserved one: a method
    and a variable may be named `var`."""
    write(tmp_path, "V.java", "class V {\n  int var(int var) { return var + 1; }\n}\n")
    index = index_source(tmp_path, ["*.java"])
    assert [m.name for m in index.files["V.java"].methods] == ["var"]
    assert variables_in(stmt("return var + 1;")) == ["var"]


def test_method_body_roundtrip(tmp_path):
    write(tmp_path, "F.java", "class F {\n  int f() {\n    return 1;\n  }\n}\n")
    index = index_source(tmp_path, ["*.java"])
    ref = index.methods_named("F.java", "f")[0]
    assert index.method_body(ref) == "  int f() {\n    return 1;\n  }"


def test_one_line_method_body(tmp_path):
    write(tmp_path, "F.java", "int g(){ return 7; }\n")
    index = index_source(tmp_path, ["*.java"])
    ref = index.methods_named("F.java", "g")[0]
    assert index.method_body(ref) == "int g(){ return 7; }"


LONG_THROWS = """\
class T {
  int f(int x) throws java.util.concurrent.BrokenBarrierException,
      java.util.concurrent.RejectedExecutionException, java.util.concurrent.TimeoutException,
      java.lang.reflect.UndeclaredThrowableException {
    return x;
  }
}
"""

COMMENT_BEFORE_BODY = """\
class T {
  int f(int x)
      // The body opens on the line after these three comment lines, which
      // the indexer masks to blanks before it looks for the brace that
      // opens the body; no window on the blanks may hide the method.
  {
    return x;
  }
}
"""


@pytest.mark.parametrize("text, body_end", [(LONG_THROWS, 6),
                                             (COMMENT_BEFORE_BODY, 8)],
                         ids=["long-throws", "comment-lines"])
def test_long_gap_before_the_body_keeps_the_method(tmp_path, text, body_end):
    close = text.index(")")
    assert text.index("{", close) - close > 200
    write(tmp_path, "T.java", text)
    index = index_source(tmp_path, ["*.java"])
    [m] = index.files["T.java"].methods
    assert (m.name, m.body_start, m.body_end) == ("f", 2, body_end)
    assert index.enclosing_method("T.java", body_end - 1) is m


def test_throws_before_a_long_blank_gap_indexes_in_linear_time(tmp_path):
    write(tmp_path, "T.java", "class T {\n  int f() throws" + " " * 200_000 + "\n}\n")
    start = time.perf_counter()
    sf = index_source(tmp_path, ["*.java"]).files["T.java"]
    assert time.perf_counter() - start < 1.0
    assert sf.methods == [] and [c.name for c in sf.classes] == ["T"]


def test_undecodable_file_is_skipped(tmp_path, caplog):
    write(tmp_path, "A.java", "class A { int f() { return 1; } }\n")
    (tmp_path / "Legacy.java").write_bytes(
        "// Auteur: Andr\u00e9\nclass Legacy { }\n".encode("latin-1"))
    index = index_source(tmp_path, ["*.java"])
    assert list(index.files) == ["A.java"]
    assert "unreadable file skipped: Legacy.java: 'utf-8' codec can't decode" \
        in caplog.text


# Characters that str.splitlines() breaks at but the index does not.
LINE_BREAK_LOOKALIKES = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


@pytest.mark.parametrize("char", LINE_BREAK_LOOKALIKES)
def test_method_body_lines_end_at_newline_only(tmp_path, char):
    write(tmp_path, "F.java",
          f"class F {{\n  // page{char}break\n  int f() {{\n    return 1;\n  }}\n}}\n")
    index = index_source(tmp_path, ["*.java"])
    ref = index.methods_named("F.java", "f")[0]
    assert (ref.body_start, ref.body_end) == (3, 5)
    assert index.method_body(ref) == "  int f() {\n    return 1;\n  }"


def test_linewise_lines_end_at_newline_only(tmp_path, caplog):
    write(tmp_path, "Bad.java", "class Bad {\n  // a\x0cb\u2028c\n  int x;\n")
    sf = index_source(tmp_path, ["*.java"]).files["Bad.java"]
    assert "unbalanced braces, indexed line-wise: Bad.java" in caplog.text
    assert [(s.start_line, s.text) for s in sf.statements] == [
        (1, "class Bad {"), (2, "  // a\x0cb\u2028c"), (3, "  int x;")]


def test_mask_code_preserves_length_and_newlines():
    text = 'int x = 1; // trailing "quote\nString s = "a;{b}"; /* c\nd */ int y;\n'
    masked = mask_code(text)
    assert len(masked) == len(text)
    assert masked.count("\n") == text.count("\n")
    assert "{" not in masked.split("\n")[1]  # brace inside string is masked


def test_mask_code_block_comment_needs_its_own_star():
    # The '*' of "/*" does not also close the comment: "/*/" stays open.
    assert mask_code("/*/ a; */ b;") == " " * 10 + "b;"


def test_mask_code_text_block_is_one_literal():
    # JEP 378: `"""`, optional blanks, a line break, then up to the next
    # unescaped `"""`; the quotes inside are text, not literal bounds.
    text = '"""\n hello "quoted" { ;\n"""'
    assert mask_code(text) == "   \n" + " " * 19 + "\n   "
    assert mask_code('""" \t\r a \\""" b """ c') == " " * 20 + "c"
    # Without the line break, `"""a"""` is three string literals.
    assert mask_code('x("""a""");') == "x(" + " " * 7 + ");"


def test_text_block_holds_no_code(tmp_path):
    """Quotes and braces inside a text block are neither identifiers nor
    brackets: the methods after it are still found."""
    write(tmp_path, "T.java", 'class T {\n  String f() {\n    String s = """\n'
                              '      say "quoted" { now\n      """;\n'
                              '    return s;\n  }\n  int g() { return 1; }\n}\n')
    index = index_source(tmp_path, ["*.java"])
    sf = index.files["T.java"]
    assert [(m.name, m.body_start, m.body_end) for m in sf.methods] == [
        ("f", 2, 7), ("g", 8, 8)]
    block = index.statement_at("T.java", 4)
    assert (block.start_line, block.end_line) == (3, 5)
    assert [i.name for i in identifiers_in(block)] == ["String", "s"]


def test_quote_in_comment_does_not_open_statement(tmp_path):
    write(tmp_path, "A.java", "class A {\n    void f() {\n        // don't touch\n"
                              "        int x = 1;\n    }\n}\n")
    index = index_source(tmp_path, ["*.java"])
    simple = [s for s in index.files["A.java"].statements if s.kind == "simple"]
    assert [(s.start_line, s.text) for s in simple] == [(4, "int x = 1;")]


def test_identifiers_across_blanks():
    ids = identifiers_in(stmt("a .\n b (c) ;\n d\t(e . f)"))
    assert [(i.kind, i.name) for i in ids] == [
        ("variable", "a"), ("call", "b"), ("variable", "c"),
        ("call", "d"), ("variable", "e"), ("field-access", "f"),
    ]


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
    # Not indexed line-wise: that finds no class.
    assert [c.name for c in sf.classes] == ["G"]
    assert len(sf.methods) == len(names)
    # Every simple statement lies inside the method that encloses its line.
    for s in sf.statements:
        if s.kind == "simple":
            m = index.enclosing_method("G.java", s.start_line)
            assert m is not None and _contains(m, s.start_line)


# -- lookup tables against linear scans ---------------------------------

def _scan_statement_at(sf, line):
    hits = [s for s in sf.statements if s.start_line <= line <= s.end_line]
    if not hits:
        return None
    hits.sort(key=lambda s: (s.kind != "simple",
                             s.end_line - s.start_line, s.start_line))
    return hits[0]


def _scan_enclosing_method(sf, line):
    hits = [m for m in sf.methods if _contains(m, line)]
    if not hits:
        return None
    return min(hits, key=lambda m: (m.span_length, m.body_start))


def _scan_statements_in_method(sf, ref):
    return [s for s in sf.statements
            if _scan_enclosing_method(sf, s.start_line) is ref]


@settings(max_examples=150, deadline=None)
@given(FILE)
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


@settings(max_examples=200, deadline=None)
@given(FILE)
def test_masked_slices_equal_mask_code(tmp_path_factory, text):
    """Once `scopes` is built, each statement's masked text, a slice of its
    file's mask, is `mask_code` of its own text, and the file keeps no mask.
    A file indexed line-wise has no mask, and its statements mask their own
    text."""
    tmp = tmp_path_factory.mktemp("slices")
    (tmp / "T.java").write_text(text, encoding="utf-8")
    sf = index_source(tmp, ["*.java"]).files["T.java"]
    sliced = sf.mask is not None
    sf.scopes
    assert sf.mask is None and sf.offsets is None
    for s in sf.statements:
        assert ("masked" in vars(s)) == sliced
        assert s.masked == mask_code(s.text)


@settings(max_examples=150, deadline=None)
@given(FILE)
def test_scopes_partition_statements_by_owner(tmp_path_factory, text):
    """Each statement is in exactly one scope, that of the innermost method
    at its start line (None if none), and each scope is in text order."""
    tmp = tmp_path_factory.mktemp("scopes")
    (tmp / "T.java").write_text(text, encoding="utf-8")
    index = index_source(tmp, ["*.java"])
    sf = index.files["T.java"]
    order = {id(s): i for i, s in enumerate(sf.statements)}
    owned = [s for scope in sf.scopes.values() for s in scope]
    assert sorted(map(id, owned)) == sorted(map(id, sf.statements))
    for owner, scope in sf.scopes.items():
        assert [order[id(s)] for s in scope] == sorted(order[id(s)] for s in scope)
        for s in scope:
            assert index.enclosing_method("T.java", s.start_line) is owner
        if owner is not None:
            assert index.statements_in_method(owner) is scope


def test_lookup_tables_stay_out_of_equality(tmp_path):
    write(tmp_path, "C.java", NESTED)
    a = index_source(tmp_path, ["*.java"])
    b = index_source(tmp_path, ["*.java"])
    a.statement_at("C.java", 3)
    a.enclosing_method("C.java", 3)
    assert a.files["C.java"] == b.files["C.java"]
    assert a.statement_at("C.java", -1) is None
    assert a.enclosing_method("C.java", 10_000) is None


# -- index against the character-loop indexer ---------------------------
#
# The reference functions below scan character by character, as the indexer
# once did. They carry three fixes: "/*/" does not close a block comment,
# only the opening quote of a string or char literal, not a quote inside a
# comment, starts a statement, and a text block is one literal.

def _ref_text_block_end(text, i):
    """End offset of the text block opening at `i`, or None if none opens
    there: three double quotes, then spaces, tabs or form feeds, then a line
    terminator."""
    if text[i:i + 3] != '"""':
        return None
    n = len(text)
    j = i + 3
    while j < n and text[j] in " \t\f":
        j += 1
    if j == n or text[j] not in "\r\n":
        return None
    while j < n and text[j:j + 3] != '"""':
        j += 2 if text[j] == "\\" else 1
    return min(j + 3, n)


def _ref_scan(text):
    """Masked text, and the offsets where string/char literals open."""
    out = list(text)
    literals = set()
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        block_end = _ref_text_block_end(text, i)
        if block_end is not None:
            literals.add(i)
            for k in range(i, block_end):
                if text[k] != "\n":
                    out[k] = " "
            i = block_end
            continue
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = i
            while j < n and text[j] != "\n":
                out[j] = " "
                j += 1
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = i + 3
            while j < n and not (text[j - 1] == "*" and text[j] == "/"):
                j += 1
            for k in range(i, min(j + 1, n)):
                if text[k] != "\n":
                    out[k] = " "
            i = j + 1
        elif c in ("\"", "'"):
            literals.add(i)
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            for k in range(i, min(j + 1, n)):
                if text[k] != "\n":
                    out[k] = " "
            i = j + 1
        else:
            i += 1
    return "".join(out), literals


def _ref_line_starts(text):
    starts = [0]
    for i, c in enumerate(text):
        if c == "\n":
            starts.append(i + 1)
    return starts


def _ref_line_of(offset, starts):
    lo, hi = 0, len(starts) - 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if starts[mid] <= offset:
            lo = mid
        else:
            hi = mid - 1
    return lo + 1


def _ref_matching(masked, open_pos, opening, closing):
    depth = 0
    for i in range(open_pos, len(masked)):
        if masked[i] == opening:
            depth += 1
        elif masked[i] == closing:
            depth -= 1
            if depth == 0:
                return i
    return None


def _ref_segment_statements(path, text, masked, literals, starts):
    stmts = []
    seg_start = None
    paren = 0

    def flush(end, kind):
        nonlocal seg_start
        if seg_start is not None:
            stmts.append(Statement(path, _ref_line_of(seg_start, starts),
                                   _ref_line_of(end, starts),
                                   text[seg_start:end + 1], kind))
        seg_start = None

    for i, c in enumerate(masked):
        significant = (not c.isspace() and c not in "{}") or i in literals
        if seg_start is None and significant:
            seg_start = i
        if c == "(":
            paren += 1
        elif c == ")":
            paren = max(0, paren - 1)
        elif c == ";" and paren == 0:
            flush(i, "simple")
        elif c == "{":
            flush(i, "block-header")
            paren = 0
        elif c == "}":
            if seg_start is not None:
                flush(i - 1, "other")
            paren = 0
    if seg_start is not None:
        flush(len(text) - 1, "other")
    return stmts


def _ref_find_classes(path, masked, starts):
    classes = []
    for m in _CLASS_RE.finditer(masked):
        brace = masked.find("{", m.end())
        close = None if brace < 0 else _ref_matching(masked, brace, "{", "}")
        if close is not None:
            classes.append(ClassRef(path, m.group(1), _ref_line_of(m.start(), starts),
                                    _ref_line_of(close, starts)))
    return classes


# A name before '(', tried at every offset.
_REF_SIGNATURE_NAME_RE = re.compile(r"([A-Za-z_][\w$]*)\s*\(")


def _ref_owner(classes, line):
    """The innermost class whose span holds the line: the shortest span,
    the first of equal ones; None if no class holds it."""
    enclosing = [c for c in classes if c.body_start <= line <= c.body_end]
    return min(enclosing, key=lambda c: c.body_end - c.body_start) if enclosing else None


def _ref_find_methods(path, text, masked, starts):
    methods = []
    for m in _REF_SIGNATURE_NAME_RE.finditer(masked):
        name = m.group(1)
        if name in KEYWORDS:
            continue
        if masked[:m.start()].rstrip().endswith("."):
            continue
        close_paren = _ref_matching(masked, m.end() - 1, "(", ")")
        if close_paren is None:
            continue
        t = re.match(r"\s*(?:throws\s+[\w$.,\s]*)?\{", masked[close_paren + 1:])
        if not t:
            continue
        brace = close_paren + t.end()
        close = _ref_matching(masked, brace, "{", "}")
        if close is None:
            continue
        sig_line = _ref_line_of(m.start(), starts)
        sig_text = _signature_text(text, m.start(), close_paren)
        methods.append(MethodRef(
            path, name, sig_line, min(sig_line, _ref_line_of(brace, starts)),
            _ref_line_of(close, starts), sig_text))
    return methods


def _ref_collect_fields(cls, classes, statements, methods):
    fields = []
    for s in statements:
        if s.kind != "simple":
            continue
        if _ref_owner(classes, s.start_line) is not cls:
            continue
        if any(_contains(m, s.start_line) for m in methods):
            continue
        m = _FIELD_NAME_RE.search(_ref_scan(s.text)[0])
        if m and m.group(1) not in KEYWORDS:
            fields.append(FieldDecl(m.group(1), s.start_line, s.text.strip()))
    return fields


def _ref_index_file(rel, text):
    digest = hashlib.sha256(text.encode()).hexdigest()
    masked, literals = _ref_scan(text)
    if masked.count("{") != masked.count("}"):
        return SourceFile(text, digest, _linewise_statements(rel, text), [], [])
    starts = _ref_line_starts(text)
    statements = _ref_segment_statements(rel, text, masked, literals, starts)
    classes = _ref_find_classes(rel, masked, starts)
    methods = _ref_find_methods(rel, text, masked, starts)
    # Each method and field belongs to the innermost class holding its line.
    for cls in classes:
        cls.methods = [m for m in methods if _ref_owner(classes, m.signature_line) is cls]
        cls.fields = _ref_collect_fields(cls, classes, statements, methods)
    return SourceFile(text, digest, statements, methods, classes)


_CODE_CHARS = "ab\"'\\/*\n {};x"


@settings(max_examples=500, deadline=None)
@given(st.text(alphabet=_CODE_CHARS, max_size=60))
@example(text='"""\t\f\r"\\"""{"""x')  # other blanks and line terminators
@example(text='"""\n\\')  # open text block ending in a backslash
def test_mask_code_matches_character_loop(text):
    assert mask_code(text) == _ref_scan(text)[0]


@settings(max_examples=300, deadline=None)
@given(FILE | st.text(alphabet="aZ_9$\u00e9\u0663 \t\n\u00a0(.=;", max_size=80))
def test_signature_names_match_every_offset_search(text):
    """Reading the name backwards from each '(' finds what trying every
    offset finds, also after a leading digit, '$' or non-ASCII letter, and
    sees a '.' before it as the per-name check does."""
    want = {m.end() - 1: (m.group(1), m.start(1),
                          text[:m.start(1)].rstrip().endswith("."))
            for m in _REF_SIGNATURE_NAME_RE.finditer(text)}
    got = {i: _name_before(text, text[::-1], i)
           for i, c in enumerate(text) if c == "("}
    assert {i: named for i, named in got.items() if named} == want


@settings(max_examples=300, deadline=None)
@given(FILE | st.text(alphabet=_CODE_CHARS + "()=\t", max_size=120))
# A name after '$' is read from its first letter, also after a '.'.
@example(text="class C {\n  void f() { a.$b() { } }\n}\n")
# Block headers whose keyword is no name, a name after '.', an anonymous
# class body (still indexed as a method of its type's name) and '$' names.
@example(text="class C {\n  void f() {\n    if (a) { }\n    while (b) { }\n"
              "    try { } catch (E e) { }\n    synchronized (c) { }\n"
              "    x.f() { }\n    Object o = new T() { };\n  }\n"
              "  void $g(int $a) { }\n  int $9() { }\n}\n")
# Nested parentheses: the methods come in the order of their '('.
@example(text="class C {\n  void f(int a = g(b) { }) { }\n}\n")
# Two class keywords in a row: the first header takes the second keyword
# as its name, so no header starts at it.
@example(text="class  enum B {\n  int x;\n}\n")
@example(text="interface class struct S { }\nenum enum E { }\n")
# Two classes named B, and a field in a nested class.
@example(text="class A {\n  int a;\n  class B {\n    int b;\n    int g() { }\n  }\n}\n"
              "class C {\n  class B {\n    int z;\n    int k() { }\n  }\n}\n")
# A literal opens the statement right after a '}' and right after a ';'.
@example(text='class C {\n  void f() { x(); } "s" + t;\n  a; \'c\'; b;\n}\n')
# A stretch before a '}' that holds only a comment makes no statement; one
# that holds only a literal does.
@example(text="class C {\n  void f() { /* c */ }\n  void g() { // c\n  }\n}\n")
@example(text='class C {\n  void f() { "s" }\n  void g() { \'c\' }\n}\n')
@example(text="")
@example(text=" { {\n\t} }\n{}\n")
@example(text='class C { }\n"x{')  # an unterminated string at the end
def test_index_matches_character_loop(tmp_path_factory, text):
    tmp = tmp_path_factory.mktemp("oracle")
    (tmp / "T.java").write_text(text, encoding="utf-8")
    sf = index_source(tmp, ["*.java"]).files["T.java"]
    ref = _ref_index_file("T.java", text)
    assert sf == ref
    assert [c.fields for c in sf.classes] == [c.fields for c in ref.classes]


# -- patch rendering ------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(FILE)
def test_identity_patch_renders_indexed_text(tmp_path_factory, text):
    """Replacing every method whose name is unique in its file with its own
    indexed body leaves the file's text exactly as indexed."""
    tmp = tmp_path_factory.mktemp("identity")
    (tmp / "T.java").write_text(text, encoding="utf-8")
    index = index_source(tmp, ["*.java"])
    sf = index.files["T.java"]
    names = Counter(m.name for m in sf.methods)
    patch = Patch(edits=tuple(PatchEdit("T.java", m.name, index.method_body(m))
                              for m in sf.methods if names[m.name] == 1))
    expected = {"T.java": sf.text} if patch.edits else {}
    assert patched_texts(patch, index) == expected


# -- identifier classification against the per-token loop ---------------

_REF_IDENT_RE = re.compile(r"[A-Za-z_$][\w$]*")
_REF_CALL_OPEN_RE = re.compile(r"\s*\(")


def _ref_identifiers_in(statement):
    """identifiers_in as it was: each identifier looked at on its own, a
    call when '(' follows, else a field access when '.' precedes."""
    masked = statement.masked
    out = []
    for m in _REF_IDENT_RE.finditer(masked):
        name = m.group(0)
        if name in KEYWORDS:
            continue
        if _REF_CALL_OPEN_RE.match(masked, m.end()):
            out.append(Identifier("call", name))
            continue
        k = m.start() - 1
        while k >= 0 and masked[k].isspace():
            k -= 1
        kind = "field-access" if k >= 0 and masked[k] == "." else "variable"
        out.append(Identifier(kind, name))
    return out


_ID_PIECES = st.sampled_from(
    ["a", "b1", "$c", "d$", "\u00e9", "\u0663", "9", "9x", ".", " .", ". ", "\n",
     "\t", "\u2028", "\u00a0", "(", " (", ")", ";", "=", "this", "new", "int",
     "class", '"s.t("', "// c(", "/* .x */", "'('", "::", "..", "a.", ".("])


def _assert_identifiers_match_reference(stmt):
    want = _ref_identifiers_in(stmt)
    assert identifiers_in(stmt) == want
    assert variables_in(stmt) == [i.name for i in want if i.kind == "variable"]


@settings(max_examples=300, deadline=None)
@given(st.lists(_ID_PIECES, max_size=20).map("".join))
@example("a .\n b (c) ;\n d\t(e . f)")
@example("x.\u00a0y(z).w")
def test_identifiers_match_per_token_loop(text):
    _assert_identifiers_match_reference(stmt(text))


@settings(max_examples=100, deadline=None)
@given(FILE)
def test_identifiers_match_per_token_loop_on_generated_files(tmp_path_factory, text):
    tmp = tmp_path_factory.mktemp("ids")
    write(tmp, "T.java", text)
    for sf in index_source(tmp, ["*.java"]).files.values():
        for s in sf.statements:
            _assert_identifiers_match_reference(s)
