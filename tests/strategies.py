"""Hypothesis strategies for Java-like source files, shared by the tests.

`FILE` builds whole files: nested and inner classes, one-line methods,
several statements or methods on one line, multi-line statements, string
and comment lookalikes, text blocks, anonymous classes, statements outside
any class, and files whose braces do not balance.
"""

from hypothesis import strategies as st

VAR = st.sampled_from(["a", "b", "total", "x1", "s"])

STATEMENT = st.one_of(
    st.builds("{0} = {0} + 1;".format, VAR),
    st.builds("use({});".format, VAR),
    st.builds("{0} = 1; {0}++; use({0});".format, VAR),          # one line
    st.builds("{0} = compute({0},\n    {0} + 2);".format, VAR),  # multi-line
    st.builds('{} = "a;{{b}}"; // c "d"'.format, VAR),
    st.just("/* block\n   comment */ int z = 0;"),
    st.builds("// don't {0}\n{0} = 1;".format, VAR),          # quotes in comments
    st.builds("/* say \"{0}\" */ {0} = 'q';".format, VAR),
    st.builds("/*/ it's {0}; */ {0}++;".format, VAR),
    st.builds("// page\x0c{0}\n{0} = 2;".format, VAR),        # splitlines() breaks
    st.builds("/* {0}\u2028sep */ use({0});".format, VAR),      # at these; "\n" does not
    st.builds('{} = """\n  say "hi" {{ ;\n  """;'.format, VAR),  # text block
    st.builds("if ({0} > 0) {{\n use({0});\n }}".format, VAR),
    st.builds("Runnable r = new Runnable() {{\n public void run() {{ use({}); }}\n}};"
              .format, VAR),
)

METHOD = st.one_of(
    st.builds(lambda n, body: f"void m{n}() {{\n" + "\n".join(body) + "\n}",
              st.integers(0, 9), st.lists(STATEMENT, max_size=4)),
    st.builds("int g{0}() {{ return {0}; }}".format, st.integers(0, 9)),  # one-line
    st.builds("void h{0}() {{ a = {0}; b = a; }}".format, st.integers(0, 9)),
    st.builds("int p{0}() {{ return 0; }} int q{0}() {{ return 1; }}".format,
              st.integers(0, 9)),                                   # same line
    st.builds('void k{0}(@Named("a(") int a) throws E {{ use(f(a)); }}'.format,
              st.integers(0, 9)),                                   # nested parens
)


def class_strategy(depth):
    member = METHOD | st.builds("int f{} = 0;".format, st.integers(0, 9))
    if depth:
        member = member | st.deferred(lambda: class_strategy(depth - 1))
    return st.builds(lambda n, members: f"class N{n} {{\n" + "\n".join(members) + "\n}",
                     st.integers(0, 9), st.lists(member, max_size=4))


FILE = st.builds(
    lambda head, classes, tail, broken: "\n".join(head + classes + tail)
    + ("\n}" if broken else "") + "\n",
    st.lists(st.sampled_from(["package p;", "import q.R;", "int top = 1;"]),
             max_size=3),
    st.lists(class_strategy(2), max_size=3),
    st.lists(STATEMENT, max_size=2),          # statements outside any class
    st.sampled_from([False, False, True]),     # unbalanced: line-wise fallback
)
