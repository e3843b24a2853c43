"""Lightweight structural indexer for Java.

Segments Java source files into statements, methods, and classes
without any language toolchain. Strings and comments are masked before
brace counting so spans stay correct. Files whose braces do not balance
fall back to line-wise indexing with a warning.
"""

from __future__ import annotations

import hashlib
import logging
import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

logger = logging.getLogger(__name__)

KEYWORDS = frozenset(
    """
    abstract assert boolean break byte case catch char class const continue
    default do double else enum extends final finally float for goto if
    implements import instanceof int interface long native new package private
    protected public return short static strictfp super switch synchronized
    this throw throws transient try void volatile while true false null
    """.split()
)

_CLASS_KEYWORDS = ("class", "interface", "enum")
_CLASS_RE = re.compile(rf"\b(?:{'|'.join(_CLASS_KEYWORDS)})\s+([A-Za-z_]\w*)")
# An identifier with the '.' before it and the '(' after it, if any, so one
# match classifies it: a paren means a call, a dot alone a field access,
# neither a variable. Neither is part of a name, so taking it hides none.
_NAME_USE_RE = re.compile(r"(\.\s*)?([A-Za-z_$][\w$]*)(\s*\()?")


@dataclass(frozen=True)
class Identifier:
    kind: str  # variable | call | field-access
    name: str


@dataclass(frozen=True)
class Statement:
    file: str
    start_line: int
    end_line: int
    text: str
    kind: str  # simple | block-header | other
    # The statement's span of its file's `mask_code`: `text` itself where
    # the two are equal. A segmented statement holds whole each comment and
    # literal it touches, so this is also what `mask_code` gives for `text`.
    masked: str = field(compare=False, repr=False)


@dataclass(frozen=True)
class MethodRef:
    file: str
    name: str
    signature_line: int
    body_start: int
    body_end: int
    signature_text: str

    @property
    def span_length(self) -> int:
        return self.body_end - self.body_start


@dataclass(frozen=True)
class FieldDecl:
    name: str
    line: int
    text: str


@dataclass
class ClassRef:
    file: str
    name: str
    body_start: int
    body_end: int
    fields: list[FieldDecl] = field(default_factory=list)
    methods: list[MethodRef] = field(default_factory=list)


@dataclass
class SourceFile:
    text: str
    digest: str
    statements: list[Statement]
    methods: list[MethodRef]
    classes: list[ClassRef]
    newline: str = "\n"  # "\r\n" for a CRLF file; `text` has "\n" either way

    def with_newline(self, text: str) -> str:
        """`text`, a text of this file with LF line ends, given the file's own."""
        return text if self.newline == "\n" else text.replace("\n", self.newline)

    # Lookup tables, built on first use and kept out of the dataclass fields
    # so equality still compares only what was indexed.

    @cached_property
    def statement_by_line(self) -> list[Statement | None]:
        """Per line, the statement `SourceIndex.statement_at` returns."""
        return _best_by_line(
            self.statements, lambda s: (s.start_line, s.end_line),
            lambda s: (s.kind != "simple", s.end_line - s.start_line, s.start_line))

    @cached_property
    def method_by_line(self) -> list[MethodRef | None]:
        """Per line, the innermost method whose body span holds it."""
        return _best_by_line(self.methods, lambda m: (m.body_start, m.body_end),
                             lambda m: (m.span_length, m.body_start))

    @cached_property
    def scopes(self) -> dict[MethodRef | None, list[Statement]]:
        """Each owner's statements in text order. A statement's owner is the
        method `method_by_line` gives at its start line, or None."""
        scopes: dict[MethodRef | None, list[Statement]] = {}
        for s in self.statements:
            scopes.setdefault(_at(self.method_by_line, s.start_line), []).append(s)
        return scopes


@dataclass
class SourceIndex:
    files: dict[str, SourceFile]

    # Lookups index `files` directly: an unknown path raises KeyError.

    def statement_at(self, path: str, line: int) -> Statement | None:
        """Statement whose span contains the line; simple statements win,
        then the shortest span, then the earliest start."""
        return _at(self.files[path].statement_by_line, line)

    def enclosing_method(self, path: str, line: int) -> MethodRef | None:
        """Innermost method whose body span contains the line, if any."""
        return _at(self.files[path].method_by_line, line)

    def method_body(self, ref: MethodRef) -> str:
        return _line_slice(self.files[ref.file].text, ref.body_start, ref.body_end)

    def methods_named(self, path: str, name: str) -> list[MethodRef]:
        return [m for m in self.files[path].methods if m.name == name]

    def classes_by_name(self, name: str) -> list[ClassRef]:
        return [c for sf in self.files.values() for c in sf.classes if c.name == name]

    def statements_in_method(self, ref: MethodRef) -> list[Statement]:
        """The statements the method owns: the owner table's own list."""
        return self.files[ref.file].scopes.get(ref, [])

    @cached_property
    def declarations(self) -> dict[str, list[tuple[ClassRef | None,
                                                   MethodRef | FieldDecl]]]:
        """Per member name, each declaration of it with the class that owns
        it (None for a method outside every class), in file order: a file's
        `methods`, then its classes' `fields`. Built on first use."""
        table: dict[str, list] = {}
        for sf in self.files.values():
            owner = {m: c for c in sf.classes for m in c.methods}
            for m in sf.methods:
                table.setdefault(m.name, []).append((owner.get(m), m))
            for c in sf.classes:
                for f in c.fields:
                    table.setdefault(f.name, []).append((c, f))
        return table


def _best_by_line(items, span, key) -> list:
    """Per line, the first item with the smallest key among those whose
    inclusive (start, end) span holds the line; None where none does."""
    table = [None] * (max((span(i)[1] for i in items), default=0) + 1)
    for item in items:
        k = key(item)
        start, end = span(item)
        for line in range(max(start, 0), end + 1):
            best = table[line]
            if best is None or k < key(best):
                table[line] = item
    return table


def _at(table: list, line: int):
    return table[line] if 0 <= line < len(table) else None


def _line_slice(text: str, start: int, end: int) -> str:
    """Verbatim text of inclusive 1-based line range, no trailing newline."""
    return "\n".join(text.split("\n")[start - 1:end])


def text_digest(text: str) -> str:
    """Digest of a file's text, as `SourceFile.digest` records it."""
    return hashlib.sha256(text.encode()).hexdigest()


_MASKED_RE = re.compile(r"""
      //[^\n]*                                      # line comment
    | /\*.*?(?:\*/|\Z)                              # block comment, to EOF if open
    | (?P<literal> "{3}[ \t\f]*[\r\n]               # text block (JEP 378): after a
                   (?:[^"\\]+|\\.|"(?!""))*         # line break, up to the next
                   (?:"{3}|\\?\Z)                   # unescaped triple quote or EOF
                 | "(?:[^"\\]+|\\.)*(?:"|\\?\Z)     # string literal, to EOF if open
                 | '(?:[^'\\]+|\\.)*(?:'|\\?\Z) )   # char literal, to EOF if open
""", re.S | re.X)
_NOT_NEWLINE_RE = re.compile(r"[^\n]")


def _mask(text: str) -> tuple[str, list[int]]:
    """What `mask_code` returns, and the offsets where string/char literals open."""
    literals: list[int] = []

    def blank(m: re.Match) -> str:
        if m.lastgroup == "literal":
            literals.append(m.start())
        s = m.group()
        return _NOT_NEWLINE_RE.sub(" ", s) if "\n" in s else " " * len(s)

    return _MASKED_RE.sub(blank, text), literals


def mask_code(text: str) -> str:
    """Replace string/char literals and comments with spaces, same length.

    Newlines inside comments are preserved so line numbers survive.
    """
    return _mask(text)[0]


def _line_starts(text: str) -> list[int]:
    return [0] + [m.end() for m in re.finditer("\n", text)]


def _line_of(offset: int, starts: list[int]) -> int:
    """1-based line number of a char offset."""
    return bisect_right(starts, offset)


_EVENT_RE = re.compile(r"[();{}]")
_SIGNIFICANT_RE = re.compile(r"[^\s{}]")


def _segment_statements(path: str, text: str, masked: str, starts: list[int],
                        literals: list[int]
                        ) -> tuple[list[Statement], dict[int, int], dict[int, int]]:
    """Statement segmentation over the '(', ')', ';', '{' and '}' of `masked`.

    A statement ends at ';' (outside parentheses) or at '{' (block header).
    Material pending when a '}' or EOF arrives is flushed as kind "other".
    A statement starts at the first character after the previous one that
    is neither blank nor a brace in `masked`, or at the opening quote of a
    string/char literal (`literals`); comments never start one.

    The same walk pairs the brackets. Besides the statements it returns
    the offset of the matching '(' for each ')' that has one, and of the
    matching '}' for each '{' that has one. A stack pairs each close with
    the latest unclosed open of its kind and skips a close that finds none;
    that is the pair a forward depth count from the open would find.
    """
    paren_open: dict[int, int] = {}
    brace_close: dict[int, int] = {}
    parens: list[int] = []  # unclosed '(' offsets
    braces: list[int] = []  # unclosed '{' offsets
    bounds: list[tuple[int, str]] = []  # (last offset, kind) of each statement
    paren = 0
    for m in _EVENT_RE.finditer(masked):
        i = m.start()
        c = m.group()
        if c == "(":
            paren += 1
            parens.append(i)
        elif c == ")":
            paren = max(0, paren - 1)
            if parens:
                paren_open[i] = parens.pop()
        elif c == ";":
            if paren == 0:
                bounds.append((i, "simple"))
        elif c == "{":
            bounds.append((i, "block-header"))
            paren = 0
            braces.append(i)
        else:
            bounds.append((i - 1, "other"))
            paren = 0
            if braces:
                brace_close[braces.pop()] = i
    bounds.append((len(masked) - 1, "other"))
    # Each statement's start is searched for once, in the stretch between
    # the previous bound and its own; a stretch with none makes no statement.
    stmts: list[Statement] = []
    after = 0
    for end, kind in bounds:
        m = _SIGNIFICANT_RE.search(masked, after, end + 1)
        start = m.start() if m else end + 1
        k = bisect_left(literals, after)
        if k < len(literals):
            start = min(start, literals[k])
        if start <= end:
            span, masked_span = text[start:end + 1], masked[start:end + 1]
            stmts.append(Statement(
                path, _line_of(start, starts), _line_of(end, starts), span, kind,
                span if masked_span == span else masked_span))
        after = end + 1
    return stmts, paren_open, brace_close


def _linewise_statements(path: str, text: str, masked: str) -> list[Statement]:
    """A statement per non-blank line, masked by its line of `masked`."""
    return [Statement(path, i, i, line, "other", line if m == line else m)
            for i, (line, m)
            in enumerate(zip(text.split("\n"), masked.split("\n")), start=1)
            if line.strip()]


def _find_classes(path: str, masked: str, starts: list[int],
                  brace_close: dict[int, int]) -> list[ClassRef]:
    """The headers `_CLASS_RE.finditer` would find, tried only where
    `str.find` sees a keyword. As with finditer, a header that starts
    inside the previous one (`class enum B`) is not tried."""
    candidates = []
    for keyword in _CLASS_KEYWORDS:
        i = masked.find(keyword)
        while i >= 0:
            candidates.append(i)
            i = masked.find(keyword, i + len(keyword))  # none overlaps itself
    classes = []
    end = 0
    for i in sorted(candidates):
        if i < end:
            continue
        m = _CLASS_RE.match(masked, i)
        if m is None:
            continue
        end = m.end()
        close = brace_close.get(masked.find("{", end))
        if close is None:
            continue
        classes.append(ClassRef(
            file=path, name=m.group(1),
            body_start=_line_of(m.start(), starts),
            body_end=_line_of(close, starts),
        ))
    return classes


def _signature_text(text: str, name_pos: int, close_paren: int) -> str:
    # Back up over modifiers / return type on the same logical line.
    start = text.rfind("\n", 0, name_pos) + 1
    raw = text[start:close_paren + 1]
    return " ".join(raw.split())


_NAME_RE = re.compile(r"[A-Za-z_][\w$]*")
# Matched in the reversed text from just before a '(': the blanks before the
# '(', the [\w$] run before them, and the blanks and '.' before the run.
_BACKWARD_NAME_RE = re.compile(r"\s*([\w$]*)\s*(\.?)")


def _name_before(masked: str, back: str, paren: int) -> tuple[str, int, bool] | None:
    """The name that `name(` (blanks allowed before the '(') gives the '('
    at `paren`, its offset, and whether a '.' comes before it (blanks
    allowed). The name is the rest of the [\\w$] run before the blanks,
    from the run's first [A-Za-z_]; None if that run has none. `back` is
    `masked[::-1]`, in which the run is read backwards."""
    n = len(masked)
    b = _BACKWARD_NAME_RE.match(back, n - paren)
    run_start = n - b.end(1)
    m = _NAME_RE.search(masked, run_start, n - b.start(1))
    if m is None:
        return None
    return m.group(), m.start(), m.start() == run_start and bool(b.group(2))


# A ')' and the '{' of a body after it, a throws clause allowed between.
# `throws(?=\s)` keeps the scan linear on a long gap, where `throws\s+`
# would backtrack between `\s+` and the class after it.
_BODY_OPEN_RE = re.compile(r"\)\s*(?:throws(?=\s)[\w$.,\s]*)?\{")


def _find_methods(path: str, text: str, masked: str, starts: list[int],
                  paren_open: dict[int, int], brace_close: dict[int, int],
                  class_by_line: list) -> list[MethodRef]:
    """The file's methods in the order of their '('; each is also added to
    its owner's `methods`. A method is a name, its parenthesized
    parameters and a body; its ')' is found first, from the body's '{'."""
    found: list[tuple[int, MethodRef]] = []
    back = masked[::-1]
    for t in _BODY_OPEN_RE.finditer(masked):
        close_paren = t.start()
        brace = t.end() - 1
        open_paren = paren_open.get(close_paren)
        close = brace_close.get(brace)
        if open_paren is None or close is None:
            continue
        named = _name_before(masked, back, open_paren)
        if named is None:
            continue
        name, start, after_dot = named
        # A call on a receiver (x.foo(...)) is not a declaration.
        if name in KEYWORDS or after_dot:
            continue
        sig_line = _line_of(start, starts)
        found.append((open_paren, MethodRef(
            file=path, name=name, signature_line=sig_line,
            body_start=min(sig_line, _line_of(brace, starts)),
            body_end=_line_of(close, starts),
            signature_text=_signature_text(text, start, close_paren))))
    found.sort()
    methods = [ref for _, ref in found]
    for ref in methods:
        cls = _at(class_by_line, ref.signature_line)
        if cls:
            cls.methods.append(ref)
    return methods


_FIELD_NAME_RE = re.compile(r"([A-Za-z_$][\w$]*)\s*(?:=(?!=)|;|\[\s*\]\s*[;=])")


def _collect_fields(sf: SourceFile, class_by_line: list) -> None:
    """Add to its owner's `fields` each simple statement that names a field
    and starts in a class but in no method body."""
    for s in sf.statements:
        cls = _at(class_by_line, s.start_line)
        if s.kind != "simple" or not cls or _at(sf.method_by_line, s.start_line):
            continue
        m = _FIELD_NAME_RE.search(s.masked)
        if m and m.group(1) not in KEYWORDS:
            cls.fields.append(FieldDecl(name=m.group(1), line=s.start_line,
                                        text=s.text.strip()))


def _index_file(root: Path, rel: str) -> SourceFile | None:
    try:
        with open(root / rel, encoding="utf-8") as fh:
            text = fh.read()
            # A file whose lines all end in CRLF keeps it when written back.
            newline = "\r\n" if fh.newlines == "\r\n" else "\n"
    except (OSError, UnicodeDecodeError) as exc:
        logger.warning("unreadable file skipped: %s: %s", rel, exc)
        return None
    digest = text_digest(text)
    masked, literals = _mask(text)
    if masked.count("{") != masked.count("}"):
        logger.warning("unbalanced braces, indexed line-wise: %s", rel)
        return SourceFile(text, digest, _linewise_statements(rel, text, masked),
                          [], [], newline)
    starts = _line_starts(text)
    statements, paren_open, brace_close = _segment_statements(
        rel, text, masked, starts, literals)
    classes = _find_classes(rel, masked, starts, brace_close)
    # Per line, the innermost class holding it: the one owner of each
    # method and field declared on that line.
    class_by_line = _best_by_line(classes, lambda c: (c.body_start, c.body_end),
                                  lambda c: c.body_end - c.body_start)
    methods = _find_methods(rel, text, masked, starts, paren_open, brace_close,
                            class_by_line)
    sf = SourceFile(text, digest, statements, methods, classes, newline)
    _collect_fields(sf, class_by_line)
    return sf


def index_source(root: str | Path, include: list[str]) -> SourceIndex:
    """Index every file under root matching one of the glob patterns."""
    root = Path(root)
    if not root.is_dir():
        raise FileNotFoundError(f"project root missing: {root}")
    seen: dict[str, None] = {}
    for pattern in include:
        for p in sorted(root.glob(pattern)):
            if p.is_file():
                seen.setdefault(p.relative_to(root).as_posix())
    files = {}
    for rel in seen:
        sf = _index_file(root, rel)
        if sf is not None:
            files[rel] = sf
    return SourceIndex(files=files)


def identifiers_in(statement: Statement) -> list[Identifier]:
    """Classify identifier tokens: call, field-access, or variable."""
    return [Identifier("call" if paren else "field-access" if dot else "variable", name)
            for dot, name, paren in _NAME_USE_RE.findall(statement.masked)
            if name not in KEYWORDS]


def variables_in(statement: Statement) -> list[str]:
    """The names `identifiers_in` calls variables, in order."""
    return [name for dot, name, paren in _NAME_USE_RE.findall(statement.masked)
            if not dot and not paren and name not in KEYWORDS]
