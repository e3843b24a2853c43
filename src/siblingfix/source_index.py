"""Lightweight structural indexer for brace languages.

Segments Java/C-like source files into statements, methods, and classes
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
    implements import instanceof int interface long native new package
    private protected public return short static strictfp struct super
    switch synchronized this throw throws transient try typedef union
    unsigned signed sizeof var void volatile while true false null
    """.split()
)

_CLASS_RE = re.compile(r"\b(?:class|interface|enum|struct)\s+([A-Za-z_]\w*)")
# A name before '(': the rest of a [\w$] run from its first [A-Za-z_], tried
# only where a run starts, so a word is not rescanned from each position.
_SIGNATURE_NAME_RE = re.compile(
    r"(?<![\w$])(?:[^\W_A-Za-z]|\$)*([A-Za-z_][\w$]*)\s*\(")
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

    @cached_property
    def masked(self) -> str:
        """`mask_code(self.text)`, computed once per statement."""
        masked = mask_code(self.text)
        return self.text if masked == self.text else masked  # share if equal


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
    """`mask_code(text)`, and the offsets where string/char literals open."""
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


_BRACKET_RE = re.compile(r"[(){}]")


def _bracket_pairs(masked: str) -> dict[int, int]:
    """Offset of the matching ')' or '}' for each '(' or '{' that has one.

    A stack pairs each close with the latest unclosed open of its kind and
    skips a close that finds none; that is the pair a forward depth count
    from the open would find.
    """
    pairs: dict[int, int] = {}
    parens: list[int] = []
    braces: list[int] = []
    for m in _BRACKET_RE.finditer(masked):
        i = m.start()
        c = m.group()
        if c == "(":
            parens.append(i)
        elif c == "{":
            braces.append(i)
        elif c == ")":
            if parens:
                pairs[parens.pop()] = i
        elif braces:
            pairs[braces.pop()] = i
    return pairs


_EVENT_RE = re.compile(r"[();{}]")
_SIGNIFICANT_RE = re.compile(r"[^\s{}]")


def _segment_statements(path: str, text: str, masked: str, starts: list[int],
                        literals: list[int]) -> list[Statement]:
    """Statement segmentation over the '(', ')', ';', '{' and '}' of `masked`.

    A statement ends at ';' (outside parentheses) or at '{' (block header).
    Material pending when a '}' or EOF arrives is flushed as kind "other".
    A statement starts at the first character after the previous one that
    is neither blank nor a brace in `masked`, or at the opening quote of a
    string/char literal (`literals`); comments never start one.
    """
    n = len(masked)
    stmts: list[Statement] = []
    seg_start: int | None = None
    paren = 0
    after = 0  # the next statement starts at or after this offset
    first = -1  # first start candidate at or after `after`, n if none

    def flush(end: int, kind: str) -> None:
        nonlocal seg_start, after
        if seg_start is not None:
            stmts.append(Statement(
                file=path,
                start_line=_line_of(seg_start, starts),
                end_line=_line_of(end, starts),
                text=text[seg_start:end + 1],
                kind=kind,
            ))
        seg_start = None
        after = end + 1

    def open_segment(limit: int) -> None:
        # Search only when `after` has passed the cached candidate, so each
        # stretch of text is searched once.
        nonlocal seg_start, first
        if first < after:
            m = _SIGNIFICANT_RE.search(masked, after)
            first = m.start() if m else n
            k = bisect_left(literals, after)
            if k < len(literals):
                first = min(first, literals[k])
        if first <= limit:
            seg_start = first

    for m in _EVENT_RE.finditer(masked):
        i = m.start()
        c = m.group()
        if seg_start is None:
            open_segment(i)
        if c == "(":
            paren += 1
        elif c == ")":
            paren = max(0, paren - 1)
        elif c == ";":
            if paren == 0:
                flush(i, "simple")
        elif c == "{":
            flush(i, "block-header")
            paren = 0
        else:
            if seg_start is not None:
                flush(i - 1, "other")
            paren = 0
    if seg_start is None:
        open_segment(n - 1)
    if seg_start is not None:
        flush(n - 1, "other")
    return stmts


def _linewise_statements(path: str, text: str) -> list[Statement]:
    stmts = []
    for i, line in enumerate(text.split("\n"), start=1):
        if line.strip():
            stmts.append(Statement(path, i, i, line, "other"))
    return stmts


def _find_classes(path: str, masked: str, starts: list[int],
                  pairs: dict[int, int]) -> list[ClassRef]:
    classes = []
    for m in _CLASS_RE.finditer(masked):
        close = pairs.get(masked.find("{", m.end()))
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


def _after_dot(masked: str, pos: int) -> bool:
    """Whether the last non-blank character before `pos` is a '.'."""
    k = pos - 1
    while k >= 0 and masked[k].isspace():
        k -= 1
    return k >= 0 and masked[k] == "."


_BODY_OPEN_RE = re.compile(r"\s*(?:throws\s+[\w$.,\s]*)?\{")


def _find_methods(path: str, text: str, masked: str, starts: list[int],
                  pairs: dict[int, int], class_by_line: list) -> list[MethodRef]:
    """The file's methods; each is also added to its owner's `methods`."""
    methods: list[MethodRef] = []
    for m in _SIGNATURE_NAME_RE.finditer(masked):
        name = m.group(1)
        if name in KEYWORDS:
            continue
        start = m.start(1)
        # A call on a receiver (x.foo(...)) is not a declaration.
        if _after_dot(masked, start):
            continue
        close_paren = pairs.get(m.end() - 1)
        if close_paren is None:
            continue
        # Next significant char must be '{' (a throws clause may intervene).
        t = _BODY_OPEN_RE.match(masked, close_paren + 1, close_paren + 200)
        if not t:
            continue
        brace = t.end() - 1
        close = pairs.get(brace)
        if close is None:
            continue
        sig_line = _line_of(start, starts)
        body_end = _line_of(close, starts)
        brace_line = _line_of(brace, starts)
        body_start = min(sig_line, brace_line)
        ref = MethodRef(
            file=path, name=name, signature_line=sig_line,
            body_start=body_start, body_end=body_end,
            signature_text=_signature_text(text, start, close_paren))
        methods.append(ref)
        cls = _at(class_by_line, sig_line)
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
    except OSError as exc:
        logger.warning("unreadable file skipped: %s: %s", rel, exc)
        return None
    digest = text_digest(text)
    masked, literals = _mask(text)
    if masked.count("{") != masked.count("}"):
        logger.warning("unbalanced braces, indexed line-wise: %s", rel)
        return SourceFile(text, digest, _linewise_statements(rel, text), [], [],
                          newline)
    starts = _line_starts(text)
    pairs = _bracket_pairs(masked)
    classes = _find_classes(rel, masked, starts, pairs)
    # Per line, the innermost class holding it: the one owner of each
    # method and field declared on that line.
    class_by_line = _best_by_line(classes, lambda c: (c.body_start, c.body_end),
                                  lambda c: c.body_end - c.body_start)
    sf = SourceFile(text, digest,
                    _segment_statements(rel, text, masked, starts, literals),
                    _find_methods(rel, text, masked, starts, pairs, class_by_line),
                    classes, newline)
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
