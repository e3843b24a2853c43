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
_SIGNATURE_NAME_RE = re.compile(r"([A-Za-z_][\w$]*)\s*\(")
_IDENT_RE = re.compile(r"[A-Za-z_$][\w$]*")


class IndexError_(Exception):
    """Raised for lookups against files the index does not know."""


class StaleRefError(Exception):
    """Raised when a MethodRef no longer matches the indexed file bytes."""


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

    @property
    def line(self) -> int:
        return self.start_line

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
    class_name: str | None
    signature_text: str
    signature_hash: str
    file_digest: str

    def contains(self, line: int) -> bool:
        return self.body_start <= line <= self.body_end

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
    path: str
    text: str
    digest: str
    statements: list[Statement]
    methods: list[MethodRef]
    classes: list[ClassRef]
    line_wise: bool = False

    @property
    def lines(self) -> list[str]:
        return self.text.splitlines()

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
    def statement_starts(self) -> list[int]:
        """Start line of each statement; statements are in text order."""
        return [s.start_line for s in self.statements]


@dataclass
class SourceIndex:
    root: str
    files: dict[str, SourceFile]
    warnings: list[str]

    def _file(self, path: str) -> SourceFile:
        if path not in self.files:
            raise IndexError_(f"file not in index: {path}")
        return self.files[path]

    def statement_at(self, path: str, line: int) -> Statement | None:
        """Statement whose span contains the line; simple statements win,
        then the shortest span, then the earliest start."""
        return _at(self._file(path).statement_by_line, line)

    def enclosing_method(self, path: str, line: int) -> MethodRef | None:
        """Innermost method whose body span contains the line, if any."""
        return _at(self._file(path).method_by_line, line)

    def method_body(self, ref: MethodRef) -> str:
        sf = self._file(ref.file)
        if sf.digest != ref.file_digest:
            raise StaleRefError(
                f"stale method ref {ref.file}:{ref.name}: file changed since indexing")
        return _line_slice(sf.text, ref.body_start, ref.body_end)

    def methods_named(self, path: str, name: str) -> list[MethodRef]:
        return [m for m in self._file(path).methods if m.name == name]

    def all_methods_named(self, name: str) -> list[MethodRef]:
        return [m for sf in self.files.values() for m in sf.methods if m.name == name]

    def classes_by_name(self, name: str) -> list[ClassRef]:
        return [c for sf in self.files.values() for c in sf.classes if c.name == name]

    def statements_in_method(self, ref: MethodRef) -> list[Statement]:
        sf = self._file(ref.file)
        lo = bisect_left(sf.statement_starts, ref.body_start)
        hi = bisect_right(sf.statement_starts, ref.body_end, lo)
        return [s for s in sf.statements[lo:hi] if s.end_line <= ref.body_end]


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
    lines = text.splitlines()
    return "\n".join(lines[start - 1:end])


def mask_code(text: str) -> str:
    """Replace string/char literals and comments with spaces, same length.

    Newlines inside comments are preserved so line numbers survive.
    """
    out = list(text)
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = i
            while j < n and text[j] != "\n":
                out[j] = " "
                j += 1
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = i + 2
            while j < n and not (text[j - 1] == "*" and text[j] == "/"):
                j += 1
            for k in range(i, min(j + 1, n)):
                if text[k] != "\n":
                    out[k] = " "
            i = j + 1
        elif c in ("\"", "'"):
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
    return "".join(out)


def _line_starts(text: str) -> list[int]:
    starts = [0]
    for i, c in enumerate(text):
        if c == "\n":
            starts.append(i + 1)
    return starts


def _line_of(offset: int, starts: list[int]) -> int:
    """1-based line number of a char offset."""
    lo, hi = 0, len(starts) - 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if starts[mid] <= offset:
            lo = mid
        else:
            hi = mid - 1
    return lo + 1


def _matching_brace(masked: str, open_pos: int) -> int | None:
    depth = 0
    for i in range(open_pos, len(masked)):
        if masked[i] == "{":
            depth += 1
        elif masked[i] == "}":
            depth -= 1
            if depth == 0:
                return i
    return None


def _segment_statements(path: str, text: str, masked: str,
                        starts: list[int]) -> list[Statement]:
    """Char-level statement segmentation.

    A statement ends at ';' (outside parentheses) or at '{' (block header).
    Material pending when a '}' or EOF arrives is flushed as kind "other".
    """
    stmts: list[Statement] = []
    seg_start: int | None = None
    paren = 0

    def flush(end: int, kind: str) -> None:
        nonlocal seg_start
        if seg_start is not None:
            stmts.append(Statement(
                file=path,
                start_line=_line_of(seg_start, starts),
                end_line=_line_of(end, starts),
                text=text[seg_start:end + 1],
                kind=kind,
            ))
        seg_start = None

    for i, c in enumerate(masked):
        # Comments never open a segment; string literals (also masked) do.
        significant = (not c.isspace() and c not in "{}") or text[i] in "\"'"
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


def _linewise_statements(path: str, text: str) -> list[Statement]:
    stmts = []
    for i, line in enumerate(text.splitlines(), start=1):
        if line.strip():
            stmts.append(Statement(path, i, i, line, "other"))
    return stmts


def _find_classes(path: str, text: str, masked: str,
                  starts: list[int]) -> list[ClassRef]:
    classes = []
    for m in _CLASS_RE.finditer(masked):
        brace = masked.find("{", m.end())
        if brace < 0:
            continue
        close = _matching_brace(masked, brace)
        if close is None:
            continue
        classes.append(ClassRef(
            file=path, name=m.group(1),
            body_start=_line_of(m.start(), starts),
            body_end=_line_of(close, starts),
        ))
    return classes


def _signature_text(masked: str, text: str, name_pos: int, close_paren: int) -> str:
    # Back up over modifiers / return type on the same logical line.
    start = text.rfind("\n", 0, name_pos) + 1
    raw = text[start:close_paren + 1]
    return " ".join(raw.split())


def _find_methods(path: str, text: str, masked: str, starts: list[int],
                  classes: list[ClassRef], digest: str) -> list[MethodRef]:
    methods: list[MethodRef] = []
    for m in _SIGNATURE_NAME_RE.finditer(masked):
        name = m.group(1)
        if name in KEYWORDS:
            continue
        # A call on a receiver (x.foo(...)) is not a declaration.
        k = m.start() - 1
        while k >= 0 and masked[k].isspace():
            k -= 1
        if k >= 0 and masked[k] == ".":
            continue
        # Skip over the parameter list to the matching ')'.
        depth = 0
        j = masked.find("(", m.end() - 1)
        close_paren = None
        for i in range(j, len(masked)):
            if masked[i] == "(":
                depth += 1
            elif masked[i] == ")":
                depth -= 1
                if depth == 0:
                    close_paren = i
                    break
        if close_paren is None:
            continue
        # Next significant char must be '{' (a throws clause may intervene).
        tail = masked[close_paren + 1:close_paren + 200]
        t = re.match(r"\s*(?:throws\s+[\w$.,\s]*)?\{", tail)
        if not t:
            continue
        brace = close_paren + 1 + t.end() - 1
        close = _matching_brace(masked, brace)
        if close is None:
            continue
        sig_line = _line_of(m.start(), starts)
        body_end = _line_of(close, starts)
        brace_line = _line_of(brace, starts)
        body_start = min(sig_line, brace_line)
        enclosing = [c for c in classes if c.body_start <= sig_line <= c.body_end]
        cls = min(enclosing, key=lambda c: c.body_end - c.body_start) if enclosing else None
        sig_text = _signature_text(masked, text, m.start(), close_paren)
        methods.append(MethodRef(
            file=path, name=name, signature_line=sig_line,
            body_start=body_start, body_end=body_end,
            class_name=cls.name if cls else None,
            signature_text=sig_text,
            signature_hash=hashlib.sha1(sig_text.encode()).hexdigest()[:12],
            file_digest=digest,
        ))
    return methods


_FIELD_NAME_RE = re.compile(r"([A-Za-z_$][\w$]*)\s*(?:=(?!=)|;|\[\s*\]\s*[;=])")


def _collect_fields(cls: ClassRef, statements: list[Statement],
                    methods: list[MethodRef]) -> list[FieldDecl]:
    fields = []
    for s in statements:
        if s.kind != "simple":
            continue
        if not (cls.body_start <= s.start_line <= cls.body_end):
            continue
        if any(m.contains(s.start_line) for m in methods):
            continue
        m = _FIELD_NAME_RE.search(mask_code(s.text))
        if m and m.group(1) not in KEYWORDS:
            fields.append(FieldDecl(name=m.group(1), line=s.start_line, text=s.text.strip()))
    return fields


def _index_file(root: Path, rel: str, warnings: list[str]) -> SourceFile | None:
    try:
        text = (root / rel).read_text(encoding="utf-8")
    except OSError as exc:
        warnings.append(f"unreadable file skipped: {rel}: {exc}")
        logger.warning("unreadable file skipped: %s: %s", rel, exc)
        return None
    digest = hashlib.sha256(text.encode()).hexdigest()
    masked = mask_code(text)
    if masked.count("{") != masked.count("}"):
        warnings.append(f"unbalanced braces, indexed line-wise: {rel}")
        logger.warning("unbalanced braces, indexed line-wise: %s", rel)
        return SourceFile(rel, text, digest, _linewise_statements(rel, text),
                          [], [], line_wise=True)
    starts = _line_starts(text)
    statements = _segment_statements(rel, text, masked, starts)
    classes = _find_classes(rel, text, masked, starts)
    methods = _find_methods(rel, text, masked, starts, classes, digest)
    for cls in classes:
        cls.methods = [m for m in methods if m.class_name == cls.name]
        cls.fields = _collect_fields(cls, statements, methods)
    return SourceFile(rel, text, digest, statements, methods, classes)


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
    warnings: list[str] = []
    files = {}
    for rel in seen:
        sf = _index_file(root, rel, warnings)
        if sf is not None:
            files[rel] = sf
    return SourceIndex(root=str(root), files=files, warnings=warnings)


def identifiers_in(statement: Statement) -> list[Identifier]:
    """Classify identifier tokens: call, field-access, or variable."""
    masked = statement.masked
    out = []
    for m in _IDENT_RE.finditer(masked):
        name = m.group(0)
        if name in KEYWORDS:
            continue
        after = masked[m.end():].lstrip()
        if after.startswith("("):
            out.append(Identifier("call", name))
            continue
        before = masked[:m.start()].rstrip()
        if before.endswith("."):
            out.append(Identifier("field-access", name))
        else:
            out.append(Identifier("variable", name))
    return out
