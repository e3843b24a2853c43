"""Harvest fields and method declarations related to sibling lines.

For each sibling line, the referenced calls and field accesses are
ingredients themselves; their declaring classes are resolved by name
(receiver type token first, member-name search as fallback) and every
field/method declaration of those classes is ranked by TF-IDF cosine
against the sibling line, keeping the top n per line.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass, replace

from .matching import MethodGroup, tfidf_similarities, tokenize
from .source_index import ClassRef, SourceIndex, Statement, identifiers_in

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class FixIngredient:
    kind: str  # method-declaration | field-declaration
    signature_text: str
    declaring_class: str
    source_file: str
    rank_score: float
    line: int  # declaration line, tie-break and dedupe key


def _receiver_of(stmt: Statement, member: str) -> str | None:
    m = re.search(rf"([A-Za-z_$][\w$]*)\s*\.\s*{re.escape(member)}\b",
                  stmt.masked)
    return m.group(1) if m else None


def _declared_type(index: SourceIndex, file: str, var: str) -> str | None:
    """Type token of `var`'s declaration, searched across the file."""
    pattern = re.compile(rf"([A-Za-z_$][\w$]*)\s*(?:<[^>]*>)?\s*(?:\[\s*\])?\s+"
                         rf"{re.escape(var)}\s*[;=,)]")
    for stmt in index.files[file].statements:
        if var not in stmt.masked:  # the pattern needs `var` verbatim
            continue
        m = pattern.search(stmt.masked)
        if m and m.group(1) not in ("return", "new"):
            return m.group(1)
    return None


def _classes_declaring(index: SourceIndex, member: str) -> list[ClassRef]:
    out = []
    for sf in index.files.values():
        for cls in sf.classes:
            if any(m.name == member for m in cls.methods) or \
                    any(f.name == member for f in cls.fields):
                out.append(cls)
    return out


def _class_declarations(cls: ClassRef) -> list[FixIngredient]:
    decls = []
    for m in cls.methods:
        decls.append(FixIngredient("method-declaration", m.signature_text,
                                   cls.name, cls.file, 0.0, m.signature_line))
    for f in cls.fields:
        decls.append(FixIngredient("field-declaration", f.text,
                                   cls.name, cls.file, 0.0, f.line))
    return decls


def extract_fix_ingredients(groups: list[MethodGroup], index: SourceIndex,
                            n: int) -> list[FixIngredient]:
    """Ingredients for every sibling line across the groups, deduplicated."""
    result: dict[tuple, FixIngredient] = {}

    def add(ing: FixIngredient) -> None:
        key = (ing.kind, ing.source_file, ing.line, ing.signature_text)
        result.setdefault(key, ing)

    for group in groups:
        for stmt in sorted(group.siblings, key=lambda s: s.start_line):
            idents = identifiers_in(stmt)
            refs = [i for i in idents if i.kind in ("call", "field-access")]
            classes: dict[tuple[str, int, str], ClassRef] = {}
            for ref in refs:
                # Directly referenced elements are themselves ingredients.
                if ref.kind == "call":
                    for m in index.all_methods_named(ref.name):
                        add(FixIngredient(
                            "method-declaration", m.signature_text,
                            m.class_name or "", m.file, 1.0, m.signature_line))
                else:
                    for sf in index.files.values():
                        for cls in sf.classes:
                            for f in cls.fields:
                                if f.name == ref.name:
                                    add(FixIngredient(
                                        "field-declaration", f.text, cls.name,
                                        cls.file, 1.0, f.line))
                # Resolve declaring classes: receiver type first, then name.
                receiver = _receiver_of(stmt, ref.name)
                resolved: list[ClassRef] = []
                if receiver:
                    type_token = _declared_type(index, stmt.file, receiver)
                    if type_token:
                        resolved = index.classes_by_name(type_token)
                if not resolved:
                    resolved = _classes_declaring(index, ref.name)
                if not resolved:
                    logger.debug("unresolvable reference %s at %s:%d",
                                 ref.name, stmt.file, stmt.start_line)
                for cls in resolved:
                    classes[cls.file, cls.body_start, cls.name] = cls
            if n == 0 or not classes:
                continue
            decls = []
            for key in sorted(classes):
                decls.extend(_class_declarations(classes[key]))
            sims = tfidf_similarities(tokenize(stmt.text),
                                      [tokenize(d.signature_text) for d in decls])
            ranked = sorted(zip(sims, decls),
                            key=lambda p: (-p[0], p[1].source_file, p[1].line))
            for score, decl in ranked[:n]:
                add(replace(decl, rank_score=score))
    return list(result.values())
