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
from itertools import chain

from .matching import MethodGroup, tfidf_similarities, tokenize
from .source_index import (ClassRef, FieldDecl, MethodRef, SourceIndex,
                           Statement, identifiers_in)

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


def _declared_type(index: SourceIndex, stmt: Statement, var: str) -> str | None:
    """Type token of `var`'s declaration, searched in the statement's own
    scope, then among its file's statements outside every method, then
    across the file; the first match wins."""
    pattern = re.compile(rf"([A-Za-z_$][\w$]*)\s*(?:<[^>]*>)?\s*(?:\[\s*\])?\s+"
                         rf"{re.escape(var)}\s*[;=,)]")
    sf = index.files[stmt.file]
    owner = index.enclosing_method(stmt.file, stmt.start_line)
    owners = (owner, None) if owner is not None else (None,)
    for other in chain(*(sf.scopes.get(o, ()) for o in owners), sf.statements):
        if var not in other.masked:  # the pattern needs `var` verbatim
            continue
        m = pattern.search(other.masked)
        if m and m.group(1) not in ("return", "new"):
            return m.group(1)
    return None


def _ingredient(cls: ClassRef | None, decl: MethodRef | FieldDecl,
                score: float) -> FixIngredient:
    if isinstance(decl, MethodRef):
        return FixIngredient("method-declaration", decl.signature_text,
                             cls.name if cls else "", decl.file, score,
                             decl.signature_line)
    return FixIngredient("field-declaration", decl.text, cls.name, cls.file,
                         score, decl.line)


def extract_fix_ingredients(groups: list[MethodGroup], index: SourceIndex,
                            n: int, memo: dict | None = None
                            ) -> list[FixIngredient]:
    """Ingredients for every sibling line across the groups, deduplicated.

    `memo`, if given, keeps each line's ingredients, in the order they are
    found, for later calls with the same index and `n`."""
    memo = {} if memo is None else memo
    result: dict[tuple, FixIngredient] = {}
    for group in groups:
        for stmt in sorted(group.siblings, key=lambda s: s.start_line):
            if stmt not in memo:
                memo[stmt] = _line_ingredients(stmt, index, n)
            for ing in memo[stmt]:
                key = (ing.kind, ing.source_file, ing.line, ing.signature_text)
                result.setdefault(key, ing)
    return list(result.values())


def _line_ingredients(stmt: Statement, index: SourceIndex, n: int
                      ) -> list[FixIngredient]:
    """One sibling line's ingredients, in the order they are found."""
    found: list[FixIngredient] = []
    idents = identifiers_in(stmt)
    refs = [i for i in idents if i.kind in ("call", "field-access")]
    classes: dict[tuple[str, int, str], ClassRef] = {}
    for ref in refs:
        # Directly referenced elements are themselves ingredients.
        entries = index.declarations.get(ref.name, [])
        kind = MethodRef if ref.kind == "call" else FieldDecl
        found += [_ingredient(cls, decl, 1.0) for cls, decl in entries
                  if isinstance(decl, kind)]
        # Resolve declaring classes: receiver type first, then name.
        receiver = _receiver_of(stmt, ref.name)
        resolved: list[ClassRef] = []
        if receiver:
            type_token = _declared_type(index, stmt, receiver)
            if type_token:
                resolved = index.classes_by_name(type_token)
        if not resolved:
            resolved = [cls for cls, _ in entries if cls is not None]
        if not resolved:
            logger.debug("unresolvable reference %s at %s:%d",
                         ref.name, stmt.file, stmt.start_line)
        for cls in resolved:
            classes[cls.file, cls.body_start, cls.name] = cls
    if n == 0 or not classes:
        return found
    decls = [_ingredient(cls, d, 0.0)
             for cls in map(classes.get, sorted(classes))
             for d in chain(cls.methods, cls.fields)]
    sims = tfidf_similarities(tokenize(stmt.text),
                              [tokenize(d.signature_text) for d in decls])
    ranked = sorted(zip(sims, decls),
                    key=lambda p: (-p[0], p[1].source_file, p[1].line))
    found += [replace(decl, rank_score=score) for score, decl in ranked[:n]]
    return found
