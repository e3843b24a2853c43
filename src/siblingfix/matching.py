"""Token-level code matching: tokenizer, TF-IDF cosine, contexts, grouping.

The tokenizer drops operators, parentheses, and semicolons, splits
identifiers on camel-case, underscore, and digit boundaries, and
lowercases everything. TF-IDF uses raw term counts and ln(N/df).
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

from .source_index import MethodRef, SourceIndex, Statement, identifiers_in

_WORD_RE = re.compile(r"[A-Za-z0-9_]+")
_PIECE_RE = re.compile(r"[A-Z]+(?=[A-Z][a-z])|[A-Z][a-z]*|[a-z]+|[0-9]+")


def tokenize(text: str) -> list[str]:
    """Lowercase tokens, camel-case and underscore split, order preserved."""
    tokens: list[str] = []
    for word in _WORD_RE.findall(text):
        for part in word.split("_"):
            tokens.extend(p.lower() for p in _PIECE_RE.findall(part))
    return tokens


def tfidf_vectors(docs: list[list[str]]) -> list[dict[str, float]]:
    """Sparse TF-IDF vectors: tf = raw count, idf = ln(N/df)."""
    n = len(docs)
    df: Counter[str] = Counter()
    for doc in docs:
        df.update(set(doc))
    idf = {t: math.log(n / c) for t, c in df.items()}
    vectors = []
    for doc in docs:
        counts = Counter(doc)
        vectors.append({t: c * idf[t] for t, c in counts.items()})
    return vectors


def tfidf_similarities(query: list[str], docs: list[list[str]]) -> list[float]:
    """TF-IDF cosine of each doc against the query, over the corpus of the
    query plus the docs."""
    vectors = tfidf_vectors([query] + docs)
    q, qn = vectors[0], _norm(vectors[0])
    return [_cosine(q, qn, v, _norm(v)) for v in vectors[1:]]


def _norm(v: dict[str, float]) -> float:
    return math.sqrt(sum(x * x for x in v.values()))


def _cosine(a: dict[str, float], na: float, b: dict[str, float],
            nb: float) -> float:
    """Cosine from precomputed norms. The dot product walks the smaller
    vector, and `a` when both have the same length, so swapping equal-length
    arguments may change the last bits. `TokenPool.score` passes the target
    first, as `tfidf_similarities` does, to get the same floats."""
    if len(b) < len(a):
        a, b = b, a
    dot = sum(v * b.get(t, 0.0) for t, v in a.items())
    if na == 0.0 or nb == 0.0:
        return 0.0
    return dot / (na * nb)


@dataclass(frozen=True)
class StatementContext:
    target: Statement
    context: tuple[Statement, ...]  # ordered, includes target

    @property
    def rendered(self) -> str:
        return "\n".join(s.text for s in self.context)

    @property
    def key(self) -> tuple[str, int]:
        return (self.target.file, self.target.start_line)


@dataclass
class CandidateSibling:
    context: StatementContext
    token_similarity: float | None = None
    embedding_similarity: float | None = None
    jaccard_similarity: float | None = None

    @property
    def key(self) -> tuple[str, int]:
        return self.context.key


@dataclass
class MethodGroup:
    method: MethodRef | None
    file: str
    sibling_lines: set[int] = field(default_factory=set)
    jaccard: float | None = None  # best Jaccard of its candidates, if scored


_ASSIGN_OPS = r"(?:=(?!=)|\+=|-=|\*=|/=|%=|\|=|&=|\^=|<<=|>>=|\+\+|--)"


@lru_cache(maxsize=4096)
def _assign_patterns(name: str) -> tuple[re.Pattern, re.Pattern]:
    n = re.escape(name)
    return (re.compile(rf"(?<![\w.$]){n}\s*(?:\[[^\]]*\])?\s*{_ASSIGN_OPS}"),
            # Declaration without initializer: a type-ish token then the name.
            re.compile(rf"[\w>\]]\s+{n}\s*(?:[;,=)]|:)"))


def _assigns(stmt: Statement, name: str) -> bool:
    """Heuristic: does the statement assign or declare `name`?"""
    assign, declare = _assign_patterns(name)
    return bool(assign.search(stmt.masked) or declare.search(stmt.masked))


def extract_context(index: SourceIndex, target: Statement) -> StatementContext:
    """Reaching-definition context of the target statement.

    For each variable used in the target, the nearest preceding statement in
    the enclosing method (or file) that assigns or declares it is included;
    if the target uses variables but none can be resolved, the statement
    immediately before the target is used instead. A target using no
    variables gets no extra context. The target itself is always included.
    """
    method = index.enclosing_method(target.file, target.start_line)
    if method is not None:
        scope = index.statements_in_method(method)
    else:
        scope = list(index.files[target.file].statements)
    try:
        pos = scope.index(target)
    except ValueError:
        pos = len(scope)
    preceding = scope[:pos]
    variables = [i.name for i in identifiers_in(target) if i.kind == "variable"]
    chosen: list[Statement] = []
    for name in dict.fromkeys(variables):
        for stmt in reversed(preceding):
            if _assigns(stmt, name):
                if stmt not in chosen:
                    chosen.append(stmt)
                break
    if variables and not chosen and preceding:
        chosen.append(preceding[-1])
    ordered = [s for s in scope if s in chosen or s is target]
    return StatementContext(target=target, context=tuple(ordered))


class TokenPool:
    """A run's sibling pool, tokenized once.

    When the target's statement is a pool member, whose context
    `extract_context` made from the same index, the corpus of `token_match`
    (pool minus target, plus target) is exactly the pool, so IDF, vectors
    and norms are the same for every such target and are computed once, on
    first use. Other targets are scored per call.
    """

    def __init__(self, contexts: list[StatementContext]):
        self.contexts = list(contexts)

    def __len__(self) -> int:
        return len(self.contexts)

    @cached_property
    def _tfidf(self):
        # One string object per distinct token keeps the vectors compact.
        vocab: dict[str, str] = {}
        vectors = tfidf_vectors([[vocab.setdefault(t, t) for t in tokenize(c.rendered)]
                                 for c in self.contexts])
        positions = {c.target: i for i, c in enumerate(self.contexts)}
        if len(positions) < len(self.contexts):
            positions = {}  # repeated statements: the corpus is not the pool
        return vectors, [_norm(v) for v in vectors], positions

    def score(self, target: StatementContext
              ) -> list[tuple[float, StatementContext]]:
        vectors, norms, positions = self._tfidf
        pos = positions.get(target.target)
        if pos is None:
            return _score(target, self.contexts)
        tv, tn = vectors[pos], norms[pos]
        return [(_cosine(tv, tn, v, n), c)
                for i, (c, v, n) in enumerate(zip(self.contexts, vectors, norms))
                if i != pos]


def _score(target: StatementContext, pool: list[StatementContext]
           ) -> list[tuple[float, StatementContext]]:
    """Cosine against the target of every pool context but the target's
    own, over the corpus of the target plus those contexts."""
    candidates = [ctx for ctx in pool if ctx.target != target.target]
    return list(zip(tfidf_similarities(tokenize(target.rendered),
                                       [tokenize(c.rendered) for c in candidates]),
                    candidates))


def token_match(target: StatementContext,
                pool: list[StatementContext] | TokenPool,
                limit: int = 100) -> list[CandidateSibling]:
    """Top-`limit` pool contexts by TF-IDF cosine against the target.

    The corpus is pool plus target; the target's own context is excluded
    from the results. Ties break by (file, line). A `TokenPool` gives the
    same results as a list of its contexts.
    """
    if not pool:
        return []
    scored = pool.score(target) if isinstance(pool, TokenPool) else _score(target, pool)
    scored.sort(key=lambda item: (-item[0], item[1].key))
    return [CandidateSibling(context=ctx, token_similarity=sim)
            for sim, ctx in scored[:limit]]


def jaccard(a: set[str], b: set[str]) -> float:
    if not a and not b:
        return 1.0
    union = a | b
    return len(a & b) / len(union)


def jaccard_filter(candidates: list[CandidateSibling], target: StatementContext,
                   alpha: float) -> list[CandidateSibling]:
    """Keep candidates whose token-set Jaccard against the target is >= alpha."""
    target_tokens = set(tokenize(target.rendered))
    kept = []
    for cand in candidates:
        sim = jaccard(set(tokenize(cand.context.rendered)), target_tokens)
        cand.jaccard_similarity = sim
        if sim >= alpha:
            kept.append(cand)
    return kept


def group_by_method(candidates: list[CandidateSibling],
                    index: SourceIndex) -> list[MethodGroup]:
    """One group per enclosing method; methodless candidates group per file.

    Each group keeps the best Jaccard similarity among its candidates."""
    groups: dict[tuple, MethodGroup] = {}
    for cand in candidates:
        stmt = cand.context.target
        method = index.enclosing_method(stmt.file, stmt.start_line)
        if method is not None:
            key = (stmt.file, method.signature_line, method.name)
            group = groups.setdefault(key, MethodGroup(method=method, file=stmt.file))
        else:
            key = (stmt.file, -1, "")
            group = groups.setdefault(key, MethodGroup(method=None, file=stmt.file))
        group.sibling_lines.add(stmt.start_line)
        if cand.jaccard_similarity is not None:
            group.jaccard = max(group.jaccard or 0.0, cand.jaccard_similarity)
    return [groups[k] for k in sorted(groups)]
