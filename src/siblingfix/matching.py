"""Token-level code matching: tokenizer, TF-IDF cosine, contexts, grouping.

The tokenizer drops operators, parentheses, and semicolons, splits
identifiers on camel-case, underscore, and digit boundaries, and
lowercases everything. TF-IDF uses raw term counts and ln(N/df).
"""

from __future__ import annotations

import heapq
import math
import re
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import islice, repeat
from operator import mul

from .source_index import MethodRef, SourceIndex, Statement, identifiers_in

_WORD_RE = re.compile(r"[A-Za-z0-9_]+")
_PIECE_RE = re.compile(r"[A-Z]+(?=[A-Z][a-z])|[A-Z][a-z]*|[a-z]+|[0-9]+")


def tokenize(text: str) -> list[str]:
    """Lowercase tokens, camel-case and underscore split, order preserved."""
    tokens: list[str] = []
    for word in _WORD_RE.findall(text):
        tokens.extend(_split_word(word))
    return tokens


@lru_cache(maxsize=1 << 16)
def _split_word(word: str) -> tuple[str, ...]:
    """The tokens of one word. A run's words are its project's words, so
    most repeat and each distinct one is split once."""
    return tuple(p.lower() for part in word.split("_")
                 for p in _PIECE_RE.findall(part))


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
    values = v.values()
    return math.sqrt(sum(map(mul, values, values)))


def _cosine(a: dict[str, float], na: float, b: dict[str, float],
            nb: float) -> float:
    """Cosine from precomputed norms. The dot product walks the smaller
    vector, and `a` when both have the same length, so swapping equal-length
    arguments may change the last bits. `TokenPool.ranked` sums the same
    products in the same order, with the target as `a`, as
    `tfidf_similarities` passes it, to get the same floats."""
    if len(b) < len(a):
        a, b = b, a
    dot = sum(map(mul, a.values(), map(b.get, a, repeat(0.0))))
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
    siblings: list[Statement] = field(default_factory=list)
    jaccard: float | None = None  # best Jaccard of its candidates, if scored


_ASSIGN_OPS = r"(?:=(?!=)|\+=|-=|\*=|/=|%=|\|=|&=|\^=|<<=|>>=|\+\+|--)"
# The names a statement assigns (`x = ...`, `a[i] += ...`, `n++`) or
# declares without an initializer (`int x;`, `String s)`, `T v:`). A word
# character never starts either suffix, so each match is a whole word.
_ASSIGNED_RE = re.compile(
    rf"(?<![\w.$])([A-Za-z_$][\w$]*)(?=\s*(?:\[[^\]]*\])?\s*{_ASSIGN_OPS})")
_DECLARED_RE = re.compile(r"[\w>\]]\s+([A-Za-z_$][\w$]*)(?=\s*(?:[;,=)]|:))")


def defined_names(stmt: Statement) -> set[str]:
    """Heuristic: the names the statement assigns or declares."""
    return {*_ASSIGNED_RE.findall(stmt.masked), *_DECLARED_RE.findall(stmt.masked)}


def scope_contexts(scope: list[Statement]) -> list[StatementContext]:
    """Reaching-definition context of each statement of a scope, in order.

    One forward pass keeps, for each name, the position of the last
    statement so far that assigns or declares it. A statement's context is
    the definitions reaching the variables it uses, in scope order, then
    the statement itself; if it uses variables but none resolves, the
    statement just before it stands in. Statements are told apart by
    position, so equal statements on one line are distinct.
    """
    last: dict[str, int] = {}
    contexts = []
    for pos, stmt in enumerate(scope):
        variables = [i.name for i in identifiers_in(stmt) if i.kind == "variable"]
        chosen = sorted({last[n] for n in variables if n in last})
        if variables and not chosen and pos:
            chosen = [pos - 1]
        contexts.append(StatementContext(
            target=stmt, context=tuple(scope[i] for i in chosen) + (stmt,)))
        last.update(dict.fromkeys(defined_names(stmt), pos))
    return contexts


def statement_contexts(index: SourceIndex, statements: list[Statement]
                       ) -> list[StatementContext]:
    """Context of each statement, in order, with one `scope_contexts` pass
    per scope. A statement's scope is its enclosing method's statements, or
    its file's when no method encloses it. A statement its scope does not
    hold (one that runs past the end of its method) is placed after it."""
    by_scope: dict[tuple, list[int]] = {}
    for i, s in enumerate(statements):
        method = index.enclosing_method(s.file, s.start_line)
        by_scope.setdefault((s.file, method), []).append(i)
    out: list[StatementContext | None] = [None] * len(statements)
    for (file, method), members in by_scope.items():
        scope = (index.statements_in_method(method) if method is not None
                 else index.files[file].statements)
        position = {id(s): p for p, s in enumerate(scope)}
        contexts = scope_contexts(scope)
        for i in members:
            stmt = statements[i]
            pos = position.get(id(stmt))
            out[i] = (contexts[pos] if pos is not None
                      else scope_contexts(scope + [stmt])[-1])
    return out


def extract_context(index: SourceIndex, target: Statement) -> StatementContext:
    """Reaching-definition context of the target statement (see
    `scope_contexts`)."""
    return statement_contexts(index, [target])[0]


class TokenPool:
    """A run's sibling pool, tokenized and indexed once.

    When the target's statement is a pool member, whose context
    `extract_context` made from the same index, the corpus of `token_match`
    (pool minus target, plus target) is exactly the pool, so IDF, vectors
    and norms are the same for every such target and are computed once, on
    first use, with an inverted index: each token of non-zero weight maps
    to the positions of the contexts that hold it and its weight in each.
    Other targets are scored per call.
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
        postings: dict[str, tuple[list[int], list[float]]] = {}
        for i, v in enumerate(vectors):
            for t, w in v.items():
                if w:  # a token in every context weighs 0.0 in each
                    if t not in postings:
                        postings[t] = ([], [])
                    docs, weights = postings[t]
                    docs.append(i)
                    weights.append(w)
        keys = [c.key for c in self.contexts]
        by_key = sorted(range(len(keys)), key=keys.__getitem__)
        norms = [_norm(v) for v in vectors]
        return vectors, norms, positions, postings, keys, by_key

    def ranked(self, target: StatementContext, limit: int
               ) -> list[tuple[float, StatementContext]]:
        """`token_match`'s top `limit` (similarity, context) pairs.

        For a member target, the postings of its tokens list the contexts
        that share a weighted token with it. For each, the products of the
        shared weights, gathered in the target's token order, are the
        non-zero terms `_cosine` sums when it walks the target, so `sum`
        gives the same dot product. They are summed by `sum`, not as a
        running total, because CPython 3.12's `sum` compensates rounding.
        A context shorter than the target, which `_cosine` walks instead,
        goes through `_cosine`. Every other context scores exactly 0.0.
        """
        vectors, norms, positions, postings, keys, by_key = self._tfidf
        pos = positions.get(target.target)
        if pos is None:
            return _top(_score(target, self.contexts), limit)
        tv, tn = vectors[pos], norms[pos]
        products: defaultdict[int, list[float]] = defaultdict(list)
        for t, w in tv.items():
            if t in postings:
                docs, weights = postings[t]
                for d, x in zip(docs, weights):
                    products[d].append(w * x)
        hits = []
        for d, ps in products.items():
            if d != pos:
                v = vectors[d]
                sim = (_cosine(tv, tn, v, norms[d]) if len(v) < len(tv)
                       else sum(ps) / (tn * norms[d]))
                hits.append((-sim, keys[d], d))
        # A hit's sum of positive products is above 0.0, so the zero-score
        # contexts follow every hit, in (file, line) order, as in `_top`.
        best = [(-neg, d) for neg, _, d in heapq.nsmallest(limit, hits)]
        zeros = (d for d in by_key if d not in products and d != pos)
        best.extend(zip(repeat(0.0), islice(zeros, limit - len(best))))
        return [(sim, self.contexts[d]) for sim, d in best]


def _score(target: StatementContext, pool: list[StatementContext]
           ) -> list[tuple[float, StatementContext]]:
    """Cosine against the target of every pool context but the target's
    own, over the corpus of the target plus those contexts."""
    candidates = [ctx for ctx in pool if ctx.target != target.target]
    return list(zip(tfidf_similarities(tokenize(target.rendered),
                                       [tokenize(c.rendered) for c in candidates]),
                    candidates))


def _top(scored: list[tuple[float, StatementContext]], limit: int
         ) -> list[tuple[float, StatementContext]]:
    """The `limit` best pairs, by similarity, then (file, line), then
    input order."""
    scored.sort(key=lambda item: (-item[0], item[1].key))
    return scored[:limit]


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
    ranked = (pool.ranked(target, limit) if isinstance(pool, TokenPool)
              else _top(_score(target, pool), limit))
    return [CandidateSibling(context=ctx, token_similarity=sim)
            for sim, ctx in ranked]


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
        group.siblings.append(stmt)
        if cand.jaccard_similarity is not None:
            group.jaccard = max(group.jaccard or 0.0, cand.jaccard_similarity)
    return [groups[k] for k in sorted(groups)]
