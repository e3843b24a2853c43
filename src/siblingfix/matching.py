"""Token-level code matching: tokenizer, TF-IDF cosine, contexts, grouping.

The tokenizer drops operators, parentheses, and semicolons, splits
identifiers on camel-case, underscore, and digit boundaries, and
lowercases everything. TF-IDF uses raw term counts and ln(N/df).
"""

from __future__ import annotations

import heapq
import math
import re
from collections import Counter, _count_elements
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import chain, islice, repeat
from operator import mul

from .source_index import MethodRef, SourceIndex, Statement, variables_in

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


def tfidf_vectors(counts: list[dict[str, int]]) -> list[dict[str, float]]:
    """Sparse TF-IDF vectors from each doc's term counts: tf = raw count,
    idf = ln(N/df). A vector's terms are in its counts' order."""
    n = len(counts)
    idf = {t: math.log(n / c)
           for t, c in Counter(chain.from_iterable(counts)).items()}
    return [{t: c * idf[t] for t, c in doc.items()} for doc in counts]


def tfidf_similarities(query: list[str], docs: list[list[str]]) -> list[float]:
    """TF-IDF cosine of each doc against the query, over the corpus of the
    query plus the docs."""
    vectors = tfidf_vectors([Counter(query), *map(Counter, docs)])
    q, qn = vectors[0], _norm(vectors[0])
    return [_cosine(q, qn, v, _norm(v)) for v in vectors[1:]]


def float_sum(values) -> float:
    """Floats added left to right. From CPython 3.12 `sum` compensates
    rounding, which moved a fixture cosine of exactly 0.75 from just above
    the default theta to just below it; one loop keeps similarities, and so
    runs, the same floats on every version.

    Zero terms are skipped, which gives the same bits as adding them: the
    total starts at +0.0 and is never -0.0, since an exact cancellation of
    non-zero terms rounds to +0.0, and adding +0.0 or -0.0 to any float
    but -0.0 leaves it unchanged. NaN is truthy, so it is kept. Most
    products in a dot product of sparse vectors are zero."""
    total = 0.0
    for v in filter(None, values):
        total += v
    return total


def _norm(v: dict[str, float]) -> float:
    """Correctly rounded by `math.fsum`, so a vector's terms may come in any
    order: token-identical contexts get the same norm."""
    values = v.values()
    return math.sqrt(math.fsum(map(mul, values, values)))


def _cosine(a: dict[str, float], na: float, b: dict[str, float],
            nb: float) -> float:
    """Cosine from precomputed norms. The dot product adds the products in
    the query `a`'s term order, whatever `b`'s order, so contexts with the
    same terms get the same float; `tfidf_similarities` and
    `TokenPool.ranked` both pass the query as `a`."""
    dot = float_sum(map(mul, a.values(), map(b.get, a, repeat(0.0))))
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
# character never starts either suffix, so each match is a whole word, and
# the assigned name is taken atomically (a lookahead and a backreference;
# possessive quantifiers need 3.11), with no retry of its shorter prefixes.
_ASSIGNED_RE = re.compile(
    rf"(?<![\w.$])(?=([A-Za-z_$][\w$]*))\1(?=\s*(?:\[[^\]]*\])?\s*{_ASSIGN_OPS})")
_DECLARED_RE = re.compile(r"[\w>\]]\s+([A-Za-z_$][\w$]*)(?=\s*(?:[;,=)]|:))")


def defined_names(stmt: Statement) -> set[str]:
    """Heuristic: the names the statement assigns or declares."""
    masked = stmt.masked
    # Every assignment operator holds "=", "++" or "--".
    assigned = (_ASSIGNED_RE.findall(masked)
                if "=" in masked or "++" in masked or "--" in masked else ())
    return {*assigned, *_DECLARED_RE.findall(masked)}


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
        variables = variables_in(stmt)
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
    per scope. A statement's scope is the statements of its owner: the
    innermost method at its start line, or else its file (see
    `SourceFile.scopes`)."""
    contexts: dict[int, StatementContext] = {}
    for s in statements:
        if id(s) not in contexts:
            scope = index.files[s.file].scopes[
                index.enclosing_method(s.file, s.start_line)]
            contexts.update((id(c.target), c) for c in scope_contexts(scope))
    return [contexts[id(s)] for s in statements]


def extract_context(index: SourceIndex, target: Statement) -> StatementContext:
    """Reaching-definition context of the target statement (see
    `scope_contexts`)."""
    return statement_contexts(index, [target])[0]


class TokenPool:
    """A run's sibling pool, tokenized and weighted once.

    When the target's statement is a pool member with the same context, as
    `extract_context` makes it from the pool's index, the corpus of
    `token_match` (pool minus target, plus target) is exactly the pool, so
    IDF, vectors, norms and postings are the same for every such target and
    are computed once, on first use. Any other target is ranked by a pool of
    that corpus, built for the call.
    """

    def __init__(self, contexts: list[StatementContext]):
        self.contexts = list(contexts)
        self._positions = {c.target: i for i, c in enumerate(self.contexts)}
        if len(self._positions) < len(self.contexts):
            raise ValueError("a TokenPool's statements must be distinct")

    def __len__(self) -> int:
        return len(self.contexts)

    def _term_counts(self) -> list[dict[str, int]]:
        """Each context's term counts, in first-occurrence order.

        A context's tokens are its statements' tokens in order: `rendered`
        joins them with "\n", which no word spans. So each distinct
        statement is tokenized once, and each token is a string of
        `_split_word`'s cached tuples, shared by all its occurrences. Terms
        are counted into a plain dict by the loop `Counter` itself runs:
        `_count_elements` is in `collections` on every CPython 3 (the C
        helper where built, else Python), and it saves building a `Counter`
        per context."""
        memo: dict[int, list[str]] = {}

        def tokens(stmt: Statement) -> list[str]:
            got = memo.get(id(stmt))
            if got is None:
                got = memo[id(stmt)] = tokenize(stmt.text)
            return got

        counts: list[dict[str, int]] = []
        for c in self.contexts:
            counts.append(doc := {})
            _count_elements(doc, chain.from_iterable(map(tokens, c.context)))
        return counts

    @cached_property
    def _tfidf(self):
        # The counts and the token lists are freed before the postings are
        # built.
        vectors = tfidf_vectors(self._term_counts())
        # Postings: each term of non-zero weight to the positions of the
        # contexts that hold it. Weights are read from the vectors, so an
        # entry costs one pointer to an int shared by its context's entries.
        postings: dict[str, list[int]] = {}
        for d, v in enumerate(vectors):
            for t, w in v.items():
                if w:
                    held = postings.get(t)
                    if held is None:
                        postings[t] = [d]
                    else:
                        held.append(d)
        return (vectors, [_norm(v) for v in vectors],
                [c.key for c in self.contexts], postings)

    @cached_property
    def _by_key(self) -> list[int]:
        """The pool's positions in (file, line) order, then pool order."""
        return sorted(range(len(self.contexts)), key=self._tfidf[2].__getitem__)

    def ranked(self, target: StatementContext, limit: int
               ) -> list[tuple[float, StatementContext]]:
        """`token_match`'s top `limit` (similarity, context) pairs: the best
        by similarity, then (file, line), then pool order, as a stable sort
        of every other context's `_cosine` against the target (its first
        vector, as in `tfidf_similarities`) keeps them.

        The target's postings give each context its dot product with the
        target exactly as `_cosine` sums it: the same non-zero products in
        the target's term order. A zero product, which `_cosine` skips,
        adds +0.0 to a non-negative total and changes no bit. A context
        that shares no weighted term scores +0.0.

        Only contexts with a non-zero dot product enter the heap. Weights
        are >= 0, so each of their scores sorts before every +0.0; if fewer
        than `limit` score, the zero-score contexts follow in (file, line)
        and pool order, as the sort places them.
        """
        pos = self._positions.get(target.target)
        if pos is None or self.contexts[pos].context != target.context:
            return TokenPool([c for c in self.contexts if c.target != target.target]
                             + [target]).ranked(target, limit)
        vectors, norms, keys, postings = self._tfidf
        tv, tn = vectors[pos], norms[pos]
        dots = [0.0] * len(vectors)
        for t, w in tv.items():
            for d in postings.get(t, ()):
                dots[d] += w * vectors[d][t]
        dots[pos] = 0.0  # the target is not its own sibling
        # The heap holds -similarity, so the best comes first.
        best = [(-neg, self.contexts[d]) for neg, _, d in heapq.nsmallest(
            limit, ((-dot / (tn * norms[d]), keys[d], d)
                    for d, dot in enumerate(dots) if dot))]
        if len(best) < limit:
            zeros = (d for d in self._by_key if not dots[d] and d != pos)
            best += [(0.0, self.contexts[d])
                     for d in islice(zeros, limit - len(best))]
        return best


def token_match(target: StatementContext, pool: TokenPool,
                limit: int = 100) -> list[CandidateSibling]:
    """Top-`limit` pool contexts by TF-IDF cosine against the target.

    The corpus is pool plus target; the target's own context is excluded
    from the results. Ties break by (file, line).
    """
    return [CandidateSibling(context=ctx, token_similarity=sim)
            for sim, ctx in pool.ranked(target, limit)]


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
