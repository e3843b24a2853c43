"""Embedding providers, the content-hash cache, and embedding-based matching.

The local-hash provider is a deterministic, offline stand-in for a remote
embedding model: tokens are hashed into a fixed number of buckets, counts
summed, and the vector L2-normalized.
"""

from __future__ import annotations

import hashlib
import logging
import math
import sqlite3
from array import array
from functools import lru_cache
from itertools import compress, repeat
from operator import mul
from pathlib import Path

from .checks import check_type
from .llm import BackendError, RemoteClient
from .matching import CandidateSibling, StatementContext, float_sum, tokenize

logger = logging.getLogger(__name__)


class EmbeddingError(BackendError):
    """Embedding provider failure."""


def _norm(v: list[float], sparse: bool = False) -> float:
    """The L2 norm. `sparse` adds the squares of the non-zero components
    only, in index order, which gives the same float (`float_sum` skips
    zero squares anyway) and is faster when most components are zero."""
    if sparse:
        v = list(compress(v, v))
    return math.sqrt(float_sum(map(mul, v, v)))


def _support(v: list[float]) -> list[int] | None:
    """The indices of `v`'s non-zero components, in order, if at most half
    are non-zero; else None. A sum over the indices of more than half the
    components is slower than the dense sum (two lookups per product)."""
    support = list(compress(range(len(v)), v))
    return support if 2 * len(support) <= len(v) else None


def _cosine(a: list[float], na: float, b: list[float], nb: float,
            support: list[int] | None) -> float:
    """The cosine of `a` and `b` given their norms and `a`'s `_support`, so
    each is computed once however many vectors `a` is compared with.

    With a support, the dot product adds the products at `a`'s non-zero
    components only, in index order: elsewhere a finite `b[i]` gives a
    zero product, which `float_sum` skips, so the float is the dense sum's.
    It takes the dense sum without a support, for a `b` of another length,
    and for a `b` whose norm is not finite (an inf or NaN component, where
    `0.0 * b[i]` is NaN)."""
    if a == b:
        return 1.0 if any(a) else 0.0
    if na == 0.0 or nb == 0.0:
        return 0.0
    if support is None or len(a) != len(b) or not math.isfinite(nb):
        return float_sum(map(mul, a, b)) / (na * nb)
    return float_sum(map(mul, map(a.__getitem__, support),
                         map(b.__getitem__, support))) / (na * nb)


@lru_cache(maxsize=1 << 16)
def _bucket(token: str, dimension: int) -> int:
    """The vector component a token counts in. A run's tokens repeat, so
    md5 runs once per distinct token."""
    return int(hashlib.md5(token.encode()).hexdigest(), 16) % dimension


class LocalHashProvider:
    """Deterministic hashed token-frequency embeddings (offline)."""

    name = "local-hash"
    batch_size = 1024

    def __init__(self, dimension: int = 512):
        if check_type("provider dimension", dimension, int) < 1:
            raise ValueError("provider dimension must be >= 1")
        self.dimension = dimension
        self.model = f"hash-{dimension}"

    def embed_batch(self, texts: list[str]) -> list[list[float]]:
        dimension = self.dimension
        out = []
        for text in texts:
            vec = [0.0] * dimension
            for token in tokenize(text):
                vec[_bucket(token, dimension)] += 1.0
            # Counts are >= 0, so only the non-zero components change, and
            # a vector with none (norm 0) is left as it is.
            norm = _norm(vec, sparse=True)
            for i in compress(range(dimension), vec):
                vec[i] /= norm
            out.append(vec)
        return out


class RemoteEmbeddingProvider(RemoteClient):
    """POST {"input": texts, "model": name} -> {"data": [{"index", "embedding"}]}."""

    name = "remote"
    batch_size = 64
    timeout, error, what = 120, EmbeddingError, "embedding provider"

    def __init__(self, url: str, model: str, api_key_env: str = "EMBED_API_KEY",
                 **kwargs):
        super().__init__(url, model, api_key_env, **kwargs)

    def embed_batch(self, texts: list[str]) -> list[list[float]]:
        def read(reply):
            rows = sorted(reply["data"], key=lambda r: r["index"])
            return [[check_type("embedding value", x, float) for x in
                     check_type("embedding", row["embedding"], list)]
                    for row in rows]
        return self._post({"input": texts, "model": self.model}, read)


def _connect(path: Path) -> sqlite3.Connection:
    """A connection to the SQLite store at `path`, with its one table.
    Writes are not synced to disk: a killed run keeps every committed
    batch, a crash of the machine may lose recent ones. The default
    rollback journal leaves no file beside the store once a transaction
    ends."""
    db = sqlite3.connect(path)
    try:
        db.execute("PRAGMA synchronous=OFF")
        db.execute("CREATE TABLE IF NOT EXISTS embeddings"
                   " (key TEXT PRIMARY KEY, vector BLOB NOT NULL)")
    except BaseException:
        db.close()
        raise
    return db


def _unpack(key, blob) -> tuple[str, list[float]] | None:
    """A stored row read back exactly: its key as UTF-8 text and its vector
    as doubles in machine byte order. None for a row that holds no such
    key or vector."""
    if key is None or blob is None or len(blob) % 8:
        return None
    try:
        key = key.decode()
    except UnicodeDecodeError:
        return None
    vec = array("d")
    vec.frombytes(blob)
    return key, vec.tolist()


class EmbeddingCache:
    """Content-hash keyed cache, optionally persisted in one SQLite file.

    Keys are scoped by provider name and model. `flush` appends the vectors
    put since the last flush in one transaction, and `embed` flushes after
    each batch, so a killed run loses at most the batch in flight. A file
    that SQLite cannot read as a store, also one whose header gives a
    schema format SQLite does not know, is replaced with an empty store,
    with a warning. A row whose key is not UTF-8 text, or whose vector is
    not a BLOB of whole doubles, is dropped on load with a warning and
    recomputed. Each vector's norm is computed once and kept beside it.

    The store is opened, or created if absent, by the constructor, and
    its one connection is held until `close`. The connection frees its
    page cache after the load and after each flush, so holding it costs no
    memory between batches. A store that cannot be opened or read, or that
    another connection holds locked, raises `OSError` or
    `sqlite3.OperationalError` and is left as it is.
    """

    def __init__(self, store_path: str | Path | None = None):
        self.store_path = Path(store_path) if store_path else None
        self._data: dict[str, list[float]] = {}
        self._norms: dict[str, float] = {}
        self._pending: dict[str, list[float]] = {}
        self._db: sqlite3.Connection | None = None
        if self.store_path:
            self._load(self.store_path)

    def _load(self, path: Path) -> None:
        rows = []
        try:
            self._db = _connect(path)
            # Column names, keys and vectors are read as bytes, so a
            # schema that is not UTF-8 reads as corrupt and a row that is
            # not UTF-8 is dropped, not raised.
            columns = {name for name, in self._db.execute(
                "SELECT CAST(name AS BLOB)"
                " FROM pragma_table_info('embeddings')")}
            if not {b"key", b"vector"} <= columns:
                raise sqlite3.DatabaseError("no key or vector column")
            rows = [_unpack(k, v) for k, v in self._db.execute(
                "SELECT CAST(key AS BLOB), CASE typeof(vector)"
                " WHEN 'blob' THEN vector END FROM embeddings")]
        except (sqlite3.DatabaseError, ValueError) as exc:
            # ValueError: a damaged schema's message that is not UTF-8. An
            # OperationalError is an unreadable or locked store, not known to
            # be corrupt, unless it names the file format: a damaged schema
            # format number, whose error name is the generic SQLITE_ERROR.
            if (isinstance(exc, sqlite3.OperationalError)
                    and str(exc) != "unsupported file format"):
                self.close()
                raise
            logger.warning("corrupt embedding cache ignored: %s", path)
            self.close()
            path.unlink()
            self._db = _connect(path)
        self._db.execute("PRAGMA shrink_memory")
        self._data = dict(filter(None, rows))
        if len(self._data) < len(rows):
            logger.warning("%d corrupt embedding cache entries dropped: %s",
                           len(rows) - len(self._data), path)

    @staticmethod
    def key(provider, text: str) -> str:
        raw = f"{provider.name}|{provider.model}|{text}"
        return hashlib.sha256(raw.encode()).hexdigest()

    def get(self, key: str) -> list[float] | None:
        return self._data.get(key)

    def put(self, key: str, vector: list[float]) -> None:
        self._data[key] = vec = list(vector)
        if self.store_path:
            self._pending[key] = vec

    def norm(self, key: str, vector: list[float], sparse: bool = False) -> float:
        """The norm of `vector`, the vector of `key`, computed once per key
        (`sparse` as for `_norm`)."""
        norm = self._norms.get(key)
        if norm is None:
            norm = self._norms[key] = _norm(vector, sparse)
        return norm

    def flush(self) -> None:
        """Append the vectors put since the last flush to the store."""
        if not self._pending:
            return
        rows = [(k, array("d", v).tobytes()) for k, v in self._pending.items()]
        with self._db:
            self._db.executemany(
                "INSERT OR REPLACE INTO embeddings VALUES (?, ?)", rows)
        self._db.execute("PRAGMA shrink_memory")
        self._pending.clear()

    def close(self) -> None:
        """Close the store's connection; vectors not flushed are not stored."""
        if self._db is not None:
            self._db.close()
            self._db = None


def embed(texts: list[str], provider,
          cache: EmbeddingCache) -> list[list[float]]:
    """One vector per input text, batched, cache-backed, order preserving."""
    return _embed(texts, provider, cache)[1]


def _embed(texts: list[str], provider, cache: EmbeddingCache
           ) -> tuple[list[str], list[list[float]]]:
    """`embed`, with each text's cache key. The cache is flushed after
    each batch."""
    keys = [EmbeddingCache.key(provider, text) for text in texts]
    results = [cache.get(key) for key in keys]
    missing = [i for i, vec in enumerate(results) if vec is None]
    for start in range(0, len(missing), provider.batch_size):
        indices = missing[start:start + provider.batch_size]
        batch = [texts[i] for i in indices]
        vectors = provider.embed_batch(batch)
        if len(vectors) != len(batch):
            raise EmbeddingError(
                f"provider returned {len(vectors)} vectors for {len(batch)} texts")
        for i, vec in zip(indices, vectors):
            results[i] = vec
            cache.put(keys[i], vec)
        cache.flush()
    return keys, results


def embedding_match(target: StatementContext, candidates: list[CandidateSibling],
                    theta: float, provider,
                    cache: EmbeddingCache) -> list[CandidateSibling]:
    """Retain candidates whose embedding cosine vs the target is >= theta.
    Each distinct vector's norm is computed once per cache. The sums skip
    zero components when the target's are mostly zero (`_support`), as
    the local-hash provider's are; dense vectors take the dense sums."""
    if not candidates:
        return []
    texts = [target.rendered] + [c.context.rendered for c in candidates]
    keys, vectors = _embed(texts, provider, cache)
    target_vec = vectors[0]
    support = _support(target_vec)
    norms = list(map(cache.norm, keys, vectors, repeat(support is not None)))
    target_norm = norms[0]
    kept = []
    for cand, vec, norm in zip(candidates, vectors[1:], norms[1:]):
        sim = _cosine(target_vec, target_norm, vec, norm, support)
        cand.embedding_similarity = sim
        if sim >= theta:
            kept.append(cand)
    kept.sort(key=lambda c: (-(c.embedding_similarity or 0.0), c.key))
    return kept
