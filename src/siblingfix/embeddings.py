"""Embedding providers, the content-hash cache, and embedding-based matching.

The local-hash provider is a deterministic, offline stand-in for a remote
embedding model: tokens are hashed into a fixed number of buckets, counts
summed, and the vector L2-normalized.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import sqlite3
from array import array
from contextlib import closing, contextmanager
from functools import lru_cache
from itertools import repeat
from operator import mul, truediv
from pathlib import Path

from .llm import BackendError, RemoteClient
from .matching import CandidateSibling, StatementContext, float_sum, tokenize

logger = logging.getLogger(__name__)

# The first 16 bytes of every SQLite database file.
_SQLITE_HEADER = b"SQLite format 3\x00"


class EmbeddingError(BackendError):
    """Embedding provider failure."""


def _norm(v: list[float]) -> float:
    return math.sqrt(float_sum(map(mul, v, v)))


def _cosine(a: list[float], na: float, b: list[float], nb: float) -> float:
    """The cosine of `a` and `b` given their norms, so each vector's norm
    is computed once however many vectors it is compared with."""
    if a == b:
        return 1.0 if any(a) else 0.0
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float_sum(map(mul, a, b)) / (na * nb)


def _is_vector(value) -> bool:
    """A list of numbers: what a provider reply and the store must hold."""
    return isinstance(value, list) and all(
        isinstance(x, (int, float)) for x in value)


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
        self.dimension = dimension
        self.model = f"hash-{dimension}"

    def embed_batch(self, texts: list[str]) -> list[list[float]]:
        dimension = self.dimension
        out = []
        for text in texts:
            vec = [0.0] * dimension
            for token in tokenize(text):
                vec[_bucket(token, dimension)] += 1.0
            norm = _norm(vec)
            if norm > 0.0:
                vec = list(map(truediv, vec, repeat(norm)))
            out.append(vec)
        return out


class RemoteEmbeddingProvider(RemoteClient):
    """POST {"input": texts, "model": name} -> {"data": [{"index", "embedding"}]}."""

    name = "remote"
    timeout, error, what = 120, EmbeddingError, "embedding provider"

    def __init__(self, url: str, model: str, api_key_env: str = "EMBED_API_KEY",
                 batch_size: int = 64, **kwargs):
        super().__init__(url, model, api_key_env, **kwargs)
        self.batch_size = batch_size

    def embed_batch(self, texts: list[str]) -> list[list[float]]:
        def read(reply):
            rows = sorted(reply["data"], key=lambda r: r["index"])
            vectors = [row["embedding"] for row in rows]
            if not all(map(_is_vector, vectors)):
                raise ValueError("malformed embedding vector in reply")
            return vectors
        return self._post({"input": texts, "model": self.model}, read)




@contextmanager
def _store(path: Path):
    """A connection to the SQLite store at `path`, with its one table,
    closed on exit. Writes are not synced to disk: a killed run keeps every
    committed batch, a crash of the machine may lose recent ones. The
    default rollback journal leaves no file beside the store once a
    transaction ends."""
    with closing(sqlite3.connect(path)) as db:
        db.execute("PRAGMA synchronous=OFF")
        db.execute("CREATE TABLE IF NOT EXISTS embeddings"
                   " (key TEXT PRIMARY KEY, vector BLOB NOT NULL)")
        yield db


def _write(db: sqlite3.Connection, rows) -> None:
    """Store (key, vector) rows in one transaction."""
    with db:
        db.executemany("INSERT OR REPLACE INTO embeddings VALUES (?, ?)",
                       [(k, array("d", v).tobytes()) for k, v in rows])


def _unpack(blob) -> list[float] | None:
    """A stored vector: doubles in machine byte order, read back exactly."""
    if not isinstance(blob, bytes) or len(blob) % 8:
        return None
    vec = array("d")
    vec.frombytes(blob)
    return vec.tolist()


class EmbeddingCache:
    """Content-hash keyed cache, optionally persisted in one SQLite file.

    Keys are scoped by provider name and model. `flush` appends the vectors
    put since the last flush in one transaction, and `embed` flushes after
    each batch, so a killed run loses at most the batch in flight. A store
    in the JSON format of earlier versions is read once and migrated. A
    corrupt store, or a stored entry that is not a vector, is dropped on
    load with a warning and recomputed. Each vector's norm is computed once
    and kept beside it.

    The store is opened, or created if absent, by the constructor. One that
    cannot be opened or read, or that another connection holds locked,
    raises `OSError` or `sqlite3.OperationalError` and is left as it is.
    """

    def __init__(self, store_path: str | Path | None = None):
        self.store_path = Path(store_path) if store_path else None
        self._data: dict[str, list[float]] = {}
        self._norms: dict[str, float] = {}
        self._pending: dict[str, list[float]] = {}
        if self.store_path:
            self._load(self.store_path)

    def _load(self, path: Path) -> None:
        is_store, rows = False, []
        try:
            with path.open("rb") as fh:
                is_store = fh.read(len(_SQLITE_HEADER)) == _SQLITE_HEADER
            if is_store:
                with _store(path) as db:
                    rows = [(k, _unpack(v)) for k, v in
                            db.execute("SELECT key, vector FROM embeddings")]
            else:
                loaded = json.loads(path.read_text(encoding="utf-8"))
                if not isinstance(loaded, dict):
                    raise ValueError("not a JSON object")
                rows = [(k, array("d", v).tolist() if _is_vector(v) else None)
                        for k, v in loaded.items()]
        except FileNotFoundError:
            pass  # absent: created below
        except sqlite3.OperationalError:
            raise  # unreadable or locked, not known to be corrupt
        except (ValueError, OverflowError, sqlite3.DatabaseError):
            logger.warning("corrupt embedding cache ignored: %s", path)
            is_store, rows = False, []
        self._data = {k: v for k, v in rows
                      if isinstance(k, str) and v is not None}
        if len(self._data) < len(rows):
            logger.warning("%d corrupt embedding cache entries dropped: %s",
                           len(rows) - len(self._data), path)
        if not is_store:
            # Create the store, or replace the file whole: no run sees half.
            tmp = path.with_name(path.name + ".tmp")
            tmp.unlink(missing_ok=True)
            with _store(tmp) as db:
                _write(db, self._data.items())
            tmp.replace(path)

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

    def norm(self, key: str, vector: list[float]) -> float:
        """The norm of `vector`, the vector of `key`, computed once per key."""
        norm = self._norms.get(key)
        if norm is None:
            norm = self._norms[key] = _norm(vector)
        return norm

    def flush(self) -> None:
        """Append the vectors put since the last flush to the store."""
        if not self._pending:
            return
        with _store(self.store_path) as db:
            _write(db, self._pending.items())
        self._pending.clear()


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
    Each distinct vector's norm is computed once per cache."""
    if not candidates:
        return []
    texts = [target.rendered] + [c.context.rendered for c in candidates]
    keys, vectors = _embed(texts, provider, cache)
    norms = list(map(cache.norm, keys, vectors))
    target_vec, target_norm = vectors[0], norms[0]
    kept = []
    for cand, vec, norm in zip(candidates, vectors[1:], norms[1:]):
        sim = _cosine(target_vec, target_norm, vec, norm)
        cand.embedding_similarity = sim
        if sim >= theta:
            kept.append(cand)
    kept.sort(key=lambda c: (-(c.embedding_similarity or 0.0), c.key))
    return kept
