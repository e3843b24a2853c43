"""Embedding providers, the content-hash cache, and embedding-based matching.

The local-hash provider is a deterministic, offline stand-in for a remote
embedding model: tokens are hashed into a fixed number of buckets, counts
accumulated, and the vector L2-normalized.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
from operator import mul
from pathlib import Path

from .llm import BackendError, RemoteClient
from .matching import CandidateSibling, StatementContext, tokenize

logger = logging.getLogger(__name__)


class EmbeddingError(BackendError):
    """Provider failure; carries the indices of the failed batch."""

    def __init__(self, message: str, indices: list[int] | None = None):
        super().__init__(message)
        self.indices = indices or []


def cosine(a: list[float], b: list[float]) -> float:
    return _cosine(a, _norm(a), b)


def _norm(v: list[float]) -> float:
    return math.sqrt(sum(map(mul, v, v)))


def _cosine(a: list[float], na: float, b: list[float]) -> float:
    """`cosine(a, b)` given `a`'s norm, so one vector's norm is computed
    once against many."""
    if a == b:
        return 1.0 if any(a) else 0.0
    dot = sum(map(mul, a, b))
    nb = _norm(b)
    if na == 0.0 or nb == 0.0:
        return 0.0
    return dot / (na * nb)


def _is_vector(value) -> bool:
    """A list of numbers: what a provider reply and the store must hold."""
    return isinstance(value, list) and all(
        isinstance(x, (int, float)) for x in value)


class LocalHashProvider:
    """Deterministic hashed token-frequency embeddings (offline)."""

    name = "local-hash"
    batch_size = 1024

    def __init__(self, dimension: int = 512):
        self.dimension = dimension
        self.model = f"hash-{dimension}"

    def embed_batch(self, texts: list[str]) -> list[list[float]]:
        out = []
        for text in texts:
            vec = [0.0] * self.dimension
            for token in tokenize(text):
                digest = hashlib.md5(token.encode()).hexdigest()
                vec[int(digest, 16) % self.dimension] += 1.0
            norm = _norm(vec)
            if norm > 0.0:
                vec = [x / norm for x in vec]
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


class EmbeddingCache:
    """Content-hash keyed cache, optionally persisted as one JSON file.

    Keys are scoped by provider name and model. A corrupt store, or a
    stored entry that is not a vector, is dropped on load and recomputed.
    """

    def __init__(self, store_path: str | Path | None = None):
        self.store_path = Path(store_path) if store_path else None
        self._data: dict[str, list[float]] = {}
        self._dirty = False
        if self.store_path and self.store_path.exists():
            try:
                loaded = json.loads(self.store_path.read_text(encoding="utf-8"))
                if isinstance(loaded, dict):
                    self._data = {k: v for k, v in loaded.items()
                                  if _is_vector(v)}
            except (ValueError, OSError):
                logger.warning("corrupt embedding cache ignored: %s", self.store_path)

    @staticmethod
    def key(provider, text: str) -> str:
        raw = f"{provider.name}|{provider.model}|{text}"
        return hashlib.sha256(raw.encode()).hexdigest()

    def get(self, key: str) -> list[float] | None:
        return self._data.get(key)

    def put(self, key: str, vector: list[float]) -> None:
        self._data[key] = list(vector)
        self._dirty = True

    def flush(self) -> None:
        if not self.store_path or not self._dirty:
            return
        tmp = self.store_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self._data), encoding="utf-8")
        tmp.replace(self.store_path)
        self._dirty = False


def embed(texts: list[str], provider,
          cache: EmbeddingCache | None = None) -> list[list[float]]:
    """One vector per input text, batched, cache-backed, order preserving."""
    results: list[list[float] | None] = [None] * len(texts)
    missing: list[int] = []
    for i, text in enumerate(texts):
        if cache is not None:
            hit = cache.get(EmbeddingCache.key(provider, text))
            if hit is not None:
                results[i] = hit
                continue
        missing.append(i)
    for start in range(0, len(missing), provider.batch_size):
        indices = missing[start:start + provider.batch_size]
        batch = [texts[i] for i in indices]
        try:
            vectors = provider.embed_batch(batch)
        except EmbeddingError as exc:
            exc.indices = indices
            raise
        if len(vectors) != len(batch):
            raise EmbeddingError(
                f"provider returned {len(vectors)} vectors for {len(batch)} texts",
                indices=indices)
        for i, vec in zip(indices, vectors):
            results[i] = vec
            if cache is not None:
                cache.put(EmbeddingCache.key(provider, texts[i]), vec)
    return results


def embedding_match(target: StatementContext, candidates: list[CandidateSibling],
                    theta: float, provider,
                    cache: EmbeddingCache | None = None) -> list[CandidateSibling]:
    """Retain candidates whose embedding cosine vs the target is >= theta."""
    if not candidates:
        return []
    texts = [target.rendered] + [c.context.rendered for c in candidates]
    target_vec, *vectors = embed(texts, provider, cache)
    target_norm = _norm(target_vec)
    kept = []
    for cand, vec in zip(candidates, vectors):
        sim = _cosine(target_vec, target_norm, vec)
        cand.embedding_similarity = sim
        if sim >= theta:
            kept.append(cand)
    kept.sort(key=lambda c: (-(c.embedding_similarity or 0.0), c.key))
    return kept
