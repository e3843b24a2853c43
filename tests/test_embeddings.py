import json
import math
import os
import random
import sqlite3
import subprocess
import sys
import tempfile
import time
from contextlib import closing
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import FIXTURES, write_descriptor
from siblingfix import embeddings
from siblingfix.embeddings import (EmbeddingCache, EmbeddingError,
                                   LocalHashProvider, RemoteEmbeddingProvider,
                                   _cosine, _norm, _support, embed,
                                   embedding_match)
from siblingfix.engine import RepairConfig
from siblingfix.matching import CandidateSibling, StatementContext
from siblingfix.orchestrator import run
from siblingfix.source_index import Statement, mask_code


def stored(path) -> dict:
    """The vectors the store at `path` holds, read by a cache that is
    closed again."""
    with closing(EmbeddingCache(path)) as cache:
        return cache._data


def cosine(a, b):
    """The cosine of two vectors, norms and support computed on the spot."""
    return _cosine(a, _norm(a), b, _norm(b), _support(a))


class CountingProvider(LocalHashProvider):
    def __init__(self, dimension=64):
        super().__init__(dimension)
        self.calls = 0

    def embed_batch(self, texts):
        self.calls += len(texts)
        return super().embed_batch(texts)


def test_local_provider_deterministic():
    provider = LocalHashProvider(dimension=32)
    a, b = embed(["int x = compute();", "int x = compute();"], provider,
                 EmbeddingCache())
    assert a == b
    assert len(a) == 32
    assert math.isclose(math.sqrt(sum(c * c for c in a)), 1.0,
                        abs_tol=1e-12)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 64), st.text(alphabet="aBc_9 .(", max_size=60))
def test_local_provider_divides_counts_by_their_norm(dimension, text):
    """Each component is its token count over the plain formula's norm,
    bit for bit; a text with no tokens gives the zero vector."""
    from siblingfix.embeddings import _bucket
    from siblingfix.matching import tokenize
    counts = [0.0] * dimension
    for token in tokenize(text):
        counts[_bucket(token, dimension)] += 1.0
    norm = _ref_norm(counts)
    want = [x / norm for x in counts] if norm else counts
    got = LocalHashProvider(dimension).embed_batch([text])[0]
    assert list(map(float.hex, got)) == list(map(float.hex, want))


@pytest.mark.parametrize("dimension", [0, -3, 7.9, True])
def test_local_provider_refuses_bad_dimension(dimension):
    with pytest.raises((TypeError, ValueError), match="provider dimension"):
        LocalHashProvider(dimension)


def test_embed_empty_batch():
    assert embed([], LocalHashProvider(), EmbeddingCache()) == []


def test_wrong_count_is_protocol_error():
    class Broken:
        name, model, batch_size = "broken", "b", 8

        def embed_batch(self, texts):
            return [[1.0]] * (len(texts) - 1)

    with pytest.raises(EmbeddingError,
                       match="provider returned 2 vectors for 3 texts"):
        embed(["a", "b", "c"], Broken(), EmbeddingCache())


def test_cosine_identical_and_zero():
    v = [0.6, 0.8]
    assert cosine(v, v) == 1.0
    zero = [0.0, 0.0]
    assert cosine(zero, zero) == 0.0
    assert cosine(v, [-0.6, -0.8]) == pytest.approx(-1.0)


def ctx(text, file, line):
    s = Statement(file=file, start_line=line, end_line=line, text=text,
                  kind="simple", masked=mask_code(text))
    return StatementContext(target=s, context=(s,))


def cands(*specs):
    return [CandidateSibling(context=ctx(t, f, l)) for t, f, l in specs]


def test_embedding_match_threshold_floor_and_ceiling():
    provider = LocalHashProvider(dimension=64)
    target = ctx("double v = problem.getAllParameters();", "t.java", 1)
    pool = cands(
        ("double v = problem.getAllParameters();", "a.java", 1),
        ("completely unrelated tokens here", "b.java", 2),
    )
    assert len(embedding_match(target, pool, -1.0, provider,
                               EmbeddingCache())) == 2
    exact = embedding_match(target, cands(
        ("double v = problem.getAllParameters();", "a.java", 1),
        ("double v = problem.getAllParameters() ;", "a2.java", 1),
        ("almost the same but not quite tokens", "b.java", 2)), 1.0, provider,
        EmbeddingCache())
    # Only contexts with identical token content survive theta = 1.
    assert {c.key[0] for c in exact} == {"a.java", "a2.java"}


def test_embedding_match_planted_vs_distractors():
    provider = LocalHashProvider(dimension=128)
    target = ctx("double rms = problem.getAllParameters();", "t.java", 1)
    planted = [
        ("double rms = problem.getAllParameters();", "p1.java", 3),
        ("double rms2 = problem.getAllParameters();", "p2.java", 4),
    ]
    distractors = [
        ("render(canvas, sprite, frame);", "d1.java", 5),
        ("socket.connectTimeout(500);", "d2.java", 6),
    ]
    pool = cands(*(planted + distractors))
    out = embedding_match(target, pool, 0.75, provider, EmbeddingCache())
    assert {c.key[0] for c in out} == {"p1.java", "p2.java"}
    # Oracle: direct cosine of the provider's raw vectors agrees.
    texts = [target.rendered] + [c.context.rendered for c in pool]
    raw = embed(texts, provider, EmbeddingCache())
    for cand, vec in zip(pool, raw[1:]):
        expected = cosine(raw[0], vec)
        assert cand.embedding_similarity == pytest.approx(expected, abs=1e-12)


def test_embedding_match_bad_theta():
    # The theta embedding_match receives is checked once, in the config.
    with pytest.raises(ValueError):
        RepairConfig(theta=1.5)


class FixedProvider:
    """Embeds each text as the vector given for it."""
    name, model, batch_size = "fixed", "f", 8

    def __init__(self, vectors):
        self.vectors = vectors

    def embed_batch(self, texts):
        return [self.vectors[t] for t in texts]


_COMPONENT = st.sampled_from([0.0, 0.5, -1.0, 3.0]) | st.floats(-10, 10)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6).flatmap(lambda d: st.tuples(
    st.lists(_COMPONENT, min_size=d, max_size=d),
    st.lists(st.one_of(st.just(None), st.just([0.0] * d),
                       st.lists(_COMPONENT, min_size=d, max_size=d)),
             max_size=8))))
def test_embedding_match_similarities_equal_cosine(case):
    """Each candidate's similarity is exactly `cosine(target, vector)`, and
    that is the plain formula's float; a None stands for a vector equal to
    the target's."""
    target_vec, rows = case
    rows = [target_vec if r is None else r for r in rows]
    vectors = {"t": target_vec, **{f"c{i}": r for i, r in enumerate(rows)}}
    candidates = cands(*[(f"c{i}", "c.java", i + 1) for i in range(len(rows))])
    embedding_match(ctx("t", "t.java", 1), candidates, -1.0,
                    FixedProvider(vectors), EmbeddingCache())
    want = [_ref_cosine(target_vec, r) for r in rows]
    assert [c.embedding_similarity for c in candidates] == want
    assert [cosine(target_vec, r) for r in rows] == want


def _left_sum(values):
    """Floats added left to right, as `sum` adds them before CPython 3.12."""
    total = 0.0
    for v in values:
        total += v
    return total


def _ref_cosine(a, b):
    if a == b:
        return 1.0 if any(a) else 0.0
    dot = _left_sum(x * y for x, y in zip(a, b))
    na = math.sqrt(_left_sum(x * x for x in a))
    nb = math.sqrt(_left_sum(x * x for x in b))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return dot / (na * nb)


def _ref_norm(v):
    return math.sqrt(_left_sum(x * x for x in v))


def test_fixture_cosine_at_theta_is_the_same_on_every_version():
    """Exactly 0.75 in real arithmetic: left-to-right addition gives the
    float just above the default theta on every CPython, so the fixture's
    candidate sets do not depend on the version; CPython 3.12's `sum`
    gave the float just below."""
    a, b = LocalHashProvider().embed_batch([
        "double getRms(EstimationProblem problem) {",
        "double guessErrors(EstimationProblem problem) {"])
    assert float.hex(cosine(a, b)) == "0x1.8000000000001p-1"
    assert cosine(a, b) >= RepairConfig().theta


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 64).flatmap(lambda d: st.tuples(
    st.lists(_COMPONENT | st.floats(-1e6, 1e6), min_size=d, max_size=d),
    st.lists(_COMPONENT | st.floats(-1e6, 1e6), min_size=d, max_size=d))))
def test_cosine_and_norm_equal_generator_formulas(case):
    """Same products in the same order: the same floats as the generator
    sums of the plain formula."""
    a, b = case
    assert float.hex(_norm(a)) == float.hex(_ref_norm(a))
    assert float.hex(cosine(a, b)) == float.hex(_ref_cosine(a, b))


_ODD = _COMPONENT | st.sampled_from(
    [-0.0, 1e-200, 1e200, math.inf, -math.inf, math.nan]) | st.floats()


def _rows(target):
    """Candidate vectors against `target`: any of its length, any of another
    length, and ones that are zero wherever `target` is not."""
    d = len(target)
    off_support = st.lists(_ODD, min_size=d, max_size=d).map(
        lambda r: [0.0 if t else x for t, x in zip(target, r)])
    return st.lists(st.lists(_ODD, min_size=d, max_size=d)
                    | st.lists(_ODD, max_size=d + 3) | off_support, max_size=8)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 12).flatmap(
    lambda d: st.lists(_ODD, min_size=d, max_size=d)).flatmap(
    lambda t: st.tuples(st.just(t), _rows(t))))
@example(([1.0, 0.0, 2.0], [[3.0, math.inf, 0.5], [0.0, math.nan, 0.0],
                            [1.0, 2.0], [0.0, 5.0, 0.0, 7.0]]))
@example(([0.0, 1.0, 0.0, 0.0, 2.0, 0.0],
          [[math.inf, 3.0, 0.0, math.nan, 0.5, 0.0],
           [0.0, 0.0, 4.0, 0.0, 0.0, 1.0], [1.0, 2.0],
           [0.0, -1.0, 0.0, 0.0, math.nan, 0.0]]))
def test_sparse_sums_equal_the_dense_formula(case):
    """Summing over the target's non-zero components only gives the dense
    formula's float, bit for bit, and NaN where it gives NaN: for vectors
    of unequal length, with inf or NaN components, and with zeros at the
    target's non-zero positions. `embedding_match` takes the sparse sums
    only for a mostly-zero target; here they are also forced on every
    target."""
    target_vec, rows = case
    vectors = {"t": target_vec, **{f"c{i}": r for i, r in enumerate(rows)}}
    candidates = cands(*[(f"c{i}", "c.java", i + 1) for i in range(len(rows))])
    embedding_match(ctx("t", "t.java", 1), candidates, -1.0,
                    FixedProvider(vectors), EmbeddingCache())
    want = [float.hex(_ref_cosine(target_vec, r)) for r in rows]
    assert [float.hex(c.embedding_similarity) for c in candidates] == want
    assert [float.hex(cosine(target_vec, r)) for r in rows] == want
    every = list(range(len(target_vec)))
    nonzero = [i for i in every if target_vec[i]]
    for support in (nonzero, every):
        assert [float.hex(_cosine(target_vec, _norm(target_vec), r, _norm(r),
                                  support)) for r in rows] == want
    for v in [target_vec, *rows]:
        assert float.hex(_norm(v)) == float.hex(_ref_norm(v))
        assert float.hex(_norm(v, sparse=True)) == float.hex(_ref_norm(v))


def test_support_is_kept_only_for_mostly_zero_vectors():
    """A dense vector (a remote provider's) takes the dense sums: a sum over
    more than half the indices costs more than it saves."""
    assert _support([0.0, 2.0, 0.0, -1.0]) == [1, 3]
    assert _support([0.0, 2.0, 3.0, -1.0]) is None
    assert _support([]) == []


def test_embedding_match_computes_each_norm_once(monkeypatch):
    """A run computes one norm per distinct vector, however many locations
    rank it."""
    texts = ["t1", "t2", "t3", "a", "b", "c", "d"]
    vectors = {t: [float(i % 3), 1.0, float(i)] for i, t in enumerate(texts)}
    calls = []

    def counted_norm(v, sparse=False):
        calls.append(v)
        return _norm(v, sparse)
    monkeypatch.setattr(embeddings, "_norm", counted_norm)
    cache, provider = EmbeddingCache(), FixedProvider(vectors)
    for target, pool in [("t1", "abc"), ("t2", "bcd"), ("t3", "abcd"),
                         ("a", "bd"), ("t1", "abcd")]:
        embedding_match(ctx(target, "t.java", 1),
                        cands(*[(t, f"{t}.java", 1) for t in pool]),
                        -1.0, provider, cache)
    assert sorted(map(tuple, calls)) == sorted(map(tuple, vectors.values()))


def test_cache_hits_bypass_provider(tmp_path):
    provider = CountingProvider()
    with closing(EmbeddingCache(tmp_path / "cache.json")) as cache:
        embed(["alpha", "beta"], provider, cache)
        assert provider.calls == 2
        embed(["alpha", "beta"], provider, cache)
        assert provider.calls == 2
        cache.flush()
    # A fresh cache object reloads the persisted store.
    with closing(EmbeddingCache(tmp_path / "cache.json")) as reloaded:
        embed(["alpha"], provider, reloaded)
    assert provider.calls == 2


def test_cache_is_provider_scoped():
    cache = EmbeddingCache()
    a = CountingProvider(dimension=16)
    b = CountingProvider(dimension=32)
    embed(["x"], a, cache)
    embed(["x"], b, cache)
    assert a.calls == 1 and b.calls == 1  # different model key, no false hit


SQLITE_HEADER = b"SQLite format 3\x00"


def test_json_cache_replaced_and_recomputed(tmp_path, caplog):
    """A cache in the JSON format of earlier versions is not a store: it is
    replaced with an empty store, with a warning, and each of its vectors
    is computed again."""
    provider = CountingProvider()
    good = provider.embed_batch(["y"])[0]
    provider.calls = 0
    store = tmp_path / "cache.json"
    store.write_text(json.dumps({EmbeddingCache.key(provider, "x"): "garbage",
                                 EmbeddingCache.key(provider, "y"): good}))
    with closing(EmbeddingCache(store)) as cache:
        assert cache._data == {}
        assert "corrupt embedding cache ignored" in caplog.text
        assert store.read_bytes()[:16] == SQLITE_HEADER
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cache.json"]
        x, y = embed(["x", "y"], provider, cache)
    assert provider.calls == 2
    assert y == good
    assert stored(store) == {EmbeddingCache.key(provider, "x"): x,
                             EmbeddingCache.key(provider, "y"): good}


def test_corrupt_store_ignored(tmp_path):
    store = tmp_path / "cache.json"
    store.write_text("{ not json")
    assert stored(store) == {}


@pytest.mark.parametrize("content", [
    random.Random(7).randbytes(4096),
    SQLITE_HEADER + random.Random(7).randbytes(4096),
    b'{"k": [1' + b"0" * 400 + b"]}",
], ids=["random-bytes", "sqlite-header-then-random", "int-beyond-float"])
def test_random_bytes_store_ignored_with_warning(tmp_path, caplog, content):
    store = tmp_path / "cache.json"
    store.write_bytes(content)
    provider = CountingProvider()
    with closing(EmbeddingCache(store)) as cache:
        assert cache._data == {}
        assert "corrupt embedding cache ignored" in caplog.text
        (vec,) = embed(["x"], provider, cache)
    assert stored(store) == {EmbeddingCache.key(provider, "x"): vec}


@pytest.mark.parametrize("column", ["key", "vector"])
def test_store_without_key_or_vector_column_replaced(tmp_path, caplog, column):
    provider = CountingProvider()
    store = tmp_path / "cache.db"
    with closing(EmbeddingCache(store)) as cache:
        embed(["x"], provider, cache)
    with closing(sqlite3.connect(store)) as db:
        db.execute(f"ALTER TABLE embeddings RENAME COLUMN {column} TO kez")
    with closing(EmbeddingCache(store)) as cache:
        assert cache._data == {}
        assert "corrupt embedding cache ignored" in caplog.text
        (vec,) = embed(["x"], provider, cache)
    assert stored(store) == {EmbeddingCache.key(provider, "x"): vec}


def test_store_with_unknown_schema_format_replaced(tmp_path, caplog):
    """A store whose header gives schema format 5 (bytes 44-47) raises
    `OperationalError: unsupported file format` in SQLite; it is corrupt,
    not unreadable, and is replaced."""
    provider = CountingProvider()
    store = tmp_path / "cache.db"
    with closing(EmbeddingCache(store)) as cache:
        embed(["x"], provider, cache)
    header = bytearray(store.read_bytes())
    header[44:48] = (5).to_bytes(4, "big")
    store.write_bytes(header)
    with closing(EmbeddingCache(store)) as cache:
        assert cache._data == {}
        assert "corrupt embedding cache ignored" in caplog.text
        (vec,) = embed(["x"], provider, cache)
    assert provider.calls == 2
    assert stored(store) == {EmbeddingCache.key(provider, "x"): vec}


def test_unreadable_store_left_in_place(tmp_path):
    store = tmp_path / "cache.json"
    store.mkdir()
    with pytest.raises(sqlite3.OperationalError):
        EmbeddingCache(store)
    assert store.is_dir()
    with pytest.raises(sqlite3.OperationalError):
        EmbeddingCache(tmp_path / "missing" / "cache.db")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cache.json"]


def test_absent_store_is_created(tmp_path):
    store = tmp_path / "cache.db"
    assert stored(store) == {}
    assert store.read_bytes()[:16] == SQLITE_HEADER
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cache.db"]


def test_locked_store_raises_and_keeps_its_rows(tmp_path, monkeypatch):
    """A store another connection holds locked is not known to be corrupt:
    opening it raises, and it is not replaced."""
    provider = CountingProvider()
    store = tmp_path / "cache.db"
    with closing(EmbeddingCache(store)) as cache:
        (vec,) = embed(["x"], provider, cache)
    connect = sqlite3.connect
    # Wait 0.1 s for the lock, not the default 5 s.
    monkeypatch.setattr(sqlite3, "connect",
                        lambda *a, **kw: connect(*a, **kw, timeout=0.1))
    holder = connect(store, isolation_level=None)
    try:
        holder.execute("BEGIN EXCLUSIVE")
        with pytest.raises(sqlite3.OperationalError, match="locked"):
            EmbeddingCache(store)
        holder.execute("ROLLBACK")
    finally:
        holder.close()
    assert stored(store) == {EmbeddingCache.key(provider, "x"): vec}


def test_corrupt_store_row_recomputed(tmp_path, caplog):
    provider = CountingProvider()
    store = tmp_path / "cache.db"
    with closing(EmbeddingCache(store)) as cache:
        embed(["x", "y", "z"], provider, cache)
    keys = [EmbeddingCache.key(provider, t) for t in "xyz"]
    with sqlite3.connect(store) as db:
        db.execute("UPDATE embeddings SET vector = ? WHERE key = ?",
                   (b"\x00" * 7, keys[0]))
        db.execute("UPDATE embeddings SET vector = 'text' WHERE key = ?",
                   (keys[1],))
    db.close()
    provider.calls = 0
    with closing(EmbeddingCache(store)) as cache:
        assert list(cache._data) == [keys[2]]
        assert "2 corrupt embedding cache entries dropped" in caplog.text
        x, y, z = embed(["x", "y", "z"], provider, cache)
    assert provider.calls == 2
    assert stored(store) == dict(zip(keys, (x, y, z)))


@pytest.mark.parametrize("column", ["key", "vector"])
def test_undecodable_store_row_recomputed(tmp_path, caplog, column):
    """A row whose key, or whose TEXT vector, is not UTF-8 is a corrupt
    row: dropped with a warning and recomputed."""
    provider = CountingProvider()
    store = tmp_path / "cache.db"
    with closing(EmbeddingCache(store)) as cache:
        embed(["alpha", "beta"], provider, cache)
    with sqlite3.connect(store) as db:
        db.execute(f"UPDATE embeddings SET {column} ="
                   " CAST(X'80626164' AS TEXT) WHERE rowid = 1")
    db.close()
    provider.calls = 0
    keys = [EmbeddingCache.key(provider, t) for t in ("alpha", "beta")]
    with closing(EmbeddingCache(store)) as cache:
        assert list(cache._data) == keys[1:]
        assert "1 corrupt embedding cache entries dropped" in caplog.text
        vectors = embed(["alpha", "beta"], provider, cache)
    assert provider.calls == 1
    assert stored(store) == dict(zip(keys, vectors))


@lru_cache(maxsize=None)
def real_store() -> bytes:
    """The bytes of a store of 200 rows."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cache.db"
        with closing(EmbeddingCache(path)) as cache:
            embed([f"text {i}" for i in range(200)], LocalHashProvider(8),
                  cache)
        return path.read_bytes()


def damaged(kind, arg) -> bytes:
    """A file for the cache path: the first `arg` bytes of the real store
    ("cut"), the store with each (position, mask) of `arg` XORed in
    ("flip"), the bytes `arg` ("bytes"), or the store with the `)` that
    closes its CREATE TABLE text overwritten with a byte that is not UTF-8
    ("schema")."""
    store = bytearray(real_store())
    if kind == "cut":
        return bytes(store[:arg])
    if kind == "flip":
        for pos, mask in arg:
            store[pos % len(store)] ^= mask
        return bytes(store)
    if kind == "bytes":
        return arg
    end = store.index(b"NOT NULL)") + len(b"NOT NULL")
    store[end] = 0x80
    return bytes(store)


_CACHE_FILES = st.one_of(
    st.tuples(st.just("cut"), st.integers(0, 1 << 16)),
    st.tuples(st.just("flip"), st.lists(
        st.tuples(st.integers(0, 1 << 16), st.integers(1, 255)),
        min_size=1, max_size=20)),
    st.tuples(st.just("bytes"), st.binary(max_size=4096)),
    st.tuples(st.just("bytes"),
              st.binary(max_size=4096).map(SQLITE_HEADER.__add__)))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_CACHE_FILES)
@example(("bytes", b""))
@example(("bytes", json.dumps({"k": [0.5, 1.0], "j": "garbage"}).encode()))
@example(("schema", None))
@example(("flip", [(4013, 128)]))  # a column name that is not UTF-8
def test_any_file_at_the_cache_path_loads_is_replaced_or_raises(caplog, case):
    """Whatever file is at the cache path, the cache loads it, replaces it
    with an empty store with a warning, or raises `OperationalError` and
    leaves it as it is."""
    content = damaged(*case)
    caplog.clear()
    with tempfile.TemporaryDirectory() as tmp:
        store = Path(tmp) / "cache.db"
        store.write_bytes(content)
        try:
            cache = EmbeddingCache(store)
        except sqlite3.OperationalError as exc:
            assert "Could not decode" not in str(exc)
            assert store.read_bytes() == content
            return
        with closing(cache):
            if "corrupt embedding cache ignored" in caplog.text:
                assert cache._data == {}
                assert stored(store) == {}
            for key, vec in cache._data.items():
                assert isinstance(key, str) and isinstance(vec, list)
                assert all(isinstance(x, float) for x in vec)


def test_store_round_trips_every_float(tmp_path):
    vectors = [[0.1, -0.0, 5e-324, 1e308, math.inf, -math.inf],
               [1 / 3, 2.0 ** -1074, -2.0 ** 1023, 0.0, 0.75, -1e-310]]
    provider = FixedProvider({"a": vectors[0], "b": vectors[1]})
    with closing(EmbeddingCache(tmp_path / "cache.db")) as cache:
        embed(["a", "b"], provider, cache)
    got = list(stored(tmp_path / "cache.db").values())
    assert [[x.hex() for x in v] for v in got] == \
        [[x.hex() for x in v] for v in vectors]


def test_runs_leave_only_the_store(tmp_path):
    """No journal or write-ahead log outlives a run, cold or warm, and
    the store stays at the descriptor's cache path."""
    desc = write_descriptor(tmp_path)
    for _ in range(2):
        code, _, _ = run(desc, out_dir=tmp_path / "runs")
        assert code == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "d.json", "embeddings.json", "runs"]
    assert (tmp_path / "embeddings.json").read_bytes()[:16] == SQLITE_HEADER


def test_run_connects_to_the_store_once_and_closes_it(tmp_path, monkeypatch):
    """A run with several embedding batches opens its existing store once,
    and closes the connection after its last flush."""
    desc = write_descriptor(tmp_path)
    with closing(EmbeddingCache(tmp_path / "embeddings.json")):
        pass  # create the store
    calls = []
    connect = sqlite3.connect
    monkeypatch.setattr(sqlite3, "connect",
                        lambda *a, **kw: calls.append("connect") or connect(*a, **kw))
    for name in ("flush", "close"):
        method = getattr(EmbeddingCache, name)
        monkeypatch.setattr(EmbeddingCache, name,
                            lambda self, m=method, n=name: calls.append(n) or m(self))
    monkeypatch.setattr(LocalHashProvider, "batch_size", 2)
    code, _, _ = run(desc, out_dir=tmp_path / "runs")
    assert code == 0
    assert calls.count("connect") == 1 and calls.count("flush") > 3
    assert calls[0] == "connect" and calls[-2:] == ["flush", "close"]
    assert calls.count("close") == 1


# Run `repair run` with two texts per embedding batch, blocking in the
# second batch after writing the first batch's texts to `started`.
_BLOCKING_RUN = """
import json, os, sys, time
from siblingfix import cli, embeddings

descriptor, out, started = sys.argv[1:]
batches = []
embed_batch = embeddings.LocalHashProvider.embed_batch

def blocking_embed_batch(self, texts):
    batches.append(texts)
    if len(batches) == 2:
        with open(started + ".part", "w") as fh:
            json.dump(batches[0], fh)
        os.replace(started + ".part", started)
        time.sleep(60)
    return embed_batch(self, texts)

embeddings.LocalHashProvider.batch_size = 2
embeddings.LocalHashProvider.embed_batch = blocking_embed_batch
sys.exit(cli.main(["run", descriptor, "--out", out]))
"""


def test_killed_run_keeps_its_completed_batches(tmp_path):
    desc = write_descriptor(tmp_path)
    started = tmp_path / "started.json"
    # A killed run leaves its workspace behind; it goes under tmp_path.
    env = {**os.environ, "TMPDIR": str(tmp_path), "PYTHONPATH": os.pathsep.join(
        [str(FIXTURES.parents[2] / "src"), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.Popen(
        [sys.executable, "-c", _BLOCKING_RUN, str(desc),
         str(tmp_path / "runs"), str(started)], env=env)
    try:
        deadline = time.monotonic() + 60
        while not started.exists() and proc.poll() is None \
                and time.monotonic() < deadline:
            time.sleep(0.05)
        assert started.exists(), f"run exited with {proc.returncode}"
    finally:
        proc.kill()
        proc.wait(timeout=30)
    first = json.loads(started.read_text())
    assert len(first) == 2
    provider = LocalHashProvider()
    assert stored(tmp_path / "embeddings.json") == {
        EmbeddingCache.key(provider, t): v
        for t, v in zip(first, provider.embed_batch(first))}


class FakeResponse:
    def __init__(self, payload=None, fail=False):
        self.payload = payload
        self.fail = fail

    def raise_for_status(self):
        if self.fail:
            import requests
            raise requests.HTTPError("boom")

    def json(self):
        return self.payload


class FakeSession:
    def __init__(self, responses):
        self.responses = list(responses)
        self.calls = 0
        self.kwargs = []

    def post(self, *args, **kwargs):
        self.calls += 1
        self.kwargs.append(kwargs)
        return self.responses.pop(0)


def test_remote_provider_retries_then_succeeds():
    ok = FakeResponse({"data": [{"index": 1, "embedding": [0.0, 1.0]},
                                {"index": 0, "embedding": [1.0, 0.0]}]})
    session = FakeSession([FakeResponse(fail=True), FakeResponse(fail=True), ok])
    provider = RemoteEmbeddingProvider("http://x", "m", session=session,
                                       sleep=lambda s: None)
    out = provider.embed_batch(["a", "b"])
    assert out == [[1.0, 0.0], [0.0, 1.0]]  # sorted by index
    assert session.calls == 3


def test_remote_provider_exhausts_retries():
    session = FakeSession([FakeResponse(fail=True)] * 4)
    provider = RemoteEmbeddingProvider("http://x", "m", session=session,
                                       sleep=lambda s: None)
    with pytest.raises(EmbeddingError):
        provider.embed_batch(["a"])
    assert session.calls == 4


def test_remote_provider_sends_bearer_key_and_backs_off(monkeypatch):
    monkeypatch.setenv("EMBED_API_KEY", "embed-secret")
    sleeps = []
    session = FakeSession([FakeResponse(fail=True)] * 4)
    provider = RemoteEmbeddingProvider("http://x", "m", session=session,
                                       sleep=sleeps.append)
    with pytest.raises(EmbeddingError):
        provider.embed_batch(["a"])
    assert sleeps == [1, 2, 4]
    assert {kw["headers"]["Authorization"] for kw in session.kwargs} == {
        "Bearer embed-secret"}
    assert {kw["timeout"] for kw in session.kwargs} == {120}


def test_remote_provider_retries_malformed_reply():
    for reply in ({"data": [None]},
                  {"data": [{"index": 0, "embedding": "x"}]},
                  {"data": [{"index": 0, "embedding": [True, 0.5]}]}):
        sleeps = []
        session = FakeSession([FakeResponse(reply)] * 4)
        provider = RemoteEmbeddingProvider("http://x", "m", session=session,
                                           sleep=sleeps.append)
        with pytest.raises(EmbeddingError):
            provider.embed_batch(["a"])
        assert session.calls == 4
        assert sleeps == [1, 2, 4]


@pytest.mark.parametrize("setting", [{"url": 5}, {"model": None},
                                     {"api_key_env": 5}],
                         ids=["url-an-int", "model-null", "api-key-env-an-int"])
def test_remote_provider_checks_its_settings(setting):
    args = {"url": "http://x", "model": "m", **setting}
    with pytest.raises(TypeError, match=next(iter(setting))):
        RemoteEmbeddingProvider(**args)
