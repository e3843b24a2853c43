import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siblingfix.embeddings import (EmbeddingCache, EmbeddingError,
                                   LocalHashProvider, RemoteEmbeddingProvider,
                                   _cosine, _norm, cosine, embed,
                                   embedding_match)
from siblingfix.engine import RepairConfig
from siblingfix.matching import CandidateSibling, StatementContext
from siblingfix.source_index import Statement


class CountingProvider(LocalHashProvider):
    def __init__(self, dimension=64):
        super().__init__(dimension)
        self.calls = 0

    def embed_batch(self, texts):
        self.calls += len(texts)
        return super().embed_batch(texts)


def test_local_provider_deterministic():
    provider = LocalHashProvider(dimension=32)
    a, b = embed(["int x = compute();", "int x = compute();"], provider)
    assert a == b
    assert len(a) == 32
    assert math.isclose(math.sqrt(sum(c * c for c in a)), 1.0,
                        abs_tol=1e-12)


def test_embed_empty_batch():
    assert embed([], LocalHashProvider()) == []


def test_wrong_count_is_protocol_error():
    class Broken:
        name, model, batch_size = "broken", "b", 8

        def embed_batch(self, texts):
            return [[1.0]] * (len(texts) - 1)

    with pytest.raises(EmbeddingError) as err:
        embed(["a", "b", "c"], Broken())
    assert err.value.indices == [0, 1, 2]


def test_cosine_identical_and_zero():
    v = [0.6, 0.8]
    assert cosine(v, v) == 1.0
    zero = [0.0, 0.0]
    assert cosine(zero, zero) == 0.0
    assert cosine(v, [-0.6, -0.8]) == pytest.approx(-1.0)


def ctx(text, file, line):
    s = Statement(file=file, start_line=line, end_line=line, text=text,
                  kind="simple")
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
    assert len(embedding_match(target, pool, -1.0, provider)) == 2
    exact = embedding_match(target, cands(
        ("double v = problem.getAllParameters();", "a.java", 1),
        ("double v = problem.getAllParameters() ;", "a2.java", 1),
        ("almost the same but not quite tokens", "b.java", 2)), 1.0, provider)
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
    out = embedding_match(target, pool, 0.75, provider)
    assert {c.key[0] for c in out} == {"p1.java", "p2.java"}
    # Oracle: direct cosine of the provider's raw vectors agrees.
    texts = [target.rendered] + [c.context.rendered for c in pool]
    raw = embed(texts, provider)
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
                    FixedProvider(vectors))
    want = [_ref_cosine(target_vec, r) for r in rows]
    assert [c.embedding_similarity for c in candidates] == want
    assert [cosine(target_vec, r) for r in rows] == want


def _ref_cosine(a, b):
    if a == b:
        return 1.0 if any(a) else 0.0
    dot = sum(x * y for x, y in zip(a, b))
    na = math.sqrt(sum(x * x for x in a))
    nb = math.sqrt(sum(x * x for x in b))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return dot / (na * nb)


def _ref_norm(v):
    return math.sqrt(sum(x * x for x in v))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 64).flatmap(lambda d: st.tuples(
    st.lists(_COMPONENT | st.floats(-1e6, 1e6), min_size=d, max_size=d),
    st.lists(_COMPONENT | st.floats(-1e6, 1e6), min_size=d, max_size=d))))
def test_cosine_and_norm_equal_generator_formulas(case):
    """Same products in the same order: the same floats as the generator
    sums of the plain formula."""
    a, b = case
    assert float.hex(_norm(a)) == float.hex(_ref_norm(a))
    assert float.hex(_cosine(a, _norm(a), b)) == float.hex(_ref_cosine(a, b))


def test_cache_hits_bypass_provider(tmp_path):
    provider = CountingProvider()
    cache = EmbeddingCache(tmp_path / "cache.json")
    embed(["alpha", "beta"], provider, cache)
    assert provider.calls == 2
    embed(["alpha", "beta"], provider, cache)
    assert provider.calls == 2
    cache.flush()
    # A fresh cache object reloads the persisted store.
    reloaded = EmbeddingCache(tmp_path / "cache.json")
    embed(["alpha"], provider, reloaded)
    assert provider.calls == 2


def test_cache_is_provider_scoped():
    cache = EmbeddingCache()
    a = CountingProvider(dimension=16)
    b = CountingProvider(dimension=32)
    embed(["x"], a, cache)
    embed(["x"], b, cache)
    assert a.calls == 1 and b.calls == 1  # different model key, no false hit


def test_corrupt_cache_entry_recomputed(tmp_path):
    provider = CountingProvider()
    good = provider.embed_batch(["y"])[0]
    provider.calls = 0
    store = tmp_path / "cache.json"
    store.write_text(json.dumps({EmbeddingCache.key(provider, "x"): "garbage",
                                 EmbeddingCache.key(provider, "y"): good}))
    cache = EmbeddingCache(store)
    assert list(cache._data) == [EmbeddingCache.key(provider, "y")]
    (vec, hit) = embed(["x", "y"], provider, cache)
    assert provider.calls == 1
    assert len(vec) == provider.dimension
    assert hit == good


def test_corrupt_store_ignored(tmp_path):
    store = tmp_path / "cache.json"
    store.write_text("{ not json")
    cache = EmbeddingCache(store)
    assert cache._data == {}


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
                  {"data": [{"index": 0, "embedding": "x"}]}):
        sleeps = []
        session = FakeSession([FakeResponse(reply)] * 4)
        provider = RemoteEmbeddingProvider("http://x", "m", session=session,
                                           sleep=sleeps.append)
        with pytest.raises(EmbeddingError):
            provider.embed_batch(["a"])
        assert session.calls == 4
        assert sleeps == [1, 2, 4]
