import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from siblingfix.engine import RepairConfig
from siblingfix.llm import (PATCH_MARKER_RE, BackendError, CompletionRequest,
                            Patch, PatchEdit, PatchParseError, RemoteChatBackend,
                            ScriptedBackend, combine, parse_patch,
                            render_patch)


def block(file, method, body):
    return f"=== PATCH file={file} method={method} ===\n```\n{body}\n```\n"


def test_parse_two_blocks():
    text = "reasoning...\n" + block("A.java", "f", "int f(){}") \
        + "\n" + block("B.java", "g", "int g(){}")
    patch = parse_patch(text)
    assert [(e.file, e.method, e.body) for e in patch.edits] == [
        ("A.java", "f", "int f(){}"), ("B.java", "g", "int g(){}")]
    assert patch.provenance == "generated"


def test_parse_prose_only():
    with pytest.raises(PatchParseError):
        parse_patch("I believe the bug is in the loop condition.")


def test_parse_unterminated_fence():
    text = "=== PATCH file=A.java method=f ===\n```\nint f(){}"
    with pytest.raises(PatchParseError, match="unterminated code fence"):
        parse_patch(text)


def test_block_without_fence_before_the_next_marker():
    """A block's opening fence must come before the next marker line."""
    text = ("=== PATCH file=A.java method=f ===\nno code here\n"
            + block("B.java", "g", "void g() {}"))
    with pytest.raises(PatchParseError, match="without opening fence"):
        parse_patch(text)


def test_unclosed_block_before_the_next_marker():
    """A block's closing fence must come before the next marker line: a
    missing one is a format error, not a body that runs into the next
    block."""
    text = ("=== PATCH file=A.java method=f ===\n```\nint f() {}\n"
            + block("B.java", "g", "void g() {}"))
    with pytest.raises(PatchParseError, match="unterminated code fence"):
        parse_patch(text)


def test_duplicate_block_last_wins():
    text = block("A.java", "f", "first") + "\n" + block("A.java", "f", "second")
    patch = parse_patch(text)
    assert len(patch.edits) == 1
    assert patch.edits[0].body == "second"


def test_render_parse_roundtrip():
    patch = Patch(edits=(
        PatchEdit("x/A.java", "f", "int f() {\n  return 1;\n}"),
        PatchEdit("B.java", "g", "void g() {}"),
    ))
    again = parse_patch(render_patch(patch))
    assert again.edits == patch.edits


_NAME = st.from_regex(r"\S+", fullmatch=True)
# Body lines: free text, and lookalikes of the format's own lines. A line
# that starts with ``` would close the fence and a marker line would start
# the next block, so none is either; no Java method body holds one.
_LINE = st.one_of(
    st.text(st.characters(blacklist_characters="\n"), max_size=20),
    st.builds(" === PATCH file={} method={} ===".format, _NAME, _NAME),
    st.sampled_from([" ```", "x```", "``", "`` `", "=== PATCH", "\r", ""]),
).filter(lambda line: not line.startswith("```")
         and not PATCH_MARKER_RE.match(line))


@settings(max_examples=300, deadline=None)
@given(st.lists(
    st.tuples(_NAME, _NAME, st.lists(_LINE, min_size=1, max_size=6).map("\n".join)),
    min_size=1, max_size=4, unique_by=lambda t: (t[0], t[1])))
def test_roundtrip_property(edits):
    """`parse_patch(render_patch(p)) == p` for any names the marker line
    reads back and any bodies with no fence or marker line."""
    patch = Patch(edits=tuple(PatchEdit(*e) for e in edits))
    for e in patch.edits:
        marker = PATCH_MARKER_RE.fullmatch(
            f"=== PATCH file={e.file} method={e.method} ===")
        assume(marker and marker.groups() == (e.file, e.method))
    assert parse_patch(render_patch(patch)) == patch


def test_patch_id_order_independent():
    a = Patch(edits=(PatchEdit("A", "f", "x"), PatchEdit("B", "g", "y")))
    b = Patch(edits=(PatchEdit("B", "g", "y"), PatchEdit("A", "f", "x")))
    assert a.id == b.id
    c = Patch(edits=(PatchEdit("A", "f", "z"),))
    assert a.id != c.id


def test_combine_disjoint_union():
    gen = Patch(edits=(PatchEdit("A", "f", "new-f"),))
    pro = Patch(edits=(PatchEdit("B", "g", "pro-g"),))
    out = combine(gen, pro)
    assert {(e.file, e.method, e.body) for e in out.edits} == {
        ("A", "f", "new-f"), ("B", "g", "pro-g")}
    assert out.provenance == "combined"
    assert out.parent_id == pro.id


def test_combine_collision_generated_wins():
    gen = Patch(edits=(PatchEdit("A", "f", "generated"),))
    pro = Patch(edits=(PatchEdit("A", "f", "promising"),))
    out = combine(gen, pro)
    assert [e.body for e in out.edits] == ["generated"]


def test_combine_identity_and_idempotence():
    gen = Patch(edits=(PatchEdit("A", "f", "x"),))
    assert combine(gen, Patch(edits=())).edits == gen.edits
    assert set(combine(gen, gen).edits) == set(gen.edits)


def test_combine_associative_on_disjoint():
    p1 = Patch(edits=(PatchEdit("A", "f", "1"),))
    p2 = Patch(edits=(PatchEdit("B", "g", "2"),))
    p3 = Patch(edits=(PatchEdit("C", "h", "3"),))
    left = combine(combine(p1, p2), p3)
    right = combine(p1, combine(p2, p3))
    assert set(left.edits) == set(right.edits)


def test_scripted_backend(tmp_path):
    (tmp_path / "loc1_attempt1.txt").write_text("hello", encoding="utf-8")
    backend = ScriptedBackend(tmp_path)
    req = CompletionRequest(prompt="p", location_id="loc1", attempt=1)
    assert backend.complete(req) == "hello"
    with pytest.raises(BackendError):
        backend.complete(CompletionRequest(prompt="p", location_id="loc1",
                                           attempt=2))
    soft = ScriptedBackend(tmp_path, on_missing="empty")
    assert soft.complete(CompletionRequest(prompt="p", location_id="loc1",
                                           attempt=2)) == ""


def test_temperature_validated():
    # The sampling temperature is checked once, where the config is built.
    with pytest.raises(ValueError):
        RepairConfig(temperature=-0.1)


class FakeResponse:
    def __init__(self, payload=None, fail=False):
        self.payload, self.fail = payload, fail

    def raise_for_status(self):
        if self.fail:
            import requests
            raise requests.HTTPError("500")

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


def test_remote_backend_retries_then_succeeds():
    ok = FakeResponse({"choices": [{"message": {"content": "patched"}}]})
    session = FakeSession([FakeResponse(fail=True), FakeResponse(fail=True), ok])
    backend = RemoteChatBackend("http://x", "model", session=session,
                                sleep=lambda s: None)
    assert backend.complete(CompletionRequest(prompt="p")) == "patched"
    assert session.calls == 3


def test_remote_backend_exhausts_retries():
    session = FakeSession([FakeResponse(fail=True)] * 4)
    backend = RemoteChatBackend("http://x", "model", session=session,
                                sleep=lambda s: None)
    with pytest.raises(BackendError):
        backend.complete(CompletionRequest(prompt="p"))
    assert session.calls == 4


def test_remote_backend_sends_bearer_key_and_backs_off(monkeypatch):
    monkeypatch.setenv("LLM_API_KEY", "chat-secret")
    sleeps = []
    session = FakeSession([FakeResponse(fail=True)] * 4)
    backend = RemoteChatBackend("http://x", "model", session=session,
                                sleep=sleeps.append)
    with pytest.raises(BackendError):
        backend.complete(CompletionRequest(prompt="p"))
    assert sleeps == [1, 2, 4]
    assert {kw["headers"]["Authorization"] for kw in session.kwargs} == {
        "Bearer chat-secret"}
    assert {kw["timeout"] for kw in session.kwargs} == {300}
    monkeypatch.delenv("LLM_API_KEY")
    ok = FakeResponse({"choices": [{"message": {"content": "patched"}}]})
    session = FakeSession([ok])
    RemoteChatBackend("http://x", "model", session=session).complete(
        CompletionRequest(prompt="p"))
    assert session.kwargs[0]["headers"] == {}


def test_remote_backend_retries_malformed_reply():
    for reply in ({"choices": [None]},
                  {"choices": [{"message": {"content": None}}]}):
        session = FakeSession([FakeResponse(reply)] * 4)
        backend = RemoteChatBackend("http://x", "model", session=session,
                                    sleep=lambda s: None)
        with pytest.raises(BackendError):
            backend.complete(CompletionRequest(prompt="p"))
        assert session.calls == 4


@pytest.mark.parametrize("setting", [{"url": 5}, {"model": None},
                                     {"api_key_env": 5}],
                         ids=["url-an-int", "model-null", "api-key-env-an-int"])
def test_remote_backend_checks_its_settings(setting):
    args = {"url": "http://x", "model": "model", **setting}
    with pytest.raises(TypeError, match=next(iter(setting))):
        RemoteChatBackend(**args)
