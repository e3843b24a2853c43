"""LLM backends (remote chat completion + deterministic scripted) and the
patch output format: parsing, rendering, and combination."""

from __future__ import annotations

import hashlib
import logging
import os
import re
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from .checks import check_type

logger = logging.getLogger(__name__)

PATCH_MARKER_RE = re.compile(r"^=== PATCH file=(\S+) method=(\S+) ===[ \t]*$",
                             re.MULTILINE)
_FENCE_RE = re.compile(r"```[^\n]*\n")

OUTPUT_FORMAT_SPEC = (
    "For every method you change, emit exactly one block:\n"
    "=== PATCH file=<path> method=<name> ===\n"
    "```\n"
    "<the complete replacement method, signature and braces included>\n"
    "```"
)


class BackendError(Exception):
    """Unrecoverable backend failure (retries exhausted, missing script)."""


class PatchParseError(Exception):
    """Model output does not conform to the patch format."""


@dataclass(frozen=True)
class PatchEdit:
    file: str
    method: str
    body: str


@dataclass(frozen=True)
class Patch:
    edits: tuple[PatchEdit, ...]
    provenance: str = "generated"  # generated | combined
    parent_id: str | None = None

    @property
    def id(self) -> str:
        blob = "\x00".join(f"{e.file}\x01{e.method}\x01{e.body}"
                           for e in sorted(self.edits,
                                           key=lambda e: (e.file, e.method)))
        return hashlib.sha1(blob.encode()).hexdigest()[:12]


@dataclass
class CompletionRequest:
    prompt: str
    temperature: float = 0.7
    max_tokens: int = 4096
    location_id: str = ""
    attempt: int = 1


def attempt_file(location_id: str, attempt: int) -> str:
    """Name of an attempt's prompt, response and scripted-response files."""
    return f"{location_id}_attempt{attempt}.txt"


class ScriptedBackend:
    """Deterministic backend reading `attempt_file` files from a directory."""

    ON_MISSING = ("error", "empty")

    def __init__(self, directory: str | Path, on_missing: str = "error"):
        if on_missing not in self.ON_MISSING:
            raise ValueError("on_missing must be 'error' or 'empty'")
        self.directory = Path(directory)
        self.on_missing = on_missing

    def complete(self, request: CompletionRequest) -> str:
        path = self.directory / attempt_file(request.location_id, request.attempt)
        if not path.exists():
            if self.on_missing == "empty":
                return ""
            raise BackendError(f"no scripted response: {path.name}")
        return path.read_text(encoding="utf-8")


def _request_errors() -> tuple[type[Exception], ...]:
    """`requests.RequestException` if `requests` is imported. It is looked
    up as an exception is matched: a session that raises it has imported it."""
    requests = sys.modules.get("requests")
    return (requests.RequestException,) if requests else ()


class RemoteClient:
    """Bearer-auth JSON POST with exponential-backoff retries. Subclasses
    set the request `timeout`, the `error` raised once retries run out, and
    `what` they request, for log and error messages. `requests` is imported
    only to build the default session: an offline run never loads it."""

    max_retries = 3

    def __init__(self, url: str, model: str, api_key_env: str,
                 session=None, sleep=time.sleep):
        self.url = check_type("url", url, str)
        self.model = check_type("model", model, str)
        self.api_key_env = check_type("api_key_env", api_key_env, str)
        if session is None:
            import requests
            session = requests.Session()
        self.session = session
        self._sleep = sleep

    def _post(self, body: dict, read):
        """`read(reply JSON)` of the first reply that `read` accepts."""
        key = os.environ.get(self.api_key_env)
        headers = {"Authorization": f"Bearer {key}"} if key else {}
        last = None
        for attempt in range(self.max_retries + 1):
            try:
                resp = self.session.post(self.url, json=body, headers=headers,
                                         timeout=self.timeout)
                resp.raise_for_status()
                return read(resp.json())
            except (*_request_errors(), KeyError, IndexError, TypeError,
                    ValueError) as exc:
                last = exc
                logger.warning("%s attempt %d failed: %s", self.what,
                               attempt + 1, exc)
                if attempt < self.max_retries:
                    self._sleep(2 ** attempt)
        raise self.error(f"{self.what} failed after retries: {last}")


class RemoteChatBackend(RemoteClient):
    """Chat-completion POST; the reply's first choice is the response."""

    timeout, error, what = 300, BackendError, "completion"

    def __init__(self, url: str, model: str, api_key_env: str = "LLM_API_KEY",
                 **kwargs):
        super().__init__(url, model, api_key_env, **kwargs)

    def complete(self, request: CompletionRequest) -> str:
        body = {
            "model": self.model,
            "messages": [{"role": "user", "content": request.prompt}],
            "temperature": request.temperature,
            "max_tokens": request.max_tokens,
        }
        # A lone surrogate fails to encode, a ValueError: the reply is retried.
        return self._post(body, lambda reply: check_type(
            "reply content", reply["choices"][0]["message"]["content"], str
        ).encode().decode())


def parse_patch(response: str) -> Patch:
    """Extract PATCH blocks; the fenced content is the replacement body.

    A block's opening and closing fences both come before the next marker
    line, so a block missing its closing fence is a parse error, not a body
    that runs into the next block. Duplicate (file, method) blocks: the last
    one wins, with a warning.
    """
    markers = list(PATCH_MARKER_RE.finditer(response))
    if not markers:
        raise PatchParseError("no patch blocks in response")
    edits: dict[tuple[str, str], PatchEdit] = {}
    for i, marker in enumerate(markers):
        end = markers[i + 1].start() if i + 1 < len(markers) else len(response)
        segment = response[marker.end():end]
        fence = _FENCE_RE.search(segment)
        if not fence:
            raise PatchParseError("patch block without opening fence")
        close = segment.find("\n```", fence.end() - 1)
        if close < 0:
            raise PatchParseError("unterminated code fence")
        body = segment[fence.end():close]
        key = (marker.group(1), marker.group(2))
        if key in edits:
            logger.warning("duplicate patch block for %s:%s, last wins", *key)
        edits[key] = PatchEdit(file=key[0], method=key[1], body=body)
    return Patch(edits=tuple(edits.values()))


def render_patch(patch: Patch) -> str:
    """Inverse of parse_patch for prompt feedback and logging."""
    blocks = []
    for e in patch.edits:
        blocks.append(f"=== PATCH file={e.file} method={e.method} ===\n"
                      f"```\n{e.body}\n```")
    return "\n".join(blocks)


def combine(generated: Patch, promising: Patch) -> Patch:
    """Union of edits; the generated edit wins on (file, method) collision."""
    merged: dict[tuple[str, str], PatchEdit] = {}
    for e in promising.edits:
        merged[(e.file, e.method)] = e
    for e in generated.edits:
        merged[(e.file, e.method)] = e
    return Patch(edits=tuple(merged.values()), provenance="combined",
                 parent_id=promising.id)
