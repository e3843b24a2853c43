"""LLM backends (remote chat completion + deterministic scripted) and the
patch output format: parsing, rendering, and combination."""

from __future__ import annotations

import hashlib
import logging
import os
import re
import time
from dataclasses import dataclass, field
from pathlib import Path

import requests

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

    def __init__(self, message: str, offset: int = 0):
        super().__init__(message)
        self.offset = offset


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
    seed: int = 0
    location_id: str = ""
    attempt: int = 1

    def __post_init__(self):
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")


class ScriptedBackend:
    """Deterministic backend reading `<location-id>_attempt<k>.txt` files."""

    def __init__(self, directory: str | Path, on_missing: str = "error"):
        if on_missing not in ("error", "empty"):
            raise ValueError("on_missing must be 'error' or 'empty'")
        self.directory = Path(directory)
        self.on_missing = on_missing

    def complete(self, request: CompletionRequest) -> str:
        path = self.directory / f"{request.location_id}_attempt{request.attempt}.txt"
        if not path.exists():
            if self.on_missing == "empty":
                return ""
            raise BackendError(f"no scripted response: {path.name}")
        return path.read_text(encoding="utf-8")


class RemoteChatBackend:
    """Chat-completion POST with bearer auth and exponential-backoff retries."""

    def __init__(self, url: str, model: str, api_key_env: str = "LLM_API_KEY",
                 max_retries: int = 3, session: requests.Session | None = None,
                 sleep=time.sleep):
        self.url = url
        self.model = model
        self.api_key_env = api_key_env
        self.max_retries = max_retries
        self.session = session or requests.Session()
        self._sleep = sleep

    def complete(self, request: CompletionRequest) -> str:
        headers = {}
        key = os.environ.get(self.api_key_env)
        if key:
            headers["Authorization"] = f"Bearer {key}"
        body = {
            "model": self.model,
            "messages": [{"role": "user", "content": request.prompt}],
            "temperature": request.temperature,
            "max_tokens": request.max_tokens,
        }
        last = None
        for attempt in range(self.max_retries + 1):
            try:
                resp = self.session.post(self.url, json=body, headers=headers,
                                         timeout=300)
                resp.raise_for_status()
                return resp.json()["choices"][0]["message"]["content"]
            except (requests.RequestException, KeyError, IndexError,
                    ValueError) as exc:
                last = exc
                logger.warning("completion attempt %d failed: %s", attempt + 1, exc)
                if attempt < self.max_retries:
                    self._sleep(2 ** attempt)
        raise BackendError(f"completion failed after retries: {last}")


def parse_patch(response: str) -> Patch:
    """Extract PATCH blocks; the fenced content is the replacement body.

    Duplicate (file, method) blocks: the last one wins, with a warning.
    """
    markers = list(PATCH_MARKER_RE.finditer(response))
    if not markers:
        raise PatchParseError("no patch blocks in response", offset=0)
    edits: dict[tuple[str, str], PatchEdit] = {}
    for i, marker in enumerate(markers):
        end = markers[i + 1].start() if i + 1 < len(markers) else len(response)
        segment = response[marker.end():end]
        fence = _FENCE_RE.search(segment)
        if not fence:
            raise PatchParseError("patch block without opening fence",
                                  offset=marker.start())
        close = segment.find("\n```", fence.end() - 1)
        if close < 0:
            raise PatchParseError("unterminated code fence",
                                  offset=marker.end() + fence.start())
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
