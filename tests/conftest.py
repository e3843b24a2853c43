"""Shared fixtures: the bundled mini-project and rule-based backends."""

from __future__ import annotations

import json
import re
import tempfile
from pathlib import Path

import pytest

from siblingfix import index_source, load_coverage

FIXTURES = Path(__file__).parent / "fixtures" / "miniproject"
PROJECT = FIXTURES / "project"
DESCRIPTOR = FIXTURES / "descriptor.json"
DESCRIPTOR_SLOW = FIXTURES / "descriptor_slow.json"
EXPECTED_DIFF = FIXTURES / "expected.diff"
RESPONSES = FIXTURES / "responses"


@pytest.fixture
def tmp_tempdir(tmp_path, monkeypatch):
    """Point tempfile's default directory at the test's `tmp_path`, so the
    workspaces `apply_patch` makes are removed with it."""
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    return tmp_path


@pytest.fixture(scope="session")
def mini_index():
    return index_source(PROJECT, ["src/**/*.java"])


@pytest.fixture(scope="session")
def mini_coverage():
    return load_coverage(FIXTURES / "coverage.jsonl")


def write_descriptor(tmp_path, **changes):
    """The miniproject descriptor with absolute paths, a cache under
    tmp_path, and the given top-level keys replaced."""
    data = json.loads(DESCRIPTOR.read_text())
    data["project_root"] = str(FIXTURES / "project")
    data["coverage"] = str(FIXTURES / "coverage.jsonl")
    data["backend"]["directory"] = str(FIXTURES / "responses")
    data["cache"] = str(tmp_path / "embeddings.json")
    data.update(changes)
    desc = tmp_path / "d.json"
    desc.write_text(json.dumps(data))
    return desc


def estimator_method(name: str, fixed: bool = False) -> str:
    """Full text of one Estimator method, optionally with the repair applied."""
    text = (PROJECT / "src" / "Estimator.java").read_text(encoding="utf-8")
    match = re.search(r"    double(?:\[\])? " + name + r"\(.*?\n    \}", text, re.S)
    body = match.group(0)
    if fixed:
        body = body.replace("getAllParameters()", "getUnboundParameters()")
    return body


def patch_response(*names: str, fixed: bool = True) -> str:
    """Model-output text patching the named Estimator methods."""
    blocks = [
        f"=== PATCH file=src/Estimator.java method={name} ===\n"
        f"```\n{estimator_method(name, fixed)}\n```"
        for name in names
    ]
    return "Applying a consistent fix.\n\n" + "\n\n".join(blocks) + "\n"


def prompt_section(prompt: str, name: str) -> str:
    parts = prompt.split(f"### SECTION: {name}\n")
    assert len(parts) == 2, f"section {name} missing"
    return parts[1].split("### SECTION:")[0]


class RuleBackend:
    """Deterministic backend keyed on the prompt's buggy-methods section.

    Multi-method (simultaneous) prompts get prose, so only the per-method
    iterative phase makes progress; the `normalize` group answers with an
    unhelpful re-introduction of the bug in getRms.
    """

    def __init__(self):
        self.requests = 0

    def complete(self, request):
        self.requests += 1
        buggy = prompt_section(request.prompt, "buggy-methods")
        methods = re.findall(r"// file: \S+  method: (\w+)", buggy)
        if len(methods) != 1:
            return "These methods need more analysis before patching."
        name = methods[0]
        if name in ("getRms", "guessErrors", "getCovariances"):
            return patch_response(name, fixed=True)
        if name == "normalize":
            return patch_response("getRms", fixed=False)
        return "No patch."
