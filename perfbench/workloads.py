"""Seeded generators for the benchmark's synthetic Java-like projects.

Each workload directory holds everything a `repair run` needs, so nothing
is downloaded: `project/` (sources, the bench-owned `harness.py` and its
`harness_spec.json`), `coverage.jsonl`, `responses/`, `descriptor.json`,
the `expected.diff` of the planted fix, and `manifest.json` with the
workload's parameters and shape.

The same (workload, seed) gives byte-identical files. Another seed changes
every generated name and constant but not the shape: identifiers have a
fixed length and statement templates follow fixed positions, so file,
method, statement and sibling counts, the rank of the real bug under
Ochiai, and prompt sizes stay the same.

The expected diff is computed here from the generator's own pristine and
fixed texts with difflib, without siblingfix. siblingfix is imported only
to record responses (`iterate-carry`) and to warm the embedding cache
(`monolith-spfl`); both runs must reproduce the expected diff.
"""

from __future__ import annotations

import difflib
import json
import math
import random
import re
import shutil
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent

BUGGY = "getAllParameters()"
FIXED = "getUnboundParameters()"
FAILING_TEST = "t_siblings"
DECOY_METHOD = 5  # index of the decoy method in each decoy file

# filler_files x methods: ordinary classes. bug_files x bugs_per_file, or
# monolith_bugs in one extra class of monolith_methods: the planted sibling
# methods. decoys: how many of the first files hold a failing-only statement
# (in method DECOY_METHOD). cache: "cold" is deleted before each run, "warm"
# is filled at generation. responses: "planted" writes the passing response
# directly, "recorded" replays a RuleBackend run made at generation.
# Sizes give runs of a few seconds on a 2-core machine; see README.md.
WORKLOADS = {
    "wide-sbfl": {
        "filler_files": 25, "methods": 20, "bug_files": [10, 16, 22],
        "bugs_per_file": 1, "decoys": 8, "attempts": 5, "mode": "sbfl",
        "cache": "cold", "responses": "planted",
    },
    "monolith-spfl": {
        "filler_files": 3, "methods": 10, "monolith_methods": 800,
        "monolith_bugs": [300, 550, 750], "decoys": 1, "attempts": 5,
        "mode": "spfl", "cache": "warm", "responses": "planted",
    },
    "iterate-carry": {
        "filler_files": 20, "methods": 6, "bug_files": [3, 8, 13, 18],
        "bugs_per_file": 2, "decoys": 0, "attempts": 5, "mode": "sbfl",
        "cache": "cold", "responses": "recorded",
    },
}

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"


class _Names:
    """Unique fixed-length words drawn from a seeded generator."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.used: set[str] = set()

    def word(self) -> str:
        r = self.rng
        while True:
            w = (r.choice(_CONSONANTS) + r.choice(_VOWELS) + r.choice(_CONSONANTS)
                 + r.choice(_VOWELS) + r.choice(_CONSONANTS))
            if w not in self.used:
                self.used.add(w)
                return w

    def ident(self) -> str:
        return self.word() + self.word().capitalize()

    def cls(self) -> str:
        return self.word().capitalize() + self.word().capitalize()

    def real(self) -> str:
        return f"{self.rng.randint(1, 9)}.{self.rng.randint(10, 99)}"

    def int(self) -> str:
        return str(self.rng.randint(10, 99))


@dataclass
class Method:
    name: str
    sig_line: int
    end_line: int
    statement_lines: list[int]
    bug_line: int | None = None


@dataclass
class JavaFile:
    rel: str
    cls: str
    lines: list[str] = field(default_factory=list)
    methods: list[Method] = field(default_factory=list)

    @property
    def text(self) -> str:
        return "\n".join(self.lines) + "\n"

    def add_method(self, body: list[str], statement_offsets: list[int],
                   name: str, bug_offset: int | None = None) -> Method:
        sig = len(self.lines) + 1
        self.lines.extend(body)
        m = Method(name=name, sig_line=sig, end_line=len(self.lines),
                   statement_lines=[sig + k for k in statement_offsets],
                   bug_line=None if bug_offset is None else sig + bug_offset)
        self.lines.append("")
        self.methods.append(m)
        return m


@dataclass
class Project:
    problem: str
    getters: list[str]
    support: str
    helpers: list[str]
    locals: list[str]
    files: list[JavaFile] = field(default_factory=list)

    @property
    def bug_methods(self) -> list[tuple[JavaFile, Method]]:
        return [(f, m) for f in self.files for m in f.methods
                if m.bug_line is not None]


def _path(index: int, cls: str) -> str:
    """Ten classes per package; packages sort in generation order, so the
    decoys sort before the bug and the sibling sites keep their order."""
    return f"src/p{index // 10:02d}/{cls}.java"


def _class_header(jf: JavaFile, names: _Names) -> list[str]:
    fields = [names.ident(), names.ident()]
    jf.lines += [f"class {jf.cls} {{", "",
                 f"    int {fields[0]} = {names.int()};",
                 f"    double {fields[1]} = {names.real()};", ""]
    return fields


def _filler_method(jf: JavaFile, proj: Project, names: _Names,
                   fields: list[str], position: int, decoy: bool) -> Method:
    """Locals come from a shared vocabulary, as in real code, except in a
    decoy method: its unique names keep its statements free of siblings
    on every seed."""
    m = names.ident()
    if decoy:
        p, a, b = names.ident(), names.ident(), names.ident()
    else:
        p, a, b = names.rng.sample(proj.locals, 3)
    getter = proj.getters[position % len(proj.getters)]
    helper = proj.helpers[position % len(proj.helpers)]
    head = [f"    double {m}({proj.problem} {p}) {{",
            f"        int {a} = {p}.{getter}();",
            f"        double {b} = {proj.support}.{helper}({a}, {names.real()});"]
    if position % 2 == 0:
        body = head + [f"        if ({a} > {names.int()}) {{",
                       f"            {b} = {b} - this.{fields[0]};",
                       "        }",
                       f"        return {b} * {names.real()};",
                       "    }"]
        offsets = [0, 1, 2, 3, 4, 6]
    else:
        body = head + [f"        {b} = {b} * {names.real()} + {a};",
                       f"        return {b} / this.{fields[1]};",
                       "    }"]
        offsets = [0, 1, 2, 3, 4]
    return jf.add_method(body, offsets, m)


def _bug_method(jf: JavaFile, proj: Project, names: _Names,
                position: int) -> Method:
    m, b = names.ident(), names.rng.choice(proj.locals)
    helper = proj.helpers[position % len(proj.helpers)]
    body = [f"    double {m}({proj.problem} problem) {{",
            f"        double[] params = problem.{BUGGY};",
            f"        double {b} = {proj.support}.{helper}(params.length, "
            f"{names.real()});",
            f"        return {b} / params.length;",
            "    }"]
    return jf.add_method(body, [0, 1, 2, 3], m, bug_offset=1)


def _base_project(names: _Names) -> Project:
    proj = Project(problem=names.cls(), getters=[names.ident() for _ in range(8)],
                   support=names.cls(), helpers=[names.ident() for _ in range(8)],
                   locals=[names.ident() for _ in range(64)])
    pf = JavaFile(_path(0, proj.problem), proj.problem)
    pf.lines += [f"class {proj.problem} {{", "",
                 "    double[] values = new double[16];", ""]
    for accessor in (BUGGY, FIXED):
        pf.add_method(["    double[] " + accessor + " {",
                       "        return values;", "    }"],
                      [0, 1], accessor[:-2])
    for g in proj.getters:
        pf.add_method([f"    int {g}() {{",
                       f"        return values.length + {names.int()};",
                       "    }"], [0, 1], g)
    pf.lines.append("}")
    sf = JavaFile(_path(1, proj.support), proj.support)
    sf.lines += [f"class {proj.support} {{", ""]
    for h in proj.helpers:
        sf.add_method([f"    double {h}(double left, double right) {{",
                       f"        return left * right + {names.real()};",
                       "    }"], [0, 1], h)
    sf.lines.append("}")
    proj.files += [pf, sf]
    return proj


def _filler_file(proj: Project, names: _Names, index: int, methods: int,
                 bug_positions: set[int], decoy_position: int | None) -> JavaFile:
    cls = names.cls()
    jf = JavaFile(_path(index, cls), cls)
    fields = _class_header(jf, names)
    for pos in range(methods):
        if pos in bug_positions:
            _bug_method(jf, proj, names, pos)
        else:
            _filler_method(jf, proj, names, fields, pos, pos == decoy_position)
    jf.lines.append("}")
    return jf


def build_project(workload: str, seed: int) -> tuple[Project, list[tuple[str, int]]]:
    """The project and its decoy locations, both fixed by (workload, seed)."""
    params = WORKLOADS[workload]
    names = _Names(random.Random(f"{workload}:{seed}"))
    proj = _base_project(names)
    decoys = []
    bug_files = params.get("bug_files", [])
    per_file = params.get("bugs_per_file", 0)
    for i in range(params["filler_files"]):
        positions = ({1 + k * (params["methods"] // max(per_file, 1))
                      for k in range(per_file)} if i in bug_files else set())
        decoy = DECOY_METHOD if i < params["decoys"] else None
        jf = _filler_file(proj, names, i + 2, params["methods"], positions,
                          decoy)
        proj.files.append(jf)
        if decoy is not None:
            decoys.append((jf.rel, jf.methods[decoy].statement_lines[1]))
    if "monolith_methods" in params:
        big = _filler_file(proj, names, params["filler_files"] + 2,
                           params["monolith_methods"],
                           set(params["monolith_bugs"]), None)
        proj.files.append(big)
    return proj, decoys


def location_id(file: str, line: int) -> str:
    """The scripted backend's response key for a suspicious location."""
    safe = "".join(c if c.isalnum() else "_" for c in file)
    return f"{safe}_L{line}"


def method_text(jf: JavaFile, m: Method, fixed: bool = False) -> str:
    text = "\n".join(jf.lines[m.sig_line - 1:m.end_line])
    return text.replace(BUGGY, FIXED) if fixed else text


def expected_diff(proj: Project) -> str:
    """Unified diff of the planted fix, in the layout siblingfix writes."""
    chunks = []
    for jf in sorted({f.rel: f for f, _ in proj.bug_methods}.values(),
                     key=lambda f: f.rel):
        before = jf.text
        after = before.replace(BUGGY, FIXED)
        chunks.append("".join(difflib.unified_diff(
            before.splitlines(keepends=True), after.splitlines(keepends=True),
            fromfile=f"a/{jf.rel}", tofile=f"b/{jf.rel}")))
    return "".join(chunks)


def _coverage(proj: Project, decoys: list[tuple[str, int]], mode: str
              ) -> tuple[list[dict], dict[str, set[tuple[str, int]]]]:
    """One passing test per file (per 100 methods in a large file) plus the
    failing test, which covers the bug lines and the decoys. Bug lines are
    failing-only under SBFL, so they tie at 1.0 with the decoys; under SPFL
    a passing test also covers them, so SPFL must lift them to rank 1."""
    bug_lines = {(jf.rel, m.bug_line) for jf, m in proj.bug_methods}
    skip = set(decoys) | (bug_lines if mode == "sbfl" else set())
    covered: dict[str, set[tuple[str, int]]] = {}
    for i, jf in enumerate(proj.files):
        for c in range(0, len(jf.methods), 100):
            tid = f"t_{i:03d}_{c // 100}"
            covered[tid] = {(jf.rel, line) for m in jf.methods[c:c + 100]
                            for line in m.statement_lines} - skip
    covered[FAILING_TEST] = bug_lines | set(decoys)
    records = [{"type": "test", "id": FAILING_TEST, "outcome": "fail"}]
    records += [{"type": "test", "id": t, "outcome": "pass"}
                for t in covered if t != FAILING_TEST]
    for tid, locs in covered.items():
        records += [{"type": "cover", "test": tid, "file": f, "line": line}
                    for f, line in sorted(locs)]
    return records, covered


def _ochiai_order(covered: dict[str, set[tuple[str, int]]]) -> list[tuple[str, int]]:
    """Plain Ochiai ranking of the generated coverage (one failing test)."""
    passing: dict[tuple[str, int], int] = {}
    for tid, locs in covered.items():
        if tid != FAILING_TEST:
            for loc in locs:
                passing[loc] = passing.get(loc, 0) + 1
    every = set(passing) | covered[FAILING_TEST]
    score = {loc: (1 / math.sqrt(1 + passing.get(loc, 0))
                   if loc in covered[FAILING_TEST] else 0.0) for loc in every}
    return sorted(every, key=lambda loc: (-score[loc], loc))


def _patch_response(blocks: list[tuple[JavaFile, Method]]) -> str:
    parts = ["Every sibling reads the full parameter array; the contract "
             "covers only the unbound subset, so replace the accessor in "
             "each sibling method.", ""]
    for jf, m in blocks:
        parts += [f"=== PATCH file={jf.rel} method={m.name} ===", "```",
                  method_text(jf, m, fixed=True), "```", ""]
    return "\n".join(parts)


def generate(workload: str, seed: int, dest: Path) -> dict:
    """Write the workload for `seed` into `dest` and return its manifest."""
    params = WORKLOADS[workload]
    proj, decoys = build_project(workload, seed)
    if dest.exists():
        shutil.rmtree(dest)
    (dest / "project").mkdir(parents=True)
    (dest / "responses").mkdir()
    for jf in proj.files:
        path = dest / "project" / jf.rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(jf.text, encoding="utf-8")
    shutil.copyfile(HERE / "harness.py", dest / "project" / "harness.py")
    # Sites in (file, line) order, which is also the order of siblingfix's
    # method groups, so fixing the groups in turn moves the failure along.
    bugs = sorted(proj.bug_methods, key=lambda b: (b[0].rel, b[1].bug_line))
    records, covered = _coverage(proj, decoys, params["mode"])
    spec = {
        "failing_test": FAILING_TEST, "buggy": BUGGY, "fixed": FIXED,
        "sites": [{"file": jf.rel, "unit": jf.cls, "method": m.name,
                   "line": m.bug_line} for jf, m in bugs],
        "passing": [t for t in covered if t != FAILING_TEST],
    }
    (dest / "project" / "harness_spec.json").write_text(
        json.dumps(spec, indent=1) + "\n", encoding="utf-8")
    (dest / "coverage.jsonl").write_text(
        "".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")

    target = (bugs[0][0].rel, bugs[0][1].bug_line)
    order = _ochiai_order(covered)
    descriptor = {
        "project_root": "project",
        "include": ["src/**/*.java"],
        "coverage": "coverage.jsonl",
        "harness": {"command": "python3 -I -S harness.py", "timeout": 60},
        "backend": {"type": "scripted", "directory": "responses",
                    "on_missing": "empty"},
        "provider": {"type": "local-hash"},
        "mode": params["mode"],
        "config": {"attempts": params["attempts"]},
        "cache": "embeddings.json",
    }
    if params["mode"] == "spfl":
        descriptor["spfl"] = {"file": target[0], "line": target[1]}
    (dest / "descriptor.json").write_text(
        json.dumps(descriptor, indent=1) + "\n", encoding="utf-8")
    diff = expected_diff(proj)
    (dest / "expected.diff").write_text(diff, encoding="utf-8")

    manifest = {
        "workload": workload,
        "seed": seed,
        "params": params,
        "shape": {
            "files": len(proj.files),
            "methods": sum(len(f.methods) for f in proj.files),
            "statements": sum(len(m.statement_lines)
                              for f in proj.files for m in f.methods),
            "siblings": len(bugs),
            "decoys": len(decoys),
            "bug_ochiai_rank": order.index(target) + 1,
        },
        "location": location_id(*target),
        "expected_attempt_log": None,
    }
    if params["responses"] == "recorded":
        report = scripted_run(dest, backend=RuleBackend())
        manifest["expected_attempt_log"] = report["attempt_log"]
    else:
        (dest / "responses" / f"{manifest['location']}_attempt1.txt").write_text(
            _patch_response(bugs), encoding="utf-8")
        if params["cache"] == "warm":
            scripted_run(dest)
    if params["cache"] == "cold":
        (dest / "embeddings.json").unlink(missing_ok=True)
    (dest / "manifest.json").write_text(
        json.dumps(manifest, indent=1) + "\n", encoding="utf-8")
    return manifest


# -- runs at generation time -------------------------------------------------

class GenerationError(Exception):
    """siblingfix did not reproduce the planted fix while generating."""


_GROUP_RE = re.compile(r"^// file: (\S+)  method: (\S+)$", re.M)
_SECTION_RE = re.compile(r"^### SECTION: buggy-methods\n(.*?)(?=^### SECTION: )",
                         re.M | re.S)


class RuleBackend:
    """Rule-based stand-in for a model, used once to record responses.

    It reads the buggy methods from the prompt and fixes the accessor.
    Given several method groups (simultaneous repair), it fixes a single
    group other than the first, a different one per attempt, so the test
    still fails where it did and sim-A makes no progress. Given one group
    (iterative repair), it fixes that group, so fixes compose through
    promising-patch carry-forward.
    """

    def complete(self, request) -> str:
        section = _SECTION_RE.search(request.prompt).group(1)
        heads = list(_GROUP_RE.finditer(section))
        groups = []
        for i, head in enumerate(heads):
            end = heads[i + 1].start() if i + 1 < len(heads) else len(section)
            body = section[head.end() + 1:end].strip("\n")
            body = "\n".join(line.removesuffix("  // SIBLING")
                             for line in body.split("\n"))
            groups.append((head.group(1), head.group(2), body))
        if len(groups) > 1:
            groups = [groups[len(groups) - 1
                             - (request.attempt - 1) % (len(groups) - 1)]]
        parts = ["Replace the full-array accessor in this sibling.", ""]
        for file, method, body in groups:
            parts += [f"=== PATCH file={file} method={method} ===", "```",
                      body.replace(BUGGY, FIXED), "```", ""]
        return "\n".join(parts)


def scripted_run(dest: Path, backend=None) -> dict:
    """One in-process `repair run` of the workload; checks its diff.

    With `backend`, the descriptor's scripted backend is replaced and the
    responses it gives are copied into `dest/responses`.
    """
    from siblingfix import orchestrator

    out = dest / "generation-run"
    make_backend = orchestrator.make_backend
    if backend is not None:
        orchestrator.make_backend = lambda spec: backend
    try:
        code, report, run_dir = orchestrator.run(dest / "descriptor.json",
                                                 out_dir=out)
    finally:
        orchestrator.make_backend = make_backend
    try:
        diffs = [p["diff"] for p in report.get("plausible", [])]
        expected = (dest / "expected.diff").read_text(encoding="utf-8")
        if code != 0 or diffs != [expected]:
            raise GenerationError(f"generation run of {dest.name} did not "
                               f"reproduce the planted fix (exit {code}, "
                               f"{len(diffs)} plausible)")
        if backend is not None:
            for path in sorted((run_dir / "responses").iterdir()):
                shutil.copyfile(path, dest / "responses" / path.name)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return report
