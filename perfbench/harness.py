"""Scripted test harness copied into every generated project.

It reads `harness_spec.json` from the working directory. The failing test
walks the planted sibling methods in order and fails at the first one that
still holds the buggy accessor, with a two-frame stack trace pointing at
it; every other test passes. Results go to the JSON-lines file named by
RESULTS_PATH, as the siblingfix harness protocol asks.

When PERFBENCH_HARNESS_LOG is set, one line `[pid, start, end]` (epoch
seconds) is appended to that file per invocation, so the benchmark can
count harness runs without tracing the program.
"""

import json
import os
import re
import sys
import time


def first_unfixed(spec: dict) -> dict | None:
    sources: dict[str, str] = {}
    for site in spec["sites"]:
        if site["file"] not in sources:
            with open(site["file"], encoding="utf-8") as fh:
                sources[site["file"]] = fh.read()
        match = re.search(r"\b" + site["method"] + r"\(.*?\n    \}",
                          sources[site["file"]], re.S)
        body = match.group(0) if match else ""
        if spec["fixed"] not in body or spec["buggy"] in body:
            return site
    return None


def main() -> int:
    start = time.time()
    with open("harness_spec.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    site = first_unfixed(spec)
    records = []
    if site is None:
        records.append({"test": spec["failing_test"], "status": "pass",
                        "message": "", "frames": []})
    else:
        records.append({
            "test": spec["failing_test"],
            "status": "fail",
            "message": "expected the unbound parameter count",
            "frames": [
                {"unit": "SiblingTest", "method": "testAllSiblings",
                 "file": "test/SiblingTest.java", "line": 12},
                {"unit": site["unit"], "method": site["method"],
                 "file": site["file"], "line": site["line"]},
            ],
        })
    for test in spec["passing"]:
        records.append({"test": test, "status": "pass", "message": "",
                        "frames": []})
    with open(os.environ["RESULTS_PATH"], "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")
    log = os.environ.get("PERFBENCH_HARNESS_LOG")
    if log:
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(json.dumps([os.getpid(), start, time.time()]) + "\n")
    return 0 if site is None else 1


if __name__ == "__main__":
    sys.exit(main())
