"""The benchmark's tracer still finds and records every layer hook.

The traced benchmark gate only fails on a hook it cannot find. A call that
moves off the attribute a hook wraps leaves the hook in place but never
called, and its per-layer metric then reads 0; this test catches that.
"""

import json
import subprocess
import sys
from pathlib import Path

from conftest import FIXTURES

ROOT = Path(__file__).resolve().parent.parent

# Installs perfbench/tracer.py's hooks (argv[1] and argv[2] go first on the
# path), runs `repair run` on the descriptor argv[3] into argv[4], and
# writes the exit status, the hooks not found, the number of spans of each
# name and the span names of tracer.SELF_TIME to argv[5].
TRACED_RUN = """
import json, sys
from collections import Counter
sys.path[:0] = sys.argv[1:3]
from tracer import SELF_TIME, Tracer, install
tracer = Tracer()
install(tracer)
from siblingfix import cli
code = cli.main(["run", sys.argv[3], "--out", sys.argv[4]])
with open(sys.argv[5], "w") as fh:
    json.dump({"exit": code, "missing": tracer.missing,
               "calls": Counter(tracer.names),
               "self_time_spans": sorted(SELF_TIME.values())}, fh)
"""

# Nothing in src/ calls SourceIndex.statements_in_method.
UNCALLED = {"source_index.statements_in_method"}


def test_every_tracer_hook_is_found_and_records_a_call(tmp_path):
    out = tmp_path / "trace.json"
    subprocess.run(
        [sys.executable, "-B", "-c", TRACED_RUN, str(ROOT / "src"),
         str(ROOT / "perfbench"), str(FIXTURES / "descriptor.json"),
         str(tmp_path / "runs"), str(out)],
        check=True, capture_output=True, timeout=120)
    traced = json.loads(out.read_text(encoding="utf-8"))
    assert traced["exit"] == 0
    assert traced["missing"] == []
    silent = {span for span in traced["self_time_spans"]
              if not traced["calls"].get(span)}
    assert silent <= UNCALLED
