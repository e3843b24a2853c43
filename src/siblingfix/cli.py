"""Command line entry point: `repair run <descriptor> [options]`."""

from __future__ import annotations

import argparse
import logging
import re
import signal
import sys
import threading

from .engine import RepairConfig
from .orchestrator import run

_DURATION_RE = re.compile(r"^(?:(\d+)h)?(?:(\d+)m)?(?:(\d+(?:\.\d+)?)s?)?$")


def parse_duration(value: str) -> float:
    """'5h', '30m', '90s', '1h30m', or plain seconds."""
    m = _DURATION_RE.match(value.strip())
    if not m or not any(m.groups()):
        raise argparse.ArgumentTypeError(f"bad duration: {value!r}")
    hours, minutes, seconds = m.groups()
    total = (int(hours or 0) * 3600 + int(minutes or 0) * 60
             + float(seconds or 0))
    if total <= 0:
        raise argparse.ArgumentTypeError("duration must be positive")
    return total


class Terminated(KeyboardInterrupt):
    """SIGTERM, raised in the main thread as an interrupt, so a run stops
    the way Ctrl-C stops it: harness group killed, workspace removed,
    report written, embedding cache flushed."""


def _terminate(signum, frame):
    raise Terminated("SIGTERM")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repair",
        description="Sibling-based multi-hunk program repair")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run", help="execute a repair run from a descriptor")
    p.add_argument("descriptor", help="path to the JSON project descriptor")
    p.add_argument("--mode", choices=["sbfl", "spfl", "pfl"], default=None)
    cfg = RepairConfig
    p.add_argument("--theta", type=float, default=None,
                   help=f"embedding similarity threshold (default {cfg.theta})")
    p.add_argument("--alpha", type=float, default=None,
                   help=f"Jaccard similarity threshold (default {cfg.alpha})")
    p.add_argument("--attempts", type=int, default=None,
                   help=f"repair attempts per phase (default {cfg.attempts})")
    p.add_argument("--ingredients", type=int, default=None,
                   help="max fix ingredients per sibling line "
                        f"(default {cfg.ingredients})")
    p.add_argument("--budget", type=parse_duration, default=None,
                   help="wall-clock budget, e.g. 5h, 30m, 90s "
                        f"(default {cfg.budget / 3600:g}h)")
    p.add_argument("--stop-on-first-plausible", action="store_true",
                   default=None)
    p.add_argument("--keep-workspaces", action="store_true", default=None)
    p.add_argument("--out", default="runs", help="run directory parent")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = vars(build_parser().parse_args(argv))
    del args["command"]
    verbose, descriptor, out = map(args.pop, ("verbose", "descriptor", "out"))
    logging.basicConfig(
        level=logging.DEBUG if verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s")
    # The other options override descriptor settings; None means not given.
    overrides = {k: v for k, v in args.items() if v is not None}
    # Only the main thread may set a handler; elsewhere SIGTERM keeps its own.
    on_main = threading.current_thread() is threading.main_thread()
    previous = signal.signal(signal.SIGTERM, _terminate) if on_main else None
    try:
        exit_code, report, run_dir = run(descriptor, overrides, out_dir=out)
    except KeyboardInterrupt as exc:  # the report is written: exit 128 + N
        signum = signal.SIGTERM if isinstance(exc, Terminated) else signal.SIGINT
        print(f"interrupted by {signum.name}", file=sys.stderr)
        return 128 + signum
    finally:
        if on_main:
            signal.signal(signal.SIGTERM, previous)
    if run_dir is not None:
        print(f"run directory: {run_dir}")
        print(f"plausible patches: {len(report.get('plausible', []))} "
              f"(stopped: {report.get('stopped')})")
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
