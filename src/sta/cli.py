"""Command-line front end: load a scenario, run suites, write reports.

The suites run one after another, in the order the scenario lists them.

Exit status: 0 when every check passes, 1 on any check failure, 2 on a
configuration problem (bad file, schema violation, unknown suite, a scenario
whose frame, connection or expressions violate a precondition of the
operations that build or check it, a report directory that cannot be
created, a report file name longer than the report directory allows, or a
report that cannot be written).  A standard output that its reader closes
early leaves the status as it is, for ``run`` (the report file is written
before the summary) and ``list-suites`` alike.

The cyclic garbage collector: while a command runs, the heap that existed
before it (numpy's and ``sta``'s import-time objects) is frozen, so the
collector scans only what the run creates; ``main`` unfreezes it on every
exit path.  At interpreter exit the heap is frozen again, before the
finalization collections would walk all of it once more.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import os
import sys
import time
from pathlib import Path

from .errors import ConfigError, StaError
from .report import Report
from .scenario import Scenario, builtin_scenario_names, load_config
from .suites import SUITES, run_suite

# atexit handlers run before the finalization collections, which then find
# every object frozen and scan nothing
atexit.register(gc.freeze)


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="verify",
                                description="spacetime-algebra verification harness")
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the suites of a scenario configuration")
    run.add_argument("config", help="path to a JSON scenario, or a built-in scenario name")
    run.add_argument("--suite", action="append", default=None,
                     help="restrict to this suite (repeatable)")
    run.add_argument("--grid", type=int, default=None, help="override grid density per axis")
    run.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    run.add_argument("--report-dir", default=".", help="directory for the structured report")

    sub.add_parser("list-suites", help="print the suite catalog")
    return p


def _write_out(text: str) -> None:
    """Write ``text`` to standard output; a reader that went away ends the write quietly."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # what is still buffered goes to devnull, so the flush at exit
        # cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def list_suites() -> int:
    _write_out("".join(f"{name:12s} {desc}\n" for name, (_, desc, _) in SUITES.items())
               + f"({len(SUITES)} suites; built-in scenarios: "
                 f"{', '.join(builtin_scenario_names())})\n")
    return 0


def _report_path(report_dir: str, name: str) -> Path:
    """Create ``report_dir`` and return the report path in it, before any suite runs.

    A report file name longer than the directory's file system allows is
    refused here too, so that no suite runs for a report that cannot be
    written.
    """
    out_dir = Path(report_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create the report directory: {exc}") from exc
    path = out_dir / f"{name}.report.json"
    try:
        limit = os.pathconf(out_dir, "PC_NAME_MAX")
    except (AttributeError, OSError, ValueError):  # no pathconf, or no limit stated
        limit = -1
    size = len(os.fsencode(path.name))
    if 0 < limit < size:
        raise ConfigError(f"cannot write the report: its file name is {size} bytes, "
                          f"longer than the {limit} the report directory allows")
    return path


def run_command(args) -> int:
    try:
        cfg = load_config(args.config)
        if args.grid is not None:
            cfg["grid"] = args.grid
        if args.seed is not None:
            cfg["seed"] = args.seed
        if args.suite:
            cfg["suites"] = args.suite
        scn = Scenario(cfg)
        out_path = _report_path(args.report_dir, scn.name)
        report = Report(scenario=scn.name, seed=scn.seed, grid=scn.grid)
        t0 = time.perf_counter()
        for name in scn.suites:
            report.checks.extend(run_suite(name, scn))
    except StaError as exc:
        # a violated operation precondition, while the scenario is built or
        # a suite runs, traces back to the scenario too
        detail = exc if isinstance(exc, ConfigError) else f"{type(exc).__name__}: {exc}"
        print(f"configuration error: {detail}", file=sys.stderr)
        return 2
    report.wall_time_s = time.perf_counter() - t0

    try:
        out_path.write_text(report.to_json_text(), encoding="utf-8")
    except OSError as exc:
        print(f"configuration error: cannot write the report: {exc}", file=sys.stderr)
        return 2

    # the report is written, so a reader that goes away changes no status
    _write_out(f"{report.human_text()}report: {out_path}\n")
    return 0 if report.passed else 1


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # a caller that froze its heap itself keeps it frozen, and as it was
    frozen = gc.get_freeze_count()
    if not frozen:
        gc.freeze()
    try:
        if args.command == "list-suites":
            return list_suites()
        return run_command(args)
    finally:
        if not frozen:
            gc.unfreeze()


if __name__ == "__main__":
    raise SystemExit(main())
