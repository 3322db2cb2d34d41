"""Print the sha256 of each `verify run` report of the shipped scenarios.

    python3 tools/report_hashes.py [--src DIR]

The reports are the five built-in scenarios at their own settings (suite
``default``) and each suite forced on each scenario at ``--grid 3``: 40
runs, made one after another in this process through ``sta.cli.main``.
Each prints one line, ``sha256 scenario suite``, in a fixed order, so
``diff`` of the output of two source trees is the byte-identity check of
their reports.  ``--src`` names the ``src`` directory to import ``sta``
from (default: the one next to this script), so one copy of the script
can hash another tree.  A run that writes no report prints ``no-report``
in place of its hash; the exit status is 1 if any run did.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"),
                   help="the src directory to import sta from")
    args = p.parse_args(argv)
    sys.path.insert(0, str(Path(args.src).resolve()))
    from sta.cli import main as verify
    from sta.scenario import builtin_scenario_names
    from sta.suites import SUITES

    runs = [(name, "default", []) for name in builtin_scenario_names()]
    runs += [(name, suite, ["--suite", suite, "--grid", "3"])
             for name in builtin_scenario_names() for suite in SUITES]
    missing = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, suite, extra in runs:
            out = Path(tmp) / f"{name}-{suite}"
            with contextlib.redirect_stdout(io.StringIO()):
                verify(["run", name, *extra, "--report-dir", str(out)])
            report = out / f"{name}.report.json"
            digest = hashlib.sha256(report.read_bytes()).hexdigest() if report.exists() \
                else "no-report"
            missing += digest == "no-report"
            print(digest, name, suite, flush=True)
    return 1 if missing else 0


if __name__ == "__main__":
    raise SystemExit(main())
