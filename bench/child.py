"""Run one `verify` command in this process, with a probe or the tracer installed.

    python3 bench/child.py MODE SIDECAR VERIFY-ARGS...

MODE is ``plain`` (the set-up probe and the step marks), ``setup`` (stop
as soon as the first suite would start) or ``trace:<run id>`` (the layer
tracer of ``tracer.py``).  SIDECAR receives a JSON object with
``setup_end``, the ``time.monotonic()`` reading when the first suite
started; in plain mode it also holds ``steps``, the readings of
``_mark_steps``, and in trace mode the counts and spans.  The exit status
is the CLI's.
"""

from __future__ import annotations

import json
import sys
import time
from types import FunctionType


def _mark_steps() -> list[float]:
    """Note the time of every call the suites make through a module-level name.

    The names are the functions of ``sta.*`` modules bound in ``sta.suites``
    and ``Check``, which the suites call right after a check's work.  The
    suites are deterministic, so the k-th mark falls at the same point of
    every run of one command and seed; the marks split a run into steps.
    """
    import sta.suites

    stamps: list[float] = []

    def marked(fn):
        def call(*args, **kwargs):
            stamps.append(time.monotonic())
            return fn(*args, **kwargs)
        return call

    for name, obj in list(vars(sta.suites).items()):
        if obj is sta.suites.Check or (isinstance(obj, FunctionType)
                                       and obj.__module__.startswith("sta.")):
            setattr(sta.suites, name, marked(obj))
    return stamps


class _SetupDone(BaseException):
    """Raised by the probe in ``setup`` mode to stop before any suite runs."""


def main(argv: list[str]) -> int:
    mode, sidecar, verify_args = argv[0], argv[1], argv[2:]
    import sta.cli

    tracer = None
    if mode.startswith("trace:"):
        from tracer import Tracer

        tracer = Tracer(mode.split(":", 1)[1])
        tracer.install()
    elif mode not in ("plain", "setup"):
        raise SystemExit(f"unknown mode {mode!r}")

    marks: dict = {}
    run_suite = sta.cli.run_suite

    def probe(*args, **kwargs):
        if "setup_end" not in marks:
            marks["setup_end"] = time.monotonic()
            if mode == "setup":
                raise _SetupDone
        return run_suite(*args, **kwargs)

    sta.cli.run_suite = probe
    if mode == "plain":
        marks["steps"] = _mark_steps()
    try:
        rc = sta.cli.main(verify_args)
    except _SetupDone:
        rc = 0
    if tracer is not None:
        tracer.dump(sidecar + ".trace")
    with open(sidecar, "w", encoding="utf-8") as fh:
        json.dump(marks, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
