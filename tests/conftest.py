import gc
import os
from pathlib import Path

import pytest
from hypothesis import settings

# CLI tests run ``python -m sta.cli`` as a child process with a temporary
# working directory, so a relative ``PYTHONPATH=src`` no longer reaches the
# package there.  Put the absolute source directory first; every child
# inherits it, and entries already on the path are kept behind it.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    [_SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
)

# Property tests draw the same examples on every run, and a slow example is
# not a failure: the timing bounds live in test_acceptance.py.
settings.register_profile("sta", derandomize=True, deadline=None)
settings.load_profile("sta")


@pytest.fixture(autouse=True)
def _heap_freeze_state_is_kept():
    """Fail a test that leaves the collector's frozen heap changed.

    ``sta.cli.main`` freezes the heap while a command runs and must restore
    it on every exit path; a test that runs it in process must not hand a
    frozen heap to the tests after it.
    """
    before = gc.get_freeze_count()
    yield
    after = gc.get_freeze_count()
    if after != before:
        pytest.fail(f"the test left gc.get_freeze_count() at {after}, not {before}")
