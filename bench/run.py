"""End-to-end and per-layer benchmark of the `verify run` CLI.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Each workload is a fixed list of `verify run` commands, run as child
processes from the source tree (the absolute ``src`` path on
``PYTHONPATH``, ``VERIFY_THREADS`` removed).  A pass runs the list once and
checks every report; a run repeats passes for ``--seconds``.  It reports as
``wall_s`` the fastest time of each step of a pass, summed over the steps,
and as ``setup_s`` the fastest set-up, both scaled to a fixed machine speed
by two yardsticks.  With ``--trace 1`` the run makes a traced pass between
two untraced ones and reports the per-layer metrics of the traced one (see
``tracer.py``).  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``, where attempted and
failed count report checks.  With ``--workload all`` every workload runs in
turn and a table is printed instead.  The exit status is 1 when any report
fails the correctness gate and 2 when the source tree is missing.  See
README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from importlib.util import find_spec
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_run"

SUITE_CHECKS = {
    "algebra": ("generator-relations", "pseudoscalar-square", "associativity",
                "reversion-antiautomorphism", "grade-bookkeeping",
                "commutator-grade-preservation", "exp-bivector-inverse"),
    "derivatives": ("leibniz-clifford", "leibniz-left", "leibniz-right", "leibniz-effective",
                    "ideal-preservation", "effective-two-routes", "unit-section-law"),
    "transport": ("flat-identity", "grade-preservation", "conservation-order",
                  "pairing-transport", "ideal-stability"),
    "dirac-triad": ("representative-residual", "left-residual", "ideal-residual",
                    "column-residual", "left-representative-componentwise",
                    "left-representative-random", "left-ideal-phase-map", "ideal-column-map",
                    "residual-linearity"),
    "gauge": ("left-covariance-constant", "representative-covariance-constant",
              "left-covariance-linear", "representative-covariance-linear",
              "left-covariance-sine", "representative-covariance-sine", "spin-plane-rotation"),
    "lorentz": ("residual-transform-constant", "residual-transform-local",
                "frame-orthonormality", "naturality-clifford", "naturality-left",
                "naturality-right", "connection-two-routes"),
    "bilinears": ("grade-purity", "quadratic-relations", "sign-invariance",
                  "rest-wave-normalization"),
}


@dataclass(frozen=True)
class Child:
    """One `verify run` command of a workload."""

    scenario: str              # built-in scenario, also the report's name
    suites: tuple[str, ...]    # the suites it runs, in order
    grid: int
    args: tuple[str, ...] = ()
    transport_steps: int | None = None  # set: run a copy of the scenario with this value

    @property
    def label(self) -> str:
        steps = () if self.transport_steps is None else (f"transport_steps={self.transport_steps}",)
        return " ".join((self.scenario, *self.args, *steps))

    @property
    def expected(self) -> list[tuple[str, str]]:
        return [(s, name) for s in self.suites for name in SUITE_CHECKS[s]]


# Why each workload (README.md has the longer form):
#   forms-grid: the user path through the Dirac, gauge, Lorentz and bilinear
#     suites, batched real and complex products (kernel, chunking and memory
#     show here).  Grid 5, not the shipped 9, 9, 7: passes of 10 s at 0.64 GB
#     slowed with other tenants of the host and spread by about 20%;
#   derivatives-dag: Leibniz DAGs rebuilt per identity on 256 points, where DAG
#     construction, memo hits and support masks act.  Grid 4, not 5: the same
#     DAGs in half the time, so twice the passes in a run;
#   transport-steps: RK4 steps of one-row kernel calls, so per-call overhead
#     shows and a large-N kernel win must not cost more here.  512 steps keep
#     a pass near 2 s, so a run holds fifteen or more passes and each step of
#     a pass has many chances to run at full speed; the work per RK4 step is
#     the same at 2048.
WORKLOADS = {
    "forms-grid": (
        Child("minkowski-plane-wave", ("algebra", "dirac-triad", "bilinears"), 5,
              ("--grid", "5")),
        Child("gauge-sine", ("gauge",), 5, ("--grid", "5")),
        Child("lorentz-local-rotor", ("lorentz",), 5, ("--grid", "5")),
    ),
    "derivatives-dag": (
        Child("torsion-toy", ("derivatives",), 4, ("--suite", "derivatives", "--grid", "4")),
    ),
    "transport-steps": (
        Child("torsion-toy", ("transport",), 9, ("--suite", "transport"), transport_steps=512),
    ),
}

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
              ("check_pass_ratio", "ratio"))
SUITE_NAMES = tuple(SUITE_CHECKS)
PER_LAYER = (
    ("algebra.gp_batch.calls", "count"),
    ("algebra.gp_batch.rows", "count"),
    ("algebra.gp_batch.complex_rows", "count"),
    ("algebra.gp_batch.self_s", "s"),
    ("algebra.gp_batch.rows_per_s", "1/s"),
    ("algebra.gp_batch.bytes_computed", "B"),
    ("fields.evaluate.nodes", "count"),
    ("fields.evaluate.memo_hits", "count"),
    ("fields.evaluate.memo_hit_ratio", "ratio"),
    ("fields.evaluate.product_nodes", "count"),
    ("fields.evaluate.self_s", "s"),
    ("geometry.deriv_build.calls", "count"),
    ("geometry.deriv_build.self_s", "s"),
    ("geometry.transport.steps", "count"),
    ("geometry.transport.self_s", "s"),
    ("geometry.transport.s_per_step", "s"),
    ("geometry.omega_coord_at.calls", "count"),
    ("dirac.residual.calls", "count"),
    ("dirac.residual.self_s", "s"),
    ("dirac.covariance.self_s", "s"),
    ("dirac.bilinears.self_s", "s"),
    ("spinors.self_s", "s"),
    *((f"suites.{s}.wall_s", "s") for s in SUITE_NAMES),
    ("scenario.build_s", "s"),
    ("report.write_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)
SETUP_SAMPLES = 9  # set-up probes per run, spread evenly over the workload's commands
# The yardsticks of CPU speed, timed after every untraced child: a fixed
# pure-Python loop, and faulting in fresh pages, with their fastest times on
# the machine of README.md (Steadiness), to which run_plain scales the user
# and the system time in wall_s and setup_s.
YARDSTICK_LOOPS = 1_500_000
YARDSTICK_S = 0.100
FAULT_BLOCKS = 64            # anonymous maps of 1 MiB, one write per 4 KiB page
FAULT_S = 0.040
RUN_DEADLINE_S = 170.0  # children still running this long after a run starts are killed


# ---------------------------------------------------------------------------
# correctness gate
# ---------------------------------------------------------------------------


def _reject_constant(name: str):
    raise ValueError(f"non-standard JSON constant {name}")


def gate_report(text: str | None, returncode: int, child: Child, seed: int | None,
                reference: bytes | None = None) -> tuple[int, list[str]]:
    """Failed expected checks of one child (0..len(expected)) and the reasons.

    Every expected check counts as failed when the child exited non-zero,
    the report is missing or is not strict JSON (``NaN`` rejected), its
    header disagrees with the command, or its bytes differ from an earlier
    report of the same command and seed.  Otherwise each expected check that
    is missing or not passed counts once.
    """
    total = len(child.expected)
    if returncode != 0:
        return total, [f"exit status {returncode}"]
    if text is None:
        return total, ["report missing"]
    try:
        report = json.loads(text, parse_constant=_reject_constant)
    except ValueError as exc:
        return total, [f"report is not strict JSON: {exc}"]
    if not isinstance(report, dict) or not isinstance(report.get("checks"), list):
        return total, ["report has no check list"]
    header = {"scenario": child.scenario, "grid": child.grid}
    if seed is not None:
        header["seed"] = seed
    wrong = [k for k, v in header.items() if report.get(k) != v]
    if wrong:
        return total, [f"report header mismatch on {', '.join(wrong)}"]
    if reference is not None and text.encode("utf-8") != reference:
        return total, ["report differs from an earlier run of the same seed"]
    passed = {(c.get("suite"), c.get("name")): c.get("passed") is True
              for c in report["checks"] if isinstance(c, dict)}
    bad = [f"{s}/{n}" for s, n in child.expected if not passed.get((s, n), False)]
    return len(bad), ([f"checks missing or failed: {', '.join(bad)}"] if bad else [])


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("VERIFY_THREADS", None)
    env["PYTHONPATH"] = str(SRC)
    return env


@dataclass
class Launch:
    returncode: int
    setup_s: float | None
    max_rss_mb: float
    report: str | None
    trace_path: Path
    start: float        # time.monotonic() at launch
    marks: list[float]  # setup_end and step marks, time.monotonic() readings
    cpu_s: tuple[float, float]  # user and system CPU seconds


class Runner:
    """Launches the commands of one workload in a private work directory."""

    def __init__(self, workload: str, seed: int | None, work: Path):
        self.workload = workload
        self.children = WORKLOADS[workload]
        self.seed = seed
        self.work = work
        self.reference: dict[str, bytes] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.setup: list[float] = []
        self.pieces: list[list[float]] = []
        self.yardstick: list[tuple[float, float]] = []
        self.cpu_s = {"setup": [0.0, 0.0], "plain": [0.0, 0.0]}  # user, system
        self.max_rss_mb = 0.0
        self._n = 0
        self._deadline = time.monotonic() + RUN_DEADLINE_S
        work.mkdir(parents=True, exist_ok=True)

    def _config(self, child: Child) -> str:
        if child.transport_steps is None:
            return child.scenario
        path = self.work / f"{child.scenario}-steps{child.transport_steps}.json"
        if not path.exists():
            cfg = json.loads((SRC / "sta" / "scenarios" / f"{child.scenario}.json")
                             .read_text(encoding="utf-8"))
            cfg["transport_steps"] = child.transport_steps
            path.write_text(json.dumps(cfg, indent=2), encoding="utf-8")
        return str(path)

    def launch(self, child: Child, mode: str) -> Launch:
        self._n += 1
        tag = self.work / f"c{self._n}"
        report_dir = self.work / "reports"
        report_path = report_dir / f"{child.scenario}.report.json"
        report_path.unlink(missing_ok=True)
        if mode.startswith("trace:"):
            mode = f"{mode}/{tag.name}"  # one run id per child
        argv = [sys.executable, str(BENCH / "child.py"), mode, f"{tag}.json",
                "run", self._config(child), *child.args, "--report-dir", str(report_dir)]
        if self.seed is not None:
            argv += ["--seed", str(self.seed)]
        with open(f"{tag}.log", "wb") as log:
            start = time.monotonic()
            proc = subprocess.Popen(argv, cwd=self.work, env=child_env(),
                                    stdin=subprocess.DEVNULL, stdout=log,
                                    stderr=subprocess.STDOUT)
            killer = threading.Timer(max(0.0, self._deadline - start), proc.kill)
            killer.start()
            try:
                # wait4 gives this child's own peak RSS; RUSAGE_CHILDREN would be
                # the running maximum over every child waited for so far.
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        marks = _read_json(Path(f"{tag}.json")) or {}
        setup_end = marks.get("setup_end")
        report = report_path.read_text(encoding="utf-8") if report_path.exists() else None
        return Launch(proc.returncode,
                      None if setup_end is None else setup_end - start,
                      usage.ru_maxrss / 1024.0, report, Path(f"{tag}.json.trace"), start,
                      ([] if setup_end is None else [setup_end]) + marks.get("steps", []),
                      (usage.ru_utime, usage.ru_stime))

    def probe_setup(self, child: Child) -> None:
        got = self.launch(child, "setup")
        self.yardstick.append(yardstick_s())
        self._add_cpu("setup", got)
        if got.returncode != 0 or got.setup_s is None:
            self.problems.append(f"set-up probe of {child.label} failed "
                                 f"(exit status {got.returncode})")
        else:
            self.setup.append(got.setup_s)

    def run_pass(self, mode: str = "plain") -> tuple[float, list[Launch]]:
        """Run every command once and gate its report; seconds include the gate.

        Appends to ``self.pieces`` the pass's steps: for each child, the
        intervals between its launch, its set-up end and step marks
        (``child.py``) and the end of its gate.  They add up to the pass's
        seconds.  An untraced child is followed by a yardstick sample, which
        falls outside the steps.
        """
        steps: list[float] = []
        launches = []
        for child in self.children:
            got = self.launch(child, mode)
            failed, why = gate_report(got.report, got.returncode, child, self.seed,
                                      self.reference.get(child.label))
            if got.report is not None and child.label not in self.reference and not failed:
                self.reference[child.label] = got.report.encode("utf-8")
            self.attempted += len(child.expected)
            self.failed += failed
            self.problems += [f"{child.label}: {w}" for w in why]
            if got.setup_s is not None:
                self.setup.append(got.setup_s)
            self.max_rss_mb = max(self.max_rss_mb, got.max_rss_mb)
            launches.append(got)
            stamps = [got.start, *got.marks, time.monotonic()]
            steps += [b - a for a, b in zip(stamps, stamps[1:])]
            if mode == "plain":
                self.yardstick.append(yardstick_s())
                self._add_cpu("plain", got)
        self.pieces.append(steps)
        return sum(steps), launches

    def _add_cpu(self, kind: str, got: Launch) -> None:
        for i, t in enumerate(got.cpu_s):
            self.cpu_s[kind][i] += t

    def speed(self, kind: str) -> float:
        """Fixed over measured speed for the children of one kind.

        The user time is scaled by the loop yardstick and the system time,
        mostly page faults, by the fault yardstick, each at its fastest in
        the run; the factor weights the two by the children's CPU times.
        """
        user, system = self.cpu_s[kind]
        loop = YARDSTICK_S / min(y[0] for y in self.yardstick)
        fault = FAULT_S / min(y[1] for y in self.yardstick)
        return (user * loop + system * fault) / (user + system) if user + system else loop

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def yardstick_s() -> tuple[float, float]:
    """Seconds of a fixed pure-Python loop, and of faulting in fresh pages.

    The maps are small, so that this process's peak RSS, which a child
    inherits in its ``ru_maxrss`` when it is forked, stays below the
    children's own.
    """
    import mmap

    start = time.perf_counter()
    total = 0
    for i in range(YARDSTICK_LOOPS):
        total += i * i
    middle = time.perf_counter()
    for _ in range(FAULT_BLOCKS):
        with mmap.mmap(-1, 1 << 20) as block:
            for page in range(0, 1 << 20, 4096):
                block[page] = 1
    return middle - start, time.perf_counter() - middle


def _read_json(path: Path):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def fastest_steps(pieces: list[list[float]]) -> float:
    """Sum over the steps of a pass of each step's fastest time in the run.

    Passes whose step count differs from the usual one (a child that failed
    the gate) are left out.
    """
    usual = Counter(map(len, pieces)).most_common(1)[0][0]
    return sum(map(min, zip(*(p for p in pieces if len(p) == usual))))


def run_plain(runner: Runner, seconds: float) -> dict:
    """Untraced passes for ``seconds``; fastest steps and set-up at a fixed speed.

    Another pass starts only while the fastest pass so far still fits in the
    time left, so a run lasts about ``seconds``.  Other tenants of a shared
    host slow a CPU by up to half, in stretches of seconds to minutes, and
    only ever add time.  ``wall_s`` is therefore the sum over the steps of a
    pass of each step's fastest time in the run, and ``setup_s`` the fastest
    set-up.  Both are then scaled by ``Runner.speed``, which takes out a
    slowdown that lasted the whole run.  README.md, Steadiness, has the
    figures.  The comment line gives the passes as measured.
    """
    runner.probe_setup(runner.children[0])  # warm-up: bytecode and file caches
    runner.setup.clear()
    for i in range(SETUP_SAMPLES):
        runner.probe_setup(runner.children[i % len(runner.children)])
    walls = []
    start = time.monotonic()
    while not walls or time.monotonic() - start + min(walls) <= seconds:
        wall, _ = runner.run_pass()
        walls.append(wall)
    ratio = 1.0 - runner.failed / runner.attempted
    steps = fastest_steps(runner.pieces)
    # no set-up samples only when every probe failed, which the gate reports
    setup = min(runner.setup, default=0.0)
    values = {
        "wall_s": steps * runner.speed("plain"),
        "setup_s": setup * runner.speed("setup"),
        "peak_rss_mb": runner.max_rss_mb,
        "check_pass_ratio": ratio,
    }
    q1, q2, q3 = statistics.quantiles(walls, n=4) if len(walls) > 1 else walls * 3
    print(f"# {runner.workload}: {len(walls)} passes of {len(runner.pieces[0])} steps, "
          f"pass seconds {', '.join(f'{w:.3f}' for w in walls)} (quartiles {q1:.3f} "
          f"{q2:.3f} {q3:.3f}); fastest steps {steps:.4f} s, fastest set-up {setup:.4f} s "
          f"of {len(runner.setup)}, fastest yardsticks "
          f"{min(y[0] for y in runner.yardstick):.5f} s and "
          f"{min(y[1] for y in runner.yardstick):.5f} s of {len(runner.yardstick)}, "
          f"children's user and system time {runner.cpu_s['plain'][0]:.2f} s and "
          f"{runner.cpu_s['plain'][1]:.2f} s; check_fail_ratio {runner.failed}/{runner.attempted} "
          f"= {1.0 - ratio:.4f}")
    return {name: _metric(values[name], unit) for name, unit in END_TO_END}


def layer_metrics(traces: list[dict]) -> dict[str, float]:
    """Per-layer metrics summed over the traced children of one pass."""
    counts: Counter = Counter()
    self_s: dict[str, float] = defaultdict(float)
    total_s: dict[str, float] = defaultdict(float)
    for trace in traces:
        counts.update(trace["counts"])
        covered: dict[int, float] = defaultdict(float)
        for _, _, start, end, parent in trace["spans"]:
            covered[parent] += end - start
        for sid, name, start, end, _ in trace["spans"]:
            total_s[name] += end - start
            self_s[name] += end - start - covered[sid]

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    gp_self = self_s["algebra.gp_batch"]
    nodes, hits = counts["fields.evaluate.nodes"], counts["fields.evaluate.memo_hits"]
    steps = counts["geometry.transport.steps"]
    out = {
        "algebra.gp_batch.calls": counts["algebra.gp_batch.calls"],
        "algebra.gp_batch.rows": counts["algebra.gp_batch.rows"],
        "algebra.gp_batch.complex_rows": counts["algebra.gp_batch.complex_rows"],
        "algebra.gp_batch.self_s": gp_self,
        "algebra.gp_batch.rows_per_s": ratio(counts["algebra.gp_batch.rows"], gp_self),
        "algebra.gp_batch.bytes_computed": counts["algebra.gp_batch.bytes_computed"],
        "fields.evaluate.nodes": nodes,
        "fields.evaluate.memo_hits": hits,
        "fields.evaluate.memo_hit_ratio": ratio(hits, hits + nodes),
        "fields.evaluate.product_nodes": counts["fields.evaluate.product_nodes"],
        "fields.evaluate.self_s": self_s["fields.evaluate"],
        "geometry.deriv_build.calls": counts["geometry.deriv_build.calls"],
        "geometry.deriv_build.self_s": self_s["geometry.deriv_build"],
        "geometry.transport.steps": steps,
        "geometry.transport.self_s": self_s["geometry.transport"],
        "geometry.transport.s_per_step": ratio(total_s["geometry.transport"], steps),
        "geometry.omega_coord_at.calls": counts["geometry.omega_coord_at.calls"],
        "dirac.residual.calls": counts["dirac.residual.calls"],
        "dirac.residual.self_s": self_s["dirac.residual"],
        "dirac.covariance.self_s": self_s["dirac.covariance"],
        "dirac.bilinears.self_s": self_s["dirac.bilinears"],
        "spinors.self_s": self_s["spinors"],
        "scenario.build_s": total_s["scenario.build"],
        "report.write_s": total_s["report.write"],
    }
    for s in SUITE_NAMES:
        out[f"suites.{s}.wall_s"] = total_s[f"suites.{s}"]
    return out


def run_traced(runner: Runner) -> dict:
    """A traced pass between two untraced ones; all reports must be byte-identical.

    The untraced passes bracket the traced one so that a drift in machine
    speed over the run moves both sides of ``trace.overhead_ratio`` alike.
    """
    before, _ = runner.run_pass()
    mode = f"trace:{runner.workload}/{runner.seed}"
    traced_wall, launches = runner.run_pass(mode)
    after, _ = runner.run_pass()
    plain_wall = (before + after) / 2
    traces = [_read_json(got.trace_path) for got in launches]
    if any(t is None for t in traces):
        runner.problems.append("a traced child wrote no trace")
        traces = [t for t in traces if t is not None]
    values = layer_metrics(traces)
    values["trace.overhead_ratio"] = traced_wall / plain_wall
    print(f"# {runner.workload}: untraced passes {before:.3f} and {after:.3f} s, "
          f"traced pass {traced_wall:.3f} s")
    return {name: _metric(values[name], unit) for name, unit in PER_LAYER}


def run_workload(workload: str, seed: int | None, seconds: float, trace: bool) -> dict:
    work = WORK / f"{workload}-{os.getpid()}"
    runner = Runner(workload, seed, work)
    metrics = run_traced(runner) if trace else run_plain(runner, seconds)
    for problem in runner.problems:
        print(f"# gate: {problem}")
    if runner.correct:
        shutil.rmtree(work, ignore_errors=True)
    else:
        print(f"# logs and reports kept in {work}")
    return {"correct": runner.correct, "attempted": runner.attempted,
            "failed": runner.failed, "metrics": metrics}


# ---------------------------------------------------------------------------
# machine facts and entry point
# ---------------------------------------------------------------------------


def _blas_threads(numpy_dir: Path):
    import ctypes

    for lib in sorted((numpy_dir.parent / "numpy.libs").glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine_facts(cpus: list[int]) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(cpus),
        "bench_cpu": min(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(Path(numpy.__file__).parent),
        "numba_importable": find_spec("numba") is not None,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    p.add_argument("--seed", type=int, default=None,
                   help="passed to every `verify run` as --seed [the scenarios' own seeds]")
    p.add_argument("--seconds", type=float, default=35.0, help="measured time per workload")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "sta" / "cli.py").is_file():
        print(f"error: no sta package under {SRC}", file=sys.stderr)
        return 2
    # The benchmark and its children share one CPU, so that the yardstick
    # is timed on the CPU the program runs on.  BLAS then runs one thread.
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[0]})
    print("# machine: " + json.dumps(machine_facts(cpus)))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in names}
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
    else:
        for w, res in results.items():
            status = "ok" if res["correct"] else "FAILED"
            print(f"{w}: {status}")
            for name, m in res["metrics"].items():
                print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
            print(f"  {'check_fail_ratio':34s} {res['failed'] / res['attempted']:.6g} ratio "
                  f"({res['failed']} of {res['attempted']} checks)")
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
