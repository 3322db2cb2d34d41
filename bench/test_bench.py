"""Self-tests of the benchmark harness: python3 -m pytest -q bench"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run

DAG = run.WORKLOADS["derivatives-dag"][0]


@pytest.fixture(scope="module")
def dag_passes(tmp_path_factory):
    """derivatives-dag with its shipped seed: one untraced and two traced passes."""
    runner = run.Runner("derivatives-dag", None, tmp_path_factory.mktemp("work"))
    _, (plain,) = runner.run_pass()
    _, (traced1,) = runner.run_pass("trace:test/1")
    _, (traced2,) = runner.run_pass("trace:test/2")
    return runner, plain, traced1, traced2


def _trace(launch) -> dict:
    return run._read_json(launch.trace_path)


def test_traced_and_untraced_reports_are_byte_identical(dag_passes):
    runner, plain, traced1, traced2 = dag_passes
    assert runner.correct, runner.problems
    assert plain.report is not None
    assert traced1.report == plain.report == traced2.report


def test_trace_catches_kernel_calls_made_inside_fields(dag_passes):
    _, _, traced, _ = dag_passes
    metrics = run.layer_metrics([_trace(traced)])
    assert metrics["algebra.gp_batch.calls"] > 0
    assert metrics["algebra.gp_batch.self_s"] > 0
    # the derivative suite's kernel calls all come from Product._eval
    assert metrics["fields.evaluate.product_nodes"] > 0
    assert metrics["suites.derivatives.wall_s"] > 0


def test_trace_counts_repeat_and_match_outside_probes(dag_passes):
    _, _, traced1, traced2 = dag_passes
    counts = _trace(traced1)["counts"]
    assert counts == _trace(traced2)["counts"]
    assert counts["fields.evaluate.nodes"] == 16851
    assert counts["fields.evaluate.memo_hits"] == 4815
    assert counts["fields.evaluate.product_nodes"] == 3441


def test_spans_nest_and_carry_the_run_id(dag_passes):
    _, _, traced, _ = dag_passes
    trace = _trace(traced)
    assert trace["run_id"].startswith("test/1/")
    spans = {sid: (name, start, end, parent) for sid, name, start, end, parent in trace["spans"]}
    for name, start, end, parent in spans.values():
        assert start <= end
        if parent:
            _, p_start, p_end, _ = spans[parent]
            assert p_start <= start and end <= p_end


def test_steps_split_an_untraced_pass(dag_passes):
    runner, _, _, _ = dag_passes
    steps = runner.pieces[0]  # the untraced pass
    assert len(steps) > 100 and min(steps) >= 0
    assert run.fastest_steps(runner.pieces[:1]) == pytest.approx(sum(steps))


def test_fastest_steps_sums_each_steps_minimum():
    # the pass with another step count (a failed child) is left out
    assert run.fastest_steps([[1.0, 5.0], [2.0, 3.0], [0.5], [4.0, 4.0]]) == 4.0


def test_speed_weights_the_yardsticks_by_cpu_time(tmp_path):
    runner = run.Runner("transport-steps", None, tmp_path)
    # fastest loop at half the fixed speed, fastest faults at the fixed speed
    runner.yardstick = [(2 * run.YARDSTICK_S, run.FAULT_S),
                        (4 * run.YARDSTICK_S, 3 * run.FAULT_S)]
    runner.cpu_s["plain"] = [3.0, 1.0]  # user, system
    assert runner.speed("plain") == pytest.approx((3.0 * 0.5 + 1.0 * 1.0) / 4.0)
    assert runner.speed("setup") == pytest.approx(0.5)  # no CPU time: the loop alone


def _corrupt(text: str, edit) -> str:
    report = json.loads(text)
    edit(report)
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def test_gate_counts_corrupted_reports(dag_passes):
    _, plain, _, _ = dag_passes
    total = len(DAG.expected)
    good = plain.report
    assert run.gate_report(good, 0, DAG, None, good.encode()) == (0, [])

    def fail_one(r):
        r["checks"][0]["passed"] = False

    failed, why = run.gate_report(_corrupt(good, fail_one), 0, DAG, None)
    assert failed == 1 and why

    nan_text = good.replace('"value": ', '"value": NaN, "was": ', 1)
    assert run.gate_report(nan_text, 0, DAG, None)[0] == total

    def drop_one(r):
        del r["checks"][-1]

    assert run.gate_report(_corrupt(good, drop_one), 0, DAG, None)[0] == 1
    assert run.gate_report(good, 1, DAG, None)[0] == total
    assert run.gate_report(None, 0, DAG, None)[0] == total
    assert run.gate_report(good, 0, DAG, 7)[0] == total  # seed header mismatch
    assert run.gate_report(good, 0, DAG, None, b"other bytes")[0] == total


def test_benchmark_json_matches_the_harness():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


def test_exits_non_zero_without_the_source_tree(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "forms-grid",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
    assert not (tmp_path / ".bench_run").exists()
