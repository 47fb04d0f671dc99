"""Tests of the benchmark itself: seeded inputs, span coverage, the gate.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

run.import_domlab()

import domlab as dl  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

REF = workloads.load_reference()

# Where each layer is expected to do work: the workload whose end-to-end
# metrics it should move (see bench/README.md).
LAYER_HOME = {
    "solver.gamma_bb": ("sweep", "grid_solve"),
    "solver.gamma_restricted": ("trace_replay",),
    "solver.enumerate_minimum_dominating_sets": ("remark",),
    "graphs.cartesian_product": ("trace_replay", "sweep"),
    "trace.build_trace": ("trace_replay",),
    "trace.verify_trace": ("trace_replay",),
    "trace.contradiction_witness": ("trace_replay",),
    "trace.remark_trace": ("remark",),
    "harness.check_pair": ("sweep",),
    "harness.sweep": ("sweep",),
    "harness.pair_report_row": ("sweep",),
    "harness.remark_search": ("remark",),
    "harness.enumerate_connected_graphs": ("sweep", "remark"),
    "graph6.encode_graph6": ("sweep",),
}

# Operations enough to reach every layer above, kept short.
SHORT_OPS = {"sweep": 1, "grid_solve": 1, "trace_replay": 2, "remark": 2}


def traced_short_run(name: str):
    wl = workloads.WORKLOADS[name](REF)
    tracer = spans.Tracer()
    with tracer.active():
        schedule = wl.build(5, workloads.Stopwatch())
        phase = run.Phase(wl, schedule).run(count=SHORT_OPS[name])
    return wl, schedule, phase, tracer


@pytest.fixture(scope="module")
def traced():
    return {name: traced_short_run(name) for name in workloads.WORKLOADS}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_are_determined_by_the_seed(name):
    wl = workloads.WORKLOADS[name](REF)
    first = wl.describe(wl.build(11, workloads.Stopwatch()))
    again = wl.describe(wl.build(11, workloads.Stopwatch()))
    other = wl.describe(wl.build(12, workloads.Stopwatch()))
    assert first == again
    assert first != other


def test_every_layer_gets_spans_on_its_workload(traced):
    for layer, homes in LAYER_HOME.items():
        for name in homes:
            assert traced[name][3].calls(layer) >= 1, (layer, name)
    assert traced["sweep"][3].counters["solver.gamma_bb.repeats"] >= 1
    assert traced["remark"][3].counters["harness.remark_search.examined"] >= 1
    assert traced["trace_replay"][3].counters["graphs.product_vertices"] >= 500


def test_wrappers_see_nested_calls_and_are_removed(traced):
    tracer = traced["sweep"][3]
    # check_pair calls the gamma_bb that harness imported: three per pair.
    assert tracer.calls("solver.gamma_bb") == 3 * tracer.calls("harness.check_pair")
    assert dl.gamma_bb.__module__ == "domlab.solver"
    assert not hasattr(dl.harness.gamma_bb, "__wrapped__")
    assert not hasattr(dl.gamma_bb, "__wrapped__")


def test_self_times_add_up_to_the_outermost_spans():
    g, h = dl.path(3), dl.cycle(4)
    tracer = spans.Tracer()
    with tracer.active():
        dl.check_pair(g, h)
    outer = tracer.phases["run"]["harness.check_pair"]
    assert sum(s.self_ns for s in tracer.phases["run"].values()) == outer.total_ns
    assert 0 < outer.self_ns < outer.total_ns


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_gate_passes_on_the_library_answers(traced, name):
    wl, schedule, phase, _ = traced[name]
    verdict = wl.check(schedule, phase.ops, phase.answers)
    assert verdict.correct, verdict.notes
    assert verdict.attempted >= 1


def corrupted_reference(name: str, ops: list) -> dict:
    """A copy of the reference with the first checked answer changed."""
    ref = copy.deepcopy(REF)
    if name == "sweep":
        i, j = ops[0][0][:2]
        count = len(ref["sweep"]["gamma"])
        ref["sweep"]["gamma_product"][workloads._pair_index(i, j, count)] += 1
    else:
        ref["remark"]["pairs"][ops[0][0]][1] += 1
    return ref


@pytest.mark.parametrize("name", ["sweep", "remark"])
def test_gate_trips_on_a_corrupted_reference(traced, name):
    _, schedule, phase, _ = traced[name]
    wl = workloads.WORKLOADS[name](corrupted_reference(name, phase.ops))
    verdict = wl.check(schedule, phase.ops, phase.answers)
    assert not verdict.correct
    assert verdict.failed >= 1
    assert verdict.answers != verdict.expected


def test_gate_trips_on_a_wrong_grid_answer(traced):
    wl, schedule, phase, _ = traced["grid_solve"]
    gamma, witness = phase.answers[0]
    verdict = wl.check(schedule, phase.ops, [(gamma - 1, witness)])
    assert not verdict.correct and verdict.failed == 1


def test_run_exits_nonzero_when_the_digest_does_not_match(monkeypatch, capsys):
    real = workloads.load_reference
    def load_corrupted():
        ref = real()
        ref["remark"]["pairs"]["path:4 x path:4"][1] += 1
        return ref
    monkeypatch.setattr(workloads, "load_reference", load_corrupted)
    code = run.main(["--workload", "remark", "--seed", "1", "--seconds", "0.01", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] >= 1


def test_benchmark_json_names_every_printed_metric():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
