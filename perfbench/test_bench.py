"""Checks on the benchmark itself: the tracer's bindings, its exact counts, its
bounded memory, and the report checks that gate correctness.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import layertrace  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from workloads import HELD_OUT_SEED, WORKLOADS  # noqa: E402

from numasim import cli, engine, metrics, mmu, pagetable, topology  # noqa: E402

# long enough for an autonuma scan (quantum 50), a phoenix throttle of the
# mba hog (which starts at 60) and the backlog it leaves
QUANTA = 90


@pytest.fixture
def tracer():
    tracer = layertrace.Tracer()
    uninstall = layertrace.install(tracer)
    try:
        yield tracer
    finally:
        uninstall()


def _raws(wl, seed=None):
    base = cli.load_scenario_file(str(ROOT / wl.scenario))
    for policy in wl.policies:
        raw = wl.raw_for(base, policy, seed)
        raw["run"]["duration"] = min(QUANTA, raw["run"]["duration"])
        yield raw


def test_every_binding_of_a_traced_function_is_patched(tracer):
    latency = topology.access_latency
    assert getattr(latency, "__name__", "") == "traced"
    assert engine.access_latency is latency
    assert mmu.access_latency is latency
    assert pagetable.access_latency is latency
    for name in layertrace.MUTATIONS + ("add_replica", "migrate_tables"):
        assert getattr(engine, name) is getattr(pagetable, name), name
        assert getattr(engine, name).__name__ == "traced", name


def test_uninstall_restores_the_originals():
    original = topology.access_latency
    uninstall = layertrace.install(layertrace.Tracer())
    assert engine.access_latency is not original
    uninstall()
    assert engine.access_latency is original
    assert topology.access_latency is original
    assert mmu.Mmu.__dict__["tlb_lookup"].__name__ == "tlb_lookup"


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_trace_counts_equal_report_counts_and_reports_are_unchanged(name):
    # at the held-out seed, where only the invariants gate correctness
    wl = WORKLOADS[name]
    raws = list(_raws(wl, HELD_OUT_SEED))
    plain = [worker.check_op(worker.run_op(cli, engine, metrics, raw, None), None)
             for raw in raws]
    tracer = layertrace.Tracer()
    uninstall = layertrace.install(tracer)
    try:
        traced = [worker.check_op(worker.run_op(cli, engine, metrics, raw, tracer),
                                  None)
                  for raw in raws]
    finally:
        uninstall()
    for before, after in zip(plain, traced):
        assert after["problems"] == [], after["problems"]
        assert after["digest"] == before["digest"]
        calls = after["trace"]["calls"]
        totals = after["totals"]
        assert calls["mmu.tlb_lookup"] == totals["tlb_hits"] + totals["dtlb_misses"]
        assert calls["pagetable.translate"] == calls["mmu.page_walk"]
        assert after["trace"]["counters"]["events_generated"] == \
            totals["events_issued"] + after["backlog"]
    layers = worker.layer_metrics(traced)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == {
        n: run.layer_unit(n) for n in [*layers, "trace_overhead"]}
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == \
        run.END_TO_END_UNITS
    assert layers["engine.step.calls"] == QUANTA * len(wl.policies)
    if name == "throttled":
        assert layers["engine.backlog_events.max"] > 0
        assert layers["workload.issue_ratio"] < 1.0
    else:
        assert layers["workload.issue_ratio"] == 1.0


def test_fine_calls_are_aggregated_and_coarse_calls_keep_spans():
    tracer = layertrace.Tracer()
    fine = tracer.wrap(lambda x: x + 1, "topology.access_latency")
    step = tracer.wrap(lambda n: [fine(i) for i in range(n)], "engine.step")
    for _ in range(3):
        step(10_000)
    assert len(tracer.spans) == 3
    assert tracer.calls.keys() == {("topology.access_latency", "engine.step")}
    assert tracer.call_count("topology.access_latency") == 30_000
    assert tracer.call_count("engine.step") == 3
    step_total = sum(tracer.durations("engine.step"))
    fine_total = tracer.calls[("topology.access_latency", "engine.step")][1]
    assert tracer.self_seconds("engine.step") == pytest.approx(
        step_total - fine_total)


def test_report_checks_catch_broken_invariants():
    wl = WORKLOADS["interference"]
    raw = next(_raws(wl))
    raw["run"]["duration"] = 20
    op = worker.run_op(cli, engine, metrics, raw, None)
    report = json.loads(op["text"])
    assert worker.report_problems(report) == []

    report["per_node"][0]["tlb_hits"] += 1
    report["per_task"][0]["stall_cycles"] = report["per_task"][0]["total_cycles"] + 1
    problems = worker.report_problems(report)
    assert any(p.startswith("tlb_hits:") for p in problems)
    assert any("stall_cycles" in p and p.startswith("task ") for p in problems)
    assert worker.check_op(op, "0" * 64)["problems"][0].startswith("report sha256")
