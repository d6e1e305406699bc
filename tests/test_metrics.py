"""Report shaping: tables, CSV layout, JSON round-trips, and comparison."""

import csv
import io
import json

import pytest

from numasim.engine import Scenario, Simulation, WorkloadEntry, run_scenario
from numasim.metrics import (
    CSV_COLUMNS,
    MetricsReport,
    compare,
    compare_csv,
    finalize,
)
from numasim.sched import PolicyKind
from numasim.workload import preset


def small_scenario(policy_kind="linux", seed=1, timeseries=False, name="t"):
    policy = PolicyKind(policy_kind)
    spec = preset("gups_like", thread_count=2, footprint_pages=256)
    return Scenario({"nodes": 2, "cores_per_node": 2}, [WorkloadEntry(spec)],
                    policy, duration_quanta=12, rng_seed=seed,
                    quantum_cycles=1000, timeseries=timeseries, name=name)


def small_report(**kw):
    scenario = small_scenario(**kw)
    return finalize(Simulation(scenario).run(), scenario), scenario


def test_report_tables_are_consistent():
    report, scenario = small_report()
    assert report.scenario_name == "t"
    assert report.policy_kind == "linux"
    assert report.seed == 1
    assert report.quanta == 12
    assert len(report.per_task) == 2
    assert len(report.per_process) == 1
    assert len(report.per_node) == 2
    assert report.totals["tasks"] == 2
    assert report.totals["processes"] == 1
    for key in ("total_cycles", "pagewalk_cycles", "dtlb_misses",
                "bandwidth_bytes"):
        assert report.totals[key] == sum(r[key] for r in report.per_task)
    proc = report.per_process[0]
    assert proc["threads"] == 2
    assert proc["total_cycles"] == report.totals["total_cycles"]
    assert proc["replica_count"] == 1
    assert proc["mapped_pages"] == 256
    for row in report.per_task:
        assert row["pw_ratio"] == round(
            row["pagewalk_cycles"] / row["total_cycles"], 4)
        assert 0.0 <= row["remote_walk_fraction"] <= 1.0


def test_csv_has_the_pinned_columns_and_rows():
    report, _ = small_report()
    text = report.to_csv()
    lines = text.splitlines()
    assert lines[0] == ("task_id,process,policy,total_cycles,pagewalk_cycles,"
                        "stall_cycles,dtlb_misses,tlb_hits,"
                        "replica_update_cycles,shootdown_cycles,"
                        "data_migrations,replica_count,pw_ratio,"
                        "remote_walk_fraction,bandwidth_bytes")
    assert len(lines) == 1 + 2 + 2 + 1  # header, tasks, nodes, summary
    rows = list(csv.DictReader(io.StringIO(text)))
    assert [r["task_id"] for r in rows] == ["0", "1", "node0", "node1",
                                            "total"]
    assert all(r["policy"] == "linux" for r in rows)
    assert rows[0]["process"] == "0"
    assert rows[2]["process"] == ""
    assert rows[2]["replica_count"] == ""
    task_total = sum(int(r["total_cycles"]) for r in rows[:2])
    assert int(rows[4]["total_cycles"]) == task_total
    node_total = sum(int(r["total_cycles"]) for r in rows[2:4])
    assert node_total == task_total


def test_csv_columns_constant_matches_the_header():
    report, _ = small_report()
    assert report.to_csv().splitlines()[0] == ",".join(CSV_COLUMNS)


def test_json_round_trip_preserves_everything():
    report, _ = small_report(timeseries=True)
    clone = MetricsReport(**json.loads(report.to_json()))
    assert clone.to_dict() == report.to_dict()
    assert clone.to_csv() == report.to_csv()


def test_timeseries_rows_only_when_enabled():
    report, _ = small_report(timeseries=True)
    assert report.timeseries
    first = report.timeseries[0]
    assert {"task_id", "window", "quantum", "total_cycles",
            "pw_ratio"} <= set(first)
    header = report.timeseries_csv().splitlines()[0]
    assert header == ("task_id,window,quantum,total_cycles,pagewalk_cycles,"
                      "stall_cycles,dtlb_misses,llc_misses,pw_ratio")
    plain, _ = small_report()
    assert plain.timeseries == []


def synthetic(policy, total_cycles, base_fp="fp"):
    return MetricsReport(
        scenario_name="s", policy_kind=policy, seed=1, quanta=10,
        fingerprint=f"{policy}-print", base_fingerprint=base_fp,
        totals={"total_cycles": total_cycles, "pagewalk_cycles": 10,
                "stall_cycles": 5, "bandwidth_bytes": 100,
                "pw_ratio": 0.01, "actions": 0})


def test_compare_reports_speedup_against_the_first():
    comparison = compare([synthetic("linux", 2000),
                          synthetic("phoenix", 1000)])
    assert comparison["baseline_policy"] == "linux"
    rows = comparison["policies"]
    assert rows[0]["speedup"] == 1.0
    assert rows[1]["speedup"] == 2.0
    assert rows[1]["policy"] == "phoenix"


def test_compare_of_identical_runs_is_flat():
    rows = compare([synthetic("linux", 1500),
                    synthetic("linux", 1500)])["policies"]
    assert [r["speedup"] for r in rows] == [1.0, 1.0]


def test_compare_refuses_mismatched_scenarios():
    with pytest.raises(ValueError, match="not comparable"):
        compare([synthetic("linux", 2000),
                 synthetic("phoenix", 1000, base_fp="other")])
    with pytest.raises(ValueError):
        compare([synthetic("linux", 2000)])


def test_compare_csv_layout():
    text = compare_csv(compare([synthetic("linux", 2000),
                                synthetic("phoenix", 1000)]))
    lines = text.splitlines()
    assert lines[0] == ("scenario,policy,total_cycles,pagewalk_cycles,"
                        "stall_cycles,bandwidth_bytes,pw_ratio,actions,"
                        "speedup")
    assert len(lines) == 3
    assert lines[1].startswith("s,linux,2000,")
    assert lines[2].endswith(",2.0")


def test_real_runs_with_same_inputs_are_comparable_across_policies():
    linux, _ = small_report(policy_kind="linux")
    phoenix, _ = small_report(policy_kind="phoenix")
    comparison = compare([linux, phoenix])
    assert {r["policy"] for r in comparison["policies"]} \
        == {"linux", "phoenix"}
    mismatched, _ = small_report(policy_kind="phoenix", seed=9)
    with pytest.raises(ValueError):
        compare([linux, mismatched])


def test_run_scenario_returns_a_finalized_report():
    report = run_scenario(small_scenario(policy_kind="mitosis"))
    assert isinstance(report, MetricsReport)
    assert report.policy_kind == "mitosis"
    assert len(report.per_task) == 2
    assert report.per_process[0]["replica_count"] == 2
    assert report.per_process[0]["replica_nodes"] == "0|1"
