"""Result aggregation and reporting.

Turns raw simulation counters into per-task, per-process, per-node, and
whole-run tables, serializes them to JSON and a fixed-column CSV, and
compares runs across policies.  Comparison refuses to mix runs whose
scenarios differ in anything but the policy block.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict, dataclass, field, fields
from typing import Dict, List

RATIO_DECIMALS = 4

CSV_COLUMNS = [
    "task_id", "process", "policy", "total_cycles", "pagewalk_cycles",
    "stall_cycles", "dtlb_misses", "tlb_hits", "replica_update_cycles",
    "shootdown_cycles", "data_migrations", "replica_count", "pw_ratio",
    "remote_walk_fraction", "bandwidth_bytes",
]

TIMESERIES_COLUMNS = [
    "task_id", "window", "quantum", "total_cycles", "pagewalk_cycles",
    "stall_cycles", "dtlb_misses", "llc_misses", "pw_ratio",
]


def csv_text(columns, rows) -> str:
    """rows as CSV under columns; missing cells empty, extra keys dropped."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=columns, restval="",
                            extrasaction="ignore", lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def _ratio(num: float, den: float) -> float:
    return round(num / den, RATIO_DECIMALS) if den else 0.0


def _counter_row(counter_sets: List) -> Dict[str, float]:
    """Every CounterSet field summed over counter_sets, plus pw_ratio and
    remote_walk_fraction."""
    from .engine import CounterSet  # engine imports this module
    row: Dict[str, float] = {
        f.name: sum(getattr(c, f.name) for c in counter_sets)
        for f in fields(CounterSet)}
    row["pw_ratio"] = _ratio(row["pagewalk_cycles"], row["total_cycles"])
    row["remote_walk_fraction"] = _ratio(row["walk_remote_accesses"],
                                         row["walk_mem_accesses"])
    return row


@dataclass
class MetricsReport:
    scenario_name: str
    policy_kind: str
    seed: int
    quanta: int
    fingerprint: str
    base_fingerprint: str
    per_task: List[dict] = field(default_factory=list)
    per_process: List[dict] = field(default_factory=list)
    per_node: List[dict] = field(default_factory=list)
    totals: Dict[str, int] = field(default_factory=dict)
    actions: List[dict] = field(default_factory=list)
    timeseries: List[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def to_csv(self) -> str:
        """One row per task and per node, plus a summary row, fixed columns."""
        kind = self.policy_kind
        rows = [{**row, "process": row["process_id"], "policy": kind}
                for row in self.per_task]
        rows += [{**row, "task_id": f"node{row['node_id']}", "process": "",
                  "policy": kind, "replica_count": ""} for row in self.per_node]
        rows.append({**self.totals, "task_id": "total", "process": "",
                     "policy": kind, "replica_count": ""})
        return csv_text(CSV_COLUMNS, rows)

    def timeseries_csv(self) -> str:
        return csv_text(TIMESERIES_COLUMNS, self.timeseries)


def finalize(result, scenario) -> MetricsReport:
    report = MetricsReport(
        scenario_name=scenario.name,
        policy_kind=scenario.policy.kind,
        seed=scenario.rng_seed,
        quanta=result.quantum,
        fingerprint=scenario.fingerprint(),
        base_fingerprint=scenario.base_fingerprint(),
        actions=list(result.actions))

    for task in result.tasks:
        proc = result.processes[task.process_id]
        row = {"task_id": task.task_id, "process_id": proc.pid,
               "workload": proc.spec.name,
               "priority": proc.priority,
               "home_node": proc.space.home_node,
               "final_core": task.current_core,
               **_counter_row([task.counters]),
               "replica_count": proc.space.replica_count}
        report.per_task.append(row)
        for i, window in enumerate(task.window_history):  # timeseries only
            report.timeseries.append({
                **window, "task_id": task.task_id, "window": i,
                "pw_ratio": round(window["pw_ratio"], RATIO_DECIMALS)})

    for proc in result.processes:
        space = proc.space
        row = {"process_id": proc.pid, "workload": proc.spec.name,
               "priority": proc.priority, "threads": len(proc.tasks),
               "home_node": space.home_node,
               "replica_count": space.replica_count,
               "replica_nodes": "|".join(str(n) for n in sorted(space.replicas)),
               "mapped_pages": space.mappings_count,
               **_counter_row([t.counters for t in proc.tasks])}
        report.per_process.append(row)

    for node_id in sorted(result.node_counters):
        report.per_node.append(
            {"node_id": node_id,
             **_counter_row([result.node_counters[node_id]])})

    report.totals = _counter_row([t.counters for t in result.tasks])
    report.totals.update(tasks=len(result.tasks),
                         processes=len(result.processes),
                         actions=len(result.actions))
    return report


def compare(reports: List[MetricsReport]) -> dict:
    """Side-by-side totals with speedups relative to the first report."""
    if len(reports) < 2:
        raise ValueError("compare needs at least two reports")
    base = reports[0]
    for other in reports[1:]:
        if other.base_fingerprint != base.base_fingerprint:
            raise ValueError(
                "reports are not comparable: scenario inputs differ beyond "
                f"the policy ({other.policy_kind} vs {base.policy_kind})")
    rows = []
    for report in reports:
        total = report.totals.get("total_cycles", 0)
        rows.append({
            "policy": report.policy_kind,
            "total_cycles": total,
            "pagewalk_cycles": report.totals.get("pagewalk_cycles", 0),
            "stall_cycles": report.totals.get("stall_cycles", 0),
            "bandwidth_bytes": report.totals.get("bandwidth_bytes", 0),
            "pw_ratio": report.totals.get("pw_ratio", 0.0),
            "actions": report.totals.get("actions", 0),
            "speedup": _ratio(base.totals.get("total_cycles", 0), total),
        })
    return {
        "scenario_name": base.scenario_name,
        "base_fingerprint": base.base_fingerprint,
        "baseline_policy": base.policy_kind,
        "policies": rows,
    }


def compare_csv(comparison: dict) -> str:
    columns = ["scenario", "policy", "total_cycles", "pagewalk_cycles",
               "stall_cycles", "bandwidth_bytes", "pw_ratio", "actions",
               "speedup"]
    return csv_text(columns, ({**row, "scenario": comparison["scenario_name"]}
                              for row in comparison["policies"]))
