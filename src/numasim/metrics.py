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
from dataclasses import dataclass, field
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

_COUNTER_FIELDS = [
    "events_issued", "total_cycles", "pagewalk_cycles", "stall_cycles", "dtlb_misses",
    "tlb_hits", "llc_misses", "replica_update_cycles", "shootdown_cycles",
    "lock_wait_cycles", "data_migrations", "table_pages_migrated",
    "thread_migrations", "bandwidth_bytes", "walk_mem_accesses",
    "walk_remote_accesses",
]


def _ratio(num: float, den: float) -> float:
    return round(num / den, RATIO_DECIMALS) if den else 0.0


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
        return {
            "scenario_name": self.scenario_name,
            "policy_kind": self.policy_kind,
            "seed": self.seed,
            "quanta": self.quanta,
            "fingerprint": self.fingerprint,
            "base_fingerprint": self.base_fingerprint,
            "per_task": self.per_task,
            "per_process": self.per_process,
            "per_node": self.per_node,
            "totals": self.totals,
            "actions": self.actions,
            "timeseries": self.timeseries,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MetricsReport":
        return cls(**data)

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def to_csv(self) -> str:
        """One row per task and per node, plus a summary row, fixed columns."""
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS,
                                restval="", extrasaction="ignore",
                                lineterminator="\n")
        writer.writeheader()
        for row in self.per_task:
            writer.writerow({**row, "task_id": row["task_id"],
                             "process": row["process_id"],
                             "policy": self.policy_kind})
        for row in self.per_node:
            writer.writerow({**row, "task_id": f"node{row['node_id']}",
                             "process": "", "policy": self.policy_kind,
                             "replica_count": ""})
        writer.writerow({**self.totals, "task_id": "total", "process": "",
                         "policy": self.policy_kind, "replica_count": ""})
        return buf.getvalue()

    def timeseries_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=TIMESERIES_COLUMNS,
                                restval="", extrasaction="ignore",
                                lineterminator="\n")
        writer.writeheader()
        for row in self.timeseries:
            writer.writerow(row)
        return buf.getvalue()


def finalize(result, scenario) -> MetricsReport:
    report = MetricsReport(
        scenario_name=scenario.name,
        policy_kind=scenario.policy.kind,
        seed=scenario.rng_seed,
        quanta=result.quanta_run,
        fingerprint=scenario.fingerprint(),
        base_fingerprint=scenario.base_fingerprint(),
        actions=list(result.actions))

    totals = {name: 0 for name in _COUNTER_FIELDS}
    for task in result.tasks:
        c = task.counters
        row = {"task_id": task.task_id, "process_id": task.process.pid,
               "workload": task.process.spec.name,
               "priority": task.process.priority,
               "home_node": task.st.home_node,
               "final_core": task.st.current_core}
        for name in _COUNTER_FIELDS:
            value = getattr(c, name)
            row[name] = value
            totals[name] += value
        row["pw_ratio"] = _ratio(c.pagewalk_cycles, c.total_cycles)
        row["remote_walk_fraction"] = _ratio(c.walk_remote_accesses,
                                             c.walk_mem_accesses)
        space = task.process.space
        row["replica_count"] = space.replica_count if space is not None else 0
        report.per_task.append(row)
        if scenario.timeseries:
            for i, window in enumerate(task.window_history):
                entry = dict(window)
                entry["task_id"] = task.task_id
                entry["window"] = i
                entry["pw_ratio"] = round(entry["pw_ratio"], RATIO_DECIMALS)
                report.timeseries.append(entry)

    for proc in result.processes:
        row = {"process_id": proc.pid, "workload": proc.spec.name,
               "priority": proc.priority, "threads": len(proc.tasks)}
        if proc.space is not None:
            row["home_node"] = proc.space.home_node
            row["replica_count"] = proc.space.replica_count
            row["replica_nodes"] = "|".join(
                str(n) for n in sorted(proc.space.replica_roots))
            row["mapped_pages"] = proc.space.mappings_count
        for name in _COUNTER_FIELDS:
            row[name] = sum(getattr(t.counters, name) for t in proc.tasks)
        row["pw_ratio"] = _ratio(row["pagewalk_cycles"], row["total_cycles"])
        row["remote_walk_fraction"] = _ratio(row["walk_remote_accesses"],
                                             row["walk_mem_accesses"])
        report.per_process.append(row)

    for node_id in sorted(result.node_counters):
        c = result.node_counters[node_id]
        row = {"node_id": node_id}
        for name in _COUNTER_FIELDS:
            row[name] = getattr(c, name)
        row["pw_ratio"] = _ratio(c.pagewalk_cycles, c.total_cycles)
        row["remote_walk_fraction"] = _ratio(c.walk_remote_accesses,
                                             c.walk_mem_accesses)
        report.per_node.append(row)

    totals["pw_ratio"] = _ratio(totals["pagewalk_cycles"],
                                totals["total_cycles"])
    totals["remote_walk_fraction"] = _ratio(totals["walk_remote_accesses"],
                                            totals["walk_mem_accesses"])
    totals["tasks"] = len(result.tasks)
    totals["processes"] = len(result.processes)
    totals["actions"] = len(result.actions)
    report.totals = totals
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
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=columns, lineterminator="\n")
    writer.writeheader()
    for row in comparison["policies"]:
        writer.writerow({**row, "scenario": comparison["scenario_name"]})
    return buf.getvalue()
