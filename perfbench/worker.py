"""Run one benchmark workload once, in this process, and print one JSON line.

`run.py` starts a fresh single-threaded interpreter on this file for every
repetition and passes `--t0`, its monotonic clock reading just before the
start, so set-up time includes interpreter start and imports.  Each policy
in the workload is one operation, driven through the same public calls
`numasim compare` makes:

    cli.scenario_from_dict -> engine.Simulation(...).run()
        -> metrics.finalize -> MetricsReport.to_json

After the timed part, every report is checked: its sha256 against the
pinned digest (at the scenario's own seed only), node rows summing to task
rows, and stall cycles within total cycles.  With `--trace 1` the layers are
traced and the trace's exact counts are checked against the report.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layertrace  # noqa: E402
from workloads import DIGESTS, WORKLOADS, Workload  # noqa: E402

# the counters the engine writes to both the task and the node rows
NODE_COUNTERS = ("total_cycles", "pagewalk_cycles", "stall_cycles",
                 "dtlb_misses", "tlb_hits", "llc_misses",
                 "replica_update_cycles", "shootdown_cycles", "bandwidth_bytes")


def report_problems(report: dict) -> List[str]:
    """Invariants every report must hold, at any seed."""
    problems = []
    for name in NODE_COUNTERS:
        tasks = sum(row[name] for row in report["per_task"])
        nodes = sum(row[name] for row in report["per_node"])
        if tasks != nodes:
            problems.append(f"{name}: node rows sum to {nodes}, task rows to {tasks}")
    for row in report["per_task"]:
        if row["stall_cycles"] > row["total_cycles"]:
            problems.append(f"task {row['task_id']}: stall_cycles "
                            f"{row['stall_cycles']} > total_cycles {row['total_cycles']}")
    return problems


def trace_snapshot(tracer: layertrace.Tracer) -> dict:
    return {"calls": {n: tracer.call_count(n) for n in tracer.names},
            "self_s": {n: tracer.self_seconds(n) for n in tracer.names},
            "counters": dict(tracer.counters),
            "steps": tracer.durations("engine.step")}


def trace_problems(snap: dict, totals: dict, backlog: int) -> List[str]:
    """The trace's exact counts must match what the report says happened."""
    calls, counters = snap["calls"], snap["counters"]
    problems = []
    lookups = totals["tlb_hits"] + totals["dtlb_misses"]
    if calls["mmu.tlb_lookup"] != lookups:
        problems.append(f"traced tlb_lookup calls {calls['mmu.tlb_lookup']} "
                        f"!= tlb_hits + dtlb_misses {lookups}")
    if calls["pagetable.translate"] != calls["mmu.page_walk"]:
        problems.append(f"traced translate calls {calls['pagetable.translate']} "
                        f"!= page_walk calls {calls['mmu.page_walk']}")
    generated = counters.get("events_generated", 0)
    if generated != totals["events_issued"] + backlog:
        problems.append(f"events generated {generated} != issued "
                        f"{totals['events_issued']} + final backlog {backlog}")
    return problems


def run_op(cli, engine, metrics, raw: dict,
           tracer: Optional[layertrace.Tracer]) -> dict:
    """One operation: simulate one policy and serialize its report."""
    if tracer is not None:
        tracer.reset()
    scenario = cli.scenario_from_dict(raw)
    sim = engine.Simulation(scenario)
    start = time.perf_counter()
    result = sim.run()
    run_s = time.perf_counter() - start
    text = metrics.finalize(result, scenario).to_json()
    op = {"policy": scenario.policy.kind, "text": text, "run_s": run_s,
          "constructed_at": start,
          "backlog": sum(len(t.backlog) for t in sim.tasks)}
    if tracer is not None:
        op["trace"] = trace_snapshot(tracer)
    return op


def check_op(op: dict, expected_digest: Optional[str]) -> dict:
    """Reduce an operation to its digest, figures and problems."""
    text = op.pop("text")
    digest = hashlib.sha256(text.encode()).hexdigest()
    report = json.loads(text)
    problems = report_problems(report)
    if expected_digest is not None and digest != expected_digest:
        problems.append(f"report sha256 {digest} != pinned {expected_digest}")
    totals = report["totals"]
    if "trace" in op:
        problems += trace_problems(op["trace"], totals, op["backlog"])
    op.update(digest=digest, problems=problems, totals={
        k: totals[k] for k in ("events_issued", "tlb_hits", "dtlb_misses",
                               "walk_mem_accesses", "lock_wait_cycles")})
    return op


def layer_metrics(ops: List[dict]) -> Dict[str, float]:
    """Per-layer figures for one traced repetition, summed over its operations."""
    names = ops[0]["trace"]["calls"]
    calls: Dict[str, int] = {n: 0 for n in names}
    self_s: Dict[str, float] = {n: 0.0 for n in names}
    counters: Dict[str, int] = {}
    totals: Dict[str, int] = {}
    steps: List[float] = []
    for op in ops:
        snap = op["trace"]
        for n in names:
            calls[n] += snap["calls"][n]
            self_s[n] += snap["self_s"][n]
        for k, v in snap["counters"].items():
            counters[k] = max(counters.get(k, 0), v) if k == "backlog_max" \
                else counters.get(k, 0) + v
        for k, v in op["totals"].items():
            totals[k] = totals.get(k, 0) + v
        steps += snap["steps"]
    generated = counters.get("events_generated", 0)
    lookups = totals["tlb_hits"] + totals["dtlb_misses"]
    steps_ms = sorted(s * 1000.0 for s in steps)
    return {
        "cli.scenario_from_dict.self_s": self_s["cli.scenario_from_dict"],
        "workload.generate.calls": calls["workload.generate"],
        "workload.generate.self_s": self_s["workload.generate"],
        "workload.events_generated": generated,
        "workload.issue_ratio": totals["events_issued"] / generated if generated else 0.0,
        "engine.step.calls": calls["engine.step"],
        "engine.step_ms.p50": statistics.median(steps_ms),
        "engine.step_ms.p95": steps_ms[min(len(steps_ms) - 1,
                                           int(0.95 * len(steps_ms)))],
        "engine.self_s": sum(v for n, v in self_s.items() if n.startswith("engine.")),
        "engine.compute_contention.self_s": self_s["engine.compute_contention"],
        "engine.backlog_events.max": counters.get("backlog_max", 0),
        "topology.access_latency.calls": calls["topology.access_latency"],
        "topology.access_latency.self_s": self_s["topology.access_latency"],
        "mmu.tlb_lookup.calls": calls["mmu.tlb_lookup"],
        "mmu.tlb_lookup.self_s": self_s["mmu.tlb_lookup"],
        "mmu.page_walk.calls": calls["mmu.page_walk"],
        "mmu.page_walk.self_s": self_s["mmu.page_walk"],
        "mmu.tlb_shootdown.calls": calls["mmu.tlb_shootdown"],
        "mmu.tlb_shootdown.self_s": self_s["mmu.tlb_shootdown"],
        "mmu.shootdown_targets": counters.get("shootdown_targets", 0),
        "mmu.tlb_hit_ratio": totals["tlb_hits"] / lookups if lookups else 0.0,
        "mmu.walk_accesses_per_walk": (totals["walk_mem_accesses"]
                                       / calls["mmu.page_walk"]
                                       if calls["mmu.page_walk"] else 0.0),
        "pagetable.translate.calls": calls["pagetable.translate"],
        "pagetable.translate.self_s": self_s["pagetable.translate"],
        "pagetable.lookup.calls": calls["pagetable.lookup"],
        "pagetable.lookup.self_s": self_s["pagetable.lookup"],
        "pagetable.mutate.calls": calls["pagetable.mutate"],
        "pagetable.mutate.self_s": self_s["pagetable.mutate"],
        "pagetable.add_replica.self_s": self_s["pagetable.add_replica"],
        "pagetable.replica_writes": counters.get("replica_writes", 0),
        "pagetable.lock_wait_cycles": totals["lock_wait_cycles"],
        "sched.self_s": sum(v for n, v in self_s.items() if n.startswith("sched.")),
        "sched.phoenix_evaluate.calls": calls["sched.phoenix_evaluate"],
        "metrics.finalize.self_s": self_s["metrics.finalize"],
        "metrics.to_json.self_s": self_s["metrics.to_json"],
    }


def run_workload(wl: Workload, seed: Optional[int], traced: bool,
                 t0: float) -> dict:
    from numasim import cli, engine, metrics

    tracer = None
    if traced:
        tracer = layertrace.Tracer()
        layertrace.install(tracer)
    base = cli.load_scenario_file(str(ROOT / wl.scenario))
    default_seed = base.get("run", {}).get("seed")
    pinned = DIGESTS.get(wl.name, {}) if seed in (None, default_seed) else {}
    ops = [run_op(cli, engine, metrics, wl.raw_for(base, policy, seed), tracer)
           for policy in wl.policies]
    wall_end = time.perf_counter()

    ops = [check_op(op, pinned.get(op["policy"])) for op in ops]
    out = {"setup_s": ops[0]["constructed_at"] - t0, "wall_s": wall_end - t0,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
           "ops": [{k: op[k] for k in ("policy", "digest", "problems", "run_s", "totals")}
                   for op in ops]}
    if traced:
        out["layers"] = layer_metrics(ops)
    return out


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    args = parser.parse_args(argv)
    out = run_workload(WORKLOADS[args.workload], args.seed, bool(args.trace),
                       args.t0)
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
