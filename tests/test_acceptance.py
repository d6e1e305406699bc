"""Shipping gates: ten end-to-end behavioral criteria.

Each test is one criterion; the terminal summary (see conftest) prints a
pass/fail line per criterion.  Tolerances and runtime budgets are asserted
inside the tests themselves.
"""

import copy
import json
import random
import subprocess
import sys
import time
from pathlib import Path

from numasim import cli, engine
from numasim.mmu import Mmu
from numasim.pagetable import (
    PROT_READ,
    PROT_RW,
    AddressSpace,
    add_replica,
    drop_replica,
    map_page,
    migrate_tables,
    protect_range,
    translate,
    unmap_page,
)
from numasim.topology import build_topology

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def run_dict(raw):
    return engine.run_scenario(cli.scenario_from_dict(copy.deepcopy(raw)))


def run_packaged(name, **run_overrides):
    raw = cli.load_scenario_file(SCENARIOS / name)
    raw.setdefault("run", {}).update(run_overrides)
    return run_dict(raw)


def process_row(report, pid):
    return next(r for r in report.per_process if r["process_id"] == pid)


# -- criterion 1: replica coherence against a flat-map oracle ----------------

def test_criterion_01_coherence_oracle():
    t0 = time.monotonic()
    topo = build_topology({"nodes": 4, "cores_per_node": 2})
    space = AddressSpace(topo, 1, 0, arity=8)
    vspace = 8 ** 4
    rng = random.Random(20260814)
    shadow = {}            # vpn -> (pfn, prot, pfn_node)
    mapped = []            # sampling pool, swap-remove kept in sync
    position = {}
    next_pfn = 1

    def remember(vpn, entry):
        if vpn not in shadow:
            position[vpn] = len(mapped)
            mapped.append(vpn)
        shadow[vpn] = entry

    def forget(vpn):
        del shadow[vpn]
        idx = position.pop(vpn)
        last = mapped.pop()
        if last != vpn:
            mapped[idx] = last
            position[last] = idx

    def free_vpn():
        while True:
            vpn = rng.randrange(vspace)
            if vpn not in shadow:
                return vpn

    def check(vpns):
        for vpn in vpns:
            want = shadow.get(vpn)
            for walker in topo.node_ids:
                mapping, _ = translate(space, vpn, walker)
                if want is None:
                    assert mapping is None, (vpn, walker)
                else:
                    assert mapping is not None, (vpn, walker)
                    got = (mapping.pfn, mapping.prot, mapping.pfn_node)
                    assert got == want, (vpn, walker, got, want)

    for op_index in range(100_000):
        if op_index % 50 == 0:
            space.begin_quantum()
        core = rng.randrange(8)
        roll = rng.random()
        touched = []

        if (roll < 0.40 and len(shadow) < 1200) or not shadow:
            vpn = free_vpn()
            prot = PROT_RW if rng.random() < 0.7 else PROT_READ
            pfn_node = rng.randrange(4)
            map_page(space, vpn, next_pfn, pfn_node, core, prot=prot)
            remember(vpn, (next_pfn, prot, pfn_node))
            next_pfn += 1
            touched = [vpn]
        elif roll < 0.58:
            vpn = rng.choice(mapped)
            unmap_page(space, vpn, core)
            forget(vpn)
            touched = [vpn]
        elif roll < 0.76:
            start = rng.choice(mapped)
            want = rng.randint(1, 8)
            n = 1
            while n < want and start + n in shadow:
                n += 1
            prot = PROT_READ if rng.random() < 0.5 else PROT_RW
            protect_range(space, start, n, prot, core)
            for vpn in range(start, start + n):
                pfn, _, pfn_node = shadow[vpn]
                shadow[vpn] = (pfn, prot, pfn_node)
            touched = list(range(start, start + n))
        elif roll < 0.985:
            src = rng.choice(mapped)
            dst = free_vpn()
            entry = shadow[src]
            unmap_page(space, src, core)
            forget(src)
            map_page(space, dst, entry[0], entry[2], core, prot=entry[1])
            remember(dst, entry)
            touched = [src, dst]
        elif roll < 0.99:
            absent = [n for n in topo.node_ids if n not in space.replica_roots]
            if absent:
                add_replica(space, rng.choice(absent))
        elif roll < 0.995:
            if space.replica_count > 1:
                drop_replica(space, rng.choice(list(space.replica_roots)))
        else:
            absent = [n for n in topo.node_ids if n not in space.replica_roots]
            if absent:
                migrate_tables(space, rng.choice(list(space.replica_roots)),
                               rng.choice(absent))

        touched.append(rng.randrange(vspace))
        check(touched)
        if (op_index + 1) % 5000 == 0:
            check(list(shadow) + [rng.randrange(vspace) for _ in range(64)])

    check(list(shadow) + [rng.randrange(vspace) for _ in range(256)])
    assert time.monotonic() - t0 < 30.0


# -- criterion 2: replica maintenance overhead grows with replica count ------

def test_criterion_02_replica_sweep_overhead():
    t0 = time.monotonic()
    totals = []
    for nodes in (1, 2, 3, 4):
        raw = {
            "machine": {"nodes": nodes, "cores_per_node": 8},
            "workloads": [
                {"preset": "wrmem_like", "overrides": {"thread_count": 8}},
            ],
            "policy": {"kind": "mitosis"},
            "run": {"duration": 100, "seed": 7, "quantum": 1000,
                    "prefault": True},
        }
        report = run_dict(raw)
        assert process_row(report, 0)["replica_count"] == nodes
        totals.append(report.totals["total_cycles"])

    overheads = [t / totals[0] for t in totals]
    assert all(later >= earlier
               for earlier, later in zip(overheads, overheads[1:])), overheads
    assert overheads[3] >= 1.02, overheads
    assert time.monotonic() - t0 < 60.0


# -- criterion 3: eager replication loses under bandwidth interference -------

def test_criterion_03_interference_reversal():
    t0 = time.monotonic()
    raw = cli.load_scenario_file(SCENARIOS / "stream_btree_interference.json")

    linux_raw = copy.deepcopy(raw)
    linux_raw["policy"]["kind"] = "linux"
    linux = run_dict(linux_raw)

    mitosis_raw = copy.deepcopy(raw)
    mitosis_raw["policy"]["kind"] = "mitosis"
    mitosis = run_dict(mitosis_raw)

    # premise: the antagonist pushes traffic past the per-node budget
    machine = raw["machine"]
    budget = machine["nodes"] * 128 * raw["run"]["quantum"] \
        * raw["run"]["duration"]
    assert linux.totals["bandwidth_bytes"] > 0.6 * budget

    assert mitosis.totals["total_cycles"] \
        >= 1.10 * linux.totals["total_cycles"], (
            mitosis.totals["total_cycles"], linux.totals["total_cycles"])
    assert time.monotonic() - t0 < 60.0


# -- criterion 4: a one-node process stays consolidated and local ------------

def test_criterion_04_consolidation_locality():
    report = run_packaged("consolidation.json")
    row = process_row(report, 0)
    assert row["replica_count"] == 1
    assert row["remote_walk_fraction"] == 0.0
    assert all(r["remote_walk_fraction"] == 0.0 for r in report.per_task)
    assert report.totals["thread_migrations"] == 0


# -- criterion 5: replication triggers on the ratio, and only on it ----------

def test_criterion_05_ondemand_gating():
    report = run_packaged("ondemand.json")
    assert process_row(report, 0)["pw_ratio"] > 0.10
    replicates = [a for a in report.actions if a["kind"] == "replicate"]
    assert replicates, report.actions
    assert replicates[0]["quantum"] < 30, replicates[0]
    assert process_row(report, 0)["replica_count"] == 2

    for preset in ("webserver_like", "wrmem_like"):
        raw = {
            "machine": {"nodes": 2, "cores_per_node": 4},
            "workloads": [
                {"preset": preset, "overrides": {"thread_count": 8}},
            ],
            "policy": {"kind": "phoenix"},
            "run": {"duration": 60, "seed": 9, "quantum": 1000,
                    "prefault": True},
        }
        report = run_dict(raw)
        row = process_row(report, 0)
        assert row["pw_ratio"] < 0.10, (preset, row["pw_ratio"])
        assert not any(a["kind"] == "replicate" for a in report.actions), preset
        assert row["replica_count"] == 1, preset


# -- criterion 6: throttle first, and it must actually relieve the victim ----

def test_criterion_06_interference_first_ordering():
    t0 = time.monotonic()
    raw = {
        "machine": {"nodes": 1, "cores_per_node": 8, "local_latency": 2},
        "workloads": [
            {"preset": "gups_like", "overrides": {"footprint_pages": 75}},
            {"preset": "stream_like", "start": 60},
        ],
        "policy": {"kind": "phoenix"},
        "run": {"duration": 200, "seed": 11, "quantum": 1000,
                "prefault": True, "timeseries": True},
    }
    report = run_dict(raw)

    assert report.actions, "no policy action was taken"
    first = report.actions[0]
    assert first["kind"] == "throttle", report.actions
    assert first["target_process"] == 1
    assert first["cap"] == 0.1
    throttle_quantum = first["quantum"]
    assert throttle_quantum >= 60

    victim = [r for r in report.timeseries if r["task_id"] < 4]
    quiet = [r for r in victim if r["quantum"] < 60]
    trigger = [r for r in victim if r["quantum"] == throttle_quantum]
    # premise: the antagonist, not the victim alone, crosses the trigger
    quiet_ratio = sum(r["pagewalk_cycles"] for r in quiet) \
        / sum(r["total_cycles"] for r in quiet)
    trigger_ratio = sum(r["pagewalk_cycles"] for r in trigger) \
        / sum(r["total_cycles"] for r in trigger)
    assert quiet_ratio < 0.10 < trigger_ratio, (quiet_ratio, trigger_ratio)

    before = sum(r["pagewalk_cycles"] for r in victim
                 if throttle_quantum - 50 < r["quantum"] <= throttle_quantum)
    after = sum(r["pagewalk_cycles"] for r in victim
                if throttle_quantum < r["quantum"] <= throttle_quantum + 50)
    assert after < before, (after, before)
    assert time.monotonic() - t0 < 60.0


# -- criterion 7: consolidation + mitigation beats both fixed policies -------

def test_criterion_07_policy_ordering_under_interference():
    t0 = time.monotonic()
    template = cli.load_scenario_file(SCENARIOS / "policy_ordering.json")
    for preset in ("gups_like", "btree_like", "hashjoin_like"):
        totals = {}
        for kind in ("linux", "mitosis", "phoenix"):
            raw = copy.deepcopy(template)
            raw["workloads"][0]["preset"] = preset
            raw["policy"]["kind"] = kind
            totals[kind] = run_dict(raw).totals["total_cycles"]
        assert totals["phoenix"] < totals["linux"], (preset, totals)
        assert totals["phoenix"] < totals["mitosis"], (preset, totals)
    assert time.monotonic() - t0 < 120.0


# -- criterion 8: walk cost anchors and the walk-length interval -------------

def test_criterion_08_walk_cost_model():
    topo = build_topology({"nodes": 2, "cores_per_node": 1,
                           "local_latency": 100, "remote_factor": 1.3})
    space = AddressSpace(topo, 1, 0)
    map_page(space, 5, 77, 0, 0)
    mmu = Mmu(topo)
    local = mmu.page_walk(space, 5, 0, None)
    assert local.cycles == 4 * 100
    remote = mmu.page_walk(space, 5, 1, None)
    assert remote.cycles == int(4 * 100 * 1.3)

    raw = {
        "machine": {"nodes": 1, "cores_per_node": 4},
        "workloads": [
            {"preset": "gups_like", "overrides": {"footprint_pages": 65536}},
        ],
        "policy": {"kind": "linux"},
        "run": {"duration": 50, "seed": 5, "quantum": 1000, "prefault": True},
    }
    report = run_dict(raw)
    walks = report.totals["dtlb_misses"]
    accesses = report.totals["walk_mem_accesses"]
    assert walks > 10_000
    assert 1.0 <= accesses / walks <= 2.5, accesses / walks


# -- criterion 9: SMT siblings share a TLB and pay for it --------------------

def test_criterion_09_smt_tlb_contention():
    t0 = time.monotonic()

    def misses(smt):
        raw = {
            "machine": {"nodes": 1, "cores_per_node": 2, "smt": smt},
            "workloads": [
                {"preset": "gups_like",
                 "overrides": {"thread_count": 2, "footprint_pages": 48}},
            ],
            "policy": {"kind": "linux"},
            "run": {"duration": 30, "seed": 13, "quantum": 1000,
                    "prefault": True},
        }
        return run_dict(raw).totals["dtlb_misses"]

    shared = misses(True)
    separate = misses(False)
    assert shared >= 1.5 * separate, (shared, separate)
    assert time.monotonic() - t0 < 30.0


# -- criterion 10: byte-identical outputs for identical seeds ----------------

def test_criterion_10_determinism(tmp_path):
    scenario = SCENARIOS / "baseline.json"

    def run_cli(*args):
        proc = subprocess.run(
            [sys.executable, "-m", "numasim.cli", *args],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return proc

    run_cli("run", str(scenario), "--out", str(tmp_path / "a"))
    run_cli("run", str(scenario), "--out", str(tmp_path / "b"))
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert (tmp_path / "a.json").read_bytes() \
        == (tmp_path / "b.json").read_bytes()

    for name, jobs in (("serial", "1"), ("parallel", "2")):
        run_cli("sweep", str(scenario), "--param", "nodes",
                "--values", "1,2", "--policies", "linux,phoenix",
                "--jobs", jobs, "--out", str(tmp_path / name))
    assert (tmp_path / "serial.sweep.csv").read_bytes() \
        == (tmp_path / "parallel.sweep.csv").read_bytes()
