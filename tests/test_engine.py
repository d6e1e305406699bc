"""Simulation engine: contention, throttling, charging, and policy behavior."""

import gc
import math
from collections import deque
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from numasim import pagetable, sched
from numasim.cli import load_scenario_file, scenario_from_dict
from numasim.engine import (
    CACHELINE_BYTES,
    CONTENTION_CAP,
    CONTENTION_KNEE,
    CONTENTION_SLOPE,
    WINDOW_COUNTERS,
    ContentionState,
    Scenario,
    Simulation,
    WorkloadEntry,
    apply_mba,
    compute_contention,
)
from numasim.metrics import finalize
from numasim.sched import PolicyKind
from numasim.topology import access_latency, build_topology, latency_table
from numasim.workload import (VmOp, WorkloadSpec, generate_quantum_events,
                              preset, quantum_volume)

import reference
from conftest import WalkOracle, core_caches, make_topo

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def build(workloads, nodes=2, cores=2, policy=None, duration=20, seed=1,
          quantum=1000, prefault=False, timeseries=False, name="t",
          **machine_extra):
    machine = {"nodes": nodes, "cores_per_node": cores}
    machine.update(machine_extra)
    entries = []
    for item in workloads:
        spec, start = item if isinstance(item, tuple) else (item, 0)
        entries.append(WorkloadEntry(spec, start))
    return Scenario(machine, entries, policy or PolicyKind("linux"), duration,
                    rng_seed=seed, quantum_cycles=quantum, prefault=prefault,
                    timeseries=timeseries, name=name)


def total(result, pred=lambda t: True, field="total_cycles"):
    return sum(getattr(t.counters, field) for t in result.tasks if pred(t))


def test_contention_curve():
    state = ContentionState()
    assert state.multiplier(0.0) == 1.0
    assert state.multiplier(0.6) == 1.0
    assert state.multiplier(0.9) == 3.25
    assert state.multiplier(1.0) == 4.0
    assert state.multiplier(0.7) == pytest.approx(1.75)


def test_compute_contention_normalizes_and_clamps():
    topo = make_topo(2, 1)  # 128 bytes/cycle capacity
    state = compute_contention(topo, {0: 115_200}, {(0, 1): 256_000}, 1000)
    assert state.u_node[0] == 0.9
    assert state.u_node[1] == 0.0
    assert state.u_link[(0, 1)] == 1.0  # overdriven link clamps at 1
    assert (0, 0) not in state.u_link
    assert state.node_multiplier(0) == 3.25
    assert state.node_multiplier(1) == 1.0


# exact binary fractions make some local * factor products land exactly on
# .5 (100 * 1.125, 3 * 1.5), so the half-up rounding itself is exercised
_FACTORS = st.one_of(st.sampled_from([1.0, 1.125, 1.0625, 1.5, 1.25, 2.5]),
                     st.floats(1.0, 10.0))
# quantum 1000 at 128 bytes/cycle: k * 1000 bytes is utilization k / 128,
# from idle through the 0.6 knee to overdriven (clamped at 1)
_BYTES = st.one_of(st.integers(0, 160).map(lambda k: k * 1000),
                   st.integers(0, 200_000))


def _direct_price(topo, node_bytes, link_bytes, a, b):
    def mult(nbytes):
        u = min(1.0, max(0.0, nbytes / (128.0 * 1000)))
        if u <= CONTENTION_KNEE:
            return 1.0
        return min(CONTENTION_CAP, 1.0 + CONTENTION_SLOPE * (u - CONTENTION_KNEE)
                   / (1.0 - CONTENTION_KNEE))
    cycles = topo.local_mem_latency * topo.links[(a, b)].latency_factor
    cycles *= mult(node_bytes.get(b, 0))
    if a != b:
        cycles *= mult(link_bytes.get((a, b), 0))
    return math.floor(cycles + 0.5)


@st.composite
def _contended_machines(draw):
    n = draw(st.integers(1, 8))
    factors = [[draw(_FACTORS) for _ in range(n)] for _ in range(n)]
    topo = build_topology({"nodes": n, "cores_per_node": 1,
                           "local_latency": draw(st.sampled_from([1, 3, 4, 100, 101])
                                                 | st.integers(1, 400)),
                           "link_factors": factors})
    node_bytes = {i: draw(_BYTES) for i in range(n)}
    link_bytes = {(a, b): draw(_BYTES) for a in range(n) for b in range(n)
                  if a != b}
    return topo, node_bytes, link_bytes


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_contended_machines())
def test_table_prices_match_the_direct_formula(machine):
    topo, node_bytes, link_bytes = machine
    state = compute_contention(topo, node_bytes, link_bytes, 1000)
    built = topo.cycles  # build_topology's: uncontended
    contended = latency_table(topo, state)
    idle = latency_table(topo, ContentionState())
    for a in topo.node_ids:
        for b in topo.node_ids:
            topo.cycles = contended
            assert access_latency(topo, a, b) == \
                _direct_price(topo, node_bytes, link_bytes, a, b)
            uncontended = _direct_price(topo, {}, {}, a, b)
            topo.cycles = built
            assert access_latency(topo, a, b) == uncontended
            topo.cycles = idle
            assert access_latency(topo, a, b) == uncontended


def test_apply_mba_budgets_against_fresh_volume():
    # the budget is a share of this quantum's volume, however long the queue
    assert apply_mba(0.1, 1000) == 100
    assert apply_mba(1.0, 1000) == 1000
    assert apply_mba(0.1, 5) == 1  # budget never starves to zero


def queued(task, spec, seed):
    """Events waiting behind task's MBA cap: generated, then deferred."""
    return len(task.backlog) + sum(quantum_volume(spec, 0, seed, q)
                                   for q in task.deferred)


def hot_page_spec():
    return WorkloadSpec(name="hot", thread_count=1, footprint_pages=1,
                        pattern="sequential",
                        accesses_per_quantum_per_thread=10, llc_miss_rate=0.0)


def test_tlb_hit_quantum_costs_compute_plus_dram():
    policy = PolicyKind("linux", window=1, autonuma=False)
    scenario = build([hot_page_spec()], nodes=1, cores=1, policy=policy,
                     duration=2, prefault=True, timeseries=True)
    result = Simulation(scenario).run()
    task = result.tasks[0]
    # quantum 0 pays one cold walk; quantum 1 is pure TLB hits
    assert task.window_history[0]["total_cycles"] == 501 + 9 * 101
    steady = task.window_history[1]
    assert steady["total_cycles"] == 10 * 101
    assert steady["stall_cycles"] == 1000
    assert steady["pagewalk_cycles"] == 0
    assert steady["dtlb_misses"] == 0
    assert task.counters.tlb_hits == 19
    assert task.counters.dtlb_misses == 1
    # the only traffic is the cold walk touching four table levels
    assert result.node_counters[0].bandwidth_bytes == 4 * 64


def test_window_rows_are_counter_differences_at_window_boundaries():
    # every task runs every quantum, so each is flushed at its tick and its
    # counters after a step are those its window saw; mitosis' replicas,
    # the VM ops and the locality scans charge table writes and shootdowns
    spec = preset("wrmem_like", thread_count=3, footprint_pages=512)
    policy = PolicyKind("mitosis", window=3, scan_period=4)
    sim = Simulation(build([spec], nodes=2, cores=2, policy=policy,
                           duration=11, timeseries=True))
    fields = ("total_cycles", "pagewalk_cycles", "stall_cycles",
              "dtlb_misses", "llc_misses")
    seen = [{t: [0] * len(fields) for t in range(3)}]
    for _ in range(11):
        sim.step()
        seen.append({t.task_id: [getattr(t.counters, f) for f in fields]
                     for t in sim.tasks})
    for task in sim.tasks:
        rows = task.window_history
        assert [r["quantum"] for r in rows] == [2, 5, 8]
        for i, row in enumerate(rows):
            start, end = seen[3 * i][task.task_id], seen[3 * i + 3][task.task_id]
            diff = {f: b - a for f, a, b in zip(fields, start, end)}
            assert {f: row[f] for f in fields} == diff, (task.task_id, i)
            assert row["pw_ratio"] == diff["pagewalk_cycles"] \
                / diff["total_cycles"]
    assert all(t.counters.replica_update_cycles for t in sim.tasks)
    assert any(t.counters.shootdown_cycles for t in sim.tasks)


def test_runs_without_timeseries_keep_no_window_history():
    spec = preset("gups_like", thread_count=2, footprint_pages=256)
    policy = PolicyKind("phoenix", window=2)
    plain = Simulation(build([spec], policy=policy, duration=9)).run()
    assert [t.window_history for t in plain.tasks] == [[], []]
    series = Simulation(build([spec], policy=policy, duration=9,
                              timeseries=True)).run()
    assert [len(t.window_history) for t in series.tasks] == [5, 5]


def test_cycle_identity_holds_per_task():
    policy = PolicyKind("linux", force_replicas=2)
    scenario = build([preset("wrmem_like", thread_count=2)], policy=policy,
                     duration=25, prefault=True, seed=3)
    result = Simulation(scenario).run()
    assert result.tasks
    for task in result.tasks:
        c = task.counters
        assert c.total_cycles == (c.events_issued + c.stall_cycles
                                  + c.shootdown_cycles)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_walk_counters_sum_the_walks_each_task_made(seed):
    # no prefault, so first touches fault: the faulting walk and the walk
    # after the page is installed both count, as does each mapped miss,
    # which the engine walks inline and the oracle walks on its shadow
    scenario = build([preset("gups_like", thread_count=6,
                             footprint_pages=2048)],
                     policy=PolicyKind("mitosis"), duration=12, seed=seed)
    sim = Simulation(scenario)
    oracle = WalkOracle(sim)
    sim.run()
    oracle.check()
    assert oracle.faults > 0
    assert oracle.mapped_walks > 0
    assert sum(row[2] for row in oracle.sums.values()) > 0


def test_a_fault_makes_one_page_walk_that_only_reorders(monkeypatch):
    # a cold run with no VM ops: every page is mapped by its first touch,
    # whose fault makes one page_walk, and so one translate; the walk may
    # refresh cached prefixes but adds and drops no entry of any cache
    spec = preset("gups_like", thread_count=4, footprint_pages=2048)
    sim = Simulation(build([spec], policy=PolicyKind("mitosis"), duration=6))
    mmu = sim.mmu
    calls = {"page_walk": 0, "translate": 0}
    reordered = 0
    translate, page_walk = pagetable.translate, mmu.page_walk

    def counted_translate(*args):
        calls["translate"] += 1
        return translate(*args)

    def read_only_walk(space, vpn, core_id):
        nonlocal reordered
        calls["page_walk"] += 1
        before = [list(cache) for cache in core_caches(mmu, core_id)]
        reads = page_walk(space, vpn, core_id)
        after = [list(cache) for cache in core_caches(mmu, core_id)]
        assert list(map(set, after)) == list(map(set, before)), vpn
        reordered += after != before
        return reads

    monkeypatch.setattr(pagetable, "translate", counted_translate)
    mmu.page_walk = read_only_walk
    sim.run()
    mapped = sum(proc.space.mappings_count for proc in sim.processes)
    assert calls["page_walk"] == calls["translate"] == mapped > 0
    assert reordered


def test_hit_and_miss_counts_are_the_lookups_and_the_rest_are_vm_ops():
    # the loop counts misses and VM ops; hits are what is left, so each
    # access must make exactly one lookup and each VM op none
    spec = preset("wrmem_like", thread_count=3, footprint_pages=200,
                  vm_ops_per_kilo_access=100, vm_range_mean_pages=2)
    sim = Simulation(build([spec], policy=PolicyKind("mitosis"), duration=12))
    calls = {"lookup": 0, "vm_op": 0}
    lookup, do_vm_op = sim.mmu.tlb_lookup, sim._do_vm_op

    def tlb_lookup(core_id, vpn):
        calls["lookup"] += 1
        return lookup(core_id, vpn)

    def vm_op(*args):
        calls["vm_op"] += 1
        return do_vm_op(*args)

    sim.mmu.tlb_lookup, sim._do_vm_op = tlb_lookup, vm_op
    sim.run()
    hits = total(sim, field="tlb_hits")
    misses = total(sim, field="dtlb_misses")
    assert hits and misses and calls["vm_op"]
    assert calls["lookup"] == hits + misses
    assert total(sim, field="events_issued") - (hits + misses) \
        == calls["vm_op"]


def test_inline_walks_follow_a_shootdown_in_the_same_batch_and_hint_faults():
    # a VM op shoots down the running core's own entries mid-quantum, and a
    # scan arms hints each quantum, so mapped walks follow both
    spec = preset("wrmem_like", thread_count=2, footprint_pages=256,
                  vm_ops_per_kilo_access=100)
    policy = PolicyKind("linux", scan_period=1, scan_share=1.0)
    sim = Simulation(build([spec], policy=policy, duration=8, prefault=True))
    oracle = WalkOracle(sim)
    mmu = sim.mmu
    shot = {}  # core id -> the quantum its own VM op last dropped an entry
    walks_after_shootdown = hint_faults_after_walk = 0
    armed = None  # the leaf of a mapped walk's page that was armed then
    shootdown, lookup = mmu.tlb_shootdown, mmu.tlb_lookup

    def tlb_shootdown(vpns, initiator_node, core_ids, initiator_core=None):
        if initiator_core is None:
            return shootdown(vpns, initiator_node, core_ids, initiator_core)
        before = sum(map(len, core_caches(mmu, initiator_core)))
        cycles = shootdown(vpns, initiator_node, core_ids, initiator_core)
        if sum(map(len, core_caches(mmu, initiator_core))) < before:
            shot[initiator_core] = sim.quantum
        return cycles

    def tlb_lookup(core_id, vpn):
        nonlocal walks_after_shootdown, hint_faults_after_walk, armed
        # the access after a walk of an armed page: its fault, which only
        # the engine's access loop services, has cleared the hint
        if armed is not None and not armed.numa_hint:
            hint_faults_after_walk += 1
        armed = None
        mapping = lookup(core_id, vpn)
        if oracle.pending == (core_id, vpn) and oracle.fault is None:
            if shot.get(core_id) == sim.quantum:
                walks_after_shootdown += 1
            leaf = sim.processes[0].space.lookup(vpn)
            if leaf.numa_hint:
                armed = leaf
        return mapping

    mmu.tlb_shootdown, mmu.tlb_lookup = tlb_shootdown, tlb_lookup
    sim.run()
    oracle.check()
    assert walks_after_shootdown > 0
    assert hint_faults_after_walk > 0


def test_hint_faults_cost_what_clear_access_hint_prices():
    # two replicas with their tables on their own nodes, so the PTE table
    # has a local and a remote copy; without autonuma only the test arms
    # hints, on two pages of that table the task touches each quantum
    spec = WorkloadSpec(name="hints", thread_count=1, footprint_pages=8,
                        pattern="sequential",
                        accesses_per_quantum_per_thread=64)
    policy = PolicyKind("linux", autonuma=False, force_replicas=2,
                        alloc_policy="home_node")
    armed = (2, 5)
    fields = ("replica_update_cycles", "lock_wait_cycles", "total_cycles")

    def after_one_quantum(arm):
        sim = Simulation(build([spec], nodes=2, cores=1, policy=policy,
                               duration=2, prefault=True))
        sim.step()
        space = sim.processes[0].space
        for vpn in arm:
            space.lookup(vpn).numa_hint = True
        return sim, space

    def quantum_delta(sim):
        c = sim.tasks[0].counters
        before = [getattr(c, f) for f in fields]
        sim.step()
        return [getattr(c, f) - b for f, b in zip(fields, before)]

    sim, space = after_one_quantum(armed)
    plain, _ = after_one_quantum(())
    reference, ref_space = after_one_quantum(armed)
    node = sim.cores[sim.tasks[0].current_core].node_id
    assert sorted(space.paths[0][3].resident.values()) == [0, 1]
    ref_space.begin_quantum()
    first, second = [pagetable.clear_access_hint(ref_space, vpn, node)
                     for vpn in armed]
    own = access_latency(reference.topo, node, 0) \
        + access_latency(reference.topo, node, 1)
    assert (first.cycles, first.lock_wait_cycles) == (own, 0)
    # the second fault queues behind the first's own cycles
    assert second.lock_wait_cycles == own
    assert second.cycles == 2 * own

    replica, lock_wait, total = quantum_delta(sim)
    assert quantum_delta(plain) == [0, 0, total - first.cycles - second.cycles]
    assert replica == first.cycles + second.cycles
    assert lock_wait == first.lock_wait_cycles + second.lock_wait_cycles
    assert not any(space.lookup(vpn).numa_hint for vpn in armed)


@pytest.mark.parametrize("rate", [0.0, 1.0])
def test_llc_miss_rates_of_zero_and_one_decide_every_access(rate):
    # no VM ops, so every issued event is an access; without autonuma the
    # only other traffic is the walks' table reads
    spec = preset("gups_like", thread_count=3, footprint_pages=512,
                  llc_miss_rate=rate)
    policy = PolicyKind("linux", autonuma=False)
    result = Simulation(build([spec], policy=policy, duration=6)).run()
    for task in result.tasks:
        c = task.counters
        assert c.events_issued > 0
        assert c.llc_misses == (c.events_issued if rate else 0)
        assert c.bandwidth_bytes == CACHELINE_BYTES * (
            c.walk_mem_accesses + c.llc_misses)


def test_traffic_conservation_between_tasks_and_nodes():
    scenario = build([preset("gups_like", thread_count=2,
                             footprint_pages=1024),
                      preset("stream_like", thread_count=2)],
                     duration=25, seed=3)
    result = Simulation(scenario).run()
    task_bytes = total(result, field="bandwidth_bytes")
    node_bytes = sum(c.bandwidth_bytes for c in result.node_counters.values())
    assert task_bytes > 0
    assert task_bytes == node_bytes


def test_simulation_is_deterministic():
    def run():
        scenario = build([preset("gups_like", thread_count=2,
                                 footprint_pages=512)],
                         duration=15, seed=11)
        result = Simulation(scenario).run()
        return [(t.task_id, t.counters.total_cycles, t.counters.dtlb_misses,
                 t.counters.bandwidth_bytes) for t in result.tasks]
    assert run() == run()


def test_mitosis_replicates_everywhere_at_spawn():
    scenario = build([preset("gups_like", footprint_pages=256)],
                     nodes=4, cores=1, policy=PolicyKind("mitosis"),
                     duration=3)
    result = Simulation(scenario).run()
    assert result.processes[0].space.replica_count == 4
    assert result.processes[0].space.lock_mode == "global"


def test_linux_keeps_a_single_replica():
    scenario = build([preset("gups_like", footprint_pages=256)],
                     nodes=4, cores=1, duration=3)
    result = Simulation(scenario).run()
    assert result.processes[0].space.replica_count == 1
    assert result.processes[0].space.lock_mode == "per_table"


def test_forced_replica_count_is_honored():
    policy = PolicyKind("linux", force_replicas=3)
    scenario = build([preset("gups_like", footprint_pages=256)],
                     nodes=4, cores=1, policy=policy, duration=3)
    assert Simulation(scenario).run().processes[0].space.replica_count == 3


@pytest.mark.parametrize("policy", ["linux", "mitosis", "phoenix"])
def test_a_finished_simulation_needs_no_cyclic_collection(policy):
    # everything a run allocates is freed by reference counting alone
    raw = load_scenario_file(SCENARIOS / "ondemand.json")
    raw["policy"] = {"kind": policy}
    raw["run"]["duration"] = 30
    scenario = scenario_from_dict(raw)
    gc.collect()
    gc.disable()
    try:
        sim = Simulation(scenario)
        report = finalize(sim.run(), scenario)
        del sim
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert report.totals["events_issued"] > 0
    assert unreachable == 0


def test_antagonist_never_speeds_up_the_victim():
    victim = preset("gups_like", thread_count=2, footprint_pages=2048)
    alone = Simulation(build([victim], duration=30, quantum=1000)).run()
    paired = Simulation(build([victim, preset("stream_like", thread_count=2)],
                              duration=30, quantum=1000)).run()
    victim_alone = total(alone, lambda t: t.process_id == 0)
    victim_paired = total(paired, lambda t: t.process_id == 0)
    assert victim_paired > victim_alone


def test_consolidation_beats_spreading_for_a_shared_footprint():
    spec = preset("gups_like", thread_count=2, footprint_pages=2048)
    linux = Simulation(build([spec], duration=30)).run()
    phoenix = Simulation(build([spec], duration=30,
                               policy=PolicyKind("phoenix"))).run()
    assert total(phoenix) < total(linux)


def test_extra_replicas_amplify_vm_op_cost():
    spec = preset("wrmem_like", thread_count=1)
    one = Simulation(build([spec], nodes=2, cores=1, duration=30, seed=5,
                           prefault=True,
                           policy=PolicyKind("linux", force_replicas=1))).run()
    two = Simulation(build([spec], nodes=2, cores=1, duration=30, seed=5,
                           prefault=True,
                           policy=PolicyKind("linux", force_replicas=2))).run()
    assert total(two, field="replica_update_cycles") \
        > total(one, field="replica_update_cycles")
    assert total(two) > total(one)


def test_bandwidth_cap_queues_events_and_clears_congestion():
    spec = preset("stream_like", thread_count=1)
    scenario = build([spec], nodes=1, cores=1, duration=10, quantum=500,
                     prefault=True)
    sim = Simulation(scenario)
    sim.step()
    sim.step()
    congested = sim.contention.u_node[0]
    assert congested > 0.6
    task = sim.tasks[0]
    issued_before = task.counters.events_issued
    sim.mba_caps[(0, 0)] = 0.1
    sim.step()
    assert task.counters.events_issued - issued_before == 25  # 10% of 256
    assert queued(task, spec, 1) == 256 - 25
    assert sim.contention.u_node[0] < 0.6 < congested
    sim.step()
    assert queued(task, spec, 1) == 2 * (256 - 25)


def test_throttled_backlog_holds_at_most_one_generated_quantum():
    spec = preset("stream_like", thread_count=1)
    sim = Simulation(build([spec], nodes=1, cores=1, duration=5000,
                           quantum=500))
    sim.mba_caps[(0, 0)] = 0.1
    volume = spec.accesses_per_quantum_per_thread
    for q in range(5000):
        sim.step()
        task = sim.tasks[0]
        assert len(task.backlog) <= volume
        assert queued(task, spec, 1) == (q + 1) * (volume - 25)
    assert task.counters.events_issued == 5000 * 25


# a one-core stream task whose mix has every VM op kind
_CHURNING_STREAM = preset(
    "stream_like", thread_count=1, accesses_per_quantum_per_thread=64,
    vm_ops_per_kilo_access=60.0,
    vm_op_mix=(("map", 0.3), ("unmap", 0.2), ("protect", 0.3),
               ("remap", 0.2)), vm_range_mean_pages=3)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.lists(st.sampled_from([0.05, 0.1, 0.3, 0.5, 1.0]), min_size=1,
                max_size=40),
       st.integers(0, 1000))
def test_lazy_backlog_issues_like_an_eager_queue(caps, seed):
    spec = _CHURNING_STREAM
    sim = Simulation(build([spec], nodes=1, cores=1, duration=len(caps),
                           seed=seed, quantum=500))
    # the reference generates every quantum at once and drains it with MBA
    queue = deque()
    for q, cap in enumerate(caps):
        new = generate_quantum_events(spec, 0, seed, q)
        queue.extend(new)
        issue = apply_mba(cap, len(new))
        # the queue holds this quantum's events, so the budget alone sets
        # how many issue
        assert issue <= len(queue), q
        for _ in range(issue):
            queue.popleft()

        sim.mba_caps[(0, 0)] = cap
        before = sim.tasks[0].counters.events_issued if sim.tasks else 0
        sim.step()
        task = sim.tasks[0]
        assert task.counters.events_issued - before == issue, q
        assert queued(task, spec, seed) == len(queue)
        assert list(task.backlog) == list(queue)[:len(task.backlog)]


def test_phoenix_throttles_the_interfering_process():
    victim = preset("gups_like", thread_count=1, footprint_pages=512)
    hog = preset("stream_like", thread_count=1)
    scenario = build([victim, hog], nodes=1, cores=2,
                     policy=PolicyKind("phoenix"), duration=30, quantum=400,
                     prefault=True)
    result = Simulation(scenario).run()
    assert result.actions
    first = result.actions[0]
    assert first["kind"] == "throttle"
    assert first["target_process"] == 1
    assert first["cap"] == 0.1
    # one node means replication is impossible: the throttle stands alone
    assert {a["kind"] for a in result.actions} == {"throttle"}
    assert len(result.actions) == 1


def test_smt_partition_tracks_sibling_occupancy():
    spec = preset("gups_like", thread_count=2, footprint_pages=256)
    scenario = build([spec], nodes=1, cores=2, smt=True, duration=2)
    sim = Simulation(scenario)
    sim.step()
    assert sim.cores[0].partition_active
    assert sim.cores[1].partition_active

    solo = preset("gups_like", thread_count=1, footprint_pages=256)
    sim = Simulation(build([solo], nodes=1, cores=2, smt=True, duration=2))
    sim.step()
    assert not sim.cores[0].partition_active


def seq_interleaved_spec():
    return WorkloadSpec(name="seqint", thread_count=1, footprint_pages=8,
                        pattern="sequential",
                        accesses_per_quantum_per_thread=64,
                        llc_miss_rate=0.0, data_policy="interleave")


def test_locality_scan_migrates_remote_data_home():
    scenario = build([seq_interleaved_spec()], nodes=2, cores=1,
                     duration=60, prefault=True)
    result = Simulation(scenario).run()
    # interleaving left pages 1,3,5,7 remote; the quantum-50 scan fixes that
    assert total(result, field="data_migrations") == 4
    space = result.processes[0].space
    assert all(space.lookup(v).pfn_node == 0 for v in range(8))
    assert not any(space.lookup(v).numa_hint for v in range(8))


def test_locality_scan_respects_the_autonuma_switch():
    policy = PolicyKind("linux", autonuma=False)
    scenario = build([seq_interleaved_spec()], nodes=2, cores=1,
                     duration=60, prefault=True, policy=policy)
    result = Simulation(scenario).run()
    assert total(result, field="data_migrations") == 0
    space = result.processes[0].space
    assert {space.lookup(v).pfn_node for v in range(8)} == {0, 1}


def test_one_node_scans_arm_hints_but_count_no_access(monkeypatch):
    def no_step(*args):
        raise AssertionError("autonuma_step ran on one node")

    monkeypatch.setattr(sched, "autonuma_step", no_step)
    spec = preset("gups_like", thread_count=2, footprint_pages=256)
    policy = PolicyKind("linux", scan_period=3, scan_share=0.5)
    sim = Simulation(build([spec], nodes=1, cores=2, policy=policy,
                           duration=12, prefault=True))
    sim.step()  # spawns and prefaults the process
    proc = sim.processes[0]

    def armed():
        return sum(proc.space.lookup(vpn).numa_hint for vpn in range(256))

    faults = 0
    while sim.quantum < 12:
        scans = sim.quantum % policy.scan_period == 0
        before = armed()
        sim.step()
        if not scans:  # every hint cleared in a quantum without a scan
            faults += before - armed()
        assert proc.access_counts == {}
    assert faults > 0


def test_late_starters_spawn_on_schedule():
    victim = preset("gups_like", thread_count=2, footprint_pages=256)
    hog = preset("stream_like", thread_count=2)
    scenario = build([(victim, 0), (hog, 7)], nodes=2, cores=4, duration=12)
    result = Simulation(scenario).run()
    hog_tasks = [t for t in result.tasks if t.process_id == 1]
    assert all(t.counters.events_issued == (12 - 7) * 256 for t in hog_tasks)
    victim_tasks = [t for t in result.tasks if t.process_id == 0]
    assert all(t.counters.events_issued == 12 * 100 for t in victim_tasks)


def test_fingerprints_isolate_the_policy():
    spec = preset("gups_like", footprint_pages=256)
    a = build([spec], policy=PolicyKind("linux"))
    b = build([spec], policy=PolicyKind("phoenix"))
    c = build([spec], policy=PolicyKind("linux"), seed=2)
    assert a.base_fingerprint() == b.base_fingerprint()
    assert a.fingerprint() != b.fingerprint()
    assert a.fingerprint() == build([spec], policy=PolicyKind("linux")).fingerprint()
    assert a.base_fingerprint() != c.base_fingerprint()


def test_empty_scenario_runs_and_reports_zeros():
    scenario = Scenario({"nodes": 1, "cores_per_node": 1}, [],
                        PolicyKind("linux"), duration_quanta=5)
    result = Simulation(scenario).run()
    assert result.tasks == []
    assert all(c.total_cycles == 0 for c in result.node_counters.values())
    assert result.quantum == 5


def test_node_counters_keep_charges_made_after_a_task_last_ran():
    # five threads on four cores: the scan at quantum 4 charges a task that
    # does not run again, so only the end of the run can pass it to a node
    specs = [preset("webserver_like", thread_count=3, footprint_pages=200,
                    accesses_per_quantum_per_thread=30),
             preset("stream_like", thread_count=2)]
    policy = PolicyKind("linux", window=2, scan_period=2, rebalance_interval=2)
    result = Simulation(build(specs, policy=policy, duration=5, seed=3)).run()
    for name in WINDOW_COUNTERS:
        assert sum(getattr(c, name) for c in result.node_counters.values()) \
            == total(result, field=name), name


def test_a_shootdown_prices_each_other_core_once():
    # three threads on 2 nodes x 1 core: one core queues two of them
    spec = preset("gups_like", thread_count=3, footprint_pages=64)
    policy = PolicyKind("linux", autonuma=False)
    sim = Simulation(build([spec], cores=1, policy=policy, duration=2,
                           prefault=True))
    sim.step()
    proc = sim.processes[0]
    shared = [c for c in sim.cores if len(c.runqueue) == 2]
    alone = [c for c in sim.cores if len(c.runqueue) == 1]
    assert len(shared) == len(alone) == 1
    core = alone[0]
    task = core.runqueue[0]
    price = int(sim.mmu.ipi_prices[core.node_id][shared[0].core_id] + 0.5)
    before = task.counters.shootdown_cycles
    sim._do_vm_op(task, core, VmOp("unmap", 8, 1))
    assert task.counters.shootdown_cycles - before == price


@pytest.mark.parametrize("kind", ["unmap", "protect"])
def test_vm_op_shoots_down_each_page_on_the_other_cores(kind):
    # four threads on 2 nodes x 2 cores, every page mapped
    spec = preset("gups_like", thread_count=4, footprint_pages=64)
    policy = PolicyKind("linux", autonuma=False)
    sim = Simulation(build([spec], policy=policy, duration=2, prefault=True))
    sim.step()
    proc = sim.processes[0]
    task = proc.tasks[0]
    core = sim.cores[task.current_core]
    cores = {t.current_core for t in proc.tasks}
    others = [t.current_core for t in proc.tasks
              if t.current_core != core.core_id]
    assert len({sim.cores[c].node_id for c in cores}) == 2
    start, k = 8, 5
    doomed = range(start, start + k)
    for c in cores:  # every core of the process caches every doomed page
        for vpn in doomed:
            reference.walk(sim.mmu, proc.space, vpn, c)
    # one IPI to each other core, priced from the initiator's node
    prices = sim.mmu.ipi_prices[core.node_id]
    price = int(sum(prices[c] for c in others) + 0.5)
    assert price > 0
    before = task.counters.shootdown_cycles

    sim._do_vm_op(task, core, VmOp(kind, start, k))
    assert task.counters.shootdown_cycles - before == k * price
    for c in cores:
        assert not set(doomed) & set(sim.mmu.tlbs[c])

    # mapping the pages back (or over the protected ones) shoots nothing
    before = task.counters.shootdown_cycles
    sim._do_vm_op(task, core, VmOp("map", start, k))
    assert task.counters.shootdown_cycles == before


def test_a_scan_charges_each_vpn_what_a_vm_op_charges():
    # three threads on 2 nodes x 2 cores leave a core idle: a VM op issued
    # there shoots down every core of the process, as a scan does
    spec = preset("gups_like", thread_count=3, footprint_pages=64)
    policy = PolicyKind("linux", autonuma=False, scan_share=0.5)
    sim = Simulation(build([spec], policy=policy, duration=2, prefault=True))
    sim.step()
    proc = sim.processes[0]
    tasks = proc.tasks
    spare = next(c for c in sim.cores if not c.runqueue)
    before = [t.counters.shootdown_cycles for t in tasks]
    rr, n = proc.charge_rr, len(tasks)
    count = int(policy.scan_share * proc.space.mappings_count)
    sim._numa_scan(proc)

    vm_op = tasks[0].counters.shootdown_cycles
    sim._do_vm_op(tasks[0], spare, VmOp("unmap", 8, 1))
    per_vpn = tasks[0].counters.shootdown_cycles - vm_op
    assert per_vpn > 0
    compared = 0
    for i, task in enumerate(tasks):
        if sim.cores[task.current_core].node_id != spare.node_id:
            continue  # its scan share is priced from another node
        share = len(range((i - rr) % n, count, n))  # sample[k::n]
        assert share > 0
        assert task.counters.shootdown_cycles - before[i] == share * per_vpn
        compared += 1
    assert compared
