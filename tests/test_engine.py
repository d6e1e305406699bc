"""Simulation engine: contention, throttling, charging, and policy behavior."""

import pytest

from numasim.engine import (
    ContentionState,
    Scenario,
    Simulation,
    WorkloadEntry,
    apply_mba,
    compute_contention,
    simulate,
)
from numasim.sched import PolicyKind
from numasim.workload import WorkloadSpec, preset

from conftest import make_topo


def build(workloads, nodes=2, cores=2, policy=None, duration=20, seed=1,
          quantum=1000, prefault=False, name="t", **machine_extra):
    machine = {"nodes": nodes, "cores_per_node": cores}
    machine.update(machine_extra)
    entries = []
    for item in workloads:
        spec, start = item if isinstance(item, tuple) else (item, 0)
        entries.append(WorkloadEntry(spec, start))
    return Scenario(machine, entries, policy or PolicyKind("linux"), duration,
                    rng_seed=seed, quantum_cycles=quantum, prefault=prefault,
                    name=name)


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


def test_apply_mba_budgets_against_fresh_volume():
    assert apply_mba(1000, 0.1, 1000) == 100
    assert apply_mba(1500, 0.1, 1000) == 100  # backlog cannot widen the cap
    assert apply_mba(1000, 1.0, 1000) == 1000
    assert apply_mba(50, 1.0, 1000) == 50
    assert apply_mba(10, 0.1, 5) == 1  # budget never starves to zero


def hot_page_spec():
    return WorkloadSpec(name="hot", thread_count=1, footprint_pages=1,
                        pattern="sequential",
                        accesses_per_quantum_per_thread=10, llc_miss_rate=0.0)


def test_tlb_hit_quantum_costs_compute_plus_dram():
    policy = PolicyKind("linux", window=1, autonuma=False)
    scenario = build([hot_page_spec()], nodes=1, cores=1, policy=policy,
                     duration=2, prefault=True)
    result = simulate(scenario)
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


def test_cycle_identity_holds_per_task():
    policy = PolicyKind("linux", force_replicas=2)
    scenario = build([preset("wrmem_like", thread_count=2)], policy=policy,
                     duration=25, prefault=True, seed=3)
    result = simulate(scenario)
    assert result.tasks
    for task in result.tasks:
        c = task.counters
        assert c.total_cycles == (c.events_issued + c.stall_cycles
                                  + c.shootdown_cycles)


def test_traffic_conservation_between_tasks_and_nodes():
    scenario = build([preset("gups_like", thread_count=2,
                             footprint_pages=1024),
                      preset("stream_like", thread_count=2)],
                     duration=25, seed=3)
    result = simulate(scenario)
    task_bytes = total(result, field="bandwidth_bytes")
    node_bytes = sum(c.bandwidth_bytes for c in result.node_counters.values())
    assert task_bytes > 0
    assert task_bytes == node_bytes


def test_simulation_is_deterministic():
    def run():
        scenario = build([preset("gups_like", thread_count=2,
                                 footprint_pages=512)],
                         duration=15, seed=11)
        result = simulate(scenario)
        return [(t.task_id, t.counters.total_cycles, t.counters.dtlb_misses,
                 t.counters.bandwidth_bytes) for t in result.tasks]
    assert run() == run()


def test_mitosis_replicates_everywhere_at_spawn():
    scenario = build([preset("gups_like", footprint_pages=256)],
                     nodes=4, cores=1, policy=PolicyKind("mitosis"),
                     duration=3)
    result = simulate(scenario)
    assert result.processes[0].space.replica_count == 4
    assert result.processes[0].space.lock_mode == "global"


def test_linux_keeps_a_single_replica():
    scenario = build([preset("gups_like", footprint_pages=256)],
                     nodes=4, cores=1, duration=3)
    result = simulate(scenario)
    assert result.processes[0].space.replica_count == 1
    assert result.processes[0].space.lock_mode == "per_table"


def test_forced_replica_count_is_honored():
    policy = PolicyKind("linux", force_replicas=3)
    scenario = build([preset("gups_like", footprint_pages=256)],
                     nodes=4, cores=1, policy=policy, duration=3)
    assert simulate(scenario).processes[0].space.replica_count == 3


def test_antagonist_never_speeds_up_the_victim():
    victim = preset("gups_like", thread_count=2, footprint_pages=2048)
    alone = simulate(build([victim], duration=30, quantum=1000))
    paired = simulate(build([victim, preset("stream_like", thread_count=2)],
                            duration=30, quantum=1000))
    victim_alone = total(alone, lambda t: t.process.pid == 0)
    victim_paired = total(paired, lambda t: t.process.pid == 0)
    assert victim_paired > victim_alone


def test_consolidation_beats_spreading_for_a_shared_footprint():
    spec = preset("gups_like", thread_count=2, footprint_pages=2048)
    linux = simulate(build([spec], duration=30))
    phoenix = simulate(build([spec], duration=30,
                             policy=PolicyKind("phoenix")))
    assert total(phoenix) < total(linux)


def test_extra_replicas_amplify_vm_op_cost():
    spec = preset("wrmem_like", thread_count=1)
    one = simulate(build([spec], nodes=2, cores=1, duration=30, seed=5,
                         prefault=True,
                         policy=PolicyKind("linux", force_replicas=1)))
    two = simulate(build([spec], nodes=2, cores=1, duration=30, seed=5,
                         prefault=True,
                         policy=PolicyKind("linux", force_replicas=2)))
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
    assert len(task.backlog) == 256 - 25
    assert sim.contention.u_node[0] < 0.6 < congested
    sim.step()
    assert len(task.backlog) == 2 * (256 - 25)


def test_phoenix_throttles_the_interfering_process():
    victim = preset("gups_like", thread_count=1, footprint_pages=512)
    hog = preset("stream_like", thread_count=1)
    scenario = build([victim, hog], nodes=1, cores=2,
                     policy=PolicyKind("phoenix"), duration=30, quantum=400,
                     prefault=True)
    result = simulate(scenario)
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
    result = simulate(scenario)
    # interleaving left pages 1,3,5,7 remote; the quantum-50 scan fixes that
    assert total(result, field="data_migrations") == 4
    space = result.processes[0].space
    assert all(space.lookup(v).pfn_node == 0 for v in range(8))
    assert not any(space.lookup(v).numa_hint for v in range(8))


def test_locality_scan_respects_the_autonuma_switch():
    policy = PolicyKind("linux", autonuma=False)
    scenario = build([seq_interleaved_spec()], nodes=2, cores=1,
                     duration=60, prefault=True, policy=policy)
    result = simulate(scenario)
    assert total(result, field="data_migrations") == 0
    space = result.processes[0].space
    assert {space.lookup(v).pfn_node for v in range(8)} == {0, 1}


def test_late_starters_spawn_on_schedule():
    victim = preset("gups_like", thread_count=2, footprint_pages=256)
    hog = preset("stream_like", thread_count=2)
    scenario = build([(victim, 0), (hog, 7)], nodes=2, cores=4, duration=12)
    result = simulate(scenario)
    hog_tasks = [t for t in result.tasks if t.process.pid == 1]
    assert all(t.counters.events_issued == (12 - 7) * 256 for t in hog_tasks)
    victim_tasks = [t for t in result.tasks if t.process.pid == 0]
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
    result = simulate(scenario)
    assert result.tasks == []
    assert all(c.total_cycles == 0 for c in result.node_counters.values())
    assert result.quanta_run == 5
