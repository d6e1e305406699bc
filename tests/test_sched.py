"""Policy logic: placement, balancing, windows, and phoenix decisions."""

import pytest

from numasim.engine import Scenario, Simulation, WorkloadEntry
from numasim.pagetable import AddressSpace, add_replica, map_page
from numasim.sched import (
    CoreSlot,
    NodeLoad,
    PmcSample,
    PolicyKind,
    TaskState,
    autonuma_step,
    estimate_bandwidth,
    on_fork,
    phoenix_evaluate,
    place_process,
    place_thread,
    rebalance,
)
from numasim.workload import preset

from conftest import make_topo


def cores_on(topo, node_id):
    return [c.core_id for c in topo.cores if c.node_id == node_id]


def loads_for(**per_node):
    return {n: NodeLoad(node_id=n, **kw) for n, kw in per_node.items()}


def slots_for(topo, occupancy=None):
    occupancy = occupancy or {}
    return [CoreSlot(c.core_id, c.node_id, c.physical_core_id,
                     occupancy.get(c.core_id, 0)) for c in topo.cores]


def test_policy_kind_validation():
    PolicyKind("linux").validate()
    PolicyKind("phoenix", threshold_pw_ratio=0.5, lock_mode="global").validate()
    with pytest.raises(ValueError):
        PolicyKind("firstfit").validate()
    with pytest.raises(ValueError):
        PolicyKind("linux", threshold_pw_ratio=1.0).validate()
    with pytest.raises(ValueError):
        PolicyKind("linux", window=0).validate()
    with pytest.raises(ValueError):
        PolicyKind("linux", lock_mode="rcu").validate()
    with pytest.raises(ValueError):
        PolicyKind("linux", force_replicas=0).validate()
    with pytest.raises(ValueError):
        PolicyKind("linux", scan_share=1.5).validate()
    PolicyKind("linux", alloc_policy="interleave").validate()
    with pytest.raises(ValueError):
        PolicyKind("linux", alloc_policy="bogus").validate()


def test_pmc_window_arithmetic():
    pmc = PmcSample(window_total_cycles=1000, window_pagewalk_cycles=150)
    assert pmc.pw_ratio() == 0.15
    assert PmcSample().pw_ratio() == 0.0
    pmc.add(PmcSample(window_total_cycles=500, window_pagewalk_cycles=50,
                      window_llc_misses=7))
    assert pmc.window_total_cycles == 1500
    assert pmc.window_llc_misses == 7
    pmc.reset()
    assert pmc.window_total_cycles == 0


def test_fork_inherits_home_and_shares_the_allowed_set():
    policy = PolicyKind("phoenix")
    parent = on_fork(None, policy, task_id=0, process_id=1)
    assert parent.home_node is None
    assert parent.phoenix_enabled
    parent.home_node = 1
    parent.allowed_nodes = [1]
    child = on_fork(parent, policy, task_id=1, process_id=1, priority="low")
    assert child.home_node == 1
    assert child.allowed_nodes is parent.allowed_nodes
    assert child.priority == parent.priority  # priority follows the process
    assert not on_fork(None, PolicyKind("linux"), 2, 2).phoenix_enabled


def test_place_process_phoenix_prefers_quiet_memory():
    task = on_fork(None, PolicyKind("phoenix"), 0, 1)
    loads = {
        0: NodeLoad(0, bandwidth_bytes_this_epoch=10_000_000, idle_cores=8),
        1: NodeLoad(1, bandwidth_bytes_this_epoch=2_000_000, idle_cores=1),
    }
    assert place_process(task, PolicyKind("phoenix"), loads) == 1
    assert task.home_node == 1
    assert task.allowed_nodes == [1]


def test_place_process_phoenix_breaks_bandwidth_ties_on_idle_cores():
    loads = {0: NodeLoad(0, idle_cores=2), 1: NodeLoad(1, idle_cores=6)}
    task = on_fork(None, PolicyKind("phoenix"), 0, 1)
    assert place_process(task, PolicyKind("phoenix"), loads) == 1


def test_place_process_linux_picks_fewest_tasks():
    loads = {0: NodeLoad(0, running_tasks=5), 1: NodeLoad(1, running_tasks=3)}
    task = on_fork(None, PolicyKind("linux"), 0, 1)
    assert place_process(task, PolicyKind("linux"), loads) == 1
    tie = {0: NodeLoad(0, running_tasks=2), 1: NodeLoad(1, running_tasks=2)}
    assert place_process(on_fork(None, PolicyKind("linux"), 1, 2),
                         PolicyKind("linux"), tie) == 0


def test_place_thread_phoenix_fills_home_before_annexing():
    topo = make_topo(2, 2)
    policy = PolicyKind("phoenix")
    loads = {0: NodeLoad(0, idle_cores=2), 1: NodeLoad(1, idle_cores=2)}
    slots = slots_for(topo)
    task = on_fork(None, policy, 0, 1)
    place_process(task, policy, loads)
    core = place_thread(task, policy, loads, slots, topo)
    assert topo.node_of_core(core) == task.home_node
    assert task.allowed_nodes == [task.home_node]
    assert loads[task.home_node].running_tasks == 1


def test_place_thread_phoenix_annexes_when_home_is_full():
    topo = make_topo(2, 1)
    policy = PolicyKind("phoenix")
    loads = {0: NodeLoad(0, idle_cores=0), 1: NodeLoad(1, idle_cores=1)}
    slots = slots_for(topo, occupancy={0: 1})
    task = TaskState(5, 1, home_node=0, allowed_nodes=[0],
                     phoenix_enabled=True)
    core = place_thread(task, policy, loads, slots, topo)
    assert topo.node_of_core(core) == 1
    assert task.allowed_nodes == [0, 1]


def test_place_thread_phoenix_annexes_the_closest_idle_node():
    factors = [
        [1.0, 1.5, 1.3, 1.3],
        [1.5, 1.0, 1.3, 1.3],
        [1.3, 1.3, 1.0, 1.5],
        [1.3, 1.3, 1.5, 1.0],
    ]
    topo = make_topo(4, 1, link_factors=factors)
    loads = {n: NodeLoad(n, idle_cores=0 if n == 0 else 1,
                         bandwidth_bytes_this_epoch=100 if n == 2 else 0)
             for n in range(4)}
    slots = slots_for(topo, occupancy={0: 1})
    task = TaskState(5, 1, home_node=0, allowed_nodes=[0],
                     phoenix_enabled=True)
    place_thread(task, PolicyKind("phoenix"), loads, slots, topo)
    # nodes 2 and 3 tie on latency factor; quieter node 3 wins
    assert task.allowed_nodes == [0, 3]


def test_place_thread_phoenix_time_shares_once_everything_is_busy():
    topo = make_topo(2, 1)
    loads = {0: NodeLoad(0, idle_cores=0), 1: NodeLoad(1, idle_cores=0)}
    slots = slots_for(topo, occupancy={0: 2, 1: 1})
    task = TaskState(5, 1, home_node=0, allowed_nodes=[0, 1],
                     phoenix_enabled=True)
    core = place_thread(task, PolicyKind("phoenix"), loads, slots, topo)
    assert core == 1  # least-loaded allowed core; no new node annexed
    assert task.allowed_nodes == [0, 1]


def test_place_thread_linux_spreads_to_the_least_loaded_node():
    topo = make_topo(2, 2)
    loads = {0: NodeLoad(0, running_tasks=5, idle_cores=1),
             1: NodeLoad(1, running_tasks=3, idle_cores=2)}
    slots = slots_for(topo, occupancy={0: 1})
    task = TaskState(9, 1, home_node=0, allowed_nodes=[0])
    core = place_thread(task, PolicyKind("linux"), loads, slots, topo)
    assert topo.node_of_core(core) == 1


def test_placement_prefers_cores_with_idle_smt_siblings():
    topo = make_topo(1, 4, smt=True)
    loads = {0: NodeLoad(0, idle_cores=3)}
    slots = slots_for(topo, occupancy={1: 1})  # phys 0 is half busy
    task = TaskState(9, 1, home_node=0, allowed_nodes=[0])
    core = place_thread(task, PolicyKind("linux"), loads, slots, topo)
    assert core == 2  # both threads of phys 1 are free


def test_rebalance_moves_tasks_until_within_tolerance():
    topo = make_topo(2, 4)
    slots = slots_for(topo)
    tasks = []
    for i in range(24):
        node = 0 if i < 16 else 1
        core = cores_on(topo, node)[i % 4]
        slots[core].occupancy += 1
        tasks.append(TaskState(i, 1, home_node=node, allowed_nodes=[node],
                               current_core=core))
    moves = rebalance(PolicyKind("linux"), tasks, slots)
    assert len(moves) == 3  # 16/8 settles at 13/11 under 25% tolerance
    counts = {0: 0, 1: 0}
    for t in tasks:
        counts[topo.node_of_core(t.current_core)] += 1
    assert counts == {0: 13, 1: 11}


def test_rebalance_leaves_tolerable_imbalance_alone():
    topo = make_topo(2, 4)
    slots = slots_for(topo)
    tasks = []
    for i in range(9):
        node = 0 if i < 5 else 1
        core = cores_on(topo, node)[i % 4]
        slots[core].occupancy += 1
        tasks.append(TaskState(i, 1, current_core=core))
    assert rebalance(PolicyKind("linux"), tasks, slots) == []


def test_rebalance_phoenix_respects_allowed_nodes():
    topo = make_topo(2, 4)
    slots = slots_for(topo)
    tasks = []
    for i in range(4):
        core = cores_on(topo, 0)[i]
        slots[core].occupancy += 1
        tasks.append(TaskState(i, 1, home_node=0, allowed_nodes=[0],
                               phoenix_enabled=True, current_core=core))
    # node 1 is idle, but the process is consolidated on node 0
    assert rebalance(PolicyKind("phoenix"), tasks, slots) == []
    for task in tasks:
        task.allowed_nodes = [0, 1]
    moves = rebalance(PolicyKind("phoenix"), tasks, slots)
    assert len(moves) == 2
    nodes = {topo.node_of_core(t.current_core) for t in tasks}
    assert nodes == {0, 1}


def test_window_sampling_accumulates_and_resets():
    task = TaskState(0, 1)
    task.pmc.add(PmcSample(window_total_cycles=100, window_pagewalk_cycles=30))
    task.pmc.add(PmcSample(window_total_cycles=100, window_pagewalk_cycles=30))
    assert task.pmc.window_total_cycles == 200
    assert task.pmc.pw_ratio() == 0.3
    task.pmc.reset()
    assert task.pmc.window_total_cycles == 0


def test_bandwidth_estimate_is_misses_times_line_size():
    assert estimate_bandwidth(PmcSample(window_llc_misses=1000)) == 64000
    assert estimate_bandwidth(PmcSample()) == 0
    assert estimate_bandwidth(PmcSample(window_llc_misses=10), cacheline=128) \
        == 1280


def breach_task(pid=1):
    task = TaskState(0, pid, phoenix_enabled=True, home_node=0,
                     allowed_nodes=[0])
    task.pmc = PmcSample(window_total_cycles=1000, window_pagewalk_cycles=300)
    return task


def test_phoenix_evaluate_is_quiet_below_threshold():
    topo = make_topo(2, 1)
    space = AddressSpace(topo, 1, 0)
    task = breach_task()
    task.pmc = PmcSample(window_total_cycles=1000, window_pagewalk_cycles=50)
    policy = PolicyKind("phoenix")
    loads = {0: NodeLoad(0, utilization=0.9)}
    action = phoenix_evaluate(task, loads, space, policy, 0.6, current_node=0)
    assert action.kind == "none"


def test_phoenix_evaluate_throttles_the_saturating_antagonist_first():
    topo = make_topo(2, 1)
    space = AddressSpace(topo, 1, 0)
    policy = PolicyKind("phoenix")
    task = breach_task(pid=1)
    loads = {0: NodeLoad(0, utilization=0.95, process_stats={
        1: (5_000, "high"),       # the victim itself
        2: (900_000, "low"),      # bandwidth hog
        3: (100_000, "low"),
    })}
    action = phoenix_evaluate(task, loads, space, policy, 0.6, current_node=0)
    assert action.kind == "throttle"
    assert action.process_id == 2
    assert action.node == 0
    assert action.cap == 0.1

    # the cap lands; the next window holds off while it takes effect
    loads[0].mba_caps[2] = action.cap
    action = phoenix_evaluate(task, loads, space, policy, 0.6, current_node=0)
    assert action.kind == "already_handled"

    # still breached on the following window: replicate on the current node
    task.allowed_nodes.append(1)
    loads[1] = NodeLoad(1)
    action = phoenix_evaluate(task, loads, space, policy, 0.6, current_node=1)
    assert action.kind == "replicate"
    assert action.node == 1


def test_phoenix_evaluate_never_throttles_quiet_or_high_priority_peers():
    topo = make_topo(2, 1)
    space = AddressSpace(topo, 1, 0)
    policy = PolicyKind("phoenix")
    task = breach_task(pid=1)
    calm = {0: NodeLoad(0, utilization=0.4, process_stats={2: (900_000, "low")})}
    assert phoenix_evaluate(task, calm, space, policy, 0.6, 1).kind \
        != "throttle"
    high = {0: NodeLoad(0, utilization=0.95,
                        process_stats={2: (900_000, "high")})}
    task = breach_task(pid=1)
    assert phoenix_evaluate(task, high, space, policy, 0.6, 1).kind \
        != "throttle"
    selfish = {0: NodeLoad(0, utilization=0.95,
                           process_stats={1: (900_000, "low")})}
    task = breach_task(pid=1)
    assert phoenix_evaluate(task, selfish, space, policy, 0.6, 1).kind \
        != "throttle"


def test_phoenix_evaluate_skips_replication_where_one_exists():
    topo = make_topo(2, 1)
    space = AddressSpace(topo, 1, 0)
    add_replica(space, 1)
    policy = PolicyKind("phoenix", mba=False)
    task = breach_task()
    task.allowed_nodes = [0, 1]
    loads = {0: NodeLoad(0), 1: NodeLoad(1)}
    action = phoenix_evaluate(task, loads, space, policy, 0.6, current_node=1)
    assert action.kind == "already_handled"


def test_phoenix_evaluate_ignores_non_phoenix_tasks():
    topo = make_topo(2, 1)
    space = AddressSpace(topo, 1, 0)
    task = breach_task()
    task.phoenix_enabled = False
    action = phoenix_evaluate(task, {0: NodeLoad(0)}, space,
                              PolicyKind("linux"), 0.6, 0)
    assert action.kind == "none"


def test_autonuma_migrates_remote_heavy_pages():
    topo = make_topo(4, 1)
    space = AddressSpace(topo, 1, 0)
    map_page(space, 0, 1, 0, requesting_core=0)
    map_page(space, 1, 2, 0, requesting_core=0)
    policy = PolicyKind("linux")  # migrate_threshold 4
    assert autonuma_step(space, {0: {1: 4}}, policy) == [(0, 1)]
    assert autonuma_step(space, {0: {1: 3}}, policy) == []
    # local traffic dominates: remote count met but page stays put
    assert autonuma_step(space, {0: {0: 10, 1: 4}}, policy) == []
    # remote nodes tie: the lowest id wins
    assert autonuma_step(space, {1: {1: 2, 2: 2}}, policy) == [(1, 1)]
    # unmapped pages are skipped
    assert autonuma_step(space, {99: {1: 8}}, policy) == []
    # sub-threshold remote counts across several pages move nothing
    assert autonuma_step(space, {0: {1: 1}, 1: {2: 1}}, policy) == []


def test_on_exit_detaches_the_core():
    spec = preset("gups_like", thread_count=2, footprint_pages=64)
    scenario = Scenario(machine={"nodes": 2, "cores_per_node": 2},
                        workloads=[WorkloadEntry(spec)],
                        policy=PolicyKind("linux"), duration_quanta=3)
    result = Simulation(scenario).run()
    assert [t.st.current_core for t in result.tasks] == [None, None]
    assert all(t.counters.events_issued for t in result.tasks)
