"""Policy logic: placement, balancing, windows, and phoenix decisions."""

from collections import Counter

import pytest

from numasim import sched
from numasim.engine import (WINDOW_COUNTERS, Scenario, SimTask, Simulation,
                            WorkloadEntry, _pw_ratio)
from numasim.pagetable import AddressSpace, add_replica, map_page
from numasim.sched import (
    Core,
    NodeLoad,
    PolicyKind,
    TaskState,
    autonuma_step,
    phoenix_evaluate,
    place_process,
    place_thread,
    rebalance,
)
from numasim.workload import VmOp, preset

from conftest import make_topo


def cores_on(topo, node_id):
    return [c.core_id for c in topo.cores if c.node_id == node_id]


def cores_for(topo, occupancy=None):
    """The machine's cores, core i queueing occupancy[i] placeholder tasks."""
    occupancy = occupancy or {}
    return [Core(c.core_id, c.node_id, c.physical_core_id,
                 [TaskState(-1, -1) for _ in range(occupancy.get(c.core_id, 0))])
            for c in topo.cores]


def loads_on(topo, bandwidth=None):
    """A NodeLoad per node, node n's last-epoch bytes bandwidth[n] or 0."""
    bandwidth = bandwidth or {}
    return {n.node_id: NodeLoad(n.node_id, bandwidth.get(n.node_id, 0))
            for n in topo.nodes}


def assert_queued(cores, tasks):
    """Each task sits on exactly one run queue, its current core's."""
    for task in tasks:
        holders = [c.core_id for c in cores
                   if any(t is task for t in c.runqueue)]
        assert holders == [task.current_core], task.task_id


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
    # a window is the change in a task's counters between the snapshot taken
    # when it began and the one taken at its last flush
    task = SimTask(0, 1, 0, [])
    empty = dict.fromkeys(WINDOW_COUNTERS, 0)
    assert task.window() == empty
    assert _pw_ratio(empty) == 0.0
    task.counters.total_cycles += 1000
    task.counters.pagewalk_cycles += 150
    task.counters.llc_misses += 7
    assert task.window() == empty  # charged but not yet flushed
    task._snap = task.counters.snapshot()
    window = task.window()
    assert window == dict(empty, total_cycles=1000, pagewalk_cycles=150,
                          llc_misses=7)
    assert _pw_ratio(window) == 0.15
    task.window_start = task._snap
    assert task.window() == empty


def test_fork_inherits_home_and_shares_the_allowed_set():
    # a thread's home is its process's allowed set: one list, so a node a
    # phoenix thread annexes is allowed to every thread of the process
    spec = preset("gups_like", thread_count=3, footprint_pages=64)
    sim = Simulation(Scenario(
        machine={"nodes": 2, "cores_per_node": 2},
        workloads=[WorkloadEntry(spec)], policy=PolicyKind("phoenix"),
        duration_quanta=1))
    sim.step()
    main, *threads = sim.processes[0].tasks
    home = sim.processes[0].space.home_node
    assert main.allowed_nodes == [home, 1 - home]  # the third thread annexed
    for thread in threads:
        assert thread.allowed_nodes is main.allowed_nodes
    assert_queued(sim.cores, sim.tasks)


def test_place_process_phoenix_prefers_quiet_memory():
    topo = make_topo(2, 8)
    task = TaskState(0, 1)
    cores = cores_for(topo, occupancy={c: 1 for c in cores_on(topo, 1)[1:]})
    loads = loads_on(topo, {0: 10_000_000, 1: 2_000_000})
    assert place_process(task, PolicyKind("phoenix"), loads, cores) == 1
    assert task.allowed_nodes == [1]


def test_place_process_phoenix_breaks_bandwidth_ties_on_idle_cores():
    topo = make_topo(2, 6)
    cores = cores_for(topo, occupancy={c: 1 for c in cores_on(topo, 0)[2:]})
    task = TaskState(0, 1)
    assert place_process(task, PolicyKind("phoenix"), loads_on(topo),
                         cores) == 1


def test_place_process_linux_picks_fewest_tasks():
    topo = make_topo(2, 2)
    cores = cores_for(topo, occupancy={0: 3, 1: 2, 2: 3})
    task = TaskState(0, 1)
    assert place_process(task, PolicyKind("linux"), loads_on(topo),
                         cores) == 1
    tie = cores_for(topo, occupancy={0: 2, 2: 1, 3: 1})
    assert place_process(TaskState(1, 2), PolicyKind("linux"), loads_on(topo),
                         tie) == 0


def test_place_thread_phoenix_fills_home_before_annexing():
    topo = make_topo(2, 2)
    policy = PolicyKind("phoenix")
    loads = loads_on(topo)
    cores = cores_for(topo)
    task = TaskState(0, 1)
    home = place_process(task, policy, loads, cores)
    core = place_thread(task, policy, loads, cores, topo)
    assert topo.cores[core].node_id == home
    assert task.allowed_nodes == [home]
    assert cores[core].runqueue == [task]
    assert sum(len(c.runqueue) for c in cores if c.node_id == home) == 1


def test_place_thread_phoenix_annexes_when_home_is_full():
    topo = make_topo(2, 1)
    policy = PolicyKind("phoenix")
    cores = cores_for(topo, occupancy={0: 1})
    task = TaskState(5, 1, allowed_nodes=[0])
    core = place_thread(task, policy, loads_on(topo), cores, topo)
    assert topo.cores[core].node_id == 1
    assert task.allowed_nodes == [0, 1]
    assert_queued(cores, [task])


def test_place_thread_phoenix_annexes_the_closest_idle_node():
    factors = [
        [1.0, 1.5, 1.3, 1.3],
        [1.5, 1.0, 1.3, 1.3],
        [1.3, 1.3, 1.0, 1.5],
        [1.3, 1.3, 1.5, 1.0],
    ]
    topo = make_topo(4, 1, link_factors=factors)
    loads = loads_on(topo, {2: 100})
    cores = cores_for(topo, occupancy={0: 1})
    task = TaskState(5, 1, allowed_nodes=[0])
    place_thread(task, PolicyKind("phoenix"), loads, cores, topo)
    # nodes 2 and 3 tie on latency factor; quieter node 3 wins
    assert task.allowed_nodes == [0, 3]
    assert_queued(cores, [task])


def test_place_thread_phoenix_time_shares_once_everything_is_busy():
    topo = make_topo(2, 1)
    cores = cores_for(topo, occupancy={0: 2, 1: 1})
    task = TaskState(5, 1, allowed_nodes=[0, 1])
    core = place_thread(task, PolicyKind("phoenix"), loads_on(topo), cores,
                        topo)
    assert core == 1  # least-loaded allowed core; no new node annexed
    assert task.allowed_nodes == [0, 1]
    assert len(cores[1].runqueue) == 2 and cores[1].runqueue[-1] is task


def test_place_thread_linux_spreads_to_the_least_loaded_node():
    topo = make_topo(2, 4)
    # node 0 runs 5 tasks with one core idle, node 1 runs 3 with two idle
    cores = cores_for(topo, occupancy={0: 2, 1: 2, 2: 1, 4: 2, 5: 1})
    task = TaskState(9, 1, allowed_nodes=[0])
    core = place_thread(task, PolicyKind("linux"), loads_on(topo), cores,
                        topo)
    assert topo.cores[core].node_id == 1
    assert_queued(cores, [task])


def test_placement_prefers_cores_with_idle_smt_siblings():
    topo = make_topo(1, 4, smt=True)
    cores = cores_for(topo, occupancy={1: 1})  # phys 0 is half busy
    task = TaskState(9, 1, allowed_nodes=[0])
    core = place_thread(task, PolicyKind("linux"), loads_on(topo), cores,
                        topo)
    assert core == 2  # both threads of phys 1 are free
    assert cores[2].runqueue == [task]


def queued_tasks(topo, cores, per_node):
    """Tasks 0.. queued round-robin on each node's cores, per_node[n] there."""
    tasks = []
    for node, count in enumerate(per_node):
        for _ in range(count):
            i = len(tasks)
            core = cores_on(topo, node)[i % len(cores_on(topo, node))]
            task = TaskState(i, 1, allowed_nodes=[node], current_core=core)
            cores[core].runqueue.append(task)
            tasks.append(task)
    return tasks


def test_rebalance_moves_tasks_until_within_tolerance():
    topo = make_topo(2, 4)
    cores = cores_for(topo)
    tasks = queued_tasks(topo, cores, [16, 8])
    moves = rebalance(PolicyKind("linux"), tasks, cores)
    # 16/8 settles at 13/11 under 25% tolerance: the highest ids leave node
    # 0 for node 1's least-loaded cores
    assert [(t.task_id, left.core_id) for t, left in moves] \
        == [(15, 3), (14, 2), (13, 1)]
    assert [t.current_core for t, _ in moves] == [4, 5, 6]
    assert [c.runqueue[-1].task_id for c in cores[4:7]] == [15, 14, 13]
    assert_queued(cores, tasks)
    counts = {0: 0, 1: 0}
    for c in cores:
        counts[c.node_id] += len(c.runqueue)
    assert counts == {0: 13, 1: 11}


def test_rebalance_leaves_tolerable_imbalance_alone():
    topo = make_topo(2, 4)
    cores = cores_for(topo)
    tasks = queued_tasks(topo, cores, [5, 4])
    queues = [list(c.runqueue) for c in cores]
    assert rebalance(PolicyKind("linux"), tasks, cores) == []
    assert [c.runqueue for c in cores] == queues
    assert_queued(cores, tasks)


def test_rebalance_phoenix_respects_allowed_nodes():
    topo = make_topo(2, 4)
    cores = cores_for(topo)
    tasks = queued_tasks(topo, cores, [4, 0])
    # node 1 is idle, but the process is consolidated on node 0
    assert rebalance(PolicyKind("phoenix"), tasks, cores) == []
    for task in tasks:
        task.allowed_nodes = [0, 1]
    moves = rebalance(PolicyKind("phoenix"), tasks, cores)
    assert len(moves) == 2
    assert all(left.node_id == 0 for _, left in moves)
    nodes = {topo.cores[t.current_core].node_id for t in tasks}
    assert nodes == {0, 1}
    assert [len(c.runqueue) for c in cores] == [1, 1, 0, 0, 1, 1, 0, 0]
    assert_queued(cores, tasks)


def test_window_sampling_accumulates_and_resets():
    # each tick adds the task's flushed change to its window; the window's
    # last tick records it, keeps it as the last window and starts a new one
    spec = preset("gups_like", thread_count=1, footprint_pages=64)
    sim = Simulation(Scenario(
        machine={"nodes": 1, "cores_per_node": 1},
        workloads=[WorkloadEntry(spec)],
        policy=PolicyKind("linux", window=3, autonuma=False),
        duration_quanta=4, timeseries=True))
    sim.step()  # spawns the task and ticks it once
    task = sim.tasks[0]
    first = task.window()
    assert task.ticks_in_window == 1
    assert first == dict(zip(WINDOW_COUNTERS, task.counters.snapshot()))
    assert first["total_cycles"] > 0
    for ticks in (2, 3):
        task.counters.total_cycles += 100
        task.counters.pagewalk_cycles += 30
        sim._tick(task)
        if ticks == 2:
            assert task.ticks_in_window == 2
            assert task.window() == dict(
                first, total_cycles=first["total_cycles"] + 100,
                pagewalk_cycles=first["pagewalk_cycles"] + 30)
            assert task.last_window is None
    total = first["total_cycles"] + 200
    walks = first["pagewalk_cycles"] + 60
    assert task.last_window == dict(first, total_cycles=total,
                                    pagewalk_cycles=walks)
    [row] = task.window_history
    assert (row["total_cycles"], row["pagewalk_cycles"]) == (total, walks)
    assert row["pw_ratio"] == walks / total
    assert task.ticks_in_window == 0
    assert task.window() == dict.fromkeys(WINDOW_COUNTERS, 0)


def test_bandwidth_estimate_is_misses_times_line_size():
    # two one-thread processes on one node; each process's estimate is its
    # task's llc misses times the line size, from the partial window until
    # the first one completes, then from the last complete window
    spec = preset("stream_like", thread_count=1, footprint_pages=64)
    scenario = Scenario(
        machine={"nodes": 1, "cores_per_node": 2},
        workloads=[WorkloadEntry(spec), WorkloadEntry(spec)],
        policy=PolicyKind("linux", window=3), duration_quanta=7,
        quantum_cycles=1000)
    sim = Simulation(scenario)
    misses = {-1: [0, 0]}  # each task's llc misses after each quantum
    for q in range(7):
        sim.step()
        misses[q] = [t.counters.llc_misses for t in sim.tasks]
        # windows end at quanta 2 and 5; before 2 the partial one counts
        since, until = (-1, q) if q < 2 else (-1, 2) if q < 5 else (2, 5)
        stats = sim._node_loads()[0].process_stats
        assert stats == {pid: ((misses[until][pid] - misses[since][pid]) * 64,
                               "low") for pid in (0, 1)}, q
    assert misses[5][0] > misses[2][0] > 0


def breach_task(pid=1):
    return TaskState(0, pid, allowed_nodes=[0])


BREACH = 0.3  # a window's page-walk ratio above the default threshold


def test_phoenix_evaluate_is_quiet_below_threshold():
    topo = make_topo(2, 1)
    space = AddressSpace(topo, 0)
    task = breach_task()
    policy = PolicyKind("phoenix")
    loads = {0: NodeLoad(0, utilization=0.9)}
    action = phoenix_evaluate(task, 0.05, loads, space, policy, 0.6,
                              current_node=0)
    assert action.kind == "none"


def test_phoenix_evaluate_throttles_the_saturating_antagonist_first():
    topo = make_topo(2, 1)
    space = AddressSpace(topo, 0)
    policy = PolicyKind("phoenix")
    task = breach_task(pid=1)
    loads = {0: NodeLoad(0, utilization=0.95, process_stats={
        1: (5_000, "high"),       # the victim itself
        2: (900_000, "low"),      # bandwidth hog
        3: (100_000, "low"),
    })}
    action = phoenix_evaluate(task, BREACH, loads, space, policy, 0.6,
                              current_node=0)
    assert action.kind == "throttle"
    assert action.process_id == 2
    assert action.node == 0
    assert action.cap == 0.1

    # the cap lands; the next window holds off while it takes effect
    loads[0].mba_caps[2] = action.cap
    action = phoenix_evaluate(task, BREACH, loads, space, policy, 0.6,
                              current_node=0)
    assert action.kind == "already_handled"

    # still breached on the following window: replicate on the current node
    task.allowed_nodes.append(1)
    loads[1] = NodeLoad(1)
    action = phoenix_evaluate(task, BREACH, loads, space, policy, 0.6,
                              current_node=1)
    assert action.kind == "replicate"
    assert action.node == 1


def test_phoenix_evaluate_never_throttles_quiet_or_high_priority_peers():
    topo = make_topo(2, 1)
    space = AddressSpace(topo, 0)
    policy = PolicyKind("phoenix")
    task = breach_task(pid=1)
    calm = {0: NodeLoad(0, utilization=0.4, process_stats={2: (900_000, "low")})}
    assert phoenix_evaluate(task, BREACH, calm, space, policy, 0.6, 1).kind \
        != "throttle"
    high = {0: NodeLoad(0, utilization=0.95,
                        process_stats={2: (900_000, "high")})}
    task = breach_task(pid=1)
    assert phoenix_evaluate(task, BREACH, high, space, policy, 0.6, 1).kind \
        != "throttle"
    selfish = {0: NodeLoad(0, utilization=0.95,
                           process_stats={1: (900_000, "low")})}
    task = breach_task(pid=1)
    assert phoenix_evaluate(task, BREACH, selfish, space, policy, 0.6, 1).kind \
        != "throttle"


def test_phoenix_evaluate_skips_replication_where_one_exists():
    topo = make_topo(2, 1)
    space = AddressSpace(topo, 0)
    add_replica(space, 1)
    policy = PolicyKind("phoenix", mba=False)
    task = breach_task()
    task.allowed_nodes = [0, 1]
    loads = {0: NodeLoad(0), 1: NodeLoad(1)}
    action = phoenix_evaluate(task, BREACH, loads, space, policy, 0.6,
                              current_node=1)
    assert action.kind == "already_handled"


def test_phoenix_evaluate_ignores_non_phoenix_tasks(monkeypatch):
    # the engine consults phoenix only under the phoenix policy, however
    # walk-heavy the windows are
    calls = []
    real = sched.phoenix_evaluate
    monkeypatch.setattr(sched, "phoenix_evaluate",
                        lambda *args: calls.append(args) or real(*args))
    spec = preset("gups_like", thread_count=2, footprint_pages=2048)
    for kind, evaluations in (("linux", 0), ("mitosis", 0), ("phoenix", 6)):
        calls.clear()
        scenario = Scenario(
            machine={"nodes": 2, "cores_per_node": 2},
            workloads=[WorkloadEntry(spec)],
            policy=PolicyKind(kind, window=2), duration_quanta=6,
            quantum_cycles=1000)
        result = Simulation(scenario).run()
        assert len(calls) == evaluations, kind
        assert max(t.counters.pagewalk_cycles / t.counters.total_cycles
                   for t in result.tasks) > 0.10, kind


def test_autonuma_migrates_remote_heavy_pages():
    # inputs map each accessing node to a Counter of the events it issued
    topo = make_topo(4, 1)
    space = AddressSpace(topo, 0)
    map_page(space, 0, 1, 0, requesting_node=0)
    map_page(space, 1, 2, 0, requesting_node=0)
    policy = PolicyKind("linux")  # migrate_threshold 4
    assert autonuma_step(space, {1: Counter({0: 4})}, policy) == [(0, 1)]
    assert autonuma_step(space, {1: Counter({0: 3})}, policy) == []
    # local traffic dominates: remote count met but page stays put
    assert autonuma_step(space, {0: Counter({0: 10}), 1: Counter({0: 4})},
                         policy) == []
    # remote nodes tie: the lowest id wins
    assert autonuma_step(space, {1: Counter({1: 2}), 2: Counter({1: 2})},
                         policy) == [(1, 1)]
    # unmapped pages are skipped
    assert autonuma_step(space, {1: Counter({99: 8})}, policy) == []
    # sub-threshold remote counts across several pages move nothing
    assert autonuma_step(space, {1: Counter({0: 1}), 2: Counter({1: 1})},
                         policy) == []
    # a VM op in the stream is counted with the pages but is not one
    op = VmOp("unmap", 0, 1)
    assert autonuma_step(space, {1: Counter({op: 8})}, policy) == []
    assert autonuma_step(space, {1: Counter({op: 8, 0: 4})},
                         policy) == [(0, 1)]
    # a page seen from two nodes sums its samples and is picked once:
    # neither node alone reaches the threshold
    assert autonuma_step(space, {2: Counter({0: 2}), 1: Counter({0: 3})},
                         policy) == [(0, 1)]


def test_on_exit_detaches_the_core():
    spec = preset("gups_like", thread_count=2, footprint_pages=64)
    scenario = Scenario(machine={"nodes": 2, "cores_per_node": 2},
                        workloads=[WorkloadEntry(spec)],
                        policy=PolicyKind("linux"), duration_quanta=3)
    result = Simulation(scenario).run()
    assert [t.current_core for t in result.tasks] == [None, None]
    assert not any(c.runqueue for c in result.cores)
    assert all(t.counters.events_issued for t in result.tasks)
