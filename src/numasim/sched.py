"""Scheduling policies: thread placement, balancing, and phoenix decisions.

The scheduler owns the run queues.  A core's run queue is the only record of
the tasks it runs, and a task's current_core names the core whose queue holds
it: placement appends a task to a queue, balancing moves it to another, and
per-node task and idle-core counts are read from the queues.

Three policy kinds are modeled.  "linux" spreads threads for balance and
relies on lazy data migration.  "mitosis" schedules like linux but the engine
eagerly replicates page tables on every node.  "phoenix" consolidates each
process on a home node, watches per-window performance counters, and on a
page-walk ratio breach first throttles a bandwidth antagonist; replication is
the last resort, and page tables follow the process when it moves.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .pagetable import ALLOC_POLICIES, AddressSpace
from .topology import Topology, check_field_types

POLICY_KINDS = ("linux", "mitosis", "phoenix")
MIN_MBA_CAP = 0.1


@dataclass
class PolicyKind:
    kind: str
    threshold_pw_ratio: float = 0.10
    imbalance_tolerance: float = 0.25
    window: int = 10                  # scheduler ticks per evaluation window
    autonuma: bool = True
    mba: bool = True
    force_replicas: Optional[int] = None
    lock_mode: Optional[str] = None   # None picks per policy kind
    rebalance_interval: int = 10
    scan_period: int = 50             # quanta between locality scans
    scan_share: float = 0.5           # fraction of mapped pages sampled per scan
    migrate_threshold: int = 4        # remote samples before a page migrates
    alloc_policy: Optional[str] = None

    def validate(self) -> None:
        check_field_types(self)
        if self.kind not in POLICY_KINDS:
            raise ValueError(f"unknown policy kind {self.kind!r}")
        if not 0.0 < self.threshold_pw_ratio < 1.0:
            raise ValueError("threshold_pw_ratio must be in (0, 1)")
        if not 0.0 <= self.imbalance_tolerance < 1.0:
            raise ValueError("imbalance_tolerance must be in [0, 1)")
        if self.window < 1:
            raise ValueError("window must be at least one tick")
        if self.force_replicas is not None and self.force_replicas < 1:
            raise ValueError("force_replicas must be positive")
        if self.lock_mode not in (None, "per_table", "global"):
            raise ValueError("lock_mode must be per_table or global")
        if self.rebalance_interval < 1 or self.scan_period < 1:
            raise ValueError("intervals must be positive")
        if not 0.0 <= self.scan_share <= 1.0:
            raise ValueError("scan_share must be in [0, 1]")
        if self.migrate_threshold < 1:
            raise ValueError("migrate_threshold must be positive")
        if self.alloc_policy not in (None, *ALLOC_POLICIES):
            raise ValueError(f"alloc_policy must be one of {ALLOC_POLICIES}")


@dataclass(eq=False)  # run queues find a task by identity
class TaskState:
    task_id: int
    process_id: int
    allowed_nodes: List[int] = field(default_factory=list)  # one per process
    current_core: Optional[int] = None
    last_phoenix_action: Optional[str] = None


@dataclass
class NodeLoad:
    node_id: int
    bandwidth_bytes_this_epoch: int = 0
    utilization: float = 0.0
    mba_caps: Dict[int, float] = field(default_factory=dict)
    # process id -> (bandwidth estimate, priority) for tasks resident here
    process_stats: Dict[int, Tuple[int, str]] = field(default_factory=dict)


@dataclass
class Core:
    """A hardware thread; the head of its run queue runs each quantum."""
    core_id: int
    node_id: int
    physical_core_id: int
    runqueue: List[TaskState] = field(default_factory=list)
    last_task_id: Optional[int] = None  # the task that ran last quantum
    partition_active: bool = False      # its TLB and caches are halved


@dataclass
class Action:
    kind: str                      # none, throttle, replicate, already_handled
    node: Optional[int] = None
    process_id: Optional[int] = None
    cap: Optional[float] = None


def _tasks_on(cores: Sequence[Core], node_id: int) -> int:
    return sum(len(c.runqueue) for c in cores if c.node_id == node_id)


def _idle_cores_on(cores: Sequence[Core], node_id: int) -> int:
    return sum(not c.runqueue for c in cores if c.node_id == node_id)


def place_process(task: TaskState, policy: PolicyKind,
                  loads: Dict[int, NodeLoad], cores: Sequence[Core]) -> int:
    """Pick the home node for a newly exec'd process and allow it only there."""
    if policy.kind == "phoenix":
        # quietest memory first, then the most idle cores, then lowest id
        node = min(loads, key=lambda n: (loads[n].bandwidth_bytes_this_epoch,
                                         -_idle_cores_on(cores, n), n))
    else:
        node = min(loads, key=lambda n: (_tasks_on(cores, n), n))
    task.allowed_nodes = [node]
    return node


def _sibling_occupancy(cores: Sequence[Core]) -> Dict[int, int]:
    by_phys: Dict[int, int] = {}
    for core in cores:
        by_phys[core.physical_core_id] = by_phys.get(core.physical_core_id, 0) \
            + len(core.runqueue)
    return by_phys


def _idle_core_on(cores: Sequence[Core], node_id: int) -> Optional[Core]:
    by_phys = _sibling_occupancy(cores)
    best = None
    for core in cores:
        if core.node_id != node_id or core.runqueue:
            continue
        # prefer a core whose physical sibling is also free
        key = (by_phys[core.physical_core_id] > 0, core.core_id)
        if best is None or key < best[0]:
            best = (key, core)
    return best[1] if best else None


def _least_loaded_core(cores: Sequence[Core], nodes: Sequence[int]) -> Core:
    eligible = [c for c in cores if c.node_id in nodes]
    return min(eligible, key=lambda c: (len(c.runqueue), c.core_id))


def _take(task: TaskState, core: Core) -> int:
    core.runqueue.append(task)
    task.current_core = core.core_id
    return core.core_id


def place_thread(task: TaskState, policy: PolicyKind, loads: Dict[int, NodeLoad],
                 cores: Sequence[Core], topo: Topology) -> int:
    """Queue the task on a core, growing a phoenix process's node set only
    when full.

    Phoenix fills idle cores on the allowed nodes first; when none remain it
    annexes the closest outside node (ties: least bandwidth, most idle cores)
    and only time-shares once every node is busy.  The other policies place
    each thread on the node running the fewest tasks.
    """
    if policy.kind == "phoenix":
        for node in task.allowed_nodes:
            core = _idle_core_on(cores, node)
            if core is not None:
                return _take(task, core)
        home = task.allowed_nodes[0]
        candidates = []
        for node_id, load in loads.items():
            if node_id in task.allowed_nodes:
                continue
            if _idle_core_on(cores, node_id) is None:
                continue
            factor = topo.links[(home, node_id)].latency_factor
            candidates.append((factor, load.bandwidth_bytes_this_epoch,
                               -_idle_cores_on(cores, node_id), node_id))
        if candidates:
            node = min(candidates)[3]
            task.allowed_nodes.append(node)
            return _take(task, _idle_core_on(cores, node))
        return _take(task, _least_loaded_core(cores, task.allowed_nodes))

    order = sorted(loads, key=lambda n: (_tasks_on(cores, n), n))
    for node in order:
        core = _idle_core_on(cores, node)
        if core is not None:
            return _take(task, core)
    return _take(task, _least_loaded_core(cores, order))


def rebalance(policy: PolicyKind, tasks: Sequence[TaskState],
              cores: Sequence[Core]) -> List[Tuple[TaskState, Core]]:
    """Move queued tasks between nodes to even out per-node task counts;
    return each move as (task, the core it left).

    linux and mitosis move any task until the busiest node is within the
    imbalance tolerance of the idlest.  phoenix balances each process only
    across its own allowed nodes, so consolidation is never undone.  A task
    moves to an idle core on the idlest node, else to its least-loaded one.
    cores[i] is core i.
    """
    moves: List[Tuple[TaskState, Core]] = []

    def balance(group: List[TaskState], nodes: List[int]) -> None:
        if len(nodes) < 2:
            return
        counts = {n: 0 for n in nodes}
        on_node: Dict[int, List[TaskState]] = {n: [] for n in nodes}
        for task in group:
            node = cores[task.current_core].node_id
            if node in counts:
                counts[node] += 1
                on_node[node].append(task)
        for _ in range(len(group)):
            hi = max(nodes, key=lambda n: (counts[n], -n))
            lo = min(nodes, key=lambda n: (counts[n], n))
            if counts[hi] - counts[lo] <= 1:
                break
            if counts[hi] <= counts[lo] * (1.0 + policy.imbalance_tolerance):
                break
            task = max(on_node[hi], key=lambda t: t.task_id)
            target = _idle_core_on(cores, lo)
            if target is None:
                target = _least_loaded_core(cores, [lo])
            left = cores[task.current_core]
            left.runqueue.remove(task)
            _take(task, target)
            on_node[hi].remove(task)
            on_node[lo].append(task)
            counts[hi] -= 1
            counts[lo] += 1
            moves.append((task, left))

    if policy.kind == "phoenix":
        by_process: Dict[int, List[TaskState]] = {}
        for task in tasks:
            by_process.setdefault(task.process_id, []).append(task)
        for group in by_process.values():
            balance(group, list(group[0].allowed_nodes))
    else:
        nodes = sorted({c.node_id for c in cores})
        balance(list(tasks), nodes)
    return moves


def phoenix_evaluate(task: TaskState, pw_ratio: float,
                     loads: Dict[int, NodeLoad], space: AddressSpace,
                     policy: PolicyKind, knee: float,
                     current_node: int) -> Action:
    """Window-rollover decision: throttle interference before replicating.

    pw_ratio is the task's page-walk share of the window's cycles.  Up to
    the threshold nothing happens.  Above it, a co-resident low-priority
    process with the node's top bandwidth estimate is capped first (when
    the node is past the contention knee).  Replication is only proposed
    on a later window, for an allowed node that lacks a replica.
    """
    if pw_ratio <= policy.threshold_pw_ratio:
        task.last_phoenix_action = None
        return Action("none")

    if policy.mba:
        for node in task.allowed_nodes:
            load = loads[node]
            if load.utilization <= knee or not load.process_stats:
                continue
            top_pid, (top_bw, top_prio) = max(
                load.process_stats.items(), key=lambda kv: (kv[1][0], -kv[0]))
            if top_pid == task.process_id or top_prio != "low" or top_bw == 0:
                continue
            if load.mba_caps.get(top_pid, 1.0) <= MIN_MBA_CAP:
                continue  # already fully throttled; consider replication next
            task.last_phoenix_action = "throttle"
            return Action("throttle", node=node, process_id=top_pid,
                          cap=MIN_MBA_CAP)

    if task.last_phoenix_action == "throttle":
        # give the throttle a full window to act before replicating
        task.last_phoenix_action = "cooldown"
        return Action("already_handled")
    if current_node in task.allowed_nodes and \
            current_node not in space.replicas:
        task.last_phoenix_action = "replicate"
        return Action("replicate", node=current_node)
    return Action("already_handled")


def autonuma_step(space: AddressSpace, access_counts: Dict[int, Counter],
                  policy: PolicyKind) -> List[Tuple[int, int]]:
    """Pick pages whose remote access counts justify moving the data.

    access_counts maps each accessing node to a Counter of what its cores
    issued since the last scan; keys that are not ints (VM ops) are not
    pages.  A page migrates to its dominant accessor node once accesses
    from nodes other than the backing node reach the migrate threshold.
    Ties go to the lowest node id.
    """
    threshold = policy.migrate_threshold
    nodes = sorted(access_counts)
    counters = [access_counts[node] for node in nodes]
    # remote samples are a subset of all samples, and only a page one node
    # counted that often, or two nodes both counted, can have enough
    candidates = set()
    for i, counter in enumerate(counters):
        candidates.update(k for k, n in counter.items() if n >= threshold)
        for other in counters[i + 1:]:
            candidates |= counter.keys() & other.keys()
    migrations: List[Tuple[int, int]] = []
    for vpn in sorted(k for k in candidates if type(k) is int):
        counts = [c.get(vpn, 0) for c in counters]
        if sum(counts) < threshold:
            continue
        mapping = space.lookup(vpn)
        if mapping is None:
            continue
        remote = sum(count for node, count in zip(nodes, counts)
                     if node != mapping.pfn_node)
        if remote < threshold:
            continue
        dominant = nodes[counts.index(max(counts))]
        if dominant != mapping.pfn_node:
            migrations.append((vpn, dominant))
    return migrations
