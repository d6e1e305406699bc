"""Scheduling policies: thread placement, balancing, and phoenix decisions.

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


@dataclass
class TaskState:
    task_id: int
    process_id: int
    allowed_nodes: List[int] = field(default_factory=list)
    current_core: Optional[int] = None
    last_phoenix_action: Optional[str] = None


@dataclass
class NodeLoad:
    node_id: int
    running_tasks: int = 0
    idle_cores: int = 0
    bandwidth_bytes_this_epoch: int = 0
    utilization: float = 0.0
    mba_caps: Dict[int, float] = field(default_factory=dict)
    # process id -> (bandwidth estimate, priority) for tasks resident here
    process_stats: Dict[int, Tuple[int, str]] = field(default_factory=dict)


@dataclass
class CoreSlot:
    core_id: int
    node_id: int
    physical_core_id: int
    occupancy: int = 0


@dataclass
class Action:
    kind: str                      # none, throttle, replicate, already_handled
    node: Optional[int] = None
    process_id: Optional[int] = None
    cap: Optional[float] = None


def on_fork(parent: Optional[TaskState], task_id: int,
            process_id: int) -> TaskState:
    """Threads share the parent's allowed nodes; new processes wait for
    placement."""
    task = TaskState(task_id, process_id)
    if parent is not None:
        task.allowed_nodes = parent.allowed_nodes  # shared per process
    return task


def place_process(task: TaskState, policy: PolicyKind,
                  loads: Dict[int, NodeLoad]) -> int:
    """Pick the home node for a newly exec'd process and allow it only there."""
    if policy.kind == "phoenix":
        # quietest memory first, then the most idle cores, then lowest id
        node = min(loads.values(),
                   key=lambda l: (l.bandwidth_bytes_this_epoch, -l.idle_cores,
                                  l.node_id)).node_id
    else:
        node = min(loads.values(),
                   key=lambda l: (l.running_tasks, l.node_id)).node_id
    task.allowed_nodes = [node]
    return node


def _sibling_occupancy(slots: Sequence[CoreSlot]) -> Dict[int, int]:
    by_phys: Dict[int, int] = {}
    for slot in slots:
        by_phys[slot.physical_core_id] = by_phys.get(slot.physical_core_id, 0) \
            + slot.occupancy
    return by_phys


def _idle_slot_on(slots: Sequence[CoreSlot], node_id: int) -> Optional[CoreSlot]:
    by_phys = _sibling_occupancy(slots)
    best = None
    for slot in slots:
        if slot.node_id != node_id or slot.occupancy:
            continue
        # prefer a core whose physical sibling is also free
        key = (by_phys[slot.physical_core_id] > 0, slot.core_id)
        if best is None or key < best[0]:
            best = (key, slot)
    return best[1] if best else None


def _least_loaded_slot(slots: Sequence[CoreSlot],
                       nodes: Sequence[int]) -> CoreSlot:
    eligible = [s for s in slots if s.node_id in nodes]
    return min(eligible, key=lambda s: (s.occupancy, s.core_id))


def _take(task: TaskState, slot: CoreSlot, loads: Dict[int, NodeLoad]) -> int:
    if slot.occupancy == 0:
        loads[slot.node_id].idle_cores -= 1
    slot.occupancy += 1
    loads[slot.node_id].running_tasks += 1
    task.current_core = slot.core_id
    return slot.core_id


def place_thread(task: TaskState, policy: PolicyKind, loads: Dict[int, NodeLoad],
                 slots: Sequence[CoreSlot], topo: Topology) -> int:
    """Assign a core, growing a phoenix process's node set only when full.

    Phoenix fills idle cores on the allowed nodes first; when none remain it
    annexes the closest outside node (ties: least bandwidth, most idle cores)
    and only time-shares once every node is busy.  The other policies place
    each thread on the least-loaded node.
    """
    if policy.kind == "phoenix":
        for node in task.allowed_nodes:
            slot = _idle_slot_on(slots, node)
            if slot is not None:
                return _take(task, slot, loads)
        home = task.allowed_nodes[0]
        candidates = []
        for node_id, load in loads.items():
            if node_id in task.allowed_nodes:
                continue
            if _idle_slot_on(slots, node_id) is None:
                continue
            factor = topo.links[(home, node_id)].latency_factor
            candidates.append((factor, load.bandwidth_bytes_this_epoch,
                               -load.idle_cores, node_id))
        if candidates:
            node = min(candidates)[3]
            task.allowed_nodes.append(node)
            return _take(task, _idle_slot_on(slots, node), loads)
        slot = _least_loaded_slot(slots, task.allowed_nodes)
        return _take(task, slot, loads)

    order = sorted(loads.values(), key=lambda l: (l.running_tasks, l.node_id))
    for load in order:
        slot = _idle_slot_on(slots, load.node_id)
        if slot is not None:
            return _take(task, slot, loads)
    slot = _least_loaded_slot(slots, [l.node_id for l in order])
    return _take(task, slot, loads)


def rebalance(policy: PolicyKind, tasks: Sequence[TaskState],
              slots: Sequence[CoreSlot]) -> List[Tuple[int, int]]:
    """Propose (task_id, new_core) moves to even out per-node task counts.

    linux and mitosis move any task until the busiest node is within the
    imbalance tolerance of the idlest.  phoenix balances each process only
    across its own allowed nodes, so consolidation is never undone.
    """
    slot_by_core = {s.core_id: s for s in slots}
    moves: List[Tuple[int, int]] = []

    def balance(group: List[TaskState], nodes: List[int]) -> None:
        if len(nodes) < 2:
            return
        counts = {n: 0 for n in nodes}
        on_node: Dict[int, List[TaskState]] = {n: [] for n in nodes}
        for task in group:
            if task.current_core is None:
                continue
            node = slot_by_core[task.current_core].node_id
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
            target = _idle_slot_on(slots, lo)
            if target is None:
                target = _least_loaded_slot(slots, [lo])
            old = slot_by_core[task.current_core]
            old.occupancy -= 1
            target.occupancy += 1
            task.current_core = target.core_id
            on_node[hi].remove(task)
            on_node[lo].append(task)
            counts[hi] -= 1
            counts[lo] += 1
            moves.append((task.task_id, target.core_id))

    if policy.kind == "phoenix":
        by_process: Dict[int, List[TaskState]] = {}
        for task in tasks:
            by_process.setdefault(task.process_id, []).append(task)
        for group in by_process.values():
            balance(group, list(group[0].allowed_nodes))
    else:
        nodes = sorted({s.node_id for s in slots})
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
