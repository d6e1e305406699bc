"""Quantum-stepped simulation core.

Each quantum every core runs the task at the head of its run queue, draws
that task's deterministic event stream, and charges cycles for TLB lookups,
page walks, data accesses, and VM operations.  Memory traffic recorded in one
quantum sets the contention multipliers for the next, so interference always
acts with a one-epoch lag.  Prices are therefore fixed per quantum: `step`
installs the quantum's latency table as `Topology.cycles` once, and every
access reads its price from it.  All iteration is in fixed id order; a
scenario and seed fully determine the output.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter, defaultdict, deque
from dataclasses import asdict, dataclass, field
from itertools import chain
from operator import attrgetter
from typing import Dict, List, Optional, Sequence, Tuple, Union

from . import metrics, pagetable, sched, workload
from .mmu import Mmu
# clear_access_hint is priced inline in _run_task and not called here; the
# binding stays because the benchmark's tests require this module to bind
# every leaf mutation its layer trace patches
from .pagetable import (AddressSpace, PROT_READ, add_replica,
                        clear_access_hint, map_page, map_pages, migrate_tables,
                        protect_range, set_access_hint, set_frame_node,
                        unmap_page)
from .sched import Action, Core, NodeLoad, PolicyKind, TaskState
from .topology import Topology, access_latency, build_topology, latency_table
from .workload import VmOp

PAGE_BYTES = 4096
CACHELINE_BYTES = 64
COMPUTE_CYCLES_PER_EVENT = 1
DEFAULT_QUANTUM_CYCLES = 100_000

CONTENTION_KNEE = 0.6
CONTENTION_SLOPE = 3.0
CONTENTION_CAP = 4.0


@dataclass
class ContentionState:
    """Per-node and per-link utilization from the previous quantum; their
    multipliers fix this quantum's prices."""
    u_node: Dict[int, float] = field(default_factory=dict)
    u_link: Dict[Tuple[int, int], float] = field(default_factory=dict)

    def multiplier(self, u: float) -> float:
        if u <= CONTENTION_KNEE:
            return 1.0
        m = 1.0 + CONTENTION_SLOPE * (u - CONTENTION_KNEE) / (1.0 - CONTENTION_KNEE)
        return min(CONTENTION_CAP, m)

    def node_multiplier(self, node_id: int) -> float:
        return self.multiplier(self.u_node.get(node_id, 0.0))

    def link_multiplier(self, from_node: int, to_node: int) -> float:
        return self.multiplier(self.u_link.get((from_node, to_node), 0.0))


def compute_contention(topo: Topology, node_bytes: Dict[int, int],
                       link_bytes: Dict[Tuple[int, int], int],
                       quantum_cycles: int) -> ContentionState:
    """Utilization is bytes moved over capacity times quantum length, clamped."""
    state = ContentionState()
    for node in topo.nodes:
        cap = node.bandwidth_capacity * quantum_cycles
        state.u_node[node.node_id] = min(1.0, node_bytes.get(node.node_id, 0) / cap)
    for (a, b), link in topo.links.items():
        if a == b:
            continue
        cap = link.bandwidth_capacity * quantum_cycles
        state.u_link[(a, b)] = min(1.0, link_bytes.get((a, b), 0) / cap)
    return state


def apply_mba(cap: float, volume: int) -> int:
    """Events a task capped at cap issues this quantum: that share of the
    quantum's own volume, at least one; the rest stay queued.  The queue
    holds at least this quantum's events and a cap is at most 1, so it
    always holds the budget."""
    return max(1, int(cap * volume))


# the counters a flush adds to the task's node; a window is their change
# between two snapshots
WINDOW_COUNTERS = ("total_cycles", "pagewalk_cycles", "stall_cycles",
                   "dtlb_misses", "tlb_hits", "llc_misses",
                   "replica_update_cycles", "shootdown_cycles", "bandwidth_bytes")
_window_counters = attrgetter(*WINDOW_COUNTERS)


def _pw_ratio(window: Dict[str, int]) -> float:
    """The page-walk share of a window's cycles."""
    total = window["total_cycles"]
    return window["pagewalk_cycles"] / total if total else 0.0


@dataclass
class CounterSet:
    events_issued: int = 0
    total_cycles: int = 0
    pagewalk_cycles: int = 0
    stall_cycles: int = 0
    dtlb_misses: int = 0
    tlb_hits: int = 0
    llc_misses: int = 0
    replica_update_cycles: int = 0
    shootdown_cycles: int = 0
    lock_wait_cycles: int = 0
    data_migrations: int = 0
    table_pages_migrated: int = 0
    thread_migrations: int = 0
    bandwidth_bytes: int = 0
    walk_mem_accesses: int = 0
    walk_remote_accesses: int = 0

    def snapshot(self) -> Tuple[int, ...]:
        return _window_counters(self)


@dataclass
class WorkloadEntry:
    spec: workload.WorkloadSpec
    start_quantum: int = 0
    priority: Optional[str] = None  # overrides the spec's

    @property
    def process_priority(self) -> str:
        return self.priority or self.spec.priority


@dataclass
class Scenario:
    machine: dict
    workloads: List[WorkloadEntry]
    policy: PolicyKind
    duration_quanta: int
    rng_seed: int = 1
    quantum_cycles: int = DEFAULT_QUANTUM_CYCLES
    timeseries: bool = False
    prefault: bool = False
    name: str = "scenario"

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "machine": dict(self.machine),
            "workloads": [
                {"spec": asdict(e.spec), "start": e.start_quantum,
                 "priority": e.priority}
                for e in self.workloads],
            "policy": asdict(self.policy),
            "run": {"duration": self.duration_quanta, "seed": self.rng_seed,
                    "quantum": self.quantum_cycles,
                    "timeseries": self.timeseries, "prefault": self.prefault},
        }

    def fingerprint(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()

    def base_fingerprint(self) -> str:
        """Fingerprint with the policy removed, for cross-policy comparison."""
        data = self.to_dict()
        del data["policy"]
        blob = json.dumps(data, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


class SimTask(TaskState):
    """One schedulable thread plus its engine-side bookkeeping."""

    def __init__(self, task_id: int, process_id: int, thread_index: int,
                 allowed_nodes: List[int]):
        super().__init__(task_id, process_id, allowed_nodes)
        self.thread_index = thread_index
        self.counters = CounterSet()
        # MBA's queue: generated, unissued events (at most one quantum's),
        # then the indices of quanta owed but not yet generated
        self.backlog: List[Union[int, VmOp]] = []
        self.deferred: deque = deque()
        # WINDOW_COUNTERS as of the last flush, and as of this window's start
        self._snap = self.counters.snapshot()
        self.window_start = self._snap
        self.ticks_in_window = 0
        self.last_window: Optional[Dict[str, int]] = None
        # one row per window, kept only for a timeseries
        self.window_history: List[Dict[str, float]] = []

    def window(self) -> Dict[str, int]:
        """This window's counters so far: the flushed change since it began."""
        return {name: now - then for name, now, then
                in zip(WINDOW_COUNTERS, self._snap, self.window_start)}


class SimProcess:
    def __init__(self, pid: int, entry: WorkloadEntry, space: AddressSpace):
        self.pid = pid
        self.spec = entry.spec
        self.priority = entry.process_priority
        self.space = space
        self.tasks: List[SimTask] = []
        self.data_rr = 0
        self.charge_rr = 0
        # with autonuma on more than one node: node -> event -> times issued
        # there since the scan
        self.access_counts: Dict[int, Counter] = defaultdict(Counter)
        self.cores: Tuple[int, ...] = ()  # its tasks' cores, each once
        self.targets: Dict[int, Tuple[int, ...]] = {}  # core -> the others

    def keep_cores(self) -> None:
        """Record where the tasks run; called whenever one moves."""
        cores = self.cores = tuple(dict.fromkeys(t.current_core
                                                 for t in self.tasks))
        self.targets = {c: tuple(o for o in cores if o != c) for c in cores}


class Simulation:
    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.policy = scenario.policy
        self.topo = build_topology(scenario.machine)
        self.mmu = Mmu(self.topo)
        self.contention = ContentionState()
        self.cores = [Core(c.core_id, c.node_id, c.physical_core_id)
                      for c in self.topo.cores]
        self.tasks: List[SimTask] = []
        self.processes: List[SimProcess] = []
        self.node_counters = {n.node_id: CounterSet() for n in self.topo.nodes}
        self.actions: List[dict] = []
        self.mba_caps: Dict[Tuple[int, int], float] = {}
        self.quantum = 0
        self.next_pfn = 0
        self._pending = sorted(range(len(scenario.workloads)),
                               key=lambda i: (scenario.workloads[i].start_quantum, i))
        self._node_bytes: Dict[int, int] = {}
        self._link_bytes: Dict[Tuple[int, int], int] = {}
        self._prev_node_bytes: Dict[int, int] = {}
        # on one node every page is local to every access, so no page has a
        # remote count and autonuma_step can return no migration: the scan
        # still arms hints, but no access is counted
        self.count_accesses = self.policy.autonuma and len(self.topo.nodes) > 1

    # -- load snapshots -------------------------------------------------------

    def _node_loads(self) -> Dict[int, NodeLoad]:
        loads = {n.node_id: NodeLoad(n.node_id) for n in self.topo.nodes}
        for node_id, load in loads.items():
            load.bandwidth_bytes_this_epoch = self._prev_node_bytes.get(node_id, 0)
            load.utilization = self.contention.u_node.get(node_id, 0.0)
        for (node_id, pid), cap in self.mba_caps.items():
            loads[node_id].mba_caps[pid] = cap
        for task in self.tasks:
            node_id = self.cores[task.current_core].node_id
            # bandwidth from the last complete window's cache misses, or the
            # partial window before the first completes
            window = task.last_window or task.window()
            bw = window["llc_misses"] * CACHELINE_BYTES
            stats = loads[node_id].process_stats
            proc = self.processes[task.process_id]
            prev = stats.get(proc.pid, (0, proc.priority))
            stats[proc.pid] = (prev[0] + bw, proc.priority)
        return loads

    # -- spawning ---------------------------------------------------------------

    def _spawn(self, entry: WorkloadEntry) -> None:
        pid = len(self.processes)
        main = SimTask(len(self.tasks), pid, 0, [])
        loads = self._node_loads()
        home = sched.place_process(main, self.policy, loads, self.cores)

        alloc = self.policy.alloc_policy or \
            (pagetable.HOME_NODE if self.policy.kind == "phoenix"
             else pagetable.FIRST_TOUCH)
        space = AddressSpace(self.topo, home, alloc)
        space.lock_mode = self.policy.lock_mode or \
            ("global" if self.policy.kind == "mitosis" else "per_table")
        proc = SimProcess(pid, entry, space)
        self.processes.append(proc)

        # the threads share the main thread's allowed nodes, one list
        proc.tasks = [main] + [
            SimTask(main.task_id + i, pid, i, main.allowed_nodes)
            for i in range(1, entry.spec.thread_count)]
        for task in proc.tasks:
            self.tasks.append(task)
            sched.place_thread(task, self.policy, loads, self.cores, self.topo)
        proc.keep_cores()

        replicate_on: List[int] = []
        if self.policy.kind == "mitosis":
            replicate_on = [n for n in self.topo.node_ids if n != home]
        elif self.policy.force_replicas:
            want = [home] + [n for n in sorted(self.topo.node_ids) if n != home]
            replicate_on = [n for n in want[:self.policy.force_replicas]
                            if n != home]
        for node in replicate_on:
            cost = add_replica(space, node)
            self._charge_pt_cost(main, cost)

        if self.scenario.prefault:
            self._prefault(proc)

    def _prefault(self, proc: SimProcess) -> None:
        """Warm start: install the whole footprint without charging anyone.

        Page vpn is touched by task vpn % threads.  Each PTE table's pages
        are mapped in one call from the node of its first page's toucher,
        which allocates the table when pages are mapped one at a time.
        """
        space = proc.space
        nodes = [self.cores[t.current_core].node_id for t in proc.tasks]
        n = len(nodes)
        fp = proc.spec.footprint_pages
        for first in range(0, fp, space.arity):
            vpns = range(first, min(first + space.arity, fp))
            pfn_nodes = self._data_nodes(proc,
                                         [nodes[vpn % n] for vpn in vpns])
            pfns = range(self.next_pfn, self.next_pfn + len(vpns))
            self.next_pfn = pfns.stop
            map_pages(space, vpns, pfns, pfn_nodes, nodes[first % n])
        space.begin_quantum()

    def _alloc_pfn(self) -> int:
        pfn = self.next_pfn
        self.next_pfn += 1
        return pfn

    def _data_nodes(self, proc: SimProcess, touchers: List[int]) -> List[int]:
        """The nodes that back new pages first touched from the nodes in
        touchers, in order: touchers itself, or under interleave the
        process's next nodes round-robin."""
        if proc.spec.data_policy != "interleave":
            return touchers
        ids = self.topo.node_ids
        rr = proc.data_rr
        proc.data_rr += len(touchers)
        return [ids[i % len(ids)] for i in range(rr, proc.data_rr)]

    # -- charging helpers ---------------------------------------------------------

    def _traffic(self, task: SimTask, from_node: int, to_node: int,
                 nbytes: int) -> None:
        task.counters.bandwidth_bytes += nbytes
        self._node_bytes[to_node] = self._node_bytes.get(to_node, 0) + nbytes
        self.node_counters[to_node].bandwidth_bytes += nbytes
        if from_node != to_node:
            key = (from_node, to_node)
            self._link_bytes[key] = self._link_bytes.get(key, 0) + nbytes

    def _charge_pt_cost(self, task: SimTask, cost: pagetable.PtOpCost) -> None:
        c = task.counters
        c.total_cycles += cost.cycles
        c.stall_cycles += cost.cycles
        c.replica_update_cycles += cost.cycles
        c.lock_wait_cycles += cost.lock_wait_cycles

    def _shoot_down(self, proc: SimProcess, task: SimTask,
                    cost: pagetable.PtOpCost, vpns: Sequence[int],
                    initiator_node: int, initiator_core: Optional[int]) -> None:
        """Charge task a leaf write of vpns, as _charge_pt_cost does, then
        drop vpns on every core running proc and charge task the IPIs.

        Each vpn is one IPI to each other core, however many of proc's tasks
        it queues, priced from initiator_node; the initiator's own core,
        when given, drops it unpriced.
        """
        ipis = self.mmu.tlb_shootdown(
            vpns, initiator_node, proc.targets.get(initiator_core, proc.cores),
            initiator_core)
        c = task.counters
        c.total_cycles += cost.cycles + ipis
        c.stall_cycles += cost.cycles
        c.replica_update_cycles += cost.cycles
        c.lock_wait_cycles += cost.lock_wait_cycles
        c.shootdown_cycles += ipis

    # -- event execution -----------------------------------------------------------

    def _run_task(self, task: SimTask, core: Core) -> None:
        """Issue the task's events for this quantum in one loop.

        Contention, and so every price, is fixed for the quantum: the loop
        tallies data accesses, LLC misses and walk reads per node, and
        prices them from the core's price row after it; those and the other
        counts are added to the task once.  Each access makes one
        tlb_lookup; hits are the accesses that did not miss.  Every miss
        takes the one walk that fills, inline, skipping the pop and
        reinsert of a PGD or PUD prefix the loop last made newest, which
        leaves the order unchanged.  A fault (a missing table or entry)
        first tallies the reads of one page_walk, then installs the page.
        A hint fault is priced inline by clear_access_hint's rule.  The
        stream holds each data access as its vpn, an int; a VmOp goes to
        _do_vm_op but is counted, and charged its compute cycle, here.
        With autonuma on more than one node, one Counter update per batch
        adds it to the process's counts for the core's node.  An LLC miss
        is a draw below llc_miss_rate from the task-quantum's own generator,
        made only when the rate is neither 0 nor 1.

        A task with events queued behind its MBA cap defers its new quantum
        as an index; a deferred quantum is generated when its first event
        issues, so the backlog holds at most one quantum's events.  Issue
        order is that of generating every quantum at once, and the cap
        budgets against this quantum's volume alone.
        """
        proc = self.processes[task.process_id]
        spec = proc.spec
        seed = self.scenario.rng_seed
        thread_index = task.thread_index
        backlog = task.backlog
        if backlog or task.deferred:
            volume = workload.quantum_volume(spec, thread_index, seed,
                                             self.quantum)
            task.deferred.append(self.quantum)
        else:
            backlog += workload.generate_quantum_events(
                spec, thread_index, seed, self.quantum)
            volume = len(backlog)
        issue = apply_mba(self.mba_caps.get((core.node_id, proc.pid), 1.0),
                          volume)
        llc_miss_rate = spec.llc_miss_rate
        draws = 0.0 < llc_miss_rate < 1.0
        llc_random = random.Random(
            f"{seed}:llc:{task.task_id}:{self.quantum}").random if draws else None

        space = proc.space
        tlb_lookup = self.mmu.tlb_lookup
        page_walk = self.mmu.page_walk
        node = core.node_id
        core_id = core.core_id
        price = self.topo.cycles[node]  # cycles to each node's memory
        # None of these is rebound within the quantum: set_partition runs in
        # step before any _run_task; add_replica and migrate_tables run in
        # _spawn, _tick and _rebalance, outside the run loop; flush_core
        # clears in place; VM ops and shootdowns pop from these same dicts.
        tlb = self.mmu.tlbs[core_id]
        pgd_cache, pud_cache, pmd_cache = self.mmu.pwcs[core_id]
        tlb_limit = self.mmu.tlb_limits[core_id]
        pgd_limit, pud_limit, pmd_limit = self.mmu.pwc_limits[core_id]
        paths = space.paths
        a = space.arity
        replica = space.replica_for(node)
        line_bytes = int(CACHELINE_BYTES * spec.bandwidth_intensity)
        bytes_to = [0] * len(self.topo.nodes)  # traffic by destination node
        reads_to = [0] * len(bytes_to)  # walks' table reads by node
        data_to = [0] * len(bytes_to)  # data accesses by the data's node
        # LLC misses by the data's node
        llc_to = data_to if llc_miss_rate == 1.0 else [0] * len(bytes_to)
        issued = proc.access_counts[node] if self.count_accesses else None
        events = misses = vm_ops = 0
        hint_own = hint_waits = 0  # hint faults' own cycles, lock waits
        # the PGD and PUD prefixes this loop last made newest in their caches;
        # a VM op may drop or reorder entries, and resets them
        newest_pgd = newest_pud = None

        while issue:
            if not backlog:
                backlog += workload.generate_quantum_events(
                    spec, thread_index, seed, task.deferred.popleft())
            batch = backlog[:issue]
            del backlog[:issue]
            issue -= len(batch)
            events += len(batch)
            if issued is not None:
                issued.update(batch)
            for vpn in batch:  # a data access's vpn, or a VmOp
                if type(vpn) is VmOp:
                    self._do_vm_op(task, core, vpn)
                    vm_ops += 1
                    newest_pgd = newest_pud = None
                    continue
                mapping = tlb_lookup(core_id, vpn)
                if mapping is None:
                    misses += 1
                    pmd = vpn // a
                    path = paths.get(pmd)
                    if path is not None:
                        mapping = path[3].entries.get(vpn % a)
                    if mapping is None:
                        # a fault: page_walk's reads, which fill nothing, then
                        # the page is installed and walked inline as mapped.
                        # page_walk refreshes only vpn's own prefixes, which
                        # that walk makes newest, so newest_pgd and newest_pud
                        # stay valid
                        for touched in page_walk(space, vpn, core_id):
                            reads_to[touched] += 1
                        cost = map_page(space, vpn, self._alloc_pfn(),
                                        self._data_nodes(proc, [node])[0], node)
                        self._charge_pt_cost(task, cost)
                        path = paths[pmd]
                        mapping = path[3].entries[vpn % a]
                    # the walk, unrolled: a read per PWC miss; the newest
                    # prefix is a hit that keeps its cache's order
                    pud = pmd // a
                    if pud != newest_pud:
                        pgd = pud // a
                        if pgd != newest_pgd:
                            if pgd_cache.pop(pgd, None) is None:
                                reads_to[path[0].resident[replica]] += 1
                                if len(pgd_cache) >= pgd_limit:
                                    del pgd_cache[next(iter(pgd_cache))]
                            pgd_cache[newest_pgd := pgd] = True
                        if pud_cache.pop(pud, None) is None:
                            reads_to[path[1].resident[replica]] += 1
                            if len(pud_cache) >= pud_limit:
                                del pud_cache[next(iter(pud_cache))]
                        pud_cache[newest_pud := pud] = True
                    if pmd_cache.pop(pmd, None) is None:
                        reads_to[path[2].resident[replica]] += 1
                        if len(pmd_cache) >= pmd_limit:
                            del pmd_cache[next(iter(pmd_cache))]
                    pmd_cache[pmd] = True
                    reads_to[path[3].resident[replica]] += 1
                    # the lookup just missed, so vpn is absent: no pop
                    if len(tlb) >= tlb_limit:
                        del tlb[next(iter(tlb))]
                    tlb[vpn] = mapping

                if mapping.numa_hint:
                    # access-sampling fault, clear_access_hint inline: one
                    # write to the leaf every replica shares, priced as a
                    # write to each copy of its PTE table, which the mapped
                    # page's path always holds
                    mapping.numa_hint = False
                    pte = paths[vpn // a][3]
                    own = sum(map(price.__getitem__, pte.resident.values()))
                    hint_own += own
                    hint_waits += space._lock_wait({id(pte)}, own)

                data_to[mapping.pfn_node] += 1
                if draws and llc_random() < llc_miss_rate:
                    llc_to[mapping.pfn_node] += 1

        # prices are fixed for the quantum: price the data accesses and the
        # walks' reads per node
        stall = walk_cycles = walk_accesses = walk_remote = 0
        for to_node, reads in enumerate(reads_to):
            walk_cycles += reads * price[to_node]
            walk_accesses += reads
            if to_node != node:
                walk_remote += reads
            stall += data_to[to_node] * price[to_node]
            bytes_to[to_node] += reads * CACHELINE_BYTES \
                + llc_to[to_node] * line_bytes

        c = task.counters
        c.events_issued += events
        hint_cycles = hint_own + hint_waits
        c.total_cycles += events * COMPUTE_CYCLES_PER_EVENT + stall \
            + walk_cycles + hint_cycles
        c.stall_cycles += stall + walk_cycles + hint_cycles
        c.replica_update_cycles += hint_cycles
        c.lock_wait_cycles += hint_waits
        c.pagewalk_cycles += walk_cycles
        c.walk_mem_accesses += walk_accesses
        c.walk_remote_accesses += walk_remote
        c.tlb_hits += events - vm_ops - misses
        c.dtlb_misses += misses
        c.llc_misses += sum(llc_to)
        for to_node, nbytes in enumerate(bytes_to):
            if nbytes:
                self._traffic(task, node, to_node, nbytes)

    def _do_vm_op(self, task: SimTask, core: Core, op: VmOp) -> None:
        proc = self.processes[task.process_id]
        space = proc.space
        fp = proc.spec.footprint_pages
        node, core_id = core.node_id, core.core_id
        start, end, kind = op.start, op.start + op.pages, op.kind
        # op.pages is at most fp, so the pages wrap to 0 at most once
        pages = range(start, end) if end <= fp \
            else [*range(start, fp), *range(end - fp)]

        if kind == "remap":
            dest = (start + fp // 2) % fp
            for vpn in pages:
                mapping = space.lookup(vpn)
                if mapping is None:
                    continue
                self._shoot_down(proc, task, unmap_page(space, vpn, node),
                                 (vpn,), node, core_id)
                # vpn is free now, so the search always finds a page
                target = space.next_free_vpn(dest, fp)
                dest = (target + 1) % fp
                cost = map_page(space, target, mapping.pfn, mapping.pfn_node,
                                node, prot=mapping.prot)
                self._charge_pt_cost(task, cost)
        elif kind == "protect":
            # one protect_range per run [first, end) of contiguous mapped pages
            runs: List[List[int]] = []
            for vpn in pages:
                if space.lookup(vpn) is not None:
                    if runs and runs[-1][1] == vpn:
                        runs[-1][1] += 1
                    else:
                        runs.append([vpn, vpn + 1])
            for first, end in runs:
                cost = protect_range(space, first, end - first, PROT_READ, node)
                self._shoot_down(proc, task, cost, range(first, end), node,
                                 core_id)
        elif kind == "map":
            for vpn in pages:
                if space.lookup(vpn) is None:
                    pfn_node = self._data_nodes(proc, [node])[0]
                    cost = map_page(space, vpn, self._alloc_pfn(), pfn_node,
                                    node)
                    self._charge_pt_cost(task, cost)
        elif kind == "unmap":
            for vpn in pages:
                if space.lookup(vpn) is not None:
                    self._shoot_down(proc, task, unmap_page(space, vpn, node),
                                     (vpn,), node, core_id)

    # -- locality scanning -----------------------------------------------------------

    def _charge_task(self, proc: SimProcess) -> SimTask:
        task = proc.tasks[proc.charge_rr % len(proc.tasks)]
        proc.charge_rr += 1
        return task

    def _numa_scan(self, proc: SimProcess) -> None:
        space = proc.space
        # every mapped vpn, from the index of PTE tables
        mapped = sorted(map(attrgetter("vpn"), chain.from_iterable(
            path[-1].entries.values() for path in space.paths.values())))
        count = int(self.policy.scan_share * len(mapped))
        if count:
            rng = random.Random(
                f"{self.scenario.rng_seed}:scan:{proc.pid}:{self.quantum}")
            sample = rng.sample(mapped, count)
            # sample entry k is charged to task (charge_rr + k) % n, which
            # arms its entries and shoots them down in one call each; a
            # single scanner thread arms every hint, so it never races itself
            tasks = proc.tasks
            n = len(tasks)
            for k in range(min(count, n)):
                task = tasks[(proc.charge_rr + k) % n]
                node = self.cores[task.current_core].node_id
                vpns = sorted(sample[k::n])  # so each PTE table is priced once
                space.begin_quantum()
                self._shoot_down(proc, task, set_access_hint(space, vpns, node),
                                 vpns, node, None)
            proc.charge_rr += count
            space.begin_quantum()

        if self.count_accesses:
            for vpn, to_node in sched.autonuma_step(space, proc.access_counts,
                                                    self.policy):
                self._migrate_page(proc, vpn, to_node)
            proc.access_counts.clear()

    def _migrate_page(self, proc: SimProcess, vpn: int, to_node: int) -> None:
        space = proc.space
        mapping = space.lookup(vpn)
        from_node = mapping.pfn_node
        task = self._charge_task(proc)
        node = self.cores[task.current_core].node_id
        copy_cycles = access_latency(self.topo, to_node, from_node) \
            + access_latency(self.topo, to_node, to_node)
        task.counters.total_cycles += copy_cycles
        task.counters.stall_cycles += copy_cycles
        self._traffic(task, from_node, to_node, PAGE_BYTES)
        self._shoot_down(proc, task, set_frame_node(space, vpn, to_node, node),
                         (vpn,), node, None)
        task.counters.data_migrations += 1

    # -- policy actions ---------------------------------------------------------------

    def _execute_action(self, task: SimTask, action: Action) -> None:
        if action.kind == "throttle":
            self.mba_caps[(action.node, action.process_id)] = action.cap
        elif action.kind == "replicate":
            space = self.processes[task.process_id].space
            if action.node not in space.replicas:
                cost = add_replica(space, action.node)
                self._charge_pt_cost(task, cost)
        if action.kind in ("throttle", "replicate"):
            self.actions.append({
                "quantum": self.quantum, "task_id": task.task_id,
                "process_id": task.process_id, "kind": action.kind,
                "node": action.node, "target_process": action.process_id,
                "cap": action.cap})

    def _flush(self, task: SimTask) -> None:
        """Add task's counters since its last flush to its node."""
        snap = task.counters.snapshot()
        node = self.node_counters[self.cores[task.current_core].node_id]
        for name, now, then in zip(WINDOW_COUNTERS, snap, task._snap):
            if name != "bandwidth_bytes":  # nodes count traffic by destination
                setattr(node, name, getattr(node, name) + now - then)
        task._snap = snap

    def _tick(self, task: SimTask) -> None:
        self._flush(task)
        task.ticks_in_window += 1
        if task.ticks_in_window < self.policy.window:
            return

        window = task.window()
        pw_ratio = _pw_ratio(window)
        self._record_window(task, window, pw_ratio)
        if self.policy.kind == "phoenix":
            loads = self._node_loads()
            action = sched.phoenix_evaluate(
                task, pw_ratio, loads,
                self.processes[task.process_id].space, self.policy,
                CONTENTION_KNEE, self.cores[task.current_core].node_id)
            self._execute_action(task, action)
        task.last_window = window
        task.window_start = task._snap
        task.ticks_in_window = 0

    def _record_window(self, task: SimTask, window: Dict[str, int],
                       pw_ratio: float) -> None:
        if self.scenario.timeseries:
            task.window_history.append({
                "quantum": self.quantum,
                "total_cycles": window["total_cycles"],
                "pagewalk_cycles": window["pagewalk_cycles"],
                "stall_cycles": window["stall_cycles"],
                "dtlb_misses": window["dtlb_misses"],
                "llc_misses": window["llc_misses"],
                "pw_ratio": pw_ratio})

    # -- rebalancing ------------------------------------------------------------------

    def _rebalance(self) -> None:
        for task, left in sched.rebalance(self.policy, self.tasks, self.cores):
            if left.node_id != self.cores[task.current_core].node_id:
                task.counters.thread_migrations += 1
        for proc in self.processes:
            proc.keep_cores()
        if self.policy.kind == "phoenix":
            self._follow_tables()

    def _follow_tables(self) -> None:
        # page tables chase a process whose threads have all left the home node
        for proc in self.processes:
            space = proc.space
            counts = Counter(self.cores[t.current_core].node_id
                             for t in proc.tasks)
            if space.home_node in counts:
                continue
            target = max(sorted(counts), key=lambda n: counts[n])
            if space.replica_count == 1 and target not in space.replicas:
                cost = migrate_tables(space, space.home_node, target)
                task = self._charge_task(proc)
                self._charge_pt_cost(task, cost)
                task.counters.table_pages_migrated += cost.pages_copied

    # -- main loop ----------------------------------------------------------------------

    def step(self) -> None:
        while self._pending and \
                self.scenario.workloads[self._pending[0]].start_quantum <= self.quantum:
            self._spawn(self.scenario.workloads[self._pending.pop(0)])

        for proc in self.processes:
            proc.space.begin_quantum()

        running: List[Tuple[Core, SimTask]] = []
        for core in self.cores:
            if not core.runqueue:
                core.last_task_id = None
                continue
            task = core.runqueue[0]
            if core.last_task_id != task.task_id:
                self.mmu.flush_core(core.core_id)
                core.last_task_id = task.task_id
            running.append((core, task))

        busy = {core.core_id for core, _ in running}
        for core in self.cores:
            active = core.core_id in busy and any(
                s in busy for s in self.topo.siblings(core.core_id))
            if active != core.partition_active:
                core.partition_active = active
                self.mmu.set_partition(core.core_id, active)

        if self.policy.autonuma and self.quantum > 0 \
                and self.quantum % self.policy.scan_period == 0:
            for proc in self.processes:
                self._numa_scan(proc)

        for core, task in running:
            self._run_task(task, core)
        for core, task in running:
            self._tick(task)

        if self.quantum > 0 and \
                self.quantum % self.policy.rebalance_interval == 0:
            self._rebalance()

        for core in self.cores:
            if len(core.runqueue) > 1:
                core.runqueue.append(core.runqueue.pop(0))

        self._prev_node_bytes = self._node_bytes
        self.contention = compute_contention(
            self.topo, self._node_bytes, self._link_bytes,
            self.scenario.quantum_cycles)
        self.topo.cycles = latency_table(self.topo, self.contention)
        self._node_bytes = {}
        self._link_bytes = {}
        self.quantum += 1

    def run(self) -> "Simulation":
        """Step through the scenario's duration and close every task's
        counters; the finished simulation is its own result."""
        for _ in range(self.scenario.duration_quanta):
            self.step()
        for task in self.tasks:
            if task.ticks_in_window:
                window = task.window()
                self._record_window(task, window, _pw_ratio(window))
            self._flush(task)  # charged since it last ran
            task.current_core = None  # exit detaches the core; counters stay
        for core in self.cores:
            core.runqueue.clear()
        return self


def run_scenario(scenario: Scenario) -> "metrics.MetricsReport":
    return metrics.finalize(Simulation(scenario).run(), scenario)
