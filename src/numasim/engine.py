"""Quantum-stepped simulation core.

Each quantum every core runs the task at the head of its run queue, draws
that task's deterministic event stream, and charges cycles for TLB lookups,
page walks, data accesses, and VM operations.  Memory traffic recorded in one
quantum sets the contention multipliers for the next, so interference always
acts with a one-epoch lag.  All iteration is in fixed id order; a scenario
and seed fully determine the output.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import deque
from dataclasses import asdict, dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from . import metrics, pagetable, sched, workload
from .mmu import Mmu
from .pagetable import (AddressSpace, PROT_READ, add_replica,
                        clear_access_hint, map_page, migrate_tables,
                        protect_range, set_access_hint, set_frame_node,
                        unmap_page)
from .sched import (Action, CoreSlot, NodeLoad, PmcSample, PolicyKind,
                    TaskState, estimate_bandwidth)
from .topology import Topology, access_latency, build_topology

PAGE_BYTES = 4096
CACHELINE_BYTES = 64
COMPUTE_CYCLES_PER_EVENT = 1
DEFAULT_QUANTUM_CYCLES = 100_000

CONTENTION_KNEE = 0.6
CONTENTION_SLOPE = 3.0
CONTENTION_CAP = 4.0


@dataclass
class ContentionState:
    """Per-node and per-link utilization from the previous quantum."""
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
        u = node_bytes.get(node.node_id, 0) / cap if cap else 0.0
        state.u_node[node.node_id] = min(1.0, max(0.0, u))
    for (a, b), link in topo.links.items():
        if a == b:
            continue
        cap = link.bandwidth_capacity * quantum_cycles
        u = link_bytes.get((a, b), 0) / cap if cap else 0.0
        state.u_link[(a, b)] = min(1.0, max(0.0, u))
    return state


def apply_mba(pending: int, cap: float, uncapped_volume: int) -> int:
    """Events a capped task may issue this quantum; the rest stay queued."""
    budget = max(1, int(cap * uncapped_volume))
    return min(pending, budget)


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
        return (self.total_cycles, self.pagewalk_cycles, self.stall_cycles,
                self.dtlb_misses, self.tlb_hits, self.llc_misses,
                self.replica_update_cycles, self.shootdown_cycles,
                self.bandwidth_bytes)

    def delta_since(self, snap: Tuple[int, ...]) -> Dict[str, int]:
        names = ("total_cycles", "pagewalk_cycles", "stall_cycles",
                 "dtlb_misses", "tlb_hits", "llc_misses",
                 "replica_update_cycles", "shootdown_cycles", "bandwidth_bytes")
        now = self.snapshot()
        return {name: now[i] - snap[i] for i, name in enumerate(names)}

    def add_delta(self, delta: Dict[str, int]) -> None:
        for name, value in delta.items():
            setattr(self, name, getattr(self, name) + value)


@dataclass
class WorkloadEntry:
    spec: workload.WorkloadSpec
    start_quantum: int = 0
    priority: Optional[str] = None


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


class SimTask:
    """One schedulable thread plus its engine-side bookkeeping."""

    def __init__(self, st: TaskState, process: "SimProcess", thread_index: int):
        self.st = st
        self.process = process
        self.thread_index = thread_index
        self.counters = CounterSet()
        self.backlog: deque = deque()
        self.ticks_in_window = 0
        self.window_history: List[Dict[str, int]] = []
        self.last_window: Optional[PmcSample] = None
        self._snap = self.counters.snapshot()

    @property
    def task_id(self) -> int:
        return self.st.task_id


class SimProcess:
    def __init__(self, pid: int, entry: WorkloadEntry, priority: str):
        self.pid = pid
        self.entry = entry
        self.spec = entry.spec
        self.priority = priority
        self.space: Optional[AddressSpace] = None
        self.tasks: List[SimTask] = []
        self.data_rr = 0
        self.charge_rr = 0
        self.access_stats: Dict[int, Dict[int, int]] = {}


class CoreState:
    def __init__(self, core_id: int, node_id: int, physical_core_id: int):
        self.core_id = core_id
        self.node_id = node_id
        self.physical_core_id = physical_core_id
        self.runqueue: List[SimTask] = []
        self.last_task_id: Optional[int] = None
        self.partition_active = False


@dataclass
class SimResult:
    scenario: Scenario
    tasks: List[SimTask]
    processes: List[SimProcess]
    node_counters: Dict[int, CounterSet]
    actions: List[dict]
    quanta_run: int


class Simulation:
    def __init__(self, scenario: Scenario):
        scenario.policy.validate()
        for entry in scenario.workloads:
            entry.spec.validate()
        self.scenario = scenario
        self.policy = scenario.policy
        self.topo = build_topology(scenario.machine)
        tlb_entries = int(scenario.machine.get("tlb_entries", 64))
        if tlb_entries < 1:
            raise ValueError(
                f"machine.tlb_entries: must be at least 1, got {tlb_entries}")
        self.mmu = Mmu(self.topo, tlb_entries=tlb_entries)
        self.contention = ContentionState()
        self.cores = [CoreState(c.core_id, c.node_id, c.physical_core_id)
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

    # -- load snapshots -------------------------------------------------------

    def _node_loads(self) -> Dict[int, NodeLoad]:
        loads = {n.node_id: NodeLoad(n.node_id) for n in self.topo.nodes}
        for core in self.cores:
            load = loads[core.node_id]
            if core.runqueue:
                load.running_tasks += len(core.runqueue)
            else:
                load.idle_cores += 1
        for node_id, load in loads.items():
            load.bandwidth_bytes_this_epoch = self._prev_node_bytes.get(node_id, 0)
            load.utilization = self.contention.u_node.get(node_id, 0.0)
        for (node_id, pid), cap in self.mba_caps.items():
            loads[node_id].mba_caps[pid] = cap
        for task in self.tasks:
            if task.st.current_core is None:
                continue
            node_id = self.cores[task.st.current_core].node_id
            pmc = task.last_window if task.last_window is not None else task.st.pmc
            bw = estimate_bandwidth(pmc)
            stats = loads[node_id].process_stats
            prev = stats.get(task.process.pid, (0, task.process.priority))
            stats[task.process.pid] = (prev[0] + bw, task.process.priority)
        return loads

    def _slots(self) -> List[CoreSlot]:
        return [CoreSlot(c.core_id, c.node_id, c.physical_core_id,
                         len(c.runqueue)) for c in self.cores]

    # -- spawning ---------------------------------------------------------------

    def _spawn(self, entry: WorkloadEntry) -> None:
        pid = len(self.processes)
        priority = entry.priority or entry.spec.priority
        proc = SimProcess(pid, entry, priority)
        self.processes.append(proc)

        main_st = sched.on_fork(None, self.policy, len(self.tasks), pid, priority)
        loads = self._node_loads()
        home = sched.place_process(main_st, self.policy, loads)

        alloc = self.policy.alloc_policy or \
            (pagetable.HOME_NODE if self.policy.kind == "phoenix"
             else pagetable.FIRST_TOUCH)
        space = AddressSpace(self.topo, pid, home, alloc,
                             arity=int(self.scenario.machine.get("arity", 512)))
        space.lock_mode = self.policy.lock_mode or \
            ("global" if self.policy.kind == "mitosis" else "per_table")
        proc.space = space

        slots = self._slots()
        main = SimTask(main_st, proc, 0)
        self.tasks.append(main)
        proc.tasks.append(main)
        sched.place_thread(main_st, self.policy, loads, slots, self.topo)
        self.cores[main_st.current_core].runqueue.append(main)
        for i in range(1, entry.spec.thread_count):
            st = sched.on_fork(main_st, self.policy, len(self.tasks), pid, priority)
            task = SimTask(st, proc, i)
            self.tasks.append(task)
            proc.tasks.append(task)
            sched.place_thread(st, self.policy, loads, slots, self.topo)
            self.cores[st.current_core].runqueue.append(task)

        replicate_on: List[int] = []
        if self.policy.kind == "mitosis":
            replicate_on = [n for n in self.topo.node_ids if n != home]
        elif self.policy.force_replicas:
            want = [home] + [n for n in sorted(self.topo.node_ids) if n != home]
            replicate_on = [n for n in want[:self.policy.force_replicas]
                            if n != home]
        for node in replicate_on:
            cost = add_replica(space, node, self.contention)
            self._charge_pt_cost(main, cost)

        if self.scenario.prefault:
            self._prefault(proc)

    def _prefault(self, proc: SimProcess) -> None:
        # warm start: install the whole footprint without charging anyone
        for vpn in range(proc.spec.footprint_pages):
            task = proc.tasks[vpn % len(proc.tasks)]
            node = self.cores[task.st.current_core].node_id
            pfn_node = self._data_node(proc, node)
            map_page(proc.space, vpn, self._alloc_pfn(), pfn_node,
                     task.st.current_core)
        proc.space.begin_quantum()

    def _alloc_pfn(self) -> int:
        pfn = self.next_pfn
        self.next_pfn += 1
        return pfn

    def _data_node(self, proc: SimProcess, toucher_node: int) -> int:
        if proc.spec.data_policy == "interleave":
            node = self.topo.node_ids[proc.data_rr % len(self.topo.node_ids)]
            proc.data_rr += 1
            return node
        return toucher_node

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
        c.total_cycles += cost.cycles + cost.shootdown_cycles
        c.stall_cycles += cost.cycles
        c.replica_update_cycles += cost.cycles
        c.shootdown_cycles += cost.shootdown_cycles
        c.lock_wait_cycles += cost.lock_wait_cycles

    def _shootdown_fn(self, proc: SimProcess, initiator_core: Optional[int],
                      initiator_node: int):
        def fire(vpn: int) -> int:
            targets = [t.st.current_core for t in proc.tasks
                       if t.st.current_core is not None
                       and t.st.current_core != initiator_core]
            cycles = self.mmu.tlb_shootdown(vpn, initiator_node, targets,
                                            proc.space, self.contention)
            if initiator_core is not None:
                self.mmu.tlb_shootdown(vpn, initiator_node, [initiator_core],
                                       proc.space, self.contention)
            return cycles
        return fire

    # -- event execution -----------------------------------------------------------

    def _run_task(self, task: SimTask, core: CoreState) -> None:
        proc = task.process
        spec = proc.spec
        new_events = workload.generate_quantum_events(
            spec, task.thread_index, self.scenario.rng_seed, self.quantum)
        task.backlog.extend(new_events)
        cap = self.mba_caps.get((core.node_id, proc.pid), 1.0)
        issue = apply_mba(len(task.backlog), cap, len(new_events))
        llc_rng = random.Random(
            f"{self.scenario.rng_seed}:llc:{task.task_id}:{self.quantum}")
        for _ in range(issue):
            event = task.backlog.popleft()
            if event.kind == "vm":
                self._do_vm_op(task, core, event)
            else:
                self._do_access(task, core, event, llc_rng)

    def _do_access(self, task: SimTask, core: CoreState,
                   event: workload.AccessEvent, llc_rng: random.Random) -> None:
        proc = task.process
        spec = proc.spec
        space = proc.space
        c = task.counters
        node = core.node_id
        vpn = event.vpn
        c.events_issued += 1
        c.total_cycles += COMPUTE_CYCLES_PER_EVENT

        mapping = self.mmu.tlb_lookup(core.core_id, vpn)
        if mapping is not None:
            c.tlb_hits += 1
        else:
            c.dtlb_misses += 1
            mapping = self._walk(task, core, vpn)
            if mapping is None:
                # first touch: install the page, then complete the walk
                pfn_node = self._data_node(proc, node)
                cost = map_page(space, vpn, self._alloc_pfn(), pfn_node,
                                core.core_id, contention=self.contention)
                self._charge_pt_cost(task, cost)
                mapping = self._walk(task, core, vpn)

        if mapping.numa_hint:
            # access-sampling fault: repair the hint and note who touched it
            cost = clear_access_hint(space, vpn, node, self.contention)
            self._charge_pt_cost(task, cost)

        latency = access_latency(self.topo, node, mapping.pfn_node,
                                 self.contention)
        c.total_cycles += latency
        c.stall_cycles += latency

        if llc_rng.random() < spec.llc_miss_rate:
            c.llc_misses += 1
            nbytes = int(CACHELINE_BYTES * spec.bandwidth_intensity)
            self._traffic(task, node, mapping.pfn_node, nbytes)

        if self.policy.autonuma:
            stats = proc.access_stats.setdefault(vpn, {})
            stats[node] = stats.get(node, 0) + 1

    def _walk(self, task: SimTask, core: CoreState, vpn: int):
        result = self.mmu.page_walk(task.process.space, vpn, core.core_id,
                                    self.contention)
        c = task.counters
        c.total_cycles += result.cycles
        c.pagewalk_cycles += result.cycles
        c.stall_cycles += result.cycles
        c.walk_mem_accesses += result.mem_accesses
        c.walk_remote_accesses += result.remote_accesses
        for touched in result.touched_nodes:
            self._traffic(task, core.node_id, touched, CACHELINE_BYTES)
        return result.mapping

    def _do_vm_op(self, task: SimTask, core: CoreState,
                  event: workload.AccessEvent) -> None:
        proc = task.process
        space = proc.space
        fp = proc.spec.footprint_pages
        start, length = event.vpn, event.vm_pages
        pages = [(start + i) % fp for i in range(length)]
        shootdown = self._shootdown_fn(proc, core.core_id, core.node_id)
        task.counters.events_issued += 1
        task.counters.total_cycles += COMPUTE_CYCLES_PER_EVENT

        if event.vm_kind == "map":
            for vpn in pages:
                if space.lookup(vpn) is None:
                    pfn_node = self._data_node(proc, core.node_id)
                    cost = map_page(space, vpn, self._alloc_pfn(), pfn_node,
                                    core.core_id, contention=self.contention)
                    self._charge_pt_cost(task, cost)
        elif event.vm_kind == "unmap":
            for vpn in pages:
                if space.lookup(vpn) is not None:
                    cost = unmap_page(space, vpn, core.core_id,
                                      self.contention, shootdown)
                    self._charge_pt_cost(task, cost)
        elif event.vm_kind == "protect":
            run: List[int] = []
            for vpn in pages + [None]:
                contiguous = vpn is not None and (not run or vpn == run[-1] + 1)
                if contiguous and space.lookup(vpn) is not None:
                    run.append(vpn)
                    continue
                if run:
                    cost = protect_range(space, run[0], len(run), PROT_READ,
                                         core.core_id, self.contention,
                                         shootdown)
                    self._charge_pt_cost(task, cost)
                run = [] if vpn is None or space.lookup(vpn) is None else [vpn]
        elif event.vm_kind == "remap":
            dest = (start + fp // 2) % fp
            for vpn in pages:
                mapping = space.lookup(vpn)
                if mapping is None:
                    continue
                pfn, pfn_node, prot = mapping.pfn, mapping.pfn_node, mapping.prot
                cost = unmap_page(space, vpn, core.core_id, self.contention,
                                  shootdown)
                self._charge_pt_cost(task, cost)
                target = self._next_free_vpn(space, dest, fp)
                if target is None:
                    continue
                dest = (target + 1) % fp
                cost = map_page(space, target, pfn, pfn_node, core.core_id,
                                prot=prot, contention=self.contention)
                self._charge_pt_cost(task, cost)

    @staticmethod
    def _next_free_vpn(space: AddressSpace, start: int, fp: int) -> Optional[int]:
        for i in range(fp):
            vpn = (start + i) % fp
            if space.lookup(vpn) is None:
                return vpn
        return None

    # -- locality scanning -----------------------------------------------------------

    def _charge_task(self, proc: SimProcess) -> SimTask:
        task = proc.tasks[proc.charge_rr % len(proc.tasks)]
        proc.charge_rr += 1
        return task

    def _numa_scan(self, proc: SimProcess) -> None:
        space = proc.space
        mapped = sorted(
            m.vpn for table in space.iter_tables()
            if table.level == pagetable.Level.PTE
            for m in table.entries.values())
        count = int(self.policy.scan_share * len(mapped))
        if count:
            rng = random.Random(
                f"{self.scenario.rng_seed}:scan:{proc.pid}:{self.quantum}")
            sample = rng.sample(mapped, count)
            for vpn in sample:
                # a single scanner thread arms hints; it never races itself
                space.begin_quantum()
                task = self._charge_task(proc)
                node = self.cores[task.st.current_core].node_id
                shoot = self._shootdown_fn(proc, None, node)
                cost = set_access_hint(space, vpn, node, self.contention, shoot)
                self._charge_pt_cost(task, cost)
            space.begin_quantum()

        for vpn, to_node in sched.autonuma_step(space, proc.access_stats,
                                                self.policy):
            self._migrate_page(proc, vpn, to_node)
        proc.access_stats.clear()

    def _migrate_page(self, proc: SimProcess, vpn: int, to_node: int) -> None:
        space = proc.space
        mapping = space.lookup(vpn)
        from_node = mapping.pfn_node
        task = self._charge_task(proc)
        node = self.cores[task.st.current_core].node_id
        copy_cycles = access_latency(self.topo, to_node, from_node,
                                     self.contention) \
            + access_latency(self.topo, to_node, to_node, self.contention)
        task.counters.total_cycles += copy_cycles
        task.counters.stall_cycles += copy_cycles
        self._traffic(task, from_node, to_node, PAGE_BYTES)
        shoot = self._shootdown_fn(proc, None, node)
        cost = set_frame_node(space, vpn, to_node, node, self.contention, shoot)
        self._charge_pt_cost(task, cost)
        task.counters.data_migrations += 1

    # -- policy actions ---------------------------------------------------------------

    def _execute_action(self, task: SimTask, action: Action) -> None:
        if action.kind == "throttle":
            self.mba_caps[(action.node, action.process_id)] = action.cap
        elif action.kind == "replicate":
            space = task.process.space
            if action.node not in space.replica_roots:
                cost = add_replica(space, action.node, self.contention)
                self._charge_pt_cost(task, cost)
        if action.kind in ("throttle", "replicate"):
            self.actions.append({
                "quantum": self.quantum, "task_id": task.task_id,
                "process_id": task.process.pid, "kind": action.kind,
                "node": action.node, "target_process": action.process_id,
                "cap": action.cap})

    def _tick(self, task: SimTask) -> None:
        delta = task.counters.delta_since(task._snap)
        node_id = self.cores[task.st.current_core].node_id
        node_delta = dict(delta)
        node_delta.pop("bandwidth_bytes")  # nodes account traffic by destination
        self.node_counters[node_id].add_delta(node_delta)
        task._snap = task.counters.snapshot()

        task.st.pmc.add(PmcSample(
            window_total_cycles=delta["total_cycles"],
            window_pagewalk_cycles=delta["pagewalk_cycles"],
            window_stall_cycles=delta["stall_cycles"],
            window_dtlb_misses=delta["dtlb_misses"],
            window_llc_misses=delta["llc_misses"]))
        task.ticks_in_window += 1
        if task.ticks_in_window < self.policy.window:
            return

        self._record_window(task)
        if self.policy.kind == "phoenix":
            loads = self._node_loads()
            action = sched.phoenix_evaluate(
                task.st, loads, task.process.space, self.policy,
                CONTENTION_KNEE, self.cores[task.st.current_core].node_id)
            self._execute_action(task, action)
        task.last_window = replace(task.st.pmc)
        task.st.pmc.reset()
        task.ticks_in_window = 0

    def _record_window(self, task: SimTask) -> None:
        pmc = task.st.pmc
        task.window_history.append({
            "quantum": self.quantum,
            "total_cycles": pmc.window_total_cycles,
            "pagewalk_cycles": pmc.window_pagewalk_cycles,
            "stall_cycles": pmc.window_stall_cycles,
            "dtlb_misses": pmc.window_dtlb_misses,
            "llc_misses": pmc.window_llc_misses,
            "pw_ratio": pmc.pw_ratio()})

    # -- rebalancing ------------------------------------------------------------------

    def _rebalance(self) -> None:
        states = [t.st for t in self.tasks if t.st.current_core is not None]
        slots = self._slots()
        old_core = {t.task_id: t.st.current_core for t in self.tasks}
        moves = sched.rebalance(self.policy, states, slots)
        by_id = {t.task_id: t for t in self.tasks}
        for task_id, new_core in moves:
            task = by_id[task_id]
            source = self.cores[old_core[task_id]]
            source.runqueue.remove(task)
            self.cores[new_core].runqueue.append(task)
            if source.node_id != self.cores[new_core].node_id:
                task.counters.thread_migrations += 1
            old_core[task_id] = new_core
        if self.policy.kind == "phoenix":
            self._follow_tables()

    def _follow_tables(self) -> None:
        # page tables chase a process whose threads have all left the home node
        for proc in self.processes:
            if proc.space is None or not proc.tasks:
                continue
            space = proc.space
            counts: Dict[int, int] = {}
            for task in proc.tasks:
                if task.st.current_core is None:
                    continue
                node = self.cores[task.st.current_core].node_id
                counts[node] = counts.get(node, 0) + 1
            if not counts or counts.get(space.home_node, 0) > 0:
                continue
            target = max(sorted(counts), key=lambda n: counts[n])
            if space.replica_count == 1 and target not in space.replica_roots:
                cost = migrate_tables(space, space.home_node, target,
                                      self.contention)
                task = self._charge_task(proc)
                self._charge_pt_cost(task, cost)
                task.counters.table_pages_migrated += cost.pages_copied

    # -- main loop ----------------------------------------------------------------------

    def step(self) -> None:
        while self._pending and \
                self.scenario.workloads[self._pending[0]].start_quantum <= self.quantum:
            self._spawn(self.scenario.workloads[self._pending.pop(0)])

        for proc in self.processes:
            if proc.space is not None:
                proc.space.begin_quantum()

        running: List[Tuple[CoreState, SimTask]] = []
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
                if proc.space is not None:
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

        self._prev_node_bytes = dict(self._node_bytes)
        self.contention = compute_contention(
            self.topo, self._node_bytes, self._link_bytes,
            self.scenario.quantum_cycles)
        self._node_bytes = {}
        self._link_bytes = {}
        self.quantum += 1

    def run(self) -> SimResult:
        for _ in range(self.scenario.duration_quanta):
            self.step()
        for task in self.tasks:
            if task.ticks_in_window:
                self._record_window(task)
            task.st.current_core = None  # exit detaches the core; counters stay
        return SimResult(self.scenario, self.tasks, self.processes,
                         self.node_counters, self.actions,
                         self.scenario.duration_quanta)


def simulate(scenario: Scenario) -> SimResult:
    return Simulation(scenario).run()


def run_scenario(scenario: Scenario) -> "metrics.MetricsReport":
    return metrics.finalize(simulate(scenario), scenario)
