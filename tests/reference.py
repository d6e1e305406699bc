"""The reference walk and access loop, for tests to compare the engine against.

walk reads the table tree down from space.root, without AddressSpace.paths,
pagetable.translate or Mmu.page_walk, and keeps the rules the engine's
access loop walks by: each cache is a dict in LRU order, oldest first; a
hit is popped and reinserted; a fill evicts the oldest entry only when the
key is absent and the cache is full, then inserts it last.

ReferenceSimulation is the engine with an access loop that prices each
access on its own, and lockstep steps it beside the engine.
"""

import random

from numasim import metrics, workload
from numasim.engine import (CACHELINE_BYTES, COMPUTE_CYCLES_PER_EVENT,
                            Simulation, apply_mba)
from numasim.pagetable import clear_access_hint, map_page
from numasim.topology import access_latency
from numasim.workload import VmOp


def walk(mmu, space, vpn, core_id):
    """Walk the nearest replica, skipping levels the core's PWC caches.

    Returns (cycles, mem_accesses, remote_accesses, mapping,
    touched_nodes): touched_nodes holds the node of each table read, in
    walk order.  Each level not served by the PWC is one memory access
    priced from the walker's node to the node holding that table page.  A
    hole in the tree is a fault: mapping is None, the reads reaching it are
    still priced, PWC hits are made most recent and nothing is filled.  On
    success the TLB and the PWC levels that missed are filled.
    """
    core_node = mmu.core_nodes[core_id]
    root = space.root
    replica = core_node if core_node in root.resident else space.home_node
    a = space.arity
    pmd = vpn // a
    pud = pmd // a
    pgd = pud // a
    # the tables from the PGD down to the PTE table, as far as they exist
    tables = [root]
    for index in (pgd, pud % a, pmd % a):
        child = tables[-1].entries.get(index)
        if child is None:
            break
        tables.append(child)
    mapping = tables[3].entries.get(vpn % a) if len(tables) == 4 else None
    touched = []
    for cache, limit, prefix, table in zip(
            mmu.pwcs[core_id], mmu.pwc_limits[core_id], (pgd, pud, pmd),
            tables):
        if cache.pop(prefix, None) is not None:
            cache[prefix] = True
        else:
            touched.append(table.resident[replica])
            if mapping is not None:
                _evict_for(cache, limit)
                cache[prefix] = True
    if len(tables) == 4:  # the PTE level is never cached
        touched.append(tables[3].resident[replica])
    cycles = sum(access_latency(mmu.topo, core_node, node) for node in touched)
    remote = sum(node != core_node for node in touched)
    if mapping is not None:
        tlb = mmu.tlbs[core_id]
        if tlb.pop(vpn, None) is None:
            _evict_for(tlb, mmu.tlb_limits[core_id])
        tlb[vpn] = mapping
    return cycles, len(touched), remote, mapping, touched


def _evict_for(cache, limit):
    """Make room for an absent key: drop the oldest entry of a full cache."""
    if len(cache) >= limit:
        del cache[next(iter(cache))]


class ReferenceSimulation(Simulation):
    """The engine with a per-access loop: no tallies, no prefix skip.

    _run_task takes the task's events one at a time, in the engine's issue
    order under the MBA cap.  Each access makes one tlb_lookup, and a miss
    walks with walk: a fault's walk reads and fills nothing, then the page
    is mapped and walked again, which fills.  Each walk's reads, each data
    access, each LLC miss's line and each hint fault (clear_access_hint)
    is charged when it happens.  With autonuma every event is counted for
    the core's node, however many nodes the machine has.
    """

    def __init__(self, scenario):
        super().__init__(scenario)
        self.count_accesses = self.policy.autonuma

    def _run_task(self, task, core):
        proc = self.processes[task.process_id]
        spec, space = proc.spec, proc.space
        seed, quantum = self.scenario.rng_seed, self.quantum
        backlog = task.backlog
        if backlog or task.deferred:
            volume = workload.quantum_volume(spec, task.thread_index, seed,
                                             quantum)
            task.deferred.append(quantum)
        else:
            backlog += workload.generate_quantum_events(
                spec, task.thread_index, seed, quantum)
            volume = len(backlog)
        issue = apply_mba(self.mba_caps.get((core.node_id, proc.pid), 1.0),
                          volume)
        rate = spec.llc_miss_rate
        llc_random = random.Random(f"{seed}:llc:{task.task_id}:{quantum}")
        node, core_id = core.node_id, core.core_id
        line_bytes = int(CACHELINE_BYTES * spec.bandwidth_intensity)
        c = task.counters
        for _ in range(issue):
            if not backlog:
                backlog += workload.generate_quantum_events(
                    spec, task.thread_index, seed, task.deferred.popleft())
            event = backlog.pop(0)
            c.events_issued += 1
            c.total_cycles += COMPUTE_CYCLES_PER_EVENT
            if self.count_accesses:
                proc.access_counts[node][event] += 1
            if type(event) is VmOp:
                self._do_vm_op(task, core, event)
                continue
            mapping = self.mmu.tlb_lookup(core_id, event)
            if mapping is None:
                c.dtlb_misses += 1
                mapping = self._walk(task, space, event, core_id)
                if mapping is None:  # a fault: install the page, walk again
                    pfn_node = self._data_nodes(proc, [node])[0]
                    self._charge_pt_cost(task, map_page(
                        space, event, self._alloc_pfn(), pfn_node, node))
                    mapping = self._walk(task, space, event, core_id)
            else:
                c.tlb_hits += 1
            if mapping.numa_hint:
                self._charge_pt_cost(task, clear_access_hint(space, event,
                                                             node))
            cycles = access_latency(self.topo, node, mapping.pfn_node)
            c.total_cycles += cycles
            c.stall_cycles += cycles
            if rate == 1.0 or (rate > 0.0 and llc_random.random() < rate):
                c.llc_misses += 1
                self._traffic(task, node, mapping.pfn_node, line_bytes)

    def _walk(self, task, space, vpn, core_id):
        """walk, with its reads charged to task; returns its mapping."""
        cycles, reads, remote, mapping, touched = walk(self.mmu, space, vpn,
                                                       core_id)
        c = task.counters
        c.total_cycles += cycles
        c.stall_cycles += cycles
        c.pagewalk_cycles += cycles
        c.walk_mem_accesses += reads
        c.walk_remote_accesses += remote
        node = self.mmu.core_nodes[core_id]
        for table_node in touched:
            self._traffic(task, node, table_node, CACHELINE_BYTES)
        return mapping


def assert_same_state(engine, ref):
    """Every core's TLB and PGD, PUD and PMD caches are equal, in order, and
    so are the reports the two simulations would write now, field by field
    (to_json writes equal fields as equal bytes)."""
    for core_id in range(len(engine.cores)):
        for mine, theirs in zip(
                (engine.mmu.tlbs[core_id], *engine.mmu.pwcs[core_id]),
                (ref.mmu.tlbs[core_id], *ref.mmu.pwcs[core_id])):
            assert list(mine.items()) == list(theirs.items()), \
                (engine.quantum, core_id)
    assert metrics.finalize(engine, engine.scenario) == \
        metrics.finalize(ref, ref.scenario), engine.quantum


def lockstep(scenario):
    """Run Simulation and ReferenceSimulation on scenario, one step of each
    at a time, asserting the same state after every step; returns the
    engine's finished report, which must equal the reference's."""
    engine = Simulation(scenario)
    ref = ReferenceSimulation(scenario)
    engine_step, ref_step = engine.step, ref.step

    def step_both():
        engine_step()
        ref_step()
        assert_same_state(engine, ref)

    ref.step = step_both
    ref.run()
    engine.step = lambda: None  # stepped beside ref already: run only closes
    engine.run()
    report = metrics.finalize(engine, scenario)
    assert report.to_json() == metrics.finalize(ref, scenario).to_json()
    return report
