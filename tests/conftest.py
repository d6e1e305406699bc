"""Shared builders for the test suite."""

import re

from numasim.mmu import Mmu
from numasim.topology import build_topology, latency_table

import reference

_acceptance_outcomes = {}


def pytest_runtest_logreport(report):
    if "test_acceptance" not in report.nodeid:
        return
    if report.failed or report.when == "call":
        _acceptance_outcomes.setdefault(report.nodeid, report.outcome)


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_outcomes:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for nodeid in sorted(_acceptance_outcomes):
        match = re.search(r"test_criterion_0?(\d+)_(\w+)", nodeid)
        if not match:
            continue
        number, label = match.groups()
        outcome = _acceptance_outcomes[nodeid]
        verdict = {"passed": "PASS", "failed": "FAIL"}.get(outcome,
                                                           outcome.upper())
        terminalreporter.write_line(
            f"[acceptance] criterion {number} ({label.replace('_', ' ')}): "
            f"{verdict}")


class StubContention:
    """Fixed multipliers so latency math can be checked in isolation."""

    def __init__(self, node=1.0, link=1.0):
        self._node = node
        self._link = link

    def node_multiplier(self, node_id):
        return self._node

    def link_multiplier(self, src, dst):
        return self._link


def contend(topo, node=1.0, link=1.0):
    """Put the prices these fixed multipliers give in force on topo, as the
    engine does with each quantum's contention."""
    topo.cycles = latency_table(topo, StubContention(node, link))


def make_topo(nodes=2, cores_per_node=4, **extra):
    config = {"nodes": nodes, "cores_per_node": cores_per_node}
    config.update(extra)
    return build_topology(config)


def core_caches(mmu, core_id):
    """The core's TLB and its PGD, PUD and PMD caches."""
    return (mmu.tlbs[core_id], *mmu.pwcs[core_id])


class WalkOracle:
    """Checks every walk a simulation makes against reference.walk.

    The live Mmu's tlb_lookup is wrapped: on a miss, reference.walk runs on
    a shadow Mmu holding in-order copies of that core's TLB, its PGD, PUD
    and PMD caches and their limits, and its cycles, reads and remote reads
    are added to the sums of the task running on the core.  A mapped walk
    fills the shadow.  A fault's walk fills nothing; the engine's one
    page_walk call for it must read the same nodes, and once the page is
    installed the reference walks it again and fills, which is summed too.
    The live caches must equal the shadow's, in order, at the next settle:
    the next lookup or VM op, the end of the task's quantum, and check.
    """

    def __init__(self, sim):
        self.sim = sim
        mmu = sim.mmu
        self.shadow = Mmu(sim.topo, mmu.pwc_entries)
        self.sums = {}  # task id -> [cycles, reads, remote reads]
        self.mapped_walks = self.faults = 0
        self.pending = None  # (core id, vpn) of a walk not yet settled
        self.fault = None  # (task id, space) when that walk faulted
        self.fault_reads = None  # its nodes, until its page_walk reads them
        lookup, walk = mmu.tlb_lookup, mmu.page_walk
        run_task, do_vm_op = sim._run_task, sim._do_vm_op

        def tlb_lookup(core_id, vpn):
            self.settle()
            mapping = lookup(core_id, vpn)
            if mapping is None:
                self._shadow_walk(core_id, vpn)
            return mapping

        def page_walk(space, vpn, core_id):
            reads = walk(space, vpn, core_id)
            assert self.pending == (core_id, vpn)
            assert reads == self.fault_reads, (core_id, vpn)
            self.fault_reads = None  # one call per fault
            return reads

        def vm_op(*args):
            self.settle()
            do_vm_op(*args)

        def run_then_settle(*args):
            run_task(*args)
            self.settle()

        # a VM op settles before it changes the tree, and every other Mmu
        # call is made outside _run_task, after its quantum settled
        mmu.tlb_lookup = tlb_lookup
        mmu.page_walk = page_walk
        sim._do_vm_op = vm_op
        sim._run_task = run_then_settle

    def _add(self, task_id, result):
        row = self.sums.setdefault(task_id, [0, 0, 0])
        row[0] += result[0]
        row[1] += result[1]
        row[2] += result[2]

    def _shadow_walk(self, core_id, vpn):
        live, shadow = self.sim.mmu, self.shadow
        shadow.tlbs[core_id] = dict(live.tlbs[core_id])
        shadow.pwcs[core_id] = tuple(dict(c) for c in live.pwcs[core_id])
        shadow.tlb_limits[core_id] = live.tlb_limits[core_id]
        shadow.pwc_limits[core_id] = live.pwc_limits[core_id]
        task = self.sim.cores[core_id].runqueue[0]  # the task running there
        space = self.sim.processes[task.process_id].space
        result = reference.walk(shadow, space, vpn, core_id)
        self._add(task.task_id, result)
        self.pending = (core_id, vpn)
        if result[3] is None:
            self.faults += 1
            self.fault = (task.task_id, space)
            self.fault_reads = result[4]
        else:
            self.mapped_walks += 1

    def settle(self):
        """Walk a settled fault's installed page on the shadow; then the live
        caches of the last walk's core equal the shadow's."""
        if self.pending is None:
            return
        core_id, vpn = self.pending
        self.pending = None
        if self.fault is not None:
            task_id, space = self.fault
            self.fault = None
            assert self.fault_reads is None, ("no page_walk", core_id, vpn)
            result = reference.walk(self.shadow, space, vpn, core_id)
            assert result[3] is not None, (core_id, vpn)
            self._add(task_id, result)
        for live, shadow in zip(core_caches(self.sim.mmu, core_id),
                                core_caches(self.shadow, core_id)):
            assert list(live.items()) == list(shadow.items()), (core_id, vpn)

    def check(self):
        """Settle, then match each task's walk counters to its sums."""
        self.settle()
        for task in self.sim.tasks:
            c = task.counters
            assert [c.pagewalk_cycles, c.walk_mem_accesses,
                    c.walk_remote_accesses] \
                == self.sums.get(task.task_id, [0, 0, 0]), task.task_id
