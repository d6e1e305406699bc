"""Software MMU: per-core TLBs, page-walk caches, walks, and shootdowns."""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from . import pagetable
from .pagetable import AddressSpace, Level, Mapping
from .topology import Topology, access_latency

DEFAULT_TLB_ENTRIES = 64
# PGD, PUD, PMD entry caches; the PTE level is never cached
DEFAULT_PWC_ENTRIES = {Level.PGD: 4, Level.PUD: 16, Level.PMD: 32}
DEFAULT_IPI_CYCLES = 50
TLB_HIT_CYCLES = 1


class _LruCache:
    """Bounded LRU map.  Capacity halves while the SMT sibling is busy."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.partition_active = False
        self.entries: "OrderedDict[int, object]" = OrderedDict()

    def effective_capacity(self) -> int:
        return max(1, self.capacity // 2) if self.partition_active else self.capacity

    def set_partition(self, active: bool) -> None:
        self.partition_active = active
        self._shrink()

    def _shrink(self) -> None:
        cap = self.effective_capacity()
        while len(self.entries) > cap:
            self.entries.popitem(last=False)

    def get(self, key: int):
        value = self.entries.get(key)
        if value is not None:
            self.entries.move_to_end(key)
        return value

    def put(self, key: int, value) -> None:
        if key in self.entries:
            self.entries.move_to_end(key)
        self.entries[key] = value
        self._shrink()

    def drop(self, key: int) -> None:
        self.entries.pop(key, None)

    def clear(self) -> None:
        self.entries.clear()

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, key: int) -> bool:
        return key in self.entries


@dataclass
class WalkResult:
    cycles: int
    mem_accesses: int
    remote_accesses: int
    mapping: Optional[Mapping] = None  # None on a fault
    touched_nodes: Tuple[int, ...] = ()


class Mmu:
    """Per-core translation state over a shared topology."""

    def __init__(self, topo: Topology, tlb_entries: int = DEFAULT_TLB_ENTRIES,
                 pwc_entries: Optional[Dict[Level, int]] = None,
                 ipi_cycles: int = DEFAULT_IPI_CYCLES):
        self.topo = topo
        self.ipi_cycles = ipi_cycles
        if pwc_entries is None:
            pwc_entries = DEFAULT_PWC_ENTRIES
        # per core: the TLB, and one page-walk cache per cached level
        self.tlbs: Dict[int, _LruCache] = {}
        self.pwcs: Dict[int, Dict[Level, _LruCache]] = {}
        for core in topo.cores:
            self.tlbs[core.core_id] = _LruCache(tlb_entries)
            self.pwcs[core.core_id] = {lvl: _LruCache(cap)
                                       for lvl, cap in pwc_entries.items()}

    # -- TLB ------------------------------------------------------------------

    def tlb_lookup(self, core_id: int, vpn: int) -> Optional[Mapping]:
        """Hit returns the cached mapping and refreshes recency; cost 1 cycle."""
        return self.tlbs[core_id].get(vpn)

    def set_partition(self, core_id: int, active: bool) -> None:
        self.tlbs[core_id].set_partition(active)
        for cache in self.pwcs[core_id].values():
            cache.set_partition(active)

    def flush_core(self, core_id: int) -> None:
        """Context switch: translation state is not shared across tasks."""
        self.tlbs[core_id].clear()
        for cache in self.pwcs[core_id].values():
            cache.clear()

    # -- walks ------------------------------------------------------------------

    def _prefixes(self, space: AddressSpace, vpn: int) -> Dict[Level, int]:
        a = space.arity
        return {Level.PGD: vpn // (a * a * a),
                Level.PUD: vpn // (a * a),
                Level.PMD: vpn // a}

    def page_walk(self, space: AddressSpace, vpn: int, core_id: int,
                  contention=None) -> WalkResult:
        """Walk the nearest replica, skipping levels the PWC already caches.

        Each level not served by the PWC is one memory access priced from the
        walker's node to the node holding that table page.  A hole in the
        tree is a fault: the cycles spent reaching it are still charged and
        nothing is inserted into the TLB or PWC.
        """
        core_node = self.topo.node_of_core(core_id)
        pwc = self.pwcs[core_id]
        prefixes = self._prefixes(space, vpn)
        mapping, touches = pagetable.translate(space, vpn, core_node)

        cycles = 0
        accesses = 0
        remote = 0
        touched_nodes: List[int] = []
        for level, resident in touches:
            cached = level in pwc and prefixes.get(level) in pwc[level]
            if cached:
                pwc[level].get(prefixes[level])  # refresh recency
                continue
            accesses += 1
            cycles += access_latency(self.topo, core_node, resident, contention)
            touched_nodes.append(resident)
            if resident != core_node:
                remote += 1

        if mapping is None:
            return WalkResult(cycles, accesses, remote,
                              touched_nodes=tuple(touched_nodes))

        for level, prefix in prefixes.items():
            pwc[level].put(prefix, True)
        self.tlbs[core_id].put(vpn, mapping)
        return WalkResult(cycles, accesses, remote, mapping, tuple(touched_nodes))

    # -- shootdowns ---------------------------------------------------------------

    def tlb_shootdown(self, vpn: int, initiator_node: int,
                      core_ids: Iterable[int], space: Optional[AddressSpace] = None,
                      contention=None) -> int:
        """Invalidate vpn on the given cores; returns the IPI cycle cost.

        Each target costs the base IPI latency, scaled by the link factor
        when the target sits on a different node than the initiator.
        """
        cycles = 0.0
        for core_id in core_ids:
            self.tlbs[core_id].drop(vpn)
            if space is not None:
                prefixes = self._prefixes(space, vpn)
                for level, prefix in prefixes.items():
                    self.pwcs[core_id][level].drop(prefix)
            target_node = self.topo.node_of_core(core_id)
            factor = self.topo.links[(initiator_node, target_node)].latency_factor \
                if target_node != initiator_node else 1.0
            cycles += self.ipi_cycles * factor
        return int(cycles + 0.5)
