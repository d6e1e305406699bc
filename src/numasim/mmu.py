"""Software MMU: per-core TLBs, page-walk caches, walks, and shootdowns."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from . import pagetable
from .pagetable import AddressSpace, Level, Mapping
from .topology import DEFAULT_TLB_ENTRIES, Topology, access_latency

# PGD, PUD, PMD entry caches; the PTE level is never cached
DEFAULT_PWC_ENTRIES = {Level.PGD: 4, Level.PUD: 16, Level.PMD: 32}
DEFAULT_IPI_CYCLES = 50
_CACHED_LEVELS = (Level.PGD, Level.PUD, Level.PMD)
_PTE = int(Level.PTE)


class _LruCache:
    """Bounded LRU map over an insertion-ordered dict, oldest entry first.

    Capacity halves while the SMT sibling is busy.  The MMU works on the
    entries inline where it is hot: a hit is made most recent by popping and
    reinserting its entry, a shootdown pops it, and a walk fills the TLB as
    put does.
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.limit = capacity  # effective capacity, set with the partition
        self.entries: Dict[int, object] = {}

    def set_partition(self, active: bool) -> None:
        self.limit = max(1, self.capacity // 2) if active else self.capacity
        entries = self.entries
        while len(entries) > self.limit:
            del entries[next(iter(entries))]

    def put(self, key: int, value) -> None:
        entries = self.entries
        entries.pop(key, None)
        entries[key] = value
        if len(entries) > self.limit:
            del entries[next(iter(entries))]

    def clear(self) -> None:
        self.entries.clear()


class Mmu:
    """Per-core translation state over a shared topology."""

    def __init__(self, topo: Topology, tlb_entries: int = DEFAULT_TLB_ENTRIES,
                 pwc_entries: Optional[Dict[Level, int]] = None,
                 ipi_cycles: int = DEFAULT_IPI_CYCLES):
        self.topo = topo
        self.tlb_entries = tlb_entries
        self.core_nodes = [core.node_id for core in topo.cores]  # by core id
        # initiator node -> target core -> IPI cycles: the base latency,
        # scaled by the link factor when the target sits on another node
        self.ipi_prices: Dict[int, Dict[int, float]] = {
            node: {core.core_id: ipi_cycles * (
                topo.links[(node, core.node_id)].latency_factor
                if core.node_id != node else 1.0) for core in topo.cores}
            for node in topo.node_ids}
        if pwc_entries is None:
            pwc_entries = DEFAULT_PWC_ENTRIES
        # per core: the TLB, and the page-walk caches indexed by level
        self.tlbs: Dict[int, _LruCache] = {}
        self.pwcs: Dict[int, List[_LruCache]] = {}
        for core in topo.cores:
            self.tlbs[core.core_id] = _LruCache(tlb_entries)
            self.pwcs[core.core_id] = [_LruCache(pwc_entries[lvl])
                                       for lvl in _CACHED_LEVELS]

    # -- TLB ------------------------------------------------------------------

    def tlb_lookup(self, core_id: int, vpn: int) -> Optional[Mapping]:
        """Hit returns the cached mapping and refreshes recency.

        The lookup itself is free: a hit costs the access's compute and data
        price, which the engine charges.
        """
        entries = self.tlbs[core_id].entries
        mapping = entries.pop(vpn, None)
        if mapping is not None:
            entries[vpn] = mapping
        return mapping

    def set_partition(self, core_id: int, active: bool) -> None:
        self.tlbs[core_id].set_partition(active)
        for cache in self.pwcs[core_id]:
            cache.set_partition(active)

    def flush_core(self, core_id: int) -> None:
        """Context switch: translation state is not shared across tasks."""
        self.tlbs[core_id].clear()
        for cache in self.pwcs[core_id]:
            cache.clear()

    # -- walks ------------------------------------------------------------------

    def page_walk(self, space: AddressSpace, vpn: int, core_id: int
                  ) -> Tuple[int, int, int, Optional[Mapping], List[int]]:
        """Walk the nearest replica, skipping levels the PWC already caches.

        Returns (cycles, mem_accesses, remote_accesses, mapping,
        touched_nodes): touched_nodes holds the node of each table read, in
        walk order.  Each level not served by the PWC is one memory access
        priced from the walker's node to the node holding that table page.
        A hole in the tree is a fault: mapping is None, the cycles spent
        reaching it are still charged and nothing is inserted into the TLB
        or PWC.  On success only the levels that missed are inserted: a
        hit's lookup already made it most recent.
        """
        topo = self.topo
        core_node = self.core_nodes[core_id]
        mapping, residents = pagetable.translate(space, vpn, core_node)
        a = space.arity
        pmd = vpn // a
        pud = pmd // a
        touched_nodes: List[int] = []
        # the PWC levels the walk reached, PGD first; a level's key is vpn's
        # prefix above it
        for cache, prefix, node in zip(self.pwcs[core_id],
                                       (pud // a, pud, pmd), residents):
            entries = cache.entries
            if entries.pop(prefix, None) is not None:
                entries[prefix] = True  # a hit, made most recent
            else:
                touched_nodes.append(node)
                if mapping is not None:
                    cache.put(prefix, True)
        if len(residents) > _PTE:  # the PTE level is never cached
            touched_nodes.append(residents[_PTE])
        cycles = remote = 0
        for node in touched_nodes:
            cycles += access_latency(topo, core_node, node)
            if node != core_node:
                remote += 1
        if mapping is not None:  # _LruCache.put, inline
            tlb = self.tlbs[core_id]
            entries = tlb.entries
            if entries.pop(vpn, None) is None and len(entries) >= tlb.limit:
                del entries[next(iter(entries))]
            entries[vpn] = mapping
        return cycles, len(touched_nodes), remote, mapping, touched_nodes

    # -- shootdowns ---------------------------------------------------------------

    def tlb_shootdown(self, vpns: Sequence[int], initiator_node: int,
                      core_ids: Sequence[int],
                      initiator_core: Optional[int] = None) -> int:
        """Drop vpns, and the PWC entries covering them, on core_ids and on
        initiator_core; returns the IPI cycle cost.

        Each vpn is one IPI to each of core_ids, priced from initiator_node
        and summed per vpn, rounded half up; the initiator's own core drops
        its entries unpriced.  A request no larger than a TLB pops each
        vpn's entries; a larger one, such as a scan's sample, takes one pass
        over each core's caches.  The same entries go either way, and the
        survivors keep their order.
        """
        tlbs, pwcs = self.tlbs, self.pwcs
        cores = core_ids if initiator_core is None \
            else (*core_ids, initiator_core)
        a = self.topo.arity
        if len(vpns) <= self.tlb_entries:
            for vpn in vpns:
                pmd = vpn // a
                pud = pmd // a
                pgd = pud // a
                for core in cores:
                    tlbs[core].entries.pop(vpn, None)
                    pgd_cache, pud_cache, pmd_cache = pwcs[core]
                    pgd_cache.entries.pop(pgd, None)
                    pud_cache.entries.pop(pud, None)
                    pmd_cache.entries.pop(pmd, None)
        else:
            cores = set(cores)
            # the TLBs are far smaller than the request: intersect with them
            cached = set().union(*(tlbs[core].entries for core in cores))
            # each level's prefixes from the level below: vpn // a**2 is
            # (vpn // a) // a, so only the PMD set is built from every vpn
            pmd = {vpn // a for vpn in vpns}
            pud = {prefix // a for prefix in pmd}
            doomed = (cached.intersection(vpns),
                      {prefix // a for prefix in pud}, pud, pmd)
            for core in cores:
                for cache, keys in zip((tlbs[core], *pwcs[core]), doomed):
                    entries = cache.entries
                    for key in [k for k in entries if k in keys]:
                        del entries[key]
        prices = self.ipi_prices[initiator_node]
        cycles = 0.0
        for core_id in core_ids:
            cycles += prices[core_id]
        return len(vpns) * int(cycles + 0.5)
