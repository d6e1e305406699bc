"""Software MMU: per-core TLBs, page-walk caches, walks, and shootdowns."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from . import pagetable
from .pagetable import AddressSpace, Level, Mapping
# access_latency is not called here; the binding stays because the
# benchmark's tests require this module to bind the function its layer
# trace patches
from .topology import Topology, access_latency

# PGD, PUD and PMD entry caches; the PTE level is never cached
DEFAULT_PWC_ENTRIES = (4, 16, 32)
DEFAULT_IPI_CYCLES = 50
_PTE = int(Level.PTE)


class Mmu:
    """Per-core translation state over a shared topology.

    Each core's TLB (vpn -> Mapping) and PGD, PUD and PMD caches (vpn's
    prefix above the level -> True) are dicts kept in LRU order, oldest
    first.  A hit is popped and reinserted.  A fill evicts the oldest entry
    only when the key is absent and the cache is full, then inserts it last.
    """

    def __init__(self, topo: Topology,
                 pwc_entries: Sequence[int] = DEFAULT_PWC_ENTRIES):
        self.topo = topo
        self.core_nodes = [core.node_id for core in topo.cores]  # by core id
        # initiator node -> target core -> IPI cycles: the base latency,
        # scaled by the link factor when the target sits on another node
        self.ipi_prices: Dict[int, Dict[int, float]] = {
            node: {core.core_id: DEFAULT_IPI_CYCLES * (
                topo.links[(node, core.node_id)].latency_factor
                if core.node_id != node else 1.0) for core in topo.cores}
            for node in topo.node_ids}
        self.pwc_entries = tuple(pwc_entries)
        # by core id: the TLB, the PGD, PUD and PMD caches, and their limits
        n = len(topo.cores)
        self.tlbs: List[Dict[int, Mapping]] = [{} for _ in range(n)]
        self.pwcs = [({}, {}, {}) for _ in range(n)]
        self.tlb_limits = [topo.tlb_entries] * n
        self.pwc_limits = [self.pwc_entries] * n
        # (initiator node, targets, initiator core) -> plan, holding the caches
        self._shootdowns: Dict[tuple, Tuple[int, List[tuple]]] = {}

    # -- TLB ------------------------------------------------------------------

    def tlb_lookup(self, core_id: int, vpn: int) -> Optional[Mapping]:
        """A hit returns the cached mapping, made most recent.  The lookup
        is free: the engine charges a hit's compute and data price."""
        tlb = self.tlbs[core_id]
        mapping = tlb.pop(vpn, None)
        if mapping is not None:
            tlb[vpn] = mapping
        return mapping

    def set_partition(self, core_id: int, active: bool) -> None:
        """Halve the core's limits (at least 1) while its SMT sibling is
        busy, else restore them; a cache over its limit sheds at once."""
        limits = (self.topo.tlb_entries, *self.pwc_entries)
        if active:
            limits = tuple(max(1, limit // 2) for limit in limits)
        self.tlb_limits[core_id] = limits[0]
        self.pwc_limits[core_id] = limits[1:]
        for cache, limit in zip((self.tlbs[core_id], *self.pwcs[core_id]),
                                limits):
            while len(cache) > limit:
                del cache[next(iter(cache))]

    def flush_core(self, core_id: int) -> None:
        """Context switch: translation state is not shared across tasks."""
        for cache in (self.tlbs[core_id], *self.pwcs[core_id]):
            cache.clear()

    # -- walks ------------------------------------------------------------------

    def page_walk(self, space: AddressSpace, vpn: int, core_id: int
                  ) -> List[int]:
        """A fault's walk of the nearest replica: it prices and fills nothing.

        Returns the node of each table the walk reads, in walk order: every
        PGD, PUD and PMD level the tree holds whose prefix (the level's key)
        misses the PWC, then the PTE table when it exists.  A PWC hit is
        made most recent.  The engine prices the reads, then installs the
        page and walks it inline, which fills (Simulation._run_task).
        """
        _, residents = pagetable.translate(space, vpn,
                                           self.core_nodes[core_id])
        a = space.arity
        pmd = vpn // a
        pud = pmd // a
        reads: List[int] = []
        for cache, prefix, node in zip(
                self.pwcs[core_id], (pud // a, pud, pmd), residents):
            if cache.pop(prefix, None) is None:
                reads.append(node)
            else:
                cache[prefix] = True  # a hit, made most recent
        if len(residents) > _PTE:  # the PTE level is never cached
            reads.append(residents[_PTE])
        return reads

    # -- shootdowns ---------------------------------------------------------------

    def tlb_shootdown(self, vpns: Sequence[int], initiator_node: int,
                      core_ids: Sequence[int],
                      initiator_core: Optional[int] = None) -> int:
        """Drop vpns, and the PWC entries covering them, on core_ids and on
        initiator_core; returns the IPI cycle cost.

        Each vpn is one IPI to each of core_ids, priced from initiator_node
        and summed per vpn, rounded half up; the initiator's own core drops
        its entries unpriced.  A request no larger than a TLB deletes each
        vpn's entries; a larger one, such as a scan's sample, takes one pass
        over each core's caches.  The same entries go either way, and the
        survivors keep their order.
        """
        key = (initiator_node, tuple(core_ids), initiator_core)
        plan = self._shootdowns.get(key)
        if plan is None:  # one vpn's IPIs, rounded, and each core's caches
            tlbs, pwcs = self.tlbs, self.pwcs
            cores = dict.fromkeys(core_ids if initiator_core is None
                                  else (*core_ids, initiator_core))
            plan = self._shootdowns[key] = (int(sum(map(
                self.ipi_prices[initiator_node].__getitem__, core_ids)) + 0.5),
                [(tlbs[core], *pwcs[core]) for core in cores])
        price, caches = plan
        a = self.topo.arity
        if len(vpns) <= self.topo.tlb_entries:
            # most entries are gone already, so test before deleting
            for vpn in vpns:
                pmd = vpn // a
                pud = pmd // a
                pgd = pud // a
                for tlb, pgd_cache, pud_cache, pmd_cache in caches:
                    if vpn in tlb:
                        del tlb[vpn]
                    if pgd in pgd_cache:
                        del pgd_cache[pgd]
                    if pud in pud_cache:
                        del pud_cache[pud]
                    if pmd in pmd_cache:
                        del pmd_cache[pmd]
        else:
            # the TLBs are far smaller than the request: intersect with them
            cached = set().union(*(core[0] for core in caches))
            # each level's prefixes from the level below: vpn // a**2 is
            # (vpn // a) // a, so only the PMD set is built from every vpn
            pmd = {vpn // a for vpn in vpns}
            pud = {prefix // a for prefix in pmd}
            doomed = (cached.intersection(vpns),
                      {prefix // a for prefix in pud}, pud, pmd)
            for core in caches:
                for cache, keys in zip(core, doomed):
                    for key in [k for k in cache if k in keys]:
                        del cache[key]
        return len(vpns) * price
