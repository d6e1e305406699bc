"""The reference walk that fills, for tests to compare the engine against.

It reads the table tree down from space.root, without AddressSpace.paths,
pagetable.translate or Mmu.page_walk, and keeps the rules the engine's
access loop walks by: each cache is a dict in LRU order, oldest first; a
hit is popped and reinserted; a fill evicts the oldest entry only when the
key is absent and the cache is full, then inserts it last.
"""

from numasim.topology import access_latency


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
