"""Replicated four-level radix page tables with cycle-cost accounting.

An address space owns one radix tree per replica node.  Corresponding table
pages across replicas are joined in a circular linked list (next_replica), so
a mutation started on any replica reaches every copy by following the ring.
Every entry write is priced as one memory access from the updating node to
the node where the touched table page resides, which is what makes eager
replication expensive on a busy machine.

Concurrent mutations inside one scheduling quantum are modeled as a queue:
an operation that touches a table page the previous operation also touched
(or any page, in global-lock mode) waits for the predecessor's cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from .topology import Topology, access_latency

DEFAULT_ARITY = 512

PROT_READ = 1
PROT_RW = 3

FIRST_TOUCH = "first_touch"
INTERLEAVE = "interleave"
HOME_NODE = "home_node"
ALLOC_POLICIES = (FIRST_TOUCH, INTERLEAVE, HOME_NODE)

ShootdownFn = Callable[[int], int]  # vpn -> cycles


class MappingExistsError(ValueError):
    pass


class NotMappedError(ValueError):
    pass


class ReplicaExistsError(ValueError):
    pass


class LastReplicaError(ValueError):
    pass


class Level(IntEnum):
    PGD = 0
    PUD = 1
    PMD = 2
    PTE = 3


@dataclass
class Mapping:
    """Leaf translation entry.  Each replica holds its own copy."""
    vpn: int
    pfn: int
    prot: int
    pfn_node: int
    numa_hint: bool = False  # set while the page awaits an access-sampling fault


class PageTableNode:
    """One table page.  entries maps a radix index to a child or a Mapping."""

    __slots__ = ("level", "entries", "resident_node", "next_replica", "replica_key")

    def __init__(self, level: Level, resident_node: int, replica_key: int):
        self.level = level
        self.entries: Dict[int, object] = {}
        self.resident_node = resident_node
        self.next_replica: "PageTableNode" = self
        self.replica_key = replica_key

    def chain(self) -> Iterator["PageTableNode"]:
        node = self
        while True:
            yield node
            node = node.next_replica
            if node is self:
                return


@dataclass
class PtOpCost:
    """Cycle and write accounting for one page-table operation."""
    cycles: int = 0              # table reads/writes plus lock wait
    writes_performed: int = 0
    shootdowns_issued: int = 0
    shootdown_cycles: int = 0
    lock_wait_cycles: int = 0
    pages_copied: int = 0
    pgd_pages_exempt: int = 0
    pgd_exempt_cycles: int = 0

    @property
    def total_cycles(self) -> int:
        return self.cycles + self.shootdown_cycles

    def merge(self, other: "PtOpCost") -> "PtOpCost":
        self.cycles += other.cycles
        self.writes_performed += other.writes_performed
        self.shootdowns_issued += other.shootdowns_issued
        self.shootdown_cycles += other.shootdown_cycles
        self.lock_wait_cycles += other.lock_wait_cycles
        self.pages_copied += other.pages_copied
        self.pgd_pages_exempt += other.pgd_pages_exempt
        self.pgd_exempt_cycles += other.pgd_exempt_cycles
        return self


class AddressSpace:
    """Per-process replicated page tables plus allocation bookkeeping."""

    def __init__(self, topo: Topology, process_id: int, home_node: int,
                 alloc_policy: str = HOME_NODE, arity: int = DEFAULT_ARITY):
        if alloc_policy not in ALLOC_POLICIES:
            raise ValueError(f"unknown allocation policy {alloc_policy!r}")
        if arity < 4:
            raise ValueError("radix arity below 4 is not supported")
        self.topo = topo
        self.process_id = process_id
        self.home_node = home_node
        self.alloc_policy = alloc_policy
        self.arity = arity
        self.mappings_count = 0
        self.lock_mode = "per_table"  # or "global"
        self._interleave_rr = 0
        self._last_tables: Optional[frozenset] = None
        self._last_cycles = 0
        pgd = PageTableNode(Level.PGD, self._alloc_node(home_node, home_node),
                            home_node)
        self.replica_roots: Dict[int, PageTableNode] = {home_node: pgd}

    # -- allocation ---------------------------------------------------------

    def _alloc_node(self, replica_key: int, requesting_node: int) -> int:
        """Pick the resident node for a newly allocated table page.

        home_node places each replica's tables on that replica's own node,
        so walks stay local wherever a replica exists.  first_touch follows
        the requesting core; interleave round-robins over all nodes.
        """
        if self.alloc_policy == HOME_NODE:
            return replica_key
        if self.alloc_policy == FIRST_TOUCH:
            return requesting_node
        node_ids = self.topo.node_ids
        node = node_ids[self._interleave_rr % len(node_ids)]
        self._interleave_rr += 1
        return node

    @property
    def replica_count(self) -> int:
        return len(self.replica_roots)

    # -- quantum lock queue  --------------------------------------------------

    def begin_quantum(self) -> None:
        """Reset the same-quantum mutation queue used for lock-wait pricing."""
        self._last_tables = None
        self._last_cycles = 0

    def _lock_wait(self, touched: set, own_cycles: int) -> int:
        wait = 0
        if self._last_tables is not None:
            if self.lock_mode == "global" or (self._last_tables & touched):
                wait = self._last_cycles
        self._last_tables = frozenset(touched)
        # the predecessor's own work, not its inherited waits, serializes us
        self._last_cycles = own_cycles
        return wait

    # -- traversal helpers ----------------------------------------------------

    def root_for(self, node_id: int) -> PageTableNode:
        return self.replica_roots.get(node_id, self.replica_roots[self.home_node])

    def lookup(self, vpn: int) -> Optional[Mapping]:
        """Uncosted translation through the home replica."""
        pte = _pte_table(self, self.replica_roots[self.home_node], vpn)
        return None if pte is None else pte.entries.get(vpn % self.arity)

    def iter_tables(self, root: Optional[PageTableNode] = None) -> Iterator[PageTableNode]:
        if root is None:
            root = self.replica_roots[self.home_node]
        stack = [root]
        while stack:
            table = stack.pop()
            yield table
            if table.level != Level.PTE:
                for idx in sorted(table.entries, reverse=True):
                    stack.append(table.entries[idx])


# -- internal write machinery -------------------------------------------------


def _charge_write(space: AddressSpace, table: PageTableNode, updater_node: int,
                  contention, cost: PtOpCost, touched: set) -> None:
    cost.writes_performed += 1
    cost.cycles += access_latency(space.topo, updater_node, table.resident_node,
                                  contention)
    touched.add(id(table))


def _alloc_child(space: AddressSpace, parent: PageTableNode, idx: int,
                 updater_node: int, contention, cost: PtOpCost,
                 touched: set) -> PageTableNode:
    """Allocate the missing child table in every replica and ring-link them.

    Returns the new child of parent itself.
    """
    children: List[PageTableNode] = []
    for par in parent.chain():
        child = PageTableNode(Level(par.level + 1),
                              space._alloc_node(par.replica_key, updater_node),
                              par.replica_key)
        par.entries[idx] = child
        _charge_write(space, par, updater_node, contention, cost, touched)
        children.append(child)
    for i, child in enumerate(children):
        child.next_replica = children[(i + 1) % len(children)]
    return children[0]


def _pte_table(space: AddressSpace, root: PageTableNode, vpn: int,
               touches: Optional[List[Tuple[Level, int]]] = None,
               alloc: Optional[Callable[[PageTableNode, int], PageTableNode]] = None
               ) -> Optional[PageTableNode]:
    """The one descent of the tree: from root to the PTE table covering vpn.

    touches, when given, collects (level, resident_node) for every table
    visited, the PTE table included.  A missing table ends the descent with
    None, unless alloc is given: then alloc(parent, idx) supplies the child.
    The PTE entry index is vpn % arity.
    """
    a = space.arity
    top = vpn // (a * a * a)
    if top >= a:
        raise ValueError(f"vpn {vpn} does not fit a four-level space of arity {a}")
    table = root
    for idx in (top, vpn // (a * a) % a, vpn // a % a):
        if touches is not None:
            touches.append((table.level, table.resident_node))
        child = table.entries.get(idx)
        if child is None:
            if alloc is None:
                return None
            child = alloc(table, idx)
        table = child
    if touches is not None:
        touches.append((table.level, table.resident_node))
    return table


def _mutate_leaf(space: AddressSpace, vpns: Iterable[int], updater_node: int,
                 contention, write: Callable[[Dict[int, object], int], None],
                 shootdown: Optional[ShootdownFn] = None, shoots: bool = True,
                 allocate: bool = False) -> PtOpCost:
    """The one leaf-mutation path: write each vpn's leaf in every replica.

    For each vpn, find its PTE table through the updater's replica, allocating
    missing tables when allocate is set and rejecting an unmapped vpn
    otherwise.  Apply write(entries, idx) to every replica on the ring and
    charge each entry write; when shoots is set, count a shootdown and call
    the hook.  A single lock wait covers every table the operation touched.
    """
    cost = PtOpCost()
    touched: set = set()
    alloc = None
    if allocate:
        def alloc(parent: PageTableNode, idx: int) -> PageTableNode:
            return _alloc_child(space, parent, idx, updater_node, contention,
                                cost, touched)
    root = space.root_for(updater_node)
    for vpn in vpns:
        pte = _pte_table(space, root, vpn, alloc=alloc)
        idx = vpn % space.arity
        if not allocate and (pte is None or idx not in pte.entries):
            raise NotMappedError(f"vpn {vpn} is not mapped")
        for table in pte.chain():
            write(table.entries, idx)
            _charge_write(space, table, updater_node, contention, cost, touched)
        if shoots:
            cost.shootdowns_issued += 1
            if shootdown is not None:
                cost.shootdown_cycles += shootdown(vpn)
    cost.lock_wait_cycles = space._lock_wait(touched, cost.cycles)
    cost.cycles += cost.lock_wait_cycles
    return cost


def _set_field(name: str, value) -> Callable[[Dict[int, object], int], None]:
    def write(entries: Dict[int, object], idx: int) -> None:
        setattr(entries[idx], name, value)
    return write


# -- public operations --------------------------------------------------------


def map_page(space: AddressSpace, vpn: int, pfn: int, pfn_node: int,
             requesting_core: int, prot: int = PROT_RW,
             contention=None) -> PtOpCost:
    """Install vpn->pfn in every replica, allocating missing tables.

    Cost: one entry write per replica (plus one write per allocated table
    page), each priced as an access from the requester's node to the node
    holding the written table page.
    """
    if space.lookup(vpn) is not None:
        raise MappingExistsError(f"vpn {vpn} already mapped")

    def install(entries: Dict[int, object], idx: int) -> None:
        entries[idx] = Mapping(vpn, pfn, prot, pfn_node)

    cost = _mutate_leaf(space, (vpn,), space.topo.node_of_core(requesting_core),
                        contention, install, shoots=False, allocate=True)
    space.mappings_count += 1
    return cost


def unmap_page(space: AddressSpace, vpn: int, requesting_core: int,
               contention=None, shootdown: Optional[ShootdownFn] = None) -> PtOpCost:
    """Clear vpn in every replica and shoot down stale TLB entries."""
    def clear(entries: Dict[int, object], idx: int) -> None:
        del entries[idx]

    cost = _mutate_leaf(space, (vpn,), space.topo.node_of_core(requesting_core),
                        contention, clear, shootdown)
    space.mappings_count -= 1
    return cost


def protect_range(space: AddressSpace, vpn_start: int, n_pages: int, prot: int,
                  requesting_core: int, contention=None,
                  shootdown: Optional[ShootdownFn] = None) -> PtOpCost:
    """Update protection bits on a mapped range, one shootdown per page.

    The whole range is validated before anything is written; a hole anywhere
    leaves the space untouched.
    """
    vpns = range(vpn_start, vpn_start + n_pages)
    missing = [v for v in vpns if space.lookup(v) is None]
    if missing:
        raise NotMappedError(f"vpn {missing[0]} in protect range is not mapped")
    return _mutate_leaf(space, vpns, space.topo.node_of_core(requesting_core),
                        contention, _set_field("prot", prot), shootdown)


def set_access_hint(space: AddressSpace, vpn: int, requesting_node: int,
                    contention=None,
                    shootdown: Optional[ShootdownFn] = None) -> PtOpCost:
    """Arm an access-sampling hint: entry write per replica plus a shootdown.

    Models the periodic page unmapping that locality sampling performs; the
    next touch takes a minor fault serviced by clear_access_hint.
    """
    return _mutate_leaf(space, (vpn,), requesting_node, contention,
                        _set_field("numa_hint", True), shootdown)


def clear_access_hint(space: AddressSpace, vpn: int, requesting_node: int,
                      contention=None) -> PtOpCost:
    """Disarm a sampling hint after the fault; entry write per replica."""
    return _mutate_leaf(space, (vpn,), requesting_node, contention,
                        _set_field("numa_hint", False), shoots=False)


def set_frame_node(space: AddressSpace, vpn: int, new_node: int,
                   requesting_node: int, contention=None,
                   shootdown: Optional[ShootdownFn] = None) -> PtOpCost:
    """Point a mapping at a frame on new_node in every replica (data migration)."""
    return _mutate_leaf(space, (vpn,), requesting_node, contention,
                        _set_field("pfn_node", new_node), shootdown)


def add_replica(space: AddressSpace, target_node: int, contention=None) -> PtOpCost:
    """Deep-copy the tree onto target_node and splice it into every ring.

    Each copied table page costs one read at the source page's node plus one
    write on target_node, both priced from the target (the copier runs there).
    """
    if target_node in space.replica_roots:
        raise ReplicaExistsError(f"node {target_node} already holds a replica")
    cost = PtOpCost()
    src_root = space.replica_roots[space.home_node]

    def copy_table(src: PageTableNode) -> PageTableNode:
        dst = PageTableNode(src.level, target_node, target_node)
        cost.pages_copied += 1
        cost.writes_performed += 1
        page_cycles = (access_latency(space.topo, target_node, src.resident_node,
                                      contention)
                       + access_latency(space.topo, target_node, target_node,
                                        contention))
        cost.cycles += page_cycles
        if src.level == Level.PGD:
            cost.pgd_pages_exempt += 1
            cost.pgd_exempt_cycles += page_cycles
        if src.level == Level.PTE:
            for idx, m in src.entries.items():
                dst.entries[idx] = Mapping(m.vpn, m.pfn, m.prot, m.pfn_node,
                                           m.numa_hint)
        else:
            for idx, child in src.entries.items():
                dst.entries[idx] = copy_table(child)
        # splice the copy right after its source in the ring
        dst.next_replica = src.next_replica
        src.next_replica = dst
        return dst

    new_root = copy_table(src_root)
    space.replica_roots[target_node] = new_root
    return cost


def drop_replica(space: AddressSpace, node: int, contention=None) -> PtOpCost:
    """Unlink one replica from every ring and free its table pages."""
    if node not in space.replica_roots:
        raise NotMappedError(f"node {node} holds no replica")
    if space.replica_count == 1:
        raise LastReplicaError("cannot drop the last replica")
    cost = PtOpCost()
    root = space.replica_roots[node]
    for table in list(space.iter_tables(root)):
        pred = table
        while pred.next_replica is not table:
            pred = pred.next_replica
        pred.next_replica = table.next_replica
        table.next_replica = table
        cost.writes_performed += 1
        cost.cycles += access_latency(space.topo, node, node, contention)
    del space.replica_roots[node]
    if space.home_node == node:
        space.home_node = min(space.replica_roots)
    return cost


def migrate_tables(space: AddressSpace, from_node: int, to_node: int,
                   contention=None) -> PtOpCost:
    """Move a replica: copy to to_node, retire from_node, re-home if needed.

    When the space had a single replica, its PGD page is copied but excluded
    from the migrated-page count and cycle total; the exempt amounts are
    reported separately.
    """
    if from_node not in space.replica_roots:
        raise NotMappedError(f"node {from_node} holds no replica")
    if to_node in space.replica_roots:
        raise ReplicaExistsError(f"node {to_node} already holds a replica")
    single = space.replica_count == 1
    cost = add_replica(space, to_node, contention)
    if space.home_node == from_node:
        space.home_node = to_node
    cost.merge(drop_replica(space, from_node, contention))
    if single:
        cost.pages_copied -= cost.pgd_pages_exempt
        cost.cycles -= cost.pgd_exempt_cycles
    else:
        cost.pgd_pages_exempt = 0
        cost.pgd_exempt_cycles = 0
    return cost


def translate(space: AddressSpace, vpn: int,
              walker_node: int) -> Tuple[Optional[Mapping], List[Tuple[Level, int]]]:
    """Walk the replica local to walker_node (home replica otherwise).

    Returns the mapping (None on fault) and the ordered list of
    (level, resident_node) table touches the walk performed.
    """
    touches: List[Tuple[Level, int]] = []
    pte = _pte_table(space, space.root_for(walker_node), vpn, touches)
    return (None if pte is None else pte.entries.get(vpn % space.arity)), touches
