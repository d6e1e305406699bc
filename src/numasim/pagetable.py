"""Replicated four-level radix page tables with cycle-cost accounting.

An address space owns one radix tree.  Every write reaches every replica, so
the copies never differ; what replication changes is where each copy lives.
Each table page therefore records, per replica, the node holding that
replica's copy (resident).  Every entry write is priced as one memory access
from the updating node to each node holding a copy of the touched table page,
which is what makes eager replication expensive on a busy machine.

Concurrent mutations inside one scheduling quantum are modeled as a queue:
an operation that touches a table page the previous operation also touched
(or any page, in global-lock mode) waits for the predecessor's cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from functools import partial
from itertools import filterfalse, repeat
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from .topology import Topology, access_latency

PROT_READ = 1
PROT_RW = 3

FIRST_TOUCH = "first_touch"
INTERLEAVE = "interleave"
HOME_NODE = "home_node"
ALLOC_POLICIES = (FIRST_TOUCH, INTERLEAVE, HOME_NODE)

# the tables over one PTE table's pages, from the PGD down
TablePath = Tuple["PageTableNode", ...]


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


_PTE = int(Level.PTE)
_DEPTH = len(Level)  # tables on a full path


@dataclass(slots=True)
class Mapping:
    """Leaf translation entry, shared by every replica of its table."""
    vpn: int
    pfn: int
    prot: int
    pfn_node: int
    numa_hint: bool = False  # set while the page awaits an access-sampling fault


class PageTableNode:
    """One table page.  entries maps a radix index to a child or a Mapping;
    resident maps each replica to the node holding that replica's copy."""

    __slots__ = ("level", "entries", "resident")

    def __init__(self, level: Level, resident: Dict[int, int]):
        self.level = level
        self.entries: Dict[int, object] = {}
        self.resident = resident


@dataclass(slots=True)
class PtOpCost:
    """Cycle and write accounting for one page-table operation."""
    cycles: int = 0              # table reads/writes plus lock wait
    writes_performed: int = 0
    lock_wait_cycles: int = 0
    pages_copied: int = 0


class AddressSpace:
    """Per-process replicated page tables plus allocation bookkeeping."""

    def __init__(self, topo: Topology, home_node: int,
                 alloc_policy: str = HOME_NODE):
        if alloc_policy not in ALLOC_POLICIES:
            raise ValueError(f"unknown allocation policy {alloc_policy!r}")
        self.topo = topo
        self.home_node = home_node
        self.alloc_policy = alloc_policy
        self.arity = topo.arity
        self.mappings_count = 0
        self.lock_mode = "per_table"  # or "global"
        self._interleave_rr = 0
        self._last_tables: Optional[set] = None
        self._last_cycles = 0
        self.root = PageTableNode(
            Level.PGD, {home_node: self._alloc_node(home_node, home_node)})
        # vpn // arity -> its full TablePath, kept by _path
        self.paths: Dict[int, TablePath] = {}
        # the replicas in ring order: a new one goes right after the home
        # replica, and allocation visits them from the updater's replica on
        self.replicas: List[int] = [home_node]

    # -- allocation ---------------------------------------------------------

    def _alloc_node(self, replica_key: int, requesting_node: int) -> int:
        """Pick the resident node for a newly allocated table page.

        home_node places each replica's tables on that replica's own node,
        so walks stay local wherever a replica exists.  first_touch follows
        the requesting node; interleave round-robins over all nodes.
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
        return len(self.replicas)

    # -- quantum lock queue  --------------------------------------------------

    def begin_quantum(self) -> None:
        """Reset the same-quantum mutation queue used for lock-wait pricing."""
        self._last_tables = None
        self._last_cycles = 0

    def _lock_wait(self, touched: set, own_cycles: int) -> int:
        """touched, the ids of the tables the operation wrote, is kept as the
        queue's last entry; the caller must not change it afterwards."""
        wait = 0
        if self._last_tables is not None:
            if self.lock_mode == "global" or (self._last_tables & touched):
                wait = self._last_cycles
        self._last_tables = touched
        # the predecessor's own work, not its inherited waits, serializes us
        self._last_cycles = own_cycles
        return wait

    # -- traversal helpers ----------------------------------------------------

    def replica_for(self, node_id: int) -> int:
        """The replica a walker or updater on node_id uses: its own node's,
        the home replica otherwise."""
        return node_id if node_id in self.root.resident else self.home_node

    def lookup(self, vpn: int) -> Optional[Mapping]:
        """Uncosted translation."""
        a = self.arity
        path = self.paths.get(vpn // a)
        if path is None and len(path := _path(self, vpn)) < _DEPTH:
            return None
        return path[_PTE].entries.get(vpn % a)

    def next_free_vpn(self, start: int, limit: int) -> Optional[int]:
        """The first unmapped vpn of start, start + 1, ..., wrapping at limit.

        None when all limit pages are mapped.  Uncosted, with one descent
        per PTE table rather than per page.
        """
        a = self.arity
        vpn, left = start, limit
        while left:
            base = vpn - vpn % a  # the first vpn of vpn's PTE table
            # the candidates up to the end of this PTE table, the wrap or the
            # last unchecked page, whichever comes first
            end = min(base + a, limit, vpn + left)
            path = self.paths.get(base // a)
            if path is None:  # not indexed: descend, raising beyond the space
                path = _path(self, vpn)
                if len(path) < _DEPTH:
                    return vpn
            # the first of the candidates' indices the table lacks
            free = next(filterfalse(path[_PTE].entries.__contains__,
                                    range(vpn - base, end - base)), None)
            if free is not None:
                return base + free
            left -= end - vpn
            vpn = end % limit
        return None

    def iter_tables(self) -> Iterator[PageTableNode]:
        stack = [self.root]
        while stack:
            table = stack.pop()
            yield table
            if table.level != Level.PTE:
                for idx in sorted(table.entries, reverse=True):
                    stack.append(table.entries[idx])


# -- internal write machinery -------------------------------------------------


def _alloc_child(space: AddressSpace, parent: PageTableNode, idx: int,
                 updater_node: int, cost: PtOpCost,
                 touched: set) -> PageTableNode:
    """Allocate the missing child table with a copy in every replica.

    Copies are placed replica by replica in ring order from the updater's
    replica, and each costs one entry write into that replica's copy of
    parent.
    """
    replicas = space.replicas
    first = replicas.index(space.replica_for(updater_node))
    resident: Dict[int, int] = {}
    for replica in replicas[first:] + replicas[:first]:
        resident[replica] = space._alloc_node(replica, updater_node)
        cost.writes_performed += 1
        cost.cycles += access_latency(space.topo, updater_node,
                                      parent.resident[replica])
    touched.add(id(parent))
    child = PageTableNode(Level(parent.level + 1), resident)
    parent.entries[idx] = child
    return child


def _path(space: AddressSpace, vpn: int,
          alloc: Optional[Callable[[PageTableNode, int], PageTableNode]] = None
          ) -> TablePath:
    """The one descent of the tree: the tables from the root down to the PTE
    table covering vpn, whose entry index is vpn % arity.

    A missing table ends the descent with the tables above it, unless alloc
    is given: then alloc(parent, idx) supplies the child.  A full path is
    kept in space.paths under vpn // arity and served from there: table
    pages are never freed or replaced (_alloc_child is the only writer of a
    table's children), so a path, once complete, never changes.
    """
    a = space.arity
    key = vpn // a
    path = space.paths.get(key)
    if path is not None:
        return path
    top = key // (a * a)
    if top >= a:
        raise ValueError(f"vpn {vpn} does not fit a four-level space of arity {a}")
    table = space.root
    tables = [table]
    for idx in (top, key // a % a, key % a):
        child = table.entries.get(idx)
        if child is None:
            if alloc is None:
                return tuple(tables)
            child = alloc(table, idx)
        table = child
        tables.append(table)
    path = space.paths[key] = tuple(tables)
    return path


def _mutate_leaf(space: AddressSpace, vpns: Sequence[int], updater_node: int,
                 write: Callable[[Dict[int, object], List[int], object], None],
                 arg: object = None, allocate: bool = False) -> PtOpCost:
    """The one leaf-mutation path: write each vpn's leaf in every replica.

    Each PTE table is found, allocating missing tables when allocate is
    set, and priced from the updater's price row, one read per copy, once
    per run of its vpns.  Every vpn is charged that price and one write per
    copy.  All vpns are checked before anything is written: with allocate
    each must be unmapped (MappingExistsError), otherwise mapped
    (NotMappedError).  Then write(entries, idxs, arg) is applied once per
    run, in vpns order, to the run's PTE table entries, which every replica
    shares, and the run's indices in that table.  A single lock wait covers
    every table the operation touched.  TLB shootdowns are the caller's.
    """
    touched: set = set()
    price = space.topo.cycles[updater_node]  # access_latency's row
    a, paths = space.arity, space.paths
    cycles = writes = 0
    grown = None  # the cost of the tables allocated, if any
    runs = []  # (PTE table, indices) per run of vpns in one table
    key = None
    for vpn in vpns:
        if vpn // a != key:  # a new PTE table: find it
            key = vpn // a
            path = paths.get(key)
            if path is None:
                if allocate:
                    grown = grown or PtOpCost()
                path = _path(space, vpn, partial(
                    _alloc_child, space, updater_node=updater_node,
                    cost=grown, touched=touched) if allocate else None)
                if len(path) < _DEPTH:
                    raise NotMappedError(f"vpn {vpn} is not mapped")
            pte = path[_PTE]
            entries = pte.entries
            runs.append((pte, idxs := []))
        idx = vpn % a
        if (idx in entries) == allocate:
            if allocate:
                raise MappingExistsError(f"vpn {vpn} already mapped")
            raise NotMappedError(f"vpn {vpn} is not mapped")
        idxs.append(idx)

    for pte, idxs in runs:
        writes += len(idxs) * len(pte.resident)
        cycles += len(idxs) * sum(map(price.__getitem__, pte.resident.values()))
        touched.add(id(pte))
        write(pte.entries, idxs, arg)
    if grown is not None:
        cycles += grown.cycles
        writes += grown.writes_performed
    wait = space._lock_wait(touched, cycles)
    return PtOpCost(cycles + wait, writes, wait)


def _install(entries: Dict[int, object], idxs: List[int],
             leaves: Iterator) -> None:
    entries.update(zip(idxs, leaves))


def _remove(entries: Dict[int, object], idxs: List[int], _: None) -> None:
    for idx in idxs:
        del entries[idx]


def _set_field(entries: Dict[int, object], idxs: List[int],
               change: Tuple[str, object]) -> None:
    for idx in idxs:
        setattr(entries[idx], *change)  # change is (field name, value)


# -- public operations --------------------------------------------------------


def map_pages(space: AddressSpace, vpns: Sequence[int], pfns: Sequence[int],
              pfn_nodes: Sequence[int], requesting_node: int,
              prot: int = PROT_RW) -> PtOpCost:
    """Install each vpns[i]->pfns[i] (on pfn_nodes[i]) in every replica,
    allocating missing tables.

    The vpns must be distinct.  Raises MappingExistsError, before any write,
    when a vpn is mapped.  Cost: one entry write per replica (plus one write
    per allocated table page), each priced as an access from
    requesting_node to the node holding the written table page.
    """
    cost = _mutate_leaf(space, vpns, requesting_node, _install, map(
        Mapping, vpns, pfns, repeat(prot), pfn_nodes), allocate=True)
    space.mappings_count += len(vpns)
    return cost


def map_page(space: AddressSpace, vpn: int, pfn: int, pfn_node: int,
             requesting_node: int, prot: int = PROT_RW) -> PtOpCost:
    """Install vpn->pfn in every replica; map_pages for one page."""
    return map_pages(space, (vpn,), (pfn,), (pfn_node,), requesting_node, prot)


def unmap_page(space: AddressSpace, vpn: int, requesting_node: int) -> PtOpCost:
    """Clear vpn in every replica."""
    cost = _mutate_leaf(space, (vpn,), requesting_node, _remove)
    space.mappings_count -= 1
    return cost


def protect_range(space: AddressSpace, vpn_start: int, n_pages: int, prot: int,
                  requesting_node: int) -> PtOpCost:
    """Update protection bits on a mapped range.

    The whole range is validated before anything is written; a hole anywhere
    leaves the space untouched.
    """
    return _mutate_leaf(space, range(vpn_start, vpn_start + n_pages),
                        requesting_node, _set_field, ("prot", prot))


def set_access_hint(space: AddressSpace, vpns: Sequence[int],
                    requesting_node: int) -> PtOpCost:
    """Arm access-sampling hints: per vpn, an entry write per replica.

    Models the periodic page unmapping that locality sampling performs; the
    next touch takes a minor fault that clears the hint at
    clear_access_hint's price.  Like
    protect_range, every vpn is validated before anything is written.
    """
    return _mutate_leaf(space, vpns, requesting_node, _set_field,
                        ("numa_hint", True))


def clear_access_hint(space: AddressSpace, vpn: int,
                      requesting_node: int) -> PtOpCost:
    """Disarm a sampling hint after the fault; entry write per replica."""
    return _mutate_leaf(space, (vpn,), requesting_node, _set_field,
                        ("numa_hint", False))


def set_frame_node(space: AddressSpace, vpn: int, new_node: int,
                   requesting_node: int) -> PtOpCost:
    """Point a mapping at a frame on new_node in every replica (data migration)."""
    return _mutate_leaf(space, (vpn,), requesting_node, _set_field,
                        ("pfn_node", new_node))


def add_replica(space: AddressSpace, target_node: int) -> PtOpCost:
    """Copy every table page onto target_node, a new replica after the home one.

    Each copied table page costs one read at the home replica's copy plus
    one write on target_node, both priced from the target (the copier runs
    there).
    """
    if target_node in space.replicas:
        raise ReplicaExistsError(f"node {target_node} already holds a replica")
    cost = PtOpCost()
    home = space.home_node
    write_cycles = access_latency(space.topo, target_node, target_node)
    for table in space.iter_tables():
        cost.pages_copied += 1
        cost.writes_performed += 1
        cost.cycles += write_cycles + access_latency(
            space.topo, target_node, table.resident[home])
        table.resident[target_node] = target_node
    space.replicas.insert(space.replicas.index(home) + 1, target_node)
    return cost


def drop_replica(space: AddressSpace, node: int) -> PtOpCost:
    """Free one replica's copy of every table page."""
    if node not in space.replicas:
        raise NotMappedError(f"node {node} holds no replica")
    if space.replica_count == 1:
        raise LastReplicaError("cannot drop the last replica")
    cost = PtOpCost()
    write_cycles = access_latency(space.topo, node, node)
    for table in space.iter_tables():
        del table.resident[node]
        cost.writes_performed += 1
        cost.cycles += write_cycles
    space.replicas.remove(node)
    if space.home_node == node:
        space.home_node = min(space.replicas)
    return cost


def migrate_tables(space: AddressSpace, from_node: int,
                   to_node: int) -> PtOpCost:
    """Move a replica: copy to to_node, retire from_node, re-home if needed.

    When the space had a single replica, its PGD page is copied but left out
    of the migrated-page count and the cycles.
    """
    if from_node not in space.replicas:
        raise NotMappedError(f"node {from_node} holds no replica")
    if to_node in space.replicas:
        raise ReplicaExistsError(f"node {to_node} already holds a replica")
    exempt_pages = exempt_cycles = 0
    if space.replica_count == 1:  # add_replica's price for the PGD copy
        exempt_pages = 1
        topo, pgd_node = space.topo, space.root.resident[from_node]
        exempt_cycles = access_latency(topo, to_node, to_node) \
            + access_latency(topo, to_node, pgd_node)
    cost = add_replica(space, to_node)
    if space.home_node == from_node:
        space.home_node = to_node
    dropped = drop_replica(space, from_node)
    cost.cycles += dropped.cycles - exempt_cycles
    cost.writes_performed += dropped.writes_performed
    cost.pages_copied -= exempt_pages
    return cost


def translate(space: AddressSpace, vpn: int,
              walker_node: int) -> Tuple[Optional[Mapping], List[int]]:
    """Walk the replica local to walker_node (home replica otherwise).

    Returns the mapping (None on fault) and, for each table the walk read
    from the PGD down, the node holding the walked replica's copy; a
    position in the list is its Level.  A fault on a missing table reads
    fewer than four.
    """
    replica = walker_node if walker_node in space.root.resident \
        else space.home_node  # space.replica_for, inline
    a = space.arity
    path = space.paths.get(vpn // a)
    if path is None:  # not indexed yet: descend
        path = _path(space, vpn)
        if len(path) < _DEPTH:
            return None, [table.resident[replica] for table in path]
    pgd, pud, pmd, pte = path
    return pte.entries.get(vpn % a), [
        pgd.resident[replica], pud.resident[replica], pmd.resident[replica],
        pte.resident[replica]]
