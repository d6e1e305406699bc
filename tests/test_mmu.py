"""TLB, page-walk cache, walk pricing, and shootdown behavior.

Walks that fill go through the tests' reference walker, by the rules the
engine's access loop walks by; Mmu.page_walk is a fault's read-only walk."""

import random
from collections import OrderedDict

from hypothesis import given, settings
from hypothesis import strategies as st

from numasim.mmu import Mmu
from numasim.pagetable import (
    FIRST_TOUCH,
    AddressSpace,
    add_replica,
    map_page,
    set_frame_node,
)
from numasim.topology import access_latency

from conftest import make_topo
from reference import walk


def accesses(mmu, space, vpn, core_id):
    """The memory accesses of one walk."""
    _, mem_accesses, _, _, _ = walk(mmu, space, vpn, core_id)
    return mem_accesses


def priced(topo, node, reads):
    """The cycles of a walk's reads from a core on node."""
    return sum(access_latency(topo, node, to) for to in reads)


def mapped_space(topo, vpns, home=0):
    space = AddressSpace(topo, home)
    for i, vpn in enumerate(vpns):
        map_page(space, vpn, 100 + i, home, requesting_node=home)
    return space


def test_cold_local_walk_costs_four_local_accesses():
    topo = make_topo(2, 1)
    space = mapped_space(topo, [5])
    cycles, mem_accesses, remote, mapping, touched = \
        walk(Mmu(topo), space, 5, core_id=0)
    assert cycles == 400
    assert mem_accesses == 4
    assert remote == 0
    assert mapping.pfn == 100
    assert touched == [0, 0, 0, 0]


def test_cold_remote_walk_pays_the_link_factor_per_level():
    topo = make_topo(2, 1)
    space = mapped_space(topo, [5])
    cycles, mem_accesses, remote, _, touched = \
        walk(Mmu(topo), space, 5, core_id=1)
    assert cycles == 520
    assert mem_accesses == 4
    assert remote == 4
    assert touched == [0, 0, 0, 0]


def test_local_replica_turns_remote_walks_local():
    topo = make_topo(2, 1)
    space = mapped_space(topo, [5])
    add_replica(space, 1)
    cycles, _, remote, _, touched = walk(Mmu(topo), space, 5, core_id=1)
    assert cycles == 400
    assert remote == 0
    assert touched == [1, 1, 1, 1]


def test_pwc_serves_upper_levels_on_nearby_walks():
    topo = make_topo(2, 1)
    space = mapped_space(topo, [5, 6, 5 + 512])
    mmu = Mmu(topo)
    assert accesses(mmu, space, 5, 0) == 4
    # same PMD region: only the PTE level reads memory
    cycles, mem_accesses, _, _, _ = walk(mmu, space, 6, 0)
    assert mem_accesses == 1
    assert cycles == 100
    # sibling PMD region: PGD and PUD prefixes still apply
    assert accesses(mmu, space, 5 + 512, 0) == 2


def test_walk_fills_the_tlb():
    topo = make_topo(2, 1)
    space = mapped_space(topo, [5])
    mmu = Mmu(topo)
    assert mmu.tlb_lookup(0, 5) is None
    walk(mmu, space, 5, 0)
    hit = mmu.tlb_lookup(0, 5)
    assert hit is not None and hit.pfn == 100


def test_tlb_evicts_least_recently_used():
    topo = make_topo(1, 1, tlb_entries=4)
    space = mapped_space(topo, range(5))
    mmu = Mmu(topo)
    for vpn in range(4):
        walk(mmu, space, vpn, 0)
    mmu.tlb_lookup(0, 0)  # refresh 0; vpn 1 becomes the eviction victim
    walk(mmu, space, 4, 0)
    assert mmu.tlb_lookup(0, 1) is None
    assert mmu.tlb_lookup(0, 0) is not None
    assert mmu.tlb_lookup(0, 4) is not None


def test_partition_halves_capacity_and_sheds_entries_eagerly():
    # one page per PMD region: eight PMD prefixes under one PUD and one PGD
    topo = make_topo(1, 2, smt=True, tlb_entries=8)
    vpns = [512 * i for i in range(8)]
    space = mapped_space(topo, vpns)
    mmu = Mmu(topo, pwc_entries=(4, 16, 6))
    for vpn in vpns:
        walk(mmu, space, vpn, 0)
    assert [list(cache) for cache in mmu.pwcs[0]] == [[0], [0], [2, 3, 4, 5, 6, 7]]
    mmu.set_partition(0, True)
    assert mmu.tlb_limits[0] == 4
    assert mmu.pwc_limits[0] == (2, 8, 3)
    assert len(mmu.tlbs[0]) == 4
    assert list(mmu.tlbs[0]) == vpns[4:]
    assert [list(cache) for cache in mmu.pwcs[0]] == [[0], [0], [5, 6, 7]]
    assert mmu.tlb_lookup(0, vpns[3]) is None   # older half evicted
    assert mmu.tlb_lookup(0, vpns[7]) is not None
    mmu.set_partition(0, False)
    assert mmu.tlb_limits[0] == topo.tlb_entries == 8
    assert mmu.pwc_limits[0] == (4, 16, 6)
    assert list(mmu.tlbs[0]) == vpns[4:]  # restoring sheds nothing


def test_fault_charges_the_walk_but_caches_nothing():
    topo = make_topo(2, 1)
    space = mapped_space(topo, [0])
    mmu = Mmu(topo)
    # PTE table exists, entry absent
    reads = mmu.page_walk(space, 1, 0)
    assert reads == [0, 0, 0, 0]
    assert priced(topo, 0, reads) == 400
    assert mmu.tlb_lookup(0, 1) is None
    # the fault primed no PWC levels, so a fresh walk pays in full
    assert accesses(mmu, space, 0, 0) == 4


def test_fault_on_missing_subtree_stops_early():
    topo = make_topo(2, 1)
    space = mapped_space(topo, [0])
    reads = Mmu(topo).page_walk(space, 512 ** 2, 0)
    assert reads == [0, 0]  # PGD and PUD reads reach the hole
    assert priced(topo, 0, reads) == 200


def test_page_walk_reads_past_pwc_hits_and_fills_nothing():
    topo = make_topo(2, 1)
    space = mapped_space(topo, [5, 5 + 512])
    mmu = Mmu(topo)
    walk(mmu, space, 5, 0)
    before = [list(cache) for cache in mmu.pwcs[0]]
    # the PGD and PUD prefixes hit; the PMD level and the PTE table are read
    assert mmu.page_walk(space, 5 + 512, 0) == [0, 0]
    assert [list(cache) for cache in mmu.pwcs[0]] == before
    assert list(mmu.tlbs[0]) == [5]


def test_shootdown_costs_scale_with_distance():
    topo = make_topo(2, 2)
    mmu = Mmu(topo)
    assert mmu.tlb_shootdown((0,), 0, [0, 1]) == 100        # two local IPIs
    assert mmu.tlb_shootdown((0,), 0, [2]) == 65            # remote pays 1.3x
    assert mmu.tlb_shootdown((0,), 0, [1, 2]) == 115
    # one IPI per vpn; the initiator's own core drops its entries unpriced
    assert mmu.tlb_shootdown((0, 1, 2), 0, [1, 2], 0) == 3 * 115
    # each vpn's price is rounded before the vpns are summed: 62.5 -> 63
    halves = Mmu(make_topo(2, 2, remote_factor=1.25))
    assert halves.tlb_shootdown((0, 1, 2), 0, [2]) == 3 * 63


def test_shootdown_drops_tlb_and_covering_pwc_entries():
    topo = make_topo(2, 1)
    space = mapped_space(topo, [5, 6])
    mmu = Mmu(topo)
    walk(mmu, space, 5, 0)
    mmu.tlb_shootdown((5,), 0, [0])
    assert mmu.tlb_lookup(0, 5) is None
    # covering prefixes went too: the next walk is cold again
    assert accesses(mmu, space, 6, 0) == 4


def test_flush_core_clears_all_translation_state():
    topo = make_topo(2, 1)
    space = mapped_space(topo, [5, 6])
    mmu = Mmu(topo)
    walk(mmu, space, 5, 0)
    mmu.flush_core(0)
    assert mmu.tlb_lookup(0, 5) is None
    assert accesses(mmu, space, 6, 0) == 4


def test_pwc_capacity_is_per_level():
    topo = make_topo(1, 1)
    space = mapped_space(topo, [0, 512, 1])
    mmu = Mmu(topo, pwc_entries=(4, 4, 1))
    walk(mmu, space, 0, 0)
    walk(mmu, space, 512, 0)  # different PMD prefix evicts the first
    assert accesses(mmu, space, 1, 0) == 2


def test_tlb_entry_reflects_later_mapping_updates():
    topo = make_topo(2, 1)
    space = mapped_space(topo, [0])
    mmu = Mmu(topo)
    walk(mmu, space, 0, 0)
    set_frame_node(space, 0, new_node=1, requesting_node=0)
    assert mmu.tlb_lookup(0, 0).pfn_node == 1


def test_walks_order_tlb_and_pwc_entries_as_lru_put_does():
    # arity 8 and caches of two or three entries, so walks hit, miss and
    # evict at every level; the model refreshes a hit and inserts a miss
    # (only when the walk found a mapping) with _ReferenceLru.put
    topo = make_topo(1, 1, arity=8, tlb_entries=3)
    mapped = [0, 1, 9, 70, 75, 600, 1100, 1101, 2100, 3000, 4000]
    space = mapped_space(topo, mapped)
    # unmapped: 2 and 3001 in existing PTE tables; 2944's PTE table is
    # missing, below 3000's PGD and PUD tables; 3500's PUD table is missing
    pool = mapped + [2, 3001, 2944, 3500]
    sizes = (2, 2, 3)  # PGD, PUD, PMD
    mmu = Mmu(topo, pwc_entries=sizes)
    tlb = _ReferenceLru(3)
    pwc = [_ReferenceLru(size) for size in sizes]
    hits, misses, tlb_rewalks = [0] * 3, [0] * 3, 0
    rng = random.Random(5)
    for step in range(300):
        if step == 150:  # the SMT sibling wakes: every limit halves
            mmu.set_partition(0, True)
            for cache in (tlb, *pwc):
                cache.set_partition(True)
        vpn = rng.choice(pool)
        tlb_rewalks += vpn in tlb.entries
        _, _, _, walked, _ = walk(mmu, space, vpn, 0)
        mapping = space.lookup(vpn)
        assert walked is mapping
        depth = 1 if vpn == 3500 else 3  # the PWC levels the walk reached
        for level in range(depth):
            prefix = vpn // 8 ** (3 - level)
            if prefix in pwc[level].entries:
                hits[level] += 1
                pwc[level].put(prefix, True)
            else:
                misses[level] += 1
                if mapping is not None:
                    pwc[level].put(prefix, True)
        if mapping is not None:
            tlb.put(vpn, mapping)
        assert list(mmu.tlbs[0].items()) == list(tlb.entries.items())
        for cache, model in zip(mmu.pwcs[0], pwc):
            assert list(cache.items()) == list(model.entries.items())
    assert min(hits) > 0 and min(misses) > 0 and tlb_rewalks > 0


class _ReferenceLru:
    """The LRU semantics spelled out on an OrderedDict, oldest entry first."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.partition_active = False
        self.entries = OrderedDict()

    def _shrink(self):
        cap = max(1, self.capacity // 2) if self.partition_active else self.capacity
        while len(self.entries) > cap:
            self.entries.popitem(last=False)

    def set_partition(self, active):
        self.partition_active = active
        self._shrink()

    def get(self, key):
        value = self.entries.get(key)
        if value is not None:
            self.entries.move_to_end(key)
        return value

    def put(self, key, value):
        if key in self.entries:
            self.entries.move_to_end(key)
        self.entries[key] = value
        self._shrink()

    def drop(self, key):
        self.entries.pop(key, None)

    def clear(self):
        self.entries.clear()


_KEYS = st.integers(0, 11)
_OPS = st.lists(st.one_of(
    st.tuples(st.just("get"), _KEYS),
    st.tuples(st.just("put"), _KEYS),
    st.tuples(st.just("drop"), _KEYS),
    st.tuples(st.just("clear")),
    st.tuples(st.just("set_partition"), st.booleans())), max_size=80)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.integers(1, 9), _OPS)
def test_lru_cache_matches_the_ordered_dict_model(capacity, ops):
    # the TLB through the MMU's own calls: a lookup is get, a walk's fill is
    # put, a one-vpn shootdown is drop and a context switch is clear
    topo = make_topo(1, 1, tlb_entries=capacity)
    space = mapped_space(topo, range(12))
    mmu, model = Mmu(topo), _ReferenceLru(capacity)
    cache = mmu.tlbs[0]
    for name, *args in ops:
        if name == "get":
            assert mmu.tlb_lookup(0, *args) == model.get(*args)
        elif name == "put":
            _, _, _, walked, _ = walk(mmu, space, *args, 0)
            assert walked is space.lookup(*args)
            model.put(*args, walked)
        elif name == "drop":
            mmu.tlb_shootdown(args, 0, [0])
            model.drop(*args)
        elif name == "clear":
            assert mmu.flush_core(0) == model.clear()
        else:
            assert mmu.set_partition(0, *args) == model.set_partition(*args)
        assert list(cache.items()) == list(model.entries.items())
        assert len(cache) == len(model.entries)


def _cache_states(mmu):
    """Every core's TLB and PWC contents, in recency order."""
    return {core: [list(cache.items())
                   for cache in (mmu.tlbs[core], *mmu.pwcs[core])]
            for core in range(len(mmu.tlbs))}


@st.composite
def _scans(draw):
    """A replicated space of arity 8, walks that fill small TLBs and PWCs,
    and a scan sample larger than a TLB with its initiator and targets."""
    replicas = draw(st.integers(1, 4))
    mapped = sorted(draw(st.sets(st.integers(0, 300), min_size=7, max_size=60)))
    # half the walks hit mapped pages, the rest mostly fault
    walks = draw(st.lists(st.tuples(st.integers(0, 3),
                                    st.sampled_from(mapped) | st.integers(0, 300)),
                          min_size=10, max_size=120))
    sizes = draw(st.tuples(*[st.integers(1, 6)] * 4))
    sample = draw(st.lists(st.sampled_from(mapped), min_size=sizes[0] + 1,
                           unique=True))
    targets = draw(st.lists(st.integers(0, 3), min_size=1, max_size=6))
    initiator = draw(st.tuples(st.integers(0, 3),
                               st.none() | st.integers(0, 3)))
    return replicas, mapped, walks, sample, targets, sizes, initiator


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_scans())
def test_batched_invalidation_matches_per_vpn_shootdowns(scan):
    replicas, mapped, walks, sample, targets, sizes, initiator = scan
    tlb, *pwc = sizes
    topo = make_topo(4, 1, arity=8, tlb_entries=tlb)
    space = AddressSpace(topo, 0, alloc_policy=FIRST_TOUCH)
    for vpn in mapped:
        map_page(space, vpn, vpn, 0, requesting_node=vpn % 4)
    for node in range(1, replicas):
        add_replica(space, node)
    batched, single = (Mmu(topo, pwc_entries=pwc) for _ in range(2))
    for mmu in (batched, single):
        for core, vpn in walks:  # faults included
            walk(mmu, space, vpn, core)
    assert _cache_states(batched) == _cache_states(single)

    # one scan-sized request takes the batched pass, each single vpn the pops
    node, core = initiator
    cycles = batched.tlb_shootdown(sample, node, targets, core)
    assert cycles == sum(single.tlb_shootdown((vpn,), node, targets, core)
                         for vpn in sample)
    assert _cache_states(batched) == _cache_states(single)
