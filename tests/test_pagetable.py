"""Replicated page tables: structure, op costs, locking, replica lifecycle."""

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from numasim.pagetable import (
    FIRST_TOUCH,
    HOME_NODE,
    INTERLEAVE,
    PROT_READ,
    PROT_RW,
    LastReplicaError,
    Level,
    MappingExistsError,
    NotMappedError,
    PtOpCost,
    ReplicaExistsError,
    AddressSpace,
    add_replica,
    clear_access_hint,
    drop_replica,
    map_page,
    map_pages,
    migrate_tables,
    protect_range,
    set_access_hint,
    set_frame_node,
    translate,
    unmap_page,
)

from conftest import contend, make_topo


def space_on(topo, home=0, policy=HOME_NODE):
    return AddressSpace(topo, home_node=home, alloc_policy=policy)


def summed(costs):
    """The field-wise sum of PtOpCosts."""
    return PtOpCost(*map(sum, zip(*map(dataclasses.astuple, costs))))


def table_pages(space):
    return sum(1 for _ in space.iter_tables())


def assert_every_table_in_every_replica(space):
    for table in space.iter_tables():
        assert sorted(table.resident) == sorted(space.replicas)


def test_fresh_space_has_one_replica_pgd_only():
    space = space_on(make_topo(2, 1))
    assert space.replica_count == 1
    assert table_pages(space) == 1
    assert space.lookup(0) is None


def test_first_map_allocates_full_path():
    space = space_on(make_topo(2, 1))
    cost = map_page(space, 0, pfn=7, pfn_node=0, requesting_node=0)
    # PUD, PMD, PTE allocations plus the entry itself, all local
    assert cost.writes_performed == 4
    assert cost.cycles == 400
    assert table_pages(space) == 4
    m = space.lookup(0)
    assert (m.pfn, m.prot, m.pfn_node) == (7, PROT_RW, 0)


def test_map_into_existing_tables_is_one_write_per_replica():
    space = space_on(make_topo(2, 1))
    map_page(space, 0, 1, 0, requesting_node=0)
    space.begin_quantum()
    cost = map_page(space, 1, 2, 0, requesting_node=0)
    assert cost.writes_performed == 1
    assert cost.cycles == 100
    assert cost.lock_wait_cycles == 0


def test_map_cost_on_four_replicas():
    # entry write lands in each replica, priced from the requester's node
    topo = make_topo(4, 1)
    space = space_on(topo)
    for node in (1, 2, 3):
        add_replica(space, node)
    map_page(space, 0, 1, 0, requesting_node=0)
    space.begin_quantum()
    cost = map_page(space, 1, 2, 0, requesting_node=0)
    assert cost.writes_performed == 4
    assert cost.cycles == 100 + 3 * 130  # 490


def test_map_contention_scales_cost():
    topo = make_topo(2, 1)
    space = space_on(topo)
    map_page(space, 0, 1, 0, requesting_node=0)
    space.begin_quantum()
    contend(topo, node=3.25)
    cost = map_page(space, 1, 2, 0, requesting_node=0)
    assert cost.cycles == 325


@pytest.mark.parametrize("replicas", [1, 3])
def test_map_pages_matches_one_map_page_per_vpn(replicas):
    topo = make_topo(4, 1, arity=8)
    batched, single = (space_on(topo, policy=INTERLEAVE) for _ in range(2))
    for space in (batched, single):
        for node in range(1, replicas):
            add_replica(space, node)
    contend(topo, 1.5, 1.25)
    vpns = list(range(5, 21))  # three PTE tables, the first entered mid-table
    batched.begin_quantum()
    cost = map_pages(batched, vpns, [100 + v for v in vpns],
                     [v % 4 for v in vpns], requesting_node=2)
    costs = []
    for vpn in vpns:
        single.begin_quantum()
        costs.append(map_page(single, vpn, 100 + vpn, vpn % 4,
                              requesting_node=2))
    assert cost == summed(costs)
    assert leaves(batched) == leaves(single)
    assert batched.mappings_count == single.mappings_count == len(vpns)
    assert [t.resident for t in batched.iter_tables()] == \
        [t.resident for t in single.iter_tables()]
    assert_every_table_in_every_replica(batched)
    with pytest.raises(MappingExistsError):
        map_pages(batched, [30, 12], [1, 2], [0, 0], requesting_node=0)
    assert batched.lookup(30) is None  # checked before anything is written


def test_map_duplicate_rejected():
    space = space_on(make_topo(2, 1))
    map_page(space, 3, 1, 0, requesting_node=0)
    with pytest.raises(MappingExistsError):
        map_page(space, 3, 9, 0, requesting_node=0)


def test_unmap_clears_the_shared_leaf():
    space = space_on(make_topo(2, 1))
    map_page(space, 5, 1, 0, requesting_node=0)
    space.begin_quantum()
    cost = unmap_page(space, 5, requesting_node=0)
    assert cost.writes_performed == 1
    assert cost.cycles == 100
    assert space.lookup(5) is None
    assert space.mappings_count == 0


def test_mutations_are_priced_from_the_requesting_node():
    # two cores per node, so node 1 is not core 1 (which sits on node 0)
    space = space_on(make_topo(2, 2))
    map_page(space, 0, 1, 0, requesting_node=0)
    space.begin_quantum()
    assert map_page(space, 1, 2, 0, requesting_node=1).cycles == 130
    space.begin_quantum()
    assert protect_range(space, 0, 2, PROT_READ, requesting_node=1).cycles \
        == 2 * 130
    space.begin_quantum()
    assert unmap_page(space, 1, requesting_node=1).cycles == 130
    space.begin_quantum()
    assert unmap_page(space, 0, requesting_node=0).cycles == 100


def test_unmap_unmapped_rejected():
    space = space_on(make_topo(2, 1))
    with pytest.raises(NotMappedError):
        unmap_page(space, 5, requesting_node=0)


def test_protect_thousand_pages_on_two_replicas():
    space = space_on(make_topo(2, 1))
    for vpn in range(1000):
        map_page(space, vpn, vpn, 0, requesting_node=0)
    add_replica(space, 1)
    space.begin_quantum()
    cost = protect_range(space, 0, 1000, PROT_READ, requesting_node=0)
    assert cost.writes_performed == 2000
    assert space.lookup(0).prot == PROT_READ
    assert space.lookup(999).prot == PROT_READ


def test_protect_hole_fails_without_partial_update():
    space = space_on(make_topo(2, 1))
    for vpn in (0, 1, 3):
        map_page(space, vpn, vpn, 0, requesting_node=0)
    with pytest.raises(NotMappedError):
        protect_range(space, 0, 4, PROT_READ, requesting_node=0)
    assert space.lookup(0).prot == PROT_RW
    assert space.lookup(1).prot == PROT_RW


def test_add_replica_on_empty_space_copies_just_the_pgd():
    space = space_on(make_topo(2, 1))
    cost = add_replica(space, 1)
    assert cost.pages_copied == 1
    assert cost.writes_performed == 1
    # read at source (remote from target) plus write at target
    assert cost.cycles == 130 + 100
    assert space.replica_count == 2


def test_add_replica_copies_every_table_and_adds_residencies():
    space = space_on(make_topo(2, 1))
    map_page(space, 0, 10, 0, requesting_node=0)
    map_page(space, 512, 11, 0, requesting_node=0)  # second PTE table
    pages = table_pages(space)
    assert pages == 5
    cost = add_replica(space, 1)
    assert cost.pages_copied == pages
    assert space.replicas == [0, 1]
    for table in space.iter_tables():
        assert table.resident == {0: 0, 1: 1}
    m, touches = translate(space, 0, walker_node=1)
    assert m.pfn == 10
    assert touches == [1, 1, 1, 1]
    with pytest.raises(ReplicaExistsError):
        add_replica(space, 1)


def test_replica_updates_stay_coherent():
    space = space_on(make_topo(2, 1))
    map_page(space, 0, 10, 0, requesting_node=0)
    add_replica(space, 1)
    set_frame_node(space, 0, new_node=1, requesting_node=0)
    for walker in (0, 1):
        m, _ = translate(space, 0, walker_node=walker)
        assert m.pfn_node == 1
    space.begin_quantum()
    map_page(space, 1, 20, 0, requesting_node=0)
    for walker in (0, 1):
        m, _ = translate(space, 1, walker_node=walker)
        assert m.pfn == 20


def test_drop_replica_frees_every_copy():
    space = space_on(make_topo(2, 1))
    map_page(space, 0, 10, 0, requesting_node=0)
    add_replica(space, 1)
    cost = drop_replica(space, 1)
    assert cost.writes_performed == 4
    assert cost.cycles == 400  # one local write per freed table page
    assert space.replica_count == 1
    assert space.replicas == [0]
    for table in space.iter_tables():
        assert table.resident == {0: 0}
    m, _ = translate(space, 0, walker_node=1)  # falls back to home replica
    assert m.pfn == 10


def test_drop_home_replica_reassigns_home():
    space = space_on(make_topo(4, 1))
    map_page(space, 0, 10, 0, requesting_node=0)
    add_replica(space, 2)
    add_replica(space, 3)
    drop_replica(space, 0)
    assert space.home_node == 2
    assert sorted(space.replicas) == [2, 3]
    assert_every_table_in_every_replica(space)
    m, _ = translate(space, 0, walker_node=0)
    assert m.pfn == 10


def test_drop_replica_errors():
    space = space_on(make_topo(2, 1))
    with pytest.raises(LastReplicaError):
        drop_replica(space, 0)
    with pytest.raises(NotMappedError):
        drop_replica(space, 1)


def test_migrate_single_replica_exempts_the_pgd():
    space = space_on(make_topo(2, 1))
    map_page(space, 0, 10, 0, requesting_node=0)
    map_page(space, 1, 11, 0, requesting_node=0)
    pages = table_pages(space)
    cost = migrate_tables(space, 0, 1)
    assert cost.pages_copied == pages - 1
    # each non-PGD copy reads node 0 (130) and writes node 1 (100); then
    # every table page is freed on node 0, a local write there (100)
    assert cost.cycles == (pages - 1) * (130 + 100) + pages * 100
    assert cost.writes_performed == 2 * pages
    assert space.home_node == 1
    assert space.replicas == [1]
    m, touches = translate(space, 0, walker_node=1)
    assert m.pfn == 10
    assert touches == [1, 1, 1, 1]
    for table in space.iter_tables():
        assert table.resident == {1: 1}


def test_migrate_with_other_replicas_pays_full_copy():
    space = space_on(make_topo(4, 1))
    map_page(space, 0, 10, 0, requesting_node=0)
    add_replica(space, 1)
    pages = table_pages(space)
    cost = migrate_tables(space, 1, 2)
    assert cost.pages_copied == pages
    assert sorted(space.replicas) == [0, 2]
    assert_every_table_in_every_replica(space)


def test_home_node_alloc_keeps_walks_replica_local():
    topo = make_topo(4, 1)
    space = space_on(topo)
    add_replica(space, 3)
    space.begin_quantum()
    map_page(space, 0, 10, 0, requesting_node=0)
    for walker in (0, 3):
        _, touches = translate(space, 0, walker_node=walker)
        assert touches == [walker] * 4


def test_first_touch_alloc_follows_the_requester():
    topo = make_topo(4, 1)
    space = space_on(topo, policy=FIRST_TOUCH)
    map_page(space, 0, 10, 2, requesting_node=2)
    _, touches = translate(space, 0, walker_node=0)
    assert touches == [0, 2, 2, 2]


def test_interleave_alloc_round_robins_tables():
    topo = make_topo(4, 1)
    space = space_on(topo, policy=INTERLEAVE)
    map_page(space, 0, 10, 0, requesting_node=0)
    _, touches = translate(space, 0, walker_node=0)
    assert touches == [0, 1, 2, 3]


def test_interleave_places_copies_in_ring_order_from_the_updater():
    # a new replica goes right after the home one; a table allocated later
    # gets its copies placed replica by replica from the updater's replica
    # on (from the home replica when the updater's node holds none)
    topo = make_topo(4, 1, arity=8)
    space = space_on(topo, policy=INTERLEAVE)
    map_page(space, 0, 100, 0, requesting_node=0)
    add_replica(space, 2)
    add_replica(space, 3)
    map_page(space, 8, 101, 0, requesting_node=2)     # new PTE table
    map_page(space, 64, 102, 0, requesting_node=2)    # new PMD and PTE
    map_page(space, 512, 103, 0, requesting_node=1)   # new PUD, PMD, PTE
    add_replica(space, 1)
    map_pages(space, [520, 600], [104, 105], [0, 0], requesting_node=3)
    assert space.replicas == [0, 1, 3, 2]
    expected = [
        (Level.PGD, {0: 0, 1: 1, 3: 3, 2: 2}),
        (Level.PUD, {0: 1, 1: 1, 3: 3, 2: 2}),
        (Level.PMD, {0: 2, 1: 1, 3: 3, 2: 2}),
        (Level.PTE, {0: 3, 1: 1, 3: 3, 2: 2}),
        (Level.PTE, {0: 1, 1: 1, 3: 2, 2: 0}),
        (Level.PMD, {0: 0, 1: 1, 3: 1, 2: 3}),
        (Level.PTE, {0: 3, 1: 1, 3: 0, 2: 2}),
        (Level.PUD, {0: 1, 1: 1, 3: 2, 2: 3}),
        (Level.PMD, {0: 0, 1: 1, 3: 1, 2: 2}),
        (Level.PTE, {0: 3, 1: 1, 3: 0, 2: 1}),
        (Level.PTE, {0: 0, 1: 1, 3: 2, 2: 3}),
        (Level.PMD, {0: 0, 1: 1, 3: 2, 2: 3}),
        (Level.PTE, {0: 0, 1: 1, 3: 2, 2: 3}),
    ]
    assert [(t.level, t.resident) for t in space.iter_tables()] == expected
    assert sum(len(t.entries) for t in space.iter_tables()
               if t.level == Level.PTE) == space.mappings_count == 6


def test_translate_reports_partial_touches_on_fault():
    space = space_on(make_topo(2, 1))
    map_page(space, 0, 10, 0, requesting_node=0)
    m, touches = translate(space, 1, walker_node=0)  # PTE exists, entry absent
    assert m is None
    assert touches == [0, 0, 0, 0]  # PGD, PUD, PMD and PTE
    # missing PUD subtree stops the walk after two touches
    m, touches = translate(space, 512 ** 2, walker_node=0)
    assert m is None
    assert touches == [0, 0]  # PGD and PUD


def test_lock_wait_applies_only_on_table_overlap():
    space = space_on(make_topo(2, 1))
    map_page(space, 0, 1, 0, requesting_node=0)
    map_page(space, 512, 2, 0, requesting_node=0)
    space.begin_quantum()
    first = map_page(space, 1, 3, 0, requesting_node=0)
    disjoint = map_page(space, 513, 4, 0, requesting_node=0)
    assert first.lock_wait_cycles == 0
    assert disjoint.lock_wait_cycles == 0
    space.begin_quantum()
    map_page(space, 2, 5, 0, requesting_node=0)
    overlapping = map_page(space, 3, 6, 0, requesting_node=0)
    assert overlapping.lock_wait_cycles == 100
    assert overlapping.cycles == 200


def test_lock_wait_charges_predecessors_own_work_only():
    space = space_on(make_topo(2, 1))
    for vpn in (0, 1, 2):
        map_page(space, vpn, vpn, 0, requesting_node=0)
    space.begin_quantum()
    map_page(space, 3, 3, 0, requesting_node=0)
    second = map_page(space, 4, 4, 0, requesting_node=0)
    third = map_page(space, 5, 5, 0, requesting_node=0)
    assert second.lock_wait_cycles == 100
    assert second.cycles == 200
    # waits do not compound: the third op waits 100, not 200
    assert third.lock_wait_cycles == 100


def test_global_lock_serializes_disjoint_ops():
    space = space_on(make_topo(2, 1))
    map_page(space, 0, 1, 0, requesting_node=0)
    map_page(space, 512, 2, 0, requesting_node=0)
    space.lock_mode = "global"
    space.begin_quantum()
    map_page(space, 1, 3, 0, requesting_node=0)
    disjoint = map_page(space, 513, 4, 0, requesting_node=0)
    assert disjoint.lock_wait_cycles == 100


def test_begin_quantum_resets_the_queue():
    space = space_on(make_topo(2, 1))
    map_page(space, 0, 1, 0, requesting_node=0)
    space.begin_quantum()
    cost = map_page(space, 1, 2, 0, requesting_node=0)
    assert cost.lock_wait_cycles == 0


def test_access_hints_round_trip():
    space = space_on(make_topo(2, 1))
    map_page(space, 0, 10, 0, requesting_node=0)
    add_replica(space, 1)
    space.begin_quantum()
    cost = set_access_hint(space, [0], requesting_node=0)
    assert cost.writes_performed == 2
    for walker in (0, 1):
        m, _ = translate(space, 0, walker_node=walker)
        assert m.numa_hint
    cost = clear_access_hint(space, 0, requesting_node=0)
    assert cost.writes_performed == 2
    assert not space.lookup(0).numa_hint


def test_replica_root_fallback():
    space = space_on(make_topo(2, 1))
    assert space.replica_for(1) == 0
    add_replica(space, 1)
    assert space.replica_for(1) == 1


def test_construction_validation():
    topo = make_topo(2, 1, arity=8)
    with pytest.raises(ValueError):
        AddressSpace(topo, 0, alloc_policy="random")
    space = space_on(topo)
    assert space.arity == 8  # the topology's
    with pytest.raises(ValueError):
        space.lookup(8 ** 4)  # beyond the four-level space


def test_next_free_vpn_matches_a_page_by_page_scan():
    rng = random.Random(404)
    for trial in range(20):
        space = space_on(make_topo(2, 1, arity=8))
        limit = rng.randrange(1, 200)
        full = trial % 4 == 0  # every page mapped: the search must end
        for vpn in rng.sample(range(limit),
                              limit if full else rng.randrange(limit + 1)):
            map_page(space, vpn, vpn, 0, requesting_node=0)
        for start in range(limit):
            expected = next(((start + i) % limit for i in range(limit)
                             if space.lookup((start + i) % limit) is None), None)
            assert space.next_free_vpn(start, limit) == expected


def test_random_op_soup_keeps_residencies_and_contents_coherent():
    topo = make_topo(4, 1, arity=8)
    space = space_on(topo)
    rng = random.Random(1001)
    shadow = {}
    free_pfn = 1000
    for step in range(1500):
        if step % 40 == 0:
            space.begin_quantum()
        roll = rng.random()
        if roll < 0.45:
            vpn = rng.randrange(4096)
            if vpn not in shadow:
                map_page(space, vpn, free_pfn, rng.randrange(4),
                         requesting_node=rng.randrange(4))
                shadow[vpn] = free_pfn
                free_pfn += 1
        elif roll < 0.65 and shadow:
            vpn = rng.choice(list(shadow))
            unmap_page(space, vpn, requesting_node=rng.randrange(4))
            del shadow[vpn]
        elif roll < 0.80 and space.replica_count < 4:
            node = min(set(range(4)) - set(space.replicas))
            add_replica(space, node)
        elif roll < 0.90 and space.replica_count > 1:
            node = max(space.replicas)
            drop_replica(space, node)
        elif shadow:
            vpn = rng.choice(list(shadow))
            set_frame_node(space, vpn, rng.randrange(4), requesting_node=0)
    assert space.mappings_count == len(shadow) == len(leaves(space))
    assert_every_table_in_every_replica(space)
    for vpn, pfn in shadow.items():
        for walker in range(4):
            m, _ = translate(space, vpn, walker_node=walker)
            assert m is not None and m.pfn == pfn
    for walker in range(4):
        for vpn in rng.sample(range(4096), 200):
            if vpn not in shadow:
                m, _ = translate(space, vpn, walker_node=walker)
                assert m is None


def leaves(space):
    """The leaf entries every replica shares, sorted."""
    return sorted(dataclasses.astuple(m)
                  for table in space.iter_tables() if table.level == Level.PTE
                  for m in table.entries.values())


@st.composite
def _batches(draw):
    """A space spec: replicas, mapped vpns over several PTE tables of arity 8,
    a contiguous block among them, and a hint sample and protect range."""
    replicas = draw(st.integers(1, 4))
    block_start = draw(st.integers(0, 150))
    block = range(block_start, block_start + draw(st.integers(1, 40)))
    mapped = sorted(set(block) | draw(st.sets(st.integers(0, 200), max_size=40)))
    sample = draw(st.lists(st.sampled_from(mapped), min_size=1, unique=True))
    lo = draw(st.sampled_from(block))
    hi = draw(st.integers(lo + 1, block.stop))
    multipliers = draw(st.sampled_from([None, (1.0, 1.0), (1.7, 1.25)]))
    return replicas, mapped, sample, range(lo, hi), draw(st.integers(0, 3)), \
        multipliers


def _build(replicas, mapped):
    topo = make_topo(4, 1, arity=8)
    space = space_on(topo, policy=FIRST_TOUCH)
    for vpn in mapped:  # first touch from every node spreads the tables
        map_page(space, vpn, 1000 + vpn, vpn % 4, requesting_node=vpn % 4)
    for node in range(1, replicas):
        add_replica(space, node)
    return topo, space


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_batches())
def test_batched_leaf_writes_match_per_vpn_calls(batch):
    replicas, mapped, sample, protect, node, multipliers = batch
    _, batched = _build(replicas, mapped)
    _, single = _build(replicas, mapped)
    if multipliers is not None:
        for space in (batched, single):
            contend(space.topo, *multipliers)

    batched.begin_quantum()
    hint = set_access_hint(batched, sample, node)
    batched.begin_quantum()
    prot = protect_range(batched, protect.start, len(protect), PROT_READ,
                         requesting_node=node)

    hints, prots = [], []
    for vpn in sample:
        single.begin_quantum()
        hints.append(set_access_hint(single, [vpn], node))
    for vpn in protect:
        single.begin_quantum()
        prots.append(protect_range(single, vpn, 1, PROT_READ,
                                   requesting_node=node))

    assert hint == summed(hints)
    assert prot == summed(prots)
    assert hint.writes_performed == len(sample) * replicas
    assert leaves(batched) == leaves(single)
    assert [t.resident for t in batched.iter_tables()] == \
        [t.resident for t in single.iter_tables()]
    assert_every_table_in_every_replica(batched)
