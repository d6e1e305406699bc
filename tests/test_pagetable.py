"""Replicated page tables: structure, op costs, locking, replica lifecycle."""

import random

import pytest

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
    ReplicaExistsError,
    AddressSpace,
    add_replica,
    clear_access_hint,
    drop_replica,
    map_page,
    migrate_tables,
    protect_range,
    set_access_hint,
    set_frame_node,
    translate,
    unmap_page,
)

from conftest import StubContention, make_topo


def space_on(topo, home=0, policy=HOME_NODE, arity=512):
    return AddressSpace(topo, process_id=1, home_node=home,
                        alloc_policy=policy, arity=arity)


def table_pages(space):
    return sum(1 for _ in space.iter_tables())


def test_fresh_space_has_one_replica_pgd_only():
    space = space_on(make_topo(2, 1))
    assert space.replica_count == 1
    assert table_pages(space) == 1
    assert space.lookup(0) is None


def test_first_map_allocates_full_path():
    space = space_on(make_topo(2, 1))
    cost = map_page(space, 0, pfn=7, pfn_node=0, requesting_core=0)
    # PUD, PMD, PTE allocations plus the entry itself, all local
    assert cost.writes_performed == 4
    assert cost.cycles == 400
    assert table_pages(space) == 4
    m = space.lookup(0)
    assert (m.pfn, m.prot, m.pfn_node) == (7, PROT_RW, 0)


def test_map_into_existing_tables_is_one_write_per_replica():
    space = space_on(make_topo(2, 1))
    map_page(space, 0, 1, 0, requesting_core=0)
    space.begin_quantum()
    cost = map_page(space, 1, 2, 0, requesting_core=0)
    assert cost.writes_performed == 1
    assert cost.cycles == 100
    assert cost.lock_wait_cycles == 0


def test_map_cost_on_four_replicas():
    # entry write lands in each replica, priced from the requester's node
    topo = make_topo(4, 1)
    space = space_on(topo)
    for node in (1, 2, 3):
        add_replica(space, node)
    map_page(space, 0, 1, 0, requesting_core=0)
    space.begin_quantum()
    cost = map_page(space, 1, 2, 0, requesting_core=0)
    assert cost.writes_performed == 4
    assert cost.cycles == 100 + 3 * 130  # 490


def test_map_contention_scales_cost():
    space = space_on(make_topo(2, 1))
    map_page(space, 0, 1, 0, requesting_core=0)
    space.begin_quantum()
    cost = map_page(space, 1, 2, 0, requesting_core=0,
                    contention=StubContention(node=3.25))
    assert cost.cycles == 325


def test_map_duplicate_rejected():
    space = space_on(make_topo(2, 1))
    map_page(space, 3, 1, 0, requesting_core=0)
    with pytest.raises(MappingExistsError):
        map_page(space, 3, 9, 0, requesting_core=0)


def test_unmap_clears_and_shoots_down():
    space = space_on(make_topo(2, 1))
    map_page(space, 5, 1, 0, requesting_core=0)
    space.begin_quantum()
    cost = unmap_page(space, 5, requesting_core=0, shootdown=lambda vpn: 77)
    assert cost.writes_performed == 1
    assert cost.cycles == 100
    assert cost.shootdowns_issued == 1
    assert cost.shootdown_cycles == 77
    assert cost.total_cycles == 177
    assert space.lookup(5) is None
    assert space.mappings_count == 0


def test_unmap_unmapped_rejected():
    space = space_on(make_topo(2, 1))
    with pytest.raises(NotMappedError):
        unmap_page(space, 5, requesting_core=0)


def test_protect_thousand_pages_on_two_replicas():
    space = space_on(make_topo(2, 1))
    for vpn in range(1000):
        map_page(space, vpn, vpn, 0, requesting_core=0)
    add_replica(space, 1)
    space.begin_quantum()
    cost = protect_range(space, 0, 1000, PROT_READ, requesting_core=0,
                         shootdown=lambda vpn: 3)
    assert cost.writes_performed == 2000
    assert cost.shootdowns_issued == 1000
    assert cost.shootdown_cycles == 3000
    assert space.lookup(0).prot == PROT_READ
    assert space.lookup(999).prot == PROT_READ


def test_protect_hole_fails_without_partial_update():
    space = space_on(make_topo(2, 1))
    for vpn in (0, 1, 3):
        map_page(space, vpn, vpn, 0, requesting_core=0)
    with pytest.raises(NotMappedError):
        protect_range(space, 0, 4, PROT_READ, requesting_core=0)
    assert space.lookup(0).prot == PROT_RW
    assert space.lookup(1).prot == PROT_RW


def test_add_replica_on_empty_space_copies_just_the_pgd():
    space = space_on(make_topo(2, 1))
    cost = add_replica(space, 1)
    assert cost.pages_copied == 1
    assert cost.writes_performed == 1
    # read at source (remote from target) plus write at target
    assert cost.cycles == 130 + 100
    assert cost.pgd_pages_exempt == 1
    assert cost.pgd_exempt_cycles == 230
    assert space.replica_count == 2


def test_add_replica_copies_every_table_and_links_rings():
    space = space_on(make_topo(2, 1))
    map_page(space, 0, 10, 0, requesting_core=0)
    map_page(space, 512, 11, 0, requesting_core=0)  # second PTE table
    pages = table_pages(space)
    assert pages == 5
    cost = add_replica(space, 1)
    assert cost.pages_copied == pages
    for table in space.iter_tables():
        assert len(list(table.chain())) == 2
    m, touches = translate(space, 0, walker_node=1)
    assert m.pfn == 10
    assert all(node == 1 for _, node in touches)
    with pytest.raises(ReplicaExistsError):
        add_replica(space, 1)


def test_replica_updates_stay_coherent():
    space = space_on(make_topo(2, 1))
    map_page(space, 0, 10, 0, requesting_core=0)
    add_replica(space, 1)
    set_frame_node(space, 0, new_node=1, requesting_node=0)
    for walker in (0, 1):
        m, _ = translate(space, 0, walker_node=walker)
        assert m.pfn_node == 1
    space.begin_quantum()
    map_page(space, 1, 20, 0, requesting_core=0)
    for walker in (0, 1):
        m, _ = translate(space, 1, walker_node=walker)
        assert m.pfn == 20


def test_drop_replica_unlinks_and_frees():
    space = space_on(make_topo(2, 1))
    map_page(space, 0, 10, 0, requesting_core=0)
    add_replica(space, 1)
    cost = drop_replica(space, 1)
    assert cost.writes_performed == 4
    assert cost.cycles == 400  # one local write per freed table page
    assert space.replica_count == 1
    for table in space.iter_tables():
        assert len(list(table.chain())) == 1
    m, _ = translate(space, 0, walker_node=1)  # falls back to home replica
    assert m.pfn == 10


def test_drop_home_replica_reassigns_home():
    space = space_on(make_topo(4, 1))
    map_page(space, 0, 10, 0, requesting_core=0)
    add_replica(space, 2)
    add_replica(space, 3)
    drop_replica(space, 0)
    assert space.home_node == 2
    assert sorted(space.replica_roots) == [2, 3]
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
    map_page(space, 0, 10, 0, requesting_core=0)
    map_page(space, 1, 11, 0, requesting_core=0)
    pages = table_pages(space)
    cost = migrate_tables(space, 0, 1)
    assert cost.pages_copied == pages - 1
    assert cost.pgd_pages_exempt == 1
    assert space.home_node == 1
    assert list(space.replica_roots) == [1]
    m, touches = translate(space, 0, walker_node=1)
    assert m.pfn == 10
    assert all(node == 1 for _, node in touches)
    for table in space.iter_tables():
        assert len(list(table.chain())) == 1


def test_migrate_with_other_replicas_pays_full_copy():
    space = space_on(make_topo(4, 1))
    map_page(space, 0, 10, 0, requesting_core=0)
    add_replica(space, 1)
    pages = table_pages(space)
    cost = migrate_tables(space, 1, 2)
    assert cost.pages_copied == pages
    assert cost.pgd_pages_exempt == 0
    assert cost.pgd_exempt_cycles == 0
    assert sorted(space.replica_roots) == [0, 2]


def test_home_node_alloc_keeps_walks_replica_local():
    topo = make_topo(4, 1)
    space = space_on(topo)
    add_replica(space, 3)
    space.begin_quantum()
    map_page(space, 0, 10, 0, requesting_core=0)
    for walker in (0, 3):
        _, touches = translate(space, 0, walker_node=walker)
        assert [node for _, node in touches] == [walker] * 4


def test_first_touch_alloc_follows_the_requester():
    topo = make_topo(4, 1)
    space = space_on(topo, policy=FIRST_TOUCH)
    map_page(space, 0, 10, 2, requesting_core=2)  # core 2 sits on node 2
    _, touches = translate(space, 0, walker_node=0)
    assert [node for _, node in touches] == [0, 2, 2, 2]


def test_interleave_alloc_round_robins_tables():
    topo = make_topo(4, 1)
    space = space_on(topo, policy=INTERLEAVE)
    map_page(space, 0, 10, 0, requesting_core=0)
    _, touches = translate(space, 0, walker_node=0)
    assert [node for _, node in touches] == [0, 1, 2, 3]


def test_translate_reports_partial_touches_on_fault():
    space = space_on(make_topo(2, 1))
    map_page(space, 0, 10, 0, requesting_core=0)
    m, touches = translate(space, 1, walker_node=0)  # PTE exists, entry absent
    assert m is None
    assert [lvl for lvl, _ in touches] == [Level.PGD, Level.PUD, Level.PMD,
                                           Level.PTE]
    # missing PUD subtree stops the walk after two touches
    m, touches = translate(space, 512 ** 2, walker_node=0)
    assert m is None
    assert [lvl for lvl, _ in touches] == [Level.PGD, Level.PUD]


def test_lock_wait_applies_only_on_table_overlap():
    space = space_on(make_topo(2, 1))
    map_page(space, 0, 1, 0, requesting_core=0)
    map_page(space, 512, 2, 0, requesting_core=0)
    space.begin_quantum()
    first = map_page(space, 1, 3, 0, requesting_core=0)
    disjoint = map_page(space, 513, 4, 0, requesting_core=0)
    assert first.lock_wait_cycles == 0
    assert disjoint.lock_wait_cycles == 0
    space.begin_quantum()
    map_page(space, 2, 5, 0, requesting_core=0)
    overlapping = map_page(space, 3, 6, 0, requesting_core=0)
    assert overlapping.lock_wait_cycles == 100
    assert overlapping.cycles == 200


def test_lock_wait_charges_predecessors_own_work_only():
    space = space_on(make_topo(2, 1))
    for vpn in (0, 1, 2):
        map_page(space, vpn, vpn, 0, requesting_core=0)
    space.begin_quantum()
    map_page(space, 3, 3, 0, requesting_core=0)
    second = map_page(space, 4, 4, 0, requesting_core=0)
    third = map_page(space, 5, 5, 0, requesting_core=0)
    assert second.lock_wait_cycles == 100
    assert second.cycles == 200
    # waits do not compound: the third op waits 100, not 200
    assert third.lock_wait_cycles == 100


def test_global_lock_serializes_disjoint_ops():
    space = space_on(make_topo(2, 1))
    map_page(space, 0, 1, 0, requesting_core=0)
    map_page(space, 512, 2, 0, requesting_core=0)
    space.lock_mode = "global"
    space.begin_quantum()
    map_page(space, 1, 3, 0, requesting_core=0)
    disjoint = map_page(space, 513, 4, 0, requesting_core=0)
    assert disjoint.lock_wait_cycles == 100


def test_begin_quantum_resets_the_queue():
    space = space_on(make_topo(2, 1))
    map_page(space, 0, 1, 0, requesting_core=0)
    space.begin_quantum()
    cost = map_page(space, 1, 2, 0, requesting_core=0)
    assert cost.lock_wait_cycles == 0


def test_access_hints_round_trip():
    space = space_on(make_topo(2, 1))
    map_page(space, 0, 10, 0, requesting_core=0)
    add_replica(space, 1)
    space.begin_quantum()
    cost = set_access_hint(space, 0, requesting_node=0, shootdown=lambda v: 50)
    assert cost.writes_performed == 2
    assert cost.shootdowns_issued == 1
    assert cost.shootdown_cycles == 50
    for walker in (0, 1):
        m, _ = translate(space, 0, walker_node=walker)
        assert m.numa_hint
    cost = clear_access_hint(space, 0, requesting_node=0)
    assert cost.shootdowns_issued == 0
    assert not space.lookup(0).numa_hint


def test_replica_root_fallback():
    space = space_on(make_topo(2, 1))
    assert space.root_for(1) is space.replica_roots[0]
    add_replica(space, 1)
    assert space.root_for(1) is space.replica_roots[1]


def test_construction_validation():
    topo = make_topo(2, 1)
    with pytest.raises(ValueError):
        AddressSpace(topo, 1, 0, alloc_policy="random")
    with pytest.raises(ValueError):
        AddressSpace(topo, 1, 0, arity=2)
    space = space_on(topo, arity=8)
    with pytest.raises(ValueError):
        space.lookup(8 ** 4)  # beyond the four-level space


def test_random_op_soup_keeps_rings_and_contents_coherent():
    topo = make_topo(4, 1)
    space = space_on(topo, arity=8)
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
                         requesting_core=rng.randrange(4))
                shadow[vpn] = free_pfn
                free_pfn += 1
        elif roll < 0.65 and shadow:
            vpn = rng.choice(list(shadow))
            unmap_page(space, vpn, requesting_core=rng.randrange(4))
            del shadow[vpn]
        elif roll < 0.80 and space.replica_count < 4:
            node = min(set(range(4)) - set(space.replica_roots))
            add_replica(space, node)
        elif roll < 0.90 and space.replica_count > 1:
            node = max(space.replica_roots)
            drop_replica(space, node)
        elif shadow:
            vpn = rng.choice(list(shadow))
            set_frame_node(space, vpn, rng.randrange(4), requesting_node=0)
    assert space.mappings_count == len(shadow)
    replicas = set(space.replica_roots)
    for table in space.iter_tables():
        chain = list(table.chain())
        assert len(chain) == len(replicas)
        assert {t.replica_key for t in chain} == replicas
    for vpn, pfn in shadow.items():
        for walker in range(4):
            m, _ = translate(space, vpn, walker_node=walker)
            assert m is not None and m.pfn == pfn
    for walker in range(4):
        for vpn in rng.sample(range(4096), 200):
            if vpn not in shadow:
                m, _ = translate(space, vpn, walker_node=walker)
                assert m is None
