"""TLB, page-walk cache, walk pricing, and shootdown behavior."""

from numasim.mmu import Mmu
from numasim.pagetable import (
    AddressSpace,
    Level,
    add_replica,
    map_page,
    set_frame_node,
)

from conftest import make_topo


def mapped_space(topo, vpns, home=0):
    space = AddressSpace(topo, 1, home)
    for i, vpn in enumerate(vpns):
        map_page(space, vpn, 100 + i, home, requesting_core=home)
    return space


def test_cold_local_walk_costs_four_local_accesses():
    topo = make_topo(2, 1)
    space = mapped_space(topo, [5])
    walk = Mmu(topo).page_walk(space, 5, core_id=0)
    assert walk.cycles == 400
    assert walk.mem_accesses == 4
    assert walk.remote_accesses == 0
    assert walk.mapping.pfn == 100
    assert walk.touched_nodes == (0, 0, 0, 0)


def test_cold_remote_walk_pays_the_link_factor_per_level():
    topo = make_topo(2, 1)
    space = mapped_space(topo, [5])
    walk = Mmu(topo).page_walk(space, 5, core_id=1)
    assert walk.cycles == 520
    assert walk.mem_accesses == 4
    assert walk.remote_accesses == 4


def test_local_replica_turns_remote_walks_local():
    topo = make_topo(2, 1)
    space = mapped_space(topo, [5])
    add_replica(space, 1)
    walk = Mmu(topo).page_walk(space, 5, core_id=1)
    assert walk.cycles == 400
    assert walk.remote_accesses == 0


def test_pwc_serves_upper_levels_on_nearby_walks():
    topo = make_topo(2, 1)
    space = mapped_space(topo, [5, 6, 5 + 512])
    mmu = Mmu(topo)
    assert mmu.page_walk(space, 5, 0).mem_accesses == 4
    # same PMD region: only the PTE level reads memory
    walk = mmu.page_walk(space, 6, 0)
    assert walk.mem_accesses == 1
    assert walk.cycles == 100
    # sibling PMD region: PGD and PUD prefixes still apply
    assert mmu.page_walk(space, 5 + 512, 0).mem_accesses == 2


def test_walk_fills_the_tlb():
    topo = make_topo(2, 1)
    space = mapped_space(topo, [5])
    mmu = Mmu(topo)
    assert mmu.tlb_lookup(0, 5) is None
    mmu.page_walk(space, 5, 0)
    hit = mmu.tlb_lookup(0, 5)
    assert hit is not None and hit.pfn == 100


def test_tlb_evicts_least_recently_used():
    topo = make_topo(1, 1)
    space = mapped_space(topo, range(5))
    mmu = Mmu(topo, tlb_entries=4)
    for vpn in range(4):
        mmu.page_walk(space, vpn, 0)
    mmu.tlb_lookup(0, 0)  # refresh 0; vpn 1 becomes the eviction victim
    mmu.page_walk(space, 4, 0)
    assert mmu.tlb_lookup(0, 1) is None
    assert mmu.tlb_lookup(0, 0) is not None
    assert mmu.tlb_lookup(0, 4) is not None


def test_partition_halves_capacity_and_sheds_entries_eagerly():
    topo = make_topo(1, 2, smt=True)
    space = mapped_space(topo, range(8))
    mmu = Mmu(topo, tlb_entries=8)
    for vpn in range(8):
        mmu.page_walk(space, vpn, 0)
    mmu.set_partition(0, True)
    assert mmu.tlbs[0].partition_active
    assert len(mmu.tlbs[0]) == 4
    assert mmu.tlb_lookup(0, 3) is None   # older half evicted
    assert mmu.tlb_lookup(0, 7) is not None
    mmu.set_partition(0, False)
    assert not mmu.tlbs[0].partition_active
    assert mmu.tlbs[0].capacity == 8


def test_fault_charges_the_walk_but_caches_nothing():
    topo = make_topo(2, 1)
    space = mapped_space(topo, [0])
    mmu = Mmu(topo)
    walk = mmu.page_walk(space, 1, 0)  # PTE table exists, entry absent
    assert walk.mapping is None
    assert walk.cycles == 400
    assert mmu.tlb_lookup(0, 1) is None
    # the fault primed no PWC levels, so a fresh walk pays in full
    assert mmu.page_walk(space, 0, 0).mem_accesses == 4


def test_fault_on_missing_subtree_stops_early():
    topo = make_topo(2, 1)
    space = mapped_space(topo, [0])
    walk = Mmu(topo).page_walk(space, 512 ** 2, 0)
    assert walk.mapping is None
    assert walk.mem_accesses == 2  # PGD and PUD reads reach the hole
    assert walk.cycles == 200


def test_shootdown_costs_scale_with_distance():
    topo = make_topo(2, 2)
    mmu = Mmu(topo)
    assert mmu.tlb_shootdown(0, 0, [0, 1]) == 100           # two local IPIs
    assert mmu.tlb_shootdown(0, 0, [2]) == 65               # remote pays 1.3x
    assert mmu.tlb_shootdown(0, 0, [1, 2]) == 115
    assert Mmu(topo, ipi_cycles=10).tlb_shootdown(0, 0, [0, 1]) == 20


def test_shootdown_drops_tlb_and_covering_pwc_entries():
    topo = make_topo(2, 1)
    space = mapped_space(topo, [5, 6])
    mmu = Mmu(topo)
    mmu.page_walk(space, 5, 0)
    mmu.tlb_shootdown(5, 0, [0], space)
    assert mmu.tlb_lookup(0, 5) is None
    # covering prefixes went too: the next walk is cold again
    assert mmu.page_walk(space, 6, 0).mem_accesses == 4


def test_shootdown_without_space_spares_the_pwc():
    topo = make_topo(2, 1)
    space = mapped_space(topo, [5, 6])
    mmu = Mmu(topo)
    mmu.page_walk(space, 5, 0)
    mmu.tlb_shootdown(5, 0, [0])
    assert mmu.tlb_lookup(0, 5) is None
    assert mmu.page_walk(space, 6, 0).mem_accesses == 1


def test_flush_core_clears_all_translation_state():
    topo = make_topo(2, 1)
    space = mapped_space(topo, [5, 6])
    mmu = Mmu(topo)
    mmu.page_walk(space, 5, 0)
    mmu.flush_core(0)
    assert mmu.tlb_lookup(0, 5) is None
    assert mmu.page_walk(space, 6, 0).mem_accesses == 4


def test_pwc_capacity_is_per_level():
    topo = make_topo(1, 1)
    space = mapped_space(topo, [0, 512, 1])
    mmu = Mmu(topo, pwc_entries={Level.PGD: 4, Level.PUD: 4, Level.PMD: 1})
    mmu.page_walk(space, 0, 0)
    mmu.page_walk(space, 512, 0)  # different PMD prefix evicts the first
    assert mmu.page_walk(space, 1, 0).mem_accesses == 2


def test_tlb_entry_reflects_later_mapping_updates():
    topo = make_topo(2, 1)
    space = mapped_space(topo, [0])
    mmu = Mmu(topo)
    mmu.page_walk(space, 0, 0)
    set_frame_node(space, 0, new_node=1, requesting_node=0)
    assert mmu.tlb_lookup(0, 0).pfn_node == 1
