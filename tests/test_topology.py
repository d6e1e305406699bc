"""Machine model: construction, validation, and latency arithmetic."""

import pytest

from numasim.topology import (
    ConfigError,
    access_latency,
    build_topology,
)

from conftest import contend, make_topo


def test_default_two_node_shape():
    topo = make_topo(2, 4)
    assert topo.node_ids == [0, 1]
    assert len(topo.cores) == 8
    assert [c.core_id for c in topo.cores if c.node_id == 1] == [4, 5, 6, 7]
    assert topo.cores[5].node_id == 1
    # ordered pairs including self links
    assert len(topo.links) == 4
    assert topo.links[(0, 0)].latency_factor == 1.0
    assert topo.links[(0, 1)].latency_factor == pytest.approx(1.3)


def test_single_node_machine():
    topo = make_topo(1, 2)
    assert topo.node_ids == [0]
    assert len(topo.links) == 1
    assert access_latency(topo, 0, 0) == 100


def test_without_smt_each_core_has_own_pipeline():
    topo = make_topo(1, 4, smt=False)
    phys = {c.physical_core_id for c in topo.cores}
    assert len(phys) == 4
    assert topo.siblings(0) == []


def test_smt_pairs_adjacent_cores():
    topo = make_topo(2, 4, smt=True)
    assert topo.cores[0].physical_core_id == topo.cores[1].physical_core_id
    assert topo.cores[2].physical_core_id == topo.cores[3].physical_core_id
    assert topo.cores[1].physical_core_id != topo.cores[2].physical_core_id
    assert topo.siblings(0) == [1]
    assert topo.siblings(1) == [0]
    # pairs never straddle nodes
    assert topo.cores[4].physical_core_id == topo.cores[5].physical_core_id
    assert topo.cores[4].node_id == 1


def test_smt_requires_even_core_count():
    with pytest.raises(ConfigError):
        make_topo(1, 3, smt=True)


def test_local_access_is_base_latency():
    topo = make_topo()
    assert access_latency(topo, 0, 0) == 100
    assert access_latency(topo, 1, 1) == 100


def test_remote_access_scales_by_link_factor():
    topo = make_topo()
    assert access_latency(topo, 0, 1) == 130
    assert access_latency(topo, 1, 0) == 130


def test_contended_remote_access():
    # 100 * 1.3 * 3.25 = 422.5, rounded half up
    topo = make_topo()
    contend(topo, node=3.25)
    assert access_latency(topo, 0, 1) == 423


def test_rounding_is_half_up():
    # 1.125 and 1.0625 are exact binary fractions: 112.5 -> 113, 106.25 -> 106
    topo = make_topo(2, 1, remote_factor=1.125)
    assert access_latency(topo, 0, 1) == 113
    topo = make_topo(2, 1, remote_factor=1.0625)
    assert access_latency(topo, 0, 1) == 106


def test_link_contention_applies_only_off_node():
    topo = make_topo()
    contend(topo, link=2.0)
    assert access_latency(topo, 0, 0) == 100
    assert access_latency(topo, 0, 1) == 260


def test_custom_latency_and_factor():
    topo = make_topo(2, 2, local_latency=80, remote_factor=2.0)
    assert access_latency(topo, 0, 0) == 80
    assert access_latency(topo, 0, 1) == 160


def test_explicit_link_matrix():
    factors = [
        [1.0, 1.3, 1.3, 1.5],
        [1.3, 1.0, 1.5, 1.3],
        [1.3, 1.5, 1.0, 1.3],
        [1.5, 1.3, 1.3, 1.0],
    ]
    topo = make_topo(4, 1, link_factors=factors)
    for a in range(4):
        for b in range(4):
            expected = int(100 * factors[a][b] + 0.5)
            assert access_latency(topo, a, b) == expected


def test_self_link_always_unit_factor():
    factors = [[7.0, 1.3], [1.3, 7.0]]  # diagonal is ignored
    topo = make_topo(2, 1, link_factors=factors)
    assert topo.links[(0, 0)].latency_factor == 1.0
    assert topo.links[(1, 1)].latency_factor == 1.0


def test_validation_rejects_bad_shapes():
    with pytest.raises(ConfigError):
        build_topology({"nodes": 0, "cores_per_node": 2})
    with pytest.raises(ConfigError):
        build_topology({"nodes": 1, "cores_per_node": 0})
    with pytest.raises(ConfigError):
        make_topo(2, 2, remote_factor=0.5)
    with pytest.raises(ConfigError):
        make_topo(2, 2, remote_factor=11.0)
    with pytest.raises(ConfigError):
        make_topo(2, 2, local_latency=0)


def test_validation_rejects_bad_link_matrix():
    with pytest.raises(ConfigError):
        make_topo(2, 1, link_factors=[[1.0, 1.3]])  # missing row
    with pytest.raises(ConfigError):
        make_topo(2, 1, link_factors=[[1.0], [1.3, 1.0]])  # ragged
    with pytest.raises(ConfigError):
        make_topo(2, 1, link_factors=[[1.0, 0.2], [0.2, 1.0]])  # below 1.0


def test_missing_link_rejected():
    # build_topology links every pair of nodes, so only a fault inside the
    # run can ask for a missing one; it must not pass for bad input (exit 1)
    with pytest.raises(KeyError):
        access_latency(make_topo(2, 1), 0, 5)


def test_bandwidth_defaults():
    topo = make_topo()
    assert topo.nodes[0].bandwidth_capacity == 128.0
    assert topo.links[(0, 1)].bandwidth_capacity == 128.0


def test_tlb_entries_and_arity_come_with_the_topology():
    topo = make_topo()
    assert (topo.tlb_entries, topo.arity) == (64, 512)
    topo = make_topo(tlb_entries=8, arity=16)
    assert (topo.tlb_entries, topo.arity) == (8, 16)
    with pytest.raises(ConfigError, match="^tlb_entries: must be at least 1"):
        make_topo(tlb_entries=0)
    with pytest.raises(ConfigError, match="^arity: must be at least 4"):
        make_topo(arity=2)
