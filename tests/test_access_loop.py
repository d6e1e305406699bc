"""Digest gate for access-loop paths the packaged scenarios never reach.

The packaged scenarios draw LLC misses only at rates 1.0 and 0.5,
interleave only a hog's data, never run SMT siblings, and map 512 pages per
PTE table, so one PGD and one PUD prefix cover every page.  This grid runs
a TLB-hostile victim beside a bandwidth hog at arity 4 (several prefixes at
every cache level) under linux, mitosis and phoenix, with:

- LLC miss rates 0.0 and 0.3, the latter over interleaved data, so the
  traffic and stall differ between the two nodes;
- no prefault, so fault walks interleave with walks of mapped pages;
- SMT siblings both busy, so the TLB and page-walk caches run at half size,
  with and without prefault;
- VM ops drawn into the same batches as the walks.

A change that moves one byte of any of these reports fails here.
"""

import copy
import hashlib

import pytest

from numasim.cli import scenario_from_dict
from numasim.engine import run_scenario


def loop_raw(kind, victim=None, machine=None, prefault=True):
    """gups_like over 250 pages beside a stream_like hog from quantum 3, on
    2 nodes x 2 cores at arity 4; victim and machine update the defaults."""
    overrides = {"thread_count": 3, "footprint_pages": 250,
                 "accesses_per_quantum_per_thread": 80}
    overrides.update(victim or {})
    return {
        "name": "loop_grid",
        "machine": {"nodes": 2, "cores_per_node": 2, "arity": 4,
                    **(machine or {})},
        "workloads": [
            {"preset": "gups_like", "overrides": overrides},
            {"preset": "stream_like", "start": 3,
             "overrides": {"thread_count": 2}}],
        "policy": {"kind": kind, "window": 2, "scan_period": 5,
                   "rebalance_interval": 3, "migrate_threshold": 2},
        "run": {"duration": 30, "seed": 9, "quantum": 1000,
                "prefault": prefault},
    }


VARIANTS = {
    "llc_0": dict(victim={"llc_miss_rate": 0.0}),
    "llc_0.3_interleave": dict(victim={"llc_miss_rate": 0.3,
                                       "data_policy": "interleave"}),
    "cold": dict(prefault=False),
    # faults beside caches small enough to evict PGD and PUD prefixes
    "cold_smt": dict(prefault=False, machine={"smt": True}),
    "smt": dict(machine={"smt": True}),
    "vm_ops": dict(victim={
        "vm_ops_per_kilo_access": 100, "vm_range_mean_pages": 2,
        "vm_op_mix": {"map": 1, "unmap": 1, "protect": 1, "remap": 1}}),
}

GRID = {f"{kind}-{name}": loop_raw(kind, **variant)
        for kind in ("linux", "mitosis", "phoenix")
        for name, variant in VARIANTS.items()}

# sha256 of MetricsReport.to_json() per grid entry
DIGESTS = {
    "linux-cold":
        "dc9b532c683835983b7eb6739f57ba42517ca8e8d5e3ba2c3ff001054d127107",
    "linux-cold_smt":
        "0d0a7b37ae9226e75f1ec1414b5cdff6258823dc6497b8094a06e4daa420dfab",
    "linux-llc_0":
        "6ab658e5ea0528414ec24d07d9b0270f58569271c0d190bdded6e6f9af4b494c",
    "linux-llc_0.3_interleave":
        "7020dd731f6ad4194296a52a64016f1523c53299ce7184f9a7fbcbeda0058198",
    "linux-smt":
        "56837ece3ecf142f192f6e8bb7d3e9b59d3dbb70393a9f9ddeff92ec9da44f6e",
    "linux-vm_ops":
        "73bd62e0a63c542a7f7e091caecd2ac8941a39062f669f7f76c0e21103f039ba",
    "mitosis-cold":
        "2d18e55d605bdfdfc6e9f749e2129dbbfb34940165a27d2f33172a139b38f801",
    "mitosis-cold_smt":
        "13bc6c7cd1bed9a225070ac1e208ca76a9770b752e730f9194f69b67dee19243",
    "mitosis-llc_0":
        "fa957a0c8f789c9cbc9991dae510045d2ca0f5c282b258b66cd74047054fb8ca",
    "mitosis-llc_0.3_interleave":
        "26ba91a57f6d4479d9cfa81882151b8680937b537e492235984a29dc90c2ee6d",
    "mitosis-smt":
        "8bef71316a08a1f2835fd329c7ad27332ec0750e9528b617c5427024a43621ac",
    "mitosis-vm_ops":
        "63b6c7f1c9b245a5296e78732d216d4d0c13708fd65199186506fb513e1838c1",
    "phoenix-cold":
        "b31ffa5a5368db2b8b181b7cb97abb8b522446142d1c9a754422892efa429be8",
    "phoenix-cold_smt":
        "38f98aa6f1b879b5f769ef5280ca9fb7a004be505602f9748668a68f8c8a9fc4",
    "phoenix-llc_0":
        "db191eb323e9c3d4b5b77316fb49401417998743535aa7104e57c26ccb42b41e",
    "phoenix-llc_0.3_interleave":
        "b46c3a507af1567f378165586eaeaa61cd6342100694528b0f1c72294d7533a7",
    "phoenix-smt":
        "025aeb128c271adf6c3693d8cd312e0c4075e089fd9d6d8a20c6170ea8826693",
    "phoenix-vm_ops":
        "aa4253c5aac24fd202068981131a9be3497467783d93a2be80e7d0f16b17acb5",
}


@pytest.mark.parametrize("name", sorted(GRID))
def test_access_loop_grid_reports_are_pinned(name):
    scenario = scenario_from_dict(copy.deepcopy(GRID[name]))
    text = run_scenario(scenario).to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS[name]
