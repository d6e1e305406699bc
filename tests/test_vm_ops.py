"""Digest gate for the VM-operation paths the packaged scenarios never reach.

The packaged scenarios issue only one-page VM ops inside a single 512-entry
PTE table.  This grid issues every op kind over ranges of about three pages
at arity 4, so ranges and remaps cross PTE tables, and over a footprint
(250 pages) that is not a multiple of the arity.  Runs without prefault
leave tables unallocated, so VM-op maps allocate them.  It covers linux,
mitosis and phoenix under both lock modes, a forced second replica, and the
highest VM-op rate the model takes.  A change that moves one byte of any of
these reports fails here.
"""

import copy
import hashlib

import pytest

from numasim.cli import scenario_from_dict
from numasim.engine import run_scenario


def grid_raw(kind, lock_mode="per_table", prefault=True, rate=100,
             replicas=None):
    policy = {"kind": kind, "lock_mode": lock_mode, "window": 2,
              "scan_period": 5, "rebalance_interval": 3}
    if replicas:
        policy["force_replicas"] = replicas
    return {
        "name": "vm_grid",
        "machine": {"nodes": 2, "cores_per_node": 2, "arity": 4},
        "workloads": [{"preset": "wrmem_like", "overrides": {
            "thread_count": 3, "footprint_pages": 250,
            # without prefault, a skewed pattern leaves cold tables unbuilt
            "pattern": "uniform_random" if prefault else "zipfian",
            "accesses_per_quantum_per_thread": 60,
            "vm_ops_per_kilo_access": rate,
            "vm_op_mix": {"map": 1, "unmap": 1, "protect": 1, "remap": 1},
            "vm_range_mean_pages": 3}}],
        "policy": policy,
        "run": {"duration": 25, "seed": 5, "quantum": 1000,
                "prefault": prefault},
    }


GRID = {
    "linux-per_table": grid_raw("linux"),
    "linux-global": grid_raw("linux", "global", prefault=False),
    "mitosis-per_table": grid_raw("mitosis"),
    "mitosis-global": grid_raw("mitosis", "global", prefault=False),
    "phoenix-per_table": grid_raw("phoenix"),
    "phoenix-global": grid_raw("phoenix", "global", prefault=False),
    "linux-force_replicas_2": grid_raw("linux", prefault=False, replicas=2),
    "mitosis-rate_1000": grid_raw("mitosis", "global", rate=1000),
}

# sha256 of MetricsReport.to_json() per grid entry
DIGESTS = {
    "linux-per_table":
        "9ae8a4f76521e5e1c1e587d12efc25ae737d50b4654c7129d53e724c3392e20e",
    "linux-global":
        "0017f27317f559100b38d13fd27a8c265af93ad34385a4d7f8449a78d5da3f20",
    "mitosis-per_table":
        "0b70bead47d732987db1690661a5b0858cc935cea6db758c118afc9518da39c8",
    "mitosis-global":
        "7f7802774502a1458376f0ec7aec5086be2ce7ea1f538ca03ca223d56c812dca",
    "phoenix-per_table":
        "c372c0299576f89a19ae1e6f5a4476ab408488ce1e66f1785d8d76c805c2e4f8",
    "phoenix-global":
        "47a04022854585b64fadb1976101083e36e36f2a4e12a166dad5dc7d194cb207",
    "linux-force_replicas_2":
        "2429050f42cbd6d6c9d68819b9b4715e09480ed1f51668cb283c74b442f70f68",
    "mitosis-rate_1000":
        "b5e501adcce25dcad153fdfc32d39089e0d8a207879c2eb286dcfd6e3e7a4e64",
}


@pytest.mark.parametrize("name", sorted(GRID))
def test_vm_op_grid_reports_are_pinned(name):
    scenario = scenario_from_dict(copy.deepcopy(GRID[name]))
    text = run_scenario(scenario).to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS[name]
