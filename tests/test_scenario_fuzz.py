"""Scenario fuzzer: one scenario key set to an odd value either is refused
before the run with a path-naming ConfigError, or runs and keeps the
report's invariants and walks as page_walk does."""

import copy

from hypothesis import example, given, settings
from hypothesis import strategies as st

from numasim import cli, metrics
from numasim.engine import WINDOW_COUNTERS, Simulation, run_scenario
from numasim.pagetable import Level
from numasim.topology import ConfigError

from conftest import WalkOracle

# values every key is tried with; UNKNOWN sets a key no block accepts
UNKNOWN = object()
POOL = [0, -1, 2.5, True, "x", None, [], {}, UNKNOWN]

# (block, key) -> values valid there; "overrides" is workloads[0]'s preset
# overrides.  Machines stay within 4 nodes x 4 cores, workloads within 8
# threads and 4,096 pages (the zipfian table holds one float per page)
VALID = {
    ("machine", "nodes"): [1, 3, 4],
    ("machine", "cores_per_node"): [1, 4],
    ("machine", "smt"): [True, False],
    ("machine", "local_latency"): [40],
    ("machine", "remote_factor"): [1.0, 3],
    ("machine", "node_bandwidth"): [1, 0.5],
    ("machine", "link_bandwidth"): [1, 0.5],
    ("machine", "link_factors"): [[[1, 2.0], [1.5, 1]]],
    ("machine", "tlb_entries"): [1, 8],
    ("machine", "arity"): [4, 16],
    ("run", "duration"): [1, 5],
    ("run", "quantum"): [1, 500],
    ("run", "seed"): [7],
    ("run", "timeseries"): [True],
    ("run", "prefault"): [True],
    ("policy", "kind"): ["linux", "mitosis", "phoenix"],
    ("policy", "threshold_pw_ratio"): [0.01, 0.5],
    ("policy", "imbalance_tolerance"): [0.5],
    ("policy", "window"): [1, 2],
    ("policy", "autonuma"): [False],
    ("policy", "mba"): [False],
    ("policy", "force_replicas"): [2, 4],
    ("policy", "lock_mode"): ["global", "per_table"],
    ("policy", "rebalance_interval"): [1],
    ("policy", "scan_period"): [1, 2],
    ("policy", "scan_share"): [1.0],
    ("policy", "migrate_threshold"): [1],
    ("policy", "alloc_policy"): ["interleave", "home_node", "first_touch"],
    ("workloads", "preset"): ["btree_like", "stream_like", "wrmem_like"],
    ("workloads", "start"): [2],
    ("workloads", "priority"): ["low"],
    ("overrides", "name"): ["renamed"],
    ("overrides", "thread_count"): [1, 6],
    ("overrides", "footprint_pages"): [1, 4096],
    ("overrides", "pattern"): ["zipfian", "sequential"],
    ("overrides", "zipf_theta"): [0.5],
    ("overrides", "accesses_per_quantum_per_thread"): [1, 40],
    ("overrides", "vm_ops_per_kilo_access"): [0],
    ("overrides", "vm_op_mix"): [{"map": 1, "protect": 2}],
    ("overrides", "vm_range_mean_pages"): [3],
    ("overrides", "priority"): ["low"],
    ("overrides", "bandwidth_intensity"): [0.5],
    ("overrides", "llc_miss_rate"): [0.0],
    ("overrides", "data_policy"): ["interleave"],
}
BLOCKS = sorted({block for block, _ in VALID})


def base_raw(kind):
    return {
        "machine": {"nodes": 2, "cores_per_node": 2},
        "workloads": [
            {"preset": "webserver_like",
             "overrides": {"thread_count": 3, "footprint_pages": 200,
                           "accesses_per_quantum_per_thread": 30}},
            {"preset": "stream_like", "overrides": {"thread_count": 2}},
        ],
        "policy": {"kind": kind, "window": 2, "scan_period": 2,
                   "rebalance_interval": 2},
        "run": {"duration": 5, "quantum": 1000, "seed": 3},
    }


def variant(kind, block, key, value):
    """base_raw(kind) with one key of one block set to value."""
    raw = base_raw(kind)
    entry = raw["workloads"][0]
    section = dict(raw, workloads=entry, overrides=entry["overrides"])[block]
    if value is UNKNOWN:
        section["bogus"] = 1
    else:
        section[key] = value
    return raw


@st.composite
def scenarios(draw):
    kind = draw(st.sampled_from(VALID[("policy", "kind")]))
    block = draw(st.sampled_from(BLOCKS))
    keys = sorted(key for b, key in VALID if b == block)
    key = draw(st.sampled_from(keys))
    value = draw(st.one_of(st.sampled_from(POOL),
                           st.sampled_from(VALID[(block, key)])))
    return variant(kind, block, key, value)


# keys that shape the TLB, the page-walk caches and where tables live, run
# whatever the draws; with arity 4 every cache level holds several
# prefixes, so a wrong LRU order shows
@example(variant("mitosis", "machine", "arity", 4))
@example(variant("linux", "machine", "tlb_entries", 1))
@example(variant("phoenix", "machine", "smt", True))
@example(variant("linux", "policy", "alloc_policy", "interleave"))
@example(variant("phoenix", "policy", "force_replicas", 4))
@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(scenarios())
def test_fuzzed_scenarios_are_refused_by_path_or_keep_the_invariants(raw):
    try:
        scenario = cli.scenario_from_dict(copy.deepcopy(raw))
    except ConfigError as exc:
        assert str(exc).startswith("scenario."), str(exc)
        return
    sim = Simulation(scenario)
    oracle = WalkOracle(sim)
    report = metrics.finalize(sim.run(), scenario)

    # every walk, inline or through page_walk, is page_walk's walk
    oracle.check()

    for name in WINDOW_COUNTERS:
        assert sum(r[name] for r in report.per_node) \
            == sum(r[name] for r in report.per_task), name
    for row in report.per_task + [report.totals]:
        assert row["stall_cycles"] <= row["total_cycles"]
    for proc in sim.processes:
        space = proc.space
        replicas = set(space.replicas)
        for table in space.iter_tables():
            assert set(table.resident) == replicas
        # the path index agrees with a fresh descent and covers every PTE
        # table
        a = space.arity
        for key, path in space.paths.items():
            tables = [space.root]
            for idx in (key // (a * a), key // a % a, key % a):
                tables.append(tables[-1].entries[idx])
            assert len(path) == len(tables)
            assert all(got is want for got, want in zip(path, tables)), key
        ptes = [t for t in space.iter_tables() if t.level == Level.PTE]
        assert {id(path[-1]) for path in space.paths.values()} \
            == {id(t) for t in ptes}
        assert len(space.paths) == len(ptes)
    again = run_scenario(cli.scenario_from_dict(copy.deepcopy(raw)))
    assert again.to_json() == report.to_json()
