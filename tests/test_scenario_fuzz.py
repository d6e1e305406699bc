"""Scenario fuzzer: one scenario key set to an odd value either is refused
before the run with a path-naming ConfigError, or runs and keeps the
report's invariants and walks as the tests' reference walker does, with one
read-only page_walk per fault, and steps as the reference's per-access loop
does."""

import copy

from hypothesis import example, given, settings
from hypothesis import strategies as st

from numasim import cli, metrics
from numasim.engine import WINDOW_COUNTERS, Simulation
from numasim.pagetable import Level
from numasim.topology import ConfigError

import reference
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


def vm_heavy(kind):
    """base_raw(kind) with wrmem_like at arity 4 and a remap/protect-heavy
    mix over about three pages an op, so VM ops cross PTE tables."""
    raw = variant(kind, "workloads", "preset", "wrmem_like")
    raw["machine"]["arity"] = 4
    raw["workloads"][0]["overrides"].update(
        vm_ops_per_kilo_access=200, vm_range_mean_pages=3,
        vm_op_mix={"remap": 3, "protect": 2, "map": 1, "unmap": 1})
    return raw


def rebalanced():
    """base_raw("linux") with four webserver threads, where _rebalance moves
    a thread onto a core its process did not use."""
    raw = base_raw("linux")
    raw["workloads"][0]["overrides"]["thread_count"] = 4
    raw["policy"]["rebalance_interval"] = 1
    raw["run"]["duration"] = 8
    return raw


def llc_drawn_cold():
    """base_raw("mitosis") at arity 4 without prefault, its first workload's
    LLC misses drawn at 0.3 over data interleaved on both nodes."""
    raw = variant("mitosis", "machine", "arity", 4)
    raw["run"]["prefault"] = False
    raw["workloads"][0]["overrides"].update(llc_miss_rate=0.3,
                                            data_policy="interleave")
    return raw


def assert_process_cores_kept(sim):
    """Each process's cores are its tasks' cores, each once, in task order."""
    for proc in sim.processes:
        cores = tuple(dict.fromkeys(t.current_core for t in proc.tasks))
        assert proc.cores == cores
        assert proc.targets == {
            core: tuple(c for c in cores if c != core) for core in cores}


def assert_run_queues_kept(sim):
    """Each task sits on exactly one run queue, its current core's, and the
    tasks of a process share one allowed_nodes list."""
    queued = [t for core in sim.cores for t in core.runqueue]
    assert len(queued) == len({id(t) for t in queued}) == len(sim.tasks)
    for task in sim.tasks:
        assert any(t is task for t in sim.cores[task.current_core].runqueue)
    for proc in sim.processes:
        shared = proc.tasks[0].allowed_nodes
        assert all(t.allowed_nodes is shared for t in proc.tasks)


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
# the VM-op path: the preset as it is, and remaps and protects that cross
# PTE tables under each policy
@example(variant("linux", "workloads", "preset", "wrmem_like"))
@example(vm_heavy("linux"))
@example(vm_heavy("mitosis"))
@example(vm_heavy("phoenix"))
@example(rebalanced())
# the access loop's drawn LLC misses over interleaved data, with faults
# interleaving with walks of mapped pages across changing PGD and PUD
# prefixes
@example(llc_drawn_cold())
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
    step = sim.step

    def step_keeping_cores():
        step()
        assert_process_cores_kept(sim)
        assert_run_queues_kept(sim)

    sim.step = step_keeping_cores
    report = metrics.finalize(sim.run(), scenario)
    assert not any(core.runqueue for core in sim.cores)  # exit empties them

    # every walk is the reference's, and each fault's page_walk reads as its
    # read-only walk does
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
    # a fresh engine stepped beside the per-access reference keeps its
    # caches and report equal to the reference's, and writes this report
    again = reference.lockstep(cli.scenario_from_dict(copy.deepcopy(raw)))
    assert again.to_json() == report.to_json()


def test_process_cores_follow_a_rebalanced_thread():
    sim = Simulation(cli.scenario_from_dict(rebalanced()))
    changes = 0
    for _ in range(sim.scenario.duration_quanta):
        before = [proc.cores for proc in sim.processes]
        sim.step()
        changes += sum(proc.cores != cores
                       for proc, cores in zip(sim.processes, before))
        assert_process_cores_kept(sim)
    assert changes
