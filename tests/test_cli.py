"""Command-line surface: validation, overrides, outputs, and exit codes."""

import csv
import dataclasses
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from numasim import cli
from numasim.sched import PolicyKind
from numasim.topology import MACHINE_KEYS

README = Path(__file__).resolve().parent.parent / "README.md"
POLICY_KEYS = {f.name for f in dataclasses.fields(PolicyKind)}


def base_raw():
    return {
        "machine": {"nodes": 2, "cores_per_node": 2},
        "workloads": [
            {"preset": "gups_like",
             "overrides": {"thread_count": 2, "footprint_pages": 256}},
        ],
        "policy": {"kind": "linux"},
        "run": {"duration": 8, "quantum": 1000, "seed": 1},
    }


def write_scenario(tmp_path, raw, name="scen.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return path


@pytest.fixture
def runs(monkeypatch):
    """The scenario of every Simulation.run in this process, in call order."""
    from numasim import engine
    seen = []
    real_run = engine.Simulation.run

    def recording_run(self):
        seen.append(self.scenario)
        return real_run(self)

    monkeypatch.setattr(engine.Simulation, "run", recording_run)
    return seen


def test_run_writes_report_csv_and_manifest(tmp_path, capsys):
    path = write_scenario(tmp_path, base_raw())
    out = tmp_path / "out" / "result"
    assert cli.main(["run", str(path), "--out", str(out)]) == 0
    assert "scenario 'scen'" in capsys.readouterr().out

    report = json.loads((tmp_path / "out" / "result.json").read_text())
    assert report["policy_kind"] == "linux"
    assert report["quanta"] == 8
    assert len(report["per_task"]) == 2

    csv_text = (tmp_path / "out" / "result.csv").read_text()
    rows = list(csv.DictReader(io.StringIO(csv_text)))
    assert csv_text.splitlines()[0] == ",".join(cli.metrics.CSV_COLUMNS)
    assert [r["task_id"] for r in rows] == ["0", "1", "node0", "node1",
                                            "total"]

    manifest = json.loads((tmp_path / "out" / "result.manifest.json")
                          .read_text())
    assert manifest["seed"] == 1
    assert manifest["policy"] == "linux"
    assert manifest["scenario_sha256"] \
        == hashlib.sha256(path.read_bytes()).hexdigest()
    assert manifest["fingerprint"] == report["fingerprint"]
    for out_path, digest in manifest["outputs"].items():
        data = open(out_path, "rb").read()
        assert hashlib.sha256(data).hexdigest() == digest


def test_flag_overrides_land_in_the_manifest(tmp_path):
    path = write_scenario(tmp_path, base_raw())
    out = tmp_path / "r"
    code = cli.main(["run", str(path), "--seed", "42", "--duration", "3",
                     "--policy", "mitosis", "--out", str(out)])
    assert code == 0
    manifest = json.loads((tmp_path / "r.manifest.json").read_text())
    assert manifest["seed"] == 42
    assert manifest["policy"] == "mitosis"
    report = json.loads((tmp_path / "r.json").read_text())
    assert report["seed"] == 42
    assert report["quanta"] == 3


def test_set_overrides_nested_paths(tmp_path):
    path = write_scenario(tmp_path, base_raw())
    out = tmp_path / "r"
    code = cli.main(["run", str(path), "--out", str(out),
                     "--set", "machine.nodes=1",
                     "--set", "workloads.0.overrides.thread_count=1",
                     "--set", "run.duration=2"])
    assert code == 0
    report = json.loads((tmp_path / "r.json").read_text())
    assert len(report["per_task"]) == 1
    assert len(report["per_node"]) == 1
    assert report["quanta"] == 2


def test_set_rejects_unknown_paths(tmp_path, capsys):
    path = write_scenario(tmp_path, base_raw())
    assert cli.main(["run", str(path), "--set", "machine.cpus.0=1"]) == 1
    assert "no such path element" in capsys.readouterr().err
    assert cli.main(["run", str(path), "--set", "no-equals-sign"]) == 1


def test_set_rejects_a_list_index_out_of_range(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(cli.OUT_ENV_VAR, str(tmp_path / "out"))
    path = write_scenario(tmp_path, base_raw())
    assert cli.main(["run", str(path), "--set", "workloads.7=3"]) == 1
    assert "--set 'workloads.7=3': no such path element '7'" \
        in capsys.readouterr().err
    assert cli.main(["run", str(path), "--set", "workloads.-2=3"]) == 1
    assert "no such path element '-2'" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["scen.json"]


@pytest.mark.parametrize("name, extra, error", [
    ("../escaped", [], "must be a file name, got '../escaped'"),
    ("a/b", [], "must be a file name, got 'a/b'"),
    ("..", [], "must be a file name, got '..'"),
    ("", [], "must be a file name, got ''"),
    (["a"], [], "expected a string, got ['a']"),
    ("scen", ["--set", "name=7"], "expected a string, got 7"),
    ("a\0b", [], "must be a file name, got 'a\\x00b'"),
    ("scen", ["--set", 'name="a\\ud800b"'],
     "must be a file name, got 'a\\ud800b'"),
    ("n" * 300, [], "too long, the output file name would take 324 bytes, "
                    "over 255"),
], ids=["parent_dir", "separator", "dot_dot", "empty", "list", "set_int",
        "nul", "lone_surrogate", "too_long"])
def test_scenario_name_must_be_a_file_name(tmp_path, monkeypatch, capsys,
                                           name, extra, error):
    # the name becomes part of the output path under $NUMASIM_OUT
    monkeypatch.setenv(cli.OUT_ENV_VAR, str(tmp_path / "out"))
    raw = base_raw()
    raw["name"] = name
    path = write_scenario(tmp_path, raw)
    assert cli.main(["run", str(path), *extra]) == 1
    assert f"error: scenario.name: {error}" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["scen.json"]


def test_the_longest_scenario_name_writes_every_file(tmp_path, monkeypatch):
    # <name>-linux-s1.timeseries.csv, the longest output, takes 255 bytes
    monkeypatch.setenv(cli.OUT_ENV_VAR, str(tmp_path / "out"))
    raw = base_raw()
    raw["name"] = "n" * (cli.NAME_MAX - len("-linux-s1.timeseries.csv"))
    path = write_scenario(tmp_path, raw)
    assert cli.main(["run", str(path), "--timeseries"]) == 0
    sizes = sorted(len(p.name) for p in (tmp_path / "out").iterdir())
    assert sizes == [244, 245, 254, cli.NAME_MAX]  # csv, json, manifest
    raw["name"] += "n"
    write_scenario(tmp_path, raw)
    assert cli.main(["run", str(path), "--timeseries"]) == 1


def test_timeseries_flag_writes_the_extra_csv(tmp_path):
    path = write_scenario(tmp_path, base_raw())
    out = tmp_path / "ts"
    assert cli.main(["run", str(path), "--timeseries", "--out",
                     str(out)]) == 0
    header = (tmp_path / "ts.timeseries.csv").read_text().splitlines()[0]
    assert header.startswith("task_id,window,quantum,")


def test_each_knob_has_one_name(tmp_path, capsys):
    # policy knobs are PolicyKind's fields; the run and workload blocks take
    # the names Scenario.to_dict writes
    raw = base_raw()
    raw["policy"] = {"kind": "phoenix", "threshold_pw_ratio": 0.2,
                     "imbalance_tolerance": 0.3}
    raw["workloads"][0]["start"] = 1
    path = str(write_scenario(tmp_path, raw))
    assert cli.main(["run", path]) == 0
    capsys.readouterr()

    # another name for a knob is refused with its path and the keys its
    # block accepts
    for assignment, where, accepted in (
            ("policy.threshold=0.2", "policy", POLICY_KEYS),
            ("policy.tolerance=0.3", "policy", POLICY_KEYS),
            ("run.duration_quanta=5", "run", cli.RUN_KEYS),
            ("run.quantum_cycles=500", "run", cli.RUN_KEYS),
            ("workloads.0.start_quantum=2", "workloads[0]",
             cli.WORKLOAD_KEYS)):
        assert cli.main(["run", path, "--set", assignment]) == 1, assignment
        err = capsys.readouterr().err.strip()
        key = assignment.split("=")[0].split(".")[-1]
        assert err == (f"error: scenario.{where}: unknown key {key!r}; "
                       f"accepted: {', '.join(sorted(accepted))}"), assignment


def test_readme_names_every_key_each_scenario_block_accepts():
    section = README.read_text().split("\n## Scenario files\n")[1]
    section = section.split("\n## ")[0]
    # one bullet per block, "- `block`: ...", ending at the next bullet or
    # paragraph
    bullets = dict(re.findall(r"^- `(\w+)`:(.*?)(?=\n- |\n\n)", section,
                              re.M | re.S))
    for block, keys in (("machine", MACHINE_KEYS),
                        ("workloads", cli.WORKLOAD_KEYS),
                        ("policy", POLICY_KEYS), ("run", cli.RUN_KEYS)):
        named = set(re.findall(r"`(\w+)`", bullets[block]))
        assert not keys - named, (block, sorted(keys - named))


def test_validation_failures_name_the_offending_path(tmp_path, capsys):
    raw = base_raw()
    raw["machine"]["corespernode"] = 2
    assert cli.main(["run", str(write_scenario(tmp_path, raw))]) == 1
    assert "machine: unknown key 'corespernode'" in capsys.readouterr().err

    raw = base_raw()
    raw["workloads"][0]["spec"] = {"name": "x"}
    assert cli.main(["run", str(write_scenario(tmp_path, raw, "b.json"))]) == 1
    assert "workloads[0]" in capsys.readouterr().err

    raw = base_raw()
    raw["policy"]["kind"] = "bestfit"
    assert cli.main(["run", str(write_scenario(tmp_path, raw, "c.json"))]) == 1
    assert "policy" in capsys.readouterr().err

    raw = base_raw()
    raw["telemetry"] = True
    assert cli.main(["run", str(write_scenario(tmp_path, raw, "d.json"))]) == 1

    # memory_pages is not a model input, so a scenario may not set it
    path = str(write_scenario(tmp_path, base_raw(), "e.json"))
    assert cli.main(["run", path, "--set", "machine.memory_pages=4096"]) == 1
    assert "machine: unknown key 'memory_pages'" in capsys.readouterr().err

    # both are refused before the run starts
    assert cli.main(["run", path, "--set", 'policy.alloc_policy="bogus"']) == 1
    assert "scenario.policy: alloc_policy" in capsys.readouterr().err

    assert cli.main(["run", path, "--set", "machine.tlb_entries=-1"]) == 1
    assert "scenario.machine.tlb_entries: must be at least 1" \
        in capsys.readouterr().err

    # unchecked, quantum 0 turned contention off, a negative duration
    # reported negative quanta, and a negative seed or arity 2 failed only
    # once the run had started
    for assignment, where in (("run.quantum=0", "run.quantum"),
                              ("run.quantum=-3", "run.quantum"),
                              ("run.duration=-5", "run.duration"),
                              ("run.duration=0", "run.duration"),
                              ("run.seed=-1", "run.seed"),
                              ("machine.arity=2", "machine.arity"),
                              ('machine.arity="wide"', "machine.arity")):
        assert cli.main(["run", path, "--set", assignment]) == 1, assignment
        assert f"scenario.{where}: " in capsys.readouterr().err, assignment

    # untyped, "two" failed inside build_topology with exit 2 and 2.5 ran
    # as 2 cores
    for assignment, where, expected in (
            ('machine.nodes="two"', "machine.nodes", "an integer"),
            ("machine.cores_per_node=2.5", "machine.cores_per_node",
             "an integer"),
            ("machine.local_latency=true", "machine.local_latency",
             "an integer"),
            ('machine.remote_factor="far"', "machine.remote_factor",
             "a number"),
            ("machine.node_bandwidth=[1]", "machine.node_bandwidth", "a number"),
            ("machine.link_bandwidth=null", "machine.link_bandwidth",
             "a number"),
            # untyped, a non-numeric factor failed inside build_topology
            # with exit 2 and "no" ran with SMT on
            ('machine.link_factors=[[1,"x"],["x",1]]',
             "machine.link_factors[0][1]", "a number"),
            ('machine.smt="no"', "machine.smt", "true or false")):
        assert cli.main(["run", path, "--set", assignment]) == 1, assignment
        assert f"scenario.{where}: expected {expected}" \
            in capsys.readouterr().err, assignment

    # consistency and range errors from build_topology name their key
    for assignments, where in (
            (["machine.smt=true", "machine.cores_per_node=3"],
             "machine.cores_per_node: must be even with smt"),
            (["machine.remote_factor=11"],
             "machine.remote_factor: must be within [1, 10]"),
            (["machine.link_factors=[[1,1.2]]"],
             "machine.link_factors[1][0]: missing"),
            (["machine.link_factors=[[1,1.2],[0.5,1]]"],
             "machine.link_factors[1][0]: must be within [1, 10]"),
            # a capacity of 0 or less turned contention off
            (["machine.node_bandwidth=0"],
             "machine.node_bandwidth: must be positive, got 0.0"),
            (["machine.link_bandwidth=-5"],
             "machine.link_bandwidth: must be positive, got -5.0")):
        argv = ["run", path]
        for assignment in assignments:
            argv += ["--set", assignment]
        assert cli.main(argv) == 1, assignments
        assert f"scenario.{where}" in capsys.readouterr().err, assignments

    # untyped, "no" and "false" ran as true, 2.5 threads failed mid-run with
    # exit 2, and a numeric name failed inside the event generator
    for assignment, where, expected in (
            ('run.timeseries="no"', "run.timeseries", "true or false"),
            ("run.prefault=1", "run.prefault", "true or false"),
            ('policy.autonuma="yes"', "policy: autonuma", "true or false"),
            ('policy.mba="false"', "policy: mba", "true or false"),
            ("workloads.0.start=true", "workloads[0].start",
             "an integer"),
            ("workloads.0.start=2.5", "workloads[0].start",
             "an integer"),
            ('workloads.0.start="1"', "workloads[0].start",
             "an integer"),
            ("workloads.0.overrides.thread_count=2.5",
             "workloads[0]: thread_count", "an integer"),
            ("workloads.0.overrides.footprint_pages=true",
             "workloads[0]: footprint_pages", "an integer"),
            ('workloads.0.overrides.accesses_per_quantum_per_thread="9"',
             "workloads[0]: accesses_per_quantum_per_thread", "an integer"),
            ("workloads.0.overrides.vm_range_mean_pages=2.5",
             "workloads[0]: vm_range_mean_pages", "an integer"),
            ("workloads.0.overrides.name=7", "workloads[0]: name",
             "a string"),
            ("policy.window=2.5", "policy: window", "an integer"),
            ("policy.rebalance_interval=true", "policy: rebalance_interval",
             "an integer"),
            ('policy.scan_period="5"', "policy: scan_period", "an integer"),
            ("policy.migrate_threshold=1.5", "policy: migrate_threshold",
             "an integer"),
            ("policy.force_replicas=true", "policy: force_replicas",
             "an integer")):
        assert cli.main(["run", path, "--set", assignment]) == 1, assignment
        assert f"scenario.{where}: expected {expected}" \
            in capsys.readouterr().err, assignment

    # the mix is checked even where vm ops are off, as in gups_like
    for assignment, message in (
            ('workloads.0.overrides.vm_op_mix="x"', "vm_op_mix: expected"),
            ('workloads.0.overrides.vm_op_mix={"fly": -1}',
             "vm_op_mix: unknown vm op kind 'fly'"),
            ('workloads.0.overrides.vm_op_mix={"map": -1}',
             "vm_op_mix.map: weight cannot be negative"),
            ('workloads.0.overrides.vm_op_mix={"map": "1"}',
             "vm_op_mix.map: expected a number")):
        assert cli.main(["run", path, "--set", assignment]) == 1, assignment
        assert f"scenario.workloads[0]: {message}" \
            in capsys.readouterr().err, assignment

    # above 1000 per kilo-access every slot holds an op, so larger rates ran
    # exactly as 1000 does
    assert cli.main(["run", path, "--set",
                     "workloads.0.overrides.vm_ops_per_kilo_access=5000"]) == 1
    assert "scenario.workloads[0]: vm_ops_per_kilo_access must be at most " \
        "1000" in capsys.readouterr().err

    # 5**4 = 625 pages is all a four-level table of arity 5 maps
    assert cli.main(["run", path, "--set", "machine.arity=5", "--set",
                     "workloads.0.overrides.footprint_pages=626"]) == 1
    assert "scenario.workloads[0]: footprint_pages 626 exceeds" \
        in capsys.readouterr().err


def test_broken_input_exits_one_without_partial_outputs(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    out = tmp_path / "broken-out"
    assert cli.main(["run", str(path), "--out", str(out)]) == 1
    assert not list(tmp_path.glob("broken-out*"))
    assert cli.main(["run", str(tmp_path / "missing.json")]) == 1


def test_usage_errors_exit_one(capsys):
    assert cli.main([]) == 1
    assert cli.main(["run"]) == 1
    assert cli.main(["frobnicate", "x.json"]) == 1
    capsys.readouterr()


def test_post_validation_failures_exit_two(tmp_path, capsys, monkeypatch):
    # a machine that passed validation but breaks the builder; nodes=[2]
    # did that until machine values were typed in scenario_from_dict
    from numasim import engine

    def broken_builder(config):
        raise TypeError("int() argument must be a number, not 'list'")

    monkeypatch.setattr(engine, "build_topology", broken_builder)
    path = write_scenario(tmp_path, base_raw())
    assert cli.main(["run", str(path)]) == 2
    assert "runtime error" in capsys.readouterr().err
    assert cli.main(["run", str(path), "--set", "machine.nodes=[2]"]) == 1
    assert "scenario.machine.nodes: expected an integer" in capsys.readouterr().err


def test_internal_value_errors_exit_two(tmp_path, capsys, monkeypatch):
    # NotMappedError is a ValueError, but raised inside the run it is a
    # simulator fault, not bad input
    from numasim import engine
    from numasim.pagetable import NotMappedError

    def broken_run(self):
        raise NotMappedError("vpn 7 is not mapped")

    monkeypatch.setattr(engine.Simulation, "run", broken_run)
    path = write_scenario(tmp_path, base_raw())
    assert cli.main(["run", str(path)]) == 2
    assert "runtime error: NotMappedError: vpn 7 is not mapped" \
        in capsys.readouterr().err


def test_compare_runs_each_policy_and_reports_speedups(tmp_path, capsys):
    path = write_scenario(tmp_path, base_raw())
    out = tmp_path / "cmp"
    code = cli.main(["compare", str(path), "--policies", "linux,mitosis",
                     "--out", str(out)])
    assert code == 0
    assert "baseline=linux" in capsys.readouterr().out
    comparison = json.loads((tmp_path / "cmp.compare.json").read_text())
    rows = comparison["policies"]
    assert [r["policy"] for r in rows] == ["linux", "mitosis"]
    assert rows[0]["speedup"] == 1.0
    assert rows[1]["total_cycles"] > 0
    for kind in ("linux", "mitosis"):
        assert (tmp_path / f"cmp.{kind}.csv").exists()
        assert (tmp_path / f"cmp.{kind}.json").exists()
    assert (tmp_path / "cmp.compare.csv").read_text().splitlines()[0] \
        .startswith("scenario,policy,")


def test_compare_writes_the_reports_run_writes(tmp_path):
    path = write_scenario(tmp_path, base_raw())
    assert cli.main(["compare", str(path), "--policies", "linux,phoenix",
                     "--out", str(tmp_path / "cmp")]) == 0
    for kind in ("linux", "phoenix"):
        assert cli.main(["run", str(path), "--policy", kind,
                         "--out", str(tmp_path / kind)]) == 0
        for suffix in ("json", "csv"):
            assert (tmp_path / f"cmp.{kind}.{suffix}").read_bytes() \
                == (tmp_path / f"{kind}.{suffix}").read_bytes(), (kind, suffix)


@pytest.mark.parametrize("command, argv, error", [
    ("compare", ["--policies", "linux,mitosis,bogus"], "scenario.policy: "),
    ("sweep", ["--param", "nodes", "--values", "2,0"],
     "scenario.machine.nodes: must be at least 1"),
], ids=["compare", "sweep"])
def test_an_invalid_last_variant_stops_before_any_run(tmp_path, capsys, runs,
                                                      command, argv, error):
    path = write_scenario(tmp_path, base_raw())
    out = tmp_path / "out" / "x"
    assert cli.main([command, str(path), *argv, "--out", str(out)]) == 1
    assert error in capsys.readouterr().err
    assert runs == []
    assert not (tmp_path / "out").exists()


def test_compare_same_policy_twice_is_flat(tmp_path):
    path = write_scenario(tmp_path, base_raw())
    out = tmp_path / "flat"
    assert cli.main(["compare", str(path), "--policies", "linux,linux",
                     "--out", str(out)]) == 0
    rows = json.loads((tmp_path / "flat.compare.json").read_text())["policies"]
    assert [r["speedup"] for r in rows] == [1.0, 1.0]
    assert rows[0]["total_cycles"] == rows[1]["total_cycles"]


def test_compare_needs_two_policies(tmp_path, capsys):
    path = write_scenario(tmp_path, base_raw())
    assert cli.main(["compare", str(path), "--policies", "linux"]) == 1
    assert "at least two" in capsys.readouterr().err
    assert cli.main(["compare", str(path), "--policies",
                     "linux,quadratic"]) == 1


def test_sweep_over_forced_replicas(tmp_path, capsys):
    path = write_scenario(tmp_path, base_raw())
    out = tmp_path / "sw"
    code = cli.main(["sweep", str(path), "--param", "replicas",
                     "--values", "1,2", "--out", str(out)])
    assert code == 0
    rows = json.loads((tmp_path / "sw.sweep.json").read_text())
    assert [(r["param"], r["value"]) for r in rows] \
        == [("replicas", 1), ("replicas", 2)]
    assert rows[0]["speedup"] == 1.0
    assert rows[1]["total_cycles"] >= rows[0]["total_cycles"]
    lines = (tmp_path / "sw.sweep.csv").read_text().splitlines()
    assert lines[0].startswith("param,value,policy,total_cycles")
    assert len(lines) == 3


def test_sweep_rejects_unknown_or_empty_parameters(tmp_path, capsys):
    path = write_scenario(tmp_path, base_raw())
    assert cli.main(["sweep", str(path), "--param", "machine.nodes",
                     "--values", "1,2"]) == 1
    assert "unknown parameter" in capsys.readouterr().err
    assert cli.main(["sweep", str(path), "--param", "nodes",
                     "--values", ""]) == 1
    assert cli.main(["sweep", str(path), "--param", "nodes",
                     "--values", "one,two"]) == 1
    capsys.readouterr()
    # below 1, the variants ran one after another with exit 0
    assert cli.main(["sweep", str(path), "--param", "nodes",
                     "--values", "1,2", "--jobs", "0"]) == 1
    assert "--jobs: must be at least 1, got 0" in capsys.readouterr().err


def test_sweep_antagonist_threads_targets_the_low_priority_workload(tmp_path):
    raw = base_raw()
    raw["workloads"].append({"preset": "stream_like",
                             "overrides": {"thread_count": 1}})
    path = write_scenario(tmp_path, raw)
    out = tmp_path / "ant"
    code = cli.main(["sweep", str(path), "--param", "antagonist_threads",
                     "--values", "1,2", "--out", str(out)])
    assert code == 0
    rows = json.loads((tmp_path / "ant.sweep.json").read_text())
    # more antagonist threads never help the machine finish sooner
    assert rows[1]["total_cycles"] > rows[0]["total_cycles"]


def test_sweep_antagonist_threads_reads_an_entry_level_priority(tmp_path,
                                                                runs):
    raw = base_raw()
    # the spec says high; the entry makes it the antagonist, though the
    # last workload is the fallback
    raw["workloads"].insert(0, {
        "spec": {"name": "hog", "thread_count": 1, "footprint_pages": 16,
                 "pattern": "sequential"},
        "priority": "low"})
    path = write_scenario(tmp_path, raw)
    assert cli.main(["sweep", str(path), "--param", "antagonist_threads",
                     "--values", "2,3"]) == 0
    assert [[e.spec.thread_count for e in s.workloads] for s in runs] \
        == [[2, 2], [3, 2]]


def test_out_env_var_provides_a_default_directory(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.OUT_ENV_VAR, str(tmp_path / "envout"))
    path = write_scenario(tmp_path, base_raw())
    assert cli.main(["run", str(path), "--seed", "7"]) == 0
    base = tmp_path / "envout" / "scen-linux-s7"
    assert base.with_suffix(".json").exists()
    assert base.with_suffix(".csv").exists()
    assert (tmp_path / "envout" / "scen-linux-s7.manifest.json").exists()


def test_repeat_runs_are_byte_identical(tmp_path):
    path = write_scenario(tmp_path, base_raw())
    for name in ("a", "b"):
        assert cli.main(["run", str(path), "--out",
                         str(tmp_path / name)]) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert (tmp_path / "a.json").read_bytes() \
        == (tmp_path / "b.json").read_bytes()


def test_parallel_sweep_matches_serial_byte_for_byte(tmp_path):
    path = write_scenario(tmp_path, base_raw())
    for name, jobs in (("serial", "1"), ("parallel", "2")):
        code = cli.main(["sweep", str(path), "--param", "nodes",
                         "--values", "1,2", "--jobs", jobs,
                         "--policies", "linux,phoenix",
                         "--out", str(tmp_path / name)])
        assert code == 0
    assert (tmp_path / "serial.sweep.csv").read_bytes() \
        == (tmp_path / "parallel.sweep.csv").read_bytes()


def test_importing_the_cli_leaves_the_process_pool_unloaded():
    # only --jobs above 1 needs it; a serial run skips its set-up and memory
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", "import sys, numasim.cli; "
         "print(sorted(m for m in sys.modules if m.startswith("
         "('concurrent.futures.process', 'multiprocessing'))))"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"
