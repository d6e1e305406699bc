"""Command-line surface: validation, overrides, outputs, and exit codes."""

import csv
import hashlib
import io
import json

import pytest

from numasim import cli


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


def test_timeseries_flag_writes_the_extra_csv(tmp_path):
    path = write_scenario(tmp_path, base_raw())
    out = tmp_path / "ts"
    assert cli.main(["run", str(path), "--timeseries", "--out",
                     str(out)]) == 0
    header = (tmp_path / "ts.timeseries.csv").read_text().splitlines()[0]
    assert header.startswith("task_id,window,quantum,")


def test_short_and_long_key_forms_are_equivalent_but_exclusive(tmp_path):
    raw = base_raw()
    raw["policy"] = {"kind": "phoenix", "threshold": 0.2, "tolerance": 0.3}
    path = write_scenario(tmp_path, raw)
    assert cli.main(["run", str(path)]) == 0

    raw["policy"] = {"kind": "phoenix", "threshold": 0.2,
                     "threshold_pw_ratio": 0.2}
    path = write_scenario(tmp_path, raw, "dup.json")
    assert cli.main(["run", str(path)]) == 1

    raw = base_raw()
    raw["run"] = {"duration": 5, "duration_quanta": 5}
    path = write_scenario(tmp_path, raw, "dup2.json")
    assert cli.main(["run", str(path)]) == 1


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
    assert "machine.tlb_entries" in capsys.readouterr().err


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


def test_post_validation_failures_exit_two(tmp_path, capsys):
    raw = base_raw()
    raw["machine"]["nodes"] = [2]  # passes key checks, breaks the builder
    path = write_scenario(tmp_path, raw)
    assert cli.main(["run", str(path)]) == 2
    assert "runtime error" in capsys.readouterr().err


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
