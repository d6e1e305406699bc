"""Command-line front end.

Three subcommands: `run` executes one scenario under one policy, `compare`
runs the same scenario under several policies and reports speedups, and
`sweep` varies one scenario knob across a list of values.  Scenario files
are validated strictly; an unknown key anywhere is an error that names the
full path to the offending entry.  Every file written is listed with its
sha256 in a manifest next to the outputs, so runs can be audited and
reproduced byte for byte.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import hashlib
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Dict, List, Optional

from . import __version__, metrics, workload
from .engine import (DEFAULT_QUANTUM_CYCLES, Scenario, WorkloadEntry,
                     run_scenario)
from .sched import PolicyKind

OUT_ENV_VAR = "NUMASIM_OUT"

MACHINE_KEYS = {
    "nodes", "cores_per_node", "smt", "local_latency", "remote_factor",
    "node_bandwidth", "link_bandwidth", "link_factors", "tlb_entries", "arity",
}
TOP_KEYS = {"name", "machine", "workloads", "policy", "run"}
WORKLOAD_KEYS = {"preset", "spec", "start", "start_quantum", "priority",
                 "overrides"}
RUN_KEYS = {"duration", "duration_quanta", "seed", "quantum",
            "quantum_cycles", "timeseries", "prefault"}

# scenario files may use the short names; both forms mean the same knob
POLICY_ALIASES = {"threshold": "threshold_pw_ratio",
                  "tolerance": "imbalance_tolerance"}
RUN_ALIASES = {"duration": "duration_quanta", "quantum": "quantum_cycles"}

SWEEP_PARAMS = ("nodes", "replicas", "threshold", "remote_factor",
                "antagonist_threads")

_SPEC_FIELDS = {f.name for f in dataclasses.fields(workload.WorkloadSpec)}
_POLICY_FIELDS = {f.name for f in dataclasses.fields(PolicyKind)}


def _dealias(section: dict, aliases: Dict[str, str], where: str) -> dict:
    out = dict(section)
    for short, full in aliases.items():
        if short in out:
            if full in out:
                raise ValidationError(
                    f"{where}: give either {short!r} or {full!r}, not both")
            out[full] = out.pop(short)
    return out


class ValidationError(Exception):
    pass


def _reject_unknown(section: dict, allowed: set, where: str) -> None:
    for key in section:
        if key not in allowed:
            raise ValidationError(f"{where}: unknown key {key!r}")


def _spec_from_dict(data: dict, where: str) -> workload.WorkloadSpec:
    _reject_unknown(data, _SPEC_FIELDS, where)
    fields = dict(data)
    if isinstance(fields.get("vm_op_mix"), dict):
        fields["vm_op_mix"] = tuple(sorted(fields["vm_op_mix"].items()))
    try:
        spec = workload.WorkloadSpec(**fields)
        spec.validate()
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{where}: {exc}") from exc
    return spec


def _workload_entry(data: dict, where: str) -> WorkloadEntry:
    if not isinstance(data, dict):
        raise ValidationError(f"{where}: expected an object")
    _reject_unknown(data, WORKLOAD_KEYS, where)
    has_preset = "preset" in data
    has_spec = "spec" in data
    if has_preset == has_spec:
        raise ValidationError(f"{where}: give exactly one of 'preset' or 'spec'")
    overrides = data.get("overrides", {})
    if not isinstance(overrides, dict):
        raise ValidationError(f"{where}.overrides: expected an object")
    if has_preset:
        _reject_unknown(overrides, _SPEC_FIELDS, f"{where}.overrides")
        if isinstance(overrides.get("vm_op_mix"), dict):
            overrides = dict(overrides)
            overrides["vm_op_mix"] = tuple(sorted(overrides["vm_op_mix"].items()))
        try:
            spec = workload.preset(data["preset"], **overrides)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"{where}: {exc}") from exc
    else:
        if overrides:
            raise ValidationError(
                f"{where}: 'overrides' only applies to presets; edit 'spec'")
        spec = _spec_from_dict(data["spec"], f"{where}.spec")
    data = _dealias(data, {"start": "start_quantum"}, where)
    start = data.get("start_quantum", 0)
    if not isinstance(start, int) or start < 0:
        raise ValidationError(f"{where}.start_quantum: expected int >= 0")
    priority = data.get("priority")
    if priority is not None and priority not in workload.PRIORITIES:
        raise ValidationError(
            f"{where}.priority: must be one of {workload.PRIORITIES}")
    return WorkloadEntry(spec=spec, start_quantum=start, priority=priority)


def scenario_from_dict(raw: dict, source: str = "scenario") -> Scenario:
    if not isinstance(raw, dict):
        raise ValidationError(f"{source}: expected a JSON object")
    _reject_unknown(raw, TOP_KEYS, source)
    for required in ("machine", "workloads", "policy"):
        if required not in raw:
            raise ValidationError(f"{source}: missing required key {required!r}")

    machine = raw["machine"]
    if not isinstance(machine, dict):
        raise ValidationError(f"{source}.machine: expected an object")
    _reject_unknown(machine, MACHINE_KEYS, f"{source}.machine")

    workloads_raw = raw["workloads"]
    if not isinstance(workloads_raw, list) or not workloads_raw:
        raise ValidationError(f"{source}.workloads: expected a non-empty list")
    entries = [_workload_entry(item, f"{source}.workloads[{i}]")
               for i, item in enumerate(workloads_raw)]

    policy_raw = raw["policy"]
    if not isinstance(policy_raw, dict) or "kind" not in policy_raw:
        raise ValidationError(f"{source}.policy: expected an object with 'kind'")
    policy_raw = _dealias(policy_raw, POLICY_ALIASES, f"{source}.policy")
    _reject_unknown(policy_raw, _POLICY_FIELDS, f"{source}.policy")
    try:
        policy = PolicyKind(**policy_raw)
        policy.validate()
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{source}.policy: {exc}") from exc

    run_raw = raw.get("run", {})
    if not isinstance(run_raw, dict):
        raise ValidationError(f"{source}.run: expected an object")
    _reject_unknown(run_raw, RUN_KEYS, f"{source}.run")
    run_raw = _dealias(run_raw, RUN_ALIASES, f"{source}.run")

    return Scenario(
        machine=machine,
        workloads=entries,
        policy=policy,
        duration_quanta=int(run_raw.get("duration_quanta", 100)),
        rng_seed=int(run_raw.get("seed", 1)),
        quantum_cycles=int(run_raw.get("quantum_cycles",
                                       DEFAULT_QUANTUM_CYCLES)),
        timeseries=bool(run_raw.get("timeseries", False)),
        prefault=bool(run_raw.get("prefault", False)),
        name=str(raw.get("name", "scenario")))


def load_scenario_file(path: str) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: not valid JSON: {exc}") from exc
    if isinstance(raw, dict) and "name" not in raw:
        raw["name"] = Path(path).stem
    return raw


def apply_set(raw: dict, assignment: str) -> None:
    """Apply one --set override of the form dotted.path=json_value."""
    if "=" not in assignment:
        raise ValidationError(f"--set {assignment!r}: expected path=value")
    path, _, text = assignment.partition("=")
    try:
        value = json.loads(text)
    except json.JSONDecodeError:
        value = text
    parts = path.split(".")
    node = raw
    for i, part in enumerate(parts[:-1]):
        key: object = int(part) if part.lstrip("-").isdigit() else part
        try:
            node = node[key]
        except (KeyError, IndexError, TypeError):
            raise ValidationError(
                f"--set {assignment!r}: no such path element {part!r}")
    last = parts[-1]
    if isinstance(node, list):
        if not last.lstrip("-").isdigit():
            raise ValidationError(
                f"--set {assignment!r}: list index expected, got {last!r}")
        node[int(last)] = value
    elif isinstance(node, dict):
        node[last] = value
    else:
        raise ValidationError(
            f"--set {assignment!r}: cannot assign into {type(node).__name__}")


def _prepare_raw(args) -> dict:
    raw = load_scenario_file(args.scenario)
    for assignment in args.set or []:
        apply_set(raw, assignment)
    if getattr(args, "policy", None):
        raw.setdefault("policy", {})["kind"] = args.policy
    if getattr(args, "seed", None) is not None:
        raw.setdefault("run", {})["seed"] = args.seed
    if getattr(args, "duration", None) is not None:
        run_raw = raw.setdefault("run", {})
        run_raw.pop("duration", None)
        run_raw["duration_quanta"] = args.duration
    if getattr(args, "timeseries", False):
        raw.setdefault("run", {})["timeseries"] = True
    return raw


def _sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _out_base(args, scenario: Scenario) -> Optional[Path]:
    if args.out:
        return Path(args.out)
    env = os.environ.get(OUT_ENV_VAR)
    if env:
        name = f"{scenario.name}-{scenario.policy.kind}-s{scenario.rng_seed}"
        return Path(env) / name
    return None


def _write_outputs(base: Path, named: Dict[str, str], manifest: dict) -> List[Path]:
    base.parent.mkdir(parents=True, exist_ok=True)
    written = []
    for suffix, text in named.items():
        path = base.with_name(base.name + suffix)
        path.write_text(text)
        written.append(path)
    manifest["outputs"] = {str(p): _sha256_file(p) for p in written}
    manifest_path = base.with_name(base.name + ".manifest.json")
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True))
    written.append(manifest_path)
    return written


def _manifest(args, scenario: Scenario) -> dict:
    return {
        "tool": f"numasim {__version__}",
        "argv": sys.argv[1:],
        "scenario_path": str(args.scenario),
        "scenario_sha256": _sha256_file(Path(args.scenario)),
        "fingerprint": scenario.fingerprint(),
        "base_fingerprint": scenario.base_fingerprint(),
        "seed": scenario.rng_seed,
        "policy": scenario.policy.kind,
    }


def _print_report(report: metrics.MetricsReport) -> None:
    totals = report.totals
    print(f"scenario {report.scenario_name!r} policy={report.policy_kind} "
          f"seed={report.seed} quanta={report.quanta}")
    for row in report.per_process:
        print(f"  process {row['process_id']} ({row['workload']}, "
              f"{row['priority']}): cycles={row['total_cycles']} "
              f"pw_ratio={row['pw_ratio']:.4f} "
              f"replicas={row.get('replica_count', 0)} "
              f"home={row.get('home_node')}")
    print(f"  totals: cycles={totals['total_cycles']} "
          f"pagewalk={totals['pagewalk_cycles']} "
          f"stall={totals['stall_cycles']} "
          f"bandwidth_bytes={totals['bandwidth_bytes']} "
          f"actions={totals['actions']}")


def _run_raw(raw_json: str) -> dict:
    """Module-level worker so process pools can pickle the call."""
    scenario = scenario_from_dict(json.loads(raw_json))
    return run_scenario(scenario).to_dict()


def _run_many(raws: List[dict], jobs: int) -> List[metrics.MetricsReport]:
    payloads = [json.dumps(raw, sort_keys=True) for raw in raws]
    if jobs > 1 and len(payloads) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            dicts = list(pool.map(_run_raw, payloads))
    else:
        dicts = [_run_raw(p) for p in payloads]
    return [metrics.MetricsReport.from_dict(d) for d in dicts]


def cmd_run(args) -> int:
    raw = _prepare_raw(args)
    scenario = scenario_from_dict(raw)
    report = run_scenario(scenario)
    _print_report(report)
    base = _out_base(args, scenario)
    if base is not None:
        named = {".json": report.to_json() + "\n", ".csv": report.to_csv()}
        if scenario.timeseries:
            named[".timeseries.csv"] = report.timeseries_csv()
        paths = _write_outputs(base, named, _manifest(args, scenario))
        print("  wrote: " + ", ".join(str(p) for p in paths))
    return 0


def cmd_compare(args) -> int:
    raw = _prepare_raw(args)
    policies = [p.strip() for p in args.policies.split(",") if p.strip()]
    if len(policies) < 2:
        raise ValidationError("--policies needs at least two policy kinds")
    raws = []
    for kind in policies:
        variant = copy.deepcopy(raw)
        variant.setdefault("policy", {})["kind"] = kind
        raws.append(variant)
    reports = _run_many(raws, args.jobs)
    comparison = metrics.compare(reports)
    print(f"scenario {comparison['scenario_name']!r} "
          f"baseline={comparison['baseline_policy']}")
    for row in comparison["policies"]:
        print(f"  {row['policy']:>8}: cycles={row['total_cycles']} "
              f"pw_ratio={row['pw_ratio']:.4f} actions={row['actions']} "
              f"speedup={row['speedup']:.4f}")
    scenario = scenario_from_dict(raws[0])
    base = _out_base(args, scenario)
    if base is not None:
        named = {".compare.json": json.dumps(comparison, indent=2,
                                             sort_keys=True) + "\n",
                 ".compare.csv": metrics.compare_csv(comparison)}
        for report in reports:
            named[f".{report.policy_kind}.json"] = report.to_json() + "\n"
            named[f".{report.policy_kind}.csv"] = report.to_csv()
        paths = _write_outputs(base, named, _manifest(args, scenario))
        print("  wrote: " + ", ".join(str(p) for p in paths))
    return 0


def _entry_priority(entry: dict) -> str:
    if entry.get("priority"):
        return entry["priority"]
    if "preset" in entry and entry["preset"] in workload.PRESETS:
        prio = entry.get("overrides", {}).get("priority")
        return prio or workload.PRESETS[entry["preset"]].priority
    return entry.get("spec", {}).get("priority", "high")


def _sweep_apply(variant: dict, name: str, value) -> None:
    if name == "nodes":
        variant.setdefault("machine", {})["nodes"] = value
    elif name == "remote_factor":
        variant.setdefault("machine", {})["remote_factor"] = value
    elif name == "replicas":
        variant.setdefault("policy", {})["force_replicas"] = value
    elif name == "threshold":
        policy = variant.setdefault("policy", {})
        policy.pop("threshold", None)
        policy["threshold_pw_ratio"] = value
    elif name == "antagonist_threads":
        entries = variant.get("workloads", [])
        if not entries:
            raise ValidationError("antagonist_threads: scenario has no workloads")
        lows = [i for i, e in enumerate(entries) if _entry_priority(e) == "low"]
        entry = entries[lows[-1] if lows else -1]
        if "preset" in entry:
            entry.setdefault("overrides", {})["thread_count"] = value
        else:
            entry.setdefault("spec", {})["thread_count"] = value
    else:
        raise ValidationError(
            f"unknown parameter {name!r}; choose from {', '.join(SWEEP_PARAMS)}")


def cmd_sweep(args) -> int:
    raw = _prepare_raw(args)
    if args.param not in SWEEP_PARAMS:
        raise ValidationError(
            f"unknown parameter {args.param!r}; choose from "
            f"{', '.join(SWEEP_PARAMS)}")
    try:
        values = [json.loads(v) for v in args.values.split(",") if v.strip()]
    except json.JSONDecodeError as exc:
        raise ValidationError(f"--values: not valid JSON: {exc}") from exc
    if not values:
        raise ValidationError("--values: empty value list")
    policies = [p.strip() for p in (args.policies or "").split(",") if p.strip()]
    if not policies:
        policies = [raw.get("policy", {}).get("kind", "linux")]
    raws, labels = [], []
    for value in values:
        for kind in policies:
            variant = copy.deepcopy(raw)
            _sweep_apply(variant, args.param, value)
            variant.setdefault("policy", {})["kind"] = kind
            raws.append(variant)
            labels.append((value, kind))
    reports = _run_many(raws, args.jobs)
    rows = []
    baseline_by_value: Dict[str, int] = {}
    print(f"sweep {args.param} over {values}")
    for (value, kind), report in zip(labels, reports):
        total = report.totals["total_cycles"]
        key = json.dumps(value)
        baseline_by_value.setdefault(key, total)
        speedup = round(baseline_by_value[key] / total, 4) if total else 0.0
        rows.append({"param": args.param, "value": value, "policy": kind,
                     "total_cycles": total,
                     "pagewalk_cycles": report.totals["pagewalk_cycles"],
                     "pw_ratio": report.totals["pw_ratio"],
                     "bandwidth_bytes": report.totals["bandwidth_bytes"],
                     "actions": report.totals["actions"],
                     "speedup": speedup})
        print(f"  {args.param}={value} {kind:>8}: cycles={total} "
              f"pw_ratio={report.totals['pw_ratio']:.4f} "
              f"speedup={speedup:.4f}")
    scenario = scenario_from_dict(raws[0])
    base = _out_base(args, scenario)
    if base is not None:
        import csv as _csv
        import io as _io
        buf = _io.StringIO()
        writer = _csv.DictWriter(buf, fieldnames=list(rows[0].keys()),
                                 lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
        named = {".sweep.csv": buf.getvalue(),
                 ".sweep.json": json.dumps(rows, indent=2) + "\n"}
        paths = _write_outputs(base, named, _manifest(args, scenario))
        print("  wrote: " + ", ".join(str(p) for p in paths))
    return 0


class _Parser(argparse.ArgumentParser):
    # usage problems are validation failures: exit 1, not argparse's 2
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="numasim",
        description="Deterministic multi-socket memory-system simulator")
    parser.add_argument("--version", action="version",
                        version=f"numasim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("scenario", help="scenario JSON file")
        p.add_argument("--set", action="append", metavar="PATH=VALUE",
                       help="override a scenario entry, e.g. run.seed=3")
        p.add_argument("--seed", type=int, help="override run.seed")
        p.add_argument("--duration", type=int,
                       help="override run.duration_quanta")
        p.add_argument("--out", help="output path base (writes JSON/CSV/manifest)")
        p.add_argument("--jobs", type=int, default=1,
                       help="parallel worker processes for multi-run commands")

    p_run = sub.add_parser("run", help="run one scenario")
    common(p_run)
    p_run.add_argument("--policy", choices=("linux", "mitosis", "phoenix"),
                       help="override policy.kind")
    p_run.add_argument("--timeseries", action="store_true",
                       help="record per-window counters")
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="run one scenario under several policies")
    common(p_cmp)
    p_cmp.add_argument("--policies", default="linux,mitosis,phoenix",
                       help="comma-separated policy kinds")
    p_cmp.set_defaults(func=cmd_compare)

    p_sweep = sub.add_parser("sweep", help="vary one scenario knob")
    common(p_sweep)
    p_sweep.add_argument("--param", required=True,
                         help=f"knob to vary: one of {', '.join(SWEEP_PARAMS)}")
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated JSON values")
    p_sweep.add_argument("--policies",
                         help="comma-separated policy kinds (default: scenario's)")
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValidationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # simulation failures: distinct exit code
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
