"""Command-line front end.

Three subcommands: `run` executes one scenario under one policy, `compare`
runs the same scenario under several policies and reports speedups, and
`sweep` varies one scenario knob across a list of values.  Each builds its
variants as scenario dicts and shares one path from there: `_run_all`
parses every variant before any simulation starts, then runs them, in a
process pool with `--jobs`; `_write` puts the outputs and a manifest
listing each file's sha256 under one base, so runs can be audited and
reproduced byte for byte.  `topology.build_topology` checks the machine
block, `PolicyKind.validate` and `WorkloadSpec.validate` the policy and
workload specs, and this module the keys and the run block.  Any bad input
raises `topology.ConfigError` naming the full path to the offending entry
and exits 1; a failure inside a run exits 2.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import hashlib
import json
import os
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from . import __version__, metrics, workload
from .engine import (DEFAULT_QUANTUM_CYCLES, Scenario, WorkloadEntry,
                     run_scenario)
from .sched import PolicyKind
from .topology import (MACHINE_KEYS, ConfigError, build_topology, expect,
                       int_at_least)

OUT_ENV_VAR = "NUMASIM_OUT"
NAME_MAX = 255  # bytes in a file name on common file systems

TOP_KEYS = {"name", "machine", "workloads", "policy", "run"}
WORKLOAD_KEYS = {"preset", "spec", "start", "priority", "overrides"}
RUN_KEYS = {"duration", "seed", "quantum", "timeseries", "prefault"}

# sweep param -> the (block, key) it sets in each variant; the fifth,
# antagonist_threads, sets the antagonist workload's thread_count
SWEEP_PATHS = {"nodes": ("machine", "nodes"),
               "replicas": ("policy", "force_replicas"),
               "threshold": ("policy", "threshold_pw_ratio"),
               "remote_factor": ("machine", "remote_factor")}
SWEEP_PARAMS = (*SWEEP_PATHS, "antagonist_threads")

_SPEC_FIELDS = {f.name for f in dataclasses.fields(workload.WorkloadSpec)}
_POLICY_FIELDS = {f.name for f in dataclasses.fields(PolicyKind)}


def _reject_unknown(section: dict, allowed: set, where: str) -> None:
    """Refuse a section that is not an object or has a key outside allowed."""
    if not isinstance(section, dict):
        raise ConfigError(f"{where}: expected an object")
    for key in section:
        if key not in allowed:
            raise ConfigError(f"{where}: unknown key {key!r}; accepted: "
                              f"{', '.join(sorted(allowed))}")


def _freeze_mix(fields: dict) -> dict:
    """fields with a vm_op_mix object replaced by its sorted (kind, share)
    tuple, the form WorkloadSpec holds."""
    if isinstance(fields.get("vm_op_mix"), dict):
        fields = dict(fields)
        fields["vm_op_mix"] = tuple(sorted(fields["vm_op_mix"].items()))
    return fields


def _workload_entry(data: dict, where: str) -> WorkloadEntry:
    _reject_unknown(data, WORKLOAD_KEYS, where)
    has_preset = "preset" in data
    has_spec = "spec" in data
    if has_preset == has_spec:
        raise ConfigError(f"{where}: give exactly one of 'preset' or 'spec'")
    overrides = data.get("overrides", {})
    _reject_unknown(overrides, _SPEC_FIELDS, f"{where}.overrides")
    if has_preset:
        try:
            spec = workload.preset(data["preset"], **_freeze_mix(overrides))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"{where}: {exc}") from exc
    else:
        if overrides:
            raise ConfigError(
                f"{where}: 'overrides' only applies to presets; edit 'spec'")
        _reject_unknown(data["spec"], _SPEC_FIELDS, f"{where}.spec")
        try:
            spec = workload.WorkloadSpec(**_freeze_mix(data["spec"]))
            spec.validate()
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{where}.spec: {exc}") from exc
    start = int_at_least(data.get("start", 0), 0, f"{where}.start")
    priority = data.get("priority")
    if priority is not None and priority not in workload.PRIORITIES:
        raise ConfigError(
            f"{where}.priority: must be one of {workload.PRIORITIES}")
    return WorkloadEntry(spec=spec, start_quantum=start, priority=priority)


def scenario_from_dict(raw: dict, source: str = "scenario") -> Scenario:
    _reject_unknown(raw, TOP_KEYS, source)
    for required in ("machine", "workloads", "policy"):
        if required not in raw:
            raise ConfigError(f"{source}: missing required key {required!r}")

    machine = raw["machine"]
    _reject_unknown(machine, MACHINE_KEYS, f"{source}.machine")
    try:
        arity = build_topology(machine).arity
    except ConfigError as exc:
        raise ConfigError(f"{source}.machine.{exc}") from exc

    workloads_raw = raw["workloads"]
    if not isinstance(workloads_raw, list) or not workloads_raw:
        raise ConfigError(f"{source}.workloads: expected a non-empty list")
    entries = [_workload_entry(item, f"{source}.workloads[{i}]")
               for i, item in enumerate(workloads_raw)]
    for i, entry in enumerate(entries):
        if entry.spec.footprint_pages > arity ** 4:
            raise ConfigError(
                f"{source}.workloads[{i}]: footprint_pages "
                f"{entry.spec.footprint_pages} exceeds the {arity ** 4} pages "
                f"a four-level table of arity {arity} maps")

    policy_raw = raw["policy"]
    if not isinstance(policy_raw, dict) or "kind" not in policy_raw:
        raise ConfigError(f"{source}.policy: expected an object with 'kind'")
    _reject_unknown(policy_raw, _POLICY_FIELDS, f"{source}.policy")
    try:
        policy = PolicyKind(**policy_raw)
        policy.validate()
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{source}.policy: {exc}") from exc

    run_raw = raw.get("run", {})
    _reject_unknown(run_raw, RUN_KEYS, f"{source}.run")
    name = expect(raw.get("name", "scenario"), str, f"{source}.name")
    try:
        name_bytes = len(name.encode())
    except UnicodeEncodeError:  # a lone surrogate: no file name holds it
        name_bytes = None
    if name_bytes is None or name in ("", ".", "..") \
            or Path(name).name != name or "\0" in name:
        raise ConfigError(f"{source}.name: must be a file name, got {name!r}")
    seed = int_at_least(run_raw.get("seed", 1), 0, f"{source}.run.seed")
    # the longest file _write makes under $NUMASIM_OUT
    longest = name_bytes + len(f"-{policy.kind}-s{seed}.timeseries.csv")
    if longest > NAME_MAX:
        raise ConfigError(f"{source}.name: too long, the output file name "
                          f"would take {longest} bytes, over {NAME_MAX}")

    return Scenario(
        machine=machine,
        workloads=entries,
        policy=policy,
        duration_quanta=int_at_least(run_raw.get("duration", 100), 1,
                                     f"{source}.run.duration"),
        rng_seed=seed,
        quantum_cycles=int_at_least(
            run_raw.get("quantum", DEFAULT_QUANTUM_CYCLES), 1,
            f"{source}.run.quantum"),
        timeseries=expect(run_raw.get("timeseries", False), bool,
                          f"{source}.run.timeseries"),
        prefault=expect(run_raw.get("prefault", False), bool,
                        f"{source}.run.prefault"),
        name=name)


def load_scenario_file(path: str) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON: {exc}") from exc
    if isinstance(raw, dict) and "name" not in raw:
        raw["name"] = Path(path).stem
    return raw


def apply_set(raw: dict, assignment: str) -> None:
    """Apply one --set override of the form dotted.path=json_value."""
    if "=" not in assignment:
        raise ConfigError(f"--set {assignment!r}: expected path=value")
    path, _, text = assignment.partition("=")
    try:
        value = json.loads(text)
    except json.JSONDecodeError:
        value = text
    *parents, last = path.split(".")
    node = raw
    for part in parents:
        try:
            node = node[int(part) if part.lstrip("-").isdigit() else part]
        except (KeyError, IndexError, TypeError):
            raise ConfigError(
                f"--set {assignment!r}: no such path element {part!r}")
    if isinstance(node, list):
        if not last.lstrip("-").isdigit():
            raise ConfigError(
                f"--set {assignment!r}: list index expected, got {last!r}")
        if not -len(node) <= int(last) < len(node):
            raise ConfigError(
                f"--set {assignment!r}: no such path element {last!r}")
        node[int(last)] = value
    elif isinstance(node, dict):
        node[last] = value
    else:
        raise ConfigError(
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
        raw.setdefault("run", {})["duration"] = args.duration
    if getattr(args, "timeseries", False):
        raw.setdefault("run", {})["timeseries"] = True
    return raw


def _sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _run_all(raws: List[dict], jobs: int = 1
             ) -> Tuple[List[Scenario], List[metrics.MetricsReport]]:
    """Parse every variant, then run each; one bad variant stops the command
    before any simulation starts.  A forked pool starts all its workers at
    once, so it gets no more than there are variants."""
    int_at_least(jobs, 1, "--jobs")
    scenarios = [scenario_from_dict(raw) for raw in raws]
    jobs = min(jobs, len(scenarios))
    if jobs > 1:
        # imported here: multiprocessing is set-up time and memory a serial
        # run never uses
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return scenarios, list(pool.map(run_scenario, scenarios))
    return scenarios, [run_scenario(s) for s in scenarios]


def _write(args, scenario: Scenario, named: Dict[str, str]) -> None:
    """Write each suffix's text next to the output base, --out or else
    $NUMASIM_OUT/<name>-<policy>-s<seed>, then a manifest with every
    file's sha256; without a base, write nothing."""
    if args.out:
        base = Path(args.out)
    elif os.environ.get(OUT_ENV_VAR):
        base = Path(os.environ[OUT_ENV_VAR]) / (
            f"{scenario.name}-{scenario.policy.kind}-s{scenario.rng_seed}")
    else:
        return
    base.parent.mkdir(parents=True, exist_ok=True)
    written = []
    for suffix, text in named.items():
        path = base.with_name(base.name + suffix)
        path.write_text(text)
        written.append(path)
    manifest = {
        "tool": f"numasim {__version__}",
        "argv": sys.argv[1:],
        "scenario_path": str(args.scenario),
        "scenario_sha256": _sha256_file(Path(args.scenario)),
        "fingerprint": scenario.fingerprint(),
        "base_fingerprint": scenario.base_fingerprint(),
        "seed": scenario.rng_seed,
        "policy": scenario.policy.kind,
        "outputs": {str(p): _sha256_file(p) for p in written},
    }
    manifest_path = base.with_name(base.name + ".manifest.json")
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True))
    written.append(manifest_path)
    print("  wrote: " + ", ".join(str(p) for p in written))


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


def _with_policy(raw: dict, kind: str) -> dict:
    variant = copy.deepcopy(raw)
    variant.setdefault("policy", {})["kind"] = kind
    return variant


def cmd_run(args) -> int:
    [scenario], [report] = _run_all([_prepare_raw(args)])
    _print_report(report)
    named = {".json": report.to_json() + "\n", ".csv": report.to_csv()}
    if scenario.timeseries:
        named[".timeseries.csv"] = report.timeseries_csv()
    _write(args, scenario, named)
    return 0


def cmd_compare(args) -> int:
    raw = _prepare_raw(args)
    policies = [p.strip() for p in args.policies.split(",") if p.strip()]
    if len(policies) < 2:
        raise ConfigError("--policies needs at least two policy kinds")
    scenarios, reports = _run_all([_with_policy(raw, k) for k in policies],
                                  args.jobs)
    comparison = metrics.compare(reports)
    print(f"scenario {comparison['scenario_name']!r} "
          f"baseline={comparison['baseline_policy']}")
    for row in comparison["policies"]:
        print(f"  {row['policy']:>8}: cycles={row['total_cycles']} "
              f"pw_ratio={row['pw_ratio']:.4f} actions={row['actions']} "
              f"speedup={row['speedup']:.4f}")
    named = {".compare.json": json.dumps(comparison, indent=2,
                                         sort_keys=True) + "\n",
             ".compare.csv": metrics.compare_csv(comparison)}
    for report in reports:
        named[f".{report.policy_kind}.json"] = report.to_json() + "\n"
        named[f".{report.policy_kind}.csv"] = report.to_csv()
    _write(args, scenarios[0], named)
    return 0


def _sweep_apply(variant: dict, name: str, value, antagonist: int) -> None:
    if name == "antagonist_threads":
        entry = variant["workloads"][antagonist]
        block = entry.setdefault("overrides" if "preset" in entry else "spec", {})
        block["thread_count"] = value
        return
    section, key = SWEEP_PATHS[name]
    variant.setdefault(section, {})[key] = value


def cmd_sweep(args) -> int:
    raw = _prepare_raw(args)
    if args.param not in SWEEP_PARAMS:
        raise ConfigError(
            f"unknown parameter {args.param!r}; choose from "
            f"{', '.join(SWEEP_PARAMS)}")
    try:
        values = [json.loads(v) for v in args.values.split(",") if v.strip()]
    except json.JSONDecodeError as exc:
        raise ConfigError(f"--values: not valid JSON: {exc}") from exc
    if not values:
        raise ConfigError("--values: empty value list")
    policies = [p.strip() for p in (args.policies or "").split(",") if p.strip()]
    if not policies:
        policies = [raw.get("policy", {}).get("kind", "linux")]
    antagonist = -1  # the last low-priority workload, else the last one
    if args.param == "antagonist_threads":
        for i, entry in enumerate(scenario_from_dict(raw).workloads):
            if entry.process_priority == "low":
                antagonist = i
    raws, labels = [], []
    for value in values:
        for kind in policies:
            variant = _with_policy(raw, kind)
            _sweep_apply(variant, args.param, value, antagonist)
            raws.append(variant)
            labels.append((value, kind))
    scenarios, reports = _run_all(raws, args.jobs)
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
    _write(args, scenarios[0], {".sweep.csv": metrics.csv_text(rows[0], rows),
                                ".sweep.json": json.dumps(rows, indent=2) + "\n"})
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
                       help="override run.duration")
        p.add_argument("--out", help="output path base (writes JSON/CSV/manifest)")

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
    for p in (p_cmp, p_sweep):
        p.add_argument("--jobs", type=int, default=1,
                       help="parallel worker processes, one run each")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigError as exc:  # bad input
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # anything raised inside the run
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
