"""numasim benchmark: run one workload repeatedly for a fixed time, print medians.

    python3 perfbench/run.py --workload interference --seed 21 --seconds 40 --trace 0

Each repetition is a fresh single-threaded interpreter running
`perfbench/worker.py` on the numasim sources in `src/`.  Repetitions start
while the next one is expected to finish within `--seconds`; at least one
always runs.  The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`.

With `--trace 0` the metrics are the end-to-end ones (host time, untraced):
events_per_s, wall_s, setup_s, peak_rss_mb and ok_share.  With `--trace 1`
untraced and traced repetitions alternate, and the metrics are the per-layer
figures of the traced ones plus trace_overhead (traced over untraced wall_s).
Every figure is the median over the repetitions.

An operation is one policy's simulation.  It fails if the worker fails, if
its report breaks an invariant or, at the scenario's own seed, differs from
the pinned digest, if its trace counts disagree with its report, or if its
report differs from that of another repetition with the same inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

END_TO_END_UNITS = {"events_per_s": "1/s", "wall_s": "s", "setup_s": "s",
                    "peak_rss_mb": "MB", "ok_share": "share"}
RUN_LIMIT_S = 150.0     # a worker still running after this is killed


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if "_ms." in name:
        return "ms"
    if name.endswith(("_ratio", "_per_walk")) or name == "trace_overhead":
        return "ratio"
    if name.endswith("_cycles"):
        return "cycles"
    return "count"


def worker_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # numpy's BLAS would start a thread pool at import; the simulator needs none
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(args, traced: bool, env: Dict[str, str]) -> Optional[dict]:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--trace", str(int(traced))]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd + ["--t0", repr(t0)], env=env, cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        print(f"worker timed out after {RUN_LIMIT_S} s", file=sys.stderr)
        return None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        print(f"worker exited with {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def machine() -> str:
    import numpy  # the simulator's one dependency; imported here only to name it
    return (f"{os.cpu_count()} cpus, Python {platform.python_version()}, "
            f"numpy {numpy.__version__}, {platform.machine()}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int,
                        help="run.seed for every operation (default: the "
                             "scenario's own, where digests are pinned)")
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "numasim" / "__init__.py").is_file():
        print(f"numasim sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = worker_env()
    # compile the sources once, so repetitions time what a user's rerun costs
    warm = subprocess.run([sys.executable, "-c", "import numasim.cli"], env=env,
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_LIMIT_S)
    if warm.returncode != 0:
        sys.stderr.write(warm.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    print(f"# workload {wl.name}: {wl.scenario} under {', '.join(wl.policies)}, "
          f"seed {args.seed if args.seed is not None else 'default'}, "
          f"trace {args.trace}; {machine()}")
    plain: List[dict] = []
    traced: List[dict] = []
    crashed = 0                  # operations of repetitions that failed outright
    start = time.perf_counter()
    longest = 0.0
    while not plain or (args.trace and not traced) or \
            time.perf_counter() - start + longest <= args.seconds:
        trace_this = bool(args.trace) and len(traced) < len(plain)
        began = time.perf_counter()
        out = run_worker(args, trace_this, env)
        longest = max(longest, time.perf_counter() - began)
        if out is None:
            crashed = len(wl.policies)
            break
        (traced if trace_this else plain).append(out)

    ops = [op for out in plain + traced for op in out["ops"]]
    digests: Dict[str, set] = {}
    for op in ops:
        digests.setdefault(op["policy"], set()).add(op["digest"])
    for op in ops:
        if len(digests[op["policy"]]) > 1:
            # repetitions of one input disagree: the run is not deterministic
            op["problems"].append("reports differ between repetitions")
        for problem in op["problems"]:
            print(f"# FAIL {op['policy']}: {problem}", file=sys.stderr)
    attempted = len(ops) + crashed
    failed = sum(1 for op in ops if op["problems"]) + crashed

    for p in plain:
        p["events_per_s"] = (sum(op["totals"]["events_issued"] for op in p["ops"])
                             / sum(op["run_s"] for op in p["ops"]))
        print(f"# repetition: events_per_s {p['events_per_s']:.1f} "
              f"wall_s {p['wall_s']:.4f} setup_s {p['setup_s']:.4f}")

    metrics: Dict[str, dict] = {}
    if plain and (traced or not args.trace):
        if args.trace:
            figures = {name: statistics.median(t["layers"][name] for t in traced)
                       for name in traced[0]["layers"]}
            figures["trace_overhead"] = (
                statistics.median(t["wall_s"] for t in traced)
                / statistics.median(p["wall_s"] for p in plain))
            units = {name: layer_unit(name) for name in figures}
        else:
            figures = {
                "events_per_s": statistics.median(p["events_per_s"] for p in plain),
                "wall_s": statistics.median(p["wall_s"] for p in plain),
                "setup_s": statistics.median(p["setup_s"] for p in plain),
                "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
                "ok_share": (attempted - failed) / attempted,
            }
            units = END_TO_END_UNITS
        metrics = {name: {"value": value, "unit": units[name]}
                   for name, value in figures.items()}

    print(f"# {len(plain)} untraced and {len(traced)} traced repetitions in "
          f"{time.perf_counter() - start:.1f} s; {attempted} operations, "
          f"{failed} failed (failed_share {failed / attempted:.4f} share)")
    for name, m in metrics.items():
        print(f"# {name:<36} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
