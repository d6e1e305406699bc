"""The benchmark's workloads: a packaged scenario, the changes made to it, and
the policies it runs under.

Each workload is run the way `numasim compare` runs a scenario: the scenario
file is loaded once, then each policy is set in a copy of it and simulated.
The reports at the scenario's own seed are pinned by sha256 in `DIGESTS`.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str                 # path relative to the repository root
    policies: Tuple[str, ...]
    duration: Optional[int] = None                   # run.duration, if changed
    overrides: Dict[str, object] = field(default_factory=dict)  # workloads[0]

    def raw_for(self, base: dict, policy: str, seed: Optional[int]) -> dict:
        """The scenario dict one operation runs: base plus this workload's changes."""
        raw = copy.deepcopy(base)
        raw["policy"]["kind"] = policy
        run = raw.setdefault("run", {})
        if self.duration is not None:
            run["duration"] = self.duration
        if seed is not None:
            run["seed"] = seed
        if self.overrides:
            raw["workloads"][0].setdefault("overrides", {}).update(self.overrides)
        return raw


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    # the paper's headline comparison: a TLB-hostile victim beside a
    # bandwidth hog, so the work is walks, TLB/PWC updates and contention
    Workload("interference", "scenarios/policy_ordering.json",
             ("linux", "mitosis", "phoenix")),
    # ten times the preset's VM-op rate, so the page-table write path
    # (leaf mutation over the replica ring, lock wait, shootdowns) dominates
    Workload("vm_churn", "scenarios/replica_sweep.json", ("linux", "mitosis"),
             duration=200, overrides={"vm_ops_per_kilo_access": 50}),
    # the only workload where MBA defers events, so the backlog grows
    Workload("throttled", "scenarios/mba.json", ("phoenix",), duration=400),
)}

# seed a later change uses to confirm a claim made at the default seeds;
# only the report invariants gate correctness there
HELD_OUT_SEED = 101

# sha256 of MetricsReport.to_json() per workload and policy at the
# scenario's own seed (21, 7 and 11); `numasim compare` writes the same text
DIGESTS: Dict[str, Dict[str, str]] = {
    "interference": {
        "linux": "2c4a30194773fe537cd52ad1969098da00a3a5bd879ecc091b0cfb845c7b732f",
        "mitosis": "ff10e5853e5e2b988f385066cae358b453491bad66a4493c138cda840297acaf",
        "phoenix": "0286da518200ae935318dac28f490eda2a5d5a8c1eaa7bf8fc9662eae3ebaf7a",
    },
    "vm_churn": {
        "linux": "9eb38a6fd578ec76b3a967d687c564e428206bf86bed7fa0bd0e8676f73a6ea9",
        "mitosis": "b0d8a7cc120387f07dcf0fcd859319770327caaf9fe628543710288c5594a1bc",
    },
    "throttled": {
        "phoenix": "eeec91462344451df09fbc9ab365c6d57353381301289ec6ecf584b51da60f2e",
    },
}
