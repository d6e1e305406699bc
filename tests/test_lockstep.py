"""The engine stepped beside the reference's per-access loop.

reference.ReferenceSimulation charges each access on its own and walks
with reference.walk, without the engine's per-node tallies, its newest-
prefix skip or its one-node skip of AutoNUMA counting.  After every step
both simulations hold equal TLBs and PGD, PUD and PMD caches, in order,
and equal reports, and their finished reports are byte-identical and
carry the pinned digest.  The runs are the 27 packaged ones and the
VM-op and access-loop pin grids; the one-node mba runs are where the
reference counts accesses that the engine skips.
"""

import copy
import hashlib

import pytest

from numasim.cli import scenario_from_dict

import reference
import test_access_loop
import test_digests
import test_vm_ops

CASES = {
    **{f"{stem}-{policy}": (
        test_digests.packaged_raw(test_digests.SCENARIOS / f"{stem}.json",
                                  policy),
        test_digests.DIGESTS[stem][policy])
       for stem in test_digests.DIGESTS for policy in test_digests.POLICIES},
    **{f"vm_ops-{name}": (raw, test_vm_ops.DIGESTS[name])
       for name, raw in test_vm_ops.GRID.items()},
    **{f"access_loop-{name}": (raw, test_access_loop.DIGESTS[name])
       for name, raw in test_access_loop.GRID.items()},
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_engine_matches_the_per_access_reference_after_every_step(name):
    raw, digest = CASES[name]
    report = reference.lockstep(scenario_from_dict(copy.deepcopy(raw)))
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == digest
