"""Digest gate: every packaged scenario under every policy writes a pinned report.

Each run uses the scenario's own seed and duration, with the per-window
timeseries switched on so the window history is covered too.  A change that
moves one byte of any report fails here.  Regenerate the digests only for an
intended model change, and say so in CHANGES.md.
"""

import hashlib
from pathlib import Path

import pytest

from numasim.cli import load_scenario_file, scenario_from_dict
from numasim.engine import run_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
POLICIES = ("linux", "mitosis", "phoenix")

# sha256 of MetricsReport.to_json() per scenario file stem and policy kind
DIGESTS = {
    "baseline": {
        "linux":
            "d949af7d6e81cf662a8eebe7a50dff21334c6d15c747c0b4770cd09660424f3a",
        "mitosis":
            "ceb5ca9e5515e2e09d0543f002b90e22b89b00620a405d9672c5bb4e327ca8db",
        "phoenix":
            "2cd6ae3234eae21b31a0fde7f8041fd93ebfd07ab1ade532a667ab9d322955f0",
    },
    "consolidation": {
        "linux":
            "0a3d7021efdcc9bcd8079c378586feebb91ac20ed6e9c5ea1890a887c8836d03",
        "mitosis":
            "5fa9de68e17fe0c7ae0b5be5b98139efe741c630e3f12d6e5bfae11c396c386f",
        "phoenix":
            "2f229f07987d85c6da51b5f17bb654d6145f31eed10c305dd88e01b52ad7278d",
    },
    "follow_tables": {
        "linux":
            "9838d55e7ec5df787dbc5a32ea3362984fa48bca5de5c1415e11b9fef172788d",
        "mitosis":
            "aa0df7b5a2b365a40959678a88c05625da5924c51433bc25089a1da1dd9ac842",
        "phoenix":
            "5aee057401a1386f0c2f164edda0e4c4025ca0ceef9aa9cd503b9fb15678b381",
    },
    "mba": {
        "linux":
            "33bb24cc50dd3860f8b4e4fb4c41e17b3f2dbaa3fba7195d2fb766f13e2f5fe1",
        "mitosis":
            "3e9de0db5afbbeea7ef941f82d96bb08c6535edb51f61f010b47548c522fcc13",
        "phoenix":
            "74539a13c6e1658fcaa6744fc5dff10fde9f83bed770e017f746a8d7a2ad9aee",
    },
    "ondemand": {
        "linux":
            "3989f5a1d81a03b5f61c67ac269ef3c86e1d9f9274ad13c2414a51b0c01ff7b2",
        "mitosis":
            "765e8b58d4e15eb4d8820b5a5065272dad67ee71618c362080bc0444a65e3935",
        "phoenix":
            "7955db6b00edbd87b9b5103f6d739ccc4bd30ebbdbb13790db7bc3a7a6c34762",
    },
    "policy_ordering": {
        "linux":
            "9ec3a52a7f130104fe02a69aa173fccdfe5d01b65d9134e53a16d6c94625b435",
        "mitosis":
            "fe4a46b7423d387539ee9b30150623fc4ddfc0777fb43edbaf407632af8a837f",
        "phoenix":
            "cabad016149f1d1cb4d1d66707ee7f6f430f981a52c85d0c4c10152b2c2f41dd",
    },
    "replica_sweep": {
        "linux":
            "32c76c13db5114a3ba0b1aa15c9442d9a2328710ccfc89e986f37ce09aecce52",
        "mitosis":
            "70ee6ce1a625727513888f61725d0dc2eb638b93d9a3fa94aee85180b715d21a",
        "phoenix":
            "170932b5a6fb6edae63bb4592d2d2e3544e156bd16547a0c3cc06b321620a297",
    },
    "stream_btree_interference": {
        "linux":
            "26624cfa9e3664cdbd1a6b77141d33a52a7383dcf46b97b483faefb0d202e240",
        "mitosis":
            "63b5d28c7cfe16eafa5fe75e529051dd29e8d6724bf153d22bec95d501deb24a",
        "phoenix":
            "e2cb133dd7e0708737714e5dc5142ea9cdc703bcde6748e7d09ed8c3ce5c20ce",
    },
    "upi_interference": {
        "linux":
            "809c6c3a058a73ec1bff1695357aca11aed06c6017e34305112765a5eba56044",
        "mitosis":
            "96a783c1f6c07c44f9d33a4d03e877c3ec636c1ee09aaa7ac710b952c9555cf0",
        "phoenix":
            "9f3343dce23adf32137ac857239ef476cfd2ddfa3236c494d7b912a251d8a48b",
    },
}


def packaged_raw(path: Path, policy: str) -> dict:
    """The scenario file under policy, with the timeseries on."""
    raw = load_scenario_file(str(path))
    raw["policy"]["kind"] = policy
    raw.setdefault("run", {})["timeseries"] = True
    return raw


def report_digest(path: Path, policy: str) -> str:
    report = run_scenario(scenario_from_dict(packaged_raw(path, policy)))
    return hashlib.sha256(report.to_json().encode()).hexdigest()


def test_every_packaged_scenario_is_pinned():
    assert sorted(DIGESTS) == sorted(p.stem for p in SCENARIOS.glob("*.json"))
    for stem, by_policy in DIGESTS.items():
        assert sorted(by_policy) == sorted(POLICIES), stem


@pytest.mark.parametrize("stem,policy", [
    (stem, policy) for stem in sorted(DIGESTS) for policy in POLICIES])
def test_report_digest_is_unchanged(stem, policy):
    assert report_digest(SCENARIOS / f"{stem}.json", policy) == \
        DIGESTS[stem][policy]
