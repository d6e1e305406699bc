"""Shared builders for the test suite."""

import re

from numasim.topology import build_topology, latency_table

_acceptance_outcomes = {}


def pytest_runtest_logreport(report):
    if "test_acceptance" not in report.nodeid:
        return
    if report.failed or report.when == "call":
        _acceptance_outcomes.setdefault(report.nodeid, report.outcome)


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_outcomes:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for nodeid in sorted(_acceptance_outcomes):
        match = re.search(r"test_criterion_0?(\d+)_(\w+)", nodeid)
        if not match:
            continue
        number, label = match.groups()
        outcome = _acceptance_outcomes[nodeid]
        verdict = {"passed": "PASS", "failed": "FAIL"}.get(outcome,
                                                           outcome.upper())
        terminalreporter.write_line(
            f"[acceptance] criterion {number} ({label.replace('_', ' ')}): "
            f"{verdict}")


class StubContention:
    """Fixed multipliers so latency math can be checked in isolation."""

    def __init__(self, node=1.0, link=1.0):
        self._node = node
        self._link = link

    def node_multiplier(self, node_id):
        return self._node

    def link_multiplier(self, src, dst):
        return self._link


def contend(topo, node=1.0, link=1.0):
    """Put the prices these fixed multipliers give in force on topo, as the
    engine does with each quantum's contention."""
    topo.cycles = latency_table(topo, StubContention(node, link))


def make_topo(nodes=2, cores_per_node=4, **extra):
    config = {"nodes": nodes, "cores_per_node": cores_per_node}
    config.update(extra)
    return build_topology(config)
