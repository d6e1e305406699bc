"""Machine model: NUMA nodes, cores, inter-node links, and access latencies.

The topology is static for the lifetime of a simulation.  Latency is expressed
in cycles relative to a local DRAM access; remote accesses scale by the link's
latency factor and by the congestion multipliers supplied by the caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

DEFAULT_LOCAL_LATENCY = 100
DEFAULT_REMOTE_FACTOR = 1.3
DEFAULT_NODE_BANDWIDTH = 128.0  # bytes per cycle per memory controller
DEFAULT_LINK_BANDWIDTH = 128.0  # bytes per cycle per directed link


class ConfigError(ValueError):
    """Raised for an inconsistent or incomplete machine description."""


@dataclass(frozen=True)
class NodeSpec:
    node_id: int
    bandwidth_capacity: float = DEFAULT_NODE_BANDWIDTH


@dataclass(frozen=True)
class CoreSpec:
    core_id: int
    node_id: int
    physical_core_id: int  # SMT siblings share this id


@dataclass(frozen=True)
class LinkSpec:
    from_node: int
    to_node: int
    latency_factor: float
    bandwidth_capacity: float = DEFAULT_LINK_BANDWIDTH


@dataclass
class Topology:
    nodes: List[NodeSpec]
    cores: List[CoreSpec]
    links: Dict[Tuple[int, int], LinkSpec]
    local_mem_latency: int = DEFAULT_LOCAL_LATENCY

    @property
    def node_ids(self) -> List[int]:
        return [n.node_id for n in self.nodes]

    def siblings(self, core_id: int) -> List[int]:
        phys = self.cores[core_id].physical_core_id
        return [c.core_id for c in self.cores
                if c.physical_core_id == phys and c.core_id != core_id]

    def node_of_core(self, core_id: int) -> int:
        return self.cores[core_id].node_id


def build_topology(config: dict) -> Topology:
    """Construct a validated Topology from a machine description.

    Recognized keys: nodes, cores_per_node, smt, local_latency, remote_factor,
    node_bandwidth, link_bandwidth, link_factors.  Every pair of distinct
    nodes receives a link in each direction; self links always have a latency
    factor of exactly 1.0.  Core ids are unique and node-major by construction,
    and with SMT each consecutive pair shares one physical core.

    Raises ConfigError for a missing or out-of-range link factor or
    nonsensical counts.
    """
    n_nodes = int(config.get("nodes", 1))
    cores_per_node = int(config.get("cores_per_node", 8))
    smt = bool(config.get("smt", False))
    local_latency = int(config.get("local_latency", DEFAULT_LOCAL_LATENCY))
    remote_factor = float(config.get("remote_factor", DEFAULT_REMOTE_FACTOR))
    node_bw = float(config.get("node_bandwidth", DEFAULT_NODE_BANDWIDTH))
    link_bw = float(config.get("link_bandwidth", DEFAULT_LINK_BANDWIDTH))
    factors = config.get("link_factors")

    if n_nodes < 1:
        raise ConfigError("machine needs at least one node")
    if cores_per_node < 1:
        raise ConfigError("machine needs at least one core per node")
    if smt and cores_per_node % 2:
        raise ConfigError("smt machines need an even logical core count per node")
    if local_latency < 1:
        raise ConfigError("local latency must be at least one cycle")

    nodes = [NodeSpec(i, node_bw) for i in range(n_nodes)]

    cores = []
    core_id = 0
    for node_id in range(n_nodes):
        for i in range(cores_per_node):
            # with SMT, consecutive core ids pair up on one physical core
            phys = (node_id * cores_per_node + i) // 2 if smt \
                else node_id * cores_per_node + i
            cores.append(CoreSpec(core_id, node_id, phys))
            core_id += 1

    links = {}
    for a in range(n_nodes):
        for b in range(n_nodes):
            if a == b:
                factor = 1.0
            elif factors is not None:
                try:
                    factor = float(factors[a][b])
                except (IndexError, KeyError, TypeError) as exc:
                    raise ConfigError(f"missing link factor for {a}->{b}") from exc
            else:
                factor = remote_factor
            if a != b and not 1.0 <= factor <= 10.0:
                raise ConfigError(f"link factor {a}->{b} out of range: {factor}")
            links[(a, b)] = LinkSpec(a, b, factor, link_bw)

    return Topology(nodes, cores, links, local_latency)


def access_latency(topo: Topology, from_node: int, to_node: int,
                   contention=None) -> int:
    """Cycles for one memory access from a core on from_node to memory on to_node.

    latency = local latency * link factor * destination controller multiplier
    * link multiplier.  The link multiplier only applies to remote accesses.
    The result is rounded half up to a whole cycle count and is never below
    the uncontended local latency for a local access.
    """
    link = topo.links.get((from_node, to_node))
    if link is None:
        raise ConfigError(f"no link {from_node}->{to_node}")
    cycles = topo.local_mem_latency * link.latency_factor
    if contention is not None:
        cycles *= contention.node_multiplier(to_node)
        if from_node != to_node:
            cycles *= contention.link_multiplier(from_node, to_node)
    return int(math.floor(cycles + 0.5))

