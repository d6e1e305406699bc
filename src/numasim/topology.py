"""Machine model: NUMA nodes, cores, inter-node links, and access latencies.

The machine's shape is fixed for the lifetime of a simulation; its prices
are not.  Latency is expressed in cycles relative to a local DRAM access;
remote accesses scale by the link's latency factor and by the congestion
multipliers of the quantum.  Prices are fixed per quantum, so they are
computed once into a table (`latency_table`), kept as `Topology.cycles`, and
every access reads its price from there.
"""

from __future__ import annotations

import math
import typing
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

DEFAULT_LOCAL_LATENCY = 100
DEFAULT_REMOTE_FACTOR = 1.3
DEFAULT_NODE_BANDWIDTH = 128.0  # bytes per cycle per memory controller
DEFAULT_LINK_BANDWIDTH = 128.0  # bytes per cycle per directed link
DEFAULT_TLB_ENTRIES = 64
DEFAULT_ARITY = 512

MACHINE_KEYS = {
    "nodes", "cores_per_node", "smt", "local_latency", "remote_factor",
    "node_bandwidth", "link_bandwidth", "link_factors", "tlb_entries", "arity",
}


class ConfigError(ValueError):
    """Bad input: a scenario value, file or argument that fails validation.

    The message starts with the offending key, e.g. ``cores_per_node: must
    be even with smt, got 3``; a caller that knows the enclosing path
    prefixes it.
    """


_EXPECTED = {bool: "true or false", int: "an integer", float: "a number",
             str: "a string"}


def expect(value, kind: type, where: str):
    """value, if it has the JSON type kind (bool, int, float or str): a bool
    is no number and an int is also a float, so true, 2.5 and "2" are not
    integers.  Otherwise raises ConfigError naming where."""
    if isinstance(value, bool) != (kind is bool) or not isinstance(
            value, (int, float) if kind is float else kind):
        raise ConfigError(f"{where}: expected {_EXPECTED[kind]}, got {value!r}")
    return value


def int_at_least(value, minimum: int, where: str) -> int:
    """value, if it is an integer no smaller than minimum."""
    if expect(value, int, where) < minimum:
        raise ConfigError(f"{where}: must be at least {minimum}, got {value}")
    return value


def check_field_types(spec) -> None:
    """`expect` each bool, int, float or str field of dataclass instance spec
    to have its annotated type (an Optional one may also be None); other
    annotations are left to the spec's own validate()."""
    for name, kind in typing.get_type_hints(type(spec)).items():
        value = getattr(spec, name)
        if typing.get_origin(kind) is typing.Union:  # Optional[X]
            kind = type(None) if value is None else typing.get_args(kind)[0]
        if kind in _EXPECTED:
            expect(value, kind, name)


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
    tlb_entries: int = DEFAULT_TLB_ENTRIES
    arity: int = DEFAULT_ARITY  # radix of each page-table level
    # the price in force of every from->to access: uncontended until the
    # engine installs each quantum's contended table
    cycles: Dict[int, Dict[int, int]] = field(init=False, repr=False)

    def __post_init__(self):
        self.cycles = latency_table(self)

    @property
    def node_ids(self) -> List[int]:
        return [n.node_id for n in self.nodes]

    def siblings(self, core_id: int) -> List[int]:
        phys = self.cores[core_id].physical_core_id
        return [c.core_id for c in self.cores
                if c.physical_core_id == phys and c.core_id != core_id]


def build_topology(config: dict) -> Topology:
    """Construct a validated Topology from a machine description.

    The one reader of a scenario's machine block (`MACHINE_KEYS`): it gives
    each key its default and checks its type and range, raising ConfigError
    with a message that starts with the key.  Each pair of distinct nodes
    gets a link each way whose factor, link_factors[a][b] or else
    remote_factor, lies in [1, 10]; self links have factor 1.0 (the diagonal
    is not read).  Core ids are node-major, and with smt each consecutive
    pair shares one physical core, so cores_per_node must be even.
    """
    def number(key: str, default: float) -> float:
        return float(expect(config.get(key, default), float, key))

    n_nodes = int_at_least(config.get("nodes", 1), 1, "nodes")
    cores_per_node = int_at_least(config.get("cores_per_node", 8), 1,
                                  "cores_per_node")
    smt = expect(config.get("smt", False), bool, "smt")
    local_latency = int_at_least(
        config.get("local_latency", DEFAULT_LOCAL_LATENCY), 1, "local_latency")
    remote_factor = number("remote_factor", DEFAULT_REMOTE_FACTOR)
    node_bw = number("node_bandwidth", DEFAULT_NODE_BANDWIDTH)
    link_bw = number("link_bandwidth", DEFAULT_LINK_BANDWIDTH)
    tlb_entries = int_at_least(config.get("tlb_entries", DEFAULT_TLB_ENTRIES),
                               1, "tlb_entries")
    arity = int_at_least(config.get("arity", DEFAULT_ARITY), 4, "arity")
    factors = config.get("link_factors")

    if smt and cores_per_node % 2:
        raise ConfigError(
            f"cores_per_node: must be even with smt, got {cores_per_node}")
    if not 1.0 <= remote_factor <= 10.0:
        raise ConfigError(
            f"remote_factor: must be within [1, 10], got {remote_factor}")
    for key, bandwidth in (("node_bandwidth", node_bw),
                           ("link_bandwidth", link_bw)):
        if bandwidth <= 0:
            raise ConfigError(f"{key}: must be positive, got {bandwidth}")
    if factors is not None:
        if not isinstance(factors, list):
            raise ConfigError(
                f"link_factors: expected a list of rows, got {factors!r}")
        for a, row in enumerate(factors):
            if not isinstance(row, list):
                raise ConfigError(f"link_factors[{a}]: expected a list, got {row!r}")
            for b, factor in enumerate(row):
                expect(factor, float, f"link_factors[{a}][{b}]")

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
            elif factors is None:
                factor = remote_factor
            else:
                where = f"link_factors[{a}][{b}]"
                if a >= len(factors) or b >= len(factors[a]):
                    raise ConfigError(
                        f"{where}: missing, the machine has {n_nodes} nodes")
                factor = float(factors[a][b])
                if not 1.0 <= factor <= 10.0:
                    raise ConfigError(
                        f"{where}: must be within [1, 10], got {factor}")
            links[(a, b)] = LinkSpec(a, b, factor, link_bw)

    return Topology(nodes, cores, links, local_latency, tlb_entries, arity)


def latency_table(topo: Topology, contention=None) -> Dict[int, Dict[int, int]]:
    """Cycles for one memory access from a core on each node to memory on each.

    latency = local latency * link factor * destination controller multiplier
    * link multiplier, with both multipliers taken from contention (none when
    it is None).  The link multiplier only applies to remote accesses.  Each
    price is rounded half up to a whole cycle count and is never below the
    uncontended local latency for a local access.
    """
    table: Dict[int, Dict[int, int]] = {}
    for (a, b), link in topo.links.items():
        cycles = topo.local_mem_latency * link.latency_factor
        if contention is not None:
            cycles *= contention.node_multiplier(b)
            if a != b:
                cycles *= contention.link_multiplier(a, b)
        table.setdefault(a, {})[b] = int(math.floor(cycles + 0.5))
    return table


def access_latency(topo: Topology, from_node: int, to_node: int) -> int:
    """Cycles for one memory access from a core on from_node to memory on to_node.

    Prices are fixed per quantum: this reads the table in force,
    `topo.cycles`.
    """
    return topo.cycles[from_node][to_node]
