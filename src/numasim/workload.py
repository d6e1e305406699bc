"""Synthetic memory-access and VM-operation streams.

Generation is a pure function of (spec, seed, quantum index, thread id), so
any quantum of any thread can be regenerated independently and the engine
stays deterministic no matter how scheduling interleaves the tasks.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

PATTERNS = ("uniform_random", "zipfian", "sequential")
VM_OP_KINDS = ("map", "unmap", "protect", "remap")
PRIORITIES = ("high", "low")
DATA_POLICIES = ("first_touch", "interleave")


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    thread_count: int
    footprint_pages: int
    pattern: str
    zipf_theta: float = 0.99
    accesses_per_quantum_per_thread: int = 100
    vm_ops_per_kilo_access: float = 0.0
    vm_op_mix: Tuple[Tuple[str, float], ...] = ()
    vm_range_mean_pages: int = 8
    priority: str = "high"
    bandwidth_intensity: float = 1.0  # cachelines moved per memory-reaching access
    llc_miss_rate: float = 1.0
    data_policy: str = "first_touch"

    def validate(self) -> None:
        if self.thread_count < 1:
            raise ValueError("thread_count must be positive")
        if self.footprint_pages < 1:
            raise ValueError("footprint_pages must be positive")
        if self.pattern not in PATTERNS:
            raise ValueError(f"unknown pattern {self.pattern!r}")
        if self.pattern == "zipfian" and self.zipf_theta <= 0:
            raise ValueError("zipf_theta must be positive")
        if self.accesses_per_quantum_per_thread < 1:
            raise ValueError("accesses_per_quantum_per_thread must be positive")
        if self.vm_ops_per_kilo_access < 0:
            raise ValueError("vm_ops_per_kilo_access cannot be negative")
        if self.vm_ops_per_kilo_access > 0:
            weights = dict(self.vm_op_mix)
            if not weights or sum(weights.values()) <= 0:
                raise ValueError("vm_op_mix needed when vm ops are enabled")
            for kind, w in weights.items():
                if kind not in VM_OP_KINDS:
                    raise ValueError(f"unknown vm op kind {kind!r}")
                if w < 0:
                    raise ValueError("vm_op_mix weights cannot be negative")
        if self.vm_range_mean_pages < 1:
            raise ValueError("vm_range_mean_pages must be positive")
        if self.priority not in PRIORITIES:
            raise ValueError(f"priority must be one of {PRIORITIES}")
        if self.bandwidth_intensity <= 0:
            raise ValueError("bandwidth_intensity must be positive")
        if not 0.0 <= self.llc_miss_rate <= 1.0:
            raise ValueError("llc_miss_rate must be within [0, 1]")
        if self.data_policy not in DATA_POLICIES:
            raise ValueError(f"data_policy must be one of {DATA_POLICIES}")


@dataclass(frozen=True)
class AccessEvent:
    kind: str                     # access or vm
    vpn: int
    thread_id: int
    vm_kind: Optional[str] = None
    vm_pages: int = 0


PRESETS: Dict[str, WorkloadSpec] = {
    # pointer-chasing table over a footprint far beyond TLB reach
    "gups_like": WorkloadSpec(
        name="gups_like", thread_count=4, footprint_pages=16384,
        pattern="uniform_random", accesses_per_quantum_per_thread=100),
    # skewed index lookups, still TLB-hostile in the tail
    "btree_like": WorkloadSpec(
        name="btree_like", thread_count=4, footprint_pages=16384,
        pattern="zipfian", zipf_theta=0.99,
        accesses_per_quantum_per_thread=80),
    "hashjoin_like": WorkloadSpec(
        name="hashjoin_like", thread_count=4, footprint_pages=8192,
        pattern="uniform_random", accesses_per_quantum_per_thread=100),
    # bandwidth hog: tiny TLB footprint, every access streams full lines
    "stream_like": WorkloadSpec(
        name="stream_like", thread_count=4, footprint_pages=24,
        pattern="sequential", accesses_per_quantum_per_thread=256,
        bandwidth_intensity=4.0, priority="low"),
    # remap/protect heavy on single small buffers, little TLB pressure
    "wrmem_like": WorkloadSpec(
        name="wrmem_like", thread_count=4, footprint_pages=48,
        pattern="uniform_random", accesses_per_quantum_per_thread=200,
        vm_ops_per_kilo_access=5.0,
        vm_op_mix=(("remap", 0.54), ("protect", 0.40), ("map", 0.05),
                   ("unmap", 0.01)),
        vm_range_mean_pages=1, llc_miss_rate=0.5),
    # small hot set, constant mapping churn
    "webserver_like": WorkloadSpec(
        name="webserver_like", thread_count=4, footprint_pages=16,
        pattern="zipfian", zipf_theta=0.99,
        accesses_per_quantum_per_thread=200,
        vm_ops_per_kilo_access=5.0,
        vm_op_mix=(("map", 0.5), ("unmap", 0.5)),
        vm_range_mean_pages=2, llc_miss_rate=0.2),
}


def preset(name: str, **overrides) -> WorkloadSpec:
    if name not in PRESETS:
        raise KeyError(f"unknown workload preset {name!r}")
    spec = replace(PRESETS[name], **overrides) if overrides else PRESETS[name]
    spec.validate()
    return spec


_ZIPF_CACHE: Dict[Tuple[int, float], np.ndarray] = {}
_PERM_CACHE: Dict[int, int] = {}


def _zipf_cdf(footprint: int, theta: float) -> np.ndarray:
    key = (footprint, theta)
    cdf = _ZIPF_CACHE.get(key)
    if cdf is None:
        weights = 1.0 / np.arange(1, footprint + 1, dtype=np.float64) ** theta
        cdf = np.cumsum(weights)
        cdf /= cdf[-1]
        _ZIPF_CACHE[key] = cdf
    return cdf


def _rank_multiplier(footprint: int) -> int:
    # odd multiplicative hash, forced coprime so rank -> vpn stays a bijection
    mult = _PERM_CACHE.get(footprint)
    if mult is None:
        mult = 2654435761
        while np.gcd(mult, footprint) != 1:
            mult += 2
        _PERM_CACHE[footprint] = mult
    return mult


def _rng(spec: WorkloadSpec, rng_seed: int, quantum_index: int,
         thread_id: int) -> np.random.Generator:
    name_tag = zlib.crc32(spec.name.encode())
    seq = np.random.SeedSequence((rng_seed, name_tag, quantum_index, thread_id))
    return np.random.Generator(np.random.PCG64(seq))


def _draw_vpns(spec: WorkloadSpec, rng: np.random.Generator,
               quantum_index: int, thread_id: int, n: int) -> np.ndarray:
    fp = spec.footprint_pages
    if spec.pattern == "uniform_random":
        return rng.integers(0, fp, size=n)
    if spec.pattern == "zipfian":
        cdf = _zipf_cdf(fp, spec.zipf_theta)
        ranks = np.searchsorted(cdf, rng.random(n), side="right")
        mult = _rank_multiplier(fp)
        return (ranks * mult + 17) % fp
    # sequential: stride with wraparound, threads offset into the footprint
    start = (thread_id * fp) // max(1, spec.thread_count) \
        + quantum_index * n
    return (start + np.arange(n)) % fp


def generate_quantum_events(spec: WorkloadSpec, thread_id: int, rng_seed: int,
                            quantum_index: int) -> List[AccessEvent]:
    """Event stream for one thread-quantum: data accesses plus mixed VM ops."""
    spec.validate()
    rng = _rng(spec, rng_seed, quantum_index, thread_id)
    n = spec.accesses_per_quantum_per_thread
    vpns = _draw_vpns(spec, rng, quantum_index, thread_id, n)

    vm_at: Dict[int, Tuple[str, int, int]] = {}
    if spec.vm_ops_per_kilo_access > 0:
        p = min(1.0, spec.vm_ops_per_kilo_access / 1000.0)
        count = int(rng.binomial(n, p))
        if count:
            slots = np.sort(rng.choice(n, size=count, replace=False))
            kinds = list(dict(spec.vm_op_mix))
            weights = np.array([dict(spec.vm_op_mix)[k] for k in kinds],
                               dtype=np.float64)
            weights /= weights.sum()
            chosen = rng.choice(len(kinds), size=count, p=weights)
            starts = rng.integers(0, spec.footprint_pages, size=count)
            lengths = rng.geometric(1.0 / spec.vm_range_mean_pages, size=count)
            for slot, k, start, length in zip(slots, chosen, starts, lengths):
                length = int(min(length, spec.footprint_pages))
                vm_at[int(slot)] = (kinds[int(k)], int(start), length)

    events: List[AccessEvent] = []
    for i in range(n):
        events.append(AccessEvent("access", int(vpns[i]), thread_id))
        if i in vm_at:
            vm_kind, start, length = vm_at[i]
            events.append(AccessEvent("vm", start, thread_id, vm_kind, length))
    return events
