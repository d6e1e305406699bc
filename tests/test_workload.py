"""Synthetic access streams: determinism, patterns, VM-op mixing, presets."""

from collections import Counter

import pytest

from numasim.workload import (
    PRESETS,
    WorkloadSpec,
    generate_quantum_events,
    preset,
)


def spec_for(pattern, footprint=8, n=10, **kw):
    return WorkloadSpec(name="t", thread_count=4, footprint_pages=footprint,
                        pattern=pattern, accesses_per_quantum_per_thread=n,
                        **kw)


def test_generation_is_deterministic():
    spec = spec_for("uniform_random", footprint=128, n=50)
    a = generate_quantum_events(spec, thread_id=2, rng_seed=9, quantum_index=3)
    b = generate_quantum_events(spec, thread_id=2, rng_seed=9, quantum_index=3)
    assert a == b


def test_streams_differ_across_thread_quantum_and_seed():
    spec = spec_for("uniform_random", footprint=1 << 16, n=64)
    base = generate_quantum_events(spec, 0, 1, 0)
    assert generate_quantum_events(spec, 1, 1, 0) != base
    assert generate_quantum_events(spec, 0, 1, 1) != base
    assert generate_quantum_events(spec, 0, 2, 0) != base


def test_sequential_strides_and_wraps():
    spec = spec_for("sequential")
    vpns = [e.vpn for e in generate_quantum_events(spec, 0, 1, 0)]
    assert vpns == [0, 1, 2, 3, 4, 5, 6, 7, 0, 1]


def test_sequential_threads_offset_into_the_footprint():
    spec = spec_for("sequential")
    vpns = [e.vpn for e in generate_quantum_events(spec, 1, 1, 0)]
    assert vpns == [2, 3, 4, 5, 6, 7, 0, 1, 2, 3]


def test_sequential_quanta_continue_the_stride():
    spec = spec_for("sequential")
    vpns = [e.vpn for e in generate_quantum_events(spec, 0, 1, 1)]
    assert vpns[:4] == [2, 3, 4, 5]  # picks up where quantum 0 left off


def test_data_accesses_share_one_kind():
    # the engine only tells VM operations apart from data accesses
    spec = spec_for("uniform_random", footprint=64, n=100)
    events = [e for e in generate_quantum_events(spec, 0, 1, 0)
              if e.kind != "vm"]
    assert len(events) == 100
    assert {e.kind for e in events} == {"access"}


def test_uniform_draws_cover_the_footprint_evenly():
    spec = spec_for("uniform_random", footprint=16, n=100)
    counts = Counter()
    for q in range(50):
        for e in generate_quantum_events(spec, 0, 7, q):
            counts[e.vpn] += 1
    assert set(counts) <= set(range(16))
    # 5000 draws, 312.5 expected per page, sigma about 17
    assert all(200 < counts[v] < 430 for v in range(16))


def test_zipfian_concentrates_on_a_stable_hot_page():
    spec = spec_for("zipfian", footprint=1024, n=100, zipf_theta=0.99)
    counts = Counter()
    for q in range(50):
        for e in generate_quantum_events(spec, 0, 7, q):
            counts[e.vpn] += 1
    hot_vpn, hot_count = counts.most_common(1)[0]
    # the hottest rank always lands on the same permuted page
    assert hot_vpn == 17
    assert hot_count > 300  # ~13% of 5000 draws; uniform would give ~5
    assert all(0 <= v < 1024 for v in counts)


def test_vm_ops_arrive_at_the_configured_rate():
    spec = spec_for("uniform_random", footprint=256, n=200,
                    vm_ops_per_kilo_access=50.0,
                    vm_op_mix=(("map", 0.5), ("unmap", 0.5)),
                    vm_range_mean_pages=4)
    vm_events = []
    plain = 0
    for q in range(60):
        for e in generate_quantum_events(spec, 0, 3, q):
            if e.kind == "vm":
                vm_events.append(e)
            else:
                plain += 1
    assert plain == 60 * 200  # vm ops add events, never displace accesses
    # binomial(12000, 0.05): mean 600, sigma about 24
    assert 450 < len(vm_events) < 750
    kinds = {e.vm_kind for e in vm_events}
    assert kinds == {"map", "unmap"}
    assert all(e.vm_pages >= 1 for e in vm_events)
    assert all(0 <= e.vpn < 256 for e in vm_events)
    mean_len = sum(e.vm_pages for e in vm_events) / len(vm_events)
    assert 2.5 < mean_len < 6.0


def test_vm_range_respects_the_footprint_cap():
    spec = spec_for("uniform_random", footprint=4, n=200,
                    vm_ops_per_kilo_access=100.0,
                    vm_op_mix=(("protect", 1.0),), vm_range_mean_pages=64)
    for q in range(20):
        for e in generate_quantum_events(spec, 0, 3, q):
            if e.kind == "vm":
                assert e.vm_pages <= 4


def test_presets_are_valid_and_named():
    assert set(PRESETS) == {"gups_like", "btree_like", "hashjoin_like",
                            "stream_like", "wrmem_like", "webserver_like"}
    for name, spec in PRESETS.items():
        spec.validate()
        assert spec.name == name
    assert PRESETS["gups_like"].footprint_pages == 16384
    assert PRESETS["stream_like"].priority == "low"
    assert PRESETS["stream_like"].bandwidth_intensity == 4.0
    assert PRESETS["webserver_like"].vm_ops_per_kilo_access == 5.0


def test_preset_overrides_do_not_touch_the_registry():
    tuned = preset("gups_like", thread_count=8)
    assert tuned.thread_count == 8
    assert PRESETS["gups_like"].thread_count == 4
    with pytest.raises(KeyError):
        preset("gups")


def test_spec_validation_rejects_bad_values():
    with pytest.raises(ValueError):
        spec_for("strided").validate()
    with pytest.raises(ValueError):
        spec_for("sequential", priority="medium").validate()
    with pytest.raises(ValueError):
        spec_for("sequential", llc_miss_rate=1.5).validate()
    with pytest.raises(ValueError):
        spec_for("sequential", bandwidth_intensity=0).validate()
    with pytest.raises(ValueError):
        spec_for("sequential", vm_ops_per_kilo_access=5.0).validate()
    with pytest.raises(ValueError):
        spec_for("sequential", vm_ops_per_kilo_access=5.0,
                 vm_op_mix=(("mremap", 1.0),)).validate()
    with pytest.raises(ValueError):
        spec_for("sequential", vm_range_mean_pages=0).validate()
    with pytest.raises(ValueError):
        WorkloadSpec(name="t", thread_count=0, footprint_pages=8,
                     pattern="sequential").validate()
