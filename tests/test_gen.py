"""Synthetic generator: examples, invariants, presets, config round trip."""

import dataclasses
import hashlib

import numpy as np
import pytest

from xbarsynth.gen import (
    MAX_GEN_ROWS,
    GenError,
    GenSpec,
    PRESET_NAMES,
    _cut_packets,
    benchmark_preset,
    generate,
    load_spec,
    spec_from_text,
    spec_to_text,
)
from xbarsynth.trace import load_trace, save_trace

from oracles import emit_run, target_occupancy, trace_stats


def plain_spec(**kw):
    base = dict(
        num_initiators=1, num_targets=1, burst_len_mean=100,
        burst_len_jitter=0.0, inter_burst_gap_mean=100,
        phase_correlation=1.0, shared_target_ids=(),
        critical_stream_pairs=(), horizon=1000, seed=7,
    )
    base.update(kw)
    return GenSpec(**base)


def test_five_bursts_of_one_hundred():
    # burst 100, gap 100, horizon 1000: expected count = 1000 // (100+100)
    tr = generate(plain_spec())
    expected_starts = [0, 200, 400, 600, 800]
    assert [tx.start_cycle for tx in tr.transactions] == expected_starts
    assert all(tx.duration == 100 for tx in tr.transactions)
    assert trace_stats(tr).total_busy == 500


def test_determinism_bitwise():
    spec = benchmark_preset("mat2like")
    a = generate(spec)
    b = generate(spec)
    assert a.transactions == b.transactions
    assert a.horizon == b.horizon


def test_full_phase_correlation_aligns_burst_starts():
    spec = plain_spec(num_initiators=2, num_targets=2, burst_len_jitter=0.2,
                      phase_correlation=1.0, horizon=5000)
    tr = generate(spec)
    starts = {1: [], 2: []}
    for tx in tr.transactions:
        starts[tx.initiator_id].append(tx.start_cycle)
    # one run per burst; every burst of initiator 1 starts exactly with one
    # of initiator 2 (span jitter is private, the walk itself is shared)
    assert sorted(starts[1]) == sorted(starts[2])


def test_zero_phase_correlation_dephases():
    spec = plain_spec(num_initiators=2, num_targets=2, burst_len_jitter=0.2,
                      phase_correlation=0.0, horizon=5000)
    tr = generate(spec)
    starts = {1: set(), 2: set()}
    for tx in tr.transactions:
        starts[tx.initiator_id].add(tx.start_cycle)
    assert starts[1] != starts[2]


def test_mass_sanity_invariant():
    # per-initiator busy mass near horizon * burst / (burst + gap), slack
    # for jitter drift plus one dropped final burst
    for seed in (1, 2, 3):
        spec = plain_spec(num_initiators=4, num_targets=4, burst_len_jitter=0.2,
                          phase_correlation=0.5, horizon=20_000, seed=seed)
        tr = generate(spec)
        busy = {i: 0 for i in range(1, 5)}
        for tx in tr.transactions:
            busy[tx.initiator_id] += tx.duration
        expect = spec.horizon * spec.burst_len_mean / spec.slot_period
        slack = spec.burst_len_jitter * expect + spec.burst_len_mean * (1 + spec.burst_len_jitter)
        for total in busy.values():
            assert abs(total - expect) <= slack


def test_intra_duty_scales_mass():
    for seed in range(1, 6):
        for run_jitter in (0.0, 1.0):
            tr = generate(plain_spec(intra_duty=0.5, run_jitter=run_jitter, seed=seed))
            assert trace_stats(tr).total_busy == 250
            # one run of 50 per burst, inside its span [200k, 200k + 100)
            assert [tx.duration for tx in tr.transactions] == [50] * 5
            assert all(tx.start_cycle % 200 + tx.duration <= 100 for tx in tr.transactions)


def test_horizon_too_small():
    with pytest.raises(GenError, match="too small"):
        generate(plain_spec(horizon=50))


def test_packets_tile_runs_back_to_back():
    spec = plain_spec(packet_len=30, horizon=200)
    tr = generate(spec)
    assert [tx.duration for tx in tr.transactions] == [30, 30, 30, 10]
    for a, b in zip(tr.transactions, tr.transactions[1:]):
        assert b.start_cycle == a.start_cycle + a.duration


@pytest.mark.parametrize("packet_len", [0, 1, 25, 60, 61, 500])
def test_cut_packets_matches_per_packet_reference(packet_len):
    """The bulk cutter against the per-packet loop: random runs of 0 to 60
    cycles plus runs of exactly 1x, 1x + 1 and 2x ``packet_len``, mixed with
    shared rows, which stay whole at any packet length, in row order."""
    rng = np.random.Generator(np.random.PCG64(packet_len))
    lengths = [int(v) for v in rng.integers(0, 61, 150)] + [packet_len, packet_len + 1,
                                                            2 * packet_len]
    rows = [(int(rng.integers(0, 10_000)), length, int(rng.integers(1, 5)),
             int(rng.integers(1, 5)), bool(rng.random() < 0.3), bool(rng.random() < 0.7))
            for length in lengths]
    expected: list[tuple] = []
    for start, length, init, tgt, crit, split in rows:
        if split:
            emit_run(expected, start, length, init, tgt, crit, packet_len)
        else:
            expected.append((start, length, init, tgt, crit))
    got = _cut_packets(np.array(rows, dtype=np.int64), packet_len)
    assert got.tolist() == [[s, d, i, t, int(c)] for s, d, i, t, c in expected]
    if packet_len in (1, 25):
        assert len(got) > len(rows)  # some runs were cut


# sha256 of save_trace output, recorded with the per-packet generator loop
TRACE_SHA256 = {
    ("mat2like", 2024): "e4046f8c281d33361435a4e57a0930685e22d1096cfca7a227c5b0ad5048bdb0",
    ("mat2like", 7): "54171c4cbc734342c6b37103fb2c68f6376ad82f84ff09360a38fc5c81350b34",
    ("uniform", 2024): "eff372784b470feef03b7947f960dfe656a24ffc32ac5dc691ce409cdf1a32f2",
    ("uniform", 7): "73b947340b99b08ec6b20d76d4078f02cdaeaf7db651633a1e133ebb7f6efb54",
    ("hotspot", 2024): "f0089d5fa39d6ec6a24fdceab3ff5d5289f265a26620101af172eec61d9a5bc6",
    ("hotspot", 7): "5fbf1c33b2d69e54dd1dc559018418576c4dfe7f598998b428200a833f098879",
}


@pytest.mark.parametrize("name, seed", sorted(TRACE_SHA256))
def test_preset_trace_bytes_pinned(tmp_path, name, seed):
    path = tmp_path / "trace.csv"
    trace = generate(dataclasses.replace(benchmark_preset(name), seed=seed))
    save_trace(trace, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == TRACE_SHA256[name, seed]
    assert load_trace(path) == trace  # the saved file is the whole trace, horizon too


# plain_spec variants for the paths the presets miss: both ends of
# phase_correlation, run_jitter 0, 0.3 and 1, busy and span clamped to one
# cycle, shared targets with critical streams, and packet cutting
SPEC_SHA256 = {
    "independent": (dict(num_initiators=3, num_targets=3, burst_len_jitter=0.2,
                         phase_correlation=0.0, intra_duty=0.6, horizon=5000),
                    "999305543825a4f40c790724011a476f269c6c111a81ad0c875261ec3a4cc2cb"),
    "lockstep": (dict(num_initiators=3, num_targets=3, burst_len_jitter=0.2,
                      phase_correlation=1.0, intra_duty=0.5, run_jitter=0.3, horizon=5000),
                 "93383d85230e4cbeccbf0edf30d30e6ca44dfc373d3176611a6ed73b2b5cc14b"),
    "fresh-placement": (dict(num_initiators=2, num_targets=2, burst_len_jitter=0.1,
                             phase_correlation=0.5, intra_duty=0.3, run_jitter=1.0,
                             horizon=4000),
                        "ee55802a69f7cc282ab9f6cbf9204dd15152b24c61adcc3fcd49c17ecb2dc969"),
    "busy-clamped": (dict(burst_len_mean=50, intra_duty=0.01, run_jitter=0.5, horizon=2000),
                     "9a6b9676f79e933499c74c4171ecf71d0857eba5cf752deb90e286554d704102"),
    # a shared access starts where its burst's span ends
    "span-clamped": (dict(num_initiators=2, num_targets=3, shared_target_ids=(3,),
                          burst_len_mean=2, burst_len_jitter=0.99, inter_burst_gap_mean=5,
                          phase_correlation=0.3, intra_duty=0.5, horizon=500),
                     "9893b52d8788b72be657e6994d44bac5c2494a5349a23e4c11b8f67ae3716d91"),
    "shared-critical": (dict(num_initiators=4, num_targets=5, shared_target_ids=(4, 5),
                             critical_stream_pairs=((1, 1), (2, 4), (3, 5)),
                             burst_len_jitter=0.2, phase_correlation=0.4, intra_duty=0.7,
                             run_jitter=0.3, horizon=6000),
                        "adedec37aafbd1fce6959ffad35fab2dc120fb7efcc8460787a6f6c2ce981246"),
    "packets": (dict(num_initiators=2, num_targets=2, burst_len_jitter=0.2,
                     phase_correlation=0.0, intra_duty=0.8, run_jitter=0.3, packet_len=7,
                     horizon=3000),
                "1bca412a7c42f232ef2cd5fb5db39e01ad4b2ed87163bd26c223ef7ec6e0de7e"),
}


@pytest.mark.parametrize("name", sorted(SPEC_SHA256))
def test_spec_trace_bytes_pinned(tmp_path, name):
    kw, digest = SPEC_SHA256[name]
    path = tmp_path / "trace.csv"
    save_trace(generate(plain_spec(**kw)), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_critical_pairs_flag_transactions():
    spec = plain_spec(num_initiators=2, num_targets=2,
                      critical_stream_pairs=((1, 1),), horizon=2000)
    tr = generate(spec)
    for tx in tr.transactions:
        assert tx.critical == (tx.initiator_id == 1 and tx.target_id == 1)


def test_generated_trace_fits_horizon():
    spec = benchmark_preset("hotspot")
    tr = generate(spec)
    assert tr.horizon <= spec.horizon
    assert all(tx.start_cycle + tx.duration <= spec.horizon for tx in tr.transactions)


@pytest.mark.parametrize("kw", [
    dict(num_initiators=0), dict(burst_len_mean=0), dict(burst_len_jitter=1.0),
    dict(burst_len_jitter=-0.1), dict(inter_burst_gap_mean=0),
    dict(phase_correlation=1.5), dict(horizon=0), dict(intra_duty=0.0),
    dict(intra_duty=1.2), dict(run_jitter=-0.1), dict(packet_len=-1),
    dict(run_jitter=2.0), dict(shared_target_ids=(9,)),
    dict(critical_stream_pairs=((3, 1),)), dict(num_initiators=1025),
    dict(num_targets=99999999999999999999),  # above a trace's core bound
])
def test_spec_validation(kw):
    with pytest.raises(GenError):
        plain_spec(**kw)


def test_spec_bounds_the_rows_it_may_emit():
    # 1 initiator, bursts of 1 every 2 cycles, one row each: horizon // 2 + 1 rows
    plain_spec(burst_len_mean=1, inter_burst_gap_mean=1, horizon=2 * MAX_GEN_ROWS - 2)
    with pytest.raises(GenError, match=f"^spec may emit {MAX_GEN_ROWS + 1} trace rows, "
                                       f"more than {MAX_GEN_ROWS}: shorten the horizon"):
        plain_spec(burst_len_mean=1, inter_burst_gap_mean=1, horizon=2 * MAX_GEN_ROWS)
    # the 100x uniform spec (520 k rows) is accepted; a horizon of 10**12 is not
    spec = dataclasses.replace(benchmark_preset("uniform"), horizon=12_000_000)
    with pytest.raises(GenError, match=r"^spec may emit 106666667200 trace rows"):
        dataclasses.replace(spec, horizon=10**12)


@pytest.mark.parametrize("field", ["burst_len_mean", "inter_burst_gap_mean", "horizon",
                                   "packet_len"])
def test_spec_bounds_every_cycle_count_below_two_to_the_63(field):
    # the generator multiplies them by floats, and a trace's cycles are int64
    with pytest.raises(GenError, match=f"^{field} must be below 2\\*\\*63 cycles$"):
        plain_spec(**{field: 1 << 63})
    big = plain_spec(burst_len_mean=1 << 62, inter_burst_gap_mean=(1 << 63) - 1,
                     horizon=(1 << 63) - 1, packet_len=(1 << 63) - 1)
    assert generate(big).duration.tolist() == [1 << 62]


def test_negative_seed_rejected():
    # named here, not left to numpy's SeedSequence, which names no field
    with pytest.raises(GenError, match="^seed must be non-negative, got -5$"):
        plain_spec(seed=-5)
    with pytest.raises(GenError, match="^seed must be non-negative, got -1$"):
        spec_from_text(spec_to_text(plain_spec()).replace("seed = 7", "seed = -1"))


def test_all_targets_shared_rejected():
    with pytest.raises(GenError, match="private"):
        plain_spec(num_targets=2, shared_target_ids=(1, 2))


def test_preset_mat2like_shape():
    spec = benchmark_preset("mat2like")
    assert spec.num_initiators == 9
    assert spec.num_targets == 12
    assert len(spec.shared_target_ids) == 3
    assert spec.phase_correlation > 0


def test_preset_uniform_shape():
    spec = benchmark_preset("uniform")
    assert spec.phase_correlation == 0.0
    assert spec.shared_target_ids == ()
    assert spec.num_initiators == 20


def test_preset_hotspot_mass_concentrates():
    spec = benchmark_preset("hotspot")
    st = trace_stats(generate(spec))
    assert max(st.per_target_busy) >= 0.5 * st.total_busy


def test_unknown_preset():
    with pytest.raises(GenError, match="unknown preset"):
        benchmark_preset("mat3like")
    assert set(PRESET_NAMES) == {"mat2like", "uniform", "hotspot"}


def test_shared_targets_get_low_rate_traffic():
    spec = benchmark_preset("mat2like")
    tr = generate(spec)
    occ = target_occupancy(tr)
    privates = [t for t in range(1, spec.num_targets + 1)
                if t not in spec.shared_target_ids]
    min_private = min(occ[t - 1] for t in privates)
    for t in spec.shared_target_ids:
        assert occ[t - 1] <= 0.10 * min_private
        assert occ[t - 1] > 0  # low rate, not silent


def test_spec_text_round_trip():
    for name in PRESET_NAMES:
        spec = benchmark_preset(name)
        assert spec_from_text(spec_to_text(spec)) == spec


def test_spec_text_round_trip_empty_tuples():
    spec = plain_spec()
    assert spec_from_text(spec_to_text(spec)) == spec


def test_spec_text_missing_required_key():
    text = spec_to_text(plain_spec())
    stripped = "\n".join(l for l in text.splitlines() if not l.startswith("horizon"))
    with pytest.raises(GenError, match="horizon"):
        spec_from_text(stripped)


@pytest.mark.parametrize("edit, text_fault, file_fault", [
    (lambda t: t + "bogus\n", "line 14: expected key = value, got 'bogus'",
     ":14: expected key = value, got 'bogus'"),
    (lambda t: t.replace("horizon = 1000\n", ""), "missing required keys: horizon",
     ": missing required keys: horizon"),
    (lambda t: t.replace("horizon = 1000", "horizon = 0"), "horizon must be positive",
     ": horizon must be positive"),
], ids=["line", "missing-key", "range"])
def test_config_faults_name_the_file(tmp_path, edit, text_fault, file_fault):
    """load_spec prefixes a fault with its file, as a trace fault is:
    ``<path>:<line>:`` for a line, ``<path>:`` for the whole spec."""
    text = edit(spec_to_text(plain_spec()))
    with pytest.raises(GenError) as err:
        spec_from_text(text)
    assert str(err.value) == text_fault
    path = tmp_path / "spec.cfg"
    path.write_text(text)
    with pytest.raises(GenError) as err:
        load_spec(path)
    assert str(err.value) == f"{path}{file_fault}"


def test_spec_text_unknown_key():
    with pytest.raises(GenError, match="unknown"):
        spec_from_text(spec_to_text(plain_spec()) + "\nwarp_factor = 9\n")


def test_with_seed():
    spec = benchmark_preset("uniform")
    other = dataclasses.replace(spec, seed=99)
    assert other.seed == 99
    assert dataclasses.replace(other, seed=spec.seed) == spec
    assert generate(other).transactions != generate(spec).transactions
