"""Window profiling and conflict pre-processing against per-cycle oracles."""

import itertools
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from xbarsynth import analysis
from xbarsynth import trace as trace_module
from xbarsynth.analysis import (
    MAX_PROFILE_CELLS,
    AnalysisParams,
    aggregate_overlap,
    preprocess,
    profile,
)
from xbarsynth.trace import Trace, Transaction

from oracles import (
    cycle_profile,
    make_random_trace,
    target_occupancy,
    trace_of,
    validate_profile,
    whole_trace_overlap,
)


def test_two_target_example():
    # t_1 busy [0,10), t_2 busy [5,15), WS 10
    tr = trace_of(1, 2, [Transaction(0, 10, 1, 1), Transaction(5, 10, 1, 2)])
    prof = profile(tr, 10)
    assert prof.num_windows == 2
    assert prof.comm[0].tolist() == [10, 0]
    assert prof.comm[1].tolist() == [5, 5]
    assert prof.wo[0, 1].tolist() == [5, 0]


def test_boundary_spanning_transaction():
    tr = trace_of(1, 1, [Transaction(0, 10, 1, 1)])
    prof = profile(tr, 4)
    assert prof.comm[0].tolist() == [4, 4, 2]


def test_empty_trace():
    prof = profile(Trace(1, 3), 100)
    assert prof.num_windows == 0
    assert prof.comm.shape == (3, 0)
    assert prof.wo.shape == (3, 3, 0)


def test_same_target_concurrency_counts_once():
    # occupancy, not additive demand
    tr = trace_of(2, 1, [Transaction(0, 6, 1, 1), Transaction(3, 6, 2, 1)])
    prof = profile(tr, 10)
    assert prof.comm[0, 0] == 9


@pytest.mark.parametrize("num_targets, window_size, dtype", [
    (1, 127, np.int8), (1, 128, np.int16), (2, 63, np.int8), (2, 64, np.int16),
    (7, 4681, np.int16), (1, 32768, np.int32), (2, 16384, np.int32),
])
def test_comm_type_holds_targets_times_window_size(num_targets, window_size, dtype):
    """T x ws = 127/128 and 32767/32768: every target is busy through
    window 0, so its column sums to T x ws, which must fit comm's type."""
    rng = np.random.Generator(np.random.PCG64(window_size))
    txs = [Transaction(0, window_size, 1, t) for t in range(1, num_targets + 1)]
    for _ in range(20):
        start = int(rng.integers(window_size, 3 * window_size))
        txs.append(Transaction(start, int(rng.integers(1, window_size)), 1,
                               int(rng.integers(1, num_targets + 1)), bool(rng.random() < 0.5)))
    tr = trace_of(1, num_targets, txs)
    prof = profile(tr, window_size)
    comm, wo, crit_wo = cycle_profile(tr, window_size)
    assert prof.comm.dtype == dtype
    assert np.array_equal(prof.comm, comm)
    assert np.array_equal(prof.om, wo.sum(axis=2)) and np.array_equal(prof.peak, wo.max(axis=2))
    assert np.array_equal(prof.crit, (crit_wo > 0).any(axis=2))
    assert np.array_equal(prof.wo, wo)
    # summed in comm's own type, no column wraps
    column_sums = np.add.reduce(prof.comm, axis=0, dtype=dtype)
    assert np.array_equal(column_sums, comm.sum(axis=0))
    assert column_sums[0] == num_targets * window_size


@pytest.mark.parametrize("num_targets, window_size, dtype", [
    (1, 2**31 - 1, np.int32), (2, 2**30, np.int64), (1, 2**62, np.int64),
])
def test_comm_type_past_int32(num_targets, window_size, dtype):
    prof = profile(Trace(1, num_targets, [0], [5], [1], [num_targets]), window_size)
    assert prof.comm.dtype == dtype and prof.comm[-1].tolist() == [5]


def test_comm_type_of_a_numpy_window_size():
    # T x window size is taken in Python ints: as an int64 it would wrap
    # negative here and pick int8
    trace = Trace(1, 2, [0, 3], [2**62 + 1, 5], [1, 1], [1, 2])
    prof = profile(trace, np.int64(2**62))
    assert prof.comm.dtype == np.int64 and prof.comm.tolist() == [[2**62, 1], [5, 0]]
    assert prof.peak.tolist() == [[2**62, 5], [5, 5]]


def test_profile_matches_cycle_oracle(monkeypatch):
    rng = np.random.Generator(np.random.PCG64(13))
    cases = [(make_random_trace(rng), int(rng.integers(1, 80))) for _ in range(30)]
    # t_1's rows chain into one busy interval across the trace, and only
    # t_2's rows at both ends are critical: with windows of a few rows, t_2
    # misses the windows between them, where the critical mask selects no row
    ends = trace_of(1, 3, [Transaction(0, 9, 1, 2, critical=True),
                           *(Transaction(s, 3, 1, s % 2 * 2 + 1) for s in range(1, 13)),
                           Transaction(12, 5, 1, 2, critical=True)])
    # no row is critical: the critical pass has no busy interval at all
    plain = trace_of(2, 3, [Transaction(s, 4, s % 2 + 1, s % 3 + 1) for s in range(0, 30, 3)])
    cases += [(ends, 4), (ends, 100), (Trace(1, 3), 10), (plain, 5), (plain, 40)]
    # windows of max(row block, rows per group x groups) rows: the defaults,
    # then a window of a few rows per target; time blocks of the profile's
    # own size, then of one interval start or one window each, whose edges
    # cut busy intervals, and windows, everywhere
    row_windows = ((trace_module._ROW_BLOCK, trace_module._GROUP_ROWS), (3, 1), (2, 1))
    block_steps = (analysis._block_step, lambda num_targets: 1)
    for (row_block, group_rows), block_step in itertools.product(row_windows, block_steps):
        monkeypatch.setattr(trace_module, "_ROW_BLOCK", row_block)
        monkeypatch.setattr(trace_module, "_GROUP_ROWS", group_rows)
        monkeypatch.setattr(analysis, "_block_step", block_step)
        for tr, ws in cases:
            prof = profile(tr, ws)
            comm, wo, crit_wo = cycle_profile(tr, ws)
            assert np.array_equal(prof.comm, comm)
            assert np.array_equal(prof.wo, wo)
            assert np.array_equal(prof.crit_wo, crit_wo)
            assert np.array_equal(prof.om, wo.sum(axis=2))
            assert np.array_equal(prof.peak, wo.max(axis=2, initial=0))
            assert np.array_equal(prof.crit, (crit_wo > 0).any(axis=2))
            validate_profile(prof)


def test_partition_property():
    # windows tile the horizon: per-target comm sums equal whole-trace occupancy
    rng = np.random.Generator(np.random.PCG64(17))
    for _ in range(20):
        tr = make_random_trace(rng)
        ws = int(rng.integers(1, 50))
        prof = profile(tr, ws)
        assert np.array_equal(prof.comm.sum(axis=1), target_occupancy(tr))


def test_aggregate_overlap_equals_windowless_count():
    rng = np.random.Generator(np.random.PCG64(19))
    for _ in range(20):
        tr = make_random_trace(rng)
        ws = int(rng.integers(1, 50))
        om = aggregate_overlap(profile(tr, ws))
        assert np.array_equal(om, whole_trace_overlap(tr))
        assert np.array_equal(om, om.T)


def test_preprocess_threshold_example():
    tr = trace_of(1, 2, [Transaction(0, 30, 1, 1), Transaction(0, 30, 1, 2)])
    prof = profile(tr, 100)
    assert prof.wo[0, 1, 0] == 30
    assert preprocess(prof, AnalysisParams(100, 0.25))[0, 1]  # 30 > 25
    assert not preprocess(prof, AnalysisParams(100, 0.30))[0, 1]  # 30 > 30 fails
    assert not preprocess(prof, AnalysisParams(100, 0.31))[0, 1]  # floor -> 31


def test_zero_overlap_never_conflicts():
    tr = trace_of(1, 2, [Transaction(0, 10, 1, 1), Transaction(10, 10, 1, 2)])
    prof = profile(tr, 20)
    assert not preprocess(prof, AnalysisParams(20, 0.01)).any()


def test_critical_overlap_forces_conflict():
    tr = trace_of(2, 4, [
        Transaction(0, 2, 1, 3, critical=True),
        Transaction(1, 2, 2, 4, critical=True),
    ])
    prof = profile(tr, 100)
    conflict = preprocess(prof, AnalysisParams(100, 0.5))
    assert conflict[2, 3] and conflict[3, 2]
    assert not conflict[0, 1]


def test_noncritical_overlap_below_threshold_is_free():
    tr = trace_of(2, 2, [Transaction(0, 2, 1, 1), Transaction(1, 2, 2, 2)])
    prof = profile(tr, 100)
    assert not preprocess(prof, AnalysisParams(100, 0.5)).any()


def test_conflict_diagonal_zero_and_symmetric():
    rng = np.random.Generator(np.random.PCG64(23))
    for _ in range(10):
        tr = make_random_trace(rng)
        ws = int(rng.integers(1, 40))
        prof = profile(tr, ws)
        c = preprocess(prof, AnalysisParams(ws, 0.3))
        assert not c.diagonal().any()
        assert np.array_equal(c, c.T)


def test_theta_monotonicity():
    # lowering theta can only add conflict pairs
    rng = np.random.Generator(np.random.PCG64(29))
    for _ in range(10):
        tr = make_random_trace(rng, horizon=300, max_txs=30)
        ws = int(rng.integers(4, 40))
        prof = profile(tr, ws)
        thetas = [0.05, 0.1, 0.2, 0.3, 0.4, 0.5]
        counts = [preprocess(prof, AnalysisParams(ws, th)).sum() for th in thetas]
        assert counts == sorted(counts, reverse=True)
        prev = None
        for th in thetas:
            cur = preprocess(prof, AnalysisParams(ws, th))
            if prev is not None:
                assert (prev | cur == prev).all()  # cur is a subset of prev
            prev = cur


def test_params_validation():
    with pytest.raises(ValueError, match="0.5"):
        AnalysisParams(100, 0.6)
    with pytest.raises(ValueError):
        AnalysisParams(100, 0.0)
    with pytest.raises(ValueError):
        AnalysisParams(0, 0.3)
    with pytest.raises(ValueError):
        AnalysisParams(100, 0.3, max_targets_per_bus=0)
    with pytest.raises(ValueError, match="window size"):
        profile(Trace(1, 1), 0)


def test_windows_tile_a_horizon_past_2_53_exactly():
    # a float ceil(horizon / WS) reads 1 window here, whose comm would exceed WS
    prof = profile(Trace(1, 1, [0], [2**62 + 1], [1], [1]), 2**62)
    assert prof.comm.tolist() == [[2**62, 1]]


def test_profile_cells_are_capped_before_anything_is_allocated():
    # the 100x uniform trace at ws = 250: 20 targets x 48,000 windows
    assert profile(Trace(1, 20, [0], [12_000_000], [1], [1]), 250).comm.shape == (20, 48_000)
    # 1024 targets x 4096 windows is the cap exactly; one more window is past it
    assert 1024 * 4096 == MAX_PROFILE_CELLS
    assert profile(Trace(1, 1024, [4095], [1], [1], [1]), 1).num_windows == 4096
    with pytest.raises(ValueError, match=r"^a profile of 1024 targets x 4097 windows exceeds "):
        profile(Trace(1, 1024, [4096], [1], [1], [1]), 1)
    with pytest.raises(ValueError, match=r"^a profile of 1 targets x 1000000000000005 windows "):
        profile(Trace(1, 1, [10**15], [5], [1], [1]), 1)


@pytest.mark.parametrize("window_size", [2**63, 10**20])
def test_window_size_of_2_63_or_more_rejected(window_size):
    # no trace ends past 2**63 - 1, and int64 window arithmetic cannot take it
    with pytest.raises(ValueError, match=r"^window size must be below 2\*\*63 cycles, got "):
        AnalysisParams(window_size)
    with pytest.raises(ValueError, match=r"below 2\*\*63"):
        profile(Trace(1, 1, [0], [5], [1], [1]), window_size)


def test_window_size_must_be_an_integer():
    with pytest.raises(ValueError, match=r"^window size must be an integer, got 500\.7$"):
        AnalysisParams(500.7, 0.3)
    with pytest.raises(ValueError, match=r"^window size must be an integer, got 500\.7$"):
        profile(Trace(1, 1, [0], [5], [1], [1]), 500.7)
    assert AnalysisParams(np.int64(500)).window_size == 500
    assert profile(Trace(1, 1, [0], [5], [1], [1]), np.int64(2)).comm.tolist() == [[2, 2, 1]]


def test_max_targets_per_bus_must_be_an_integer():
    # a cap of 2.5 would let the search put 3 targets on a bus that validation caps at 2.5
    with pytest.raises(ValueError, match=r"^max targets per bus must be an integer >= 1, got 2\.5$"):
        AnalysisParams(1000, 0.3, 2.5)
    with pytest.raises(ValueError, match=r"^max targets per bus must be >= 1$"):
        AnalysisParams(1000, 0.3, 0)
    assert AnalysisParams(1000, 0.3, np.int64(2)).max_targets_per_bus == 2


def test_preprocess_rejects_mismatched_window_size():
    prof = profile(trace_of(1, 1, [Transaction(0, 5, 1, 1)]), 10)
    with pytest.raises(ValueError, match="window size"):
        preprocess(prof, AnalysisParams(20, 0.3))


def test_validate_profile_catches_tampering():
    # WS 10: t_1 busy (critically) on [0, 10), t_2 on [5, 15), t_3 idle:
    # om = [[10, 5, 0], [5, 10, 0], [0, 0, 0]], peak = [[10, 5, 0], [5, 5, 0], [0, 0, 0]]
    prof = profile(trace_of(1, 3, [Transaction(0, 10, 1, 1, critical=True),
                                   Transaction(5, 10, 1, 2)]), 10)
    validate_profile(prof)
    for field, cells, value, fragment in [
        ("comm", [(0, 0)], 11, "comm entries"),
        ("peak", [(0, 0)], 11, "peak entries"),
        ("om", [(0, 1)], 3, "om must be symmetric"),
        ("om", [(1, 1)], 7, "om diagonal"),
        ("peak", [(1, 1)], 4, "peak diagonal"),
        ("om", [(0, 2), (2, 0)], 5, "om off-diagonal"),
        ("peak", [(0, 2), (2, 0)], 5, "peak off-diagonal"),
        ("om", [(0, 1), (1, 0)], 4, "peak must not exceed om"),
        ("crit", [(0, 2), (2, 0)], True, "crit only where om > 0"),
    ]:
        bad = replace(prof, **{field: getattr(prof, field).copy()})
        for cell in cells:
            getattr(bad, field)[cell] = value
        with pytest.raises(ValueError, match=fragment):
            validate_profile(bad)


def _long_sparse_trace():
    # 200 k windows of 3 cycles: the dense T x T x W tensor would be T times comm
    rng = np.random.Generator(np.random.PCG64(31))
    num_targets, horizon, rows = 8, 600_000, 3000
    start = np.sort(rng.integers(0, horizon - 200, rows))
    return Trace(2, num_targets, start, rng.integers(1, 200, rows),
                 rng.integers(1, 3, rows), rng.integers(1, num_targets + 1, rows),
                 rng.random(rows) < 0.3), 3


def _short_dense_trace():
    # 200 windows, 20 k short transfers, target 1 busy throughout: its row
    # spans every segment, and the segments, not the windows, set the size
    rng = np.random.Generator(np.random.PCG64(32))
    num_targets, horizon, rows = 64, 200_000, 20_000
    start = np.r_[0, np.sort(rng.integers(0, horizon - 4, rows - 1))]
    return Trace(1, num_targets, start,
                 np.r_[horizon, rng.integers(1, 4, rows - 1)],
                 np.ones(rows, dtype=np.int64),
                 np.r_[1, rng.integers(2, num_targets + 1, rows - 1)],
                 rng.random(rows) < 0.3), 1000


@pytest.mark.parametrize("make_trace", [_long_sparse_trace, _short_dense_trace])
def test_profile_memory_is_linear_in_windows_and_segments(make_trace):
    trace, window_size = make_trace()
    tracemalloc.start()
    try:
        prof = profile(trace, window_size)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # Two ends per transfer plus the window cuts.  The T x segments arrays
    # are booleans: an int64 matrix of that shape would take 8 bytes per
    # target and segment, and the dense T x T x W tensor 8 * T per window.
    # Each T x W term is counted at 8 bytes a cell, whatever type comm has.
    max_segments = 2 * len(trace.start) + prof.num_windows
    assert peak < 3 * 8 * prof.comm.size + 5 * trace.num_targets * max_segments
