"""Contention simulator: hand examples, invariants, replay oracle."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from xbarsynth import sim
from xbarsynth import trace as trace_module
from xbarsynth.analysis import AnalysisParams, preprocess, profile
from xbarsynth.gen import benchmark_preset, generate
from xbarsynth.sim import (
    ReplayStats,
    SimulationError,
    baseline_configs,
    compare,
    full_crossbar_config,
    shared_bus_config,
    simulate,
)
from xbarsynth.solver import (
    CrossbarConfig,
    SearchBudget,
    build_instance,
    min_config,
    optimal_binding,
)
from xbarsynth.trace import Trace, Transaction

from oracles import make_random_config, make_random_trace, replay_simulate, trace_of


def test_single_transaction_uncontended():
    tr = trace_of(1, 1, [Transaction(0, 5, 1, 1)])
    rep = simulate(tr, shared_bus_config(1))
    assert rep.per_transaction_latency == [5]
    assert rep.avg_latency == 5
    assert rep.max_latency == 5
    assert rep.avg_queuing == 0


def test_two_targets_serialize_on_shared_bus():
    tr = trace_of(2, 2, [Transaction(0, 5, 1, 1), Transaction(0, 5, 2, 2)])
    rep = simulate(tr, shared_bus_config(2))
    assert sorted(rep.per_transaction_latency) == [5, 10]
    assert rep.avg_latency == 7.5
    assert rep.max_latency == 10


def test_two_targets_isolated_on_full_crossbar():
    tr = trace_of(2, 2, [Transaction(0, 5, 1, 1), Transaction(0, 5, 2, 2)])
    rep = simulate(tr, full_crossbar_config(2))
    assert rep.per_transaction_latency == [5, 5]


def test_grant_order_ties_break_by_target_then_initiator():
    # three same-cycle arrivals on one bus: grant t_1 before t_2, and for
    # equal targets the lower initiator first
    tr = trace_of(2, 2, [
        Transaction(0, 2, 2, 2),
        Transaction(0, 3, 1, 1),
        Transaction(0, 4, 2, 1),
    ])
    rep = simulate(tr, shared_bus_config(2))
    by_identity = {
        (tx.initiator_id, tx.target_id): lat
        for tx, lat in zip(tr.transactions, rep.per_transaction_latency)
    }
    assert by_identity[(1, 1)] == 3      # granted first
    assert by_identity[(2, 1)] == 3 + 4  # same target, higher initiator id
    assert by_identity[(2, 2)] == 7 + 2


def test_fifo_not_shortest_job_first():
    tr = trace_of(1, 2, [Transaction(0, 10, 1, 1), Transaction(1, 1, 1, 2)])
    rep = simulate(tr, shared_bus_config(2))
    assert rep.per_transaction_latency == [10, 10]  # short one waits


def test_latency_never_below_duration():
    rng = np.random.Generator(np.random.PCG64(71))
    for _ in range(20):
        tr = make_random_trace(rng)
        cfg = make_random_config(rng, tr.num_targets)
        rep = simulate(tr, cfg)
        for tx, lat in zip(tr.transactions, rep.per_transaction_latency):
            assert lat >= tx.duration


def test_conservation_of_busy_cycles():
    rng = np.random.Generator(np.random.PCG64(73))
    for _ in range(20):
        tr = make_random_trace(rng)
        cfg = make_random_config(rng, tr.num_targets)
        rep = simulate(tr, cfg)
        _, bus_busy = replay_simulate(tr, cfg)
        total = sum(tx.duration for tx in tr.transactions)
        assert sum(bus_busy) == total
        assert len(rep.per_transaction_latency) == len(tr.transactions)


def test_dominance_refinement_never_hurts():
    rng = np.random.Generator(np.random.PCG64(79))
    for _ in range(20):
        tr = make_random_trace(rng, num_targets=int(rng.integers(2, 6)))
        cfg = make_random_config(rng, tr.num_targets)
        base = simulate(tr, cfg)
        moved = int(rng.integers(0, tr.num_targets))
        refined_binding = list(cfg.binding)
        refined_binding[moved] = cfg.num_buses + 1
        refined = CrossbarConfig(cfg.num_buses + 1, tuple(refined_binding))
        ref = simulate(tr, refined)
        for before, after in zip(base.per_transaction_latency,
                                 ref.per_transaction_latency):
            assert after <= before


def _designed_hotspot():
    """The hotspot preset's trace and its designed binding onto 2 buses."""
    trace = generate(benchmark_preset("hotspot"))
    params = AnalysisParams(1000, 0.3)
    prof = profile(trace, params.window_size)
    inst = build_instance(prof, prof.om, preprocess(prof, params), params)
    budget = SearchBudget()
    config = optimal_binding(inst, min_config(inst, budget)[0], budget).config
    assert config.num_buses == 2
    return trace, config


def test_matches_queue_replay_oracle(monkeypatch):
    rng = np.random.Generator(np.random.PCG64(83))
    cases = []
    for _ in range(30):
        tr = make_random_trace(rng)
        cases += [(tr, make_random_config(rng, tr.num_targets)),
                  (tr, shared_bus_config(tr.num_targets))]
    # one queue of seven rows, granted back to back: blocks of 2 or 3 rows
    # cut it, so each block starts from the completion before it
    queue = trace_of(2, 2, [Transaction(s // 3, 4, s % 2 + 1, s % 2 + 1) for s in range(7)])
    # bus 2 serves t_2 at both ends alone, and its second row waits for the
    # first: with windows of 3 or 4 rows it misses the windows between them,
    # whose bus-1 runs continue across windows
    ends = trace_of(1, 3, [Transaction(0, 50, 1, 2), *(Transaction(s, 4, 1, s % 2 * 2 + 1)
                                                       for s in range(1, 13)),
                           Transaction(40, 3, 1, 2)])
    assert simulate(ends, CrossbarConfig(2, (1, 2, 1))).latency[-1] == 13
    empty = Trace(1, 3)
    cases += [(queue, shared_bus_config(2)), (queue, CrossbarConfig(2, (2, 2))),
              (ends, CrossbarConfig(2, (1, 2, 1))), (ends, full_crossbar_config(3)),
              (empty, shared_bus_config(3)), (empty, full_crossbar_config(3)),
              _designed_hotspot()]
    # windows of max(row block, rows per group x groups) rows: the defaults,
    # then a window of a few rows per bus
    for row_block, group_rows in ((trace_module._ROW_BLOCK, trace_module._GROUP_ROWS),
                                  (3, 1), (2, 1)):
        monkeypatch.setattr(trace_module, "_ROW_BLOCK", row_block)
        monkeypatch.setattr(trace_module, "_GROUP_ROWS", group_rows)
        for tr, cfg in cases:
            rep = simulate(tr, cfg)
            oracle_lat, _ = replay_simulate(tr, cfg)
            assert rep.per_transaction_latency == oracle_lat


def test_one_bus_binding_of_many_matches_queue_replay_oracle():
    # a multi-bus config that binds every target to one bus replays in
    # trace order, like the shared bus; a config with a second bus in use
    # groups rows by bus
    rng = np.random.Generator(np.random.PCG64(97))
    for _ in range(20):
        tr = make_random_trace(rng, num_targets=int(rng.integers(2, 6)))
        t = tr.num_targets
        bus = int(rng.integers(1, 4))
        one_bus = CrossbarConfig(3, (bus,) * t)
        two_buses = CrossbarConfig(3, (bus,) * (t - 1) + (bus % 3 + 1,))
        for cfg in (one_bus, two_buses, shared_bus_config(t)):
            rep = simulate(tr, cfg)
            assert rep.per_transaction_latency == replay_simulate(tr, cfg)[0]
            assert rep.latency.dtype == np.int64 and not rep.latency.flags.writeable
        assert np.array_equal(simulate(tr, one_bus).latency,
                              simulate(tr, shared_bus_config(t)).latency)


def test_full_crossbar_without_same_target_concurrency_is_pure_service():
    tr = trace_of(3, 3, [Transaction(s, 4, 1, t) for s, t in [(0, 1), (1, 2), (2, 3)]])
    rep = simulate(tr, full_crossbar_config(3))
    assert rep.per_transaction_latency == [4, 4, 4]
    assert rep.avg_queuing == 0


def test_determinism():
    rng = np.random.Generator(np.random.PCG64(89))
    tr = make_random_trace(rng)
    cfg = make_random_config(rng, tr.num_targets)
    a = simulate(tr, cfg)
    b = simulate(tr, cfg)
    assert a.per_transaction_latency == b.per_transaction_latency


def test_empty_trace():
    rep = simulate(Trace(1, 2), shared_bus_config(2))
    assert rep.avg_latency == 0.0
    assert rep.max_latency == 0
    assert rep.avg_queuing == 0.0


def test_latency_total_is_exact_past_int64():
    # three 2**61-cycle rows queue on one bus; their latencies sum to 3 * 2**62
    tr = Trace(3, 1, [0, 0, 0], [2**61] * 3, [1, 2, 3], [1, 1, 1])
    rep = simulate(tr, shared_bus_config(1))
    assert rep.per_transaction_latency == [2**61, 2**62, 3 * 2**61]
    assert rep.avg_latency == 2**62
    assert rep.avg_queuing == 2**61


def test_missing_target_binding_rejected():
    tr = trace_of(1, 3, [Transaction(0, 5, 1, 3)])
    with pytest.raises(SimulationError, match="t_3"):
        simulate(tr, CrossbarConfig(1, (1, 1)))


@pytest.mark.parametrize("label", [10**12, 10**20])
def test_bus_labels_never_size_an_array(label):
    # rows are grouped by the labels the binding uses; a label is only a name
    trace = generate(benchmark_preset("hotspot"))
    expected = simulate(trace, CrossbarConfig(2, (2, 1, 1, 1))).latency
    assert np.array_equal(simulate(trace, CrossbarConfig(label, (label, 1, 1, 1))).latency,
                          expected)


def test_compare_table_and_size_ratio():
    tr = trace_of(2, 2, [Transaction(0, 5, 1, 1), Transaction(0, 5, 2, 2)])
    rows = compare(tr, baseline_configs(2))
    assert list(rows) == ["shared", "full"]
    assert [r.config for r in rows.values()] == [c for _, c in baseline_configs(2)]
    # the size ratio to the one-bus baseline is the bus count
    assert [r.config.num_buses for r in rows.values()] == [1, 2]
    assert rows["shared"].avg_latency >= rows["full"].avg_latency


def test_compare_simulates_each_distinct_config_once(monkeypatch):
    rng = np.random.default_rng(5)
    tr = make_random_trace(rng, num_targets=4, max_txs=60)
    shared, full = baseline_configs(4)
    other = ("other", make_random_config(rng, 4))
    # the designed config equals the full crossbar, as on a trace whose
    # every target pair conflicts
    configs = [shared, ("designed", full_crossbar_config(4)), full, other]
    calls = []

    def counted(trace, config):
        calls.append(config)
        return simulate(trace, config)

    monkeypatch.setattr(sim, "simulate", counted)
    rows = compare(tr, configs)
    assert sorted(calls, key=repr) == sorted({c for _, c in configs}, key=repr)
    assert list(rows) == [name for name, _ in configs]
    for row, (_, config) in zip(rows.values(), configs):
        report = simulate(tr, config)
        assert (row.config, row.avg_latency, row.max_latency) == (
            config, report.avg_latency, report.max_latency)


def test_compare_builds_no_per_transaction_list(monkeypatch):
    """``compare`` keeps latencies in numpy and only until their statistics
    are taken.  Right after each ``simulate`` returns, the Python objects
    allocated since tracing began (tracemalloc domain 0; numpy buffers are
    traced in their own domain) stay far below one pointer per
    transaction, let alone one int object each.  Across a whole
    ``compare`` of three configs the traced peak over what it started with
    is one replay's latency array (8 bytes a row) and a few blocks, with
    the block constants shrunk so that the blocks are small beside the
    rows, and what it returns holds no array."""
    trace = generate(replace(benchmark_preset("uniform"), horizon=10 * 120_000))
    n = len(trace.transactions)
    assert n > 40_000
    configs = [*baseline_configs(trace.num_targets),
               ("two", CrossbarConfig(2, tuple(t % 2 + 1 for t in range(trace.num_targets))))]
    python_bytes = []

    def traced_simulate(*args, **kwargs):
        report = simulate(*args, **kwargs)
        snap = tracemalloc.take_snapshot().filter_traces([tracemalloc.DomainFilter(True, 0)])
        python_bytes.append(sum(stat.size for stat in snap.statistics("filename")))
        return report

    with monkeypatch.context() as patched:
        patched.setattr(sim, "simulate", traced_simulate)
        tracemalloc.start()
        try:
            rows = compare(trace, configs)
        finally:
            tracemalloc.stop()
    assert len(rows) == len(python_bytes) == 3
    assert max(python_bytes) < 8 * n

    monkeypatch.setattr(trace_module, "_ROW_BLOCK", 256)
    monkeypatch.setattr(trace_module, "_GROUP_ROWS", 16)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        rows = compare(trace, configs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - before <= 8 * n + (1 << 16), (
        f"{(peak - before) / 2**20:.2f} MiB over {n} rows: more than one latency array")
    for row, (_, config) in zip(rows.values(), configs):
        assert type(row) is ReplayStats and row.config == config
        assert not [v for v in vars(row).values() if isinstance(v, np.ndarray)]

    report = simulate(trace, shared_bus_config(trace.num_targets))
    assert report.latency.dtype == np.int64 and not report.latency.flags.writeable
    assert report.per_transaction_latency == report.latency.tolist()
    assert len(report.latency) == n
    stats = report.stats
    assert type(stats) is ReplayStats
    assert (stats.config, stats.avg_latency, stats.max_latency, stats.avg_queuing) == (
        report.config, report.avg_latency, report.max_latency, report.avg_queuing)
