"""Acceptance gate: one test per shipped guarantee, tolerances pinned.

Each test is self-timed and asserts its own runtime budget, so a plain
``pytest -v tests/test_acceptance.py`` prints one pass/fail line per
criterion with no external harness.
"""

import csv
import time

import numpy as np
import pytest

from xbarsynth import analysis
from xbarsynth.analysis import AnalysisParams, profile
from xbarsynth.cli import RunConfig, compare_bindings, design, sweep_window
from xbarsynth.gen import benchmark_preset
from xbarsynth.lpexport import export_milp
from xbarsynth.sim import simulate
from xbarsynth.solver import CrossbarConfig, min_config, optimal_binding
from xbarsynth.trace import Transaction

from oracles import (
    brute_best_maxov,
    brute_min_buses,
    cycle_profile,
    make_random_config,
    make_random_instance,
    make_random_trace,
    replay_simulate,
    sharing_solutions,
    solve_lp_with_highs,
    trace_of,
)


def test_criterion_1_solver_matches_exhaustive_enumeration():
    """200 random instances (<= 8 targets, <= 6 windows): exact match, < 60 s."""
    t0 = time.monotonic()
    rng = np.random.Generator(np.random.PCG64(2201))
    for _ in range(200):
        inst = make_random_instance(rng, max_targets=8, max_windows=6)
        buses, _ = min_config(inst)
        assert buses == brute_min_buses(inst)
        rep = optimal_binding(inst, buses)
        assert rep.optimal
        assert rep.maxov == brute_best_maxov(inst, buses)
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    print(f"criterion 1: 200/200 instances match enumeration [{elapsed:.1f}s] PASS")


def test_criterion_2_sharing_linearization_is_exact():
    """All four (x_i, x_j) cases admit exactly sb = x_i * x_j, < 1 s."""
    t0 = time.monotonic()
    for x_i in (0, 1):
        for x_j in (0, 1):
            assert sharing_solutions(x_i, x_j) == {x_i * x_j}
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    print(f"criterion 2: 4/4 input combinations unique [{elapsed:.3f}s] PASS")


def test_criterion_3_profile_matches_per_cycle_simulation(monkeypatch):
    """100 random traces (horizon <= 1e5): comm/wo/crit_wo and om/peak/crit exact, < 30 s.

    comm/om/peak/crit are also taken in time blocks of at most 16 interval
    starts and 16 windows each, whose edges cut busy intervals, and
    windows, everywhere."""
    t0 = time.monotonic()
    rng = np.random.Generator(np.random.PCG64(2203))
    whole = analysis._block_step
    for _ in range(100):
        horizon = int(rng.integers(50, 100_001))
        trace = make_random_trace(rng, horizon=horizon, max_txs=60)
        ws = int(rng.choice([1, 7, 64, 1000, horizon // 7 + 1, horizon]))
        monkeypatch.setattr(analysis, "_block_step", whole)
        prof = profile(trace, ws)
        comm, wo, crit_wo = cycle_profile(trace, ws)
        assert np.array_equal(prof.comm, comm)
        assert np.array_equal(prof.wo, wo)
        assert np.array_equal(prof.crit_wo, crit_wo)
        monkeypatch.setattr(analysis, "_block_step", lambda num_targets: 16)
        for prof in (prof, profile(trace, ws)):
            assert np.array_equal(prof.comm, comm)
            assert np.array_equal(prof.om, wo.sum(axis=2))
            assert np.array_equal(prof.peak, wo.max(axis=2, initial=0))
            assert np.array_equal(prof.crit, (crit_wo > 0).any(axis=2))
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    print(f"criterion 3: 100/100 profiles exact [{elapsed:.1f}s] PASS")


def test_criterion_4_half_window_overlap_implies_bandwidth_violation():
    """Any pair above 50% window overlap also exceeds the shared-bus cap."""
    rng = np.random.Generator(np.random.PCG64(2204))
    premise_pairs = 0
    traces = [make_random_trace(rng, horizon=300, max_txs=50) for _ in range(60)]
    # engineered heavy overlap so the premise is exercised for sure
    traces.append(trace_of(2, 2, [Transaction(0, 10, 1, 1), Transaction(2, 8, 2, 2)]))
    for trace in traces:
        ws = int(rng.integers(2, 80))
        prof = profile(trace, ws)
        for i, j, m in np.argwhere(2 * prof.wo > prof.window_size):
            if i < j:
                premise_pairs += 1
                assert prof.comm[i, m] + prof.comm[j, m] > prof.window_size
    assert premise_pairs > 0
    print(f"criterion 4: {premise_pairs} above-half pairs all cap-violating PASS")


def test_criterion_5_correlated_preset_design_trend(tmp_path):
    """mat2like: shared >= 3x full, designed <= 2x full, <= 40% of 12 buses."""
    t0 = time.monotonic()
    spec = benchmark_preset("mat2like")
    run = RunConfig(
        source=spec,
        params=AnalysisParams(window_size=1000, overlap_threshold=0.3),
        out_dir=tmp_path / "c5",
        seed=spec.seed,
    )
    outcome = design(run)
    assert outcome.error is None
    rows = outcome.replays
    shared, designed, full = rows["shared"], rows["designed"], rows["full"]
    assert shared.avg_latency >= 3.0 * full.avg_latency
    assert designed.avg_latency <= 2.0 * full.avg_latency
    buses = outcome.report.config.num_buses
    assert buses <= 0.40 * spec.num_targets
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    print(
        f"criterion 5: buses={buses} shared/full="
        f"{shared.avg_latency / full.avg_latency:.2f} designed/full="
        f"{designed.avg_latency / full.avg_latency:.2f} [{elapsed:.1f}s] PASS"
    )


def test_criterion_6_window_size_sweep_trend(tmp_path):
    """20-core sweep: more buses at 0.25x than 4x burst; mid sizes stay lean."""
    t0 = time.monotonic()
    spec = benchmark_preset("uniform")
    run = RunConfig(
        source=spec,
        params=AnalysisParams(window_size=1000, overlap_threshold=0.1),
        out_dir=tmp_path / "c6",
        seed=spec.seed,
    )
    burst = spec.burst_len_mean
    ws_list = [int(burst * f) for f in (0.25, 0.5, 1, 2, 4, 8)]
    path = sweep_window(run, ws_list)
    with open(path, newline="") as fh:
        rows = {int(r["window_size"]): r for r in csv.DictReader(fh)}
    assert all(rows[ws]["status"] == "ok" for ws in ws_list)
    counts = {ws: int(rows[ws]["bus_count"]) for ws in ws_list}
    assert counts[ws_list[0]] > counts[4 * burst]
    for ws in (burst, 2 * burst, 4 * burst):
        assert counts[ws] <= 0.35 * spec.num_targets
        with open(tmp_path / "c6" / f"ws_{ws}" / "comparison.csv", newline="") as fh:
            comp = {r["name"]: r for r in csv.DictReader(fh)}
        assert float(comp["designed"]["avg_latency"]) <= 2.0 * float(
            comp["full"]["avg_latency"]
        )
    elapsed = time.monotonic() - t0
    assert elapsed < 600.0
    curve = ",".join(str(counts[ws]) for ws in ws_list)
    print(f"criterion 6: bus counts {curve} over {ws_list} [{elapsed:.1f}s] PASS")


def test_criterion_7_random_bindings_pay_on_correlated_preset(tmp_path):
    """mat2like, 10 random feasible bindings: mean latency ratio >= 1.2."""
    t0 = time.monotonic()
    spec = benchmark_preset("mat2like")
    run = RunConfig(
        source=spec,
        params=AnalysisParams(window_size=1000, overlap_threshold=0.3),
        out_dir=tmp_path / "c7",
        seed=spec.seed,
    )
    result = compare_bindings(run, 10)
    assert result.mean_ratio >= 1.2
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    print(f"criterion 7: mean ratio {result.mean_ratio:.3f} [{elapsed:.1f}s] PASS")


def test_criterion_8_simulator_conserves_and_dominates():
    """100 random trace/config pairs: busy-cycle conservation and the
    fresh-bus dominance refinement, both exact."""
    rng = np.random.Generator(np.random.PCG64(2208))
    for _ in range(100):
        trace = make_random_trace(rng)
        config = make_random_config(rng, trace.num_targets)
        rep = simulate(trace, config)
        lat, bus_busy = replay_simulate(trace, config)
        assert rep.per_transaction_latency == lat
        assert len(rep.latency) == len(trace.transactions)
        assert sum(bus_busy) == sum(tx.duration for tx in trace.transactions)
        # moving one target to a fresh bus never hurts any transaction
        moved = int(rng.integers(0, trace.num_targets))
        binding = list(config.binding)
        binding[moved] = config.num_buses + 1
        refined = simulate(trace, CrossbarConfig(config.num_buses + 1, tuple(binding)))
        assert all(
            b <= a
            for a, b in zip(rep.per_transaction_latency, refined.per_transaction_latency)
        )
    print("criterion 8: 100/100 pairs conserve and dominate PASS")


def test_criterion_9_external_milp_reproduces_optimum():
    """Optional: an external MILP solver agrees on 20 small instances."""
    pytest.importorskip("scipy", reason="no external MILP solver installed")
    t0 = time.monotonic()
    rng = np.random.Generator(np.random.PCG64(2209))
    for _ in range(20):
        inst = make_random_instance(rng, max_targets=5, max_windows=3)
        buses = brute_min_buses(inst)
        rep = optimal_binding(inst, buses)
        status, objective = solve_lp_with_highs(export_milp(inst, buses))
        assert status == 0
        assert round(objective) == rep.maxov
    elapsed = time.monotonic() - t0
    print(f"criterion 9: 20/20 external optima match [{elapsed:.1f}s] PASS")


def test_criterion_10_window_design_beats_average_design(tmp_path):
    """uniform (θ 0.1) and mat2like (θ 0.3): the window design (ws 1000) against
    the average design (one window over the trace) and the full crossbar, < 30 s.

    The paper reports up to 7x lower latency than a traditional rate-based
    design and up to 3.5x fewer crossbar components than a full crossbar,
    each the best case over its own designs.  The bounds here sit below the
    ratios measured at the default seeds; they also hold at generator seeds
    7 and 11, but at seed 12 uniform's window design takes 9 buses, and the
    full crossbar only 2.2x that.
    """
    t0 = time.monotonic()
    lines = []
    for preset, theta in (("uniform", 0.1), ("mat2like", 0.3)):
        spec = benchmark_preset(preset)

        def run_design(window_size, name):
            outcome = design(RunConfig(
                source=spec,
                params=AnalysisParams(window_size=window_size, overlap_threshold=theta),
                out_dir=tmp_path / f"{preset}_{name}",
                seed=spec.seed,
            ))
            assert outcome.error is None
            return outcome

        window = run_design(1000, "window")
        average = run_design(window.trace.horizon, "average")
        win, avg = window.replays["designed"], average.replays["designed"]
        win_buses = window.report.config.num_buses
        full_buses = window.trace.num_targets  # one bus per target
        # A window design keeps apart targets whose bursts coincide; a design
        # from whole-trace rates sees only their mean load and shares buses
        # between them.  Demand a clear average gain (measured 0.08x on
        # uniform, 0.66x on mat2like) ...
        assert win.avg_latency <= 0.8 * avg.avg_latency
        # ... and at least halve the worst case, which coinciding bursts
        # queued on one bus set (measured 0.014x and 0.055x).
        assert win.max_latency <= 0.5 * avg.max_latency
        # The window design needs far fewer buses than a full crossbar
        # (measured 20/7 = 2.9x and 12/3 = 4x; the paper reports up to 3.5x).
        assert full_buses >= 2.5 * win_buses
        lines.append(
            f"{preset}: buses {win_buses}/{average.report.config.num_buses}/{full_buses}, "
            f"avg {win.avg_latency:.2f}/{avg.avg_latency:.2f}, "
            f"max {win.max_latency}/{avg.max_latency}"
        )
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    print(f"criterion 10: window/average/full {'; '.join(lines)} [{elapsed:.1f}s] PASS")
