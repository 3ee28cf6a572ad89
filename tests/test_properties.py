"""Property tests: columnar trace, profile, pre-processing, simulator,
clique bound, search kernel and whole solve against the oracles.

Hypothesis shrinks any counterexample to a minimal trace.  Traces are kept
small (a few targets, horizons of a few hundred cycles) so the per-cycle
and per-bus-queue oracles stay fast, and starts are drawn from a narrow
range often enough to produce same-cycle arrivals.  Solver instances come
from ``make_random_instance`` with a drawn seed.
"""

from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xbarsynth import analysis, solver
from xbarsynth.analysis import AnalysisParams, preprocess, profile
from xbarsynth.sim import simulate
from xbarsynth.solver import (
    CrossbarConfig,
    InfeasibleError,
    SearchBudget,
    SolverLimitReached,
    SolverLimits,
    BandwidthInfeasibleError,
    _overlap_order,
    _search,
    binding_fits,
    min_config,
    optimal_binding,
    validate_binding,
)
from xbarsynth.trace import (
    REQUEST,
    RESPONSE,
    Trace,
    TraceError,
    load_trace,
    save_trace,
)

from oracles import (
    binding_maxov,
    brute_best_maxov,
    brute_min_buses,
    brute_optimal_bindings,
    cycle_profile,
    greedy_clique_size,
    make_random_instance,
    reference_search,
    replay_simulate,
    search_outcome,
)

SETTINGS = settings(max_examples=150, deadline=None)


@st.composite
def traces(draw, direction=REQUEST, max_rows=25, critical=st.booleans()):
    num_initiators = draw(st.integers(1, 4))
    num_targets = draw(st.integers(1, 5))
    span = draw(st.sampled_from([3, 40, 200]))  # narrow spans force ties
    rows = draw(st.lists(
        st.tuples(
            st.integers(0, span),
            st.integers(1, 30),
            st.integers(1, num_initiators),
            st.integers(1, num_targets),
            critical,
        ),
        max_size=max_rows,
    ))
    columns = list(zip(*rows)) or [()] * 5
    return Trace(num_initiators, num_targets, *columns, direction=direction)


@st.composite
def trace_and_config(draw):
    trace = draw(traces())
    num_buses = draw(st.integers(1, trace.num_targets))
    binding = tuple(draw(st.lists(st.integers(1, num_buses), min_size=trace.num_targets,
                                  max_size=trace.num_targets)))
    return trace, CrossbarConfig(num_buses, binding)


@SETTINGS
@given(trace_and_config())
def test_simulate_matches_replay(case):
    trace, config = case
    rep = simulate(trace, config)
    latencies, _ = replay_simulate(trace, config)
    assert rep.per_transaction_latency == latencies
    n = len(latencies)
    assert rep.avg_latency == (sum(latencies) / n if n else 0.0)
    assert rep.max_latency == max(latencies, default=0)
    durations = sum(tx.duration for tx in trace.transactions)
    assert rep.avg_queuing == ((sum(latencies) - durations) / n if n else 0.0)


def profile_in_blocks(trace, window_size, block_step):
    """``profile`` in time blocks of its own size (``block_step`` None), or of
    at most ``block_step`` interval starts and windows each."""
    with pytest.MonkeyPatch.context() as patch:
        if block_step is not None:
            patch.setattr(analysis, "_block_step", lambda num_targets: block_step)
        return profile(trace, window_size)


# Time blocks of one or two interval starts or windows cut busy intervals,
# and windows, everywhere.
BLOCK_STEPS = st.sampled_from([None, 1, 2])


@SETTINGS
@given(traces(), st.one_of(st.just(1), st.integers(1, 64)), BLOCK_STEPS)
def test_profile_matches_cycle_oracle(trace, window_size, block_step):
    prof = profile_in_blocks(trace, window_size, block_step)
    comm, wo, crit_wo = cycle_profile(trace, window_size)
    assert np.array_equal(prof.comm, comm)
    assert np.array_equal(prof.wo, wo)
    assert np.array_equal(prof.crit_wo, crit_wo)
    assert np.array_equal(prof.om, wo.sum(axis=2))
    assert np.array_equal(prof.peak, wo.max(axis=2, initial=0))
    assert np.array_equal(prof.crit, (crit_wo > 0).any(axis=2))


@SETTINGS
@given(traces(critical=st.just(True)), st.integers(1, 64),
       st.floats(0.0, 0.5, exclude_min=True), BLOCK_STEPS)
def test_all_critical_streams_conflict_wherever_they_overlap(trace, window_size, theta,
                                                             block_step):
    """With every stream critical, any overlap is a conflict, whatever θ."""
    prof = profile_in_blocks(trace, window_size, block_step)
    conflict = preprocess(prof, AnalysisParams(window_size, theta))
    expected = prof.om > 0
    np.fill_diagonal(expected, False)
    assert np.array_equal(conflict, expected)


@SETTINGS
@given(st.sampled_from([REQUEST, RESPONSE]).flatmap(
    lambda d: st.tuples(st.just(d), traces(direction=d))))
def test_save_load_round_trip(tmp_path_factory, case):
    direction, trace = case
    path = tmp_path_factory.mktemp("rt") / "t.csv"
    save_trace(trace, path)
    assert load_trace(path, direction) == trace
    # the other direction's view of the file is empty
    other = RESPONSE if direction == REQUEST else REQUEST
    assert len(load_trace(path, other).transactions) == 0


CORRUPTIONS = {
    "duration": (lambda f: f[:1] + ["0"] + f[2:], "non-positive duration"),
    "start": (lambda f: ["-3"] + f[1:], "negative start cycle"),
    "initiator": (lambda f: f[:2] + ["99"] + f[3:], "initiator id 99 outside"),
    "target": (lambda f: f[:3] + ["0"] + f[4:], "target id 0 outside"),
    "direction": (lambda f: f[:4] + ["both"] + f[5:], "direction must be req or resp"),
    "critical": (lambda f: f[:5] + ["2"], "critical must be 0 or 1"),
    "fields": (lambda f: f[:5], "expected 6 fields"),
    "literal": (lambda f: ["1.5"] + f[1:], "invalid literal"),
}


@SETTINGS
@given(traces(max_rows=12).filter(lambda t: len(t.transactions) > 0),
       st.sampled_from(sorted(CORRUPTIONS)), st.data())
def test_corrupted_row_reported_at_its_line(tmp_path_factory, trace, kind, data):
    path = tmp_path_factory.mktemp("bad") / "t.csv"
    save_trace(trace, path)
    lines = path.read_text().splitlines()
    # optional comment and blank lines shift the physical line numbers
    for _ in range(data.draw(st.integers(0, 3))):
        lines.insert(data.draw(st.integers(1, len(lines))), data.draw(
            st.sampled_from(["# note", "", "  "])))
    rows = [k for k, line in enumerate(lines) if k > 0 and line.strip()
            and not line.startswith("#")]
    victim = data.draw(st.sampled_from(rows))
    corrupt, fragment = CORRUPTIONS[kind]
    lines[victim] = ",".join(corrupt(lines[victim].split(",")))
    path.write_text("\n".join(lines) + "\n")
    lineno = victim + 1
    with pytest.raises(TraceError) as err:
        load_trace(path)
    assert str(err.value).startswith(f"{path}:{lineno}: ")
    assert str(err.value).count(f"{path}:") == 1  # the line is named once
    assert "at line" not in str(err.value)
    assert fragment in str(err.value)


@SETTINGS
@given(st.integers(1, 6), st.integers(1, 200))
def test_empty_trace_profile_and_simulate(num_targets, window_size):
    trace = Trace(1, num_targets)
    prof = profile(trace, window_size)
    assert prof.num_windows == 0
    assert prof.comm.shape == (num_targets, 0)
    assert prof.wo.shape == prof.crit_wo.shape == (num_targets, num_targets, 0)
    assert prof.om.shape == prof.peak.shape == prof.crit.shape == (num_targets, num_targets)
    assert not prof.om.any() and not prof.peak.any() and not prof.crit.any()
    config = CrossbarConfig(num_targets, tuple(range(1, num_targets + 1)))
    rep = simulate(trace, config)
    assert rep.per_transaction_latency == []
    assert (rep.avg_latency, rep.max_latency, rep.avg_queuing) == (0.0, 0, 0.0)


@st.composite
def conflict_matrices(draw):
    """A symmetric zero-diagonal boolean matrix, T from 1 to 32, at a drawn
    edge density."""
    t = draw(st.integers(1, 32))
    density = draw(st.sampled_from([0.1, 0.3, 0.5, 0.7, 0.9, 1.0]))
    rng = np.random.Generator(np.random.PCG64(draw(st.integers(0, 2**32 - 1))))
    upper = np.triu(rng.random((t, t)) < density, k=1)
    return upper | upper.T


def _adjacency(neighbours: list[list[int]]) -> np.ndarray:
    conflict = np.zeros((len(neighbours), len(neighbours)), dtype=bool)
    for i, row in enumerate(neighbours):
        conflict[i, row] = True
    return conflict


@SETTINGS
@given(conflict_matrices())
# six targets tie at degree 3: the bound is 3 with ties taken by id, 2 the other way
@example(_adjacency([[3, 6], [2, 4, 6], [1, 4, 5], [0, 4, 5], [1, 2, 3], [2, 3, 6], [0, 1, 5]]))
def test_greedy_clique_matches_reference_loop(conflict):
    adjacency = [sum(1 << u for u, c in enumerate(row) if c) for row in conflict.tolist()]
    assert solver._greedy_clique_size(adjacency) == greedy_clique_size(conflict)


@st.composite
def solver_instances(draw):
    """A ``make_random_instance`` instance (maxtb drawn from 1..T), sometimes
    made infeasible at every bus count by one target overflowing a window."""
    rng = np.random.Generator(np.random.PCG64(draw(st.integers(0, 2**32 - 1))))
    inst = make_random_instance(rng, max_targets=7, max_windows=4)
    if draw(st.integers(0, 3)) == 0:  # one instance in four
        i = draw(st.integers(0, inst.num_targets - 1))
        m = draw(st.integers(0, inst.comm.shape[1] - 1))
        comm = inst.comm.copy()
        comm[i, m] = inst.window_size + 1
        inst = replace(inst, comm=comm)
    return inst


@SETTINGS
@given(solver_instances(), st.data())
def test_binding_fits_matches_validate_binding(inst, data):
    """The sampler's packed check against the independent checker, with a
    drawn ``maxtb``, bus count and binding, on instances that sometimes
    overflow a window.  Dividing ``comm`` lets several targets share a bus
    often enough that the ``maxtb`` cap alone decides."""
    t = inst.num_targets
    inst = replace(inst, maxtb=data.draw(st.integers(1, t)),
                   comm=inst.comm // data.draw(st.sampled_from([1, 4, 100])))
    num_buses = data.draw(st.integers(1, t))
    binding = tuple(data.draw(st.lists(st.integers(1, num_buses), min_size=t, max_size=t)))
    assert binding_fits(inst, binding) == (
        validate_binding(inst, CrossbarConfig(num_buses, binding)) == [])


def budget_limits(draw, full_nodes: int) -> SolverLimits:
    """No limit, a node limit below the full count, or a deadline that has
    passed (trips at the first check: node 1, 257, 513, ...)."""
    kind = draw(st.sampled_from(["none", "nodes", "nodes", "deadline"]))
    if kind == "nodes":
        return SolverLimits(node_limit=draw(st.integers(0, max(full_nodes - 1, 0))))
    if kind == "deadline":
        return SolverLimits(time_limit_s=0.0)
    return SolverLimits()


@SETTINGS
@given(solver_instances(), st.data())
def test_search_kernel_matches_reference(inst, data):
    """One call of the fused kernel against the reference search: same
    returned binding, best binding and cost left on the budget, cut type
    and message, and final budget node count.
    The feasibility and improvement searches branch in busy-cycle order,
    overlap order or a random permutation; the tie-break in id order."""
    t = inst.num_targets
    num_buses = data.draw(st.integers(1, t))
    mode = data.draw(st.sampled_from(["feasible", "improve", "tie-break"]))
    order = data.draw(st.one_of(st.just(inst._packed.busy_order), st.just(_overlap_order(inst)),
                                st.permutations(range(t))))
    first_only = mode != "improve"
    top = int(inst.om.sum()) // 2 + 1  # above any binding's cost
    if mode == "feasible":
        bound = float("inf")
    elif mode == "improve":
        bound = data.draw(st.integers(0, top))
    else:
        bound, order = data.draw(st.integers(1, top)), list(range(t))
    args = (inst, num_buses, order, bound, first_only)
    full = search_outcome(reference_search, *args)
    assert search_outcome(_search, *args) == full
    limits = budget_limits(data.draw, full[-1])
    start = data.draw(st.integers(0, 600))
    assert (search_outcome(_search, *args, limits, start)
            == search_outcome(reference_search, *args, limits, start))


@SETTINGS
@given(solver_instances(), st.data())
def test_every_search_leaves_its_best_binding_with_its_maxov(inst, data):
    """After every search of a solve, finished or cut, the cost on
    ``budget.best`` is its binding's ``maxov``, and a search that returns a
    binding returns that one."""
    searches = []

    def checked_search(inst, num_buses, order, bound, first_only, budget):
        found = _search(inst, num_buses, order, bound, first_only, budget)
        searches.append((found, budget.best))
        return found

    buses = data.draw(st.one_of(st.none(), st.integers(1, inst.num_targets)))
    limits = SolverLimits(node_limit=data.draw(st.one_of(st.none(), st.integers(0, 3000))))
    budget = SearchBudget(limits)
    with mock.patch.object(solver, "_search", checked_search):
        try:
            if buses is None:
                buses, _ = min_config(inst, budget)
            optimal_binding(inst, buses, budget)
        except (SolverLimitReached, InfeasibleError):
            pass
    for found, best in searches + [(None, budget.best)]:
        if best is not None:
            num_buses, binding, maxov = best
            assert maxov == binding_maxov(inst.om, CrossbarConfig(num_buses, tuple(binding)))
        if found is not None:
            assert found == best[1]


def bus_count_outcome(inst):
    """``min_config``'s bus count and probes, or its error; the witness it
    leaves on the budget must be a valid binding onto that many buses."""
    budget = SearchBudget()
    try:
        buses, probes = min_config(inst, budget)
    except BandwidthInfeasibleError as exc:
        return type(exc), str(exc)
    if budget.best is not None:
        assert budget.best[0] == buses
        assert validate_binding(inst, CrossbarConfig(buses, tuple(budget.best[1]))) == []
    return buses, probes


@SETTINGS
@given(solver_instances())
def test_min_config_probes_match_busy_order_reference(inst):
    """``min_config``, whose probes branch in overlap order, against the
    same bus-count search with every probe run by ``reference_feasible``
    in busy-cycle order: the branching order moves the probes' trees and
    witnesses, never the bus count or a probe's answer."""
    with mock.patch.object(solver, "_search", reference_search), \
            mock.patch.object(solver, "_overlap_order", lambda inst: inst._packed.busy_order):
        expected = bus_count_outcome(inst)
    assert bus_count_outcome(inst) == expected


def solve_outcome(inst, limits, buses):
    """Observable result of ``min_config`` then ``optimal_binding`` on one
    budget (or ``optimal_binding`` alone at ``buses``), wall times aside.
    As in ``design``, the witness ``min_config`` leaves on the budget is the
    binding search's fallback incumbent."""
    budget = SearchBudget(limits)
    out = []
    try:
        if buses is None:
            buses, probes = min_config(inst, budget)
            out.append((buses, probes, budget.best))
        rep = optimal_binding(inst, buses, budget)
        out.append((rep.config, rep.maxov, rep.nodes_explored, rep.optimal,
                    rep.feasibility_probes))
    except SolverLimitReached as exc:
        inc = exc.incumbent
        out.append((type(exc), str(exc),
                    inc and (inc.config, inc.maxov, inc.nodes_explored,
                             inc.feasibility_probes, inc.optimal)))
    except InfeasibleError as exc:
        out.append((type(exc), str(exc)))
    return out, budget.nodes


@SETTINGS
@given(solver_instances(), st.data())
def test_solve_matches_reference_search(inst, data):
    """The whole solve with the fused kernel against the same solve run on
    the reference search, under node limits below its full count, deadlines,
    maxtb caps, infeasible bus counts and overflowing targets."""
    buses = data.draw(st.one_of(st.none(), st.integers(1, inst.num_targets)))
    with mock.patch.object(solver, "_search", reference_search):
        full = solve_outcome(inst, SolverLimits(), buses)
    assert solve_outcome(inst, SolverLimits(), buses) == full
    limits = budget_limits(data.draw, full[1])
    with mock.patch.object(solver, "_search", reference_search):
        expected = solve_outcome(inst, limits, buses)
    assert solve_outcome(inst, limits, buses) == expected


@SETTINGS
@given(st.integers(0, 2**32 - 1))
def test_solve_matches_enumeration(seed):
    """``min_config`` then ``optimal_binding`` against enumeration of every
    partition: the minimum bus count, the optimal maxov and the
    lexicographically smallest canonical binding reaching it."""
    inst = make_random_instance(np.random.Generator(np.random.PCG64(seed)),
                                max_targets=6, max_windows=4)
    buses, _ = min_config(inst)
    assert buses == brute_min_buses(inst)
    rep = optimal_binding(inst, buses)
    assert rep.maxov == brute_best_maxov(inst, buses)
    assert rep.config.binding == min(brute_optimal_bindings(inst, buses, rep.maxov))
