"""Metamorphic relations of the design problem: exactness checked where no
oracle reaches (Chen, Cheung & Yiu 1998).

Each relation pairs a tighter problem with a looser one on the same trace:

- window chain: ws' = 2**j * ws; a window of ws' is 2**j windows of ws,
  and floor(theta * ws') >= 2**j * floor(theta * ws);
- threshold: theta' >= theta;
- cap: maxtb' >= maxtb.

Three things hold for every pair: the looser problem's conflict graph is a
subgraph of the tighter one's (the cap leaves it as it is), the tighter
problem's optimal binding passes ``validate_binding`` on the looser one,
and the looser minimum bus count B is no larger.

Two more relations hold on one problem:

- relabelling: permuting the target ids of the trace leaves B and the
  optimal ``maxov`` unchanged, while it changes the search tree, so it
  checks the pruning, not just the bookkeeping;
- proof replay: every bus-count probe, re-run under a random target order,
  gives the same answer; the infeasible probe at B - 1, the proof that B
  is minimal unless B is the lower bound, is among them.

None needs a reference answer, so they check the solver past the
exhaustive oracles' reach.
"""

import itertools
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xbarsynth import solver
from xbarsynth.analysis import AnalysisParams, preprocess, profile
from xbarsynth.gen import benchmark_preset, generate
from xbarsynth.solver import (
    build_instance,
    check_feasible,
    lower_bound,
    min_config,
    optimal_binding,
    validate_binding,
)
from xbarsynth.trace import Trace

from oracles import binding_maxov, make_random_trace

SETTINGS = settings(max_examples=40, deadline=None)
WINDOWS = (250, 500, 1000, 2000, 4000, 8000)
UNIFORM_THETAS = (0.1, 0.2, 0.3)


def instance(trace, params):
    prof = profile(trace, params.window_size)
    return build_instance(prof, prof.om, preprocess(prof, params), params)


def solve(trace, params):
    """The instance of ``params`` on ``trace`` and its optimal binding."""
    inst = instance(trace, params)
    buses, _ = min_config(inst)
    return inst, optimal_binding(inst, buses).config


def optimum(solved):
    """B and the optimal ``maxov`` of a solved ``(instance, binding)``,
    the ``maxov`` recomputed from the binding."""
    inst, config = solved
    return config.num_buses, binding_maxov(inst.om, config)


def relabelled(trace, rng):
    """``trace`` with its target ids permuted at random."""
    perm = rng.permutation(trace.num_targets) + 1
    return Trace(trace.num_initiators, trace.num_targets, trace.start, trace.duration,
                 trace.initiator, perm[trace.target - 1], trace.critical)


def replay_probes(inst, rng):
    """Re-run every probe of ``inst``'s bus-count search with the targets
    branched on in a random order, and check that the B - 1 probe is there
    unless B is the lower bound."""
    buses, probes = min_config(inst)
    order = tuple(rng.permutation(inst.num_targets).tolist())
    with mock.patch.object(solver, "_overlap_order", lambda _: order):
        for num_buses, feasible in probes:
            assert check_feasible(inst, num_buses)[0] == feasible
    assert buses == lower_bound(inst) or (buses - 1, False) in probes


def check_relation(tight, loose):
    """The three relations between solved ``(instance, binding)`` pairs."""
    (tight_inst, tight_config), (loose_inst, loose_config) = tight, loose
    assert not (loose_inst.conflict & ~tight_inst.conflict).any()
    assert validate_binding(loose_inst, tight_config) == []
    assert loose_config.num_buses <= tight_config.num_buses


@st.composite
def problems(draw):
    """A random trace of up to 8 targets and analysis knobs for it."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    trace = make_random_trace(rng, num_targets=draw(st.integers(1, 8)))
    params = AnalysisParams(draw(st.integers(1, 60)), draw(st.floats(0.01, 0.5)),
                            draw(st.one_of(st.none(), st.integers(1, 8))))
    return trace, params


@SETTINGS
@given(problem=problems(), doublings=st.integers(1, 3))
def test_window_chain(problem, doublings):
    trace, params = problem
    loose = replace(params, window_size=params.window_size << doublings)
    check_relation(solve(trace, params), solve(trace, loose))


@SETTINGS
@given(problem=problems(), step=st.floats(0.0, 1.0))
def test_threshold(problem, step):
    trace, params = problem
    theta = params.overlap_threshold
    loose = replace(params, overlap_threshold=theta + step * (0.5 - theta))
    check_relation(solve(trace, params), solve(trace, loose))


@SETTINGS
@given(problem=problems(), extra=st.integers(0, 8))
def test_cap(problem, extra):
    trace, params = problem
    tight = replace(params, max_targets_per_bus=params.max_targets_per_bus or trace.num_targets)
    loose = replace(tight, max_targets_per_bus=tight.max_targets_per_bus + extra)
    check_relation(solve(trace, tight), solve(trace, loose))


@pytest.fixture(scope="module")
def mat2like():
    """mat2like (seed 2024) at theta 0.3 over ws 250-8000, solved once per window size."""
    trace = generate(benchmark_preset("mat2like"))
    return trace, {ws: solve(trace, AnalysisParams(ws, 0.3)) for ws in WINDOWS}


def test_window_chain_on_mat2like(mat2like):
    _, solved = mat2like
    for ws, coarser in itertools.combinations(WINDOWS, 2):
        check_relation(solved[ws], solved[coarser])


@pytest.mark.parametrize("ws", WINDOWS)
def test_threshold_and_cap_on_mat2like(mat2like, ws):
    trace, solved = mat2like
    for theta in (0.4, 0.5):
        check_relation(solved[ws], solve(trace, AnalysisParams(ws, theta)))
    capped = [solve(trace, AnalysisParams(ws, 0.3, maxtb)) for maxtb in (2, 3, 4)]
    for tight, loose in itertools.pairwise(capped + [solved[ws]]):
        check_relation(tight, loose)


@SETTINGS
@given(problem=problems(), seed=st.integers(0, 2**32 - 1))
def test_relabelling(problem, seed):
    trace, params = problem
    moved = relabelled(trace, np.random.default_rng(seed))
    assert optimum(solve(moved, params)) == optimum(solve(trace, params))


@SETTINGS
@given(problem=problems(), seed=st.integers(0, 2**32 - 1))
def test_proof_replay(problem, seed):
    trace, params = problem
    replay_probes(instance(trace, params), np.random.default_rng(seed))


@pytest.mark.parametrize("ws", WINDOWS)
def test_relabelling_and_proof_replay_on_mat2like(mat2like, ws):
    # at ws 250 and 500 the B - 1 probe is infeasible; above, B is the lower bound
    trace, solved = mat2like
    rng = np.random.default_rng(ws)
    for _ in range(3):
        moved = relabelled(trace, rng)
        assert optimum(solve(moved, AnalysisParams(ws, 0.3))) == optimum(solved[ws])
        replay_probes(solved[ws][0], rng)


@pytest.fixture(scope="module", params=(2024, 7), ids=lambda seed: f"corpus-{seed}")
def uniform(request):
    """uniform (T = 20) at corpus seed 2024 or 7, solved once per theta
    0.1-0.3 and ws 250-8000."""
    trace = generate(replace(benchmark_preset("uniform"), seed=request.param))
    return trace, {(theta, ws): solve(trace, AnalysisParams(ws, theta))
                   for theta in UNIFORM_THETAS for ws in WINDOWS}


def test_window_chain_on_uniform(uniform):
    _, solved = uniform
    for ws, coarser in itertools.combinations(WINDOWS, 2):
        check_relation(solved[0.1, ws], solved[0.1, coarser])


def test_threshold_on_uniform(uniform):
    _, solved = uniform
    for ws in WINDOWS:
        for theta, looser in itertools.combinations(UNIFORM_THETAS, 2):
            check_relation(solved[theta, ws], solved[looser, ws])


@pytest.mark.parametrize("ws", WINDOWS)
def test_relabelling_and_proof_replay_on_uniform(uniform, ws):
    trace, solved = uniform
    rng = np.random.default_rng(ws)
    moved = relabelled(trace, rng)
    assert optimum(solve(moved, AnalysisParams(ws, 0.1))) == optimum(solved[0.1, ws])
    replay_probes(solved[0.1, ws][0], rng)
