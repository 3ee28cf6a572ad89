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
and the looser minimum bus count B is no larger.  None needs a reference
answer, so they check the solver past the exhaustive oracles' reach.
"""

import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xbarsynth.analysis import AnalysisParams, preprocess, profile
from xbarsynth.gen import benchmark_preset, generate
from xbarsynth.solver import build_instance, min_config, optimal_binding, validate_binding

from oracles import make_random_trace

SETTINGS = settings(max_examples=40, deadline=None)
MAT2LIKE_WINDOWS = (250, 500, 1000, 2000, 4000, 8000)


def solve(trace, params):
    """The instance of ``params`` on ``trace`` and its optimal binding."""
    prof = profile(trace, params.window_size)
    inst = build_instance(prof, prof.om, preprocess(prof, params), params)
    buses, _, witness = min_config(inst)
    return inst, optimal_binding(inst, buses, witness=witness).config


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
    return trace, {ws: solve(trace, AnalysisParams(ws, 0.3)) for ws in MAT2LIKE_WINDOWS}


def test_window_chain_on_mat2like(mat2like):
    _, solved = mat2like
    for ws, coarser in itertools.combinations(MAT2LIKE_WINDOWS, 2):
        check_relation(solved[ws], solved[coarser])


@pytest.mark.parametrize("ws", MAT2LIKE_WINDOWS)
def test_threshold_and_cap_on_mat2like(mat2like, ws):
    trace, solved = mat2like
    for theta in (0.4, 0.5):
        check_relation(solved[ws], solve(trace, AnalysisParams(ws, theta)))
    capped = [solve(trace, AnalysisParams(ws, 0.3, maxtb)) for maxtb in (2, 3, 4)]
    for tight, loose in itertools.pairwise(capped + [solved[ws]]):
        check_relation(tight, loose)
