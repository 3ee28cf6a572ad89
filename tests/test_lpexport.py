"""LP text export: linearization, structure, external-solver agreement."""

import re
from dataclasses import replace

import numpy as np
import pytest

from xbarsynth.analysis import AnalysisParams, aggregate_overlap, preprocess, profile
from xbarsynth.gen import benchmark_preset, generate
from xbarsynth.lpexport import export_milp
from xbarsynth.solver import (
    ProblemInstance,
    binding_windows,
    build_instance,
    min_config,
    optimal_binding,
)

from oracles import brute_best_maxov, brute_min_buses, make_random_instance, sharing_solutions


def small_instance():
    comm = np.array([[3, 1], [2, 2], [1, 3]])
    om = np.array([[0, 4, 1], [4, 0, 2], [1, 2, 0]])
    conflict = np.zeros((3, 3), dtype=bool)
    conflict[0, 1] = conflict[1, 0] = True
    return ProblemInstance(5, comm, om, conflict, maxtb=2)


def test_linearization_pins_product():
    for x_i in (0, 1):
        for x_j in (0, 1):
            assert sharing_solutions(x_i, x_j) == {x_i * x_j}


def test_two_target_model_symbol_counts():
    inst = ProblemInstance(10, np.ones((2, 1)), np.zeros((2, 2)),
                           np.zeros((2, 2), bool), 2)
    text = export_milp(inst, 2)
    assert len(set(re.findall(r"\bx_\d+_\d+\b", text))) == 4
    assert not re.search(r"\bsb_\d", text)  # om = 0: sharing adds nothing
    assert len(re.findall(r"^ assign_\d+:", text, re.M)) == 2
    text = export_milp(replace(inst, om=np.array([[0, 3], [3, 0]])), 2)
    assert len(set(re.findall(r"\bsb_\d+_\d+_\d+\b", text))) == 2  # 1 pair x 2 buses


def test_constraint_row_counts():
    inst = small_instance()
    text = export_milp(inst, 2)
    t, b, w = 3, 2, 2
    shared = 2  # (1, 3) and (2, 3); (1, 2) conflicts
    assert len(re.findall(r"^ assign_", text, re.M)) == t
    assert len(re.findall(r"^ bw_", text, re.M)) == b * w  # both column totals 6 > 5
    assert len(re.findall(r"^ lin1_", text, re.M)) == shared * b
    assert len(re.findall(r"^ lin2_", text, re.M)) == shared * b
    assert len(re.findall(r"^ conflict_", text, re.M)) == b
    assert len(re.findall(r"^ card_", text, re.M)) == b
    assert len(re.findall(r"^ busov_", text, re.M)) == b
    assert " conflict_1_2_1: x_1_1 + x_2_1 <= 1" in text


def test_bus_count_validated():
    inst = small_instance()
    with pytest.raises(ValueError, match="outside"):
        export_milp(inst, 0)
    with pytest.raises(ValueError, match="outside"):
        export_milp(inst, 4)


def test_zero_traffic_windows_skipped():
    comm = np.array([[4, 0], [3, 0]])
    inst = ProblemInstance(5, comm, np.zeros((2, 2)), np.zeros((2, 2), bool), 2)
    text = export_milp(inst, 1)
    assert re.findall(r"^ bw_.*", text, re.M) == [" bw_1_0: 4 x_1_1 + 3 x_2_1 <= 5"]


def test_windows_whose_column_total_fits_write_no_bw_row():
    """No bus can exceed a window whose column total fits it: window 0
    (3 + 3 > 5) binds on each bus, windows 1 (2 + 2) and 2 (5 + 0) do not."""
    comm = np.array([[3, 2, 5], [3, 2, 0]])
    inst = ProblemInstance(5, comm, np.zeros((2, 2)), np.zeros((2, 2), bool), 2)
    text = export_milp(inst, 2)
    assert re.findall(r"^ bw_\d+_\d+", text, re.M) == [" bw_1_0", " bw_2_0"]
    assert list(binding_windows(comm, 5)) == [0]


def test_conflicting_pair_is_one_row_per_bus_without_sb():
    inst = small_instance()  # t_1 and t_2 conflict, with om 4
    text = export_milp(inst, 3)
    rows = re.findall(r"^ conflict_.*", text, re.M)
    assert rows == [f" conflict_1_2_{k}: x_1_{k} + x_2_{k} <= 1" for k in (1, 2, 3)]
    assert "sb_1_2_" not in text


def test_zero_overlap_pair_has_no_sb():
    inst = small_instance()
    om = inst.om.copy()
    om[0, 2] = om[2, 0] = 0
    text = export_milp(replace(inst, om=om), 2)
    assert "sb_1_3_" not in text
    assert re.findall(r"^ lin1_\d+_\d+", text, re.M) == [" lin1_2_3"] * 2


def test_model_has_no_pair_sum_variable():
    rng = np.random.Generator(np.random.PCG64(39))
    for inst in [small_instance()] + [make_random_instance(rng, 6) for _ in range(10)]:
        text = export_milp(inst, inst.num_targets)
        assert not re.search(r"\bs_\d", text)
        assert "share_" not in text


def test_external_solver_reproduces_internal_optimum():
    pytest.importorskip("scipy")
    from oracles import solve_lp_with_highs

    rng = np.random.Generator(np.random.PCG64(97))
    for _ in range(6):
        inst = make_random_instance(rng, max_targets=5, max_windows=3)
        buses, _ = min_config(inst)
        rep = optimal_binding(inst, buses)
        status, obj = solve_lp_with_highs(export_milp(inst, buses))
        assert status == 0
        assert round(obj) == rep.maxov


def test_external_solver_agrees_on_infeasibility():
    pytest.importorskip("scipy")
    from oracles import solve_lp_with_highs

    inst = small_instance()  # targets 1,2 conflict: one bus is impossible
    status, _ = solve_lp_with_highs(export_milp(inst, 1))
    assert status == 2


HIGHS_LIMIT_S = 60.0


def test_sparse_milp_matches_enumeration():
    """The sparse MILP oracle itself: on random instances it proves the
    enumerated minimum bus count B (B - 1 infeasible) and its best ``maxov``."""
    pytest.importorskip("scipy")
    from oracles import solve_sparse_milp

    rng = np.random.Generator(np.random.PCG64(3939))
    for _ in range(30):
        inst = make_random_instance(rng, max_targets=6, max_windows=4)
        buses = brute_min_buses(inst)
        assert solve_sparse_milp(inst, buses, HIGHS_LIMIT_S) == (
            0, brute_best_maxov(inst, buses))
        if buses > 1:
            assert solve_sparse_milp(inst, buses - 1, HIGHS_LIMIT_S)[0] == 2


@pytest.fixture(scope="module")
def preset_traces():
    return {preset: generate(benchmark_preset(preset)) for preset in ("mat2like", "hotspot")}


@pytest.mark.parametrize("ws", [500, 1000, 2000])
@pytest.mark.parametrize("preset", ["mat2like", "hotspot"])
def test_sparse_milp_and_export_agree_with_solver(preset_traces, preset, ws):
    """On the conflict-heavy presets (θ 0.3), the MILP built straight from
    the instance and the exported LP both find the solver's bus count B
    feasible at its ``maxov`` and prove B - 1 buses infeasible."""
    pytest.importorskip("scipy")
    from oracles import solve_lp_with_highs, solve_sparse_milp

    params = AnalysisParams(ws, 0.3)
    prof = profile(preset_traces[preset], ws)
    inst = build_instance(prof, aggregate_overlap(prof), preprocess(prof, params), params)
    buses, _ = min_config(inst)
    maxov = optimal_binding(inst, buses).maxov
    assert buses > 1  # so B - 1 buses is a model to solve
    solvers = {
        "sparse MILP": lambda b: solve_sparse_milp(inst, b, HIGHS_LIMIT_S),
        "exported LP": lambda b: solve_lp_with_highs(export_milp(inst, b), HIGHS_LIMIT_S),
    }
    for name, solve in solvers.items():
        for b, expected in ((buses, (0, maxov)), (buses - 1, (2, None))):
            status, objective = solve(b)
            if status == 1:
                pytest.skip(f"HiGHS time limit: {name} of {preset} ws {ws} on {b} buses")
            assert (status, objective if objective is None else round(objective)) == expected, \
                (name, b)
