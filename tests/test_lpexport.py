"""LP text export: linearization, structure, external-solver agreement."""

import re

import numpy as np
import pytest

from xbarsynth.lpexport import export_milp
from xbarsynth.solver import ProblemInstance, min_config, optimal_binding

from oracles import make_random_instance, sharing_solutions


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
    assert len(set(re.findall(r"\bsb_\d+_\d+_\d+\b", text))) == 2  # 1 pair x 2 buses
    assert len(re.findall(r"^ assign_\d+:", text, re.M)) == 2


def test_constraint_row_counts():
    inst = small_instance()
    text = export_milp(inst, 2)
    t, b, w = 3, 2, 2
    pairs = t * (t - 1) // 2
    assert len(re.findall(r"^ assign_", text, re.M)) == t
    assert len(re.findall(r"^ bw_", text, re.M)) == b * w  # all windows nonzero here
    assert len(re.findall(r"^ lin1_", text, re.M)) == pairs * b
    assert len(re.findall(r"^ lin2_", text, re.M)) == pairs * b
    assert len(re.findall(r"^ share_", text, re.M)) == pairs
    assert len(re.findall(r"^ conflict_", text, re.M)) == 1
    assert len(re.findall(r"^ card_", text, re.M)) == b
    assert len(re.findall(r"^ busov_", text, re.M)) == b
    assert " conflict_1_2: s_1_2 = 0" in text


def test_bus_count_validated():
    inst = small_instance()
    with pytest.raises(ValueError, match="outside"):
        export_milp(inst, 0)
    with pytest.raises(ValueError, match="outside"):
        export_milp(inst, 4)


def test_zero_traffic_windows_skipped():
    comm = np.array([[2, 0], [1, 0]])
    inst = ProblemInstance(5, comm, np.zeros((2, 2)), np.zeros((2, 2), bool), 2)
    text = export_milp(inst, 1)
    assert len(re.findall(r"^ bw_", text, re.M)) == 1  # window 1 is silent


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
