"""Exact solver against exhaustive partition enumeration and hand examples."""

import gc
import json
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from xbarsynth import solver
from xbarsynth.analysis import AnalysisParams, aggregate_overlap, preprocess, profile
from xbarsynth.gen import benchmark_preset, generate
from xbarsynth.sim import full_crossbar_config, shared_bus_config
from xbarsynth.solver import (
    BandwidthInfeasibleError,
    CrossbarConfig,
    InfeasibleError,
    InstanceError,
    ProblemInstance,
    SearchBudget,
    SolverLimitReached,
    SolverLimits,
    _field_width,
    _search,
    build_instance,
    canonical_binding,
    check_feasible,
    lower_bound,
    min_config,
    optimal_binding,
    validate_binding,
)
from xbarsynth.trace import Transaction

from oracles import (
    _AssignState,
    binding_maxov,
    brute_best_maxov,
    brute_min_buses,
    brute_optimal_bindings,
    make_random_instance,
    nodes_before_tie_break,
    reference_search,
    search_outcome,
    trace_of,
)


def inst_of(ws, comm, om=None, conflict=None, maxtb=None):
    comm = np.asarray(comm, dtype=np.int64)
    t = comm.shape[0]
    if om is None:
        om = np.zeros((t, t), dtype=np.int64)
    if conflict is None:
        conflict = np.zeros((t, t), dtype=bool)
    return ProblemInstance(ws, comm, np.asarray(om), np.asarray(conflict),
                           maxtb if maxtb else t)


def clique_conflict(t, members):
    c = np.zeros((t, t), dtype=bool)
    for i in members:
        for j in members:
            if i != j:
                c[i, j] = True
    return c


def test_single_target_single_bus():
    inst = inst_of(10, [[5]])
    feasible, witness = check_feasible(inst, 1)
    assert feasible
    assert witness.binding == (1,)
    assert validate_binding(inst, witness) == []


def test_conflict_clique_pigeonhole():
    inst = inst_of(10, [[1], [1], [1]], conflict=clique_conflict(3, range(3)))
    assert not check_feasible(inst, 2)[0]
    feasible, witness = check_feasible(inst, 3)
    assert feasible
    assert len(set(witness.binding)) == 3


def test_bandwidth_pairs_need_three_buses():
    # one window, comm {60,60,60}, WS 100: any pair sums to 120
    inst = inst_of(100, [[60], [60], [60]])
    assert not check_feasible(inst, 2)[0]
    assert check_feasible(inst, 3)[0]
    assert brute_min_buses(inst) == 3


def test_min_config_idle_instance():
    inst = inst_of(10, np.zeros((4, 2)))
    buses, probes = min_config(inst)
    assert buses == 1
    assert all(isinstance(b, int) for b, _ in probes)


def test_min_config_conflict_clique_of_four():
    inst = inst_of(10, np.ones((6, 1)), conflict=clique_conflict(6, range(4)))
    buses, _ = min_config(inst)
    assert buses == 4
    assert brute_min_buses(inst) == 4


def test_min_config_probes_are_honest():
    rng = np.random.Generator(np.random.PCG64(31))
    inst = make_random_instance(rng)
    buses, probes = min_config(inst)
    for b, feas in probes:
        assert check_feasible(inst, b)[0] == feas
    assert check_feasible(inst, buses)[0]
    assert buses == 1 or not check_feasible(inst, buses - 1)[0]


def test_min_config_returns_the_witness_of_its_minimum():
    # the last feasible probe's binding is left on the budget
    rng = np.random.Generator(np.random.PCG64(31))
    for _ in range(10):
        inst = make_random_instance(rng)
        budget = SearchBudget()
        buses, probes = min_config(inst, budget)
        if (buses, True) in probes:
            witness = check_feasible(inst, buses)[1]
            num_buses, binding, maxov = budget.best
            assert (num_buses, canonical_binding(binding)) == (buses, witness.binding)
            assert maxov == binding_maxov(inst.om, witness)
        else:  # only infeasible probes: the minimum is the target count
            assert buses == inst.num_targets and budget.best is None
    clique = inst_of(10, np.ones((4, 1)), conflict=clique_conflict(4, range(4)))
    assert min_config(clique) == (4, [])


def test_optimal_binding_splits_heavy_pair():
    om = np.array([[0, 50], [50, 0]])
    inst = inst_of(10, [[1], [1]], om=om)
    rep = optimal_binding(inst, 2)
    assert rep.maxov == 0
    assert rep.config.binding == (1, 2)
    assert rep.optimal


def test_optimal_binding_prefers_light_cross_pairs():
    # heavy natural pairs 1-2 and 3-4, light cross pairs 1-3 and 2-4: the
    # best pairing is the light one, never the heavy {1,2},{3,4} split
    om = np.zeros((4, 4), dtype=int)
    for i, j, v in ((0, 1, 10), (2, 3, 10), (0, 2, 1), (1, 3, 1), (0, 3, 10), (1, 2, 10)):
        om[i, j] = om[j, i] = v
    inst = inst_of(10, np.ones((4, 1)), om=om, maxtb=2)
    rep = optimal_binding(inst, 2)
    assert rep.maxov == 1
    assert rep.config.binding == (1, 2, 1, 2)  # {1,3} and {2,4}
    assert rep.maxov == brute_best_maxov(inst, 2)


def test_full_bus_count_zeroes_objective():
    rng = np.random.Generator(np.random.PCG64(37))
    inst = make_random_instance(rng, max_targets=5)
    rep = optimal_binding(inst, inst.num_targets)
    assert rep.maxov == 0


def test_oracle_equivalence_small_random():
    rng = np.random.Generator(np.random.PCG64(41))
    for _ in range(40):
        inst = make_random_instance(rng, max_targets=6, max_windows=4)
        buses, _ = min_config(inst)
        assert buses == brute_min_buses(inst)
        rep = optimal_binding(inst, buses)
        assert rep.maxov == brute_best_maxov(inst, buses)
        assert validate_binding(inst, rep.config) == []


def test_feasibility_monotone_in_bus_count():
    rng = np.random.Generator(np.random.PCG64(43))
    for _ in range(15):
        inst = make_random_instance(rng, max_targets=6)
        flags = [check_feasible(inst, b)[0] for b in range(1, inst.num_targets + 1)]
        assert flags[-1]
        for a, b in zip(flags, flags[1:]):
            assert b or not a  # once feasible, stays feasible


def test_lex_min_tie_break():
    rng = np.random.Generator(np.random.PCG64(47))
    for _ in range(15):
        inst = make_random_instance(rng, max_targets=6, max_windows=3)
        buses, _ = min_config(inst)
        rep = optimal_binding(inst, buses)
        candidates = brute_optimal_bindings(inst, buses, rep.maxov)
        assert rep.config.binding == min(candidates)


def test_canonical_binding_properties():
    assert canonical_binding((3, 3, 1, 2)) == (1, 1, 2, 3)
    assert canonical_binding((1, 2, 3)) == (1, 2, 3)
    rng = np.random.Generator(np.random.PCG64(53))
    for _ in range(20):
        t = int(rng.integers(1, 8))
        binding = [int(b) for b in rng.integers(1, 5, t)]
        canon = canonical_binding(binding)
        assert canonical_binding(canon) == canon  # idempotent
        # relabeling buses never changes the canonical form
        perm = {k: v for v, k in enumerate(rng.permutation(8).tolist(), start=1)}
        assert canonical_binding([perm[b] for b in binding]) == canon


def test_maxov_invariant_under_relabeling():
    rng = np.random.Generator(np.random.PCG64(59))
    inst = make_random_instance(rng, max_targets=6)
    t = inst.num_targets
    binding = [int(b) for b in rng.integers(1, t + 1, t)]
    cfg = CrossbarConfig(t, tuple(binding))
    perm = rng.permutation(t).tolist()
    relabeled = CrossbarConfig(t, tuple(perm[b - 1] + 1 for b in binding))
    assert binding_maxov(inst.om, cfg) == binding_maxov(inst.om, relabeled)


def test_validate_binding_reports_each_violation():
    om = np.zeros((3, 3), dtype=int)
    conflict = clique_conflict(3, (0, 1))
    inst = ProblemInstance(10, np.array([[6], [6], [6]]), om, conflict, maxtb=2)
    all_on_one = CrossbarConfig(1, (1, 1, 1))
    msgs = "\n".join(validate_binding(inst, all_on_one))
    assert "overloaded" in msgs
    assert "conflicting targets" in msgs
    assert "cap is 2" in msgs
    assert validate_binding(inst, CrossbarConfig(3, (1, 2, 3))) == []
    assert validate_binding(inst, CrossbarConfig(2, (1, 2))) == [
        "binding covers 2 targets, instance has 3"]


def test_bandwidth_infeasible_target_reported():
    inst = inst_of(10, [[5], [12]])
    with pytest.raises(BandwidthInfeasibleError, match="t_2 in window 0"):
        min_config(inst)
    exc = None
    try:
        min_config(inst)
    except BandwidthInfeasibleError as e:
        exc = e
    assert (exc.target_id, exc.window) == (2, 0)


def test_infeasible_bus_count_raises():
    inst = inst_of(10, [[1], [1], [1]], conflict=clique_conflict(3, range(3)))
    with pytest.raises(InfeasibleError, match="no feasible binding"):
        optimal_binding(inst, 2)


def test_lower_bound_components():
    # bandwidth: one window sums to 30 over WS 10 -> at least 3 buses
    assert lower_bound(inst_of(10, [[10], [10], [10]])) == 3
    # clique of 4
    assert lower_bound(inst_of(10, np.ones((6, 1)), conflict=clique_conflict(6, range(4)))) == 4
    # cardinality: 6 targets, maxtb 2
    assert lower_bound(inst_of(10, np.zeros((6, 1)), maxtb=2)) == 3


def test_node_limit_interrupts_search():
    # lower bound 1, upper 6: the first probe must search and hit the cap
    inst = inst_of(10, np.ones((6, 1)))
    with pytest.raises(SolverLimitReached) as err:
        min_config(inst, SearchBudget(SolverLimits(node_limit=1)))
    assert str(err.value) == ("bus-count search stopped with proven bounds [1, 6]: "
                              "node limit 1 exhausted")
    assert err.value.incumbent is None


def node_limited(node_limit):
    return SearchBudget(SolverLimits(node_limit=node_limit))


def ranked_om_instance():
    om = np.arange(64).reshape(8, 8)
    om = np.triu(om, 1) + np.triu(om, 1).T
    return inst_of(100, np.ones((8, 2)), om=om)


BNB_CUT = "solver limit hit; incumbent binding returned, optimality unproven"
TIE_BREAK_CUT = ("solver limit hit in the tie-break; maxov is proven optimal "
                 "but the binding is not the canonical one")


def test_budget_cut_raises_flagged_incumbent():
    # enough nodes to seed a feasible binding, not enough to prove optimality
    inst = ranked_om_instance()
    with pytest.raises(SolverLimitReached) as err:
        optimal_binding(inst, 4, node_limited(60))
    assert str(err.value) == BNB_CUT
    rep = err.value.incumbent
    assert not rep.optimal
    assert rep.nodes_explored == 61
    assert validate_binding(inst, rep.config) == []
    assert rep.maxov == binding_maxov(inst.om, rep.config)


def test_tie_break_cut_keeps_proven_optimum():
    inst = ranked_om_instance()
    full = optimal_binding(inst, 4)  # returned: the tie-break finished
    proven = nodes_before_tie_break(inst, 4)
    assert proven < full.nodes_explored
    with pytest.raises(SolverLimitReached) as err:
        optimal_binding(inst, 4, node_limited(proven))
    assert str(err.value) == TIE_BREAK_CUT
    rep = err.value.incumbent
    assert rep.optimal and rep.to_dict()["optimal"] is True
    assert rep.maxov == full.maxov == binding_maxov(inst.om, rep.config)
    assert validate_binding(inst, rep.config) == []
    with pytest.raises(SolverLimitReached, match="optimality unproven") as err:
        optimal_binding(inst, 4, node_limited(proven - 1))
    assert not err.value.incumbent.optimal


SEED_CUT = "binding search on {} buses stopped before any incumbent was found: "


def test_seed_search_cut_falls_back_to_the_witness():
    # min_config then optimal_binding on one budget, cut one node into the
    # seed search: the last probe's witness is the incumbent
    inst = ranked_om_instance()
    budget = SearchBudget()
    buses, probes = min_config(inst, budget)
    assert probes[-1] == (buses, True)
    witness = check_feasible(inst, buses)[1]
    with pytest.raises(SolverLimitReached) as err:
        cut_budget = node_limited(budget.nodes)
        min_config(inst, cut_budget)
        optimal_binding(inst, buses, cut_budget)
    assert str(err.value) == (SEED_CUT.format(buses) + f"node limit {budget.nodes} "
                              "exhausted; the bus-count search's witness is returned")
    rep = err.value.incumbent
    assert rep.config == witness and not rep.optimal
    assert (rep.maxov, rep.nodes_explored) == (binding_maxov(inst.om, witness), 1)
    assert rep.feasibility_probes == tuple(probes)
    with pytest.raises(SolverLimitReached) as err:
        optimal_binding(inst, buses, node_limited(0))  # a budget of its own: no witness
    assert str(err.value) == SEED_CUT.format(buses) + "node limit 0 exhausted"
    assert err.value.incumbent is None


def test_seed_search_cut_ignores_a_binding_onto_another_bus_count():
    inst = ranked_om_instance()
    budget = SearchBudget()
    assert check_feasible(inst, 5, budget)[0] and budget.best[0] == 5
    budget.node_limit = budget.nodes
    with pytest.raises(SolverLimitReached) as err:
        optimal_binding(inst, 4, budget)
    assert str(err.value) == SEED_CUT.format(4) + f"node limit {budget.node_limit} exhausted"
    assert err.value.incumbent is None


def test_solver_limits_reject_negative_values():
    with pytest.raises(ValueError, match="time_limit_s must be >= 0"):
        SolverLimits(time_limit_s=-0.5)
    with pytest.raises(ValueError, match="node_limit must be >= 0"):
        SolverLimits(node_limit=-1)
    zero = SolverLimits(time_limit_s=0.0, node_limit=0)  # zero is a valid budget
    assert (zero.time_limit_s, zero.node_limit) == (0.0, 0)


@pytest.mark.parametrize("field", ["time_limit_s", "node_limit"])
def test_solver_limits_reject_nan(field):
    # no deadline or node count ever reaches NaN, so it would never trip
    with pytest.raises(ValueError, match=f"^{field} must be >= 0, got nan$"):
        SolverLimits(**{field: float("nan")})


def test_shared_budget_counts_binding_phase_nodes_only():
    rng = np.random.Generator(np.random.PCG64(71))
    inst = make_random_instance(rng, max_targets=7)
    budget = SearchBudget()
    buses, _ = min_config(inst, budget)
    probe_nodes = budget.nodes
    rep = optimal_binding(inst, buses, budget)
    assert rep.nodes_explored == budget.nodes - probe_nodes
    assert rep.nodes_explored == optimal_binding(inst, buses).nodes_explored
    assert 0 < probe_nodes < budget.nodes


def test_instance_validation():
    good = np.zeros((2, 1))
    with pytest.raises(InstanceError, match="symmetric"):
        ProblemInstance(10, good, np.array([[0, 1], [2, 0]]), np.zeros((2, 2), bool), 2)
    with pytest.raises(InstanceError, match="diagonal"):
        ProblemInstance(10, good, np.zeros((2, 2)), np.eye(2, dtype=bool), 2)
    with pytest.raises(InstanceError, match="dimensions"):
        ProblemInstance(10, good, np.zeros((3, 3)), np.zeros((3, 3), bool), 2)
    with pytest.raises(InstanceError, match="maxtb"):
        ProblemInstance(10, good, np.zeros((2, 2)), np.zeros((2, 2), bool), 0)
    with pytest.raises(InstanceError, match="non-negative"):
        ProblemInstance(10, np.array([[1], [-1]]), np.zeros((2, 2)), np.zeros((2, 2), bool), 2)
    with pytest.raises(InstanceError, match="overlaps"):
        ProblemInstance(10, good, np.array([[0, -1], [-1, 0]]), np.zeros((2, 2), bool), 2)
    with pytest.raises(InstanceError, match="32"):
        t = 33
        ProblemInstance(10, np.zeros((t, 1)), np.zeros((t, t)), np.zeros((t, t), bool), t)
    with pytest.raises(InstanceError, match="at least one target"):
        ProblemInstance(10, np.zeros((0, 1)), np.zeros((0, 0)), np.zeros((0, 0), bool), 1)
    with pytest.raises(InstanceError, match="conflict matrix must be symmetric"):
        ProblemInstance(10, good, np.zeros((2, 2)), np.array([[0, 1], [0, 0]], bool), 2)
    with pytest.raises(InstanceError, match="window size"):
        ProblemInstance(0, good, np.zeros((2, 2)), np.zeros((2, 2), bool), 2)
    with pytest.raises(InstanceError, match=r"^window size must be an integer >= 1, got 10\.5$"):
        ProblemInstance(10.5, good, np.zeros((2, 2)), np.zeros((2, 2), bool), 2)
    for maxtb in (1.5, 2.0):  # the packed search shifts by maxtb
        with pytest.raises(InstanceError, match=f"^maxtb must be an integer >= 1, got {maxtb}$"):
            ProblemInstance(10, good, np.zeros((2, 2)), np.zeros((2, 2), bool), maxtb)
    counts = ProblemInstance(np.int64(10), good, np.zeros((2, 2)), np.zeros((2, 2), bool),
                             np.int32(2))
    assert (counts.window_size, counts.maxtb) == (10, 2)


def test_config_validation_and_views():
    with pytest.raises(InstanceError):
        CrossbarConfig(2, (1, 3))
    with pytest.raises(InstanceError):
        CrossbarConfig(0, (1,))
    with pytest.raises(InstanceError, match="at least one target"):
        CrossbarConfig(1, ())
    cfg = CrossbarConfig(3, (1, 1, 2))
    assert cfg.bus_members() == {1: [0, 1], 2: [2]}
    assert shared_bus_config(4).binding == (1, 1, 1, 1)
    assert full_crossbar_config(3).binding == (1, 2, 3)


def test_bus_count_range_checked():
    inst = inst_of(10, [[1], [1]])
    with pytest.raises(InstanceError, match="outside"):
        check_feasible(inst, 0)
    with pytest.raises(InstanceError, match="outside"):
        optimal_binding(inst, 3)


def test_build_instance_defaults_maxtb():
    tr = trace_of(1, 3, [Transaction(0, 5, 1, t) for t in (1, 2, 3)])
    prof = profile(tr, 10)
    om = np.zeros((3, 3), dtype=np.int64)
    inst = build_instance(prof, om, np.zeros((3, 3), bool), AnalysisParams(10, 0.3))
    assert inst.maxtb == 3
    capped = build_instance(prof, om, np.zeros((3, 3), bool),
                            AnalysisParams(10, 0.3, max_targets_per_bus=1))
    assert capped.maxtb == 1


def test_solver_determinism():
    rng = np.random.Generator(np.random.PCG64(67))
    inst = make_random_instance(rng, max_targets=7)
    buses, _ = min_config(inst)
    a = optimal_binding(inst, buses)
    b = optimal_binding(inst, buses)
    assert a.config == b.config
    assert a.maxov == b.maxov


def test_report_serialization():
    inst = inst_of(10, [[1], [1]], om=np.array([[0, 5], [5, 0]]))
    rep = optimal_binding(inst, 2)
    d = rep.to_dict()
    assert d["num_buses"] == 2
    assert d["binding"] == [1, 2]
    assert d["maxov"] == 0
    assert d["optimal"] is True
    assert json.dumps(d)  # plain types only


# Search-tree pins for the criterion-6 instances: (num_buses, probes,
# nodes_explored, maxov, binding, budget nodes).  The first five are what
# solve_report.json holds; nodes_explored is optimal_binding's tree, which
# the artifacts digest.  The last is every tick of min_config and
# optimal_binding on one budget, so it also counts the probes' trees, which
# no artifact holds.  A change to these numbers is a change to a search
# tree, not a speed-up.
UNIFORM_PINS = {
    250: (7, [(13, True), (10, True), (8, True), (7, True)], 142537, 0,
          (1, 1, 1, 2, 3, 4, 5, 3, 6, 5, 1, 7, 6, 3, 3, 2, 4, 7, 1, 2), 142817),
    500: (7, [(13, True), (10, True), (8, True), (7, True)], 142537, 0,
          (1, 1, 1, 2, 3, 4, 5, 3, 6, 5, 1, 7, 6, 3, 3, 2, 4, 7, 1, 2), 142817),
    1000: (7, [(13, True), (9, True), (7, True), (6, False)], 143801, 0,
           (1, 1, 1, 2, 3, 4, 5, 3, 6, 5, 1, 7, 6, 3, 3, 2, 4, 7, 1, 2), 144155),
    2000: (6, [(13, True), (9, True), (7, True), (6, True)], 1684729, 146,
           (1, 1, 1, 2, 3, 4, 5, 3, 2, 5, 1, 6, 2, 3, 3, 2, 4, 6, 1, 4), 1684981),
    4000: (5, [(12, True), (8, True), (6, True), (5, True), (4, False)], 2278051, 679,
           (1, 1, 1, 1, 2, 3, 4, 2, 2, 4, 1, 5, 5, 5, 2, 3, 1, 2, 4, 3), 2278304),
    8000: (2, [(11, True), (6, True), (4, True), (3, True), (2, True)], 67237, 11778,
           (1, 2, 1, 2, 2, 1, 1, 1, 2, 2, 1, 1, 1, 1, 1, 2, 1, 2, 2, 2), 67377),
}


# The same pins on the held-out corpus (the uniform preset generated with
# seed 7).  The first five fields at ws 1000-4000 were recorded before the
# overlap word replaced the member lists, and ws 250, 500 and 8000 before
# the kernel kept one state tuple per bus.
HELD_OUT_UNIFORM_PINS = {
    250: (7, [(13, True), (9, True), (7, True), (6, False)], 428, 0,
          (1, 2, 1, 2, 1, 2, 1, 3, 4, 1, 5, 3, 1, 6, 5, 5, 4, 6, 7, 7), 833),
    500: (7, [(13, True), (9, True), (7, True), (6, False)], 428, 0,
          (1, 2, 1, 2, 1, 2, 1, 3, 4, 1, 5, 3, 1, 6, 5, 5, 4, 6, 7, 7), 833),
    1000: (7, [(13, True), (9, True), (7, True), (6, False)], 428, 0,
           (1, 2, 1, 2, 1, 2, 1, 3, 4, 1, 5, 3, 1, 6, 5, 5, 4, 6, 7, 7), 836),
    2000: (6, [(12, True), (8, True), (6, True), (5, False)], 203950, 11,
           (1, 2, 2, 3, 1, 4, 1, 2, 1, 5, 6, 2, 1, 5, 6, 6, 4, 5, 3, 3), 204474),
    4000: (5, [(12, True), (8, True), (6, True), (5, True)], 547778, 412,
           (1, 2, 3, 4, 1, 2, 1, 3, 1, 4, 2, 3, 1, 5, 5, 4, 3, 2, 5, 4), 548008),
    8000: (2, [(11, True), (6, True), (4, True), (3, True), (2, True)], 24401, 10997,
           (1, 2, 2, 1, 2, 1, 2, 1, 2, 2, 2, 2, 2, 2, 1, 1, 1, 2, 1, 1), 24536),
}


def analysed_instance(trace, ws, theta):
    params = AnalysisParams(ws, theta)
    prof = profile(trace, ws)
    return build_instance(prof, aggregate_overlap(prof), preprocess(prof, params), params)


@pytest.fixture(scope="module")
def uniform_trace():
    return generate(benchmark_preset("uniform"))


@pytest.mark.parametrize("ws", sorted(UNIFORM_PINS))
def test_uniform_search_tree_pinned(ws, uniform_trace):
    inst = analysed_instance(uniform_trace, ws, 0.1)
    budget = SearchBudget()
    buses, probes = min_config(inst, budget)
    rep = optimal_binding(inst, buses, budget)
    assert (buses, probes, rep.nodes_explored, rep.maxov, rep.config.binding,
            budget.nodes) == UNIFORM_PINS[ws]


def test_unexpired_deadline_solves_as_unlimited(uniform_trace):
    # 67 k nodes: the deadline is read, and passes, at every 256th tick
    inst = analysed_instance(uniform_trace, 8000, 0.1)
    budget = SearchBudget(SolverLimits(time_limit_s=3600))
    buses, probes = min_config(inst, budget)
    rep = optimal_binding(inst, buses, budget)
    assert (buses, probes, rep.nodes_explored, rep.maxov, rep.config.binding,
            budget.nodes) == UNIFORM_PINS[8000]


@pytest.fixture(scope="module")
def held_out_uniform_trace():
    return generate(replace(benchmark_preset("uniform"), seed=7))


@pytest.mark.parametrize("ws", sorted(HELD_OUT_UNIFORM_PINS))
def test_held_out_uniform_search_tree_pinned(ws, held_out_uniform_trace):
    inst = analysed_instance(held_out_uniform_trace, ws, 0.1)
    budget = SearchBudget()
    buses, probes = min_config(inst, budget)
    rep = optimal_binding(inst, buses, budget)
    assert (buses, probes, rep.nodes_explored, rep.maxov, rep.config.binding,
            budget.nodes) == HELD_OUT_UNIFORM_PINS[ws]


def test_a_solve_packs_its_instance_once(uniform_trace, monkeypatch):
    """min_config's probes and optimal_binding's three searches on uniform
    at ws=2000 all read one packed form, built on first use."""
    calls = []

    def counting_pack(inst):
        calls.append(inst)
        return pack(inst)

    pack = solver._pack
    monkeypatch.setattr(solver, "_pack", counting_pack)
    inst = analysed_instance(uniform_trace, 2000, 0.1)
    budget = SearchBudget()
    buses, probes = min_config(inst, budget)
    optimal_binding(inst, buses, budget)
    assert len(probes) > 1 and calls == [inst]


def test_instances_are_immutable_and_leave_the_callers_arrays_writable(uniform_trace):
    params = AnalysisParams(2000, 0.1)
    prof = profile(uniform_trace, 2000)
    om, conflict = aggregate_overlap(prof), preprocess(prof, params)
    inst = build_instance(prof, om, conflict, params)
    for name in ("window_size", "comm", "om", "conflict", "maxtb"):
        with pytest.raises(FrozenInstanceError):
            setattr(inst, name, getattr(inst, name))
    for arr in (inst.comm, inst.om, inst.conflict):
        with pytest.raises(ValueError, match="read-only"):
            arr[0, 0] = arr[0, 1]
    capped = replace(inst, maxtb=1)
    assert capped.maxtb == 1 and inst.maxtb == prof.num_targets
    prof.comm[0, 0] += 1  # the caller's own arrays stay writable
    om[0, 1] += 1
    conflict[0, 1] = not conflict[0, 1]


def test_build_instance_shares_the_profiles_narrow_comm(uniform_trace):
    params = AnalysisParams(2000, 0.1)
    prof = profile(uniform_trace, 2000)
    inst = build_instance(prof, aggregate_overlap(prof), preprocess(prof, params), params)
    assert inst.comm.dtype == prof.comm.dtype == np.int32  # 20 targets x 2000 cycles
    assert np.shares_memory(inst.comm, prof.comm)


@pytest.mark.parametrize("comm, dtype", [
    (np.array([[100], [100]], dtype=np.int8), np.int8),
    (np.array([[100], [100]], dtype=np.uint8), np.int64),
    (np.array([[100.0], [100.0]]), np.int64),
    ([[100], [100]], np.int64),
])
def test_a_signed_integer_comm_keeps_its_type_and_sums_in_int64(comm, dtype):
    # 100 + 100 wraps in int8: every check that sums a window reads 200
    inst = ProblemInstance(127, comm, np.zeros((2, 2)), np.zeros((2, 2), bool), 2)
    assert inst.comm.dtype == dtype
    assert lower_bound(inst) == 2
    assert validate_binding(inst, CrossbarConfig(1, (1, 1))) == [
        "bus 1 overloaded in window 0: 200 > 127"]
    assert min_config(inst)[0] == 2


def limited_solve(inst, node_limit):
    """min_config then optimal_binding on one budget; (cut?, budget nodes)."""
    budget = SearchBudget(SolverLimits(node_limit=node_limit))
    try:
        buses, _ = min_config(inst, budget)
        rep = optimal_binding(inst, buses, budget)
    except SolverLimitReached:
        return True, budget.nodes
    assert rep.optimal
    return False, budget.nodes


def test_every_node_limit_cuts_at_its_node():
    """Whichever search the limit falls in, the cut is the tick past it."""
    inst = analysed_instance(generate(benchmark_preset("mat2like")), 1000, 0.3)
    full_cut, total = limited_solve(inst, None)
    assert not full_cut
    stride = max(1, total // 400)
    for limit in [*range(1, total, stride), total - 1]:
        assert limited_solve(inst, limit) == (True, limit + 1), limit
    assert limited_solve(inst, total) == (False, total)


def test_bulk_counted_rejections_cut_at_their_node(uniform_trace):
    """The kernel counts in bulk the attempts it skips: those of a bus its
    target may not join, and all of a child's when no bus is free to it.
    On uniform at ws=2000, 73-83 % of the attempts are rejected by a
    conflict and 30 % of the branch-and-bound's children have no free bus
    (22 % at ws=4000); at ws=1000 with ``maxtb = 3`` children also have no
    free bus because their parent's bus filled up.  On each, in each of
    optimal_binding's feasibility search, branch-and-bound and tie-break,
    17 node limits below 20 k and below the search's own node count cut at
    the tick past the limit, as the reference search does, from a zero and
    a nonzero start count."""
    for ws, maxtb, seed in ((2000, None, 2000), (4000, None, 4000), (1000, 3, 1003)):
        inst = analysed_instance(uniform_trace, ws, 0.1)
        if maxtb is None:
            buses, _, _, maxov = UNIFORM_PINS[ws][:4]
        else:
            inst = replace(inst, maxtb=maxtb)
            buses, _ = min_config(inst)
            maxov = optimal_binding(inst, buses).maxov
        order = inst._packed.busy_order
        seed_binding = _search(inst, buses, order, float("inf"), True, SearchBudget())
        seed_cost = binding_maxov(inst.om, CrossbarConfig(buses, tuple(seed_binding)))
        modes = [(order, float("inf"), True), (order, seed_cost, False),
                 (list(range(inst.num_targets)), maxov + 1, True)]
        rng = np.random.Generator(np.random.PCG64(seed))
        for order, bound, first_only in modes:
            args = (inst, buses, order, bound, first_only)
            span = search_outcome(_search, *args, SolverLimits(node_limit=20_000))[-1]
            for limit in sorted(int(n) for n in rng.integers(0, min(span, 20_000), 17)):
                for start in (0, int(rng.integers(1, 300))):
                    lim = SolverLimits(node_limit=start + limit)
                    outcome = search_outcome(_search, *args, lim, start)
                    assert outcome == search_outcome(reference_search, *args, lim, start)
                    assert outcome[2:] == (SolverLimitReached,
                                           f"node limit {start + limit} exhausted",
                                           start + limit + 1)


def test_solves_leave_no_cyclic_garbage():
    """With the cyclic collector off, an uncut solve and a cut in each
    search free every object they made: the kernel's recursive closure and
    a cut's traceback hold no reference cycle."""
    inst = analysed_instance(generate(benchmark_preset("mat2like")), 1000, 0.3)
    budget = SearchBudget()
    buses, _ = min_config(inst, budget)
    probe_nodes = budget.nodes
    optimal_binding(inst, buses, budget)
    phases = {
        5: "bus-count search stopped",
        probe_nodes + 1: "binding search on",
        (probe_nodes + budget.nodes) // 2: BNB_CUT,
        budget.nodes - 1: TIE_BREAK_CUT,
    }
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert limited_solve(inst, None) == (False, budget.nodes)
        gc.collect()
        assert [type(o).__name__ for o in gc.garbage] == []
        for limit, message in phases.items():
            cut_budget = node_limited(limit)
            with pytest.raises(SolverLimitReached) as err:
                min_config(inst, cut_budget)
                optimal_binding(inst, buses, cut_budget)
            assert str(err.value).startswith(message)
            del err
            gc.collect()
            assert [type(o).__name__ for o in gc.garbage] == [], limit
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()


def test_field_width_boundaries():
    assert _field_width(0) == 16
    assert _field_width(2**15 - 1) == 16
    assert _field_width(2**15) == 32
    assert _field_width(2**31) == 64
    assert _field_width(2**63 - 1) == 64
    assert _field_width(2**63) == 128


FIELD_WIDTH_CASES = pytest.mark.parametrize("ws, windows, oversize", [
    (37, 4, False),          # 16-bit fields; loads land exactly on ws
    (1, 5, False),           # window_size 1
    (10, 0, False),          # zero windows
    (40_000, 3, False),      # 32-bit fields
    (2**62 - 1, 3, False),   # 64-bit fields at the top of their range
    (2**70, 2, False),       # wider than 64 bits
    (37, 4, True),           # one target alone exceeds the window
])


def field_width_instances(rng, ws, windows, oversize, values, targets=(2, 8),
                          overlaps=(0, 50)):
    """20 random instances with ``comm`` drawn from ``values``, target
    counts from ``range(*targets)`` and pairwise overlaps from
    ``range(*overlaps)``; with ``oversize`` one target (yielded as ``big``)
    alone exceeds a window."""
    for _ in range(20):
        t = int(rng.integers(*targets))
        comm = rng.choice(np.array(values, dtype=np.int64), size=(t, windows))
        big = int(rng.integers(t))
        if oversize:
            comm[big, int(rng.integers(windows))] = ws + 1 + int(rng.integers(ws))
        om = np.triu(rng.integers(*overlaps, size=(t, t)), 1)
        conflict = np.triu(rng.random((t, t)) < 0.2, 1)
        inst = ProblemInstance(ws, comm, om + om.T, conflict | conflict.T,
                               int(rng.integers(1, t + 1)))
        yield inst, int(rng.integers(1, t + 1)), big


@FIELD_WIDTH_CASES
def test_packed_can_place_matches_reference(ws, windows, oversize):
    """Random place/unplace walks: packed can_place equals the direct check."""
    rng = np.random.Generator(np.random.PCG64(ws % 1000 + windows + 7 * oversize))
    values = [v for v in (0, 1, ws // 2, ws - ws // 2, ws) if v < 2**63]
    exact_hits = 0
    for inst, num_buses, big in field_width_instances(rng, ws, windows, oversize, values):
        t, comm = inst.num_targets, inst.comm
        state = _AssignState(inst, num_buses)
        empty = list(state.loads)
        rows = [[int(v) for v in row] for row in comm]
        loads = [[0] * windows for _ in range(num_buses)]
        members = [[] for _ in range(num_buses)]
        stack = []
        for _ in range(40):
            free = [i for i in range(t) if not any(i in m for m in members)]
            if stack and (not free or rng.random() < 0.3):
                i, k, added, prev_used = stack.pop()
                state.unplace(i, k, added, prev_used)
                members[k].pop()
                loads[k] = [a - b for a, b in zip(loads[k], rows[i])]
                continue
            i = int(rng.choice(free))
            fits = []
            for k in range(num_buses):
                expected = (len(members[k]) < inst.maxtb
                            and not any(inst.conflict[i, j] for j in members[k])
                            and all(a + b <= ws for a, b in zip(loads[k], rows[i])))
                assert state.can_place(i, k) == expected
                if expected:
                    fits.append(k)
            if oversize and i == big:
                assert not fits
            if not fits:
                continue
            k = int(rng.choice(fits))
            prev_used = state.used
            added = state.place(i, k)
            assert added == sum(int(inst.om[i, j]) for j in members[k])
            members[k].append(i)
            loads[k] = [a + b for a, b in zip(loads[k], rows[i])]
            exact_hits += ws in loads[k]
            stack.append((i, k, added, prev_used))
        while stack:
            i, k, added, prev_used = stack.pop()
            state.unplace(i, k, added, prev_used)
        assert state.loads == empty
        assert state.conflict_mask == [0] * num_buses
        if oversize:
            assert not any(check_feasible(inst, b)[0] for b in range(1, t + 1))
    if windows and ws in values:
        assert exact_hits


def search_modes(inst, num_buses):
    """The kernel's three uses on one instance, parameters taken from the
    reference: feasibility, improvement from the seed's cost, tie-break."""
    order = inst._packed.busy_order
    modes = [(order, float("inf"), True)]
    budget = SearchBudget()
    seed = reference_search(inst, num_buses, order, float("inf"), True, budget)
    if seed is not None:
        seed_cost = binding_maxov(inst.om, CrossbarConfig(num_buses, tuple(seed)))
        reference_search(inst, num_buses, order, seed_cost, False, budget)
        best = budget.best[2]
        modes += [(order, seed_cost, False), (list(range(inst.num_targets)), best + 1, True)]
    return modes


def assert_kernel_matches_reference(rng, inst, num_buses):
    """The fused kernel against the three reference searches: same returned
    binding, best binding and cost, cut and node count, in full and under
    node limits and deadlines below the full count."""
    for order, bound, first_only in search_modes(inst, num_buses):
        args = (inst, num_buses, order, bound, first_only)
        full = search_outcome(reference_search, *args)
        assert search_outcome(_search, *args) == full
        limits = [SolverLimits(node_limit=int(n)) for n in rng.integers(0, full[-1] + 1, 3)]
        limits.append(SolverLimits(time_limit_s=0.0))
        for lim in limits:
            start = int(rng.integers(0, 300))
            assert (search_outcome(_search, *args, lim, start)
                    == search_outcome(reference_search, *args, lim, start))


@FIELD_WIDTH_CASES
def test_search_kernel_matches_reference_on_field_widths(ws, windows, oversize):
    """The kernel against the reference on the packed load-field edge cases."""
    rng = np.random.Generator(np.random.PCG64(ws % 997 + windows + 11 * oversize))
    values = [v for v in (0, 1, ws // 2, ws - ws // 2, ws) if v < 2**63]
    for inst, num_buses, _ in field_width_instances(rng, ws, windows, oversize, values):
        assert_kernel_matches_reference(rng, inst, num_buses)


@pytest.mark.parametrize("targets, overlaps", [
    ((2, 8), (2**62 - 50, 2**62)),  # row sums pass int64
    ((2, 8), (0, 1)),               # all-zero om: every binding costs 0
    ((32, 33), (0, 50)),            # T = 32: the top field and conflict bit
])
def test_search_kernel_matches_reference_on_overlap_widths(targets, overlaps):
    """The kernel against the reference on the packed overlap-field edge
    cases: each field sums one target's overlaps with a bus's members and is
    as wide as the largest off-diagonal ``om`` row sum needs."""
    rng = np.random.Generator(np.random.PCG64(targets[0] + overlaps[1] % 1000))
    cases = [(inst, num_buses) for inst, num_buses, _ in field_width_instances(
        rng, 37, 4, False, [0, 1, 18, 19, 37], targets, overlaps)]
    if overlaps[0]:
        # 12 idle targets that may all share a bus: fields pass 2**64
        om = np.triu(rng.integers(*overlaps, size=(12, 12)), 1)
        cases.append((inst_of(37, np.zeros((12, 4)), om=om + om.T), 2))
        assert max(sum(row) for row in cases[-1][0].om.tolist()) >= 2**64
    for inst, num_buses in cases:
        assert_kernel_matches_reference(rng, inst, num_buses)


def test_thirty_two_targets_pair_up_complementary_halves():
    """T = 32, the largest supported crossbar: in each 10-cycle window the
    16 odd-numbered targets are busy in the first half and the 16
    even-numbered ones in the second.  Each half conflicts within itself,
    so 16 buses are needed; an odd and an even target never overlap, so
    16 buses reach maxov 0, and the smallest canonical binding pairs
    t_1 with t_2, t_3 with t_4 and so on."""
    txs = [Transaction(10 * m + 5 * (t % 2 == 0), 5, 1, t)
           for m in range(4) for t in range(1, 33)]
    inst = analysed_instance(trace_of(1, 32, txs), 10, 0.3)
    assert inst.num_targets == 32
    assert lower_bound(inst) == 16  # the half-window cliques
    buses, _ = min_config(inst)
    assert buses == 16
    rep = optimal_binding(inst, buses)
    assert rep.maxov == 0 and rep.optimal
    assert rep.config.binding == tuple(k for k in range(1, 17) for _ in range(2))


def test_one_target_per_bus_gives_the_full_crossbar():
    rng = np.random.Generator(np.random.PCG64(71))
    # the first instance would fit on one bus at no cost but for the cap
    for inst in [inst_of(10, [[1]] * 4)] + [make_random_instance(rng, 8) for _ in range(20)]:
        inst = replace(inst, maxtb=1)
        t = inst.num_targets
        assert min_config(inst) == (t, [])
        rep = optimal_binding(inst, t)
        assert rep.config == full_crossbar_config(t)
        assert rep.maxov == 0 and rep.optimal
