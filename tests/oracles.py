"""Independent reference implementations used to check the package.

Everything here is written directly from the definitions, with different
mechanics than the shipped code: per-cycle boolean arrays instead of
interval arithmetic, exhaustive set-partition enumeration instead of
branch-and-bound, and per-bus queue replay instead of the one-pass sweep.
The reference search keeps the solver's branch-and-bound as three readable
depth-first searches over a state object, with one budget tick per attempt,
to pin the fused search kernel's tree and budget accounting.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from xbarsynth.analysis import WindowProfile
from xbarsynth.solver import (
    CrossbarConfig,
    ProblemInstance,
    SearchBudget,
    SolverLimitReached,
    SolverLimits,
    _field_width,
    _pack_rows,
    optimal_binding,
)
from xbarsynth.trace import REQUEST, Trace, Transaction


# ---------------------------------------------------------------- profiles

def cycle_profile(trace: Trace, window_size: int):
    """comm/wo/crit_wo from a per-cycle boolean occupancy grid."""
    t = trace.num_targets
    h = trace.horizon
    nw = -(-h // window_size) if h else 0
    occ = np.zeros((t, nw * window_size), dtype=bool)
    crit = np.zeros_like(occ)
    for tx in trace.transactions:
        occ[tx.target_id - 1, tx.start_cycle:tx.start_cycle + tx.duration] = True
        if tx.critical:
            crit[tx.target_id - 1, tx.start_cycle:tx.start_cycle + tx.duration] = True
    occ_w = occ.reshape(t, nw, window_size)
    crit_w = crit.reshape(t, nw, window_size)
    comm = occ_w.sum(axis=2).astype(np.int64)
    wo = np.einsum("imc,jmc->ijm", occ_w, occ_w, dtype=np.int64)
    crit_wo = np.einsum("imc,jmc->ijm", crit_w, crit_w, dtype=np.int64)
    return comm, wo, crit_wo


def whole_trace_overlap(trace: Trace) -> np.ndarray:
    """Pairwise simultaneous-occupancy cycle counts, no windows involved."""
    t = trace.num_targets
    h = trace.horizon
    occ = np.zeros((t, max(h, 1)), dtype=bool)
    for tx in trace.transactions:
        occ[tx.target_id - 1, tx.start_cycle:tx.start_cycle + tx.duration] = True
    return np.einsum("ic,jc->ij", occ, occ, dtype=np.int64)


def target_occupancy(trace: Trace) -> np.ndarray:
    """Per-target busy cycle counts (concurrent transfers counted once)."""
    return np.diagonal(whole_trace_overlap(trace)).copy()


def validate_profile(prof: WindowProfile) -> None:
    """Check the structural invariants of a profile; raise on violation."""
    ws = prof.window_size
    if (prof.comm < 0).any() or (prof.comm > ws).any():
        raise ValueError("comm entries must lie in [0, WS]")
    if (prof.peak < 0).any() or (prof.peak > ws).any():
        raise ValueError("peak entries must lie in [0, WS]")
    for name in ("om", "peak", "crit"):
        mat = getattr(prof, name)
        if not np.array_equal(mat, mat.T):
            raise ValueError(f"{name} must be symmetric in the target pair")
    if not np.array_equal(prof.om.diagonal(), prof.comm.sum(axis=1)):
        raise ValueError("om diagonal must equal the comm row sums")
    row_max = prof.comm.max(axis=1, initial=0)
    if not np.array_equal(prof.peak.diagonal(), row_max):
        raise ValueError("peak diagonal must equal the comm row maxima")
    # A pair is busy at once only while each of its two targets is busy.
    for name in ("om", "peak"):
        mat = getattr(prof, name)
        diag = mat.diagonal()
        if (mat > np.minimum.outer(diag, diag)).any():
            raise ValueError(
                f"{name} off-diagonal entries must not exceed the smaller diagonal entry"
            )
    if (prof.peak > prof.om).any():
        raise ValueError("peak must not exceed om")
    if (prof.crit & (prof.om == 0)).any():
        raise ValueError("crit only where om > 0")


@dataclass(frozen=True)
class TraceStats:
    """Per-target demand totals used for average-bandwidth baseline sizing."""

    per_target_busy: list[int]
    per_target_count: list[int]
    horizon: int

    @property
    def total_busy(self) -> int:
        return sum(self.per_target_busy)


def trace_stats(trace: Trace) -> TraceStats:
    """Sum per-target durations and transaction counts row by row.

    These are additive demand totals (concurrent same-target transfers both
    count), unlike the occupancy counting done by window analysis.
    """
    busy = [0] * trace.num_targets
    count = [0] * trace.num_targets
    for tx in trace.transactions:
        busy[tx.target_id - 1] += tx.duration
        count[tx.target_id - 1] += 1
    return TraceStats(busy, count, trace.horizon)


# ------------------------------------------------------------- partitions

def _partitions(n: int):
    """All partitions of range(n) as block lists (restricted growth strings)."""
    a = [0] * n
    out = []

    def rec(i: int, mx: int):
        if i == n:
            blocks: list[list[int]] = [[] for _ in range(mx + 1)]
            for idx, lbl in enumerate(a):
                blocks[lbl].append(idx)
            out.append([blk[:] for blk in blocks])
            return
        for v in range(mx + 2):
            a[i] = v
            rec(i + 1, max(mx, v))

    rec(1, 0)
    return out


def all_partitions(n: int) -> list[list[list[int]]]:
    if n == 0:
        return [[]]
    return _partitions(n)


def blocks_feasible(inst: ProblemInstance, blocks: list[list[int]]) -> bool:
    """First-principles feasibility of a partition of targets into buses."""
    for blk in blocks:
        if len(blk) > inst.maxtb:
            return False
        if (inst.comm[blk].sum(axis=0) > inst.window_size).any():
            return False
        for i, j in combinations(blk, 2):
            if inst.conflict[i, j]:
                return False
    return True


def blocks_maxov(om: np.ndarray, blocks) -> int:
    """Worst per-block sum of pairwise overlaps (unordered pairs i < j)."""
    return max((sum(int(om[i, j]) for i, j in combinations(blk, 2)) for blk in blocks),
               default=0)


def binding_maxov(om: np.ndarray, config: CrossbarConfig) -> int:
    """``maxov`` of ``config``, recomputed from its buses' members."""
    return blocks_maxov(om, config.bus_members().values())


def brute_min_buses(inst: ProblemInstance) -> int | None:
    """Minimum block count over all feasible partitions; None if none."""
    best = None
    for blocks in all_partitions(inst.num_targets):
        if blocks_feasible(inst, blocks):
            if best is None or len(blocks) < best:
                best = len(blocks)
    return best


def brute_best_maxov(inst: ProblemInstance, num_buses: int) -> int | None:
    """Minimum maxov over all feasible partitions using at most num_buses."""
    best = None
    for blocks in all_partitions(inst.num_targets):
        if len(blocks) > num_buses or not blocks_feasible(inst, blocks):
            continue
        cost = blocks_maxov(inst.om, blocks)
        if best is None or cost < best:
            best = cost
    return best


def brute_optimal_bindings(inst: ProblemInstance, num_buses: int, maxov: int):
    """Canonical bindings of all feasible partitions achieving ``maxov``."""
    from xbarsynth.solver import canonical_binding

    hits = []
    for blocks in all_partitions(inst.num_targets):
        if len(blocks) > num_buses or not blocks_feasible(inst, blocks):
            continue
        if blocks_maxov(inst.om, blocks) != maxov:
            continue
        binding = [0] * inst.num_targets
        for k, blk in enumerate(blocks, start=1):
            for i in blk:
                binding[i] = k
        hits.append(canonical_binding(binding))
    return hits


# -------------------------------------------------------------- simulator

def replay_simulate(trace: Trace, config: CrossbarConfig):
    """Per-bus queue replay; returns latency per transaction identity.

    Each bus drains its own heap ordered by (arrival, target, initiator),
    independently of the other buses, so any cross-bus bookkeeping bug in
    the one-pass implementation would show up as a mismatch.
    """
    queues: list[list] = [[] for _ in range(config.num_buses)]
    for n, tx in enumerate(trace.transactions):
        k = config.binding[tx.target_id - 1] - 1
        heapq.heappush(
            queues[k], (tx.start_cycle, tx.target_id, tx.initiator_id, n, tx.duration)
        )
    latencies = [0] * len(trace.transactions)
    bus_busy = [0] * config.num_buses
    for k, q in enumerate(queues):
        free = 0
        while q:
            arr, _tgt, _ini, n, dur = heapq.heappop(q)
            begin = max(free, arr)
            free = begin + dur
            bus_busy[k] += dur
            latencies[n] = free - arr
    return latencies, bus_busy


# -------------------------------------------------------------- generator

def emit_run(rows: list[tuple[int, int, int, int, bool]], start: int, length: int,
             init: int, tgt: int, critical: bool, packet_len: int) -> None:
    """Append one busy run as back-to-back packet rows (start, duration,
    initiator, target, critical), one packet at a time: the reference for
    the generator's bulk cutter, ``gen._cut_packets``."""
    if packet_len <= 0 or packet_len >= length:
        rows.append((start, length, init, tgt, critical))
        return
    off = 0
    while off < length:
        piece = min(packet_len, length - off)
        rows.append((start + off, piece, init, tgt, critical))
        off += piece


# ------------------------------------------------------- random fixtures

def trace_of(num_initiators: int, num_targets: int,
             transactions: list[Transaction]) -> Trace:
    """The trace of ``transactions``, rows that all move in one direction."""
    directions = {tx.direction for tx in transactions} or {REQUEST}
    assert len(directions) == 1, f"rows mix directions {sorted(directions)}"
    columns = zip(*((tx.start_cycle, tx.duration, tx.initiator_id, tx.target_id, tx.critical)
                    for tx in transactions))
    return Trace(num_initiators, num_targets, *(list(c) for c in columns),
                 direction=directions.pop())


def make_random_trace(rng: np.random.Generator, num_targets: int | None = None,
                      horizon: int = 400, max_txs: int = 40,
                      with_critical: bool = True) -> Trace:
    t = int(num_targets or rng.integers(1, 6))
    n_init = int(rng.integers(1, 5))
    n = int(rng.integers(0, max_txs + 1))
    txs = []
    for _ in range(n):
        dur = int(rng.integers(1, max(2, horizon // 8)))
        start = int(rng.integers(0, max(1, horizon - dur)))
        txs.append(
            Transaction(
                start,
                dur,
                int(rng.integers(1, n_init + 1)),
                int(rng.integers(1, t + 1)),
                critical=bool(with_critical and rng.random() < 0.25),
            )
        )
    return trace_of(n_init, t, txs)


def make_random_instance(rng: np.random.Generator, max_targets: int = 8,
                         max_windows: int = 6) -> ProblemInstance:
    """Random solver instance that is always feasible at |T| buses."""
    t = int(rng.integers(1, max_targets + 1))
    w = int(rng.integers(1, max_windows + 1))
    ws = int(rng.integers(8, 40))
    comm = rng.integers(0, ws + 1, size=(t, w))  # singletons always fit
    om = rng.integers(0, 50, size=(t, t))
    om = np.triu(om, 1)
    om = om + om.T
    conflict = rng.random((t, t)) < 0.25
    conflict = np.triu(conflict, 1)
    conflict = conflict | conflict.T
    maxtb = int(rng.integers(1, t + 1))
    return ProblemInstance(ws, comm, om, conflict.astype(bool), maxtb)


def make_random_config(rng: np.random.Generator, num_targets: int) -> CrossbarConfig:
    num_buses = int(rng.integers(1, num_targets + 1))
    binding = tuple(int(b) for b in rng.integers(1, num_buses + 1, num_targets))
    return CrossbarConfig(num_buses, binding)


# ------------------------------------------------------------ lower bound

def greedy_clique_size(conflict: np.ndarray) -> int:
    """The greedy clique bound as a plain loop over the boolean matrix:
    each seed, by decreasing degree with ties by id, grows a clique in
    that same order."""
    n = conflict.shape[0]
    degrees = conflict.sum(axis=1)
    best = 1
    for seed in sorted(range(n), key=lambda i: (-int(degrees[i]), i)):
        clique = [seed]
        for v in sorted(range(n), key=lambda i: (-int(degrees[i]), i)):
            if v != seed and all(conflict[v, u] for u in clique):
                clique.append(v)
        best = max(best, len(clique))
    return best


# ---------------------------------------------------------------- budgets

def nodes_before_tie_break(inst: ProblemInstance, num_buses: int) -> int:
    """Smallest node limit under which ``optimal_binding`` still proves its
    optimum, found by bisection; the tie-break's first node lies beyond it."""
    lo, hi = 1, optimal_binding(inst, num_buses).nodes_explored
    while lo < hi:
        mid = (lo + hi) // 2
        try:
            proven = optimal_binding(inst, num_buses,
                                     SearchBudget(SolverLimits(node_limit=mid))).optimal
        except SolverLimitReached as exc:  # proven only if the tie-break was cut
            proven = exc.incumbent is not None and exc.incumbent.optimal
        if proven:
            hi = mid
        else:
            lo = mid + 1
    return lo


# -------------------------------------------------------- reference search

def tick(budget: SearchBudget) -> None:
    """Count one search node; raise past the node limit, or once the
    deadline is reached, on node 1 and every 256th node after it."""
    budget.nodes += 1
    if budget.node_limit is not None and budget.nodes > budget.node_limit:
        raise SolverLimitReached(f"node limit {budget.node_limit} exhausted")
    if budget.deadline is not None and (budget.nodes & 0xFF) == 1:
        if time.monotonic() >= budget.deadline:
            raise SolverLimitReached("time limit exhausted")


class _AssignState:
    """Incremental per-bus loads, members, conflict masks and overlap sums.

    ``loads[k]`` is bus k's bit-packed window loads; ``can_place`` is one add
    and one mask test, ``place``/``unplace`` one add or subtract each.
    """

    def __init__(self, inst: ProblemInstance, num_buses: int):
        self.maxtb = inst.maxtb
        comm = inst.comm
        peak = inst.window_size + (int(comm.max()) if comm.size else 0)
        width = _field_width(peak)
        ones = _pack_rows(np.ones((1, comm.shape[1]), dtype=np.int64), width)[0]
        self.guard = (1 << (width - 1)) * ones
        bias = (1 << (width - 1)) - 1 - inst.window_size
        self.loads = [bias * ones] * num_buses
        self.comm_packed = _pack_rows(comm, width)
        self.om_rows: list[list[int]] = inst.om.tolist()
        self.members: list[list[int]] = [[] for _ in range(num_buses)]
        self.conflict_mask = [0] * num_buses  # OR of members' conflict bitsets
        self.mask_stack: list[int] = []       # bus masks saved by place()
        self.overlap = [0] * num_buses        # per-bus pairwise overlap sum
        self.used = 0
        masks = []
        for i in range(inst.num_targets):
            m = 0
            for j in np.flatnonzero(inst.conflict[i]):
                m |= 1 << int(j)
            masks.append(m)
        self.target_conflict = masks

    def can_place(self, t: int, k: int) -> bool:
        if len(self.members[k]) >= self.maxtb:
            return False
        if self.conflict_mask[k] >> t & 1:
            return False
        return not (self.loads[k] + self.comm_packed[t]) & self.guard

    def place(self, t: int, k: int) -> int:
        """Place target t on bus k; returns the pairwise overlap added."""
        members = self.members[k]
        added = sum(map(self.om_rows[t].__getitem__, members))
        self.loads[k] += self.comm_packed[t]
        members.append(t)
        self.mask_stack.append(self.conflict_mask[k])
        self.conflict_mask[k] |= self.target_conflict[t]
        self.overlap[k] += added
        if k + 1 > self.used:
            self.used = k + 1
        return added

    def unplace(self, t: int, k: int, added: int, prev_used: int) -> None:
        self.loads[k] -= self.comm_packed[t]
        self.members[k].pop()
        self.conflict_mask[k] = self.mask_stack.pop()
        self.overlap[k] -= added
        self.used = prev_used


def reference_feasible(inst: ProblemInstance, num_buses: int, order: list[int],
                       budget: SearchBudget) -> list[int] | None:
    """DFS for any constraint-satisfying assignment; None proves none exists."""
    state = _AssignState(inst, num_buses)
    binding = [0] * inst.num_targets

    def descend(depth: int) -> bool:
        if depth == len(order):
            budget.best = (num_buses, binding.copy(), max(state.overlap))
            return True
        t = order[depth]
        limit = min(state.used + 1, num_buses)
        for k in range(limit):
            tick(budget)
            if not state.can_place(t, k):
                continue
            prev_used = state.used
            added = state.place(t, k)
            binding[t] = k + 1
            if descend(depth + 1):
                return True
            state.unplace(t, k, added, prev_used)
        return False

    return binding if descend(0) else None


def reference_improve(inst: ProblemInstance, num_buses: int, order: list[int],
                      best_cost: int, budget: SearchBudget):
    """Branch-and-bound for bindings cheaper than ``best_cost``.

    Returns the cheapest binding found, None if none beat ``best_cost``.
    """
    state = _AssignState(inst, num_buses)
    binding = [0] * inst.num_targets
    best_binding = None

    def improve(depth: int, cost: int) -> None:
        nonlocal best_cost, best_binding
        if cost >= best_cost:
            return
        if depth == len(order):
            best_cost = cost
            best_binding = binding.copy()
            budget.best = (num_buses, best_binding, cost)
            return
        t = order[depth]
        limit = min(state.used + 1, num_buses)
        for k in range(limit):
            tick(budget)
            if not state.can_place(t, k):
                continue
            prev_used = state.used
            added = state.place(t, k)
            new_cost = max(cost, state.overlap[k])
            if new_cost < best_cost:
                binding[t] = k + 1
                improve(depth + 1, new_cost)
            state.unplace(t, k, added, prev_used)

    improve(0, 0)
    return best_binding


def reference_lex_min(inst: ProblemInstance, num_buses: int, target_cost: int,
                      budget: SearchBudget) -> list[int] | None:
    """First canonical binding (target-id order, lowest bus first) with
    every bus's overlap sum at most ``target_cost``."""
    state = _AssignState(inst, num_buses)
    binding = [0] * inst.num_targets

    def descend(t: int) -> bool:
        if t == inst.num_targets:
            budget.best = (num_buses, binding.copy(), max(state.overlap))
            return True
        limit = min(state.used + 1, num_buses)
        for k in range(limit):
            tick(budget)
            if not state.can_place(t, k):
                continue
            prev_used = state.used
            added = state.place(t, k)
            if state.overlap[k] <= target_cost:
                binding[t] = k + 1
                if descend(t + 1):
                    return True
            state.unplace(t, k, added, prev_used)
        return False

    return binding if descend(0) else None


def reference_search(inst: ProblemInstance, num_buses: int, order: list[int], bound,
                     first_only: bool, budget: SearchBudget):
    """``solver._search``'s contract served by the three reference searches:
    feasibility (infinite bound), improvement (all leaves) and the
    target-id-order tie-break (finite bound, first leaf).  Each complete
    binding goes to ``budget.best`` with its cost; a cut raises."""
    if not first_only:
        return reference_improve(inst, num_buses, order, bound, budget)
    if bound == math.inf:
        return reference_feasible(inst, num_buses, order, budget)
    assert list(order) == list(range(inst.num_targets))
    return reference_lex_min(inst, num_buses, bound - 1, budget)


def search_outcome(search, inst: ProblemInstance, num_buses: int, order: list[int], bound,
                   first_only: bool, limits: SolverLimits | None = None,
                   start_nodes: int = 0):
    """Everything a ``_search``-shaped function leaves observable: the
    binding it returns (None when cut), the budget's ``best`` (the best
    binding and its cost, also at a cut), the cut's type and message, and
    the budget's final node count."""
    budget = SearchBudget(limits)
    budget.nodes = start_nodes
    try:
        binding, cut = search(inst, num_buses, order, bound, first_only, budget), None
    except SolverLimitReached as exc:
        binding, cut = None, exc
    return binding, budget.best, type(cut), str(cut), budget.nodes


# ------------------------------------------------------------ LP parsing

def sharing_solutions(x_i: int, x_j: int) -> set[int]:
    """Binary sb values admitted by the exporter's linearization of
    sb = x_i * x_j for given x values."""
    return {
        sb for sb in (0, 1)
        if x_i + x_j - 1 <= sb and 0.5 * x_i + 0.5 * x_j >= sb
    }


def parse_lp(text: str):
    """Parse the exporter's LP dialect into matrix form.

    Returns (variables, c, A_ub, b_ub, A_eq, b_eq, binaries, bounded)
    where ``variables`` fixes the column order.
    """
    section = None
    obj_terms: dict[str, float] = {}
    rows_ub: list[tuple[dict[str, float], float]] = []
    rows_eq: list[tuple[dict[str, float], float]] = []
    binaries: list[str] = []
    bounded: dict[str, tuple[float, float]] = {}

    def parse_terms(tokens: list[str]) -> dict[str, float]:
        terms: dict[str, float] = {}
        sign = 1.0
        coef: float | None = None
        for tok in tokens:
            if tok == "+":
                sign, coef = 1.0, None
            elif tok == "-":
                sign, coef = -1.0, None
            else:
                try:
                    coef = float(tok)
                except ValueError:
                    terms[tok] = terms.get(tok, 0.0) + sign * (1.0 if coef is None else coef)
                    sign, coef = 1.0, None
        return terms

    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("\\"):
            continue
        low = line.lower()
        if low in ("minimize", "subject to", "bounds", "binaries", "end"):
            section = low
            continue
        if section == "minimize":
            _, expr = line.split(":", 1)
            obj_terms = parse_terms(expr.split())
        elif section == "subject to":
            _, expr = line.split(":", 1)
            tokens = expr.split()
            for op in ("<=", ">=", "="):
                if op in tokens:
                    cut = tokens.index(op)
                    terms = parse_terms(tokens[:cut])
                    rhs = float(tokens[cut + 1])
                    break
            else:
                raise ValueError(f"no comparator in row: {line}")
            if op == "<=":
                rows_ub.append((terms, rhs))
            elif op == ">=":
                rows_ub.append(({v: -c for v, c in terms.items()}, -rhs))
            else:
                rows_eq.append((terms, rhs))
        elif section == "bounds":
            tokens = line.split()
            if len(tokens) == 3 and tokens[1] == ">=":
                bounded[tokens[0]] = (float(tokens[2]), np.inf)
        elif section == "binaries":
            binaries.extend(line.split())

    variables = sorted(
        set(binaries)
        | set(obj_terms)
        | {v for terms, _ in rows_ub + rows_eq for v in terms}
    )
    index = {v: i for i, v in enumerate(variables)}
    c = np.zeros(len(variables))
    for v, coef in obj_terms.items():
        c[index[v]] = coef

    def densify(rows):
        a = np.zeros((len(rows), len(variables)))
        b = np.zeros(len(rows))
        for r, (terms, rhs) in enumerate(rows):
            for v, coef in terms.items():
                a[r, index[v]] = coef
            b[r] = rhs
        return a, b

    a_ub, b_ub = densify(rows_ub)
    a_eq, b_eq = densify(rows_eq)
    return variables, c, a_ub, b_ub, a_eq, b_eq, set(binaries), bounded


def solve_lp_with_highs(text: str):
    """Feed a parsed LP model to scipy's MILP solver; returns (status, objective)."""
    from scipy.optimize import Bounds, LinearConstraint, milp

    variables, c, a_ub, b_ub, a_eq, b_eq, binaries, bounded = parse_lp(text)
    n = len(variables)
    integrality = np.array([1 if v in binaries else 0 for v in variables])
    lo = np.array([0.0] * n)
    hi = np.array([1.0 if v in binaries else np.inf for v in variables])
    for v, (vlo, vhi) in bounded.items():
        i = variables.index(v)
        lo[i], hi[i] = vlo, vhi
    constraints = []
    if len(a_ub):
        constraints.append(LinearConstraint(a_ub, -np.inf, b_ub))
    if len(a_eq):
        constraints.append(LinearConstraint(a_eq, b_eq, b_eq))
    res = milp(
        c=c,
        constraints=constraints,
        integrality=integrality,
        bounds=Bounds(lo, hi),
    )
    return res.status, (None if res.x is None else float(res.fun))
