"""Exact search for the minimum bus count and the optimal target binding.

The feasibility model: every target is connected to exactly one bus; in
every analysis window the busy cycles of the targets sharing a bus must fit
within the window; conflicting pairs (from pre-processing) must sit on
different buses; and no bus may carry more than ``maxtb`` targets.  The
minimum bus count is found by binary search over the bus count, valid
because adding a bus can never break feasibility (buses may stay empty).
The binding that minimizes the worst per-bus sum of pairwise overlaps is
then found by branch-and-bound at the chosen bus count.

Both searches are exact: an "infeasible" answer is a proof of
nonexistence, and the reported optimum is the true optimum unless a
node/time limit was hit (reported via ``optimal=False`` or
:class:`SolverLimitReached`).

Buses are interchangeable, so the search only enumerates canonical label
assignments (a target may open at most one fresh bus beyond those already
used); returned bindings are canonicalized so that bus labels appear in
first-use order by target id, making output independent of search order.

One :class:`SearchBudget` bounds every search of a run: pass the same
budget to :func:`min_config` and :func:`optimal_binding` and the node and
time limits cover the whole solve, probes and tie-break included.

Bus loads inside the search are bit-packed (SWAR): each bus's loads over
the W windows form one Python int with one ``f``-bit field per window,
field ``m`` in bits ``[m*f, (m+1)*f)``.  A field holds ``load + bias`` with
``bias = 2**(f-1) - 1 - window_size``, so its top (guard) bit is set exactly
when ``load > window_size``.  ``f`` is the smallest of 16, 32 or 64 (or a
multiple of 64 beyond) with ``window_size + max(comm) < 2**(f-1)``: a placed
load never exceeds the window size, so adding any one target's packed
``comm`` row keeps every field below ``2**f`` and no carry crosses fields.
One add and one mask test then check every window at once.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .analysis import AnalysisParams, WindowProfile

MAX_SOLVER_TARGETS = 32


class InstanceError(ValueError):
    """Inconsistent problem dimensions or parameters."""


class InfeasibleError(ValueError):
    """No binding exists for the requested bus count."""


class BandwidthInfeasibleError(InfeasibleError):
    """Some target alone exceeds a window's capacity; no crossbar helps."""

    def __init__(self, target_id: int, window: int, busy: int, window_size: int):
        self.target_id = target_id
        self.window = window
        super().__init__(
            f"bandwidth-infeasible target t_{target_id} in window {window}: "
            f"{busy} busy cycles > window size {window_size}"
        )


class SolverLimitReached(RuntimeError):
    """Node/time budget exhausted before a proof was complete.

    Carries whatever partial knowledge exists: proven bus-count bounds
    from the binary search, the probes made, and an incumbent report if
    a binding had been found before the cutoff.
    """

    def __init__(self, message: str, lower_bound: int | None = None,
                 upper_bound: int | None = None, probes: list | None = None,
                 incumbent: "SolveReport | None" = None):
        super().__init__(message)
        self.lower_bound = lower_bound
        self.upper_bound = upper_bound
        self.probes = probes or []
        self.incumbent = incumbent


@dataclass(frozen=True)
class SolverLimits:
    """Optional search budget; None means unlimited."""

    time_limit_s: float | None = None
    node_limit: int | None = None


@dataclass
class ProblemInstance:
    """All solver inputs: per-window demands, overlaps, conflicts, caps."""

    window_size: int
    comm: np.ndarray      # (T, W) busy cycles per target per window
    om: np.ndarray        # (T, T) aggregated pairwise overlap, symmetric
    conflict: np.ndarray  # (T, T) bool, pairs forbidden to share a bus
    maxtb: int

    def __post_init__(self) -> None:
        self.comm = np.asarray(self.comm, dtype=np.int64)
        self.om = np.asarray(self.om, dtype=np.int64)
        self.conflict = np.asarray(self.conflict, dtype=bool)
        t = self.comm.shape[0]
        if t < 1:
            raise InstanceError("instance needs at least one target")
        if t > MAX_SOLVER_TARGETS:
            raise InstanceError(
                f"{t} targets exceeds the largest supported crossbar ({MAX_SOLVER_TARGETS})"
            )
        if self.om.shape != (t, t) or self.conflict.shape != (t, t):
            raise InstanceError("om/conflict dimensions do not match comm")
        if not np.array_equal(self.om, self.om.T):
            raise InstanceError("overlap matrix must be symmetric")
        if not np.array_equal(self.conflict, self.conflict.T):
            raise InstanceError("conflict matrix must be symmetric")
        if self.conflict.diagonal().any():
            raise InstanceError("conflict matrix diagonal must be zero")
        if (self.comm < 0).any():
            raise InstanceError("busy cycles (comm) must be non-negative")
        if self.maxtb < 1:
            raise InstanceError("maxtb must be >= 1")
        if self.window_size < 1:
            raise InstanceError("window size must be >= 1")

    @property
    def num_targets(self) -> int:
        return self.comm.shape[0]


def build_instance(prof: WindowProfile, om: np.ndarray, conflict: np.ndarray,
                   params: AnalysisParams) -> ProblemInstance:
    """Assemble a solver instance from analysis outputs."""
    maxtb = params.max_targets_per_bus
    if maxtb is None:
        maxtb = prof.num_targets
    return ProblemInstance(prof.window_size, prof.comm, om, conflict, maxtb)


@dataclass(frozen=True)
class CrossbarConfig:
    """A bus count plus the target-to-bus binding (1-based bus labels)."""

    num_buses: int
    binding: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.num_buses < 1:
            raise InstanceError("need at least one bus")
        if not self.binding:
            raise InstanceError("binding must cover at least one target")
        for i, k in enumerate(self.binding):
            if not 1 <= k <= self.num_buses:
                raise InstanceError(
                    f"target t_{i + 1} bound to bus {k} outside 1..{self.num_buses}"
                )

    @property
    def num_targets(self) -> int:
        return len(self.binding)

    def bus_members(self) -> dict[int, list[int]]:
        """Bus label -> 0-based target indices bound to it."""
        members: dict[int, list[int]] = {}
        for i, k in enumerate(self.binding):
            members.setdefault(k, []).append(i)
        return members


def shared_bus_config(num_targets: int) -> CrossbarConfig:
    """The one-bus degenerate case: every target on bus 1."""
    return CrossbarConfig(1, tuple([1] * num_targets))


def full_crossbar_config(num_targets: int) -> CrossbarConfig:
    """One private bus per target."""
    return CrossbarConfig(num_targets, tuple(range(1, num_targets + 1)))


def canonical_binding(binding: list[int] | tuple[int, ...]) -> tuple[int, ...]:
    """Relabel buses in first-use order by target id (bus symmetry quotient)."""
    relabel: dict[int, int] = {}
    out = []
    for k in binding:
        if k not in relabel:
            relabel[k] = len(relabel) + 1
        out.append(relabel[k])
    return tuple(out)


def binding_maxov(om: np.ndarray, config: CrossbarConfig) -> int:
    """Worst per-bus sum of pairwise overlaps (unordered pairs i < j)."""
    worst = 0
    for members in config.bus_members().values():
        total = 0
        for a in range(len(members)):
            for b in range(a + 1, len(members)):
                total += int(om[members[a], members[b]])
        worst = max(worst, total)
    return worst


def validate_binding(inst: ProblemInstance, config: CrossbarConfig) -> list[str]:
    """Independently re-check a binding against every design constraint.

    Returns a list of violation descriptions; empty means valid.  Written
    directly from the constraint definitions, separate from the search.
    """
    violations: list[str] = []
    if config.num_targets != inst.num_targets:
        return [f"binding covers {config.num_targets} targets, instance has {inst.num_targets}"]
    ws = inst.window_size
    for k, members in sorted(config.bus_members().items()):
        loads = inst.comm[members].sum(axis=0)
        if (loads > ws).any():
            m = int(np.argmax(loads > ws))
            violations.append(
                f"bus {k} overloaded in window {m}: {int(loads[m])} > {ws}"
            )
        for a in range(len(members)):
            for b in range(a + 1, len(members)):
                i, j = members[a], members[b]
                if inst.conflict[i, j]:
                    violations.append(
                        f"conflicting targets t_{i + 1} and t_{j + 1} share bus {k}"
                    )
        if len(members) > inst.maxtb:
            violations.append(
                f"bus {k} carries {len(members)} targets, cap is {inst.maxtb}"
            )
    return violations


@dataclass
class SolveReport:
    """Result of the two-phase solve, including search bookkeeping."""

    config: CrossbarConfig
    maxov: int
    feasibility_probes: list[tuple[int, bool]] = field(default_factory=list)
    nodes_explored: int = 0
    wall_time_s: float = 0.0
    optimal: bool = True
    # False when the budget ran out in the lex-min tie-break: maxov is still
    # proven, but the binding is not the canonical one and depends on timing.
    # Not serialized, so reports of complete runs keep their bytes.
    tie_break_complete: bool = True

    def to_dict(self) -> dict:
        return {
            "num_buses": self.config.num_buses,
            "binding": list(self.config.binding),
            "maxov": self.maxov,
            "feasibility_probes": [[n, bool(ok)] for n, ok in self.feasibility_probes],
            "nodes_explored": self.nodes_explored,
            "wall_time_s": round(self.wall_time_s, 6),
            "optimal": self.optimal,
        }


class SearchBudget:
    """Node/time accounting shared by every search of one run.

    The deadline starts when the budget is created.  Functions taking
    ``limits`` accept either a :class:`SolverLimits` (a fresh budget for
    that call) or a budget to share with other calls.
    """

    def __init__(self, limits: SolverLimits | None = None):
        limits = limits or SolverLimits()
        self.nodes = 0
        self.node_limit = limits.node_limit
        self.deadline = (
            time.monotonic() + limits.time_limit_s
            if limits.time_limit_s is not None else None
        )

    def tick(self) -> None:
        self.nodes += 1
        if self.node_limit is not None and self.nodes > self.node_limit:
            raise SolverLimitReached(f"node limit {self.node_limit} exhausted")
        if self.deadline is not None and (self.nodes & 0xFF) == 0:
            if time.monotonic() > self.deadline:
                raise SolverLimitReached("time limit exhausted")


def _as_budget(limits: SolverLimits | SearchBudget | None) -> SearchBudget:
    return limits if isinstance(limits, SearchBudget) else SearchBudget(limits)


def _busy_order(inst: ProblemInstance) -> list[int]:
    """Targets by decreasing total busy cycles (first-fail heuristic)."""
    totals = inst.comm.sum(axis=1)
    return sorted(range(inst.num_targets), key=lambda i: (-int(totals[i]), i))


def _field_width(peak: int) -> int:
    """Bits per packed window field so that values up to ``peak`` leave the
    guard bit clear (see the module docstring)."""
    for width in (16, 32, 64):
        if peak < 1 << (width - 1):
            return width
    return 64 * -(-(peak.bit_length() + 1) // 64)


def _pack_rows(rows: np.ndarray, width: int) -> list[int]:
    """One int per row of non-negative values, element m in field m."""
    if width <= 64:
        dtype = f"<u{width // 8}"
        return [int.from_bytes(row.astype(dtype).tobytes(), "little") for row in rows]
    return [sum(int(v) << (width * m) for m, v in enumerate(row)) for row in rows]


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


def _search_feasible(inst: ProblemInstance, num_buses: int,
                     budget: SearchBudget) -> list[int] | None:
    """DFS for any constraint-satisfying assignment; None proves none exists."""
    order = _busy_order(inst)
    state = _AssignState(inst, num_buses)
    binding = [0] * inst.num_targets

    def descend(depth: int) -> bool:
        if depth == len(order):
            return True
        t = order[depth]
        limit = min(state.used + 1, num_buses)
        for k in range(limit):
            budget.tick()
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


def check_feasible(
    inst: ProblemInstance,
    num_buses: int,
    limits: SolverLimits | SearchBudget | None = None,
) -> tuple[bool, CrossbarConfig | None]:
    """Exactly decide whether any binding onto ``num_buses`` buses exists.

    Returns the decision and, when feasible, a canonicalized witness.
    """
    if not 1 <= num_buses <= inst.num_targets:
        raise InstanceError(
            f"bus count {num_buses} outside 1..{inst.num_targets}"
        )
    binding = _search_feasible(inst, num_buses, _as_budget(limits))
    if binding is None:
        return False, None
    return True, CrossbarConfig(num_buses, canonical_binding(binding))


def _check_single_target_fit(inst: ProblemInstance) -> None:
    over = np.argwhere(inst.comm > inst.window_size)
    if over.size:
        i, m = (int(v) for v in over[0])
        raise BandwidthInfeasibleError(i + 1, m, int(inst.comm[i, m]), inst.window_size)


def _greedy_clique_size(conflict: np.ndarray) -> int:
    """Size of a greedily grown clique; a lower bound on the bus count."""
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


def lower_bound(inst: ProblemInstance) -> int:
    """Cheap proven lower bounds: window bandwidth, conflict clique, maxtb."""
    if inst.comm.shape[1]:
        col = int(inst.comm.sum(axis=0).max())
        bw = -(-col // inst.window_size)  # ceil
    else:
        bw = 0
    clique = _greedy_clique_size(inst.conflict)
    card = -(-inst.num_targets // inst.maxtb)
    return max(1, bw, clique, card)


def min_config(
    inst: ProblemInstance,
    limits: SolverLimits | SearchBudget | None = None,
) -> tuple[int, list[tuple[int, bool]], CrossbarConfig | None]:
    """Binary-search the minimum feasible bus count.

    Returns ``(buses, probes, witness)``: the minimum, the ``(bus count,
    feasible)`` probes in order, and the canonical binding that proved
    ``buses`` feasible (None when no probe did; ``buses`` is then the
    target count).  Valid because feasibility is monotone in the bus
    count.  Raises :class:`BandwidthInfeasibleError` when some target
    alone overflows a window (infeasible even with one bus per target).
    When the budget runs out after a feasible probe, the
    :class:`SolverLimitReached` carries the smallest witness found as an
    ``optimal=False`` incumbent.
    """
    t0 = time.monotonic()
    _check_single_target_fit(inst)
    budget = _as_budget(limits)
    lo = lower_bound(inst)
    hi = inst.num_targets
    assert lo <= hi, "lower bound cannot exceed target count once comm <= WS"
    probes: list[tuple[int, bool]] = []
    witness: CrossbarConfig | None = None
    try:
        while lo < hi:
            mid = (lo + hi) // 2
            feasible, config = check_feasible(inst, mid, budget)
            probes.append((mid, feasible))
            if feasible:
                hi, witness = mid, config
            else:
                lo = mid + 1
    except SolverLimitReached as exc:
        incumbent = None
        if witness is not None:
            incumbent = SolveReport(
                config=witness,
                maxov=binding_maxov(inst.om, witness),
                feasibility_probes=list(probes),
                wall_time_s=time.monotonic() - t0,
                optimal=False,
            )
        raise SolverLimitReached(
            f"bus-count search stopped with proven bounds [{lo}, {hi}]: {exc}",
            lower_bound=lo, upper_bound=hi, probes=probes, incumbent=incumbent,
        ) from None
    return lo, probes, witness


def optimal_binding(
    inst: ProblemInstance,
    num_buses: int,
    limits: SolverLimits | SearchBudget | None = None,
) -> SolveReport:
    """Find the binding minimizing the worst per-bus overlap sum.

    Exact branch-and-bound seeded with a feasibility witness; ties between
    optimal bindings resolve to the lexicographically smallest canonical
    binding.  If the budget runs out the incumbent is returned with
    ``optimal=False``; if it runs out in the tie-break, with
    ``tie_break_complete=False``.  ``nodes_explored`` counts this call's
    nodes only, also when the budget is shared.
    """
    t0 = time.monotonic()
    if not 1 <= num_buses <= inst.num_targets:
        raise InstanceError(f"bus count {num_buses} outside 1..{inst.num_targets}")
    budget = _as_budget(limits)
    start_nodes = budget.nodes
    try:
        seed_binding = _search_feasible(inst, num_buses, budget)
    except SolverLimitReached as exc:
        raise SolverLimitReached(
            f"binding search on {num_buses} buses stopped before any "
            f"incumbent was found: {exc}"
        ) from None
    if seed_binding is None:
        raise InfeasibleError(f"no feasible binding exists on {num_buses} buses")
    best_cost = binding_maxov(inst.om, CrossbarConfig(num_buses, tuple(seed_binding)))
    best_binding = seed_binding
    order = _busy_order(inst)
    state = _AssignState(inst, num_buses)
    binding = [0] * inst.num_targets
    hit_limit = False
    tie_break_complete = False

    def improve(depth: int, cost: int) -> None:
        nonlocal best_cost, best_binding
        if cost >= best_cost:
            return
        if depth == len(order):
            best_cost = cost
            best_binding = binding.copy()
            return
        t = order[depth]
        limit = min(state.used + 1, num_buses)
        for k in range(limit):
            budget.tick()
            if not state.can_place(t, k):
                continue
            prev_used = state.used
            added = state.place(t, k)
            new_cost = max(cost, state.overlap[k])
            if new_cost < best_cost:
                binding[t] = k + 1
                improve(depth + 1, new_cost)
            state.unplace(t, k, added, prev_used)

    try:
        improve(0, 0)
    except SolverLimitReached:
        hit_limit = True

    if not hit_limit:
        try:
            best_binding = _lex_min_binding(inst, num_buses, best_cost, budget)
            tie_break_complete = True
        except SolverLimitReached:
            pass  # optimum already proven; only the tie-break is budget-cut
    return SolveReport(
        config=CrossbarConfig(num_buses, canonical_binding(best_binding)),
        maxov=best_cost,
        nodes_explored=budget.nodes - start_nodes,
        wall_time_s=time.monotonic() - t0,
        optimal=not hit_limit,
        tie_break_complete=tie_break_complete,
    )


def _lex_min_binding(inst: ProblemInstance, num_buses: int, target_cost: int,
                     budget: SearchBudget) -> list[int]:
    """First canonical binding (target-id order, lowest bus first) meeting
    the proven optimum; DFS prefix order makes it the lexicographic minimum."""
    state = _AssignState(inst, num_buses)
    binding = [0] * inst.num_targets

    def descend(t: int) -> bool:
        if t == inst.num_targets:
            return True
        limit = min(state.used + 1, num_buses)
        for k in range(limit):
            budget.tick()
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

    found = descend(0)
    assert found, "a binding achieving the proven optimum must exist"
    return binding
