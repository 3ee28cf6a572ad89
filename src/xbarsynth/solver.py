"""Exact search for the minimum bus count and the optimal target binding.

The feasibility model: every target is connected to exactly one bus; in
every analysis window the busy cycles of the targets sharing a bus must fit
within the window; conflicting pairs (from pre-processing) must sit on
different buses; and no bus may carry more than ``maxtb`` targets.  The
minimum bus count is found by binary search over the bus count, valid
because adding a bus can never break feasibility (buses may stay empty).
The binding that minimizes the worst per-bus sum of pairwise overlaps is
then found by branch-and-bound at the chosen bus count.  The module holds
synthesis only: the shared-bus and full-crossbar baselines that the
designed config is replayed against are built in :mod:`xbarsynth.sim`.

Both searches are exact: an "infeasible" answer is a proof of
nonexistence, and a returned :class:`SolveReport` is proven optimal and
canonical.  Every node/time limit cut raises :class:`SolverLimitReached`
instead, carrying the best binding known at the cut as its incumbent.

Buses are interchangeable, so the search only enumerates canonical label
assignments (a target may open at most one fresh bus beyond those already
used); returned bindings are canonicalized so that bus labels appear in
first-use order by target id, making output independent of search order.

One depth-first kernel, :func:`_search`, runs every search: the feasibility
probes (first complete binding, no cost bound), the branch-and-bound (every
complete binding tightens the bound) and the lexicographic tie-break
(target-id order, first binding within the proven optimum).  The probes
branch on the target with the largest off-diagonal ``om`` row sum first
(fail-first: the target that overlaps the others most is the hardest to
fit); :func:`optimal_binding`'s seed search and branch-and-bound branch in
decreasing busy-cycle order.  The order moves a probe's node count and
witness, never its answer.

One :class:`SearchBudget` bounds and records a solve: pass one budget to
:func:`min_config` and :func:`optimal_binding` and its limits, its probes
and every report's wall time cover the whole solve, tie-break included.
Every search leaves each complete binding it finds, with its ``maxov``, on
the budget as ``best``, the incumbent that every report is built from.

Bus loads inside the search are bit-packed (SWAR): each bus's loads over
the windows form one Python int with one ``f``-bit field per window,
field ``m`` in bits ``[m*f, (m+1)*f)``.  A field holds ``load + bias`` with
``bias = 2**(f-1) - 1 - window_size``, so its top (guard) bit is set exactly
when ``load > window_size``.  ``f`` is the smallest of 16, 32 or 64 (or a
multiple of 64 beyond) with ``window_size + max(comm) < 2**(f-1)``: a placed
load never exceeds the window size, so adding any one target's packed
``comm`` row keeps every field below ``2**f`` and no carry crosses fields.
One add and one mask test then check every window at once.  Only the
windows in which a bus can overflow are packed (:func:`binding_windows`).

The overlap cost is packed the same way: each bus keeps one int with one
field per target, field ``u`` in bits ``[u*g, (u+1)*g)`` holding the sum of
``om[u, m]`` over the bus's members ``m``, so the overlap that placing
target ``t`` adds is one shift and one mask.  Placing ``t`` adds its packed
``om`` row (diagonal zeroed) and unplacing restores the saved int.  ``g``
follows the same rule with the largest off-diagonal ``om`` row sum as the
peak, computed with Python ints: no field can exceed it, so no carry
crosses fields whichever targets share the bus.

The tests that a pair of targets alone decides are one int for all buses
and targets, ``blocked``, with one ``B``-bit field per target for ``B``
buses: bit ``k`` of field ``u`` is set when target ``u`` may not join bus
``k``.  Placing ``t`` on bus ``k`` sets bit ``k`` of each field of a
target that may not share a bus with ``t``, or of every field once the
bus holds ``maxtb`` targets.  Such a pair conflicts; or it is *apart*,
its busy cycles together exceeding the window size in some packed
window, so that the load test would refuse it (an implied conflict, as in
bin packing with conflicts: Gendreau, Laporte and Semet 2004); or its
``om`` is at or past the cost bound, so that the cost test would refuse
it, the bus's overlap sum being at least that ``om``.  The bound only
falls, so a pair once past it stays past it: each depth's neighbour bits
gain the pairs the bound has reached whenever a complete binding brings
it to or below another ``om`` value, and the frames already on the stack
keep their fewer bits, which is still exact.  ``blocked`` is passed down
the recursion, so backtracking restores nothing.  The parent of a depth,
which has just built that depth's ``blocked`` word and knows how many
buses are in use, reads the depth's field once and passes down the mask
of buses left free, and the depth visits only those.  When the mask is
empty the parent does not enter the depth at all: it counts the depth's
attempts, every one blocked, in one step.  The attempts skipped either
way are still counted as nodes, in bulk, so node counts and the node at
which a limit cuts are those of testing every bus in turn.  The implied
conflicts serve only this skipping: the clique lower bound and the
orders read the conflicts and the full ``comm``, so every probe list,
node count and binding is that of the plain tests.

Each bus's search state is one tuple: its packed loads, its pairwise
overlap sum, its packed overlap fields and its member count.  A visit
reads one tuple, a placement stores one and backtracking restores the
saved one.  A visit tests the overlap cost before the loads: a cost
rejection skips the load add, which is as wide as all the packed
windows together.

Everything above that does not depend on the bus count is the instance's
packed form (:class:`_Packed`): the load field width's guard bits and
bias, the packed ``comm`` and ``om`` rows, the overlap field width, one
conflict-adjacency int per target, the apart pairs, the pairs by
decreasing ``om`` and the busy and overlap orders.  It is built on the
instance's first use and cached on it for the instance's lifetime (about
0.85 MiB on the 100x ``uniform`` trace at ws=250, 18,353 packed windows);
the instance is immutable, so the cache never goes stale.  The clique
lower bound, every probe and binding search of a solve, and
:func:`binding_fits`, which a random-binding sampler calls once per draw
after the solve, read the same one.
"""

from __future__ import annotations

import math
import numbers
import time
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .analysis import AnalysisParams, WindowProfile

MAX_SOLVER_TARGETS = 32
_UNLIMITED = 1 << 63  # a tick count no search reaches
_PAIR_CELLS = 1 << 16  # pair-window cells the pair-overflow test compares at once


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

    The one signal of a cut solve.  The message says how far the solve
    got (the bus-count search's proven bounds, or the binding phase that
    was cut); ``incumbent`` is the best binding known at the cut, with the
    feasibility probes behind it (None when there was none).  The
    incumbent has ``optimal=False`` unless only the final tie-break was
    cut: its ``maxov`` is then proven, but its binding is not the
    canonical one.
    """

    def __init__(self, message: str, incumbent: "SolveReport | None" = None):
        super().__init__(message)
        self.incumbent = incumbent


@dataclass(frozen=True)
class SolverLimits:
    """Optional search budget; None means unlimited."""

    time_limit_s: float | None = None
    node_limit: int | None = None

    def __post_init__(self) -> None:
        for name in ("time_limit_s", "node_limit"):
            value = getattr(self, name)
            if value is not None and not value >= 0:  # NaN would never trip
                raise ValueError(f"{name} must be >= 0, got {value}")


def _read_only(values, dtype) -> np.ndarray:
    """A read-only view of ``values`` as ``dtype``; an array passed in keeps
    its own flags, so the caller can still write to it."""
    view = np.asarray(values, dtype=dtype).view()
    view.flags.writeable = False
    return view


@dataclass(frozen=True)
class ProblemInstance:
    """All solver inputs: per-window demands, overlaps, conflicts, caps.

    Immutable, so that the packed form the search builds on first use
    (``_packed``, see the module docstring), which lives as long as the
    instance (0.85 MiB on the 100x ``uniform`` trace), never goes stale:
    the fields cannot be reassigned and the arrays are read-only views.
    ``comm`` keeps its type when that is a signed integer type (the
    profile's is the narrowest that holds T times the window size) and is
    int64 otherwise; ``om`` is int64 and ``conflict`` bool.  Build a
    changed instance with :func:`dataclasses.replace`.  Its counts,
    ``window_size`` and ``maxtb``, are integers >= 1 (numpy integers too):
    the packed search shifts and masks by them.
    """

    window_size: int
    comm: np.ndarray      # (T, W) busy cycles per target per window
    om: np.ndarray        # (T, T) aggregated pairwise overlap, symmetric
    conflict: np.ndarray  # (T, T) bool, pairs forbidden to share a bus
    maxtb: int

    def __post_init__(self) -> None:
        # A signed integer comm keeps its type, so the profile's narrow
        # counts are shared, not widened; every sum over it is taken in int64.
        comm = np.asarray(self.comm)
        comm_type = comm.dtype if np.issubdtype(comm.dtype, np.signedinteger) else np.int64
        for name, dtype in (("comm", comm_type), ("om", np.int64), ("conflict", bool)):
            object.__setattr__(self, name, _read_only(getattr(self, name), dtype))
        t = self.comm.shape[0]
        if t < 1:
            raise InstanceError("instance needs at least one target")
        check_target_count(t)
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
        if (self.om < 0).any():
            raise InstanceError("overlaps (om) must be non-negative")
        for name, count in (("maxtb", self.maxtb), ("window size", self.window_size)):
            if not isinstance(count, numbers.Integral) or count < 1:
                raise InstanceError(f"{name} must be an integer >= 1, got {count}")

    @property
    def num_targets(self) -> int:
        return self.comm.shape[0]

    @cached_property
    def _packed(self) -> _Packed:
        return _pack(self)


def check_target_count(num_targets: int) -> None:
    """Raise :class:`InstanceError` when ``num_targets`` exceeds ``MAX_SOLVER_TARGETS``."""
    if num_targets > MAX_SOLVER_TARGETS:
        raise InstanceError(f"{num_targets} targets exceeds the largest supported "
                            f"crossbar ({MAX_SOLVER_TARGETS})")


def check_bus_count(num_buses: int, num_targets: int) -> None:
    """Raise :class:`InstanceError` unless ``1 <= num_buses <= num_targets``."""
    if not 1 <= num_buses <= num_targets:
        raise InstanceError(f"bus count {num_buses} outside 1..{num_targets}")


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


def canonical_binding(binding: list[int] | tuple[int, ...]) -> tuple[int, ...]:
    """Relabel buses in first-use order by target id (bus symmetry quotient)."""
    relabel: dict[int, int] = {}
    out = []
    for k in binding:
        if k not in relabel:
            relabel[k] = len(relabel) + 1
        out.append(relabel[k])
    return tuple(out)


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
        loads = inst.comm[members].sum(axis=0, dtype=np.int64)
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


@dataclass(frozen=True)
class SolveReport:
    """Result of the two-phase solve, including search bookkeeping.

    Returned only for a finished solve; a cut solve's best binding is the
    ``incumbent`` of its :class:`SolverLimitReached`.
    """

    config: CrossbarConfig
    maxov: int
    feasibility_probes: tuple[tuple[int, bool], ...]
    nodes_explored: int
    wall_time_s: float
    optimal: bool

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
    """Node/time accounting, :func:`min_config`'s probes and the incumbent
    of one solve.

    The deadline and every report's wall time run from ``start``, when the
    budget is created.  ``best`` is ``(buses, binding, maxov)`` of the last
    complete binding any search found (None before the first).  Pass one
    budget to several solver calls to bound and record them together; None
    gives a call an unlimited budget of its own.
    """

    def __init__(self, limits: SolverLimits | None = None):
        limits = limits or SolverLimits()
        self.nodes = 0
        self.node_limit = limits.node_limit
        self.start = time.monotonic()
        limit = limits.time_limit_s
        self.deadline = None if limit is None else self.start + limit
        self.probes: list[tuple[int, bool]] = []
        self.best: tuple[int, list[int], int] | None = None

    def next_check(self, nodes: int) -> int:
        """First tick count after ``nodes`` at which a limit can trip: one
        past the node limit (or the next tick, once past it), or with a
        deadline the next of ticks 1, 257, 513, ... (one more than a
        multiple of 256)."""
        nxt = max(self.node_limit, nodes) + 1 if self.node_limit is not None else _UNLIMITED
        if self.deadline is not None:
            nxt = min(nxt, ((nodes - 1) | 0xFF) + 2)
        return nxt

    def check(self, nodes: int) -> int:
        """Record ``nodes`` ticks and raise :class:`SolverLimitReached` at
        the first tick past the node limit, or on tick 1, 257, 513, ...
        once the deadline is reached; otherwise return :meth:`next_check`."""
        self.nodes = nodes
        if self.node_limit is not None and nodes > self.node_limit:
            raise SolverLimitReached(f"node limit {self.node_limit} exhausted")
        if self.deadline is not None and nodes & 0xFF == 1:
            if time.monotonic() >= self.deadline:
                raise SolverLimitReached("time limit exhausted")
        return self.next_check(nodes)


def _report(budget: SearchBudget, optimal: bool, start_nodes: int) -> SolveReport:
    """The report of ``budget.best``, canonicalized: the probes, time and
    nodes since ``start_nodes`` are ``budget``'s."""
    num_buses, binding, maxov = budget.best
    return SolveReport(CrossbarConfig(num_buses, canonical_binding(binding)), maxov,
                       tuple(budget.probes), budget.nodes - start_nodes,
                       time.monotonic() - budget.start, optimal)


def _incumbent(budget: SearchBudget, num_buses: int, start_nodes: int) -> SolveReport | None:
    """An unproven report of ``budget.best``, or None unless it binds onto ``num_buses``."""
    best = budget.best
    return _report(budget, False, start_nodes) if best and best[0] == num_buses else None


def _overlap_order(inst: ProblemInstance) -> tuple[int, ...]:
    """Targets by decreasing off-diagonal ``om`` row sum, ties by id: the
    target that overlaps the others most, and so is hardest to fit onto a
    shared bus, is branched on first (fail-first)."""
    return inst._packed.overlap_order


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


def _spread_rows(mask: np.ndarray, stride: int) -> list[int]:
    """One int per row of a square bool matrix: bit ``u * stride`` of entry
    ``t`` is ``mask[t, u]``."""
    t = len(mask)
    wide = np.zeros((t, t, stride), dtype=bool)
    wide[:, :, 0] = mask
    packed = np.packbits(wide.reshape(t, -1), axis=1, bitorder="little")
    bits = int.from_bytes(packed.tobytes(), "little")
    width = 8 * packed.shape[1]
    row = (1 << width) - 1
    return [bits >> (width * u) & row for u in range(t)]


def binding_windows(comm: np.ndarray, window_size: int) -> np.ndarray:
    """The indices of the windows in which some bus's load can exceed
    ``window_size``: those whose column total, the sum of every target's
    busy cycles, exceeds it.  A bus's load in a window is at most that
    total, so no other window can bind.  The totals are int64 unless
    ``T * max(comm)`` reaches ``2**63``, and Python ints then."""
    peak = int(comm.max()) if comm.size else 0
    total_type = np.int64 if len(comm) * peak < 1 << 63 else object
    return np.flatnonzero(comm.sum(axis=0, dtype=total_type) > window_size)


def _overflow_pairs(comm: np.ndarray, conflict: np.ndarray, window_size: int) -> np.ndarray:
    """Which non-conflicting pairs of targets together exceed the window
    size in some window of ``comm``, as a symmetric bool matrix.

    The pairs are taken ``_PAIR_CELLS // windows`` at a time, so the
    scratch stays bounded however many windows there are.
    """
    t, windows = comm.shape
    over = np.zeros((t, t), dtype=bool)
    first, second = np.nonzero(np.triu(~conflict, 1))
    if len(first) and windows:
        wide = comm.astype(np.uint64)  # a pair's sum fits: 0 <= comm < 2**63
        step = max(1, _PAIR_CELLS // windows)
        for lo in range(0, len(first), step):
            i, j = first[lo:lo + step], second[lo:lo + step]
            over[i, j] = (wide[i] + wide[j] > int(window_size)).any(axis=1)
    return over | over.T


class _Packed(NamedTuple):
    """The bus-count-independent part of the search state of one instance
    (see the module docstring), built once by :func:`_pack`."""

    guard: int                    # the top bit of every load field
    bias: int                     # an empty bus's loads: the bias in every field
    rows: tuple[int, ...]         # packed ``comm`` row per target, kept windows only
    ov_width: int                 # bits per overlap field
    om: np.ndarray                # ``om`` with its diagonal zeroed
    om_rows: tuple[int, ...]      # packed ``om`` row per target, diagonal zeroed
    adjacency: tuple[int, ...]    # bit ``u`` of entry ``t``: t and u conflict
    apart: np.ndarray             # pairs that conflict or overflow a kept window together
    heavy_pairs: tuple[tuple[int, int, int], ...]  # (om, t, u), t < u, om > 0, by decreasing om
    busy_order: tuple[int, ...]   # targets by decreasing total busy cycles, ties by id
    overlap_order: tuple[int, ...]  # see :func:`_overlap_order`


def _pack(inst: ProblemInstance) -> _Packed:
    """Build the packed form of ``inst``; only ``inst._packed`` calls this."""
    comm, t, ws = inst.comm, inst.num_targets, inst.window_size
    peak = int(comm.max()) if comm.size else 0
    width = _field_width(ws + peak)
    kept = comm[:, binding_windows(comm, ws)]
    apart = inst.conflict | _overflow_pairs(kept, inst.conflict, ws)
    ones = _pack_rows(np.ones((1, kept.shape[1]), dtype=np.int64), width)[0]
    om = inst.om.copy()
    np.fill_diagonal(om, 0)
    om_lists = om.tolist()
    sums = [sum(row) for row in om_lists]  # Python ints: a numpy sum can overflow
    ov_width = _field_width(max(sums))
    totals = comm.sum(axis=1, dtype=np.int64).tolist()
    pairs = [(v, i, j) for i, row in enumerate(om_lists)
             for j, v in enumerate(row[i + 1:], i + 1) if v]
    return _Packed(
        guard=(1 << (width - 1)) * ones,
        bias=((1 << (width - 1)) - 1 - ws) * ones,
        rows=tuple(_pack_rows(kept, width)),
        ov_width=ov_width,
        om=_read_only(om, np.int64),
        om_rows=tuple(_pack_rows(om, ov_width)),
        adjacency=tuple(_spread_rows(inst.conflict, 1)),
        apart=_read_only(apart, bool),
        heavy_pairs=tuple(sorted(pairs, key=lambda pair: -pair[0])),
        busy_order=tuple(sorted(range(t), key=lambda i: (-totals[i], i))),
        overlap_order=tuple(sorted(range(t), key=lambda i: (-sums[i], i))),
    )


def binding_fits(inst: ProblemInstance, binding: tuple[int, ...]) -> bool:
    """Whether ``binding`` (one 1-based bus label per target) meets every
    design constraint: the packed-form answer of
    ``validate_binding(inst, config) == []``, for a sampler's many draws.

    Targets join their buses in id order.  Each join tests the target's
    conflict adjacency against the bus's member mask (conflicts are
    symmetric, so every pair is seen once), the member count against
    ``maxtb``, and the guard bits after adding the packed loads (loads only
    grow, so the first overflow shows, before any field can carry).
    """
    p = inst._packed
    guard, bias, maxtb = p.guard, p.bias, inst.maxtb
    loads: dict[int, int] = {}
    members: dict[int, int] = {}
    for t, (k, row, adj) in enumerate(zip(binding, p.rows, p.adjacency)):
        mask = members.get(k, 0)
        load = loads.get(k, bias) + row
        if adj & mask or load & guard or mask.bit_count() >= maxtb:
            return False
        members[k] = mask | 1 << t
        loads[k] = load
    return True


def _search(inst: ProblemInstance, num_buses: int, order: Sequence[int], bound: float,
            first_only: bool, budget: SearchBudget) -> list[int] | None:
    """Depth-first branch-and-bound over canonical bindings onto ``num_buses``.

    Targets are placed in ``order``, each on every used bus and then on one
    fresh bus, lowest bus first.  The cost of a partial binding is its worst
    per-bus pairwise overlap sum; a placement is taken only when that cost
    stays below ``bound``.  With ``first_only`` the search stops at the first
    complete binding; otherwise each complete binding tightens ``bound`` to
    its cost.  Each complete binding is written to ``budget.best`` with its
    cost, which is its ``maxov``: a bus's overlap sum only grows as targets
    join it.  Returns the last complete binding found (1-based labels by
    target), or None when there was none; a cut raises
    :class:`SolverLimitReached`, leaving the best binding so far on the
    budget.

    Each ``(target, bus)`` attempt ticks one node before it is tested.  A
    depth is handed the mask of buses its target may join (see the module
    docstring): not blocked by a conflict, a full bus, a member it
    overflows a window with, or a member whose ``om`` with it is at or past
    ``bound``.  It visits only those, and adds the attempts it skipped,
    before each visit and after the last, to the count in bulk.  A child
    with no free bus is not entered: the parent adds all of its attempts to
    the count at once, and they are checked with the parent's next attempt
    or closing count, before anything else happens.  Once a jump reaches
    the budget's next check count, the budget is checked at that count,
    not at the one jumped to, and then at each further check count the
    jump passed.  So a node limit cuts at the node past it, as when every
    attempt ticks alone, and the deadline is read on node 1 and every
    256th node after it.  The count is written back to ``budget.nodes`` on
    every exit.
    """
    p = inst._packed
    guard, ov_width, rows, om_rows = p.guard, p.ov_width, p.rows, p.om_rows
    ov_mask = (1 << ov_width) - 1
    # bit 0 of every B-bit field: a full bus's neighbour bits, which block every target
    full = ((1 << inst.num_targets * num_buses) - 1) // ((1 << num_buses) - 1)
    next_fields = [t * num_buses for t in order[1:]] + [0]
    # the pairs that may not share a bus: those ``apart``, and those whose
    # ``om`` alone reaches the bound, ORed in as the bound falls to their ``om``
    heavy = p.heavy_pairs
    reached = 0  # heavy[:reached] are among the neighbour bits
    mask = p.apart
    if heavy and bound <= heavy[0][0]:
        mask = mask | (p.om >= bound)
        reached = bisect_right(heavy, -bound, key=lambda pair: -pair[0])
    floor = heavy[reached][0] if reached < len(heavy) else -1  # the bound that adds a pair
    neighbours = _spread_rows(mask, num_buses)
    # per depth: its target, packed comm row, overlap field shift, packed om row,
    # neighbour bits spread to B-bit fields and the next depth's field shift
    steps = [(t, rows[t], t * ov_width, om_rows[t], neighbours[t], nf)
             for t, nf in zip(order, next_fields)]

    def tighten() -> None:
        """OR into ``steps`` the pairs whose ``om`` the bound has reached."""
        nonlocal reached, floor
        while reached < len(heavy) and heavy[reached][0] >= bound:
            _, t, u = heavy[reached]
            reached += 1
            for a, b in ((t, u), (u, t)):
                depth = order.index(a)
                step = steps[depth]
                steps[depth] = (*step[:4], step[4] | 1 << b * num_buses, step[5])
        floor = heavy[reached][0] if reached < len(heavy) else -1

    # how many buses a target may try with ``used`` buses in use, and their mask
    tries = [min(used + 1, num_buses) for used in range(num_buses + 1)]
    reach = [(1 << n) - 1 for n in tries]
    maxtb = inst.maxtb
    buses = [(p.bias, 0, 0, 0)] * num_buses  # (load, overlap, acc, count) per bus
    binding = [0] * inst.num_targets
    prior = budget.best  # replaced by the first complete binding found
    nodes = budget.nodes
    next_check = budget.next_check(nodes)
    last = len(order) - 1

    def descend(depth: int, cost: int, used: int, blocked: int, free: int) -> bool:
        nonlocal nodes, next_check, bound
        t, row, shift, om_row, neighbours, next_field = steps[depth]
        prev = -1
        while free:
            low = free & -free
            free ^= low
            k = low.bit_length() - 1
            nodes += k - prev
            prev = k
            while nodes >= next_check:
                next_check = budget.check(next_check)
            state = buses[k]
            load, ov, acc, count = state
            new = ov + ((acc >> shift) & ov_mask)
            c = new if new > cost else cost
            if c >= bound:
                continue
            load += row
            if load & guard:
                continue
            if depth == last:
                binding[t] = k + 1
                budget.best = (num_buses, binding.copy(), c)
                if first_only:
                    return True
                bound = c
                if c <= floor:
                    tighten()
                continue
            count += 1
            child_used = used + (k == used)
            child_blocked = blocked | (neighbours if count < maxtb else full) << k
            child_free = reach[child_used] & ~(child_blocked >> next_field)
            if not child_free:
                # every attempt of the child is blocked: count them unentered
                nodes += tries[child_used]
                continue
            binding[t] = k + 1
            buses[k] = (load, new, acc + om_row, count)
            if descend(depth + 1, c, child_used, child_blocked, child_free):
                return True
            buses[k] = state
        nodes += tries[used] - 1 - prev
        while nodes >= next_check:
            next_check = budget.check(next_check)
        return False

    try:
        if bound > 0:
            descend(0, 0, 0, 0, reach[0])
    finally:
        del descend  # the closure holds itself through its cell
    budget.nodes = nodes
    return None if budget.best is prior else budget.best[1]


def check_feasible(
    inst: ProblemInstance,
    num_buses: int,
    budget: SearchBudget | None = None,
) -> tuple[bool, CrossbarConfig | None]:
    """Exactly decide whether any binding onto ``num_buses`` buses exists.

    Returns the decision and, when feasible, a canonicalized witness.
    """
    check_bus_count(num_buses, inst.num_targets)
    binding = _search(inst, num_buses, _overlap_order(inst), math.inf, True,
                      budget or SearchBudget())
    if binding is None:
        return False, None
    return True, CrossbarConfig(num_buses, canonical_binding(binding))


def _check_single_target_fit(inst: ProblemInstance) -> None:
    if int(inst.comm.max(initial=0)) > inst.window_size:
        i, m = (int(v) for v in np.argwhere(inst.comm > inst.window_size)[0])
        raise BandwidthInfeasibleError(i + 1, m, int(inst.comm[i, m]), inst.window_size)


def _greedy_clique_size(adj: Sequence[int]) -> int:
    """Size of a greedily grown clique; a lower bound on the bus count.

    Bit ``u`` of ``adj[v]`` marks a conflict between ``v`` and ``u``.  Each
    seed, taken in decreasing conflict degree with ties by id, grows a
    clique by visiting the targets in that same order: ``v`` joins when it
    conflicts with every member.  The zero diagonal keeps a member from
    joining again.
    """
    order = sorted(range(len(adj)), key=lambda i: (-adj[i].bit_count(), i))
    best = 1
    for seed in order:
        clique = 1 << seed
        for v in order:
            if clique & adj[v] == clique:
                clique |= 1 << v
        best = max(best, clique.bit_count())
    return best


def lower_bound(inst: ProblemInstance) -> int:
    """Cheap proven lower bounds: window bandwidth, conflict clique, maxtb."""
    if inst.comm.shape[1]:
        col = int(inst.comm.sum(axis=0, dtype=np.int64).max())
        bw = -(-col // inst.window_size)  # ceil
    else:
        bw = 0
    clique = _greedy_clique_size(inst._packed.adjacency)
    card = -(-inst.num_targets // inst.maxtb)
    return max(1, bw, clique, card)


def min_config(
    inst: ProblemInstance,
    budget: SearchBudget | None = None,
) -> tuple[int, list[tuple[int, bool]]]:
    """Binary-search the minimum feasible bus count.

    Returns ``(buses, probes)``: the minimum and the ``(bus count,
    feasible)`` probes in order.  The last feasible probe's witness is
    left on ``budget.best`` (none when no probe was feasible; ``buses``
    is then the target count).  Valid because feasibility is monotone in
    the bus count.  Raises :class:`BandwidthInfeasibleError` when some
    target alone overflows a window (infeasible even with one bus per
    target).  A budget cut raises :class:`SolverLimitReached` whose
    message states the proven bounds; after a feasible probe it carries
    that witness, with the probes so far, as an ``optimal=False``
    incumbent.
    """
    _check_single_target_fit(inst)
    budget = budget or SearchBudget()
    first = len(budget.probes)
    lo = lower_bound(inst)
    hi = inst.num_targets
    assert lo <= hi, "lower bound cannot exceed target count once comm <= WS"
    try:
        while lo < hi:
            mid = (lo + hi) // 2
            feasible = check_feasible(inst, mid, budget)[0]
            budget.probes.append((mid, feasible))
            if feasible:
                hi = mid
            else:
                lo = mid + 1
    except SolverLimitReached as exc:
        exc.with_traceback(None)  # the context of the cut below: its frames would cycle
        raise SolverLimitReached(
            f"bus-count search stopped with proven bounds [{lo}, {hi}]: {exc}",
            incumbent=_incumbent(budget, hi, budget.nodes),
        ) from None
    return lo, budget.probes[first:]


def optimal_binding(
    inst: ProblemInstance,
    num_buses: int,
    budget: SearchBudget | None = None,
) -> SolveReport:
    """Find the binding minimizing the worst per-bus overlap sum.

    Exact branch-and-bound seeded with a feasibility search; ties between
    optimal bindings resolve to the lexicographically smallest canonical
    binding.  ``nodes_explored`` counts this call's nodes only, also when
    the budget is shared.  A cut raises :class:`SolverLimitReached` whose
    incumbent is, by phase: in the seed search, ``budget.best`` when it
    binds onto ``num_buses`` buses (the last feasible probe of a
    :func:`min_config` on the same budget), else None; the best binding
    so far, ``optimal=False``, in the branch-and-bound; the proven
    optimum, ``optimal=True`` but not canonical, in the tie-break.
    """
    check_bus_count(num_buses, inst.num_targets)
    budget = budget or SearchBudget()
    start_nodes = budget.nodes
    order = inst._packed.busy_order
    proven = None  # None in the seed search, then whether maxov is proven optimal
    try:
        if _search(inst, num_buses, order, math.inf, True, budget) is None:
            raise InfeasibleError(f"no feasible binding exists on {num_buses} buses")
        proven = False
        _search(inst, num_buses, order, budget.best[2], False, budget)
        proven = True
        # the first binding in target-id order within the proven optimum is
        # the lexicographically smallest canonical one
        lex_min = _search(inst, num_buses, list(range(inst.num_targets)),
                          budget.best[2] + 1, True, budget)
    except SolverLimitReached as exc:
        exc.with_traceback(None)  # the context of the cut below: its frames would cycle
        if proven is None:
            witness = _incumbent(budget, num_buses, start_nodes)
            raise SolverLimitReached(
                f"binding search on {num_buses} buses stopped before any incumbent "
                f"was found: {exc}"
                + ("; the bus-count search's witness is returned" if witness else ""),
                incumbent=witness,
            ) from None
        raise SolverLimitReached(
            "solver limit hit in the tie-break; maxov is proven optimal but the "
            "binding is not the canonical one" if proven else
            "solver limit hit; incumbent binding returned, optimality unproven",
            incumbent=_report(budget, proven, start_nodes),
        ) from None
    assert lex_min is not None, "a binding achieving the proven optimum must exist"
    return _report(budget, True, start_nodes)
