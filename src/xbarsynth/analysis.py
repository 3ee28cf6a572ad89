"""Window-based traffic profiling and conflict pre-processing.

The horizon is tiled with fixed-size windows; window m covers cycles
[m*WS, (m+1)*WS).  For every target we count per-window busy cycles
(occupancy: concurrent transfers to one target count once per cycle) and
for every target pair the cycles where both are busy at once.  Summing the
pairwise overlaps over all windows gives the overlap matrix that drives
binding optimization; thresholding per-window overlaps (plus any overlap
between critical streams) gives the conflict matrix of pairs that must not
share a bus.

Implementation note: profiles are computed from merged busy intervals cut
at window boundaries, never by stepping individual cycles, so the test
suite's per-cycle oracle is an independent check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .trace import Trace, group_rows


@dataclass
class AnalysisParams:
    """Knobs of the analysis/pre-processing stage.

    ``overlap_threshold`` is a fraction of the window size; above 0.5 the
    pair could not share a bus anyway (its busy cycles alone would exceed
    the window), so larger values are rejected.  ``max_targets_per_bus``
    of None means unconstrained.
    """

    window_size: int
    overlap_threshold: float = 0.3
    max_targets_per_bus: int | None = None

    def __post_init__(self) -> None:
        if self.window_size < 1:
            raise ValueError("window size must be >= 1 cycle")
        if not 0.0 < self.overlap_threshold <= 0.5:
            raise ValueError(
                f"overlap threshold must be in (0, 0.5], got {self.overlap_threshold}"
                " (pairs overlapping more than 50% of a window cannot share a bus)"
            )
        if self.max_targets_per_bus is not None and self.max_targets_per_bus < 1:
            raise ValueError("max targets per bus must be >= 1")


@dataclass
class WindowProfile:
    """Per-window busy cycles and pairwise overlaps.

    comm[i, m]     busy cycles of target i+1 in window m
    wo[i, j, m]    cycles in window m where targets i+1 and j+1 are both busy
    crit_wo[i, j, m]  same, counting only critical-critical co-activity
    """

    window_size: int
    num_windows: int
    comm: np.ndarray
    wo: np.ndarray
    crit_wo: np.ndarray

    @property
    def num_targets(self) -> int:
        return self.comm.shape[0]


def _merged(start: np.ndarray, end: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Union of half-open intervals sorted by start, as disjoint intervals.

    Touching intervals merge too, so the results are separated by gaps.
    """
    if not len(start):
        return start, end
    reach = np.maximum.accumulate(end)
    first = np.flatnonzero(np.r_[True, start[1:] > reach[:-1]])
    return start[first], reach[np.r_[first[1:] - 1, len(start) - 1]]


def _overlap_tensor(start: np.ndarray, end: np.ndarray, target: np.ndarray,
                    num_targets: int, window_size: int, num_windows: int) -> np.ndarray:
    """wo[i, j, m]: cycles of window m in which targets i+1 and j+1 are busy.

    Rows are (start, end, 1-based target), sorted by start.  Each target's
    intervals are merged; the cut points of all merged intervals plus the
    window boundaries split the horizon into segments on which every
    target is busy throughout or idle throughout.  Every pair of targets
    busy on a segment then adds its length to that segment's window.
    """
    wo = np.zeros((num_targets, num_targets, num_windows), dtype=np.int64)
    order, bounds = group_rows(target - 1, num_targets)
    pieces = [
        (i, *_merged(start[idx], end[idx]))
        for i in range(num_targets)
        if len(idx := order[bounds[i]:bounds[i + 1]])
    ]
    if not pieces:
        return wo
    owner = np.concatenate([np.full(len(s), i) for i, s, _ in pieces])
    lo = np.concatenate([s for _, s, _ in pieces])
    hi = np.concatenate([e for _, _, e in pieces])
    points = np.concatenate(
        [lo, hi, np.arange(window_size, num_windows * window_size, window_size)]
    )
    # The points are a few sorted runs, which a stable sort merges fast.
    by_value = np.argsort(points, kind="stable")
    ranked = points[by_value]
    first = np.r_[True, ranked[1:] != ranked[:-1]]
    cuts = ranked[first]
    at = np.empty(len(points), dtype=np.int64)  # index in cuts of each point
    at[by_value] = np.cumsum(first) - 1
    # Merged intervals of one target never touch, so each cut opens or
    # closes at most one of them: a running parity marks the busy segments.
    toggle = np.zeros((num_targets, len(cuts)), dtype=bool)
    toggle[owner, at[:len(lo)]] = True
    toggle[owner, at[len(lo):2 * len(lo)]] = True
    busy = np.logical_xor.accumulate(toggle, axis=1)[:, :-1]
    length = np.diff(cuts)
    window = cuts[:-1] // window_size
    for i, _, _ in pieces:
        seg = np.flatnonzero(busy[i])
        j, k = np.nonzero(busy[i:, seg])  # targets i.. busy on i's segments
        j, seg = j + i, seg[k]
        np.add.at(wo, (i, j, window[seg]), length[seg])
        below = j > i
        np.add.at(wo, (j[below], i, window[seg[below]]), length[seg[below]])
    return wo


def profile(trace: Trace, window_size: int) -> WindowProfile:
    """Compute the per-window occupancy and overlap profile of a trace."""
    if window_size < 1:
        raise ValueError("window size must be >= 1 cycle")
    n = trace.num_targets
    num_windows = math.ceil(trace.horizon / window_size)
    start, end, target = trace.start, trace.start + trace.duration, trace.target
    wo = _overlap_tensor(start, end, target, n, window_size, num_windows)
    crit = trace.critical
    crit_wo = _overlap_tensor(start[crit], end[crit], target[crit], n, window_size,
                              num_windows)
    comm = wo[np.arange(n), np.arange(n)]
    return WindowProfile(window_size, num_windows, comm, wo, crit_wo)


def aggregate_overlap(prof: WindowProfile) -> np.ndarray:
    """Sum pairwise overlaps over all windows into the overlap matrix."""
    return prof.wo.sum(axis=2)


def preprocess(prof: WindowProfile, params: AnalysisParams) -> np.ndarray:
    """Derive the boolean conflict matrix of pairs forbidden to share a bus.

    A pair conflicts when its overlap in any single window strictly exceeds
    floor(threshold * WS) cycles, or when its critical streams are ever
    simultaneously active.  The diagonal is always zero.
    """
    if params.window_size != prof.window_size:
        raise ValueError(
            f"params window size {params.window_size} != profile window size {prof.window_size}"
        )
    threshold_cycles = int(params.overlap_threshold * prof.window_size)
    conflict = (prof.wo > threshold_cycles).any(axis=2) | (prof.crit_wo > 0).any(axis=2)
    np.fill_diagonal(conflict, False)
    return conflict


def validate_profile(prof: WindowProfile) -> None:
    """Check the structural invariants of a profile; raise on violation."""
    ws = prof.window_size
    if (prof.comm < 0).any() or (prof.comm > ws).any():
        raise ValueError("comm entries must lie in [0, WS]")
    if not np.array_equal(prof.wo, prof.wo.transpose(1, 0, 2)):
        raise ValueError("wo must be symmetric in the target pair")
    mins = np.minimum(prof.comm[:, None, :], prof.comm[None, :, :])
    if (prof.wo > mins).any():
        raise ValueError("wo[i,j,m] must not exceed min(comm[i,m], comm[j,m])")
    for i in range(prof.num_targets):
        if not np.array_equal(prof.wo[i, i], prof.comm[i]):
            raise ValueError("wo diagonal must equal comm")
    if (prof.crit_wo > prof.wo).any():
        raise ValueError("crit_wo must not exceed wo")
