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

import numbers
from dataclasses import dataclass, field

import numpy as np

from .trace import Trace, group_rows, row_blocks

# The most target-windows (T x windows) a profile holds: at most 8 bytes a busy
# count, four times the 20 x 48,000 of the 100x uniform trace at ws = 250.
MAX_PROFILE_CELLS = 1 << 22


def _count_type(bound: int) -> np.dtype:
    """The narrowest of int8, int16, int32 and int64 whose maximum is at least
    ``bound``; int64 past that."""
    for dtype in (np.int8, np.int16, np.int32):
        if np.iinfo(dtype).max >= bound:
            return np.dtype(dtype)
    return np.dtype(np.int64)


def _check_window_size(window_size: int) -> None:
    """A window size is an integer from 1 to 2**63 - 1 cycles: no trace
    ends later, and the int64 window arithmetic cannot take a larger one."""
    if not isinstance(window_size, numbers.Integral):
        raise ValueError(f"window size must be an integer, got {window_size}")
    if window_size < 1:
        raise ValueError("window size must be >= 1 cycle")
    if window_size >= 1 << 63:
        raise ValueError(f"window size must be below 2**63 cycles, got {window_size}")


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
        _check_window_size(self.window_size)
        if not 0.0 < self.overlap_threshold <= 0.5:
            raise ValueError(
                f"overlap threshold must be in (0, 0.5], got {self.overlap_threshold}"
                " (pairs overlapping more than 50% of a window cannot share a bus)"
            )
        maxtb = self.max_targets_per_bus
        if maxtb is not None:
            if not isinstance(maxtb, numbers.Integral):
                raise ValueError(f"max targets per bus must be an integer >= 1, got {maxtb}")
            if maxtb < 1:
                raise ValueError("max targets per bus must be >= 1")


@dataclass
class WindowProfile:
    """What the pipeline uses of the per-window busy and overlap counts.

    With wo[i, j, m] the cycles of window m in which targets i+1 and j+1
    are both busy (wo[i, i, m] is target i+1's busy cycles) and crit_wo
    the same count over critical streams only:

    comm[i, m]   busy cycles of target i+1 in window m (= wo[i, i, m])
    om[i, j]     overlap summed over all windows (= wo[i, j].sum())
    peak[i, j]   largest overlap in one window (= wo[i, j].max(), 0 with no windows)
    crit[i, j]   whether the critical streams of i+1 and j+1 are ever busy
                 at once (= (crit_wo[i, j] > 0).any())

    ``comm`` has the narrowest signed integer type that holds T times the
    window size (:func:`_count_type`), so no sum of its entries over one
    window's column can wrap; ``om`` and ``peak`` are int64 and ``crit``
    bool.  ``wo`` and ``crit_wo`` themselves (T x T x windows, int64) are
    built from ``trace`` on each access, for checks against per-cycle
    oracles; the profile proper is O(T*W + T^2).
    """

    window_size: int
    comm: np.ndarray
    om: np.ndarray
    peak: np.ndarray
    crit: np.ndarray
    trace: Trace = field(repr=False, compare=False)

    @property
    def num_targets(self) -> int:
        return self.comm.shape[0]

    @property
    def num_windows(self) -> int:
        return self.comm.shape[1]

    @property
    def wo(self) -> np.ndarray:
        """Dense wo[i, j, m], built from the trace on each access."""
        return self._dense(None)

    @property
    def crit_wo(self) -> np.ndarray:
        """Dense crit_wo[i, j, m], built from the trace on each access."""
        return self._dense(self.trace.critical)

    def _dense(self, rows: np.ndarray | None) -> np.ndarray:
        """The overlap tensor of the trace rows selected by the mask ``rows`` (all if None)."""
        tr = self.trace
        wo = np.zeros((self.num_targets, self.num_targets, self.num_windows), dtype=np.int64)
        busy, cuts = _busy_segments(self.num_targets, _merged_targets(tr, _by_target(tr), rows),
                                    self._boundaries())
        for i, windows, per_window in _row_overlaps(busy, cuts, self.window_size,
                                                    self.comm.dtype):
            wo[i, i:][:, windows] = per_window
            wo[i:, i][:, windows] = per_window
        return wo

    def _boundaries(self) -> np.ndarray:
        return np.arange(1, self.num_windows, dtype=np.int64) * self.window_size


def _merged(trace: Trace, idx: np.ndarray, rows: np.ndarray | None
            ) -> tuple[np.ndarray, np.ndarray]:
    """Union of the busy intervals of trace rows ``idx``, sorted by start,
    that the mask ``rows`` selects (all if None), as disjoint intervals.

    Touching intervals merge too, so the results are separated by gaps.
    The rows are read in blocks (:func:`~xbarsynth.trace.row_blocks`),
    each block's running end continuing from the one before.
    """
    lo, hi, reach = [], [], -1  # no start is negative: the first row opens an interval
    for block in row_blocks(len(idx)):
        r = idx[block]
        if rows is not None:
            r = r[rows[r]]
        if not len(r):
            continue
        start = trace.start[r]
        ends = np.empty(len(r) + 1, dtype=np.int64)  # ends[k + 1]: the latest end up to row k
        ends[0] = reach  # carried from the block before
        np.add(start, trace.duration[r], out=ends[1:])
        np.maximum.accumulate(ends, out=ends)
        before = ends[:-1]
        gap = start > before
        lo.append(start[gap])
        hi.append(before[gap])  # where the interval before each new one ends
        reach = int(ends[-1])
    # the first close belongs to no interval; the last interval ends at reach
    return np.concatenate(lo or [np.zeros(0, dtype=np.int64)]), np.concatenate((*hi, [reach]))[1:]


def _changes(a: np.ndarray) -> np.ndarray:
    """Mask of the entries of ``a`` that differ from the one before; the first is set."""
    flag = np.empty(len(a), dtype=bool)
    flag[:1] = True
    np.not_equal(a[1:], a[:-1], out=flag[1:])
    return flag


def _by_target(trace: Trace) -> tuple[np.ndarray, np.ndarray]:
    """The trace's rows grouped by target id (:func:`~xbarsynth.trace.group_rows`):
    those of target i+1 are ``order[bounds[i + 1]:bounds[i + 2]]``, by start."""
    return group_rows(trace.target, trace.num_targets + 1)


def _merged_targets(trace: Trace, by_target: tuple[np.ndarray, np.ndarray],
                    rows: np.ndarray | None = None) -> list[tuple[int, np.ndarray, np.ndarray]]:
    """Each target's merged busy intervals (:func:`_merged`) over the trace rows
    the mask ``rows`` selects (all if None), grouped by :func:`_by_target`.

    Returns ``(i, lo, hi)`` for each target i+1 with a selected row, in
    target order, each target's ends formed from its own rows.
    """
    order, bounds = by_target
    bounds = bounds.tolist()
    pieces = []
    for i in range(trace.num_targets):
        lo, hi = _merged(trace, order[bounds[i + 1]:bounds[i + 2]], rows)
        if len(lo):
            pieces.append((i, lo, hi))
    return pieces


def _busy_segments(num_targets: int, pieces: list[tuple[int, np.ndarray, np.ndarray]],
                   boundaries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cut the timeline into segments on which each target is busy or idle throughout.

    Takes the merged intervals of :func:`_merged_targets`; their cut points
    plus the sorted ``boundaries`` give ``cuts``, and segment k is
    [cuts[k], cuts[k + 1]).  Returns ``(busy, cuts)`` with ``busy[i, k]``
    true when target i+1 is busy on segment k.
    """
    if not pieces:
        return np.zeros((num_targets, 0), dtype=bool), np.zeros(0, dtype=np.int64)
    owner = np.concatenate([np.full(len(s), i) for i, s, _ in pieces])
    lo = np.concatenate([s for _, s, _ in pieces])
    hi = np.concatenate([e for _, _, e in pieces])
    points = np.concatenate([lo, hi, boundaries])
    # The points are a few sorted runs, which a stable sort merges fast.
    by_value = np.argsort(points, kind="stable")
    ranked = points[by_value]
    first = _changes(ranked)
    cuts = ranked[first]
    at = np.empty(len(points), dtype=np.int64)  # index in cuts of each point
    at[by_value] = np.cumsum(first) - 1
    # Merged intervals of one target never touch, so each cut opens or
    # closes at most one of them: a running parity marks the busy segments.
    toggle = np.zeros((num_targets, len(cuts)), dtype=bool)
    toggle[owner, at[:len(lo)]] = True
    toggle[owner, at[len(lo):2 * len(lo)]] = True
    return np.logical_xor.accumulate(toggle, axis=1, out=toggle)[:, :-1], cuts


def _row_overlaps(busy: np.ndarray, cuts: np.ndarray, window_size: int, dtype: np.dtype):
    """Per-window overlaps of each target with itself and the targets after it.

    Takes the output of ``_busy_segments``.  Yields ``(i, windows,
    per_window)`` for each target i+1 busy on some segment, where
    ``per_window[j - i, r]`` (j >= i) is the number of cycles of window
    ``windows[r]`` in which targets i+1 and j+1 are both busy; windows in
    which i+1 is idle are left out.  Segments come in time order, so each
    window's segments form one run for ``np.add.reduceat``.  A segment
    lies in one window, so its length, and the sum over one window's
    segments, is at most ``window_size``: lengths, their products with
    ``busy`` and ``per_window`` are all of ``dtype``, which must hold it.
    Besides ``per_window`` (at most T x W) the scratch is at most one row
    of i's segments or the size of ``per_window``, whichever is larger.
    """
    num_targets = len(busy)
    length = np.diff(cuts).astype(dtype)
    window = cuts[:-1] // window_size
    for i in range(num_targets):
        seg = np.flatnonzero(busy[i])
        if not len(seg):
            continue
        w = window[seg]
        run = np.flatnonzero(_changes(w))
        per_window = np.empty((num_targets - i, len(run)), dtype=dtype)
        # As many targets at a time as keep the scratch within per_window.
        step = max(1, per_window.size // len(seg))
        for j in range(i, num_targets, step):
            both = busy[j:j + step, seg] * length[seg]
            np.add.reduceat(both, run, axis=1, out=per_window[j - i:j - i + step])
        yield i, w[run], per_window


def profile(trace: Trace, window_size: int) -> WindowProfile:
    """Compute the per-window occupancy and overlap profile of a trace.

    Row i of the overlap counts is summed per window over the segments on
    which target i+1 is busy (``_row_overlaps``), reduced to ``om`` and
    ``peak`` and dropped, so no T x T x windows tensor is ever held.
    More than ``MAX_PROFILE_CELLS`` targets x windows is a ``ValueError``,
    raised before anything is allocated.
    """
    _check_window_size(window_size)
    n, windows = trace.num_targets, -(-trace.horizon // window_size)
    if n * windows > MAX_PROFILE_CELLS:
        raise ValueError(f"a profile of {n} targets x {windows} windows exceeds "
                         f"{MAX_PROFILE_CELLS} target-windows; use a larger window size")
    comm = np.zeros((n, windows), dtype=_count_type(n * window_size))
    om = np.zeros((n, n), dtype=np.int64)
    peak = np.zeros((n, n), dtype=np.int64)
    crit = np.zeros((n, n), dtype=bool)
    prof = WindowProfile(window_size, comm, om, peak, crit, trace)

    by_target = _by_target(trace)
    # Critical overlap needs no windows: any shared busy segment counts.
    busy, _ = _busy_segments(n, _merged_targets(trace, by_target, trace.critical),
                             np.zeros(0, dtype=np.int64))
    for i in range(n):
        crit[i, i:] = crit[i:, i] = busy[i:, busy[i]].any(axis=1)
    del busy

    # Merged first, so that the row order is freed before the segment table is built.
    merged = _merged_targets(trace, by_target)
    del by_target
    busy, cuts = _busy_segments(n, merged, prof._boundaries())
    del merged
    for i, windows, per_window in _row_overlaps(busy, cuts, window_size, comm.dtype):
        comm[i, windows] = per_window[0]
        om[i, i:] = om[i:, i] = per_window.sum(axis=1, dtype=np.int64)
        peak[i, i:] = peak[i:, i] = per_window.max(axis=1)
    return prof


def aggregate_overlap(prof: WindowProfile) -> np.ndarray:
    """The overlap matrix: pairwise overlaps summed over all windows."""
    return prof.om


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
    conflict = (prof.peak > threshold_cycles) | prof.crit
    np.fill_diagonal(conflict, False)
    return conflict
