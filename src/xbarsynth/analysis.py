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
at window boundaries, a time block at a time, never by stepping
individual cycles, so the test suite's per-cycle oracle is an independent
check.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from .trace import Trace, grouped_blocks

# The most target-windows (T x windows) a profile holds: at most 8 bytes a busy
# count, four times the 20 x 48,000 of the 100x uniform trace at ws = 250.
MAX_PROFILE_CELLS = 1 << 22
# About the most targets x cut points one time block of the profile holds
# (_block_step) when T is small: its segment table takes a byte a cell.  The
# 100x uniform trace at ws = 250 (20 targets, 80 k cuts) takes three blocks.
_BLOCK_CELLS = 1 << 20


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
        wo = np.zeros((self.num_targets, self.num_targets, self.num_windows), dtype=np.int64)
        for _, busy, cuts in _segment_tables(self.trace, rows, self.window_size):
            for i, windows, per_window in _row_overlaps(busy, cuts, self.window_size,
                                                        self.comm.dtype):
                wo[i, i:][:, windows] += per_window.T  # a window cut by a block edge adds up
                wo[i + 1:, i][:, windows] += per_window[:, 1:].T
        return wo


def _changes(a: np.ndarray) -> np.ndarray:
    """Mask of the entries of ``a`` that differ from the one before; the first is set."""
    flag = np.empty(len(a), dtype=bool)
    flag[:1] = True
    np.not_equal(a[1:], a[:-1], out=flag[1:])
    return flag


def _merged_targets(trace: Trace, rows: np.ndarray | None = None
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each target's busy intervals over the trace rows the mask ``rows``
    selects (all if None), merged into disjoint intervals.

    Touching intervals merge too, so one target's intervals are separated
    by gaps.  Returns ``(owner, lo, hi)``, interval k being [lo[k], hi[k])
    of target owner[k] + 1, sorted by start.  The selected rows come
    grouped by target a block at a time
    (:func:`~xbarsynth.trace.grouped_blocks`); each block's columns are
    gathered once, and each target's run in it is merged by a running end
    that continues the target's end before it.
    """
    num = trace.num_targets
    reach = [-1] * num  # no start is negative: a target's first row opens an interval
    lo: list[list[np.ndarray]] = [[] for _ in range(num)]
    hi: list[list[np.ndarray]] = [[] for _ in range(num)]
    for index, runs in grouped_blocks(trace.target, num + 1, rows=rows):
        start, duration = trace.start[index], trace.duration[index]
        for target, run in runs:
            i, s = target - 1, start[run]
            ends = np.empty(len(s) + 1, dtype=np.int64)  # ends[k + 1]: latest end to row k
            ends[0] = reach[i]  # carried from the run before
            np.add(s, duration[run], out=ends[1:])
            np.maximum.accumulate(ends, out=ends)
            before = ends[:-1]
            gap = s > before
            lo[i].append(s[gap])
            hi[i].append(before[gap])  # where the interval before each new one ends
            reach[i] = int(ends[-1])
    busy = [i for i in range(num) if lo[i]]
    if not busy:
        return np.zeros(0, dtype=np.int16), *np.zeros((2, 0), dtype=np.int64)
    for i in busy:
        hi[i][0] = hi[i][0][1:]  # the first close belongs to no interval
        hi[i].append(np.array([reach[i]]))  # the last interval ends at reach
    owner = np.repeat(np.array(busy, dtype=np.int16), [sum(map(len, lo[i])) for i in busy])
    lo_all = np.concatenate([part for i in busy for part in lo[i]])
    del lo  # each list of pieces goes once it is joined
    hi_all = np.concatenate([part for i in busy for part in hi[i]])
    del hi
    by_start = np.argsort(lo_all, kind="stable")  # the targets' runs merge fast
    return owner[by_start], lo_all[by_start], hi_all[by_start]


def _block_step(num_targets: int) -> int:
    """The interval starts, and the windows, one time block of the profile
    takes at most (:func:`_segment_tables`): about ``_BLOCK_CELLS`` cells
    of T x cuts, and at least 4 T.  A block's segment table then never
    needs more than 14 T x T cells (bytes), less than ``om`` and ``peak``
    take, and its pass over the T targets is spread over enough intervals.
    """
    return max(_BLOCK_CELLS // (3 * num_targets), 4 * num_targets)


def _segment_tables(trace: Trace, rows: np.ndarray | None, window_size: int | None):
    """The segment tables (:func:`_busy_segments`) of the merged busy
    intervals (:func:`_merged_targets`) of the trace rows the mask ``rows``
    selects (all if None), one per time block, in time order.

    With ``window_size`` the segments are also cut at the window
    boundaries.  Yields ``(shared, busy, cuts)`` for each block [a, b),
    built from the intervals that meet it, clipped to it; ``shared`` is
    the window the block shares with the blocks before or after it, or
    None.  A block takes at most ``step`` (:func:`_block_step`) interval
    starts after a and at most ``step`` windows, and ends on a window
    boundary unless none lies past a, so a shared window is the only
    window of each block but the last that meets it.  The cuts of a block
    are then its two ends, its window boundaries and the ends of its
    intervals: at most 3 ``step`` + 2 T + 2, with at most T intervals
    carried in across a and ``step`` + T starting in it.  Stretches where
    every target is idle are skipped.
    """
    num_targets = trace.num_targets
    owner, lo, hi = _merged_targets(trace, rows)
    step = _block_step(num_targets)
    ws = int(window_size or (1 << 63) - 1)  # no windows: one window holds every cycle
    end = int(hi.max()) if len(hi) else 0
    k, b = 0, 0
    carry_owner, carry_hi = owner[:0], hi[:0]  # intervals that go on past b
    while b < end:
        a = b
        if not len(carry_hi):  # skip to the next start, or to its window's first cycle
            a = max(a, int(lo[k]) // ws * ws)
        ahead = int(np.searchsorted(lo, a, side="right")) + step
        b = int(lo[ahead]) if ahead < len(lo) else end
        b = min(b, (a // ws + step) * ws)
        if b < end and b // ws * ws > a:
            b = b // ws * ws
        stop = int(np.searchsorted(lo, b))
        block_owner, block_lo, block_hi = owner[k:stop], lo[k:stop], hi[k:stop]
        if len(carry_hi):
            block_owner = np.concatenate((carry_owner, block_owner))
            block_lo = np.concatenate((np.full(len(carry_hi), a, dtype=np.int64), block_lo))
            block_hi = np.concatenate((carry_hi, block_hi))
        if b < end:
            going_on = block_hi > b
            carry_owner, carry_hi = block_owner[going_on], block_hi[going_on]
            block_hi = np.minimum(block_hi, b)
        k = stop
        first, last = a // ws, (b - 1) // ws  # the windows that meet the block
        edges = np.arange(first + 1, last + 1, dtype=np.int64) * ws
        shared = first if a % ws else last if b % ws and b < end else None
        yield (None if window_size is None else shared,
               *_busy_segments(num_targets, block_owner, block_lo, block_hi, edges))


def _busy_segments(num_targets: int, owner: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                   boundaries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cut the timeline into segments on which each target is busy or idle throughout.

    Takes intervals [lo[k], hi[k]) of target owner[k] + 1, one target's
    disjoint and not touching; their ends plus the sorted ``boundaries``
    give ``cuts``, and segment k is [cuts[k], cuts[k + 1]).  Returns
    ``(busy, cuts)`` with ``busy[i, k]`` true when target i+1 is busy on
    segment k.
    """
    if not len(lo):
        return np.zeros((num_targets, 0), dtype=bool), np.zeros(0, dtype=np.int64)
    points = np.concatenate([lo, hi, boundaries])
    # The points are a few sorted runs, which a stable sort merges fast.
    by_value = np.argsort(points, kind="stable")
    ranked = points[by_value]
    first = _changes(ranked)
    cuts = ranked[first]
    at = np.empty(len(points), dtype=np.int64)  # index in cuts of each point
    at[by_value] = np.cumsum(first) - 1
    # Each cut opens or closes at most one interval of a target: a running
    # parity marks the busy segments.
    toggle = np.zeros((num_targets, len(cuts)), dtype=bool)
    toggle[owner, at[:len(lo)]] = True
    toggle[owner, at[len(lo):2 * len(lo)]] = True
    return np.logical_xor.accumulate(toggle, axis=1, out=toggle)[:, :-1], cuts


def _row_overlaps(busy: np.ndarray, cuts: np.ndarray, window_size: int, dtype: np.dtype):
    """Per-window overlaps of each target with itself and the targets after it.

    Takes the output of ``_busy_segments``.  Yields ``(i, windows,
    per_window)`` for each target i+1 busy on some segment, where
    ``per_window[r, j - i]`` (j >= i) is the number of cycles of window
    ``windows[r]`` in which targets i+1 and j+1 are both busy; windows in
    which i+1 is idle are left out.  A window's row is contiguous, so
    reductions over the windows run along the targets.  Segments come in
    time order, so each window's segments form one run for
    ``np.add.reduceat``.  A segment
    lies in one window, so its length, and the sum over one window's
    segments, is at most ``window_size``: lengths, their products with
    ``busy`` and ``per_window`` are all of ``dtype``, which must hold it.
    Besides ``per_window`` (at most T x windows) the scratch is at most one
    row of i's segments, ``_BLOCK_CELLS`` or the size of ``per_window``,
    whichever is largest.
    """
    num_targets = len(busy)
    length = np.diff(cuts).astype(dtype)
    window = cuts[:-1] // window_size
    for i in np.flatnonzero(busy.any(axis=1)).tolist():
        seg = np.flatnonzero(busy[i])
        w = window[seg]
        run = np.flatnonzero(_changes(w))
        per_window = np.empty((len(run), num_targets - i), dtype=dtype)
        # As many targets at a time as keep the scratch within a block's
        # cells or per_window, whichever is larger.
        step = max(1, max(per_window.size, _BLOCK_CELLS) // len(seg))
        seg_length = length[seg]
        for j in range(i, num_targets, step):
            both = busy[j:j + step, seg] * seg_length
            np.add.reduceat(both, run, axis=1, out=per_window[:, j - i:j - i + step].T)
        yield i, w[run], per_window


def _mirror(m: np.ndarray) -> None:
    """Copy the upper triangle of ``m``, which is non-negative, onto its
    lower one, which is zero (False)."""
    np.maximum(m, m.T, out=m)


def profile(trace: Trace, window_size: int) -> WindowProfile:
    """Compute the per-window occupancy and overlap profile of a trace.

    The merged busy intervals (:func:`_merged_targets`) are cut into time
    blocks (:func:`_segment_tables`) of about ``_BLOCK_CELLS`` targets x
    cut points, or at most 14 T x T when that is more
    (:func:`_block_step`).  Per block, row i of the overlap counts is
    summed per window over the segments on which target i+1 is busy
    (``_row_overlaps``) and dropped: ``comm`` and the upper triangles of
    ``om`` (summed), ``peak`` (maximum) and ``crit`` (or) accumulate across
    blocks, and are mirrored at the end.  A window cut by a block edge adds
    each block's part into ``comm``, and is summed in a T x T matrix for
    ``peak`` until its last block.  The critical pass needs no windows: any
    busy segment two critical streams share sets ``crit``.  So no T x T x
    windows tensor and no segment table of the whole timeline is ever held:
    beyond the profile, the scratch is the merged intervals, built from one
    window's row order and a few blocks at a time, and one block's segment
    table and row of per-window overlaps.  More than ``MAX_PROFILE_CELLS``
    targets x windows is a ``ValueError``, raised before anything is
    allocated.
    """
    _check_window_size(window_size)
    n, windows = trace.num_targets, -(-trace.horizon // window_size)
    if n * windows > MAX_PROFILE_CELLS:
        raise ValueError(f"a profile of {n} targets x {windows} windows exceeds "
                         f"{MAX_PROFILE_CELLS} target-windows; use a larger window size")
    comm = np.zeros((n, windows), dtype=_count_type(n * int(window_size)))  # no int64 wrap
    om = np.zeros((n, n), dtype=np.int64)
    peak = np.zeros((n, n), dtype=np.int64)
    crit = np.zeros((n, n), dtype=bool)

    if trace.critical.any():
        for _, busy, _ in _segment_tables(trace, trace.critical, None):
            for i in np.flatnonzero(busy.any(axis=1)).tolist():
                crit[i, i:] |= busy[i:, busy[i]].any(axis=1)

    split, part = None, None  # a window cut by block edges, and its overlaps so far
    for shared, busy, cuts in _segment_tables(trace, None, window_size):
        if split is not None and shared != split:  # its last block is done
            _close_window(part, peak)
            split = None
        if shared is not None:
            if part is None:
                part = np.zeros((n, n), dtype=comm.dtype)
            split = shared
        for i, where, per_window in _row_overlaps(busy, cuts, window_size, comm.dtype):
            om[i, i:] += per_window.sum(axis=0, dtype=np.int64)
            # The parts of the split window add up in comm, and in part until
            # _close_window folds their sum into peak; a part is at most the whole.
            if split is not None and split in (where[0], where[-1]):
                part[i, i:] += per_window[0 if where[0] == split else -1]
            comm[i, where] += per_window[:, 0]
            row = peak[i, i:]
            np.maximum(row, per_window.max(axis=0), out=row)
    if split is not None:
        _close_window(part, peak)
    for m in (om, peak, crit):
        _mirror(m)
    return WindowProfile(window_size, comm, om, peak, crit, trace)


def _close_window(part: np.ndarray, peak: np.ndarray) -> None:
    """Fold the overlaps ``part`` of a window summed over its blocks into
    the upper triangle of ``peak``, and zero ``part``."""
    np.maximum(peak, part, out=peak)
    part[:] = 0


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
