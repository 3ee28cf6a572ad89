"""Cycle-level bus contention replay of a trace against a crossbar config.

Every transaction requests its target's bus at its start cycle.  A bus
serves one transaction at a time, non-preemptively and for exactly its
duration, granting queued requests in (arrival cycle, target_id,
initiator_id) order; initiators are connected to every bus and never
contend among themselves.  Latency is completion minus request start, so
an uncontended transaction's latency equals its duration.  A replay's
:class:`ReplayStats` hold its config and the three statistics the design
flow reads: average and maximum latency, and average queuing delay
(latency minus duration); :func:`simulate` returns them with the
per-transaction latencies (:class:`SimReport`).  :func:`compare` is the
one replay loop over named configs and keeps only each replay's
statistics, so no latency array outlives its replay.
:func:`baseline_configs` names the two reference points a design is
replayed against: the one shared bus (:func:`shared_bus_config`) and the
full crossbar (:func:`full_crossbar_config`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .solver import CrossbarConfig, canonical_binding
from .trace import Trace, exact_sum, grouped_blocks, row_blocks


class SimulationError(ValueError):
    """Config does not cover the trace (missing target binding)."""


@dataclass(eq=False)
class ReplayStats:
    """What the design flow reads of one replay: its config and three statistics."""

    config: CrossbarConfig
    avg_latency: float
    max_latency: int
    avg_queuing: float  # mean of latency minus duration


@dataclass(eq=False)
class SimReport(ReplayStats):
    """One replay's statistics plus its per-transaction latencies."""

    latency: np.ndarray  # int64 per transaction in trace order, read-only

    @property
    def stats(self) -> ReplayStats:
        """The statistics alone, which keep no reference to ``latency``."""
        return ReplayStats(self.config, self.avg_latency, self.max_latency, self.avg_queuing)

    @property
    def per_transaction_latency(self) -> list[int]:
        """``latency`` as a list of ints, built on each access."""
        return self.latency.tolist()


def _complete(start: np.ndarray, duration: np.ndarray, done: int, out: np.ndarray) -> int:
    """Write to ``out`` the completion cycles of grant-ordered rows of one
    bus, the row before them completing at ``done`` (0 before the first:
    no start is negative); return the last."""
    np.cumsum(duration, out=out)  # D
    wait = start - out
    wait += duration  # s - (D - d)
    wait[0] = max(int(wait[0]), done)  # the running maximum carries it on
    np.maximum.accumulate(wait, out=wait)
    out += wait
    return int(out[-1])


def simulate(trace: Trace, config: CrossbarConfig) -> SimReport:
    """Replay ``trace`` on ``config`` and measure per-transaction latency.

    Each bus is a FIFO single server fed in grant order that holds the bus
    for a transaction's duration, so completions follow Lindley's
    recursion c[k] = max(s[k], c[k-1]) + d[k].  Unrolled with
    D = cumsum(d), that is the max-plus scan c = D + cummax(s - (D - d)),
    computed exactly in int64: a trace's last start plus its total
    duration, which bounds every completion, is below 2**63.  The rows come
    grouped by bus, so in grant order, a block at a time
    (:func:`~xbarsynth.trace.grouped_blocks`, which maps each target to
    its bus); each block's columns are gathered once, and each bus's run
    of rows in it is scanned from the completion c_prev before it, carried
    across blocks: c = D + max(c_prev, cummax(s - (D - d))), with D summed
    within the run.  When every target sits on one bus, trace order is
    grant order and the rows are read where they are, a block at a time
    (:func:`~xbarsynth.trace.row_blocks`).  Beyond the latencies, the
    scratch is one window's row order and a few blocks.
    """
    if config.num_targets < trace.num_targets:
        missing = config.num_targets + 1
        raise SimulationError(
            f"binding missing a referenced target: t_{missing} has no bus"
        )
    start, duration = trace.start, trace.duration
    n = len(start)
    bus_of, groups = None, 1
    if n and len(set(config.binding[:trace.num_targets])) > 1:
        labels = canonical_binding(config.binding)  # 1..K: no label sizes an array
        groups = max(labels) + 1
        bus_of = np.array((0, *labels), dtype=np.min_scalar_type(groups - 1))  # ids are 1-based
    latency = np.empty_like(start)
    done = [0] * groups  # each bus's last completion; no start is negative
    if bus_of is None:  # one bus: its rows are every row, in place
        blocks = ((rows, [(0, slice(None))]) for rows in row_blocks(n))
    else:
        blocks = grouped_blocks(trace.target, groups, relabel=bus_of)
    for index, runs in blocks:
        s, d = start[index], duration[index]
        c = np.empty_like(s)
        for bus, run in runs:
            done[bus] = _complete(s[run], d[run], done[bus], c[run])
        c -= s
        latency[index] = c
    latency.flags.writeable = False

    total = exact_sum(latency)  # an int64 sum could wrap where no latency does
    return SimReport(
        config=config,
        latency=latency,
        avg_latency=total / n if n else 0.0,
        max_latency=int(latency.max()) if n else 0,
        avg_queuing=(total - int(duration.sum())) / n if n else 0.0,
    )


def compare(trace: Trace, configs: list[tuple[str, CrossbarConfig]],
            replays: dict[CrossbarConfig, ReplayStats] | None = None
            ) -> dict[str, ReplayStats]:
    """Each named config's replay statistics, in ``configs`` order; equal
    configs share one simulation.

    Each report's latency array is dropped as soon as :func:`simulate`
    returns it, so the memory beyond the trace is one replay's at a time.
    ``replays``, when given, holds earlier statistics of this same trace
    by config: a config found there is not simulated again, and each new
    replay's statistics are added to it.

    A config's size relative to the one-bus shared baseline is its bus
    count (bus-count granularity only: arbiters and adapters of a real
    interconnect are not modeled).
    """
    stats = {} if replays is None else replays
    for _, config in configs:
        if config not in stats:
            stats[config] = simulate(trace, config).stats
    return {name: stats[config] for name, config in configs}


def shared_bus_config(num_targets: int) -> CrossbarConfig:
    """The one-bus degenerate case: every target on bus 1."""
    return CrossbarConfig(1, tuple([1] * num_targets))


def full_crossbar_config(num_targets: int) -> CrossbarConfig:
    """One private bus per target."""
    return CrossbarConfig(num_targets, tuple(range(1, num_targets + 1)))


def baseline_configs(num_targets: int) -> list[tuple[str, CrossbarConfig]]:
    """The two reference points: one shared bus, and one bus per target."""
    return [
        ("shared", shared_bus_config(num_targets)),
        ("full", full_crossbar_config(num_targets)),
    ]
