"""Cycle-level bus contention replay of a trace against a crossbar config.

Every transaction requests its target's bus at its start cycle.  A bus
serves one transaction at a time, non-preemptively, granting queued
requests in (arrival cycle, target_id, initiator_id) order; initiators are
connected to every bus and never contend among themselves.  Latency is
completion minus request start, so an uncontended transaction's latency
equals its duration; queuing delay (latency minus duration) is reported
separately as well.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .solver import CrossbarConfig, full_crossbar_config, shared_bus_config
from .trace import Trace, group_rows


class SimulationError(ValueError):
    """Config does not cover the trace (missing target binding)."""


@dataclass(eq=False)
class SimReport:
    """Per-transaction latencies plus aggregate statistics."""

    latency: np.ndarray  # int64 per transaction in trace order, read-only
    avg_latency: float
    max_latency: int
    avg_queuing: float
    per_target_avg: list[float]
    per_bus_utilization: list[float]

    @property
    def per_transaction_latency(self) -> list[int]:
        """``latency`` as a list of ints, built on each access."""
        return self.latency.tolist()


def simulate(trace: Trace, config: CrossbarConfig, grant_overhead: int = 0) -> SimReport:
    """Replay ``trace`` on ``config`` and measure per-transaction latency.

    ``grant_overhead`` adds a fixed bus-occupancy cost to every grant
    (defaults to zero: pure transfer time).

    Each bus is a FIFO single server fed in grant order, so completions
    follow Lindley's recursion c[k] = max(s[k], c[k-1]) + h[k] with hold
    h = duration + grant_overhead.  Unrolled with H = cumsum(h), that is
    the max-plus scan c = H + cummax(s - (H - h)), computed exactly in
    int64 per bus.
    """
    if config.num_targets < trace.num_targets:
        missing = config.num_targets + 1
        raise SimulationError(
            f"binding missing a referenced target: t_{missing} has no bus"
        )
    start = trace.start
    hold = trace.duration + grant_overhead
    bus = np.asarray(config.binding, dtype=np.int64)[trace.target - 1] - 1
    order, bounds = group_rows(bus, config.num_buses)  # grant order within a bus
    completion = np.empty_like(start)
    bus_busy = []
    for k in range(config.num_buses):
        rows = order[bounds[k]:bounds[k + 1]]
        s, h = start[rows], hold[rows]
        done = np.cumsum(h)
        completion[rows] = done + np.maximum.accumulate(s - (done - h))
        bus_busy.append(int(done[-1]) if len(done) else 0)
    latency = completion - start
    latency.flags.writeable = False

    n = len(latency)
    total = int(latency.sum())
    tgt_sum = np.zeros(trace.num_targets, dtype=np.int64)
    np.add.at(tgt_sum, trace.target - 1, latency)
    tgt_cnt = np.bincount(trace.target - 1, minlength=trace.num_targets)
    makespan = max(trace.horizon, int(completion.max()) if n else 0)
    avg_queuing = (total - int(trace.duration.sum()) - n * grant_overhead) / n if n else 0.0
    return SimReport(
        latency=latency,
        avg_latency=total / n if n else 0.0,
        max_latency=int(latency.max()) if n else 0,
        avg_queuing=avg_queuing,
        per_target_avg=[s / c if c else 0.0
                        for s, c in zip(tgt_sum.tolist(), tgt_cnt.tolist())],
        per_bus_utilization=[b / makespan if makespan else 0.0 for b in bus_busy],
    )


@dataclass
class CompareRow:
    """One line of the design-vs-baselines comparison table."""

    name: str
    num_buses: int
    avg_latency: float
    max_latency: int


def compare(trace: Trace, configs: list[tuple[str, CrossbarConfig]]) -> list[CompareRow]:
    """Simulate each named config.  A config's size relative to the one-bus
    shared baseline is its bus count (bus-count granularity only: arbiters
    and adapters of a real interconnect are not modeled)."""
    rows = []
    for name, config in configs:
        report = simulate(trace, config)
        rows.append(
            CompareRow(
                name=name,
                num_buses=config.num_buses,
                avg_latency=report.avg_latency,
                max_latency=report.max_latency,
            )
        )
    return rows


def baseline_configs(num_targets: int) -> list[tuple[str, CrossbarConfig]]:
    """The two reference points: one shared bus, and one bus per target."""
    return [
        ("shared", shared_bus_config(num_targets)),
        ("full", full_crossbar_config(num_targets)),
    ]
