"""Outside-in layer tracing for the xbarsynth benchmark.

The traced run swaps module attributes of the package for pass-through
timing wrappers, each installed in the namespace where its caller looks
the name up, so ``src/`` stays untouched.  Spans (name, start, end,
parent, operation id) are kept in memory and written out at the end;
:func:`layer_metrics` turns the spans of one pass into the per-layer
metrics named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field

LAYERS = ("trace", "gen", "analysis", "solver", "sim", "cli")


@dataclass
class Span:
    name: str
    op: int
    parent: int | None
    start: float
    end: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


def _wrap_points(cli, solver, sim):
    """(module, attribute, span name, result -> span info) per traced call."""
    return [
        (cli, "load_trace", "trace.load_trace", lambda r: {"tx": len(r.transactions)}),
        (cli, "generate", "gen.generate", None),
        (cli, "profile", "analysis.profile", lambda r: {
            "windows": int(r.num_windows),
            "bytes": int(r.comm.nbytes + r.wo.nbytes + r.crit_wo.nbytes),
        }),
        (cli, "aggregate_overlap", "analysis.aggregate_overlap", None),
        (cli, "preprocess", "analysis.preprocess", None),
        (cli, "min_config", "solver.min_config", lambda r: {"probes": len(r[1])}),
        (solver, "check_feasible", "solver.check_feasible", lambda r: {"feasible": bool(r[0])}),
        (cli, "optimal_binding", "solver.optimal_binding",
         lambda r: {"nodes": int(r.nodes_explored)}),
        (cli, "validate_binding", "solver.validate_binding", None),
        (cli, "simulate", "sim.simulate", lambda r: {"tx": len(r.per_transaction_latency)}),
        (sim, "simulate", "sim.simulate", lambda r: {"tx": len(r.per_transaction_latency)}),
        (cli, "design", "cli.design", None),
        (cli, "random_feasible_binding", "cli.random_feasible_binding",
         lambda r: {"accepted": r is not None}),
    ]


class Tracer:
    """Collects spans; :meth:`install` swaps the wrappers in, :meth:`uninstall` out."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def call(self, name: str, fn, *args, on_result=None, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        parent = self._stack[-1] if self._stack else None
        span = Span(name, self.op, parent, time.perf_counter())
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            result = fn(*args, **kwargs)
            if on_result is not None:
                span.info = on_result(result)
            return result
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def install(self) -> None:
        from xbarsynth import cli, sim, solver

        for module, attr, name, on_result in _wrap_points(cli, solver, sim):
            original = getattr(module, attr)

            def wrapper(*args, _fn=original, _name=name, _on=on_result, **kwargs):
                return self.call(_name, _fn, *args, on_result=_on, **kwargs)

            self._saved.append((module, attr, original))
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def dump(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def layer_metrics(spans: list[Span], own: range, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one pass, whose spans are ``spans[i] for i in own``.

    Times are seconds, summed over the pass.  A layer's self time is the
    time its spans cover minus the part covered by child spans of another
    layer; the six self times add up to the time inside command spans.
    """
    other_layer_child: dict[int, float] = defaultdict(float)
    for i in own:
        parent = spans[i].parent
        if parent is not None and spans[parent].layer != spans[i].layer:
            other_layer_child[parent] += spans[i].duration

    total: dict[str, float] = defaultdict(float)
    count: dict[str, int] = defaultdict(int)
    info: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    draws = accepted = 0
    for i in own:
        s = spans[i]
        total[s.name] += s.duration
        count[s.name] += 1
        for key, value in s.info.items():
            if key == "bytes":
                info[f"{s.name}.bytes"] = max(info[f"{s.name}.bytes"], value)
            elif key == "feasible":
                info[f"{s.name}.{'feasible' if value else 'infeasible'}_s"] += s.duration
            else:
                info[f"{s.name}.{key}"] += value
        # Same-layer children (check_feasible under min_config) stay in
        # the parent's self time; only other layers are subtracted.
        if s.parent is None or spans[s.parent].layer != s.layer:
            self_s[s.layer] += s.duration
        self_s[s.layer] -= other_layer_child[i]
        if s.name == "solver.validate_binding" and s.parent is not None \
                and spans[s.parent].name == "cli.random_feasible_binding":
            draws += 1
        if s.name == "cli.random_feasible_binding":
            accepted += int(s.info.get("accepted", False))

    nodes = info["solver.optimal_binding.nodes"]
    ob_s = total["solver.optimal_binding"]
    sim_s = total["sim.simulate"]
    covered = sum(self_s[layer] for layer in LAYERS)
    m = {
        "trace.load_trace.s": total["trace.load_trace"],
        "trace.load_trace.tx": info["trace.load_trace.tx"],
        "gen.generate.s": total["gen.generate"],
        "gen.generate.calls": count["gen.generate"],
        "analysis.profile.s": total["analysis.profile"],
        "analysis.profile.calls": count["analysis.profile"],
        "analysis.profile.windows": info["analysis.profile.windows"],
        "analysis.profile.bytes": info["analysis.profile.bytes"],
        "analysis.aggregate_overlap.s": total["analysis.aggregate_overlap"],
        "analysis.preprocess.s": total["analysis.preprocess"],
        "solver.min_config.s": total["solver.min_config"],
        "solver.min_config.probes": info["solver.min_config.probes"],
        "solver.check_feasible.feasible_s": info["solver.check_feasible.feasible_s"],
        "solver.check_feasible.infeasible_s": info["solver.check_feasible.infeasible_s"],
        "solver.optimal_binding.s": ob_s,
        "solver.optimal_binding.nodes": nodes,
        "solver.optimal_binding.nodes_per_s": nodes / ob_s if ob_s > 0 else 0.0,
        "solver.validate_binding.s": total["solver.validate_binding"],
        "sim.simulate.s": sim_s,
        "sim.simulate.calls": count["sim.simulate"],
        "sim.simulate.tx_per_s": info["sim.simulate.tx"] / sim_s if sim_s > 0 else 0.0,
        "cli.random_feasible_binding.accept_ratio": accepted / draws if draws else 0.0,
        "bench.span_coverage": covered / wall_s if wall_s > 0 else 0.0,
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_s[layer]
    return m
