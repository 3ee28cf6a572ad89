"""Command-line design flow.

Wires the stages together: load or synthesize a trace, window-profile it,
aggregate overlaps, derive the conflict matrix, search the smallest
feasible bus count, bind targets to buses, and validate the result with
the contention simulator against shared-bus and full-crossbar baselines.
Experiment sweeps (window size, overlap threshold, random-vs-optimal
binding) reuse the same pipeline per point.

All artifacts are plain CSV or JSON plus a key = value manifest; for a
fixed RunConfig (seed included) every artifact is byte-reproducible.
Each subcommand takes only the options it acts on (:data:`_COMMANDS`);
:func:`main` parses with one parser, built on its first call and reused,
and builds its :class:`RunConfig` once, for the subcommand's handler.

Exit codes: 0 success, 1 usage or input error, 2 infeasible instance, 3
solver limit hit (the cut's incumbent, the best binding known, if any, is
still written; see :class:`~xbarsynth.solver.SolverLimitReached`).  Bad
input fails every subcommand, the sweeps included, one way: a parse
error, a value out of range, or a missing or malformed trace or config
file prints one ``error:`` line, naming the file if there is one, exits 1
and writes nothing.  One solver budget bounds the whole solve of a
``design`` run or of one sweep point, so a sweep of P points may take P
times a ``--time-limit``.  The subcommand handlers return nothing: a
failure travels as its exception from the solver to :func:`main`, which
maps every outcome, success included, to its exit code; ``design`` keeps
the exception it caught in :attr:`DesignOutcome.error` so that its
artifacts are written first.
"""

from __future__ import annotations

import argparse
import csv
import functools
import itertools
import json
import sys
from collections.abc import Iterator
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .analysis import AnalysisParams, WindowProfile, aggregate_overlap, preprocess, profile
from .gen import GenSpec, PRESET_NAMES, benchmark_preset, generate, load_spec
from .lpexport import export_milp
from .sim import SimReport, baseline_configs, compare, simulate
from .solver import (
    CrossbarConfig,
    InfeasibleError,
    ProblemInstance,
    SearchBudget,
    SolveReport,
    SolverLimitReached,
    SolverLimits,
    binding_fits,
    build_instance,
    check_bus_count,
    check_target_count,
    min_config,
    optimal_binding,
    validate_binding,
)
from .trace import REQUEST, Trace, load_trace, row_blocks, save_trace

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_LIMIT = 3

# compare-bindings gives up after this many rejected samples per accepted
# one; hitting it means the feasible set is a sliver of the sample space.
MAX_REJECTIONS_PER_SAMPLE = 1000
_DRAW_BLOCK = 64  # random bindings drawn per rng.integers call


@dataclass
class RunConfig:
    """Everything a pipeline run depends on."""

    source: Path | GenSpec  # a trace file, or the spec of a generated trace
    params: AnalysisParams
    direction: str = REQUEST
    limits: SolverLimits = SolverLimits()
    out_dir: Path = Path(".")
    seed: int = 0
    buses_override: int | None = None
    source_label: str = ""

    def resolve_trace(self, solve: bool = False) -> Trace:
        """The run's trace; ``solve`` refuses more targets than the solver takes."""
        if isinstance(self.source, GenSpec):
            trace = generate(self.source)
        else:
            trace = load_trace(self.source, direction=self.direction)
        if solve:
            check_target_count(trace.num_targets)
        return trace


@dataclass
class DesignOutcome:
    error: InfeasibleError | SolverLimitReached | None  # None: solved
    trace: Trace
    instance: ProblemInstance
    report: SolveReport | None
    replays: dict[str, SimReport]  # shared, designed, full; empty without a report


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


def _write_latency_csv(path: Path, replays: dict[str, SimReport]) -> None:
    """One ``config,txn,latency`` row per transaction of each named replay.

    Config names and integers need no CSV quoting, so the rows are
    formatted directly: the bytes ``csv.writer`` would write, several
    times faster on large traces.  Each replay is written a block of rows
    at a time (:func:`~xbarsynth.trace.row_blocks`), so the text held at
    once is a block's.
    """
    with open(path, "w", newline="") as fh:
        fh.write("config,txn,latency\n")
        for name, r in replays.items():
            for rows in row_blocks(len(r.latency)):
                fh.write("".join([f"{name},{i},{lat}\n" for i, lat in
                                  zip(range(rows.start, rows.stop), r.latency[rows].tolist())]))


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.6f}"
    return str(x)


def _write_matrix_csv(path: Path, mat: np.ndarray, col_prefix: str) -> None:
    t = mat.shape[0]
    header = ["target"] + [f"{col_prefix}{j + 1}" for j in range(mat.shape[1])]
    rows = [[f"t_{i + 1}"] + [int(v) for v in mat[i]] for i in range(t)]
    _write_csv(path, header, rows)


def _write_manifest(path: Path, items: list[tuple[str, object]]) -> None:
    with open(path, "w", newline="") as fh:
        for k, v in items:
            fh.write(f"{k} = {_fmt(v)}\n")


def _manifest_params(run: RunConfig) -> list[tuple[str, object]]:
    time_limit = run.limits.time_limit_s
    return [
        ("trace", run.source_label),
        ("direction", run.direction),
        ("window_size", run.params.window_size),
        ("overlap_threshold", run.params.overlap_threshold),
        ("max_targets_per_bus", run.params.max_targets_per_bus or "auto"),
        ("time_limit_s", "none" if time_limit is None else time_limit),
        ("seed", run.seed),
    ]


def _analysis(run: RunConfig, prof: WindowProfile | None = None, solve: bool = True
              ) -> tuple[WindowProfile, np.ndarray, np.ndarray]:
    """Profile, overlap matrix and conflict matrix of a run.

    A sweep passes the ``prof`` it already holds; otherwise the run's
    trace is loaded or generated and profiled.  The profile keeps its
    trace (``prof.trace``).
    """
    if prof is None:
        prof = profile(run.resolve_trace(solve), run.params.window_size)
    return prof, aggregate_overlap(prof), preprocess(prof, run.params)


def analyze(run: RunConfig) -> dict[str, Path]:
    """Write comm, overlap, and conflict matrices for inspection."""
    prof, om, conflict = _analysis(run, solve=False)
    out = run.out_dir
    out.mkdir(parents=True, exist_ok=True)
    artifacts = {
        "comm": out / "comm.csv",
        "overlap": out / "overlap.csv",
        "conflict": out / "conflict.csv",
    }
    _write_matrix_csv(artifacts["comm"], prof.comm, "w")
    _write_matrix_csv(artifacts["overlap"], om, "t_")
    _write_matrix_csv(artifacts["conflict"], conflict.astype(int), "t_")
    manifest = out / "manifest.txt"
    _write_manifest(
        manifest,
        [("tool", "xbarsynth analyze")]
        + _manifest_params(run)
        + [("artifact_" + k, v.name) for k, v in artifacts.items()],
    )
    artifacts["manifest"] = manifest
    return artifacts


def design(run: RunConfig, prof: WindowProfile | None = None,
           replayed: dict[CrossbarConfig, SimReport] | None = None) -> DesignOutcome:
    """Full pipeline; always writes whatever artifacts exist at failure.

    ``prof``, when given, is the profile of the run's trace at its window
    size, and ``replayed`` the reports of that trace by config that
    :func:`~xbarsynth.sim.compare` reads and adds to; sweeps pass them to
    skip reloading, reprofiling and replaying.
    """
    prof, om, conflict = _analysis(run, prof)
    trace = prof.trace
    inst = build_instance(prof, om, conflict, run.params)
    buses = run.buses_override
    if buses is not None:  # a usage error, raised before any artifact
        check_bus_count(buses, inst.num_targets)

    out = run.out_dir
    out.mkdir(parents=True, exist_ok=True)
    artifacts = {"conflict": out / "conflict.csv"}
    _write_matrix_csv(artifacts["conflict"], conflict.astype(int), "t_")

    error: InfeasibleError | SolverLimitReached | None = None
    report: SolveReport | None = None
    replays: dict[str, SimReport] = {}
    budget = SearchBudget(run.limits)  # one budget bounds and records the whole solve
    try:
        if buses is None:
            buses, _ = min_config(inst, budget)
        report = optimal_binding(inst, buses, budget)
    except InfeasibleError as exc:
        # kept without its traceback, which would tie this frame, the
        # profile included, into a reference cycle
        error = exc.with_traceback(None)
    except SolverLimitReached as exc:
        error, report = exc.with_traceback(None), exc.incumbent
    inst.release_packed()  # nothing below searches: free it before the simulations

    if report is not None:
        violations = validate_binding(inst, report.config)
        if violations:
            raise RuntimeError(
                "designed binding failed re-validation: " + "; ".join(violations)
            )
        artifacts["report"] = out / "solve_report.json"
        with open(artifacts["report"], "w", newline="") as fh:
            json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        shared, full = baseline_configs(trace.num_targets)
        replays = compare(trace, [shared, ("designed", report.config), full], replayed)
        artifacts["comparison"] = out / "comparison.csv"
        # size_ratio: bus count over the shared baseline's one bus
        _write_csv(
            artifacts["comparison"],
            ["name", "num_buses", "avg_latency", "max_latency", "size_ratio"],
            [
                [name, r.config.num_buses, _fmt(r.avg_latency), r.max_latency,
                 _fmt(float(r.config.num_buses))]
                for name, r in replays.items()
            ],
        )

    manifest_items = [("tool", "xbarsynth design")] + _manifest_params(run)
    status = "infeasible" if isinstance(error, InfeasibleError) else "limit" if error else "ok"
    manifest_items += [("status", status), ("message", str(error or "ok"))]
    if report is not None:
        manifest_items += [
            ("num_buses", report.config.num_buses),
            ("maxov", report.maxov),
            ("binding", ",".join(str(b) for b in report.config.binding)),
            ("optimal", report.optimal),
        ]
    manifest_items += [("artifact_" + k, p.name) for k, p in sorted(artifacts.items())]
    _write_manifest(out / "manifest.txt", manifest_items)
    return DesignOutcome(error, trace, inst, report, replays)


def _sweep(run: RunConfig, points: list[tuple[object, AnalysisParams]], subdir: str,
           name: str, header: list[str], cells) -> Path:
    """One design() per ``(label, params)`` of ``points``, in ``<subdir>_<label>``.

    The trace is loaded once and profiled once per window size, and each
    config is replayed once: the shared and full baselines at the first
    point that needs them, and a designed config at its first point.  A
    point's row is its label and ``cells(outcome)``: an infeasible or cut
    point writes its status there.  Any error ``design`` raises, and a
    trace that fails to load, ends the sweep as it ends a design run.  No
    point's outcome outlives its row; only its replays stay, for the
    points after it.  The sweep's own out dir is made only to write the
    CSV.  Two points with one label would share a point dir, so a repeated
    label is a ``ValueError`` before anything is loaded or written.
    """
    seen = set()
    for label, _ in points:
        if label in seen:
            raise ValueError(f"sweep point {label} is listed twice")
        seen.add(label)
    trace = run.resolve_trace(solve=True)
    rows, prof, replayed = [], None, {}
    for label, params in points:
        if prof is None or prof.window_size != params.window_size:
            prof = None  # free the last window size's profile before the next
            prof = profile(trace, params.window_size)
        point = replace(run, params=params, out_dir=run.out_dir / f"{subdir}_{label}")
        rows.append([label] + cells(design(point, prof, replayed)))
    run.out_dir.mkdir(parents=True, exist_ok=True)
    path = run.out_dir / name
    _write_csv(path, header, rows)
    return path


def _window_cells(outcome: DesignOutcome) -> list:
    status = str(outcome.error or "ok")
    if outcome.report is None:
        return ["", "", "", status]
    designed = outcome.replays["designed"]
    return [outcome.report.config.num_buses, _fmt(designed.avg_latency),
            designed.max_latency, status]


def _threshold_cells(outcome: DesignOutcome) -> list:
    bus_count = outcome.report.config.num_buses if outcome.report else ""
    pairs = int(np.triu(outcome.instance.conflict, k=1).sum())
    return [bus_count, pairs, str(outcome.error or "ok")]


def sweep_window(run: RunConfig, ws_list: list[int]) -> Path:
    """One design() per window size on one trace; a cut or infeasible
    point's status is in its row."""
    if not ws_list:
        raise ValueError("ws_list must be nonempty")
    points = [(ws, replace(run.params, window_size=ws)) for ws in ws_list]
    return _sweep(run, points, "ws", "sweep_window.csv",
                  ["window_size", "bus_count", "avg_latency", "max_latency", "status"],
                  _window_cells)


def sweep_threshold(run: RunConfig, theta_list: list[float]) -> Path:
    """One design() per overlap threshold, all from one profile.

    The conflict matrix of any threshold is one comparison on the
    profile's per-pair peak overlap, so the trace is profiled once.
    """
    if not theta_list:
        raise ValueError("theta_list must be nonempty")
    points = [(_fmt(float(theta)), replace(run.params, overlap_threshold=float(theta)))
              for theta in theta_list]
    return _sweep(run, points, "theta", "sweep_threshold.csv",
                  ["overlap_threshold", "bus_count", "conflict_pairs", "status"],
                  _threshold_cells)


def binding_draws(rng: np.random.Generator, num_targets: int,
                  num_buses: int) -> Iterator[tuple[int, ...]]:
    """Endless uniform random bindings of ``num_targets`` targets onto
    ``num_buses`` buses, ``_DRAW_BLOCK`` from each ``rng.integers`` call.

    With a PCG64 ``rng`` they are, in order, the bindings of one
    ``rng.integers(1, num_buses + 1, num_targets)`` call each: every bus
    label takes whole 32-bit words, and PCG64 keeps the spare half of its
    last 64-bit output from one call to the next.
    """
    while True:
        yield from map(tuple, rng.integers(1, num_buses + 1,
                                           (_DRAW_BLOCK, num_targets)).tolist())


def random_feasible_binding(
    inst: ProblemInstance, num_buses: int, draws: Iterator[tuple[int, ...]]
) -> CrossbarConfig | None:
    """Uniform rejection sampling over all bindings into num_buses buses.

    Takes at most ``MAX_REJECTIONS_PER_SAMPLE`` bindings from ``draws``
    (:func:`binding_draws` onto ``num_buses``), leaving the rest for the
    next sample.  Each is tested by :func:`~xbarsynth.solver.binding_fits`;
    only the accepted one becomes a :class:`CrossbarConfig`.
    """
    for binding in itertools.islice(draws, MAX_REJECTIONS_PER_SAMPLE):
        if binding_fits(inst, binding):
            return CrossbarConfig(num_buses, binding)
    return None


@dataclass
class BindingComparison:
    optimal_avg: float
    random_avgs: list[float]
    mean_ratio: float
    csv_path: Path


def compare_bindings(run: RunConfig, num_random: int) -> BindingComparison:
    """Simulate the optimal binding against uniformly random feasible ones."""
    if num_random < 1:
        raise ValueError("num_random must be >= 1")
    outcome = design(run)
    if outcome.error is not None:
        raise outcome.error
    inst, trace = outcome.instance, outcome.trace
    best = outcome.report.config
    opt_avg = outcome.replays["designed"].avg_latency
    draws = binding_draws(np.random.Generator(np.random.PCG64(run.seed)), inst.num_targets,
                          best.num_buses)
    random_avgs = []
    for k in range(num_random):
        config = random_feasible_binding(inst, best.num_buses, draws)
        if config is None:  # the draw budget ran out, not a proof
            raise SolverLimitReached(
                f"no feasible random binding found in {MAX_REJECTIONS_PER_SAMPLE} "
                f"draws (sample {k + 1}/{num_random}); instance is very tight"
            )
        random_avgs.append(simulate(trace, config).avg_latency)
    # only an empty trace averages 0, and there every binding ties the optimum
    ratios = [avg / opt_avg if opt_avg > 0 else 1.0 for avg in random_avgs]
    mean_ratio = float(np.mean(ratios))
    rows = [["optimal", _fmt(opt_avg), _fmt(1.0)]]
    rows += [[f"random_{k + 1}", _fmt(avg), _fmt(ratio)]
             for k, (avg, ratio) in enumerate(zip(random_avgs, ratios))]
    rows.append(["random_mean", _fmt(float(np.mean(random_avgs))), _fmt(mean_ratio)])
    out = run.out_dir
    out.mkdir(parents=True, exist_ok=True)
    path = out / "binding_compare.csv"
    _write_csv(path, ["scheme", "avg_latency", "ratio_vs_optimal"], rows)
    return BindingComparison(opt_avg, random_avgs, mean_ratio, path)


def _parse_binding(text: str, num_targets: int) -> tuple[int, ...]:
    try:
        binding = tuple(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise ValueError(f"bad --binding {text!r}: expected comma-separated bus ids") from exc
    if len(binding) != num_targets:
        raise ValueError(
            f"--binding lists {len(binding)} targets, trace has {num_targets}"
        )
    return binding


def _list_of(kind: type):
    """An argparse ``type``: the comma-separated ``kind`` values of a list
    option, blank entries skipped; a bad entry is a parse error."""
    def parse(text: str) -> list:
        return [kind(tok) for tok in text.split(",") if tok.strip()]
    parse.__name__ = kind.__name__  # argparse names it: "invalid int value"
    return parse


# Every option's --help section (None: the subcommand's own list) and spec,
# written once; a subcommand takes the options _COMMANDS names, and no others.
_OPTIONS: dict[str, tuple[str | None, dict]] = {
    "--trace": ("input", dict(type=Path, help="trace CSV path")),
    "--preset": ("input", dict(choices=PRESET_NAMES, help="synthetic benchmark preset")),
    "--config": ("input", dict(type=Path, help="GenSpec key=value file")),
    "--direction": ("input", dict(choices=("req", "resp"), default="req", help=(
        "which flow of a --trace file to design for (default req)"))),
    "--seed": ("input", dict(type=int, default=None, help="override generator seed")),
    "--out-dir": (None, dict(type=Path, default=Path("xbarsynth_out"))),
    "--out": (None, dict(type=Path, help="trace output path")),
    "--window-size": ("analysis", dict(type=int, default=1000)),
    "--overlap-threshold": ("analysis", dict(type=float, default=0.3)),
    "--max-targets-per-bus": ("analysis", dict(type=int, default=None)),
    "--time-limit": ("analysis", dict(
        type=float, default=None, help=(
            "seconds for the whole solve (all probes and phases) of a design or of each "
            "sweep point: a sweep of P points may take P times the limit"))),
    "--buses": ("analysis", dict(type=int, default=None, help="fix the bus count")),
    "--binding": (None, dict(help="comma-separated bus id per target")),
    "--ws-list": (None, dict(type=_list_of(int),
                             help="comma-separated integer window sizes (cycles)")),
    "--theta-list": (None, dict(type=_list_of(float), default=[0.1, 0.2, 0.3, 0.4, 0.5],
                                help="comma-separated thresholds in (0, 0.5]")),
    "--num-random": (None, dict(type=int, default=10)),
}
_SOURCES = ("--trace", "--preset", "--config")  # exactly one per run
_INPUT = _SOURCES + ("--direction", "--seed", "--out-dir")
_SOLVE = ("--window-size", "--overlap-threshold", "--max-targets-per-bus",
          "--time-limit", "--buses")


# Each option's value when its subcommand does not take it, by argparse dest.
_DEFAULTS = {opt[2:].replace("-", "_"): spec.get("default")
             for opt, (_, spec) in _OPTIONS.items()}


def _run_from_args(args) -> RunConfig:
    """The run an ``args`` namespace asks for; the options its subcommand
    does not take read their ``_OPTIONS`` defaults."""
    opts = _DEFAULTS | vars(args)
    sources = [opt for opt in _COMMANDS[args.command][2] if opt in _SOURCES]
    picked = [opt for opt in sources if opts[opt[2:]] is not None]
    if len(picked) != 1:
        raise ValueError(f"exactly one of {', '.join(sources)} is required")
    seed, direction = opts["seed"], opts["direction"]
    if seed is not None and seed < 0:
        raise ValueError(f"--seed must be non-negative, got {seed}")
    if opts["trace"] is None and direction != REQUEST:
        raise ValueError(f"--direction {direction} needs --trace: "
                         "generated traces hold request flows only")
    if opts["preset"]:
        source = benchmark_preset(opts["preset"])
        label = f"preset:{opts['preset']}"
    elif opts["config"]:
        source = load_spec(opts["config"])
        label = f"config:{opts['config']}"
    else:
        source = opts["trace"]
        label = str(source)
    if isinstance(source, GenSpec):
        source = source if seed is None else replace(source, seed=seed)
        seed = source.seed
    params = AnalysisParams(
        window_size=opts["window_size"],
        overlap_threshold=opts["overlap_threshold"],
        max_targets_per_bus=opts["max_targets_per_bus"],
    )
    limits = SolverLimits(time_limit_s=opts["time_limit"])
    return RunConfig(
        source=source,
        params=params,
        direction=direction,
        limits=limits,
        out_dir=opts["out_dir"],
        seed=0 if seed is None else seed,
        buses_override=opts["buses"],
        source_label=label,
    )


def _cmd_gen(run: RunConfig, args) -> None:
    trace = run.resolve_trace()
    out = args.out
    if out is None:  # --out-dir is made only to hold the trace
        run.out_dir.mkdir(parents=True, exist_ok=True)
        out = run.out_dir / "trace.csv"
    save_trace(trace, out)
    print(f"wrote {len(trace.start)} transactions to {out}")


def _cmd_analyze(run: RunConfig, args) -> None:
    artifacts = analyze(run)
    for name, path in sorted(artifacts.items()):
        print(f"{name}: {path}")


def _cmd_design(run: RunConfig, args) -> None:
    outcome = design(run)
    if outcome.report is not None:
        cfg = outcome.report.config
        print(
            f"buses: {cfg.num_buses}  maxov: {outcome.report.maxov}  "
            f"binding: {','.join(str(b) for b in cfg.binding)}"
        )
        for name, r in outcome.replays.items():
            buses = r.config.num_buses
            print(
                f"  {name:>8}: buses={buses} avg={r.avg_latency:.2f} "
                f"max={r.max_latency} size_ratio={buses:.1f}"
            )
    if outcome.error is not None:
        raise outcome.error


def _cmd_simulate(run: RunConfig, args) -> None:
    trace = run.resolve_trace()
    configs = baseline_configs(trace.num_targets)
    if args.binding:
        binding = _parse_binding(args.binding, trace.num_targets)
        configs.append(("bound", CrossbarConfig(max(binding), binding)))
    replays = compare(trace, configs)
    for name, rep in replays.items():
        print(
            f"{name:>8}: buses={rep.config.num_buses} avg={rep.avg_latency:.2f} "
            f"max={rep.max_latency} queuing={rep.avg_queuing:.2f}"
        )
    run.out_dir.mkdir(parents=True, exist_ok=True)
    _write_latency_csv(run.out_dir / "latency.csv", replays)


def _cmd_sweep_window(run: RunConfig, args) -> None:
    ws_list = args.ws_list
    if ws_list is None:
        # below 4, sizes floored at 1 cycle repeat; from 2**60, 8 ws reaches
        # 2**63, past the largest window size
        base = run.params.window_size
        sizes = (base // 4, base // 2, base, 2 * base, 4 * base, 8 * base)
        ws_list = list(dict.fromkeys(max(1, size) for size in sizes if size < 1 << 63))
    path = sweep_window(run, ws_list)
    print(f"wrote {path}")


def _cmd_sweep_threshold(run: RunConfig, args) -> None:
    path = sweep_threshold(run, args.theta_list)
    print(f"wrote {path}")


def _cmd_compare_bindings(run: RunConfig, args) -> None:
    result = compare_bindings(run, args.num_random)
    print(
        f"optimal avg {result.optimal_avg:.2f}; mean random/optimal ratio "
        f"{result.mean_ratio:.3f} over {len(result.random_avgs)} samples"
    )
    print(f"wrote {result.csv_path}")


def _cmd_export_lp(run: RunConfig, args) -> None:
    prof, om, conflict = _analysis(run)
    inst = build_instance(prof, om, conflict, run.params)
    buses = run.buses_override
    if buses is None:
        buses, _ = min_config(inst, SearchBudget(run.limits))
    text = export_milp(inst, buses)
    run.out_dir.mkdir(parents=True, exist_ok=True)
    path = run.out_dir / "model.lp"
    path.write_text(text)
    print(f"wrote {path} ({buses} buses)")


# subcommand: (help, handler, the options it takes)
_COMMANDS = {
    "gen": ("write a synthetic trace CSV", _cmd_gen,
            ("--preset", "--config", "--seed", "--out-dir", "--out")),
    "analyze": ("write comm/overlap/conflict matrices", _cmd_analyze,
                _INPUT + ("--window-size", "--overlap-threshold")),
    "design": ("run the full synthesis pipeline", _cmd_design, _INPUT + _SOLVE),
    "simulate": ("replay a trace on baseline or given bindings", _cmd_simulate,
                 _INPUT + ("--binding",)),
    "sweep-window": ("design at several window sizes", _cmd_sweep_window,
                     _INPUT + _SOLVE + ("--ws-list",)),
    "sweep-threshold": ("design at several overlap thresholds", _cmd_sweep_threshold,
                        _INPUT + ("--window-size", "--max-targets-per-bus", "--time-limit",
                                  "--buses", "--theta-list")),
    "compare-bindings": ("optimal vs random feasible bindings", _cmd_compare_bindings,
                         _INPUT + _SOLVE + ("--num-random",)),
    "export-lp": ("write the MILP in LP text format", _cmd_export_lp, _INPUT + _SOLVE),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand and its options, built once per process.

    ``parse_args`` leaves the parser as it was, so every :func:`main` call
    reuses it; help is formatted to ``COLUMNS`` as it is when printed.
    """
    p = argparse.ArgumentParser(
        prog="xbarsynth",
        description="partial crossbar synthesis from communication traces",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name, (help_text, func, options) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.set_defaults(func=func)
        sections = {None: cmd, "input": cmd.add_argument_group("input"),
                    "analysis": cmd.add_argument_group("analysis")}  # empty ones stay hidden
        for opt in options:
            section, spec = _OPTIONS[opt]
            sections[section].add_argument(opt, **spec)
    return p


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)  # None: sys.argv[1:]
    except SystemExit as exc:
        if exc.code:  # argparse's usage errors exit 2, which means infeasible here
            return EXIT_USAGE
        raise  # --help
    try:
        args.func(_run_from_args(args), args)
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except SolverLimitReached as exc:
        print(f"solver limit: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except (ValueError, OSError) as exc:
        # bad input: a usage error, a missing or malformed trace or config
        # file (TraceError and GenError are ValueErrors), or an unwritable output
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
