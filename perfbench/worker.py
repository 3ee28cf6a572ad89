"""One workload of the xbarsynth benchmark, in a fresh process.

    python3 perfbench/worker.py prep --workload W --seed S --corpus-seed C
    python3 perfbench/worker.py run --workload W --seed S --corpus-seed C --seconds X --trace 0|1
    python3 perfbench/worker.py record

``prep`` writes the workload's inputs into ``.perfbench_work/W/``.  ``run``
times passes of the workload's CLI command list in-process through
``xbarsynth.cli.main``, checks every artifact, and prints one JSON line
that ``run.py`` turns into the benchmark result.  ``record`` rewrites
``reference.json`` from the current source; use it only at a commit whose
outputs are known to be right.

The corpus (generator seed ``--corpus-seed``, default 2024) is fixed; the
benchmark seed only relabels it.  Traces read from CSV get their initiator
ids permuted; the generator configs get their shared targets moved to
other ids.  Either way the instance is isomorphic to the corpus instance,
so the bus count, the optimal ``maxov``, the conflict-pair count and the
full-crossbar latencies must not move.  Initiators, not targets, are
permuted in the traces because the solver's lexicographic tie-break walks
targets in id order: a target permutation of ``uniform`` moves its search
between 4.0 M and 10.3 M nodes per window sweep, which would make the
measured time a property of the seed.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import hashlib
import io
import json
import random
import resource
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import xbarsynth  # noqa: E402
from xbarsynth import cli  # noqa: E402
from xbarsynth.analysis import AnalysisParams, aggregate_overlap, preprocess, profile  # noqa: E402
from xbarsynth.gen import benchmark_preset, generate, spec_from_text, spec_to_text  # noqa: E402
from xbarsynth.solver import build_instance, lower_bound  # noqa: E402
from xbarsynth.trace import load_trace, save_trace  # noqa: E402

from spans import Tracer, layer_metrics  # noqa: E402

WORK = ROOT / ".perfbench_work"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

WORKLOADS = ("uniform-window-sweep", "uniform-100x-trace", "mat2like-sweeps")
DEFAULT_SEED = 2024
DEFAULT_CORPUS_SEED = 2024
HELD_OUT_CORPUS_SEED = 7
WS_LIST = (250, 500, 1000, 2000, 4000, 8000)
THETA_LIST = (0.1, 0.2, 0.3, 0.4, 0.5)
HORIZON_100X = 12_000_000  # 100x the uniform preset's 120 k-cycle horizon
NUM_RANDOM = 10
MIN_PASSES = 2  # the window sweep takes ~20 s a pass
PROBE_INTERVAL_S = 0.5
PROBE_KEYS = [(i * 7919) % 1_000_003 for i in range(50_000)]
PROBE_VECTOR = np.arange(64)


@dataclass(frozen=True)
class Point:
    """One operation: a single design, or one point of a sweep."""

    key: str
    subdir: str  # below the command's out dir; "" for a single design
    source: str  # input file, relative to the repository root
    window_size: int
    theta: float


@dataclass(frozen=True)
class Command:
    name: str  # also the command's out dir
    argv: tuple[str, ...]
    points: tuple[Point, ...]


# ---------------------------------------------------------------- inputs


def _rel(path: Path) -> str:
    return str(path.relative_to(ROOT))


def write_relabelled_trace(spec, seed: int, path: Path) -> None:
    """Generate ``spec`` and write it with initiator ids permuted by ``seed``.

    Works on the documented CSV columns
    (start, duration, initiator, target, direction, critical), so it does
    not depend on how the package stores a trace in memory.
    """
    save_trace(generate(spec), path)
    perm = list(range(1, spec.num_initiators + 1))  # new id = perm[old id - 1]
    random.Random(seed).shuffle(perm)
    lines = path.read_text(encoding="utf-8").splitlines()
    out = [lines[0]]
    for line in lines[1:]:
        f = line.split(",")
        f[2] = str(perm[int(f[2]) - 1])
        out.append(",".join(f))
    path.write_text("\n".join(out) + "\n", encoding="utf-8")


def relabelled_spec(spec, seed: int):
    """Move the shared targets to seeded ids and keep everything else.

    Private targets go to initiators in id order, so mapping the old
    private ids onto the new ones in order (and the critical streams with
    them) generates the same trace up to target relabelling.
    """
    n = spec.num_targets
    shared = tuple(random.Random(seed).sample(range(1, n + 1), len(spec.shared_target_ids)))
    old_private = [t for t in range(1, n + 1) if t not in spec.shared_target_ids]
    new_private = [t for t in range(1, n + 1) if t not in shared]
    new_id = dict(zip(old_private, new_private)) | dict(zip(spec.shared_target_ids, shared))
    crit = tuple((i, new_id[t]) for i, t in spec.critical_stream_pairs)
    return replace(spec, shared_target_ids=shared, critical_stream_pairs=crit)


def prep(workload: str, seed: int, corpus_seed: int) -> None:
    work = WORK / workload
    work.mkdir(parents=True, exist_ok=True)
    uniform = replace(benchmark_preset("uniform"), seed=corpus_seed)
    if workload == "uniform-window-sweep":
        write_relabelled_trace(uniform, seed, work / "uniform.csv")
    elif workload == "uniform-100x-trace":
        spec = replace(uniform, horizon=HORIZON_100X)
        write_relabelled_trace(spec, seed, work / "uniform100x.csv")
    else:
        for name in ("mat2like", "hotspot"):
            spec = relabelled_spec(replace(benchmark_preset(name), seed=corpus_seed), seed)
            (work / f"{name}.cfg").write_text(spec_to_text(spec), encoding="utf-8")


def commands(workload: str) -> list[Command]:
    work = WORK / workload
    if workload == "uniform-window-sweep":
        src = _rel(work / "uniform.csv")
        points = tuple(Point(f"ws={ws}", f"ws_{ws}", src, ws, 0.1) for ws in WS_LIST)
        argv = ("sweep-window", "--trace", src, "--overlap-threshold", "0.1",
                "--ws-list", ",".join(map(str, WS_LIST)))
        return [Command("sweep-window", argv, points)]
    if workload == "uniform-100x-trace":
        src = _rel(work / "uniform100x.csv")
        argv = ("design", "--trace", src, "--window-size", "250", "--overlap-threshold", "0.1")
        return [Command("design", argv, (Point("design", "", src, 250, 0.1),))]
    mat2like, hotspot = _rel(work / "mat2like.cfg"), _rel(work / "hotspot.cfg")
    thetas = tuple(Point(f"theta={t}", f"theta_{t:.6f}", mat2like, 1000, t) for t in THETA_LIST)
    return [
        Command("sweep-threshold",
                ("sweep-threshold", "--config", mat2like,
                 "--theta-list", ",".join(map(str, THETA_LIST))), thetas),
        Command("compare-bindings",
                ("compare-bindings", "--config", mat2like, "--overlap-threshold", "0.3",
                 "--num-random", str(NUM_RANDOM)),
                (Point("compare", "", mat2like, 1000, 0.3),)),
        Command("design-hotspot", ("design", "--config", hotspot),
                (Point("hotspot", "", hotspot, 1000, 0.3),)),
    ]


# ---------------------------------------------------------------- passes


def reference_work() -> float:
    """Wall time of the benchmark's fixed reference computation (~12 ms).

    Interpreted dict, string and small-numpy work: the mix the passes are
    made of.  It never changes, so pass time over its time cancels much
    of the host's speed drift.
    """
    # A collection here would walk the workload's heap (520 k objects on
    # the 100x trace) and charge it to the reference work.
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        counts: dict[int, int] = {}
        for k in PROBE_KEYS:
            counts[k] = counts.get(k, 0) + 1
        [f"{k},{v}".split(",") for k, v in counts.items() if k % 8 == 0]
        for _ in range(300):
            PROBE_VECTOR.sum()
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


class SpeedProbe:
    """Times :func:`reference_work` every ``PROBE_INTERVAL_S`` during passes.

    On a shared host the same pass runs up to 1.7x slower for tens of
    seconds at a time, and the reference work slows with it.  Samples are
    taken by a SIGALRM handler in this process's only thread, so they are
    spread through long passes too; their time is taken out of the pass.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []

    def _tick(self, signum, frame) -> None:
        self.samples.append(reference_work())

    def __enter__(self) -> SpeedProbe:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


@dataclass
class Pass:
    wall_s: float  # minus the time spent in speed probes
    errors: dict[str, str]  # command name -> why it failed (exit code or exception)
    digests: dict[str, str]  # artifact path -> sha256 of its normalized bytes
    spans: range  # indices of this pass's spans in the tracer


def invoke(argv: list[str], tracer: Tracer | None) -> str | None:
    """Run one CLI command in-process; return why it failed, or None."""
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            if tracer is None:
                rc = cli.main(argv)
            else:
                tracer.op += 1
                rc = tracer.call("cli.main", cli.main, argv)
    except Exception as exc:  # a crash is a failed operation, not a benchmark crash
        return f"{type(exc).__name__}: {exc}"
    if rc != 0:
        return f"exit code {rc}: {sink.getvalue().strip()[-300:]}"
    return None


def normalized(path: Path) -> bytes:
    """Artifact bytes minus the fields that legitimately vary."""
    data = path.read_bytes()
    if path.name == "solve_report.json":
        return b"".join(ln for ln in data.splitlines(True) if b'"wall_time_s"' not in ln)
    if path.name == "manifest.txt":
        return b"".join(ln for ln in data.splitlines(True) if not ln.startswith(b"trace = "))
    return data


def digest_tree(out: Path) -> dict[str, str]:
    return {
        str(p.relative_to(out)): hashlib.sha256(normalized(p)).hexdigest()
        for p in sorted(out.rglob("*")) if p.is_file()
    }


def run_pass(cmds: list[Command], out: Path, tracer: Tracer | None = None,
             probe: SpeedProbe | None = None) -> Pass:
    shutil.rmtree(out, ignore_errors=True)
    first = len(tracer.spans) if tracer else 0
    probed = len(probe.samples) if probe else 0
    errors = {}
    t0 = time.perf_counter()
    for cmd in cmds:
        err = invoke(list(cmd.argv) + ["--out-dir", str(out / cmd.name)], tracer)
        if err is not None:
            errors[cmd.name] = err
    wall = time.perf_counter() - t0
    if probe:
        wall -= sum(probe.samples[probed:])
    return Pass(wall, errors, digest_tree(out), range(first, len(tracer.spans) if tracer else 0))


def timed_passes(cmds, out, seconds: float, min_passes: int,
                 tracer: Tracer | None = None, probe: SpeedProbe | None = None) -> list[Pass]:
    """Passes until ``seconds`` have elapsed and ``min_passes`` are done."""
    passes = []
    end = time.perf_counter() + seconds
    while len(passes) < min_passes or time.perf_counter() < end:
        passes.append(run_pass(cmds, out, tracer, probe))
    return passes


# ---------------------------------------------------------------- checks


def _csv_rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class InstanceCache:
    """Solver instances rebuilt from each point's input through the public API."""

    def __init__(self) -> None:
        self._traces: dict[str, object] = {}

    def get(self, point: Point):
        if point.source not in self._traces:
            path = ROOT / point.source
            if path.suffix == ".cfg":
                trace = generate(spec_from_text(path.read_text(encoding="utf-8")))
            else:
                trace = load_trace(path)
            self._traces = {point.source: trace}  # one trace alive at a time
        trace = self._traces[point.source]
        params = AnalysisParams(point.window_size, point.theta)
        prof = profile(trace, point.window_size)
        return build_instance(prof, aggregate_overlap(prof), preprocess(prof, params), params)


def check_design(inst, d: Path) -> tuple[list[str], list]:
    """Check one design's artifacts; return failures and its label invariants."""
    fails = []
    rep = json.loads((d / "solve_report.json").read_text())
    buses, binding = rep["num_buses"], rep["binding"]
    probes = [tuple(p) for p in rep["feasibility_probes"]]
    if not rep["optimal"]:
        fails.append("optimality not proven")
    if buses != lower_bound(inst) and (buses - 1, False) not in probes:
        fails.append(f"{buses} buses not proven minimal (probes {probes})")
    members: dict[int, list[int]] = {}
    for t, k in enumerate(binding):
        members.setdefault(k, []).append(t)
    worst = 0
    for k, ts in members.items():
        if not 1 <= k <= buses:
            fails.append(f"bus label {k} outside 1..{buses}")
        if (inst.comm[ts].sum(axis=0) > inst.window_size).any():
            fails.append(f"bus {k} overloaded")
        if inst.conflict[ts][:, ts].any():
            fails.append(f"conflicting targets share bus {k}")
        if len(ts) > inst.maxtb:
            fails.append(f"bus {k} over the targets-per-bus cap")
        sub = inst.om[ts][:, ts]  # pairs i < j only: the diagonal holds comm totals
        worst = max(worst, int(sub.sum() - sub.trace()) // 2)
    if worst != rep["maxov"]:
        fails.append(f"reported maxov {rep['maxov']} != recomputed {worst}")
    rows = {r["name"]: r for r in _csv_rows(d / "comparison.csv")}
    for col, kind in (("avg_latency", float), ("max_latency", int)):
        full, designed, shared = (kind(rows[n][col]) for n in ("full", "designed", "shared"))
        if not full <= designed <= shared:
            fails.append(f"{col} not ordered full <= designed <= shared: {full}, {designed}, {shared}")
    if int(rows["designed"]["num_buses"]) != buses:
        fails.append("comparison.csv bus count differs from the solve report")
    conflict = _csv_rows(d / "conflict.csv")
    pairs = sum(v == "1" for r in conflict for v in list(r.values())[1:]) // 2
    invariants = [buses, rep["maxov"], pairs,
                  rows["full"]["avg_latency"], rows["full"]["max_latency"]]
    return fails, invariants


def check_workload(cmds: list[Command], out: Path) -> tuple[dict[str, list[str]], dict[str, list]]:
    """Deep checks on the artifacts in ``out``: failures and invariants per point."""
    fails: dict[str, list[str]] = {}
    invariants: dict[str, list] = {}
    cache = InstanceCache()
    for cmd in cmds:
        cdir = out / cmd.name
        for p in cmd.points:
            try:
                fails[p.key], invariants[p.key] = check_design(cache.get(p), cdir / p.subdir)
            except (OSError, KeyError, ValueError, IndexError) as exc:
                fails[p.key], invariants[p.key] = [f"unreadable artifacts: {exc!r}"], []
        try:
            _check_command_table(cmd, cdir, invariants, fails)
        except (OSError, KeyError, ValueError, IndexError) as exc:
            for p in cmd.points:
                fails[p.key].append(f"unreadable {cmd.name} table: {exc!r}")
    return fails, invariants


def _check_command_table(cmd: Command, cdir: Path, inv: dict, fails: dict) -> None:
    """Cross-check a sweep or comparison table against its points' artifacts."""
    if cmd.argv[0] == "sweep-window":
        rows = _csv_rows(cdir / "sweep_window.csv")
        for p, row in zip(cmd.points, rows, strict=True):
            designed = next(r for r in _csv_rows(cdir / p.subdir / "comparison.csv")
                            if r["name"] == "designed")
            if row["status"] != "ok" or int(row["bus_count"]) != inv[p.key][0] \
                    or row["avg_latency"] != designed["avg_latency"]:
                fails[p.key].append(f"sweep_window.csv row disagrees: {row}")
    elif cmd.argv[0] == "sweep-threshold":
        rows = _csv_rows(cdir / "sweep_threshold.csv")
        prev = None
        for p, row in zip(cmd.points, rows, strict=True):
            here = (int(row["bus_count"]), int(row["conflict_pairs"]))
            if row["status"] != "ok" or here != (inv[p.key][0], inv[p.key][2]):
                fails[p.key].append(f"sweep_threshold.csv row disagrees: {row}")
            if prev is not None and (here[0] > prev[0] or here[1] > prev[1]):
                fails[p.key].append("bus count or conflict pairs grew with the threshold")
            prev = here
    elif cmd.argv[0] == "compare-bindings":
        (p,) = cmd.points
        rows = _csv_rows(cdir / "binding_compare.csv")
        designed = next(r for r in _csv_rows(cdir / "comparison.csv") if r["name"] == "designed")
        opt = float(rows[0]["avg_latency"])
        randoms = [float(r["avg_latency"]) for r in rows[1:-1]]
        ratios = [float(r["ratio_vs_optimal"]) for r in rows[1:-1]]
        ok = (
            [r["scheme"] for r in rows]
            == ["optimal"] + [f"random_{k + 1}" for k in range(NUM_RANDOM)] + ["random_mean"]
            and rows[0]["avg_latency"] == designed["avg_latency"]
            and rows[0]["ratio_vs_optimal"] == "1.000000"
            and all(abs(r - a / opt) < 1e-5 for r, a in zip(ratios, randoms))
            and abs(float(rows[-1]["avg_latency"]) - sum(randoms) / len(randoms)) < 1e-5
        )
        if not ok:
            fails[p.key].append("binding_compare.csv is inconsistent")


def point_files(cmd: Command, p: Point, digests: dict[str, str]) -> dict[str, str]:
    """The artifacts an operation owns: its own files plus its command's tables."""
    own = f"{cmd.name}/{p.subdir}/" if p.subdir else f"{cmd.name}/"
    table = f"{cmd.name}/"
    return {
        k: v for k, v in digests.items()
        if (k.startswith(own) and "/" not in k[len(own):])
        or (k.startswith(table) and "/" not in k[len(table):])
    }


def tally(cmds, passes: list[Pass], fails, ref_digests) -> tuple[int, list[str]]:
    """Count failed operations over all passes; return (failed, messages)."""
    last = passes[-1]
    failed, messages = 0, []
    for n, ps in enumerate(passes):
        for cmd in cmds:
            for p in cmd.points:
                why = ps.errors.get(cmd.name)
                mine = point_files(cmd, p, ps.digests)
                if why is None and not mine:
                    why = "no artifacts written"
                if why is None and mine != point_files(cmd, p, last.digests):
                    why = "artifacts differ between passes"
                if why is None and fails.get(p.key):
                    why = "; ".join(fails[p.key])
                if why is None and ref_digests is not None:
                    ref = point_files(cmd, p, ref_digests)
                    bad = sorted(k for k in ref.keys() | mine.keys() if ref.get(k) != mine.get(k))
                    if bad:
                        why = f"differs from the reference artifacts: {', '.join(bad)}"
                if why is not None:
                    failed += 1
                    messages.append(f"pass {n + 1} {cmd.name} {p.key}: {why}")
    return failed, messages


# ---------------------------------------------------------------- modes


def run(workload: str, seed: int, corpus_seed: int, seconds: float, trace: bool) -> dict:
    work = WORK / workload
    out = work / "out"
    cmds = commands(workload)
    # Warm-up: first calls into numpy and the csv/json writers, untimed.
    invoke(["design", "--preset", "hotspot", "--out-dir", str(work / "warmup")], None)

    # Untraced passes give wall_s; a traced run splits its time in two.
    with SpeedProbe() as probe:
        plain = timed_passes(cmds, out, seconds / 2 if trace else seconds,
                             1 if trace else MIN_PASSES, probe=probe)
    traced: list[Pass] = []
    tracer = Tracer()
    if trace:
        tracer.install()
        try:
            traced = timed_passes(cmds, out, seconds / 2, 1, tracer=tracer)
        finally:
            tracer.uninstall()
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    passes = plain + traced
    fails, invariants = check_workload(cmds, out)
    ref = json.loads(REFERENCE.read_text())
    expected = ref["invariants"].get(str(corpus_seed), {}).get(workload)
    if expected is not None:
        for key, values in invariants.items():
            if values != expected.get(key):
                fails[key].append(f"label invariants {values} != corpus reference {expected.get(key)}")
    default = seed == DEFAULT_SEED and corpus_seed == DEFAULT_CORPUS_SEED
    failed, messages = tally(cmds, passes, fails, ref["digests"][workload] if default else None)

    result = {
        "walls": [p.wall_s for p in plain],
        "reference_s": statistics.fmean(probe.samples or [reference_work() for _ in range(5)]),
        "probes": len(probe.samples),
        "attempted": len(passes) * sum(len(c.points) for c in cmds),
        "failed": failed,
        "messages": messages[:20],
        "peak_rss_mib": peak_rss_mib,
        "checked_against": "reference digests and invariants" if default else
        ("corpus invariants" if expected is not None else "pass-to-pass identity"),
    }
    if trace:
        per_pass = [layer_metrics(tracer.spans, p.spans, p.wall_s) for p in traced]
        result["layers"] = per_pass
        result["traced_walls"] = [p.wall_s for p in traced]
        (work / "spans.json").write_text(json.dumps(tracer.dump()))
    return result


def record() -> None:
    """Rewrite reference.json from the current source (default seed passes)."""
    ref = {"digests": {}, "invariants": {}}
    for corpus_seed in (DEFAULT_CORPUS_SEED, HELD_OUT_CORPUS_SEED):
        ref["invariants"][str(corpus_seed)] = {}
        for workload in WORKLOADS:
            shutil.rmtree(WORK / workload, ignore_errors=True)
            prep(workload, DEFAULT_SEED, corpus_seed)
            out = WORK / workload / "out"
            cmds = commands(workload)
            ps = run_pass(cmds, out, None)
            fails, invariants = check_workload(cmds, out)
            if ps.errors or any(fails.values()):
                raise SystemExit(f"refusing to record failing outputs: {ps.errors} {fails}")
            ref["invariants"][str(corpus_seed)][workload] = invariants
            if corpus_seed == DEFAULT_CORPUS_SEED:
                ref["digests"][workload] = ps.digests
            print(f"recorded {workload} corpus seed {corpus_seed}", file=sys.stderr)
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=("prep", "run", "record"))
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--corpus-seed", type=int, default=DEFAULT_CORPUS_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    src = (ROOT / "src").resolve()
    if src not in Path(xbarsynth.__file__).resolve().parents:
        print(f"error: xbarsynth imported from {xbarsynth.__file__}, not {src}", file=sys.stderr)
        return 2
    if args.mode == "record":
        record()
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if args.mode == "prep":
        prep(args.workload, args.seed, args.corpus_seed)
        return 0
    result = run(args.workload, args.seed, args.corpus_seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
