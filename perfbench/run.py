"""xbarsynth benchmark: one workload per invocation.

    python3 perfbench/run.py --workload W [--seed N] [--seconds S] [--trace 0|1]
                             [--corpus-seed C]

Run from the root of a checkout.  Measures ``setup_s`` (median wall time
of fresh ``import xbarsynth.cli`` processes), writes the workload's
inputs in a separate process, then times the workload in one fresh
worker process (``worker.py``) with no threads or subprocesses of its
own.  Prints the metrics with units, then, as the last line, one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``).  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 6  # before and again after the workload: host speed drifts
DEADLINE_S = 170  # every run must end within 180 s


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"  # the worker runs single-threaded
    return env


def run_child(argv: list[str], deadline: float) -> subprocess.CompletedProcess:
    """Run a child to completion (killed and reaped if the deadline passes)."""
    return subprocess.run(
        [sys.executable] + argv, cwd=ROOT, env=child_env(), capture_output=True,
        text=True, timeout=max(1.0, deadline - time.monotonic()),
    )


def time_imports(deadline: float) -> list[float]:
    """Wall times of fresh processes that import xbarsynth.cli."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = run_child(["-c", "import xbarsynth.cli"], deadline)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"import failed: {proc.stderr.strip()}")
    return times


def high_percentile(values: list[float]) -> tuple[int, float] | None:
    """Highest percentile above the median with >= 10 samples beyond it."""
    n = len(values)
    p = (100 * (n - 10)) // n if n > 10 else 0
    if p <= 50:
        return None
    rank = -(-p * n // 100)  # nearest rank
    return p, sorted(values)[rank - 1]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description="xbarsynth benchmark")
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, default=2024, help="relabels the corpus (see README)")
    ap.add_argument("--corpus-seed", type=int, default=2024, help="generator seed of the corpus")
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "xbarsynth" / "cli.py").is_file():
        print(f"error: no xbarsynth sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)

    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--corpus-seed", str(args.corpus_seed)]
    worker = str(BENCH / "worker.py")
    try:
        imports = []
        if not args.trace:
            run_child(["-c", "import xbarsynth.cli"], deadline)  # writes the bytecode cache
            imports = time_imports(deadline)
        prep = run_child([worker, "prep"] + common, deadline)
        if prep.returncode != 0:
            raise RuntimeError(f"input preparation failed: {prep.stderr.strip()}")
        proc = run_child([worker, "run"] + common +
                         ["--seconds", str(args.seconds), "--trace", str(args.trace)], deadline)
        if proc.returncode != 0:
            raise RuntimeError(f"worker failed: {proc.stderr.strip()}")
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        if not args.trace:
            imports += time_imports(deadline)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    walls = res["walls"]
    wall_s = statistics.median(walls)
    print(f"workload {args.workload}  seed {args.seed}  corpus seed {args.corpus_seed}  "
          f"checked against {res['checked_against']}")
    print(f"error_rate = {res['failed']}/{res['attempted']} operations failed")
    for msg in res["messages"]:
        print(f"  FAILED {msg}")
    print(f"wall_s = {wall_s:.6f} s (median of {len(walls)} passes; "
          f"min {min(walls):.6f}, max {max(walls):.6f})")
    print(f"reference work = {res['reference_s'] * 1e3:.4f} ms "
          f"(mean of {res['probes']} samples during the passes)")
    hp = high_percentile(walls)
    if hp is not None:
        print(f"wall_s p{hp[0]} = {hp[1]:.6f} s ({len(walls)} passes)")

    if args.trace:
        layers = res["layers"]
        metrics = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
        traced = statistics.median(res["traced_walls"])
        metrics["bench.traced_wall_s"] = traced
        metrics["bench.trace_overhead_s"] = traced - wall_s
        for key in layers[0]:
            if key.endswith((".calls", ".probes", ".windows", ".nodes", ".tx", ".bytes")) \
                    and len({m[key] for m in layers}) > 1:
                print(f"warning: {key} differs between traced passes", file=sys.stderr)
        out = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer"]}
    else:
        out = {
            # Means, not medians: the host flips between a fast and a slow
            # speed, and two medians can land on different ones.
            "wall_ref": {"value": statistics.fmean(walls) / res["reference_s"], "unit": "ref"},
            "setup_s": {"value": statistics.median(imports), "unit": "s"},
            "peak_rss_mib": {"value": res["peak_rss_mib"], "unit": "MiB"},
        }
    for k, v in out.items():
        print(f"{k} = {v['value']:.6g} {v['unit']}")
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": out,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
