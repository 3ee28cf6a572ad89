"""The benchmark's layer tracer, ``perfbench/spans.py``, against the package.

The tracer swaps named functions of ``cli``, ``solver`` and ``sim`` for
timing wrappers.  A renamed or no longer called function would leave its
wrapper silent and the layer metrics it feeds reading zero, so every wrap
point must still resolve and open a span on the commands the benchmark
runs, and the counts the spans record must agree with the solve report.
"""

import importlib.util
import json
import sys
from pathlib import Path

from xbarsynth import cli, sim, solver
from xbarsynth.gen import benchmark_preset, generate
from xbarsynth.trace import save_trace

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_every_wrap_point_opens_spans_that_match_the_solve_report(tmp_path, monkeypatch):
    spans = load_spans(monkeypatch)
    trace = tmp_path / "hotspot.csv"
    save_trace(generate(benchmark_preset("hotspot")), trace)
    commands = {"design": ["design", "--trace", str(trace)],
                "compare": ["compare-bindings", "--preset", "mat2like"]}
    points = spans._wrap_points(cli, solver, sim)
    tracer = spans.Tracer()
    tracer.install()
    opened = {}  # (module, attribute) -> names of the spans its wrapper opened
    runs = {}
    try:
        for module, attr, _, _ in points:
            # cli.simulate and sim.simulate open spans of one name: tell them apart
            def record(*args, _wrapper=getattr(module, attr),
                       _key=(module.__name__, attr), **kwargs):
                first = len(tracer.spans)
                result = _wrapper(*args, **kwargs)
                opened.setdefault(_key, set()).add(tracer.spans[first].name)
                return result

            setattr(module, attr, record)
        for name, argv in commands.items():
            first = len(tracer.spans)
            assert cli.main(argv + ["--out-dir", str(tmp_path / name)]) == 0
            runs[name] = tracer.spans[first:]
    finally:
        tracer.uninstall()  # puts every original back, over the recorders too

    # install() resolved every wrap point; each must also have opened its span
    for module, attr, name, _ in points:
        assert opened.get((module.__name__, attr)) == {name}, f"{module.__name__}.{attr}"
    for name, run in runs.items():
        report = json.loads((tmp_path / name / "solve_report.json").read_text())
        (probes,) = [s.info["probes"] for s in run if s.name == "solver.min_config"]
        (nodes,) = [s.info["nodes"] for s in run if s.name == "solver.optimal_binding"]
        assert probes == len(report["feasibility_probes"]) > 0
        assert nodes == report["nodes_explored"] > 0
