"""Command-line flow: artifacts, exit codes, reproducibility."""

import argparse
import contextlib
import csv
import dataclasses
import gc
import hashlib
import io
import json
import tempfile
import time
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xbarsynth import cli, sim, solver
from xbarsynth import trace as trace_module
from xbarsynth.analysis import MAX_PROFILE_CELLS, AnalysisParams
from xbarsynth.cli import RunConfig, compare_bindings, design, main
from xbarsynth.gen import GenSpec, benchmark_preset, generate, spec_to_text
from xbarsynth.sim import full_crossbar_config, shared_bus_config, simulate
from xbarsynth.solver import (
    CrossbarConfig,
    InfeasibleError,
    SearchBudget,
    SolverLimitReached,
    SolverLimits,
    binding_fits,
    check_feasible,
    min_config,
    validate_binding,
)
from xbarsynth.trace import Trace, Transaction, load_trace, save_trace

from oracles import nodes_before_tie_break, trace_of


def tiny_spec(**kw):
    # three lockstep initiators: every target pair conflicts at WS 50
    base = dict(
        num_initiators=3, num_targets=3, burst_len_mean=50,
        burst_len_jitter=0.0, inter_burst_gap_mean=50,
        phase_correlation=1.0, shared_target_ids=(),
        critical_stream_pairs=(), horizon=1000, seed=3,
    )
    base.update(kw)
    return GenSpec(**base)


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "spec.cfg"
    path.write_text(spec_to_text(tiny_spec()))
    return path


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def assert_unrecognized(err, *args):
    """argparse's usage block, then one line naming the rejected ``args``."""
    assert err.startswith("usage: xbarsynth ")
    assert err.endswith(f"xbarsynth: error: unrecognized arguments: {' '.join(args)}\n")


def test_gen_writes_loadable_trace(tmp_path, config_file):
    out = tmp_path / "o"
    assert main(["gen", "--config", str(config_file), "--out-dir", str(out)]) == 0
    tr = load_trace(out / "trace.csv")
    assert tr.num_targets == 3
    assert tr.transactions


def test_gen_explicit_out_and_seed_override(tmp_path):
    cfg = tmp_path / "spec.cfg"
    cfg.write_text(spec_to_text(tiny_spec(burst_len_jitter=0.2, phase_correlation=0.0)))
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    main(["gen", "--config", str(cfg), "--out", str(a), "--out-dir", str(tmp_path)])
    main(["gen", "--config", str(cfg), "--out", str(b), "--out-dir", str(tmp_path),
          "--seed", "99"])
    assert a.read_bytes() != b.read_bytes()


def test_gen_to_an_explicit_out_makes_no_out_dir(tmp_path, monkeypatch):
    # the default --out-dir, xbarsynth_out/, is made only to hold the trace
    monkeypatch.chdir(tmp_path)
    assert main(["gen", "--preset", "hotspot", "--out", "a.csv"]) == 0
    assert [p.name for p in tmp_path.iterdir()] == ["a.csv"]


@pytest.mark.parametrize("data, message", [
    (b"seed = 3\f\n\nbogus\n", "3: expected key = value, got 'bogus'"),
    (b"seed = 3\n# a note \xff\n",
     "2: 'utf-8' codec can't decode byte 0xff in position 9: invalid start byte"),
], ids=["form-feed", "not-utf-8"])
def test_config_errors_name_their_line(tmp_path, capsys, data, message):
    """A config line ends at \\n alone and is decoded as UTF-8 on its own;
    its fault is named ``<path>:<line>:`` as a trace file's is."""
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(data)
    out = tmp_path / "o"
    assert main(["gen", "--config", str(cfg), "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {cfg}:{message}\n"
    assert not out.exists()


def test_gen_requires_a_generator_source(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["gen", "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err == "error: exactly one of --preset, --config is required\n"
    tr = trace_of(1, 1, [Transaction(0, 5, 1, 1)])
    path = tmp_path / "t.csv"
    save_trace(tr, path)
    assert main(["gen", "--trace", str(path), "--out-dir", str(out)]) == 1
    assert_unrecognized(capsys.readouterr().err, "--trace", str(path))
    assert not out.exists()


def test_analyze_writes_matrices(tmp_path, config_file):
    out = tmp_path / "o"
    assert main(["analyze", "--config", str(config_file), "--out-dir", str(out),
                 "--window-size", "50"]) == 0
    for name in ("comm.csv", "overlap.csv", "conflict.csv", "manifest.txt"):
        assert (out / name).exists()
    conflict = read_csv(out / "conflict.csv")
    assert conflict[0][0] == "target"
    # lockstep identical bursts: off-diagonal pairs all conflict
    assert conflict[1][2] == "1" and conflict[2][1] == "1"


def test_design_full_pipeline(tmp_path, config_file):
    out = tmp_path / "o"
    assert main(["design", "--config", str(config_file), "--out-dir", str(out),
                 "--window-size", "50"]) == 0
    report = json.loads((out / "solve_report.json").read_text())
    assert report["optimal"] is True
    assert report["num_buses"] == 3  # lockstep conflicts force full isolation
    rows = read_csv(out / "comparison.csv")
    assert [r[0] for r in rows[1:]] == ["shared", "designed", "full"]
    # size_ratio: bus count over the shared baseline's one bus
    assert [r[4] for r in rows[1:]] == ["1.000000", "3.000000", "3.000000"]
    manifest = (out / "manifest.txt").read_text()
    assert "status = ok" in manifest
    assert "binding = " in manifest


def test_design_frees_the_packed_instance(tmp_path):
    outcome = design(RunConfig(benchmark_preset("hotspot"), AnalysisParams(1000, 0.3),
                               out_dir=tmp_path / "o"))
    assert outcome.error is None
    assert "_packed" not in vars(outcome.instance)  # built by the solve, then freed
    assert binding_fits(outcome.instance, outcome.report.config.binding)  # rebuilt on use


def test_design_single_target_degenerates_to_one_bus(tmp_path):
    tr = trace_of(2, 1, [Transaction(s, 5, 1 + s % 2, 1) for s in range(0, 50, 10)])
    path = tmp_path / "one.csv"
    save_trace(tr, path)
    out = tmp_path / "o"
    assert main(["design", "--trace", str(path), "--out-dir", str(out),
                 "--window-size", "10"]) == 0
    rows = read_csv(out / "comparison.csv")
    assert [r[1] for r in rows[1:]] == ["1", "1", "1"]
    assert len({tuple(r[2:]) for r in rows[1:]}) == 1  # identical metrics


def test_overlap_threshold_cap_rejected(tmp_path, config_file, capsys):
    code = main(["design", "--config", str(config_file), "--out-dir", str(tmp_path),
                 "--overlap-threshold", "0.6"])
    assert code == 1
    assert "0.5" in capsys.readouterr().err


def test_exactly_one_input_source_enforced(tmp_path, config_file, capsys):
    assert main(["design", "--config", str(config_file), "--preset", "hotspot",
                 "--out-dir", str(tmp_path)]) == 1
    assert main(["design", "--out-dir", str(tmp_path)]) == 1
    assert "exactly one of" in capsys.readouterr().err


TOP_USAGE = """usage: xbarsynth [-h]
                 {gen,analyze,design,simulate,sweep-window,sweep-threshold,compare-bindings,export-lp}
                 ...
"""
DESIGN_USAGE = """usage: xbarsynth design [-h] [--trace TRACE]
                        [--preset {mat2like,uniform,hotspot}]
                        [--config CONFIG] [--direction {req,resp}]
                        [--seed SEED] [--out-dir OUT_DIR]
                        [--window-size WINDOW_SIZE]
                        [--overlap-threshold OVERLAP_THRESHOLD]
                        [--max-targets-per-bus MAX_TARGETS_PER_BUS]
                        [--time-limit TIME_LIMIT] [--buses BUSES]
"""


@pytest.mark.parametrize("argv, err", [
    (["design", "--bogus"], TOP_USAGE + "xbarsynth: error: unrecognized arguments: --bogus\n"),
    (["design", "--preset", "hotspot", "--window-size", "abc"],
     DESIGN_USAGE + "xbarsynth design: error: argument --window-size: invalid int value: 'abc'\n"),
    ([], TOP_USAGE + "xbarsynth: error: the following arguments are required: command\n"),
], ids=["unknown-option", "bad-int", "no-subcommand"])
def test_parse_errors_exit_one(argv, err, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the terminal width
    # exit 2 means infeasible, so argparse's own exit 2 must not leak out
    for _ in range(2):  # the second call's parser is the first's, reused
        assert main(argv) == 1
        assert capsys.readouterr().err == err


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["design", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: ")


def parsed(parser, argv, capsys):
    """``(namespace or exit code, stdout, stderr)`` of one ``parse_args``."""
    try:
        result = vars(parser.parse_args(argv))
    except SystemExit as exc:
        result = exc.code
    out = capsys.readouterr()
    return result, out.out, out.err


REPRESENTATIVE_ARGV = {
    "gen": ["--preset", "hotspot", "--seed", "3", "--out", "t.csv"],
    "analyze": ["--config", "c.cfg", "--window-size", "50", "--overlap-threshold", "0.2"],
    "design": ["--trace", "t.csv", "--direction", "resp", "--buses", "2", "--time-limit", "1.5"],
    "simulate": ["--preset", "hotspot", "--binding", "1,2,1,2", "--out-dir", "d"],
    "sweep-window": ["--preset", "mat2like", "--ws-list", "250,500",
                     "--max-targets-per-bus", "3"],
    "sweep-threshold": ["--preset", "mat2like", "--theta-list", "0.1,0.2",
                        "--window-size", "500"],
    "compare-bindings": ["--preset", "mat2like", "--num-random", "4", "--seed", "1"],
    "export-lp": ["--preset", "hotspot", "--buses", "2", "--out-dir", "d"],
}


@pytest.mark.parametrize("name", list(cli._COMMANDS))
def test_every_subcommand_parses_and_has_help(name, capsys):
    assert set(REPRESENTATIVE_ARGV) == set(cli._COMMANDS)
    args, _, _ = parsed(cli.build_parser(), [name] + REPRESENTATIVE_ARGV[name], capsys)
    assert args["command"] == name
    assert parsed(cli.build_parser(), [name, "--help"], capsys)[0] == 0


def test_parser_is_built_once_per_process(tmp_path, config_file, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    cli.build_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    source = ["--config", str(config_file), "--out-dir", str(tmp_path)]
    assert main(["design"] + source + ["--window-size", "50"]) == 0
    assert main(["design", "--bogus"]) == 1
    assert main(["sweep-threshold"] + source + ["--window-size", "50",
                                                "--theta-list", "0.2"]) == 0
    assert len(built) == 1 + len(cli._COMMANDS)  # the top parser and each subcommand's


@pytest.mark.parametrize("argv", [
    [], ["bogus"], ["design", "--bogus"], ["analyze", "--buses", "3"], ["--help"],
], ids=["no-subcommand", "unknown-subcommand", "unknown-option", "foreign-option", "help"])
def test_main_parse_output_is_the_full_parsers(argv, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    _, out, err = parsed(cli.build_parser(), argv, capsys)
    try:
        rc = main(argv)
    except SystemExit as exc:  # --help
        rc = exc.code
    assert tuple(capsys.readouterr()) == (out, err)
    assert rc == (0 if argv == ["--help"] else 1)


@pytest.mark.parametrize("command, extra, message", [
    ("design", ["--window-size", "50", "--buses", "0"], "bus count 0 outside 1..3"),
    ("simulate", ["--binding", "0,0,0"], "need at least one bus"),  # max(binding) buses
    ("export-lp", ["--window-size", "50", "--buses", "0"], "bus count 0 outside 1..3"),
    ("simulate", ["--binding", "1,x,1"],
     "bad --binding '1,x,1': expected comma-separated bus ids"),
], ids=["design", "simulate", "export-lp", "simulate-bad-id"])
def test_zero_buses_is_a_usage_error(tmp_path, config_file, capsys, command, extra, message):
    out = tmp_path / "o"
    assert main([command, "--config", str(config_file), "--out-dir", str(out)] + extra) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (out / "latency.csv").exists() and not (out / "model.lp").exists()


LONG_TRACE = ("#xbar-trace v1,initiators=1,targets=2\n"
              "0,5,1,1,req,0\n9223372036854775000,100,1,2,req,0\n")


def test_design_at_a_window_size_of_2_62(tmp_path):
    """A trace ending near 2**63 tiles into exact windows of 2**62 cycles."""
    path = tmp_path / "long.csv"
    path.write_text(LONG_TRACE)
    out = tmp_path / "o"
    assert main(["design", "--trace", str(path), "--window-size", str(2**62),
                 "--out-dir", str(out)]) == 0
    report = json.loads((out / "solve_report.json").read_text())
    assert (report["num_buses"], report["binding"]) == (1, [1, 1])


@pytest.mark.parametrize("window_size", [str(2**63), "99999999999999999999"])
def test_window_size_of_2_63_or_more_is_a_usage_error(tmp_path, capsys, window_size):
    path = tmp_path / "long.csv"
    path.write_text(LONG_TRACE)
    out = tmp_path / "o"
    assert main(["design", "--trace", str(path), "--window-size", window_size,
                 "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: window size must be below 2**63 cycles, got {window_size}\n")
    assert not out.exists()


def test_design_bus_count_above_the_targets_writes_nothing(tmp_path, capsys):
    """Checked against the trace's target count before any artifact."""
    out = tmp_path / "o"
    assert main(["design", "--preset", "hotspot", "--buses", "9", "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err == "error: bus count 9 outside 1..4\n"
    assert not out.exists()


@pytest.mark.parametrize("buses", ["0", "2"])
def test_simulate_buses_needs_a_binding(tmp_path, capsys, buses):
    # a bound binding has max(binding) buses: simulate takes no --buses at all
    out = tmp_path / "o"
    for binding in ([], ["--binding", "1,2,1,2"]):
        assert main(["simulate", "--preset", "hotspot", "--buses", buses,
                     "--out-dir", str(out)] + binding) == 1
        assert_unrecognized(capsys.readouterr().err, "--buses", buses)
        assert not out.exists()


@pytest.mark.parametrize("command", ["design", "gen"])
def test_direction_resp_needs_a_trace_file(tmp_path, capsys, command):
    # the generator writes request flows only, and gen takes no --direction
    out = tmp_path / "o"
    assert main([command, "--preset", "hotspot", "--direction", "resp",
                 "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    if command == "gen":
        assert_unrecognized(err, "--direction", "resp")
    else:
        assert err == ("error: --direction resp needs --trace: "
                       "generated traces hold request flows only\n")
    assert not out.exists()


@pytest.mark.parametrize("command, extra", [
    ("gen", ["--trace", "t.csv"]),
    ("gen", ["--preset", "hotspot", "--direction", "req"]),
    ("analyze", ["--preset", "hotspot", "--buses", "3"]),
    ("analyze", ["--preset", "hotspot", "--time-limit", "5"]),
    ("analyze", ["--preset", "hotspot", "--max-targets-per-bus", "2"]),
    ("simulate", ["--preset", "hotspot", "--binding", "1,2,1,2", "--buses", "4"]),
    ("sweep-threshold", ["--preset", "hotspot", "--theta-list", "0.3",
                         "--overlap-threshold", "0.5"]),
], ids=lambda v: v if isinstance(v, str) else v[-2].lstrip("-"))
def test_options_a_subcommand_does_not_act_on_are_rejected(tmp_path, capsys, command, extra):
    out = tmp_path / "o"
    assert main([command, "--out-dir", str(out)] + extra) == 1
    assert_unrecognized(capsys.readouterr().err, *extra[-2:])
    assert not out.exists()


def test_infeasible_bus_override_exits_two(tmp_path, config_file):
    code = main(["design", "--config", str(config_file), "--out-dir", str(tmp_path / "o"),
                 "--window-size", "50", "--buses", "1"])
    assert code == 2
    # conflict matrix still written for inspection
    assert (tmp_path / "o" / "conflict.csv").exists()
    assert "infeasible" in (tmp_path / "o" / "manifest.txt").read_text()


def test_solver_time_limit_exits_three(tmp_path):
    code = main(["design", "--preset", "uniform", "--out-dir", str(tmp_path / "o"),
                 "--window-size", "250", "--overlap-threshold", "0.1",
                 "--time-limit", "0.001"])
    assert code == 3


def test_zero_time_limit_is_written_to_the_manifest(tmp_path):
    # a passed deadline trips at the first node, inside the first probe
    code = main(["design", "--preset", "uniform", "--out-dir", str(tmp_path / "o"),
                 "--window-size", "250", "--overlap-threshold", "0.1",
                 "--time-limit", "0"])
    assert code == 3
    manifest = (tmp_path / "o" / "manifest.txt").read_text()
    assert "time_limit_s = 0.000000\n" in manifest
    assert "status = limit\n" in manifest


def test_zero_time_limit_cuts_short_solves(tmp_path):
    # hotspot's whole solve ends before the 257th node, the second clock read
    run = RunConfig(benchmark_preset("hotspot"), AnalysisParams(1000, 0.3),
                    out_dir=tmp_path / "full")
    full = design(run)
    assert probe_nodes(full.instance) + full.report.nodes_explored < 257
    out = tmp_path / "o"
    code = main(["design", "--preset", "hotspot", "--out-dir", str(out),
                 "--time-limit", "0"])
    assert code == 3
    assert sorted(p.name for p in out.iterdir()) == ["conflict.csv", "manifest.txt"]
    assert "status = limit\n" in (out / "manifest.txt").read_text()


def test_design_failures_print_the_exit_prefix(tmp_path, config_file, capsys):
    code = main(["design", "--config", str(config_file), "--out-dir", str(tmp_path / "i"),
                 "--window-size", "50", "--buses", "1"])
    assert code == 2
    assert capsys.readouterr().err == "infeasible: no feasible binding exists on 1 buses\n"
    code = main(["design", "--preset", "hotspot", "--out-dir", str(tmp_path / "l"),
                 "--time-limit", "0"])
    assert code == 3
    assert capsys.readouterr().err == ("solver limit: bus-count search stopped with "
                                       "proven bounds [2, 4]: time limit exhausted\n")


def test_negative_time_limit_is_a_usage_error(tmp_path, capsys):
    code = main(["design", "--preset", "hotspot", "--out-dir", str(tmp_path / "o"),
                 "--time-limit", "-1"])
    assert code == 1
    assert "time_limit_s must be >= 0" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_nan_time_limit_is_a_usage_error(tmp_path, capsys):
    # no deadline is ever reached by NaN, so the budget would be silently off
    code = main(["design", "--preset", "hotspot", "--out-dir", str(tmp_path / "o"),
                 "--time-limit", "nan"])
    assert code == 1
    assert capsys.readouterr().err == "error: time_limit_s must be >= 0, got nan\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["gen", "design", "simulate", "compare-bindings"])
def test_negative_seed_is_rejected_before_any_work(tmp_path, capsys, command):
    out = tmp_path / "o"
    assert main([command, "--preset", "hotspot", "--seed", "-1", "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err == "error: --seed must be non-negative, got -1\n"
    assert not out.exists()


def test_negative_seed_on_a_trace_writes_nothing(tmp_path, capsys):
    # the seed drives only compare-bindings' sampler here, which runs after
    # the design; the check must come before the design writes anything
    path = tmp_path / "t.csv"
    save_trace(loose_pair_trace(), path)
    out = tmp_path / "o"
    assert main(["compare-bindings", "--trace", str(path), "--out-dir", str(out),
                 "--window-size", "50", "--seed", "-1"]) == 1
    assert capsys.readouterr().err == "error: --seed must be non-negative, got -1\n"
    assert not out.exists()


def test_negative_seed_in_a_config_file_names_the_field(tmp_path, capsys):
    cfg = tmp_path / "spec.cfg"
    cfg.write_text(spec_to_text(tiny_spec()).replace("seed = 3", "seed = -5"))
    out = tmp_path / "o"
    assert main(["design", "--config", str(cfg), "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {cfg}: seed must be non-negative, got -5\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["design", "gen"])
def test_config_cycle_count_past_int64_exits_one(tmp_path, capsys, command):
    # the row bound alone admits this spec: about ten rows
    cfg = tmp_path / "big.cfg"
    cfg.write_text(spec_to_text(tiny_spec(num_initiators=1, num_targets=1))
                   .replace("burst_len_mean = 50", f"burst_len_mean = {10**400}")
                   .replace("horizon = 1000", f"horizon = {10**401}"))
    out = tmp_path / "o"
    assert main([command, "--config", str(cfg), "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: {cfg}: burst_len_mean must be below 2**63 cycles\n")
    assert not out.exists()


@pytest.mark.parametrize("text, message", [
    ("num_initiators 3\n", ":1: expected key = value, got 'num_initiators 3'"),
    ("num_initiators = x\n", ":1: bad value for num_initiators: 'x'"),
    ("num_initiators = 3\n", ": missing required keys: num_targets, burst_len_mean, "
     "burst_len_jitter, inter_burst_gap_mean, phase_correlation, shared_target_ids, "
     "critical_stream_pairs, horizon, seed"),
], ids=["no-equals", "bad-value", "missing-keys"])
def test_malformed_config_line_exits_one(tmp_path, capsys, text, message):
    """A line fault is named ``<path>:<line>:``, a whole-file one ``<path>:``."""
    cfg = tmp_path / "spec.cfg"
    cfg.write_text(text)
    out = tmp_path / "o"
    assert main(["design", "--config", str(cfg), "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {cfg}{message}\n"
    assert not out.exists()


def test_zero_random_bindings_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["compare-bindings", "--preset", "hotspot", "--num-random", "0",
                 "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err == "error: num_random must be >= 1\n"
    assert not out.exists()


@pytest.mark.parametrize("command, rows", [
    ("design", ["9223372036854775800,100,1,1,req,0"]),
    ("simulate", ["0,4611686018427387905,1,1,req,0", "0,4611686018427387905,2,1,req,0"]),
], ids=["end", "total-duration"])
def test_cycles_reaching_2_63_exit_one(tmp_path, capsys, command, rows):
    # an end past int64 once broke profiling; a wrapped completion, the latencies
    path = tmp_path / "t.csv"
    path.write_text("#xbar-trace v1,initiators=2,targets=1\n" + "\n".join(rows) + "\n")
    out = tmp_path / "o"
    assert main([command, "--trace", str(path), "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: last start cycle plus total duration is ")
    assert err.endswith(", not below 2**63\n") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["analyze", "design", "sweep-window", "export-lp"])
def test_a_profile_past_its_cell_cap_is_refused(tmp_path, capsys, command):
    # one transaction at cycle 10**15: at ws 1 its profile would span 10**15
    # windows, 7 PiB of busy counts
    path = tmp_path / "far.csv"
    path.write_text("#xbar-trace v1,initiators=1,targets=1\n1000000000000000,5,1,1,req,0\n")
    out = tmp_path / "o"
    argv = [command, "--trace", str(path), "--window-size", "1", "--out-dir", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        "error: a profile of 1 targets x 1000000000000005 windows exceeds "
        f"{MAX_PROFILE_CELLS} target-windows; use a larger window size\n")
    assert not out.exists()


WIDE_TRACE = "#xbar-trace v1,initiators=1,targets=33\n0,5,1,1,req,0\n"


@pytest.mark.parametrize("command", ["design", "sweep-window", "sweep-threshold",
                                     "compare-bindings", "export-lp"])
def test_more_targets_than_the_solver_takes_are_refused_before_profiling(
        tmp_path, capsys, monkeypatch, command):
    def profile(*args):
        raise AssertionError("a trace the solver cannot take was profiled")

    monkeypatch.setattr(cli, "profile", profile)
    path = tmp_path / "wide.csv"
    path.write_text(WIDE_TRACE)
    out = tmp_path / "o"
    assert main([command, "--trace", str(path), "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: 33 targets exceeds the largest supported crossbar (32)\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["analyze", "simulate"])
def test_inspection_takes_more_targets_than_the_solver(tmp_path, command):
    path = tmp_path / "wide.csv"
    path.write_text(WIDE_TRACE)
    assert main([command, "--trace", str(path), "--out-dir", str(tmp_path / "o")]) == 0


@pytest.mark.parametrize("body, lineno, message", [
    (b"0,0,1,1,req,0\n", 2, "non-positive duration 0"),
    (b"0,5,1,1,req,0\n\xff\n", 3,
     "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    (b"0,5,1,1,req,0\f\n0,0,1,1,req,0\n", 3, "non-positive duration 0"),
], ids=["zero-duration", "not-utf-8", "form-feed"])
def test_malformed_trace_body_names_its_line(tmp_path, capsys, body, lineno, message):
    # a line ends at \n alone and is decoded on its own, so a stray byte or a
    # form feed neither hides the line number nor shifts the ones after it
    path = tmp_path / "t.csv"
    path.write_bytes(b"#xbar-trace v1,initiators=1,targets=1\n" + body)
    out = tmp_path / "o"
    assert main(["design", "--trace", str(path), "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {path}:{lineno}: {message}\n"
    assert not out.exists()


def mat2like_run(out_dir, node_limit=None):
    # default analysis knobs: probes 7/5/4/3 all feasible, then a short
    # binding search, so every solve phase has nodes to cut
    return RunConfig(benchmark_preset("mat2like"), AnalysisParams(1000, 0.3),
                     limits=SolverLimits(node_limit=node_limit), out_dir=out_dir)


def design_mat2like(out_dir, node_limit=None):
    return design(mat2like_run(out_dir, node_limit))


def probe_nodes(inst):
    budget = SearchBudget()
    min_config(inst, budget)
    return budget.nodes


def test_node_limit_bounds_the_whole_solve(tmp_path):
    full = design_mat2like(tmp_path / "full")
    assert full.error is None
    probes, binding = probe_nodes(full.instance), full.report.nodes_explored
    limit = max(probes, binding) + 1
    assert limit < probes + binding  # each phase fits alone, not both
    cut = design_mat2like(tmp_path / "cut", node_limit=limit)
    assert isinstance(cut.error, SolverLimitReached)
    assert "status = limit" in (tmp_path / "cut" / "manifest.txt").read_text()


def test_a_solver_limit_bounds_each_sweep_point(tmp_path):
    """A limit bounds the solve of each sweep point, not the sweep: a sweep
    of P points may take P times it.  Each point here fits the node limit
    alone, and the two together do not."""
    nodes = {}
    for ws in (1000, 2000):
        alone = design(RunConfig(benchmark_preset("mat2like"), AnalysisParams(ws, 0.3),
                                 out_dir=tmp_path / f"alone_{ws}"))
        nodes[ws] = probe_nodes(alone.instance) + alone.report.nodes_explored
    limit = max(nodes.values())
    assert limit < sum(nodes.values())
    path = cli.sweep_window(mat2like_run(tmp_path / "o", limit), [*nodes])
    assert [r[4] for r in read_csv(path)[1:]] == ["ok", "ok"]
    # one node fewer cuts the larger point only
    path = cli.sweep_window(mat2like_run(tmp_path / "cut", limit - 1), [*nodes])
    assert [r[4] == "ok" for r in read_csv(path)[1:]] == [n < limit for n in nodes.values()]


def test_limit_after_feasible_probe_writes_witness(tmp_path):
    full = design_mat2like(tmp_path / "full")
    (b1, ok1), (b2, ok2) = full.report.feasibility_probes[:2]
    assert ok1 and ok2 and b2 < b1
    budget = SearchBudget()
    check_feasible(full.instance, b1, budget)
    _, witness = check_feasible(full.instance, b2, budget)
    out = tmp_path / "cut"
    cut = design_mat2like(out, node_limit=budget.nodes)
    assert isinstance(cut.error, SolverLimitReached)
    assert cut.report.config == witness
    report = json.loads((out / "solve_report.json").read_text())
    assert report["optimal"] is False
    assert report["num_buses"] == b2
    assert report["feasibility_probes"] == [[b1, True], [b2, True]]
    assert (out / "comparison.csv").exists()


def test_seed_search_cut_writes_last_probe_witness(tmp_path):
    # the budget ends one node into optimal_binding's seed search, after the
    # last min_config probe proved the same bus count feasible
    full = design_mat2like(tmp_path / "full")
    inst, probes = full.instance, full.report.feasibility_probes
    buses = full.report.config.num_buses
    assert probes[-1] == (buses, True)
    _, witness = check_feasible(inst, buses)
    out = tmp_path / "cut"
    cut = design_mat2like(out, node_limit=probe_nodes(inst) + 1)
    assert isinstance(cut.error, SolverLimitReached)
    assert cut.report.config == witness
    assert not cut.report.optimal
    report = json.loads((out / "solve_report.json").read_text())
    assert report["optimal"] is False
    assert report["num_buses"] == buses
    assert report["feasibility_probes"] == [list(p) for p in probes]
    assert (out / "comparison.csv").exists()
    assert "optimal = False" in (out / "manifest.txt").read_text()


def test_bus_override_seed_cut_writes_no_incumbent(tmp_path):
    # with --buses there is no bus-count witness to fall back on
    full = design_mat2like(tmp_path / "full")
    run = RunConfig(benchmark_preset("mat2like"), AnalysisParams(1000, 0.3),
                    limits=SolverLimits(node_limit=1), out_dir=tmp_path / "cut",
                    buses_override=full.report.config.num_buses)
    cut = design(run)
    assert isinstance(cut.error, SolverLimitReached)
    assert cut.report is None and cut.replays == {}
    out = tmp_path / "cut"
    assert sorted(p.name for p in out.iterdir()) == ["conflict.csv", "manifest.txt"]
    manifest = (out / "manifest.txt").read_text()
    assert "status = limit\n" in manifest
    assert "stopped before any incumbent was found: node limit 1 exhausted\n" in manifest
    assert "num_buses" not in manifest


def test_design_cuts_leave_no_frame_in_a_cycle(tmp_path):
    """A design cut in any phase keeps its error, but no traceback of the
    search it stopped, whose frames would tie design's frame, the profile
    included, into a reference cycle.  (``json.dump`` with ``indent``
    leaves cycles of its own, so only frames are looked for.)"""
    full = design_mat2like(tmp_path / "full")
    probes = probe_nodes(full.instance)
    total = probes + full.report.nodes_explored
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for limit in (5, probes + 1, (probes + total) // 2, total - 1):
            cut = design_mat2like(tmp_path / str(limit), node_limit=limit)
            assert isinstance(cut.error, SolverLimitReached)
            del cut
            gc.collect()
            assert [o for o in gc.garbage if isinstance(o, types.FrameType)] == [], limit
            gc.garbage.clear()
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()


def test_cut_tie_break_exits_three(tmp_path):
    full = design_mat2like(tmp_path / "full")
    inst, buses = full.instance, full.report.config.num_buses
    limit = probe_nodes(inst) + nodes_before_tie_break(inst, buses)
    out = tmp_path / "cut"
    cut = design_mat2like(out, node_limit=limit)
    assert isinstance(cut.error, SolverLimitReached)
    assert str(cut.error) == ("solver limit hit in the tie-break; maxov is proven optimal "
                              "but the binding is not the canonical one")
    assert cut.report.optimal
    assert cut.report.maxov == full.report.maxov
    manifest = (out / "manifest.txt").read_text()
    assert "status = limit" in manifest
    assert "optimal = True" in manifest
    assert "not the canonical one" in manifest


def test_wall_time_covers_the_whole_solve(tmp_path, monkeypatch):
    # with each bus-count probe slowed by 50 ms, the report's wall time
    # holds the probes too, not the binding search alone
    check_feasible = solver.check_feasible

    def slow_check_feasible(*args, **kwargs):
        time.sleep(0.05)
        return check_feasible(*args, **kwargs)

    monkeypatch.setattr(solver, "check_feasible", slow_check_feasible)
    outcome = design_mat2like(tmp_path)
    report = json.loads((tmp_path / "solve_report.json").read_text())
    assert report["feasibility_probes"] == [[7, True], [5, True], [4, True], [3, True]]
    assert report["wall_time_s"] >= 0.05 * 4
    with pytest.raises(dataclasses.FrozenInstanceError):
        outcome.report.wall_time_s = 0.0


def test_design_on_csv_builds_no_transaction_objects(tmp_path, count_transactions):
    path = tmp_path / "t.csv"
    save_trace(loose_pair_trace(), path)
    count_transactions.clear()
    assert main(["design", "--trace", str(path), "--out-dir", str(tmp_path / "o"),
                 "--window-size", "50"]) == 0
    assert (tmp_path / "o" / "comparison.csv").exists()
    assert count_transactions == []


def test_design_on_header_only_trace(tmp_path):
    path = tmp_path / "t.csv"
    save_trace(Trace(2, 3), path)
    out = tmp_path / "o"
    assert main(["design", "--trace", str(path), "--out-dir", str(out)]) == 0
    report = json.loads((out / "solve_report.json").read_text())
    assert (report["num_buses"], report["maxov"], report["binding"]) == (1, 0, [1, 1, 1])
    rows = read_csv(out / "comparison.csv")
    assert [r[0] for r in rows[1:]] == ["shared", "designed", "full"]
    assert all(r[2] == "0.000000" and r[3] == "0" for r in rows[1:])


def test_compare_bindings_on_header_only_trace(tmp_path, capsys):
    # every average is 0, so each random binding ties the optimum
    path = tmp_path / "t.csv"
    save_trace(Trace(2, 3), path)
    out = tmp_path / "o"
    assert main(["compare-bindings", "--trace", str(path), "--num-random", "2",
                 "--out-dir", str(out)]) == 0
    assert read_csv(out / "binding_compare.csv")[1:] == [
        [scheme, "0.000000", "1.000000"]
        for scheme in ("optimal", "random_1", "random_2", "random_mean")]
    assert capsys.readouterr().out.startswith(
        "optimal avg 0.00; mean random/optimal ratio 1.000 over 2 samples\n")


def test_design_at_window_size_one(tmp_path):
    path = tmp_path / "t.csv"
    save_trace(loose_pair_trace(), path)
    run = RunConfig(path, AnalysisParams(1, 0.3), out_dir=tmp_path / "o")
    outcome = design(run)
    assert outcome.error is None
    assert outcome.instance.comm.shape == (4, outcome.trace.horizon)
    assert validate_binding(outcome.instance, outcome.report.config) == []
    # targets 1 and 2 are busy in the same cycles, so they need two buses
    assert outcome.report.config.binding[0] != outcome.report.config.binding[1]
    assert outcome.report.optimal


def test_design_one_target_per_bus_is_the_full_crossbar(tmp_path):
    # the cardinality bound is T, so no bus-count probe runs
    out = tmp_path / "o"
    assert main(["design", "--preset", "hotspot", "--max-targets-per-bus", "1",
                 "--out-dir", str(out)]) == 0
    report = json.loads((out / "solve_report.json").read_text())
    assert (report["num_buses"], report["binding"], report["maxov"],
            report["feasibility_probes"]) == (4, [1, 2, 3, 4], 0, [])
    rows = read_csv(out / "comparison.csv")
    assert [r[0] for r in rows[2:]] == ["designed", "full"] and rows[2][1:] == rows[3][1:]


@pytest.mark.parametrize("critical, buses", [(True, 3), (False, 1)])
def test_design_separates_every_pair_of_overlapping_critical_streams(
        tmp_path, critical, buses):
    # each pair overlaps for 10 cycles, far below the threshold's 300 at
    # ws 1000: only the critical flag makes it conflict
    tr = trace_of(3, 3, [Transaction(0, 10, i, i, critical=critical) for i in (1, 2, 3)])
    path = tmp_path / "t.csv"
    save_trace(tr, path)
    out = tmp_path / "o"
    assert main(["design", "--trace", str(path), "--out-dir", str(out)]) == 0
    conflict = [[int(v) for v in r[1:]] for r in read_csv(out / "conflict.csv")[1:]]
    assert conflict == [[int(critical and i != j) for j in range(3)] for i in range(3)]
    assert json.loads((out / "solve_report.json").read_text())["num_buses"] == buses


def test_design_takes_thirty_two_targets(tmp_path):
    """T = 32, the largest solve: the odd targets are busy in the first half
    of each 10-cycle window and the even ones in the second, so each odd
    target pairs with the even one after it on its own bus."""
    txs = [Transaction(10 * m + 5 * (t % 2 == 0), 5, 1, t)
           for m in range(4) for t in range(1, 33)]
    path = tmp_path / "t.csv"
    save_trace(trace_of(1, 32, txs), path)
    out = tmp_path / "o"
    assert main(["design", "--trace", str(path), "--window-size", "10",
                 "--out-dir", str(out)]) == 0
    report = json.loads((out / "solve_report.json").read_text())
    assert (report["num_buses"], report["maxov"], report["optimal"]) == (16, 0, True)
    assert report["binding"] == [k for k in range(1, 17) for _ in range(2)]


def test_saturated_target_still_fits_one_window(tmp_path):
    # occupancy equal to the window size sits exactly on the bandwidth cap
    tr = trace_of(1, 1, [Transaction(0, 100, 1, 1)])
    path = tmp_path / "t.csv"
    save_trace(tr, path)
    out = tmp_path / "o"
    code = main(["design", "--trace", str(path), "--out-dir", str(out),
                 "--window-size", "10"])
    assert code == 0
    assert json.loads((out / "solve_report.json").read_text())["num_buses"] == 1


def test_simulate_baselines_and_binding(tmp_path, config_file, capsys):
    out = tmp_path / "o"
    code = main(["simulate", "--config", str(config_file), "--out-dir", str(out),
                 "--binding", "1,2,1"])
    assert code == 0
    printed = capsys.readouterr().out
    assert "shared" in printed and "full" in printed
    assert "   bound: buses=2 " in printed  # max(binding) buses
    rows = read_csv(out / "latency.csv")
    assert rows[0] == ["config", "txn", "latency"]
    assert {r[0] for r in rows[1:]} == {"shared", "full", "bound"}


def csv_writer_latency(trace, configs) -> bytes:
    """``latency.csv`` as ``csv.writer`` writes it for the named replays."""
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(["config", "txn", "latency"])
    for name, config in configs:
        writer.writerows([name, i, lat] for i, lat in
                         enumerate(simulate(trace, config).per_transaction_latency))
    return expected.getvalue().encode()


TINY_REPLAYS = [("shared", shared_bus_config(3)), ("full", full_crossbar_config(3)),
                ("bound", CrossbarConfig(2, (1, 2, 1)))]


def test_latency_csv_bytes_match_csv_writer(tmp_path, config_file):
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(config_file), "--out-dir", str(out),
                 "--binding", "1,2,1"]) == 0
    trace = generate(tiny_spec())
    assert len(trace.transactions) > 10
    assert (out / "latency.csv").read_bytes() == csv_writer_latency(trace, TINY_REPLAYS)


def test_latency_csv_written_in_row_blocks(tmp_path, config_file, monkeypatch):
    # in blocks of 4 rows each replay crosses several block edges and ends
    # in a short block
    monkeypatch.setattr(trace_module, "_ROW_BLOCK", 4)
    trace = generate(tiny_spec())
    assert len(trace.start) > 8 and len(trace.start) % 4
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(config_file), "--out-dir", str(out),
                 "--binding", "1,2,1"]) == 0
    assert (out / "latency.csv").read_bytes() == csv_writer_latency(trace, TINY_REPLAYS)


def test_simulate_replays_a_binding_equal_to_a_baseline_once(tmp_path, monkeypatch):
    calls = []

    def counted(trace, config):
        calls.append(config)
        return simulate(trace, config)

    for module in (cli, sim):
        monkeypatch.setattr(module, "simulate", counted)
    out = tmp_path / "o"
    assert main(["simulate", "--preset", "hotspot", "--binding", "1,1,1,1",
                 "--out-dir", str(out)]) == 0
    assert calls == [shared_bus_config(4), full_crossbar_config(4)]
    # the bytes written when each of the three configs had its own replay
    digest = hashlib.sha256((out / "latency.csv").read_bytes()).hexdigest()
    assert digest == "e84c0062ee667ac8d140f17a2353d3bc33c4516857c3e58620bad745c24e9216"


def test_simulate_bad_binding_length(tmp_path, config_file):
    assert main(["simulate", "--config", str(config_file), "--out-dir", str(tmp_path),
                 "--binding", "1,2"]) == 1


def test_direction_resp_swaps_roles(tmp_path):
    # response flow: the two masters become the bound targets
    tr_resp = trace_of(
        3, 2,
        [Transaction(0, 5, 1, 1, direction="resp"), Transaction(0, 7, 2, 2, direction="resp")],
    )
    path = tmp_path / "t.csv"
    save_trace(tr_resp, path)
    out = tmp_path / "o"
    assert main(["analyze", "--trace", str(path), "--direction", "resp",
                 "--out-dir", str(out), "--window-size", "10"]) == 0
    comm = read_csv(out / "comm.csv")
    assert len(comm) - 1 == 2  # two targets in the response frame
    assert [r[1] for r in comm[1:]] == ["5", "7"]


def test_request_view_of_mixed_trace_drops_responses(tmp_path):
    lines = [
        "#xbar-trace v1,initiators=2,targets=2",
        "0,5,1,1,req,0",
        "0,7,1,2,resp,0",
        "9,4,2,2,req,0",
    ]
    path = tmp_path / "t.csv"
    path.write_text("\n".join(lines) + "\n")
    out = tmp_path / "o"
    assert main(["analyze", "--trace", str(path), "--out-dir", str(out),
                 "--window-size", "20"]) == 0
    comm = read_csv(out / "comm.csv")
    assert [r[1] for r in comm[1:]] == ["5", "4"]


def test_sweep_window_rows_and_subdirs(tmp_path, config_file):
    out = tmp_path / "o"
    assert main(["sweep-window", "--config", str(config_file), "--out-dir", str(out),
                 "--ws-list", "25,50,400"]) == 0
    rows = read_csv(out / "sweep_window.csv")
    assert [r[0] for r in rows[1:]] == ["25", "50", "400"]
    assert all(r[4] == "ok" for r in rows[1:])
    assert (out / "ws_50" / "solve_report.json").exists()
    counts = [int(r[1]) for r in rows[1:]]
    assert counts[0] >= counts[-1]  # coarser windows never need more buses here


def test_sweep_window_records_per_point_failures(tmp_path):
    # overlapping targets pinned to one bus: conflicts at WS 10, legal at WS 100
    tr = trace_of(2, 2, [Transaction(0, 10, 1, 1), Transaction(5, 10, 2, 2)])
    path = tmp_path / "t.csv"
    save_trace(tr, path)
    out = tmp_path / "o"
    assert main(["sweep-window", "--trace", str(path), "--out-dir", str(out),
                 "--ws-list", "10,100", "--buses", "1"]) == 0
    rows = read_csv(out / "sweep_window.csv")
    assert "no feasible binding" in rows[1][4]
    assert rows[1][1] == ""  # no bus count on the failed point
    assert rows[2][4] == "ok"


def test_sweep_threshold_conflict_counts_non_increasing(tmp_path, config_file):
    out = tmp_path / "o"
    assert main(["sweep-threshold", "--config", str(config_file), "--out-dir", str(out),
                 "--window-size", "50", "--theta-list", "0.1,0.3,0.5"]) == 0
    rows = read_csv(out / "sweep_threshold.csv")
    pairs = [int(r[2]) for r in rows[1:]]
    assert pairs == sorted(pairs, reverse=True)


def test_sweeps_load_and_profile_once(tmp_path, config_file, monkeypatch):
    calls = {"generate": 0, "profile": 0}
    for name in calls:
        original = getattr(cli, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(cli, name, counted)
    out = tmp_path / "o"
    assert main(["sweep-window", "--config", str(config_file), "--out-dir", str(out / "w"),
                 "--ws-list", "25,50,400"]) == 0
    assert calls == {"generate": 1, "profile": 3}
    assert main(["sweep-threshold", "--config", str(config_file), "--out-dir", str(out / "t"),
                 "--window-size", "50", "--theta-list", "0.1,0.3,0.5"]) == 0
    assert calls == {"generate": 2, "profile": 4}
    # every point's artifacts are those of a design run on its own
    for sub, flags in [("w/ws_25", ["--window-size", "25"]),
                       ("t/theta_0.300000", ["--window-size", "50",
                                             "--overlap-threshold", "0.3"])]:
        alone = tmp_path / "alone" / sub
        assert main(["design", "--config", str(config_file), "--out-dir", str(alone)]
                    + flags) == 0
        for name in ("conflict.csv", "comparison.csv", "manifest.txt"):
            assert (out / sub / name).read_bytes() == (alone / name).read_bytes(), name
        a, b = (json.loads((d / "solve_report.json").read_text()) for d in (out / sub, alone))
        a.pop("wall_time_s"), b.pop("wall_time_s")
        assert a == b


@pytest.mark.parametrize("window_size, points", [
    ("1", ["1", "2", "4", "8"]),
    ("3", ["1", "3", "6", "12", "24"]),
    ("4", ["1", "2", "4", "8", "16", "32"]),
    (str(1 << 61), [str(1 << 59), str(1 << 60), str(1 << 61), str(1 << 62)]),
])
def test_sweep_window_default_list_drops_repeated_sizes(tmp_path, window_size, points):
    """ws x 0.25, 0.5, 1, 2, 4, 8 floored at 1 repeats sizes below ws 4, and
    reaches 2**63 from ws 2**60: both are dropped, not refused."""
    out = tmp_path / "o"
    assert main(["sweep-window", "--preset", "hotspot", "--window-size", window_size,
                 "--out-dir", str(out)]) == 0
    rows = read_csv(out / "sweep_window.csv")
    assert [r[0] for r in rows[1:]] == points
    assert all(r[4] == "ok" for r in rows[1:])


@pytest.mark.parametrize("argv, subdir, flags", [
    (["sweep-threshold", "--theta-list", "0.1,0.3,0.5"], "theta_{}",
     lambda label: ["--overlap-threshold", label]),
    (["sweep-window", "--ws-list", "250,500,1000"], "ws_{}",
     lambda label: ["--window-size", label]),
], ids=["threshold", "window"])
def test_sweep_replays_each_config_once(tmp_path, monkeypatch, argv, subdir, flags):
    """The baselines are replayed once per sweep, and a designed config once
    however many points design it; every point's comparison is a design's."""
    calls = []

    def counted(trace, config):
        calls.append(config)
        return simulate(trace, config)

    monkeypatch.setattr(sim, "simulate", counted)
    out = tmp_path / "o"
    assert main(argv + ["--preset", "mat2like", "--out-dir", str(out)]) == 0
    labels = [r[0] for r in read_csv(out / f"{argv[0].replace('-', '_')}.csv")[1:]]
    designed = set()
    for label in labels:
        report = json.loads((out / subdir.format(label) / "solve_report.json").read_text())
        designed.add(CrossbarConfig(report["num_buses"], tuple(report["binding"])))
    baselines = {shared_bus_config(12), full_crossbar_config(12)}
    assert len(designed) < len(labels)  # some config repeats across points
    assert len(calls) == 2 + len(designed - baselines)
    assert len(set(calls)) == len(calls)
    for label in labels:
        alone = tmp_path / "alone" / label
        assert main(["design", "--preset", "mat2like", "--out-dir", str(alone)]
                    + flags(label)) == 0
        assert ((out / subdir.format(label) / "comparison.csv").read_bytes()
                == (alone / "comparison.csv").read_bytes())


@pytest.mark.parametrize("command, extra, message", [
    ("sweep-window", ["--ws-list", "500,0"], "window size must be >= 1 cycle"),
    ("sweep-threshold", ["--theta-list", "0.2,0.9"], (
        "overlap threshold must be in (0, 0.5], got 0.9 "
        "(pairs overlapping more than 50% of a window cannot share a bus)")),
    ("sweep-window", ["--ws-list", "500,1000", "--buses", "0"], "bus count 0 outside 1..4"),
    ("sweep-window", ["--ws-list", "500,1000", "--buses", "9"], "bus count 9 outside 1..4"),
    ("sweep-threshold", ["--theta-list", "0.2,0.3", "--buses", "0"], "bus count 0 outside 1..4"),
    ("sweep-threshold", ["--theta-list", "0.2,0.3", "--buses", "9"], "bus count 9 outside 1..4"),
    ("sweep-window", ["--ws-list", "1000,500,500"], "sweep point 500 is listed twice"),
    ("sweep-threshold", ["--theta-list", "0.3,0.1,0.1000001"],
     "sweep point 0.100000 is listed twice"),
    ("sweep-window", ["--ws-list", ","], "ws_list must be nonempty"),
    ("sweep-threshold", ["--theta-list", ","], "theta_list must be nonempty"),
    ("sweep-window", ["--ws-list", "500,9223372036854775808"],
     "window size must be below 2**63 cycles, got 9223372036854775808"),
    ("sweep-window", ["--ws-list", "500,10000000000000000000"],
     "window size must be below 2**63 cycles, got 10000000000000000000"),
])
def test_sweep_usage_errors_exit_one_before_any_point(tmp_path, capsys, command, extra,
                                                       message):
    """A bad list entry or --buses fails as design does: exit 1, nothing written.
    So do two entries with one label, which would share one point dir."""
    out = tmp_path / "o"
    assert main([command, "--preset", "hotspot", "--out-dir", str(out)] + extra) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command, text", [
    ("sweep-window", "500.7"),
    ("sweep-window", "2e3"),
    ("sweep-window", "1000,500,500.7"),
    ("sweep-window", "500,1e400"),
    ("sweep-window", "500,1e19"),
    ("sweep-threshold", "0.1,x"),
])
def test_bad_list_entry_is_a_parse_error(tmp_path, capsys, command, text):
    """A list entry is read like its single-value option: a window size is
    an int, as --window-size is, and a threshold a float."""
    out = tmp_path / "o"
    option, kind = {"sweep-window": ("--ws-list", "int"),
                    "sweep-threshold": ("--theta-list", "float")}[command]
    assert main([command, "--preset", "hotspot", "--out-dir", str(out), option, text]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"usage: xbarsynth {command} ")
    assert err.endswith(f"xbarsynth {command}: error: argument {option}: "
                        f"invalid {kind} value: '{text}'\n")
    assert not out.exists()


@pytest.mark.parametrize("command, option, message", [
    ("sweep-window", "--ws-list", "ws_list must be nonempty"),
    ("sweep-threshold", "--theta-list", "theta_list must be nonempty"),
])
def test_an_empty_sweep_list_is_a_usage_error(tmp_path, capsys, command, option, message):
    """An empty list holds no point, as one of only blank entries does."""
    out = tmp_path / "o"
    assert main([command, "--preset", "hotspot", "--out-dir", str(out), option, ""]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_default_window_list_is_exact_past_2_53(tmp_path):
    """The default sizes are integer multiples and quotients of the base."""
    out = tmp_path / "o"
    assert main(["sweep-window", "--preset", "hotspot", "--window-size", "9007199254740995",
                 "--out-dir", str(out)]) == 0
    rows = read_csv(out / "sweep_window.csv")
    assert [r[0] for r in rows[1:3]] == ["2251799813685248", "4503599627370497"]


ONE_TO_ONE = "#xbar-trace v1,initiators=1,targets=1\n"
MISSING = "[Errno 2] No such file or directory: '{path}'"
# source option, case: (file text, None for no file; the fault, given the path)
BAD_INPUTS = {
    ("--trace", "missing"): (None, MISSING),
    ("--trace", "bad-header"): (
        "#xbar-trace v2\n",
        "{path}:1: bad header, expected '#xbar-trace v1,initiators=<n>,targets=<n>'"),
    ("--trace", "malformed-row"): (ONE_TO_ONE + "0,5,1,1,req\n",
                                   "{path}:2: expected 6 fields, got 5"),
    ("--trace", "range-row"): (ONE_TO_ONE + "0,0,1,1,req,0\n",
                               "{path}:2: non-positive duration 0"),
    ("--trace", "huge-count"): (
        "#xbar-trace v1,initiators=2,targets=99999999999999999999\n0,5,1,1,req,0\n",
        "{path}:1: core counts must be at most 1024, got 2 initiators and "
        "99999999999999999999 targets"),
    ("--config", "missing"): (None, MISSING),
    ("--config", "bad-line"): ("seed = 3\nbogus\n",
                               "{path}:2: expected key = value, got 'bogus'"),
    ("--config", "huge-count"): (
        spec_to_text(tiny_spec()).replace("num_targets = 3",
                                          "num_targets = 99999999999999999999"),
        "{path}: num_initiators and num_targets must be at most 1024"),
}
TRACE_COMMANDS = ("analyze", "design", "simulate", "sweep-window", "sweep-threshold",
                  "compare-bindings", "export-lp")


@pytest.mark.parametrize("command, option, case", [
    pytest.param(command, option, case, id=f"{command}-{option[2:]}-{case}")
    for command in ("gen",) + TRACE_COMMANDS
    for option, case in BAD_INPUTS
    if command != "gen" or option == "--config"
])
def test_bad_input_fails_every_subcommand_one_way(tmp_path, capsys, command, option, case):
    """A missing or malformed input file fails every subcommand that reads
    one, the sweeps included, as it fails design: exit 1, one error line
    naming the file, and nothing written."""
    text, fault = BAD_INPUTS[option, case]
    path = tmp_path / "input"
    if text is not None:
        path.write_text(text)
    out = tmp_path / "o"
    assert main([command, option, str(path), "--out-dir", str(out)]) == 1
    assert capsys.readouterr() == ("", f"error: {fault.format(path=path)}\n")
    assert not out.exists()


COUNTS = st.one_of(st.integers(0, 3), st.just(99999999999999999999))
ROWS = st.lists(st.tuples(st.integers(-1, 40), st.integers(0, 20), st.integers(0, 3),
                          st.integers(0, 3), st.sampled_from(["req", "resp", "both"]),
                          st.sampled_from(["0", "1", "2"])), max_size=5)


@settings(max_examples=60, deadline=None)
@given(command=st.sampled_from(TRACE_COMMANDS), counts=st.tuples(COUNTS, COUNTS), rows=ROWS,
       direction=st.sampled_from(["req", "resp"]))
@example(command="simulate", counts=(2, 99999999999999999999), rows=[(0, 5, 1, 1, "req", "0")],
         direction="req")
def test_main_never_raises_on_a_trace_file(command, counts, rows, direction):
    """Whatever a trace file declares and holds, main returns an exit code."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        path.write_text(f"#xbar-trace v1,initiators={counts[0]},targets={counts[1]}\n"
                        + "".join(",".join(map(str, row)) + "\n" for row in rows))
        argv = [command, "--trace", str(path), "--direction", direction,
                "--out-dir", str(Path(tmp) / "o")]
        if command != "simulate":  # the one that takes no window size
            argv += ["--window-size", "10"]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(argv) in (0, 1, 2, 3)


def loose_pair_trace():
    """Targets 1,2 conflict heavily; 3,4 are light and placeable anywhere."""
    txs = []
    for start in range(0, 400, 100):
        txs.append(Transaction(start, 50, 1, 1))
        txs.append(Transaction(start, 50, 2, 2))
    txs.append(Transaction(60, 5, 3, 3))
    txs.append(Transaction(160, 5, 4, 4))
    return trace_of(4, 4, txs)


@pytest.mark.parametrize("num_targets", [1, 7, 12, 13, 32])
@pytest.mark.parametrize("num_buses", [2, 3, 5, 7, 32])
def test_binding_draws_are_one_integers_call_each(num_targets, num_buses):
    # blocks of draws reproduce the stream of one call per binding
    draws = cli.binding_draws(np.random.Generator(np.random.PCG64(11)), num_targets, num_buses)
    rng = np.random.Generator(np.random.PCG64(11))
    count = 2 * cli._DRAW_BLOCK + 5
    assert [next(draws) for _ in range(count)] == [
        tuple(rng.integers(1, num_buses + 1, num_targets).tolist()) for _ in range(count)]


def test_compare_bindings_artifact(tmp_path):
    path = tmp_path / "t.csv"
    save_trace(loose_pair_trace(), path)
    out = tmp_path / "o"
    code = main(["compare-bindings", "--trace", str(path), "--out-dir", str(out),
                 "--window-size", "50", "--num-random", "3"])
    assert code == 0
    rows = read_csv(out / "binding_compare.csv")
    assert rows[1][0] == "optimal"
    assert rows[-1][0] == "random_mean"
    assert len(rows) == 2 + 3 + 1  # header, optimal, randoms, mean
    # here every feasible binding sees zero queuing, so all ratios collapse
    for r in rows[1:]:
        assert float(r[2]) == pytest.approx(1.0)


def test_compare_bindings_reports_tight_instances(tmp_path, capsys):
    # 12 lockstep targets force full isolation; a uniform draw over 12^12
    # assignments never finds a permutation within the rejection budget
    txs = [Transaction(s, 50, i, i) for s in range(0, 400, 100) for i in range(1, 13)]
    path = tmp_path / "t.csv"
    save_trace(trace_of(12, 12, txs), path)
    code = main(["compare-bindings", "--trace", str(path),
                 "--out-dir", str(tmp_path / "o"), "--window-size", "50",
                 "--num-random", "2"])
    assert code == 3  # the draw budget ran out; the instance is feasible
    assert "no feasible random binding" in capsys.readouterr().err


def test_compare_bindings_rejects_a_cut_design(tmp_path):
    # the cut leaves an unproven incumbent: no row may call it optimal
    out = tmp_path / "o"
    with pytest.raises(SolverLimitReached) as err:
        compare_bindings(mat2like_run(out, 100), 2)
    assert err.value.incumbent is not None and not err.value.incumbent.optimal
    assert "optimal = False\n" in (out / "manifest.txt").read_text()
    assert not (out / "binding_compare.csv").exists()


def test_compare_bindings_cut_before_any_incumbent_is_a_limit(tmp_path):
    with pytest.raises(SolverLimitReached) as err:
        compare_bindings(mat2like_run(tmp_path / "o", 1), 2)
    assert not isinstance(err.value, InfeasibleError)
    assert err.value.incumbent is None
    assert str(err.value) == ("bus-count search stopped with proven bounds [3, 12]: "
                              "node limit 1 exhausted")


def test_compare_bindings_zero_time_limit_exits_three(tmp_path, capsys):
    out = tmp_path / "o"
    code = main(["compare-bindings", "--preset", "mat2like", "--out-dir", str(out),
                 "--time-limit", "0"])
    assert code == 3
    assert capsys.readouterr().err.startswith("solver limit: ")
    assert not (out / "binding_compare.csv").exists()


def test_export_lp_model(tmp_path, config_file):
    out = tmp_path / "o"
    assert main(["export-lp", "--config", str(config_file), "--out-dir", str(out),
                 "--window-size", "50"]) == 0
    text = (out / "model.lp").read_text()
    assert text.startswith("\\ partial crossbar binding")
    assert "Minimize" in text and "Subject To" in text and text.endswith("End\n")


def test_export_lp_with_bus_override(tmp_path, config_file):
    out = tmp_path / "o"
    assert main(["export-lp", "--config", str(config_file), "--out-dir", str(out),
                 "--window-size", "50", "--buses", "3"]) == 0
    assert "x_3_3" in (out / "model.lp").read_text()


def test_csv_outputs_byte_reproducible(tmp_path, config_file):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["design", "--config", str(config_file), "--out-dir", str(out),
                     "--window-size", "50"]) == 0
        outs.append(out)
    for csv_name in ("conflict.csv", "comparison.csv"):
        assert (outs[0] / csv_name).read_bytes() == (outs[1] / csv_name).read_bytes()
    a = json.loads((outs[0] / "solve_report.json").read_text())
    b = json.loads((outs[1] / "solve_report.json").read_text())
    a.pop("wall_time_s"), b.pop("wall_time_s")
    assert a == b
