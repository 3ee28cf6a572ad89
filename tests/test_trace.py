"""Trace model: parsing, validation, role swapping, stats."""

import io
import re
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xbarsynth import trace as trace_module
from xbarsynth.analysis import profile
from xbarsynth.gen import benchmark_preset, generate
from xbarsynth.sim import simulate
from xbarsynth.solver import CrossbarConfig
from xbarsynth.trace import (
    REQUEST,
    RESPONSE,
    Trace,
    TraceError,
    Transaction,
    load_trace,
    save_trace,
)

from oracles import make_random_trace, replay_simulate, trace_of, trace_stats


def write(tmp_path, body, name="t.csv"):
    path = tmp_path / name
    path.write_text(body, encoding="utf-8")
    return path


HEADER = "#xbar-trace v1,initiators=9,targets=12\n"


def test_loads_request_rows(tmp_path):
    path = write(tmp_path, HEADER + "0,5,1,2,req,0\n10,3,2,1,req,1\n5,1,9,12,req,0\n")
    tr = load_trace(path)
    assert tr.num_initiators == 9
    assert tr.num_targets == 12
    assert len(tr.transactions) == 3
    assert tr.transactions[0] == Transaction(0, 5, 1, 2, False, REQUEST)
    # sorted by start cycle: the critical row lands last
    assert [tx.start_cycle for tx in tr.transactions] == [0, 5, 10]
    assert tr.transactions[2].critical


def test_response_rows_filtered_out_for_request_direction(tmp_path):
    path = write(tmp_path, HEADER + "0,5,1,2,resp,0\n")
    tr = load_trace(path, direction=REQUEST)
    assert tr.transactions == []


def test_response_direction_swaps_roles(tmp_path):
    path = write(tmp_path, HEADER + "0,5,1,2,resp,0\n")
    tr = load_trace(path, direction=RESPONSE)
    assert tr.num_initiators == 12
    assert tr.num_targets == 9
    tx = tr.transactions[0]
    assert (tx.initiator_id, tx.target_id) == (2, 1)


def test_direction_symmetry(tmp_path):
    # a response file whose rows are role-swapped requests loads to the
    # same structural trace as the request file
    req = write(tmp_path, "#xbar-trace v1,initiators=2,targets=3\n"
                          "0,5,1,2,req,0\n4,2,2,3,req,1\n", "req.csv")
    resp = write(tmp_path, "#xbar-trace v1,initiators=3,targets=2\n"
                           "0,5,2,1,resp,0\n4,2,3,2,resp,1\n", "resp.csv")
    a = load_trace(req, REQUEST)
    b = load_trace(resp, RESPONSE)
    assert (a.num_initiators, a.num_targets) == (b.num_initiators, b.num_targets)
    key = lambda tx: (tx.start_cycle, tx.duration, tx.initiator_id, tx.target_id, tx.critical)
    assert [key(tx) for tx in a.transactions] == [key(tx) for tx in b.transactions]


def test_zero_duration_rejected_with_line_number(tmp_path):
    path = write(tmp_path, HEADER + "0,5,1,2,req,0\n3,0,1,1,req,0\n")
    with pytest.raises(TraceError, match="t.csv:3: non-positive duration 0$"):
        load_trace(path)


@pytest.mark.parametrize("row,fragment", [
    ("-1,5,1,2,req,0", "negative start"),
    ("0,5,0,2,req,0", "initiator id"),
    ("0,5,1,13,req,0", "target id"),
    ("0,5,1,2,sideways,0", "direction"),
    ("0,5,1,2,req,2", "critical"),
    ("0,5,1,2,req", "6 fields"),
    ("zero,5,1,2,req,0", "invalid literal"),
])
def test_malformed_rows_rejected(tmp_path, row, fragment):
    path = write(tmp_path, HEADER + row + "\n")
    with pytest.raises(TraceError, match=fragment):
        load_trace(path)


@pytest.mark.parametrize("row,tx,message", [
    ("3,0,1,2,req,0", Transaction(3, 0, 1, 2), "non-positive duration 0"),
    ("-1,5,1,2,req,0", Transaction(-1, 5, 1, 2), "negative start cycle -1"),
    ("0,5,10,2,req,0", Transaction(0, 5, 10, 2), "initiator id 10 outside 1..9"),
    ("0,5,1,13,req,0", Transaction(0, 5, 1, 13), "target id 13 outside 1..12"),
], ids=["duration", "start", "initiator", "target"])
def test_range_error_texts(tmp_path, row, tx, message):
    """A file and the constructor word a range error alike; the file's
    error is prefixed with its path and line once."""
    path = write(tmp_path, HEADER + row + "\n")
    with pytest.raises(TraceError) as err:
        load_trace(path)
    assert str(err.value) == f"{path}:2: {message}"
    with pytest.raises(TraceError) as err:
        trace_of(9, 12, [tx])
    assert str(err.value) == message


@pytest.mark.parametrize("body", ["", "0,5,1,1,req,0\n", "0,5,1,1,req,0\n# note\n"],
                         ids=["no-rows", "rows", "line-parsed-rows"])
@pytest.mark.parametrize("counts", ["initiators=0,targets=3", "initiators=2,targets=0"])
def test_zero_core_count_header_rejected_at_line_1(tmp_path, counts, body):
    path = write(tmp_path, f"#xbar-trace v1,{counts}\n" + body)
    for direction in (REQUEST, RESPONSE):
        with pytest.raises(TraceError) as err:
            load_trace(path, direction)
        assert str(err.value) == f"{path}:1: core counts must be positive"


@pytest.mark.parametrize("counts, declared", [
    ("initiators=1025,targets=3", "1025 initiators and 3 targets"),
    ("initiators=2,targets=99999999999999999999", "2 initiators and 99999999999999999999 targets"),
], ids=["initiators", "huge-targets"])
def test_core_counts_above_the_maximum_rejected_at_line_1(tmp_path, counts, declared):
    """One bound for both sides, since a response trace swaps them."""
    path = write(tmp_path, f"#xbar-trace v1,{counts}\n0,5,1,1,req,0\n")
    for direction in (REQUEST, RESPONSE):
        with pytest.raises(TraceError) as err:
            load_trace(path, direction)
        assert str(err.value) == f"{path}:1: core counts must be at most 1024, got {declared}"


def test_a_count_past_the_int_digit_limit_names_line_1(tmp_path):
    # Python refuses int() of over 4300 digits with a ValueError of its own
    path = write(tmp_path, "#xbar-trace v1,initiators=1,targets=" + "9" * 5000 + "\n")
    with pytest.raises(TraceError, match=f"^{re.escape(str(path))}:1: "):
        load_trace(path)


def test_core_counts_bound_the_constructor():
    assert trace_module.MAX_CORES == 1024
    for counts in [(1, 2**63), (1025, 1)]:
        with pytest.raises(TraceError, match="^core counts must be at most 1024, got "):
            Trace(*counts, [0], [5], [1], [1])
    tr = Trace(1024, 1024, [0], [5], [1024], [1024])
    assert (tr.num_initiators, tr.num_targets) == (1024, 1024)


def test_every_core_id_round_trips_through_save_load_and_simulate(tmp_path):
    # 1024 initiators and 1024 targets, each id used; the columns are int16
    n = trace_module.MAX_CORES
    ids = np.arange(1, n + 1)
    rng = np.random.Generator(np.random.PCG64(8))
    tr = Trace(n, n, rng.integers(0, 300, 3 * n), rng.integers(1, 9, 3 * n),
               np.r_[ids, rng.integers(1, n + 1, 2 * n)], np.r_[ids[::-1], ids, ids],
               rng.random(3 * n) < 0.5)
    path = tmp_path / "cores.csv"
    save_trace(tr, path)
    # a comment line sends the second copy through the line parser
    lines = path.read_text().split("\n")
    commented = write(tmp_path, "\n".join([lines[0], "# every core", *lines[1:]]), "c.csv")
    configs = [CrossbarConfig(1, (1,) * n), CrossbarConfig(3, tuple(t % 3 + 1 for t in range(n))),
               CrossbarConfig(n, tuple(range(1, n + 1)))]
    for loaded in (load_trace(path), load_trace(commented)):
        assert loaded == tr
        assert loaded.initiator.dtype == loaded.target.dtype == np.int16
        assert sorted(set(loaded.initiator.tolist())) == sorted(set(loaded.target.tolist())) \
            == ids.tolist()
        for config in configs:
            assert simulate(loaded, config).per_transaction_latency == \
                replay_simulate(tr, config)[0]


@pytest.mark.parametrize("target", [32768, 70000])
def test_target_past_int16_names_its_line(tmp_path, target):
    # the bulk parser hands the block to the line parser, whose check names the line
    path = write(tmp_path, HEADER + "0,5,1,2,req,0\n" + f"1,5,1,{target},req,0\n")
    with pytest.raises(TraceError) as err:
        load_trace(path)
    assert str(err.value) == f"{path}:3: target id {target} outside 1..12"


@pytest.mark.parametrize("rows", [
    ["9223372036854775800,100,1,1,req,0"],
    ["0,4611686018427387905,1,1,req,0", "0,4611686018427387905,2,1,req,0"],
], ids=["end", "total-duration"])
def test_cycles_reaching_2_63_rejected(tmp_path, rows):
    # past 2**63 an end or a replay's completion would wrap int64
    path = write(tmp_path, HEADER + "\n".join(rows) + "\n")
    with pytest.raises(TraceError, match=r"^last start cycle plus total duration is \d+, "
                                         r"not below 2\*\*63$"):
        load_trace(path)
    columns = np.array([[int(f) for f in row.split(",")[:4]] for row in rows]).T
    with pytest.raises(TraceError, match=r"not below 2\*\*63$"):
        Trace(9, 12, *columns)


def test_cycle_bound_is_the_last_below_2_63():
    tr = Trace(1, 1, [2**62], [2**62 - 1], [1], [1])
    assert tr.horizon == 2**63 - 1
    with pytest.raises(TraceError, match="is 9223372036854775808, not below"):
        Trace(1, 1, [2**62], [2**62], [1], [1])


def test_exact_sum_past_int64_over_several_blocks():
    n = 3 * trace_module._ROW_BLOCK + 5
    values = np.full(n, 2**62 + 2**31 + 7, dtype=np.int64)
    assert trace_module.exact_sum(values) == n * (2**62 + 2**31 + 7)
    assert trace_module.exact_sum(values[:0]) == 0


@pytest.mark.parametrize("start", ["1.5", "1e3", "-0.0", "-", "9" * 19])
def test_float_field_rejected_whatever_numpy_reads(tmp_path, monkeypatch, start):
    # A lenient number reader takes "1.5" as 1, "-" as 0 and 19 nines as
    # the int64 maximum.  The bulk guards must send the bad file to the line
    # parser, which names its line 3, while the good file loads in bulk.
    fallbacks = []
    line_parser = trace_module._parse_lines

    def counted(*args):
        fallbacks.append(1)
        return line_parser(*args)

    monkeypatch.setattr(trace_module, "_parse_lines", counted)
    path = write(tmp_path, HEADER + "0,5,1,2,req,0\n" + start + ",5,1,2,req,0\n")
    error = ("value outside the 64-bit integer range" if start.isdigit()
             else f"invalid literal .*'{re.escape(start)}'")
    with pytest.raises(TraceError, match=f"t.csv:3: {error}"):
        load_trace(path)
    assert fallbacks == [1]
    good = write(tmp_path, HEADER + "0,5,1,2,req,0\n7,5,1,2,resp,1\n", "good.csv")
    assert load_trace(good, RESPONSE).transactions == [Transaction(7, 5, 2, 1, True, RESPONSE)]
    assert fallbacks == [1]  # the good file never reached the line parser


def test_bulk_parse_in_blocks(tmp_path, monkeypatch):
    monkeypatch.setattr(trace_module, "_READ_BYTES", 45)  # blocks of 3, 3 and 2 lines
    blocks = []
    parse_block = trace_module._parse_block

    def counted(*args):
        blocks.append(1)
        return parse_block(*args)

    monkeypatch.setattr(trace_module, "_parse_block", counted)
    rows = [f"{s},{s % 4 + 1},{s % 9 + 1},{s % 12 + 1},{'resp' if s % 3 else 'req'},{s % 2}"
            for s in range(8)]
    body = HEADER + "\n".join(rows)  # no final newline
    req = [Transaction(s, s % 4 + 1, s % 9 + 1, s % 12 + 1, bool(s % 2))
           for s in range(8) if not s % 3]
    resp = [Transaction(s, s % 4 + 1, s % 12 + 1, s % 9 + 1, bool(s % 2), RESPONSE)
            for s in range(8) if s % 3]
    assert load_trace(write(tmp_path, body)).transactions == req
    assert load_trace(write(tmp_path, body), RESPONSE).transactions == resp
    assert len(blocks) == 2 * 3  # 8 lines in three blocks, parsed in bulk twice
    crlf = write(tmp_path, body.replace("\n", "\r\n"), "crlf.csv")
    assert load_trace(crlf, RESPONSE).transactions == resp
    rows[6] = "1e3" + rows[6][1:]  # third block
    with pytest.raises(TraceError, match="t.csv:8: invalid literal"):
        load_trace(write(tmp_path, HEADER + "\n".join(rows) + "\n"))


# seven canonical rows of 13 bytes each
ROWS = [f"{s},{s % 4 + 1},{s % 9 + 1},{s % 12 + 1},req,{s % 2}" for s in range(7)]
ROW_TXS = [Transaction(s, s % 4 + 1, s % 9 + 1, s % 12 + 1, bool(s % 2)) for s in range(7)]


@pytest.fixture
def small_blocks(monkeypatch):
    """Reads of 30 bytes: a block holds the two or so lines of 14 bytes a
    read completes, the line after them straddles the read's end, and
    seven such lines leave a last block of one.  Returns the number of
    bulk blocks and of line-parser fallbacks so far."""
    monkeypatch.setattr(trace_module, "_READ_BYTES", 30)
    calls = {"blocks": 0, "fallbacks": 0}
    parse_block, parse_lines = trace_module._parse_block, trace_module._parse_lines

    def counted_block(*args):
        calls["blocks"] += 1
        return parse_block(*args)

    def counted_lines(*args):
        calls["fallbacks"] += 1
        return parse_lines(*args)

    monkeypatch.setattr(trace_module, "_parse_block", counted_block)
    monkeypatch.setattr(trace_module, "_parse_lines", counted_lines)
    return calls


CANONICAL = HEADER + "\n".join(ROWS) + "\n"
RESP_ROWS = [row.replace(",req,", ",resp,") for row in ROWS]
RESP_CANONICAL = HEADER + "\n".join(RESP_ROWS) + "\n"
MIXED = HEADER + "".join(f"{req}\n{resp}\n" for req, resp in zip(ROWS, RESP_ROWS))


@pytest.mark.parametrize("text, direction, same_as, blocks, fallbacks", [
    (CANONICAL, REQUEST, ROW_TXS, 4, 0),
    (HEADER + "\n".join(ROWS), REQUEST, ROW_TXS, 4, 0),
    (HEADER, REQUEST, [], 0, 0),
    (HEADER.rstrip("\n"), REQUEST, [], 0, 0),
    (CANONICAL.replace("\n", "\r\n"), REQUEST, CANONICAL, 4, 0),
    (HEADER + "\n".join([*ROWS[:3], "# note", "", *ROWS[3:]]) + "\n", REQUEST, CANONICAL, 4, 1),
    # 90 bytes: the last line ends at a read's end, and the next read is empty
    (HEADER + "\n".join([*ROWS[:3], "# note", *ROWS[3:6]]), REQUEST,
     HEADER + "\n".join(ROWS[:6]) + "\n", 4, 1),
    (MIXED, REQUEST, CANONICAL, 7, 0),
    (MIXED, RESPONSE, RESP_CANONICAL, 7, 0),
    (RESP_CANONICAL, REQUEST, HEADER, 4, 0),
], ids=["final-newline", "no-final-newline", "header-only", "header-only-no-newline", "crlf",
        "comment-and-blank-line", "no-final-newline-at-read-end", "mixed-as-req",
        "mixed-as-resp", "all-other-direction"])
def test_streamed_load_at_read_and_block_edges(tmp_path, small_blocks, text, direction, same_as,
                                               blocks, fallbacks):
    """Each body loads as its transactions, or as the canonical body
    ``same_as`` loads at the same read size.  Whatever lines were skipped
    or rows dropped, the buffer behind each column holds no more than the
    kept rows (a cycle or id column may share one with its pair)."""
    tr = load_trace(write(tmp_path, text), direction)
    assert small_blocks == {"blocks": blocks, "fallbacks": fallbacks}
    if isinstance(same_as, str):
        assert tr == load_trace(write(tmp_path, same_as, "canonical.csv"), direction)
    else:
        assert tr.transactions == same_as
    for col in tr._columns():
        assert (col if col.base is None else col.base).nbytes <= 2 * col.nbytes


def test_crlf_trace_loads_in_bulk(tmp_path, monkeypatch):
    """A trace whose lines all end in ``\\r\\n`` loads, block by block in
    bulk, to the columns of its ``\\n`` copy; a block that mixes both line
    ends goes to the line parser and still loads to them."""
    path = tmp_path / "lf.csv"
    save_trace(generate(benchmark_preset("mat2like")), path)
    lf = path.read_bytes()
    header, body = lf.split(b"\n", 1)
    crlf = tmp_path / "crlf.csv"
    crlf.write_bytes(header + b"\n" + body.replace(b"\n", b"\r\n"))
    lines = body.split(b"\n")
    mixed = tmp_path / "mixed.csv"
    mixed.write_bytes(header + b"\n" + b"".join(
        line + (b"\r\n" if i % 3 == 1 else b"\n") for i, line in enumerate(lines[:-1])))
    expected = load_trace(path)
    assert load_trace(mixed) == expected

    def refuse(*args):
        raise AssertionError("a CRLF block went to the line parser")

    monkeypatch.setattr(trace_module, "_parse_lines", refuse)
    monkeypatch.setattr(trace_module, "_READ_BYTES", 1 << 14)
    assert crlf.stat().st_size > 4 * trace_module._READ_BYTES  # several blocks
    assert load_trace(crlf) == expected
    assert load_trace(crlf, RESPONSE) == load_trace(path, RESPONSE)


@pytest.mark.parametrize("late, error, blocks", [
    ("# a comment", "t.csv:10: target id 13 outside 1..12", 5),
    (ROWS[0] + "\r", "t.csv:10: target id 13 outside 1..12", 5),
    ("9" * 19 + ",1,1,1,req,0", "t.csv:9: value outside the 64-bit integer range", 5),
], ids=["comment", "crlf", "19-digit-field"])
def test_late_deviation_falls_back_to_the_line_parser(tmp_path, small_blocks, late, error,
                                                      blocks):
    # lines 2-8 are the rows; line 10 names a target the header does not
    # declare.  A short line 9 shares the fourth block with line 8, and line
    # 10 is read in a fifth block, parsed in bulk again; a 32-byte line 9
    # straddles the fourth read's end, so the fifth block holds it and line 10
    path = write(tmp_path, HEADER + "\n".join([*ROWS, late, "1,1,1,13,req,0"]) + "\n")
    with pytest.raises(TraceError, match=f"/{re.escape(error)}$"):
        load_trace(path)
    assert small_blocks == {"blocks": blocks, "fallbacks": 1}


def test_long_line_is_read_in_growing_reads(tmp_path, small_blocks, monkeypatch):
    """A comment line of 100 bytes, many 7-byte reads long, is carried into
    reads that double with it, so its bytes are not copied over and over."""
    monkeypatch.setattr(trace_module, "_READ_BYTES", 7)
    body = "\n".join([ROWS[0], "#" * 99, ROWS[1]]) + "\n"

    class RecordedReads(io.BytesIO):
        def read(self, size=-1):
            sizes.append(size)
            return super().read(size)

    sizes, stream = [], RecordedReads(body.encode())
    assert [bytes(block[trace_module._PAD:]) for block, _ in trace_module._line_blocks(stream)] \
        == [line.encode() + b"\n" for line in body.splitlines()]
    # two reads finish line 1; the comment's reads grow with the 7, 14, 28
    # and 56 bytes carried; the last read asks for the 12 carried and gets 2
    assert sizes == [7, 7, 7, 7, 14, 28, 56, 12]
    assert load_trace(write(tmp_path, HEADER + body)).transactions == ROW_TXS[:2]
    assert small_blocks == {"blocks": 3, "fallbacks": 1}


@pytest.mark.parametrize("miscount, found", [(1, "7"), (-1, "more")])
def test_file_changed_between_the_two_passes(tmp_path, monkeypatch, miscount, found):
    # the file shrinks or grows to 7 body lines once the first pass has counted them
    path = write(tmp_path, HEADER + "\n".join([*ROWS, ROWS[0]][:7 + miscount]) + "\n")
    line_blocks, passes = trace_module._line_blocks, []

    def rewritten_after_the_first_pass(stream):
        yield from line_blocks(stream)
        if not passes:
            write(tmp_path, HEADER + "\n".join(ROWS) + "\n")
        passes.append(1)

    monkeypatch.setattr(trace_module, "_line_blocks", rewritten_after_the_first_pass)
    with pytest.raises(TraceError, match=f"t.csv: changed while being read: {7 + miscount} "
                                         f"body lines at first, then {found}$"):
        load_trace(path)


def test_canonical_load_checks_ranges_once(tmp_path, monkeypatch):
    checks = []
    first_invalid_row = trace_module._first_invalid_row

    def counted(*args):
        checks.append(len(args[0]))
        return first_invalid_row(*args)

    monkeypatch.setattr(trace_module, "_first_invalid_row", counted)
    path = write(tmp_path, HEADER + "9,1,1,1,req,0\n0,4,2,2,resp,1\n0,1,1,1,req,0\n")
    tr = load_trace(path)
    assert checks == [3]  # every row, whatever its direction, once
    assert [(tx.start_cycle, tx.target_id, tx.initiator_id)
            for tx in tr.transactions] == [(0, 1, 1), (9, 1, 1)]
    for col in tr._columns():
        assert not col.flags.writeable
        with pytest.raises(ValueError):
            col[0] = 0


def test_trace_copies_the_callers_arrays():
    for order in ([0, 1], [1, 0]):  # already sorted, and to be sorted
        columns = [np.array([1, 4])[order], np.array([3, 2])[order], np.array([2, 1])[order],
                   np.array([1, 2])[order], np.array([False, True])[order]]
        before = [c.copy() for c in columns]
        tr = Trace(2, 2, *columns)
        assert tr.start.tolist() == [1, 4]
        for col, old in zip(columns, before):
            assert col.flags.writeable and np.array_equal(col, old)
        assert all(not col.flags.writeable for col in tr._columns())
        columns[0][:] = 99
        assert tr.start.tolist() == [1, 4]


def test_bad_header_and_empty_file(tmp_path):
    with pytest.raises(TraceError, match="bad header"):
        load_trace(write(tmp_path, "start,dur\n"))
    with pytest.raises(TraceError, match="empty file"):
        load_trace(write(tmp_path, ""))


def test_header_is_its_first_line_of_ascii(tmp_path):
    # a form feed is trailing header whitespace, not a line break before the
    # body: the zero duration is on line 3
    path = write(tmp_path, "#xbar-trace v1,initiators=2,targets=2\f\n# note\n0,0,1,1,req,0\n")
    with pytest.raises(TraceError) as err:
        load_trace(path)
    assert str(err.value) == f"{path}:3: non-positive duration 0"
    # a count in other than ASCII digits is no count
    path = write(tmp_path, "#xbar-trace v1,initiators=\u0663,targets=2\n0,5,1,1,req,0\n")
    with pytest.raises(TraceError, match=":1: bad header"):
        load_trace(path)


def test_comments_and_blank_lines_skipped(tmp_path):
    path = write(tmp_path, HEADER + "# comment\n\n0,5,1,2,req,0\n")
    assert len(load_trace(path).transactions) == 1


def test_unknown_direction_argument():
    with pytest.raises(TraceError, match="direction"):
        load_trace("nowhere.csv", direction="both")


def test_ingestion_sorts_transactions(tmp_path):
    path = write(tmp_path, HEADER + "9,1,1,1,req,0\n0,1,2,2,req,0\n0,1,1,1,req,0\n")
    tr = load_trace(path)
    keys = [(tx.start_cycle, tx.target_id, tx.initiator_id) for tx in tr.transactions]
    assert keys == sorted(keys)
    assert keys[0] == (0, 1, 1)


def test_round_trip_field_for_field(tmp_path):
    rng = np.random.Generator(np.random.PCG64(5))
    for k in range(20):
        tr = make_random_trace(rng)
        path = tmp_path / f"r{k}.csv"
        save_trace(tr, path)
        back = load_trace(path)
        assert back.num_initiators == tr.num_initiators
        assert back.num_targets == tr.num_targets
        assert back.transactions == tr.transactions


def test_response_round_trip_restores_role_frame(tmp_path):
    body = "#xbar-trace v1,initiators=3,targets=2\n0,5,2,1,resp,0\n7,2,3,2,resp,1\n"
    path = write(tmp_path, body)
    tr = load_trace(path, RESPONSE)
    out = tmp_path / "back.csv"
    save_trace(tr, out)
    assert load_trace(out, RESPONSE) == tr
    assert "initiators=3,targets=2" in out.read_text().splitlines()[0]
    # an empty response trace keeps its direction, so its counts swap back too
    empty = Trace(3, 2, [], [], [], [], direction=RESPONSE)
    save_trace(empty, out)
    assert out.read_text() == "#xbar-trace v1,initiators=2,targets=3\n"
    assert load_trace(out, RESPONSE) == empty


def test_trace_rejects_unknown_direction(tmp_path):
    """The constructor, load_trace's argument and a file row word a bad
    direction alike."""
    message = "direction must be req or resp, got 'both'"
    with pytest.raises(TraceError) as err:
        Trace(2, 2, [0], [1], [1], [1], direction="both")
    assert str(err.value) == message
    path = write(tmp_path, HEADER + "0,5,1,2,both,0\n")
    with pytest.raises(TraceError) as err:
        load_trace(path, "both")
    assert str(err.value) == message
    with pytest.raises(TraceError) as err:
        load_trace(path)
    assert str(err.value) == f"{path}:2: {message}"
    assert Trace(2, 2).direction == REQUEST


def test_trace_validation():
    with pytest.raises(TraceError):
        Trace(0, 1)
    with pytest.raises(TraceError, match="duration"):
        trace_of(1, 1, [Transaction(0, 0, 1, 1)])
    with pytest.raises(TraceError, match="target id"):
        trace_of(1, 1, [Transaction(0, 1, 1, 2)])
    for columns in (([0, 1], [5], [1, 1], [1, 1]), ([0], [5], [1], [1], [True, False]),
                    (0, 5, 1, 1), ([[0]], [[5]], [[1]], [[1]])):
        with pytest.raises(TraceError, match="1-D and of one length"):
            Trace(1, 1, *columns)


def test_horizon_defaults_to_last_busy_cycle():
    tr = trace_of(1, 2, [Transaction(3, 4, 1, 2), Transaction(0, 2, 1, 1)])
    assert tr.horizon == 7
    assert Trace(1, 1).horizon == 0


def test_transactions_view_reads_columns(tmp_path, count_transactions):
    path = write(tmp_path, HEADER + "9,1,1,1,req,0\n0,4,2,2,req,1\n0,1,1,1,req,0\n")
    tr = load_trace(path)
    assert count_transactions == []
    view = tr.transactions
    assert len(view) == 3 and view
    assert count_transactions == []  # len and truth build no rows
    assert view[0] == Transaction(0, 1, 1, 1)
    assert view[-1] == Transaction(9, 1, 1, 1)
    assert view[1:] == [Transaction(0, 4, 2, 2, True), Transaction(9, 1, 1, 1)]
    assert list(view) == [view[0], view[1], view[2]]
    assert view == list(view) and list(view) == view
    assert view != list(view)[:2]
    with pytest.raises(IndexError):
        view[3]
    with pytest.raises(ValueError):
        tr.start[0] = 5  # columns are read-only


def test_columns_match_transactions():
    for direction in (REQUEST, RESPONSE):
        txs = [Transaction(4, 2, 1, 2, True, direction), Transaction(1, 3, 2, 1, False, direction)]
        tr = trace_of(2, 2, txs)
        assert tr.start.tolist() == [1, 4]
        assert tr.duration.tolist() == [3, 2]
        assert tr.initiator.tolist() == [2, 1]
        assert tr.target.tolist() == [1, 2]
        assert tr.critical.tolist() == [False, True]
        assert tr.direction == direction
        same = Trace(2, 2, [4, 1], [2, 3], [1, 2], [2, 1], [True, False], direction)
        assert same == tr and same.transactions == txs[::-1]
    assert trace_of(2, 2, txs[:1]) != trace_of(2, 2, [replace(txs[0], direction=REQUEST)])


def test_stats_empty_trace():
    st = trace_stats(Trace(1, 3))
    assert st.per_target_busy == [0, 0, 0]
    assert st.per_target_count == [0, 0, 0]
    assert st.horizon == 0
    assert st.total_busy == 0


def test_stats_single_transaction():
    st = trace_stats(trace_of(1, 1, [Transaction(0, 10, 1, 1)]))
    assert st.per_target_busy == [10]
    assert st.horizon == 10


def test_stats_additive_over_overlap():
    tr = trace_of(2, 2, [Transaction(0, 5, 1, 1), Transaction(0, 5, 2, 2)])
    st = trace_stats(tr)
    assert st.per_target_busy == [5, 5]
    assert st.horizon == 5


def test_stats_count_concurrent_same_target_twice():
    # additive demand, unlike occupancy in window analysis
    tr = trace_of(2, 1, [Transaction(0, 5, 1, 1), Transaction(0, 5, 2, 1)])
    assert trace_stats(tr).per_target_busy == [10]


def digit_field(max_digits):
    return st.integers(1, max_digits).flatmap(
        lambda n: st.text("0123456789", min_size=n, max_size=n))


def core_id():
    """An id in 1..MAX_CORES, sometimes with leading zeros."""
    return st.builds(lambda zeros, n: "0" * zeros + str(n),
                     st.integers(0, 3), st.integers(1, trace_module.MAX_CORES))


def canonical_lines(max_digits, ids):
    field = digit_field(max_digits)
    return st.lists(st.tuples(field, field, ids, ids, st.sampled_from(["req", "resp"]),
                              st.sampled_from(["0", "1"])).map(list), max_size=12)


def mutate(draw, row):
    """One deviation from the canonical layout in ``row``."""
    k = draw(st.integers(0, len(row) - 1))
    if k >= len(row) - 2:  # the direction or the critical token: digits or another word
        row[k] = draw(digit_field(4) | st.sampled_from(["", "REQ", "res", "true"]))
        return
    at = draw(st.integers(0, len(row[k])))
    kind = draw(st.sampled_from(["empty", "drop", "extra", "insert", "replace"]))
    if kind == "empty":
        row[k] = ""
    elif kind == "drop":  # 5 fields
        del row[k]
    elif kind == "extra":  # 7 fields
        row.insert(k, draw(digit_field(3)))
    elif kind == "insert":  # a sign, a space or a letter inside a number
        row[k] = row[k][:at] + draw(st.sampled_from(["-", "+", " ", "a", "x"])) + row[k][at:]
    else:
        row[k] = draw(st.sampled_from(["-", "+", "1.5", "1e3", "0x1"]))


@st.composite
def trace_bodies(draw):
    """``(body, must_bulk)``: a body in the layout ``save_trace`` writes,
    its lines all ending in ``\\n`` or all in ``\\r\\n``, with fields of 1
    to 18 or 1 to 20 digits and ids in 1..MAX_CORES or any such field, or
    one with a deviation; ``must_bulk`` marks a canonical one whose fields
    all fit 18 digits and whose ids fit."""
    canonical = draw(st.booleans())
    max_digits = draw(st.sampled_from([18, 20]))
    ids_fit = draw(st.booleans())
    lines = draw(canonical_lines(max_digits, core_id() if ids_fit else digit_field(max_digits)))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    ends = [eol] * len(lines)  # each line's end; the last line's newline is dropped or kept
    if not canonical and lines:
        if draw(st.booleans()):
            for i in draw(st.lists(st.integers(0, len(lines) - 1), min_size=1, max_size=3)):
                mutate(draw, lines[i])
        else:  # one line end of the other kind
            ends[draw(st.integers(0, len(lines) - 1))] = "\r\n" if eol == "\n" else "\n"
    text = "".join(",".join(row) + end for row, end in zip(lines, ends))
    if lines and not draw(st.booleans()):
        text = text[:-1]
    fits = all(len(f) <= 18 for row in lines for f in row)
    return text, canonical and fits and ids_fit


def digit_kernel(fields: list[str]) -> list[int]:
    """The bulk parser's values of ``fields``, laid out one after another
    behind the block pad, each ended by a comma."""
    block = bytes(trace_module._PAD) + "".join(f + "," for f in fields).encode()
    digits = np.array([len(f) for f in fields])
    ends = trace_module._PAD + np.cumsum(digits + 1) - 1
    out = np.empty(len(fields), dtype=np.int64)
    trace_module._field_values(trace_module._words(block), ends, digits, out)
    return out.tolist()


@settings(max_examples=300, deadline=None)
@given(st.lists(digit_field(18), min_size=1, max_size=6))
@example(["12345678"])  # one full word, at the block's first byte
@example(["123456789", "9"])  # two words, the first one partial
@example(["9" * 16, "1" * 17])  # two full words; three words
@example(["9" * 18, "0" * 18, "000000000000000001"])  # the widest field and leading zeros
def test_digit_kernel_matches_int(fields):
    assert digit_kernel(fields) == [int(f) for f in fields]


def bulk_block(text: str) -> tuple[np.ndarray, ...] | None:
    """The columns ``_parse_block`` fills from ``text`` read as one block by
    ``_line_blocks``, in the line parser's order: start, duration,
    initiator, target, whether each row is critical, and whether it is a
    response; None if the block deviates."""
    (block, eol), = trace_module._line_blocks(io.BytesIO(text.encode()))
    m = len(eol)
    cycles, ids = np.empty((2, m), dtype=np.int64), np.empty((2, m), dtype=np.int16)
    resp, critical = np.empty(m, dtype=bool), np.empty(m, dtype=bool)
    if not trace_module._parse_block(block, eol, cycles, ids, resp, critical):
        return None
    return (*cycles, *ids, critical, resp)


def test_bulk_parse_widest_field_at_first_byte():
    text = "9" * 18 + ",10000000000000000,1024,1,resp,1\n123456789,12345678,0007,9,req,0\n"
    columns = bulk_block(text)
    assert [c.tolist() for c in columns] == [
        [10 ** 18 - 1, 123456789], [10 ** 16, 12345678], [1024, 7], [1, 9],
        [True, False], [True, False]]
    assert [c.dtype for c in columns] == [np.int64, np.int64, np.int16, np.int16, bool, bool]


@pytest.mark.parametrize("ids", ["0,1", "1,1025", "32768,1", "1,70000", "123456789,12345678"])
def test_bulk_parse_leaves_ids_outside_the_core_bound_to_the_line_parser(ids):
    assert bulk_block(f"0,5,{ids},req,0\n") is None


@settings(max_examples=300, deadline=None)
@given(trace_bodies())
@example(("1,2,3,req,0\n1,2,3,4,5,req,0\n", False))  # 4 + 6 commas: ten, as two lines have
@example(("1,2,3,4,0001,0\n", False))  # a number in the direction slot
@example(("1,,3,4,req,0\n", False))  # an empty field
def test_bulk_parse_matches_line_parser(case):
    text, must_bulk = case
    if not text:
        return  # no lines, so no block
    columns = bulk_block(text)
    assert columns is not None or not must_bulk
    if columns is not None:
        try:
            ref, _ = trace_module._parse_lines(text.encode(), Path("t.csv"), 1, 1, 2)
        except TraceError as exc:
            pytest.fail(f"bulk parse accepted a body the line parser rejects: {exc}")
        assert len(columns) == len(ref) == 6
        for got, want in zip(columns, ref):
            assert got.dtype.kind == want.dtype.kind and np.array_equal(got, want)
        assert [c.dtype for c in columns] == [np.int64, np.int64, np.int16, np.int16, bool, bool]


# ------------------------------------------------------------ stage scratch

LONG_WINDOW = 4000  # few windows: the answer-sized T x W terms stay small


@pytest.fixture(scope="module")
def long_trace(tmp_path_factory):
    """A file of about 217 k rows of packet bursts with critical streams, and its trace."""
    spec = replace(benchmark_preset("uniform"), horizon=5_000_000,
                   critical_stream_pairs=((1, 1), (2, 2), (3, 3)))
    path = tmp_path_factory.mktemp("long") / "long.csv"
    save_trace(generate(spec), path)
    return path, load_trace(path)


@pytest.fixture(scope="module")
def long_variants(long_trace):
    """The long file with a comment line after its header, and with every
    other row turned into a response."""
    path, _ = long_trace
    header, *rows = path.read_text().splitlines()
    commented = path.with_name("commented.csv")
    commented.write_text("\n".join([header, "# a comment", *rows]) + "\n")
    rows[1::2] = [row.replace(",req,", ",resp,") for row in rows[1::2]]
    mixed = path.with_name("mixed.csv")
    mixed.write_text("\n".join([header, *rows]) + "\n")
    return commented, mixed


def merged_cuts(trace: Trace, window_size: int) -> int:
    """Distinct cut points of the profile timeline: the ends of each
    target's merged busy intervals and the window boundaries."""
    points = set(range(window_size, trace.horizon, window_size))
    for t in range(1, trace.num_targets + 1):
        rows = trace.target == t
        start = trace.start[rows]
        reach = np.maximum.accumulate(start + trace.duration[rows])
        opens = np.r_[True, start[1:] > reach[:-1]]
        points.update(start[opens].tolist())
        points.update(reach[np.r_[opens[1:], True]].tolist())
    return len(points)


@pytest.mark.parametrize("stage", ["load", "load-commented", "load-mixed", "profile",
                                   "simulate-1-bus", "simulate-3-buses"])
def test_stage_scratch_is_blocks_and_one_row_index(long_trace, long_variants, monkeypatch, stage):
    """Beyond what it returns, a stage holds a few blocks of scratch and at
    most one 8-byte-per-row array: the row order of a grouping, whose
    8-bit keys the 1 MiB allowance also covers.  The block constants are
    shrunk so that the blocks are small beside the rows.  A load that
    skips a line or drops rows of the other direction also holds the
    columns sized by the file's lines until it copies the kept rows out.
    ``profile`` also holds answer-sized scratch: its per-window overlaps
    (T x W int64, three at a time at most) and its segment table, a
    T-bool column plus eight int64 per cut of the timeline."""
    path, trace = long_trace
    commented, mixed = long_variants
    n = len(trace.start)
    assert n >= 200_000 and trace.critical.any()
    monkeypatch.setattr(trace_module, "_READ_BYTES", 1 << 14)
    monkeypatch.setattr(trace_module, "_ROW_BLOCK", 1024)
    run = {
        "load": lambda: load_trace(path),
        "load-commented": lambda: load_trace(commented),
        "load-mixed": lambda: load_trace(mixed),
        "profile": lambda: profile(trace, LONG_WINDOW),
        "simulate-1-bus": lambda: simulate(trace, CrossbarConfig(1, (1,) * trace.num_targets)),
        "simulate-3-buses": lambda: simulate(
            trace, CrossbarConfig(3, tuple(t % 3 + 1 for t in range(trace.num_targets)))),
    }[stage]
    tracemalloc.start()
    try:
        result = run()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    allowed = 8 * n + (1 << 20)
    if stage in ("load-commented", "load-mixed"):
        allowed += sum(c.itemsize for c in trace._columns()) * n
    if stage == "profile":
        allowed += 3 * result.comm.nbytes
        allowed += (trace.num_targets + 64) * merged_cuts(trace, LONG_WINDOW)
    assert peak - kept <= allowed, (
        f"{stage}: {(peak - kept) / 2**20:.2f} MiB of scratch for {n} rows, "
        f"{allowed / 2**20:.2f} MiB allowed")
