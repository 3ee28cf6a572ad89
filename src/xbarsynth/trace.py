"""Transaction trace data model, CSV ingestion and validation.

A trace records timed transfers between initiators (masters) and targets
(slaves).  On disk a row always names the two cores by *role*:
``initiator_id`` is the master, ``target_id`` the slave, and ``direction``
says which way the data moves (``req``: master to slave, ``resp``: slave to
master).  Loading with ``direction="resp"`` swaps the roles so that the
receiving masters become the analyzed "targets"; the rest of the toolkit
then designs the reverse crossbar with the exact same machinery.

File format (UTF-8 CSV)::

    #xbar-trace v1,initiators=<n>,targets=<n>
    start_cycle,duration,initiator_id,target_id,direction,critical

Ids are 1-based.  Lines starting with ``#`` are comments.  Busy intervals
are half-open: a transaction occupies [start, start + duration).

In memory a :class:`Trace` is a set of numpy columns, one entry per
transaction, plus the one direction all its rows move in;
:class:`Transaction` objects are built only when a caller reads rows
through :attr:`Trace.transactions`.

:func:`load_trace` reads a body in the layout :func:`save_trace` writes
in bulk (:func:`_parse_plain`): blocks of lines pass exact structure
guards (five commas a line, the direction and critical tokens in place,
numeric fields of 1 to 18 digits and no other byte) and only then go to
numpy's separator reader, ``np.fromstring(..., sep=",")``, which thus
never meets a sign, a space, an empty field or a number beyond int64, the
inputs on which it reads leniently or differently across numpy versions.
Any other body (comments, blank lines, spaces, signs, ``\r\n``, longer
fields) and every malformed one go through the line parser
(:func:`_parse_lines`), the reference, which also names the first bad
line.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

REQUEST = "req"
RESPONSE = "resp"
DIRECTIONS = (REQUEST, RESPONSE)

_HEADER_RE = re.compile(r"^#xbar-trace v1,initiators=(\d+),targets=(\d+)\s*$")
_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63) - 1
_BLOCK_LINES = 1 << 16  # lines the bulk parser hands numpy's reader at once
_MAX_DIGITS = 18  # longest numeric field the bulk parser takes: 10**18 - 1 fits int64
_TAIL = np.arange(-7, 1)  # offsets of a line's last 8 bytes from its newline


class TraceError(ValueError):
    """Raised for malformed trace files or invalid trace contents."""


@dataclass(frozen=True)
class Transaction:
    """One atomic transfer occupying its target for [start, start+duration)."""

    start_cycle: int
    duration: int
    initiator_id: int
    target_id: int
    critical: bool = False
    direction: str = REQUEST

    @property
    def end_cycle(self) -> int:
        return self.start_cycle + self.duration

    def sort_key(self) -> tuple[int, int, int]:
        return (self.start_cycle, self.target_id, self.initiator_id)


def _first_invalid_row(start: np.ndarray, duration: np.ndarray, initiator: np.ndarray,
                       target: np.ndarray, num_initiators: int,
                       num_targets: int) -> tuple[int, str, int, int] | None:
    """First row breaking a range rule, as ``(row, rule, value, declared)``.

    ``rule`` is ``"duration"``, ``"start"``, ``"initiator"`` or ``"target"``;
    ``declared`` is the core count an id must lie in.  Rules are tried in
    that order within a row, so a row breaking several reports the first.
    """
    rules = (
        ("duration", duration, duration < 1, 0),
        ("start", start, start < 0, 0),
        ("initiator", initiator, (initiator < 1) | (initiator > num_initiators), num_initiators),
        ("target", target, (target < 1) | (target > num_targets), num_targets),
    )
    bad = rules[0][2] | rules[1][2] | rules[2][2] | rules[3][2]
    if not bad.any():
        return None
    row = int(np.argmax(bad))
    rule, values, _, declared = next(r for r in rules if r[2][row])
    return row, rule, int(values[row]), declared


def _range_message(rule: str, value: int, declared: int, lineno: int | None = None) -> str:
    """Text of a range error; a ``lineno`` selects the wording of file errors."""
    in_file = lineno is not None
    if rule == "duration":
        return (f"non-positive duration at line {lineno}" if in_file
                else f"non-positive duration {value}")
    if rule == "start":
        return "negative start cycle" if in_file else f"negative start cycle {value}"
    return f"{rule} id {value} outside {'declared ' if in_file else ''}1..{declared}"


class Trace:
    """A validated trace stored as columns sorted by (start, target, initiator).

    Columns (read-only numpy arrays, one entry per transaction):
    ``start``, ``duration``, ``initiator`` and ``target`` (int64, ids
    1-based) and ``critical`` (bool).  Rows with equal sort keys keep their
    input order.  Every row moves in ``direction`` (``req`` or ``resp``);
    a trace built from rows takes theirs, and an empty one is ``req``.

    ``horizon`` defaults to the last busy cycle (max start+duration) but can
    be overridden, e.g. by a generator that knows the intended run length.
    """

    def __init__(self, num_initiators: int, num_targets: int,
                 transactions: Iterable[Transaction] = (), horizon: int | None = None):
        txs = list(transactions)
        directions = {tx.direction for tx in txs} or {REQUEST}
        if len(directions) > 1:
            raise TraceError(f"a trace cannot be built mixing directions {sorted(directions)}")
        rows = np.array(
            [(tx.start_cycle, tx.duration, tx.initiator_id, tx.target_id, tx.critical)
             for tx in txs],
            dtype=np.int64,
        ).reshape(-1, 5)
        self._set_columns(num_initiators, num_targets, *rows.T, directions.pop(), horizon)

    @classmethod
    def from_columns(cls, num_initiators: int, num_targets: int, start, duration,
                     initiator, target, critical=None, direction: str = REQUEST,
                     horizon: int | None = None) -> Trace:
        """Build a trace from per-transaction columns (any order).

        ``critical`` defaults to all False.
        """
        trace = cls.__new__(cls)
        trace._set_columns(
            num_initiators, num_targets, start, duration, initiator, target,
            np.zeros(len(start), dtype=bool) if critical is None else critical,
            direction, horizon,
        )
        return trace

    def _set_columns(self, num_initiators, num_targets, start, duration, initiator,
                     target, critical, direction, horizon) -> None:
        if num_initiators < 1 or num_targets < 1:
            raise TraceError("core counts must be positive")
        if direction not in DIRECTIONS:
            raise TraceError(f"unknown direction {direction!r}")
        start, duration, initiator, target = (
            np.array(c, dtype=np.int64) for c in (start, duration, initiator, target)
        )
        critical = np.array(critical, dtype=bool)
        if not _is_sorted(start, target, initiator):
            order = np.lexsort((initiator, target, start))  # stable
            start, duration, initiator, target, critical = (
                c[order] for c in (start, duration, initiator, target, critical)
            )
        bad = _first_invalid_row(start, duration, initiator, target,
                                 num_initiators, num_targets)
        if bad is not None:
            raise TraceError(_range_message(*bad[1:]))
        for col in (start, duration, initiator, target, critical):
            col.flags.writeable = False
        self.num_initiators = num_initiators
        self.num_targets = num_targets
        self.direction = direction
        self.start, self.duration = start, duration
        self.initiator, self.target = initiator, target
        self.critical = critical
        derived = int((start + duration).max()) if len(start) else 0
        if horizon is None:
            horizon = derived
        elif horizon < derived:
            raise TraceError(f"horizon {horizon} shorter than last transaction end {derived}")
        self.horizon = horizon

    @property
    def transactions(self) -> TransactionView:
        """The rows as a read-only sequence of :class:`Transaction`.

        ``len`` is O(1); indexing, slicing and iteration build the
        requested rows on access.  The view compares equal to a list of
        the same transactions.
        """
        return TransactionView(self)

    def _columns(self) -> tuple[np.ndarray, ...]:
        return (self.start, self.duration, self.initiator, self.target, self.critical)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return (
            (self.num_initiators, self.num_targets, self.horizon, self.direction)
            == (other.num_initiators, other.num_targets, other.horizon, other.direction)
            and all(np.array_equal(a, b) for a, b in zip(self._columns(), other._columns()))
        )

    def __repr__(self) -> str:
        return (f"Trace(num_initiators={self.num_initiators}, num_targets={self.num_targets}, "
                f"{len(self.start)} transactions, horizon={self.horizon})")


def _is_sorted(start: np.ndarray, target: np.ndarray, initiator: np.ndarray) -> bool:
    """Whether rows are already in (start, target, initiator) order."""
    ds, dt, di = np.diff(start), np.diff(target), np.diff(initiator)
    return bool(((ds > 0) | ((ds == 0) & ((dt > 0) | ((dt == 0) & (di >= 0))))).all())


def group_rows(ids: np.ndarray, num_groups: int) -> tuple[np.ndarray, np.ndarray]:
    """Stable grouping of rows by ids in ``range(num_groups)``.

    Returns ``(order, bounds)``: the rows of group g are
    ``order[bounds[g]:bounds[g + 1]]``, in their original order.
    """
    keys = ids.astype(np.min_scalar_type(num_groups))  # 8/16-bit keys radix-sort
    order = np.argsort(keys, kind="stable")
    return order, np.r_[0, np.cumsum(np.bincount(ids, minlength=num_groups))]


class TransactionView(Sequence):
    """Read-only :class:`Transaction` rows of a :class:`Trace`, built on access."""

    def __init__(self, trace: Trace):
        self._trace = trace

    def __len__(self) -> int:
        return len(self._trace.start)

    def _row(self, start, duration, initiator, target, critical) -> Transaction:
        return Transaction(start, duration, initiator, target, critical,
                           self._trace.direction)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        n = len(self)
        i = index + n if index < 0 else index
        if not 0 <= i < n:
            raise IndexError("transaction index out of range")
        return self._row(*(c[i].item() for c in self._trace._columns()))

    def __iter__(self):
        for values in zip(*(c.tolist() for c in self._trace._columns())):
            yield self._row(*values)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, TransactionView):
            return self._trace.direction == other._trace.direction and all(
                np.array_equal(a, b)
                for a, b in zip(self._trace._columns(), other._trace._columns()))
        if isinstance(other, (list, tuple)):
            return len(self) == len(other) and all(a == b for a, b in zip(self, other))
        return NotImplemented

    def __repr__(self) -> str:
        return f"<{len(self)} transactions>"


def _ends_with(tail: np.ndarray, text: str) -> np.ndarray:
    """Which lines end in ``text``, given their last 8 bytes as ``tail``."""
    width = 8 * len(text)
    return tail >> np.uint64(64 - width) == int.from_bytes(text.encode(), "little")


def _parse_block(block: bytearray, eol: np.ndarray) -> np.ndarray | None:
    """Rows of the canonical lines in ``block`` ending at ``eol``, or None.

    ``block`` is a private copy, rewritten in place; ``eol`` holds the
    offset of every newline in it, the last being its final byte.
    """
    m = len(eol)
    if eol[0] < 7:  # shorter than any valid line (and keeps _TAIL in range)
        return None
    c = np.frombuffer(block, dtype=np.uint8)
    tail = c[eol[:, None] + _TAIL].view("<u8")[:, 0]
    is_req = _ends_with(tail, ",req,0\n") | _ends_with(tail, ",req,1\n")
    is_resp = _ends_with(tail, ",resp,0\n") | _ends_with(tail, ",resp,1\n")
    if not (is_req | is_resp).all():
        return None
    req, resp = eol[is_req], eol[is_resp]
    for k in range(3):
        c[req - 5 + k] = ord("0")
    for k in range(4):
        c[resp - 6 + k] = ord("1" if k == 3 else "0")

    commas = np.flatnonzero(c == ord(","))
    if len(commas) != 5 * m:
        return None
    commas = commas.reshape(m, 5)
    if not (commas[:, 4] == eol - 2).all():  # so line i holds exactly commas[i]
        return None
    # digits in each numeric field: the gaps between the separators before them
    digits = np.diff(np.column_stack((np.r_[-1, eol[:-1]], commas[:, :4])), axis=1) - 1
    if digits.min() < 1 or digits.max() > _MAX_DIGITS:
        return None
    # 5 commas and 1 newline a line: every other byte must be a digit
    if np.count_nonzero(c - np.uint8(ord("0")) < 10) != len(c) - 6 * m:
        return None

    c[eol] = ord(",")
    part = np.fromstring(bytes(block), dtype=np.int64, sep=",", count=6 * m)
    if part.size != 6 * m:  # unreachable past the guards; kept as a check
        return None
    return part.reshape(m, 6)


def _parse_plain(data: bytes, offset: int) -> np.ndarray | None:
    """Bulk-parse the body ``data[offset:]`` in the canonical layout, or return None.

    The canonical layout is what :func:`save_trace` writes: every line is
    ``start,duration,initiator,target,req|resp,0|1`` with no spaces,
    comments or blank lines.  The body is read in blocks of
    ``_BLOCK_LINES`` lines, each copied and rewritten in place:

    1. The direction and critical fields are checked at fixed offsets
       from each line end, and the direction is overwritten by digits of
       the same width (req -> 000, resp -> 0001).
    2. The structure is checked over the comma positions: each line holds
       exactly five commas, the fifth just before the critical digit;
       each of the four numeric fields has 1 to 18 digits; and the block
       holds no byte but digits, commas and newlines.
    3. Newlines become commas, and one ``np.fromstring`` call with
       ``sep=","`` and an exact ``count`` reads the block.

    The guards hand numpy's separator reader only ``[0-9]{1,18}(,[0-9]{1,18})*``
    with exactly ``count`` numbers, so none of its quirks is reachable and
    its result does not depend on the numpy version: it reads a lone ``-``
    as 0 (no sign passes), saturates a number beyond int64 to its maximum
    (18 digits always fit), skips whitespace around separators (no space
    passes), and on data that ends early or holds anything else it may
    return fewer numbers than ``count``, pad to ``count`` with
    uninitialised values (numpy 2.4 on a short read), or stop with only a
    DeprecationWarning (numpy 1.x) where numpy 2.x raises (every block
    holds exactly ``count`` numbers, all digits).  Returns an (n, 6)
    int64 array with the direction as 0/1, or None when any line deviates,
    such as a field of 19 or more digits; callers then parse line by
    line, which also locates errors.
    """
    body = memoryview(data)[offset:]
    if not body:
        return np.zeros((0, 6), dtype=np.int64)
    if body[-1] != ord("\n"):
        body = memoryview(bytes(body) + b"\n")
    nl = np.flatnonzero(np.frombuffer(body, dtype=np.uint8) == ord("\n"))
    rows = np.empty((len(nl), 6), dtype=np.int64)
    # Blocks keep the copies and the reader's buffers small next to ``rows``.
    for first in range(0, len(nl), _BLOCK_LINES):
        last = min(first + _BLOCK_LINES, len(nl))
        lo = nl[first - 1] + 1 if first else 0
        part = _parse_block(bytearray(body[lo:nl[last - 1] + 1]), nl[first:last] - lo)
        if part is None:
            return None
        rows[first:last] = part
    return rows


def _parse_lines(lines: list[str], path: Path, num_initiators: int,
                 num_targets: int) -> tuple[np.ndarray, np.ndarray]:
    """Parse body lines one by one; returns (n, 6) rows and their line numbers.

    ``lines`` starts at line 2 of the file.  A malformed line raises
    :class:`TraceError` naming it, unless an earlier line breaks a range
    rule, which is then reported instead.
    """
    rows: list[tuple[int, ...]] = []
    linenos: list[int] = []
    for lineno, line in enumerate(lines, start=2):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split(",")]
        error = None
        if len(parts) != 6:
            error = f"expected 6 fields, got {len(parts)}"
        else:
            try:
                values = [int(p) for p in parts[:4]]
            except ValueError as exc:
                error = str(exc)
            else:
                if not all(_INT64_MIN <= v <= _INT64_MAX for v in values):
                    error = "value outside the 64-bit integer range"
                elif parts[4] not in DIRECTIONS:
                    error = f"direction must be req or resp, got {parts[4]!r}"
                elif parts[5] not in ("0", "1"):
                    error = f"critical must be 0 or 1, got {parts[5]!r}"
        if error is not None:
            _check_rows(np.array(rows, dtype=np.int64).reshape(-1, 6), linenos,
                        num_initiators, num_targets, path)
            raise TraceError(f"{path}:{lineno}: {error}")
        rows.append((*values, parts[4] == RESPONSE, parts[5] == "1"))
        linenos.append(lineno)
    return np.array(rows, dtype=np.int64).reshape(-1, 6), np.array(linenos, dtype=np.int64)


def _header_counts(header: str, path: Path) -> tuple[int, int]:
    m = _HEADER_RE.match(header)
    if not m:
        raise TraceError(
            f"{path}:1: bad header, expected '#xbar-trace v1,initiators=<n>,targets=<n>'"
        )
    return int(m.group(1)), int(m.group(2))


def _check_rows(rows: np.ndarray, linenos, num_initiators: int, num_targets: int,
                path: Path) -> None:
    """Raise for the first row breaking a range rule, naming its line."""
    bad = _first_invalid_row(rows[:, 0], rows[:, 1], rows[:, 2], rows[:, 3],
                             num_initiators, num_targets)
    if bad is not None:
        lineno = int(linenos[bad[0]])
        raise TraceError(f"{path}:{lineno}: {_range_message(*bad[1:], lineno)}")


def load_trace(path: str | Path, direction: str = REQUEST) -> Trace:
    """Parse a trace file, keeping only rows moving in ``direction``.

    For ``direction="resp"`` the initiator/target roles (and the declared
    core counts) are swapped in the returned trace, so downstream analysis
    always binds the *receivers* of the selected flow to buses.  Every row
    is validated, whatever its direction; errors name the first offending
    line.
    """
    if direction not in DIRECTIONS:
        raise TraceError(f"direction must be one of {DIRECTIONS}, got {direction!r}")
    path = Path(path)
    data = path.read_bytes()
    if not data:
        raise TraceError(f"{path}: empty file, missing header")
    eol = data.find(b"\n")
    eol = len(data) if eol < 0 else eol
    # A non-ASCII header never matches; the line parser then decodes the
    # whole file as UTF-8 and reports any error in it.
    header = data[:eol].decode("ascii", errors="replace")
    rows = _parse_plain(data, eol + 1) if _HEADER_RE.match(header) else None
    if rows is not None:
        num_initiators, num_targets = _header_counts(header, path)
        linenos = range(2, len(rows) + 2)
    else:
        lines = data.decode("utf-8").splitlines()
        num_initiators, num_targets = _header_counts(lines[0], path)
        rows, linenos = _parse_lines(lines[1:], path, num_initiators, num_targets)
    del data
    _check_rows(rows, linenos, num_initiators, num_targets, path)

    keep = rows[:, 4] == (direction == RESPONSE)
    if not keep.all():
        rows = rows[keep]
    start, duration, initiator, target, _, critical = rows.T
    if direction == RESPONSE:
        initiator, target = target, initiator
        num_initiators, num_targets = num_targets, num_initiators
    return Trace.from_columns(num_initiators, num_targets, start, duration,
                              initiator, target, critical, direction)


def save_trace(trace: Trace, path: str | Path) -> None:
    """Write a trace back to the CSV format accepted by :func:`load_trace`.

    A response trace is written back in role frame (master column and
    count first), undoing the swap done at load time, so a save/load round
    trip with the trace's direction reproduces it, empty or not.  Note the
    header carries no horizon: an overridden horizon reverts to the derived
    one on reload.
    """
    n_init, n_tgt = trace.num_initiators, trace.num_targets
    init_ids, tgt_ids = trace.initiator, trace.target
    if trace.direction == RESPONSE:
        n_init, n_tgt = n_tgt, n_init
        init_ids, tgt_ids = tgt_ids, init_ids
    out = [f"#xbar-trace v1,initiators={n_init},targets={n_tgt}"]
    out += [
        f"{s},{d},{i},{t},{trace.direction},{c}"
        for s, d, i, t, c in zip(trace.start.tolist(), trace.duration.tolist(),
                                 init_ids.tolist(), tgt_ids.tolist(),
                                 trace.critical.astype(np.int64).tolist())
    ]
    Path(path).write_text("\n".join(out) + "\n", encoding="utf-8")
