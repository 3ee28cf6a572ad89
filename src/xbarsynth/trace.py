r"""Transaction trace data model, CSV ingestion and validation.

A trace records timed transfers between initiators (masters) and targets
(slaves).  On disk a row always names the two cores by *role*:
``initiator_id`` is the master, ``target_id`` the slave, and ``direction``
says which way the data moves (``req``: master to slave, ``resp``: slave to
master).  Loading with ``direction="resp"`` swaps the roles so that the
receiving masters become the analyzed "targets"; the rest of the toolkit
then designs the reverse crossbar with the exact same machinery.

File format (UTF-8 CSV): a header line
``#xbar-trace v1,initiators=<n>,targets=<n>``, then one line per
transaction holding, in order, its start cycle, duration, initiator id,
target id, direction (``req`` or ``resp``) and critical flag (0 or 1);
there is no line of column names.  A line ends at ``\n``, a ``\r``
before it is stripped, and each line is UTF-8 on its own.  Ids are
1-based.  Lines starting with ``#`` are comments.  Busy intervals are
half-open: a transaction occupies [start, start + duration).

In memory a :class:`Trace` is a set of numpy columns, one entry per
transaction, plus the one direction all its rows move in;
:class:`Transaction` objects are built only when a caller reads rows
through :attr:`Trace.transactions`.

:func:`load_trace` reads a body twice through one reader of byte blocks,
the whole lines of a fixed-size read each: a first pass counts the lines
and sizes the columns, and a second hands each block to exact structure
guards (five commas a line, the direction and critical tokens in place,
numeric fields of 1 to 18 digits and no other byte) and then to a digit
kernel that computes every numeric field from the 8-byte words that end
it, eight digits a word folded by three multiply-shift steps (SWAR).
The lines of such a block end all in ``\n`` or all in ``\r\n``.  A
block holding any other line (comments, blank lines, spaces, signs, a mix
of line ends, longer fields, a core id outside 1..``MAX_CORES``) or a
malformed one goes alone through the line parser (:func:`_parse_lines`),
the reference, which also names the first bad line.  Each block's rows
are range-checked as they are read, and those moving in the loaded
direction are kept; the trace adopts the parsed columns as they are.
Beyond the columns, the loader and every pass over the columns hold
scratch of a block of lines or rows.  The id columns are int16, 21 bytes
a row in all with the int64 cycles and the bool flag; an id is widened
before any arithmetic.
"""

from __future__ import annotations

import re
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO

import numpy as np

REQUEST = "req"
RESPONSE = "resp"
DIRECTIONS = (REQUEST, RESPONSE)

_HEADER_RE = re.compile(r"^#xbar-trace v1,initiators=(\d+),targets=(\d+)\s*$")
_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63) - 1
# The most initiators, and the most targets, a trace may declare: a T x T
# int64 matrix then stays within 8 MiB.  One bound serves both sides,
# since a response trace swaps them.
MAX_CORES = 1024
_CORE_ID = np.int16  # the type of the id columns: it holds 1..MAX_CORES
_READ_BYTES = 1 << 18  # bytes a pass over a trace file reads at once
_MAX_DIGITS = 18  # longest numeric field the bulk parser takes: 10**18 - 1 fits int64
_ROW_BLOCK = 1 << 14  # rows a pass over the columns reads at once (row_blocks)
_PAD = 8  # zero bytes before a block, so the words ending in its first field lie inside
# gap from the comma before a numeric field to the comma after it, less its digits
_FIELD_GAP = np.array([3, 1, 1, 1])
# _DIGITS[k] keeps the digit values of a word's top k bytes: the last k digits before its end
_DIGITS = np.array([(-1 << 64 - 8 * k) & 0x0F0F0F0F0F0F0F0F for k in range(9)], dtype=np.uint64)


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


def _first_invalid_row(start: np.ndarray, duration: np.ndarray, initiator: np.ndarray,
                       target: np.ndarray, num_initiators: int,
                       num_targets: int) -> tuple[int, str] | None:
    """First row breaking a range rule, as ``(row, message)``.

    Rules are tried in table order within a row, so a row breaking
    several reports the first; the message names the offending value.
    """
    rules = (
        ("non-positive duration {}", duration, duration < 1),
        ("negative start cycle {}", start, start < 0),
        (f"initiator id {{}} outside 1..{num_initiators}", initiator,
         (initiator < 1) | (initiator > num_initiators)),
        (f"target id {{}} outside 1..{num_targets}", target, (target < 1) | (target > num_targets)),
    )
    bad = rules[0][2] | rules[1][2] | rules[2][2] | rules[3][2]
    if not bad.any():
        return None
    row = int(np.argmax(bad))
    return row, next(text.format(int(values[row])) for text, values, broken in rules
                     if broken[row])


def row_blocks(stop: int, start: int = 0) -> Iterator[slice]:
    """Slices of at most ``_ROW_BLOCK`` rows that cover rows ``start`` to ``stop`` in order.

    Every pass over the columns of a trace reads them so, which bounds its
    scratch by the block instead of the trace.
    """
    return (slice(lo, min(lo + _ROW_BLOCK, stop)) for lo in range(start, stop, _ROW_BLOCK))


def _check_rows(columns: Sequence[np.ndarray], num_initiators: int, num_targets: int,
                path: Path | None = None, linenos: Sequence[int] = ()) -> None:
    """Raise for the first row breaking a range rule; in a file, prefixed with its line."""
    for rows in row_blocks(len(columns[0])):
        bad = _first_invalid_row(*(c[rows] for c in columns[:4]), num_initiators, num_targets)
        if bad is not None:
            row, message = bad
            row += rows.start
            raise TraceError(message if path is None else f"{path}:{linenos[row]}: {message}")


def _check_core_counts(num_initiators: int, num_targets: int) -> None:
    if num_initiators < 1 or num_targets < 1:
        raise TraceError("core counts must be positive")
    if max(num_initiators, num_targets) > MAX_CORES:
        raise TraceError(f"core counts must be at most {MAX_CORES}, got "
                         f"{num_initiators} initiators and {num_targets} targets")


def _check_direction(direction: str) -> None:
    if direction not in DIRECTIONS:
        raise TraceError(f"direction must be req or resp, got {direction!r}")


class Trace:
    """A validated trace stored as columns sorted by (start, target, initiator).

    Columns (read-only numpy arrays, one entry per transaction):
    ``start`` and ``duration`` (int64), ``initiator`` and ``target``
    (int16, ids 1-based, at most ``MAX_CORES``) and ``critical`` (bool).
    Rows with equal sort keys keep their input order.  Every row moves in ``direction`` (``req`` or ``resp``).
    ``horizon`` is the last busy cycle, max(start + duration), or 0 for an
    empty trace: windows past it hold no traffic.
    """

    def __init__(self, num_initiators: int, num_targets: int, start=(), duration=(),
                 initiator=(), target=(), critical=None, direction: str = REQUEST):
        """Build a trace from per-transaction columns (any order).

        The columns are copied, so the caller's arrays stay as they are.
        ``critical`` defaults to all False.
        """
        self._adopt(num_initiators, num_targets, direction, _validated(
            num_initiators, num_targets, direction, start, duration, initiator, target,
            np.zeros(np.shape(start), dtype=bool) if critical is None else critical,
        ))

    def _adopt(self, num_initiators: int, num_targets: int, direction: str,
               columns: tuple[np.ndarray, ...]) -> None:
        """Take sorted, validated columns as they are and make them read-only.

        ``columns`` are ``start`` and ``duration`` (int64), ``initiator`` and
        ``target`` (int16) and ``critical`` (bool), each owned by this trace
        from now on.
        The last start plus the total duration must stay below 2**63: that
        bounds every end, the horizon and every replay's completion cycle,
        so int64 cycle arithmetic cannot wrap.
        """
        reach = int(columns[0][-1]) + exact_sum(columns[1]) if len(columns[0]) else 0
        if reach > _INT64_MAX:
            raise TraceError(f"last start cycle plus total duration is {reach}, "
                             "not below 2**63")
        for col in columns:
            col.flags.writeable = False
        self.num_initiators = num_initiators
        self.num_targets = num_targets
        self.direction = direction
        self.start, self.duration, self.initiator, self.target, self.critical = columns
        self.horizon = max((int((self.start[rows] + self.duration[rows]).max())
                            for rows in row_blocks(len(self.start))), default=0)

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
            (self.num_initiators, self.num_targets, self.direction)
            == (other.num_initiators, other.num_targets, other.direction)
            and all(np.array_equal(a, b) for a, b in zip(self._columns(), other._columns()))
        )

    def __repr__(self) -> str:
        return (f"Trace(num_initiators={self.num_initiators}, num_targets={self.num_targets}, "
                f"{len(self.start)} transactions, horizon={self.horizon})")


def exact_sum(values: np.ndarray) -> int:
    """Sum of a non-negative int64 column as a Python int, exact.

    The high and low 32-bit halves of each block of :data:`_ROW_BLOCK`
    entries are summed apart, so no int64 sum can wrap, and the scratch
    stays two blocks long.
    """
    blocks = (values[rows] for rows in row_blocks(len(values)))
    return sum((int((b >> 32).sum()) << 32) + int((b & 0xFFFFFFFF).sum()) for b in blocks)


def _is_sorted(start: np.ndarray, target: np.ndarray, initiator: np.ndarray) -> bool:
    """Whether rows are already in (start, target, initiator) order.

    Each block of rows is compared with the row before it, too, in int64.
    """
    for rows in row_blocks(len(start) - 1):
        with_next = slice(rows.start, rows.stop + 1)
        ds, dt, di = (np.diff(c[with_next].astype(np.int64, copy=False))
                      for c in (start, target, initiator))
        if not ((ds > 0) | ((ds == 0) & ((dt > 0) | ((dt == 0) & (di >= 0))))).all():
            return False
    return True


def _sorted(start, duration, initiator, target, critical) -> tuple[np.ndarray, ...]:
    """The columns in (start, target, initiator) order, ties in input order."""
    if _is_sorted(start, target, initiator):
        return start, duration, initiator, target, critical
    order = np.lexsort((initiator, target, start))  # stable
    return tuple(c[order] for c in (start, duration, initiator, target, critical))


def _validated(num_initiators, num_targets, direction, start, duration, initiator, target,
               critical) -> tuple[np.ndarray, ...]:
    """Sorted copies of the columns, after checking them against the core
    counts; the ids are read as int64 and narrowed once checked."""
    _check_core_counts(num_initiators, num_targets)
    _check_direction(direction)
    columns = (*(np.array(c, dtype=np.int64) for c in (start, duration, initiator, target)),
               np.array(critical, dtype=bool))
    shapes = [c.shape for c in columns]
    if len(set(shapes)) > 1 or columns[0].ndim != 1:
        raise TraceError(f"columns must be 1-D and of one length, got shapes {shapes}")
    columns = _sorted(*columns)
    _check_rows(columns, num_initiators, num_targets)
    start, duration, initiator, target, critical = columns
    return start, duration, initiator.astype(_CORE_ID), target.astype(_CORE_ID), critical


def group_rows(ids: np.ndarray, num_groups: int) -> tuple[np.ndarray, np.ndarray]:
    """Stable grouping of rows by ids in ``range(num_groups)``.

    Returns ``(order, bounds)``: the rows of group g are
    ``order[bounds[g]:bounds[g + 1]]``, in their original order.  The ids
    are sorted as 8- or 16-bit keys, copied to the narrowest type that
    holds them unless they are that narrow already (int16 trace ids
    included); beyond the keys the only row-length array is ``order``.
    """
    narrow = np.min_scalar_type(num_groups - 1)
    # 8/16-bit keys radix-sort
    keys = ids if ids.dtype.itemsize <= narrow.itemsize else ids.astype(narrow)
    bounds = np.zeros(num_groups + 1, dtype=np.int64)
    for rows in row_blocks(len(keys)):  # bincount widens its input to intp
        bounds[1:] += np.bincount(keys[rows], minlength=num_groups)
    np.cumsum(bounds, out=bounds)
    return np.argsort(keys, kind="stable"), bounds


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
    return tail >> np.uint64(64 - width) == np.uint64(int.from_bytes(text.encode(), "little"))


def _words(block: bytes) -> np.ndarray:
    """The unaligned little-endian word starting at every byte of ``block``."""
    return np.ndarray((len(block) - 7,), dtype="<u8", buffer=block, strides=(1,))


def _fold(words: np.ndarray) -> np.ndarray:
    """Values of 8-digit words, in place: one digit 0-9 a byte, first digit lowest.

    Three multiply-shift steps join neighbouring digits into 2-, 4- and
    8-digit numbers; no step carries across its lanes.
    """
    for scale, shift, lanes in ((10, 8, 0x00FF00FF00FF00FF), (100, 16, 0x0000FFFF0000FFFF),
                                (10000, 32, None)):
        words *= np.uint64(scale << shift | 1)
        words >>= np.uint64(shift)
        if lanes is not None:
            words &= np.uint64(lanes)
    return words


def _field_values(words: np.ndarray, ends: np.ndarray, digits: np.ndarray,
                  out: np.ndarray) -> None:
    """Write the numbers of ``digits`` ASCII digits ending before ``ends`` to ``out``.

    ``words`` is :func:`_words` of the block holding the fields.  A field's
    last 8 digits are the word that ends at the field's end, masked to the
    field's length; a field of 9 to 16 digits adds the word before, times
    10**8, and one of 17 or 18 the word before that, times 10**16.
    """
    value = out.view(np.uint64)
    np.bitwise_and(words[ends - 8], _DIGITS[np.minimum(digits, 8)], out=value)
    _fold(value)
    for j in range(1, (int(digits.max()) + 7) // 8):
        longer = np.nonzero(digits > 8 * j)
        high = _fold(words[ends[longer] - 8 * (j + 1)]
                     & _DIGITS[np.minimum(digits[longer] - 8 * j, 8)])
        high *= np.uint64(10 ** (8 * j))
        value[longer] += high


def _parse_block(block: bytes, eol: np.ndarray, cycles: np.ndarray, ids: np.ndarray,
                 resp: np.ndarray, critical: np.ndarray) -> bool:
    r"""Parse the canonical lines of ``block`` into the given columns; False if any
    deviates or names a core id outside 1..``MAX_CORES``.

    ``block`` is ``_PAD`` zero bytes followed by whole lines; ``eol`` holds
    the offset of every newline in it, the last being its final byte.  The
    lines end all in ``\n`` or all in ``\r\n``, as the first one does.
    ``cycles`` (int64, 2 x lines) receives ``start`` and ``duration``,
    ``ids`` (int16, 2 x lines) ``initiator`` and ``target``; ``resp`` and
    ``critical`` (bool) receive whether each line is a response and whether
    it is critical.
    """
    m = len(eol)
    c = np.frombuffer(block, dtype=np.uint8)
    commas = np.flatnonzero(c == ord(","))
    if len(commas) != 5 * m:
        return False  # a comment or a blank line, say, found before any per-line scratch
    cr = int(c[eol[0] - 1] == ord("\r"))  # bytes of a line end before its newline
    end = eol - cr  # each line's last byte: its newline, or the carriage return before it
    words = _words(block)
    tail = words[end - 7]
    last = "\r" if cr else "\n"
    is_req = _ends_with(tail, ",req,0" + last) | _ends_with(tail, ",req,1" + last)
    is_resp = _ends_with(tail, ",resp,0" + last) | _ends_with(tail, ",resp,1" + last)
    if not (is_req | is_resp).all():
        return False

    if not (commas[4::5] == end - 2).all():
        return False  # else line i holds exactly commas[5i:5i + 5]
    # a numeric field's digits: the gap to the comma before it, less that
    # comma, or for the first field, less the previous line's last 3 or 4 bytes
    digits = np.diff(commas, prepend=_PAD - 3 - cr).reshape(m, 5)[:, :4] - _FIELD_GAP
    digits[:, 0] -= cr
    if digits.min() < 1 or digits.max() > _MAX_DIGITS:
        return False
    # besides the pad, 5 commas, the line end and the direction's 3 or 4
    # letters a line, every byte must be a digit
    letters = 3 * m + np.count_nonzero(is_resp)
    if np.count_nonzero(c - np.uint8(ord("0")) < 10) != len(c) - _PAD - (6 + cr) * m - letters:
        return False

    fields = np.empty((4, m), dtype=np.int64)
    _field_values(words, commas.reshape(m, 5)[:, :4], digits, fields.T)
    if fields[2:].min() < 1 or fields[2:].max() > MAX_CORES:
        return False  # not an int16 id: the line parser reads it, and a check names it
    cycles[:] = fields[:2]
    ids[:] = fields[2:]
    resp[:] = is_resp
    np.equal(c[end - 1], ord("1"), out=critical)
    return True


def _line_blocks(stream: BinaryIO) -> Iterator[tuple[bytes, np.ndarray]]:
    """The rest of ``stream`` as blocks of whole lines, one a read.

    Yields ``(block, eol)``: ``_PAD`` zero bytes followed by the lines a
    read completes, and the offset of each line's newline in the block.
    The part of a line after a read's last newline is carried into the
    next block, and a read asks for as many bytes as are carried, at
    least, so a long line costs no repeated copying.  A read returning
    fewer bytes than asked is the last, as a buffered file reads on to its
    end; a last line without its newline gains one.
    """
    rest = b""
    while True:
        size = max(_READ_BYTES, len(rest))
        chunk = stream.read(size)
        last = len(chunk) < size
        if last and (rest or chunk) and not chunk.endswith(b"\n"):
            chunk += b"\n"
        eol = np.flatnonzero(np.frombuffer(chunk, dtype=np.uint8) == ord("\n"))
        if len(eol):
            cut = int(eol[-1]) + 1
            yield b"".join((bytes(_PAD), rest, memoryview(chunk)[:cut])), eol + (_PAD + len(rest))
            rest = chunk[cut:]
        else:
            rest += chunk
        if last:
            return


def _parse_lines(body: bytes, path: Path, num_initiators: int, num_targets: int,
                 first: int) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    r"""Parse body lines one by one; returns the rows' columns and line numbers.

    The columns are ``start``, ``duration``, ``initiator`` and ``target``
    (int64: the ids are not checked yet), then whether the row is critical
    and whether it is a response (bool).  ``body`` starts at line
    ``first`` of the file.  A line ends at ``\n`` and is decoded as UTF-8
    on its own.  A malformed line raises :class:`TraceError` naming it,
    unless an earlier line of ``body`` breaks a range rule, which is then
    reported instead.
    """
    rows: list[tuple[int, ...]] = []
    linenos: list[int] = []
    for lineno, raw in enumerate(body.split(b"\n"), start=first):
        try:
            line = raw.decode("utf-8").strip()
            if not line or line.startswith("#"):
                continue
            parts = [p.strip() for p in line.split(",")]
            if len(parts) != 6:
                raise TraceError(f"expected 6 fields, got {len(parts)}")
            values = [int(p) for p in parts[:4]]
            if not all(_INT64_MIN <= v <= _INT64_MAX for v in values):
                raise TraceError("value outside the 64-bit integer range")
            _check_direction(parts[4])
            if parts[5] not in ("0", "1"):
                raise TraceError(f"critical must be 0 or 1, got {parts[5]!r}")
        except ValueError as exc:  # a TraceError, a non-UTF-8 line or a non-integer field
            _check_rows(_row_columns(rows), num_initiators, num_targets, path, linenos)
            raise TraceError(f"{path}:{lineno}: {exc}") from None
        rows.append((*values, parts[5] == "1", parts[4] == RESPONSE))
        linenos.append(lineno)
    return _row_columns(rows), np.array(linenos, dtype=np.int64)


def _row_columns(rows: list[tuple[int, ...]]) -> tuple[np.ndarray, ...]:
    """The columns of parsed ``(start, duration, initiator, target, critical, resp)`` rows."""
    table = np.array(rows, dtype=np.int64).reshape(-1, 6).T
    return (*np.ascontiguousarray(table[:4]), table[4] == 1, table[5] == 1)


def load_trace(path: str | Path, direction: str = REQUEST) -> Trace:
    r"""Parse a trace file, keeping only rows moving in ``direction``.

    For ``direction="resp"`` the initiator/target roles (and the declared
    core counts) are swapped in the returned trace, so downstream analysis
    always binds the *receivers* of the selected flow to buses.  Every row
    is validated once, whatever its direction; errors name the first
    offending line.

    After the header, both passes read the body through
    :func:`_line_blocks`, in blocks of the whole lines of a
    ``_READ_BYTES`` read, each behind ``_PAD`` zero bytes.  The first
    counts the body's lines, to size the columns; the second parses each
    block.  A block in the canonical layout :func:`save_trace` writes,
    every line ``start,duration,initiator,target,req|resp,0|1`` with no
    spaces, comments or blank lines, is parsed in bulk
    (:func:`_parse_block`), whether all its lines end in ``\n`` or all in
    ``\r\n``:

    1. The direction and critical fields are checked at fixed offsets
       from each line end, reading the 8 bytes that end the line, less
       its newline and any carriage return before it, as one word.
    2. The structure is checked over the comma positions: each line holds
       exactly five commas, the fifth just before the critical digit;
       each of the four numeric fields has 1 to 18 digits; and the block
       holds no byte but digits, commas, line ends and the direction's
       letters.
    3. Each numeric field is computed from the 8-byte little-endian words
       that end it (one for up to 8 digits, two for 9 to 16, three for 17
       or 18), each masked to the field's digits and folded into its value
       by three multiply-shift steps in uint64 (SWAR, as in Langdale and
       Lemire, "Parsing Gigabytes of JSON per Second", 2019).  The pad
       keeps every word a field needs inside the block, and 18 digits
       always fit int64, so the values are exact.

    Any other block, such as one holding a comment, both kinds of line
    end, a field of 19 or more digits or a core id outside
    1..``MAX_CORES``, is parsed alone by :func:`_parse_lines`, which names
    its first malformed line.  Each block's rows are then range-checked, naming their lines,
    so every earlier block is checked before a later error is named; the
    rows moving in ``direction`` are packed at the front of the columns.
    When fewer rows are kept than the body has lines, they are copied once
    into columns of their own size, so no buffer sized by the file's lines
    outlives the load.  Besides the columns the scratch is a few blocks.
    A second pass that finds another number of lines than the first (the
    file changed in between) raises :class:`TraceError` naming ``path``.
    The returned trace adopts the columns without copying or checking
    them again.
    """
    _check_direction(direction)
    path = Path(path)
    with path.open("rb") as stream:
        first = stream.readline()
        if not first:
            raise TraceError(f"{path}: empty file, missing header")
        # A header holding any non-ASCII byte does not match, so a matched one
        # is as many characters long as bytes.
        header = _HEADER_RE.match(first.removesuffix(b"\n").decode("ascii", errors="replace"))
        if not header:
            raise TraceError(
                f"{path}:1: bad header, expected '#xbar-trace v1,initiators=<n>,targets=<n>'"
            )
        try:  # a count of thousands of digits is past int()'s limit: a ValueError too
            num_initiators, num_targets = int(header[1]), int(header[2])
            _check_core_counts(num_initiators, num_targets)
        except ValueError as exc:
            raise TraceError(f"{path}:1: {exc}") from None
        n = sum(len(eol) for _, eol in _line_blocks(stream))
        stream.seek(len(first))
        cycles, ids = np.empty((2, n), dtype=np.int64), np.empty((2, n), dtype=_CORE_ID)
        critical = np.empty(n, dtype=bool)
        columns = (*cycles, *ids, critical)
        lines = kept = 0
        for block, eol in _line_blocks(stream):
            lineno, lines = lines + 2, lines + len(eol)
            if lines > n:
                break
            rows, is_resp = slice(kept, kept + len(eol)), np.empty(len(eol), dtype=bool)
            if bulk := _parse_block(block, eol, cycles[:, rows], ids[:, rows], is_resp,
                                    critical[rows]):
                parsed, linenos = [c[rows] for c in columns], range(lineno, lines + 2)
            else:
                (*parsed, is_resp), linenos = _parse_lines(block[_PAD:], path, num_initiators,
                                                           num_targets, lineno)
            _check_rows(parsed, num_initiators, num_targets, path, linenos)
            keep = is_resp if direction == RESPONSE else ~is_resp
            count = int(np.count_nonzero(keep))
            if not bulk or count < len(keep):  # checked, so the ids fit the int16 columns
                for col, values in zip(columns, parsed):
                    col[kept:kept + count] = values[keep]
            kept += count
    if lines != n:
        raise TraceError(f"{path}: changed while being read: {n} body lines at first, "
                         f"then {'more' if lines > n else lines}")
    start, duration, initiator, target, critical = (
        columns if kept == n else (c[:kept].copy() for c in columns))
    if direction == RESPONSE:
        initiator, target = target, initiator
        num_initiators, num_targets = num_targets, num_initiators
    trace = Trace.__new__(Trace)
    trace._adopt(num_initiators, num_targets, direction,
                 _sorted(start, duration, initiator, target, critical))
    return trace


def save_trace(trace: Trace, path: str | Path) -> None:
    """Write a trace back to the CSV format accepted by :func:`load_trace`.

    A response trace is written back in role frame (master column and
    count first), undoing the swap done at load time, so a save/load round
    trip with the trace's direction reproduces it, empty or not.
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
