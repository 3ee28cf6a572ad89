"""Seeded synthetic trace generator with two-level bursty structure.

Each initiator alternates burst and gap periods: burst k+1 starts
``burst_len_mean + jittered gap`` cycles after burst k started, so gap
jitter accumulates into a slow phase drift and pairs of initiators sweep
through different relative alignments over the horizon.  A burst occupies
a jittered span; within the span, one contiguous busy run covers an
``intra_duty`` fraction of the span (at least one cycle) and is emitted as
back-to-back packets.  The run sits at a per-initiator home offset into
the span's slack, blended with a fresh draw per burst by ``run_jitter``.
With the default duty of 1.0 the burst is one solid busy block, which
keeps per-initiator busy mass at ``horizon * burst / (burst + gap)`` up
to jitter; a duty below 1.0 scales that mass by the same factor.

``phase_correlation`` interpolates between lockstep (1.0: identical
start phases and a gap-jitter sequence shared by all initiators, so
every burst of every initiator starts on the same cycle) and full
independence (0.0: uniform phases, private jitter).  Randomness comes
from one PCG64 stream per initiator plus one shared stream, spawned
from the spec seed, so traces are reproducible bit for bit and adding
an initiator never perturbs the others.

Bursts never straddle the horizon: a burst whose span would end past it
is dropped, biasing totals slightly low.
"""

from __future__ import annotations

import functools
from dataclasses import MISSING, dataclass, fields
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .trace import MAX_CORES, Trace

PRESET_NAMES = ("mat2like", "uniform", "hotspot")

# The most rows a spec may emit, by the bound GenSpec computes; it bounds the
# generator's time and memory.  The 100x uniform spec (520 k rows) bounds at 1.28 M.
MAX_GEN_ROWS = 1 << 21

# Shared-target accesses are sized so every shared target carries at most
# a twentieth of a private target's busy mass, half the documented 10% cap.
_SHARED_MASS_DIVISOR = 20


class GenError(ValueError):
    """Invalid GenSpec or a horizon too small to fit any burst."""


@dataclass(frozen=True)
class GenSpec:
    """Parameters of the synthetic workload.

    ``shared_target_ids`` names targets that receive only low-rate
    traffic (one short access per initiator per burst, round-robin);
    every remaining target is a private target, assigned to initiators
    in id order (initiator i -> private target ((i-1) mod n_priv) + 1).
    ``critical_stream_pairs`` lists (initiator_id, target_id) streams
    whose transactions are flagged critical.
    """

    num_initiators: int
    num_targets: int
    burst_len_mean: int
    burst_len_jitter: float
    inter_burst_gap_mean: int
    phase_correlation: float
    shared_target_ids: tuple[int, ...]
    critical_stream_pairs: tuple[tuple[int, int], ...]
    horizon: int
    seed: int
    # Texture knobs beyond the basic burst/gap alternation: the busy
    # fraction of each burst's span, the packet length its one run is cut
    # into, and how far the run moves inside the span from burst to burst.
    # Defaults reproduce the plain model: one solid busy block per burst.
    intra_duty: float = 1.0
    packet_len: int = 0  # 0 = one transaction per run
    run_jitter: float = 0.0

    def __post_init__(self):
        if self.num_initiators < 1 or self.num_targets < 1:
            raise GenError("num_initiators and num_targets must be positive")
        if max(self.num_initiators, self.num_targets) > MAX_CORES:  # a trace's bound
            raise GenError(f"num_initiators and num_targets must be at most {MAX_CORES}")
        if self.burst_len_mean < 1:
            raise GenError("burst_len_mean must be positive")
        if not 0.0 <= self.burst_len_jitter < 1.0:
            raise GenError("burst_len_jitter must lie in [0, 1)")
        if self.inter_burst_gap_mean < 1:
            raise GenError("inter_burst_gap_mean must be positive")
        if not 0.0 <= self.phase_correlation <= 1.0:
            raise GenError("phase_correlation must lie in [0, 1]")
        if self.horizon < 1:
            raise GenError("horizon must be positive")
        if self.seed < 0:
            raise GenError(f"seed must be non-negative, got {self.seed}")
        if not 0.0 < self.intra_duty <= 1.0:
            raise GenError("intra_duty must lie in (0, 1]")
        if self.packet_len < 0:
            raise GenError("packet_len must be non-negative")
        if not 0.0 <= self.run_jitter <= 1.0:
            raise GenError("run_jitter must lie in [0, 1]")
        for name in ("burst_len_mean", "inter_burst_gap_mean", "horizon", "packet_len"):
            if getattr(self, name) >= 1 << 63:  # generate() computes with floats
                raise GenError(f"{name} must be below 2**63 cycles")
        bad = [t for t in self.shared_target_ids if not 1 <= t <= self.num_targets]
        if bad:
            raise GenError(f"shared_target_ids outside 1..{self.num_targets}: {bad}")
        if len(set(self.shared_target_ids)) == self.num_targets:
            raise GenError("at least one target must remain private")
        for init, tgt in self.critical_stream_pairs:
            if not 1 <= init <= self.num_initiators or not 1 <= tgt <= self.num_targets:
                raise GenError(f"critical stream ({init}, {tgt}) out of range")
        # generate() emits one row per packet of each burst, whose span is at
        # most 2 * burst_len_mean cycles, and at most one shared access per burst
        packets = -(-2 * self.burst_len_mean // self.packet_len) if self.packet_len else 1
        bursts = self.num_initiators * (self.horizon // self.slot_period + 1)
        rows = bursts * (packets + bool(self.shared_target_ids))
        if rows > MAX_GEN_ROWS:
            raise GenError(f"spec may emit {rows} trace rows, more than {MAX_GEN_ROWS}: "
                           "shorten the horizon or lengthen packet_len")

    @property
    def slot_period(self) -> int:
        return self.burst_len_mean + self.inter_burst_gap_mean

    def private_targets(self) -> list[int]:
        shared = set(self.shared_target_ids)
        return [t for t in range(1, self.num_targets + 1) if t not in shared]


def _cut_packets(rows: np.ndarray, packet_len: int) -> np.ndarray:
    """Cut rows (start, duration, initiator, target, critical, split) into
    back-to-back packet rows (start, duration, initiator, target, critical).

    A row with ``split`` set becomes ``ceil(duration / packet_len)`` packets
    of ``packet_len`` cycles, the last one shorter; any other row, and every
    row when ``packet_len`` is 0 or at least its duration, stays one packet.
    Packets keep their row's order.
    """
    duration = rows[:, 1]
    counts = np.ones(len(rows), dtype=np.int64)
    if packet_len > 0:
        split = rows[:, 5].astype(bool)
        counts[split] = np.maximum(1, -(-duration[split] // packet_len))
    idx = np.repeat(np.arange(len(rows)), counts)
    # packet index within its row, times packet_len
    offset = (np.arange(len(idx)) - np.repeat(np.cumsum(counts) - counts, counts)) * packet_len
    cap = np.where(counts > 1, packet_len, duration)[idx]
    packets = rows[idx, :5]
    packets[:, 0] += offset
    packets[:, 1] = np.minimum(cap, duration[idx] - offset)
    return packets


def generate(spec: GenSpec) -> Trace:
    """Produce a deterministic trace for ``spec``.

    Each burst's busy run and each shared access is recorded as one row,
    in emission order; one :func:`_cut_packets` pass then cuts the runs
    into packets.  Raises GenError when the horizon is too small for at
    least one full burst per initiator.  No burst straddles
    ``spec.horizon``, so the trace's own horizon, its last busy cycle, is
    at most ``spec.horizon``.
    """
    period = spec.slot_period
    privates = spec.private_targets()
    shared = spec.shared_target_ids
    critical_set = set(spec.critical_stream_pairs)
    # Short shared accesses: sized so each shared target's mass stays
    # well under a tenth of a private target's.
    if shared:
        busy_mean = max(1, round(spec.burst_len_mean * spec.intra_duty))
        shared_len = max(
            1, busy_mean * len(shared) // (_SHARED_MASS_DIVISOR * len(privates))
        )

    seq = np.random.SeedSequence(spec.seed).spawn(spec.num_initiators + 1)
    rows: list[tuple[int, int, int, int, bool, bool]] = []  # ..., critical, split
    spread = 1.0 - spec.phase_correlation
    pc = spec.phase_correlation
    # Every initiator replays the same shared jitter sequence, one draw per
    # slot; mixing it with the private one by phase_correlation makes the
    # walks identical at 1.0 and independent at 0.0.
    common = np.random.Generator(np.random.PCG64(seq[-1])).random(
        spec.horizon // period + 1).tolist()
    for idx in range(spec.num_initiators):
        init = idx + 1
        rng = np.random.Generator(np.random.PCG64(seq[idx]))
        tgt = privates[idx % len(privates)]
        crit = (init, tgt) in critical_set
        span_start = int(spread * rng.random() * period)
        # Persistent run placement inside the span, drawn once so the
        # initiator keeps its rhythm from burst to burst.
        home_frac = rng.random()
        for slot, shared_draw in enumerate(common):
            u = rng.random()
            eps = pc * (2 * shared_draw - 1) + spread * (2 * rng.random() - 1)
            span = max(
                1, round(spec.burst_len_mean * (1.0 + spec.burst_len_jitter * (2 * u - 1)))
            )
            if span_start + span > spec.horizon:
                if slot == 0:
                    raise GenError(
                        f"horizon {spec.horizon} too small: initiator i_{init} "
                        f"cannot fit one burst of ~{spec.burst_len_mean} cycles"
                    )
                break
            busy = max(1, round(span * spec.intra_duty))
            frac = home_frac
            if spec.run_jitter > 0.0:
                frac = (1.0 - spec.run_jitter) * home_frac + spec.run_jitter * rng.random()
            rows.append((span_start + int(frac * (span - busy)), busy, init, tgt, crit, True))
            if shared:
                stgt = shared[(idx + slot) % len(shared)]
                rank = idx // len(shared)
                sstart = span_start + span + rank * (shared_len + 1)
                if sstart + shared_len <= spec.horizon:
                    rows.append((sstart, shared_len, init, stgt,
                                 (init, stgt) in critical_set, False))
            gap = round(
                spec.inter_burst_gap_mean * (1.0 + spec.burst_len_jitter * eps)
            )
            span_start += spec.burst_len_mean + max(1, gap)
    start, duration, initiator, target, critical = _cut_packets(
        np.array(rows, dtype=np.int64).reshape(-1, 6), spec.packet_len
    ).T
    return Trace(spec.num_initiators, spec.num_targets, start, duration, initiator, target,
                 critical)


def benchmark_preset(name: str) -> GenSpec:
    """Named workload shapes: a 9-core platform with three low-rate
    shared targets and correlated phases (mat2like), a 20-core uniform
    benchmark with independent phases (uniform), and an 8-initiator
    single-hot-target stress (hotspot)."""
    if name == "mat2like":
        return GenSpec(
            num_initiators=9,
            num_targets=12,
            burst_len_mean=1000,
            burst_len_jitter=0.2,
            inter_burst_gap_mean=19_000,
            phase_correlation=0.4,
            shared_target_ids=(10, 11, 12),
            critical_stream_pairs=((1, 1), (2, 2), (3, 3)),
            horizon=240_000,
            seed=2024,
            intra_duty=0.4,
            packet_len=10,
            run_jitter=0.3,
        )
    if name == "uniform":
        return GenSpec(
            num_initiators=20,
            num_targets=20,
            burst_len_mean=1000,
            burst_len_jitter=0.15,
            inter_burst_gap_mean=14_000,
            phase_correlation=0.0,
            shared_target_ids=(),
            critical_stream_pairs=(),
            horizon=120_000,
            seed=2024,
            intra_duty=0.8,
            packet_len=25,
            run_jitter=0.3,
        )
    if name == "hotspot":
        return GenSpec(
            num_initiators=8,
            num_targets=4,
            burst_len_mean=1000,
            burst_len_jitter=0.1,
            inter_burst_gap_mean=5000,
            phase_correlation=0.0,
            shared_target_ids=(2, 3, 4),
            critical_stream_pairs=(),
            horizon=60_000,
            seed=2024,
            packet_len=50,
        )
    raise GenError(f"unknown preset {name!r}; choose from {', '.join(PRESET_NAMES)}")


def spec_to_text(spec: GenSpec) -> str:
    """Render a GenSpec as a key=value config file."""
    lines = []
    for f in fields(spec):
        v = getattr(spec, f.name)
        if f.name == "shared_target_ids":
            v = ",".join(str(t) for t in v)
        elif f.name == "critical_stream_pairs":
            v = ";".join(f"{i}:{t}" for i, t in v)
        lines.append(f"{f.name} = {v}")
    return "\n".join(lines) + "\n"


@functools.cache
def _field_types() -> dict[str, type]:
    """GenSpec's resolved field annotations, resolved on first use."""
    return get_type_hints(GenSpec)


def spec_from_text(text: str) -> GenSpec:
    r"""Parse the key=value config format written by spec_to_text.

    A line ends at ``\n`` and a ``\r`` before it is stripped, as in a
    trace file; ``#`` starts a comment.  Unknown keys and malformed lines
    raise GenError naming the line (``line <n>: ...``); omitted keys take
    the GenSpec defaults (required fields must appear).  Scalar values are
    read as their field's annotated type.
    """
    return _parse_spec(text.encode("utf-8").split(b"\n"), None)


def load_spec(path: str | Path) -> GenSpec:
    """Read a config file as :func:`spec_from_text` reads its text, each
    line decoded as UTF-8 on its own.  A fault names the file, as a trace
    fault does: ``<path>:<line>: ...`` for a line, ``<path>: ...`` for the
    whole spec (a missing key or a value out of range)."""
    path = Path(path)
    return _parse_spec(path.read_bytes().split(b"\n"), path)


def _parse_spec(lines: list[bytes], path: Path | None) -> GenSpec:
    """The GenSpec of config ``lines``; faults are prefixed with ``path``, if any."""
    types = _field_types()
    values: dict = {}
    for lineno, raw in enumerate(lines, start=1):
        try:
            values.update(_parse_line(raw, types))
        except ValueError as exc:  # a GenError or a line that is not UTF-8
            where = f"line {lineno}" if path is None else f"{path}:{lineno}"
            raise GenError(f"{where}: {exc}") from None
    try:
        required = [
            f.name for f in fields(GenSpec) if f.default is MISSING and f.name not in values
        ]
        if required:
            raise GenError(f"missing required keys: {', '.join(required)}")
        return GenSpec(**values)
    except GenError as exc:
        if path is None:
            raise
        raise GenError(f"{path}: {exc}") from None


def _parse_line(raw: bytes, types: dict[str, type]) -> dict:
    """The ``{key: value}`` of one config line; empty for a blank or comment line."""
    text = raw.decode("utf-8").removesuffix("\r")
    line = text.split("#", 1)[0].strip()
    if not line:
        return {}
    if "=" not in line:
        raise GenError(f"expected key = value, got {text!r}")
    key, _, val = line.partition("=")
    key, val = key.strip(), val.strip()
    if key not in types:
        raise GenError(f"unknown key {key!r}")
    try:
        if key == "shared_target_ids":
            return {key: tuple(int(t) for t in val.replace(";", ",").split(",") if t.strip())}
        if key == "critical_stream_pairs":
            pairs = (chunk.partition(":") for chunk in val.split(";") if chunk.strip())
            return {key: tuple((int(a), int(b)) for a, _, b in pairs)}
        return {key: types[key](val)}
    except ValueError as exc:
        raise GenError(f"bad value for {key}: {val!r}") from exc
