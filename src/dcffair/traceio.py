"""Trace containers and their CSV files: the slot trace, the event trace
and the ownership CSV, each headed by its *_HEADER below, the one header
its reader takes.

A slot trace row is a transmission slot or a maximal run of k idle slots,
whose owner_or_colliders holds k and whose duration_us is k idle slots';
a collision's members are ';'-joined there. The readers require a row's
slot_index and wallclock_start_us to be the sums of the counts (1 for a
transmission) and of the durations before it. Rows end in CRLF, as with
the csv module; the readers accept CRLF and LF alike. Integral event
timestamps print as integers, the others as the float's repr.

Files stream in chunks of _CHUNK_ROWS rows, so memory stays flat however
long the trace. A chunk is written as one byte matrix: each field is an
(rows, width) uint8 matrix of ASCII padded with NUL (integers by
floor_divide passes, outcome names by table lookup, a finite non-integral
float beyond +-1 as its integer part and its repr's shortest round-trip
fraction), the fields and the ',' and CRLF columns are stacked side by
side, and the NULs are deleted. Only a collision's colliders and the
other floats (nan, +-inf, |v| < 1, integral ones written as floats or
beyond int64) are formatted one value at a time. A chunk of lines is
parsed by np.loadtxt.
"""

from __future__ import annotations

import io
import re
import warnings
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import TraceFormatError

IDLE, SUCCESS, COLLISION = 0, 1, 2
# outcome names by code, NUL-padded ASCII
_OUTCOME_NAMES = np.array([b"idle", b"success", b"collision"]).view(
    np.uint8).reshape(3, 9)

_CHUNK_ROWS = 8192
SLOT_HEADER = ("slot_index", "wallclock_start_us", "outcome",
               "owner_or_colliders", "duration_us")
EVENT_HEADER = ("station", "packet_id", "arrival_us", "departure_us")
OWNERSHIP_HEADER = ("success_index", "owner_id")
# a collision's outcome and colliders, as read back
_COLLISION_FIELDS = re.compile(r",collision,([^,\n]*),")


@dataclass
class SlotTrace:
    """Run-length slot trace: one row per transmission slot and one per
    maximal run of idle slots, in channel order.

    counts holds the slots a row covers, 1 for a transmission and k for an
    idle run, whose duration is its k idle slots together. colliders holds
    one id-tuple per collision row, in collision order.
    """

    codes: np.ndarray       # int8, IDLE/SUCCESS/COLLISION
    owners: np.ndarray      # int32, success owner or -1
    durations: np.ndarray   # int64 microseconds
    counts: np.ndarray      # int64 slots
    colliders: list[tuple[int, ...]] = field(default_factory=list)

    def __len__(self) -> int:
        return int(self.codes.size)

    @classmethod
    def from_lists(cls, codes, owners, durations, colliders=None,
                   counts=None):
        """Rows from lists; counts defaults to one slot per row."""
        return cls(
            codes=np.asarray(codes, dtype=np.int8),
            owners=np.asarray(owners, dtype=np.int32),
            durations=np.asarray(durations, dtype=np.int64),
            counts=np.asarray([1] * len(codes) if counts is None else counts,
                              dtype=np.int64),
            colliders=list(colliders or []),
        )

    @classmethod
    def from_transmissions(cls, n_slots: int, idle_us: int, successes,
                           owners, success_us, collisions, collision_us,
                           colliders) -> "SlotTrace":
        """n_slots slots, idle of idle_us each except at the ascending slot
        indices successes (won by owners) and collisions: the transmission
        rows in slot order, with a row for each idle run between them."""
        at = np.array([*successes, *collisions], dtype=np.int64)
        order = np.argsort(at, kind="stable")  # two ascending runs: a merge
        # idle slots before each transmission, and after the last one
        gaps = np.diff(at[order], prepend=-1, append=n_slots) - 1
        idle = gaps > 0
        runs_before = np.cumsum(idle)
        tx = np.arange(order.size) + runs_before[:-1]  # transmission rows
        counts = np.ones(order.size + runs_before[-1], dtype=np.int64)
        counts[(np.arange(gaps.size) + runs_before - 1)[idle]] = gaps[idle]
        trace = cls(codes=np.zeros(counts.size, dtype=np.int8),
                    owners=np.full(counts.size, -1, dtype=np.int32),
                    durations=counts * idle_us, counts=counts,
                    colliders=list(colliders))
        trace.codes[tx] = np.where(order < len(successes), SUCCESS, COLLISION)
        trace.owners[tx] = np.concatenate(
            (owners, np.full(len(collisions), -1, dtype=np.int32)))[order]
        trace.durations[tx] = np.concatenate((success_us, collision_us))[order]
        return trace

    def wallclock_starts(self) -> np.ndarray:
        """Row start times: prefix sums of the preceding durations."""
        return np.cumsum(self.durations) - self.durations

    def slot_indices(self) -> np.ndarray:
        """Each row's first slot: prefix sums of the preceding counts."""
        return np.cumsum(self.counts) - self.counts


@dataclass
class EventTrace:
    """Departure events: (station, packet_id, arrival, departure), in
    departure order. FIFO per station."""

    station: np.ndarray     # int32
    packet_id: np.ndarray   # int64
    arrival: np.ndarray     # float64 microseconds
    departure: np.ndarray   # float64 microseconds

    def __len__(self) -> int:
        return int(self.station.size)

    @classmethod
    def from_lists(cls, station, packet_id, arrival, departure):
        return cls(
            station=np.asarray(station, dtype=np.int32),
            packet_id=np.asarray(packet_id, dtype=np.int64),
            arrival=np.asarray(arrival, dtype=np.float64),
            departure=np.asarray(departure, dtype=np.float64),
        )

    def for_station(self, station: int) -> "EventTrace":
        mask = self.station == station
        return EventTrace(**{k: v[mask] for k, v in vars(self).items()})


def _chunks(n_rows: int) -> Iterable[tuple[int, int]]:
    return ((a, min(a + _CHUNK_ROWS, n_rows))
            for a in range(0, n_rows, _CHUNK_ROWS))


def _digits(values: np.ndarray, rows: np.ndarray | None = None
            ) -> np.ndarray:
    """Integers as decimal ASCII, one NUL-padded row each: an (n, width)
    uint8 matrix, '-' first in a negative's row. Rows outside the bool mask
    rows, if given, are all NUL."""
    if rows is not None:
        values = np.where(rows, values, 0)
    values = values.astype(np.int64, copy=False)
    negative = values < 0
    magnitude = values.astype(np.uint64)
    # negated in uint64, so int64 min gets its magnitude too
    np.negative(magnitude, out=magnitude, where=negative)
    top = magnitude.max()
    width = len(str(top))
    # floor_divide by a scalar is fastest in the narrowest dtype
    magnitude = magnitude.astype(np.min_scalar_type(top))
    out = np.empty((values.size, width + 1), np.uint8)
    out[:, 0] = negative
    out[:, 0] *= ord("-")
    for col in range(width, 0, -1):
        quotient = magnitude // 10
        digit = (magnitude - quotient * 10).astype(np.uint8) + ord("0")
        if col < width:
            digit *= magnitude != 0  # a leading zero is NUL
        elif rows is not None:
            digit *= rows
        out[:, col] = digit
        magnitude = quotient
    return out


def _text(strings: list[str], rows, n: int) -> np.ndarray:
    """ASCII strings at the given rows of an n-row field, the other rows
    all NUL: an (n, width) uint8 matrix."""
    text = np.array(strings, dtype=bytes)
    out = np.zeros((n, text.itemsize), np.uint8)
    out[rows] = text.view(np.uint8).reshape(-1, text.itemsize)
    return out


def _write(path: str | Path, header: Sequence[str], chunks) -> None:
    """Write the header, then each chunk, a list of (rows, width) uint8
    field matrices (see _digits and _text), as rows: the fields side by
    side with ',' between and CRLF after, as with the csv module, and the
    NUL padding dropped. No field holds a NUL, so exactly the rows remain."""
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\r\n").encode())
        for fields in chunks:
            n = fields[0].shape[0]
            parts = [np.full((n, 1), ord(","), np.uint8)] * (2 * len(fields))
            parts[::2] = fields
            parts[-1] = np.full((n, 2), (ord("\r"), ord("\n")), np.uint8)
            fh.write(np.hstack(parts).tobytes().translate(None, b"\0"))


def _column(values) -> np.ndarray:
    """A write_csv column chunk as a field: integers in decimal, float64
    arrays through _float_field, any other value as str (so a float as its
    repr)."""
    if isinstance(values, range):
        values = np.arange(values.start, values.stop, values.step)
    if isinstance(values, np.ndarray):
        if values.dtype.kind == "i":
            return _digits(values)
        if values.dtype == np.float64:
            return _float_field(values)
        values = values.tolist()
    return _text(list(map(str, values)), slice(None), len(values))


def write_csv(path: str | Path, columns: dict) -> None:
    """Named equal-length columns (arrays, lists or ranges) as CSV rows,
    in the dict's order."""
    cols = list(columns.values())
    _write(path, list(columns), ([_column(c[a:b]) for c in cols]
                                 for a, b in _chunks(len(cols[0]))))


_POW10 = np.array([10 ** j for j in range(17)], np.uint64)


def _fraction(values: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """'.' and the fraction digits of repr(v) for the finite non-integral
    v, |v| > 1, at the bool mask rows, other rows all NUL; the integer part
    _digits(trunc(v)) goes before it. |v|'s fraction is f / 2^k exactly,
    1 <= k <= 52, and repr(v) has the fewest digits j whose nearest j-digit
    decimal d / 10^j reads back as v, within half an ulp 2^-k of it:
    2 |f 10^j - d 2^k| < 10^j. (Exactly half an ulp would need j > k, and
    then v has j digits itself.) This holds from some j <= 16 on, so j is
    bisected over 1..16: the shortest round trip of Adams's Ryu (PLDI
    2018), cut down to this range."""
    mantissa, exp = np.frexp(np.abs(values[rows]))
    k = (53 - exp).astype(np.uint64)
    scale = 1 << k  # 2^k
    frac = np.ldexp(mantissa, 53).astype(np.uint64) & (scale - 1)
    lo, j = np.ones(k.size, np.intp), np.full(k.size, 16, np.intp)
    for _ in range(4):
        mid = (lo + j) >> 1
        p = _POW10.take(mid)
        rest = (frac * p) & (scale - 1)  # f 10^j mod 2^k: low 64 bits suffice
        ok = 2 * np.minimum(rest, scale - rest) < p
        np.copyto(j, mid, where=ok)
        np.copyto(lo, mid + 1, where=~ok)
    # d: f 10^j as two uint64 limbs from 32-bit halves, shifted right by k
    p = _POW10.take(j)
    f_lo, f_hi = frac & 0xFFFFFFFF, frac >> 32
    p_lo, p_hi = p & 0xFFFFFFFF, p >> 32
    low, mid = f_lo * p_lo, f_hi * p_lo + f_lo * p_hi
    bottom = low + (mid << 32)
    top = f_hi * p_hi + (mid >> 32) + (bottom < low)
    quotient, rest = (top << (64 - k)) | (bottom >> k), bottom & (scale - 1)
    up = (rest > scale >> 1) | ((rest == scale >> 1) & (quotient & 1 == 1))
    # 1 and the j digits of d, its leading 1 then made '.'
    digits = np.zeros(values.size, np.int64)
    digits[rows] = p + quotient + up
    out = _digits(digits, rows)
    out[np.flatnonzero(rows), out.shape[1] - 1 - j] = ord(".")
    return out


def _float_field(values: np.ndarray, integers: bool = False) -> np.ndarray:
    """Floats as a field: each as its repr or, with integers, an integral
    one as an integer (-0.0 as 0). Finite non-integral ones beyond +-1 go
    through _fraction; only the rest (nan, +-inf, |v| < 1, integral ones
    written as floats or beyond int64) are formatted one value at a time."""
    trunc, size = np.trunc(values), np.abs(values)
    short = (size > 1) & (values != trunc)  # neither nan nor +-inf
    integral = (values == trunc) & np.isfinite(values) & integers
    rows = short | (integral & (size < 2.0 ** 63))
    other = np.flatnonzero(~rows)
    texts = [str(int(v)) if whole else repr(v) for v, whole
             in zip(values[other].tolist(), integral[other].tolist())]
    return np.hstack([_digits(trunc, rows), _fraction(values, short),
                      _text(texts, other, values.size)])


def _slot_fields(trace: SlotTrace):
    starts, slots = trace.wallclock_starts(), trace.slot_indices()
    done = 0  # collisions written so far
    for a, b in _chunks(len(trace)):
        codes = trace.codes[a:b]
        collision = np.flatnonzero(codes == COLLISION)
        colliders = [";".join(map(str, c)) for c in
                     trace.colliders[done:done + collision.size]]
        done += collision.size
        # a success's owner or an idle run's count, else the colliders
        who = np.hstack([_digits(np.where(codes == IDLE, trace.counts[a:b],
                                          trace.owners[a:b]),
                                 codes != COLLISION),
                         _text(colliders, collision, b - a)])
        yield [_digits(slots[a:b]), _digits(starts[a:b]),
               _OUTCOME_NAMES.take(codes, axis=0), who,
               _digits(trace.durations[a:b])]


def write_slot_trace_csv(trace: SlotTrace, path: str | Path) -> None:
    _write(path, SLOT_HEADER, _slot_fields(trace))


def write_event_trace_csv(trace: EventTrace, path: str | Path) -> None:
    _write(path, EVENT_HEADER,
           ([_digits(trace.station[a:b]), _digits(trace.packet_id[a:b]),
             _float_field(trace.arrival[a:b], integers=True),
             _float_field(trace.departure[a:b], integers=True)]
            for a, b in _chunks(len(trace))))


def write_ownership_csv(owners: Sequence[int] | np.ndarray,
                        path: str | Path) -> None:
    """Success-ownership sequence, one row per success, numbered by
    success_index 0, 1, 2, ..."""
    owners = np.asarray(owners, dtype=np.int64)
    write_csv(path, dict(zip(OWNERSHIP_HEADER, (range(owners.size), owners))))


def _parse(lines: list[str], dtype: np.dtype, prepare) -> np.ndarray | None:
    """Rows of a chunk of lines, or None if a line is not one row."""
    try:
        text = prepare("".join(lines))
        # no field holds non-ASCII text, and np.loadtxt misreads some of it
        # from one process to the next: U+AB694 in an integer field parses
        # as 702052 in one, raises in another and crashes a third
        if not text.isascii():
            return None
        stream = io.StringIO(text)
        del text  # the stream holds its own copy while it is parsed
        with warnings.catch_warnings():  # a blank chunk has no data
            warnings.simplefilter("ignore", UserWarning)
            rows = np.loadtxt(stream, dtype=dtype, delimiter=",",
                              comments=None, ndmin=1)
    except ValueError:
        return None
    return rows if rows.size == len(lines) else None


def _read_rows(path: str | Path, header: Sequence[str], dtype,
               prepare=lambda text: text) -> dict[str, np.ndarray]:
    """The columns of a CSV headed by header, parsed in chunks;
    prepare(text) rewrites a chunk's text before it is parsed, or raises
    ValueError."""
    dtype = np.dtype(dtype)
    parts = []
    with open(path, errors="replace") as fh:  # non-UTF-8 fails to parse
        got = fh.readline().rstrip("\n")  # CRLF reads as LF
        if got != ",".join(header):
            raise TraceFormatError(f"{path}:1: header {got!r}, expected "
                                   f"{','.join(header)!r}")
        lineno = 2
        while lines := list(islice(fh, _CHUNK_ROWS)):
            parts.append(_parse(lines, dtype, prepare))
            if parts[-1] is None:
                i = next((i for i, line in enumerate(lines)
                          if _parse([line], dtype, prepare) is None), 0)
                raise TraceFormatError(f"{path}:{lineno + i}: bad row "
                                       f"{lines[i].rstrip()!r}")
            lineno += len(lines)
    return {name: np.concatenate([p[name] for p in parts])
            if parts else np.empty(0, dtype[name])
            for name in dtype.names}


def _reject(path: str | Path, bad: np.ndarray, message) -> None:
    """Raise naming the line of the first row in the bool mask bad, with
    message(row index) as the reason."""
    rows = np.flatnonzero(bad)
    if rows.size:
        k = int(rows[0])
        raise TraceFormatError(f"{path}:{k + 2}: {message(k)}")


def _check_column(path: str | Path, name: str, got: np.ndarray,
                  want: np.ndarray) -> None:
    """Raise naming the line of the first row whose name column is not
    the value the rows before it imply."""
    _reject(path, got != want, lambda k: f"{name} {got[k]}, "
                                         f"expected {want[k]}")


def _check_slots(path: str | Path, codes: np.ndarray, who: np.ndarray,
                 durations: np.ndarray,
                 colliders: list[tuple[int, ...]]) -> None:
    """Raise naming the line of the first row no DCF channel can have: a
    duration below 1 us; an idle run of less than 1 slot, right after
    another idle run, or not lasting its count of the first idle run's
    idle slot; a success owner outside 0..2^31-1; or a collision that does
    not name two or more distinct stations >= 0 in ascending order. who
    holds a success's owner and an idle run's count."""
    _reject(path, durations < 1,
            lambda k: f"duration_us {durations[k]}, expected >= 1")
    idle = codes == IDLE
    _reject(path, idle & (who < 1),
            lambda k: f"idle count {who[k]}, expected >= 1")
    _reject(path, idle & np.concatenate(([False], idle[:-1])),
            lambda k: "idle run right after an idle run, expected one row "
                      "per maximal idle run")
    if idle.any():
        first = np.flatnonzero(idle)[0]
        sigma = durations[first] // who[first]
        _reject(path, idle & (durations != who * sigma),
                lambda k: f"idle duration_us {durations[k]}, expected "
                          f"{who[k] * sigma}, its count {who[k]} times the "
                          f"idle slot of {sigma} us")
    _reject(path, (codes == SUCCESS) & ((who < 0)
                                        | (who != who.astype(np.int32))),
            lambda k: f"success owner {who[k]}, expected 0..{2**31 - 1}")
    rows = np.flatnonzero(codes == COLLISION).tolist()
    for k, c in zip(rows, colliders):
        if len(c) < 2 or c[0] < 0 or any(a >= b for a, b in zip(c, c[1:])):
            raise TraceFormatError(
                f"{path}:{k + 2}: colliders {';'.join(map(str, c))}, "
                "expected two or more distinct stations >= 0 in ascending "
                "order")


def read_slot_trace_csv(path: str | Path) -> SlotTrace:
    colliders: list[tuple[int, ...]] = []

    def prepare(text: str) -> str:
        # outcomes become codes and a collision's colliders -1, so the
        # chunk parses as integers; each row must name one known outcome
        found = _COLLISION_FIELDS.findall(text)
        if (len(found) + text.count(",idle,") + text.count(",success,")
                != text.count("\n") + (not text.endswith("\n"))):
            raise ValueError("unknown outcome")
        colliders.extend(tuple(map(int, c.split(";"))) for c in found)
        return (_COLLISION_FIELDS.sub(",2,-1,", text)
                .replace(",idle,", ",0,").replace(",success,", ",1,"))

    columns = _read_rows(path, SLOT_HEADER, [
        ("slot_index", "i8"), ("wallclock_start_us", "i8"), ("codes", "i1"),
        ("who", "i8"), ("durations", "i8")], prepare)
    codes, who = columns["codes"], columns["who"]
    _check_slots(path, codes, who, columns["durations"], colliders)
    trace = SlotTrace(codes=codes,
                      owners=np.where(codes == SUCCESS, who, -1).astype(
                          np.int32),
                      durations=columns["durations"],
                      counts=np.where(codes == IDLE, who, 1),
                      colliders=colliders)
    _check_column(path, "slot_index", columns["slot_index"],
                  trace.slot_indices())
    _check_column(path, "wallclock_start_us", columns["wallclock_start_us"],
                  trace.wallclock_starts())
    return trace


def _check_events(path: str | Path, trace: EventTrace) -> None:
    """Raise naming the line of the first event no FIFO station can
    depart: a station below 0, a time not finite, a packet_id not above
    the station's previous one, or a departure not after its arrival."""
    station, packet = trace.station, trace.packet_id
    _reject(path, station < 0,
            lambda k: f"station {station[k]}, expected >= 0")
    for name, times in (("arrival_us", trace.arrival),
                        ("departure_us", trace.departure)):
        _reject(path, ~np.isfinite(times),
                lambda k: f"{name} {times[k]}, expected a finite time")
    # a stable radix sort in the narrowest dtype keeps each station's order
    order = np.argsort(station.astype(np.min_scalar_type(
        station.max(initial=0))), kind="stable")
    by_station, packets = station[order], packet[order]
    repeat = np.zeros(station.size, dtype=bool)
    repeat[order[1:][(by_station[1:] == by_station[:-1])
                     & (packets[1:] <= packets[:-1])]] = True
    _reject(path, repeat, lambda k: f"packet_id {packet[k]}, expected above "
            f"{packet[:k][station[:k] == station[k]][-1]}, station "
            f"{station[k]}'s previous packet_id")
    _reject(path, trace.departure <= trace.arrival,
            lambda k: f"departure_us {trace.departure[k]}, expected above "
                      f"arrival_us {trace.arrival[k]}")


def read_event_trace_csv(path: str | Path) -> EventTrace:
    trace = EventTrace(**_read_rows(path, EVENT_HEADER, [
        ("station", "i4"), ("packet_id", "i8"), ("arrival", "f8"),
        ("departure", "f8")]))
    _check_events(path, trace)
    return trace


def read_ownership_csv(path: str | Path) -> np.ndarray:
    columns = _read_rows(path, OWNERSHIP_HEADER,
                         [("success_index", "i8"), ("owner_id", "i4")])
    _check_column(path, "success_index", columns["success_index"],
                  np.arange(columns["success_index"].size))
    return columns["owner_id"]
