"""Trace containers and their CSV schemas.

Slot trace CSV:   slot_index,wallclock_start_us,outcome,owner_or_colliders,duration_us
Event trace CSV:  station,packet_id,arrival_us,departure_us
Ownership CSV:    slot_index,owner_id

Collision members are ';'-joined in owner_or_colliders. Rows end in CRLF,
as with the csv module; the readers accept CRLF and LF alike. Integral
event timestamps print as integers, the others as the float's repr. The
readers require slot_index to count 0, 1, ... and a slot's
wallclock_start_us to be the sum of the durations before it.

Files stream in chunks of _CHUNK_ROWS rows, so memory stays flat however
long the trace: a chunk's columns become Python scalars with one tolist()
each and its rows one string, and a chunk of lines is parsed by np.loadtxt.
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
_OUTCOME_NAMES = np.array(["idle", "success", "collision"], dtype=object)

_CHUNK_ROWS = 8192
# a collision's outcome and colliders, as read back
_COLLISION_FIELDS = re.compile(r",collision,([^,\n]*),")


@dataclass
class SlotTrace:
    """Compact per-slot trace: outcome codes, success owner, duration.

    colliders holds one id-tuple per collision slot, in collision order.
    """

    codes: np.ndarray       # int8, IDLE/SUCCESS/COLLISION
    owners: np.ndarray      # int32, success owner or -1
    durations: np.ndarray   # int64 microseconds
    colliders: list[tuple[int, ...]] = field(default_factory=list)

    def __len__(self) -> int:
        return int(self.codes.size)

    @classmethod
    def from_lists(cls, codes, owners, durations, colliders=None):
        return cls(
            codes=np.asarray(codes, dtype=np.int8),
            owners=np.asarray(owners, dtype=np.int32),
            durations=np.asarray(durations, dtype=np.int64),
            colliders=list(colliders or []),
        )

    @classmethod
    def from_transmissions(cls, n_slots: int, idle_us: int, successes,
                           owners, success_us, collisions, collision_us,
                           colliders) -> "SlotTrace":
        """n_slots idle slots of idle_us each, except at the slot indices
        successes (won by owners) and collisions."""
        trace = cls.from_lists(np.zeros(n_slots), np.full(n_slots, -1),
                               np.full(n_slots, idle_us), colliders)
        trace.codes[successes], trace.codes[collisions] = SUCCESS, COLLISION
        trace.durations[successes] = success_us
        trace.durations[collisions] = collision_us
        trace.owners[successes] = owners
        return trace

    def wallclock_starts(self) -> np.ndarray:
        """Slot start times: prefix sums of the preceding durations."""
        starts = np.zeros(len(self), dtype=np.int64)
        np.cumsum(self.durations[:-1], out=starts[1:])
        return starts


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


def _write_rows(path: str | Path, header: Sequence[str], chunks) -> None:
    """Write the header, then each chunk of equal-length columns of Python
    scalars as rows; "%s" prints an int as str and a float as repr, and rows
    end in CRLF, as with the csv module."""
    row = ",".join(["%s"] * len(header)) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(row % tuple(header))
        for columns in chunks:
            fh.write("".join(map(row.__mod__, zip(*columns))))


def write_csv(path: str | Path, columns: dict) -> None:
    """Named equal-length columns (arrays, lists or ranges) as CSV rows,
    in the dict's order."""
    cols = list(columns.values())
    _write_rows(path, list(columns), (
        [c[a:b].tolist() if isinstance(c, np.ndarray) else c[a:b]
         for c in cols] for a, b in _chunks(len(cols[0]))))


def _us_values(values: np.ndarray) -> list:
    """Integral microsecond values as int, the others as float."""
    out = values.astype(object)
    integral = np.isfinite(values) & (values == np.trunc(values))
    out[integral] = list(map(int, values[integral].tolist()))
    return out.tolist()


def _slot_columns(trace: SlotTrace):
    starts = trace.wallclock_starts()
    done = 0  # collisions written so far
    for a, b in _chunks(len(trace)):
        codes = trace.codes[a:b]
        who = np.full(b - a, "", dtype=object)
        success = codes == SUCCESS
        who[success] = trace.owners[a:b][success].tolist()
        collision = np.flatnonzero(codes == COLLISION)
        who[collision] = [";".join(map(str, c)) for c in
                          trace.colliders[done:done + collision.size]]
        done += collision.size
        yield (range(a, b), starts[a:b].tolist(),
               _OUTCOME_NAMES[codes].tolist(), who.tolist(),
               trace.durations[a:b].tolist())


def write_slot_trace_csv(trace: SlotTrace, path: str | Path) -> None:
    _write_rows(path, ["slot_index", "wallclock_start_us", "outcome",
                       "owner_or_colliders", "duration_us"],
                _slot_columns(trace))


def write_event_trace_csv(trace: EventTrace, path: str | Path) -> None:
    _write_rows(path, ["station", "packet_id", "arrival_us", "departure_us"],
                ((trace.station[a:b].tolist(), trace.packet_id[a:b].tolist(),
                  _us_values(trace.arrival[a:b]),
                  _us_values(trace.departure[a:b]))
                 for a, b in _chunks(len(trace))))


def write_ownership_csv(owners: Sequence[int] | np.ndarray,
                        path: str | Path) -> None:
    """Success-ownership sequence, one row per successful slot."""
    owners = np.asarray(owners, dtype=np.int64)
    write_csv(path, {"slot_index": range(owners.size), "owner_id": owners})


def _parse(lines: list[str], dtype: np.dtype, prepare) -> np.ndarray | None:
    """Rows of a chunk of lines, or None if a line is not one row."""
    try:
        with warnings.catch_warnings():  # a blank chunk has no data
            warnings.simplefilter("ignore", UserWarning)
            rows = np.loadtxt(io.StringIO(prepare("".join(lines))),
                              dtype=dtype, delimiter=",", comments=None,
                              ndmin=1)
    except ValueError:
        return None
    return rows if rows.size == len(lines) else None


def _read_rows(path: str | Path, first: str, what: str, dtype,
               prepare=lambda text: text) -> dict[str, np.ndarray]:
    """The columns of a CSV whose header starts with first, parsed in
    chunks; prepare(text) rewrites a chunk's text before it is parsed, or
    raises ValueError."""
    dtype = np.dtype(dtype)
    parts = []
    with open(path, errors="replace") as fh:  # non-UTF-8 fails to parse
        if fh.readline().rstrip("\n").split(",")[0] != first:
            raise TraceFormatError(f"{path}: not {what}")
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


def _check_column(path: str | Path, name: str, got: np.ndarray,
                  want: np.ndarray) -> None:
    """Raise naming the line of the first row whose name column is not
    the value the rows before it imply."""
    bad = np.flatnonzero(got != want)
    if bad.size:
        k = int(bad[0])
        raise TraceFormatError(f"{path}:{k + 2}: {name} {got[k]}, "
                               f"expected {want[k]}")


def read_slot_trace_csv(path: str | Path) -> SlotTrace:
    colliders: list[tuple[int, ...]] = []

    def prepare(text: str) -> str:
        # outcomes become codes and owner_or_colliders an integer, so the
        # chunk parses as integers; each row must name one known outcome
        found = _COLLISION_FIELDS.findall(text)
        if (len(found) + text.count(",idle,,") + text.count(",success,")
                != text.count("\n") + (not text.endswith("\n"))):
            raise ValueError("unknown outcome")
        colliders.extend(tuple(map(int, c.split(";"))) for c in found)
        return (_COLLISION_FIELDS.sub(",2,-1,", text)
                .replace(",idle,,", ",0,-1,").replace(",success,", ",1,"))

    columns = _read_rows(
        path, "slot_index", "a slot trace CSV",
        [("slot_index", "i8"), ("wallclock_start_us", "i8"), ("codes", "i1"),
         ("owners", "i4"), ("durations", "i8")], prepare)
    trace = SlotTrace(codes=columns["codes"], owners=columns["owners"],
                      durations=columns["durations"], colliders=colliders)
    _check_column(path, "slot_index", columns["slot_index"],
                  np.arange(len(trace)))
    _check_column(path, "wallclock_start_us", columns["wallclock_start_us"],
                  trace.wallclock_starts())
    return trace


def read_event_trace_csv(path: str | Path) -> EventTrace:
    return EventTrace(**_read_rows(path, "station", "an event trace CSV",
                                   [("station", "i4"), ("packet_id", "i8"),
                                    ("arrival", "f8"), ("departure", "f8")]))


def read_ownership_csv(path: str | Path) -> np.ndarray:
    columns = _read_rows(path, "slot_index", "an ownership CSV",
                         [("slot_index", "i8"), ("owner_id", "i4")])
    _check_column(path, "slot_index", columns["slot_index"],
                  np.arange(columns["slot_index"].size))
    return columns["owner_id"]
