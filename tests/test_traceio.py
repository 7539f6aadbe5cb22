import csv
from itertools import accumulate
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcffair import (
    EventTrace,
    MacParams,
    SimConfig,
    SlotTrace,
    TraceFormatError,
    read_event_trace_csv,
    read_ownership_csv,
    read_slot_trace_csv,
    run,
    write_event_trace_csv,
    write_ownership_csv,
    write_slot_trace_csv,
)
from dcffair import traceio
from test_sim_reference import expand, per_slot_fill


def test_slot_trace_roundtrip(tmp_path):
    trace = SlotTrace.from_lists(
        codes=[0, 1, 2, 0, 1],
        owners=[-1, 2, -1, -1, 0],
        durations=[20, 500, 480, 20, 500],
        colliders=[(1, 3)],
    )
    path = tmp_path / "slots.csv"
    write_slot_trace_csv(trace, path)
    back = read_slot_trace_csv(path)
    assert np.array_equal(back.codes, trace.codes)
    assert np.array_equal(back.owners, trace.owners)
    assert np.array_equal(back.durations, trace.durations)
    assert back.colliders == [(1, 3)]


TRANSMISSIONS = {
    # n_slots, successes, owners, collisions, colliders
    "idle-runs-between-and-after": (
        12, [2, 3], [2, 0], [7], [(0, 1)]),
    "transmission-at-slot-0": (5, [0], [1], [4], [(1, 2, 3)]),
    "no-idle-slot": (3, [0, 2], [1, 1], [1], [(0, 1)]),
    "idle-only": (4, [], [], [], []),
    "zero-slots": (0, [], [], [], []),
}


@pytest.mark.parametrize("n_slots, successes, owners, collisions, colliders",
                         TRANSMISSIONS.values(), ids=TRANSMISSIONS.keys())
def test_from_transmissions_expands_to_per_slot_fill(
        n_slots, successes, owners, collisions, colliders):
    success_us = np.arange(500, 500 + len(successes))
    collision_us = np.arange(480, 480 + len(collisions))
    args = (n_slots, 20, successes, owners, success_us, collisions,
            collision_us, colliders)
    trace = SlotTrace.from_transmissions(*args)
    want = per_slot_fill(*args)
    got = expand(trace)
    for name in ("codes", "owners", "durations"):
        assert getattr(trace, name).dtype == getattr(want, name).dtype
        assert np.array_equal(getattr(got, name), getattr(want, name))
    assert trace.counts.dtype == np.int64
    assert trace.colliders == want.colliders
    idle = trace.codes == traceio.IDLE
    assert not np.any(idle[1:] & idle[:-1])
    assert np.all(trace.counts[~idle] == 1)


def test_from_transmissions_rows():
    trace = SlotTrace.from_transmissions(
        12, 20, successes=[2, 3], owners=[2, 0], success_us=[500, 510],
        collisions=[7], collision_us=[480], colliders=[(0, 1)])
    assert trace.codes.tolist() == [0, 1, 1, 0, 2, 0]
    assert trace.owners.tolist() == [-1, 2, 0, -1, -1, -1]
    assert trace.counts.tolist() == [2, 1, 1, 3, 1, 4]
    assert trace.durations.tolist() == [40, 500, 510, 60, 480, 80]
    assert trace.slot_indices().tolist() == [0, 2, 3, 4, 7, 8]
    assert trace.wallclock_starts().tolist() == [0, 40, 540, 1050, 1110,
                                                 1590]


def test_slot_trace_wallclock_prefix_sum(tmp_path):
    res = run(SimConfig(n=2, horizon_slots=2000, seed=3))
    path = tmp_path / "slots.csv"
    write_slot_trace_csv(res.slots, path)
    rows = path.read_text().strip().splitlines()[1:]
    starts = [int(r.split(",")[1]) for r in rows]
    durations = [int(r.split(",")[4]) for r in rows]
    assert starts[0] == 0
    for i in range(1, len(rows)):
        assert starts[i] == starts[i - 1] + durations[i - 1]


def test_event_trace_roundtrip_and_formatting(tmp_path):
    trace = EventTrace.from_lists([0, 1, 0], [0, 0, 1],
                                  [0.0, 12.5, 1020.0],
                                  [1020.0, 2040.25, 3060.0])
    path = tmp_path / "events.csv"
    write_event_trace_csv(trace, path)
    text = path.read_text()
    assert "1020,"[:-1] in text and "12.5" in text and "2040.25" in text
    assert "1020.0" not in text  # integral microseconds print as integers
    back = read_event_trace_csv(path)
    assert np.array_equal(back.station, trace.station)
    assert np.array_equal(back.arrival, trace.arrival)
    assert np.array_equal(back.departure, trace.departure)


def test_ownership_roundtrip(tmp_path):
    owners = np.array([0, 2, 1, 1, 0], dtype=np.int32)
    path = tmp_path / "own.csv"
    write_ownership_csv(owners, path)
    assert np.array_equal(read_ownership_csv(path), owners)


def test_bad_headers_rejected(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("nope,nope\n1,2\n")
    for reader in (read_slot_trace_csv, read_event_trace_csv,
                   read_ownership_csv):
        with pytest.raises(TraceFormatError):
            reader(path)


def test_bad_row_reports_line(tmp_path):
    path = tmp_path / "events.csv"
    path.write_text("station,packet_id,arrival_us,departure_us\n0,0,abc,5\n")
    with pytest.raises(TraceFormatError) as err:
        read_event_trace_csv(path)
    assert ":2:" in str(err.value)


# --- reference: the per-row csv.writer writers the chunked writers replace,
# kept verbatim (records() inlined) so the file bytes can be compared ---

def _ref_fmt_us(value: float) -> str:
    # integral microsecond values print as integers
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _ref_records(trace):
    starts = trace.wallclock_starts()
    slots = accumulate(trace.counts.tolist(), initial=0)
    coll_iter = iter(trace.colliders)
    for i in range(len(trace)):
        code = int(trace.codes[i])
        yield dict(
            slot_index=next(slots),
            wallclock_start=int(starts[i]),
            outcome=("idle", "success", "collision")[code],
            owner=int(trace.owners[i]) if code == 1 else None,
            count=int(trace.counts[i]),
            colliders=next(coll_iter) if code == 2 else (),
            duration=int(trace.durations[i]),
        )


def _ref_write_slot_trace_csv(trace, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["slot_index", "wallclock_start_us", "outcome",
                         "owner_or_colliders", "duration_us"])
        for rec in _ref_records(trace):
            if rec["outcome"] == "success":
                who = str(rec["owner"])
            elif rec["outcome"] == "collision":
                who = ";".join(str(s) for s in rec["colliders"])
            else:
                who = str(rec["count"])
            writer.writerow([rec["slot_index"], rec["wallclock_start"],
                             rec["outcome"], who, rec["duration"]])


def _ref_write_event_trace_csv(trace, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["station", "packet_id", "arrival_us", "departure_us"])
        for i in range(len(trace)):
            writer.writerow([
                int(trace.station[i]),
                int(trace.packet_id[i]),
                _ref_fmt_us(trace.arrival[i]),
                _ref_fmt_us(trace.departure[i]),
            ])


def _ref_write_ownership_csv(owners, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["success_index", "owner_id"])
        for i, owner in enumerate(owners):
            writer.writerow([i, int(owner)])


HETERO = (MacParams(cw_min=8, cw_max=64), MacParams(cw_min=32, payload_dur=700),
          MacParams(cw_min=16, retry_limit=3), MacParams(cw_min=4, cw_max=16))
GOLDEN_RUNS = {
    "saturated-seed-1": SimConfig(n=5, horizon_slots=20_000, seed=1),
    "saturated-seed-2": SimConfig(n=5, horizon_slots=20_000, seed=2),
    "saturated-seed-3": SimConfig(n=2, horizon_slots=5_000, seed=3),
    "poisson-seed-4": SimConfig(n=4, mode="poisson",
                                arrival_rate_pps=(20.0, 55.5, 0.0, 90.0),
                                horizon_us=30_000_000, seed=4),
    "poisson-seed-5": SimConfig(n=3, mode="poisson", arrival_rate_pps=300.0,
                                horizon_us=20_000_000, seed=5),
    "heterogeneous": SimConfig(n=4, params=HETERO, horizon_slots=30_000,
                               seed=6),
    # small windows: collisions of three and more stations, retry drops
    "crowded-retry-drops": SimConfig(
        n=12, params=MacParams(cw_min=4, cw_max=16, max_backoff_stage=2,
                               retry_limit=2),
        horizon_slots=3 * traceio._CHUNK_ROWS, seed=7),
}


def _assert_files_identical(write, ref_write, data, tmp_path):
    new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
    write(data, new)
    ref_write(data, ref)
    assert new.read_bytes() == ref.read_bytes()
    return new


def _assert_same_slots(back, trace):
    for name in ("codes", "owners", "durations", "counts"):
        got, want = getattr(back, name), getattr(trace, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name
    assert back.colliders == trace.colliders


def _assert_same_events(back, trace):
    for name in ("station", "packet_id", "arrival", "departure"):
        got, want = getattr(back, name), getattr(trace, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name


@pytest.mark.parametrize("cfg", GOLDEN_RUNS.values(), ids=GOLDEN_RUNS.keys())
def test_writers_byte_identical_to_csv_writer(cfg, tmp_path):
    res = run(cfg)
    path = _assert_files_identical(write_slot_trace_csv,
                                   _ref_write_slot_trace_csv, res.slots,
                                   tmp_path)
    _assert_same_slots(read_slot_trace_csv(path), res.slots)
    path = _assert_files_identical(write_event_trace_csv,
                                   _ref_write_event_trace_csv, res.events,
                                   tmp_path)
    _assert_same_events(read_event_trace_csv(path), res.events)
    path = _assert_files_identical(write_ownership_csv,
                                   _ref_write_ownership_csv,
                                   res.success_owners, tmp_path)
    assert np.array_equal(read_ownership_csv(path), res.success_owners)


def test_golden_runs_cover_the_cases():
    results = {name: run(cfg) for name, cfg in GOLDEN_RUNS.items()}
    crowded = results["crowded-retry-drops"]
    assert max(map(len, crowded.slots.colliders)) >= 3
    assert crowded.counters.drops.sum() > 0
    assert len(crowded.slots) > 2 * traceio._CHUNK_ROWS
    assert results["heterogeneous"].counters.drops.sum() > 0
    for name in ("poisson-seed-4", "poisson-seed-5"):
        arrival = results[name].events.arrival
        assert np.any(arrival != np.trunc(arrival))


def test_event_values_beyond_one_chunk(tmp_path, rng):
    size = 2 * traceio._CHUNK_ROWS + 17
    arrival = rng.uniform(0, 1e7, size)
    arrival[::3] = np.floor(arrival[::3])
    arrival[1::3] = np.round(arrival[1::3], 2)
    departure = arrival + rng.integers(1, 10**6, size)
    # edge values, each departure after its arrival as the reader requires
    arrival[:6] = [0.0, -0.0, 1e300, 2.0 ** 60, 1e-7, -np.inf]
    departure[:6] = [1.0, 1e-7, np.inf, 2.0 ** 61, 1e-6, 0.0]
    station = rng.integers(0, 50, size)
    trace = EventTrace.from_lists(station, np.arange(size), arrival,
                                  departure)
    path = _assert_files_identical(write_event_trace_csv,
                                   _ref_write_event_trace_csv, trace,
                                   tmp_path)
    # the writer formats any float, the reader takes finite times only
    with pytest.raises(TraceFormatError, match=":7: arrival_us -inf, "):
        read_event_trace_csv(path)
    departure[2], arrival[5] = 1e301, -1e300
    trace = EventTrace.from_lists(station, np.arange(size), arrival,
                                  departure)
    path = _assert_files_identical(write_event_trace_csv,
                                   _ref_write_event_trace_csv, trace,
                                   tmp_path)
    _assert_same_events(read_event_trace_csv(path), trace)


def test_header_only_files(tmp_path):
    slots = SlotTrace.from_lists([], [], [])
    events = EventTrace.from_lists([], [], [], [])
    owners = np.array([], dtype=np.int32)
    path = _assert_files_identical(write_slot_trace_csv,
                                   _ref_write_slot_trace_csv, slots, tmp_path)
    _assert_same_slots(read_slot_trace_csv(path), slots)
    path = _assert_files_identical(write_event_trace_csv,
                                   _ref_write_event_trace_csv, events,
                                   tmp_path)
    _assert_same_events(read_event_trace_csv(path), events)
    path = _assert_files_identical(write_ownership_csv,
                                   _ref_write_ownership_csv, owners, tmp_path)
    assert read_ownership_csv(path).dtype == np.int32
    assert read_ownership_csv(path).size == 0


def test_write_csv_matches_csv_writer(tmp_path):
    columns = {"j": range(1, 4), "count": np.array([3, 0, -2]),
               "value": [0.1, 1.0, 2.5e-12], "x": np.array([1e16, 1.5, 0.0])}
    path, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
    traceio.write_csv(path, columns)
    with open(ref, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(columns))
        writer.writerows([j, int(c), v, float(x)] for j, c, v, x
                         in zip(*columns.values()))
    assert path.read_bytes() == ref.read_bytes()


# --- the byte formatter against the reference writers, value by value ---

INT64 = np.iinfo(np.int64)
EDGE_INTS = sorted({0, INT64.min, INT64.max, INT64.min + 1, INT64.max - 1}
                   | {s * (10 ** k + d) for k in range(19) for d in (-1, 0, 1)
                      for s in (1, -1)})
EDGE_FLOATS = [-0.0, 0.0, np.inf, -np.inf, np.nan, 5e-324, 1e16, 2.0 ** 63,
               -(2.0 ** 63), 1e300, -1e300, 0.5, 1e15 + 0.5]
ints64 = st.sampled_from(EDGE_INTS) | st.integers(INT64.min, INT64.max)
floats64 = (st.sampled_from(EDGE_FLOATS) | st.floats(allow_nan=True)
            | st.integers(-(2 ** 70), 2 ** 70).map(float))
# chunks of a few rows, so field widths change from chunk to chunk
small_chunks = st.integers(1, 4)
PROPERTY = settings(max_examples=60, derandomize=True, deadline=None,
                    database=None)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("formatter")


@PROPERTY
@given(chunk=small_chunks, rows=st.lists(
    st.tuples(st.integers(-2 ** 31, 2 ** 31 - 1), ints64, floats64,
              floats64), max_size=12))
def test_event_formatter_matches_reference(chunk, rows, scratch):
    trace = EventTrace.from_lists(*zip(*rows)) if rows else \
        EventTrace.from_lists([], [], [], [])
    with mock.patch.object(traceio, "_CHUNK_ROWS", chunk):
        _assert_files_identical(write_event_trace_csv,
                                _ref_write_event_trace_csv, trace, scratch)


colliders = st.lists(st.integers(0, 10 ** 6), min_size=2, max_size=50,
                     unique=True).map(lambda c: tuple(sorted(c)))


@PROPERTY
@given(chunk=small_chunks, slots=st.lists(st.one_of(
    # the counts sum to at most 12 * 10^17, so slot indices fit int64
    st.tuples(st.just(0), st.just(-1), ints64, st.just(()),
              st.sampled_from([1, 10 ** 17]) | st.integers(1, 10 ** 17)),
    st.tuples(st.just(1), st.integers(-2 ** 31, 2 ** 31 - 1), ints64,
              st.just(()), st.just(1)),
    st.tuples(st.just(2), st.just(-1), ints64, colliders, st.just(1))),
    max_size=12))
def test_slot_formatter_matches_reference(chunk, slots, scratch):
    codes, owners, durations, colliders, counts = zip(*slots) if slots \
        else ([], [], [], [], [])
    trace = SlotTrace.from_lists(codes, owners, durations,
                                 [c for c in colliders if c], counts)
    with mock.patch.object(traceio, "_CHUNK_ROWS", chunk):
        _assert_files_identical(write_slot_trace_csv,
                                _ref_write_slot_trace_csv, trace, scratch)


@PROPERTY
@given(chunk=small_chunks, owners=st.lists(ints64, max_size=12))
def test_ownership_formatter_matches_reference(chunk, owners, scratch):
    with mock.patch.object(traceio, "_CHUNK_ROWS", chunk):
        _assert_files_identical(write_ownership_csv,
                                _ref_write_ownership_csv,
                                np.array(owners, dtype=np.int64), scratch)


@PROPERTY
@given(chunk=small_chunks, rows=st.lists(
    st.tuples(ints64, floats64, st.integers(-10 ** 30, 10 ** 30), floats64),
    min_size=1, max_size=12))
def test_write_csv_formatter_matches_csv_writer(chunk, rows, scratch):
    ints, floats, big, listed = zip(*rows)
    columns = {"n": range(3, 3 + len(rows)), "i": np.array(ints),
               "f": np.array(floats), "big": list(big), "x": list(listed)}
    path, ref = scratch / "new.csv", scratch / "ref.csv"
    with mock.patch.object(traceio, "_CHUNK_ROWS", chunk):
        traceio.write_csv(path, columns)
    with open(ref, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(columns))
        writer.writerows(zip(*columns.values()))
    assert path.read_bytes() == ref.read_bytes()


@PROPERTY
@given(chunk=small_chunks, sigma=st.integers(1, 50), rows=st.lists(st.one_of(
    st.tuples(st.just(0), st.just(-1), st.integers(1, 10 ** 9), st.just(())),
    st.tuples(st.just(1), st.integers(0, 2 ** 31 - 1),
              st.integers(1, 10 ** 6), st.just(())),
    st.tuples(st.just(2), st.just(-1), st.integers(1, 10 ** 6), colliders)),
    max_size=12))
def test_run_length_trace_round_trip(chunk, sigma, rows, scratch):
    # adjacent idle runs merged, so each idle run is maximal
    merged = []
    for code, owner, size, members in rows:
        if code == 0 and merged and merged[-1][0] == 0:
            merged[-1][2] += size
        else:
            merged.append([code, owner, size, members])
    codes, owners, sizes, members = zip(*merged) if merged \
        else ([], [], [], [])
    codes, sizes = np.array(codes, dtype=np.int64), np.array(sizes)
    idle = codes == 0
    trace = SlotTrace.from_lists(
        codes, owners, np.where(idle, sizes * sigma, sizes),
        [m for m in members if m], np.where(idle, sizes, 1))
    path = scratch / "round_trip.csv"
    with mock.patch.object(traceio, "_CHUNK_ROWS", chunk):
        write_slot_trace_csv(trace, path)
        _assert_same_slots(read_slot_trace_csv(path), trace)


# --- floats: the vectorised shortest round trip against repr ---

def _field_rows(field: np.ndarray) -> list[str]:
    return [row.tobytes().replace(b"\0", b"").decode() for row in field]


# ties broken to even (2^46 + 0.125 prints .12), the longest fractions
# (1 + 2^-52), the last non-integral doubles and each side of 10^k
ADVERSARIAL_FLOATS = [
    1 + 2 ** -52, 2 ** 52 - 0.5, 9.999999999999998, 123456789.12345678,
    2 ** 46 + 0.125, 2 ** 46 + 0.375,
    *(float(np.nextafter(10.0 ** k, side)) for k in range(16)
      for side in (0.0, np.inf))]


def test_float_formatter_matches_repr_on_adversarial_values():
    arrivals = run(GOLDEN_RUNS["poisson-seed-5"]).events.arrival
    values = np.array([*ADVERSARIAL_FLOATS, *(-v for v in ADVERSARIAL_FLOATS),
                       *arrivals.tolist()])
    assert _field_rows(traceio._float_field(values)) == \
        list(map(repr, values.tolist()))
    assert _field_rows(traceio._float_field(values, integers=True)) == \
        list(map(_ref_fmt_us, values.tolist()))


@settings(max_examples=2000, derandomize=True, deadline=None, database=None)
@given(st.lists(st.tuples(st.integers(2 ** 52, 2 ** 53 - 1),
                          st.integers(1, 52), st.sampled_from([1, -1])),
                min_size=1, max_size=8))
def test_float_formatter_matches_repr(floats):
    # M / 2^k with a 53-bit M: every double in 1 <= |v| < 2^52, both signs
    values = np.array([sign * m / 2 ** k for m, k, sign in floats])
    assert _field_rows(traceio._float_field(values)) == \
        list(map(repr, values.tolist()))


# chunks with no value for one of the paths: integers, _fraction, repr
FLOAT_CHUNKS = {
    "integral": [0.0, 3.0, -7.0, 2.0 ** 62, 2.0 ** 63, -1e300],
    "fallback": [0.5, -0.0, np.nan, np.inf, -np.inf, 5e-324],
    "mixed": [1.5, 0.5, 2.0, -123.25, np.nan, 1e16, 2 ** 52 - 0.5,
              -(1 + 2 ** -52), -0.0, 7.0],
}


@pytest.mark.parametrize("chunk", [1, 2, 3, 4])
@pytest.mark.parametrize("values", FLOAT_CHUNKS.values(),
                         ids=FLOAT_CHUNKS.keys())
def test_float_chunks_match_reference(chunk, values, tmp_path):
    trace = EventTrace.from_lists(range(len(values)), range(len(values)),
                                  values, values[::-1])
    path, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
    with mock.patch.object(traceio, "_CHUNK_ROWS", chunk):
        _assert_files_identical(write_event_trace_csv,
                                _ref_write_event_trace_csv, trace, tmp_path)
        traceio.write_csv(path, {"x": np.array(values)})
    with open(ref, "w", newline="") as fh:
        csv.writer(fh).writerows([["x"], *([v] for v in values)])
    assert path.read_bytes() == ref.read_bytes()


def test_poisson_event_times_are_not_formatted_one_at_a_time(tmp_path):
    events = run(GOLDEN_RUNS["poisson-seed-5"]).events
    assert np.all((events.arrival > 1)
                  & (events.arrival != np.trunc(events.arrival)))
    texts = []

    def spy(strings, rows, n, text=traceio._text):
        texts.extend(strings)
        return text(strings, rows, n)

    with mock.patch.object(traceio, "_text", spy):
        write_event_trace_csv(events, tmp_path / "events.csv")
    assert texts == []


# --- reader error contract ---

def _long_slot_file(tmp_path):
    res = run(SimConfig(n=3, horizon_slots=4 * traceio._CHUNK_ROWS,
                        seed=9))
    assert len(res.slots) > traceio._CHUNK_ROWS + 500
    path = tmp_path / "slots.csv"
    write_slot_trace_csv(res.slots, path)
    return res.slots, path


def test_bad_row_in_second_chunk_reports_its_line(tmp_path):
    _, path = _long_slot_file(tmp_path)
    lines = path.read_bytes().split(b"\r\n")
    bad = traceio._CHUNK_ROWS + 123  # 0-based, so file line bad + 1
    fields = lines[bad].split(b",")
    fields[2] = b"idel"  # the outcome
    lines[bad] = b",".join(fields)
    path.write_bytes(b"\r\n".join(lines))
    with pytest.raises(TraceFormatError) as err:
        read_slot_trace_csv(path)
    assert f"{path}:{bad + 1}: bad row" in str(err.value)


SLOT_HEADER = "slot_index,wallclock_start_us,outcome,owner_or_colliders," \
    "duration_us"
EVENT_HEADER = "station,packet_id,arrival_us,departure_us"
OWNER_HEADER = "success_index,owner_id"
BAD_ROWS = {
    "slot-short": (read_slot_trace_csv, SLOT_HEADER, "1,20,idle,"),
    "slot-extra": (read_slot_trace_csv, SLOT_HEADER, "1,20,idle,1,20,7"),
    "slot-unknown-outcome": (read_slot_trace_csv, SLOT_HEADER,
                             "1,20,busy,,20"),
    "slot-numeric-outcome": (read_slot_trace_csv, SLOT_HEADER,
                             "1,20,1,2,500"),
    "slot-float-owner": (read_slot_trace_csv, SLOT_HEADER,
                         "1,20,success,1.5,500"),
    "slot-empty-owner": (read_slot_trace_csv, SLOT_HEADER,
                         "1,20,success,,500"),
    # a per-slot idle row, which names no count
    "slot-idle-without-count": (read_slot_trace_csv, SLOT_HEADER,
                                "1,500,idle,,20"),
    "slot-float-count": (read_slot_trace_csv, SLOT_HEADER,
                         "1,500,idle,1.5,30"),
    "slot-bad-collider": (read_slot_trace_csv, SLOT_HEADER,
                          "1,20,collision,0;x,480"),
    "slot-float-duration": (read_slot_trace_csv, SLOT_HEADER,
                            "1,20,idle,1,20.5"),
    "slot-blank": (read_slot_trace_csv, SLOT_HEADER, ""),
    "event-short": (read_event_trace_csv, EVENT_HEADER, "0,1,2.5"),
    "event-extra": (read_event_trace_csv, EVENT_HEADER, "0,1,2.5,3,4"),
    "event-float-station": (read_event_trace_csv, EVENT_HEADER,
                            "0.5,1,2.5,3"),
    "event-text-time": (read_event_trace_csv, EVENT_HEADER, "0,1,abc,3"),
    "event-blank": (read_event_trace_csv, EVENT_HEADER, ""),
    "owner-short": (read_ownership_csv, OWNER_HEADER, "1"),
    "owner-extra": (read_ownership_csv, OWNER_HEADER, "1,2,3"),
    "owner-float": (read_ownership_csv, OWNER_HEADER, "1,2.5"),
    "owner-text": (read_ownership_csv, OWNER_HEADER, "1,x"),
    "owner-blank": (read_ownership_csv, OWNER_HEADER, " "),
    "slot-non-ascii-count": (read_slot_trace_csv, SLOT_HEADER,
                             "1,500,idle,\U000ab694,20"),
    "event-non-ascii-station": (read_event_trace_csv, EVENT_HEADER,
                                "\U000ab694,1,2.5,3"),
    "owner-non-ascii": (read_ownership_csv, OWNER_HEADER, "1,\U000ab694"),
}
GOOD_ROWS = {SLOT_HEADER: "0,0,success,2,500", EVENT_HEADER: "0,0,0,500",
             OWNER_HEADER: "0,2"}


@pytest.mark.parametrize("reader, header, row", BAD_ROWS.values(),
                         ids=BAD_ROWS.keys())
def test_bad_rows_rejected_with_line(reader, header, row, tmp_path,
                                    monkeypatch):
    # np.loadtxt misreads some non-ASCII text, differently from one
    # process to the next, so none may reach it
    loadtxt = np.loadtxt

    def ascii_only(text, *args, **kwargs):
        assert text.getvalue().isascii()
        return loadtxt(text, *args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", ascii_only)
    path = tmp_path / "bad.csv"
    path.write_text("\r\n".join([header, GOOD_ROWS[header], row,
                                 GOOD_ROWS[header]]) + "\r\n",
                    encoding="utf-8")
    with pytest.raises(TraceFormatError) as err:
        reader(path)
    assert f"{path}:3: bad row" in str(err.value)


# id: (reader, a header other than its writer's, the reader's good header)
BAD_HEADERS = {
    "event-times-swapped": (read_event_trace_csv,
                            "station,packet_id,departure_us,arrival_us",
                            EVENT_HEADER),
    "event-short": (read_event_trace_csv, "station,packet_id,arrival_us",
                    EVENT_HEADER),
    "owner-renamed": (read_ownership_csv, "success_index,foo", OWNER_HEADER),
    "owner-extra": (read_ownership_csv, "success_index,owner_id,x",
                    OWNER_HEADER),
    "slot-renamed": (read_slot_trace_csv, SLOT_HEADER.replace("outcome",
                                                              "kind"),
                     SLOT_HEADER),
    "slot-trailing-space": (read_slot_trace_csv, SLOT_HEADER + " ",
                            SLOT_HEADER),
}


@pytest.mark.parametrize("newline", ["\r\n", "\n"], ids=["crlf", "lf"])
@pytest.mark.parametrize("reader, header, good", BAD_HEADERS.values(),
                         ids=BAD_HEADERS.keys())
def test_header_is_the_writers(reader, header, good, newline, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_bytes(newline.join([header, GOOD_ROWS[good], ""]).encode())
    with pytest.raises(TraceFormatError) as err:
        reader(path)
    assert str(err.value) == f"{path}:1: header {header!r}, expected {good!r}"


def test_non_utf8_byte_is_a_bad_row(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_bytes(b"success_index,owner_id\r\n0,2\r\n1,\xff\r\n")
    with pytest.raises(TraceFormatError) as err:
        read_ownership_csv(path)
    assert f"{path}:3: bad row" in str(err.value)


def test_lf_files_read_as_crlf(tmp_path):
    slots, crlf = _long_slot_file(tmp_path)
    lf = tmp_path / "lf.csv"
    lf.write_bytes(crlf.read_bytes().replace(b"\r\n", b"\n"))
    _assert_same_slots(read_slot_trace_csv(lf), slots)
    res = run(SimConfig(n=3, mode="poisson", arrival_rate_pps=40.0,
                        horizon_us=10_000_000, seed=2))
    for write, read, data in (
            (write_event_trace_csv, read_event_trace_csv, res.events),
            (write_ownership_csv, read_ownership_csv, res.success_owners)):
        write(data, crlf)
        lf.write_bytes(crlf.read_bytes().replace(b"\r\n", b"\n"))
        back_crlf, back_lf = read(crlf), read(lf)
        if isinstance(data, EventTrace):
            _assert_same_events(back_lf, back_crlf)
        else:
            assert np.array_equal(back_lf, back_crlf)


SEQUENCE_FAULTS = {
    # (reader, header, rows, line and column of the first bad row)
    "slot-reordered": (read_slot_trace_csv, SLOT_HEADER,
                       ["0,0,success,1,500", "2,500,idle,1,20",
                        "1,520,success,0,500"],
                       "3: slot_index 2, expected 1"),
    "slot-not-from-zero": (read_slot_trace_csv, SLOT_HEADER,
                           ["5,0,idle,1,20", "1,20,success,0,500"],
                           "2: slot_index 5, expected 0"),
    "slot-index-not-count-sum": (read_slot_trace_csv, SLOT_HEADER,
                                 ["0,0,idle,3,60", "1,60,success,0,500"],
                                 "3: slot_index 1, expected 3"),
    "slot-edited-start": (read_slot_trace_csv, SLOT_HEADER,
                          ["0,0,success,1,500", "1,500,idle,1,20",
                           "2,999,success,0,500"],
                          "4: wallclock_start_us 999, expected 520"),
    "slot-first-start": (read_slot_trace_csv, SLOT_HEADER,
                         ["0,20,idle,1,20"],
                         "2: wallclock_start_us 20, expected 0"),
    "slot-idle-after-idle": (read_slot_trace_csv, SLOT_HEADER,
                             ["0,0,idle,1,20", "1,20,idle,2,40"],
                             "3: idle run right after an idle run, "
                             "expected one row per maximal idle run"),
    "slot-idle-not-a-multiple": (read_slot_trace_csv, SLOT_HEADER,
                                 ["0,0,success,1,500", "1,500,idle,3,50"],
                                 "3: idle duration_us 50, expected 48, its "
                                 "count 3 times the idle slot of 16 us"),
    "owner-gap": (read_ownership_csv, OWNER_HEADER,
                  ["0,1", "1,0", "3,1", "4,0"],
                  "4: success_index 3, expected 2"),
    "owner-reordered": (read_ownership_csv, OWNER_HEADER,
                        ["1,1", "0,0"], "2: success_index 1, expected 0"),
}


@pytest.mark.parametrize("reader, header, rows, where",
                         SEQUENCE_FAULTS.values(), ids=SEQUENCE_FAULTS.keys())
def test_slot_indices_and_starts_checked(reader, header, rows, where,
                                         tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("\r\n".join([header, *rows]) + "\r\n")
    with pytest.raises(TraceFormatError) as err:
        reader(path)
    assert str(err.value) == f"{path}:{where}"


def test_edited_start_in_second_chunk_reports_its_line(tmp_path):
    _, path = _long_slot_file(tmp_path)
    lines = path.read_bytes().split(b"\r\n")
    bad = traceio._CHUNK_ROWS + 45  # 0-based, so file line bad + 1
    fields = lines[bad].split(b",")
    fields[1] = str(int(fields[1]) + 1).encode()
    lines[bad] = b",".join(fields)
    path.write_bytes(b"\r\n".join(lines))
    with pytest.raises(TraceFormatError) as err:
        read_slot_trace_csv(path)
    assert str(err.value).startswith(f"{path}:{bad + 1}: wallclock_start_us")
