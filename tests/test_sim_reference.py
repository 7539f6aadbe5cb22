"""The event loop of sim.run against the loop it replaced.

The reference below is the earlier per-station-object loop, kept verbatim
but for its name: it draws each station's backoffs from buffers of
_BACKOFF_BUFFER doubles and every Poisson gap with its own numpy call.
Philox streams are counter-based, so how the draws are chunked cannot
change them, and both loops must give equal counters, success owners,
slot traces and event traces for every config, seed and replication.

The reference's slot trace has one row per slot, filled in as the
run-length trace's builder once did (per_slot_fill); run's run-length
trace must expand to it slot for slot.
"""

from __future__ import annotations

import heapq
import math
from collections import deque

import numpy as np
import pytest

from dcffair import (
    EventTrace,
    MacParams,
    SimConfig,
    SimCounters,
    SimResult,
    SlotTrace,
    read_slot_trace_csv,
    run,
    write_slot_trace_csv,
)
from dcffair.sim import _MAX_CHUNK
from dcffair.traceio import COLLISION, IDLE, SUCCESS

_BACKOFF_BUFFER = 4096


# --- reference: the per-slot trace the run-length one replaced ---

def per_slot_fill(n_slots, idle_us, successes, owners, success_us,
                  collisions, collision_us, colliders) -> SlotTrace:
    """n_slots idle slots of idle_us each, except at the slot indices
    successes (won by owners) and collisions: one row per slot."""
    trace = SlotTrace.from_lists(np.zeros(n_slots), np.full(n_slots, -1),
                                 np.full(n_slots, idle_us), colliders)
    trace.codes[successes], trace.codes[collisions] = SUCCESS, COLLISION
    trace.durations[successes] = success_us
    trace.durations[collisions] = collision_us
    trace.owners[successes] = owners
    return trace


def expand(trace: SlotTrace) -> SlotTrace:
    """One row per slot: each row repeated count times, with its duration
    shared equally among its slots."""
    return SlotTrace.from_lists(
        np.repeat(trace.codes, trace.counts),
        np.repeat(trace.owners, trace.counts),
        np.repeat(trace.durations // trace.counts, trace.counts),
        trace.colliders)


def assert_run_length(trace: SlotTrace, sigma: int) -> None:
    """Transmissions count one slot, idle runs are maximal and each lasts
    its count of idle slots."""
    idle = trace.codes == IDLE
    assert np.all(trace.counts[~idle] == 1)
    assert np.all(trace.counts[idle] >= 1)
    assert not np.any(idle[1:] & idle[:-1])
    assert np.array_equal(trace.durations[idle], trace.counts[idle] * sigma)


# --- reference: the loop sim.run replaced ---

class _Station:
    __slots__ = ("params", "rng", "buffer", "buf_pos", "stage", "attempts_cur",
                 "backlogged", "head_arrival", "packet_seq", "queue",
                 "next_arrival", "arrival_rng", "rate_pps")

    def __init__(self, params: MacParams, rng: np.random.Generator):
        self.params = params
        self.rng = rng
        self.buffer = rng.random(_BACKOFF_BUFFER)
        self.buf_pos = 0
        self.stage = 0
        self.attempts_cur = 0
        self.backlogged = False
        self.head_arrival = 0.0
        self.packet_seq = 0
        self.queue: deque[float] = deque()
        self.next_arrival = math.inf
        self.arrival_rng: np.random.Generator | None = None
        self.rate_pps = 0.0

    def draw_backoff(self) -> int:
        # uniform over {0 .. window-1}; buffered doubles keep RNG call
        # overhead out of the hot loop
        if self.buf_pos == _BACKOFF_BUFFER:
            self.buffer = self.rng.random(_BACKOFF_BUFFER)
            self.buf_pos = 0
        u = self.buffer[self.buf_pos]
        self.buf_pos += 1
        return int(u * self.params.window(self.stage))


def _ref_run(config: SimConfig, *, replication: int = 0,
        stop_after_tagged: tuple[int, int] | None = None,
        stop_after_successes: int | None = None) -> SimResult:
    """Run one simulation; deterministic given (config, replication).

    stop_after_tagged = (station, count) and stop_after_successes allow a
    run to end as soon as enough successes are observed, on top of the
    configured horizon. They are conveniences for validation studies and do
    not change the slot dynamics.
    """
    config.validate()
    n = config.n
    params = config.station_params()
    sigma = params[0].slot_sigma
    poisson = config.mode == "poisson"

    stations = []
    for i in range(n):
        seq = np.random.SeedSequence(entropy=config.seed,
                                     spawn_key=(replication, i))
        st = _Station(params[i], np.random.Generator(np.random.Philox(seq)))
        stations.append(st)
    if poisson:
        rates = config.arrival_rates()
        for i, st in enumerate(stations):
            arr_seq = np.random.SeedSequence(entropy=config.seed,
                                             spawn_key=(replication, i, 1))
            st.arrival_rng = np.random.Generator(np.random.Philox(arr_seq))
            st.rate_pps = rates[i]
            st.next_arrival = (
                st.arrival_rng.exponential(1e6 / rates[i])
                if rates[i] > 0 else math.inf
            )

    arrivals_ct = [0] * n
    successes = [0] * n
    drops = [0] * n
    attempts = [0] * n
    collisions_involved = [0] * n

    slot_idx = 0
    wall = 0
    idle_slots = 0
    success_slots = 0
    collision_slots = 0

    record_slots = config.record_slot_trace
    record_events = config.record_event_trace
    # transmission slots only; the idle slots are filled in at the end
    success_slots_rec: list[int] = []
    collision_slots_rec: list[int] = []
    collision_us: list[int] = []
    colliders_rec: list[tuple[int, ...]] = []
    ev_packet: list[int] = []
    ev_arrival: list[float] = []
    ev_departure: list[float] = []
    success_owners: list[int] = []

    heap: list[tuple[int, int]] = []  # (arming slot index, station)

    def enqueue_head(i: int, arrival_time: float) -> None:
        st = stations[i]
        st.backlogged = True
        st.head_arrival = arrival_time
        st.attempts_cur = 0
        heapq.heappush(heap, (slot_idx + st.draw_backoff(), i))

    if poisson:
        def pump_arrivals() -> float:
            # move every arrival with timestamp <= current slot start into
            # its queue; return earliest pending arrival time
            earliest = math.inf
            for i in range(n):
                st = stations[i]
                while st.next_arrival <= wall:
                    t_a = st.next_arrival
                    arrivals_ct[i] += 1
                    st.next_arrival = t_a + st.arrival_rng.exponential(
                        1e6 / st.rate_pps)
                    if st.backlogged:
                        st.queue.append(t_a)
                    else:
                        st.stage = 0
                        enqueue_head(i, t_a)
                if st.next_arrival < earliest:
                    earliest = st.next_arrival
            return earliest
    else:
        for i in range(n):
            arrivals_ct[i] = 1
            enqueue_head(i, 0.0)

    horizon_slots = config.horizon_slots
    horizon_us = config.horizon_us
    tagged_station = tagged_goal = None
    if stop_after_tagged is not None:
        tagged_station, tagged_goal = stop_after_tagged
    total_successes = 0

    while True:
        if horizon_slots is not None and slot_idx >= horizon_slots:
            break
        if horizon_us is not None and wall >= horizon_us:
            break
        next_pending = pump_arrivals() if poisson else math.inf

        if heap and heap[0][0] <= slot_idx:
            # transmission slot
            armed = [heapq.heappop(heap)[1]]
            while heap and heap[0][0] <= slot_idx:
                armed.append(heapq.heappop(heap)[1])
            if len(armed) == 1:
                i = armed[0]
                st = stations[i]
                dur = st.params.d_succ
                if record_slots:
                    success_slots_rec.append(slot_idx)
                wall += dur
                slot_idx += 1
                success_slots += 1
                successes[i] += 1
                attempts[i] += 1
                total_successes += 1
                success_owners.append(i)
                if record_events:
                    ev_packet.append(st.packet_seq)
                    ev_arrival.append(st.head_arrival)
                    ev_departure.append(float(wall))
                st.packet_seq += 1
                st.stage = 0
                if poisson:
                    if st.queue:
                        enqueue_head(i, st.queue.popleft())
                    else:
                        st.backlogged = False
                else:
                    arrivals_ct[i] += 1
                    enqueue_head(i, float(wall))
                if i == tagged_station and successes[i] >= tagged_goal:
                    break
                if (stop_after_successes is not None
                        and total_successes >= stop_after_successes):
                    break
            else:
                dur = max(stations[i].params.d_coll for i in armed)
                if record_slots:
                    collision_slots_rec.append(slot_idx)
                    collision_us.append(dur)
                    colliders_rec.append(tuple(sorted(armed)))
                wall += dur
                slot_idx += 1
                collision_slots += 1
                for i in armed:
                    st = stations[i]
                    attempts[i] += 1
                    collisions_involved[i] += 1
                    st.attempts_cur += 1
                    rl = st.params.retry_limit
                    if rl > 0 and st.attempts_cur >= rl:
                        drops[i] += 1
                        st.packet_seq += 1
                        st.stage = 0
                        if poisson:
                            if st.queue:
                                enqueue_head(i, st.queue.popleft())
                            else:
                                st.backlogged = False
                        else:
                            arrivals_ct[i] += 1
                            enqueue_head(i, float(wall))
                    else:
                        st.stage += 1
                        heapq.heappush(heap,
                                       (slot_idx + st.draw_backoff(), i))
        else:
            # idle run up to the next armed station, arrival, or horizon
            if not heap and next_pending is math.inf:
                break  # nothing backlogged, nothing arriving
            jump = heap[0][0] - slot_idx if heap else math.inf
            if next_pending is not math.inf:
                until_arrival = int(math.ceil((next_pending - wall) / sigma))
                jump = min(jump, max(until_arrival, 1))
            if horizon_slots is not None:
                jump = min(jump, horizon_slots - slot_idx)
            if horizon_us is not None:
                jump = min(jump, int(math.ceil((horizon_us - wall) / sigma)))
            slot_idx += jump
            wall += jump * sigma
            idle_slots += jump

    counters = SimCounters(
        arrivals=np.array(arrivals_ct, dtype=np.int64),
        successes=np.array(successes, dtype=np.int64),
        drops=np.array(drops, dtype=np.int64),
        attempts=np.array(attempts, dtype=np.int64),
        collisions_involved=np.array(collisions_involved, dtype=np.int64),
        # queued packets plus the head-of-line one (always one if saturated)
        queue_final=np.array([len(st.queue) + st.backlogged
                              for st in stations], dtype=np.int64),
        n_slots=slot_idx,
        idle_slots=idle_slots,
        success_slots=success_slots,
        collision_slots=collision_slots,
        wallclock_us=wall,
    )
    d_succ = np.array([p.d_succ for p in params], dtype=np.int64)
    slots = (per_slot_fill(
        slot_idx, sigma, success_slots_rec, success_owners,
        d_succ[success_owners], collision_slots_rec, collision_us,
        colliders_rec) if record_slots else None)
    # every success is a departure, so the event stations are the owners
    events = (EventTrace.from_lists(success_owners, ev_packet, ev_arrival,
                                    ev_departure)
              if record_events else None)
    return SimResult(
        config=config,
        counters=counters,
        success_owners=np.array(success_owners, dtype=np.int32),
        slots=slots,
        events=events,
    )


# --- equivalence ---

HETERO = (MacParams(cw_min=8, cw_max=64), MacParams(cw_min=32, payload_dur=700),
          MacParams(cw_min=16, retry_limit=3), MacParams(cw_min=4, cw_max=16))
CROWDED = MacParams(cw_min=4, cw_max=16, max_backoff_stage=2, retry_limit=2)
# edges of run's stage tables: one stage that drops at every collision,
# retry stages past the top window, and one window with and without drops
ONE_TRY = MacParams(cw_min=8, cw_max=64, retry_limit=1)
LONG_RETRY = MacParams(cw_min=4, cw_max=64, max_backoff_stage=2,
                       retry_limit=6)
ONE_STAGE = (MacParams(cw_min=8, max_backoff_stage=0),
             MacParams(cw_min=8, max_backoff_stage=0, retry_limit=2)) * 4
VALIDATION = MacParams(cw_min=128, max_backoff_stage=3)
# (config, run keyword arguments), each run for several seeds and
# replications
CASES = {
    "saturated-n1": (SimConfig(n=1, horizon_slots=20_000), {}),
    "saturated-n2": (SimConfig(n=2, horizon_slots=30_000), {}),
    "saturated-n10": (SimConfig(n=10, horizon_slots=30_000), {}),
    "saturated-n50": (SimConfig(n=50, horizon_slots=20_000), {}),
    "heterogeneous": (SimConfig(n=4, params=HETERO, horizon_slots=30_000), {}),
    "retry-drops": (SimConfig(n=12, params=CROWDED, horizon_slots=20_000), {}),
    "horizon-us": (SimConfig(n=3, horizon_us=7_654_321), {}),
    "stop-after-tagged": (SimConfig(n=10, params=VALIDATION,
                                    horizon_slots=10 ** 9),
                          {"stop_after_tagged": (3, 100)}),
    "retry-limit-1": (SimConfig(n=6, params=ONE_TRY, horizon_slots=20_000),
                      {}),
    "retry-past-top-stage": (SimConfig(n=12, params=LONG_RETRY,
                                       horizon_slots=20_000), {}),
    "max-backoff-stage-0": (SimConfig(n=8, params=ONE_STAGE,
                                      horizon_slots=20_000), {}),
    "poisson-n1": (SimConfig(n=1, mode="poisson", arrival_rate_pps=50.0,
                             horizon_us=2_000_000), {}),
    "poisson-unequal": (SimConfig(n=4, mode="poisson",
                                  arrival_rate_pps=(20.0, 55.5, 0.0, 90.0),
                                  horizon_us=30_000_000), {}),
    "poisson-overload": (SimConfig(n=3, mode="poisson",
                                   arrival_rate_pps=300.0,
                                   horizon_slots=40_000), {}),
    "poisson-retry-drops": (SimConfig(n=6, params=CROWDED, mode="poisson",
                                      arrival_rate_pps=200.0,
                                      horizon_slots=8_000), {}),
    "poisson-n50": (SimConfig(n=50, mode="poisson", arrival_rate_pps=8.0,
                              horizon_us=5_000_000), {}),
    "poisson-stop-after-tagged": (SimConfig(n=3, mode="poisson",
                                            arrival_rate_pps=100.0,
                                            horizon_slots=10 ** 9),
                                  {"stop_after_tagged": (1, 50)}),
    # light load with long backoffs: several arrivals in one idle run, and
    # stations that never arrive
    "poisson-zero-rates": (SimConfig(n=8, params=MacParams(cw_min=256),
                                     mode="poisson",
                                     arrival_rate_pps=(0.0, 10.0) * 4,
                                     horizon_us=20_000_000), {}),
    # drops at light load, after which the next packet is not yet due
    "poisson-light-retry-drops": (SimConfig(n=4, params=CROWDED,
                                            mode="poisson",
                                            arrival_rate_pps=30.0,
                                            horizon_us=10_000_000), {}),
    # several refills of the largest chunk: 20k backoffs at n = 1
    "long-n1": (SimConfig(n=1, params=MacParams(cw_min=4, cw_max=8),
                          horizon_slots=50_000, record_slot_trace=False),
                {}),
}


def assert_same_run(got: SimResult, want: SimResult) -> None:
    for name in vars(want.counters):
        g, w = getattr(got.counters, name), getattr(want.counters, name)
        assert np.array_equal(g, w), name
        assert np.asarray(g).dtype == np.asarray(w).dtype, name
    assert got.success_owners.dtype == want.success_owners.dtype
    assert np.array_equal(got.success_owners, want.success_owners)
    assert (got.slots is None) == (want.slots is None)
    if want.slots is not None:
        assert_run_length(got.slots,
                          got.config.station_params()[0].slot_sigma)
        slots = expand(got.slots)
        for name in ("codes", "owners", "durations"):
            g, w = getattr(slots, name), getattr(want.slots, name)
            assert g.dtype == w.dtype and np.array_equal(g, w), name
        assert got.slots.colliders == want.slots.colliders
    assert (got.events is None) == (want.events is None)
    if want.events is not None:
        for name in ("station", "packet_id", "arrival", "departure"):
            g, w = getattr(got.events, name), getattr(want.events, name)
            assert g.dtype == w.dtype and np.array_equal(g, w), name


@pytest.mark.parametrize("seed", [0, 11, 2024])
@pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
def test_run_equals_reference(case, seed):
    cfg, kwargs = case
    cfg = SimConfig(**{**vars(cfg), "seed": seed})
    for replication in (0, 3):
        assert_same_run(run(cfg, replication=replication, **kwargs),
                        _ref_run(cfg, replication=replication, **kwargs))


def test_cases_cover_what_they_claim():
    crowded = _ref_run(CASES["retry-drops"][0])
    assert crowded.counters.drops.sum() > 0
    assert max(map(len, crowded.slots.colliders)) >= 3
    for name in ("poisson-retry-drops", "poisson-light-retry-drops"):
        assert _ref_run(CASES[name][0]).counters.drops.sum() > 0
    overload = _ref_run(CASES["poisson-overload"][0]).counters
    # run's final count crosses chunks of the gap stream at every station
    assert np.all(overload.queue_final > _MAX_CHUNK)
    hetero = _ref_run(CASES["heterogeneous"][0]).counters
    assert hetero.drops.sum() > 0
    one_try = _ref_run(CASES["retry-limit-1"][0]).counters
    assert one_try.drops.sum() > 0
    assert np.array_equal(one_try.drops, one_try.collisions_involved)
    # a drop there takes six collisions in a row, past stage 2
    assert _ref_run(CASES["retry-past-top-stage"][0]).counters.drops.sum() > 0
    one_stage = _ref_run(CASES["max-backoff-stage-0"][0]).counters
    assert one_stage.drops[1::2].sum() > 0
    assert one_stage.drops[::2].sum() == 0
    assert one_stage.collisions_involved[::2].min() > 0
    light = _ref_run(CASES["poisson-zero-rates"][0])
    assert not light.counters.arrivals[::2].any()
    assert light.counters.arrivals[1::2].all()
    # the slot each packet arrives in; idle runs are numbered by the
    # transmissions before them
    slots = light.slots
    at = np.searchsorted(np.cumsum(slots.durations), light.events.arrival,
                         side="right")
    idle_run = np.cumsum(slots.codes != IDLE)[at[slots.codes[at] == IDLE]]
    assert np.bincount(idle_run).max() >= 3
    long_run = _ref_run(CASES["long-n1"][0]).counters
    assert long_run.attempts[0] > 3 * _BACKOFF_BUFFER


TRACED = {name: case for name, case in CASES.items()
          if case[0].record_slot_trace}


@pytest.mark.parametrize("case", TRACED.values(), ids=TRACED.keys())
def test_written_trace_reads_back(case, tmp_path):
    cfg, kwargs = case
    res = run(cfg, replication=1, **kwargs)
    path = tmp_path / "slot_trace.csv"
    write_slot_trace_csv(res.slots, path)
    back = read_slot_trace_csv(path)
    for name in ("codes", "owners", "durations", "counts"):
        g, w = getattr(back, name), getattr(res.slots, name)
        assert g.dtype == w.dtype and np.array_equal(g, w), name
    assert back.colliders == res.slots.colliders
    assert int(back.counts.sum()) == res.counters.n_slots
    assert int(back.durations.sum()) == res.counters.wallclock_us


# runs whose run-length traces begin or end at the edges of the format,
# each with what makes it an edge
EDGES = {
    "transmission-at-slot-0": (
        SimConfig(n=3, params=MacParams(cw_min=2, cw_max=8),
                  horizon_slots=2_000, seed=1), {},
        lambda slots, c: slots.codes[0] != IDLE),
    "ends-idle": (
        SimConfig(n=3, horizon_slots=2_000, seed=3), {},
        lambda slots, c: slots.codes[-1] == IDLE),
    "horizon-us-cuts-an-idle-run": (
        SimConfig(n=2, params=MacParams(cw_min=512), horizon_us=1_234_567,
                  seed=3), {},
        lambda slots, c: slots.codes[-1] == IDLE
        and c.wallclock_us >= 1_234_567),
    "stop-after-tagged": (
        SimConfig(n=10, params=VALIDATION, horizon_slots=10 ** 9, seed=3),
        {"stop_after_tagged": (3, 100)},
        lambda slots, c: slots.codes[-1] == SUCCESS
        and slots.owners[-1] == 3 and c.successes[3] == 100),
    "light-load-poisson": (
        SimConfig(n=3, mode="poisson", arrival_rate_pps=5.0,
                  horizon_us=20_000_000, seed=4), {},
        lambda slots, c: c.idle_slots > 100 * (c.success_slots
                                               + c.collision_slots)),
    "zero-slots": (
        SimConfig(n=2, mode="poisson", arrival_rate_pps=0.0,
                  horizon_slots=100, seed=5), {},
        lambda slots, c: c.n_slots == 0 and len(slots) == 0),
}


@pytest.mark.parametrize("cfg, kwargs, edge", EDGES.values(),
                         ids=EDGES.keys())
def test_run_length_edges_expand_to_per_slot_fill(cfg, kwargs, edge):
    got, want = run(cfg, **kwargs), _ref_run(cfg, **kwargs)
    assert edge(got.slots, got.counters)
    assert_same_run(got, want)


# --- a seeded sweep of random set-ups ---

def _random_setup(rng: np.random.Generator) -> tuple[SimConfig, dict, int]:
    """Mostly Poisson stations with their own windows, retry limits and
    frame lengths, rates log-uniform up to 1e5 pps (some 0), a short
    horizon in slots or microseconds and an early stop or none."""
    n = int(rng.integers(1, 9))
    params = tuple(
        MacParams(cw_min=int(cw), cw_max=int(cw) << int(rng.integers(0, 6)),
                  max_backoff_stage=int(rng.integers(0, 6)),
                  retry_limit=int(rng.integers(0, 5)),
                  payload_dur=int(rng.integers(100, 2000)))
        for cw in 2 ** rng.integers(0, 7, size=n))
    poisson = rng.random() < 0.8
    rates = tuple(0.0 if rng.random() < 0.1 else float(10 ** rng.uniform(0, 5))
                  for _ in range(n))
    horizon = ({"horizon_slots": int(10 ** rng.uniform(0, math.log10(3000)))}
               if rng.random() < 0.5 else
               {"horizon_us": int(10 ** rng.uniform(0, math.log10(3e6)))})
    cfg = SimConfig(n=n, params=params,
                    mode="poisson" if poisson else "saturated",
                    arrival_rate_pps=rates if poisson else None,
                    seed=int(rng.integers(2 ** 32)), **horizon)
    stop = rng.integers(3)
    kwargs = {}
    if stop == 1:
        kwargs = {"stop_after_tagged": (int(rng.integers(n)),
                                        int(rng.integers(1, 50)))}
    elif stop == 2:
        rng.integers(1, 200)  # a retired stop's draw; later set-ups stay
    return cfg, kwargs, int(rng.integers(4))


def test_random_setups_equal_reference():
    # runs that end inside an idle run, or on a transmission slot during
    # which backlogged packets arrive, with a backlog left either way
    rng = np.random.default_rng(20080)
    ends = {"idle": 0, "transmission": 0}
    for index in range(100):
        cfg, kwargs, replication = _random_setup(rng)
        want = _ref_run(cfg, replication=replication, **kwargs)
        try:
            assert_same_run(run(cfg, replication=replication, **kwargs), want)
        except AssertionError as exc:
            raise AssertionError(f"set-up {index}: {cfg} {kwargs} "
                                 f"replication {replication}") from exc
        if cfg.mode == "poisson" and want.counters.queue_final.any():
            ends["idle" if want.slots.codes[-1] == IDLE
                 else "transmission"] += 1
    assert min(ends.values()) >= 5, ends
