"""Slot-level DCF simulator with binary exponential backoff.

Slot semantics
--------------
Time advances in channel slots of variable duration: idle (slot_sigma),
success, or collision. At each slot start, every backlogged station whose
backoff counter is zero transmits in that slot; every other backlogged
counter decrements once per slot, whatever the slot outcome. This is the
slot convention of the decoupled saturation chain, so the fixed-point tau
is directly comparable to the per-slot attempt frequency measured here. A
transmitter redraws uniformly from {0 .. CW-1} effective at the next slot:
success resets to stage 0 and dequeues the next packet, collision advances
one stage (window doubling, clamped at cw_max), and a packet that has
exhausted retry_limit attempts is dropped. A new head-of-line packet always
draws a backoff before its first attempt; the
immediate-transmission-after-idle-DIFS shortcut of the full standard is
deliberately not modeled.

The inner loop advances event-to-event rather than slot-to-slot: a counter
drawn as b at slot s arms its station for slot s + b (s + 1 + b after a
transmission), so maximal runs of idle slots are applied in one jump. This
is exactly equivalent to the per-slot loop above.

Randomness comes from counter-based Philox streams seeded per
(replication, station) via SeedSequence spawn keys, which makes every run
reproducible and replications independent.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, is_finite, is_int
from .mac import MacParams
from .traceio import EventTrace, SlotTrace

_BACKOFF_BUFFER = 4096


@dataclass(frozen=True)
class SimConfig:
    """Simulation scenario.

    params may be a single MacParams shared by all stations or one per
    station (slot_sigma must then agree across stations, since the idle
    slot is a channel property). Exactly one of horizon_slots / horizon_us
    bounds the run. In poisson mode arrival_rate_pps gives per-station
    Poisson arrival rates (scalar or one per station).
    """

    n: int
    params: MacParams | tuple[MacParams, ...] = MacParams()
    mode: str = "saturated"
    arrival_rate_pps: float | tuple[float, ...] | None = None
    horizon_slots: int | None = None
    horizon_us: int | None = None
    seed: int = 0
    record_slot_trace: bool = True
    record_event_trace: bool = True

    def station_params(self) -> list[MacParams]:
        if isinstance(self.params, MacParams):
            return [self.params] * self.n
        params = list(self.params)
        if len(params) != self.n:
            raise ConfigError(
                f"{len(params)} MacParams for {self.n} stations"
            )
        return params

    def arrival_rates(self) -> list[float]:
        if self.mode != "poisson":
            return []
        rates = self.arrival_rate_pps
        if rates is None:
            raise ConfigError("poisson mode requires arrival_rate_pps")
        if not isinstance(rates, (list, tuple, np.ndarray)):
            rates = [rates] * self.n
        if len(rates) != self.n:
            raise ConfigError(f"{len(rates)} arrival rates for {self.n} stations")
        if not all(is_finite(r) and r >= 0 for r in rates):
            raise ConfigError("arrival_rate_pps must be finite numbers >= 0, "
                              f"got {self.arrival_rate_pps!r}")
        return [float(r) for r in rates]

    def validate(self) -> None:
        if (self.horizon_slots is None) == (self.horizon_us is None):
            raise ConfigError(
                "exactly one of horizon_slots / horizon_us must be set"
            )
        horizon = "horizon_slots" if self.horizon_us is None else "horizon_us"
        for name, least in (("n", 1), (horizon, 1), ("seed", 0)):
            value = getattr(self, name)
            if not is_int(value) or value < least:
                raise ConfigError(
                    f"{name} must be an integer >= {least}, got {value!r}")
        for name in ("record_slot_trace", "record_event_trace"):
            if not isinstance(getattr(self, name), (bool, np.bool_)):
                raise ConfigError(f"{name} must be true or false, got "
                                  f"{getattr(self, name)!r}")
        if self.mode not in ("saturated", "poisson"):
            raise ConfigError(f"unknown mode {self.mode!r}")
        sigmas = {p.slot_sigma for p in self.station_params()}
        if len(sigmas) != 1:
            raise ConfigError(
                "slot_sigma must be identical across stations (shared channel)"
            )
        self.arrival_rates()


@dataclass
class SimCounters:
    """Per-station and channel-level tallies for one run."""

    arrivals: np.ndarray
    successes: np.ndarray
    drops: np.ndarray
    attempts: np.ndarray
    collisions_involved: np.ndarray
    queue_final: np.ndarray
    n_slots: int
    idle_slots: int
    success_slots: int
    collision_slots: int
    wallclock_us: int


@dataclass
class SimResult:
    config: SimConfig
    counters: SimCounters
    success_owners: np.ndarray
    slots: SlotTrace | None
    events: EventTrace | None

    def throughput_pps(self) -> np.ndarray:
        """Per-station departures per second of channel time."""
        wall_s = self.counters.wallclock_us * 1e-6
        return self.counters.successes / wall_s

    def throughput_bps(self, payload_bits: float) -> np.ndarray:
        return self.throughput_pps() * payload_bits

    def attempt_rate(self) -> np.ndarray:
        """Per-station attempts per slot (the empirical tau)."""
        return self.counters.attempts / self.counters.n_slots

    def collision_prob(self) -> np.ndarray:
        """Per-station fraction of attempts that collided."""
        attempts = np.maximum(self.counters.attempts, 1)
        return self.counters.collisions_involved / attempts


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


def run(config: SimConfig, *, replication: int = 0,
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
    slots = (SlotTrace.from_transmissions(
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


_NAMED_STATISTICS: dict[str, Callable[[SimResult], np.ndarray]] = {
    "throughput_pps": lambda r: r.throughput_pps(),
    "attempt_rate": lambda r: r.attempt_rate(),
    "collision_prob": lambda r: r.collision_prob(),
    "success_count": lambda r: r.counters.successes.astype(float),
}


def replicate(config: SimConfig, reps: int,
              reducer: str | Callable[[SimResult], np.ndarray],
              jobs: int = 1) -> np.ndarray:
    """Independent replications; row r holds the statistic of replication r.

    Replication r runs with RNG substreams keyed by (r, station), so the
    set of replications is deterministic and pairwise independent. With
    jobs > 1 replications execute in a process pool; results are assembled
    in replication order either way.
    """
    if not is_int(reps) or reps < 1:
        raise ConfigError(f"reps must be an integer >= 1, got {reps!r}")
    if isinstance(reducer, str):
        if reducer not in _NAMED_STATISTICS:
            raise ConfigError(
                f"unknown statistic {reducer!r}; choose from "
                f"{sorted(_NAMED_STATISTICS)}")
        fn = _NAMED_STATISTICS[reducer]
    else:
        fn = reducer
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_replication_worker,
                                    [(config, r) for r in range(reps)]))
        rows = [fn(res) for res in results]
    else:
        rows = [fn(run(config, replication=r)) for r in range(reps)]
    return np.stack([np.atleast_1d(np.asarray(row, dtype=float))
                     for row in rows])


def _replication_worker(args: tuple[SimConfig, int]) -> SimResult:
    config, r = args
    return run(config, replication=r)
