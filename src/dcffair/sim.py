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
is exactly equivalent to the per-slot loop above. The loop is flat: each
station's state is an entry of per-station Python lists, and its backoff
state is one stage index. Two tables per station, built once per run, give
the window at each stage and the stage after a collision there: the next
one, or at the last stage the same one again (no retry limit) or a drop
(the last of retry_limit stages). No packet queue is kept: a station's
backlog is head, the arrival time of its oldest unserved packet (the last
departure if saturated). Poisson arrivals do not depend on the MAC, so a
departure reads the next arrival from the station's gap stream and arms the
station at once if it is due by the end of the slot, else pushes (arrival,
station) onto a second heap, pending. Pending entries due by a slot start
are armed before it, and the earliest ends an idle run; saturated stations
start as entries at time 0, a station with rate 0 has none. Each station
has its own streams and armed keys order by (slot, station), so the order
of arming changes nothing. queue_final sums the gap stream from head to the
start of the last slot, so memory does not grow with the backlog.

Randomness comes from counter-based Philox streams seeded per
(replication, station) via SeedSequence spawn keys, which makes every run
reproducible and replications independent. Each station draws its
uniforms (and, in poisson mode, its inter-arrival gaps) in chunks that
start small and grow to a cap, held as Python lists; a counter-based
stream yields the same values however its draws are chunked.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from functools import partial
from heapq import heappop, heappush
from typing import Callable, Iterable

import numpy as np

from .errors import ConfigError, is_finite, is_int
from .mac import MacParams
from .traceio import EventTrace, SlotTrace

# backoff and inter-arrival draws are buffered per station in chunks that
# start small, so a short run draws little, and grow to a cap that bounds
# their memory
_FIRST_CHUNK = 64
_MAX_CHUNK = 1024
# the final backlog count draws gaps in chunks growing from _MAX_CHUNK to
# this, so a heavily overloaded station takes few passes
_MAX_COUNT_CHUNK = 65_536


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

    def station_params(self) -> tuple[MacParams, ...]:
        if isinstance(self.params, MacParams):
            return (self.params,) * self.n
        params = tuple(self.params)
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
    """Per-station and channel-level tallies for one run. queue_final counts
    the unserved packets that arrived by the start of the last slot (1 if
    saturated), so arrivals = successes + drops + queue_final."""

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


def _refill(buffer: list, draw: Callable[[int], np.ndarray],
            size: int) -> int:
    """Refill an empty buffer with draw(size), reversed so that pop()
    returns the draws in stream order; returns the next chunk size."""
    buffer += draw(size)[::-1].tolist()
    return min(2 * size, _MAX_CHUNK)


def _early_stop(n: int, stop_after_tagged) -> tuple[int, int]:
    """(tagged station, its goal); -1 where no stop is set, which no
    station index ever equals."""
    tagged = goal = -1
    if stop_after_tagged is not None:
        try:
            tagged, goal = stop_after_tagged
        except (TypeError, ValueError):
            raise ConfigError("stop_after_tagged must be a (station, count) "
                              f"pair, got {stop_after_tagged!r}") from None
        if not is_int(tagged) or not 0 <= tagged < n:
            raise ConfigError(f"stop_after_tagged station must be an integer "
                              f"in 0..{n - 1}, got {tagged!r}")
        if not is_int(goal) or goal < 1:
            raise ConfigError("stop_after_tagged count must be an integer "
                              f">= 1, got {goal!r}")
    return int(tagged), int(goal)


def _arrivals_by(t: float, buffered: list[float],
                 draw: Callable[[int], np.ndarray], start: float) -> int:
    """How many of the arrivals t, t + g1, t + g1 + g2, ... are <= start,
    the gaps being the buffered ones (popped from the end), then new draws;
    cumsum adds them one at a time as run does, so each rounds the same."""
    count, size = 0, _MAX_CHUNK
    gaps = np.array(buffered[::-1], dtype=float)
    while True:
        times = np.cumsum(np.concatenate(([t], gaps)))
        below = int(np.searchsorted(times, start, side="right"))
        if below <= gaps.size:
            return count + below
        count, t, gaps = count + gaps.size, times[-1], draw(size)
        size = min(2 * size, _MAX_COUNT_CHUNK)


def run(config: SimConfig, *, replication: int = 0,
        stop_after_tagged: tuple[int, int] | None = None) -> SimResult:
    """Run one simulation; deterministic given (config, replication).

    stop_after_tagged = (station, count) ends the run as soon as that
    station has count successes, on top of the configured horizon. It is a
    convenience for validation studies and does not change the slot
    dynamics.
    """
    config.validate()
    n = config.n
    tagged, tagged_goal = _early_stop(n, stop_after_tagged)
    params = config.station_params()
    sigma = params[0].slot_sigma
    poisson = config.mode == "poisson"
    # per station and stage: the window, and the stage after a collision
    # there (-1: the packet is dropped)
    windows = [[p.window(s) for s in range(p.retry_limit
                                          or p.max_backoff_stage + 1)]
               for p in params]
    after = [list(range(1, len(w))) + [-1 if p.retry_limit else len(w) - 1]
             for p, w in zip(params, windows)]
    d_succ = [p.d_succ for p in params]
    d_coll = [p.d_coll for p in params]

    def stream(*key: int) -> np.random.Generator:
        seq = np.random.SeedSequence(entropy=config.seed,
                                     spawn_key=(replication, *key))
        return np.random.Generator(np.random.Philox(seq))

    draw_u = [stream(i).random for i in range(n)]
    uniforms: list[list[float]] = [[] for _ in range(n)]
    u_chunk = [_FIRST_CHUNK] * n
    stage = [0] * n
    successes = [0] * n
    drops = [0] * n
    collisions = [0] * n
    heap: list[int] = []  # slot * n + station, for each armed station

    slot_idx = wall = start = success_slots = collision_slots = 0
    max_slots = int(config.horizon_slots or sys.maxsize)
    max_us = int(config.horizon_us or sys.maxsize)
    record_slots = config.record_slot_trace
    record_events = config.record_event_trace
    # transmission slots only; the idle runs are the gaps between them
    success_at: list[int] = []
    collision_at: list[int] = []
    collision_us: list[int] = []
    colliders: list[tuple[int, ...]] = []
    ev_packet: list[int] = []
    ev_arrival: list[float] = []
    ev_departure: list[int] = []
    owners: list[int] = []

    if poisson:
        draw_gap = [partial(stream(i, 1).exponential, 1e6 / rate) if rate > 0
                    else None for i, rate in enumerate(config.arrival_rates())]
        gaps: list[list[float]] = [[] for _ in range(n)]
        gap_chunk = [_FIRST_CHUNK] * n

        def next_gap(i: int) -> float:
            g = gaps[i]
            if not g:
                gap_chunk[i] = _refill(g, draw_gap[i], gap_chunk[i])
            return g.pop()

        head = [next_gap(i) if draw else math.inf
                for i, draw in enumerate(draw_gap)]
    else:
        head = [0.0] * n  # every station arrives at the first slot
    # head[i] is the arrival of the head-of-line (or, if idle, next) packet;
    # pending holds (head[i], i) for each idle station that has one coming
    pending = sorted((t, i) for i, t in enumerate(head) if t < math.inf)

    while slot_idx < max_slots and wall < max_us:
        while pending and pending[0][0] <= wall:
            # an idle station whose next packet arrived by the slot start
            # becomes backlogged and draws
            i = heappop(pending)[1]
            u = uniforms[i]
            if not u:
                u_chunk[i] = _refill(u, draw_u[i], u_chunk[i])
            heappush(heap, (slot_idx + int(u.pop() * windows[i][0])) * n + i)

        limit = (slot_idx + 1) * n  # keys below it are armed for this slot
        if heap and heap[0] < limit:
            start = wall  # of the latest slot, where queue_final stops
            i = heappop(heap) - limit + n
            if not heap or heap[0] >= limit:
                # success: the head-of-line packet departs
                if record_slots:
                    success_at.append(slot_idx)
                slot_idx += 1
                wall += d_succ[i]
                success_slots += 1
                owners.append(i)
                if record_events:
                    ev_packet.append(successes[i] + drops[i])
                    ev_arrival.append(head[i])
                    ev_departure.append(wall)
                successes[i] += 1
                stage[i] = 0
                head[i] = t = head[i] + next_gap(i) if poisson else wall
                if t <= wall:
                    u = uniforms[i]
                    if not u:
                        u_chunk[i] = _refill(u, draw_u[i], u_chunk[i])
                    heappush(heap, (slot_idx + int(u.pop() * windows[i][0]))
                             * n + i)
                else:
                    heappush(pending, (t, i))
                if i == tagged and successes[i] == tagged_goal:
                    break
            else:
                armed = [i]
                while heap and heap[0] < limit:
                    armed.append(heappop(heap) - limit + n)
                dur = max([d_coll[i] for i in armed])
                if record_slots:
                    collision_at.append(slot_idx)
                    collision_us.append(dur)
                    colliders.append(tuple(armed))  # ascending, as keys are
                slot_idx += 1
                wall += dur
                collision_slots += 1
                for i in armed:
                    collisions[i] += 1
                    s = stage[i] = after[i][stage[i]]
                    if s < 0:
                        drops[i] += 1  # the head-of-line packet departs
                        stage[i] = s = 0
                        t = head[i] + next_gap(i) if poisson else wall
                        head[i] = t
                        if t > wall:
                            heappush(pending, (t, i))
                            continue
                    u = uniforms[i]
                    if not u:
                        u_chunk[i] = _refill(u, draw_u[i], u_chunk[i])
                    heappush(heap, (slot_idx + int(u.pop() * windows[i][s]))
                             * n + i)
        else:
            # idle run up to the next armed station, arrival, or horizon
            target = heap[0] // n if heap else max_slots
            if pending:  # its first entry is after wall, so >= 1 slot on
                target = min(target, slot_idx
                             + math.ceil((pending[0][0] - wall) / sigma))
            elif not heap:
                break  # nothing backlogged, nothing arriving
            if target > max_slots:
                target = max_slots
            if wall + (target - slot_idx) * sigma > max_us:
                target = slot_idx - (wall - max_us) // sigma
            wall += (target - slot_idx) * sigma
            slot_idx = target
            start = wall - sigma

    successes_a = np.array(successes, dtype=np.int64)
    drops_a = np.array(drops, dtype=np.int64)
    collisions_a = np.array(collisions, dtype=np.int64)
    queue_final = np.array(
        [_arrivals_by(head[i], gaps[i], draw_gap[i], start) for i in range(n)]
        if poisson else [1] * n, dtype=np.int64)
    counters = SimCounters(
        arrivals=successes_a + drops_a + queue_final,
        successes=successes_a,
        drops=drops_a,
        attempts=successes_a + collisions_a,
        collisions_involved=collisions_a,
        queue_final=queue_final,
        n_slots=slot_idx,
        idle_slots=slot_idx - success_slots - collision_slots,
        success_slots=success_slots,
        collision_slots=collision_slots,
        wallclock_us=wall,
    )
    success_owners = np.array(owners, dtype=np.int32)
    slots = (SlotTrace.from_transmissions(
        slot_idx, sigma, success_at, success_owners,
        np.array(d_succ, dtype=np.int64)[success_owners], collision_at,
        collision_us, colliders) if record_slots else None)
    # every success is a departure, so the event stations are the owners
    # (a copy, so that neither result array aliases the other)
    events = (EventTrace.from_lists(success_owners.copy(), ev_packet,
                                    ev_arrival, ev_departure)
              if record_events else None)
    return SimResult(
        config=config,
        counters=counters,
        success_owners=success_owners,
        slots=slots,
        events=events,
    )


def replicate(config: SimConfig, replications: Iterable[int],
              jobs: int = 1) -> np.ndarray:
    """Per-station throughput_pps() of run(config, replication=r), one row
    for each r of replications (such as range(reps)), in their order.

    Replication r runs with RNG substreams keyed by (r, station), so the set
    of replications is deterministic and pairwise independent. With jobs > 1
    they run in a process pool, each worker sending back its row. Traces are
    off, since only the throughput is kept.
    """
    indices = list(replications) if isinstance(replications, Iterable) else []
    if not indices or not all(is_int(r) and r >= 0 for r in indices):
        raise ConfigError("replications must be one or more integers >= 0, "
                          f"got {replications!r}")
    if not is_int(jobs) or jobs < 1:
        raise ConfigError(f"jobs must be an integer >= 1, got {jobs!r}")
    config.validate()  # before the trace flags are overridden
    row = partial(_throughput, replace(config, record_slot_trace=False,
                                       record_event_trace=False))
    if jobs == 1:
        return np.stack([row(r) for r in indices])
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return np.stack(list(pool.map(row, indices)))


def _throughput(config: SimConfig, replication: int) -> np.ndarray:
    return run(config, replication=replication).throughput_pps()
