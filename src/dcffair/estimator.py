"""Passive fair-rate estimation from one station's arrivals and departures.

The queue length q(t) = #{arrivals <= t} - #{departures <= t} reconstructs
busy periods as the maximal intervals with q >= 1. They are found as
columns, all at once: one searchsorted gives q just after every departure,
a period ends where it is 0, and FIFO makes the packets between two such
ends one period. Only inter-departure gaps that lie entirely inside one
busy period are rate samples; gaps that span an empty queue measure offered
load, not service. The point estimate is 1/mean(sample), its standard error
follows from the delta method, and a departures-over-busy-time ratio is
kept alongside as a secondary statistic. Lag-1 autocorrelation of the
samples is reported as a diagnostic but not corrected for.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotEnoughBacklogError, TraceFormatError
from .traceio import EventTrace


@dataclass(frozen=True)
class BusyPeriods:
    """Maximal intervals with a non-empty queue, as columns: one per row."""

    start: np.ndarray       # us, arrival that opens the period
    end: np.ndarray         # us, departure that empties the queue
    departures: np.ndarray  # departures inside the period

    def __len__(self) -> int:
        return self.start.size


@dataclass(frozen=True)
class RateEstimate:
    rate_pps: float
    stderr_pps: float
    ci95: tuple[float, float]
    samples: int
    busy_fraction: float
    lag1_autocorr: float
    ratio_rate_pps: float


@dataclass(frozen=True)
class ConvergencePoint:
    """Estimate from the first requested_m inter-departure samples."""

    requested_m: int
    used_m: int
    truncated: bool
    rate_pps: float
    ci_low: float
    ci_high: float
    ci_width: float
    ratio_rate_pps: float


def _validated(events: EventTrace) -> tuple[np.ndarray, np.ndarray]:
    if len(events) == 0:
        raise NotEnoughBacklogError("empty event trace", busy_fraction=0.0)
    if np.unique(events.station).size > 1:
        raise TraceFormatError(
            "event trace mixes stations; filter with for_station() first"
        )
    arr = events.arrival
    dep = events.departure
    if not (np.isfinite(arr).all() and np.isfinite(dep).all()):
        raise TraceFormatError("event times must be finite")
    if np.any(np.diff(arr) < 0):
        raise TraceFormatError("arrivals are not time ordered")
    if np.any(np.diff(dep) < 0):
        raise TraceFormatError(
            "FIFO violation: departures not ordered as arrivals"
        )
    if np.any(dep <= arr):
        raise TraceFormatError("departure at or before arrival")
    return arr, dep


def detect_busy_periods(events: EventTrace) -> BusyPeriods:
    """Busy periods of one station's queue, disjoint and time ordered."""
    arr, dep = _validated(events)
    # arrivals first on ties, so back-to-back packets bridge the point: after
    # departure i the queue holds #{arr <= dep[i]} - (i + 1) packets
    queued = np.searchsorted(arr, dep, "right") - np.arange(1, dep.size + 1)
    last = np.flatnonzero(queued == 0)
    first = np.concatenate(([0], last[:-1] + 1))
    # FIFO: period k serves packets first[k]..last[k]
    return BusyPeriods(start=arr[first], end=dep[last],
                       departures=last - first + 1)


def _period_samples(events: EventTrace, min_period_departures: int
                    ) -> tuple[np.ndarray, np.ndarray, BusyPeriods, float]:
    """Kept gaps in trace order, the departure closing each, the qualifying
    periods and the busy fraction of the whole trace."""
    periods = detect_busy_periods(events)
    dep = events.departure
    qualifies = periods.departures >= min_period_departures
    # gap i runs from departure i to i + 1; keep it inside a qualifying period
    inside = np.repeat(qualifies, periods.departures)
    inside[np.cumsum(periods.departures) - 1] = False
    kept = np.flatnonzero(inside)
    closing = dep[kept + 1]
    span = float(dep.max() - events.arrival.min())
    busy_time = sum((periods.end - periods.start).tolist())
    busy_fraction = busy_time / span if span > 0 else 0.0
    qualifying = BusyPeriods(periods.start[qualifies], periods.end[qualifies],
                             periods.departures[qualifies])
    return closing - dep[kept], closing, qualifying, busy_fraction


def _delta_method(samples: np.ndarray) -> tuple[float, float]:
    # rate = 1/mean; Var(rate) ~ Var(mean) / mean^4
    mean = float(np.mean(samples))
    rate = 1e6 / mean
    if samples.size < 2:
        return rate, 0.0
    sd = float(np.std(samples, ddof=1))
    stderr = 1e6 * sd / (np.sqrt(samples.size) * mean * mean)
    return rate, stderr


def estimate_fair_rate(events: EventTrace,
                       min_period_departures: int = 2) -> RateEstimate:
    """Fair-rate estimate in packets per second, with a 95% CI.

    Uses inter-departure gaps strictly inside busy periods that contain at
    least min_period_departures departures. The first gap of each period is
    kept. Raises when no qualifying samples exist.
    """
    samples, _, qualifying, busy_fraction = _period_samples(
        events, min_period_departures)
    if samples.size == 0:
        raise NotEnoughBacklogError(
            "no busy period holds enough departures for a rate sample "
            f"(busy fraction {busy_fraction:.3f})",
            busy_fraction=busy_fraction,
        )
    rate, stderr = _delta_method(samples)
    x, y = samples[:-1], samples[1:]
    # corrcoef divides by the spread of each half
    if samples.size >= 3 and np.std(x) > 0 and np.std(y) > 0:
        lag1 = float(np.corrcoef(x, y)[0, 1])
    else:
        lag1 = 0.0
    busy_us = sum((qualifying.end - qualifying.start).tolist())
    deps = int(qualifying.departures.sum())
    return RateEstimate(
        rate_pps=rate,
        stderr_pps=stderr,
        ci95=(rate - 1.96 * stderr, rate + 1.96 * stderr),
        samples=int(samples.size),
        busy_fraction=busy_fraction,
        lag1_autocorr=lag1,
        ratio_rate_pps=1e6 * deps / busy_us,
    )


def convergence_report(events: EventTrace, sample_counts: list[int],
                       min_period_departures: int = 2) -> list[ConvergencePoint]:
    """Prefix estimates over growing sample counts.

    For each m, uses the first m inter-departure samples in trace order. An
    m beyond the available samples is truncated to all of them and flagged.
    The ratio estimate for a prefix covers the busy time walked through up
    to the departure that closes the m-th sample.
    """
    all_samples, closing, qualifying, busy_fraction = _period_samples(
        events, min_period_departures)
    if all_samples.size == 0:
        raise NotEnoughBacklogError(
            "no qualifying busy periods "
            f"(busy fraction {busy_fraction:.3f})",
            busy_fraction=busy_fraction,
        )
    samples_through = np.cumsum(qualifying.departures - 1)
    # cumsum adds in order, so each prefix rounds as a running += does
    busy_before = np.cumsum(np.concatenate(
        ([0.0], qualifying.end - qualifying.start))).tolist()
    report: list[ConvergencePoint] = []
    for requested in sample_counts:
        if requested < 1:
            raise ValueError("sample counts must be >= 1")
        used = min(requested, all_samples.size)
        truncated = used < requested
        rate, stderr = _delta_method(all_samples[:used])
        # k whole periods precede the one closing the used-th sample, and
        # each period holds one departure more than it has samples
        k = int(np.searchsorted(samples_through, used))
        busy_us = busy_before[k] + (float(closing[used - 1])
                                    - float(qualifying.start[k]))
        deps = used + k + 1
        report.append(ConvergencePoint(
            requested_m=requested,
            used_m=int(used),
            truncated=truncated,
            rate_pps=rate,
            ci_low=rate - 1.96 * stderr,
            ci_high=rate + 1.96 * stderr,
            ci_width=2 * 1.96 * stderr,
            ratio_rate_pps=1e6 * deps / busy_us,
        ))
    return report
