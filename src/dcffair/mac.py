"""Analytical saturation model of the 802.11 DCF.

The model rests on the usual decoupling approximation: every station sees a
constant conditional collision probability p per attempt, independent of its
own backoff state. For a station with initial window W that doubles per
retry stage, renewal-reward over one packet gives the per-slot attempt
probability

    tau(p) = E[attempts per packet] / E[slots per packet]
           = sum_i p^i / sum_i p^i * (W_i + 1) / 2

with W_i = min(cw_min * 2^min(i, max_backoff_stage), cw_max) and the sum
running over retry stages (finite when a retry limit drops packets,
geometric tail otherwise). Closing the loop with p = 1 - (1 - tau)^(n-1)
yields the saturation operating point.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from itertools import zip_longest
from typing import Sequence

import numpy as np

from .errors import ConditioningError, ConfigError, SolverError, is_int

#: Classic DSSS-flavored timing profile, microseconds. Configuration data,
#: not constants of the model.
DEFAULT_CW_MIN = 32
DEFAULT_CW_MAX = 1024
DEFAULT_MAX_BACKOFF_STAGE = 5
DEFAULT_RETRY_LIMIT = 0
DEFAULT_SLOT_SIGMA = 20
DEFAULT_DIFS = 50
DEFAULT_SIFS = 10
DEFAULT_ACK_DUR = 304
DEFAULT_HEADER_DUR = 416
DEFAULT_PAYLOAD_DUR = 8192

_TOL = 1e-12
_DAMPING = 0.5
_MAX_ITERATIONS = 100_000


@dataclass(frozen=True)
class MacParams:
    """MAC timing and backoff configuration.

    Backoff counters are drawn uniformly from {0 .. CW-1}; cw_min is the
    size of the initial window. Durations are integer microseconds so that
    all wallclock arithmetic downstream stays exact.
    """

    cw_min: int = DEFAULT_CW_MIN
    cw_max: int = DEFAULT_CW_MAX
    max_backoff_stage: int = DEFAULT_MAX_BACKOFF_STAGE
    retry_limit: int = DEFAULT_RETRY_LIMIT  # 0 = never drop
    slot_sigma: int = DEFAULT_SLOT_SIGMA
    difs: int = DEFAULT_DIFS
    sifs: int = DEFAULT_SIFS
    ack_dur: int = DEFAULT_ACK_DUR
    header_dur: int = DEFAULT_HEADER_DUR
    payload_dur: int = DEFAULT_PAYLOAD_DUR

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            least = 0 if f.name in ("max_backoff_stage", "retry_limit") else 1
            if not is_int(value) or value < least:
                raise ConfigError(
                    f"{f.name} must be an integer >= {least}, got {value!r}")
        if self.cw_max < self.cw_min:
            raise ConfigError(
                f"cw_max ({self.cw_max}) must be >= cw_min ({self.cw_min})"
            )

    def window(self, stage: int) -> int:
        """Contention window size at a retry stage (doubling, clamped)."""
        return min(self.cw_min << min(stage, self.max_backoff_stage),
                   self.cw_max)

    @property
    def d_succ(self) -> int:
        """Duration of a successful slot (basic access, no RTS/CTS)."""
        return (self.header_dur + self.payload_dur + self.sifs
                + self.ack_dur + self.difs)

    @property
    def d_coll(self) -> int:
        """Duration of a collision slot (no ACK follows a collision)."""
        return self.header_dur + self.payload_dur + self.difs


@dataclass(frozen=True)
class AttemptSolution:
    """Operating point of the homogeneous saturation fixed point."""

    n: int
    tau: float
    p_coll: float
    residual: float


@dataclass(frozen=True)
class VectorAttemptSolution:
    """Operating point of the heterogeneous (per-station) fixed point."""

    taus: np.ndarray
    p_colls: np.ndarray
    residual: float
    iterations: int


@dataclass(frozen=True)
class SlotDistribution:
    """Per-slot outcome probabilities and slot durations.

    q is the success-ownership distribution: the probability that a given
    successful slot belongs to each station.
    """

    p_idle: float
    p_succ: np.ndarray
    p_coll: float
    d_idle: int
    d_succ: int
    d_coll: int
    q: np.ndarray

    @property
    def expected_slot_us(self) -> float:
        """Mean slot duration under this distribution."""
        return (self.p_idle * self.d_idle
                + float(np.sum(self.p_succ)) * self.d_succ
                + self.p_coll * self.d_coll)


def _stages(params: MacParams) -> tuple[tuple[float, ...], tuple[float, ...],
                                        float, float]:
    """A station's chain for _chain: the half windows (W_i + 1) / 2 of its
    retry_limit or max_backoff_stage stages, a live flag 1.0 per stage,
    1.0 if it has no retry limit (0.0 if it has), and the half window of
    stage m."""
    m = params.max_backoff_stage
    half = tuple((params.window(i) + 1) / 2.0
                 for i in range(params.retry_limit or m))
    return (half, (1.0,) * len(half), float(params.retry_limit == 0),
            (params.window(m) + 1) / 2.0)


def _chain(p, half, live, unlimited, tail_half):
    """Renewal-reward attempt probability of backoff chains at collision p.

    Stage i is reached with weight p^i and costs half[i] slots on average,
    the final slot being the attempt. live[i] is 1.0 while stage i is one of
    a station's stages and 0.0 past its last; the 0/1 products leave a
    finished station's sums and weight exactly as they were (x * 1.0 = x,
    x + 0.0 = x). Without a retry limit (unlimited 1.0) the window is
    constant beyond stage m, so the tail of the geometric stage chain sums
    in closed form at tail_half slots. The arguments are floats for one
    station, or arrays over stations (half[i] and live[i] one per stage).
    """
    num = den = 0.0
    weight = 1.0
    for half_i, live_i in zip(half, live):
        num = num + weight * live_i
        den = den + weight * half_i * live_i
        weight = weight * (p * live_i + (1.0 - live_i))
    tail = weight / (1.0 - p) * unlimited  # sum_{i>=m} p^i
    return (num + tail) / (den + tail * tail_half)


def solve_attempt_fixed_point(params: MacParams, n: int) -> AttemptSolution:
    """Solve the homogeneous saturation fixed point for n stations.

    Bisection on tau over (1e-9, 1 - 1e-9), to a residual of at most _TOL.
    The residual g(tau) = tau - chain(1 - (1 - tau)^(n-1)) is strictly
    increasing, so a sign change brackets the unique root. Where g stays
    negative on the bracket, a chain that is 1 at tau = 1 (one station of
    window 1, or stations whose every window is 1) has its root there.
    """
    if n < 1:
        raise ConfigError(f"station count must be >= 1, got {n}")

    stages = _stages(params)

    def residual(tau: float) -> float:
        # clamp guards the bracket endpoint tau -> 1 where p rounds to 1.0
        p = min(1.0 - (1.0 - tau) ** (n - 1), 1.0 - 1e-15)
        return tau - _chain(p, *stages)

    lo, hi = 1e-9, 1.0 - 1e-9
    g_lo, g_hi = residual(lo), residual(hi)
    if g_hi < 0.0 and residual(1.0) == 0.0:
        return AttemptSolution(n=n, tau=1.0, p_coll=1.0 - 0.0 ** (n - 1),
                               residual=0.0)
    if g_lo > 0.0 or g_hi < 0.0:
        raise SolverError(
            "fixed point not bracketed on (1e-9, 1-1e-9): "
            f"g({lo}) = {g_lo:.3e}, g({hi}) = {g_hi:.3e}; "
            "degenerate backoff parameters"
        )
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        g_mid = residual(mid)
        if abs(g_mid) <= _TOL:
            break
        if g_mid < 0.0:
            lo = mid
        else:
            hi = mid
    else:
        raise SolverError(
            f"bisection stalled at residual {g_mid:.3e} > tol {_TOL:.3e}"
        )
    p = 1.0 - (1.0 - mid) ** (n - 1)
    return AttemptSolution(n=n, tau=mid, p_coll=p, residual=abs(g_mid))


def solve_attempt_fixed_point_vector(
        params: Sequence[MacParams]) -> VectorAttemptSolution:
    """Solve the per-station fixed point for heterogeneous backoff configs.

    Damped iteration tau <- (1-d) tau + d chain(p(tau)), d = _DAMPING, with
    p_i = 1 - prod_{j != i} (1 - tau_j), to a step of at most _TOL within
    _MAX_ITERATIONS steps. Each step evaluates every station's chain at
    once: _chain runs on arrays over stations, with the stage tables padded
    to the deepest station's stage count.
    """
    n = len(params)
    if n < 1:
        raise ConfigError("at least one station required")
    halves, lives, unlimited, tail_half = zip(*map(_stages, params))
    # one row per stage and a column per station, 0.0 past its last stage
    half, live = (np.array(list(zip_longest(*rows, fillvalue=0.0)))
                  for rows in (halves, lives))
    unlimited, tail_half = np.array(unlimited), np.array(tail_half)
    taus = _chain(np.zeros(n), half, live, unlimited, tail_half)
    for iteration in range(1, _MAX_ITERATIONS + 1):
        one_minus = 1.0 - taus
        prod_all = np.prod(one_minus)
        if prod_all == 0.0:  # tau_i = 1, a window of 1: no 0/0 for its p_i
            p = 1.0 - np.array([np.prod(np.delete(one_minus, i)) if x == 0.0
                                else prod_all / x for i, x in
                                enumerate(one_minus.tolist())])
        else:
            p = 1.0 - prod_all / one_minus  # p_i over prod_{j != i}
        clamped = np.minimum(p, 1.0 - 1e-15)
        outside = ~((clamped >= 0.0) & (clamped < 1.0))
        if outside.any():
            i = int(np.argmax(outside))
            raise SolverError(f"station {i}'s collision probability is "
                              f"{clamped[i]}, not in [0, 1): degenerate "
                              "backoff parameters")
        target = _chain(clamped, half, live, unlimited, tail_half)
        residual = float(np.max(np.abs(taus - target)))
        if residual <= _TOL:
            return VectorAttemptSolution(
                taus=taus, p_colls=p, residual=residual, iterations=iteration
            )
        taus = (1.0 - _DAMPING) * taus + _DAMPING * target
    raise SolverError(
        f"damped iteration did not converge in {_MAX_ITERATIONS} steps "
        f"(residual {residual:.3e})"
    )


def slot_distribution(tau: Sequence[float] | np.ndarray,
                      params: MacParams) -> SlotDistribution:
    """Per-slot outcome distribution for attempt probabilities tau.

    tau entries must lie in (0, 1]; 1 is the degenerate forced-attempt case.
    Where no station can succeed (two or more stations at tau = 1), the
    ownership shares q are 0/0 and ConditioningError is raised.
    """
    tau = np.asarray(tau, dtype=float)
    if tau.ndim != 1 or tau.size < 1:
        raise ValueError("tau must be a non-empty 1-d vector")
    if np.any(tau <= 0.0) or np.any(tau > 1.0):
        raise ValueError("every attempt probability must be in (0, 1]")
    one_minus = 1.0 - tau
    p_idle = float(np.prod(one_minus))
    p_succ = tau * np.array([np.prod(np.delete(one_minus, i))
                             for i in range(tau.size)])
    total_succ = float(np.sum(p_succ))
    if total_succ == 0.0:
        raise ConditioningError("no station can ever succeed: "
                                f"{np.sum(tau == 1.0)} stations attempt in "
                                "every slot (tau = 1)")
    p_coll = max(1.0 - p_idle - total_succ, 0.0)  # rounding, ~1e-16
    q = p_succ / total_succ
    return SlotDistribution(
        p_idle=p_idle,
        p_succ=p_succ,
        p_coll=p_coll,
        d_idle=params.slot_sigma,
        d_succ=params.d_succ,
        d_coll=params.d_coll,
        q=q,
    )


def saturation_throughput(dist: SlotDistribution,
                          payload_bits: float) -> np.ndarray:
    """Per-station saturation throughput in bits per second.

    S_i = p_succ_i * payload_bits / E[slot duration], with the mean slot
    duration in microseconds.
    """
    if payload_bits <= 0:
        raise ValueError("payload_bits must be positive")
    expected = dist.expected_slot_us
    return dist.p_succ * payload_bits / expected * 1e6
