"""Stochastic service curve for a tagged station from its increment MGF.

The time between consecutive tagged departures is a compound-geometric sum:
G - 1 non-tagged slots (G geometric with the tagged per-slot success
probability) each with an i.i.d. duration D, plus the tagged success slot
itself,

    I = sum_{i < G} D_i + d_succ.

Its log-MGF is available in closed form,

    Lambda(theta) = theta * d_succ + ln(p) - ln(1 - (1 - p) * E[e^(theta D)]),

valid while (1 - p) E[e^(theta D)] < 1. Chernoff over the i.i.d. sum of j
increments gives P[T_j >= t] <= exp(j Lambda(theta) - theta t), hence the
(1 - eps)-quantile envelope t_eps(j) = (j Lambda(theta) + ln(1/eps)) / theta
and the rate-latency service curve with rate theta / Lambda(theta) and
latency ln(1/eps) / theta. The convergent range ends at theta_max, found by
bisection that stops once its bracket is two adjacent floats.

Internal time unit is the microsecond; the public curve is expressed in
packets per second and seconds.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
import numpy as np

from .errors import (ConditioningError, ConsistencyError, DivergenceError,
                     InstabilityError, is_finite)
from .mac import SlotDistribution

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_THETA_CAP, _GRID_POINTS = 1.0, 64  # optimize_theta's theta range and grid


@dataclass(frozen=True)
class IncrementModel:
    """Tagged-station slot model feeding the service-curve math.

    p_tag is the per-slot probability that the tagged station succeeds;
    cond_values / cond_probs describe the slot duration conditioned on
    "not a tagged success". Durations in microseconds. log_probs is
    ln(cond_probs), -inf where a probability is 0, taken once for _cond_mgf.
    """

    p_tag: float
    d_succ: float
    cond_values: np.ndarray
    cond_probs: np.ndarray
    log_probs: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0.0 < self.p_tag <= 1.0:
            raise ValueError(f"p_tag must be in (0, 1], got {self.p_tag}")
        if self.d_succ <= 0.0:
            raise ValueError("d_succ must be positive")
        if self.p_tag < 1.0:
            if self.cond_values.size == 0:
                raise ValueError("conditional durations required when p_tag < 1")
            if abs(float(np.sum(self.cond_probs)) - 1.0) > 1e-12:
                raise ValueError("conditional probabilities must sum to 1")
            if np.any(self.cond_probs < 0.0):
                raise ValueError("conditional probabilities must be >= 0")
        object.__setattr__(self, "log_probs", np.log(
            self.cond_probs, out=np.full_like(self.cond_probs, -np.inf),
            where=self.cond_probs > 0))


@dataclass(frozen=True)
class StochasticServiceCurve:
    """Rate-latency envelope holding except with probability eps."""

    rate: float      # packets per second
    latency: float   # seconds
    eps: float
    theta: float     # 1/microsecond


@dataclass(frozen=True)
class ArrivalEnvelope:
    """Token bucket: arrivals in any interval of length t <= sigma_b + rho t."""

    sigma_b: float   # packets
    rho: float       # packets per second

    def __post_init__(self):
        if not (is_finite(self.sigma_b) and is_finite(self.rho)
                and self.sigma_b >= 0.0 and self.rho >= 0.0):
            raise ValueError("token bucket parameters must be finite and "
                             f">= 0, got sigma_b={self.sigma_b!r}, "
                             f"rho={self.rho!r}")


def increment_model_from_slots(dist: SlotDistribution,
                               tagged: int) -> IncrementModel:
    """Build the tagged increment model from a per-slot outcome distribution.
    Raises ConditioningError if the tagged station never succeeds."""
    p_tag = float(dist.p_succ[tagged])
    if not p_tag > 0.0:  # starved, as next to a station with a window of 1
        raise ConditioningError(f"station {tagged}'s per-slot success "
                                f"probability is {p_tag}, so it never departs")
    if p_tag >= 1.0:
        return IncrementModel(p_tag=1.0, d_succ=float(dist.d_succ),
                              cond_values=np.zeros(0), cond_probs=np.zeros(0))
    other_succ = float(np.sum(dist.p_succ)) - p_tag
    rest = 1.0 - p_tag
    values = np.array([dist.d_idle, dist.d_succ, dist.d_coll], dtype=float)
    probs = np.array([dist.p_idle, other_succ, dist.p_coll]) / rest
    return IncrementModel(p_tag=p_tag, d_succ=float(dist.d_succ),
                          cond_values=values, cond_probs=probs)


def increment_moments(model: IncrementModel) -> tuple[float, float]:
    """Mean and variance (us, us^2) of the inter-departure increment.

    E[I] = (1/p - 1) E[D] + d_succ; the variance is the compound-geometric
    Var[I] = E[N] Var[D] + Var[N] E[D]^2 with N = G - 1.
    """
    p = model.p_tag
    if p == 1.0:
        return model.d_succ, 0.0
    mean_d = float(np.dot(model.cond_values, model.cond_probs))
    mean_d2 = float(np.dot(model.cond_values ** 2, model.cond_probs))
    var_d = mean_d2 - mean_d * mean_d
    mean_n = (1.0 - p) / p
    var_n = (1.0 - p) / (p * p)
    mean = mean_n * mean_d + model.d_succ
    variance = mean_n * var_d + var_n * mean_d * mean_d
    return mean, variance


def _cond_mgf(model: IncrementModel, theta: float) -> float:
    # E[e^(theta D)], computed in log domain to survive large theta * D.
    exponents = theta * model.cond_values + model.log_probs
    return float(np.exp(np.logaddexp.reduce(exponents)))


def theta_max(model: IncrementModel) -> float:
    """Supremum of the convergent theta range (1/us); inf when deterministic.

    Root of (1 - p) E[e^(theta D)] = 1, found by doubling plus bisection.
    The bisection stops once lo and hi are adjacent floats: the returned lo
    can no longer move, and no more than 200 halvings are taken.
    """
    p = model.p_tag
    if p == 1.0:
        return math.inf
    hi = 1e-6
    while (1.0 - p) * _cond_mgf(model, hi) < 1.0:
        hi *= 2.0
        if hi > 1e6:
            return math.inf  # all conditional durations are zero
    # Invariant: (1 - p) E[e^(theta D)] is < 1 at lo and >= 1 or nan at hi.
    # Once mid rounds to lo or to hi, every later step re-tests one of them
    # and sets it to the value it has, so lo can no longer move.
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if (1.0 - p) * _cond_mgf(model, mid) < 1.0:
            lo = mid
        else:
            hi = mid
    return lo


def log_mgf(model: IncrementModel, theta: float) -> float:
    """Lambda(theta) = ln E[e^(theta I)] of the increment, theta in 1/us."""
    if theta == 0.0:
        return 0.0
    p = model.p_tag
    if p == 1.0:
        return theta * model.d_succ
    geometric_term = (1.0 - p) * _cond_mgf(model, theta)
    if geometric_term >= 1.0:
        t_max = theta_max(model)
        raise DivergenceError(
            f"log-MGF diverges at theta = {theta:.6g}/us "
            f"(theta_max = {t_max:.6g}/us)",
            theta_max=t_max,
        )
    return theta * model.d_succ + math.log(p) - math.log(1.0 - geometric_term)


def t_epsilon_us(model: IncrementModel, theta: float, eps: float,
                 j: int) -> float:
    """Time (us) by which the j-th departure occurs w.p. >= 1 - eps."""
    if theta <= 0.0:
        raise ValueError("theta must be positive")
    if not (0.0 < eps <= 1.0 and math.isfinite(1.0 / eps)):
        raise ValueError(f"eps must be in (0, 1] with a finite 1/eps, "
                         f"got {eps!r}")
    return (j * log_mgf(model, theta) + math.log(1.0 / eps)) / theta


def service_curve(model: IncrementModel, theta: float,
                  eps: float) -> StochasticServiceCurve:
    """Rate-latency service curve at Chernoff parameter theta.

    rate = theta / Lambda(theta) packets/us (reported in packets/s) and
    latency = ln(1/eps) / theta (reported in seconds).
    """
    if theta <= 0.0:
        raise ValueError("theta must be positive")
    if not (0.0 < eps < 1.0 and math.isfinite(1.0 / eps)):
        raise ValueError(f"eps must be in (0, 1) with a finite 1/eps, "
                         f"got {eps!r}")
    lam = log_mgf(model, theta)
    if lam <= 0.0:  # Lambda >= theta * d_succ > 0, so only rounding gets here
        raise ConsistencyError(
            f"log-MGF at theta = {theta:.6g}/us is {lam:.6g}, not > 0: theta "
            "is too small for it to be resolved in floating point")
    rate_ppus = theta / lam
    latency_us = math.log(1.0 / eps) / theta
    return StochasticServiceCurve(
        rate=rate_ppus * 1e6,
        latency=latency_us * 1e-6,
        eps=eps,
        theta=theta,
    )


def optimize_theta(model: IncrementModel, eps: float, horizon_j: int) -> float:
    """Theta minimizing the envelope t_eps(horizon_j).

    A log-spaced grid pre-scan, theta <= _THETA_CAP, checks unimodality;
    golden-section search then refines around the grid minimum. A
    non-unimodal scan falls back to the grid argmin with a warning.
    """
    if horizon_j < 1:
        raise ValueError("horizon_j must be >= 1")
    upper = min(0.999 * theta_max(model), _THETA_CAP)
    lower = upper * 1e-6
    grid = np.geomspace(lower, upper, _GRID_POINTS)
    values = np.array([t_epsilon_us(model, t, eps, horizon_j) for t in grid])
    diffs = np.diff(values)
    sign_changes = int(np.sum(np.diff(np.sign(diffs[diffs != 0.0])) != 0.0))
    best = int(np.argmin(values))
    if sign_changes > 1:
        warnings.warn(
            "envelope not unimodal on the pre-scan grid; returning grid argmin",
            RuntimeWarning,
        )
        return float(grid[best])
    a = float(grid[max(best - 1, 0)])
    b = float(grid[min(best + 1, _GRID_POINTS - 1)])
    for _ in range(200):
        if b - a <= 1e-12 * b:
            break
        x1 = b - _GOLDEN * (b - a)
        x2 = a + _GOLDEN * (b - a)
        if (t_epsilon_us(model, x1, eps, horizon_j)
                <= t_epsilon_us(model, x2, eps, horizon_j)):
            b = x2
        else:
            a = x1
    return 0.5 * (a + b)


def delay_bound(arr: ArrivalEnvelope, sc: StochasticServiceCurve) -> float:
    """Delay bound (seconds) violated with probability at most sc.eps.

    Horizontal deviation between the token bucket and the rate-latency
    curve: d = latency + sigma_b / rate.
    """
    if arr.rho > sc.rate:
        raise InstabilityError(
            f"instability: arrival rate {arr.rho} pps exceeds service rate "
            f"{sc.rate} pps"
        )
    return sc.latency + arr.sigma_b / sc.rate


def backlog_bound(arr: ArrivalEnvelope, sc: StochasticServiceCurve) -> float:
    """Backlog bound (packets) violated with probability at most sc.eps.

    Vertical deviation: b = sigma_b + rho * latency.
    """
    if arr.rho > sc.rate:
        raise InstabilityError(
            f"instability: arrival rate {arr.rho} pps exceeds service rate "
            f"{sc.rate} pps"
        )
    return arr.sigma_b + arr.rho * sc.latency
