"""Conditional fairness distribution over success ownership, and windowed
Jain's index.

Successive successful slots are modeled as i.i.d. ownership draws. Fix a
tagged station and one contender and keep only the successes belonging to
either; with beta the contender's share of that reduced stream, the window
that ends at the l-th tagged success contains K contender successes with

    P[K = k | l] = C(k + l - 1, k) * (1 - beta)^l * beta^k

which is the negative binomial counting failures before the l-th success.
Everything here is a pure function of its inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    ConditioningError,
    ConsistencyError,
    HorizonNotFoundError,
    TruncationError,
    is_finite,
    is_int,
)

_EXACT_COMB_LIMIT = 50  # exact integer binomials up to k + l = 50
_K_CAP = 2_000_000
_L_CAP = 1_000_000
# exp() underflows to 0.0 below -745.2; _log_term errs by <= 1.5e-8 for k, l
# within the caps (against 50-digit mpmath at 3,000 random points)
_ZERO_LOG = -800.0
_MASS_REACH = 40.0  # sds (+ 1) around the mean kept by _bands
# short_term_horizon asks conditional_pmf whenever the fast deviation
# probability is this close to eps: 44x the largest gap between the two,
# 2.2e-9, over l = 2..1e6, beta = 0.01..0.99, delta = 0.001..2 and
# trunc = 1e-9..1e-15 (2,040 points)
_DEVIATION_BAND = 1e-7
# short_term_horizon's block scan: the first block's l count, doubled per
# block, and the most k values a block's (l, k) matrix holds; one l whose
# band alone is wider makes a block of its own
_FIRST_BLOCK = 64
_BLOCK_TERMS = 1 << 17


@dataclass(frozen=True)
class ConditionalPmf:
    """Truncated pmf of contender successes per l tagged successes."""

    l: int
    beta: float
    k_max: int
    pmf: np.ndarray
    tail_mass: float


@dataclass(frozen=True)
class FairnessWindowStats:
    """Per-window success counts and Jain index summary."""

    window_len: int
    counts: np.ndarray      # shape (windows, stations)
    jain: np.ndarray        # per-window index
    jain_mean: float
    jain_p05: float
    jain_p95: float


def _log_term(k: int, l: int, beta: float) -> float:
    return (math.lgamma(k + l) - math.lgamma(k + 1) - math.lgamma(l)
            + l * math.log1p(-beta) + k * math.log(beta))


def _pmf_term(k: int, l: int, beta: float) -> float:
    # C(k+l-1, k) (1-beta)^l beta^k, exact combinatorics for small orders
    # and log-domain gammas beyond to avoid overflow.
    if k + l <= _EXACT_COMB_LIMIT:
        return math.comb(k + l - 1, k) * (1.0 - beta) ** l * beta ** k
    return math.exp(_log_term(k, l, beta))


def _zero_head(l: int, beta: float) -> int:
    """How many leading terms _pmf_term gives as exactly 0.0, _K_CAP + 1 if
    all of 0.._K_CAP do; by bisection for 50 < l <= _L_CAP. log p(k) rises
    up to the mode (l - 1) beta / (1 - beta), so every k before the first
    one at or above _ZERO_LOG lies below it too, and its exp() underflows."""
    if not _EXACT_COMB_LIMIT < l <= _L_CAP:
        return 0
    mode = (l - 1) * beta / (1.0 - beta)
    lo, hi = 0, min(_K_CAP, int(mode)) + 1
    while lo < hi:
        mid = (lo + hi) // 2
        if _log_term(mid, l, beta) < _ZERO_LOG:
            lo = mid + 1
        else:
            hi = mid
    return lo


def _rise_end(l: int, beta: float) -> int:
    """Last k, at most _K_CAP, with beta (k + l) >= k + 1 exactly, where the
    term ratio conditional_pmf's ratio stop tests is >= 1. Rounding is
    monotone and k + 1 is a float, so a product >= k + 1 rounds to at least
    k + 1 and its quotient by k + 1 to at least 1.0: up to this k the
    computed ratio is >= 1.0 too. Below 0 when there is no such k."""
    num, den = beta.as_integer_ratio()  # beta = num / den, 0 < num < den
    return min(_K_CAP, (num * l - den) // (den - num))


def conditional_pmf(q_tagged: float, q_contender: float, l: int,
                    trunc_tol: float = 1e-9) -> ConditionalPmf:
    """Distribution of contender successes in the l-th-tagged-success window.

    q_tagged and q_contender are the stations' success-ownership
    probabilities; only their ratio enters through
    beta = q_contender / (q_tagged + q_contender). The pmf is truncated at
    the smallest k_max whose remaining tail mass is <= trunc_tol in (0, 1).

    Sum(pmf) + tail_mass is 1 to within 1e-12 by construction. For
    distributions needing upward of ~1e5 entries the reported tail_mass is
    limited by per-term floating-point accuracy and can sit slightly above
    trunc_tol even though the true remaining mass is provably below it.
    Leading entries that underflow to 0.0 take no step each (_zero_head).
    The rising stretch, where k + l > 50 and the term ratio is >= 1 up to
    _rise_end, runs as a lean loop of recurrence, append, Kahan update and
    mass stop: the ratio stop cannot fire there and k stays within _K_CAP,
    so skipping both tests gives the same bytes. It leaves to the general
    loop where a term falls below 1e-300 and needs a reseed.
    """
    if not q_tagged > 0.0:
        raise ConditioningError(
            "tagged ownership probability must be positive to condition on "
            f"its successes, got {q_tagged}"
        )
    if not q_contender >= 0.0:
        raise ValueError("contender ownership probability must be >= 0")
    if q_tagged + q_contender > 1.0 + 1e-12:
        raise ValueError("ownership probabilities must sum to at most 1")
    if not (is_int(l) and l >= 1):
        raise ValueError(f"l must be an integer >= 1, got {l!r}")
    if not (is_finite(trunc_tol) and 0.0 < trunc_tol < 1.0):
        raise ValueError(f"trunc_tol must be in (0, 1), got {trunc_tol!r}")

    beta = q_contender / (q_tagged + q_contender)
    if beta == 1.0:
        raise ConditioningError(
            f"tagged ownership probability {q_tagged} is negligible next to "
            f"the contender's {q_contender}: beta rounds to 1")
    if beta == 0.0:
        return ConditionalPmf(l=l, beta=0.0, k_max=0,
                              pmf=np.array([1.0]), tail_mass=0.0)

    # Exact integer combinatorics while k + l stays small; beyond that, a
    # log-domain seed term feeds the ratio recurrence
    # pmf_{k} = pmf_{k-1} * beta * (k + l - 1) / k, which never forms the
    # overflowing binomial and drifts by only ~1 ulp per step (re-running
    # lgamma per term would carry its absolute error at huge arguments into
    # every entry). Log-domain reseeding carries the recurrence across
    # stretches where the head of the distribution underflows. The loop
    # starts past the head's exact 0.0 terms: each would only reseed, add
    # 0.0 to a zero Kahan sum and meet neither stopping test.
    terms: list[float] = []
    cumulative = 0.0
    compensation = 0.0  # Kahan: tail terms must not be absorbed by the sum
    k = head = _zero_head(l, beta)
    rise_end = _rise_end(l, beta)
    term = 0.0  # the term before k: none, or the zero head
    while True:
        if k > _K_CAP:
            raise TruncationError(
                f"tail did not reach {trunc_tol} within {_K_CAP} terms "
                f"(l={l}, beta={beta})"
            )
        if k + l <= _EXACT_COMB_LIMIT or term < 1e-300:
            # below the normal float range the recurrence cannot even
            # climb out of the smallest denormal; reseed from log domain
            term = _pmf_term(k, l, beta)
        else:
            term = term * beta * (k + l - 1) / k
        terms.append(term)
        y = term - compensation
        t = cumulative + y
        compensation = (t - cumulative) - y
        cumulative = t
        if k + l >= _EXACT_COMB_LIMIT:
            # the rising stretch k + 1 .. rise_end, every k past the exact
            # orders, none past _K_CAP, and no ratio stop (see _rise_end)
            while (k < rise_end and term >= 1e-300
                   and 1.0 - cumulative > trunc_tol):
                k += 1
                term = term * beta * (k + l - 1) / k
                terms.append(term)
                y = term - compensation
                t = cumulative + y
                compensation = (t - cumulative) - y
                cumulative = t
        if 1.0 - cumulative <= trunc_tol:
            break
        if k + l > _EXACT_COMB_LIMIT and term > 0.0:
            # Past the mode the term ratio r < 1 keeps falling, so the true
            # remaining tail is at most term * r / (1 - r). This certifies
            # termination for huge distributions whose accumulated sum is
            # limited by floating-point term accuracy (~1e-9 relative once
            # lgamma arguments reach 1e6) rather than by mass.
            ratio = beta * (k + l) / (k + 1)
            if ratio < 1.0 and term * ratio / (1.0 - ratio) <= trunc_tol:
                break
        k += 1
    return ConditionalPmf(l=l, beta=beta, k_max=k,
                          pmf=np.concatenate((np.zeros(head), terms)),
                          tail_mass=1.0 - cumulative)


def pmf_moments(cpmf: ConditionalPmf) -> tuple[float, float]:
    """Mean and variance of the conditional distribution.

    Returns the closed forms l*beta/(1-beta) and l*beta/(1-beta)^2 after
    cross-checking them against moments recomputed from the truncated pmf;
    a disagreement beyond 1e-6 (relative to max(1, value)) means the two
    computation routes drifted apart and is raised as a consistency failure.
    """
    if cpmf.tail_mass > 1e-9:
        raise TruncationError(
            f"tail mass {cpmf.tail_mass:.3e} exceeds 1e-9; retruncate first"
        )
    beta, l = cpmf.beta, cpmf.l
    mean = l * beta / (1.0 - beta)
    variance = l * beta / (1.0 - beta) ** 2

    k = np.arange(cpmf.pmf.size, dtype=float)
    mean_num = float(np.dot(k, cpmf.pmf))
    var_num = float(np.dot((k - mean_num) ** 2, cpmf.pmf))
    if abs(mean_num - mean) > 1e-6 * max(1.0, abs(mean)):
        raise ConsistencyError(
            f"pmf mean {mean_num!r} vs closed form {mean!r}"
        )
    if abs(var_num - variance) > 1e-6 * max(1.0, abs(variance)):
        raise ConsistencyError(
            f"pmf variance {var_num!r} vs closed form {variance!r}"
        )
    return mean, variance


def windowed_fairness(owners: Sequence[int] | np.ndarray, window_len: int,
                      n_stations: int) -> FairnessWindowStats:
    """Short-term fairness over disjoint windows of consecutive successes.

    owners is the success-ownership sequence (station id per successful
    slot, in order). The trailing partial window is discarded. Stations
    0..n_stations-1 form the columns, also those that never appear.
    """
    owners = np.asarray(owners)
    if owners.ndim != 1:
        raise ValueError("owners must be a 1-d sequence")
    if window_len < 1:
        raise ValueError("window_len must be >= 1")
    if owners.size < window_len:
        raise ValueError(
            f"trace has {owners.size} successes, need >= {window_len}"
        )
    codes = owners.astype(np.int64)
    if codes.min() < 0 or codes.max() >= n_stations:
        raise ValueError("owner id outside 0..n_stations-1")
    n_windows = owners.size // window_len
    window = np.arange(n_windows * window_len) // window_len
    cells = np.bincount(window * n_stations + codes[:window.size],
                        minlength=n_windows * n_stations)
    counts = cells.reshape(n_windows, n_stations)
    sums = counts.sum(axis=1, dtype=float)
    squares = (counts.astype(float) ** 2).sum(axis=1)
    jains = sums * sums / (n_stations * squares)
    return FairnessWindowStats(
        window_len=window_len,
        counts=counts,
        jain=jains,
        jain_mean=float(np.mean(jains)),
        jain_p05=float(np.quantile(jains, 0.05)),
        jain_p95=float(np.quantile(jains, 0.95)),
    )


def _bands(beta: float, delta: float,
           l: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mean, and first and last k, of the band that _deviations sums for
    each l: the k within delta of the mean and within r = _MASS_REACH
    (sd + 1) of it, widened by one. An l where conditional_pmf could reach
    its _K_CAP limit gets the empty band hi = lo - 1."""
    mean = l * beta / (1.0 - beta)
    reach = _MASS_REACH * (np.sqrt(l * beta) / (1.0 - beta) + 1.0)
    lo = np.maximum(
        0.0, np.floor(np.maximum(mean * (1.0 - delta), mean - reach)) - 1.0)
    hi = np.ceil(np.minimum(mean * (1.0 + delta), mean + reach)) + 1.0
    return mean, lo, np.where(mean + 2.0 * reach < _K_CAP, hi, lo - 1.0)


def _deviations(beta: float, delta: float, ls: np.ndarray,
                trunc: float) -> np.ndarray:
    """short_term_horizon's deviation probabilities from a vectorised log
    pmf, one per l in ls, nan where conditional_pmf must decide.

    Sums p(k) over each l's band (_bands); beyond r lies < 1e-23 of the
    mass for any l >= 2, beyond 2r < 1e-47. Row by row of a padded (l, k)
    matrix, log p(k) is one cumulative sum: a log-domain seed at the band's
    first k, then the logs of p(k) / p(k-1) = beta (k + l - 1) / k.
    """
    l = np.asarray(ls, dtype=float)
    fast = np.full(l.size, np.nan)
    mean, lo, hi = _bands(beta, delta, l)
    rows = np.flatnonzero(hi >= lo) if trunc >= 1e-40 else []
    if not len(rows):
        return fast
    l, mean, lo, hi = l[rows], mean[rows], lo[rows], hi[rows]
    j = np.arange(int(np.max(hi - lo)) + 1)
    k = lo[:, None] + j
    log_p = np.empty_like(k)
    log_p[:, 0] = [_log_term(a, b, beta)
                   for a, b in zip(lo.astype(np.int64).tolist(),
                                   l.astype(np.int64).tolist())]
    ratio = log_p[:, 1:]
    np.add(k[:, 1:], (l - 1.0)[:, None], out=ratio)
    ratio *= beta
    ratio /= k[:, 1:]
    np.log(ratio, out=ratio)
    np.cumsum(log_p, axis=1, out=log_p)
    np.exp(log_p, out=log_p)  # finite also past hi, where p(k) falls
    # p(k) times 1 inside delta of the mean, times 0 outside it and in the
    # row's padding past hi
    k -= mean[:, None]
    inside = np.abs(k, out=k) <= (delta * mean)[:, None]
    inside &= j <= (hi - lo)[:, None]
    log_p *= inside
    fast[rows] = 1.0 - log_p.sum(axis=1)
    return fast


def short_term_horizon(q: Sequence[float] | np.ndarray, tagged: int,
                       contender: int, delta: float, eps: float) -> int:
    """Smallest l with P[|K - E[K|l]| > delta * E[K|l]] <= eps.

    Scans l upward; beyond l = 4096 the scan switches to geometric strides
    with a bisection refinement, which is exact as long as the deviation
    probability is eventually decreasing in l (it is, by concentration of
    the negative binomial). Each step compares eps with the deviation
    probability of the truncated conditional_pmf, taken from _deviations
    unless that lies within _DEVIATION_BAND of eps. Up to l = 4096 the
    scan takes _deviations for blocks of consecutive l that double in
    length, each held to _BLOCK_TERMS k values, and walks each block in l
    order.
    """
    q = np.asarray(q, dtype=float)
    if not (is_int(tagged) and is_int(contender) and tagged != contender
            and 0 <= tagged < len(q) and 0 <= contender < len(q)):
        raise ValueError(f"tagged {tagged!r} and contender {contender!r} "
                         f"must be distinct indices in 0..{len(q) - 1}")
    if not 0.0 < delta < math.inf:
        raise ValueError("delta must be positive and finite")
    if not 0.0 < eps <= 1.0:
        raise ValueError("eps must be in (0, 1]")
    q_t, q_c = float(q[tagged]), float(q[contender])
    trunc = min(1e-9, eps * 1e-3) if eps < 1.0 else 1e-9

    def deviation_prob(l: int) -> float:
        cpmf = conditional_pmf(q_t, q_c, l, trunc_tol=trunc)
        mean = l * cpmf.beta / (1.0 - cpmf.beta)
        k = np.arange(cpmf.pmf.size, dtype=float)
        inside = np.abs(k - mean) <= delta * mean
        # Truncated tail counts as deviating; it sits far above the mean.
        return float(np.sum(cpmf.pmf[~inside])) + cpmf.tail_mass

    if deviation_prob(1) <= eps:  # also checks q, and covers beta = 0
        return 1
    beta = q_c / (q_t + q_c)

    def first_meeting(ls: np.ndarray) -> int | None:
        fast = _deviations(beta, delta, ls, trunc)
        exact = np.isnan(fast) | (np.abs(fast - eps) <= _DEVIATION_BAND)
        for i in np.flatnonzero(exact | (fast <= eps)):
            if not exact[i] or deviation_prob(int(ls[i])) <= eps:
                return int(ls[i])
        return None

    linear_cap = min(4096, _L_CAP)
    start, rows = 2, _FIRST_BLOCK
    while start <= linear_cap:
        ls = np.arange(start, min(start + rows, linear_cap + 1))
        _, lo, hi = _bands(beta, delta, ls.astype(float))
        terms = (np.maximum.accumulate(np.maximum(hi - lo + 1.0, 0.0))
                 * np.arange(1, ls.size + 1))
        ls = ls[:max(1, int(np.count_nonzero(terms <= _BLOCK_TERMS)))]
        found = first_meeting(ls)
        if found is not None:
            return found
        start += ls.size
        rows = 2 * ls.size

    def meets(l: int) -> bool:
        return first_meeting(np.array([l])) is not None

    lo = linear_cap  # known failing
    hi = linear_cap
    while True:
        hi = min(int(hi * 1.5) + 1, _L_CAP)
        if meets(hi):
            break
        lo = hi
        if hi >= _L_CAP:
            raise HorizonNotFoundError(
                f"no l <= {_L_CAP} meets deviation {delta} at eps {eps}"
            )
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if meets(mid):
            hi = mid
        else:
            lo = mid
    return hi


def empirical_conditional_pmf(
    owners: Sequence[int] | np.ndarray, tagged: int, contender: int, l: int
) -> tuple[np.ndarray, int]:
    """Histogram of contender successes per l-tagged-success window.

    Walks the ownership trace, keeping only tagged/contender successes, and
    cuts a window at every l-th tagged success. Returns (pmf estimate
    indexed by k, number of complete windows). The trailing partial window
    is discarded.
    """
    owners = np.asarray(owners)
    reduced = owners[(owners == tagged) | (owners == contender)]
    is_tagged = (reduced == tagged).astype(np.int64)
    tagged_cum = np.cumsum(is_tagged)
    n_windows = int(tagged_cum[-1]) // l if reduced.size else 0
    if n_windows == 0:
        return np.zeros(0), 0
    # Window w ends at the (w+1)*l-th tagged success; count contenders
    # between consecutive boundaries.
    boundaries = np.searchsorted(tagged_cum, np.arange(1, n_windows + 1) * l)
    contenders_cum = np.concatenate(
        [[0], np.cumsum(1 - is_tagged)]
    )
    ends = contenders_cum[boundaries + 1]
    starts = np.concatenate([[0], ends[:-1]])
    ks = ends - starts
    counts = np.bincount(ks)
    return counts / n_windows, n_windows


def tv_distance(p: np.ndarray, q: np.ndarray) -> float:
    """Total variation distance between two pmfs on {0, 1, 2, ...}."""
    size = max(p.size, q.size)
    pp = np.zeros(size)
    qq = np.zeros(size)
    pp[: p.size] = p
    qq[: q.size] = q
    return 0.5 * float(np.sum(np.abs(pp - qq)))
