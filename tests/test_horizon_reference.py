"""short_term_horizon against the scans it replaced.

The first reference below is the earliest short_term_horizon, kept
verbatim but for its name: it builds one conditional_pmf for every l it
tries. The scan tries the same l in the same order and takes each
deviation probability from a vectorised log pmf unless that lies within
_DEVIATION_BAND of eps, so both must return the same l, also when eps sits
within 1e-9 of a deviation probability the scan compares it with.

The second reference is the band scan that took one l per vectorised log
pmf, kept verbatim but for its names. The scan now takes blocks of l in
one (l, k) matrix and walks each block in l order, so it must build
conditional_pmf for the same l, in the same order, as that scan did.
"""

from __future__ import annotations

import math
import sys
import tracemalloc
from typing import Sequence

import numpy as np
import pytest

from dcffair import HorizonNotFoundError, conditional_pmf, short_term_horizon
from dcffair import fairness
from dcffair.errors import is_int
from dcffair.fairness import (_DEVIATION_BAND, _K_CAP, _L_CAP, _MASS_REACH,
                              _deviations)


# --- reference: the scan short_term_horizon replaced ---

def _ref_short_term_horizon(q: Sequence[float] | np.ndarray, tagged: int,
                            contender: int, delta: float,
                            eps: float) -> int:
    """Smallest l with P[|K - E[K|l]| > delta * E[K|l]] <= eps.

    Scans l upward; beyond l = 4096 the scan switches to geometric strides
    with a bisection refinement, which is exact as long as the deviation
    probability is eventually decreasing in l (it is, by concentration of
    the negative binomial).
    """
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    if not 0.0 < eps <= 1.0:
        raise ValueError("eps must be in (0, 1]")
    q = np.asarray(q, dtype=float)
    q_t, q_c = float(q[tagged]), float(q[contender])
    trunc = min(1e-9, eps * 1e-3) if eps < 1.0 else 1e-9

    def deviation_prob(l: int) -> float:
        cpmf = conditional_pmf(q_t, q_c, l, trunc_tol=trunc)
        mean = l * cpmf.beta / (1.0 - cpmf.beta)
        k = np.arange(cpmf.pmf.size, dtype=float)
        inside = np.abs(k - mean) <= delta * mean
        # Truncated tail counts as deviating; it sits far above the mean.
        return float(np.sum(cpmf.pmf[~inside])) + cpmf.tail_mass

    linear_cap = 4096
    for l in range(1, min(linear_cap, _L_CAP) + 1):
        if deviation_prob(l) <= eps:
            return l
    lo = linear_cap  # known failing
    hi = linear_cap
    while True:
        hi = min(int(hi * 1.5) + 1, _L_CAP)
        if deviation_prob(hi) <= eps:
            break
        lo = hi
        if hi >= _L_CAP:
            raise HorizonNotFoundError(
                f"no l <= {_L_CAP} meets deviation {delta} at eps {eps}"
            )
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if deviation_prob(mid) <= eps:
            hi = mid
        else:
            lo = mid
    return hi


# --- reference: the band scan, one vectorised log pmf per l ---

def _ref_window_deviation(beta: float, delta: float, l: int,
                      trunc: float) -> float | None:
    """_ref_band_scan's deviation probability from a vectorised log pmf.

    Sums p(k) for the k in the band within r = _MASS_REACH (sd + 1) of the
    mean, where p(k) = p(k-1) beta (k + l - 1) / k is one cumulative sum
    of logs; beyond r lies < 1e-23 of the mass for any l >= 2, beyond 2r
    < 1e-47. None where conditional_pmf could reach its _K_CAP limit.
    """
    mean = l * beta / (1.0 - beta)
    reach = _MASS_REACH * (math.sqrt(l * beta) / (1.0 - beta) + 1.0)
    if trunc < 1e-40 or mean + 2.0 * reach >= _K_CAP:
        return None
    lo = max(0, math.floor(max(mean * (1.0 - delta), mean - reach)) - 1)
    hi = math.ceil(min(mean * (1.0 + delta), mean + reach)) + 1
    k = np.arange(lo, hi + 1, dtype=float)
    log_p = np.cumsum(np.concatenate((
        [math.lgamma(lo + l) - math.lgamma(lo + 1) - math.lgamma(l)
         + l * math.log1p(-beta) + lo * math.log(beta)],
        np.log(beta * (k[1:] + (l - 1)) / k[1:]))))
    inside = np.abs(k - mean) <= delta * mean
    return 1.0 - float(np.sum(np.exp(log_p[inside])))


def _ref_band_scan(q: Sequence[float] | np.ndarray, tagged: int,
                       contender: int, delta: float, eps: float) -> int:
    """Smallest l with P[|K - E[K|l]| > delta * E[K|l]] <= eps.

    Scans l upward; beyond l = 4096 the scan switches to geometric strides
    with a bisection refinement, which is exact as long as the deviation
    probability is eventually decreasing in l (it is, by concentration of
    the negative binomial). Each step compares eps with the deviation
    probability of the truncated conditional_pmf, taken from
    _ref_window_deviation unless that lies within _DEVIATION_BAND of eps.
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

    def meets(l: int) -> bool:
        fast = _ref_window_deviation(beta, delta, l, trunc)
        if fast is None or abs(fast - eps) <= _DEVIATION_BAND:
            return deviation_prob(l) <= eps
        return fast <= eps

    linear_cap = 4096
    for l in range(2, min(linear_cap, _L_CAP) + 1):
        if meets(l):
            return l
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



def _ref_deviation(beta: float, delta: float, eps: float, l: int) -> float:
    """The reference's deviation_prob(l) for q = [1 - beta, beta]."""
    trunc = min(1e-9, eps * 1e-3) if eps < 1.0 else 1e-9
    cpmf = conditional_pmf(1.0 - beta, beta, l, trunc_tol=trunc)
    mean = l * cpmf.beta / (1.0 - cpmf.beta)
    k = np.arange(cpmf.pmf.size, dtype=float)
    inside = np.abs(k - mean) <= delta * mean
    return float(np.sum(cpmf.pmf[~inside])) + cpmf.tail_mass


# (beta, delta, eps): horizons from 2 to about 1,100 in the linear scan,
# and two past l = 4096 (strides and bisection) with small beta, where the
# reference's pmfs stay short enough to run it
GRID = [
    (0.5, 0.5, 0.05), (0.5, 0.3, 0.1), (1 / 3, 0.5, 0.01), (0.1, 0.5, 0.05),
    (0.8, 0.5, 0.01), (0.5, 1.0, 1e-3), (0.5, 2.0, 1e-6), (0.3, 0.2, 0.05),
    (0.5, 0.25, 1e-4), (0.9, 0.3, 1e-3), (0.01, 0.5, 0.1), (0.7, 0.05, 0.5),
    (0.02, 0.1, 0.05), (0.01, 0.2, 1e-3),
]


def _q(beta: float) -> list[float]:
    return [1.0 - beta, beta]


@pytest.mark.parametrize("beta, delta, eps", GRID)
def test_same_horizon_on_grid(beta, delta, eps):
    want = _ref_short_term_horizon(_q(beta), 0, 1, delta, eps)
    assert short_term_horizon(_q(beta), 0, 1, delta, eps) == want


@pytest.mark.parametrize("beta, delta, eps", GRID[:6] + GRID[-2:-1])
def test_same_horizon_with_eps_at_a_deviation_probability(beta, delta, eps):
    # eps equal to, or 5e-10 either side of, the deviation probability at
    # the reference's horizon and one step before it
    horizon = _ref_short_term_horizon(_q(beta), 0, 1, delta, eps)
    for l in {max(horizon - 1, 1), horizon}:
        at = _ref_deviation(beta, delta, eps, l)
        for tie in (at - 5e-10, at, at + 5e-10):
            if 0.0 < tie <= 1.0:
                want = _ref_short_term_horizon(_q(beta), 0, 1, delta, tie)
                got = short_term_horizon(_q(beta), 0, 1, delta, tie)
                assert got == want, (l, tie)


@pytest.mark.parametrize("beta, delta, eps", GRID)
def test_fast_deviation_within_a_tenth_of_the_band(beta, delta, eps):
    # the band is safe while every fast value sits within band / 10 of the
    # reference's, here at l around the horizon and up to the cap
    horizon = short_term_horizon(_q(beta), 0, 1, delta, eps)
    trunc = min(1e-9, eps * 1e-3)
    ls = {2, max(horizon - 1, 2), horizon + 1, 3 * horizon}
    if beta <= 0.02:
        ls.add(_L_CAP)
    for l in sorted(ls):
        fast = float(_deviations(beta, delta, np.array([l]), trunc)[0])
        assert not math.isnan(fast)
        assert abs(fast - _ref_deviation(beta, delta, eps, l)) <= (
            _DEVIATION_BAND / 10), l


def test_same_error_past_the_cap():
    for scan in (_ref_short_term_horizon, short_term_horizon):
        with pytest.raises(HorizonNotFoundError):
            scan(_q(0.01), 0, 1, delta=1e-4, eps=1e-6)


def _pmf_builds(scan, monkeypatch, *args) -> tuple[int | str, list[int]]:
    """scan's result, or its error's name, and the l of each
    conditional_pmf it built, in order."""
    built, build = [], fairness.conditional_pmf

    def recording(q_tagged, q_contender, l, trunc_tol=1e-9):
        built.append(l)
        return build(q_tagged, q_contender, l, trunc_tol)

    monkeypatch.setattr(fairness, "conditional_pmf", recording)
    monkeypatch.setattr(sys.modules[__name__], "conditional_pmf", recording)
    try:
        result = scan(*args)
    except HorizonNotFoundError as exc:
        result = type(exc).__name__
    monkeypatch.undo()
    return result, built


@pytest.mark.parametrize("beta, delta, eps", GRID)
def test_same_pmf_builds_as_the_band_scan(beta, delta, eps, monkeypatch):
    # also with eps on the deviation probability at the horizon, and half a
    # band below it, where the exact pmf decides at the horizon, fails, and
    # decides again at the next l whose fast value lies in the band
    horizon = short_term_horizon(_q(beta), 0, 1, delta, eps)
    tie = _ref_deviation(beta, delta, eps, horizon)
    for target in (eps, tie, tie - _DEVIATION_BAND / 2):
        args = (_q(beta), 0, 1, delta, target)
        want = _pmf_builds(_ref_band_scan, monkeypatch, *args)
        assert _pmf_builds(short_term_horizon, monkeypatch, *args) == want


def test_same_pmf_builds_past_the_cap(monkeypatch):
    args = (_q(0.01), 0, 1, 1e-4, 1e-6)
    want = _pmf_builds(_ref_band_scan, monkeypatch, *args)
    assert want[0] == "HorizonNotFoundError"
    assert _pmf_builds(short_term_horizon, monkeypatch, *args) == want


def test_block_scan_memory_bound():
    # beta = 0.99 runs the whole linear scan with bands of up to ~40k k
    # values per l; blocks are held to _BLOCK_TERMS values, not a row count
    tracemalloc.start()
    try:
        horizon = short_term_horizon([0.01, 0.99], 0, 1, 0.05, 1e-3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert horizon == 4382
    assert peak <= 16 * 2 ** 20


@pytest.mark.parametrize("beta, delta, eps", GRID)
def test_block_values_match_the_band_scan(beta, delta, eps):
    # the same terms as the band scan's, summed with a row's zero padding:
    # within 1e-14 of its values, against a band of 1e-7
    trunc = min(1e-9, eps * 1e-3)
    ls = np.arange(2, 700)
    block = _deviations(beta, delta, ls, trunc)
    for i in range(0, ls.size, 23):
        want = _ref_window_deviation(beta, delta, int(ls[i]), trunc)
        one = float(_deviations(beta, delta, np.array([ls[i]]), trunc)[0])
        if want is None:
            assert math.isnan(one) and math.isnan(block[i])
        else:
            assert abs(block[i] - want) <= 1e-14
            assert abs(one - want) <= 1e-14
