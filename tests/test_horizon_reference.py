"""short_term_horizon against the scan it replaced.

The reference below is the earlier short_term_horizon, kept verbatim but
for its name: it builds one conditional_pmf for every l it tries. The new
scan tries the same l in the same order and takes each deviation
probability from a vectorised log pmf unless that lies within
_DEVIATION_BAND of eps, so both must return the same l, also when eps sits
within 1e-9 of a deviation probability the scan compares it with.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import pytest

from dcffair import HorizonNotFoundError, conditional_pmf, short_term_horizon
from dcffair.fairness import _DEVIATION_BAND, _L_CAP, _window_deviation


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
        fast = _window_deviation(beta, delta, l, trunc)
        assert fast is not None
        assert abs(fast - _ref_deviation(beta, delta, eps, l)) <= (
            _DEVIATION_BAND / 10), l


def test_same_error_past_the_cap():
    for scan in (_ref_short_term_horizon, short_term_horizon):
        with pytest.raises(HorizonNotFoundError):
            scan(_q(0.01), 0, 1, delta=1e-4, eps=1e-6)
