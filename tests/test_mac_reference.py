"""solve_attempt_fixed_point_vector against the per-station loop it replaced.

The reference below is the earlier solver, kept verbatim but for its
names: every iteration calls the scalar chain once per station. The
solver now evaluates all stations' chains as one array recurrence, with a
station past its last stage masked by exact 0/1 products, so both must
give bit-equal taus, p_colls, residual and iteration count, and stop
wherever the loop stopped: on the same SolverError, or on a SolverError
naming the station where the loop raised a ValueError for its p.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import pytest

from dcffair import (
    MacParams,
    SolverError,
    VectorAttemptSolution,
    chain_attempt_probability,
    solve_attempt_fixed_point_vector,
)
from dcffair.errors import ConfigError


# --- reference: the chain and the per-station loop the solver replaced ---

def _ref_chain_attempt_probability(p: float, params: MacParams) -> float:
    """Per-slot attempt probability of the backoff chain at collision prob p.

    Renewal-reward over one packet: stage i is reached with weight p^i and
    costs (W_i + 1) / 2 slots on average, the final slot being the attempt.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError(f"p must be in [0, 1), got {p}")
    m = params.max_backoff_stage
    num = 0.0
    den = 0.0
    weight = 1.0
    for i in range(params.retry_limit or m):
        s_i = (params.window(i) + 1) / 2.0
        num += weight
        den += weight * s_i
        weight *= p
    if params.retry_limit == 0:
        # No retry limit: window is constant beyond stage m, so the tail of
        # the geometric stage chain sums in closed form.
        tail = weight / (1.0 - p)  # sum_{i>=m} p^i
        s_m = (params.window(m) + 1) / 2.0
        num += tail
        den += tail * s_m
    return num / den


def _ref_solve_attempt_fixed_point_vector(
    params: Sequence[MacParams],
    tol: float = 1e-12,
    damping: float = 0.5,
    max_iterations: int = 100_000,
) -> VectorAttemptSolution:
    """Solve the per-station fixed point for heterogeneous backoff configs.

    Damped iteration tau <- (1-d) tau + d chain(p(tau)) with
    p_i = 1 - prod_{j != i} (1 - tau_j).
    """
    n = len(params)
    if n < 1:
        raise ConfigError("at least one station required")
    taus = np.array([_ref_chain_attempt_probability(0.0, pr) for pr in params])
    residual = np.inf
    for iteration in range(1, max_iterations + 1):
        one_minus = 1.0 - taus
        prod_all = np.prod(one_minus)
        p = 1.0 - prod_all / one_minus  # p_i over prod_{j != i}
        target = np.array(
            [_ref_chain_attempt_probability(min(p[i], 1.0 - 1e-15), params[i])
             for i in range(n)]
        )
        residual = float(np.max(np.abs(taus - target)))
        if residual <= tol:
            return VectorAttemptSolution(
                taus=taus, p_colls=p, residual=residual, iterations=iteration
            )
        taus = (1.0 - damping) * taus + damping * target
    raise SolverError(
        f"damped iteration did not converge in {max_iterations} steps "
        f"(residual {residual:.3e})"
    )


# --- equivalence ---

def _random_station(rng: np.random.Generator) -> MacParams:
    """Mixed windows, cw_max clamps below and above the doubling ladder,
    stage counts from 0, and retry limits 0 (unlimited) and > 0."""
    cw_min = int(rng.choice([2, 3, 8, 16, 31, 32, 64, 100, 256]))
    m = int(rng.integers(0, 8))
    cw_max = int(rng.integers(cw_min, cw_min * 2 ** m + 1))
    if rng.random() < 0.3:
        cw_max = cw_min * 2 ** m + int(rng.integers(0, 50))
    retry_limit = 0 if rng.random() < 0.5 else int(rng.integers(1, 12))
    return MacParams(cw_min=cw_min, cw_max=cw_max, max_backoff_stage=m,
                     retry_limit=retry_limit)


def _outcome(solve, params, **kwargs):
    try:
        return solve(params, **kwargs)
    except (ValueError, SolverError) as exc:
        return type(exc), str(exc)


def _assert_same(params, **kwargs):
    with np.errstate(divide="ignore", invalid="ignore"):
        want = _outcome(_ref_solve_attempt_fixed_point_vector, params,
                        **kwargs)
        got = _outcome(solve_attempt_fixed_point_vector, params, **kwargs)
    if isinstance(want, tuple):
        assert got == want
        return
    assert isinstance(got, VectorAttemptSolution)
    assert got.taus.tobytes() == want.taus.tobytes()
    assert got.p_colls.tobytes() == want.p_colls.tobytes()
    assert got.residual == want.residual
    assert got.iterations == want.iterations


@pytest.mark.parametrize("seed", range(12))
def test_bit_equal_on_random_heterogeneous_sets(seed):
    rng = np.random.default_rng([2000, seed])
    for _ in range(10):
        n = int(rng.integers(1, 13))
        _assert_same([_random_station(rng) for _ in range(n)],
                     max_iterations=3000)


@pytest.mark.parametrize("damping, tol", [(1.0, 1e-12), (0.3, 1e-9),
                                          (0.9, 1e-14)])
def test_bit_equal_across_damping_and_tol(damping, tol):
    rng = np.random.default_rng([2001, int(damping * 10)])
    for _ in range(8):
        n = int(rng.integers(2, 9))
        _assert_same([_random_station(rng) for _ in range(n)],
                     damping=damping, tol=tol, max_iterations=3000)


def test_bit_equal_on_fifty_backoff_classes():
    # the analytic benchmark's shape: 50 stations from five cw_min classes
    rng = np.random.default_rng(2002)
    classes = [MacParams(cw_min=cw) for cw in (16, 32, 64, 128, 256)]
    params = [classes[c] for c in rng.permutation(np.arange(50) % 5)]
    _assert_same(params)


def test_same_error_as_the_loop():
    # a window of 1 transmits every slot at stage 0, tau = 1: its own p
    # is 0/0, where the loop raised a ValueError and the solver names the
    # station as degenerate
    forced = MacParams(cw_min=1, cw_max=1, max_backoff_stage=0)
    for params, station in (
            ([forced, forced], 0), ([MacParams(), forced], 1),
            ([forced, MacParams(retry_limit=3), MacParams(cw_min=8)], 0),
            ([MacParams(cw_min=1, cw_max=8, max_backoff_stage=3),
              MacParams(retry_limit=2)], 0),
            ([MacParams(cw_min=1, cw_max=2), MacParams(cw_min=16)], 0)):
        with np.errstate(divide="ignore", invalid="ignore"):
            want = _outcome(_ref_solve_attempt_fixed_point_vector, params)
            got = _outcome(solve_attempt_fixed_point_vector, params)
        assert want == (ValueError, "p must be in [0, 1), got nan")
        assert got == (SolverError, f"station {station}'s collision "
                       "probability is nan, not in [0, 1): degenerate "
                       "backoff parameters")
    # too few iterations: the same SolverError text
    _assert_same([MacParams(cw_min=16), MacParams(cw_min=256)],
                 max_iterations=3)


def test_scalar_chain_bit_equal_to_the_loop():
    rng = np.random.default_rng(2003)
    for _ in range(300):
        params = _random_station(rng)
        p = float(rng.choice([0.0, rng.random(), 1.0 - 1e-15]))
        want = _ref_chain_attempt_probability(p, params)
        assert chain_attempt_probability(p, params) == want
