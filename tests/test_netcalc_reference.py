"""netcalc's analytic kernels against the ones they replaced.

The reference below is the earlier _cond_mgf, which took the logs of the
conditional probabilities on every call, and the earlier theta_max, which
always ran 200 bisection steps; both are kept verbatim but for their
names. Swapped into netcalc, they give the reference value of every public
function that uses them, and the current kernels must give the same
floats, and the same DivergenceError text.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from dcffair import (DivergenceError, IncrementModel, MacParams,
                     increment_model_from_slots, netcalc, slot_distribution,
                     solve_attempt_fixed_point,
                     solve_attempt_fixed_point_vector)


# --- reference: the kernels netcalc replaced ---

def _ref_cond_mgf(model: IncrementModel, theta: float) -> float:
    # E[e^(theta D)], computed in log domain to survive large theta * D.
    exponents = theta * model.cond_values + np.log(model.cond_probs,
                                                   out=np.full_like(model.cond_probs, -np.inf),
                                                   where=model.cond_probs > 0)
    return float(np.exp(np.logaddexp.reduce(exponents)))


def _ref_theta_max(model: IncrementModel) -> float:
    """Supremum of the convergent theta range (1/us); inf when deterministic.

    Root of (1 - p) E[e^(theta D)] = 1, found by doubling plus bisection.
    """
    p = model.p_tag
    if p == 1.0:
        return math.inf
    hi = 1e-6
    while (1.0 - p) * _ref_cond_mgf(model, hi) < 1.0:
        hi *= 2.0
        if hi > 1e6:
            return math.inf  # all conditional durations are zero
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if (1.0 - p) * _ref_cond_mgf(model, mid) < 1.0:
            lo = mid
        else:
            hi = mid
    return lo


def _model(params: list[MacParams], tagged: int) -> IncrementModel:
    if len(set(params)) == 1:
        taus = np.full(len(params), solve_attempt_fixed_point(
            params[0], len(params)).tau)
    else:
        taus = solve_attempt_fixed_point_vector(params).taus
    return increment_model_from_slots(slot_distribution(taus, params[0]),
                                      tagged)


# homogeneous: n = 1 leaves collisions (and others' successes) with
# probability 0, whose log is -inf
HOMOGENEOUS = {f"n{n}-cw{cw}": ([MacParams(cw_min=cw, cw_max=1024)] * n, 0)
               for n in (1, 2, 5, 10, 50) for cw in (2, 16, 32, 128, 1024)}
# the analytic benchmark's 50 stations in five backoff classes, tagged at
# the first station of each class
CW_CLASSES = (16, 32, 64, 128, 256)
HETERO = [MacParams(cw_min=CW_CLASSES[i % len(CW_CLASSES)])
          for i in range(50)]
MODELS = {**HOMOGENEOUS,
          **{f"hetero-cw{cw}": (HETERO, i) for i, cw in enumerate(CW_CLASSES)}}
EPS = (1e-2, 1e-3)
HORIZONS_J = (1, 20, 100)
# fractions of theta_max at which log_mgf and t_eps are compared
FRACTIONS = (1e-6, 1e-3, 0.1, 0.5, 0.9, 0.999)


def _evaluate(model: IncrementModel) -> dict:
    """Every public result the kernels feed, for one model, each called
    through the module so that the reference kernels can be swapped in."""
    t_max = netcalc.theta_max(model)
    thetas = [f * t_max for f in FRACTIONS]
    result = {"theta_max": t_max,
              "log_mgf": [netcalc.log_mgf(model, t) for t in thetas],
              "t_eps": [netcalc.t_epsilon_us(model, t, eps, j) for t in thetas
                        for eps in EPS for j in HORIZONS_J]}
    for eps in EPS:
        for j in HORIZONS_J:
            theta = netcalc.optimize_theta(model, eps, j)
            sc = netcalc.service_curve(model, theta, eps)
            result[f"curve-{eps}-{j}"] = (theta, sc.rate, sc.latency)
    errors = []
    for theta in (np.nextafter(t_max, math.inf), 1.001 * t_max, 2.0 * t_max):
        with pytest.raises(DivergenceError) as err:
            netcalc.log_mgf(model, float(theta))
        errors.append((str(err.value), err.value.theta_max))
    result["errors"] = errors
    return result


@pytest.mark.parametrize("params, tagged", MODELS.values(), ids=MODELS.keys())
def test_same_floats_as_the_reference(params, tagged, monkeypatch):
    model = _model(params, tagged)
    got = _evaluate(model)
    with monkeypatch.context() as patch:
        patch.setattr(netcalc, "_cond_mgf", _ref_cond_mgf)
        patch.setattr(netcalc, "theta_max", _ref_theta_max)
        want = _evaluate(model)
    assert got == want
