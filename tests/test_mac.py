import math

import numpy as np
import pytest

from dcffair import (
    ConfigError,
    MacParams,
    SolverError,
    chain_attempt_probability,
    saturation_throughput,
    slot_distribution,
    solve_attempt_fixed_point,
    solve_attempt_fixed_point_vector,
)


def test_params_validation():
    with pytest.raises(ConfigError):
        MacParams(cw_min=0)
    with pytest.raises(ConfigError):
        MacParams(cw_min=64, cw_max=32)
    with pytest.raises(ConfigError):
        MacParams(slot_sigma=0)
    with pytest.raises(ConfigError):
        MacParams(payload_dur=10.5)
    with pytest.raises(ConfigError):
        MacParams(cw_min=32.0)


def test_window_doubles_and_clamps():
    p = MacParams(cw_min=32, cw_max=1024, max_backoff_stage=5)
    assert [p.window(s) for s in range(8)] == [32, 64, 128, 256, 512, 1024,
                                               1024, 1024]
    p2 = MacParams(cw_min=32, cw_max=300, max_backoff_stage=5)
    assert p2.window(4) == 300  # clamped below the doubling ladder


def test_fixed_point_n1_is_two_over_w_plus_one():
    # with one station collisions are impossible: tau = 2 / (W + 1)
    sol = solve_attempt_fixed_point(MacParams(cw_min=32), 1)
    assert sol.p_coll == 0.0
    assert sol.tau == pytest.approx(2 / 33, abs=1e-9)
    assert sol.residual <= 1e-12


def test_fixed_point_constant_window_independent_of_p():
    # fixed window: the stage chain does not depend on p, tau = 2/(W+1)
    params = MacParams(cw_min=2, cw_max=2, max_backoff_stage=0)
    sol = solve_attempt_fixed_point(params, 2)
    assert sol.tau == pytest.approx(2 / 3, abs=1e-9)


def test_chain_matches_bianchi_closed_form():
    # infinite retries, no cw_max clamp: the classic closed form
    #   tau = 2(1-2p) / ((1-2p)(W+1) + p W (1 - (2p)^m))
    W, m = 32, 5
    params = MacParams(cw_min=W, cw_max=W * 2 ** m, max_backoff_stage=m)
    for p in (0.0, 0.1, 0.3, 0.49, 0.7):
        expected = (2 * (1 - 2 * p)
                    / ((1 - 2 * p) * (W + 1) + p * W * (1 - (2 * p) ** m)))
        assert chain_attempt_probability(p, params) == pytest.approx(
            expected, rel=1e-12)


def test_fixed_point_monotone_in_n(default_params):
    taus, ps = [], []
    for n in range(1, 51):
        sol = solve_attempt_fixed_point(default_params, n)
        assert sol.residual <= 1e-12
        taus.append(sol.tau)
        ps.append(sol.p_coll)
    assert all(a > b for a, b in zip(taus, taus[1:]))
    assert all(a < b for a, b in zip(ps, ps[1:]))


def test_fixed_point_degenerate_bracket():
    # window 1, single stage: every backlogged station transmits every slot
    with pytest.raises(SolverError):
        solve_attempt_fixed_point(
            MacParams(cw_min=1, cw_max=1, max_backoff_stage=0), 2)


def test_vector_solver_matches_scalar_on_homogeneous(default_params):
    scalar = solve_attempt_fixed_point(default_params, 4)
    vec = solve_attempt_fixed_point_vector([default_params] * 4)
    assert vec.taus == pytest.approx([scalar.tau] * 4, rel=1e-9)
    assert vec.p_colls == pytest.approx([scalar.p_coll] * 4, rel=1e-8)


def test_vector_solver_orders_heterogeneous_shares():
    aggressive = MacParams(cw_min=16)
    polite = MacParams(cw_min=256)
    vec = solve_attempt_fixed_point_vector([aggressive, polite, polite])
    assert vec.taus[0] > vec.taus[1]
    assert vec.taus[1] == pytest.approx(vec.taus[2], rel=1e-9)


def test_slot_distribution_half_half(default_params):
    dist = slot_distribution([0.5, 0.5], default_params)
    assert dist.p_idle == pytest.approx(0.25)
    assert dist.p_succ == pytest.approx([0.25, 0.25])
    assert dist.p_coll == pytest.approx(0.25)


def test_slot_distribution_products(default_params):
    dist = slot_distribution([0.1, 0.2], default_params)
    assert dist.p_idle == pytest.approx(0.72)
    assert dist.p_succ == pytest.approx([0.08, 0.18])
    assert dist.p_coll == pytest.approx(0.02)
    assert dist.q == pytest.approx([4 / 13, 9 / 13])


def test_slot_distribution_single_station(default_params):
    tau = 0.0606
    dist = slot_distribution([tau], default_params)
    assert dist.p_succ == pytest.approx([tau])
    assert dist.p_coll == 0.0


def test_slot_distribution_sums_to_one_random(rng):
    params = MacParams()
    for _ in range(1000):
        n = int(rng.integers(1, 12))
        tau = rng.uniform(1e-6, 1.0, size=n)
        dist = slot_distribution(tau, params)
        total = dist.p_idle + float(np.sum(dist.p_succ)) + dist.p_coll
        assert abs(total - 1.0) <= 1e-12
        assert abs(float(np.sum(dist.q)) - 1.0) <= 1e-12
        assert dist.p_idle >= 0 and dist.p_coll >= 0
        assert np.all(dist.p_succ >= 0)


def test_homogeneous_ownership_is_uniform(default_params):
    for n in (2, 5, 17):
        dist = slot_distribution(np.full(n, 0.123), default_params)
        assert dist.q == pytest.approx(np.full(n, 1 / n), abs=1e-12)


def test_throughput_forced_attempt(default_params):
    # n=1 with tau=1: every slot is a success
    dist = slot_distribution([1.0], default_params)
    s = saturation_throughput(dist, 8192)
    assert s[0] == pytest.approx(8192 / default_params.d_succ * 1e6)


def test_throughput_formula_arithmetic():
    params = MacParams(slot_sigma=20, difs=50, sifs=10, ack_dur=30,
                       header_dur=40, payload_dur=400)
    # overwrite the derived durations through the formula inputs:
    # d_succ = 40+400+10+30+50 = 530, d_coll = 490
    dist = slot_distribution([0.5, 0.5], params)
    expected_slot = 0.25 * 20 + 0.5 * 530 + 0.25 * 490
    s = saturation_throughput(dist, 8000)
    assert s[0] == pytest.approx(0.25 * 8000 / expected_slot * 1e6)


# (solver, keyword, bad value): each is refused before any iteration
BAD_SOLVER_INPUTS = [
    *[("scalar", "tol", v) for v in (0.0, -1.0, math.nan, math.inf, "1e-9",
                                     True)],
    *[("vector", "tol", v) for v in (0.0, -1.0, math.nan, math.inf, None)],
    *[("vector", "damping", v) for v in (0.0, -1.0, 1.5, math.nan, math.inf,
                                         "0.5")],
    *[("vector", "max_iterations", v) for v in (0, -1, 2.0, 10.5, math.nan,
                                                True, "10")],
]


@pytest.mark.parametrize("solver, name, value", BAD_SOLVER_INPUTS)
def test_solver_rejects_bad_input_at_once(solver, name, value):
    params = [MacParams(cw_min=16), MacParams(cw_min=256)]
    with pytest.raises(ConfigError, match=name.replace("tol", "tolerance")):
        if solver == "scalar":
            solve_attempt_fixed_point(params[0], 3, **{name: value})
        else:
            solve_attempt_fixed_point_vector(params, **{name: value})


def test_vector_solver_accepts_edge_inputs():
    params = [MacParams(cw_min=16), MacParams(cw_min=256)]
    undamped = solve_attempt_fixed_point_vector(params, damping=1.0)
    assert undamped.residual <= 1e-12
    one_step = solve_attempt_fixed_point_vector(params, tol=1.0,
                                                max_iterations=1)
    assert one_step.iterations == 1
