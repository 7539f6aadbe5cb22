import math

import numpy as np
import pytest

from dcffair import (
    ArrivalEnvelope,
    ConditioningError,
    ConsistencyError,
    DivergenceError,
    IncrementModel,
    InstabilityError,
    MacParams,
    backlog_bound,
    delay_bound,
    increment_model_from_slots,
    increment_moments,
    log_mgf,
    optimize_theta,
    service_curve,
    slot_distribution,
    solve_attempt_fixed_point,
    t_epsilon_us,
    theta_max,
)

DET = IncrementModel(p_tag=1.0, d_succ=500.0,
                     cond_values=np.zeros(0), cond_probs=np.zeros(0))
SIMPLE = IncrementModel(p_tag=0.5, d_succ=500.0,
                        cond_values=np.array([20.0]),
                        cond_probs=np.array([1.0]))


def model_for(n: int, params: MacParams = MacParams()) -> IncrementModel:
    sol = solve_attempt_fixed_point(params, n)
    dist = slot_distribution(np.full(n, sol.tau), params)
    return increment_model_from_slots(dist, 0)


def test_starved_station_has_no_increment_model():
    # next to a station that attempts in every slot, station 1 never
    # succeeds, and its increments are not defined
    dist = slot_distribution([1.0, 0.0625], MacParams())
    assert increment_model_from_slots(dist, 0).p_tag == pytest.approx(0.9375)
    with pytest.raises(ConditioningError, match="station 1's"):
        increment_model_from_slots(dist, 1)


def sample_increments(model: IncrementModel, size: int,
                      rng: np.random.Generator) -> np.ndarray:
    """Monte Carlo oracle drawing the compound-geometric increment."""
    waits = rng.geometric(model.p_tag, size=size) - 1
    total = np.full(size, model.d_succ)
    for i, g in enumerate(waits):
        if g:
            total[i] += rng.choice(model.cond_values, size=g,
                                   p=model.cond_probs).sum()
    return total


class TestIncrementMoments:
    def test_deterministic(self):
        assert increment_moments(DET) == (500.0, 0.0)

    def test_one_expected_extra_slot(self):
        mean, var = increment_moments(SIMPLE)
        assert mean == pytest.approx(520.0)
        # N ~ geometric on {0,1,...}: Var = (1-p)/p^2, D constant 20
        assert var == pytest.approx(0.5 / 0.25 * 400.0)

    def test_against_monte_carlo(self, rng):
        model = model_for(10)
        mean, var = increment_moments(model)
        samples = sample_increments(model, 100_000, rng)
        se = samples.std(ddof=1) / math.sqrt(samples.size)
        assert abs(samples.mean() - mean) <= 3 * se
        var_se = np.std((samples - samples.mean()) ** 2, ddof=1) \
            / math.sqrt(samples.size)
        assert abs(samples.var(ddof=1) - var) <= 3 * var_se


class TestLogMgf:
    def test_zero_is_exactly_zero(self):
        assert log_mgf(model_for(5), 0.0) == 0.0
        assert log_mgf(DET, 0.0) == 0.0

    def test_deterministic_linear(self):
        assert log_mgf(DET, 1e-3) == pytest.approx(0.5)
        assert theta_max(DET) == math.inf

    def test_derivative_at_zero_is_mean(self):
        model = model_for(10)
        mean, _ = increment_moments(model)
        h = 1e-9
        derivative = (log_mgf(model, h) - log_mgf(model, -h)) / (2 * h)
        assert derivative == pytest.approx(mean, rel=1e-6)

    def test_divergence_reports_theta_max(self):
        model = model_for(10)
        t_max = theta_max(model)
        with pytest.raises(DivergenceError) as err:
            log_mgf(model, t_max * 1.01)
        assert err.value.theta_max == pytest.approx(t_max, rel=1e-6)

    def test_convexity_on_grid(self):
        model = model_for(10)
        grid = np.linspace(0.0, 0.999 * theta_max(model), 64)
        values = np.array([log_mgf(model, t) for t in grid])
        assert np.all(np.diff(values, 2) >= -1e-9)


class TestServiceCurve:
    def test_deterministic_rate(self):
        for theta in (1e-4, 1e-2, 0.5):
            sc = service_curve(DET, theta, eps=0.01)
            assert sc.rate == pytest.approx(1e6 / 500.0)
            assert sc.latency == pytest.approx(math.log(100) / theta * 1e-6)

    def test_rate_tends_to_inverse_mean(self):
        model = model_for(10)
        mean, _ = increment_moments(model)
        sc = service_curve(model, 1e-9, eps=0.1)
        assert sc.rate == pytest.approx(1e6 / mean, rel=1e-4)

    def test_rate_nonincreasing_and_capped_by_mean(self):
        model = model_for(10)
        mean, _ = increment_moments(model)
        grid = np.geomspace(1e-9, 0.999 * theta_max(model), 40)
        rates = np.array([service_curve(model, float(t), 0.01).rate
                          for t in grid])
        assert np.all(np.diff(rates) <= 1e-9 * rates[:-1])
        assert np.all(rates <= 1e6 / mean + 1e-6)

    @pytest.mark.parametrize("theta", [1e-20, 1e-300])
    def test_unresolved_log_mgf_rejected(self, theta):
        # ln p - ln(1 - (1 - p) M) cancels to rounding noise: Lambda comes
        # out <= 0, which would give a rate <= 0
        model = model_for(3)
        assert log_mgf(model, theta) <= 0.0
        with pytest.raises(ConsistencyError, match="log-MGF"):
            service_curve(model, theta, eps=0.01)

    def test_subnormal_eps_rejected(self):
        # 1/eps overflows to inf, which would make the latency infinite
        with pytest.raises(ValueError):
            service_curve(DET, 1e-2, eps=1e-320)
        with pytest.raises(ValueError):
            t_epsilon_us(DET, 1e-2, 1e-320, 10)
        assert math.isfinite(service_curve(DET, 1e-2, eps=1e-300).latency)


class TestOptimizeTheta:
    def test_deterministic_runs_to_cap(self):
        theta = optimize_theta(DET, eps=0.01, horizon_j=10)
        assert theta == pytest.approx(1.0, rel=1e-3)

    def test_eps_one_prefers_small_theta(self):
        # no latency term: j * Lambda(theta) / theta is minimized as
        # theta -> 0 by convexity
        model = model_for(10)
        theta = optimize_theta(model, eps=1.0, horizon_j=100)
        assert theta <= 1e-5 * theta_max(model)

    def test_matches_dense_grid(self):
        model = model_for(10)
        eps, j = 1e-2, 100
        theta = optimize_theta(model, eps, j)
        upper = 0.999 * theta_max(model)
        grid = np.geomspace(upper * 1e-6, upper, 10_000)
        dense = min(t_epsilon_us(model, float(t), eps, j) for t in grid)
        assert t_epsilon_us(model, theta, eps, j) <= dense * 1.01


class TestBounds:
    def test_delay_formula(self):
        sc = service_curve(DET, 1e-2, eps=0.01)
        sc = type(sc)(rate=100.0, latency=0.02, eps=0.01, theta=sc.theta)
        assert delay_bound(ArrivalEnvelope(5.0, 100.0), sc) \
            == pytest.approx(0.07)
        assert delay_bound(ArrivalEnvelope(0.0, 50.0), sc) \
            == pytest.approx(0.02)

    def test_backlog_formula(self):
        sc = service_curve(DET, 1e-2, eps=0.01)
        sc = type(sc)(rate=100.0, latency=0.02, eps=0.01, theta=sc.theta)
        assert backlog_bound(ArrivalEnvelope(5.0, 50.0), sc) \
            == pytest.approx(6.0)
        assert backlog_bound(ArrivalEnvelope(5.0, 0.0), sc) \
            == pytest.approx(5.0)
        zero_latency = type(sc)(rate=100.0, latency=0.0, eps=0.01,
                                theta=sc.theta)
        assert backlog_bound(ArrivalEnvelope(5.0, 50.0), zero_latency) \
            == pytest.approx(5.0)

    def test_instability(self):
        sc = service_curve(DET, 1e-2, eps=0.01)
        with pytest.raises(InstabilityError):
            delay_bound(ArrivalEnvelope(1.0, sc.rate * 1.5), sc)
        with pytest.raises(InstabilityError):
            backlog_bound(ArrivalEnvelope(1.0, sc.rate * 1.5), sc)

    @pytest.mark.parametrize("sigma_b, rho", [
        (math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0), (1.0, math.inf),
        (-1.0, 1.0), (1.0, -math.inf)])
    def test_envelope_rejects_non_finite_or_negative(self, sigma_b, rho):
        with pytest.raises(ValueError, match="token bucket"):
            ArrivalEnvelope(sigma_b, rho)

    def test_boundary_rho_equals_rate(self):
        sc = service_curve(DET, 1e-2, eps=0.01)
        sc = type(sc)(rate=80.0, latency=0.05, eps=0.01, theta=sc.theta)
        env = ArrivalEnvelope(4.0, 80.0)
        # b == rho * d exactly on the boundary
        assert backlog_bound(env, sc) == pytest.approx(
            env.rho * delay_bound(env, sc))
