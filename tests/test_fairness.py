import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcffair import (
    ConditioningError,
    HorizonNotFoundError,
    TruncationError,
    UndefinedIndexError,
    conditional_pmf,
    empirical_conditional_pmf,
    jain_index,
    pmf_moments,
    short_term_horizon,
    tv_distance,
    windowed_fairness,
)


def enumeration_pmf(beta: float, l: int, max_len: int = 12) -> np.ndarray:
    """Brute-force oracle: enumerate every tagged/contender sequence whose
    l-th tagged success falls on its last position and sum probabilities
    per contender count."""
    probs = np.zeros(max_len - l + 1)
    for length in range(l, max_len + 1):
        for seq in itertools.product((0, 1), repeat=length):  # 1 = contender
            if seq[-1] == 1:
                continue
            if seq.count(0) != l:
                continue
            k = length - l
            probs[k] += (1 - beta) ** l * beta ** k
    return probs


class TestConditionalPmf:
    def test_matches_enumeration_half(self):
        cpmf = conditional_pmf(0.5, 0.5, 1)
        oracle = enumeration_pmf(0.5, 1)
        assert cpmf.pmf[:3] == pytest.approx([0.5, 0.25, 0.125], abs=1e-15)
        assert cpmf.pmf[: oracle.size] == pytest.approx(oracle, abs=1e-12)

    def test_matches_enumeration_l2(self):
        cpmf = conditional_pmf(0.5, 0.5, 2)
        assert cpmf.pmf[2] == pytest.approx(0.1875, abs=1e-15)
        oracle = enumeration_pmf(0.5, 2)
        assert cpmf.pmf[: oracle.size] == pytest.approx(oracle, abs=1e-12)

    def test_degenerate_contender_never_wins(self):
        cpmf = conditional_pmf(0.3, 0.0, 5)
        assert cpmf.pmf.tolist() == [1.0]
        assert cpmf.tail_mass == 0.0

    def test_zero_tagged_rejected(self):
        with pytest.raises(ConditioningError):
            conditional_pmf(0.0, 0.5, 1)

    @pytest.mark.parametrize("l", [1, 10, 100])
    def test_negligible_tagged_rejected(self, l):
        # q_tagged below half an ulp of q_contender: beta rounds to 1
        with pytest.raises(ConditioningError, match="negligible"):
            conditional_pmf(1e-300, 0.5, l)

    @pytest.mark.parametrize("q_contender, trunc_tol",
                             [(math.nan, 1e-9), (0.3, math.nan)])
    def test_non_finite_input_rejected(self, q_contender, trunc_tol):
        with pytest.raises(ValueError):
            conditional_pmf(0.3, q_contender, 1, trunc_tol=trunc_tol)

    @pytest.mark.parametrize("l, trunc_tol", [
        (2.5, 1e-9), (True, 1e-9), (math.nan, 1e-9), (0, 1e-9), (-3, 1e-9),
        (np.float64(3.0), 1e-9), ("3", 1e-9), (3, math.inf), (3, -math.inf),
        (3, 1.0), (3, 2.0), (3, 0.0), (3, -1e-9), (3, True), (3, "1e-9"),
    ])
    def test_bad_l_or_trunc_tol_rejected(self, l, trunc_tol):
        with pytest.raises(ValueError):
            conditional_pmf(0.3, 0.3, l, trunc_tol=trunc_tol)

    def test_numpy_integer_l_accepted(self):
        want = conditional_pmf(0.3, 0.3, 100)
        got = conditional_pmf(0.3, 0.3, np.int64(100))
        assert got.pmf.tobytes() == want.pmf.tobytes()

    def test_zero_head_reaching_the_cap_raises_at_once(self):
        # every term up to the cap underflows; the loop this build replaced
        # (tests/test_pmf_reference.py) steps through all 2M of them before
        # raising this same message
        message = ("tail did not reach 1e-09 within 2000000 terms "
                   "(l=1000000, beta=0.95)")
        with pytest.raises(TruncationError) as err:
            conditional_pmf(0.05, 0.95, 1_000_000)
        assert str(err.value) == message

    def test_normalization_random_draws(self, rng):
        for _ in range(1000):
            q_t = rng.uniform(0.01, 0.6)
            q_c = rng.uniform(0.0, 1.0 - q_t)
            l = int(rng.integers(1, 20))
            cpmf = conditional_pmf(q_t, q_c, l)
            assert abs(float(np.sum(cpmf.pmf)) + cpmf.tail_mass - 1.0) <= 1e-12
            assert cpmf.tail_mass <= 1e-9
            assert np.all(cpmf.pmf >= 0)

    def test_log_domain_consistent_with_exact(self):
        # same value on both sides of the exact-combinatorics cutoff
        cpmf = conditional_pmf(0.4, 0.6, 40, trunc_tol=1e-12)
        beta = 0.6
        for k in (5, 9, 10, 11, 30, 150):
            exact = math.comb(k + 39, k) * (1 - beta) ** 40 * beta ** k
            assert cpmf.pmf[k] == pytest.approx(exact, rel=1e-9)

    def test_large_l_survives_underflowing_head(self):
        # (1-beta)^l underflows at l=5000, beta=0.9; the distribution is
        # still well formed around its mode
        cpmf = conditional_pmf(0.1, 0.9, 5000)
        mean = 5000 * 0.9 / 0.1
        assert abs(float(np.sum(cpmf.pmf)) + cpmf.tail_mass - 1.0) <= 1e-9
        k = np.arange(cpmf.pmf.size, dtype=float)
        assert float(np.dot(k, cpmf.pmf)) == pytest.approx(mean, rel=1e-3)

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(
        q_t=st.floats(0.05, 0.5),
        share=st.floats(0.0, 1.0),
        l=st.integers(1, 12),
    )
    def test_normalization_property(self, q_t, share, l):
        q_c = share * (1.0 - q_t)
        cpmf = conditional_pmf(q_t, q_c, l)
        assert abs(float(np.sum(cpmf.pmf)) + cpmf.tail_mass - 1.0) <= 1e-12


class TestMoments:
    def test_symmetric_mean_equals_l(self):
        cpmf = conditional_pmf(0.25, 0.25, 7)
        mean, _ = pmf_moments(cpmf)
        assert mean == pytest.approx(7.0, abs=1e-12)

    def test_closed_form_mean(self):
        cpmf = conditional_pmf(2 / 3, 1 / 3, 3)
        mean, _ = pmf_moments(cpmf)
        assert mean == pytest.approx(1.5, abs=1e-12)

    def test_variance_against_monte_carlo(self, rng):
        # K | l=1 at beta 1/2 is geometric on {0,1,...}
        _, variance = pmf_moments(conditional_pmf(0.5, 0.5, 1))
        samples = rng.geometric(0.5, size=1_000_000) - 1
        sample_var = samples.var(ddof=1)
        centered = (samples - samples.mean()) ** 2
        se_var = centered.std(ddof=1) / np.sqrt(samples.size)
        assert variance == pytest.approx(2.0, abs=1e-12)
        assert abs(sample_var - variance) <= 3 * se_var


class TestJain:
    def test_equal_allocation(self):
        assert jain_index([5, 5, 5, 5]) == pytest.approx(1.0, abs=1e-15)

    def test_single_winner(self):
        assert jain_index([1, 0, 0, 0]) == pytest.approx(0.25, abs=1e-15)

    def test_three_one(self):
        assert jain_index([3, 1]) == pytest.approx(0.8, abs=1e-15)

    def test_all_zero_rejected(self):
        with pytest.raises(UndefinedIndexError):
            jain_index([0.0, 0.0])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            jain_index([math.nan, 1.0])

    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(
        x=st.lists(st.floats(0.001, 1e6), min_size=1, max_size=12),
        exp=st.integers(-30, 30),
    )
    def test_scale_invariance(self, x, exp):
        # powers of two scale exactly in binary floating point
        c = 2.0 ** exp
        scaled = [c * xi for xi in x]
        assert jain_index(scaled) == jain_index(x)


class TestWindows:
    def test_alternating_trace_is_fair(self):
        stats = windowed_fairness([0, 1] * 16, 2)
        assert np.all(stats.jain == 1.0)
        assert stats.jain_mean == 1.0

    def test_aabb_trace(self):
        stats = windowed_fairness([0, 0, 1, 1] * 8, 2)
        assert np.all(stats.jain == 0.5)
        assert stats.jain_mean == pytest.approx(0.5)

    def test_counts_sum_to_window_len(self, rng):
        owners = rng.integers(0, 5, size=997)
        stats = windowed_fairness(owners, 10, n_stations=5)
        assert stats.counts.shape == (99, 5)
        assert np.all(stats.counts.sum(axis=1) == 10)
        per_window = [np.bincount(owners[w * 10:(w + 1) * 10], minlength=5)
                      for w in range(99)]
        assert np.array_equal(stats.counts, per_window)

    def test_requires_enough_successes(self):
        with pytest.raises(ValueError):
            windowed_fairness([0, 1], 5)


class TestHorizon:
    def test_eps_one_is_immediate(self):
        assert short_term_horizon([0.5, 0.5], 0, 1, delta=1.0, eps=1.0) == 1

    def test_zero_contender_is_immediate(self):
        assert short_term_horizon([0.9, 0.0], 0, 1, delta=0.5, eps=0.01) == 1

    def test_scan_against_monte_carlo(self, rng):
        delta, eps = 0.5, 0.05
        l_found = short_term_horizon([0.3, 0.3], 0, 1, delta=delta, eps=eps)
        assert l_found > 1

        def mc_dev_prob(l: int) -> tuple[float, float]:
            k = rng.negative_binomial(l, 0.5, size=200_000)
            hits = np.abs(k - l) > delta * l
            p = float(np.mean(hits))
            return p, float(np.sqrt(p * (1 - p) / k.size) + 1e-9)

        p_at, se_at = mc_dev_prob(l_found)
        p_before, se_before = mc_dev_prob(l_found - 1)
        assert p_at <= eps + 4 * se_at
        assert p_before >= eps - 4 * se_before

    @pytest.mark.parametrize("delta", [math.nan, math.inf])
    def test_non_finite_delta_rejected(self, delta):
        with pytest.raises(ValueError, match="delta"):
            short_term_horizon([0.5, 0.5], 0, 1, delta=delta, eps=0.01)

    @pytest.mark.parametrize("tagged, contender", [
        (-1, 0), (0, 2), (1, 1), (0.0, 1), (True, 0), (0, np.int64(-2))])
    def test_bad_station_indices_rejected(self, tagged, contender):
        with pytest.raises(ValueError, match="tagged"):
            short_term_horizon([0.5, 0.5], tagged, contender, delta=0.5,
                               eps=0.01)

    def test_unreachable_horizon(self):
        with pytest.raises(HorizonNotFoundError):
            short_term_horizon([0.5, 0.5], 0, 1, delta=1e-4, eps=1e-6)


class TestEmpiricalHistogram:
    def test_counts_windows_by_hand(self):
        #          C  T  T  C  C  T   with l=1: windows [C T][T][C C T]
        owners = [1, 0, 0, 1, 1, 0]
        pmf, windows = empirical_conditional_pmf(owners, 0, 1, 1)
        assert windows == 3
        assert pmf.tolist() == pytest.approx([1 / 3, 1 / 3, 1 / 3])

    def test_other_stations_ignored(self):
        owners = [2, 1, 3, 0, 2, 0]
        pmf, windows = empirical_conditional_pmf(owners, 0, 1, 1)
        assert windows == 2
        assert pmf.tolist() == pytest.approx([0.5, 0.5])

    def test_iid_ownership_matches_closed_form(self, rng):
        # ownership drawn iid: the closed form is exact up to sampling noise
        owners = rng.choice([0, 1, 2], p=[0.3, 0.3, 0.4], size=400_000)
        pmf, windows = empirical_conditional_pmf(owners, 0, 1, 2)
        cpmf = conditional_pmf(0.3, 0.3, 2)
        assert windows > 50_000
        assert tv_distance(pmf, cpmf.pmf) <= 0.02


def test_tv_distance_basic():
    assert tv_distance(np.array([1.0]), np.array([1.0])) == 0.0
    assert tv_distance(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0
    assert tv_distance(np.array([0.5, 0.5]), np.array([0.5, 0.25, 0.25])) \
        == pytest.approx(0.25)
