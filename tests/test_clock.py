import math

import numpy as np
import pytest

from dcffair import (
    AlignmentError,
    EmptyClockError,
    EventTrace,
    TraceFormatError,
    clock_vs_gps,
    dcf_clock,
    gps_finish_times,
)


def saturated_arrivals(n, packets, size=1.0):
    return [[(0.0, size)] * packets for _ in range(n)]


def departures(stations, times):
    """An event trace of successes by stations, ending at times (us)."""
    return EventTrace.from_lists(stations, range(len(stations)),
                                 [0.0] * len(stations), times)


class TestGps:
    @pytest.mark.parametrize("n", [2, 5, 10])
    def test_two_equal_saturated_stations(self, n):
        # n equal stations with unit packets at t=0 share C: each finishes
        # its j-th packet at j*n/C s, the closed form the CLI clock uses
        packets, capacity = 3000, 1234.5
        gps = gps_finish_times(saturated_arrivals(n, packets), np.ones(n),
                               capacity=capacity)
        closed_form = np.arange(1, packets + 1) * n / capacity * 1e6
        for finish in gps.finish_times:
            np.testing.assert_allclose(finish, closed_form, rtol=1e-9)

    def test_single_station_full_rate(self):
        gps = gps_finish_times(saturated_arrivals(1, 3), [1.0],
                               capacity=1000.0)
        assert gps.finish_times[0] == pytest.approx([1000, 2000, 3000])

    def test_weighted_two_to_one(self):
        gps = gps_finish_times(saturated_arrivals(2, 3), [2.0, 1.0],
                               capacity=1000.0)
        assert gps.finish_times[0] == pytest.approx([1500, 3000, 4500])
        # station 0 empties at 4500; station 1 then gets the full rate
        assert gps.finish_times[1] == pytest.approx([3000, 5000, 6000])

    def test_idle_gap_then_service(self):
        arrivals = [[(0.0, 1.0), (5000.0, 1.0)]]
        gps = gps_finish_times(arrivals, [1.0], capacity=1000.0)
        assert gps.finish_times[0] == pytest.approx([1000, 6000])

    @pytest.mark.parametrize("arrivals, weights, capacity", [
        ([[(0.0, 1.0)]], [1.0], math.nan),
        ([[(0.0, 1.0)]], [1.0], math.inf),
        ([[(0.0, 1.0)], [(0.0, 1.0)]], [1.0, math.nan], 1000.0),
        ([[(0.0, 1.0)], [(0.0, 1.0)]], [1.0, math.inf], 1000.0),
        ([[(0.0, 1.0), (math.nan, 1.0)]], [1.0], 1000.0),
        ([[(0.0, 1.0), (5.0, math.nan)]], [1.0], 1000.0),
        ([[(0.0, 1.0), (5.0, math.inf)]], [1.0], 1000.0),
    ], ids=["nan-capacity", "inf-capacity", "nan-weight", "inf-weight",
            "nan-arrival", "nan-size", "inf-size"])
    def test_non_finite_input_rejected(self, arrivals, weights, capacity):
        with pytest.raises(ValueError):
            gps_finish_times(arrivals, weights, capacity)

    def test_work_underflowing_to_zero_rejected(self):
        with pytest.raises(ValueError):
            gps_finish_times([[(0.0, 5e-324)]], [4.0], 1000.0)

    def test_interval_fair_shares(self, rng):
        # on every interval each backlogged station gets phi_i / sum(phi_B)
        arrivals = [
            [(float(t), float(s)) for t, s in
             zip(np.sort(rng.uniform(0, 5000, 8)), rng.uniform(50, 400, 8))]
            for _ in range(3)
        ]
        weights = np.array([1.0, 2.0, 3.5])
        capacity = 500_000.0  # units/s
        gps = gps_finish_times(arrivals, weights, capacity)
        cap_us = capacity * 1e-6
        itv = gps.intervals
        length = itv.end - itv.start
        phi_total = itv.backlogged @ weights
        share = cap_us * weights / phi_total[:, None] * length[:, None]
        assert len(itv) > 0
        assert itv.delivered[itv.backlogged] == pytest.approx(
            share[itv.backlogged], rel=1e-6)
        assert np.all(itv.delivered[~itv.backlogged] == 0.0)

    def test_work_conservation(self, rng):
        arrivals = [
            [(float(t), float(s)) for t, s in
             zip(np.sort(rng.uniform(0, 3000, 6)), rng.uniform(20, 200, 6))]
            for _ in range(2)
        ]
        capacity = 250_000.0
        gps = gps_finish_times(arrivals, [1.0, 1.0], capacity)
        delivered = float(gps.intervals.delivered.sum())
        busy_time = float(np.sum(gps.intervals.end - gps.intervals.start))
        assert delivered == pytest.approx(capacity * 1e-6 * busy_time,
                                          rel=1e-9)
        total_work = sum(s for a in arrivals for _, s in a)
        assert delivered == pytest.approx(total_work, rel=1e-9)


class TestDcfClock:
    def test_cumulative_departure_arithmetic(self):
        trace = departures([1, 0], [520, 1020])
        ct = dcf_clock(trace, tagged=0, fair_increment=1000.0)
        assert ct.departures.tolist() == [1020]
        assert ct.increments.tolist() == [1020]
        assert ct.errors == pytest.approx([20.0])

    def test_deterministic_trace_zero_errors(self):
        # lone station, zero backoff: every increment equals d_succ
        trace = departures([0] * 6, np.arange(1, 7) * 500.0)
        ct = dcf_clock(trace, tagged=0, fair_increment=500.0)
        assert np.all(ct.errors == 0.0)
        assert ct.departures.tolist() == [500, 1000, 1500, 2000, 2500, 3000]

    def test_telescoping_exact(self, rng):
        owners = rng.integers(0, 3, 1500)
        times = np.cumsum(500 + 20 * rng.geometric(0.3, 1500)).astype(float)
        ct = dcf_clock(departures(owners, times), tagged=1,
                       fair_increment=123.0)
        assert int(ct.increments.sum()) == int(ct.departures[-1])
        assert ct.departures.dtype == np.int64

    def test_missing_tagged_station(self):
        # an empty trace is the case where the tagged station never succeeds
        for trace in (departures([1], [500.0]), departures([], [])):
            with pytest.raises(EmptyClockError):
                dcf_clock(trace, tagged=0, fair_increment=100.0)

    @pytest.mark.parametrize("time", [1500.5, 2.0 ** 63, -2.0 ** 64])
    def test_departure_not_whole_microseconds(self, time):
        # T_j is written as an integer: a fraction, or a value int64 cannot
        # hold, names the event's line
        trace = departures([0, 1, 0], [500.0, 1000.0, time])
        with pytest.raises(TraceFormatError, match="line 4: departure_us"):
            dcf_clock(trace, tagged=0, fair_increment=100.0)


class TestClockVsGps:
    def test_identical_series_zero_deviation(self):
        trace = departures([0] * 4, np.arange(1, 5) * 1000.0)
        ct = dcf_clock(trace, tagged=0, fair_increment=1000.0)
        gps = gps_finish_times(saturated_arrivals(1, 4), [1.0],
                               capacity=1000.0)  # 1 packet per 1000 us
        summary = clock_vs_gps(ct, gps.finish_times[0])
        assert summary.mean == 0.0
        assert summary.max_abs == 0.0

    def test_index_range_mismatch(self):
        trace = departures([0] * 3, np.arange(1, 4) * 1000.0)
        ct = dcf_clock(trace, tagged=0, fair_increment=1000.0)
        gps = gps_finish_times(saturated_arrivals(1, 5), [1.0],
                               capacity=1000.0)
        with pytest.raises(AlignmentError):
            clock_vs_gps(ct, gps.finish_times[0])

    def test_simulated_clock_tracks_matched_gps(self):
        # two saturated stations against a GPS whose capacity is the rate
        # the DCF actually delivers: deviations are a zero-mean random walk
        from conftest import VALIDATION_PARAMS
        from dcffair import (SimConfig, increment_model_from_slots,
                             increment_moments, run, slot_distribution,
                             solve_attempt_fixed_point)

        n, packets = 2, 5000
        sol = solve_attempt_fixed_point(VALIDATION_PARAMS, n)
        dist = slot_distribution(np.full(n, sol.tau), VALIDATION_PARAMS)
        mean_i, var_i = increment_moments(
            increment_model_from_slots(dist, 0))
        res = run(SimConfig(n=n, params=VALIDATION_PARAMS,
                            horizon_slots=10 ** 9, seed=31,
                            record_slot_trace=False),
                  stop_after_tagged=(0, packets))
        ct = dcf_clock(res.events, 0, mean_i)
        tagged_pps = 1e6 / mean_i
        gps = gps_finish_times(saturated_arrivals(n, packets), [1.0, 1.0],
                               capacity=n * tagged_pps)
        summary = clock_vs_gps(ct, gps.finish_times[0])
        walk_sd = np.sqrt(var_i * packets / 3.0)
        assert abs(summary.mean) <= 4.0 * walk_sd
        assert abs(summary.mean) / float(ct.departures[-1]) <= 0.05

    def test_deviation_band_regression_baseline(self):
        # frozen deterministic baseline (seed 41): catches drift in the
        # clock/GPS pipeline, not a reference value of any model
        from conftest import VALIDATION_PARAMS
        from dcffair import (SimConfig, increment_model_from_slots,
                             increment_moments, run, slot_distribution,
                             solve_attempt_fixed_point)

        n, packets = 10, 3000
        sol = solve_attempt_fixed_point(VALIDATION_PARAMS, n)
        dist = slot_distribution(np.full(n, sol.tau), VALIDATION_PARAMS)
        mean_i, _ = increment_moments(increment_model_from_slots(dist, 0))
        res = run(SimConfig(n=n, params=VALIDATION_PARAMS,
                            horizon_slots=10 ** 9, seed=41,
                            record_slot_trace=False),
                  stop_after_tagged=(0, packets))
        ct = dcf_clock(res.events, 0, mean_i)
        gps = gps_finish_times(saturated_arrivals(n, packets),
                               np.ones(n), capacity=n * 1e6 / mean_i)
        summary = clock_vs_gps(ct, gps.finish_times[0])
        band = summary.p95 - summary.p05
        assert band == pytest.approx(4093264.38, rel=1e-6)
        assert summary.max_abs == pytest.approx(4636142.38, rel=1e-6)
