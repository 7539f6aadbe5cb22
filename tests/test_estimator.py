import warnings

import numpy as np
import pytest

from dcffair import (
    EventTrace,
    NotEnoughBacklogError,
    TraceFormatError,
    convergence_report,
    detect_busy_periods,
    estimate_fair_rate,
)


def trace(arrivals, departures, station=0):
    n = len(arrivals)
    return EventTrace.from_lists([station] * n, list(range(n)),
                                 arrivals, departures)


class TestBusyPeriods:
    def test_queue_empties_between_packets(self):
        periods = detect_busy_periods(
            trace([0, 1000, 2000], [500, 1500, 2500]))
        assert list(zip(periods.start, periods.end, periods.departures)) == [
            (0, 500, 1), (1000, 1500, 1), (2000, 2500, 1)]

    def test_overlapping_arrivals_merge(self):
        periods = detect_busy_periods(trace([0, 100], [500, 900]))
        assert list(zip(periods.start, periods.end, periods.departures)) == [
            (0, 900, 2)]

    def test_saturated_single_period(self):
        arr = [0, 520, 1040, 1560]
        dep = [520, 1040, 1560, 2080]
        periods = detect_busy_periods(trace(arr, dep))
        assert len(periods) == 1
        assert periods.departures[0] == 4
        assert periods.start[0] == 0 and periods.end[0] == 2080

    def test_departure_totals_conserved(self, rng):
        arr = np.sort(rng.uniform(0, 1e6, 300))
        service = rng.uniform(10, 3000, 300)
        dep = np.empty(300)
        t = 0.0
        for i in range(300):
            t = max(t, arr[i]) + service[i]
            dep[i] = t
        periods = detect_busy_periods(trace(arr, dep))
        assert periods.departures.sum() == 300

    def test_fifo_violation_rejected(self):
        with pytest.raises(TraceFormatError):
            detect_busy_periods(trace([0, 10], [500, 400]))
        with pytest.raises(TraceFormatError):
            detect_busy_periods(trace([0, 10], [500, 10]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_times_rejected(self, bad):
        # a NaN compares false both ways, so the order checks let it through
        with pytest.raises(TraceFormatError, match="finite"):
            estimate_fair_rate(trace([0, 5, 20], [10, bad, 30]))
        with pytest.raises(TraceFormatError, match="finite"):
            estimate_fair_rate(trace([0, 5, 20], [10, 15, bad]))
        with pytest.raises(TraceFormatError, match="finite"):
            estimate_fair_rate(trace([bad, 5, 20], [10, 15, 30]))


class TestEstimate:
    def test_deterministic_rate_and_zero_stderr(self):
        arr = [0, 520, 1040, 1560, 2080]
        dep = [520, 1040, 1560, 2080, 2600]
        est = estimate_fair_rate(trace(arr, dep))
        assert est.rate_pps == pytest.approx(1e6 / 520)
        assert est.stderr_pps == 0.0
        assert est.samples == 4
        assert est.busy_fraction == pytest.approx(1.0)
        assert est.ratio_rate_pps == pytest.approx(5 / 2600 * 1e6)

    def test_lag1_is_zero_when_a_half_is_constant(self):
        # samples 100, 100, 150: the lag pairs' first half is constant, so
        # their correlation is undefined, while the samples' spread is not 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = estimate_fair_rate(trace([0] * 4, [100, 200, 300, 450]))
        assert est.samples == 3
        assert est.lag1_autocorr == 0.0

    def test_idle_gaps_do_not_change_rate(self):
        # two busy periods with identical in-period spacing; the idle gap
        # between them must not contribute a sample
        arr = [0, 500, 3000, 3500]
        dep = [500, 1000, 3500, 4000]
        est = estimate_fair_rate(trace(arr, dep))
        assert est.rate_pps == pytest.approx(1e6 / 500)
        assert est.samples == 2

        shifted = trace([0, 500, 30_000, 30_500],
                        [500, 1000, 30_500, 31_000])
        est2 = estimate_fair_rate(shifted)
        assert est2.rate_pps == est.rate_pps

    def test_short_periods_excluded(self):
        # lone-departure periods carry no inter-departure information
        arr = [0, 100, 5000]
        dep = [400, 900, 5400]
        est = estimate_fair_rate(trace(arr, dep), min_period_departures=2)
        assert est.samples == 1
        assert est.rate_pps == pytest.approx(1e6 / 500)

    def test_no_backlog_raises_with_diagnostic(self):
        arr = [0, 1000, 2000]
        dep = [10, 1010, 2010]
        with pytest.raises(NotEnoughBacklogError) as err:
            estimate_fair_rate(trace(arr, dep))
        assert 0.0 <= err.value.busy_fraction < 0.1

    def test_empty_trace(self):
        with pytest.raises(NotEnoughBacklogError):
            estimate_fair_rate(EventTrace.from_lists([], [], [], []))


class TestConvergence:
    def test_deterministic_zero_width(self):
        arr = [i * 520 for i in range(50)]
        dep = [(i + 1) * 520 for i in range(50)]
        points = convergence_report(trace(arr, dep), [2, 10, 40])
        for p in points:
            assert p.ci_width == 0.0
            assert p.rate_pps == pytest.approx(1e6 / 520)
            assert not p.truncated

    def test_truncation_flagged(self):
        arr = [i * 520 for i in range(10)]
        dep = [(i + 1) * 520 for i in range(10)]
        points = convergence_report(trace(arr, dep), [5, 100])
        assert not points[0].truncated
        assert points[1].truncated
        assert points[1].used_m == 9

    def test_prefix_ratio_tracks_rate(self, rng):
        gaps = rng.uniform(100, 900, 4000)
        dep = np.cumsum(gaps)
        arr = np.concatenate([[0.0], dep[:-1]])
        points = convergence_report(trace(arr, dep), [100, 1000])
        for p in points:
            assert p.ratio_rate_pps == pytest.approx(p.rate_pps, rel=0.15)
            assert p.ci_low < p.rate_pps < p.ci_high
