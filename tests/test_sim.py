import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from conftest import VALIDATION_PARAMS
from dcffair import (
    ConfigError,
    MacParams,
    SimConfig,
    replicate,
    run,
    slot_distribution,
    solve_attempt_fixed_point,
)


def quiet(n, params=MacParams(), **kw):
    kw.setdefault("horizon_slots", 50_000)
    kw.setdefault("record_slot_trace", False)
    kw.setdefault("record_event_trace", False)
    return SimConfig(n=n, params=params, **kw)


class TestConfig:
    def test_requires_exactly_one_horizon(self):
        with pytest.raises(ConfigError):
            SimConfig(n=2, horizon_slots=10, horizon_us=10).validate()
        with pytest.raises(ConfigError):
            SimConfig(n=2).validate()
        with pytest.raises(ConfigError):
            SimConfig(n=2, horizon_slots=100.5).validate()

    @pytest.mark.parametrize("field", [{"n": 2.7},
                                       {"record_slot_trace": "no"}])
    def test_rejects_wrongly_typed_fields(self, field):
        with pytest.raises(ConfigError):
            SimConfig(**{"n": 2, "horizon_slots": 10, **field}).validate()

    def test_poisson_needs_rates(self):
        with pytest.raises(ConfigError):
            SimConfig(n=2, mode="poisson", horizon_slots=10).validate()

    @pytest.mark.parametrize("stops", [
        {"stop_after_tagged": (5, 10)},
        {"stop_after_tagged": (-1, 10)},
        {"stop_after_tagged": (1.0, 10)},
        {"stop_after_tagged": (True, 10)},
        {"stop_after_tagged": (0, 0)},
        {"stop_after_tagged": (0, 2.5)},
        {"stop_after_tagged": (0,)},
        {"stop_after_tagged": 3},
    ], ids=repr)
    def test_rejects_bad_early_stops(self, stops):
        # the huge horizon makes a stop that is never met run for minutes
        with pytest.raises(ConfigError):
            run(SimConfig(n=2, horizon_slots=10 ** 9), **stops)

    def test_shared_channel_needs_one_slot_sigma(self):
        params = (MacParams(slot_sigma=20), MacParams(slot_sigma=9))
        with pytest.raises(ConfigError):
            SimConfig(n=2, params=params, horizon_slots=10).validate()

    def test_normalised_once_built(self):
        shared = SimConfig(n=3, params=MacParams(cw_min=16), horizon_slots=10)
        assert shared.params == (MacParams(cw_min=16),) * 3
        assert shared.arrival_rate_pps == ()
        assert shared == SimConfig(n=3, params=[MacParams(cw_min=16)] * 3,
                                   horizon_slots=10)
        rates = dict(n=2, mode="poisson", horizon_slots=10)
        listed = SimConfig(arrival_rate_pps=[40, 75.5], **rates)
        assert listed.arrival_rate_pps == (40.0, 75.5)
        assert listed == SimConfig(arrival_rate_pps=(40, 75.5), **rates)
        assert (SimConfig(arrival_rate_pps=3, **rates).arrival_rate_pps
                == (3.0, 3.0))
        listed.validate()  # idempotent: a built config is left as it is
        assert listed == SimConfig(arrival_rate_pps=(40.0, 75.5), **rates)

    @pytest.mark.parametrize("field", [
        {"n": 0}, {"seed": -1}, {"mode": "bursty"}, {"horizon_us": 10},
        {"record_event_trace": 1}, {"params": (MacParams(),)},
        {"mode": "poisson"},
        {"mode": "poisson", "arrival_rate_pps": (1.0, 2.0, 3.0)},
        {"n": 3},  # params is already a tuple of 2
    ], ids=["n-0", "seed-negative", "mode-unknown", "two-horizons",
            "trace-flag-int", "one-params-for-two", "poisson-no-rates",
            "three-rates-for-two", "n-3-two-params"])
    def test_replace_checks_the_new_value(self, field):
        cfg = SimConfig(n=2, horizon_slots=10)
        with pytest.raises(ConfigError):
            replace(cfg, **field)


class TestDynamics:
    def test_single_station_never_collides(self):
        res = run(quiet(1))
        assert res.counters.collision_slots == 0
        assert res.counters.collisions_involved.sum() == 0

    def test_deterministic_given_seed(self):
        cfg = SimConfig(n=3, horizon_slots=20_000, seed=99)
        a, b = run(cfg), run(cfg)
        assert np.array_equal(a.slots.codes, b.slots.codes)
        assert np.array_equal(a.slots.durations, b.slots.durations)
        assert np.array_equal(a.success_owners, b.success_owners)
        assert np.array_equal(a.events.departure, b.events.departure)

    def test_wallclock_is_duration_sum(self):
        res = run(SimConfig(n=3, horizon_slots=20_000, seed=4))
        assert res.counters.wallclock_us == int(res.slots.durations.sum())
        starts = res.slots.wallclock_starts()
        assert starts[0] == 0
        assert int(starts[-1] + res.slots.durations[-1]) \
            == res.counters.wallclock_us

    def test_early_stops_end_at_their_counts(self):
        cfg = SimConfig(n=3, horizon_slots=10 ** 9, seed=5)
        tagged = run(cfg, stop_after_tagged=(np.int64(2), 1))
        assert tagged.counters.successes[2] == 1
        assert tagged.success_owners[-1] == 2

    def test_single_station_mean_interdeparture(self):
        # backoff mean (W-1)/2 idle slots plus the success slot
        params = MacParams()
        res = run(SimConfig(n=1, params=params, horizon_slots=10 ** 9,
                            seed=2, record_slot_trace=False),
                  stop_after_tagged=(0, 100_000))
        gaps = np.diff(res.events.departure)
        expected = (params.cw_min - 1) / 2 * params.slot_sigma + params.d_succ
        assert np.mean(gaps) == pytest.approx(expected, rel=0.01)

    def test_attempt_rate_matches_fixed_point(self):
        for n in (5, 10):
            sol = solve_attempt_fixed_point(MacParams(), n)
            res = run(quiet(n, horizon_slots=300_000, seed=6))
            emp = (res.counters.attempts / res.counters.n_slots).mean()
            assert emp == pytest.approx(sol.tau, rel=0.05)

    def test_per_slot_success_probability_three_sigma(self):
        # analytic per-slot success probability vs empirical frequency
        for n in (2, 5, 10):
            sol = solve_attempt_fixed_point(MacParams(), n)
            dist = slot_distribution(np.full(n, sol.tau), MacParams())
            res = run(quiet(n, horizon_slots=10 ** 6, seed=3))
            slots = res.counters.n_slots
            emp = res.counters.successes / slots
            se = np.sqrt(dist.p_succ[0] * (1 - dist.p_succ[0]) / slots)
            z = (emp.mean() - dist.p_succ[0]) / se
            assert abs(z) <= 3.0

    def test_collision_probability_given_attempt(self):
        for n in (5, 10, 20):
            sol = solve_attempt_fixed_point(MacParams(), n)
            res = run(quiet(n, horizon_slots=300_000, seed=8))
            emp = (res.counters.collisions_involved.sum()
                   / res.counters.attempts.sum())
            assert emp == pytest.approx(sol.p_coll, rel=0.05)

    def test_success_slot_duration_and_owner_recorded(self):
        params = MacParams()
        res = run(SimConfig(n=2, params=params, horizon_slots=5000, seed=1))
        succ = res.slots.codes == 1
        assert np.all(res.slots.durations[succ] == params.d_succ)
        assert np.array_equal(res.slots.owners[succ], res.success_owners)
        coll = res.slots.codes == 2
        assert np.all(res.slots.durations[coll] == params.d_coll)
        assert len(res.slots.colliders) == int(coll.sum())
        assert all(len(c) >= 2 for c in res.slots.colliders)

    def test_event_trace_fifo_and_positive_service(self):
        res = run(SimConfig(n=3, horizon_slots=30_000, seed=12))
        for s in range(3):
            ev = res.events.for_station(s)
            assert np.all(np.diff(ev.packet_id) == 1)
            assert np.all(np.diff(ev.departure) > 0)
            assert np.all(ev.departure > ev.arrival)


class TestRetryLimit:
    def test_drops_counted_and_conserved(self):
        params = MacParams(cw_min=4, cw_max=8, max_backoff_stage=1,
                           retry_limit=2)
        cfg = SimConfig(n=6, params=params, mode="poisson",
                        arrival_rate_pps=200.0, horizon_slots=100_000,
                        seed=17, record_slot_trace=False,
                        record_event_trace=False)
        res = run(cfg)
        c = res.counters
        assert c.drops.sum() > 0
        assert np.array_equal(c.successes + c.drops + c.queue_final,
                              c.arrivals)

    def test_saturated_conservation(self):
        res = run(quiet(4, MacParams(cw_min=8, retry_limit=3)))
        c = res.counters
        assert np.array_equal(c.successes + c.drops + c.queue_final,
                              c.arrivals)


class TestPoisson:
    def test_light_load_is_mostly_idle(self):
        cfg = SimConfig(n=2, mode="poisson", arrival_rate_pps=5.0,
                        horizon_us=2_000_000, seed=3)
        res = run(cfg)
        c = res.counters
        assert c.idle_slots > 0.9 * c.n_slots
        assert np.array_equal(c.successes + c.drops + c.queue_final,
                              c.arrivals)

    def test_arrival_timestamps_preserved(self):
        cfg = SimConfig(n=1, mode="poisson", arrival_rate_pps=50.0,
                        horizon_us=1_000_000, seed=5)
        res = run(cfg)
        ev = res.events
        assert np.all(ev.arrival == np.sort(ev.arrival))
        assert np.any(ev.arrival != np.floor(ev.arrival))  # continuous time
        assert np.all(ev.departure > ev.arrival)

    def test_throughput_tracks_offered_load(self):
        rate = 40.0
        cfg = SimConfig(n=2, mode="poisson", arrival_rate_pps=rate,
                        horizon_us=5_000_000, seed=7,
                        record_slot_trace=False, record_event_trace=False)
        res = run(cfg)
        thr = res.throughput_pps()
        assert thr.sum() == pytest.approx(2 * rate, rel=0.15)

    def test_overload_memory_does_not_grow_with_backlog(self):
        # about 1e5 and 1e6 unserved packets per station at the end, whose
        # count crosses 1e2 and 1e3 chunks of the gap stream
        run(SimConfig(n=1, horizon_slots=10))  # first-call set-up untraced
        peaks = []
        for slots in (76, 760):
            cfg = SimConfig(n=3, mode="poisson", arrival_rate_pps=1e6,
                            horizon_slots=slots)
            tracemalloc.start()
            try:
                res = run(cfg)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert res.counters.queue_final.min() > 1000 * slots
        assert max(peaks) < 3e6
        assert abs(peaks[1] - peaks[0]) < 0.5e6


class TestReplicate:
    def test_single_replication_equals_run(self):
        # replicate turns traces off, which must not change a row
        for cfg in (quiet(3, seed=42),
                    SimConfig(n=3, horizon_slots=20_000, seed=42)):
            stats = replicate(cfg, range(1))
            direct = run(cfg).throughput_pps()
            assert np.array_equal(stats[0], direct)

    def test_rows_follow_the_given_replications(self):
        cfg = quiet(2, horizon_slots=3000, seed=5)
        stats = replicate(cfg, [4, 1, 2])
        for row, r in zip(stats, (4, 1, 2)):
            assert np.array_equal(row, run(cfg, replication=r)
                                  .throughput_pps())

    @pytest.mark.parametrize("replications", [3, [], [-1], [1.5], [True],
                                              "01"])
    def test_rejects_bad_replications(self, replications):
        with pytest.raises(ConfigError, match="replications"):
            replicate(quiet(2, horizon_slots=100), replications)

    def test_replications_are_distinct(self):
        cfg = SimConfig(n=2, horizon_slots=5000, seed=42)
        runs = [run(cfg, replication=r).success_owners for r in range(3)]
        assert not np.array_equal(runs[0], runs[1])
        assert not np.array_equal(runs[1], runs[2])

    def test_mean_throughput_matches_model(self):
        n = 5
        sol = solve_attempt_fixed_point(VALIDATION_PARAMS, n)
        dist = slot_distribution(np.full(n, sol.tau), VALIDATION_PARAMS)
        expected = dist.p_succ[0] / dist.expected_slot_us * 1e6
        cfg = quiet(n, VALIDATION_PARAMS, horizon_slots=40_000, seed=11)
        stats = replicate(cfg, range(30))
        per_rep = stats.mean(axis=1)
        se = per_rep.std(ddof=1) / np.sqrt(per_rep.size)
        assert abs(per_rep.mean() - expected) <= 3 * se

    def test_parallel_jobs_match_serial(self):
        cfg = quiet(2, horizon_slots=8000, seed=13)
        serial = replicate(cfg, range(4), jobs=1)
        parallel = replicate(cfg, range(4), jobs=2)
        assert np.array_equal(serial, parallel)

    def test_rejects_bad_trace_flag(self):
        # checked before replicate turns the traces off
        with pytest.raises(ConfigError, match="record_slot_trace"):
            replicate(quiet(2, horizon_slots=100, record_slot_trace="no"),
                      [0])

    @pytest.mark.parametrize("jobs", [2.5, -3, 0, True, "2"])
    def test_rejects_bad_jobs(self, jobs):
        with pytest.raises(ConfigError, match="jobs"):
            replicate(quiet(2, horizon_slots=100), range(2), jobs=jobs)
