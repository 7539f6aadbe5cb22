"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria that leave the MAC configuration open are run on one of two
profiles:

* DEFAULT_PARAMS (cw_min=32, stages 0..5): the classic aggressive-backoff
  profile. Used wherever the check targets the saturation model itself
  (throughput, attempt probability, windowed fairness).
* VALIDATION_PARAMS (cw_min=128, stages 0..3): a collision-lighter profile
  (conditional collision probability ~0.12 at n=10) under which the
  renewal/i.i.d. increment abstraction of the service-curve and estimator
  analyses is near-exact. Under DEFAULT_PARAMS at n=10 the per-packet
  retry cascade inflates the true increment variance to ~4x the renewal
  value, which is a property of binary exponential backoff, not of the
  implementations under test; see notes in the repository root.

Criterion 2 (total-variation agreement of the conditional fairness
histogram) is run exactly as stated and is expected to FAIL: success
ownership of a backoff-counter MAC is not an i.i.d. sequence, and the
deviation is far above the 0.02 TV budget at n=2 for any window size (the
losing station's residual counter makes alternation structural). The test
is kept faithful rather than weakened; the iid-surrogate sanity check in
test_fairness.py shows the measurement machinery itself is sound.
"""

import json
import math

import numpy as np
import pytest

from conftest import COMPACT_PARAMS, VALIDATION_PARAMS
from dcffair import (
    MacParams,
    SimConfig,
    conditional_pmf,
    dcf_clock,
    empirical_conditional_pmf,
    increment_model_from_slots,
    increment_moments,
    log_mgf,
    optimize_theta,
    pmf_moments,
    run,
    saturation_throughput,
    service_curve,
    slot_distribution,
    solve_attempt_fixed_point,
    t_epsilon_us,
    theta_max,
    tv_distance,
    windowed_fairness,
)
from dcffair.cli import main as cli_main
from test_fairness import enumeration_pmf

DEFAULT_PARAMS = MacParams()


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def homogeneous_model(params: MacParams, n: int):
    sol = solve_attempt_fixed_point(params, n)
    dist = slot_distribution(np.full(n, sol.tau), params)
    return sol, dist


@pytest.fixture(scope="module")
def fairness_traces():
    """Saturated ownership traces with >= 1e6 successes for n in {2,5,10}."""
    traces = {}
    for n in (2, 5, 10):
        sol, dist = homogeneous_model(DEFAULT_PARAMS, n)
        horizon = int(1.05e6 / (n * dist.p_succ[0]))
        res = run(SimConfig(n=n, params=DEFAULT_PARAMS,
                            horizon_slots=horizon, seed=1001,
                            record_slot_trace=False,
                            record_event_trace=False))
        assert res.success_owners.size >= 1_000_000
        traces[n] = (dist, res.success_owners)
    return traces


@pytest.fixture(scope="module")
def throughput_runs():
    """10^7-slot saturated runs for n in {2,5,10,20} (criteria 4 and 5)."""
    runs = {}
    for n in (2, 5, 10, 20):
        runs[n] = run(SimConfig(n=n, params=DEFAULT_PARAMS,
                                horizon_slots=10 ** 7, seed=2002,
                                record_slot_trace=False,
                                record_event_trace=False))
    return runs


def test_criterion_1_enumeration_equivalence():
    worst = 0.0
    for beta in (0.2, 0.5, 0.8):
        for l in (1, 2, 3):
            oracle = enumeration_pmf(beta, l, max_len=l + 6)
            cpmf = conditional_pmf(1.0 - beta, beta, l)
            for k in range(7):
                worst = max(worst, abs(float(cpmf.pmf[k]) - oracle[k]))
    report(1, worst <= 1e-12,
           f"closed form vs exhaustive enumeration, max |diff| = {worst:.2e} "
           "(l <= 3, k <= 6, beta in {0.2, 0.5, 0.8})")


def test_criterion_2_tv_distance(fairness_traces):
    results = []
    ok = True
    for n, (dist, owners) in fairness_traces.items():
        for l in (1, 5):
            emp, windows = empirical_conditional_pmf(owners, 0, 1, l)
            cpmf = conditional_pmf(float(dist.q[0]), float(dist.q[1]), l)
            tv = tv_distance(emp, cpmf.pmf)
            results.append(f"n={n} l={l}: TV={tv:.3f}")
            ok = ok and tv <= 0.02
    report(2, ok, "conditional histogram vs closed form (budget 0.02): "
           + "; ".join(results))


def test_criterion_3_long_term_fairness(fairness_traces):
    mean, _ = pmf_moments(conditional_pmf(0.5, 0.5, 7))
    analytic_ok = abs(mean - 7.0) <= 1e-9
    details = [f"analytic E[K|7]={mean}"]
    sim_ok = True
    for n, (dist, owners) in fairness_traces.items():
        for l in (1, 5):
            emp, windows = empirical_conditional_pmf(owners, 0, 1, l)
            k = np.arange(emp.size, dtype=float)
            emp_mean = float(k @ emp)
            emp_var = float((k - emp_mean) ** 2 @ emp)
            se = math.sqrt(emp_var / windows)
            z = (emp_mean - l) / se
            sim_ok = sim_ok and abs(z) <= 3.0
            details.append(f"n={n} l={l}: mean={emp_mean:.4f} z={z:+.2f}")
    report(3, analytic_ok and sim_ok, "; ".join(details))


def test_criterion_4_throughput(throughput_runs):
    payload = 8192.0
    details = []
    ok = True
    for n, res in throughput_runs.items():
        _, dist = homogeneous_model(DEFAULT_PARAMS, n)
        model = saturation_throughput(dist, payload)[0]
        sim = float(res.throughput_bps(payload).mean())
        rel = sim / model - 1.0
        ok = ok and abs(rel) <= 0.03
        details.append(f"n={n}: {rel:+.4f}")
    report(4, ok, "simulated vs analytic saturation throughput, rel err "
           + ", ".join(details) + " (budget 3%)")


def test_criterion_5_attempt_decoupling(throughput_runs):
    details = []
    ok = True
    for n in (5, 10, 20):
        sol = solve_attempt_fixed_point(DEFAULT_PARAMS, n)
        counters = throughput_runs[n].counters
        emp = float((counters.attempts / counters.n_slots).mean())
        rel = emp / sol.tau - 1.0
        ok = ok and abs(rel) <= 0.05
        details.append(f"n={n}: tau*={sol.tau:.5f} emp={emp:.5f} "
                       f"rel={rel:+.4f}")
    report(5, ok, "per-slot attempt frequency vs fixed point (budget 5%): "
           + "; ".join(details))


def test_criterion_6_dcf_clock():
    n = 10
    sol, dist = homogeneous_model(VALIDATION_PARAMS, n)
    model = increment_model_from_slots(dist, 0)
    mean_i, _ = increment_moments(model)
    res = run(SimConfig(n=n, params=VALIDATION_PARAMS, horizon_slots=10 ** 9,
                        seed=3003, record_slot_trace=False),
              stop_after_tagged=(0, 100_000))
    ct = dcf_clock(res.events, 0, mean_i)
    telescoping = int(ct.increments.sum()) == int(ct.departures[-1])
    se = float(np.std(ct.errors, ddof=1)) / math.sqrt(ct.errors.size)
    z = float(np.mean(ct.errors)) / se
    report(6, telescoping and abs(z) <= 3.0,
           f"telescoping exact={telescoping}; mean error over "
           f"{ct.errors.size} packets z={z:+.2f} (budget 3 SE) with "
           f"analytic increment {mean_i:.1f} us")


@pytest.fixture(scope="module")
def envelope_replications():
    """10^4 cold-start replications of the first 100 tagged departures."""
    n, reps = 10, 10_000
    cfg = SimConfig(n=n, params=VALIDATION_PARAMS, horizon_slots=10 ** 9,
                    seed=4004, record_slot_trace=False,
                    record_event_trace=True)
    t10 = np.empty(reps)
    t100 = np.empty(reps)
    for r in range(reps):
        res = run(cfg, replication=r, stop_after_tagged=(0, 100))
        dep = res.events.for_station(0).departure
        t10[r] = dep[9]
        t100[r] = dep[99]
    return t10, t100


def test_criterion_7_service_curve_validity(envelope_replications):
    t10, t100 = envelope_replications
    reps = t10.size
    _, dist = homogeneous_model(VALIDATION_PARAMS, 10)
    model = increment_model_from_slots(dist, 0)
    details = []
    ok = True
    for eps in (1e-1, 1e-2):
        for j, samples in ((10, t10), (100, t100)):
            theta = optimize_theta(model, eps, j)
            envelope = t_epsilon_us(model, theta, eps, j)
            violation = float(np.mean(samples > envelope))
            budget = eps + 3.0 * math.sqrt(eps / reps)
            ok = ok and violation <= budget
            details.append(f"eps={eps} j={j}: viol={violation:.4f} "
                           f"<= {budget:.4f}")
    # theta -> 0 limit on a low-variance profile: the quadratic MGF term
    # theta*Var/(2 E) must sit inside the 1e-3 budget at theta = 1e-6/us
    sol2, dist2 = homogeneous_model(COMPACT_PARAMS, 2)
    model2 = increment_model_from_slots(dist2, 0)
    mean2, _ = increment_moments(model2)
    rate_limit = service_curve(model2, 1e-6, 0.5).rate
    rel = abs(rate_limit / (1e6 / mean2) - 1.0)
    limit_ok = rel <= 1e-3
    details.append(f"r(1e-6/us) vs 1/E[I]: rel={rel:.2e}")
    report(7, ok and limit_ok, "; ".join(details))


def test_criterion_8_log_mgf_checks():
    _, dist = homogeneous_model(VALIDATION_PARAMS, 10)
    model = increment_model_from_slots(dist, 0)
    zero_ok = log_mgf(model, 0.0) == 0.0
    mean_i, _ = increment_moments(model)
    h = 1e-9
    derivative = (log_mgf(model, h) - log_mgf(model, -h)) / (2 * h)
    deriv_rel = abs(derivative / mean_i - 1.0)
    grid = np.linspace(0.0, 0.999 * theta_max(model), 64)
    second = np.diff([log_mgf(model, float(t)) for t in grid], 2)
    convex_ok = bool(np.all(second >= -1e-9))
    report(8, zero_ok and deriv_rel <= 1e-6 and convex_ok,
           f"Lambda(0)={log_mgf(model, 0.0)}; central-diff derivative rel "
           f"err={deriv_rel:.2e} (budget 1e-6); min second diff "
           f"{second.min():.2e} on 64-point grid")


def test_criterion_9_estimator_coverage():
    from dcffair import convergence_report, estimate_fair_rate

    n, reps, departures = 10, 100, 400
    sol, dist = homogeneous_model(VALIDATION_PARAMS, n)
    model = increment_model_from_slots(dist, 0)
    mean_i, _ = increment_moments(model)
    truth = 1e6 / mean_i
    cfg = SimConfig(n=n, params=VALIDATION_PARAMS, horizon_slots=10 ** 9,
                    seed=5005, record_slot_trace=False)
    rates = np.empty(reps)
    covered = 0
    for r in range(reps):
        res = run(cfg, replication=r, stop_after_tagged=(0, departures))
        est = estimate_fair_rate(res.events.for_station(0))
        rates[r] = est.rate_pps
        if est.ci95[0] <= truth <= est.ci95[1]:
            covered += 1
    mean_rel = abs(rates.mean() / truth - 1.0)

    long_run = run(cfg, replication=reps + 1,
                   stop_after_tagged=(0, 100_001))
    points = convergence_report(long_run.events.for_station(0),
                                [100, 1000, 10_000, 100_000])
    widths = np.array([p.ci_width for p in points])
    ms = np.array([p.used_m for p in points], dtype=float)
    slope = float(np.polyfit(np.log(ms), np.log(widths), 1)[0])
    ok = (mean_rel <= 0.02 and covered >= 90
          and -0.6 <= slope <= -0.4)
    report(9, ok,
           f"mean rate_hat rel err={mean_rel:.4f} (budget 2%); CI covered "
           f"truth in {covered}/100 (need >= 90); CI-width log-log slope "
           f"{slope:.3f} (budget -0.5 +/- 0.1)")


def test_criterion_10_jain_convergence():
    n, reps = 10, 5
    window_lens = (10, 100, 1000, 10_000)
    sums = {wl: 0.0 for wl in window_lens}
    for r in range(reps):
        res = run(SimConfig(n=n, params=DEFAULT_PARAMS,
                            horizon_slots=850_000, seed=6006,
                            record_slot_trace=False,
                            record_event_trace=False),
                  replication=r)
        for wl in window_lens:
            stats = windowed_fairness(res.success_owners, wl, n_stations=n)
            sums[wl] += stats.jain_mean
    means = [sums[wl] / reps for wl in window_lens]
    monotone = all(a <= b + 1e-12 for a, b in zip(means, means[1:]))
    ok = monotone and means[-1] > 0.99
    report(10, ok, "mean Jain over window lengths "
           f"{dict(zip(window_lens, [round(m, 5) for m in means]))}, "
           f"monotone={monotone}, final > 0.99")


def test_criterion_11_determinism(tmp_path):
    config = {
        "mac": {"cw_min": 32},
        "sim": {"n": 4, "mode": "saturated", "horizon_slots": 30_000,
                "seed": 77},
        "payload_bits": 8192,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    out1, out2 = tmp_path / "one", tmp_path / "two"
    assert cli_main(["simulate", "--config", str(cfg_path),
                     "--out", str(out1)]) == 0
    assert cli_main(["simulate", "--config", str(cfg_path),
                     "--out", str(out2)]) == 0
    same = all(
        (out1 / name).read_bytes() == (out2 / name).read_bytes()
        for name in ("slot_trace.csv", "event_trace.csv", "ownership.csv")
    )
    report(11, same, "identical config+seed reproduces byte-identical "
           "slot, event, and ownership CSVs")
