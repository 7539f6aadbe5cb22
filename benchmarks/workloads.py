"""The four benchmark workloads of dcffair.

Each workload builds its configs from the workload seed when it is
constructed (the set-up that ``setup_s`` times), then runs numbered
operations. ``run(k)`` is the timed part; ``check(k, result)`` verifies the
outputs outside the timed region and returns a fingerprint that must repeat
when operation k is run again with the same seed; ``clean(k)`` removes the
operation's files so disk use stays flat.

Run as a script, this module is the set-up probe: it imports dcffair from
the source tree, builds one workload and prints ``ready``.

    python3 benchmarks/workloads.py <workload> <seed> <work-dir>
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# The package is always benchmarked from this tree's sources, never from an
# installed copy, so a tree without src/ fails at once.
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import dcffair  # noqa: E402
from dcffair import cli, clock, fairness, mac, netcalc, sim, traceio  # noqa: E402

if Path(dcffair.__file__).resolve().parent != SRC / "dcffair":
    raise ImportError(f"dcffair imported from {dcffair.__file__}, "
                      f"not from {SRC}")

PAYLOAD_BITS = 8192

# poisson: unsaturated n=10 stations whose unequal rates sum to this share
# of the model's saturation throughput
POISSON_N = 10
POISSON_LOAD = 0.9
POISSON_HORIZON_US = 300_000_000
POISSON_SAMPLE_COUNTS = [100, 1000, 5000]

# montecarlo: the call shapes of the criterion 7 fixture (cold-start
# replications) and the criterion 4 fixture (long saturated runs)
VALIDATION_PARAMS = mac.MacParams(cw_min=128, max_backoff_stage=3)
COLD_N = 10
COLD_REPS = 50
COLD_TAGGED = (0, 100)
LONG_HORIZON_SLOTS = {2: 250_000, 10: 80_000, 50: 50_000}

# analytic: heterogeneous stations drawn from backoff classes, so that
# tagged/contender pairs have unequal ownership shares (homogeneous
# stations always give beta = 1/2)
HETERO_N = 50
CW_CLASSES = (16, 32, 64, 128, 256)
HOMOGENEOUS_NS = (2, 5, 10, 20, 50, 100)
PMF_LS = (1, 100, 10_000, 100_000)
HORIZON_TARGETS = ((0.5, 0.05), (0.3, 0.1), (0.2, 0.05), (0.1, 0.1))
SERVICE_EPS = (1e-2, 1e-3)
SERVICE_HORIZON_J = 100
GPS_STATIONS = 10
GPS_PACKETS = 1000
GPS_CHECK_PACKETS = 200
FIXED_POINT_TOL = 1e-12


class CheckError(Exception):
    """An output of the program is wrong."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def op_seed(seed: int, k: int) -> int:
    """Seed of operation k, derived from the workload seed."""
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


def _digest_dir(path: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(path.iterdir()):
        h.update(f.name.encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def _check_slot_trace(path: Path, ref: traceio.SlotTrace) -> None:
    got = traceio.read_slot_trace_csv(path)
    expect(np.array_equal(got.codes, ref.codes), f"{path.name}: outcomes")
    expect(np.array_equal(got.owners, ref.owners), f"{path.name}: owners")
    expect(np.array_equal(got.durations, ref.durations),
           f"{path.name}: durations")
    expect(got.colliders == ref.colliders, f"{path.name}: colliders")


def _check_event_trace(path: Path, ref: traceio.EventTrace) -> None:
    got = traceio.read_event_trace_csv(path)
    for column in ("station", "packet_id", "arrival", "departure"):
        expect(np.array_equal(getattr(got, column), getattr(ref, column)),
               f"{path.name}: {column}")


def _check_ownership(path: Path, ref: np.ndarray) -> None:
    expect(np.array_equal(traceio.read_ownership_csv(path), ref),
           f"{path.name}: owners")


class _CliWorkload:
    """A workload whose operations are ``cli.main`` pipelines."""

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work

    def op_dir(self, k: int) -> Path:
        return self.work / f"op{k}"

    def cli(self, argv: list[str]) -> tuple[int, str]:
        """Exit code and captured stderr of one command."""
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, err.getvalue()

    def expect_exit_codes(self, calls: list[tuple[int, str]]) -> None:
        for code, stderr in calls:
            expect(code == 0, f"cli exit code {code}: {stderr.strip()}")

    def clean(self, k: int) -> None:
        shutil.rmtree(self.op_dir(k), ignore_errors=True)


class Demo(_CliWorkload):
    """``dcffair demo`` as shipped: saturated n=5, 150k slots, traces on."""

    def __init__(self, seed: int, work: Path):
        super().__init__(seed, work)
        cli.build_sim_config(json.loads(json.dumps(cli.DEMO_CONFIG)))

    def run(self, k: int) -> list[tuple[int, str]]:
        return [self.cli(["demo", "--out", str(self.op_dir(k)),
                          "--seed", str(op_seed(self.seed, k))])]

    def check(self, k: int, calls: list[tuple[int, str]]) -> str:
        self.expect_exit_codes(calls)
        out = self.op_dir(k)
        config = json.loads((out / "config.json").read_text())
        ref = sim.run(cli.build_sim_config(config))
        _check_slot_trace(out / "slot_trace.csv", ref.slots)
        _check_event_trace(out / "event_trace.csv", ref.events)
        _check_ownership(out / "ownership.csv", ref.success_owners)
        return _digest_dir(out)


class Poisson(_CliWorkload):
    """``simulate`` then ``estimate`` on unsaturated Poisson stations."""

    def __init__(self, seed: int, work: Path):
        super().__init__(seed, work)
        params = mac.MacParams()
        sol = mac.solve_attempt_fixed_point(params, POISSON_N)
        dist = mac.slot_distribution(np.full(POISSON_N, sol.tau), params)
        saturation_pps = float(np.sum(
            mac.saturation_throughput(dist, PAYLOAD_BITS))) / PAYLOAD_BITS
        # unequal shares: the heaviest stations are offered more than 1/n
        weights = np.random.default_rng(seed).permutation(
            np.arange(1, POISSON_N + 1)).astype(float)
        rates = POISSON_LOAD * saturation_pps * weights / weights.sum()
        config = {
            "scenario": "poisson-bench",
            "mac": {},
            "sim": {"n": POISSON_N, "mode": "poisson",
                    "arrival_rate_pps": rates.tolist(),
                    "horizon_us": POISSON_HORIZON_US, "seed": seed,
                    "record_slot_trace": False, "record_event_trace": True},
            "payload_bits": PAYLOAD_BITS,
            "estimate": {"station": int(np.argmax(weights)),
                         "sample_counts": POISSON_SAMPLE_COUNTS},
        }
        work.mkdir(parents=True, exist_ok=True)
        self.config_path = work / "poisson.json"
        self.config_path.write_text(json.dumps(config))
        cli.build_sim_config(cli.load_config(self.config_path))

    def run(self, k: int) -> list[tuple[int, str]]:
        out = str(self.op_dir(k))
        common = ["--config", str(self.config_path), "--out", out,
                  "--seed", str(op_seed(self.seed, k))]
        return [self.cli(["simulate"] + common),
                self.cli(["estimate"] + common
                         + ["--event-trace", out + "/event_trace.csv"])]

    def check(self, k: int, calls: list[tuple[int, str]]) -> str:
        self.expect_exit_codes(calls)
        out = self.op_dir(k)
        config = cli.load_config(self.config_path,
                                 seed_override=op_seed(self.seed, k))
        ref = sim.run(cli.build_sim_config(config))
        _check_event_trace(out / "event_trace.csv", ref.events)
        _check_ownership(out / "ownership.csv", ref.success_owners)
        estimate = json.loads((out / "estimate.json").read_text())
        expect(estimate["samples"] > 0 and estimate["rate_pps"] > 0,
               f"estimate.json: {estimate}")
        return _digest_dir(out)


def _check_counters(c: sim.SimCounters, n: int) -> None:
    expect(c.idle_slots + c.success_slots + c.collision_slots == c.n_slots,
           "slot outcomes do not add up to the slot count")
    expect(int(c.successes.sum()) == c.success_slots,
           "per-station successes do not add up to success slots")
    expect(int(c.attempts.sum())
           == c.success_slots + int(c.collisions_involved.sum()),
           "attempts are not successes plus collision involvements")
    expect(c.successes.size == n, "per-station counters have the wrong size")


def _counter_key(c: sim.SimCounters) -> tuple:
    return (c.n_slots, c.wallclock_us, c.idle_slots, c.success_slots,
            c.collision_slots, tuple(c.successes.tolist()),
            tuple(c.attempts.tolist()))


class MonteCarlo:
    """Cold-start replications plus long saturated runs; traces off."""

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        quiet = dict(record_slot_trace=False, record_event_trace=False)
        self.cold = sim.SimConfig(n=COLD_N, params=VALIDATION_PARAMS,
                                  horizon_slots=10 ** 9, seed=seed, **quiet)
        self.long = [sim.SimConfig(n=n, horizon_slots=h, seed=seed, **quiet)
                     for n, h in LONG_HORIZON_SLOTS.items()]
        for cfg in [self.cold] + self.long:
            cfg.validate()

    def run(self, k: int) -> tuple[list, list]:
        s = op_seed(self.seed, k)
        cold = dataclasses.replace(self.cold, seed=s)
        cold_counters = [
            sim.run(cold, replication=r,
                    stop_after_tagged=COLD_TAGGED).counters
            for r in range(COLD_REPS)]
        long_counters = [sim.run(dataclasses.replace(cfg, seed=s)).counters
                         for cfg in self.long]
        return cold_counters, long_counters

    def check(self, k: int, result: tuple[list, list]) -> tuple:
        cold_counters, long_counters = result
        tagged, goal = COLD_TAGGED
        for c in cold_counters:
            _check_counters(c, COLD_N)
            expect(int(c.successes[tagged]) == goal,
                   f"cold-start run stopped at {c.successes[tagged]} tagged "
                   f"departures, not {goal}")
        for c, (n, horizon) in zip(long_counters,
                                   LONG_HORIZON_SLOTS.items()):
            _check_counters(c, n)
            expect(c.n_slots == horizon,
                   f"n={n} run simulated {c.n_slots} of {horizon} slots")
        return tuple(_counter_key(c) for c in cold_counters + long_counters)

    def clean(self, k: int) -> None:
        pass


def _bursty_arrivals(rng: np.random.Generator, stations: int, packets: int):
    """Per-station bursts of variable-size packets, Poisson burst starts."""
    arrivals = []
    for _ in range(stations):
        t = 0.0
        pkts: list[tuple[float, float]] = []
        while len(pkts) < packets:
            t += float(rng.exponential(50_000.0))
            burst = min(int(rng.geometric(0.2)), packets - len(pkts))
            pkts.extend((t, float(rng.uniform(0.5, 1.5)))
                        for _ in range(burst))
        arrivals.append(pkts)
    return arrivals


class Analytic:
    """Model sweep with no simulator: mac, fairness, netcalc, GPS."""

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.classes = [mac.MacParams(cw_min=cw) for cw in CW_CLASSES]
        self.homogeneous = [mac.MacParams(), VALIDATION_PARAMS]

    def run(self, k: int) -> dict:
        rng = np.random.default_rng(op_seed(self.seed, k))
        homogeneous = [mac.solve_attempt_fixed_point(p, n)
                       for p in self.homogeneous for n in HOMOGENEOUS_NS]
        # every class equally often, in a seeded station order
        cls = rng.permutation(np.arange(HETERO_N) % len(CW_CLASSES))
        params = [self.classes[c] for c in cls]
        vector = mac.solve_attempt_fixed_point_vector(params)
        dist = mac.slot_distribution(vector.taus, params[0])
        # tagged/contender pairs from unequal classes: (32, 64), (16, 128)
        first = {c: int(np.flatnonzero(cls == c)[0])
                 for c in range(len(CW_CLASSES))}
        pairs = [(first[1], first[2]), (first[0], first[3])]
        pmfs = [fairness.conditional_pmf(float(dist.q[t]), float(dist.q[c]), l)
                for t, c in pairs for l in PMF_LS]
        t, c = pairs[0]
        horizons = [fairness.short_term_horizon(dist.q, t, c, delta, eps)
                    for delta, eps in HORIZON_TARGETS]
        model = netcalc.increment_model_from_slots(dist, t)
        curves = []
        for eps in SERVICE_EPS:
            theta = netcalc.optimize_theta(model, eps, SERVICE_HORIZON_J)
            sc = netcalc.service_curve(model, theta, eps)
            env = netcalc.ArrivalEnvelope(sigma_b=5.0, rho=0.5 * sc.rate)
            curves.append((theta, sc, netcalc.delay_bound(env, sc)))
        weights = rng.choice([1.0, 2.0, 4.0], size=GPS_STATIONS)
        arrivals = _bursty_arrivals(rng, GPS_STATIONS, GPS_PACKETS)
        work = sum(size for a in arrivals for _, size in a)
        span_s = max(a[-1][0] for a in arrivals) * 1e-6
        gps = clock.gps_finish_times(arrivals, weights, 1.05 * work / span_s)
        return {"homogeneous": homogeneous, "vector": vector, "pmfs": pmfs,
                "horizons": horizons, "curves": curves, "gps": gps}

    def check(self, k: int, r: dict) -> tuple:
        for sol in r["homogeneous"]:
            expect(sol.residual <= FIXED_POINT_TOL,
                   f"n={sol.n} fixed-point residual {sol.residual:.3e}")
        expect(r["vector"].residual <= FIXED_POINT_TOL,
               f"vector fixed-point residual {r['vector'].residual:.3e}")
        for cpmf in r["pmfs"]:
            beta, l = cpmf.beta, cpmf.l
            mean = float(np.dot(np.arange(cpmf.pmf.size), cpmf.pmf))
            closed = l * beta / (1.0 - beta)
            expect(abs(mean - closed) <= 1e-6 * max(1.0, closed),
                   f"l={l}: pmf mean {mean!r} vs l*beta/(1-beta) {closed!r}")
            total = float(np.sum(cpmf.pmf)) + cpmf.tail_mass
            expect(abs(total - 1.0) <= 1e-12,
                   f"l={l}: sum(pmf) + tail_mass = {total!r}")
        expect(all(h >= 1 for h in r["horizons"]),
               f"short-term horizons {r['horizons']}")
        for theta, sc, delay in r["curves"]:
            expect(theta > 0 and sc.rate > 0 and delay > sc.latency,
                   f"service curve theta={theta} rate={sc.rate} "
                   f"delay={delay}")
        finish = r["gps"].finish_times
        expect(sum(f.size for f in finish) == GPS_STATIONS * GPS_PACKETS,
               "GPS finished the wrong number of packets")
        # equal weights, all packets at t=0: closed form T_j = j * n / C
        capacity = 50.0
        ref = clock.gps_finish_times(
            [[(0.0, 1.0)] * GPS_CHECK_PACKETS] * GPS_STATIONS,
            np.ones(GPS_STATIONS), capacity)
        closed = (np.arange(1, GPS_CHECK_PACKETS + 1) * GPS_STATIONS
                  / capacity * 1e6)
        for f in ref.finish_times:
            expect(f.size == closed.size
                   and np.all(np.abs(f - closed) <= 1e-9 * closed),
                   "equal-weight GPS departs from T_j = j*n/C")
        return (
            tuple(s.tau for s in r["homogeneous"]),
            tuple(r["vector"].taus.tolist()), r["vector"].iterations,
            tuple((cpmf.k_max, cpmf.tail_mass) for cpmf in r["pmfs"]),
            tuple(r["horizons"]),
            tuple((theta, sc.rate, delay) for theta, sc, delay in r["curves"]),
            tuple(float(f.sum()) for f in finish), len(r["gps"].intervals),
        )

    def clean(self, k: int) -> None:
        pass


WORKLOADS = {"demo": Demo, "poisson": Poisson, "montecarlo": MonteCarlo,
             "analytic": Analytic}


if __name__ == "__main__":
    name, seed, work = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    WORKLOADS[name](seed, work)
    print("ready", flush=True)
