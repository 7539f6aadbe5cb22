"""Command-line front end.

Commands read a JSON run config, run simulations or analyses, and write
CSV bulk data plus JSON summaries into the output directory. Exit codes
are a stable scripting contract: 0 success, 2 input error, 3 analytical or
domain error. All outputs are byte-deterministic for a given config and
seed; wall-times are printed to stderr only.

Each cmd_<name> writes nothing: it returns its files, by name, and its
progress lines. main checks every JSON file, writes all files into a
staging directory inside --out, then moves each into place. So a command
writes all of its files or none, a failed one prints only its error: line,
and a .dcffair-* directory stays in --out only if killed mid-commit.

The analyses take trace data, not paths. A standalone command reads its
trace file once, while its arguments are parsed; demo writes the same
files as the chain of commands but hands the analyses its run in memory.

Config fields can be overridden from the environment with the DCFFAIR_
prefix, double underscores descending into sections: DCFFAIR_SIM__SEED=7
sets config["sim"]["seed"]. Values are parsed as JSON when possible.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import shutil
import sys
import tempfile
import time
from itertools import chain
from pathlib import Path

import numpy as np

from . import clock as clockmod
from . import estimator as estmod
from . import fairness as fairmod
from . import netcalc
from . import sim as simmod
from . import traceio
from .errors import (ConfigError, Error, ModelError, TraceFormatError,
                     is_finite, is_int)
from .mac import (MacParams, saturation_throughput, slot_distribution,
                  solve_attempt_fixed_point, solve_attempt_fixed_point_vector)

ENV_PREFIX = "DCFFAIR_"

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_ANALYTIC = 3

Outputs = tuple[dict, list[str]]  # a command's files by name, its lines

# A field is (rule, default); a None default makes the field optional. A
# rule is (test(value, n), text, convert), n being the station count, or
# a table of fields for a nested object.
_COUNT = (lambda v, n: is_int(v) and v >= 1, "an integer >= 1", int)
_STATION = (lambda v, n: is_int(v) and 0 <= v < n, "an integer in 0..{last}",
            int)
_COUNTS = (lambda v, n: isinstance(v, list) and all(
    _COUNT[0](x, n) for x in v), "a list of integers >= 1", list)
_POSITIVE = (lambda v, n: is_finite(v) and v > 0, "a number > 0", float)
_NON_NEGATIVE = (lambda v, n: is_finite(v) and v >= 0, "a number >= 0", float)
_EPS = (lambda v, n: is_finite(v) and 0 < v < 1 and is_finite(1.0 / v),
        "a number in (0, 1) with a finite 1/eps", float)  # for ln(1/eps)
_TEXT = (lambda v, n: isinstance(v, str), "a string", str)
# conditional_pmf's zero-head jump is measured up to _L_CAP
_WINDOW_L = (lambda v, n: _COUNT[0](v, n) and v <= fairmod._L_CAP,
             f"an integer in 1..{fairmod._L_CAP}", int)

# top-level fields; other top-level keys (scenario, ...) stay open
_TOP_FIELDS = {"payload_bits": (_POSITIVE, 8192), "out_dir": (_TEXT, ".")}
_SECTIONS = {
    # the other sim fields are SimConfig's, checked by build_sim_config
    "sim": {"reps": (_COUNT, 1)},
    "fairness": {"tagged": (_STATION, 0), "contender": (_STATION, 1),
                 "l": (_WINDOW_L, 1),
                 "window_lens": (_COUNTS, [10, 100, 1000])},
    "clock": {"tagged": (_STATION, 0)},
    "service_curve": {"tagged": (_STATION, 0), "eps": (_EPS, 1e-2),
                      "horizon_j": (_COUNT, 100),
                      "arrival": ({"sigma_b": (_NON_NEGATIVE, 0.0),
                                   "rho_pps": (_NON_NEGATIVE, 0.0)}, None)},
    "estimate": {"station": (_STATION, 0),
                 "min_period_departures": (_COUNT, 2),
                 "sample_counts": (_COUNTS, [100, 1000, 10000])},
}


def _apply_overrides(config: dict, seed: int | None,
                     environ=os.environ) -> dict:
    """DCFFAIR_* environment overrides, then the --seed override."""
    for key, raw in sorted(environ.items()):
        if not key.startswith(ENV_PREFIX):
            continue
        path = key[len(ENV_PREFIX):].lower().split("__")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = config
        for part in path[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"environment override {key} descends into "
                                  f"a non-object config field")
        node[path[-1]] = value
    if seed is not None:
        sim = config.setdefault("sim", {})
        if not isinstance(sim, dict):
            raise ConfigError('config needs a "sim" object')
        sim["seed"] = seed
    return config


def load_config(path: str | Path, seed_override: int | None = None) -> dict:
    try:
        with open(path) as fh:
            config = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    if not isinstance(config, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return _apply_overrides(config, seed_override)


def _mac_params(spec) -> MacParams | tuple[MacParams, ...]:
    specs = spec if isinstance(spec, list) else [{} if spec is None else spec]
    for obj in specs:
        if not isinstance(obj, dict):
            raise ConfigError("mac: expected an object of MAC fields")
        unknown = set(obj) - set(MacParams.__dataclass_fields__)
        if unknown:
            raise ConfigError(f"mac: unknown MAC fields {sorted(unknown)}")
    params = tuple(MacParams(**obj) for obj in specs)
    return params if isinstance(spec, list) else params[0]


def build_sim_config(config: dict) -> simmod.SimConfig:
    """The checked SimConfig of a config's sim and mac sections."""
    sim = config.get("sim")
    if not isinstance(sim, dict):
        raise ConfigError('config needs a "sim" object')
    if "n" not in sim:
        raise ConfigError('sim: field "n" is required')
    names = set(simmod.SimConfig.__dataclass_fields__) - {"params"}
    unknown = set(sim) - names - set(_SECTIONS["sim"])
    if unknown:
        raise ConfigError(f"sim: unknown fields {sorted(unknown)}")
    fields = {name: sim[name] for name in names & set(sim)}
    if isinstance(fields.get("arrival_rate_pps"), list):
        fields["arrival_rate_pps"] = tuple(fields["arrival_rate_pps"])
    cfg = simmod.SimConfig(params=_mac_params(config.get("mac")), **fields)
    cfg.validate()
    if cfg.mode == "poisson" and not any(cfg.arrival_rates()):
        raise ConfigError("sim.arrival_rate_pps needs a rate > 0, got "
                          f"{cfg.arrival_rate_pps!r}")
    return cfg


def _object(raw, table: dict, where: str, n: int, closed: bool = True) -> dict:
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} must be an object, got {raw!r}")
    unknown = set(raw) - set(table)
    if closed and unknown:
        raise ConfigError(f"{where}: unknown fields {sorted(unknown)}")
    typed = {}
    for name, (rule, default) in table.items():
        value = raw.get(name, default)
        if value is None and default is None:
            typed[name] = None
        elif isinstance(rule, dict):
            typed[name] = _object(value, rule, f"{where}.{name}", n)
        elif rule[0](value, n):
            typed[name] = rule[2](value)
        else:
            raise ConfigError(f"{where}.{name} must be "
                              f"{rule[1].format(last=n - 1)}, got {value!r}")
    return typed


def _read_settings(config: dict, n: int, sections) -> dict:
    """Top-level fields and the named sections, checked against the field
    tables; a fault raises ConfigError. n bounds the station indices."""
    settings = _object(config, _TOP_FIELDS, "config", n, closed=False)
    for name in sections:
        settings[name] = _object(config.get(name, {}), _SECTIONS[name], name,
                                 n, closed=name != "sim")
    pair = settings.get("fairness")
    if pair and pair["tagged"] == pair["contender"]:
        raise ConfigError("fairness.tagged and fairness.contender must be "
                          f"different stations, both are {pair['tagged']}")
    return settings


def _out_dir(path: str) -> tuple[Path, Path]:
    """The output directory, made if missing, and a new staging directory
    inside it; making that directory is the writability probe."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
        return out, Path(tempfile.mkdtemp(dir=out, prefix=".dcffair-"))
    except OSError as exc:
        raise ConfigError(f"output directory {out} not writable: {exc}")


def _jobs(arg: str) -> int:
    if not arg.isdecimal() or int(arg) < 1:
        raise ConfigError(f"--jobs must be an integer >= 1, got {arg}")
    return int(arg)


def _trace_file(read):
    """An argparse type: the named trace file, checked and read by read."""
    def parse(arg: str):
        if (path := Path(arg)).is_file():
            return read(path)
        raise ConfigError(f"input file not found: {path}")
    return parse


def _check_stations(what: str, stations: np.ndarray, n: int) -> None:
    """Raise naming the first of the trace's stations outside 0..n-1."""
    outside = stations[(stations < 0) | (stations >= n)]
    if outside.size:
        raise TraceFormatError(f"{what} {outside[0]} is outside 0..{n - 1}")


def _json_text(path: Path, payload: dict) -> str:
    """payload as the text of the JSON file path. JSON holds no NaN or
    Infinity: a value that is not finite raises ModelError naming path."""
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError:
        raise ModelError(f"{path}: a value is not finite, which JSON "
                         "cannot hold") from None
    return text + "\n"


def _commit(files: dict, out: Path, stage: Path) -> None:
    """Write every file into stage, then move each into out. JSON is checked
    before any file is written, and a directory in the way before any is
    moved, so a failure leaves out as it was. OSError raises ConfigError."""
    texts = {name: _json_text(out / name, payload)
             for name, payload in files.items() if name.endswith(".json")}
    try:
        for name, payload in files.items():
            if (out / name).is_dir():  # os.replace cannot put a file there
                raise IsADirectoryError(None, "is a directory")
            if name in texts:
                (stage / name).write_text(texts[name])
            elif isinstance(payload, dict):
                traceio.write_csv(stage / name, payload)
            else:  # a trace, by its name: write_slot_trace_csv for slot_trace
                getattr(traceio, f"write_{name[:-4]}_csv")(payload,
                                                           stage / name)
        for name in files:
            os.replace(stage / name, out / name)
    except OSError as exc:
        raise ConfigError(f"cannot write {out / name}: "
                          f"{exc.strerror or exc}") from None


@functools.lru_cache(maxsize=1)  # one solve per demo; callers only read it
def _tagged_model(params: tuple[MacParams, ...]):
    """Fixed point + slot distribution for the stations' MAC parameters.
    The slot distribution has one success and one collision duration, so
    the stations must share their frame timing."""
    for name in ("difs", "sifs", "ack_dur", "header_dur", "payload_dur"):
        values = [getattr(p, name) for p in params]
        if len(set(values)) > 1:
            raise ConfigError(f"mac.{name} must be the same for every "
                              f"station in the model, got {values}")
    if all(p == params[0] for p in params):
        sol = solve_attempt_fixed_point(params[0], len(params))
        taus = np.full(len(params), sol.tau)
    else:
        taus = solve_attempt_fixed_point_vector(params).taus
    return taus, slot_distribution(taus, params[0])


def cmd_simulate(sim_cfg: simmod.SimConfig, settings: dict,
                 jobs: int = 1) -> Outputs:
    started = time.perf_counter()
    result = simmod.run(sim_cfg)
    elapsed = time.perf_counter() - started
    reps = settings["sim"]["reps"]
    files = {"slot_trace.csv": result.slots, "event_trace.csv": result.events,
             "ownership.csv": result.success_owners}
    payload_bits = settings["payload_bits"]
    c = result.counters
    files["summary.json"] = {
        "n": sim_cfg.n, "mode": sim_cfg.mode, "seed": sim_cfg.seed,
        "slots": c.n_slots, "wallclock_us": c.wallclock_us,
        "slot_counts": {"idle": c.idle_slots, "success": c.success_slots,
                        "collision": c.collision_slots},
        "per_station": {
            **{name: getattr(c, name).tolist() for name in (
                "arrivals", "successes", "drops", "attempts",
                "collisions_involved")},
            "throughput_pps": result.throughput_pps().tolist(),
            "throughput_bps": result.throughput_bps(payload_bits).tolist(),
        },
        "collision_rate_per_slot": c.collision_slots / max(c.n_slots, 1),
    }
    if reps > 1:  # replication 0 is the run above
        stats = np.vstack([result.throughput_pps(), simmod.replicate(
            sim_cfg, range(1, reps), jobs=jobs)])
        files["replications.csv"] = {
            "replication": range(reps),
            **{f"throughput_pps_{i}": stats[:, i] for i in range(sim_cfg.n)}}
    return ({name: data for name, data in files.items() if data is not None},
            [f"simulate: {c.n_slots} slots, {c.wallclock_us} us simulated",
             f"simulate: runtime {elapsed:.2f}s"])


def cmd_model(sim_cfg: simmod.SimConfig, settings: dict) -> Outputs:
    taus, dist = _tagged_model(sim_cfg.station_params())
    payload_bits = settings["payload_bits"]
    throughput = saturation_throughput(dist, payload_bits)
    model = netcalc.increment_model_from_slots(dist, 0)
    mean_i, var_i = netcalc.increment_moments(model)
    report = {
        "n": sim_cfg.n, "tau": taus.tolist(),
        "p_coll": [float(1.0 - np.prod(np.delete(1.0 - taus, i)))
                   for i in range(sim_cfg.n)],
        "q": dist.q.tolist(), "p_idle": dist.p_idle,
        "p_succ": dist.p_succ.tolist(), "p_coll_slot": dist.p_coll,
        "expected_slot_us": dist.expected_slot_us,
        "throughput_pps": (throughput / payload_bits).tolist(),
        "throughput_bps": throughput.tolist(),
        "increment_mean_us": mean_i, "increment_var_us2": var_i}
    return {"model.json": report}, [
        f"model: tau[0]={taus[0]:.6f}, S[0]={throughput[0]:.1f} bps"]


def cmd_fairness(sim_cfg: simmod.SimConfig, settings: dict,
                 owners: np.ndarray | None = None) -> Outputs:
    section = settings["fairness"]
    _, dist = _tagged_model(sim_cfg.station_params())
    tagged, contender, l = (section["tagged"], section["contender"],
                            section["l"])
    cpmf = fairmod.conditional_pmf(float(dist.q[tagged]),
                                   float(dist.q[contender]), l)
    mean, variance = fairmod.pmf_moments(cpmf)
    report = {"tagged": tagged, "contender": contender, "l": l,
              "beta": cpmf.beta, "k_max": cpmf.k_max,
              "tail_mass": cpmf.tail_mass, "mean": mean, "variance": variance}
    if owners is not None:
        _check_stations("ownership owner_id", owners, sim_cfg.n)
        stats = [fairmod.windowed_fairness(owners, wl, n_stations=sim_cfg.n)
                 for wl in section["window_lens"] if owners.size >= wl]
        report["windows"] = [
            {name: getattr(s, name) for name in
             ("window_len", "jain_mean", "jain_p05", "jain_p95")}
            for s in stats]
    return {"fairness_pmf.csv": {"k": range(cpmf.pmf.size),
                                 "probability": cpmf.pmf},
            "fairness.json": report}, [
        f"fairness: beta={cpmf.beta:.4f}, E[K|{l}]={mean:.4f}"]


def cmd_clock(sim_cfg: simmod.SimConfig, settings: dict,
              trace: traceio.SlotTrace | None = None) -> Outputs:
    if sim_cfg.mode != "saturated":  # the references assume a backlog
        raise ConfigError(f"sim.mode is {sim_cfg.mode!r}, but clock "
                          "compares with the saturated model only")
    if trace is None:
        raise ConfigError("clock analysis needs --slot-trace")
    success = trace.codes == traceio.SUCCESS
    _check_stations("slot trace owner", trace.owners[success], sim_cfg.n)
    _check_stations("slot trace collider", np.fromiter(
        chain.from_iterable(trace.colliders), np.int64), sim_cfg.n)
    section = settings["clock"]
    tagged = section["tagged"]
    _, dist = _tagged_model(sim_cfg.station_params())
    model = netcalc.increment_model_from_slots(dist, tagged)
    fair_increment, _ = netcalc.increment_moments(model)
    ct = clockmod.dcf_clock(trace, tagged, fair_increment)
    # GPS at the rate the DCF delivers, in packets/s (1-bit packets): every
    # station holds n_packets unit packets at t=0 with equal weights, so GPS
    # serves each at capacity/n and finishes packet j at j*n/capacity.
    capacity = float(saturation_throughput(dist, 1.0)[tagged]) * sim_cfg.n
    n_packets = ct.departures.size
    reference = np.arange(1, n_packets + 1) * sim_cfg.n / capacity * 1e6
    deviation = clockmod.clock_vs_gps(ct, reference)
    summary = {
        "tagged": tagged, "packets": n_packets,
        "fair_increment_us": fair_increment,
        "error_mean_us": float(np.mean(ct.errors)),
        "error_std_us": float(np.std(ct.errors, ddof=1))
        if n_packets > 1 else 0.0,
        "gps_capacity_pps": capacity,
        "deviation_vs_gps_us": {
            name: getattr(deviation, name)
            for name in ("mean", "p05", "p50", "p95", "max_abs")}}
    return {"clock.csv": {
        "j": range(1, n_packets + 1), "T_j_us": ct.departures,
        "I_j_us": ct.increments, "e_j_us": ct.errors},
        "clock_summary.json": summary}, [
        f"clock: {n_packets} packets, mean error "
        f"{summary['error_mean_us']:.2f} us"]


def cmd_servicecurve(sim_cfg: simmod.SimConfig, settings: dict,
                     plot_data: bool = False) -> Outputs:
    section = settings["service_curve"]
    tagged, eps = section["tagged"], section["eps"]
    _, dist = _tagged_model(sim_cfg.station_params())
    model = netcalc.increment_model_from_slots(dist, tagged)
    theta = netcalc.optimize_theta(model, eps, section["horizon_j"])
    sc = netcalc.service_curve(model, theta, eps)
    t_max = netcalc.theta_max(model)
    upper = 0.999 * t_max if np.isfinite(t_max) else 1.0
    thetas = np.geomspace(upper * 1e-4, upper, 32)
    curves = [netcalc.service_curve(model, th, eps) for th in thetas.tolist()]
    files = {"service_curve.csv": {
        "theta": thetas, "rate_pps": [c.rate for c in curves],
        "latency_s": [c.latency for c in curves], "eps": [eps] * len(curves)}}
    files["service_bounds.json"] = report = {
        "tagged": tagged, "eps": eps, "theta": theta,
        "theta_max": t_max if np.isfinite(t_max) else None,
        "rate_pps": sc.rate, "rate_bps": sc.rate * settings["payload_bits"],
        "latency_s": sc.latency,
        "increment_mean_us": netcalc.increment_moments(model)[0]}
    arrival = section["arrival"]
    if arrival is not None:
        env = netcalc.ArrivalEnvelope(sigma_b=arrival["sigma_b"],
                                      rho=arrival["rho_pps"])
        report["delay_bound_s"] = netcalc.delay_bound(env, sc)
        report["backlog_bound_pkts"] = netcalc.backlog_bound(env, sc)
    if plot_data:
        js = range(1, section["horizon_j"] + 1)
        files["plot_envelope.csv"] = {
            "j": js, "t_eps_us": [netcalc.t_epsilon_us(model, theta, eps, j)
                                  for j in js]}
    return files, [f"servicecurve: rate={sc.rate:.2f} pps, "
                   f"latency={sc.latency:.4f} s"]


def cmd_estimate(sim_cfg: simmod.SimConfig, settings: dict,
                 trace: traceio.EventTrace | None = None) -> Outputs:
    if trace is None:
        raise ConfigError("estimate analysis needs --event-trace")
    section = settings["estimate"]
    station = section["station"]
    min_deps = section["min_period_departures"]
    events = trace.for_station(station)
    estimate = estmod.estimate_fair_rate(events, min_deps)
    report = {"station": station, **dataclasses.asdict(estimate)}
    points = estmod.convergence_report(events, section["sample_counts"],
                                       min_deps)
    columns = {name: [getattr(p, name) for p in points]
               for name in estmod.ConvergencePoint.__dataclass_fields__}
    columns["truncated"] = list(map(int, columns["truncated"]))
    return {"estimate.json": report, "convergence.csv": columns}, [
        f"estimate: rate={estimate.rate_pps:.2f} pps "
        f"(ci {estimate.ci95[0]:.2f}..{estimate.ci95[1]:.2f})"]


DEMO_CONFIG = {
    "scenario": "demo",
    "mac": {"cw_min": 32, "cw_max": 1024, "max_backoff_stage": 5},
    "sim": {"n": 5, "mode": "saturated", "horizon_slots": 150_000, "seed": 7},
    "payload_bits": 8192,
    "fairness": {"tagged": 0, "contender": 1, "l": 1,
                 "window_lens": [10, 100, 1000]},
    "clock": {"tagged": 0},
    "service_curve": {"tagged": 0, "eps": 0.01, "horizon_j": 50,
                      "arrival": {"sigma_b": 5.0, "rho_pps": 5.0}},
    "estimate": {"station": 0, "sample_counts": [100, 1000, 5000]},
}


def cmd_demo(seed: int | None = None) -> Outputs:
    """End-to-end smoke pipeline on a small saturated scenario: config.json
    and the chain of commands' files, the analyses taking the run as is."""
    config = _apply_overrides(json.loads(json.dumps(DEMO_CONFIG)), seed)
    sim_cfg = build_sim_config(config)
    settings = _read_settings(config, sim_cfg.n, _SECTIONS)
    try:  # the config is input, so a value JSON cannot hold is exit 2
        _json_text(Path("config.json"), config)
    except ModelError as exc:
        raise ConfigError(str(exc)) from None
    files, lines = cmd_simulate(sim_cfg, settings)
    for more, more_lines in (
            cmd_model(sim_cfg, settings),
            cmd_fairness(sim_cfg, settings, files["ownership.csv"]),
            cmd_clock(sim_cfg, settings, files.get("slot_trace.csv")),
            cmd_servicecurve(sim_cfg, settings),
            cmd_estimate(sim_cfg, settings, files.get("event_trace.csv"))):
        files.update(more)
        lines += more_lines
    return {"config.json": config, **files}, lines


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dcffair", description=(
        "DCF fairness calculus: simulate, model, and analyze"))
    sub = parser.add_subparsers(dest="command", required=True)
    # command, the config section it reads besides sim and mac, help, and
    # its one option of its own, passed to cmd_<command> after settings
    for name, section, text, option, spec in (
            ("simulate", "sim", "run the slot-level simulator", "--jobs",
             dict(type=_jobs, default=1, help="parallel replications")),
            ("model", None, "analytical fixed point and rates", None, None),
            ("fairness", "fairness", "conditional pmf and Jain windows",
             "--ownership", dict(type=_trace_file(traceio.read_ownership_csv),
                                 help="ownership CSV for Jain windows")),
            ("clock", "clock", "departure clock vs GPS reference",
             "--slot-trace", dict(type=_trace_file(
                 traceio.read_slot_trace_csv), help="slot trace CSV")),
            ("servicecurve", "service_curve",
             "stochastic service curve and bounds", "--plot-data",
             dict(action="store_true",
                  help="also write plot_envelope.csv (j, t_eps_us)")),
            ("estimate", "estimate", "passive fair-rate estimate",
             "--event-trace", dict(type=_trace_file(
                 traceio.read_event_trace_csv), help="event trace CSV")),
            ("demo", None, "small end-to-end pipeline", None, None)):
        p = sub.add_parser(name, help=text)
        p.set_defaults(sections=(section,) if section else (), option=None)
        if name != "demo":
            p.add_argument("--config", required=True, help="JSON run config")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        if option:
            p.set_defaults(option=p.add_argument(option, **spec).dest)
    return parser


@np.errstate(all="ignore")  # no numpy warnings: a non-finite result exits 3
def main(argv: list[str] | None = None) -> int:
    stage = None
    try:
        args = _build_parser().parse_args(argv)
        if args.command == "demo":
            out, stage = _out_dir(args.out or "demo_out")
            files, lines = cmd_demo(seed=args.seed)
        else:
            config = load_config(args.config, seed_override=args.seed)
            sim_cfg = build_sim_config(config)
            settings = _read_settings(config, sim_cfg.n, args.sections)
            out, stage = _out_dir(args.out or settings["out_dir"])
            extra = (getattr(args, args.option),) if args.option else ()
            files, lines = globals()[f"cmd_{args.command}"](
                sim_cfg, settings, *extra)
        _commit(files, out, stage)
        print(*lines, f"{args.command}: {len(files)} files -> {out}",
              sep="\n", file=sys.stderr)
        return EXIT_OK
    except (ConfigError, TraceFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Error as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ANALYTIC
    finally:
        if stage is not None:
            shutil.rmtree(stage, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
