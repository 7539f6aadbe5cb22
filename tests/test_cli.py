import contextlib
import copy
import hashlib
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcffair import cli, sim, traceio
from dcffair.cli import main

BASE_CONFIG = {
    "scenario": "test",
    "mac": {"cw_min": 32, "cw_max": 1024, "max_backoff_stage": 5},
    "sim": {"n": 3, "mode": "saturated", "horizon_slots": 20_000, "seed": 11},
    "payload_bits": 8192,
    "fairness": {"tagged": 0, "contender": 1, "l": 1,
                 "window_lens": [10, 100]},
    "clock": {"tagged": 0},
    "service_curve": {"tagged": 0, "eps": 0.01, "horizon_j": 20,
                      "arrival": {"sigma_b": 2.0, "rho_pps": 3.0}},
    "estimate": {"station": 0, "sample_counts": [50, 500]},
}


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(BASE_CONFIG))
    return path


def test_simulate_writes_traces_and_summary(config_path, tmp_path):
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(config_path),
                 "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["slots"] == 20_000
    assert len(summary["per_station"]["successes"]) == 3
    assert (out / "slot_trace.csv").exists()
    assert (out / "event_trace.csv").exists()
    assert (out / "ownership.csv").exists()


def test_simulate_byte_identical_reruns(config_path, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", str(config_path),
                 "--out", str(out1)]) == 0
    assert main(["simulate", "--config", str(config_path),
                 "--out", str(out2)]) == 0
    for name in ("slot_trace.csv", "event_trace.csv", "ownership.csv",
                 "summary.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_simulate_replications_table(config_path, tmp_path):
    config = json.loads(config_path.read_text())
    config["sim"]["reps"] = 3
    config["sim"]["horizon_slots"] = 4000
    path = tmp_path / "reps.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--out", str(out),
                 "--jobs", "2"]) == 0
    rows = (out / "replications.csv").read_text().strip().splitlines()
    assert len(rows) == 4  # header + one row per replication


def test_simulate_runs_each_replication_once(config_path, tmp_path,
                                             monkeypatch):
    # row 0 of replications.csv comes from the traced run, and the table is
    # the one replicate gives for replications 0..2
    config = json.loads(config_path.read_text())
    config["sim"].update(reps=3, horizon_slots=4000)
    path, out, want = tmp_path / "reps.json", tmp_path / "out", tmp_path / "w"
    path.write_text(json.dumps(config))
    rows = sim.replicate(cli.build_sim_config(config), range(3))
    traceio.write_csv(want, {"replication": range(3), **{
        f"throughput_pps_{i}": rows[:, i] for i in range(3)}})
    seen, real = [], sim.run

    def spy(cfg, *, replication=0, **kwargs):
        seen.append(replication)
        return real(cfg, replication=replication, **kwargs)

    monkeypatch.setattr(sim, "run", spy)
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
    assert seen == [0, 1, 2]
    assert (out / "replications.csv").read_bytes() == want.read_bytes()


@pytest.mark.parametrize("jobs", ["-3", "0", "2.5", "two"])
def test_bad_jobs_exit_2(jobs, config_path, tmp_path, capsys):
    # one run, no replications: --jobs is checked even where unused
    assert main(["simulate", "--config", str(config_path),
                 "--out", str(tmp_path), "--jobs", jobs]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: --jobs")


def test_model_report(config_path, tmp_path):
    out = tmp_path / "out"
    assert main(["model", "--config", str(config_path),
                 "--out", str(out)]) == 0
    report = json.loads((out / "model.json").read_text())
    assert len(report["tau"]) == 3
    assert report["q"] == pytest.approx([1 / 3] * 3)
    assert report["throughput_bps"][0] > 0


def test_simulate_throughput_consistent_with_model(tmp_path):
    config = {
        "mac": {"cw_min": 32},
        "sim": {"n": 10, "mode": "saturated", "horizon_slots": 300_000,
                "seed": 5, "record_slot_trace": False,
                "record_event_trace": False},
        "payload_bits": 8192,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
    assert main(["model", "--config", str(path), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    model = json.loads((out / "model.json").read_text())
    sim_bps = sum(summary["per_station"]["throughput_bps"]) / 10
    assert sim_bps == pytest.approx(model["throughput_bps"][0], rel=0.03)


def test_simulate_single_station_no_collisions(tmp_path):
    config = {"sim": {"n": 1, "horizon_slots": 5000, "seed": 1}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["slot_counts"]["collision"] == 0


def test_fairness_homogeneous_first_row(config_path, tmp_path):
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(config_path),
                 "--out", str(out)]) == 0
    assert main(["fairness", "--config", str(config_path), "--out", str(out),
                 "--ownership", str(out / "ownership.csv")]) == 0
    rows = (out / "fairness_pmf.csv").read_text().strip().splitlines()
    assert rows[0] == "k,probability"
    k, p = rows[1].split(",")
    assert k == "0" and float(p) == pytest.approx(0.5)
    windows = json.loads((out / "fairness.json").read_text())["windows"]
    assert [w["window_len"] for w in windows] == [10, 100]
    assert not (out / "fairness_windows.csv").exists()


def test_clock_outputs(config_path, tmp_path):
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(config_path),
                 "--out", str(out)]) == 0
    assert main(["clock", "--config", str(config_path), "--out", str(out),
                 "--slot-trace", str(out / "slot_trace.csv")]) == 0
    summary = json.loads((out / "clock_summary.json").read_text())
    assert summary["packets"] > 0
    header = (out / "clock.csv").read_text().splitlines()[0]
    assert header == "j,T_j_us,I_j_us,e_j_us"


def test_servicecurve_outputs(config_path, tmp_path):
    out = tmp_path / "out"
    assert main(["servicecurve", "--config", str(config_path),
                 "--out", str(out), "--plot-data"]) == 0
    report = json.loads((out / "service_bounds.json").read_text())
    assert report["rate_pps"] > 0
    assert "delay_bound_s" in report
    table = (out / "service_curve.csv").read_text().splitlines()
    assert table[0] == "theta,rate_pps,latency_s,eps"
    assert len(table) == 33
    assert (out / "plot_envelope.csv").exists()


def test_servicecurve_instability_exit_3(config_path, tmp_path, capsys):
    config = json.loads(config_path.read_text())
    config["service_curve"]["arrival"]["rho_pps"] = 1e9
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(config))
    assert main(["servicecurve", "--config", str(bad),
                 "--out", str(tmp_path / "out")]) == 3
    assert "instability" in _single_error_line(capsys.readouterr().err)


def _strict_json(path: Path):
    def reject(constant):
        raise AssertionError(f"{path.name} holds {constant}")

    return json.loads(path.read_text(), parse_constant=reject)


def test_estimate_lag1_of_constant_half_is_zero(config_path, tmp_path):
    # three samples 100, 100, 150: the lag pairs' first half is constant
    trace = tmp_path / "event_trace.csv"
    trace.write_text("station,packet_id,arrival_us,departure_us\n"
                     "0,0,0,100\n0,1,0,200\n0,2,0,300\n0,3,0,450\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["estimate", "--config", str(config_path), "--out",
                     str(tmp_path), "--event-trace", str(trace)]) == 0
    assert _strict_json(tmp_path / "estimate.json")["lag1_autocorr"] == 0.0


# command and the JSON file whose result overflows at payload_bits 1e308
OVERFLOWS = {"model": "model.json", "simulate": "summary.json",
             "servicecurve": "service_bounds.json"}


@pytest.mark.parametrize("command, name", OVERFLOWS.items(),
                         ids=OVERFLOWS.keys())
def test_non_finite_result_exit_3(command, name, tmp_path, capsys):
    config = copy.deepcopy(BASE_CONFIG)
    config["payload_bits"] = 1e308
    path, out = tmp_path / "cfg.json", tmp_path / "out"
    path.write_text(json.dumps(config))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # main lets no warning out
        assert main([command, "--config", str(path), "--out", str(out)]) == 3
    line = _single_error_line(capsys.readouterr().err)
    assert name in line and "not finite" in line
    assert not (out / name).exists()


def _listing(directory: Path) -> dict[str, str]:
    """Every entry of directory, hidden ones too: a file's sha256, or
    "dir"."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            if p.is_file() else "dir" for p in directory.iterdir()}


@pytest.fixture(scope="module")
def traces(tmp_path_factory) -> Path:
    """The directory of one simulate run of BASE_CONFIG."""
    out = tmp_path_factory.mktemp("traces")
    (out / "config.json").write_text(json.dumps(BASE_CONFIG))
    assert main(["simulate", "--config", str(out / "config.json"),
                 "--out", str(out)]) == 0
    return out


DEGENERATE_MAC = [{"cw_min": 1, "cw_max": 2}, {"cw_min": 16}]

# id: (command, changes to BASE_CONFIG as in BAD_INPUTS below, None or
# (trace option, the line of the simulated trace made a bad row, or None
# to keep every row), exit code)
FAILURES = {
    **{f"{command}-overflow": (command, {"payload_bits": 1e308}, None, 3)
       for command in OVERFLOWS},
    # a cw_min 1 station attempts in every slot at stage 0: its p is 0/0
    **{f"{command}-degenerate-mac": (command, {"mac": DEGENERATE_MAC,
                                               "sim.n": 2}, None, 3)
       for command in ("model", "fairness", "servicecurve")},
    "servicecurve-instability": (
        "servicecurve", {"service_curve.arrival.rho_pps": 1e9}, None, 3),
    "demo-instability": ("demo", {"DCFFAIR_SERVICE_CURVE__ARRIVAL":
                                  '{"sigma_b": 5.0, "rho_pps": 1e9}'},
                         None, 3),
    "demo-non-finite-config": ("demo", {"DCFFAIR_SCENARIO": "NaN"}, None, 2),
    "clock-bad-row": ("clock", {}, ("--slot-trace", 4000), 2),
    "estimate-bad-row": ("estimate", {}, ("--event-trace", 2000), 2),
    "fairness-bad-row": ("fairness", {}, ("--ownership", 2000), 2),
    # the trace reads, but the owner is outside the config's stations
    "fairness-owner-beyond-n": ("fairness", {"sim.n": 2},
                                ("--ownership", None), 2),
}


@pytest.mark.parametrize("command, changes, trace, code", FAILURES.values(),
                         ids=FAILURES.keys())
def test_failed_command_leaves_out_as_it_was(command, changes, trace, code,
                                             traces, tmp_path, capsys,
                                             monkeypatch):
    monkeypatch.setitem(cli.DEMO_CONFIG["sim"], "horizon_slots", 5000)
    config = copy.deepcopy(BASE_CONFIG)
    for key, value in changes.items():
        if key.startswith("DCFFAIR_"):
            monkeypatch.setenv(key, value)
        else:
            _set(config, key, value)
    path, out = tmp_path / "cfg.json", tmp_path / "out"
    path.write_text(json.dumps(config))
    argv = [command, "--out", str(out)]
    if command != "demo":
        argv += ["--config", str(path)]
    if trace:
        option, row = trace
        name = option[2:].replace("-", "_") + ".csv"
        lines = (traces / name).read_text().splitlines()
        if row is not None:
            lines[row] = lines[row].replace(",", ";", 1)
        (tmp_path / name).write_text("\n".join(lines) + "\n")
        argv += [option, str(tmp_path / name)]
    out.mkdir()
    (out / "keep").mkdir()
    for name in ("summary.json", "service_curve.csv", "ownership.csv"):
        (out / name).write_text(f"{name} of an earlier run\n")
    before = _listing(out)
    assert main(argv) == code
    _single_error_line(capsys.readouterr().err)
    assert _listing(out) == before


def test_clock_does_not_read_payload_bits(traces, tmp_path):
    # the GPS capacity is the model's packet rate, whatever the payload
    listings = []
    for bits in (8192, 1000, 1e308):
        config = copy.deepcopy(BASE_CONFIG)
        config["payload_bits"] = bits
        path, out = tmp_path / "cfg.json", tmp_path / str(bits)
        path.write_text(json.dumps(config))
        assert main(["clock", "--config", str(path), "--out", str(out),
                     "--slot-trace", str(traces / "slot_trace.csv")]) == 0
        listings.append(_listing(out))
    assert listings[0] == listings[1] == listings[2]


# command: one of the files it writes
WRITES = {"simulate": "summary.json", "fairness": "fairness_pmf.csv"}


@pytest.mark.parametrize("command, name", WRITES.items(), ids=WRITES.keys())
def test_directory_in_the_way_exit_2(command, name, config_path, tmp_path,
                                     capsys):
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    before = _listing(out)
    assert main([command, "--config", str(config_path),
                 "--out", str(out)]) == 2
    line = _single_error_line(capsys.readouterr().err)
    assert line.startswith(f"error: cannot write {out / name}: ")
    assert _listing(out) == before


def test_demo_solves_the_fixed_point_once(tmp_path, monkeypatch):
    calls, real = [], cli.solve_attempt_fixed_point

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setitem(cli.DEMO_CONFIG["sim"], "horizon_slots", 5000)
    monkeypatch.setattr(cli, "solve_attempt_fixed_point", spy)
    cli._tagged_model.cache_clear()  # an earlier test may have solved it
    assert main(["demo", "--out", str(tmp_path)]) == 0
    assert len(calls) == 1


def test_non_finite_config_value_exit_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("DCFFAIR_SCENARIO", "NaN")
    assert main(["demo", "--out", str(tmp_path)]) == 2
    line = _single_error_line(capsys.readouterr().err)
    assert "config.json" in line and "not finite" in line
    assert not (tmp_path / "config.json").exists()


def test_estimate_brackets_model_rate(config_path, tmp_path):
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(config_path),
                 "--out", str(out)]) == 0
    assert main(["model", "--config", str(config_path),
                 "--out", str(out)]) == 0
    assert main(["estimate", "--config", str(config_path), "--out", str(out),
                 "--event-trace", str(out / "event_trace.csv")]) == 0
    est = json.loads((out / "estimate.json").read_text())
    model = json.loads((out / "model.json").read_text())
    lo, hi = est["ci95"]
    assert lo < model["throughput_pps"][0] < hi
    assert (out / "convergence.csv").exists()


@pytest.mark.parametrize("payload_durs", [[700, 8192, 8192],
                                          [8192, 700, 8192]], ids=repr)
def test_model_rejects_mixed_frame_timing(payload_durs, tmp_path, capsys):
    # the model has one success and one collision duration, while the
    # simulator gives each station its own
    config = copy.deepcopy(BASE_CONFIG)
    config["mac"] = [{**config["mac"], "payload_dur": d}
                     for d in payload_durs]
    path, out = tmp_path / "cfg.json", tmp_path / "out"
    path.write_text(json.dumps(config))
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
    capsys.readouterr()
    for argv in (["model"], ["servicecurve"],
                 ["fairness", "--ownership", str(out / "ownership.csv")],
                 ["clock", "--slot-trace", str(out / "slot_trace.csv")]):
        assert main(argv + ["--config", str(path), "--out", str(out)]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "payload_dur" in lines[0]


def test_missing_config_exit_2(tmp_path, capsys):
    assert main(["simulate", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path)]) == 2
    assert "not found" in _single_error_line(capsys.readouterr().err)
    assert main(["simulate", "--config", str(tmp_path),
                 "--out", str(tmp_path)]) == 2
    _single_error_line(capsys.readouterr().err)


@pytest.mark.parametrize("command, option", [("fairness", "--ownership"),
                                             ("clock", "--slot-trace"),
                                             ("estimate", "--event-trace")])
def test_missing_trace_exit_2(command, option, config_path, tmp_path,
                              capsys):
    for missing in (tmp_path / "nope.csv", tmp_path):
        assert main([command, "--config", str(config_path), "--out",
                     str(tmp_path), option, str(missing)]) == 2
        assert "not found" in _single_error_line(capsys.readouterr().err)


def test_malformed_config_reports_location(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"sim": {')
    assert main(["simulate", "--config", str(bad),
                 "--out", str(tmp_path)]) == 2
    assert f"{bad}:1:" in _single_error_line(capsys.readouterr().err)


POISSON = {"sim.mode": "poisson"}

# id: (command, changes to BASE_CONFIG); a change sets a dotted config path,
# or an environment variable when its key starts with DCFFAIR_. The last
# change names the faulty field.
BAD_INPUTS = {
    "sim-unknown-field": ("simulate", {"sim.warp_speed": True}),
    "mac-float-cw_min": ("simulate", {"mac.cw_min": 32.0}),
    "sim-string-n": ("simulate", {"sim.n": "abc"}),
    "sim-float-n": ("simulate", {"sim.n": 2.7}),
    "sim-float-horizon": ("simulate", {"sim.horizon_slots": 100.5}),
    "sim-string-rate": ("simulate",
                        {**POISSON, "sim.arrival_rate_pps": "x"}),
    "sim-nan-rate": ("simulate",
                     {**POISSON, "sim.arrival_rate_pps": math.nan}),
    # a Poisson run with nothing arriving stops before its first slot
    "sim-zero-rate": ("simulate", {**POISSON, "sim.arrival_rate_pps": 0.0}),
    "sim-all-zero-rates": ("simulate", {**POISSON,
                                        "sim.arrival_rate_pps": [0, 0.0, 0]}),
    "sim-string-record": ("simulate", {"sim.record_slot_trace": "no"}),
    "sim-zero-reps": ("simulate", {"sim.reps": 0}),
    "string-payload": ("simulate", {"payload_bits": "x"}),
    "negative-payload": ("simulate", {"payload_bits": -5}),
    "zero-payload": ("model", {"payload_bits": 0}),
    "int-out_dir": ("simulate", {"out_dir": 5}),
    "fairness-zero-l": ("fairness", {"fairness.l": 0}),
    # above the l range conditional_pmf's zero-head jump covers
    "fairness-huge-l": ("fairness", {"fairness.l": 10_000_000}),
    "fairness-negative-tol": ("fairness", {"fairness.trunc_tol": -1}),
    # fields whose values the commands work out themselves
    "fairness-trunc-tol": ("fairness", {"fairness.trunc_tol": 1e-9}),
    "clock-fair-increment": ("clock", {"clock.fair_increment_us": 1000}),
    "service-curve-theta": ("servicecurve", {"service_curve.theta": 0.01}),
    "clock-poisson": ("clock", {"sim.arrival_rate_pps": 5.0,
                                "sim.mode": "poisson"}),
    "fairness-string-tagged": ("fairness", {"fairness.tagged": "x"}),
    "fairness-float-tagged": ("fairness", {"fairness.tagged": 1.9}),
    "fairness-unknown-field": ("fairness", {"fairness.bogus": 1}),
    # a pmf of a station against itself
    "fairness-tagged-is-contender": ("fairness", {"fairness.contender": 0}),
    "service-curve-eps-2": ("servicecurve", {"service_curve.eps": 2}),
    # subnormal: ln(1/eps) is inf and service_bounds.json not strict JSON
    "service-curve-subnormal-eps": ("servicecurve",
                                    {"service_curve.eps": 1e-320}),
    "service-curve-zero-horizon": ("servicecurve",
                                   {"service_curve.horizon_j": 0}),
    "service-curve-list-arrival": ("servicecurve",
                                   {"service_curve.arrival": [1]}),
    "demo-env-string-n": ("demo", {"DCFFAIR_SIM__N": "abc"}),
}


def _set(config: dict, dotted: str, value) -> None:
    *parents, leaf = dotted.split(".")
    node = config
    for part in parents:
        node = node[part]
    node[leaf] = value


@pytest.mark.parametrize("command, changes", BAD_INPUTS.values(),
                         ids=BAD_INPUTS.keys())
def test_unknown_field_exit_2(command, changes, tmp_path, capsys,
                              monkeypatch):
    config = copy.deepcopy(BASE_CONFIG)
    for key, value in changes.items():
        if key.startswith("DCFFAIR_"):
            monkeypatch.setenv(key, value)
        else:
            _set(config, key, value)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(config))
    argv = [command, "--out", str(tmp_path / "out")]
    assert main(argv if command == "demo"
                else argv + ["--config", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    field = list(changes)[-1].replace("__", ".").lower().rsplit(".", 1)[-1]
    assert field in lines[0]


FUZZ_CONFIG = {
    "mac": {"cw_min": 16, "cw_max": 64, "max_backoff_stage": 2,
            "retry_limit": 0, "slot_sigma": 20},
    "sim": {"n": 3, "mode": "saturated", "horizon_slots": 300, "seed": 1,
            "reps": 1, "record_slot_trace": False,
            "record_event_trace": False},
    "payload_bits": 8192,
    "fairness": {"tagged": 0, "contender": 1, "l": 2, "window_lens": [10]},
    "service_curve": {"tagged": 0, "eps": 0.01, "horizon_j": 10,
                      "arrival": {"sigma_b": 2.0, "rho_pps": 3.0}},
}


def _leaves(node: dict, prefix: str = "") -> list[str]:
    return [path for key, value in node.items()
            for path in (_leaves(value, f"{prefix}{key}.")
                         if isinstance(value, dict) else [prefix + key])]


FUZZ_PATHS = _leaves(FUZZ_CONFIG) + [
    f"{section}bogus" for section in ("", "mac.", "sim.", "fairness.",
                                      "service_curve.",
                                      "service_curve.arrival.")]
SCALARS = (st.none() | st.booleans() | st.integers(-5, 64)
           | st.floats(-1e3, 1e3)
           | st.sampled_from([math.nan, math.inf, -math.inf])
           | st.text(max_size=3))
VALUES = SCALARS | st.lists(SCALARS, max_size=3)
# a per-station mac list of small windows, cw_max up to 4 doublings on
STATION_MACS = st.lists(st.builds(
    lambda cw, doublings, m, retries: {
        "cw_min": cw, "cw_max": cw << doublings, "max_backoff_stage": m,
        "retry_limit": retries},
    st.sampled_from([1, 2, 4, 16]), st.integers(0, 4), st.integers(0, 3),
    st.integers(0, 3)), min_size=3, max_size=3)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(changes=st.lists(st.tuples(st.sampled_from(FUZZ_PATHS), VALUES),
                        min_size=1, max_size=3),
       macs=st.none() | STATION_MACS)
def test_exit_code_contract_under_fuzz(changes, macs):
    # overload (a Poisson rate far above saturation) is out of reach here:
    # the fuzzed config is saturated and its horizon bounds the run
    config = copy.deepcopy(FUZZ_CONFIG)
    for path, value in changes:
        _set(config, path, value)
    if macs is not None:
        config["mac"] = macs
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config))
        for command in ("simulate", "model", "fairness", "servicecurve"):
            stderr = io.StringIO()
            with contextlib.redirect_stderr(stderr):
                code = main([command, "--config", str(path),
                             "--out", str(Path(tmp) / "out")])
            assert code in (0, 2, 3)
            if code:
                _single_error_line(stderr.getvalue())


# id: (command, trace option, index of the corrupted line); BASE_CONFIG's
# run has 20,000 slots in 5,582 slot trace rows, and 2,830 successes
CORRUPT_TRACES = {
    "clock---slot-trace": ("clock", "--slot-trace", 4000),
    "fairness---ownership": ("fairness", "--ownership", 2000),
    "estimate---event-trace": ("estimate", "--event-trace", 2000),
}


@pytest.mark.parametrize("command, option, row", CORRUPT_TRACES.values(),
                         ids=CORRUPT_TRACES.keys())
def test_corrupt_trace_exit_2(command, option, row, config_path, tmp_path,
                              capsys):
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(config_path),
                 "--out", str(out)]) == 0
    trace = out / (option[2:].replace("-", "_") + ".csv")
    lines = trace.read_text().splitlines()
    lines[row] = lines[row].replace(",", ";", 1)
    trace.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main([command, "--config", str(config_path), "--out", str(out),
                 option, str(trace)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"error: {trace}:{row + 1}: bad row")


# id: (the last row of a slot trace, the reason named after its line);
# the rows before it are valid and the prefix sums hold
IMPOSSIBLE_SLOTS = {
    "duration-0": ("3,1000,success,2,0", "duration_us 0, expected >= 1"),
    "duration-negative": ("3,1000,success,2,-20",
                          "duration_us -20, expected >= 1"),
    "idle-unequal": ("3,1000,idle,1,30", "idle duration_us 30, expected 20"),
    "idle-count-0": ("3,1000,idle,0,20", "idle count 0, expected >= 1"),
    "idle-count-negative": ("3,1000,idle,-2,20",
                            "idle count -2, expected >= 1"),
    "idle-not-count-times-sigma": ("3,1000,idle,2,60",
                                   "idle duration_us 60, expected 40"),
    "slot-index-not-count-sum": ("4,1000,success,2,500",
                                 "slot_index 4, expected 3"),
    "start-not-duration-sum": ("3,1020,success,2,500",
                               "wallclock_start_us 1020, expected 1000"),
    "owner-negative": ("3,1000,success,-1,500", "success owner -1, "),
    "one-collider": ("3,1000,collision,3,480", "colliders 3, "),
    "descending-colliders": ("3,1000,collision,2;1,480", "colliders 2;1, "),
    "repeated-collider": ("3,1000,collision,1;1,480", "colliders 1;1, "),
    "negative-collider": ("3,1000,collision,-1;2,480", "colliders -1;2, "),
}


@pytest.mark.parametrize("row, reason", IMPOSSIBLE_SLOTS.values(),
                         ids=IMPOSSIBLE_SLOTS.keys())
def test_impossible_slot_exit_2(row, reason, config_path, tmp_path, capsys):
    trace = tmp_path / "slot_trace.csv"
    trace.write_text("\r\n".join([
        "slot_index,wallclock_start_us,outcome,owner_or_colliders,"
        "duration_us", "0,0,success,1,500", "1,500,idle,1,20",
        "2,520,collision,0;2,480", row]) + "\r\n")
    assert main(["clock", "--config", str(config_path), "--out",
                 str(tmp_path / "out"), "--slot-trace", str(trace)]) == 2
    line = _single_error_line(capsys.readouterr().err)
    assert line.startswith(f"error: {trace}:5: {reason}")


# id: (the last row of a slot trace, the value and range named); the file
# is valid, but BASE_CONFIG has stations 0..2 only
STATIONS_BEYOND_N = {
    "owner-3": ("3,1000,success,3,500", "slot trace owner 3 is outside 0..2"),
    "collider-7": ("3,1000,collision,0;7,480",
                   "slot trace collider 7 is outside 0..2"),
}


@pytest.mark.parametrize("row, reason", STATIONS_BEYOND_N.values(),
                         ids=STATIONS_BEYOND_N.keys())
def test_clock_station_outside_config_exit_2(row, reason, config_path,
                                             tmp_path, capsys):
    trace = tmp_path / "slot_trace.csv"
    trace.write_text("\r\n".join([
        "slot_index,wallclock_start_us,outcome,owner_or_colliders,"
        "duration_us", "0,0,success,1,500", "1,500,idle,1,20",
        "2,520,collision,0;2,480", row]) + "\r\n")
    assert main(["clock", "--config", str(config_path), "--out",
                 str(tmp_path / "out"), "--slot-trace", str(trace)]) == 2
    assert _single_error_line(capsys.readouterr().err) == f"error: {reason}"


EVENT_HEADER = "station,packet_id,arrival_us,departure_us"
# id: (the last row of an event trace, the reason named after its line);
# the rows before it are valid
IMPOSSIBLE_EVENTS = {
    "station-negative": ("-1,0,600,1200", "station -1, expected >= 0"),
    "packet-id-repeated": ("0,1,600,1200",
                           "packet_id 1, expected above 1, station 0's "
                           "previous packet_id"),
    "packet-id-falling": ("1,4,600,1200",
                          "packet_id 4, expected above 5, station 1's "
                          "previous packet_id"),
    "departure-at-arrival": ("2,0,600,600",
                             "departure_us 600.0, expected above "
                             "arrival_us 600.0"),
    "departure-before-arrival": ("2,0,600,599.5",
                                 "departure_us 599.5, expected above "
                                 "arrival_us 600.0"),
    "arrival-nan": ("2,0,nan,1200", "arrival_us nan, expected a finite time"),
    "arrival-minus-inf": ("2,0,-inf,1200",
                          "arrival_us -inf, expected a finite time"),
    "departure-inf": ("2,0,600,inf",
                      "departure_us inf, expected a finite time"),
}


@pytest.mark.parametrize("row, reason", IMPOSSIBLE_EVENTS.values(),
                         ids=IMPOSSIBLE_EVENTS.keys())
def test_impossible_event_exit_2(row, reason, config_path, tmp_path, capsys):
    trace = tmp_path / "event_trace.csv"
    trace.write_text("\r\n".join([
        EVENT_HEADER, "0,0,0,500", "1,5,100,1000", "0,1,200,1500",
        row]) + "\r\n")
    assert main(["estimate", "--config", str(config_path), "--out",
                 str(tmp_path / "out"), "--event-trace", str(trace)]) == 2
    line = _single_error_line(capsys.readouterr().err)
    assert line == f"error: {trace}:5: {reason}"


def test_estimate_ignores_stations_beyond_config(config_path, tmp_path):
    # an external capture may hold more stations than the config's n; the
    # estimate reads only its own station's events
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(config_path),
                 "--out", str(out)]) == 0
    trace = out / "event_trace.csv"
    lines = trace.read_text().splitlines()
    wider = tmp_path / "wider.csv"
    wider.write_text("\n".join(lines[:2] + ["7,0,0,40", "9,0,5,50"]
                               + lines[2:]) + "\n")
    estimates = []
    for path in (trace, wider):
        run_out = tmp_path / path.stem
        assert main(["estimate", "--config", str(config_path), "--out",
                     str(run_out), "--event-trace", str(path)]) == 0
        estimates.append((run_out / "estimate.json").read_bytes())
    assert estimates[0] == estimates[1]


def _single_error_line(err: str) -> str:
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    return lines[0]


def test_clock_on_header_only_trace_exit_3(config_path, tmp_path, capsys):
    trace = tmp_path / "slot_trace.csv"
    traceio.write_slot_trace_csv(traceio.SlotTrace.from_lists([], [], []),
                                 trace)
    assert main(["clock", "--config", str(config_path), "--out",
                 str(tmp_path / "out"), "--slot-trace", str(trace)]) == 3
    assert "never succeeds" in _single_error_line(capsys.readouterr().err)


# a short file: the default window lengths build no window from it
@pytest.mark.parametrize("window_lens", [[1], None], ids=["1", "default"])
@pytest.mark.parametrize("owner", [7, -2])
def test_owner_outside_stations_exit_2(owner, window_lens, tmp_path,
                                       capsys):
    config = copy.deepcopy(BASE_CONFIG)
    if window_lens is None:
        del config["fairness"]["window_lens"]
    else:
        config["fairness"]["window_lens"] = window_lens
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    ownership = tmp_path / "ownership.csv"
    traceio.write_ownership_csv([0, 1, owner, 2, 0], ownership)
    assert main(["fairness", "--config", str(path), "--out",
                 str(tmp_path / "out"), "--ownership", str(ownership)]) == 2
    line = _single_error_line(capsys.readouterr().err)
    assert f"owner_id {owner} " in line and "0..2" in line


def test_env_override(config_path, tmp_path, monkeypatch):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    monkeypatch.setenv("DCFFAIR_SIM__SEED", "123")
    assert main(["simulate", "--config", str(config_path),
                 "--out", str(out1)]) == 0
    monkeypatch.delenv("DCFFAIR_SIM__SEED")
    assert main(["simulate", "--config", str(config_path), "--seed", "123",
                 "--out", str(out2)]) == 0
    assert (out1 / "slot_trace.csv").read_bytes() \
        == (out2 / "slot_trace.csv").read_bytes()


def test_demo_pipeline(tmp_path):
    out = tmp_path / "demo"
    assert main(["demo", "--out", str(out)]) == 0
    for name in ("summary.json", "model.json", "fairness.json",
                 "clock_summary.json", "service_bounds.json",
                 "estimate.json"):
        assert (out / name).exists()


def test_demo_equals_chain_of_commands(tmp_path):
    demo, chain = tmp_path / "demo", tmp_path / "chain"
    assert main(["demo", "--out", str(demo), "--seed", "5"]) == 0
    common = ["--config", str(demo / "config.json"), "--out", str(chain)]
    for command, *trace in (["simulate"], ["model"],
                            ["fairness", "--ownership", "ownership.csv"],
                            ["clock", "--slot-trace", "slot_trace.csv"],
                            ["servicecurve"],
                            ["estimate", "--event-trace", "event_trace.csv"]):
        option = [trace[0], str(chain / trace[1])] if trace else []
        assert main([command] + common + option) == 0
    names = sorted(p.name for p in chain.iterdir())
    assert names == sorted(p.name for p in demo.iterdir()
                           if p.name != "config.json")
    for name in names:
        assert (demo / name).read_bytes() == (chain / name).read_bytes(), name


def test_demo_reads_no_trace_file(tmp_path, monkeypatch):
    def unread(path):
        raise AssertionError(f"demo read back {path}")

    monkeypatch.setitem(cli.DEMO_CONFIG["sim"], "horizon_slots", 5000)
    for name in ("read_slot_trace_csv", "read_event_trace_csv",
                 "read_ownership_csv"):
        monkeypatch.setattr(traceio, name, unread)
    assert main(["demo", "--out", str(tmp_path)]) == 0
