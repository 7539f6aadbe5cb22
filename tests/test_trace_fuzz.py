"""The exit-code contract under mutated trace files.

Small valid slot, event and ownership traces come from one short run of
the simulator. Each example rewrites fields of their rows or bytes of the
file, then runs the command that reads that trace (clock, estimate or
fairness). Whatever the input, the command exits 0, 2 (input) or 3
(analytic); a nonzero exit prints exactly one line, starting "error: ",
and leaves the pre-filled output directory as it was; nothing exits with a
traceback, and no staging directory is left behind.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcffair.cli import main

CONFIG = {
    "mac": {"cw_min": 4, "cw_max": 16, "max_backoff_stage": 2},
    "sim": {"n": 3, "mode": "saturated", "horizon_slots": 120, "seed": 3},
    "fairness": {"tagged": 0, "contender": 1, "l": 2, "window_lens": [2, 5]},
    "clock": {"tagged": 0},
    "estimate": {"station": 0, "min_period_departures": 2,
                 "sample_counts": [2, 5]},
}

# command: (its trace option, the trace file simulate writes)
COMMANDS = {
    "clock": ("--slot-trace", "slot_trace.csv"),
    "estimate": ("--event-trace", "event_trace.csv"),
    "fairness": ("--ownership", "ownership.csv"),
}


@pytest.fixture(scope="module")
def traces(tmp_path_factory) -> dict[str, bytes]:
    """Each command's valid trace, as bytes, from one short run."""
    out = tmp_path_factory.mktemp("traces")
    config = out / "config.json"
    config.write_text(json.dumps(CONFIG))
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
    return {name: (out / file).read_bytes()
            for name, (_, file) in COMMANDS.items()}


# a field's replacement: numbers at and beyond every range the readers
# check, other outcome names and collider lists, and short free text
FIELDS = (st.sampled_from([
    "", "0", "1", "2", "3", "7", "-1", "-20", "0.5", "1e308", "-1e308",
    "nan", "inf", "-inf", "99999999999999999999", "idle", "success",
    "collision", "0;1", "1;0", "1;1", "0;1;2", "-1;2", ";", "0x10", " 1",
])
          | st.integers(-10 ** 20, 10 ** 20).map(str)
          | st.text(max_size=3))
# (row, field, value): row 0 is the header; a field past the row's last
# is appended
FIELD_EDIT = st.tuples(st.just("field"), st.integers(0, 10 ** 6),
                       st.integers(0, 6), FIELDS)
# (offset, length, bytes): the length bytes at the offset are replaced
BYTE_EDIT = st.tuples(st.just("bytes"), st.integers(0, 10 ** 6),
                      st.integers(0, 4), st.binary(max_size=4))
EDITS = st.lists(FIELD_EDIT | BYTE_EDIT, min_size=1, max_size=3)


def mutate(data: bytes, edits) -> bytes:
    for kind, at, arg, value in edits:
        if kind == "field":
            lines = data.split(b"\r\n")
            row = lines[at % len(lines)].split(b",")
            if arg < len(row):
                row[arg] = value.encode(errors="surrogatepass")
            else:
                row.append(value.encode(errors="surrogatepass"))
            lines[at % len(lines)] = b",".join(row)
            data = b"\r\n".join(lines)
        else:
            at %= len(data) + 1
            data = data[:at] + value + data[at + arg:]
    return data


@settings(max_examples=200, derandomize=True, deadline=None)
@given(command=st.sampled_from(sorted(COMMANDS)), edits=EDITS)
def test_exit_code_contract_under_trace_fuzz(traces, command, edits):
    option, file = COMMANDS[command]
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(CONFIG))
        trace = Path(tmp) / file
        trace.write_bytes(mutate(traces[command], edits))
        out = Path(tmp) / "out"
        out.mkdir()
        (out / "clock.csv").write_bytes(b"an earlier run\n")
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = main([command, "--config", str(config), "--out",
                         str(out), option, str(trace)])
        listing = sorted(p.name for p in out.iterdir())
        earlier = (out / "clock.csv").read_bytes()
    err = stderr.getvalue()
    assert code in (0, 2, 3)
    assert "Traceback" not in err
    assert not [name for name in listing if name.startswith(".dcffair-")]
    if code:
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err
        assert listing == ["clock.csv"]
        assert earlier == b"an earlier run\n"


def test_unmutated_traces_exit_0(traces, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(CONFIG))
    for command, (option, file) in COMMANDS.items():
        trace = tmp_path / file
        trace.write_bytes(traces[command])
        assert main([command, "--config", str(config), "--out",
                     str(tmp_path / "out"), option, str(trace)]) == 0
