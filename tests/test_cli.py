"""Subcommand behavior: JSON payloads, exit codes, and golden stability."""

import json
import math
import os
import subprocess
import sys
from functools import reduce

import numpy as np
import pytest
from conftest import traced_peak
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from svmem import grover, statevec
from svmem.boolfn import default_var_names, from_minterms, needle, parse
from svmem.cli import build_parser
from svmem.errors import ResourceLimitError, SimulatorError
from svmem.grover import MAX_AMPLITUDE_UPDATES, MAX_ITERATIONS, MAX_SHOTS, sample_counts
from svmem.memory import CAPACITY_CAP, cam_match, ram_read, recognizes
from svmem.oracle import MAX_NETLIST_BYTES
from svmem.statevec import (
    DEFAULT_QUBIT_CAP,
    DEFAULT_SUPPORT_EPS,
    MAX_STATE_FILE_BYTES,
    StateVector,
    encode,
)


def _json(stdout):
    return json.loads(stdout)


@pytest.fixture
def state_file(tmp_path, run_cli):
    path = tmp_path / "word.json"
    code, out, err = run_cli(["encode", "ZZB", "--out", str(path)])
    assert code == 0 and out == ""
    return str(path)


# --- capacity ----------------------------------------------------------------

def test_capacity_three(run_cli):
    code, out, _ = run_cli(["capacity", "3"])
    assert code == 0
    data = _json(out)
    assert data["total"] == "27"
    assert data["rows"][1] == {"i": 1, "choose": 3, "codes": 4, "product": 12}


def test_capacity_three_golden(run_cli, tmp_path):
    want = (
        '{"n": 3, "rows": [{"i": 0, "choose": 1, "codes": 8, "product": 8}, '
        '{"i": 1, "choose": 3, "codes": 4, "product": 12}, '
        '{"i": 2, "choose": 3, "codes": 2, "product": 6}, '
        '{"i": 3, "choose": 1, "codes": 1, "product": 1}], "total": "27"}\n'
    )
    assert run_cli(["capacity", "3"]) == (0, want, "")
    path = tmp_path / "capacity.json"
    assert run_cli(["capacity", "3", "--out", str(path)]) == (0, "", "")
    assert path.read_bytes() == want.encode()


def test_capacity_zero(run_cli):
    assert _json(run_cli(["capacity", "0"])[1])["total"] == "1"


def test_capacity_twenty(run_cli):
    assert _json(run_cli(["capacity", "20"])[1])["total"] == "3486784401"


def test_capacity_over_cap_exit_2(run_cli):
    code, out, err = run_cli(["capacity", str(CAPACITY_CAP + 1)])
    assert code == 2
    assert _json(out) == {
        "status": "error",
        "error_message": f"capacity of {CAPACITY_CAP + 1} qubits exceeds the cap of {CAPACITY_CAP}",
    }
    assert err.startswith("svmem: error:")


def test_oracle_emit_over_cap_exit_2(run_cli):
    # 2^24 lines of 182 bytes, refused before any line is built
    code, out, err = run_cli(["oracle-emit", "expr:1", "-n", "24"])
    assert code == 2
    assert _json(out) == {
        "status": "error",
        "error_message": "a netlist of 3053453322 bytes exceeds the cap of 268435456",
    }
    assert err.startswith("svmem: error:")


def test_capacity_usage_error(run_cli):
    code, _, err = run_cli(["capacity", "three"])
    assert code == 1
    assert "three" in err


# --- encode -------------------------------------------------------------------

def test_encode_three_qubit_word(run_cli):
    code, out, _ = run_cli(["encode", "ZZB"])
    assert code == 0
    data = _json(out)
    assert data["n"] == 3
    assert data["amps"] == [[1.0, 0.0]] * 2 + [[0.0, 0.0]] * 6


def test_encode_small_patterns(run_cli):
    assert _json(run_cli(["encode", "Z"])[1])["amps"] == [[1.0, 0.0], [0.0, 0.0]]
    assert _json(run_cli(["encode", "BB"])[1])["amps"] == [[1.0, 0.0]] * 4


def test_encode_golden_bytes(run_cli):
    # byte-for-byte golden output; every value here is arithmetic-exact
    _, out, _ = run_cli(["encode", "ZB"])
    assert out == (
        '{"n": 2, "amps": [[1.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}\n'
    )


def test_encode_bad_letter(run_cli):
    code, out, err = run_cli(["encode", "ZQB"])
    assert code == 1
    assert "pattern letter" in err
    assert _json(out)["status"] == "error"


def test_encode_resource_limit_exit_code(run_cli):
    code, out, err = run_cli(["encode", "B" * 25])
    assert code == 2
    assert "cap" in err
    assert _json(out)["status"] == "error"


# --- read ----------------------------------------------------------------------

def test_read_bits(run_cli, state_file):
    assert _json(run_cli(["read", state_file, "0"])[1]) == {
        "bit": 1, "probability": 0.5,
    }
    assert _json(run_cli(["read", state_file, "7"])[1]) == {
        "bit": 0, "probability": 0.0,
    }


def test_read_out_of_range_names_valid_range(run_cli, state_file):
    code, _, err = run_cli(["read", state_file, "9"])
    assert code == 1
    assert "0..7" in err


def test_read_missing_file(run_cli, tmp_path):
    code, _, err = run_cli(["read", str(tmp_path / "nope.json"), "0"])
    assert code == 1
    assert "nope.json" in err


def test_read_rejects_malformed_state(run_cli, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"n": 2, "amps": [[1, 0]]}')
    code, _, err = run_cli(["read", str(path), "0"])
    assert code == 1
    assert "amplitude pairs" in err


def test_read_huge_integer_amplitude(run_cli, tmp_path):
    path = tmp_path / "bigint.json"
    path.write_text('{"n": 1, "amps": [[1%s, 0], [0, 0]]}' % ("0" * 400))
    code, out, err = run_cli(["read", str(path), "0"])
    assert code == 1
    assert _json(out)["status"] == "error"
    assert "amplitude 0" in err


def test_read_tolerance_flag(run_cli, state_file):
    data = _json(run_cli(["read", state_file, "0", "--tolerance", "1.5"])[1])
    assert data == {"bit": 0, "probability": 0.5}


@pytest.mark.parametrize("command", ["read", "cam"])
@pytest.mark.parametrize("eps", ["-1", "0", "nan"])
def test_bad_tolerance_rejected(run_cli, state_file, command, eps):
    target = "7" if command == "read" else "needle:7"
    code, out, err = run_cli([command, state_file, target, "--tolerance", eps])
    assert code == 1
    assert _json(out)["error_message"].startswith("eps must be positive")
    assert err.startswith("svmem: error:")


@pytest.mark.parametrize("argv", [
    ["read", "{state}", "0"],
    ["cam", "{state}", "needle:0"],
    ["grover", "needle:0", "-n", "3"],
], ids=lambda argv: argv[0])
def test_negative_shots_rejected(run_cli, state_file, argv):
    argv = [state_file if a == "{state}" else a for a in argv]
    code, out, err = run_cli(argv + ["--shots", "-5"])
    assert code == 1
    assert _json(out) == {"status": "error", "error_message": "shots must be >= 0, got -5"}
    assert err.startswith("svmem: error:")


@pytest.mark.parametrize("argv", [
    ["read", "{state}", "0"],
    ["cam", "{state}", "needle:0"],
    ["grover", "needle:0", "-n", "3"],
], ids=lambda argv: argv[0])
def test_too_many_shots_exit_2(run_cli, state_file, argv):
    argv = [state_file if a == "{state}" else a for a in argv]
    code, out, err = run_cli(argv + ["--shots", "10000000000000"])
    assert code == 2
    assert _json(out) == {
        "status": "error",
        "error_message": f"10000000000000 shots exceeds the cap of {MAX_SHOTS}",
    }
    assert err.startswith("svmem: error:")


def test_read_with_shots(run_cli, state_file):
    argv = ["read", state_file, "0", "--shots", "100", "--seed", "7"]
    data = _json(run_cli(argv)[1])
    assert data["shots"] == 100
    assert sum(data["samples"].values()) == 100
    assert set(data["samples"]) <= {"0", "1"}
    assert data == _json(run_cli(argv)[1])  # seeded, so reproducible


# --- cam ------------------------------------------------------------------------

def test_cam_recognizes_stored_word(run_cli, state_file):
    data = _json(run_cli(["cam", state_file, "expr:a'b'"])[1])
    assert data == {"probability": 1.0, "recognizes": True}


def test_cam_partial_match(run_cli, state_file):
    data = _json(run_cli(["cam", state_file, "needle:0"])[1])
    assert data == {"probability": 0.5, "recognizes": False}


def test_cam_minterm_spec(run_cli, state_file):
    data = _json(run_cli(["cam", state_file, "minterms:0,1"])[1])
    assert data == {"probability": 1.0, "recognizes": True}


def test_cam_bad_function_specs(run_cli, state_file):
    assert run_cli(["cam", state_file, "expr:a+zoo"])[0] == 1
    assert run_cli(["cam", state_file, "minterms:9"])[0] == 1
    assert run_cli(["cam", state_file, "needle:abc"])[0] == 1
    assert run_cli(["cam", state_file, "spooky:1"])[0] == 1
    assert run_cli(["cam", state_file, "a'b'"])[0] == 1


# --- grover -----------------------------------------------------------------------

def test_grover_exact_two_qubit_case(run_cli):
    data = _json(run_cli(["grover", "needle:2", "-n", "2", "--shots", "50", "--seed", "1"])[1])
    assert data["iterations"] == 1
    assert data["simulated_success"] == 1.0
    assert data["samples"] == {"2": 50}


def test_grover_constant_true(run_cli):
    data = _json(run_cli(["grover", "expr:1", "-n", "3"])[1])
    assert data["iterations"] == 0
    assert data["simulated_success"] == 1.0


def test_grover_empty_truth_set(run_cli):
    code, _, err = run_cli(["grover", "minterms:", "-n", "3"])
    assert code == 1
    assert "marks no states" in err


def test_grover_explicit_iterations(run_cli):
    data = _json(run_cli(["grover", "needle:0", "-n", "3", "--iters", "2"])[1])
    assert data["iterations"] == 2
    upper = _json(run_cli(["grover", "needle:0", "-n", "3", "--iters", "AUTO"])[1])
    assert upper["iterations"] == 2  # the optimum for N=8, M=1


def test_grover_bad_iters(run_cli):
    assert run_cli(["grover", "needle:0", "-n", "3", "--iters", "few"])[0] == 1


def test_grover_too_many_iters_exit_2(run_cli):
    code, out, err = run_cli(["grover", "needle:0", "-n", "3", "--iters", "1000000000000"])
    assert code == 2
    assert _json(out) == {
        "status": "error",
        "error_message": f"1000000000000 iterations exceeds the cap of {MAX_ITERATIONS}",
    }
    assert err.startswith("svmem: error:")


def test_grover_missing_n(run_cli):
    code, _, err = run_cli(["grover", "needle:0"])
    assert code == 1
    assert "-n" in err


def test_grover_seeded_stdout_identical(run_cli):
    argv = ["grover", "needle:5", "-n", "6", "--seed", "42", "--shots", "1000"]
    first = run_cli(argv)
    second = run_cli(argv)
    assert first == second
    assert first[0] == 0


# --- oracle-emit -----------------------------------------------------------------------

def test_oracle_emit_expression(run_cli):
    code, out, _ = run_cli(["oracle-emit", "expr:a'b'", "-n", "3"])
    assert code == 0
    assert out == (
        "qubits 4\n"
        "mcx controls=(0,-),(1,-),(2,-) target=aux\n"
        "mcx controls=(0,-),(1,-),(2,+) target=aux\n"
    )


def test_oracle_emit_empty_function(run_cli):
    assert run_cli(["oracle-emit", "minterms:", "-n", "2"])[1] == "qubits 3\n"


def test_oracle_emit_needle(run_cli):
    assert run_cli(["oracle-emit", "needle:0", "-n", "2"])[1] == (
        "qubits 3\nmcx controls=(0,-),(1,-) target=aux\n"
    )


def test_oracle_emit_to_file(run_cli, tmp_path):
    path = tmp_path / "netlist.txt"
    code, out, _ = run_cli(["oracle-emit", "needle:3", "-n", "2", "--out", str(path)])
    assert code == 0 and out == ""
    assert path.read_text() == "qubits 3\nmcx controls=(0,+),(1,+) target=aux\n"


@pytest.mark.parametrize("command", ["oracle-emit", "grover"])
@pytest.mark.parametrize("n", ["-5", "0"])
def test_expr_needs_at_least_one_input(run_cli, command, n):
    code, out, err = run_cli([command, "expr:0", "-n", n])
    assert code == 1
    assert _json(out) == {"status": "error", "error_message": f"arity must be >= 1, got {n}"}
    assert err.startswith("svmem: error:")


def test_deep_nesting_is_a_json_error(run_cli):
    code, out, err = run_cli(["oracle-emit", "expr:" + "(" * 400 + "a" + ")" * 400, "-n", "2"])
    assert code == 1
    assert "nests too deeply" in _json(out)["error_message"]
    assert err.startswith("svmem: error:")


# --- global behavior ----------------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ["capacity", "3", "--shots", "5"],
    ["capacity", "3", "--tolerance", "2"],
    ["encode", "ZZB", "--seed", "1"],
    ["grover", "needle:0", "-n", "2", "--tolerance", "0.5"],
    ["oracle-emit", "needle:0", "-n", "2", "--shots", "5"],
], ids=lambda argv: f"{argv[0]}{argv[-2]}")
def test_unread_flag_is_a_usage_error(run_cli, argv):
    code, out, err = run_cli(argv)
    assert code == 1
    message = "unrecognized arguments: " + " ".join(argv[-2:])
    assert out == json.dumps({"status": "error", "error_message": message}) + "\n"
    assert err.startswith("usage:")
    assert err.endswith(f"svmem: error: {message}\n")


@pytest.mark.parametrize("argv", [
    ["read", "{state}", "0", "--seed", "3"],
    ["read", "{state}", "0", "--shots", "0", "--seed", "3"],
    ["cam", "{state}", "needle:0", "--seed", "3"],
], ids=["read", "read zero shots", "cam"])
def test_seed_without_shots_is_a_usage_error(run_cli, state_file, argv):
    # read and cam use the seed only to sample; grover reports it
    code, out, err = run_cli([state_file if a == "{state}" else a for a in argv])
    assert code == 1
    message = "argument --seed: " + argv[0] + " uses it only with a positive --shots"
    assert out == json.dumps({"status": "error", "error_message": message}) + "\n"
    assert err.startswith("usage:")
    assert err.endswith(f"svmem: error: {message}\n")
    code, out, _ = run_cli(["grover", "needle:0", "-n", "2", "--seed", "3"])
    assert code == 0 and _json(out)["seed"] == 3


def test_one_parser_per_process_leaks_nothing_between_calls(run_cli, state_file):
    # a usage error, then calls whose flags differ, on the one cached parser;
    # each output equals that of the same call on a freshly built parser
    calls = [
        ["read", state_file, "--shots"],
        ["read", state_file, "1"],
        ["cam", state_file, "expr:a'b'", "--shots", "40", "--seed", "5", "--tolerance", "0.5"],
        ["read", state_file, "0"],
    ]
    build_parser.cache_clear()
    shared = [run_cli(argv) for argv in calls]
    assert build_parser.cache_info().misses == 1
    fresh = []
    for argv in calls:
        build_parser.cache_clear()
        fresh.append(run_cli(argv))
    assert shared == fresh
    assert [code for code, _, _ in shared] == [1, 0, 0, 0]
    assert shared[0][2].startswith("usage: svmem read")
    assert shared[3][1] == '{"bit": 1, "probability": 0.5}\n'  # no shots, default tolerance


def test_unknown_command(run_cli):
    assert run_cli(["defrag"])[0] == 1


def test_unwritable_out_path(run_cli):
    code, out, err = run_cli(["encode", "ZZB", "--out", "/nonexistent_dir/x.json"])
    assert code == 1
    assert _json(out)["status"] == "error"
    assert "nonexistent_dir" in err


def test_error_payload_is_parseable_json(run_cli, state_file):
    for argv in (
        ["read", state_file, "99"],
        ["cam", state_file, "minterms:99"],
        ["grover", "minterms:", "-n", "2"],
        ["encode", "B" * 30],
        ["grover", "expr:a", "-n", "100000000"],  # rejected before naming 10^8 variables
    ):
        code, out, err = run_cli(argv)
        assert code in (1, 2)
        payload = _json(out)
        assert payload["status"] == "error"
        assert payload["error_message"]
        assert err.startswith("svmem: error:")


@pytest.mark.parametrize("argv", [["read", "0"], ["cam", "needle:0"], ["cam", "expr:a", "--shots", "5"]])
def test_overflowing_norm_is_a_json_error(run_cli, tmp_path, argv):
    # each amplitude is a finite double, but |a|^2 summed is not
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"n": 1, "amps": [[1e308, 0], [1e308, 0]]}))
    code, out, err = run_cli([argv[0], str(path), *argv[1:]])
    assert code == 1
    assert "NaN" not in out
    assert _json(out) == {
        "status": "error",
        "error_message": "the squared norm of the state overflows a double",
    }
    assert err.startswith("svmem: error:")


WHOLLY_INSIDE = {
    "one amplitude": {"n": 1, "amps": [[0.412, 1.043], [0.0, 0.0]]},
    "four real": {"n": 2, "amps": [[0.1, 0.0], [0.1, 0.0], [0.2, 0.0], [0.3, 0.0]]},
}


@pytest.mark.parametrize(
    "name, argv",
    [("one amplitude", ["read", "0"]), ("one amplitude", ["cam", "needle:0"]),
     ("four real", ["cam", "expr:a + a'"])],
)
def test_a_state_wholly_inside_prints_probability_one(run_cli, tmp_path, name, argv):
    # the gathered weight and the norm round apart (1.0000000000000002);
    # the reading comes from the weight outside, which is exactly 0
    path = tmp_path / "inside.json"
    path.write_text(json.dumps(WHOLLY_INSIDE[name]))
    code, out, _ = run_cli([argv[0], str(path), *argv[1:]])
    assert code == 0
    assert _json(out)["probability"] == 1.0


def test_grover_on_every_state_prints_success_one(run_cli):
    # the marked weight rounds above the norm (1.0000000000000004); every
    # state is marked, so the weight outside is exactly 0
    code, out, _ = run_cli(["grover", "expr:1", "-n", "9", "--iters", "1"])
    assert code == 0
    assert _json(out)["simulated_success"] == 1.0


@pytest.mark.parametrize("argv", [["read", "0"], ["cam", "needle:0"]])
def test_deeply_nested_state_file_is_a_json_error(run_cli, tmp_path, argv):
    # json recurses once per bracket, so this ends in a RecursionError inside json
    path = tmp_path / "deep.json"
    path.write_text('{"n": 1, "amps": ' + "[" * 100_000 + "]" * 100_000 + "}")
    code, out, err = run_cli([argv[0], str(path), *argv[1:]])
    assert code == 1
    assert _json(out) == {"status": "error", "error_message": "state file nests too deeply"}
    assert err.startswith("svmem: error:")


# --- read and cam keep the contract on any state file -----------------------------

AMPLITUDE_POOL = (0.0, -0.0, 1.0, -1.0, 0.5, 0.1, 5e-324)
FUNCTION_SPECS = (
    "expr:a", "expr:a'b", "expr:a + a'", "expr:ab + c'", "expr:1", "expr:a&b",
    "minterms:0,1", "minterms:0,3", "minterms:", "needle:0", "needle:2", "needle:40", "table:1",
)
STATE_FILE_EDITS = ("none", "no newline", "crlf", "truncated", *'[],"x', "\xff")


@st.composite
def state_files(draw):
    """(bytes, n) of a canonical state file of n <= 5, encoded or pooled, then at most one edit."""
    if draw(st.booleans()):
        psi = encode(draw(st.text("ZOB", min_size=1, max_size=5)))
    else:
        n = draw(st.integers(0, 5))
        parts = draw(st.lists(st.sampled_from(AMPLITUDE_POOL), min_size=2 << n, max_size=2 << n))
        psi = StateVector(n, np.array(parts).view(np.complex128))
    data = psi.to_json_text().encode("ascii") + b"\n"
    # half the files keep their pairs, so that most readouts succeed
    edit = draw(st.sampled_from(STATE_FILE_EDITS[:3 if draw(st.booleans()) else None]))
    at = draw(st.integers(0, 2**16))
    if edit == "no newline":
        data = data[:-1]
    elif edit == "crlf":
        data = data[:-1] + b"\r\n"
    elif edit == "truncated":
        data = data[: at % len(data)]
    elif len(edit) == 1:  # one byte written over
        at %= len(data)
        data = data[:at] + edit.encode("latin-1") + data[at + 1 :]
    return data, psi.n


def reference_readout(path, command, operand, tolerance, shots, seed):
    """The payload read or cam prints, from json.loads and from_json_dict, or the error."""
    try:
        with open(path) as fh:
            psi = StateVector.from_json_dict(json.loads(fh.read()))
        if command == "read":
            bit, probability = ram_read(psi, operand, tolerance)
            payload = {"bit": bit, "probability": probability}
        else:
            kind, _, body = operand.partition(":")
            if kind == "expr":
                f = parse(body, default_var_names(psi.n))
            elif kind == "minterms":
                f = from_minterms([int(k) for k in body.split(",") if k], psi.n)
            elif kind == "needle":
                f = needle(int(body), psi.n)
            else:
                raise ValueError(f"unknown function spec kind {kind!r}")
            probability = cam_match(psi, f)
            payload = {"probability": probability, "recognizes": recognizes(f, psi, tolerance)}
        if shots:
            counts = sample_counts(np.array([1.0 - probability, probability]), shots, seed)
            payload["shots"] = shots
            payload["samples"] = {str(bit): count for bit, count in counts.items()}
    except ResourceLimitError as exc:
        return 2, str(exc)
    except (SimulatorError, ValueError) as exc:
        return 1, str(exc)
    return 0, payload


@settings(
    deadline=None, max_examples=200, derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    state=state_files(),
    command=st.sampled_from(["read", "cam"]),
    address=st.integers(-1, 40),
    in_range=st.booleans(),
    spec=st.sampled_from(FUNCTION_SPECS),
    tolerance=st.sampled_from([None, 1e-3, 0.5, 0.0]),
    sampling=st.one_of(st.none(), st.tuples(st.integers(1, 20), st.integers(0, 2**64 - 1))),
)
def test_read_and_cam_keep_the_contract_on_any_state_file(
    run_cli, tmp_path, state, command, address, in_range, spec, tolerance, sampling
):
    data, n = state
    path = tmp_path / "state.json"
    path.write_bytes(data)
    if in_range:  # an address of the state as saved
        address %= 1 << n
    operand = address if command == "read" else spec
    argv = [command, str(path), str(operand)]
    if tolerance is not None:
        argv += ["--tolerance", repr(tolerance)]
    shots, seed = sampling or (0, None)
    if sampling:  # seeded, so that the samples are the reference's
        argv += ["--shots", str(shots), "--seed", str(seed)]
    code, out, err = run_cli(argv)
    eps = DEFAULT_SUPPORT_EPS if tolerance is None else tolerance
    expected = reference_readout(path, command, operand, eps, shots, seed)
    assert code in (0, 1, 2)
    assert code == expected[0]
    if code == 0:
        assert (out, err) == (json.dumps(expected[1]) + "\n", "")
    else:
        assert out == json.dumps({"status": "error", "error_message": expected[1]}) + "\n"
        assert err.startswith("svmem: error:")


# --- encode, oracle-emit, grover and capacity against a model that runs no svmem -------

FACTOR_VECTORS = {"Z": [1, 0], "O": [0, 1], "B": [1, 1]}
COUNTS = (-1, 0, 1, 2, 3, 4, 5, 6, DEFAULT_QUBIT_CAP + 1)


@st.composite
def function_specs(draw, n):
    """(spec, its truth set, or None if an index is out of range) on min(max(n, 1), 6) inputs."""
    inputs = min(max(n, 1), 6)
    size = 1 << inputs
    kind = draw(st.sampled_from(["minterms", "needle", "expr"]))
    if kind == "minterms":
        ks = draw(st.lists(st.integers(0, size), max_size=5))
        return "minterms:" + ",".join(map(str, ks)), None if size in ks else set(ks)
    if kind == "needle":
        k0 = draw(st.integers(0, size))
        return f"needle:{k0}", None if k0 == size else {k0}
    # a sum of cubes: each literal pins its input to 1, or to 0 where primed
    cubes = draw(st.lists(
        st.lists(st.sampled_from([None, 1, 0]), min_size=inputs, max_size=inputs), max_size=3))
    terms = ["".join("abcdef"[j] + ("" if bit else "'") for j, bit in enumerate(cube)
                     if bit is not None) or "1" for cube in cubes]
    truth = {k for k in range(size) for cube in cubes if all(
        bit is None or (k >> (inputs - 1 - j)) & 1 == bit for j, bit in enumerate(cube))}
    return "expr:" + (" + ".join(terms) or "0"), truth


# per command: its positionals and its required options, all valid; no file is opened
# before a usage error, so the state file need not exist
GOOD_ARGUMENTS = {
    "capacity": (["3"], []), "encode": (["ZZB"], []),
    "read": (["s.json", "0"], []), "cam": (["s.json", "needle:0"], []),
    "grover": (["needle:0"], ["-n", "2"]), "oracle-emit": (["needle:0"], ["-n", "2"]),
}
# per command: the integer arguments, as (where in argv, the name argparse gives it)
INTEGER_ARGUMENTS = {
    "capacity": [(1, "n")], "read": [(2, "k")], "grover": [(3, "-n")], "oracle-emit": [(3, "-n")],
}
# per command: a flag it does not read, and the message that refuses it
UNREAD_FLAGS = {
    "capacity": (["--shots", "5"], "unrecognized arguments: --shots 5"),
    "encode": (["--tolerance", "0.5"], "unrecognized arguments: --tolerance 0.5"),
    "oracle-emit": (["--seed", "1"], "unrecognized arguments: --seed 1"),
    "grover": (["--tolerance", "0.5"], "unrecognized arguments: --tolerance 0.5"),
    "read": (["--seed", "3"], "argument --seed: read uses it only with a positive --shots"),
    "cam": (["--seed", "3"], "argument --seed: cam uses it only with a positive --shots"),
}


@st.composite
def usage_errors(draw):
    """(argv, the parser's prog, its message) for one usage error, drawn by kind."""
    command = draw(st.sampled_from(sorted(GOOD_ARGUMENTS)))
    positionals, options = GOOD_ARGUMENTS[command]
    kind = draw(st.sampled_from(["missing positional", "unknown flag", "not an integer", "unread"]))
    if kind == "missing positional":
        # positionals bind in order, so the last one is the one missing
        dropped = draw(st.integers(0, len(positionals) - 1))
        argv = [command, *positionals[:dropped], *positionals[dropped + 1 :], *options]
        name = {"read": "k", "capacity": "n", "encode": "pattern"}.get(command, "function")
        return argv, f"svmem {command}", f"the following arguments are required: {name}"
    argv = [command, *positionals, *options]
    if kind == "unknown flag":
        return argv + ["--bogus"], "svmem", "unrecognized arguments: --bogus"
    if kind == "not an integer" and command in INTEGER_ARGUMENTS:
        at, name = draw(st.sampled_from(INTEGER_ARGUMENTS[command]))
        argv[at] = value = draw(st.sampled_from(["abc", "2.5", "1e3", "0x10", "nan"]))
        return argv, f"svmem {command}", f"argument {name}: invalid int value: '{value}'"
    flag, message = UNREAD_FLAGS[command]
    return argv + flag, "svmem", message


@st.composite
def cli_draws(draw):
    """(argv, the exit code it should give, a check of stdout on exit 0) for one command.

    For a usage error the check is (the parser's prog, its message) instead.
    """
    command = draw(st.sampled_from(["capacity", "encode", "oracle-emit", "grover", "usage"]))
    if command == "usage":
        argv, prog, message = draw(usage_errors())
        return argv, 1, (prog, message)
    if command == "capacity":
        n = draw(st.one_of(st.integers(-1, 40), st.just(CAPACITY_CAP + 1)))
        if n < 0 or n > CAPACITY_CAP:
            return ["capacity", str(n)], 1 if n < 0 else 2, None
        rows = [{"i": i, "choose": math.comb(n, i), "codes": 2 ** (n - i),
                 "product": math.comb(n, i) * 2 ** (n - i)} for i in range(n + 1)]
        text = json.dumps({"n": n, "rows": rows, "total": str(3**n)}) + "\n"
        return ["capacity", str(n)], 0, lambda out: out == text
    n = draw(st.sampled_from(COUNTS))
    if command == "encode":
        pattern = draw(st.text(draw(st.sampled_from(["ZOBzob", "ZOBzobX"])), min_size=max(n, 0),
                               max_size=max(n, 0)))
        if "X" in pattern or not pattern:
            return ["encode", pattern], 1, None
        if n > DEFAULT_QUBIT_CAP:
            return ["encode", pattern], 2, None
        amps = reduce(np.kron, [np.array(FACTOR_VECTORS[c.upper()], complex) for c in pattern])
        text = json.dumps({"n": n, "amps": [[a.real, a.imag] for a in amps.tolist()]}) + "\n"
        return ["encode", pattern], 0, lambda out: out == text
    spec, truth = draw(function_specs(n))
    argv = [command, spec, "-n", str(n)]
    if command == "grover":
        iters = draw(st.sampled_from(["auto", "AUTO", "0", "1", "2", "3", "4", "5"]))
        shots, seed = draw(st.one_of(
            st.just((0, None)), st.tuples(st.integers(1, 20), st.integers(0, 2**64 - 1))))
        argv += ["--iters", iters] + (["--shots", str(shots), "--seed", str(seed)] if shots else [])
    if n > DEFAULT_QUBIT_CAP:  # the arity or the iteration check refuses it first
        return argv, 2, None
    # an empty truth set has no Grover rotation, but an empty netlist
    if n < 1 or truth is None or (command == "grover" and not truth):
        return argv, 1, None
    if command == "oracle-emit":
        lines = [f"qubits {n + 1}\n"] + [
            "mcx controls=" + ",".join(f"({q},{'-+'[(k >> (n - 1 - q)) & 1]})" for q in range(n))
            + " target=aux\n" for k in sorted(truth)
        ]
        return argv, 0, lambda out: out == "".join(lines)
    size, marked = 1 << n, len(truth)
    theta = math.asin(math.sqrt(marked / size))
    # AUTO is round(pi / (4 theta) - 1/2), ties up: the first peak of sin^2((2k + 1) theta)
    k = math.floor(math.pi / (4 * theta)) if iters.lower() == "auto" else int(iters)
    predicted = math.sin((2 * k + 1) * theta) ** 2

    def check(out):
        report = json.loads(out)
        samples = report.pop("samples")
        assert abs(report.pop("simulated_success") - predicted) <= 1e-12
        assert sum(samples.values()) == shots and all(0 <= int(i) < size for i in samples)
        return report == {"n": n, "M": marked, "iterations": k, "predicted_success": predicted,
                          "seed": seed, "rng": grover.RNG_ALGORITHM}

    return argv, 0, check


@settings(
    deadline=None, max_examples=300, derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(draw=cli_draws())
def test_generated_commands_match_a_model_that_runs_no_svmem(run_cli, draw):
    argv, expected, check = draw
    code, out, err = run_cli(argv)
    assert code == expected
    if code == 0:
        assert check(out) and err == ""
    elif isinstance(check, tuple):  # a usage error: argparse's usage line, then the message
        prog, message = check
        assert out == json.dumps({"status": "error", "error_message": message}) + "\n"
        assert err.startswith(f"usage: {prog} ") and err.endswith(f"\n{prog}: error: {message}\n")
    else:
        message = json.loads(out)["error_message"]
        assert out == json.dumps({"status": "error", "error_message": message}) + "\n"
        assert err.startswith("svmem: error:")


def test_help_is_not_a_usage_error(run_cli):
    code, out, err = run_cli(["read", "--help"])
    assert (code, err) == (0, "")
    assert out.startswith("usage: svmem read ")


# --- read and cam on any state file against a model that runs no svmem -----------

def model_amplitudes(data):
    """(amplitudes, squared norm) of a state file by json.loads, or None if read must refuse it."""
    try:
        state = json.loads(data.decode("utf-8"))
    except ValueError:  # not UTF-8, or not JSON
        return None
    if not isinstance(state, dict) or type(state.get("n")) is not int:
        return None
    n, pairs = state["n"], state.get("amps")
    if n < 0 or type(pairs) is not list or len(pairs) != 1 << n or not all(
        type(p) is list and len(p) == 2 and all(type(v) in (int, float) for v in p) for p in pairs
    ):
        return None
    try:
        amps = [complex(re, im) for re, im in pairs]
        total = sum(abs(a) ** 2 for a in amps)
    except OverflowError:  # a part, a magnitude or a square past a double
        return None
    if not all(math.isfinite(abs(a)) for a in amps) or not 0 < total < math.inf:
        return None
    return amps, total


def model_readout(data, command, operand, truth, eps):
    """(exit code, payload on 0) of read or cam, from json.loads and pure-Python sums.

    truth is the truth set the spec was drawn with (None if it names an index
    out of range); the payload holds the probability and the bit or match.
    """
    state = model_amplitudes(data)
    if state is None or not eps > 0:
        return 1, None
    amps, total = state
    if command == "read":
        if not 0 <= operand < len(amps):
            return 1, None
        magnitude = abs(amps[operand])
        return 0, {"bit": int(magnitude > eps), "probability": magnitude**2 / total}
    if len(amps) < 2 or truth is None:  # a function needs an input; an index must be in range
        return 1, None
    support = {k for k, a in enumerate(amps) if abs(a) > eps}
    probability = sum(abs(amps[k]) ** 2 for k in truth) / total
    return 0, {"probability": probability, "recognizes": support == truth}


@settings(
    deadline=None, max_examples=200, derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    state=state_files(),
    command=st.sampled_from(["read", "cam"]),
    address=st.integers(-1, 40),
    in_range=st.booleans(),
    tolerance=st.sampled_from([None, 1e-3, 0.5, 0.0]),
    shots=st.sampled_from([0, 1, 20]),
    data=st.data(),
)
def test_read_and_cam_match_a_model_that_runs_no_svmem(
    run_cli, tmp_path, state, command, address, in_range, tolerance, shots, data
):
    raw, n = state
    path = tmp_path / "state.json"
    path.write_bytes(raw)
    spec, truth = data.draw(function_specs(n))
    operand = (address % (1 << n) if in_range else address) if command == "read" else spec
    argv = [command, str(path), str(operand)]
    if tolerance is not None:
        argv += ["--tolerance", repr(tolerance)]
    if shots:
        argv += ["--shots", str(shots), "--seed", "7"]
    code, out, err = run_cli(argv)
    eps = DEFAULT_SUPPORT_EPS if tolerance is None else tolerance
    expected, payload = model_readout(raw, command, operand, truth, eps)
    assert code == expected
    if code:
        error = json.loads(out)
        assert set(error) == {"status", "error_message"} and error["status"] == "error"
        assert err.startswith("svmem: error:")
        return
    report = json.loads(out)
    probability = report.pop("probability")
    assert math.isclose(probability, payload.pop("probability"), rel_tol=1e-12)
    if shots:  # samples of the two outcomes; a certain outcome takes every shot
        samples = report.pop("samples")
        assert report.pop("shots") == shots == sum(samples.values())
        assert set(samples) <= {"0", "1"}
        if probability in (0.0, 1.0):
            assert samples.get(str(int(probability))) == shots
    assert report == payload and err == ""


# --- every limit refuses its over-cap request before allocating for it ------------

# one request per limit: (argv, error message, bytes the request must build first)
OVER_CAP_REQUESTS = {
    "qubits": (
        ["encode", "B" * (DEFAULT_QUBIT_CAP + 1)],
        f"{DEFAULT_QUBIT_CAP + 1} qubits exceeds the cap of {DEFAULT_QUBIT_CAP}",
        0,
    ),
    "capacity": (
        ["capacity", str(CAPACITY_CAP + 1)],
        f"capacity of {CAPACITY_CAP + 1} qubits exceeds the cap of {CAPACITY_CAP}",
        0,
    ),
    "shots": (
        ["grover", "needle:0", "-n", "3", "--shots", str(MAX_SHOTS + 1)],
        f"{MAX_SHOTS + 1} shots exceeds the cap of {MAX_SHOTS}",
        0,
    ),
    "iterations": (
        ["grover", "needle:0", "-n", "3", "--iters", str(MAX_ITERATIONS + 1)],
        f"{MAX_ITERATIONS + 1} iterations exceeds the cap of {MAX_ITERATIONS}",
        0,
    ),
    "grover work": (
        ["grover", "needle:0", "-n", "24", "--iters", str(MAX_ITERATIONS)],
        f"{MAX_ITERATIONS << 24} amplitude updates ({MAX_ITERATIONS} iterations on 24 qubits) "
        f"exceeds the cap of {MAX_AMPLITUDE_UPDATES}",
        0,
    ),
    # the netlist's size counts the minterms, so the all-true function's
    # 2^21-entry table is built twice (parsed, then copied into BoolFn)
    "netlist bytes": (
        ["oracle-emit", "expr:1", "-n", "21"],
        f"a netlist of 337641482 bytes exceeds the cap of {MAX_NETLIST_BYTES}",
        2 << 21,
    ),
    "state-file bytes": (
        ["read", "{big}", "0"],
        f"state file {{big}} exceeds the cap of {MAX_STATE_FILE_BYTES} bytes",
        0,
    ),
}


@pytest.mark.parametrize("limit", list(OVER_CAP_REQUESTS))
def test_over_cap_request_exits_2_unallocated(run_cli, tmp_path, limit):
    argv, message, built = OVER_CAP_REQUESTS[limit]
    big = str(tmp_path / "big.json")
    with open(big, "w"):
        pass
    os.truncate(big, MAX_STATE_FILE_BYTES + 1)  # sparse: no block is written
    argv = [a.replace("{big}", big) for a in argv]
    (code, out, err), peak = traced_peak(lambda: run_cli(argv))
    assert code == 2
    assert _json(out) == {"status": "error", "error_message": message.replace("{big}", big)}
    assert err.startswith("svmem: error:")
    assert peak < (1 << 20) + built


# a count below its least value: (flags, error message)
NEGATIVE_COUNTS = {
    "iterations": (["--iters", "-1"], "iteration count must be >= 0, got -1"),
    "shots": (["--shots", "-1"], "shots must be >= 0, got -1"),
    "seed": (["--seed", "-3"], "seed must be >= 0, got -3"),
}


@pytest.mark.parametrize("count", list(NEGATIVE_COUNTS))
def test_negative_count_exits_1_unallocated(run_cli, count):
    # refused before the function's 2^22-entry table is built
    flags, message = NEGATIVE_COUNTS[count]
    (code, out, err), peak = traced_peak(lambda: run_cli(["grover", "needle:7", "-n", "22", *flags]))
    assert code == 1
    assert _json(out) == {"status": "error", "error_message": message}
    assert err.startswith("svmem: error:")
    assert peak < 1 << 20


def test_a_file_without_a_size_is_read_in_chunks_up_to_the_cap(run_cli, monkeypatch):
    # a device reports size 0 and never ends; it is refused once it passes the cap
    cap = 3 << 20
    monkeypatch.setattr(statevec, "MAX_STATE_FILE_BYTES", cap)
    (code, out, err), peak = traced_peak(lambda: run_cli(["read", "/dev/zero", "0"]))
    assert code == 2
    assert _json(out) == {
        "status": "error",
        "error_message": f"state file /dev/zero exceeds the cap of {cap} bytes",
    }
    assert err.startswith("svmem: error:")
    assert peak < 2 * cap


def test_a_piped_state_file_reads_as_the_file_does(tmp_path):
    # a pipe reports no size either: it is read in chunks to its end
    path = tmp_path / "s.json"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}

    def svmem(argv, stdin=None):
        done = subprocess.run([sys.executable, "-m", "svmem", *argv], input=stdin,
                              capture_output=True, env=env, timeout=120)
        return done.returncode, done.stdout, done.stderr

    assert svmem(["encode", "BOZB" + "B" * 12, "--out", str(path)])[0] == 0
    for argv in (["read", "{}", "33000"], ["cam", "{}", "expr:ab'c'"]):
        from_file = svmem([a.replace("{}", str(path)) for a in argv])
        assert from_file[0] == 0
        piped = svmem([a.replace("{}", "/dev/stdin") for a in argv], stdin=path.read_bytes())
        assert piped == from_file


def test_encode_out_holds_about_two_and_a_quarter_states(run_cli, tmp_path):
    # an n=20 encode (a 16 MiB state, 12 MiB of file): the state, one code
    # per pair and the file's bytes, gathered straight into the buffer
    # that is written
    path = tmp_path / "s.json"
    argv = ["encode", "BOZB" + "B" * 16, "--out", str(path)]
    (code, out, _), peak = traced_peak(lambda: run_cli(argv))
    assert (code, out) == (0, "")
    assert path.read_bytes().endswith(b"[0.0, 0.0]]}\n")
    assert peak <= 2.3 * (16 << 20)


def test_over_cap_shots_are_refused_before_the_search(run_cli, monkeypatch):
    calls = []
    monkeypatch.setattr(grover, "apply_phase", lambda *args: calls.append(args))
    code, out, _ = run_cli(["grover", "needle:0", "-n", "18", "--shots", str(MAX_SHOTS + 1)])
    assert code == 2
    assert _json(out)["error_message"] == f"{MAX_SHOTS + 1} shots exceeds the cap of {MAX_SHOTS}"
    assert calls == []
