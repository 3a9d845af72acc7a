"""Subcommand behavior: JSON payloads, exit codes, and golden stability."""

import json

import pytest


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


def test_capacity_zero(run_cli):
    assert _json(run_cli(["capacity", "0"])[1])["total"] == "1"


def test_capacity_twenty(run_cli):
    assert _json(run_cli(["capacity", "20"])[1])["total"] == "3486784401"


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
    assert out == ""
    assert err.startswith("usage:")
    assert "unrecognized arguments: " + argv[-2] in err


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
