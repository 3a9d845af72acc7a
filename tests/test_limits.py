"""Every bounded count at its edges, and the json route's value bound.

One count rule (`statevec.check_count`) writes every lower-bound ValueError
and one cap check (`statevec.check_cap`) every over-cap ResourceLimitError;
the table pins each entry point's message one value below its bound and one
past its cap, and a seed that is not an integer by its TypeError.
"""

import json

import numpy as np
import pytest
from conftest import traced_peak

from svmem import grover, statefile, statevec
from svmem.boolfn import BoolFn, count_functions, default_var_names, from_minterms, needle, parse
from svmem.errors import ResourceLimitError
from svmem.grover import (
    MAX_AMPLITUDE_UPDATES,
    MAX_ITERATIONS,
    MAX_SHOTS,
    check_iterations,
    predicted_success,
    run,
    sample_counts,
    uniform_state,
)
from svmem.memory import CAPACITY_CAP, capacity, capacity_json_text, enumerate_patterns
from svmem.oracle import MAX_NETLIST_BYTES, apply_phase, emit_circuit
from svmem.statevec import DEFAULT_QUBIT_CAP, StateVector, encode, kron

PAST = DEFAULT_QUBIT_CAP + 1
QUBITS_PAST = (ResourceLimitError, f"{PAST} qubits exceeds the cap of {DEFAULT_QUBIT_CAP}")
ARITY_BELOW = (ValueError, "arity must be >= 1, got 0")

BOUNDED_ENTRY_POINTS = {
    "StateVector below": (
        lambda: StateVector(-1, np.ones(1)), ValueError, "qubit count must be >= 0, got -1"
    ),
    "StateVector past": (lambda: StateVector(PAST, np.ones(1)), *QUBITS_PAST),
    "kron past": (lambda: kron(encode("B" * 12), encode("B" * (PAST - 12))), *QUBITS_PAST),
    "needle below": (lambda: needle(0, 0), *ARITY_BELOW),
    "needle past": (lambda: needle(0, PAST), *QUBITS_PAST),
    "from_minterms below": (lambda: from_minterms([], 0), *ARITY_BELOW),
    "from_minterms past": (lambda: from_minterms([], PAST), *QUBITS_PAST),
    "parse below": (lambda: parse("1", []), *ARITY_BELOW),
    "parse past": (lambda: parse("1", [f"x{q}" for q in range(PAST)]), *QUBITS_PAST),
    "default_var_names below": (lambda: default_var_names(0), *ARITY_BELOW),
    "default_var_names past": (lambda: default_var_names(PAST), *QUBITS_PAST),
    "count_functions below": (
        lambda: count_functions(-1), ValueError, "arity must be >= 0, got -1"
    ),
    "count_functions past": (lambda: count_functions(PAST), *QUBITS_PAST),
    "uniform_state below": (
        lambda: uniform_state(0), ValueError, "qubit count must be >= 1, got 0"
    ),
    "uniform_state past": (lambda: uniform_state(PAST), *QUBITS_PAST),
    "enumerate_patterns below": (
        lambda: enumerate_patterns(0), ValueError, "qubit count must be >= 1, got 0"
    ),
    "enumerate_patterns past": (lambda: enumerate_patterns(PAST), *QUBITS_PAST),
    "capacity below": (lambda: capacity(-1), ValueError, "qubit count must be >= 0, got -1"),
    "capacity past": (
        lambda: capacity(CAPACITY_CAP + 1),
        ResourceLimitError,
        f"capacity of {CAPACITY_CAP + 1} qubits exceeds the cap of {CAPACITY_CAP}",
    ),
    "capacity_json_text below": (
        lambda: capacity_json_text(-1), ValueError, "qubit count must be >= 0, got -1"
    ),
    "capacity_json_text past": (
        lambda: capacity_json_text(CAPACITY_CAP + 1),
        ResourceLimitError,
        f"capacity of {CAPACITY_CAP + 1} qubits exceeds the cap of {CAPACITY_CAP}",
    ),
    "run shots below": (
        lambda: run(needle(5, 3), seed=1, shots=-1), ValueError, "shots must be >= 0, got -1"
    ),
    "run shots past": (
        lambda: run(needle(5, 3), seed=1, shots=MAX_SHOTS + 1),
        ResourceLimitError,
        f"{MAX_SHOTS + 1} shots exceeds the cap of {MAX_SHOTS}",
    ),
    "run seed below": (
        lambda: run(needle(5, 3), seed=-1, shots=1), ValueError, "seed must be >= 0, got -1"
    ),
    # the report prints the seed, so it is checked without shots too
    "run seed below, no shots": (
        lambda: run(needle(5, 3), seed=-5), ValueError, "seed must be >= 0, got -5"
    ),
    "run seed bool": (
        lambda: run(needle(1, 3), seed=True, shots=2), TypeError, "seed must be an integer, got bool"
    ),
    "run seed float": (
        lambda: run(needle(1, 3), seed=2.5, shots=2), TypeError, "seed must be an integer, got float"
    ),
    "sample_counts seed below": (
        lambda: sample_counts(np.ones(1), 1, -1), ValueError, "seed must be >= 0, got -1"
    ),
    "sample_counts seed float": (
        lambda: sample_counts(np.ones(1), 1, 2.5), TypeError, "seed must be an integer, got float"
    ),
    "sample_counts below": (
        lambda: sample_counts(np.ones(1), -1, 1), ValueError, "shots must be >= 0, got -1"
    ),
    "sample_counts past": (
        lambda: sample_counts(np.ones(1), MAX_SHOTS + 1, 1),
        ResourceLimitError,
        f"{MAX_SHOTS + 1} shots exceeds the cap of {MAX_SHOTS}",
    ),
    "run iterations below": (
        lambda: run(needle(5, 3), iterations=-1), ValueError, "iteration count must be >= 0, got -1"
    ),
    "run iterations past": (
        lambda: run(needle(5, 3), iterations=MAX_ITERATIONS + 1),
        ResourceLimitError,
        f"{MAX_ITERATIONS + 1} iterations exceeds the cap of {MAX_ITERATIONS}",
    ),
    # 2^15 iterations on 21 qubits make exactly 2^36 updates
    "run amplitude updates past": (
        lambda: run(needle(0, 21), iterations=(1 << 15) + 1),
        ResourceLimitError,
        f"{((1 << 15) + 1) << 21} amplitude updates (32769 iterations on 21 qubits) "
        f"exceeds the cap of {MAX_AMPLITUDE_UPDATES}",
    ),
    "check_iterations updates past": (
        lambda: check_iterations((1 << 12) + 1, 24),
        ResourceLimitError,
        f"{((1 << 12) + 1) << 24} amplitude updates (4097 iterations on 24 qubits) "
        f"exceeds the cap of {MAX_AMPLITUDE_UPDATES}",
    ),
    "predicted_success below": (
        lambda: predicted_success(8, 1, -1), ValueError, "iteration count must be >= 0, got -1"
    ),
    # the closed form's own limit: 2k + 1 must stay an exact double
    "predicted_success past": (
        lambda: predicted_success(8, 1, 1 << 52),
        ValueError,
        f"iteration count {1 << 52} is too large for the closed form (max {(1 << 52) - 1})",
    ),
    # 2^21 lines of 161 bytes after a 10-byte header
    "emit_circuit past": (
        lambda: emit_circuit(BoolFn(21, np.ones(1 << 21, bool))),
        ResourceLimitError,
        f"a netlist of 337641482 bytes exceeds the cap of {MAX_NETLIST_BYTES}",
    ),
}


@pytest.mark.parametrize("entry", list(BOUNDED_ENTRY_POINTS))
def test_each_bound_raises_its_one_message(entry):
    call, error, message = BOUNDED_ENTRY_POINTS[entry]
    with pytest.raises(error) as excinfo:
        call()
    assert type(excinfo.value) is error
    assert str(excinfo.value) == message


def test_a_refused_seed_runs_no_search(monkeypatch, run_cli):
    calls = []
    monkeypatch.setattr(grover, "apply_phase", lambda f, psi: calls.append(f) or apply_phase(f, psi))
    for seed in (-1, True, 2.5):
        with pytest.raises((ValueError, TypeError), match="^seed must be"):
            run(needle(0, 18), seed=seed, shots=1)
    code, out, _ = run_cli(["grover", "needle:0", "-n", "18", "--seed", "-1", "--shots", "1"])
    assert code == 1
    assert json.loads(out) == {"status": "error", "error_message": "seed must be >= 0, got -1"}
    assert calls == []
    assert run(needle(0, 4), seed=np.uint64(1), shots=1).to_json_dict()["seed"] == 1
    assert len(calls) == 3  # the optimum for one marked state in 16


# --- the json route's value bound ---------------------------------------------------
#
# Under a patched qubit cap of 15 a state at the cap holds 3 * 2^15 + 2 =
# 98306 commas and opening brackets; a text with more is refused before
# json.loads, whatever its key order.

JSON_CAP = 15
JSON_BOUND = 3 * (1 << JSON_CAP) + 2


def compact_state(n):
    """A state text json.dumps writes with no spaces and "n" after "amps": never canonical."""
    amps = [[0.5, 0.0], [0.25, -1.0]] * (1 << n - 1)
    return json.dumps({"amps": amps, "n": n}, separators=(",", ":"))


def refusal(loader, data):
    """(type, message) of the error loader(data) raises."""
    try:
        loader(data)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)
    raise AssertionError("loaded")


@pytest.fixture
def json_spy(monkeypatch):
    """The texts json.loads is handed while the qubit cap is JSON_CAP."""
    monkeypatch.setattr(statevec, "DEFAULT_QUBIT_CAP", JSON_CAP)
    seen, loads = [], json.loads
    monkeypatch.setattr(json, "loads", lambda text, **kw: seen.append(text) or loads(text, **kw))
    return seen


@pytest.mark.parametrize("text, marks", [
    (compact_state(JSON_CAP + 1), 3 * (1 << JSON_CAP + 1) + 2),
    ("[" * (JSON_BOUND + 1) + "]" * (JSON_BOUND + 1), JSON_BOUND + 1),
], ids=["n after amps", "comma-free bracket chain"])
def test_a_json_text_over_the_value_bound_exits_2_unparsed(
    json_spy, run_cli, tmp_path, text, marks
):
    path = tmp_path / "state.json"
    path.write_text(text)
    message = f"json text with {marks} commas and opening brackets exceeds the cap of {JSON_BOUND}"
    outcome, peak = traced_peak(lambda: refusal(StateVector.from_json_text, text))
    assert outcome == (ResourceLimitError, message)
    assert peak <= 1.1 * len(text)  # the text's bytes, tried on the byte route
    outcome, peak = traced_peak(lambda: refusal(statefile._load, str(path)))
    assert outcome == (ResourceLimitError, message)
    assert peak <= 1.1 * len(text)  # the file's bytes, counted before any decode
    code, out, _ = run_cli(["read", str(path), "0"])
    assert json_spy == []
    assert code == 2
    assert json.loads(out) == {"status": "error", "error_message": message}


def test_a_json_text_at_the_value_bound_loads(json_spy, tmp_path):
    # a compact state at the patched cap holds exactly the bound
    text = compact_state(JSON_CAP)
    assert sum(map(text.count, ",[{")) == JSON_BOUND
    path = tmp_path / "state.json"
    path.write_text(text)
    expected = np.tile(np.array([0.5, 0.25 - 1j]), 1 << JSON_CAP - 1)
    for psi in (statefile._load(str(path)), StateVector.from_json_text(text)):
        assert psi.n == JSON_CAP
        assert np.array_equal(psi.amps, expected)
    assert json_spy == [text, text]
    # one more value is one past the bound
    with pytest.raises(ResourceLimitError, match=f"^json text with {JSON_BOUND + 1} commas"):
        StateVector.from_json_text(text[:-1] + ',"x":0}')
