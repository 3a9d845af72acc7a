"""The paper's invariants as properties over drawn truth tables and patterns.

Tables come in every form BoolFn accepts (bool arrays, uint8 arrays and
lists of ints), so each property also checks that the form of the input
makes no difference downstream.
"""

import copy
import json
import math
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svmem.boolfn import BoolFn
from svmem.grover import GroverReport, diffusion, run, uniform_state
from svmem.memory import cam_match, pattern_for, ram_read, recognizes
from svmem.oracle import apply_marking, apply_phase, emit_circuit, replay_circuit
from svmem.statevec import (
    Factor,
    StateVector,
    encode,
    kron,
    norm_squared,
    probabilities,
    support,
)

MINUS = StateVector(1, np.array([1.0, -1.0], dtype=complex))  # |−⟩, unnormalized

PROPERTY = settings(max_examples=40, deadline=None)


@st.composite
def truth_tables(draw, max_n=8, nonempty=False, min_n=1):
    n = draw(st.integers(min_n, max_n))
    bits = draw(st.lists(st.booleans(), min_size=1 << n, max_size=1 << n))
    if nonempty and not any(bits):
        bits[draw(st.integers(0, (1 << n) - 1))] = True
    form = draw(st.sampled_from(("bool", "uint8", "ints")))
    if form == "bool":
        entries = np.array(bits, dtype=bool)
    elif form == "uint8":
        entries = np.array(bits, dtype=np.uint8)
    else:
        entries = [int(b) for b in bits]
    return BoolFn(n, entries)


def _random_state(seed, n):
    rng = np.random.default_rng(seed)
    return StateVector(n, rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n))


@PROPERTY
@given(truth_tables(), st.integers(0, 2**32 - 1))
def test_marking_on_minus_aux_is_the_phase_oracle(f, seed):
    # phase kickback: |x>|−> picks up (-1)^f(x) and the auxiliary stays |−>
    psi = _random_state(seed, f.n)
    marked = apply_marking(f, kron(psi, MINUS))
    np.testing.assert_array_equal(marked.amps, kron(apply_phase(f, psi), MINUS).amps)


@PROPERTY
@given(truth_tables(), st.integers(0, 2**32 - 1))
def test_replayed_netlist_is_the_marking_oracle(f, seed):
    psi = _random_state(seed, f.n + 1)
    replayed = replay_circuit(emit_circuit(f), psi)
    np.testing.assert_array_equal(replayed.amps, apply_marking(f, psi).amps)


@PROPERTY
@given(truth_tables(nonempty=True), st.integers(0, 20))
def test_simulated_success_follows_the_closed_form(f, k):
    marked = int(np.count_nonzero(f.table))
    theta = math.asin(math.sqrt(marked / (1 << f.n)))
    report = run(f, iterations=k)
    assert abs(report.simulated_success - math.sin((2 * k + 1) * theta) ** 2) <= 1e-9


@PROPERTY
@given(st.lists(st.sampled_from(list(Factor)), min_size=1, max_size=12))
def test_encoded_word_decodes_to_its_pattern(pattern):
    assert pattern_for(encode(pattern).amps.real) == tuple(pattern)


DBL_MAX = float(np.finfo(np.float64).max)

# parts at diffusion's edges: sums and doubles that overflow, subnormals, signed zeros
EDGE_DOUBLES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, DBL_MAX, -DBL_MAX]),
    st.floats(allow_nan=False, allow_infinity=False),
)


def _pooled_parts(draw, n, values):
    """The parts of an n-qubit state, from at most four drawn values: a whole state can be tiny or huge."""
    pool = draw(st.lists(values, min_size=1, max_size=4))
    return np.array(draw(st.lists(st.sampled_from(pool), min_size=2 << n, max_size=2 << n)))


@settings(max_examples=200, deadline=None)
@given(st.data(), st.integers(1, 6), st.integers(0, 2))
def test_diffusion_raises_exactly_when_a_result_is_not_finite(data, n, m):
    # kron is one more case: it checks its operands, never its product
    parts = np.array(data.draw(st.lists(EDGE_DOUBLES, min_size=2 << n, max_size=2 << n)))
    # from a few values, so that often a write into it alone makes kron's product not finite
    other = _pooled_parts(data.draw, m, EDGE_DOUBLES)
    psi, phi = StateVector(n, parts.view(np.complex128)), StateVector(m, other.view(np.complex128))
    # the callers' arrays stay writable: a part can stop being finite after the check
    for array in (parts, other):
        writes = st.tuples(st.integers(0, array.size - 1), st.sampled_from([math.inf, -math.inf, math.nan]))
        for index, value in data.draw(st.lists(writes, max_size=2)):
            array[index] = value
    with np.errstate(all="ignore"):
        cases = {
            diffusion: ((psi,), 2.0 * psi.amps.mean() - psi.amps),
            kron: ((psi, phi), np.kron(psi.amps, phi.amps)),
        }
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for function, (args, reference) in cases.items():
            if np.isfinite(reference).all():
                assert function(*args).amps.tobytes() == reference.tobytes()
            else:
                with pytest.raises(ValueError, match="^amplitudes must be finite$"):
                    function(*args)


# parts whose squares and products underflow, round to subnormals or overflow
POLICY_DOUBLES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 1e-200, -1e-200, 1e-160, -1e-160, 1e154, -1e154, 1e308, -1e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)

# numpy's default error state, and two that would change a result if svmem let them
ERROR_STATES = (
    dict(divide="warn", over="warn", invalid="warn", under="ignore"),
    dict(all="raise"),
    dict(all="ignore"),
)


def _outcome(call, state):
    """call()'s result as bytes, or its exception's type and message, under state."""
    with warnings.catch_warnings(), np.errstate(**state):
        warnings.simplefilter("error")
        try:
            result = call()
        except Exception as exc:
            return type(exc), str(exc)
    if isinstance(result, GroverReport):
        return json.dumps(result.to_json_dict()).encode() + result.final_state.amps.tobytes()
    if isinstance(result, StateVector):
        result = result.amps
    if isinstance(result, np.ndarray):
        return result.tobytes()
    return repr(sorted(result) if isinstance(result, set) else result)


@settings(max_examples=100, deadline=None)
@given(st.data(), st.integers(2, 6), st.integers(1, 2))
def test_no_result_depends_on_numpys_error_state(data, n, m):
    parts, other = _pooled_parts(data.draw, n, POLICY_DOUBLES), _pooled_parts(data.draw, m, POLICY_DOUBLES)
    psi, phi = StateVector(n, parts.view(np.complex128)), StateVector(m, other.view(np.complex128))
    f, g = _table(data.draw, n), _table(data.draw, n - 1)
    k = data.draw(st.integers(0, (1 << n) - 1))
    iterations = data.draw(st.integers(0, 3))
    seed, shots = data.draw(st.integers(0, 99)), data.draw(st.integers(0, 64))
    calls = {
        "kron": lambda: kron(psi, phi),
        "diffusion": lambda: diffusion(psi),
        "probabilities": lambda: probabilities(psi),
        "support": lambda: support(psi),
        "norm_squared": lambda: norm_squared(psi),
        "ram_read": lambda: ram_read(psi, k),
        "cam_match": lambda: cam_match(psi, f),
        "recognizes": lambda: recognizes(f, psi),
        "apply_phase": lambda: apply_phase(f, psi),
        "apply_marking": lambda: apply_marking(g, psi),
        "replay_circuit": lambda: replay_circuit(emit_circuit(g), psi),
        "run": lambda: run(f, iterations, seed=seed, shots=shots),
    }
    # below 1e150 no square, product or sum of these parts overflows: an underflow only rounds
    bounded = max(np.abs(parts).max(), np.abs(other).max()) < 1e150
    for name, call in calls.items():
        outcomes = [_outcome(call, state) for state in ERROR_STATES]
        assert len(set(outcomes)) == 1, name
        assert not (bounded and outcomes[0] == (ValueError, "amplitudes must be finite")), name


def _table(draw, n):
    return draw(truth_tables(min_n=n, max_n=n))


def _pattern(draw, n):
    return draw(st.lists(st.sampled_from(list(Factor)), min_size=n, max_size=n))


# every function that builds a fresh state, from drawn inputs on n qubits
BUILDERS = {
    "encode": lambda draw, n, seed: encode(_pattern(draw, n)),
    "kron": lambda draw, n, seed: kron(_random_state(seed, n - 1), _random_state(seed + 1, 1)),
    "uniform_state": lambda draw, n, seed: uniform_state(n),
    "diffusion": lambda draw, n, seed: diffusion(_random_state(seed, n)),
    "apply_phase": lambda draw, n, seed: apply_phase(_table(draw, n), _random_state(seed, n)),
    "apply_marking": lambda draw, n, seed: apply_marking(
        _table(draw, n - 1), _random_state(seed, n)),
    "replay_circuit": lambda draw, n, seed: replay_circuit(
        emit_circuit(_table(draw, n - 1)), _random_state(seed, n)),
    # three distinct pairs in 2^n >= 8: the canonical text is built by index
    "from_json_text canonical": lambda draw, n, seed: StateVector.from_json_text(
        _pooled_state(seed, n).to_json_text() + "\n"),
    # at most two distinct pairs, all of one width: read by stride
    "from_json_text encoded": lambda draw, n, seed: StateVector.from_json_text(
        encode(_pattern(draw, n)).to_json_text() + "\n"),
    # no trailing newline: not canonical, so json parses it whole
    "from_json_text json": lambda draw, n, seed: StateVector.from_json_text(
        json.dumps(_random_state(seed, n).to_json_dict())),
    "from_json_dict": lambda draw, n, seed: StateVector.from_json_dict(
        _random_state(seed, n).to_json_dict()),
}


def _pooled_state(seed, n):
    values = np.random.default_rng(seed).choice([0.0, 1.0, -2.5], size=1 << n).astype(complex)
    values[0] = 1.0  # never the all-zero state
    return StateVector(n, values)


def _readouts(psi, f, k):
    """ram_read, cam_match and probabilities of psi, as bytes."""
    bit, p_read = ram_read(psi, k)
    return bit, np.array([p_read, cam_match(psi, f)]).tobytes() + probabilities(psi).tobytes()


def _follows_its_amplitudes(psi, f, k):
    return _readouts(psi, f, k) == _readouts(StateVector(psi.n, psi.amps.copy()), f, k)


def _grow(amps, k):
    """Write a larger magnitude at address k, so the squared norm changes."""
    amps[k] = 2 * abs(amps[k]) + 1


@settings(max_examples=100, deadline=None)
@given(st.data(), st.sampled_from(sorted(BUILDERS)), st.integers(3, 8), st.integers(0, 2**32 - 2))
def test_a_kept_norm_is_never_stale(data, builder, n, seed):
    psi = BUILDERS[builder](data.draw, n, seed)
    f = _table(data.draw, n)
    k = data.draw(st.integers(0, (1 << n) - 1))
    assert not psi.amps.flags.writeable
    assert _follows_its_amplitudes(psi, f, k)  # the first readout
    assert _follows_its_amplitudes(psi, f, k)  # with the norm kept
    for twin in (copy.deepcopy(psi), pickle.loads(pickle.dumps(psi))):
        _grow(twin.amps, k)  # writable: numpy copies and unpickles into fresh arrays
        assert _follows_its_amplitudes(twin, f, k)
    try:
        psi.amps.setflags(write=True)
    except ValueError:  # a view of a frozen array cannot be thawed
        return
    _grow(psi.amps, k)
    assert _follows_its_amplitudes(psi, f, k)
