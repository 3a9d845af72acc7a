"""State construction, tensor products, norms, and probability views."""

import itertools
import json
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svmem.boolfn import count_functions, evaluate, from_minterms, needle, parse
from svmem.errors import DegenerateStateError, ResourceLimitError
from svmem.grover import uniform_state
from svmem.memory import ram_read
from svmem.statevec import (
    DEFAULT_QUBIT_CAP,
    Factor,
    StateVector,
    encode,
    kron,
    norm_squared,
    parse_pattern,
    probabilities,
    support,
)

Z, O, B = Factor.ZERO, Factor.ONE, Factor.BOTH


def vec(*values):
    """StateVector from literal amplitudes; length must be a power of two."""
    return StateVector(len(values).bit_length() - 1, np.array(values, dtype=complex))


# --- encode ----------------------------------------------------------------

def test_encode_three_qubit_word():
    psi = encode([Z, Z, B])
    assert psi.n == 3
    np.testing.assert_array_equal(psi.amps, np.array([1, 1, 0, 0, 0, 0, 0, 0], complex))


def test_encode_single_factor():
    np.testing.assert_array_equal(encode([Z]).amps, np.array([1, 0], complex))


def test_encode_both_both():
    np.testing.assert_array_equal(encode([B, B]).amps, np.array([1, 1, 1, 1], complex))


def test_encode_letter_string_matches_factor_list():
    np.testing.assert_array_equal(encode("ZOB").amps, encode([Z, O, B]).amps)
    assert parse_pattern("zob") == (Z, O, B)  # case-insensitive letters


def test_encode_amplitudes_exactly_zero_or_one():
    for pattern in itertools.product((Z, O, B), repeat=4):
        amps = encode(pattern).amps
        assert np.all((amps == 0.0) | (amps == 1.0))


def test_encode_support_size_counts_both_factors():
    # exhaustive over all patterns up to n = 8
    for n in range(1, 9):
        for pattern in itertools.product((Z, O, B), repeat=n):
            expected = 1 << sum(1 for f in pattern if f is B)
            assert len(support(encode(pattern), 1e-9)) == expected


def test_encode_rejects_empty_pattern():
    with pytest.raises(ValueError, match="at least one factor"):
        encode([])


def test_encode_rejects_bad_letter():
    with pytest.raises(ValueError, match="pattern letter"):
        encode("ZXB")


# reference for encode: the left-to-right np.kron fold of the factor vectors
FACTOR_VECTORS = {"Z": [1.0, 0.0], "O": [0.0, 1.0], "B": [1.0, 1.0]}


def kron_fold(letters):
    return reduce(np.kron, (np.array(FACTOR_VECTORS[ch], complex) for ch in letters))


def assert_encode_matches_reference(letters):
    amps = encode(letters).amps
    assert amps.dtype == np.complex128
    assert amps.shape == (2 ** len(letters),)
    np.testing.assert_array_equal(amps, kron_fold(letters))


def test_encode_matches_kron_fold_exhaustive():
    for n in range(1, 6):
        for letters in itertools.product("ZOB", repeat=n):
            assert_encode_matches_reference("".join(letters))


@settings(deadline=None)
@given(st.text(alphabet="ZOB", min_size=1, max_size=12))
def test_encode_matches_kron_fold_property(letters):
    assert_encode_matches_reference(letters)


def test_encode_qubit_cap():
    with pytest.raises(ResourceLimitError):
        encode("ZZZZZ", max_qubits=4)
    assert encode("Z" * 25, max_qubits=25).n == 25  # cap is configurable


# --- kron -------------------------------------------------------------------

def test_kron_zero_with_both():
    np.testing.assert_array_equal(
        kron(vec(1, 0), vec(1, 1)).amps, np.array([1, 1, 0, 0], complex)
    )


def test_kron_scalar_identity():
    a = vec(1, 0, 0, 0)
    one = StateVector(0, np.array([1.0]))
    np.testing.assert_array_equal(kron(a, one).amps, a.amps)
    np.testing.assert_array_equal(kron(one, a).amps, a.amps)


def test_kron_chain_reproduces_encode():
    chained = kron(kron(vec(1, 0), vec(1, 0)), vec(1, 1))
    np.testing.assert_array_equal(chained.amps, encode("ZZB").amps)


def test_kron_index_formula():
    rng = np.random.default_rng(11)
    a = StateVector(2, rng.normal(size=4) + 1j * rng.normal(size=4))
    b = StateVector(1, rng.normal(size=2) + 1j * rng.normal(size=2))
    out = kron(a, b)
    assert out.n == 3
    for p in range(4):
        for q in range(2):
            # vectorized complex multiply may fuse differently than the
            # scalar product, so compare at the module tolerance
            assert out.amps[p * 2 + q] == pytest.approx(
                a.amps[p] * b.amps[q], abs=1e-12
            )


def test_kron_associative():
    rng = np.random.default_rng(5)
    for _ in range(20):
        a, b, c = (
            StateVector(k, rng.normal(size=1 << k) + 1j * rng.normal(size=1 << k))
            for k in (1, 2, 1)
        )
        left = kron(kron(a, b), c)
        right = kron(a, kron(b, c))
        np.testing.assert_allclose(left.amps, right.amps, rtol=0, atol=1e-12)


def test_kron_norm_multiplicative():
    rng = np.random.default_rng(6)
    for _ in range(20):
        a = StateVector(2, rng.normal(size=4) + 1j * rng.normal(size=4))
        b = StateVector(2, rng.normal(size=4) + 1j * rng.normal(size=4))
        assert norm_squared(kron(a, b)) == pytest.approx(
            norm_squared(a) * norm_squared(b), abs=1e-12
        )


# --- norm_squared / support / probabilities ---------------------------------

def test_norm_squared_values(zzb_state):
    assert norm_squared(zzb_state) == 2.0
    assert norm_squared(vec(0, 0, 0, 0)) == 0.0
    assert norm_squared(vec(1, 1, 1, 1)) == 4.0


def test_support_values(zzb_state):
    assert support(zzb_state, 1e-9) == {0, 1}
    assert support(vec(0, 0)) == set()
    assert support(vec(0, 1), 1e-9) == {1}


def test_support_requires_positive_eps(zzb_state):
    for eps in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="positive"):
            support(zzb_state, eps)


def test_probabilities_values(zzb_state):
    np.testing.assert_array_equal(
        probabilities(zzb_state), [0.5, 0.5, 0, 0, 0, 0, 0, 0]
    )
    np.testing.assert_array_equal(probabilities(vec(0, 1)), [0.0, 1.0])
    np.testing.assert_array_equal(probabilities(vec(1, 1, 1, 1)), [0.25] * 4)


def test_probabilities_sum_to_one():
    rng = np.random.default_rng(9)
    for n in (1, 4, 7):
        psi = StateVector(n, rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n))
        assert probabilities(psi).sum() == pytest.approx(1.0, abs=1e-12)


def test_probabilities_rejects_zero_state():
    with pytest.raises(DegenerateStateError):
        probabilities(vec(0, 0, 0, 0))


# --- StateVector validation and JSON -----------------------------------------

def test_statevector_rejects_wrong_length():
    with pytest.raises(ValueError, match="expected 8 amplitudes"):
        StateVector(3, np.zeros(4, complex))


def test_statevector_rejects_nonfinite():
    with pytest.raises(ValueError, match="finite"):
        StateVector(1, np.array([np.nan, 0], complex))
    with pytest.raises(ValueError, match="finite"):
        StateVector(1, np.array([np.inf + 0j, 0]))


def test_statevector_rejects_negative_n():
    with pytest.raises(ValueError):
        StateVector(-1, np.array([1.0]))


def test_json_roundtrip(zzb_state):
    data = zzb_state.to_json_dict()
    assert data["n"] == 3
    assert data["amps"][0] == [1.0, 0.0]
    back = StateVector.from_json_dict(data)
    np.testing.assert_array_equal(back.amps, zzb_state.amps)


def test_json_rejects_bad_inputs():
    with pytest.raises(ValueError):
        StateVector.from_json_dict({"amps": [[1, 0]]})
    with pytest.raises(ValueError):
        StateVector.from_json_dict({"n": "3", "amps": []})
    with pytest.raises(ValueError):
        StateVector.from_json_dict({"n": 1, "amps": [[1, 0]]})
    with pytest.raises(ValueError):
        StateVector.from_json_dict({"n": 1, "amps": [[1, 0], ["x", 0]]})
    with pytest.raises(ValueError):
        StateVector.from_json_dict({"n": 1, "amps": [[1, 0], [1]]})


# --- one size cap for every entry point ----------------------------------------

OVER_CAP = DEFAULT_QUBIT_CAP + 1
OVER_CAP_ENTRY_POINTS = {
    "encode": lambda n: encode("Z" * n),
    "kron": lambda n: kron(encode("Z" * (n - n // 2)), encode("Z" * (n // 2))),
    "uniform_state": uniform_state,
    "count_functions": count_functions,
    "needle": lambda n: needle(0, n),
    "from_minterms": lambda n: from_minterms([0], n),
    "parse": lambda n: parse("1", [f"x{j}" for j in range(n)]),
    "from_json_dict": lambda n: StateVector.from_json_dict({"n": n, "amps": []}),
}


@pytest.mark.parametrize("entry", sorted(OVER_CAP_ENTRY_POINTS))
def test_over_cap_rejected_alike(entry):
    message = f"{OVER_CAP} qubits exceeds the cap of {DEFAULT_QUBIT_CAP}"
    with pytest.raises(ResourceLimitError) as excinfo:
        OVER_CAP_ENTRY_POINTS[entry](OVER_CAP)
    assert str(excinfo.value) == message


def test_over_cap_state_file_exits_2(run_cli, tmp_path):
    path = tmp_path / "huge.json"
    path.write_text('{"n": 10000000, "amps": []}')
    code, out, err = run_cli(["read", str(path), "0"])
    assert code == 2
    assert json.loads(out) == {
        "status": "error",
        "error_message": f"10000000 qubits exceeds the cap of {DEFAULT_QUBIT_CAP}",
    }
    assert err.startswith("svmem: error:")


# --- one range check for every basis index ---------------------------------------

INDEX_ENTRY_POINTS = {
    "needle": ("k0", lambda k, state: needle(k, 3)),
    "from_minterms": ("minterm", lambda k, state: from_minterms([0, k], 3)),
    "evaluate": ("input", lambda k, state: evaluate(needle(0, 3), k)),
    "ram_read": ("address", lambda k, state: ram_read(encode("ZZB"), k)),
    "cli read": ("address", lambda k, state: ["read", state, str(k)]),
    "cli cam needle": ("k0", lambda k, state: ["cam", state, f"needle:{k}"]),
    "cli cam minterms": ("minterm", lambda k, state: ["cam", state, f"minterms:0,{k}"]),
}


@pytest.mark.parametrize("k", [8, -1])
@pytest.mark.parametrize("entry", list(INDEX_ENTRY_POINTS))
def test_out_of_range_index_rejected_alike(entry, k, run_cli, tmp_path):
    what, call = INDEX_ENTRY_POINTS[entry]
    message = f"{what} {k} out of range for 3 qubits (valid: 0..7)"
    state = str(tmp_path / "word.json")
    assert run_cli(["encode", "ZZB", "--out", state])[0] == 0
    if entry.startswith("cli "):
        code, out, err = run_cli(call(k, state))
        assert code == 1
        assert json.loads(out) == {"status": "error", "error_message": message}
        assert err.startswith("svmem: error:")
    else:
        with pytest.raises(ValueError) as excinfo:
            call(k, state)
        assert str(excinfo.value) == message
