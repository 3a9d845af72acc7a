"""State construction, tensor products, norms, and probability views."""

import copy
import itertools
import json
import os
import subprocess
import sys
import warnings
from functools import reduce
from unittest import mock

import numpy as np
import pytest
from conftest import chunk_sums, float_bits, traced_peak, weights_of
from hypothesis import example, given, settings
from hypothesis import strategies as st

from svmem import statefile, statevec
from svmem.boolfn import (
    BoolFn,
    count_functions,
    default_var_names,
    evaluate,
    from_minterms,
    needle,
    parse,
)
from svmem.errors import DegenerateStateError, ResourceLimitError
from svmem.grover import diffusion, predicted_success, run, uniform_state
from svmem.memory import cam_match, capacity, enumerate_patterns, ram_read, recognizes
from svmem.oracle import apply_marking, apply_phase, emit_circuit, replay_circuit
from svmem.statevec import (
    DEFAULT_QUBIT_CAP,
    Factor,
    StateVector,
    check_qubits,
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


def test_encode_refuses_a_sequence_entry_that_is_not_a_factor():
    # letters name factors only in a string; in a sequence each entry is a Factor
    for pattern, entry in ((["Z", "B"], "'Z'"), ([None], "None"), ((Z, 0, B), "0")):
        with pytest.raises(ValueError, match=f"^bad pattern letter {entry}: use Z="):
            encode(pattern)
    assert encode(iter([Z, O, B])).amps.tobytes() == encode("zob").amps.tobytes()


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
        encode("Z" * (DEFAULT_QUBIT_CAP + 1))


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


_NORM_BITS = """
import numpy as np
from svmem.statevec import StateVector, norm_squared
for n in range(13, 19):
    rng = np.random.default_rng(n)
    psi = StateVector(n, rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n))
    print(n, norm_squared(psi).hex())
"""


def test_norm_squared_bits_do_not_depend_on_blas_threads():
    # the norm is numpy's elementwise squares and pairwise sums, no BLAS call:
    # a threaded BLAS dot product (OpenBLAS past about 10000 elements) gave
    # other bits on two threads than on one at n = 14, 15, 16 and 18
    def bits(threads):
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path),
               "OPENBLAS_NUM_THREADS": str(threads)}
        done = subprocess.run([sys.executable, "-c", _NORM_BITS], capture_output=True,
                              env=env, timeout=120, check=True, text=True)
        return done.stdout

    one = bits(1)
    assert one.count("\n") == 6
    assert bits(2) == one


def test_norm_squared_adds_its_chunks_in_order():
    # 2^13 amplitudes to a chunk: one chunk up to n = 13, then 2^(n-13) of them
    for n in (12, 13, 14, 16):
        rng = np.random.default_rng(n)
        psi = StateVector(n, rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n))
        assert float_bits(norm_squared(psi)) == float_bits(chunk_sums(weights_of(psi.amps)))


def test_a_lone_amplitude_has_probability_exactly_one():
    # |a|^2 from a hypot squared, over a norm from BLAS, gave 1.0000000000000002
    psi = StateVector(1, [0.412 + 1.043j, 0])
    assert probabilities(psi)[0] == 1.0
    assert ram_read(psi, 0)[1] == 1.0


# parts at the edges of the weights: signed zeros, subnormals, squares that
# underflow, and large ones whose squares stay finite summed over 2^10 amplitudes
WEIGHT_PARTS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e-160, -1e-160, 1e150, -1e150]),
    st.floats(-1e150, 1e150),
)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 10),
    st.lists(WEIGHT_PARTS, min_size=1, max_size=12),
    st.sampled_from([0.0, 0.5, 0.99]),
    st.integers(0, 2**32 - 1),
)
def test_the_norm_and_every_probability_come_from_one_weights_array(n, pool, zeros, seed):
    rng = np.random.default_rng(seed)
    amps = rng.choice(np.array(pool), 2 << n).view(complex)
    amps[rng.random(1 << n) < zeros] = 0.0
    psi = StateVector(n, amps)
    weights, total = weights_of(amps), norm_squared(psi)
    assert float_bits(total) == float_bits(chunk_sums(weights))
    if total == 0.0:
        return
    probs = probabilities(psi)
    assert probs.tobytes() == (weights / total).tobytes()
    assert ((0.0 <= probs) & (probs <= 1.0)).all()
    # a support wholly inside a truth set reads exactly 1, at any positive norm
    held = amps != 0
    around = held | (rng.random(1 << n) < 0.5)
    assert cam_match(psi, BoolFn(n, around)) == 1.0
    k = int(np.argmax(weights))
    lone = np.zeros(1 << n, complex)
    lone[k] = amps[k]
    assert probabilities(StateVector(n, lone))[k] == 1.0
    assert ram_read(StateVector(n, lone), k)[1] == 1.0


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
    with pytest.raises(
        DegenerateStateError, match="^the all-zero state has no measurement distribution$"
    ):
        probabilities(vec(0, 0, 0, 0))
    with pytest.raises(ValueError, match="^the squared norm of the state overflows a double$"):
        probabilities(vec(1e308, 1e308))
    # two blocks of the sum, each finite, whose total overflows
    amps = np.zeros(1 << 14, complex)
    amps[[0, -1]] = 1e154
    with pytest.raises(ValueError, match="^the squared norm of the state overflows a double$"):
        probabilities(StateVector(14, amps))


# --- StateVector validation and JSON -----------------------------------------

def test_statevector_rejects_wrong_length():
    with pytest.raises(ValueError, match="expected 8 amplitudes"):
        StateVector(3, np.zeros(4, complex))


@pytest.mark.parametrize("n", [DEFAULT_QUBIT_CAP + 1, 64, 20000, 10**8])
def test_statevector_over_cap_is_refused_without_two_to_the_n(n):
    # the qubit cap comes before the length check, so no 2^n is built
    def build():
        with pytest.raises(ResourceLimitError) as excinfo:
            StateVector(n, np.ones(2))
        return excinfo

    excinfo, peak = traced_peak(build)
    assert str(excinfo.value) == f"{n} qubits exceeds the cap of {DEFAULT_QUBIT_CAP}"
    assert peak < 1 << 20  # 1 << 10**8 alone is 12 MiB


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


# --- read-only returned states and the norm kept on them -----------------------

RETURNED_STATES = {
    "encode": lambda: encode("ZB"),
    "kron": lambda: kron(encode("B"), vec(1, -2)),
    "uniform_state": lambda: uniform_state(2),
    "diffusion": lambda: diffusion(vec(1, 2, 3, 4)),
    "apply_phase": lambda: apply_phase(needle(1, 2), vec(1, 2, 3, 4)),
    "apply_marking": lambda: apply_marking(needle(1, 1), vec(1, 2, 3, 4)),
    "replay_circuit": lambda: replay_circuit(emit_circuit(needle(1, 1)), vec(1, 2, 3, 4)),
    "from_json_text canonical": lambda: StateVector.from_json_text(
        encode("BBZ").to_json_text() + "\n"),
    "from_json_text json": lambda: StateVector.from_json_text('{"amps": [[1, 0], [0, 2]], "n": 1}'),
    "from_json_dict": lambda: StateVector.from_json_dict({"n": 1, "amps": [[1, 0], [0, 2]]}),
    "run final_state": lambda: run(needle(1, 2)).final_state,
    "run final_state, 0 iterations": lambda: run(needle(1, 2), iterations=0).final_state,
}


@pytest.mark.parametrize("build", RETURNED_STATES.values(), ids=RETURNED_STATES.keys())
def test_returned_states_are_read_only(build):
    psi = build()
    array = psi.amps
    while isinstance(array, np.ndarray):  # no writable array under the amplitudes either
        assert not array.flags.writeable
        array = array.base
    with pytest.raises(ValueError, match="read-only"):
        psi.amps[0] = 0


def test_caller_state_keeps_its_array_as_given():
    arr = np.array([1, 2j], dtype=np.complex128)
    psi = StateVector(1, arr)
    assert psi.amps is arr and arr.flags.writeable
    assert probabilities(psi).tolist() == [0.2, 0.8]
    arr[1] = 0
    assert probabilities(psi).tolist() == [1.0, 0.0]
    # a read-only view of a writable array can still change: its norm is not kept
    base = np.array([1, 1], dtype=np.complex128)
    view = base[:]
    view.setflags(write=False)
    psi = StateVector(1, view)
    assert probabilities(psi).tolist() == [0.5, 0.5]
    base[1] = 0
    assert probabilities(psi).tolist() == [1.0, 0.0]


def test_readouts_sum_a_returned_state_once(monkeypatch):
    calls = []
    monkeypatch.setattr(statevec, "norm_squared", lambda psi: calls.append(psi) or 4.0)
    psi = encode("BB")  # carries its exact norm 2^2, so it is never summed
    assert [ram_read(psi, k) for k in range(4)] == [(1, 0.25)] * 4
    probabilities(psi)
    assert calls == []
    psi = kron(encode("B"), encode("B"))
    assert [ram_read(psi, k) for k in range(4)] == [(1, 0.25)] * 4
    probabilities(psi)
    assert len(calls) == 1
    twin = copy.deepcopy(psi)  # numpy deep copies are writable: summed on every readout
    assert twin.amps.flags.writeable
    ram_read(twin, 0)
    ram_read(twin, 0)
    assert len(calls) == 3
    psi.amps = encode("ZB").amps  # another array, even a read-only one, is summed again
    ram_read(psi, 0)
    assert len(calls) == 4


@settings(deadline=None)
@given(st.lists(st.sampled_from(list(Factor)), min_size=1, max_size=12))
def test_encode_carries_the_norm_a_sum_gives(pattern):
    psi = encode(pattern)
    summed = norm_squared(StateVector(psi.n, psi.amps.copy()))
    kept = statevec._readout_norm_squared(psi)
    assert np.float64(kept).tobytes() == np.float64(summed).tobytes()
    assert type(kept) is float


def test_kron_and_diffusion_still_check_finiteness():
    # a product or a mean of finite amplitudes can overflow: each call raises
    # the documented error, and numpy's RuntimeWarning never fires first
    big = StateVector(1, [1e308, 1e308])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^amplitudes must be finite$"):
            kron(big, big)
        with pytest.raises(ValueError, match="^amplitudes must be finite$"):
            diffusion(big)


# every call that reads a caller's amplitudes after StateVector checked them
CALLER_AMPLITUDE_READERS = {
    "apply_phase": lambda psi: apply_phase(needle(0, 2), psi),
    "apply_marking": lambda psi: apply_marking(needle(0, 1), psi),
    "replay_circuit": lambda psi: replay_circuit(emit_circuit(needle(0, 1)), psi),
    "kron": lambda psi: kron(psi, encode("B")),
    "diffusion": diffusion,
    "support": support,
    "recognizes": lambda psi: recognizes(needle(0, 2), psi),
    "probabilities": probabilities,
    "ram_read": lambda psi: ram_read(psi, 1),
    "cam_match": lambda psi: cam_match(psi, needle(0, 2)),
    "to_json_text": lambda psi: psi.to_json_text(),
    "to_json_dict": lambda psi: psi.to_json_dict(),
}
# the readers that divide by the squared norm: a finite sum proves the amplitudes finite
READOUTS = {"probabilities", "ram_read", "cam_match"}


@pytest.mark.parametrize("reader", sorted(CALLER_AMPLITUDE_READERS))
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, complex(0, np.nan), complex(0, np.inf)])
def test_a_callers_amplitude_made_non_finite_is_refused(value, reader):
    # a caller's array can change after StateVector checked it: written
    # directly while writable, or through the writable base of a read-only view
    for read_only_view in (False, True):
        base = np.array([1, 0, 0, 0], complex)
        amps = base[:] if read_only_view else base
        amps.setflags(write=not read_only_view)
        psi = StateVector(2, amps)
        base[0] = value
        with pytest.raises(ValueError, match="^amplitudes must be finite$"):
            CALLER_AMPLITUDE_READERS[reader](psi)


OWN_STATES = {
    "encode": lambda: encode("BZ"),
    "kron": lambda: kron(encode("B"), encode("O")),
    "uniform_state": lambda: uniform_state(2),
    "run final_state": lambda: run(needle(1, 2)).final_state,
    "state file": lambda: StateVector.from_json_text(
        StateVector(2, np.array([1, 2j, 0, -3])).to_json_text() + "\n"),
}


def _caller_states(values):
    """States over copies of values: writable, read-only, and a read-only view of a writable base."""
    writable, frozen, base = (np.array(values, complex) for _ in range(3))
    frozen.setflags(write=False)
    view = base[:]
    view.setflags(write=False)
    return [StateVector(2, amps) for amps in (writable, frozen, view)]


def test_only_a_callers_amplitudes_get_a_finiteness_pass(monkeypatch):
    # built before the patch, so construction's own check is not counted
    own = [build() for build in OWN_STATES.values()]
    callers = _caller_states([1, 2j, 0, -3])
    checked = []
    monkeypatch.setattr(statevec, "_check_finite", checked.append)
    for name, reader in CALLER_AMPLITUDE_READERS.items():
        for psi in own:  # svmem's own, frozen and finite: read as they are
            reader(psi)
        assert checked == [], name
        for psi in callers:
            reader(psi)
            # one pass, on the caller's array; a readout's finite sum is its check
            assert len(checked) == (0 if name in READOUTS else 1), name
            assert all(amps is psi.amps for amps in checked), name
            checked.clear()


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
    "enumerate_patterns": enumerate_patterns,
    "default_var_names": default_var_names,
    "StateVector": lambda n: StateVector(n, np.ones(2)),
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


# --- one integer rule for every count and index ------------------------------------

# each entry point, with the count or index under test as v (2 where valid)
INTEGER_ENTRY_POINTS = {
    "needle k0": ("k0", lambda v: needle(v, 3)),
    "needle n": ("qubit count", lambda v: needle(0, v)),
    "from_minterms": ("minterm", lambda v: from_minterms([0, v], 3)),
    "evaluate": ("input", lambda v: evaluate(needle(2, 3), v)),
    "ram_read": ("address", lambda v: ram_read(encode("ZOB"), v)),
    "uniform_state": ("qubit count", uniform_state),
    "count_functions": ("qubit count", count_functions),
    "enumerate_patterns": ("qubit count", lambda v: list(enumerate_patterns(v))),
    "default_var_names": ("qubit count", default_var_names),
    "capacity": ("qubit count", capacity),
    "run": ("iteration count", lambda v: run(needle(5, 3), iterations=v).to_json_dict()),
    "predicted_success": ("iteration count", lambda v: predicted_success(8, 1, v)),
    "run shots": ("shot count", lambda v: run(needle(5, 3), seed=1, shots=v).to_json_dict()),
    "StateVector": ("qubit count", lambda v: StateVector(v, np.ones(4))),
}


@pytest.mark.parametrize("v, kind", [(2.0, "float"), (2.7, "float"), (True, "bool"), ("1", "str")])
@pytest.mark.parametrize("entry", list(INTEGER_ENTRY_POINTS))
def test_non_integer_counts_rejected_alike(entry, v, kind):
    what, call = INTEGER_ENTRY_POINTS[entry]
    if entry == "run" and kind == "str":
        # run reads a string as AUTO or refuses it by its own rule
        with pytest.raises(ValueError, match="^iterations must be an integer or 'auto', got '1'$"):
            call(v)
        return
    with pytest.raises(TypeError) as excinfo:
        call(v)
    assert str(excinfo.value) == f"{what} must be an integer, got {kind}"


@pytest.mark.parametrize("entry", list(INTEGER_ENTRY_POINTS))
def test_numpy_integer_counts_count_exactly(entry):
    # repr shows a numpy int that leaks into the result, as in BoolFn.n
    call = INTEGER_ENTRY_POINTS[entry][1]
    assert repr(call(np.int64(2))) == repr(call(2))


# --- state files: whole-array load and save against per-pair references -----------


def reference_from_json_dict(data):
    """The per-pair loader that the whole-array one replaced, kept as its reference."""
    if not isinstance(data, dict) or "n" not in data or "amps" not in data:
        raise ValueError('state JSON must look like {"n": <int>, "amps": [[re, im], ...]}')
    n = data["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ValueError(f"bad qubit count {n!r}")
    check_qubits(n)
    raw = data["amps"]
    if not isinstance(raw, list) or len(raw) != (1 << n):
        raise ValueError(f"expected {1 << n} amplitude pairs for n={n}")
    amps = np.empty(1 << n, dtype=np.complex128)
    for k, pair in enumerate(raw):
        if (
            not isinstance(pair, (list, tuple))
            or len(pair) != 2
            or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in pair)
        ):
            raise ValueError(f"amplitude {k} must be a [re, im] number pair")
        try:
            amps[k] = complex(pair[0], pair[1])
        except OverflowError:
            raise ValueError(f"amplitude {k} is too large for a double") from None
    return StateVector(n, amps)


def reference_to_json_dict(psi):
    """The per-amplitude writer that the whole-array one replaced, kept as its reference."""
    return {"n": psi.n, "amps": [[float(a.real), float(a.imag)] for a in psi.amps]}


def reference_from_json_text(text):
    """The text loader's contract: json.loads, then the per-pair loader."""
    try:
        data = json.loads(text)
    except RecursionError:
        raise ValueError("state file nests too deeply") from None
    return reference_from_json_dict(data)


def reference_to_json_text(psi):
    """The text writer's contract: json.dumps of the per-amplitude writer's dict."""
    return json.dumps(reference_to_json_dict(psi))


def load_outcome(loader, data):
    try:
        psi = loader(data)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)
    return psi.n, psi.amps.dtype, psi.amps.tobytes()


def rebuilt_for_json(data):
    """What the byte route hands json for data's canonical words, the file's bytes freed."""
    seen, json_text = [], statefile._json_text
    with mock.patch.object(statefile, "_json_text", lambda data: seen.append(data) or json_text(data)):
        load_outcome(statefile._from_words, statefile._canonical_words(data))
    return seen[0]


GOOD_NUMBERS = st.one_of(
    st.integers(),
    st.integers(min_value=2**63, max_value=2**1100),
    st.integers(min_value=-(2**1100), max_value=-(2**63)),
    st.sampled_from([2**1024 - 2**970, 2**1024 - 2**971, int("1" * 401)]),
    st.floats(),  # ±0.0, subnormals, NaN, ±inf
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, float("nan"), float("inf"), float("-inf")]),
    st.floats().map(np.float64),
)
NOT_NUMBERS = st.one_of(
    st.booleans(),
    st.text(max_size=3),
    st.none(),
    st.lists(st.integers(), max_size=2),
    st.integers(-5, 5).map(np.int64),
    st.floats(width=32).map(np.float32),
)
ENTRIES = st.one_of(GOOD_NUMBERS, GOOD_NUMBERS, NOT_NUMBERS)
PAIRS = st.one_of(
    st.tuples(GOOD_NUMBERS, GOOD_NUMBERS).map(list),
    st.tuples(GOOD_NUMBERS, GOOD_NUMBERS),
    st.tuples(ENTRIES, ENTRIES).map(list),
    st.tuples(ENTRIES, ENTRIES),
    st.lists(ENTRIES, max_size=3),  # wrong lengths
    st.tuples(ENTRIES, ENTRIES, ENTRIES),
    ENTRIES,  # not a pair at all
)


@settings(deadline=None, max_examples=300)
@given(
    n=st.integers(0, 10),
    seed=st.integers(0, 2**32 - 1),
    as_tuples=st.booleans(),
    overrides=st.lists(st.tuples(st.integers(0, 1023), PAIRS), max_size=4),
)
def test_from_json_dict_matches_per_pair_reference(n, seed, as_tuples, overrides):
    # a bulk of ordinary pairs (floats, ±0.0, integers, rarely NaN or ±inf),
    # then drawn entries written over a few of them
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(1 << n, 2)) * 10.0 ** rng.integers(-300, 300, size=(1 << n, 2))
    values[rng.random(values.shape) < 0.2] = 0.0
    values[rng.random(values.shape) < 0.1] *= -1.0
    if rng.random() < 0.1:
        values.flat[rng.integers(values.size)] = rng.choice([np.nan, np.inf, -np.inf])
    raw = values.tolist()
    for k in np.flatnonzero(rng.random(1 << n) < 0.2):
        raw[k] = [int(v) for v in rng.integers(-(2**62), 2**62, size=2)]
    if as_tuples:
        raw = [tuple(pair) for pair in raw]
    for k, pair in overrides:
        raw[k % (1 << n)] = pair
    data = {"n": n, "amps": raw}
    expected = load_outcome(reference_from_json_dict, data)
    assert load_outcome(StateVector.from_json_dict, data) == expected


@pytest.mark.parametrize("amps, message", [
    ([[-0.0, 5e-324], (2**63 + 1, -(2**64))], None),
    ([[np.float64(-0.0), 1.7976931348623157e308], (2**1024 - 2**971, 0)], None),
    ([[1, 0], [True, 0]], "amplitude 1 must be a [re, im] number pair"),
    ([(1, 2, 3), [10**400, 0]], "amplitude 0 must be a [re, im] number pair"),
    ([[0.0, 10**400], "ab"], "amplitude 0 is too large for a double"),
    ([[np.float64(1), 0], [np.int64(1), 0]], "amplitude 1 must be a [re, im] number pair"),
    ([[float("nan"), 0], ["x", 0]], "amplitude 1 must be a [re, im] number pair"),
    ([[float("inf"), 0], [0, 0]], "amplitudes must be finite"),
])
def test_from_json_dict_edge_cases_match_reference(amps, message):
    data = {"n": 1, "amps": amps}
    expected = load_outcome(reference_from_json_dict, data)
    assert load_outcome(StateVector.from_json_dict, data) == expected
    assert expected[0] == (1 if message is None else ValueError)
    if message is not None:
        assert expected[1] == message


@pytest.mark.parametrize("view", [
    lambda a: a[::2], lambda a: a[:32][::-1], lambda a: a[1::2][::-1],
], ids=["step 2", "reversed", "odd reversed"])
def test_to_json_dict_strided_view_matches_reference(view):
    rng = np.random.default_rng(17)
    base = rng.normal(size=64) + 1j * rng.normal(size=64)
    base[:6] = [0.0, -0.0, complex(-0.0, -0.0), 5e-324j, -5e-324, complex(1e308, -1e-308)]
    psi = StateVector(5, view(base))
    assert not psi.amps.flags.c_contiguous
    expected = json.dumps(reference_to_json_dict(psi))
    assert json.dumps(psi.to_json_dict()) == expected


def test_state_file_round_trip_is_byte_identical_at_n18(run_cli, tmp_path, monkeypatch):
    # encode --out writes the per-amplitude reference's text and a newline;
    # read and cam print alike whether the CLI loads the file or json and
    # the per-pair reference load it
    pattern = "BOZB" + "B" * 10 + "OBZB"
    state = str(tmp_path / "state.json")
    commands = [
        ["read", state, "70000", "--shots", "1000", "--seed", "3"],
        ["cam", state, "expr:ab'c'", "--shots", "500", "--seed", "9"],
    ]
    assert run_cli(["encode", pattern, "--out", state])[:2] == (0, "")
    with open(state, "rb") as fh:
        assert fh.read() == (reference_to_json_text(encode(pattern)) + "\n").encode("ascii")
    outputs = [run_cli(argv) for argv in commands]
    assert all(code == 0 for code, _, _ in outputs)
    loads = []

    def reference_load(path):
        loads.append(path)
        with open(path) as fh:
            return reference_from_json_text(fh.read())

    monkeypatch.setattr(statefile, "_load", reference_load)
    assert [run_cli(argv) for argv in commands] == outputs
    assert loads == [state, state]  # the reference really did the loading


# --- state files as text: each distinct pair formatted and parsed once ------------

VALUE_POOL = (0.0, -0.0, 1.0, -1.0, 0.1, 5e-324, -5e-324, 1e308, -1.7976931348623157e308)
VIEWS = {
    "whole": lambda a, n: a[: 1 << n],
    "step 2": lambda a, n: a[::2],
    "reversed": lambda a, n: a[::-1][: 1 << n],
    "odd reversed": lambda a, n: a[1::2][::-1],
}


@settings(deadline=None, max_examples=300)
@given(
    n=st.integers(0, 10),
    seed=st.integers(0, 2**32 - 1),
    pool_size=st.integers(1, len(VALUE_POOL)),
    all_distinct=st.booleans(),
    view=st.sampled_from(sorted(VIEWS)),
    nonfinite=st.lists(
        st.tuples(st.integers(0, 1023), st.sampled_from([np.nan, np.inf, -np.inf]), st.booleans()),
        max_size=3,
    ),
)
# ±0.0 in both parts, among values whose texts are 3 to 24 bytes wide
@example(n=10, seed=5, pool_size=len(VALUE_POOL), all_distinct=False, view="whole", nonfinite=[])
def test_to_json_text_matches_reference(n, seed, pool_size, all_distinct, view, nonfinite):
    # values from a small pool repeat, so pairs share one formatted text;
    # normal draws with spread exponents make every pair distinct
    rng = np.random.default_rng(seed)
    if all_distinct:
        values = rng.normal(size=(2 << n, 2)) * 10.0 ** rng.integers(-300, 300, size=(2 << n, 2))
    else:
        values = rng.choice(VALUE_POOL[:pool_size], size=(2 << n, 2))
    psi = StateVector(n, VIEWS[view](values.view(np.complex128).reshape(-1), n))
    for k, value, imaginary in nonfinite:  # written in place, past the finiteness check
        psi.amps[k % (1 << n)] = complex(0.0, value) if imaginary else complex(value, 0.0)
    if nonfinite:  # refused at the save, as at every read of a caller's amplitudes
        with pytest.raises(ValueError, match="^amplitudes must be finite$"):
            psi.to_json_text()
    else:
        assert psi.to_json_text() == reference_to_json_text(psi)


# [re, im] bodies written over pairs of a canonical file; only the first few
# are canonical, the rest test what json accepts, rounds or rejects
PAIR_BODIES = [
    "0.0, 0.0", "1.0, -0.0", "5e-324, 1e+308",
    "0, 0", "1, -0", "NaN, 0.0", "Infinity, -Infinity", "1e999, 0", "-1e-999, 1E2",
    "1" * 401 + ", 0", f"{2**1024 - 2**970}, 0", f"0, {2**1024 - 2**971}", f"{2**63 + 1}, 0",
    "01, 0", "1.0", "1.0, 0.0, 0.0", "", "1.0, ", "-, 0", "true, 0", "null, 0",
    " 1.0 ,\t0.0\n", "1.0,0.0", "[0.0], 0.0", "0.0, [0.0]]", "[0, 0], [0, 0]",
    '"1", 0', '"], [", 0', "1.0, 0.0}", "{}, 0",
]
TEXT_EDITS = {
    "compact header": lambda t, n, cut: t.replace('": ', '":', 2).replace(', "amps', ',"amps'),
    "spaced header": lambda t, n, cut: t.replace('{"n": ', '{ "n" : ').replace(', "a', ' ,\n "a'),
    "swapped keys": lambda t, n, cut: '{"amps": %s, "n": %d}\n' % (t[t.index("[["):-2], n),
    "no newline": lambda t, n, cut: t[:-1],
    "two newlines": lambda t, n, cut: t + "\n",
    "crlf": lambda t, n, cut: t[:-1] + "\r\n",
    "leading zero in n": lambda t, n, cut: t.replace('{"n": ', '{"n": 0'),
    "float n": lambda t, n, cut: t.replace(', "amps"', '.0, "amps"'),
    "n one too big": lambda t, n, cut: t.replace('{"n": %d,' % n, '{"n": %d,' % (n + 1)),
    "negative n": lambda t, n, cut: t.replace('{"n": ', '{"n": -'),
    "truncated": lambda t, n, cut: t[: cut % len(t)],
}


@settings(deadline=None, max_examples=300)
@given(
    n=st.integers(0, 8),
    seed=st.integers(0, 2**32 - 1),
    pool_size=st.integers(1, len(VALUE_POOL)),
    overrides=st.lists(
        st.tuples(st.integers(0, 255), st.integers(1, 4), st.sampled_from(PAIR_BODIES)), max_size=3
    ),
    edit=st.one_of(st.none(), st.sampled_from(sorted(TEXT_EDITS))),
    cut=st.integers(0, 2**20),
)
def test_from_json_text_matches_reference(n, seed, pool_size, overrides, edit, cut):
    # canonical text from pooled values, then pair bodies written over a
    # stride of pairs (so bad bodies repeat and may still dedupe), then at
    # most one edit of the count, header, key order, ending or length
    rng = np.random.default_rng(seed)
    values = rng.choice(VALUE_POOL[:pool_size], size=(1 << n, 2))
    pairs = json.dumps(values.tolist())[2:-2].split("], [")
    for start, step, body in overrides:
        chosen = pairs[start % len(pairs)::step]
        pairs[start % len(pairs)::step] = [body] * len(chosen)
    text = '{"n": %d, "amps": [[%s]]}\n' % (n, "], [".join(pairs))
    if edit is not None:
        text = TEXT_EDITS[edit](text, n, cut)
    expected = load_outcome(reference_from_json_text, text)
    assert load_outcome(StateVector.from_json_text, text) == expected


# pieces of 7, 8, 9, 16 and 17 bytes that share their first 7 or 8 bytes but
# not their values, so a key on fewer bytes than the whole piece merges them
WIDTHS_7_TO_17 = ["0, 1.00", "0, 1.000", "0, 1.0001", "0, 1.00000000002", "0, 1.000000000003"]


EDGE_TEXTS = pytest.mark.parametrize("text, outcome", [
    ('{"n": 1, "amps": ' + "[" * 100_000 + "]" * 100_000 + "}", "state file nests too deeply"),
    ('{"n": 1, "amps": [[' + "[" * 100_000 + "]" * 100_000 + "]]}\n",
     "state file nests too deeply"),
    ('{"n": 2, "amps": [[%s, 0], [0, 0], [0, 0], [0, 0]]}\n' % ("1" * 5000), "(4300 digits)"),
    ('{"n": 2, "amps": [[1, 0], [1, 0], [1, 0], [1, 12345', "Expecting ',' delimiter"),
    ('{"n": 2, "amps": [[0, 0], [0, 0], [0, 0], [1, 0]]}\n', 2),
    ('{"n": 1, "amps": [[1e308, 0], [1e308, 0]]}\n', 1),
    ('{"n": 0, "amps": [[1.0, 0.0]]}\n', 0),
    ('{"n": 3, "amps": [[%s]]}\n' % "], [".join(["1.0, 0.0"] * 7), "expected 8 amplitude pairs"),
    ('{"n": 3, "amps": [[%s]]}\n' % "], [".join(["1.0, 0.0"] * 9), "expected 8 amplitude pairs"),
    ('{"n": 3, "amps": [[%s]]}\n' % "], [".join(["1, 0", "1.0, 0.0", "0, 0", "0.0, -0.0"] * 2), 3),
    ('{"n": 2, "amps": [[0, 1.0], [0, 1.0\0], [0, 1.0], [0, 1.0]]}\n', "Expecting ',' delimiter"),
    ('{"n": 2, "amps": [[0, 1.0], [0,\u00a01.0], [0, 1.0], [0, 1.0]]}\n', "Expecting value"),
    ('{"n": 4, "amps": [[%s]]}\n' % "], [".join(WIDTHS_7_TO_17 * 3 + ["0, 1.0"]), 4),
    ('{"n": 2, "amps": [[], [1, 0], [1, 0], [1, 0]]}\n', "amplitude 0 must be a [re, im] number pair"),
    ('{"n": 2, "amps": [["a], [b", 0], [1, 0], [1, 0], [1, 0]]}\n', "amplitude 0 must be"),
    ('{"n": 2, "amps": [[1.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 0.0]]}\r\n', 2),
    ('{"n": 2, "amps": [[1.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 0.0]]}\r', 2),
    ('{"n": 2, "amps": [[1.0, 0.0], [2.0, 0.0], [3.0, 0.0], [1.0, 0.0]]}\n', 2),
    ('{"n": 2, "amps": [[ 1.0 ,  0.0 ], [0.0, 0.0], [ 1.0 ,  0.0 ], [\t0.0,0.0\n]]}\n', 2),
    # pieces of one width are read by stride; 7 and 9 alternating divide the
    # body into 12-byte rows too, but their separators are not where rows end
    ('{"n": 0, "amps": [[0.7071067811865476, -0.0]]}\n', 0),
    ('{"n": 3, "amps": [[%s]]}\n' % "], [".join(["1.0, 0.0", "0.0, 0.0"] * 4), 3),
    ('{"n": 3, "amps": [[%s]]}\n' % "], [".join(["1.0, 0.00", "1.0, 0.01"] * 4), 3),
    ('{"n": 3, "amps": [[%s]]}\n' % "], [".join(["0.12345678, 1.00", "0.12345678, 2.00"] * 4), 3),
    ('{"n": 3, "amps": [[%s]]}\n' % "], [".join(["0.12345678, 1.000", "0.12345678, 2.000"] * 4),
     3),
    ('{"n": 2, "amps": [[%s]]}\n' % "], [".join(["0, 1.00", "0, 1.0001"] * 2), 2),
    ('{"n": 2, "amps": [[1.0, 0.0], [1.0, 0.0], [[1.0, 0.], [1.0, 0.0]]}\n',
     "Expecting ',' delimiter"),
    # pieces of one width with quotes and braces: json reads none of them
    # as a number pair, so the text goes to json whole
    ('{"n": 2, "amps": [[%s]]}\n' % "], [".join(['"a", 0', "1.0, 0"] * 2),
     "amplitude 0 must be a [re, im] number pair"),
    ('{"n": 2, "amps": [[%s]]}\n' % "], [".join(['1, "ab', 'cd", 0'] * 2),
     "expected 4 amplitude pairs"),
    ('{"n": 2, "amps": [[%s]]}\n' % "], [".join(["{}, 0", "0, {}"] * 2),
     "amplitude 0 must be a [re, im] number pair"),
    ('{"n": 2, "amps": [[%s]]}\n' % "], [".join(['0, {"x', '": 1 }'] * 2),
     "expected 4 amplitude pairs"),
], ids=[
    "deep", "deep in pairs", "5000 digits", "truncated", "word", "overflowing norm", "one pair",
    "7 of 8 pairs", "9 of 8 pairs", "one value in two texts", "NUL lengthens a piece",
    "non-ASCII space", "widths 7 to 17", "empty pair", "bracket text in a string", "crlf", "cr",
    "more than half distinct", "spaces in pairs", "one wide pair", "width 8", "width 9",
    "width 16", "width 17", "widths 7 and 9", "bracket in an equal-width piece",
    "quotes in pieces", "a string across pieces", "braces in pieces", "an object across pieces",
])


@EDGE_TEXTS
def test_from_json_text_edge_cases_match_reference(text, outcome):
    expected = load_outcome(reference_from_json_text, text)
    assert load_outcome(StateVector.from_json_text, text) == expected
    if isinstance(outcome, str):
        assert issubclass(expected[0], ValueError) and outcome in expected[1]
    else:
        assert expected[0] == outcome


@EDGE_TEXTS
def test_state_file_edge_cases_load_as_their_text_does(text, outcome, tmp_path):
    # the file's UTF-8 bytes go through the byte route or, decoded as
    # open(path).read() decodes them, through from_json_text
    path = tmp_path / "state.json"
    path.write_bytes(text.encode("utf-8"))
    expected = load_outcome(reference_from_json_text, path.read_text())
    assert load_outcome(statefile._load, str(path)) == expected


def encoded_file():
    psi = encode("BOZB" + "B" * 8)
    return psi.to_json_text() + "\n", psi.amps


def two_word_piece_file():
    # 10-byte pieces whose first 8 bytes, "0.50, 0.", are the same in every piece
    pick = np.random.default_rng(12).integers(2, size=1 << 12).astype(bool)
    pieces = np.where(pick, "0.50, 0.75", "0.50, 0.25")
    return canonical_text(12, pieces), np.where(pick, 0.5 + 0.75j, 0.5 + 0.25j)


@pytest.mark.parametrize("build, pairs", [
    (encoded_file, [[0.0, 0.0], [1.0, 0.0]]),
    (two_word_piece_file, [[0.5, 0.25], [0.5, 0.75]]),
], ids=["encoded", "two-word pieces"])
def test_from_json_text_parses_each_distinct_pair_once(build, pairs, monkeypatch):
    # each file has two distinct pairs, so json.loads sees only them
    text, amps = build()
    seen, loads = [], json.loads
    monkeypatch.setattr(json, "loads", lambda text: seen.append(text) or loads(text))
    assert StateVector.from_json_text(text).amps.tobytes() == amps.tobytes()
    assert len(seen) == 1
    assert sorted(loads(seen[0])) == pairs


# --- the canonical path's own accept rule, against json + the per-pair loader -----

def canonical_text(n, pieces):
    return '{"n": %d, "amps": [[%s]]}\n' % (n, "], [".join(pieces))


@pytest.mark.parametrize("n", [25, 999_999_999])
def test_over_cap_header_is_rejected_before_two_to_the_n(n):
    # a short body under a huge count: no 2^n-sized int or list is built
    text = canonical_text(n, ["1.0, 0.0"] * 4)
    expected = load_outcome(reference_from_json_text, text)
    assert expected == (ResourceLimitError, f"{n} qubits exceeds the cap of {DEFAULT_QUBIT_CAP}")
    outcome, peak = traced_peak(lambda: load_outcome(StateVector.from_json_text, text))
    assert outcome == expected
    assert peak < 1 << 20  # 1 << 999_999_999 alone is 125 MB


def test_a_far_wider_piece_sends_the_text_to_json():
    # one piece of 20 kB among 4096 of 8 bytes fails the one-width stride
    # check, so the text goes whole to json before any word is built
    pieces = ["1.0, 0.0"] * 4096
    pieces[7] = "0." + "0" * 20_000 + "1, 0"
    text = canonical_text(12, pieces)
    outcome, peak = traced_peak(lambda: load_outcome(StateVector.from_json_text, text))
    assert outcome == load_outcome(reference_from_json_text, text)
    assert outcome[0] == 12
    assert peak < 8 << 20


# word values at both ends of uint64, so a fold that lost a bit would show
WORD_VALUES = [0, 1, 2, 0xFF, 1 << 32, 1 << 63, (1 << 64) - 1]


@settings(deadline=None, max_examples=300)
@given(
    w=st.integers(1, 4),
    size=st.integers(1, 512),
    alphabet=st.lists(st.sampled_from(WORD_VALUES), min_size=1, max_size=4, unique=True),
    constant=st.lists(st.booleans(), min_size=4, max_size=4),
    all_distinct=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_dense_codes_number_columns_as_np_unique(w, size, alphabet, constant, all_distinct, seed):
    rng = np.random.default_rng(seed)
    words = np.array(alphabet, np.uint64)[rng.integers(len(alphabet), size=(w, size))]
    for word, alike in zip(words, constant):
        if alike:  # the same value in every column
            word[:] = word[0]
    if all_distinct:  # one word of distinct values makes every column distinct
        words[rng.integers(w)] = np.uint64((1 << 64) - 1) - rng.permutation(size).astype(np.uint64)
    given = list(words)
    codes, distinct = statefile._dense_codes(given)
    assert given == []  # each word was popped as it was numbered
    expected, inverse = np.unique(words.T, axis=0, return_inverse=True)
    assert distinct.dtype == np.uint64
    assert distinct.tolist() == expected.tolist()
    assert codes.tolist() == inverse.reshape(-1).tolist()


# piece bytes with no bracket, so that equal widths pass the stride route
PIECE_BYTES = "0123456789.-e, N\0"


@settings(deadline=None, max_examples=200)
@given(
    n=st.integers(1, 8),
    pool=st.integers(0, 24).flatmap(
        lambda width: st.lists(st.text(PIECE_BYTES, min_size=width, max_size=width), min_size=1,
                               max_size=4)),
    seed=st.integers(0, 2**32 - 1),
)
def test_equal_width_pieces_give_their_bytes_as_filled_words(n, pool, seed):
    pieces = [pool[k] for k in np.random.default_rng(seed).integers(len(pool), size=1 << n)]
    width = len(pool[0])
    buf = np.frombuffer(canonical_text(n, pieces).encode("ascii"), np.uint8)
    start, stop = len('{"n": %d, "amps": [[' % n), buf.size - 3
    words = statefile._piece_words(buf, start, stop, 1 << n)
    # per piece: each 8 bytes, or the fewer that end it, after 0xFF fill bytes,
    # as one little-endian word
    expected = [
        [int.from_bytes(b"\xff" * (8 - len(chunk)) + chunk, "little") for chunk in (
            piece.encode("ascii")[low : low + 8] for low in range(0, max(width, 1), 8))]
        for piece in pieces
    ]
    assert all(word.dtype == np.dtype("<u8") for word in words)
    assert np.array(words).T.tolist() == expected


@settings(deadline=None, max_examples=200)
@given(
    n=st.integers(1, 8),
    pool=st.integers(1, 24).flatmap(
        lambda width: st.lists(st.text(PIECE_BYTES, min_size=width, max_size=width), min_size=1,
                               max_size=4)),
    seed=st.integers(0, 2**32 - 1),
    at=st.integers(0, 2**16),
    bracket=st.sampled_from("[]"),
    newline=st.booleans(),
)
def test_a_bracket_in_any_one_piece_sends_the_text_to_json(n, pool, seed, at, bracket, newline):
    # the pieces keep one width, so only the check on the distinct pieces
    # can see the bracket, wherever it stands
    pieces = [pool[k] for k in np.random.default_rng(seed).integers(len(pool), size=1 << n)]
    piece = pieces[at % len(pieces)]
    column = at % len(piece)
    pieces[at % len(pieces)] = piece[:column] + bracket + piece[column + 1 :]
    text = canonical_text(n, pieces)[: None if newline else -1]
    assert rebuilt_for_json(text.encode("ascii")) == text.encode("ascii")
    assert load_outcome(StateVector.from_json_text, text) == load_outcome(
        reference_from_json_text, text)


@pytest.mark.parametrize("n, piece", [(1, "0, 0], [0, 0"), (2, "1.0, 0.0], [0.0, 0.0")])
def test_a_piece_that_holds_two_pairs_sends_the_text_to_json(n, piece):
    # all pieces alike and of one width, each the text of two pairs: read
    # as one distinct piece it would parse, so only its bracket refuses it
    text = canonical_text(n, [piece] * (1 << n))
    assert rebuilt_for_json(text.encode("ascii")) == text.encode("ascii")
    expected = load_outcome(reference_from_json_text, text)
    assert expected == (ValueError, f"expected {1 << n} amplitude pairs for n={n}")
    assert load_outcome(StateVector.from_json_text, text) == expected


@pytest.mark.parametrize("pieces", [
    [f"0.{k:06d}, 0.0" for k in range(16)],
    ["1.0, 0.0", "0.0, 0.0", "0.0, 0.0", "[0.0, 0]"] * 4,
    ["1.0, 0.0", "0.0, 0.0", "0.0, 0.0", "true, 0."] * 4,
], ids=["all distinct", "bracket", "bad pair"])
def test_a_late_refused_text_goes_to_json_as_given(pieces, tmp_path, monkeypatch):
    # from_json_text still holds the caller's str, so a text refused once
    # its pieces are numbered is not rebuilt from them; _load, which freed
    # the file's bytes, rebuilds them, and both end as json reads the text
    text = canonical_text(4, pieces)
    path = tmp_path / "state.json"
    path.write_text(text)
    rebuilt, joined = [], statefile._joined_pairs

    def spy(pieces, codes, head, tail):
        if codes is not None:  # a whole text, not the list of distinct pairs
            rebuilt.append(len(codes))
        return joined(pieces, codes, head, tail)

    monkeypatch.setattr(statefile, "_joined_pairs", spy)
    expected = load_outcome(reference_from_json_text, text)
    assert load_outcome(StateVector.from_json_text, text) == expected
    assert rebuilt == []
    assert load_outcome(statefile._load, str(path)) == expected
    assert rebuilt == [16]


def test_an_encoded_file_loads_in_about_one_state():
    # an n=20 file (12 MiB of text) read by stride: the text's bytes, one
    # word and one code per pair, and the 16 MiB state
    psi = encode("BOZB" + "B" * 16)
    text = psi.to_json_text() + "\n"
    loaded, peak = traced_peak(lambda: StateVector.from_json_text(text))
    assert loaded.amps.tobytes() == psi.amps.tobytes()
    assert peak <= 1.7 * psi.amps.nbytes


def test_load_frees_the_file_bytes_before_numbering(tmp_path):
    # the file's 12 MiB of bytes are freed once their words are read, so
    # they are not live beside the codes and the 16 MiB state
    psi = encode("BOZB" + "B" * 16)
    path = tmp_path / "state.json"
    path.write_bytes(statefile._save(psi, b"\n"))
    loaded, peak = traced_peak(lambda: statefile._load(str(path)))
    assert loaded.amps.tobytes() == psi.amps.tobytes()
    assert peak <= 1.7 * psi.amps.nbytes


@pytest.mark.parametrize("text", [
    json.dumps({"n": 16, "amps": [[0.5, 0.0], [0.25, -1.0]] * (1 << 15)}, separators=(",", ":")),
    canonical_text(16, [f"0.{k:05d}, 0.0" for k in range(1 << 16)]),
], ids=["compact", "all distinct"])
def test_load_holds_no_file_bytes_through_the_json_parse(text, tmp_path):
    # a compact file (721 kB) goes to json at once, a canonical one of
    # distinct pairs (1 MB) once its pieces are numbered, its bytes then
    # rebuilt: the bytes are freed once decoded and the text once parsed,
    # so _load holds no more than from_json_text beside its caller's text
    path = tmp_path / "state.json"
    path.write_text(text)
    expected = load_outcome(reference_from_json_text, text)
    peaks = []
    for load, source in ((statefile._load, str(path)), (StateVector.from_json_text, text)):
        load(source)  # first calls fill caches the peaks should not count
        psi, peak = traced_peak(lambda: load(source))
        assert (psi.n, psi.amps.dtype, psi.amps.tobytes()) == expected
        peaks.append(peak)
    # a margin for the few fixed-size objects _load holds, such as its closed file
    assert peaks[0] <= peaks[1] + 0.01 * len(text)


def test_an_over_cap_state_file_is_refused_at_its_head(tmp_path, monkeypatch):
    # a canonical n=16 file (786 kB) under a cap of 15: refused from its
    # header, with no json parse, and holding about the file alone
    text = encode("BOZB" + "B" * 12).to_json_text() + "\n"
    path = tmp_path / "state.json"
    path.write_text(text)
    monkeypatch.setattr(statevec, "DEFAULT_QUBIT_CAP", 15)
    seen, loads = [], json.loads
    monkeypatch.setattr(json, "loads", lambda text: seen.append(text) or loads(text))
    expected = (ResourceLimitError, "16 qubits exceeds the cap of 15")
    outcome, peak = traced_peak(lambda: load_outcome(statefile._load, str(path)))
    assert outcome == expected
    assert peak <= 1.1 * len(text)
    assert load_outcome(StateVector.from_json_text, text) == expected
    assert seen == []


@pytest.mark.parametrize("pieces, bound", [
    (("0.25, 0.00", "0.50, 0.00"), 1.7),
    (("0.50, 0.25", "0.50, 0.75"), 1.7),
    (("0.12345678, 1.000", "0.12345678, 2.000"), 2.2),
], ids=["second word alike", "first word alike", "17-byte pieces"])
def test_a_file_of_two_word_pieces_loads_in_about_one_state(pieces, bound):
    # n=20 files read from their bytes as a state file is: 10-byte pieces
    # (14 MiB) take two words, one the same in every piece and so never
    # numbered, and peak at the larger of numbering a word (the word, its
    # sorted copy, its codes) and the gather (the codes, the 16 MiB
    # state); 17-byte pieces take three words, two of which vary, and the
    # second is numbered beside the first one's codes
    pick = np.random.default_rng(20).integers(2, size=1 << 20).astype(bool)
    data = canonical_text(20, np.where(pick, *pieces)).encode("ascii")
    psi, peak = traced_peak(lambda: statefile._from_words(statefile._canonical_words(data)))
    values = [complex(*json.loads(f"[{piece}]")) for piece in pieces]
    assert psi.n == 20
    assert psi.amps.tobytes() == np.where(pick, *values).tobytes()
    assert peak <= bound * psi.amps.nbytes


def test_an_encoded_state_saves_in_about_one_state():
    # an n=20 state (16 MiB) written as 12 MiB of text: a code per pair,
    # the gathered rows, the output bytes and the text
    psi = encode("BOZB" + "B" * 16)
    text, peak = traced_peak(psi.to_json_text)
    assert text.endswith("[0.0, 0.0]]}")
    assert peak <= 1.6 * psi.amps.nbytes


def test_a_grover_state_saves_in_a_few_texts():
    # the n=18 final state has two distinct pair texts, of 23 and 28 bytes;
    # each pair's gathered row is 32 bytes, not four whole 8-byte words + 4
    psi = run(needle(12345, 18)).final_state
    text, peak = traced_peak(psi.to_json_text)
    assert text.endswith("]]}")
    assert peak <= 3.35 * len(text)


BAD_PIECES = {
    "true": "true, 0.0", "null": "0.0, null", "one number": "1", "three numbers": "1, 2, 3",
    "empty": "", "401 digits": "1" * 401 + ", 0", "NaN": "NaN, 0.0", "1e999": "0.0, 1e999",
}


@pytest.mark.parametrize("first_bad", [0, 5])
@pytest.mark.parametrize("bad", list(BAD_PIECES))
def test_repeated_bad_piece_fails_as_json_would(bad, first_bad, monkeypatch):
    # two distinct pieces in eight, space-padded to one width, so the
    # canonical path parses them, finds the bad one and hands the text to
    # json whole
    width = max(len(BAD_PIECES[bad]), len("0.0, 0.0"))
    pieces = ["0.0, 0.0".ljust(width)] * 8
    pieces[first_bad::3] = [BAD_PIECES[bad].ljust(width)] * len(pieces[first_bad::3])
    text = canonical_text(3, pieces)
    seen, pair_values = [], statefile._pair_values
    monkeypatch.setattr(
        statefile, "_pair_values", lambda raw: seen.append(len(raw)) or pair_values(raw)
    )
    outcome = load_outcome(StateVector.from_json_text, text)
    assert seen[0] == 2  # the canonical path checked the two distinct pieces
    assert outcome == load_outcome(reference_from_json_text, text)
    assert issubclass(outcome[0], ValueError)
    if bad not in ("NaN", "1e999"):  # those two parse, then fail the finiteness check
        assert f"amplitude {first_bad} " in outcome[1]


def test_canonical_file_skips_from_json_dict(monkeypatch):
    # an encoded n=16 file, with the CLI's final newline or as to_json_text
    # returns it, is built from its distinct pairs; a file with a compact
    # header is not canonical and goes through from_json_dict
    calls, from_json_dict = [], StateVector.from_json_dict
    spy = staticmethod(lambda data: calls.append(data["n"]) or from_json_dict(data))
    monkeypatch.setattr(StateVector, "from_json_dict", spy)
    psi = encode("BOZB" + "B" * 12)
    text = psi.to_json_text() + "\n"
    for loaded in (text, text[:-1]):
        assert StateVector.from_json_text(loaded).amps.tobytes() == psi.amps.tobytes()
    assert calls == []
    compact = text.replace('{"n": 16, "amps"', '{"n":16,"amps"')
    assert StateVector.from_json_text(compact).amps.tobytes() == psi.amps.tobytes()
    assert calls == [16]
