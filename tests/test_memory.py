"""Capacity combinatorics and the RAM/CAM views of stored words."""

import itertools

import numpy as np
import pytest

from svmem.boolfn import BoolFn, from_minterms, needle, parse, truth_set
from svmem.errors import DegenerateStateError, ResourceLimitError, ShapeError
from svmem.memory import (
    CapacityRow,
    cam_match,
    capacity,
    enumerate_patterns,
    pattern_for,
    ram_read,
    recognizes,
)
from svmem.oracle import apply_marking
from svmem.statevec import Factor, StateVector, encode, kron, norm_squared, support

Z, O, B = Factor.ZERO, Factor.ONE, Factor.BOTH


# --- capacity -----------------------------------------------------------------

def test_capacity_zero_qubits():
    report = capacity(0)
    assert report.total == 1
    assert report.rows == (CapacityRow(0, 1, 1, 1),)


def test_capacity_three_qubits_rows():
    report = capacity(3)
    assert report.rows == (
        CapacityRow(0, 1, 8, 8),
        CapacityRow(1, 3, 4, 12),
        CapacityRow(2, 3, 2, 6),
        CapacityRow(3, 1, 1, 1),
    )
    assert report.total == 27


def test_capacity_counts_distinct_encodings():
    # independent oracle: encode every pattern and count distinct words
    for n in (1, 2, 3):
        distinct = {
            encode(p).amps.real.astype(np.uint8).tobytes()
            for p in enumerate_patterns(n)
        }
        assert capacity(n).total == len(distinct)


def test_capacity_twenty_qubits():
    assert capacity(20).total == 3486784401
    assert capacity(20).total == 3**20


def test_capacity_closed_form_and_bounds():
    for n in range(41):
        assert capacity(n).total == 3**n
    for n in range(2, 11):
        total = capacity(n).total
        assert (1 << n) < total < (1 << (1 << n))


def test_capacity_rejects_negative():
    with pytest.raises(ValueError):
        capacity(-1)


def test_capacity_json_total_is_decimal_string():
    data = capacity(40).to_json_dict()
    assert data["total"] == str(3**40)
    assert data["rows"][0] == {"i": 0, "choose": 1, "codes": 1 << 40, "product": 1 << 40}


# --- enumerate_patterns -----------------------------------------------------------

def test_enumerate_single_qubit():
    assert list(enumerate_patterns(1)) == [(Z,), (O,), (B,)]


def test_enumerate_order_and_count():
    patterns = list(enumerate_patterns(2))
    assert len(patterns) == 9
    assert patterns[0] == (Z, Z) and patterns[-1] == (B, B)
    assert sum(1 for _ in enumerate_patterns(8)) == 6561


def test_enumerate_guard():
    with pytest.raises(ResourceLimitError):
        enumerate_patterns(13)
    with pytest.raises(ValueError):
        enumerate_patterns(0)


# --- pattern_for --------------------------------------------------------------------

def test_pattern_for_examples():
    assert pattern_for([1, 1, 0, 0, 0, 0, 0, 0]) == (Z, Z, B)
    assert pattern_for([1, 0, 0, 0, 0, 0, 0, 0]) == (Z, Z, Z)
    assert pattern_for([1, 0, 0, 1, 0, 0, 0, 0]) is None


def test_pattern_for_non_subcube_confirmed_by_exhaustion():
    word = np.array([1, 0, 0, 1, 0, 0, 0, 0])
    wanted = {0, 3}
    for p in enumerate_patterns(3):
        assert support(encode(p)) != wanted
    assert pattern_for(word) is None


def test_pattern_for_rejects_or_declines_edge_words():
    assert pattern_for([0, 0, 0, 0]) is None  # empty support is not encodable
    assert pattern_for([1]) is None  # no zero-length pattern exists
    with pytest.raises(ValueError, match="power of two"):
        pattern_for([1, 0, 0])
    with pytest.raises(ValueError, match="0 or 1"):
        pattern_for([2, 0])


def test_pattern_for_roundtrip_exhaustive():
    for n in range(1, 7):
        for p in enumerate_patterns(n):
            word = (np.abs(encode(p).amps) > 1e-9).astype(int)
            assert pattern_for(word) == p


# --- ram_read ------------------------------------------------------------------------

def test_ram_read_stored_word(zzb_state):
    assert ram_read(zzb_state, 1) == (1, 0.5)
    assert ram_read(zzb_state, 5) == (0, 0.0)
    assert ram_read(StateVector(1, np.array([0, 1], complex)), 1) == (1, 1.0)


def test_ram_read_errors(zzb_state):
    with pytest.raises(ValueError, match=r"0\.\.7"):
        ram_read(zzb_state, 8)
    with pytest.raises(DegenerateStateError):
        ram_read(StateVector(1, np.zeros(2, complex)), 0)
    for eps in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="eps must be positive"):
            ram_read(zzb_state, 0, eps)


def test_ram_read_roundtrip():
    for n in range(1, 5):
        for p in enumerate_patterns(n):
            psi = encode(p)
            stored = support(psi)
            for k in range(1 << n):
                bit, prob = ram_read(psi, k)
                assert bit == (1 if k in stored else 0)
                assert prob == pytest.approx(
                    (1.0 if k in stored else 0.0) / len(stored), abs=1e-12
                )


def test_ram_read_probability_equals_marking_aux_route():
    # independent route: apply the needle's marking oracle and weigh aux=1
    rng = np.random.default_rng(19)
    psi = StateVector(4, rng.normal(size=16) + 1j * rng.normal(size=16))
    zero_aux = StateVector(1, np.array([1, 0], complex))
    for k in (0, 3, 11, 15):
        out = apply_marking(needle(k, 4), kron(psi, zero_aux))
        aux_one = float(np.sum(np.abs(out.amps[1::2]) ** 2) / norm_squared(out))
        assert ram_read(psi, k)[1] == pytest.approx(aux_one, abs=1e-12)


# --- cam_match -------------------------------------------------------------------------

def test_cam_match_values(zzb_state):
    assert cam_match(zzb_state, parse("a'b'", ["a", "b", "c"])) == pytest.approx(
        1.0, abs=1e-12
    )
    assert cam_match(zzb_state, needle(0, 3)) == pytest.approx(0.5, abs=1e-12)
    assert cam_match(zzb_state, from_minterms(set(), 3)) == 0.0


def test_cam_match_errors(zzb_state):
    with pytest.raises(ShapeError):
        cam_match(zzb_state, needle(0, 2))
    with pytest.raises(DegenerateStateError):
        cam_match(StateVector(2, np.zeros(4, complex)), needle(0, 2))


def test_cam_match_certain_iff_support_contained():
    # exhaustive: all 27 stored words against all 256 three-input functions
    tables = itertools.product((0, 1), repeat=8)
    fns = [BoolFn(3, np.array(bits, dtype=np.uint8)) for bits in tables]
    for p in enumerate_patterns(3):
        psi = encode(p)
        stored = support(psi)
        for f in fns:
            certain = abs(cam_match(psi, f) - 1.0) <= 1e-12
            assert certain == (stored <= truth_set(f))


def test_cam_match_equals_marking_aux_route():
    rng = np.random.default_rng(23)
    psi = StateVector(3, rng.normal(size=8) + 1j * rng.normal(size=8))
    zero_aux = StateVector(1, np.array([1, 0], complex))
    for _ in range(10):
        f = BoolFn(3, rng.integers(0, 2, size=8))
        out = apply_marking(f, kron(psi, zero_aux))
        aux_one = float(np.sum(np.abs(out.amps[1::2]) ** 2) / norm_squared(out))
        assert cam_match(psi, f) == pytest.approx(aux_one, abs=1e-12)


# --- recognizes --------------------------------------------------------------------------

def test_recognizes_stored_word(zzb_state):
    f = parse("a'b'", ["a", "b", "c"])
    assert recognizes(f, zzb_state)
    assert not recognizes(f, encode([Z, Z, Z]))  # support is a strict subset


def test_recognizes_exactly_one_pattern(zzb_state):
    f = parse("a'b'", ["a", "b", "c"])
    hits = [p for p in enumerate_patterns(3) if recognizes(f, encode(p))]
    assert hits == [(Z, Z, B)]


def test_each_word_recognized_by_exactly_one_function():
    tables = itertools.product((0, 1), repeat=8)
    fns = [BoolFn(3, np.array(bits, dtype=np.uint8)) for bits in tables]
    for p in enumerate_patterns(3):
        psi = encode(p)
        assert sum(1 for f in fns if recognizes(f, psi)) == 1


def test_recognizes_shape_error(zzb_state):
    with pytest.raises(ShapeError):
        recognizes(needle(0, 2), zzb_state)
