"""Capacity combinatorics and the RAM/CAM views of stored words."""

import itertools
import json
import math

import numpy as np
import pytest
from conftest import float_bits, readout_reference, traced_peak
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from svmem import memory
from svmem.boolfn import BoolFn, default_var_names, from_minterms, needle, parse, truth_set
from svmem.errors import DegenerateStateError, ResourceLimitError, ShapeError
from svmem.grover import uniform_state
from svmem.memory import (
    CAPACITY_CAP,
    CapacityRow,
    cam_match,
    capacity,
    capacity_json_text,
    enumerate_patterns,
    pattern_for,
    ram_read,
    recognizes,
)
from svmem.oracle import apply_marking
from svmem.statevec import (
    DEFAULT_QUBIT_CAP,
    Factor,
    StateVector,
    encode,
    kron,
    norm_squared,
    probabilities,
    support,
)

Z, O, B = Factor.ZERO, Factor.ONE, Factor.BOTH

# the one message of each readout-norm rejection
ZERO_STATE = "^the all-zero state has no measurement distribution$"
NORM_OVERFLOW = "^the squared norm of the state overflows a double$"


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


def test_capacity_cap_is_the_last_n_printable_in_4300_digits():
    # 3^n, the total, is the biggest count in the report
    assert 3**CAPACITY_CAP < 10**4300 <= 3 ** (CAPACITY_CAP + 1)
    assert len(str(3**CAPACITY_CAP)) == 4300
    assert capacity(CAPACITY_CAP).total == 3**CAPACITY_CAP
    with pytest.raises(ResourceLimitError, match=f"exceeds the cap of {CAPACITY_CAP}"):
        capacity(CAPACITY_CAP + 1)


def test_capacity_cap_boundary(monkeypatch):
    monkeypatch.setattr(memory, "CAPACITY_CAP", 5)
    assert capacity(5).total == 3**5
    with pytest.raises(ResourceLimitError, match="capacity of 6 qubits exceeds the cap of 5"):
        capacity(6)


def test_capacity_closed_form_and_bounds():
    for n in range(65):
        report = capacity(n)
        assert report.total == 3**n
        assert [r.choose for r in report.rows] == [math.comb(n, i) for i in range(n + 1)]
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


@pytest.mark.parametrize("count", [capacity, capacity_json_text])
def test_capacity_takes_numpy_ints_exactly(count):
    # counted in int64, 3^70 wraps to -7017427999944344819
    assert count(np.int64(70)) == count(70)
    assert capacity(np.int64(70)).total == 3**70


@pytest.mark.parametrize("count", [capacity, capacity_json_text])
@pytest.mark.parametrize("n, kind", [(True, "bool"), (2.0, "float"), ("3", "str")])
def test_capacity_rejects_non_integer_counts(count, n, kind):
    with pytest.raises(TypeError, match=f"^qubit count must be an integer, got {kind}$"):
        count(n)


@pytest.mark.parametrize("count", [capacity, capacity_json_text])
def test_capacity_routes_share_their_limits(count):
    with pytest.raises(ValueError, match="^qubit count must be >= 0, got -1$"):
        count(-1)
    with pytest.raises(ResourceLimitError, match=f"exceeds the cap of {CAPACITY_CAP}$"):
        count(CAPACITY_CAP + 1)


@settings(deadline=None)
@given(st.integers(0, 1500))
@example(0)
@example(1)
@example(2)
@example(3)
@example(1201)
def test_capacity_json_text_is_the_json_report(n):
    assert capacity_json_text(n) == json.dumps(capacity(n).to_json_dict())
    assert capacity(n).total == 3**n


def test_capacity_json_text_at_the_cap_in_about_two_texts():
    # json.dumps of the int report takes seconds here, so the rows are
    # pinned by their count and ends, and the total by 3^n itself
    n = CAPACITY_CAP
    text, peak = traced_peak(lambda: capacity_json_text(n))
    power = str(2**n)
    assert text.startswith(
        f'{{"n": {n}, "rows": [{{"i": 0, "choose": 1, "codes": {power}, "product": {power}}}, '
    )
    assert text.endswith(
        f'{{"i": {n}, "choose": 1, "codes": 1, "product": 1}}], "total": "{3**n}"}}'
    )
    assert text.count('{"i": ') == n + 1
    # 2.01x here; the json route peaks at 2.49x, and keeping every row's
    # Decimals until the join at 2.42x
    assert peak <= 2.2 * len(text)


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
        enumerate_patterns(DEFAULT_QUBIT_CAP + 1)
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
    with pytest.raises(ValueError, match="flat bit vector"):
        pattern_for([[1, 0], [0, 0]])


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
    with pytest.raises(DegenerateStateError, match=ZERO_STATE):
        ram_read(StateVector(1, np.zeros(2, complex)), 0)
    with pytest.raises(ValueError, match=NORM_OVERFLOW):
        ram_read(StateVector(1, np.array([1e308, 1e308], complex)), 0)
    for eps in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="eps must be positive"):
            ram_read(zzb_state, 0, eps)


def test_ram_read_support_and_recognizes_agree_on_a_bit_at_the_tolerance():
    # Python's abs() of a numpy complex scalar is a hypot one ulp above np.abs
    # here: at eps = np.abs(a), ram_read read bit 1 while support was empty
    a = 0.9034701816518086 + 0.09401229776087457j
    psi = StateVector(1, [a, 0])
    eps = float(np.abs(psi.amps[0]))
    assert ram_read(psi, 0, eps)[0] == 0
    assert support(psi, eps) == set()
    assert not recognizes(needle(0, 1), psi, eps)


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
    with pytest.raises(DegenerateStateError, match=ZERO_STATE):
        cam_match(StateVector(2, np.zeros(4, complex)), needle(0, 2))
    with pytest.raises(ValueError, match=NORM_OVERFLOW):
        cam_match(StateVector(1, np.array([1e308, 1e308], complex)), needle(0, 1))


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


# parts whose squares underflow or round to subnormals, and large ones
# whose squares stay finite summed over 2^11 parts
CAM_PARTS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -1e-160, 1e-200, 1e150]),
    st.floats(-1e150, 1e150),
)


@settings(max_examples=100, deadline=None)
@given(st.data(), st.integers(1, 8))
def test_cam_match_gathers_the_same_weights_as_squaring_them_all(data, n):
    # every amplitude squared, then the weights off the truth set zeroed:
    # the same elements in the same order, so each sum has the same bits
    parts = np.array(data.draw(st.lists(CAM_PARTS, min_size=2 << n, max_size=2 << n)))
    psi = StateVector(n, parts.view(complex))
    f = BoolFn(n, data.draw(st.lists(st.booleans(), min_size=1 << n, max_size=1 << n)))
    assume(norm_squared(psi) > 0.0)  # else cam_match raises
    assert float_bits(cam_match(psi, f)) == float_bits(readout_reference(psi, f.table))


TABLE_KINDS = ["empty", "full", "support", "around support", "off support", "random"]


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 10),
    st.lists(CAM_PARTS, min_size=1, max_size=12),
    st.sampled_from([0.0, 0.5, 0.99]),
    st.sampled_from(TABLE_KINDS),
    st.integers(0, 2**32 - 1),
)
def test_a_readout_lies_in_the_unit_interval_and_is_exact_at_both_ends(
    n, pool, zeros, kind, seed
):
    rng = np.random.default_rng(seed)
    parts = rng.choice(np.array(pool), 2 << n)
    amps = parts.view(complex)
    amps[rng.random(1 << n) < zeros] = 0.0
    psi = StateVector(n, amps)
    total = norm_squared(psi)
    assume(total > 0.0)  # else every readout raises
    held = amps != 0
    drawn = rng.random(1 << n) < 0.5
    table = {
        "empty": np.zeros(1 << n, bool), "full": np.ones(1 << n, bool), "support": held,
        "around support": held | drawn, "off support": drawn & ~held, "random": drawn,
    }[kind]
    reading = cam_match(psi, BoolFn(n, table))
    assert 0.0 <= reading <= 1.0
    assert float_bits(reading) == float_bits(readout_reference(psi, table))
    if not (table & held).any():
        assert float_bits(reading) == float_bits(0.0)
    elif not (held & ~table).any():
        assert float_bits(reading) == float_bits(1.0)
    k = int(rng.integers(1 << n))
    probability = ram_read(psi, k)[1]
    assert float_bits(probability) == float_bits(cam_match(psi, needle(k, n)))
    assert float_bits(probability) == float_bits(readout_reference(psi, needle(k, n).table))


def test_a_readout_of_weights_on_the_subnormal_grid_stays_in_the_unit_interval():
    # x*x = 0.4 * 2^-1074 rounds to 0, so x + xj weighs 0 in the norm and in
    # every numerator alike; only z, whose weight z*z is 2^-1074, counts
    x, z = math.sqrt(0.4) * 2.0**-537, 2.0**-537
    psi = StateVector(2, [complex(x, x), complex(x, x), complex(z, 0), complex(x, x)])
    assert norm_squared(psi) == 2.0**-1074
    assert cam_match(psi, BoolFn(2, [1, 1, 0, 0])) == 0.0
    assert cam_match(psi, BoolFn(2, [1, 0, 0, 0])) == 0.0
    assert cam_match(psi, BoolFn(2, [0, 0, 1, 0])) == 1.0
    assert cam_match(psi, BoolFn(2, [1, 1, 1, 1])) == 1.0
    assert cam_match(psi, BoolFn(2, [0, 0, 0, 0])) == 0.0
    assert probabilities(psi).tolist() == [0.0, 0.0, 1.0, 0.0]


def test_cam_match_of_a_needle_holds_no_state_sized_array():
    # weights one chunk at a time, and only in chunks the table marks
    psi = uniform_state(18)
    f = needle(12345, 18)
    probability, peak = traced_peak(lambda: cam_match(psi, f))
    assert probability == 2.0**-18
    assert peak < 0.1 * psi.amps.nbytes


def test_cam_match_of_a_wide_truth_set_holds_no_state_sized_array():
    # weights one chunk at a time: no gather of the truth set and no
    # state-sized mask
    psi = uniform_state(18)
    f = parse("a + b", default_var_names(18))
    probability, peak = traced_peak(lambda: cam_match(psi, f))
    assert probability == 0.75
    assert peak <= 0.1 * psi.amps.nbytes


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


def reference_recognizes(f, psi, eps):
    # the set-based form: the truth set equals the support
    return truth_set(f) == support(psi, eps)


@settings(deadline=None)
@given(st.data())
def test_recognizes_matches_set_reference(data):
    n = data.draw(st.integers(1, 6), label="n")
    eps = data.draw(st.floats(min_value=5e-324, max_value=10.0), label="eps")
    edges = [0.0, -0.0, eps, -eps, np.nextafter(eps, 0.0), np.nextafter(eps, np.inf)]
    part = st.one_of(st.sampled_from(edges), st.floats(-20.0, 20.0))
    pairs = data.draw(st.lists(st.tuples(part, part), min_size=1 << n, max_size=1 << n))
    psi = StateVector(n, np.array([complex(re, im) for re, im in pairs]))
    if data.draw(st.booleans(), label="table is the support"):
        table = np.abs(psi.amps) > eps
    else:
        table = data.draw(st.lists(st.integers(0, 1), min_size=1 << n, max_size=1 << n))
    f = BoolFn(n, np.array(table, dtype=np.uint8))
    result = recognizes(f, psi, eps)
    assert type(result) is bool
    assert result == reference_recognizes(f, psi, eps)
