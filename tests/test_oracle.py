"""Marking/phase oracle semantics, netlist emission, and replay."""


import numpy as np
import pytest
from conftest import traced_peak
from hypothesis import example, given, settings
from hypothesis import strategies as st

from svmem.boolfn import BoolFn, evaluate, from_minterms, needle, parse
from svmem import oracle
from svmem.errors import ResourceLimitError, ShapeError
from svmem.oracle import apply_marking, apply_phase, emit_circuit, replay_circuit
from svmem.statevec import StateVector, encode, kron, norm_squared


def _marking_bruteforce(f, psi):
    """Independent oracle: move each amplitude by the |x, q XOR f(x)| rule."""
    out = np.zeros_like(psi.amps)
    for j, amp in enumerate(psi.amps):
        x, q = j >> 1, j & 1
        out[(x << 1) | (q ^ evaluate(f, x))] += amp
    return out


def _random_fn(rng, n):
    return BoolFn(n, rng.integers(0, 2, size=1 << n))


def _random_state(rng, n):
    return StateVector(n, rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n))


def _basis(n, j):
    amps = np.zeros(1 << n, dtype=complex)
    amps[j] = 1.0
    return StateVector(n, amps)


# --- marking oracle -----------------------------------------------------------

def test_marking_flips_aux_on_hit():
    out = apply_marking(needle(0, 1), _basis(2, 0))
    np.testing.assert_array_equal(out.amps, [0, 1, 0, 0])


def test_marking_constant_false_is_identity():
    rng = np.random.default_rng(0)
    psi = _random_state(rng, 3)
    out = apply_marking(from_minterms(set(), 2), psi)
    np.testing.assert_array_equal(out.amps, psi.amps)


def test_marking_recognition_of_stored_word(zzb_state):
    f = parse("a'b'", ["a", "b", "c"])
    total = kron(zzb_state, _basis(1, 0))
    out = apply_marking(f, total)
    expected = np.zeros(16, dtype=complex)
    expected[1] = expected[3] = 1.0  # both stored states get their aux bit set
    np.testing.assert_array_equal(out.amps, expected)
    np.testing.assert_array_equal(out.amps, _marking_bruteforce(f, total))


def test_marking_matches_bruteforce_on_random_states():
    rng = np.random.default_rng(21)
    for n in range(1, 6):
        for _ in range(5):
            f = _random_fn(rng, n)
            psi = _random_state(rng, n + 1)
            np.testing.assert_array_equal(
                apply_marking(f, psi).amps, _marking_bruteforce(f, psi)
            )


def test_marking_shape_error(zzb_state):
    with pytest.raises(ShapeError):
        apply_marking(needle(0, 3), zzb_state)


def test_marking_is_self_inverse_permutation():
    # exhaustive over all basis states for n up to 6
    rng = np.random.default_rng(3)
    for n in range(1, 7):
        fns = [needle(0, n), from_minterms(set(), n), from_minterms(range(1 << n), n)]
        fns += [_random_fn(rng, n) for _ in range(5)]
        for f in fns:
            image = set()
            for j in range(1 << (n + 1)):
                once = apply_marking(f, _basis(n + 1, j))
                hits = np.flatnonzero(once.amps)
                assert len(hits) == 1 and once.amps[hits[0]] == 1.0
                image.add(int(hits[0]))
                twice = apply_marking(f, once)
                np.testing.assert_array_equal(twice.amps, _basis(n + 1, j).amps)
            assert image == set(range(1 << (n + 1)))  # bijection


def test_marking_preserves_magnitudes():
    rng = np.random.default_rng(4)
    f = _random_fn(rng, 4)
    psi = _random_state(rng, 5)
    out = apply_marking(f, psi)
    np.testing.assert_array_equal(
        np.sort(np.abs(out.amps)), np.sort(np.abs(psi.amps))
    )
    assert norm_squared(out) == pytest.approx(norm_squared(psi), abs=1e-12)


# --- phase oracle ----------------------------------------------------------------

def test_phase_sign_flip():
    out = apply_phase(needle(1, 1), StateVector(1, np.array([1.0, 1.0], complex)))
    np.testing.assert_array_equal(out.amps, [1, -1])


def test_phase_constant_false_is_identity():
    rng = np.random.default_rng(1)
    psi = _random_state(rng, 3)
    out = apply_phase(from_minterms(set(), 3), psi)
    np.testing.assert_array_equal(out.amps, psi.amps)


def test_phase_is_involution():
    rng = np.random.default_rng(2)
    f = _random_fn(rng, 4)
    psi = _random_state(rng, 4)
    np.testing.assert_array_equal(apply_phase(f, apply_phase(f, psi)).amps, psi.amps)


def test_phase_shape_error(zzb_state):
    with pytest.raises(ShapeError):
        apply_phase(needle(0, 2), zzb_state)


# real and imaginary parts: signed zeros, subnormals, a huge value and plain ones
_PARTS = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2e-308, 1e300, -1e300, 1.0, -1.0, 0.5])


@st.composite
def _tables_and_states(draw):
    """(f, psi) on n <= 10 qubits, each table entry and each part of psi drawn."""
    n = draw(st.integers(1, 10))
    size = 1 << n
    table = np.frombuffer(draw(st.binary(min_size=size, max_size=size)), np.uint8) & 1
    picks = np.frombuffer(draw(st.binary(min_size=2 * size, max_size=2 * size)), np.uint8)
    return BoolFn(n, table.astype(bool)), StateVector(n, _PARTS[picks % _PARTS.size].view(complex))


@settings(max_examples=200, deadline=None)
@given(_tables_and_states())
@example((needle(3, 2), StateVector(2, np.array([1.0, -0.0, -0.0, -0.0, 1, 0, 1, 0]).view(complex))))
def test_phase_negates_the_marked_amplitudes_and_keeps_the_rest_bit_for_bit(case):
    f, psi = case
    out = apply_phase(f, psi).amps
    assert out[~f.table].tobytes() == psi.amps[~f.table].tobytes()
    assert out[f.table].tobytes() == (psi.amps[f.table] * complex(-1, 0)).tobytes()
    # twice is the identity by value: a marked 1+0j comes back as 1-0j,
    # since (-1+0j)(-1+0j) sums its imaginary part as -0.0 + -0.0
    np.testing.assert_array_equal(apply_phase(f, apply_phase(f, psi)).amps, psi.amps)


@pytest.mark.parametrize("n", [12, 16, 18])
@pytest.mark.parametrize("share", ["needle", "half marked", "all marked"])
def test_phase_holds_one_copy_of_the_state(share, n):
    # the copy alone: the table masks the multiply, so no index, gather or
    # sign array is built (measured at most 1.025x, at n=12, in 5 runs)
    rng = np.random.default_rng(n)
    marked = {"needle": 1, "half marked": 1 << (n - 1), "all marked": 1 << n}[share]
    table = np.zeros(1 << n, bool)
    table[rng.choice(1 << n, marked, replace=False)] = True
    f, psi = BoolFn(n, table), _random_state(rng, n)
    out, peak = traced_peak(lambda: apply_phase(f, psi))
    np.testing.assert_array_equal(out.amps, np.where(table, -psi.amps, psi.amps))
    assert peak <= 1.05 * psi.amps.nbytes


def test_phase_equals_marking_with_minus_aux():
    # preparing the auxiliary in (1 -1)/sqrt(2) turns marking into phase kickback
    rng = np.random.default_rng(17)
    minus = StateVector(1, np.array([1.0, -1.0]) / np.sqrt(2.0))
    for n in range(1, 6):
        for _ in range(5):
            f = _random_fn(rng, n)
            psi = _random_state(rng, n)
            via_marking = apply_marking(f, kron(psi, minus))
            via_phase = kron(apply_phase(f, psi), minus)
            np.testing.assert_allclose(
                via_marking.amps, via_phase.amps, rtol=0, atol=1e-12
            )


# --- netlist emission and replay ----------------------------------------------------

def test_emit_single_minterm():
    assert emit_circuit(needle(0, 2)) == (
        "qubits 3\nmcx controls=(0,-),(1,-) target=aux\n"
    )


def test_emit_constant_false_is_header_only():
    assert emit_circuit(from_minterms(set(), 2)) == "qubits 3\n"


def test_emit_primed_conjunction():
    assert emit_circuit(parse("a'b'", ["a", "b", "c"])) == (
        "qubits 4\n"
        "mcx controls=(0,-),(1,-),(2,-) target=aux\n"
        "mcx controls=(0,-),(1,-),(2,+) target=aux\n"
    )


def test_emit_minterms_ascend():
    text = emit_circuit(from_minterms({5, 1, 3}, 3))
    gates = [ln for ln in text.splitlines() if ln.startswith("mcx")]
    assert gates == [
        "mcx controls=(0,-),(1,-),(2,+) target=aux",
        "mcx controls=(0,-),(1,+),(2,+) target=aux",
        "mcx controls=(0,+),(1,-),(2,+) target=aux",
    ]


def test_emit_netlist_cap(monkeypatch):
    f = from_minterms({1, 2}, 2)
    size = len(emit_circuit(f))
    monkeypatch.setattr(oracle, "MAX_NETLIST_BYTES", size)
    assert len(emit_circuit(f)) == size
    monkeypatch.setattr(oracle, "MAX_NETLIST_BYTES", size - 1)
    with pytest.raises(
        ResourceLimitError, match=f"^a netlist of {size} bytes exceeds the cap of {size - 1}$"
    ):
        emit_circuit(f)


def reference_emit(f):
    """The per-line netlist writer that the one-buffer emitter replaced."""
    lines = [f"qubits {f.n + 1}\n"]
    for k in np.flatnonzero(f.table):
        bits = format(int(k), f"0{f.n}b")  # qubit 0 is the most significant bit
        controls = ",".join(f"({q},{'+' if b == '1' else '-'})" for q, b in enumerate(bits))
        lines.append(f"mcx controls={controls} target=aux\n")
    return "".join(lines)


@pytest.mark.parametrize("n, minterms", [
    (1, {1}), (3, set(range(8))), (10, {0, 5, 512, 1023}),
    (17, {0, 1, 65535, 65536, 99999, (1 << 17) - 1}),  # past one 2^16-entry block
    (18, set(range(0, 1 << 18, 4099)) | {(1 << 18) - 1}),
    # 4095, 4096 and 4097 minterms: one short of, at and one past a chunk edge
    (13, set(range(4095))), (13, set(range(4096))), (13, {0} | set(range(1, 1 << 13, 2))),
    (14, set(range(0, 1 << 14, 2)) | {1}),  # 8193 minterms, past two chunks
    (20, set(range(3, 1 << 20, 40009)) | {(1 << 20) - 1}),  # sparse, in all 16 blocks of 2^16 entries
])
def test_emit_matches_per_line_reference(n, minterms):
    f = from_minterms(minterms, n)
    assert emit_circuit(f) == reference_emit(f)


def test_emit_all_true_holds_about_two_texts():
    # the byte buffer and the one decoded str; no list per minterm or line
    f = BoolFn(18, np.ones(1 << 18, bool))
    text, peak = traced_peak(lambda: emit_circuit(f))
    assert text.count("\n") == (1 << 18) + 1
    assert text.endswith("mcx controls=" + ",".join(f"({q},+)" for q in range(18)) + " target=aux\n")
    assert peak <= 2.2 * len(text)


def test_replay_reproduces_marking_on_basis_states():
    # exhaustive over basis states, random functions, n up to 5
    rng = np.random.default_rng(33)
    for n in range(1, 6):
        for _ in range(5):
            f = _random_fn(rng, n)
            text = emit_circuit(f)
            for j in range(1 << (n + 1)):
                psi = _basis(n + 1, j)
                np.testing.assert_array_equal(
                    replay_circuit(text, psi).amps, apply_marking(f, psi).amps
                )


def test_replay_reproduces_marking_on_dense_state():
    rng = np.random.default_rng(34)
    f = _random_fn(rng, 5)
    psi = _random_state(rng, 6)
    np.testing.assert_array_equal(
        replay_circuit(emit_circuit(f), psi).amps, apply_marking(f, psi).amps
    )


def test_replay_validation():
    psi = _basis(2, 0)
    with pytest.raises(ValueError, match="header"):
        replay_circuit("mcx controls=(0,-) target=aux\n", psi)
    with pytest.raises(ValueError, match="bad netlist line"):
        replay_circuit("qubits 2\nmcx controls=(0,*) target=aux\n", psi)
    with pytest.raises(ValueError, match="bad netlist line"):
        replay_circuit("qubits 2\nccx controls=(0,-) target=aux\n", psi)
    with pytest.raises(ValueError, match="out of range"):
        replay_circuit("qubits 2\nmcx controls=(1,-) target=aux\n", psi)
    with pytest.raises(ValueError, match="control qubit 1 out of range"):
        # a conflict already stops the gate, but every control is still checked
        replay_circuit("qubits 2\nmcx controls=(0,+),(0,-),(1,+) target=aux\n", psi)
    with pytest.raises(ShapeError):
        replay_circuit("qubits 3\n", psi)
    for header in ("qubits 0", "qubits -1"):  # the aux alone needs one qubit
        with pytest.raises(ValueError, match="bad netlist header"):
            replay_circuit(f"{header}\nmcx controls= target=aux\n", StateVector(0, [1.0]))


def test_replay_without_gates_returns_a_fresh_array():
    psi = _random_state(np.random.default_rng(35), 3)
    out = replay_circuit("qubits 3\n", psi)
    assert not np.shares_memory(out.amps, psi.amps)
    np.testing.assert_array_equal(out.amps, psi.amps)


def test_replay_holds_one_copy_of_the_state_and_a_mask():
    # the one working copy, swapped in place, and each gate's 2^n-byte
    # mask (1/32 of the state here): 1.064x, no gate's output array
    f = from_minterms({0, 12345, (1 << 16) - 1}, 16)
    psi = kron(encode("B" * 16), encode("O"))
    text = emit_circuit(f)
    out, peak = traced_peak(lambda: replay_circuit(text, psi))
    np.testing.assert_array_equal(out.amps, apply_marking(f, psi).amps)
    assert peak <= 1.1 * psi.amps.nbytes


@st.composite
def _netlists(draw):
    """Qubit count and gates; each gate is any list of (qubit, polarity) controls."""
    total = draw(st.integers(1, 8))
    control = st.tuples(st.integers(0, max(total - 2, 0)), st.sampled_from("+-"))
    controls = st.lists(control, max_size=2 * total) if total > 1 else st.just([])
    return total, draw(st.lists(controls, max_size=12))


def _replay_reference(total, gates, psi):
    """Move each amplitude gate by gate: an mcx flips bit 0 where every control matches."""
    out = np.zeros_like(psi.amps)
    for j, amp in enumerate(psi.amps):
        for controls in gates:
            if all((j >> (total - 1 - q)) & 1 == (polarity == "+") for q, polarity in controls):
                j ^= 1
        out[j] += amp
    return out


@settings(max_examples=100, deadline=None)
@given(_netlists())
def test_replay_matches_reference_on_any_controls(netlist):
    # partial, repeated and empty control lists, and a qubit named with
    # both polarities, which fires nowhere
    total, gates = netlist
    text = f"qubits {total}\n" + "".join(
        "mcx controls=" + ",".join(f"({q},{p})" for q, p in controls) + " target=aux\n"
        for controls in gates
    )
    ramp = np.arange(1 << total)
    psi = StateVector(total, ramp + 1j * ramp[::-1])  # distinct amplitudes
    np.testing.assert_array_equal(
        replay_circuit(text, psi).amps, _replay_reference(total, gates, psi)
    )
