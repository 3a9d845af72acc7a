"""The paper's invariants as properties over drawn truth tables and patterns.

Tables come in every form BoolFn accepts (bool arrays, uint8 arrays and
lists of ints), so each property also checks that the form of the input
makes no difference downstream.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from svmem.boolfn import BoolFn
from svmem.grover import run
from svmem.memory import pattern_for
from svmem.oracle import apply_marking, apply_phase, emit_circuit, replay_circuit
from svmem.statevec import Factor, StateVector, encode, kron

MINUS = StateVector(1, np.array([1.0, -1.0], dtype=complex))  # |−⟩, unnormalized

PROPERTY = settings(max_examples=40, deadline=None)


@st.composite
def truth_tables(draw, max_n=8, nonempty=False):
    n = draw(st.integers(1, max_n))
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
