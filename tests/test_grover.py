"""Amplification driver: initialization, diffusion, counts, and reports."""

import math
from fractions import Fraction

import numpy as np
import pytest
from conftest import float_bits, readout_reference, traced_peak
from hypothesis import given, settings
from hypothesis import strategies as st

from svmem import grover
from svmem.boolfn import from_minterms, needle, truth_set
from svmem.errors import NoSolutionError, ResourceLimitError
from svmem.grover import (
    diffusion,
    optimal_iterations,
    predicted_success,
    run,
    sample_counts,
    uniform_state,
)
from svmem.memory import cam_match
from svmem.oracle import apply_phase
from svmem.statevec import StateVector, norm_squared, probabilities


def _random_marked(rng, n, m):
    indices = rng.choice(1 << n, size=m, replace=False)
    return from_minterms(indices.tolist(), n)


# --- uniform_state ---------------------------------------------------------

def test_uniform_state_values():
    np.testing.assert_allclose(
        uniform_state(1).amps, [1 / math.sqrt(2)] * 2, rtol=0, atol=0
    )
    np.testing.assert_array_equal(uniform_state(2).amps, [0.5] * 4)
    assert norm_squared(uniform_state(10)) == pytest.approx(1.0, abs=1e-12)


def test_uniform_state_limits():
    with pytest.raises(ValueError):
        uniform_state(0)


# --- diffusion ----------------------------------------------------------------

def test_diffusion_fixes_uniform():
    psi = uniform_state(4)
    np.testing.assert_allclose(diffusion(psi).amps, psi.amps, rtol=0, atol=1e-12)


def test_diffusion_basis_state():
    psi = StateVector(2, np.array([1, 0, 0, 0], complex))
    np.testing.assert_array_equal(diffusion(psi).amps, [-0.5, 0.5, 0.5, 0.5])


def test_diffusion_holds_only_its_output():
    # finiteness comes from the mean and numpy's overflow flags, not from a
    # 2^n-byte mask over the output (measured 1.0003x, 1.063x with the mask)
    psi = uniform_state(18)
    out, peak = traced_peak(lambda: diffusion(psi))
    assert peak <= 1.01 * out.amps.nbytes


def test_diffusion_takes_an_underflow_as_no_error():
    # the mean 5e-324 / 2 underflows: the result is finite, so diffusion
    # returns it whatever the caller's np.seterr says
    psi = StateVector(1, [5e-324, 0.0])
    with np.errstate(all="ignore"):
        expected = 2.0 * psi.amps.mean() - psi.amps
    with np.errstate(all="raise"):
        assert diffusion(psi).amps.tobytes() == expected.tobytes()


def test_diffusion_is_involution_and_isometry():
    rng = np.random.default_rng(8)
    psi = StateVector(5, rng.normal(size=32) + 1j * rng.normal(size=32))
    twice = diffusion(diffusion(psi))
    np.testing.assert_allclose(twice.amps, psi.amps, rtol=0, atol=1e-12)
    assert norm_squared(diffusion(psi)) == pytest.approx(norm_squared(psi), abs=1e-12)


# --- iteration count and closed form ------------------------------------------

def test_optimal_iterations_values():
    assert optimal_iterations(4, 1) == 1
    for N in (1, 2, 4, 1024):
        assert optimal_iterations(N, N) == 0
    assert optimal_iterations(1024, 1) == 25
    # M = N/2: k = 0 and k = 1 tie at success 1/2, and the rule gives 0
    assert optimal_iterations(4, 2) == 0
    assert optimal_iterations(2**18, 2**17) == 0


def test_optimal_iterations_errors():
    with pytest.raises(NoSolutionError):
        optimal_iterations(8, 0)
    with pytest.raises(ValueError):
        optimal_iterations(8, 9)
    with pytest.raises(ValueError):
        optimal_iterations(12, 1)
    with pytest.raises(ValueError):
        optimal_iterations(0, 0)


def test_predicted_success_values():
    assert predicted_success(4, 1, 1) == pytest.approx(1.0, abs=1e-12)
    for N, M in ((4, 1), (8, 2), (16, 16)):
        assert predicted_success(N, M, 0) == pytest.approx(M / N, abs=1e-12)
    # sin(5θ) = 2.75·sinθ at sinθ = sqrt(1/8), so the value is 121/128 exactly
    assert predicted_success(8, 1, 2) == pytest.approx(121 / 128, abs=1e-12)


def test_predicted_success_errors():
    with pytest.raises(NoSolutionError):
        predicted_success(8, 0, 1)
    with pytest.raises(ValueError):
        predicted_success(8, 1, -1)
    # 2k + 1 must be an exact double: 2^53 - 1 is the last odd one
    assert 0.0 <= predicted_success(8, 1, 2**52 - 1) <= 1.0
    for k in (2**52, 2**53 + 1, 10**400):
        with pytest.raises(ValueError, match=f"iteration count {k} is too large"):
            predicted_success(8, 1, k)


def test_optimal_iterations_peak_within_first_arch():
    # the rounded count beats every other k whose angle stays in (0, pi),
    # where the success curve has a single peak
    for n in range(1, 11):
        size = 1 << n
        for m in list(range(1, min(size, 9))) + [size]:
            best = optimal_iterations(size, m)
            top = predicted_success(size, m, best)
            theta = math.asin(math.sqrt(m / size))
            k = 0
            while (2 * k + 1) * theta <= math.pi:
                assert top >= predicted_success(size, m, k) - 1e-12
                k += 1


# --- run --------------------------------------------------------------------------

def test_run_exact_small_case():
    report = run(needle(2, 2), shots=64, seed=3)
    assert report.iterations == 1
    assert report.simulated_success == pytest.approx(1.0, abs=1e-12)
    assert set(report.samples) == {2} and report.samples[2] == 64


def test_run_all_marked_needs_no_iterations():
    report = run(from_minterms(range(8), 3))
    assert report.iterations == 0
    assert report.simulated_success == pytest.approx(1.0, abs=1e-12)


def test_run_large_needle():
    report = run(needle(517, 10))
    assert report.simulated_success >= 0.99
    assert abs(report.simulated_success - report.predicted_success) <= 1e-9


def test_run_rejects_bad_inputs():
    with pytest.raises(NoSolutionError):
        run(from_minterms(set(), 3))
    with pytest.raises(ValueError):
        run(needle(0, 2), iterations=-1)
    with pytest.raises(ValueError):
        run(needle(0, 2), iterations="sometimes")
    with pytest.raises(ValueError):
        run(needle(0, 2), shots=-5)


def test_run_checks_counts_before_allocating(monkeypatch):
    def no_allocation(n):
        raise AssertionError("uniform_state called before the counts were checked")

    monkeypatch.setattr(grover, "uniform_state", no_allocation)
    with pytest.raises(NoSolutionError, match="marks no states"):
        run(from_minterms(set(), 3))
    with pytest.raises(NoSolutionError, match="marks no states"):
        run(from_minterms(set(), 3), iterations=2)
    with pytest.raises(ValueError, match="iteration count"):
        run(needle(0, 2), iterations=-1)
    cap = grover.MAX_ITERATIONS
    with pytest.raises(ResourceLimitError, match=f"^{cap + 1} iterations exceeds the cap of {cap}"):
        run(needle(0, 3), iterations=cap + 1)
    # past the range of a double, where the closed form would overflow
    with pytest.raises(ResourceLimitError, match="iterations exceeds the cap"):
        run(needle(0, 3), iterations=10**400)


def test_run_at_the_iteration_cap(monkeypatch):
    # AUTO at the qubit cap with one marked state stays inside the cap
    assert optimal_iterations(1 << 24, 1) < grover.MAX_ITERATIONS
    monkeypatch.setattr(grover, "MAX_ITERATIONS", 5)
    assert run(needle(0, 3), iterations=5).iterations == 5
    with pytest.raises(ResourceLimitError, match="6 iterations exceeds the cap of 5"):
        run(needle(0, 3), iterations=6)


def test_run_holds_two_states_per_iteration():
    # the phase copy replaces psi before diffusion builds the next state,
    # so three states are never alive at once, and diffusion builds no
    # mask beside them (measured 2.0006x in 5 runs, 2.063x with the mask)
    f = needle(7, 18)
    report, peak = traced_peak(lambda: run(f, iterations=3))
    assert report.iterations == 3
    assert peak <= 2.01 * report.final_state.amps.nbytes


@settings(max_examples=100, deadline=None)
@given(st.data(), st.integers(1, 10), st.integers(0, 2**32 - 1))
def test_run_is_the_public_reference_loop_byte_for_byte(data, n, seed):
    # run inverts about the mean in place on the oracle's copy; the
    # reference builds a fresh state with the public diffusion
    size = 1 << n
    marked = data.draw(st.integers(1, size), label="M")
    f = _random_marked(np.random.default_rng(seed), n, marked)
    k = data.draw(st.integers(0, optimal_iterations(size, marked) + 2), label="k")
    psi = uniform_state(n)
    for _ in range(k):
        psi = diffusion(apply_phase(f, psi))
    report = run(f, iterations=k)
    assert report.final_state.amps.tobytes() == psi.amps.tobytes()
    assert float_bits(report.simulated_success) == float_bits(cam_match(psi, f))
    assert report.final_state.amps.flags.writeable is False


@settings(max_examples=100, deadline=None)
@given(st.data(), st.integers(1, 10), st.integers(0, 2**32 - 1))
def test_simulated_success_is_the_readout_of_the_final_state(data, n, seed):
    # in [0, 1], exactly 1 when f marks every state, and always the bits of
    # the weights summed with the unmarked ones as 0, over the norm
    size = 1 << n
    marked = data.draw(st.one_of(st.just(size), st.integers(1, size)), label="M")
    f = _random_marked(np.random.default_rng(seed), n, marked)
    k = data.draw(st.integers(0, optimal_iterations(size, marked) + 2), label="k")
    report = run(f, iterations=k)
    psi, success = report.final_state, report.simulated_success
    assert 0.0 <= success <= 1.0
    assert float_bits(success) == float_bits(readout_reference(psi, f.table))
    if marked == size:
        assert float_bits(success) == float_bits(1.0)


def test_run_matches_closed_form_over_grid():
    rng = np.random.default_rng(7)
    for n in range(1, 9):
        size = 1 << n
        for m in sorted({1, 2, 4, size // 4} & set(range(1, size + 1))):
            f = _random_marked(rng, n, m)
            k_max = 2 * optimal_iterations(size, m)
            for k in {0, 1, k_max, max(k_max - 1, 0)}:
                report = run(f, iterations=k)
                assert abs(report.simulated_success - report.predicted_success) <= 1e-9


def _exact_amplitudes(n, m, k):
    """The marked and unmarked amplitudes after k iterations, in exact arithmetic.

    From the double 1/sqrt(N), a dyadic rational, every step is exact on
    rationals: negating the marked value, the mean over N = 2^n, and 2*mean - a.
    """
    size = 1 << n
    inside = outside = Fraction(1.0 / math.sqrt(size))
    for _ in range(k):
        mean = (-m * inside + (size - m) * outside) / size
        inside, outside = 2 * mean + inside, 2 * mean - outside
    return inside, outside


# the most any final amplitude of run may differ from the exact one, in units
# of ulp(1/sqrt(N)), per n, over M in {1, 2, 3, N/4} and every k up to AUTO:
# the measured worst, rounded up
GROVER_DRIFT_ULPS = {1: 0, 2: 0, 3: 1, 4: 0, 5: 4, 6: 0, 7: 13, 8: 5}


def test_final_amplitudes_stay_within_a_fixed_drift_of_the_exact_algorithm():
    for n, bound in GROVER_DRIFT_ULPS.items():
        size = 1 << n
        ulp = Fraction(float(np.spacing(1.0 / math.sqrt(size))))
        for m in sorted({1, 2, 3, size // 4} & set(range(1, size + 1))):
            f = _random_marked(np.random.default_rng([n, m]), n, m)
            for k in range(optimal_iterations(size, m) + 1):
                amps = run(f, iterations=k).final_state.amps
                assert not amps.imag.any()
                for values, exact in zip((amps.real[f.table], amps.real[~f.table]),
                                         _exact_amplitudes(n, m, k)):
                    for value in set(values.tolist()):
                        assert abs(Fraction(value) - exact) <= bound * ulp, (n, m, k)


def test_phase_plus_diffusion_preserves_norm():
    rng = np.random.default_rng(15)
    f = _random_marked(rng, 12, 17)
    psi = uniform_state(12)
    for _ in range(30):
        psi = diffusion(apply_phase(f, psi))
        assert norm_squared(psi) == pytest.approx(1.0, abs=1e-12)


def test_final_amplitudes_symmetric_across_marked_and_unmarked():
    rng = np.random.default_rng(16)
    f = _random_marked(rng, 6, 5)
    report = run(f)
    marked = sorted(truth_set(f))
    unmarked = sorted(set(range(64)) - set(marked))
    amps = report.final_state.amps
    assert np.ptp(amps[marked].real) <= 1e-12
    assert np.ptp(amps[unmarked].real) <= 1e-12
    assert np.max(np.abs(amps.imag)) <= 1e-12


def test_sampling_is_deterministic_per_seed():
    f = needle(5, 6)
    first = run(f, seed=42, shots=1000)
    second = run(f, seed=42, shots=1000)
    assert first.samples == second.samples
    probs = probabilities(first.final_state)
    assert sample_counts(probs, 250, 9) == sample_counts(probs, 250, 9)


def test_sample_counts_total():
    counts = sample_counts(np.array([0.25, 0.25, 0.5]), 400, seed=1)
    assert sum(counts.values()) == 400
    assert all(0 <= k < 3 for k in counts)


def test_report_json_shape():
    report = run(needle(1, 3), seed=11, shots=20)
    data = report.to_json_dict()
    assert list(data) == [
        "n", "M", "iterations", "predicted_success", "simulated_success",
        "seed", "rng", "samples",
    ]
    assert data["rng"] == "pcg64"
    assert all(isinstance(k, str) for k in data["samples"])
    assert sum(data["samples"].values()) == 20


def _one_buffer_counts(probs, shots, seed):
    # reference: every double drawn in one buffer, as before chunking
    rng = np.random.Generator(np.random.PCG64(seed))
    draws = np.searchsorted(np.cumsum(probs), rng.random(shots), side="right")
    values, counts = np.unique(np.minimum(draws, len(probs) - 1), return_counts=True)
    return [(int(v), int(c)) for v, c in zip(values, counts)]


def test_sample_counts_chunked_equals_one_buffer():
    probs = np.random.default_rng(21).random(40)
    probs /= probs.sum()
    shots = (1 << 20) + 3  # one full chunk plus a short one
    assert list(sample_counts(probs, shots, 5).items()) == _one_buffer_counts(probs, shots, 5)


def test_sample_counts_chunk_boundaries(monkeypatch):
    monkeypatch.setattr(grover, "_SHOT_CHUNK", 7)
    probs = np.array([0.1, 0.2, 0.3, 0.4])
    for shots in (1, 6, 7, 8, 14, 1001):
        assert list(sample_counts(probs, shots, 3).items()) == _one_buffer_counts(probs, shots, 3)


def test_sample_counts_rejects_negative_shots():
    with pytest.raises(ValueError, match="shots must be >= 0"):
        sample_counts(np.array([0.5, 0.5]), -5, seed=1)
    assert sample_counts(np.array([0.5, 0.5]), 0, seed=1) == {}


def test_sample_counts_refuses_a_distribution_that_is_not_a_non_empty_vector(monkeypatch):
    drawn = []
    monkeypatch.setattr(grover.np.random, "Generator", lambda *args: drawn.append(args))
    for probs in (np.array([]), np.array([[0.5, 0.5]]), np.array(1.0), np.zeros((0, 2))):
        with pytest.raises(ValueError, match="^probabilities must be a non-empty 1-D array"):
            sample_counts(probs, 10, 1)
    assert drawn == []


def test_sample_counts_shot_cap(monkeypatch):
    with pytest.raises(ResourceLimitError, match=f"exceeds the cap of {grover.MAX_SHOTS}"):
        sample_counts(np.array([0.5, 0.5]), grover.MAX_SHOTS + 1, seed=1)
    monkeypatch.setattr(grover, "MAX_SHOTS", 10)
    assert sum(sample_counts(np.array([0.5, 0.5]), 10, seed=1).values()) == 10
    with pytest.raises(ResourceLimitError, match="11 shots exceeds the cap of 10"):
        sample_counts(np.array([0.5, 0.5]), 11, seed=1)
