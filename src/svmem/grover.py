"""Grover amplitude amplification over any truth-table oracle.

The driver uses the phase-oracle form so the register stays at n qubits;
equivalence with the marking form is a property of the oracle module.
Success probability follows the closed form sin^2((2k+1)·θ) with
sin θ = sqrt(M/N) for every iteration count k, because the walk never
leaves the plane spanned by the marked and unmarked uniform components.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .boolfn import BoolFn
from .errors import NoSolutionError
from .memory import cam_match
from .oracle import apply_phase
from .statevec import (
    DEFAULT_QUBIT_CAP,
    StateVector,
    _amps,
    _arithmetic,
    check_cap,
    check_count,
    check_qubits,
    probabilities,
)

AUTO = "auto"

# Bit generator behind all sampling; pinned by name so reports stay
# reproducible across library upgrades.
RNG_ALGORITHM = "pcg64"

# Doubles drawn per sampling step: 8 MiB, whatever the shot count.
_SHOT_CHUNK = 1 << 20

# Most shots one call may draw: 1024 chunks, about 30 s over two outcomes
# on a 2-core host.
MAX_SHOTS = 1 << 30

# Most iterations one run may take: about ten sin^2 periods at the 24-qubit cap.
MAX_ITERATIONS = 1 << 16

# Most amplitude updates, iterations times 2^n, one run may make: 2^36 keeps
# every AUTO run (at most 3216 * 2^24) and every count up to MAX_ITERATIONS
# at n <= 20; 2^16 iterations at the 24-qubit cap would take about 10 hours
# on a 2-core host.
MAX_AMPLITUDE_UPDATES = 1 << (DEFAULT_QUBIT_CAP + 12)


def uniform_state(n: int) -> StateVector:
    """Equal superposition with amplitudes 1/sqrt(2^n)."""
    n = check_qubits(n, 1)
    amp = 1.0 / math.sqrt(1 << n)
    return StateVector._adopt(n, np.full(1 << n, amp, dtype=np.complex128))


def _invert_about_mean(amps: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """2*mean - a for every amplitude a, into out (a fresh array if None); out may be amps.

    amps must be finite, as the amplitudes of an owned state or those _amps
    returns are. From finite amplitudes the mean or a result stops being
    finite only by an overflow, which the caller's floating-point policy
    raises as ValueError("amplitudes must be finite"): no pass over the
    amplitudes or the results checks them.
    """
    mean = amps.mean()
    return np.subtract(2.0 * mean, amps, out=out)


@_arithmetic
def diffusion(psi: StateVector) -> StateVector:
    """Inversion about the mean: every amplitude a becomes 2*mean - a, in a fresh state.

    Raises ValueError("amplitudes must be finite") when an amplitude or a
    result would not be finite; see _invert_about_mean, the arithmetic run shares.
    """
    return StateVector._adopt(psi.n, _invert_about_mean(_amps(psi)))


def _validate_space(N: int, M: int) -> float:
    if N < 1 or (N & (N - 1)):
        raise ValueError(f"search-space size must be a power of two, got {N}")
    if M == 0:
        raise NoSolutionError("the function marks no states: the Grover rotation is undefined")
    if M < 0 or M > N:
        raise ValueError(f"marked count {M} must lie in 1..{N}")
    return math.asin(math.sqrt(M / N))


def optimal_iterations(N: int, M: int) -> int:
    """Iteration count closest to the first success peak.

    floor(pi/(4θ)), the k whose angle (2k+1)·θ lies nearest pi/2, maximizes
    sin^2((2k+1)·θ) over the first arch. At the one tie, M = N/2, k = 0 and
    k = 1 both succeed with 1/2; asin(sqrt(1/2)) is one ulp above pi/4, so k is 0.
    """
    theta = _validate_space(N, M)
    return math.floor(math.pi / (4.0 * theta))


def predicted_success(N: int, M: int, k: int) -> float:
    """Closed-form success probability sin^2((2k+1)·θ) after k iterations."""
    theta = _validate_space(N, M)
    k = check_count(k, "iteration count", 0)
    if 2 * k + 1 > 2**53:  # the angle's factor would no longer be an exact double
        raise ValueError(f"iteration count {k} is too large for the closed form (max {2**52 - 1})")
    return math.sin((2 * k + 1) * theta) ** 2


def check_iterations(k: int, n: int) -> int:
    """k as a Python int, or ValueError below 0, or ResourceLimitError past a Grover cap.

    The caps are MAX_ITERATIONS and MAX_AMPLITUDE_UPDATES. Needs no table,
    so a caller can check a count before building the function. A negative
    n is left to the arity check, which refuses it.
    """
    k = check_count(k, "iteration count", 0)
    # before the closed form, which overflows for huge k
    check_cap(k, MAX_ITERATIONS, f"{k} iterations")
    if n >= 0:
        updates = k << check_qubits(n)
        request = f"{updates} amplitude updates ({k} iterations on {n} qubits)"
        check_cap(updates, MAX_AMPLITUDE_UPDATES, request)
    return k


def _check_shots(shots: int) -> int:
    """shots as a Python int, or ValueError below 0, or ResourceLimitError past MAX_SHOTS."""
    shots = check_count(shots, "shot count", 0, "shots")
    check_cap(shots, MAX_SHOTS, f"{shots} shots")
    return shots


def _check_seed(seed: int | None) -> int | None:
    """seed as a Python int or None, or TypeError for a non-integer, or ValueError below 0."""
    return None if seed is None else check_count(seed, "seed", 0)


def sample_counts(probs: np.ndarray, shots: int, seed: int | None) -> dict[int, int]:
    """Inverse-CDF draws from an exact distribution; returns index -> count."""
    shots = _check_shots(shots)
    seed = _check_seed(seed)
    if np.ndim(probs) != 1 or not len(probs):  # the shape alone: no pass over the values
        raise ValueError(f"probabilities must be a non-empty 1-D array, got shape {np.shape(probs)}")
    rng = np.random.Generator(np.random.PCG64(seed))
    cdf = np.cumsum(probs)
    counts: Counter[int] = Counter()
    # chunks of one stream: bounded memory, and the same doubles as one big draw
    for start in range(0, shots, _SHOT_CHUNK):
        draws = np.searchsorted(cdf, rng.random(min(_SHOT_CHUNK, shots - start)), side="right")
        draws = np.minimum(draws, len(probs) - 1)  # guard the top rounding sliver
        values, hits = np.unique(draws, return_counts=True)
        counts.update(dict(zip(values.tolist(), hits.tolist())))
    return dict(sorted(counts.items()))


@dataclass
class GroverReport:
    """Outcome of one amplification run; simulated_success is cam_match(final_state, f), in [0, 1]."""

    n: int
    marked: int
    iterations: int
    predicted_success: float
    simulated_success: float
    seed: int | None
    shots: int
    samples: dict[int, int]
    final_state: StateVector

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "M": self.marked,
            "iterations": self.iterations,
            "predicted_success": self.predicted_success,
            "simulated_success": self.simulated_success,
            "seed": self.seed,
            "rng": RNG_ALGORITHM,
            "samples": {str(k): v for k, v in sorted(self.samples.items())},
        }


@_arithmetic
def _iterate(f: BoolFn, k: int) -> StateVector:
    """k Grover iterations from the uniform state: one new array per iteration.

    The public apply_phase makes each iteration's copy; inversion about the
    mean then runs in place on it. That copy owns its data and nothing else
    holds it, so it is thawed for the subtract and frozen again. psi is
    rebound to it first, so at most two states are alive at once.
    """
    psi = uniform_state(f.n)
    for _ in range(k):
        psi = apply_phase(f, psi)
        amps = psi.amps
        amps.setflags(write=True)
        psi = StateVector._adopt(f.n, _invert_about_mean(amps, out=amps))
    return psi


def run(
    f: BoolFn,
    iterations: int | str = AUTO,
    seed: int | None = None,
    shots: int = 0,
) -> GroverReport:
    """Amplify the states f marks and report predicted vs simulated success.

    simulated_success is cam_match of the final state. iterations may be an
    explicit count or AUTO for the optimum. With shots > 0, basis indices are
    sampled from the exact final distribution, reproducibly for a given seed.
    """
    marked = int(f.table.sum())
    size = 1 << f.n
    if isinstance(iterations, str):
        if iterations.lower() != AUTO:
            raise ValueError(f"iterations must be an integer or {AUTO!r}, got {iterations!r}")
        iterations = optimal_iterations(size, marked)
    k = check_iterations(iterations, f.n)
    predicted = predicted_success(size, marked, k)  # checks M and k before allocating
    shots = _check_shots(shots)  # before the search, which sampling follows
    seed = _check_seed(seed)  # the report prints it, with or without shots

    psi = _iterate(f, k)
    samples = sample_counts(probabilities(psi), shots, seed) if shots else {}
    return GroverReport(
        n=f.n,
        marked=marked,
        iterations=k,
        predicted_success=predicted,
        simulated_success=cam_match(psi, f),
        seed=seed,
        shots=shots,
        samples=samples,
        final_state=psi,
    )
