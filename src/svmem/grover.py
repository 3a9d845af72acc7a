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
from .oracle import apply_phase
from .statevec import StateVector, check_qubits, probabilities

AUTO = "auto"

# Bit generator behind all sampling; pinned by name so reports stay
# reproducible across library upgrades.
RNG_ALGORITHM = "pcg64"

# Doubles drawn per sampling step: 8 MiB, whatever the shot count.
_SHOT_CHUNK = 1 << 20


def uniform_state(n: int) -> StateVector:
    """Equal superposition with amplitudes 1/sqrt(2^n)."""
    if n < 1:
        raise ValueError(f"need at least one qubit, got {n}")
    check_qubits(n)
    amp = 1.0 / math.sqrt(1 << n)
    return StateVector(n, np.full(1 << n, amp, dtype=np.complex128))


def diffusion(psi: StateVector) -> StateVector:
    """Inversion about the mean: every amplitude a becomes 2*mean - a."""
    mean = psi.amps.mean()
    return StateVector(psi.n, 2.0 * mean - psi.amps)


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

    round(pi/(4θ) - 1/2) with ties rounded up; this maximizes
    sin^2((2k+1)·θ) over the first oscillation arch.
    """
    theta = _validate_space(N, M)
    raw = math.pi / (4.0 * theta) - 0.5
    return max(0, math.floor(raw + 0.5))


def predicted_success(N: int, M: int, k: int) -> float:
    """Closed-form success probability sin^2((2k+1)·θ) after k iterations."""
    theta = _validate_space(N, M)
    if k < 0:
        raise ValueError(f"iteration count must be >= 0, got {k}")
    return math.sin((2 * k + 1) * theta) ** 2


def sample_counts(probs: np.ndarray, shots: int, seed: int | None) -> dict[int, int]:
    """Inverse-CDF draws from an exact distribution; returns index -> count."""
    if shots < 0:
        raise ValueError(f"shots must be >= 0, got {shots}")
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
    """Outcome of one amplification run, with the final state attached."""

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


def run(
    f: BoolFn,
    iterations: int | str = AUTO,
    seed: int | None = None,
    shots: int = 0,
) -> GroverReport:
    """Amplify the states f marks and report predicted vs simulated success.

    iterations may be an explicit count or AUTO for the optimum. With
    shots > 0, basis indices are sampled from the exact final
    distribution, reproducibly for a given seed.
    """
    marked = int(f.table.sum())
    size = 1 << f.n
    if isinstance(iterations, str):
        if iterations.lower() != AUTO:
            raise ValueError(f"iterations must be an integer or {AUTO!r}, got {iterations!r}")
        k = optimal_iterations(size, marked)
    else:
        k = int(iterations)
    predicted = predicted_success(size, marked, k)  # checks M and k before allocating

    psi = uniform_state(f.n)
    for _ in range(k):
        psi = diffusion(apply_phase(f, psi))
    probs = probabilities(psi)
    simulated = float(probs[f.table.astype(bool)].sum())
    samples = sample_counts(probs, shots, seed) if shots else {}
    return GroverReport(
        n=f.n,
        marked=marked,
        iterations=k,
        predicted_success=predicted,
        simulated_success=simulated,
        seed=seed,
        shots=shots,
        samples=samples,
        final_state=psi,
    )
