"""Unnormalized complex state vectors built from per-qubit init choices.

Bit order: qubit 0, the first tensor factor, is the MOST significant bit
of the basis index, so (1 0) ⊗ (1 0) ⊗ (1 1) puts its two nonzero
amplitudes at indices 0 and 1. The opposite convention is common in
other simulators; everything in this package assumes this one.

States are kept unnormalized on purpose: encoding produces exact 0/1
amplitudes, and only `probabilities` (and the Grover driver) divide by
the squared norm.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable

import numpy as np

from .errors import DegenerateStateError, ResourceLimitError

# The one size cap for registers, function arity and state files: 2^24
# amplitudes = 256 MiB of complex128. Only encode takes a higher cap, e.g.
# to build the 25-qubit marking register of a 24-input function.
DEFAULT_QUBIT_CAP = 24

DEFAULT_SUPPORT_EPS = 1e-9


class Factor(Enum):
    """Per-qubit init choice: basis 0, basis 1, or the unnormalized pair."""

    ZERO = "Z"  # (1 0)
    ONE = "O"   # (0 1)
    BOTH = "B"  # (1 1)


_AXIS_INDEX = {Factor.ZERO: 0, Factor.ONE: 1, Factor.BOTH: slice(None)}


def check_qubits(n: int, max_qubits: int = DEFAULT_QUBIT_CAP) -> None:
    """Raise ResourceLimitError if n qubits exceed the cap; call before allocating 2^n."""
    if n > max_qubits:
        raise ResourceLimitError(f"{n} qubits exceeds the cap of {max_qubits}")


def check_index(k: int, n: int, what: str) -> None:
    """Raise ValueError unless k indexes the 2^n basis; what names k in the message."""
    if not 0 <= k < (1 << n):
        raise ValueError(f"{what} {k} out of range for {n} qubits (valid: 0..{(1 << n) - 1})")


def check_tolerance(eps: float) -> None:
    """Raise ValueError unless the readout tolerance is a positive number (NaN is not)."""
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")


def parse_pattern(text: str) -> tuple[Factor, ...]:
    """Turn a letter string like "ZZB" into a factor tuple."""
    factors = []
    for ch in text:
        try:
            factors.append(Factor(ch.upper()))
        except ValueError:
            raise ValueError(
                f"bad pattern letter {ch!r}: use Z=(1 0), O=(0 1), B=(1 1)"
            ) from None
    return tuple(factors)


@dataclass(eq=False)
class StateVector:
    """2^n complex amplitudes indexed by basis state; not kept normalized."""

    n: int
    amps: np.ndarray

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"qubit count must be >= 0, got {self.n}")
        amps = np.asarray(self.amps, dtype=np.complex128)
        if amps.shape != (1 << self.n,):
            raise ValueError(
                f"expected {1 << self.n} amplitudes for n={self.n}, got shape {amps.shape}"
            )
        if not np.all(np.isfinite(amps)):
            raise ValueError("amplitudes must be finite")
        self.amps = amps

    def __len__(self) -> int:
        return len(self.amps)

    def to_json_dict(self) -> dict:
        """JSON form: {"n": n, "amps": [[re, im], ...]} in basis-index order."""
        return {
            "n": self.n,
            "amps": [[float(a.real), float(a.imag)] for a in self.amps],
        }

    @classmethod
    def from_json_dict(cls, data) -> StateVector:
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
        return cls(n, amps)


def encode(
    pattern: str | Iterable[Factor], *, max_qubits: int = DEFAULT_QUBIT_CAP
) -> StateVector:
    """Kronecker product of the per-qubit factor vectors, left to right.

    Accepts a Factor sequence or a letter string ("ZZB"). The result has
    amplitudes that are exactly 0.0 or 1.0, with support of size 2^i
    where i counts the BOTH factors. max_qubits raises the size cap.
    """
    factors = parse_pattern(pattern) if isinstance(pattern, str) else tuple(pattern)
    n = len(factors)
    if n < 1:
        raise ValueError("init pattern needs at least one factor")
    check_qubits(n, max_qubits)
    # axis q of the (2,)*n grid is qubit q, bit n-1-q of the flat index
    amps = np.zeros((2,) * n, dtype=np.complex128)
    amps[tuple(_AXIS_INDEX[factor] for factor in factors)] = 1.0
    return StateVector(n, amps.reshape(-1))


def kron(a: StateVector, b: StateVector) -> StateVector:
    """Tensor product; entry p*2^b.n + q equals a.amps[p] * b.amps[q]."""
    check_qubits(a.n + b.n)
    return StateVector(a.n + b.n, np.kron(a.amps, b.amps))


def norm_squared(psi: StateVector) -> float:
    """Sum of squared amplitude magnitudes."""
    return float(np.real(np.vdot(psi.amps, psi.amps)))


def support(psi: StateVector, eps: float = DEFAULT_SUPPORT_EPS) -> set[int]:
    """Basis indices whose amplitude magnitude exceeds eps."""
    check_tolerance(eps)
    return {int(k) for k in np.flatnonzero(np.abs(psi.amps) > eps)}


def probabilities(psi: StateVector) -> np.ndarray:
    """Measurement distribution |amps|^2 / norm_squared, as a float array."""
    total = norm_squared(psi)
    if total == 0.0:
        raise DegenerateStateError("the all-zero state has no measurement distribution")
    return np.abs(psi.amps) ** 2 / total
