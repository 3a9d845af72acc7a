"""Treating encoded state vectors as bit memory.

A register stores the 2^n-bit word given by its support. Single bits
come back through needle functions (RAM view); whole-word recognition
goes through arbitrary Boolean functions (CAM view). Probabilities are
computed exactly from amplitudes rather than by sampling an auxiliary
qubit; the oracle module proves the two routes agree.

Capacity counting is exact big-integer arithmetic throughout: a word is
storable iff its set bits form a subcube, and the per-i counts are
C(n,i) placements of the free positions times 2^(n-i) settings of the
fixed ones.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .boolfn import BoolFn, truth_set
from .errors import DegenerateStateError, ResourceLimitError, ShapeError
from .statevec import (
    DEFAULT_SUPPORT_EPS,
    Factor,
    StateVector,
    check_index,
    check_tolerance,
    norm_squared,
    support,
)

ENUMERATION_CAP = 12  # 3^12 ≈ 531k patterns keeps exhaustive streams desk-sized


@dataclass(frozen=True)
class CapacityRow:
    """One term of the capacity sum, for a fixed count i of free qubits."""

    i: int
    choose: int   # C(n, i) placements of the free qubits
    codes: int    # 2^(n-i) settings of the remaining fixed qubits
    product: int


@dataclass(frozen=True)
class CapacityReport:
    n: int
    rows: tuple[CapacityRow, ...]
    total: int

    def to_json_dict(self) -> dict:
        # total as a string: it outgrows exact doubles around n = 34
        return {
            "n": self.n,
            "rows": [
                {"i": r.i, "choose": r.choose, "codes": r.codes, "product": r.product}
                for r in self.rows
            ],
            "total": str(self.total),
        }


def capacity(n: int) -> CapacityReport:
    """Count the distinct words an n-qubit register can store, term by term."""
    if n < 0:
        raise ValueError(f"qubit count must be >= 0, got {n}")
    rows = []
    total = 0
    for i in range(n + 1):
        choose = math.comb(n, i)
        codes = 1 << (n - i)
        rows.append(CapacityRow(i, choose, codes, choose * codes))
        total += choose * codes
    return CapacityReport(n, tuple(rows), total)


def enumerate_patterns(n: int) -> Iterator[tuple[Factor, ...]]:
    """All 3^n init patterns, lexicographic with ZERO < ONE < BOTH."""
    if n < 1:
        raise ValueError(f"need at least one qubit, got {n}")
    if n > ENUMERATION_CAP:
        raise ResourceLimitError(
            f"3^{n} patterns exceeds the enumeration cap of 3^{ENUMERATION_CAP}"
        )
    return itertools.product((Factor.ZERO, Factor.ONE, Factor.BOTH), repeat=n)


def pattern_for(word: Sequence[int] | np.ndarray) -> tuple[Factor, ...] | None:
    """Invert the encoding: which init pattern stores this bit word?

    Returns None when no pattern does, i.e. when the set bits are not a
    subcube (each qubit position constantly 0, constantly 1, or free).
    The all-zero word is never encodable: every factor product has
    nonempty support.
    """
    bits = np.asarray(word)
    if bits.ndim != 1:
        raise ValueError("word must be a flat bit vector")
    if not np.all((bits == 0) | (bits == 1)):
        raise ValueError("word entries must be 0 or 1")
    size = len(bits)
    if size == 0 or size & (size - 1):
        raise ValueError(f"word length must be a power of two, got {size}")
    n = size.bit_length() - 1
    sup = np.flatnonzero(bits)
    if len(sup) == 0 or n == 0:
        return None
    factors = []
    free = 0
    for q in range(n):
        column = (sup >> (n - 1 - q)) & 1
        if column.all():
            factors.append(Factor.ONE)
        elif not column.any():
            factors.append(Factor.ZERO)
        else:
            factors.append(Factor.BOTH)
            free += 1
    if len(sup) != (1 << free):
        return None  # consistent per position, but the bits are not a full subcube
    return tuple(factors)


def ram_read(
    psi: StateVector, k: int, eps: float = DEFAULT_SUPPORT_EPS
) -> tuple[int, float]:
    """One addressed bit of the stored word, plus its readout probability.

    The probability |amps[k]|^2 / norm^2 is exactly the chance that the
    auxiliary qubit reads 1 after the marking oracle of needle(k, n).
    """
    check_index(k, psi.n, "address")
    check_tolerance(eps)
    total = norm_squared(psi)
    if total == 0.0:
        raise DegenerateStateError("cannot read from the all-zero state")
    magnitude = abs(psi.amps[k])
    return (1 if magnitude > eps else 0, float(magnitude**2 / total))


def cam_match(psi: StateVector, f: BoolFn) -> float:
    """Probability that f's marking-oracle auxiliary reads 1 on this state.

    Equals 1 exactly when the state's support lies inside f's truth set.
    """
    if f.n != psi.n:
        raise ShapeError(f"function on {f.n} inputs got a {psi.n}-qubit state")
    total = norm_squared(psi)
    if total == 0.0:
        raise DegenerateStateError("cannot match against the all-zero state")
    weights = np.abs(psi.amps) ** 2
    return float(weights[f.table.astype(bool)].sum() / total)


def recognizes(
    f: BoolFn, psi: StateVector, eps: float = DEFAULT_SUPPORT_EPS
) -> bool:
    """Strict recognition: the truth set equals the support exactly.

    cam_match exposes the weaker reading (probability 1 means support
    contained in the truth set); this one pins the whole word.
    """
    if f.n != psi.n:
        raise ShapeError(f"function on {f.n} inputs got a {psi.n}-qubit state")
    return truth_set(f) == support(psi, eps)
