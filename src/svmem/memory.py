"""Treating encoded state vectors as bit memory.

A register stores the 2^n-bit word given by its support. Single bits come
back through needle functions (RAM view), whole words through arbitrary
Boolean functions (CAM view). Probabilities come from the amplitudes' weights,
not from sampling an auxiliary qubit; the oracle module proves the two agree.

Capacity counting is exact big-integer arithmetic throughout: a word is
storable iff its set bits form a subcube, and the per-i counts are
C(n,i) placements of the free positions times 2^(n-i) settings of the
fixed ones. The CLI's report text is written from the same counts as
exact decimals (`capacity_json_text`), which print in linear time.
"""

from __future__ import annotations

import decimal
import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .boolfn import BoolFn
from .errors import ShapeError
from .statevec import (
    DEFAULT_SUPPORT_EPS,
    Factor,
    StateVector,
    _amps,
    _arithmetic,
    _readout_norm_squared,
    _summed_weights,
    check_cap,
    check_count,
    check_index,
    check_qubits,
    check_tolerance,
)

# Largest n whose 3^n, the biggest count in the report, has at most 4300
# decimal digits: CPython's default limit for int-to-str conversion.
CAPACITY_CAP = 9012


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


def _qubit_count(n: int) -> int:
    """n as a Python int in 0..CAPACITY_CAP, by the one count rule."""
    n = check_count(n, "qubit count", 0)
    check_cap(n, CAPACITY_CAP, f"capacity of {n} qubits")
    return n


def capacity(n: int) -> CapacityReport:
    """Count the distinct words an n-qubit register can store, term by term."""
    n = _qubit_count(n)
    rows = []
    total = 0
    choose = 1  # C(n, 0)
    for i in range(n + 1):
        codes = 1 << (n - i)
        rows.append(CapacityRow(i, choose, codes, choose * codes))
        total += choose * codes
        choose = choose * (n - i) // (i + 1)  # C(n, i+1), exact
    return CapacityReport(n, tuple(rows), total)


def capacity_json_text(n: int) -> str:
    """`json.dumps(capacity(n).to_json_dict())`, byte for byte, in linear time.

    Python prints an int in time quadratic in its digits, a Decimal in
    linear time, so the rows are counted as Decimals. Every step is exact:
    the context raises on any rounding, and a quotient that leaves a
    remainder raises Inexact. Each row's text is built as it is reached and
    the rows are joined once, so the peak is about two texts.
    """
    n = _qubit_count(n)
    exact = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX)
    exact.traps[decimal.Inexact] = exact.traps[decimal.Rounded] = True
    # divmod, not divide: an exact divide at MAX_PREC first fails at full
    # precision and then retries, which costs about twice as much
    codes = product = exact.power(2, n)
    choose = decimal.Decimal(1)
    lower = []  # texts of C(n, i) for 2i < n, popped as C(n, n-i)
    parts = [f'{{"n": {n}, "rows": [']
    for i in range(n + 1):
        if 2 * i <= n:
            choose_text = str(choose)
            if 2 * i < n:
                lower.append(choose_text)
            choose, rest = exact.divmod(exact.multiply(choose, n - i), i + 1)
            if rest:
                raise decimal.Inexact("a capacity term does not divide exactly")
        else:
            choose_text = lower.pop()
        parts.append(
            f'{", " if i else ""}{{"i": {i}, "choose": {choose_text}, '
            f'"codes": {codes!s}, "product": {product!s}}}'
        )
        if i < n:
            codes, rest = exact.divmod(codes, 2)
            product, more = exact.divmod(exact.multiply(product, n - i), 2 * (i + 1))
            if rest or more:
                raise decimal.Inexact("a capacity term does not divide exactly")
    parts.append(f'], "total": "{3**n}"}}')
    return "".join(parts)


def enumerate_patterns(n: int) -> Iterator[tuple[Factor, ...]]:
    """All 3^n init patterns, lexicographic with ZERO < ONE < BOTH, for n up to the qubit cap."""
    n = check_qubits(n, 1)
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
    if not bits.any() or n == 0:
        return None
    grid = bits.reshape((2,) * n) != 0
    factors = []
    for q in range(n):  # which of its two values qubit q takes in the set bits
        zero, one = (half.any() for half in np.moveaxis(grid, q, 0))
        factors.append(Factor.BOTH if zero and one else Factor.ONE if one else Factor.ZERO)
    # the set bits lie in the cube of their qubits' values: they fill it iff 2^free of them
    if np.count_nonzero(grid) != 1 << factors.count(Factor.BOTH):
        return None
    return tuple(factors)


def _readout(psi: StateVector, where: int | np.ndarray) -> float:
    """Chance that a marking oracle's auxiliary reads 1 for where, an address or a truth table.

    Its weight over the squared norm, each summed in the norm's chunks and order: in [0, 1], exact at 0 and 1.
    """
    total = _readout_norm_squared(psi)
    if isinstance(where, np.ndarray):
        return _summed_weights(psi.amps, where) / total
    return _summed_weights(psi.amps[where:where + 1]) / total


@_arithmetic
def ram_read(
    psi: StateVector, k: int, eps: float = DEFAULT_SUPPORT_EPS
) -> tuple[int, float]:
    """One addressed bit of the stored word, and its probability: cam_match(psi, needle(k, n))."""
    k = check_index(k, psi.n, "address")
    check_tolerance(eps)
    return (1 if np.abs(psi.amps[k]) > eps else 0, _readout(psi, k))


@_arithmetic
def cam_match(psi: StateVector, f: BoolFn) -> float:
    """Probability that f's marking-oracle auxiliary reads 1 on this state, in [0, 1].

    Exactly 1 for a support inside f's truth set, exactly 0 for one outside; see _readout.
    """
    if f.n != psi.n:
        raise ShapeError(f"function on {f.n} inputs got a {psi.n}-qubit state")
    return _readout(psi, f.table)


@_arithmetic
def recognizes(
    f: BoolFn, psi: StateVector, eps: float = DEFAULT_SUPPORT_EPS
) -> bool:
    """Strict recognition: the truth set equals the support exactly.

    cam_match exposes the weaker reading (probability 1 means support
    contained in the truth set); this one pins the whole word.
    """
    if f.n != psi.n:
        raise ShapeError(f"function on {f.n} inputs got a {psi.n}-qubit state")
    check_tolerance(eps)
    return np.array_equal(f.table, np.abs(_amps(psi)) > eps)
