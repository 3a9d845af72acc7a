"""Unnormalized complex state vectors built from per-qubit init choices.

Bit order: qubit 0, the first tensor factor, is the MOST significant bit of
the basis index, so (1 0) ⊗ (1 0) ⊗ (1 1) puts its two nonzero amplitudes at
indices 0 and 1: the opposite of many simulators, and assumed package-wide.

States are kept unnormalized: only the readouts divide, each weight re*re +
im*im of one array (`_weights`) over their in-order chunk sum (`norm_squared`).

One trust rule covers every read of amplitudes. A state this package returns
holds read-only finite amplitudes that it allocated (`_adopt`): while it holds
that array (`_owned`), they are read as they are, and a readout keeps its squared
norm after one sum. Any other array, as in a caller's `StateVector(n, arr)`, is
checked on every read (`_amps`) and summed by every readout. Unsupported: thawing
a returned array, writing into it and freezing it again (trust and norm go stale).

One floating-point policy, `_arithmetic`, covers each function whose arithmetic
on finite amplitudes can raise a flag: an underflow rounds, and an overflow or
invalid result raises ValueError("amplitudes must be finite"), whatever np.seterr says.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from . import statefile
from .errors import DegenerateStateError, ResourceLimitError

# The one size cap for registers, function arity and state files: 2^24
# amplitudes = 256 MiB of complex128.
DEFAULT_QUBIT_CAP = 24

# Longest state file read: the canonical text at the qubit cap, 2^24 pairs
# of at most 54 bytes, is about 864 MiB.
MAX_STATE_FILE_BYTES = 64 << DEFAULT_QUBIT_CAP

DEFAULT_SUPPORT_EPS = 1e-9


class Factor(Enum):
    """Per-qubit init choice: basis 0, basis 1, or the unnormalized pair."""

    ZERO = "Z"  # (1 0)
    ONE = "O"   # (0 1)
    BOTH = "B"  # (1 1)


def check_count(value: int, what: str, least: int | None = None, name: str | None = None) -> int:
    """The one count rule: value as a Python int, not below least when least is given.

    numpy ints count exactly; a bool, float or str raises TypeError, which
    what names, and a value below least raises ValueError, which name names
    (what if None). Every lower bound on a count in the package is written here.
    """
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise TypeError(f"{what} must be an integer, got {type(value).__name__}")
    value = operator.index(value)
    if least is not None and value < least:
        raise ValueError(f"{name or what} must be >= {least}, got {value}")
    return value


def check_cap(size: int, cap: int, request: str) -> None:
    """ResourceLimitError if size is over cap; request names it. Every size cap is written here."""
    if size > cap:
        raise ResourceLimitError(f"{request} exceeds the cap of {cap}")


def check_qubits(n: int, least: int = 0, name: str = "qubit count") -> int:
    """n as a Python int in least..DEFAULT_QUBIT_CAP; call before allocating 2^n."""
    n = check_count(n, "qubit count", least, name)
    check_cap(n, DEFAULT_QUBIT_CAP, f"{n} qubits")
    return n


def check_index(k: int, n: int, what: str) -> int:
    """k as a Python int, or ValueError unless it indexes the 2^n basis; what names k."""
    k = check_count(k, what)
    if not 0 <= k < (1 << n):
        raise ValueError(f"{what} {k} out of range for {n} qubits (valid: 0..{(1 << n) - 1})")
    return k


def _check_finite(amps: np.ndarray) -> None:
    """Raise ValueError unless every amplitude is finite."""
    if not np.all(np.isfinite(amps)):
        raise ValueError("amplitudes must be finite")


def _owned(psi: StateVector) -> bool:
    """True while psi still holds, read-only, the array _adopt gave it: svmem's own and finite."""
    adopted = getattr(psi, "_adopted", None)  # a caller's StateVector has none
    return adopted is not None and adopted[0] is psi.amps and not psi.amps.flags.writeable


def _amps(psi: StateVector) -> np.ndarray:
    """psi.amps, every one checked finite first unless psi is svmem's own."""
    if not _owned(psi):
        _check_finite(psi.amps)
    return psi.amps


def _arithmetic(fn):
    """fn under the floating-point policy; a fresh errstate per call, as numpy 1.x's is not reentrant."""

    @functools.wraps(fn)
    def under_policy(*args, **kwargs):
        try:
            with np.errstate(all="raise", under="ignore"):
                return fn(*args, **kwargs)
        except FloatingPointError:
            raise ValueError("amplitudes must be finite") from None

    return under_policy


def check_tolerance(eps: float) -> None:
    """Raise ValueError unless the readout tolerance is a positive number (NaN is not)."""
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")


_LETTERS = {factor.value: factor for factor in Factor}


def parse_pattern(pattern: str | Iterable[Factor]) -> tuple[Factor, ...]:
    """A factor tuple from a letter string like "ZZB" or from a sequence of Factors."""
    factors = []
    for entry in pattern:
        factor = _LETTERS.get(entry.upper()) if isinstance(pattern, str) else entry
        if not isinstance(factor, Factor):
            raise ValueError(f"bad pattern letter {entry!r}: use Z=(1 0), O=(0 1), B=(1 1)")
        factors.append(factor)
    return tuple(factors)


@dataclass(eq=False)
class StateVector:
    """2^n complex amplitudes indexed by basis state, n within the qubit cap; not normalized."""

    n: int
    amps: np.ndarray

    def __post_init__(self):
        self.n = check_qubits(self.n)
        amps = np.asarray(self.amps, dtype=np.complex128)
        if amps.shape != (1 << self.n,):
            raise ValueError(
                f"expected {1 << self.n} amplitudes for n={self.n}, got shape {amps.shape}"
            )
        _check_finite(amps)
        self.amps = amps

    @classmethod
    def _adopt(cls, n: int, amps: np.ndarray, total: float | None = None) -> StateVector:
        """Package-internal: the state over amps, 2^n complex128 values svmem just allocated.

        No copy and no checks: the caller built amps in shape and finite, under
        _arithmetic wherever they can overflow. amps and its .base chain are frozen
        here, so the state is owned. A caller that knows the nonzero norm_squared
        bit for bit passes it as total, and no readout sums it.
        """
        base = amps
        while isinstance(base, np.ndarray):
            base.setflags(write=False)
            base = base.base
        psi = cls.__new__(cls)
        psi.n, psi.amps, psi._adopted = n, amps, (amps, total)
        return psi

    def to_json_dict(self) -> dict:
        """JSON form: {"n": n, "amps": [[re, im], ...]} in basis-index order."""
        # complex128 is a (re, im) float64 pair in memory
        pairs = np.ascontiguousarray(_amps(self)).view(np.float64).reshape(-1, 2)
        return {"n": self.n, "amps": pairs.tolist()}

    def to_json_text(self) -> str:
        """json.dumps(self.to_json_dict()), formatting each distinct amplitude pair once."""
        return str(memoryview(statefile._save(self, b"")), "ascii")

    @classmethod
    def from_json_text(cls, text: str) -> StateVector:
        """from_json_dict(json.loads(text)), reading canonical text on its distinct pairs."""
        return statefile._read(text)

    @classmethod
    def from_json_dict(cls, data) -> StateVector:
        """The state in json.loads' reading of a state file, under the pair rule."""
        return statefile._from_dict(data)


def encode(pattern: str | Iterable[Factor]) -> StateVector:
    """Kronecker product of the per-qubit factor vectors, left to right.

    Accepts a Factor sequence or a letter string ("ZZB"). The result has
    amplitudes that are exactly 0.0 or 1.0, with support of size 2^i
    where i counts the BOTH factors.
    """
    factors = parse_pattern(pattern)
    n = len(factors)
    if n < 1:
        raise ValueError("init pattern needs at least one factor")
    check_qubits(n)
    # a sum of 2^i ones, exact below 2^53: the value norm_squared would return
    total = float(1 << factors.count(Factor.BOTH))
    return StateVector._adopt(n, _subcube(factors, np.complex128), total)


_AXIS_INDEX = {Factor.ZERO: 0, Factor.ONE: 1, Factor.BOTH: slice(None)}


def _subcube(factors: Sequence[Factor], dtype) -> np.ndarray:
    """Flat 2^n array, 1 on the basis states the factors allow and 0 elsewhere.

    The only statement of the bit order: axis q of the (2,)*n grid is qubit q.
    """
    grid = np.zeros((2,) * len(factors), dtype=dtype)
    grid[tuple(_AXIS_INDEX[factor] for factor in factors)] = 1
    return grid.reshape(-1)


@_arithmetic
def kron(a: StateVector, b: StateVector) -> StateVector:
    """Tensor product; entry p*2^b.n + q equals a.amps[p] * b.amps[q].

    ValueError("amplitudes must be finite") iff an operand entry is not finite or a product overflows.
    """
    check_qubits(a.n + b.n)
    return StateVector._adopt(a.n + b.n, np.kron(_amps(a), _amps(b)))


# Amplitudes per chunk of weights. Every sum of weights adds the same chunks
# in the same order, and each numpy chunk sum and the Python sum after it are
# monotone in every weight: a sum that counts some weights as 0 never exceeds
# the whole, and equals it when only zero weights are left out. No temporary
# outgrows one chunk.
_CHUNK = 8192


def _weights(amps: np.ndarray) -> np.ndarray:
    """|a|^2 of every amplitude as re*re + im*im in float64: the one array behind every readout."""
    weights = np.square(amps.real)
    return np.add(weights, np.square(amps.imag), out=weights)


@_arithmetic
def _summed_weights(amps: np.ndarray, where: np.ndarray | None = None) -> float:
    """The weights of amps summed by chunks in order, those the bool table where leaves unmarked as 0."""
    total = 0.0  # a Python float, which overflows to inf with no flag
    for start in range(0, amps.size, _CHUNK):
        chunk = slice(start, start + _CHUNK)
        if where is None:
            total += float(_weights(amps[chunk]).sum())
        elif where[chunk].any():  # else the chunk adds exactly 0.0, so it is skipped
            total += float((_weights(amps[chunk]) * where[chunk]).sum())
    return total


def norm_squared(psi: StateVector) -> float:
    """Sum of the amplitudes' weights re*re + im*im, by chunks in order; inf if it overflows a double."""
    try:
        return _summed_weights(psi.amps)
    except ValueError:  # the policy's report of a weight or chunk sum that overflowed
        return math.inf


@_arithmetic
def support(psi: StateVector, eps: float = DEFAULT_SUPPORT_EPS) -> set[int]:
    """Basis indices whose amplitude magnitude exceeds eps."""
    check_tolerance(eps)
    return {int(k) for k in np.flatnonzero(np.abs(_amps(psi)) > eps)}


def _readout_norm_squared(psi: StateVector) -> float:
    """The squared norm every readout divides by: kept by an owned state, else summed per call.

    A finite sum proves the amplitudes finite, so only a sum that is not finite checks them.
    """
    owned = _owned(psi)
    if owned and psi._adopted[1] is not None:
        return psi._adopted[1]
    total = norm_squared(psi)
    if total == 0.0:
        raise DegenerateStateError("the all-zero state has no measurement distribution")
    if not math.isfinite(total):
        _amps(psi)  # raises on a caller's inf or NaN
        raise ValueError("the squared norm of the state overflows a double")
    if owned:
        psi._adopted = (psi.amps, total)
    return total


@_arithmetic
def probabilities(psi: StateVector) -> np.ndarray:
    """Measurement distribution: each weight over their sum, so every entry lies in [0, 1]."""
    total = _readout_norm_squared(psi)  # first: it refuses what _weights would overflow on
    return _weights(psi.amps) / total
