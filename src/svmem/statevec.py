"""Unnormalized complex state vectors built from per-qubit init choices.

Bit order: qubit 0, the first tensor factor, is the MOST significant bit
of the basis index, so (1 0) ⊗ (1 0) ⊗ (1 1) puts its two nonzero
amplitudes at indices 0 and 1. The opposite convention is common in
other simulators; everything in this package assumes this one.

States are kept unnormalized on purpose: encoding produces exact 0/1
amplitudes, and only the readouts (`probabilities` here, RAM and CAM
reads in memory) divide by the squared norm, checked in one place.

Every state this package returns holds read-only amplitudes that it
allocated itself (`StateVector._adopt`), so a readout computes the squared
norm of such a state once and keeps it. A caller's `StateVector(n, arr)`
keeps arr as given, writable if it was, and its norm is never kept.
"""

from __future__ import annotations

import itertools
import json
import math
import re
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

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


def check_qubits(n: int, max_qubits: int = DEFAULT_QUBIT_CAP) -> None:
    """Raise ResourceLimitError if n qubits exceed the cap; call before allocating 2^n."""
    if n > max_qubits:
        raise ResourceLimitError(f"{n} qubits exceeds the cap of {max_qubits}")


def check_index(k: int, n: int, what: str) -> None:
    """Raise ValueError unless k indexes the 2^n basis; what names k in the message."""
    if not 0 <= k < (1 << n):
        raise ValueError(f"{what} {k} out of range for {n} qubits (valid: 0..{(1 << n) - 1})")


def _check_finite(amps: np.ndarray) -> None:
    """Raise ValueError unless every amplitude is finite."""
    if not np.all(np.isfinite(amps)):
        raise ValueError("amplitudes must be finite")


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
        _check_finite(amps)
        self.amps = amps

    @classmethod
    def _adopt(cls, n: int, amps: np.ndarray) -> StateVector:
        """Package-internal: the state over amps, 2^n complex128 values svmem just allocated.

        No copy and no checks: the caller has built amps in shape and run
        _check_finite wherever a value can stop being finite. amps and
        every array on its .base chain are svmem's own temporaries, and
        are frozen here, so the readouts may keep this state's squared norm.
        """
        base = amps
        while isinstance(base, np.ndarray):
            base.setflags(write=False)
            base = base.base
        psi = cls.__new__(cls)
        psi.n, psi.amps, psi._kept_norm = n, amps, None
        return psi

    def to_json_dict(self) -> dict:
        """JSON form: {"n": n, "amps": [[re, im], ...]} in basis-index order."""
        # complex128 is a (re, im) float64 pair in memory
        pairs = np.ascontiguousarray(self.amps).view(np.float64).reshape(-1, 2)
        return {"n": self.n, "amps": pairs.tolist()}

    def to_json_text(self) -> str:
        """json.dumps(self.to_json_dict()), formatting each distinct amplitude pair once."""
        # distinct pairs by their 16 bytes, so -0.0 stays apart from 0.0;
        # one json.dumps of them writes NaN and Infinity as json does
        pairs = np.ascontiguousarray(self.amps).view(np.dtype("V16"))
        distinct, pair_of = np.unique(pairs, return_inverse=True)
        text = json.dumps(distinct.view(np.float64).reshape(-1, 2).tolist())
        bodies = np.array(text[2:-2].split(_PAIR_SEPARATOR), dtype=object)
        return '{"n": %s, "amps": [[%s]]}' % (
            json.dumps(self.n), _PAIR_SEPARATOR.join(bodies[pair_of])
        )

    @classmethod
    def from_json_text(cls, text: str) -> StateVector:
        """from_json_dict(json.loads(text)), building a canonical file from its distinct pairs.

        Text in the shape to_json_text writes, with at most half its pairs
        distinct, is split into pairs; only the distinct ones are parsed,
        and the amplitudes are gathered from them by index. Any other text,
        and canonical text whose distinct pairs fail the pair rule, goes to
        json.loads and from_json_dict whole. Text nested too deeply for
        json raises ValueError.
        """
        canonical = _canonical_amps(text)
        if canonical is not None:
            n, amps = canonical
            _check_finite(amps)
            return cls._adopt(n, amps)
        try:
            data = json.loads(text)
        except RecursionError:
            raise ValueError("state file nests too deeply") from None
        return cls.from_json_dict(data)

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
        amps = _pair_values(raw)
        _check_finite(amps)
        return cls._adopt(n, amps)


# the text to_json_text writes, plus the newline the CLI appends
_CANONICAL_HEAD = re.compile(r'\{"n": (0|[1-9][0-9]{0,8}), "amps": \[\[')
_CANONICAL_TAIL = "]]}\n"
_PAIR_SEPARATOR = "], ["
_NOT_IN_A_PAIR = re.compile(r'[\[\]{}"]')


def _canonical_amps(text: str) -> tuple[int, np.ndarray] | None:
    """(n, amplitudes) of canonical text with at most half its pairs distinct, else None.

    None also when a distinct pair fails json or the pair rule, so the
    json path raises the error with the index of the first bad pair.
    """
    head = _CANONICAL_HEAD.match(text)
    if head is None or not text.endswith(_CANONICAL_TAIL):
        return None
    n = int(head.group(1))
    if n > DEFAULT_QUBIT_CAP:  # before 1 << n; the json path reports it
        return None
    pieces = text[head.end():-len(_CANONICAL_TAIL)].split(_PAIR_SEPARATOR)
    distinct = list(set(pieces))
    # with no bracket, brace or quote in a piece, each piece is one list
    # of scalars wherever it stands, so parsing it alone gives what the
    # whole text would
    if (
        len(pieces) != 1 << n
        or 2 * len(distinct) > len(pieces)
        or any(map(_NOT_IN_A_PAIR.search, distinct))
    ):
        return None
    try:
        values = _pair_values(json.loads("[[" + _PAIR_SEPARATOR.join(distinct) + "]]"))
    except ValueError:
        return None
    code = dict(zip(distinct, range(len(distinct))))
    codes = np.fromiter(map(code.__getitem__, pieces), np.intp, len(pieces))
    del pieces  # 2^n strings, freed before the 2^n amplitudes are gathered
    return n, values[codes]


def _pair_values(raw: list) -> np.ndarray:
    """The pair rule: a list of [re, im] pairs of doubles as complex128, else a ValueError.

    The error names the first pair that is not two non-bool ints or
    floats, or that overflows a double.
    """
    # whole-list passes over the distinct types and lengths; only a
    # failed check walks the pairs, to name the first bad one
    pair_types = set(map(type, raw))
    if not all(issubclass(t, (list, tuple)) for t in pair_types) or set(map(len, raw)) != {2}:
        raise _first_bad_pair(raw)
    flat = list(itertools.chain.from_iterable(raw))
    if not all(_is_number_type(t) for t in set(map(type, flat))):
        raise _first_bad_pair(raw)
    try:
        return np.array(flat, dtype=np.float64).view(np.complex128)
    except OverflowError:
        raise _first_bad_pair(raw) from None


def _is_number_type(t: type) -> bool:
    return issubclass(t, (int, float)) and not issubclass(t, bool)


def _first_bad_pair(raw: list) -> ValueError:
    """The error naming the first pair that is not a [re, im] pair of doubles."""
    for k, pair in enumerate(raw):
        if (
            not isinstance(pair, (list, tuple))
            or len(pair) != 2
            or not all(_is_number_type(type(v)) for v in pair)
        ):
            return ValueError(f"amplitude {k} must be a [re, im] number pair")
        try:
            complex(pair[0], pair[1])
        except OverflowError:
            return ValueError(f"amplitude {k} is too large for a double")
    raise AssertionError("a whole-list check failed, but every pair is good")


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
    return StateVector._adopt(n, _subcube(factors, np.complex128))


_AXIS_INDEX = {Factor.ZERO: 0, Factor.ONE: 1, Factor.BOTH: slice(None)}


def _subcube(factors: Sequence[Factor], dtype) -> np.ndarray:
    """Flat 2^n array, 1 on the basis states the factors allow and 0 elsewhere.

    The only statement of the bit order: axis q of the (2,)*n grid is qubit q.
    """
    grid = np.zeros((2,) * len(factors), dtype=dtype)
    grid[tuple(_AXIS_INDEX[factor] for factor in factors)] = 1
    return grid.reshape(-1)


def kron(a: StateVector, b: StateVector) -> StateVector:
    """Tensor product; entry p*2^b.n + q equals a.amps[p] * b.amps[q]."""
    check_qubits(a.n + b.n)
    amps = np.kron(a.amps, b.amps)
    _check_finite(amps)  # a product of two finite amplitudes can overflow
    return StateVector._adopt(a.n + b.n, amps)


def norm_squared(psi: StateVector) -> float:
    """Sum of squared amplitude magnitudes."""
    return float(np.real(np.vdot(psi.amps, psi.amps)))


def support(psi: StateVector, eps: float = DEFAULT_SUPPORT_EPS) -> set[int]:
    """Basis indices whose amplitude magnitude exceeds eps."""
    check_tolerance(eps)
    return {int(k) for k in np.flatnonzero(np.abs(psi.amps) > eps)}


def _readout_norm_squared(psi: StateVector) -> float:
    """The squared norm every readout probability divides by, checked once.

    Package-internal: probabilities, ram_read and cam_match share it. A
    state from _adopt keeps the checked value and reuses it while its
    amplitudes are still the same read-only array; a writable array, as in
    a caller's state or a deep copy, is summed again on every call. A caller
    who thaws a returned array, writes into it and freezes it again with no
    readout in between leaves the kept value stale.
    """
    kept = getattr(psi, "_kept_norm", None)
    if kept is not None and kept[0] is psi.amps and not psi.amps.flags.writeable:
        return kept[1]
    total = norm_squared(psi)
    if total == 0.0:
        raise DegenerateStateError("the all-zero state has no measurement distribution")
    if not math.isfinite(total):
        raise ValueError("the squared norm of the state overflows a double")
    if hasattr(psi, "_kept_norm") and not psi.amps.flags.writeable:
        psi._kept_norm = (psi.amps, total)
    return total


def probabilities(psi: StateVector) -> np.ndarray:
    """Measurement distribution |amps|^2 / norm_squared, as a float array."""
    total = _readout_norm_squared(psi)
    return np.abs(psi.amps) ** 2 / total
