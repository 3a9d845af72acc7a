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
norm of such a state once and keeps it; `encode` hands over its exact norm,
so its states are never summed. A caller's `StateVector(n, arr)`
keeps arr as given, writable if it was, and its norm is never kept.
"""

from __future__ import annotations

import io
import itertools
import json
import math
import operator
import os
import re
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .errors import DegenerateStateError, ResourceLimitError

# The one size cap for registers, function arity and state files: 2^24
# amplitudes = 256 MiB of complex128.
DEFAULT_QUBIT_CAP = 24

# Longest state file read: the canonical text at the qubit cap, 2^24 pairs
# of at most 54 bytes, is about 864 MiB.
MAX_STATE_FILE_BYTES = 64 << DEFAULT_QUBIT_CAP

# Bytes read per call from a state file that reports no size (a pipe or a device)
_READ_CHUNK = 1 << 20

DEFAULT_SUPPORT_EPS = 1e-9


class Factor(Enum):
    """Per-qubit init choice: basis 0, basis 1, or the unnormalized pair."""

    ZERO = "Z"  # (1 0)
    ONE = "O"   # (0 1)
    BOTH = "B"  # (1 1)


def check_integer(value: int, what: str) -> int:
    """value as a Python int: numpy ints count exactly; a bool, float or str raises TypeError."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise TypeError(f"{what} must be an integer, got {type(value).__name__}")
    return operator.index(value)


def check_qubits(n: int) -> int:
    """n as a Python int, or ResourceLimitError over the cap; call before allocating 2^n."""
    n = check_integer(n, "qubit count")
    if n > DEFAULT_QUBIT_CAP:
        raise ResourceLimitError(f"{n} qubits exceeds the cap of {DEFAULT_QUBIT_CAP}")
    return n


def check_index(k: int, n: int, what: str) -> int:
    """k as a Python int, or ValueError unless it indexes the 2^n basis; what names k."""
    k = check_integer(k, what)
    if not 0 <= k < (1 << n):
        raise ValueError(f"{what} {k} out of range for {n} qubits (valid: 0..{(1 << n) - 1})")
    return k


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
    """2^n complex amplitudes indexed by basis state, n within the qubit cap; not normalized."""

    n: int
    amps: np.ndarray

    def __post_init__(self):
        self.n = check_qubits(self.n)
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
    def _adopt(cls, n: int, amps: np.ndarray, total: float | None = None) -> StateVector:
        """Package-internal: the state over amps, 2^n complex128 values svmem just allocated.

        No copy and no checks: the caller has built amps in shape and run
        _check_finite wherever a value can stop being finite. amps and
        every array on its .base chain are svmem's own temporaries, and
        are frozen here, so the readouts may keep this state's squared norm.
        A caller that knows it exactly, bit for bit as norm_squared would
        sum it, and nonzero, passes it as total, and no readout sums it.
        """
        base = amps
        while isinstance(base, np.ndarray):
            base.setflags(write=False)
            base = base.base
        psi = cls.__new__(cls)
        psi.n, psi.amps, psi._kept_norm = n, amps, None if total is None else (amps, total)
        return psi

    def to_json_dict(self) -> dict:
        """JSON form: {"n": n, "amps": [[re, im], ...]} in basis-index order."""
        # complex128 is a (re, im) float64 pair in memory
        pairs = np.ascontiguousarray(self.amps).view(np.float64).reshape(-1, 2)
        return {"n": self.n, "amps": pairs.tolist()}

    def to_json_text(self) -> str:
        """json.dumps(self.to_json_dict()), formatting each distinct amplitude pair once.

        Pairs are numbered exactly by the bits of their two parts, so -0.0
        stays apart from 0.0. One json.dumps writes the distinct pairs the
        numbering gives, and the text is gathered from a table of their
        texts by number: no Python object per amplitude.
        """
        return str(memoryview(self._json_bytes()), "ascii")

    def _json_bytes(self, end: bytes = b"") -> np.ndarray:
        """Package-internal: to_json_text's text and then end, as the bytes of one uint8 array."""
        bits = np.ascontiguousarray(self.amps).view(np.uint64).reshape(-1, 2)
        codes, distinct = _dense_codes(list(bits.T))
        pairs = distinct.view(np.float64).tolist()  # a row per distinct amplitude
        # the listing is the text of the distinct pairs alone: the same head,
        # the pairs in code order, the same tail
        text = json.dumps({"n": self.n, "amps": pairs})
        start = text.index("[[") + 2
        # one row per distinct pair text, NUL-padded; JSON holds no NUL, so
        # the padding is the fill that _joined_pairs drops
        table = np.array(text[start:-3].split("], ["), dtype="S").view(np.uint8)
        table = table.reshape(len(distinct), -1)
        table[table == 0] = _FILL_BYTE
        head, tail = text[:start].encode("ascii"), text[-3:].encode("ascii") + end
        del distinct, pairs, text
        return _joined_pairs(table, codes, head, tail)

    @classmethod
    def from_json_text(cls, text: str) -> StateVector:
        """from_json_dict(json.loads(text)), building a canonical file from its distinct pairs.

        Text in the shape to_json_text writes (with or without one final LF,
        CRLF or CR), ASCII, with its pair texts all of one width and at
        most half of them distinct, is read on its bytes: each distinct
        pair is parsed once, and the amplitudes are gathered from them by
        index. Any other text, and canonical text whose distinct pairs fail
        the pair rule, goes to json.loads and from_json_dict whole; but a
        canonical header's n over the qubit cap raises ResourceLimitError
        unparsed. Text nested too deeply for json raises ValueError.
        """
        read = _canonical_words(text.encode("ascii")) if text.isascii() else None
        if read is not None and isinstance(canonical := _canonical_amps(read), tuple):
            return cls._adopt(*canonical)
        return cls._from_json(text)

    @classmethod
    def _load(cls, path: str) -> StateVector:
        """Package-internal: from_json_text(open(path).read()), refused past the byte cap.

        The file is read once, in binary: whole if it reports a size, and
        refused unread if that size passes MAX_STATE_FILE_BYTES; in chunks if
        it reports none (a pipe or a device), until it ends or passes the cap.
        A canonical file is read on its bytes, freed once its words are read
        (a late refusal rebuilds them for json); any other is decoded as
        open(path).read() does: locale encoding, universal newlines.
        """
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            if size:  # refused unread past the cap
                data = fh.read() if size <= MAX_STATE_FILE_BYTES else b""
            else:  # a pipe or a device
                data = bytearray()
                while len(data) <= MAX_STATE_FILE_BYTES and (chunk := fh.read(_READ_CHUNK)):
                    data += chunk
        if max(size, len(data)) > MAX_STATE_FILE_BYTES:
            raise ResourceLimitError(
                f"state file {path} exceeds the cap of {MAX_STATE_FILE_BYTES} bytes"
            )
        read = _canonical_words(data)
        if read is not None:
            del data  # the words are copies: free the bytes before the numbering
            data = _canonical_amps(read)
            if isinstance(data, tuple):
                return cls._adopt(*data)
        with io.TextIOWrapper(io.BytesIO(data)) as fh:
            return cls._from_json(fh.read())

    @classmethod
    def _from_json(cls, text: str) -> StateVector:
        """from_json_dict(json.loads(text)); text nested too deeply for json raises ValueError."""
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


# the text to_json_text writes, with or without one final newline
_CANONICAL_HEAD = re.compile(rb'\{"n": (0|[1-9][0-9]{0,8}), "amps": \[\[')
_CANONICAL_TAIL = b"]]}"
_SEPARATOR = int.from_bytes(b"], [", "little")
# _FILL[k]: 0xFF in the low 8 - k bytes of a little-endian word; or-ed onto
# the 8 bytes that end a piece's k bytes, it keeps them and masks the bytes
# before them with a byte that ASCII never holds, which _joined_pairs drops
_FILL = np.array([(1 << 8 * (8 - k)) - 1 for k in range(9)], dtype="<u8")
_FILL_BYTE = 0xFF


def _canonical_words(data: bytes) -> tuple[int, list[np.ndarray], bytes, bytes] | None:
    """(n, its pieces' words, head, tail) of canonical text with pieces of one width, else None.

    data is the text's bytes, ending in at most one LF, CRLF or CR;
    head is data before the first piece, tail data from the last "]" on.
    An n over the qubit cap raises ResourceLimitError. The words are
    copies, so the caller may free data before they are numbered.
    """
    head = _CANONICAL_HEAD.match(data)
    end = len(data) - data.endswith(b"\n")
    end -= data.endswith(b"\r", 0, end)
    if head is None or not data.endswith(_CANONICAL_TAIL, 0, end) or not data.isascii():
        return None
    n = check_qubits(int(head.group(1)))  # before 1 << n
    stop = end - len(_CANONICAL_TAIL) + 1  # just past the tail's first "]"
    words = _piece_words(np.frombuffer(data, np.uint8), head.end(), stop, 1 << n)
    return None if words is None else (n, words, data[: head.end()], data[stop - 1 :])


def _canonical_amps(read: tuple) -> tuple[int, np.ndarray] | np.ndarray:
    """(n, amplitudes) from _canonical_words(data) with at most half its pairs distinct.

    Numbering the pieces exactly by their words empties the list and gives
    the distinct pieces. If more are distinct, one holds a bracket or its
    pair fails json or the pair rule, data rebuilt from them instead, for
    json to name the first bad pair. A distinct pair not finite raises ValueError.
    """
    n, words, head, tail = read
    codes, pieces = _dense_codes(words)
    pieces = pieces.view(np.uint8)  # one row per distinct piece
    # every piece equals a distinct one, so a bracket-free distinct piece
    # clears them all; pieces that pass the pair rule hold no quote or
    # brace, which would give a string or an object; so each piece parses
    # alone as it stands in the whole text
    if 2 * len(pieces) > codes.size or np.any((pieces == ord("[")) | (pieces == ord("]"))):
        return _joined_pairs(pieces, codes, head, tail)
    try:
        values = _pair_values(json.loads(_joined_pairs(pieces, None, b"[[", b"]]").tobytes()))
    except ValueError:
        return _joined_pairs(pieces, codes, head, tail)
    _check_finite(values)  # every distinct pair is some pair's value
    return n, values[codes]


def _piece_words(buf: np.ndarray, start: int, stop: int, pieces: int) -> list[np.ndarray] | None:
    """The words of the pieces "p0], [p1], [ ... ], [pk]" in buf[start:stop], else None.

    buf[stop - 1] is the last "]", and 8 bytes precede start. The pieces,
    as many as the caller expects, must all share one width: the body is
    then a (pieces, width + 4) byte matrix, read by strided views. Each
    piece becomes its bytes in little-endian uint64 words, 0xFF-filled:
    word j, an array of one value per piece, holds bytes 8j..8j+7 as the
    high bytes of the 8 that end at the last of them, so equal words mean
    equal bytes. None unless "], [" follows each of the first pieces - 1
    pieces. A piece may still hold a bracket; the caller checks the
    distinct pieces.
    """
    stride, rest = divmod(stop - start + 3, pieces)
    if rest or stride < 4:
        return None
    width = stride - 4
    if not np.all(np.ndarray((pieces - 1,), "<u4", buf, start + width, (stride,)) == _SEPARATOR):
        return None
    words = []
    for low in range(0, max(width, 1), 8):
        high = min(low + 8, width)  # where the word's bytes end in its piece
        window = np.ndarray((pieces,), "<u8", buf, start + high - 8, (stride,))
        words.append(window | _FILL[high - low])
    return words


def _dense_codes(words: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Each column's index among the distinct columns of words, and those columns in order.

    words is a list of w uint64 arrays of N values, the rows of a (w, N)
    matrix, and is emptied here: each word is popped as it is numbered, so
    no word outlives its codes. The distinct columns are the rows of a
    (count, w) matrix, as np.unique gives the rows of the matrix's
    transpose. A later word equal in every column is skipped; any other
    is folded in: code * the word's distinct count + code in the word,
    numbered again, is exact in int64 as codes are below N, and its divmod
    by that count gives back both codes.
    """
    codes, values = _number_keys(words.pop(0))
    columns = [values]
    while words:
        word = words.pop(0)
        if np.all(word == word[0]):
            columns.append(np.full(columns[0].size, word[0]))
            continue
        word_codes, values = _number_keys(word)
        codes *= values.size
        codes += word_codes
        del word, word_codes
        codes, keys = _number_keys(codes)
        prior, own = np.divmod(keys, values.size)
        columns = [column[prior] for column in columns] + [values[own]]
    return codes, np.stack(columns, axis=1)


def _number_keys(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each key's index among the distinct keys, and the distinct keys in ascending order."""
    distinct = np.sort(keys)
    first = np.empty(distinct.size, bool)
    first[:1] = True
    np.not_equal(distinct[1:], distinct[:-1], out=first[1:])
    distinct = distinct[first]  # frees the sorted keys before the search
    return np.searchsorted(distinct, keys), distinct


def _joined_pairs(
    pieces: np.ndarray, codes: np.ndarray | None, head: bytes, tail: bytes
) -> np.ndarray:
    """head, the rows of pieces in the order of codes joined by "], [", then tail, in uint8.

    pieces is a (count, width) uint8 table, one piece per row, filled out
    with 0xFF. Each row takes "], [", the rows are gathered by code straight
    into the output, the tail is written over the last "], [", and the
    fill bytes are then dropped, if any row has them.
    """
    table = np.empty((len(pieces), pieces.shape[1] + 4), np.uint8)
    table[:, :-4] = pieces
    table[:, -4:] = np.frombuffer(b"], [", np.uint8)
    rows = len(table) if codes is None else len(codes)
    end = len(head) + rows * table.shape[1] - 4
    # room for the rows and for a tail longer than the "], [" it replaces
    out = np.empty(end + max(len(tail), 4), np.uint8)
    out[: len(head)] = np.frombuffer(head, np.uint8)
    body = out[len(head) : end + 4].reshape(rows, -1)
    if codes is None:
        body[:] = table
    else:  # mode "clip" writes straight into body; every code is in range
        np.take(table, codes, axis=0, out=body, mode="clip")
    out = out[: end + len(tail)]
    out[end:] = np.frombuffer(tail, np.uint8)
    return out[out != _FILL_BYTE] if np.any(pieces == _FILL_BYTE) else out


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


def encode(pattern: str | Iterable[Factor]) -> StateVector:
    """Kronecker product of the per-qubit factor vectors, left to right.

    Accepts a Factor sequence or a letter string ("ZZB"). The result has
    amplitudes that are exactly 0.0 or 1.0, with support of size 2^i
    where i counts the BOTH factors.
    """
    factors = parse_pattern(pattern) if isinstance(pattern, str) else tuple(pattern)
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
