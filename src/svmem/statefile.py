"""State files: the JSON text a StateVector is saved as, and the steps that read it.

A state file is {"n": <int>, "amps": [[re, im], ...]}: 2^n pairs in
basis-index order. The pair rule (`_pair_values`): each pair is a list of
two ints or floats, not bools, that fit a double. The canonical text is
json.dumps of that dict, as `to_json_text` writes it. Text in that shape,
ASCII and ending in at most one LF, CRLF or CR, whose pair texts all have
one width and at most half of them are distinct, is read on its bytes:
each distinct pair is parsed once, and the amplitudes are gathered from
them by index. Its header's n is checked against the qubit cap before
any pair is read. Any other text, and canonical text refused later (more
than half distinct, a bracket in a pair, a distinct pair that fails json
or the pair rule), goes whole to json.loads and StateVector.from_json_dict,
unless it holds more commas and opening brackets than a state at the qubit
cap, 3 * 2^cap + 2: json builds at most one value per such byte, and one more.
"""

from __future__ import annotations

import io
import itertools
import json
import os
import re

import numpy as np

from . import statevec
from .errors import ResourceLimitError

# Bytes read per call from a state file that reports no size (a pipe or a device)
_READ_CHUNK = 1 << 20

# the text to_json_text writes, with or without one final newline
_CANONICAL_HEAD = re.compile(rb'\{"n": (0|[1-9][0-9]{0,8}), "amps": \[\[')
_CANONICAL_TAIL = b"]]}"
_SEPARATOR = int.from_bytes(b"], [", "little")
# _FILL[k]: 0xFF in the low 8 - k bytes of a little-endian word; or-ed onto
# the 8 bytes that end a piece's k bytes, it keeps them and masks the bytes
# before them with a byte that ASCII never holds, which _joined_pairs drops
_FILL = np.array([(1 << 8 * (8 - k)) - 1 for k in range(9)], dtype="<u8")
_FILL_BYTE = 0xFF


def _save(psi, end: bytes) -> np.ndarray:
    """The canonical text of psi and then end, as the bytes of one uint8 array.

    Pairs are numbered exactly by the bits of their two parts, so -0.0
    stays apart from 0.0. One json.dumps writes the distinct pairs, and the
    text is gathered from their texts by number: no Python object per amplitude.
    """
    bits = statevec._amps(psi).view(np.uint64).reshape(-1, 2)
    codes, distinct = _dense_codes(list(bits.T))
    pairs = distinct.view(np.float64).tolist()  # a row per distinct amplitude
    # the listing is the text of the distinct pairs alone: the same head,
    # the pairs in code order, the same tail
    text = json.dumps({"n": psi.n, "amps": pairs})
    start = text.index("[[") + 2
    # one row per distinct pair text, NUL-padded; JSON holds no NUL, so
    # the padding is the fill that _joined_pairs drops
    table = np.array(text[start:-3].split("], ["), dtype="S").view(np.uint8)
    table = table.reshape(len(distinct), -1)
    table[table == 0] = _FILL_BYTE
    head, tail = text[:start].encode("ascii"), text[-3:].encode("ascii") + end
    del distinct, pairs, text
    return _joined_pairs(table, codes, head, tail)


def _load(path: str):
    """The state in the file at path, read once, in binary, and refused past the byte cap."""
    cap = statevec.MAX_STATE_FILE_BYTES
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size:  # refused unread past the cap
            data = fh.read() if size <= cap else b""
        else:  # a pipe or a device
            data = bytearray()
            while len(data) <= cap and (chunk := fh.read(_READ_CHUNK)):
                data += chunk
    if max(size, len(data)) > cap:
        raise ResourceLimitError(f"state file {path} exceeds the cap of {cap} bytes")
    if (read := _canonical_words(data)) is None:
        # each step rebinds data, so the bytes are freed before the parse and
        # the text before the pair rule; from_json_dict is called through
        # the class, so that a wrapper put there sees the call
        data = _json_text(data)
        data = _json_value(data)
        return statevec.StateVector.from_json_dict(data)
    del data  # the words are copies: free the bytes before the numbering
    return _from_words(read)


def _read(text: str):
    """from_json_text: the state from text's canonical words, else from json's reading of text."""
    # the bytes are freed as _canonical_words returns, before the numbering
    read = _canonical_words(text.encode("ascii")) if text.isascii() else None
    if read is None:
        return statevec.StateVector.from_json_dict(_json_value(_json_text(text)))
    return _from_words(read, text)


def _json_text(data: str | bytes) -> str:
    """data under the value bound, as a str: file bytes decoded as open(path).read() does."""
    # counted before any decode: no multibyte UTF-8 character holds ",", "[" or "{"
    marks = sum(map(data.count, ",[{" if isinstance(data, str) else b",[{"))
    cap = 3 * (1 << statevec.DEFAULT_QUBIT_CAP) + 2
    statevec.check_cap(marks, cap, f"json text with {marks} commas and opening brackets")
    if isinstance(data, str):
        return data
    with io.TextIOWrapper(io.BytesIO(data)) as fh:
        return fh.read()


def _json_value(text: str):
    """json.loads(text), with a text nested too deeply for the parser as a ValueError."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("state file nests too deeply") from None


def _from_dict(data):
    if not isinstance(data, dict) or "n" not in data or "amps" not in data:
        raise ValueError('state JSON must look like {"n": <int>, "amps": [[re, im], ...]}')
    n = data["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ValueError(f"bad qubit count {n!r}")
    statevec.check_qubits(n)
    raw = data["amps"]
    if not isinstance(raw, list) or len(raw) != (1 << n):
        raise ValueError(f"expected {1 << n} amplitude pairs for n={n}")
    amps = _pair_values(raw)
    statevec._check_finite(amps)
    return statevec.StateVector._adopt(n, amps)


def _canonical_words(data: bytes) -> tuple[int, list[np.ndarray], bytes, bytes] | None:
    """(n, its pieces' words, head, tail) of canonical text with pieces of one width, else None.

    head is data before the first piece, tail data from the last "]" on.
    The words are copies, so the caller may free data before they are numbered.
    """
    head = _CANONICAL_HEAD.match(data)
    end = len(data) - data.endswith(b"\n")
    end -= data.endswith(b"\r", 0, end)
    if head is None or not data.endswith(_CANONICAL_TAIL, 0, end) or not data.isascii():
        return None
    n = statevec.check_qubits(int(head.group(1)))  # before 1 << n
    stop = end - len(_CANONICAL_TAIL) + 1  # just past the tail's first "]"
    words = _piece_words(np.frombuffer(data, np.uint8), head.end(), stop, 1 << n)
    return None if words is None else (n, words, data[: head.end()], data[stop - 1 :])


def _from_words(read: tuple, text: str | None = None):
    """The state from read = _canonical_words(text or file bytes), else json's reading of them.

    A text refused late goes to json as given, or if None, as the file's bytes rebuilt.
    """
    n, words, head, tail = read
    codes, pieces = _dense_codes(words)
    pieces = pieces.view(np.uint8)  # one row per distinct piece
    # every piece equals a distinct one, so a bracket-free distinct piece
    # clears them all; pieces that pass the pair rule hold no quote or
    # brace, which would give a string or an object; so each piece parses
    # alone as it stands in the whole text
    if 2 * len(pieces) <= codes.size and not np.any((pieces == ord("[")) | (pieces == ord("]"))):
        try:
            values = _pair_values(json.loads(_joined_pairs(pieces, None, b"[[", b"]]").tobytes()))
        except ValueError:
            pass
        else:
            statevec._check_finite(values)  # every distinct pair is some pair's value
            return statevec.StateVector._adopt(n, values[codes])
    data = _joined_pairs(pieces, codes, head, tail).tobytes() if text is None else text
    del codes, pieces  # freed before json's parse
    data = _json_text(data)  # as in _load, each step frees the one before
    data = _json_value(data)
    return statevec.StateVector.from_json_dict(data)


def _piece_words(buf: np.ndarray, start: int, stop: int, pieces: int) -> list[np.ndarray] | None:
    """The words of the pieces "p0], [p1], [ ... ], [pk]" in buf[start:stop], else None.

    buf[stop - 1] is the last "]", and 8 bytes precede start. Pieces of one
    width, as many as the caller expects, make the body a (pieces, width + 4)
    byte matrix, read by strided views; None unless "], [" ends each row but
    the last. Word j, one value per piece, holds bytes 8j..8j+7 little-endian
    and 0xFF-filled, as the high bytes of the 8 that end at the last of them,
    so equal words mean equal bytes. The caller checks the distinct pieces
    for brackets.
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


def _joined_pairs(pieces: np.ndarray, codes, head: bytes, tail: bytes) -> np.ndarray:
    """head, the rows of pieces in the order of codes joined by "], [", then tail, in uint8.

    pieces is a (count, width) uint8 table, one piece per row, filled out
    with 0xFF; codes None takes each row once. Each row takes "], [", the
    rows are gathered by code straight into the output, the tail is written
    over the last "], [", and the fill bytes are then dropped, if any row has them.
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
    if all(issubclass(t, (list, tuple)) for t in set(map(type, raw))) and set(map(len, raw)) == {2}:
        flat = list(itertools.chain.from_iterable(raw))
        if all(_is_number_type(t) for t in set(map(type, flat))):
            try:
                return np.array(flat, dtype=np.float64).view(np.complex128)
            except OverflowError:
                pass
    for k, pair in enumerate(raw):
        if (
            not isinstance(pair, (list, tuple))
            or len(pair) != 2
            or not all(_is_number_type(type(v)) for v in pair)
        ):
            raise ValueError(f"amplitude {k} must be a [re, im] number pair")
        try:
            complex(pair[0], pair[1])
        except OverflowError:
            raise ValueError(f"amplitude {k} is too large for a double") from None
    raise AssertionError("a whole-list check failed, but every pair is good")


def _is_number_type(t: type) -> bool:
    return issubclass(t, (int, float)) and not issubclass(t, bool)
