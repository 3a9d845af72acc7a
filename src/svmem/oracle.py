"""Boolean functions as oracles acting on state vectors.

The marking form works on n+1 qubits with the auxiliary as the LEAST
significant bit and sends |x, q> to |x, q XOR f(x)>; the phase form stays
on n qubits and flips the sign of marked amplitudes. Both read the truth
table (O(2^n)), never the 2^n x 2^n matrix: the marking form as a mask, the
phase form as the mask of one multiply by -1 on a copy of the state, which
leaves every unmarked amplitude's bytes as they were. The netlist emitter
writes one multi-controlled X per minterm; replay swaps, in place on one
copy of the state, the (input, aux) pair rows in each gate's subcube, built
from its controls as a 2^n-byte mask, never from a truth table.
"""

from __future__ import annotations

import re

import numpy as np

from .boolfn import BoolFn
from .errors import ShapeError
from .statevec import (
    DEFAULT_QUBIT_CAP,
    Factor,
    StateVector,
    _amps,
    _subcube,
    check_cap,
)


def apply_marking(f: BoolFn, psi: StateVector) -> StateVector:
    """|x, q> -> |x, q XOR f(x)>; a self-inverse basis permutation."""
    if psi.n != f.n + 1:
        raise ShapeError(
            f"marking oracle on {f.n} inputs needs {f.n + 1} qubits, state has {psi.n}"
        )
    # row x holds the amplitudes of |x, 0> and |x, 1>; f(x)=1 swaps them
    pairs = _amps(psi).reshape(-1, 2)
    return StateVector._adopt(psi.n, np.where(f.table[:, None], pairs[:, ::-1], pairs).reshape(-1))


def apply_phase(f: BoolFn, psi: StateVector) -> StateVector:
    """amps[x] -> (-1)^f(x) * amps[x]; diagonal with entries ±1.

    Copies the state once, then multiplies each marked amplitude by -1 in
    complex128 in that copy, masked by the truth table: no index, gather or
    sign array is built. Unmarked amplitudes keep their bytes bit for bit,
    signed zeros included.
    """
    if psi.n != f.n:
        raise ShapeError(f"phase oracle on {f.n} inputs got a {psi.n}-qubit state")
    amps = _amps(psi).copy()
    np.multiply(amps, -1, out=amps, where=f.table)
    return StateVector._adopt(psi.n, amps)


# Longest netlist text emit_circuit builds: the complex128 bytes at the qubit cap.
MAX_NETLIST_BYTES = 16 << DEFAULT_QUBIT_CAP
# emit_circuit writes the lines of at most 2^12 minterms at a time
_EMIT_CHUNK = 1 << 12
_SIGNS = np.frombuffer(b"-+", np.uint8)  # a control's polarity byte, by qubit value


def emit_circuit(f: BoolFn) -> str:
    """Netlist realizing the marking oracle, one mcx per minterm.

    Header `qubits <n+1>` counts the auxiliary target. Control polarity
    is '+' for a 1-bit and '-' for a 0-bit of the minterm, with qubit 0
    as the most significant bit. No decomposition to elementary gates.
    Raises ResourceLimitError before building a text over MAX_NETLIST_BYTES.
    """
    header = f"qubits {f.n + 1}\n".encode("ascii")
    # every line is this template with its n polarity bytes set
    template = np.frombuffer(
        ("mcx controls=" + ",".join(f"({q},+)" for q in range(f.n)) + " target=aux\n").encode("ascii"),
        np.uint8,
    )
    size = len(header) + int(np.count_nonzero(f.table)) * template.size
    check_cap(size, MAX_NETLIST_BYTES, f"a netlist of {size} bytes")
    text = np.empty(size, np.uint8)
    text[:len(header)] = np.frombuffer(header, np.uint8)
    lines = text[len(header):].reshape(-1, template.size)
    lines[:] = template
    sign_column = np.flatnonzero(template == ord("+"))  # qubit q's polarity byte
    minterms = np.flatnonzero(f.table)  # ascending, one line each
    for start in range(0, len(minterms), _EMIT_CHUNK):
        # C order on (2,)*n axes: axis q is qubit q, qubit 0 the most significant bit
        qubits = np.unravel_index(minterms[start:start + _EMIT_CHUNK], (2,) * f.n)
        for q, values in enumerate(qubits):
            lines[start:start + len(values), sign_column[q]] = _SIGNS[values]
    del minterms  # freed before the one decode
    return str(memoryview(text), "ascii")


_MCX_LINE = re.compile(
    r"mcx controls=(?P<controls>(?:\(\d+,[+-]\)(?:,\(\d+,[+-]\))*)?) target=aux"
)
_CONTROL = re.compile(r"\((\d+),([+-])\)")


def replay_circuit(text: str, psi: StateVector) -> StateVector:
    """Run a netlist gate by gate with multi-controlled-X semantics.

    Independent of apply_marking on purpose: each mcx swaps the (input, aux)
    pair rows in the subcube its controls pick, never read from a truth table.
    The swap is in place on one copy of the state, so replay holds that copy,
    a 2^n-byte mask and the rows the gate selects. Its cost grows with those
    rows: a gate with few controls selects many and is slower than one
    whose controls fix most qubits.
    """
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("qubits "):
        raise ValueError("netlist must start with a 'qubits <count>' header")
    try:
        total = int(lines[0].split()[1])
        if total < 1:
            raise ValueError
    except (IndexError, ValueError):
        raise ValueError(f"bad netlist header: {lines[0]!r}") from None
    if psi.n != total:
        raise ShapeError(f"netlist wants {total} qubits, state has {psi.n}")
    pairs = _amps(psi).reshape(-1, 2).copy()
    for line in lines[1:]:
        m = _MCX_LINE.fullmatch(line)
        if m is None:
            raise ValueError(f"bad netlist line: {line!r}")
        factors = [Factor.BOTH] * (total - 1)  # None: listed with both polarities
        for q_text, polarity in _CONTROL.findall(m.group("controls")):
            q = int(q_text)
            if q >= total - 1:
                raise ValueError(f"control qubit {q} out of range in: {line!r}")
            want = Factor.ONE if polarity == "+" else Factor.ZERO
            factors[q] = want if factors[q] in (Factor.BOTH, want) else None
        if None not in factors:
            mask = _subcube(factors, bool)
            pairs[mask] = pairs[mask, ::-1]
    return StateVector._adopt(total, pairs.reshape(-1))
