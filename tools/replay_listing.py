#!/usr/bin/env python3
"""A sha256 listing of what svmem's netlist emitter and replay give on a fixed input set.

Run from the repository root, against the svmem on PYTHONPATH:

    PYTHONPATH=src python3 tools/replay_listing.py [--verbose]

It prints two lines, `replay <outcomes> <sha256>` and `emit <texts> <sha256>`,
and with --verbose every outcome line before them: the input's label and
the sha256 of the replayed amplitudes' bytes, or of the error's type and
message. The `emit` line hashes the bytes of the emitted netlists, one
after another. Two checkouts whose lines match emit and replay alike on
these inputs. The inputs are built here with
the standard library and svmem's public API, and every replay goes through
`svmem.replay_circuit`:

- 98 emitted netlists: `emit_circuit` of functions on n = 1..14 inputs at
  seven densities (no minterm, one, 1/64, 1/4, 1/2, 9/10 and all);
- 400 random netlists on 1..10 qubits with 0..15 gates each, whose
  control lists may be empty, partial, repeated, or name one qubit with
  both polarities;
- 14 malformed netlists: every input of `test_replay_validation` and
  more bad headers, lines and shapes.

Every replay runs on a seeded random complex state where about a quarter
of the real and of the imaginary parts are drawn from SPECIAL (signed
zeros, subnormals and 1e300), so a replay that changes any bit other
than by a swap changes the listing.
"""

from __future__ import annotations

import argparse
import hashlib
import random

import svmem

SPECIAL = (0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2e-308, 1e300)
DENSITIES = ("none", "one", 1 / 64, 0.25, 0.5, 0.9, "all")

# (label, netlist, qubits of the state it runs on)
MALFORMED = [
    ("no header", "mcx controls=(0,-) target=aux\n", 2),
    ("bad polarity", "qubits 2\nmcx controls=(0,*) target=aux\n", 2),
    ("other gate", "qubits 2\nccx controls=(0,-) target=aux\n", 2),
    ("control out of range", "qubits 2\nmcx controls=(1,-) target=aux\n", 2),
    ("conflict then out of range", "qubits 2\nmcx controls=(0,+),(0,-),(1,+) target=aux\n", 2),
    ("header counts other qubits", "qubits 3\n", 2),
    ("header 0", "qubits 0\nmcx controls= target=aux\n", 0),
    ("header -1", "qubits -1\nmcx controls= target=aux\n", 0),
    ("empty text", "", 2),
    ("header without count", "qubits\n", 2),
    ("header not a number", "qubits two\n", 2),
    ("other target", "qubits 3\nmcx controls=(0,+) target=q1\n", 3),
    ("space in controls", "qubits 3\nmcx controls=(0,+), (1,-) target=aux\n", 3),
    ("bad line after good ones", "qubits 3\nmcx controls=(0,+) target=aux\nmcx\n", 3),
]


def state(n: int, rng: random.Random) -> svmem.StateVector:
    """A random 2^n-amplitude state, about a quarter of each part from SPECIAL."""
    def part() -> float:
        return rng.choice(SPECIAL) if rng.random() < 0.25 else rng.gauss(0.0, 1.0)

    return svmem.StateVector(n, [complex(part(), part()) for _ in range(1 << n)])


def minterms(n: int, density, rng: random.Random) -> list[int]:
    size = 1 << n
    if density == "none":
        return []
    if density == "one":
        return [rng.randrange(size)]
    if density == "all":
        return list(range(size))
    return [k for k in range(size) if rng.random() < density]


def random_netlist(rng: random.Random) -> tuple[int, str]:
    """(qubits, text) of a netlist of 0..15 gates with any control lists."""
    total = rng.randint(1, 10)
    lines = [f"qubits {total}"]
    for _ in range(rng.randint(0, 15)):
        controls = []
        if total > 1:
            for _ in range(rng.randint(0, 2 * total)):
                controls.append((rng.randrange(total - 1), rng.choice("+-")))
            if controls and rng.random() < 0.2:  # name a listed qubit with the other polarity
                q, p = rng.choice(controls)
                controls.insert(rng.randrange(len(controls) + 1), (q, "-" if p == "+" else "+"))
        lines.append("mcx controls=" + ",".join(f"({q},{p})" for q, p in controls) + " target=aux")
    return total, "\n".join(lines) + "\n"


def inputs(rng: random.Random):
    """(label, netlist, qubits) for every input, in a fixed order."""
    for n in range(1, 15):
        for density in DENSITIES:
            f = svmem.from_minterms(minterms(n, density, rng), n)
            yield f"emitted n={n} density={density}", svmem.emit_circuit(f), n + 1
    for k in range(400):
        total, text = random_netlist(rng)
        yield f"random {k} qubits={total}", text, total
    for label, text, total in MALFORMED:
        yield f"malformed {label}", text, total


def outcome(text: str, psi: svmem.StateVector) -> bytes:
    """The replayed amplitudes' bytes, or the error's type and message."""
    try:
        out = svmem.replay_circuit(text, psi)
    except Exception as exc:  # compared by type and message
        return f"{type(exc).__name__}: {exc}".encode("utf-8")
    return f"{out.n} {out.amps.dtype} ".encode("ascii") + out.amps.tobytes()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--verbose", action="store_true", help="print every outcome line")
    args = parser.parse_args()
    rng = random.Random(10)
    lines = []
    emitted, emit_hash = 0, hashlib.sha256()  # the emitted texts, hashed one after another
    for label, text, total in inputs(rng):
        if label.startswith("emitted "):
            emitted += 1
            emit_hash.update(text.encode("ascii"))
        line = f"{label}\t{hashlib.sha256(outcome(text, state(total, rng))).hexdigest()[:16]}"
        lines.append(line)
        if args.verbose:
            print(line)
    print("replay", len(lines), hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest())
    print("emit", emitted, emit_hash.hexdigest())


if __name__ == "__main__":
    main()
