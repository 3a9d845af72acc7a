#!/usr/bin/env python3
"""Two sha256 listings of how svmem reads and writes state files.

Run from the repository root, against the svmem on PYTHONPATH:

    PYTHONPATH=src python3 tools/state_file_listing.py [--verbose]

It prints one line per listing, `<name> <outcomes> <sha256>`, and with
--verbose every outcome line before it. Two checkouts whose lines match
read and write state files alike on these inputs. The inputs are built
here with the standard library alone, and svmem runs in this process
through its CLI entry point, `svmem.cli.main` (and, for the texts
listing, the public `StateVector.from_json_text`):

- `files`, 1420 outcomes: exit code, stdout and stderr of five `read` and
  `cam` commands on each of 259 files and on a directory, a missing path
  and a sparse file one byte over the byte cap; `encode --out` bytes and
  `encode` stdout for 48 patterns, n = 1..16; six files piped to `read`
  and `cam /dev/stdin`; and `/dev/zero` under a 3 MiB byte cap.
- `texts`, 232 outcomes: `from_json_text`, `read`, `cam` and
  `read --shots` on 58 texts, each with no ending and with LF, CRLF and CR.

The listings are deterministic: every drawn value comes from a seeded
`random.Random`, and the temporary directory's path is masked in outputs.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import random
import tempfile
import threading
from contextlib import redirect_stderr, redirect_stdout

import svmem
from svmem import statevec
from svmem.cli import main as svmem_main

POOL = (0.0, -0.0, 1.0, -1.0, 0.5, 0.1, 5e-324)
COMPLEX_POOL = ((1.0, 0.0), (0.0, 1.0), (0.5, -0.5), (-0.25, 0.125), (0.0, -0.0))

# texts at the edges of the byte route and of json, each ending in a newline
EDGE_TEXTS = [
    '{"n": 1, "amps": ' + "[" * 5000 + "]" * 5000 + "}\n",
    '{"n": 2, "amps": [[%s, 0], [0, 0], [0, 0], [0, 0]]}\n' % ("1" * 5000),
    '{"n": 2, "amps": [[1, 0], [1, 0], [1, 0], [1, 12345',
    '{"n": 2, "amps": [[0, 0], [0, 0], [0, 0], [1, 0]]}\n',
    '{"n": 1, "amps": [[1e308, 0], [1e308, 0]]}\n',
    '{"n": 0, "amps": [[1.0, 0.0]]}\n',
    '{"n": 3, "amps": [[%s]]}\n' % "], [".join(["1.0, 0.0"] * 7),
    '{"n": 3, "amps": [[%s]]}\n' % "], [".join(["1.0, 0.0"] * 9),
    '{"n": 3, "amps": [[%s]]}\n' % "], [".join(["1, 0", "1.0, 0.0", "0, 0", "0.0, -0.0"] * 2),
    '{"n": 2, "amps": [[0, 1.0], [0, 1.0\0], [0, 1.0], [0, 1.0]]}\n',
    '{"n": 1, "amps": [[0, 0], [0, 0], [0, 0], [0, 0]]}\n',  # 12-byte pieces of two pairs
    '{"n": 2, "amps": [[], [1, 0], [1, 0], [1, 0]]}\n',
    '{"n": 2, "amps": [["a], [b", 0], [1, 0], [1, 0], [1, 0]]}\n',
    '{"n": 2, "amps": [[1.0, 0.0], [2.0, 0.0], [3.0, 0.0], [1.0, 0.0]]}\n',
    '{"n": 2, "amps": [[ 1.0 ,  0.0 ], [0.0, 0.0], [ 1.0 ,  0.0 ], [\t0.0,0.0\n]]}\n',
    '{"n": 0, "amps": [[0.7071067811865476, -0.0]]}\n',
    '{"n": 3, "amps": [[%s]]}\n' % "], [".join(["1.0, 0.00", "1.0, 0.01"] * 4),
    '{"n": 3, "amps": [[%s]]}\n' % "], [".join(["0.12345678, 1.000", "0.12345678, 2.000"] * 4),
    '{"n": 2, "amps": [[%s]]}\n' % "], [".join(["0, 1.00", "0, 1.0001"] * 2),
    '{"n": 2, "amps": [[1.0, 0.0], [1.0, 0.0], [[1.0, 0.], [1.0, 0.0]]}\n',
    '{"n": 2, "amps": [[%s]]}\n' % "], [".join(['"a", 0', "1.0, 0"] * 2),
    '{"n": 2, "amps": [[%s]]}\n' % "], [".join(['1, "ab', 'cd", 0'] * 2),
    '{"n": 2, "amps": [[%s]]}\n' % "], [".join(["{}, 0", "0, {}"] * 2),
    '{"n": 2, "amps": [[%s]]}\n' % "], [".join(['0, {"x', '": 1 }'] * 2),
    '{"n": 1, "amps": [[0, 0], [0, 0]]}\n',
    '{"n": 4, "amps": [[%s]]}\n' % "], [".join(
        ["0, 1.00", "0, 1.000", "0, 1.0001", "0, 1.00000000002", "0, 1.000000000003"] * 3
        + ["0, 1.0"]),
]
# pieces that are not a pair of doubles, repeated among good ones of one width
BAD_PIECES = ["true, 0.0", "0.0, null", "1", "1, 2, 3", "", "1" * 401 + ", 0", "NaN, 0.0",
              "0.0, 1e999"]
# [re, im] bodies written over the pairs of a pooled n=3 file
PAIR_BODIES = [
    "0, 0", "1, -0", "NaN, 0.0", "Infinity, -Infinity", "1e999, 0", "-1e-999, 1E2",
    f"{2**1024 - 2**970}, 0", f"0, {2**1024 - 2**971}", f"{2**63 + 1}, 0", "01, 0", "1.0",
    "1.0, 0.0, 0.0", "1.0, ", "-, 0", " 1.0 ,\t0.0\n", "1.0,0.0", "[0.0], 0.0",
    "[0, 0], [0, 0]", '"], [", 0', "{}, 0",
]
# the commands each file is read with: (command, operand, extra flags)
READS = [
    ("read", "0", []), ("read", "5", ["--tolerance", "0.5"]), ("cam", "needle:0", []),
    ("cam", "expr:a", []), ("read", "1", ["--shots", "10", "--seed", "3"]),
]


def canonical(n: int, pairs: list) -> str:
    """json.dumps of the state file's dict, as svmem's save writes it, and a newline."""
    return json.dumps({"n": n, "amps": [list(p) for p in pairs]}) + "\n"


def from_pieces(n: int, pieces: list[str]) -> str:
    return '{"n": %d, "amps": [[%s]]}\n' % (n, "], [".join(pieces))


def grover_final(n: int, marked: list[int]) -> str:
    """The closed-form state after AUTO iterations on the marked indices."""
    size, m = 1 << n, len(marked)
    theta = math.asin(math.sqrt(m / size))
    angle = (2 * math.floor(math.pi / (4 * theta)) + 1) * theta
    inside, outside = math.sin(angle) / math.sqrt(m), math.cos(angle) / math.sqrt(size - m)
    hits = set(marked)
    return canonical(n, [(inside if k in hits else outside, 0.0) for k in range(size)])


def pooled(n: int, rng: random.Random, pool=POOL) -> str:
    return canonical(n, [(rng.choice(pool), rng.choice(pool)) for _ in range(1 << n)])


def encoded(pattern: str) -> str:
    """The encode output, built as a Kronecker product of the factors."""
    vectors = {"Z": (1.0, 0.0), "O": (0.0, 1.0), "B": (1.0, 1.0)}
    amps = [1.0]
    for letter in pattern:
        amps = [a * b for a in amps for b in vectors[letter]]
    return canonical(len(pattern), [(a, 0.0) for a in amps])


def two_pieces(n: int, rng: random.Random, pieces: tuple[str, str]) -> str:
    return from_pieces(n, [rng.choice(pieces) for _ in range(1 << n)])


def state_files(rng: random.Random) -> list[tuple[str, bytes]]:
    """The 259 (label, bytes) files of the files listing."""
    files = []
    for n in range(1, 17):
        text = encoded("".join(rng.choice("ZOB") for _ in range(n))).encode("ascii")
        files += [(f"encoded {n} lf", text), (f"encoded {n} none", text[:-1]),
                  (f"encoded {n} crlf", text[:-1] + b"\r\n")]
    for n in range(4, 19):
        for m in (1, 3):
            marked = [(7 * j + 5) % (1 << n) for j in range(m)]
            files.append((f"grover {n} {m}", grover_final(n, marked).encode("ascii")))
    for n in range(13):
        distinct = [(float(10**6 + k), 0.0) for k in range(1 << n)]  # one width, all distinct
        files += [(f"pooled {n}", pooled(n, rng).encode("ascii")),
                  (f"complex pool {n}", canonical(n, [rng.choice(COMPLEX_POOL)
                                                     for _ in range(1 << n)]).encode("ascii")),
                  (f"all distinct {n}", canonical(n, distinct).encode("ascii"))]
    for n in (14, 16):
        files.append((f"complex pool {n}", canonical(
            n, [rng.choice(COMPLEX_POOL) for _ in range(1 << n)]).encode("ascii")))
    for n in range(1, 17):
        for kind, pieces in (("10-byte", ("0.25, 0.00", "0.50, 0.00")),
                             ("first word alike", ("0.50, 0.25", "0.50, 0.75")),
                             ("17-byte", ("0.12345678, 1.000", "0.12345678, 2.000"))):
            files.append((f"{kind} {n}", two_pieces(n, rng, pieces).encode("ascii")))
    for k, text in enumerate(EDGE_TEXTS):
        toggled = text[:-1] if text.endswith("\n") else text + "\n"
        files += [(f"edge {k}", text.encode("utf-8")),
                  (f"edge {k} toggled", toggled.encode("utf-8"))]
    for k, bad in enumerate(BAD_PIECES):
        width = max(len(bad), len("0.0, 0.0"))
        pieces = ["0.0, 0.0".ljust(width)] * 8
        pieces[k % 3::3] = [bad.ljust(width)] * len(pieces[k % 3::3])
        files.append((f"bad piece {k}", from_pieces(3, pieces).encode("ascii")))
    for k, body in enumerate(PAIR_BODIES):
        pieces = json.dumps([list(p) for p in [(1.0, 0.0), (0.0, 0.0)] * 4])[2:-2].split("], [")
        pieces[k % 8] = body
        files.append((f"pair body {k}", from_pieces(3, pieces).encode("ascii")))
    small = encoded("BOZB").encode("ascii")
    files += [
        ("cr inside", small.replace(b", [", b",\r[")),
        ("crlf inside", small.replace(b", [", b",\r\n[")),
        ("bom", b"\xef\xbb\xbf" + small),
        ("invalid utf-8", small.replace(b"1.0", b"1.\xff", 1)),
        ("non-ascii", small.replace(b"1.0", "1.٠".encode("utf-8"), 1)),
        ("empty", b""),
        ("deep", b'{"n": 1, "amps": ' + b"[" * 5000 + b"]" * 5000 + b"}\n"),
    ] + [(f"truncated {cut}", small[:cut]) for cut in (1, 10, 25, 100, len(small) - 2)]
    assert len(files) == 259, len(files)
    return files


def texts(rng: random.Random) -> list[tuple[str, str]]:
    """The 58 (label, text) texts of the texts listing, without their ending."""
    found = [(f"encoded {n}", encoded("".join(rng.choice("ZOB") for _ in range(n))))
             for n in (1, 4, 8, 12)]
    found += [(f"pooled {n}", pooled(n, rng)) for n in (0, 3, 6, 10)]
    found.append(("grover 10", grover_final(10, [5, 77, 1000])))
    found += [(f"edge {k}", text) for k, text in enumerate(EDGE_TEXTS)]
    six = encoded("BOZBBO")
    found += [
        ("compact", json.dumps(json.loads(six), separators=(",", ":"))),
        ("swapped", '{"amps": %s, "n": 6}' % six[six.index("[["):-2]),
        ("zero", canonical(3, [(0.0, 0.0)] * 8)),
        ("all distinct", canonical(8, [(float(10**6 + k), 0.0) for k in range(256)])),
        ("half distinct", canonical(8, [(float(10**6 + k // 2), 0.0) for k in range(256)])),
    ]
    bodies = {"valid": "1.0, 0.0], [0.0, 0.0", "bad": "1.0, 0.0], [x", "bracketed": "[1.0], 0.0",
              "empty": "", "compact": "1.0,0.0],[0.0,0.0", "truncated": "1.0, 0."}
    for n in (25, 99, 999_999_999):
        for kind, body in bodies.items():
            ending = "" if kind == "truncated" else "]]}"
            found.append((f"head {n} {kind}", '{"n": %d, "amps": [[%s%s' % (n, body, ending)))
    assert len(found) == 58, len(found)
    return [(label, text.rstrip("\n")) for label, text in found]


class Listing:
    """Outcome lines, one per call, with the temporary directory masked."""

    def __init__(self, root: str, verbose: bool):
        self.root, self.verbose, self.lines = root, verbose, []

    def add(self, label: str, *parts) -> None:
        fields = []
        for part in parts:  # an exit code as it is, any text or bytes by digest
            if isinstance(part, str):
                part = part.replace(self.root, "<dir>").encode("utf-8")
            fields.append(str(part) if isinstance(part, int) else
                          hashlib.sha256(part).hexdigest()[:16])
        line = f"{label}\t" + "\t".join(fields)
        self.lines.append(line)
        if self.verbose:
            print(line)

    def digest(self) -> str:
        return hashlib.sha256("\n".join(self.lines).encode("utf-8")).hexdigest()


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = svmem_main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def piped(data: bytes, argv: list[str]) -> tuple[int, str, str]:
    """run_cli with data on a pipe as file descriptor 0, written from a thread."""
    read_end, write_end = os.pipe()
    saved = os.dup(0)

    def feed():
        with os.fdopen(write_end, "wb") as fh:
            fh.write(data)

    writer = threading.Thread(target=feed)
    try:
        os.dup2(read_end, 0)
        os.close(read_end)
        writer.start()
        return run_cli(argv)
    finally:  # closing the read end first, so a writer left blocked fails
        os.dup2(saved, 0)
        os.close(saved)
        writer.join()


def files_listing(root: str, verbose: bool) -> Listing:
    listing = Listing(root, verbose)
    rng = random.Random(19)
    files = state_files(rng)
    path = os.path.join(root, "state.json")
    for label, data in files:
        with open(path, "wb") as fh:
            fh.write(data)
        for command, operand, flags in READS:
            listing.add(f"{label} | {command} {operand} {' '.join(flags)}",
                        *run_cli([command, path, operand, *flags]))
    big = os.path.join(root, "big.json")
    with open(big, "wb"):
        pass
    os.truncate(big, statevec.MAX_STATE_FILE_BYTES + 1)  # sparse: no block is written
    for label, target in (("directory", root), ("missing", os.path.join(root, "none.json")),
                          ("over the cap", big)):
        for command, operand, flags in READS:
            argv = [command, target, operand, *flags]
            listing.add(f"{label} | {command} {operand}", *run_cli(argv))
    os.remove(big)
    for n in range(1, 17):
        for _ in range(3):
            pattern = "".join(rng.choice("ZOBzob") for _ in range(n))
            code, out, err = run_cli(["encode", pattern, "--out", path])
            with open(path, "rb") as fh:
                listing.add(f"encode {pattern} --out", code, out, err, fh.read())
            listing.add(f"encode {pattern}", *run_cli(["encode", pattern]))
    for label, data in files[47::40][:6]:
        listing.add(f"{label} | piped read", *piped(data, ["read", "/dev/stdin", "1"]))
        listing.add(f"{label} | piped cam", *piped(data, ["cam", "/dev/stdin", "needle:1"]))
    cap = statevec.MAX_STATE_FILE_BYTES
    statevec.MAX_STATE_FILE_BYTES = 3 << 20
    try:
        listing.add("/dev/zero | read", *run_cli(["read", "/dev/zero", "0"]))
        listing.add("/dev/zero | cam", *run_cli(["cam", "/dev/zero", "needle:0"]))
    finally:
        statevec.MAX_STATE_FILE_BYTES = cap
    return listing


def texts_listing(root: str, verbose: bool) -> Listing:
    listing = Listing(root, verbose)
    path = os.path.join(root, "state.json")
    for label, text in texts(random.Random(20)):
        for name, ending in (("none", ""), ("lf", "\n"), ("crlf", "\r\n"), ("cr", "\r")):
            try:
                psi = svmem.StateVector.from_json_text(text + ending)
                loaded = f"{psi.n} {psi.amps.dtype} ".encode("ascii") + psi.amps.tobytes()
            except Exception as exc:  # compared by type and message
                loaded = f"{type(exc).__name__}: {exc}"
            with open(path, "wb") as fh:
                fh.write((text + ending).encode("utf-8"))
            outcomes = [run_cli([*argv[:1], path, *argv[1:]]) for argv in (
                ["read", "1"], ["cam", "expr:a"], ["read", "0", "--shots", "7", "--seed", "11"])]
            listing.add(f"{label} {name}", loaded, *(part for o in outcomes for part in o))
    return listing


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--verbose", action="store_true", help="print every outcome line")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as root:
        for name, build in (("files", files_listing), ("texts", texts_listing)):
            listing = build(root, args.verbose)
            print(name, len(listing.lines), listing.digest(), flush=True)


if __name__ == "__main__":
    main()
