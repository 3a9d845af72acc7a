#!/usr/bin/env python3
"""A sha256 listing of what svmem's Grover search gives on a fixed set of functions.

Run from the repository root, against the svmem on PYTHONPATH:

    PYTHONPATH=src python3 tools/grover_listing.py

It prints one line, `grover <runs> <sha256>`. The digest is taken over
each run's `json.dumps(report.to_json_dict())` and then its
`final_state.amps.tobytes()`, run after run, so two checkouts whose lines
match report and amplify alike, bit for bit, on these inputs.

The 256 runs cover n = 1..14 inputs and M in {1, 2, 3, 7, N // 3} marked
states, keeping those in 1..N (N = 2^n). The minterms are drawn with
`numpy.random.default_rng([n, M]).choice(N, M, replace=False)`. Each
function runs under AUTO with seed 7 and 100 shots, and for k = 0, 1 and
5 iterations with no seed or shots. Only svmem's public entry points run,
so a refactor of private names never moves the listing.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

import svmem


def runs():
    """The report of every run, in a fixed order."""
    for n in range(1, 15):
        size = 1 << n
        for marked in sorted({1, 2, 3, 7, size // 3} & set(range(1, size + 1))):
            minterms = np.random.default_rng([n, marked]).choice(size, marked, replace=False)
            f = svmem.from_minterms(minterms.tolist(), n)
            yield svmem.run(f, seed=7, shots=100)
            for k in (0, 1, 5):
                yield svmem.run(f, iterations=k)


def main() -> None:
    count, digest = 0, hashlib.sha256()
    for report in runs():
        digest.update(json.dumps(report.to_json_dict()).encode("utf-8"))
        digest.update(report.final_state.amps.tobytes())
        count += 1
    print("grover", count, digest.hexdigest())


if __name__ == "__main__":
    main()
