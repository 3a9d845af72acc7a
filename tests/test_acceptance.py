"""Acceptance checks, one per shipped guarantee.

Each test prints a [PASS]/[FAIL] line (visible with pytest -s or in the
captured output of a failing run) and enforces its runtime budget.
"""

import json
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np

from svmem.boolfn import BoolFn, from_minterms, needle, parse
from svmem.grover import optimal_iterations, run
from svmem.memory import capacity, enumerate_patterns, ram_read, recognizes
from svmem.oracle import apply_marking, emit_circuit, replay_circuit
from svmem.statevec import Factor, StateVector, encode, support


@contextmanager
def _criterion(name, budget_seconds):
    start = time.perf_counter()
    ok = False
    try:
        yield
        ok = True
    finally:
        elapsed = time.perf_counter() - start
        print(f"[{'PASS' if ok else 'FAIL'}] {name} ({elapsed:.2f}s)")
    assert elapsed < budget_seconds, f"{name} took {elapsed:.2f}s, budget {budget_seconds}s"


def test_worked_example_reproduction(tmp_path, run_cli):
    with _criterion("three-qubit encode and CAM recognition", budget_seconds=1.0):
        code, out, _ = run_cli(["encode", "ZZB"])
        assert code == 0
        data = json.loads(out)
        assert data["amps"] == [[1.0, 0.0]] * 2 + [[0.0, 0.0]] * 6

        state_path = tmp_path / "word.json"
        state_path.write_text(out)
        code, out, _ = run_cli(["cam", str(state_path), "expr:a'b'"])
        assert code == 0
        result = json.loads(out)
        assert abs(result["probability"] - 1.0) <= 1e-12
        assert result["recognizes"] is True

        f = parse("a'b'", ["a", "b", "c"])
        hits = [p for p in enumerate_patterns(3) if recognizes(f, encode(p))]
        assert hits == [(Factor.ZERO, Factor.ZERO, Factor.BOTH)]


def test_capacity_identity():
    with _criterion("capacity identity and bounds", budget_seconds=5.0):
        for n in range(41):
            assert capacity(n).total == 3**n
        for n in range(1, 9):
            distinct = {
                encode(p).amps.real.astype(np.uint8).tobytes()
                for p in enumerate_patterns(n)
            }
            assert capacity(n).total == len(distinct)
        for n in range(2, 11):
            total = capacity(n).total
            assert (1 << n) < total < (1 << (1 << n))


def test_ram_roundtrip_exhaustive():
    with _criterion("RAM roundtrip over all words up to n=6", budget_seconds=10.0):
        checks = 0
        for n in range(1, 7):
            for p in enumerate_patterns(n):
                psi = encode(p)
                stored = support(psi)
                for k in range(1 << n):
                    bit, _ = ram_read(psi, k)
                    assert bit == (1 if k in stored else 0)
                    checks += 1
        assert checks == sum(3**n * 2**n for n in range(1, 7))


def test_grover_exactness():
    with _criterion("Grover closed-form agreement", budget_seconds=60.0):
        exact = run(needle(2, 2))
        assert exact.iterations == 1
        assert abs(exact.simulated_success - 1.0) <= 1e-12

        rng = np.random.default_rng(2026)
        for n in range(1, 13):
            size = 1 << n
            for m in sorted({1, 2, 4, size // 4} & set(range(1, size + 1))):
                indices = rng.choice(size, size=m, replace=False).tolist()
                f = from_minterms(indices, n)
                for k in range(2 * optimal_iterations(size, m) + 1):
                    report = run(f, iterations=k)
                    gap = abs(report.simulated_success - report.predicted_success)
                    assert gap <= 1e-9, (n, m, k, gap)


def test_oracle_soundness():
    with _criterion("oracle permutations, kickback, and netlist replay", budget_seconds=60.0):
        rng = np.random.default_rng(77)

        # marking oracles are self-inverse permutations (exhaustive basis check)
        for n in range(1, 7):
            fns = [needle(0, n), from_minterms(set(), n), from_minterms(range(1 << n), n)]
            fns += [BoolFn(n, rng.integers(0, 2, size=1 << n)) for _ in range(5)]
            dim = 1 << (n + 1)
            for f in fns:
                image = set()
                for j in range(dim):
                    amps = np.zeros(dim, dtype=complex)
                    amps[j] = 1.0
                    once = apply_marking(f, StateVector(n + 1, amps))
                    hits = np.flatnonzero(once.amps)
                    assert len(hits) == 1 and once.amps[hits[0]] == 1.0
                    image.add(int(hits[0]))
                    np.testing.assert_array_equal(
                        apply_marking(f, once).amps, amps
                    )
                assert image == set(range(dim))

        # phase/marking equivalence through a (1 -1)/sqrt(2) auxiliary
        from svmem.oracle import apply_phase
        from svmem.statevec import kron

        minus = StateVector(1, np.array([1.0, -1.0]) / np.sqrt(2.0))
        for n in range(1, 6):
            for _ in range(5):
                f = BoolFn(n, rng.integers(0, 2, size=1 << n))
                psi = StateVector(
                    n, rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
                )
                lhs = apply_marking(f, kron(psi, minus))
                rhs = kron(apply_phase(f, psi), minus)
                np.testing.assert_allclose(lhs.amps, rhs.amps, rtol=0, atol=1e-12)

        # replayed netlists reproduce the marking action (>= 100 random cases)
        cases = 0
        while cases < 100:
            n = int(rng.integers(1, 6))
            f = BoolFn(n, rng.integers(0, 2, size=1 << n))
            psi = StateVector(
                n + 1,
                rng.normal(size=1 << (n + 1)) + 1j * rng.normal(size=1 << (n + 1)),
            )
            np.testing.assert_array_equal(
                replay_circuit(emit_circuit(f), psi).amps,
                apply_marking(f, psi).amps,
            )
            cases += 1


def test_cli_determinism():
    with _criterion("seeded CLI output is byte-identical", budget_seconds=30.0):
        argv = [
            sys.executable, "-m", "svmem",
            "grover", "needle:5", "-n", "6", "--seed", "42", "--shots", "1000",
        ]
        first = subprocess.run(argv, capture_output=True, check=True)
        second = subprocess.run(argv, capture_output=True, check=True)
        assert first.stdout == second.stdout
        assert first.stdout  # non-empty JSON
        json.loads(first.stdout)
