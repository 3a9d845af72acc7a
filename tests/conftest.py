"""Shared fixtures for the test suite."""

import io
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

from svmem.cli import main as cli_main
from svmem.statevec import encode


@pytest.fixture
def zzb_state():
    """The canonical three-qubit stored word (1 1 0 0 0 0 0 0)."""
    return encode("ZZB")


@pytest.fixture
def run_cli():
    """Invoke the CLI in-process; returns (exit_code, stdout, stderr)."""

    def _run(argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli_main(argv)
            except SystemExit as exc:  # argparse usage failures
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    return _run


def traced_peak(call):
    """(call(), the peak bytes tracemalloc traced while it ran)."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# amplitudes per chunk of statevec's in-order sums
NORM_CHUNK = 8192


def weights_of(amps):
    """|a|^2 of every amplitude as re*re + im*im, each step correctly rounded."""
    return amps.real * amps.real + amps.imag * amps.imag


def chunk_sums(weights):
    """The weights added chunk by chunk in order, each chunk by numpy's sum."""
    total = 0.0
    for start in range(0, len(weights), NORM_CHUNK):
        total += float(weights[start:start + NORM_CHUNK].sum())
    return total


def readout_reference(psi, table):
    """The readout rule from one weights array: the chunk sum with weights off the table as 0, over the norm."""
    weights = weights_of(psi.amps)
    return chunk_sums(np.where(table, weights, 0.0)) / chunk_sums(weights)


def float_bits(x):
    """The eight bytes of x as a double."""
    return np.float64(x).tobytes()

