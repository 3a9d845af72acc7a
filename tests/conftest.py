"""Shared fixtures for the test suite."""

import io
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout

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
