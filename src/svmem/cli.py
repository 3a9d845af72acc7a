"""Command-line front end.

Every subcommand prints one JSON object on stdout (oracle-emit prints
the netlist as plain text); human-readable diagnostics go to stderr
only. Exit codes: 0 ok, 1 domain or usage error, 2 resource limit.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .boolfn import BoolFn, default_var_names, from_minterms, needle
from .boolfn import parse as parse_expression
from .errors import ResourceLimitError, SimulatorError
from .grover import AUTO, sample_counts
from .grover import run as grover_run
from .memory import cam_match, capacity, ram_read, recognizes
from .oracle import emit_circuit
from .statevec import StateVector, encode

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RESOURCE = 2


class _ArgumentParser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage; this tool reserves 2 for
    # resource limits, so remap usage problems to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument(
        "--out", metavar="PATH", help="write the result to this file instead of stdout"
    )
    sampling = argparse.ArgumentParser(add_help=False)
    sampling.add_argument("--seed", type=int, metavar="U64", help="PRNG seed for sampling")
    sampling.add_argument(
        "--shots", type=int, default=0, metavar="INT",
        help="number of measurement samples to draw (default 0: exact only)",
    )
    tolerance = argparse.ArgumentParser(add_help=False)
    tolerance.add_argument(
        "--tolerance", type=float, default=1e-9, metavar="EPS",
        help="amplitude magnitude below which a bit reads 0 (default 1e-9)",
    )

    parser = _ArgumentParser(
        prog="svmem",
        description="Store bit words in state vectors; read, recognize, and search them.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser(
        "capacity", parents=[output],
        help="count the distinct words an n-qubit register can hold",
    )
    p.add_argument("n", type=int)
    p.set_defaults(handler=_cmd_capacity)

    p = sub.add_parser(
        "encode", parents=[output],
        help="build a state from per-qubit letters: Z=(1 0), O=(0 1), B=(1 1)",
    )
    p.add_argument("pattern")
    p.set_defaults(handler=_cmd_encode)

    p = sub.add_parser(
        "read", parents=[tolerance, output, sampling],
        help="read one addressed bit from a stored state",
    )
    p.add_argument("state_file")
    p.add_argument("k", type=int)
    p.set_defaults(handler=_cmd_read)

    p = sub.add_parser(
        "cam", parents=[tolerance, output, sampling],
        help="match a stored state against a Boolean function",
    )
    p.add_argument("state_file")
    p.add_argument("function", help="expr:<e> | minterms:<comma-list> | needle:<k0>")
    p.set_defaults(handler=_cmd_cam)

    p = sub.add_parser(
        "grover", parents=[output, sampling],
        help="amplify the states a function marks, then optionally sample",
    )
    p.add_argument("function", help="expr:<e> | minterms:<comma-list> | needle:<k0>")
    p.add_argument("-n", type=int, required=True, dest="n", help="qubit count")
    p.add_argument(
        "--iters", default=AUTO, metavar="AUTO|K",
        help="iteration count, or AUTO for the optimum (default)",
    )
    p.set_defaults(handler=_cmd_grover)

    p = sub.add_parser(
        "oracle-emit", parents=[output],
        help="emit the multi-controlled-X netlist realizing a function",
    )
    p.add_argument("function", help="expr:<e> | minterms:<comma-list> | needle:<k0>")
    p.add_argument("-n", type=int, required=True, dest="n", help="input count")
    p.set_defaults(handler=_cmd_oracle_emit)

    return parser


def _parse_function_spec(spec: str, n: int) -> BoolFn:
    kind, sep, body = spec.partition(":")
    if not sep:
        raise ValueError(
            "function spec must look like expr:<e>, minterms:<comma-list>, or needle:<k0>"
        )
    if kind == "expr":
        return parse_expression(body, default_var_names(n))
    if kind == "minterms":
        indices = [int(tok) for tok in body.split(",") if tok.strip() != ""]
        return from_minterms(indices, n)
    if kind == "needle":
        return needle(int(body), n)
    raise ValueError(f"unknown function spec kind {kind!r}")


def _load_state(path: str) -> StateVector:
    with open(path) as fh:
        data = json.load(fh)
    return StateVector.from_json_dict(data)


def _with_samples(payload: dict, probability: float, args) -> dict:
    if args.shots:
        counts = sample_counts(np.array([1.0 - probability, probability]), args.shots, args.seed)
        payload["shots"] = args.shots
        payload["samples"] = {str(bit): count for bit, count in counts.items()}
    return payload


def _cmd_capacity(args) -> dict:
    return capacity(args.n).to_json_dict()


def _cmd_encode(args) -> dict:
    return encode(args.pattern).to_json_dict()


def _cmd_read(args) -> dict:
    psi = _load_state(args.state_file)
    bit, probability = ram_read(psi, args.k, args.tolerance)
    return _with_samples({"bit": bit, "probability": probability}, probability, args)


def _cmd_cam(args) -> dict:
    psi = _load_state(args.state_file)
    f = _parse_function_spec(args.function, psi.n)
    probability = cam_match(psi, f)
    payload = {"probability": probability, "recognizes": recognizes(f, psi, args.tolerance)}
    return _with_samples(payload, probability, args)


def _cmd_grover(args) -> dict:
    f = _parse_function_spec(args.function, args.n)
    iters: int | str = AUTO if args.iters.lower() == AUTO else int(args.iters)
    report = grover_run(f, iterations=iters, seed=args.seed, shots=args.shots)
    return report.to_json_dict()


def _cmd_oracle_emit(args) -> str:
    f = _parse_function_spec(args.function, args.n)
    return emit_circuit(f)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        payload = args.handler(args)
        text = payload if isinstance(payload, str) else json.dumps(payload) + "\n"
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except ResourceLimitError as exc:
        return _fail(str(exc), EXIT_RESOURCE)
    except (SimulatorError, ValueError, OSError) as exc:
        return _fail(str(exc), EXIT_USAGE)
    return EXIT_OK


def _fail(message: str, code: int) -> int:
    print(f"svmem: error: {message}", file=sys.stderr)
    print(json.dumps({"status": "error", "error_message": message}))
    return code


if __name__ == "__main__":
    sys.exit(main())
