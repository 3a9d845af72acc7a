"""The three svmem workloads: seeded op mixes, the calls that run them, and
checks against references computed without the code under test.

Every workload is a sequence of rounds. A round is a fixed mix of op
classes (same sizes, same marked counts, so the same cost) whose
parameters -- needle positions, minterm sets, patterns, addresses,
expressions -- are drawn fresh from the round's seeded generator. Because
every round costs the same, throughput does not depend on where a run
happens to stop, and the class sizes are chosen so that the median and
the 90th percentile each fall inside a block of equal-cost ops rather
than on the edge between two classes.

The harness calls svmem only through module attributes
(`svmem.grover.run`, `svmem.cli.main`, ...), looked up at call time, so
the tracer's wrappers see every call.
"""

from __future__ import annotations

import io
import json
import math
import os
import shutil
import string
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

import numpy as np

import svmem
import svmem.cli
import svmem.grover
import svmem.memory
import svmem.oracle
import svmem.statevec

LETTERS = string.ascii_lowercase


class Mismatch(Exception):
    """An op's output disagreed with its reference; `check` names the check."""

    def __init__(self, check: str, detail: str):
        super().__init__(f"{check}: {detail}")
        self.check = check


@dataclass
class Op:
    kind: str
    n: int
    args: dict
    reject: bool = False  # the documented outcome is an exit-1/2 error object


def _expect(ok: bool, check: str, detail: str) -> None:
    if not ok:
        raise Mismatch(check, detail)


# --- references ------------------------------------------------------------
#
# A cube is a (mask, value) pair over n input bits: x lies in it when
# x & mask == value. Variable j is bit n-1-j (the first variable is the
# most significant bit), the package's documented order.


def _bit(n: int, j: int) -> int:
    return 1 << (n - 1 - j)


def cube_expr(n: int, mask: int, value: int) -> str:
    """Switching-notation text of a cube, e.g. ab'd; the empty cube is 1."""
    literals = [
        LETTERS[j] + ("" if value & _bit(n, j) else "'")
        for j in range(n)
        if mask & _bit(n, j)
    ]
    return "".join(literals) or "1"


def cubes_members(n: int, cubes) -> np.ndarray:
    """Boolean membership over all 2^n inputs of the union of the cubes."""
    idx = np.arange(1 << n, dtype=np.int64)
    hit = np.zeros(1 << n, dtype=bool)
    for mask, value in cubes:
        hit |= (idx & mask) == value
    return hit


def random_cube(rng, n: int, literals: int, variables=None) -> tuple[int, int]:
    variables = rng.permutation(n)[:literals] if variables is None else variables
    mask = value = 0
    for j in variables:
        mask |= _bit(n, int(j))
        if rng.integers(2):
            value |= _bit(n, int(j))
    return mask, value


def random_pattern(rng, n: int, free: int) -> str:
    """Init pattern with `free` B letters and random Z/O elsewhere."""
    letters = np.array(list("ZO"))[rng.integers(0, 2, n)]
    letters[rng.permutation(n)[:free]] = "B"
    return "".join(letters)


def pattern_cube(pattern: str) -> tuple[int, int]:
    """The subcube a pattern stores: Z/O letters fix bits, B leaves them free."""
    n = len(pattern)
    mask = value = 0
    for j, letter in enumerate(pattern):
        if letter != "B":
            mask |= _bit(n, j)
            if letter == "O":
                value |= _bit(n, j)
    return mask, value


def closed_form(n: int, marked: int, k: int) -> float:
    """Grover success after k iterations: sin^2((2k+1)θ) with sin θ = sqrt(M/N)."""
    return math.sin((2 * k + 1) * math.asin(math.sqrt(marked / (1 << n)))) ** 2


def random_member(rng, n: int, cube) -> int:
    mask, value = cube
    return value | (int(rng.integers(0, 1 << n)) & ~mask)


# --- workloads ---------------------------------------------------------------


class Workload:
    def round(self, rng, tiny: bool = False) -> list[Op]:
        raise NotImplementedError

    def run(self, op: Op):
        raise NotImplementedError

    def collect(self, op: Op, out):
        """Untimed follow-up that gathers what the check needs (files written)."""
        return out

    def check(self, op: Op, out) -> None:
        raise NotImplementedError

    def fingerprint(self, op: Op, out) -> bytes:
        """Bytes that must not change when tracing is switched on."""
        raise NotImplementedError

    def counts(self, op: Op, out) -> dict:
        """Workload-level counters for the traced run."""
        return {}

    def known_defect(self, op: Op, exc: BaseException) -> str | None:
        return None

    def largest_qubits(self) -> int:
        raise NotImplementedError

    def close(self) -> None:
        pass


# Grover mix, per round: (count, kind, n, shape). Ascending cost:
# many-marked expressions (k of 2 or 3, dominated by table build,
# probabilities and sampling), small needles, the 7 n=14 needles that hold
# the median, sparse minterm sets, an n=16 needle (1 MiB state, inside L2),
# the 2 n=17 needles that hold the 90th percentile, and one n=18 needle
# (k=402, 4 MiB state plus temporaries, past L2) that sets the tail.
GROVER_MIX = (
    (3, "expr", 13, (3, 4)),
    (2, "needle", 12, None),
    (2, "expr", 18, (4, 5)),
    (7, "needle", 14, None),
    (1, "minterms", 16, 4),
    (1, "minterms", 17, 8),
    (1, "needle", 16, None),
    (2, "needle", 17, None),
    (1, "needle", 18, None),
)
GROVER_TINY = (
    (1, "expr", 5, (1, 2)),
    (1, "needle", 4, None),
    (1, "minterms", 6, 2),
    (1, "needle", 6, None),
)
GROVER_SHOTS = (500, 1000, 2000)


@dataclass
class GroverOp:
    report: object


class GroverSearch(Workload):
    def round(self, rng, tiny=False):
        ops = []
        for count, kind, n, shape in GROVER_TINY if tiny else GROVER_MIX:
            for _ in range(count):
                args = {
                    "seed": int(rng.integers(0, 2**32)),
                    "shots": int(rng.choice(GROVER_SHOTS)),
                }
                if kind == "needle":
                    args["k0"] = int(rng.integers(0, 1 << n))
                    marked = np.array([args["k0"]])
                elif kind == "minterms":
                    marked = np.sort(rng.choice(1 << n, shape, replace=False))
                    args["minterms"] = [int(m) for m in marked]
                else:
                    a, b = shape
                    variables = rng.permutation(n)[: a + b]
                    cubes = [
                        random_cube(rng, n, a, variables[:a]),
                        random_cube(rng, n, b, variables[a:]),
                    ]
                    args["expr"] = " + ".join(cube_expr(n, *c) for c in cubes)
                    marked = np.flatnonzero(cubes_members(n, cubes))
                args["marked"] = marked
                ops.append(Op(kind, n, args))
        rng.shuffle(ops)
        return ops

    def run(self, op):
        a = op.args
        if op.kind == "needle":
            f = svmem.boolfn.needle(a["k0"], op.n)
        elif op.kind == "minterms":
            f = svmem.boolfn.from_minterms(a["minterms"], op.n)
        else:
            f = svmem.boolfn.parse(a["expr"], svmem.boolfn.default_var_names(op.n))
        return GroverOp(svmem.grover.run(f, seed=a["seed"], shots=a["shots"]))

    def check(self, op, out):
        r = out.report
        marked = op.args["marked"]
        size, count = 1 << op.n, len(marked)
        _expect(r.marked == count, "grover.marked", f"{r.marked} != {count}")
        k_best = math.floor(math.pi / (4 * math.asin(math.sqrt(count / size))))
        _expect(r.iterations == k_best, "grover.iterations", f"{r.iterations} != {k_best}")
        drift = abs(r.simulated_success - closed_form(op.n, count, r.iterations))
        _expect(drift <= 1e-9, "grover.closed_form", f"drift {drift:.3e}")
        weights = np.abs(r.final_state.amps) ** 2
        from_state = float(weights[marked].sum() / weights.sum())
        _expect(
            abs(r.simulated_success - from_state) <= 1e-9,
            "grover.final_state", f"{r.simulated_success} vs {from_state}",
        )
        shots = op.args["shots"]
        _expect(
            sum(r.samples.values()) == shots and r.shots == shots,
            "grover.shots", f"samples sum to {sum(r.samples.values())}, want {shots}",
        )
        _expect(
            all(0 <= k < size and c > 0 for k, c in r.samples.items()),
            "grover.sample_range", "sample index out of range",
        )

    def fingerprint(self, op, out):
        r = out.report
        return json.dumps(r.to_json_dict()).encode() + r.final_state.amps.tobytes()

    def counts(self, op, out):
        r = out.report
        marked = set(op.args["marked"].tolist())
        hits = sum(c for k, c in r.samples.items() if k in marked)
        return {
            "iterations": r.iterations,
            "amp_iters": r.iterations << op.n,
            "hits": hits,
            "shots": r.shots,
            "drift": abs(r.simulated_success - closed_form(op.n, len(marked), r.iterations)),
        }

    def largest_qubits(self):
        return max(n for _, _, n, _ in GROVER_MIX)


@dataclass
class CliOut:
    code: int
    stdout: str
    stderr: str
    written: str | None = None  # text of the state file an encode wrote


@dataclass
class HoldOut:
    reads: list  # (bit, probability) per address


BAD_EXPRESSIONS = ("a+*b", "a(b", "ab)'", "a&b", "q1z", "(a+b", "a''+", "")

# Ops per round, by cost: 12 cheap ops on two n=12 files plus the over-cap
# encode and the 401-digit state file; 14 ops on two n=14 files (including
# the bad expression and the bad address), which hold the median; two
# capacity counts and two n=16 encodes; 8 reads of the two n=16 files, which
# hold the 90th percentile; and two held states at n=22 and n=24 (the cap,
# 256 MiB, the only array larger than L3) read at 16 addresses each.
CLI_FILES = ((12, 4), (14, 5), (16, 4))  # (n, reads per file); two files each
CLI_TINY_FILES = ((4, 4), (6, 5))
HOLD_SIZES = (22, 24)
HOLD_ADDRESSES = 16


class CliMemory(Workload):
    """In-process `svmem.cli.main` requests through state files, plus a
    library op that holds one state and reads many addresses."""

    def __init__(self, tmpdir: str, rng):
        self.tmpdir = tmpdir
        os.makedirs(tmpdir, exist_ok=True)
        # a one-qubit state file whose first amplitude is a 401-digit integer
        digits = "1" + "".join(str(d) for d in rng.integers(0, 10, 400))
        self.bigint_path = os.path.join(tmpdir, "bigint.json")
        with open(self.bigint_path, "w") as fh:
            fh.write('{"n": 1, "amps": [[%s, 0], [0, 0]]}\n' % digits)
        self._round = 0

    def round(self, rng, tiny=False):
        self._round += 1
        rdir = os.path.join(self.tmpdir, f"r{self._round}")
        os.makedirs(rdir, exist_ok=True)
        groups = []
        for n, reads in CLI_TINY_FILES if tiny else CLI_FILES:
            for copy_no in range(2):
                groups.append(self._file_group(rng, rdir, n, reads, copy_no))
        singles = [
            Op("encode_overcap", 25, {
                "pattern": random_pattern(rng, 25, 3),
                "path": os.path.join(rdir, "overcap.json"),
            }, reject=True),
            Op("read_bigint", 1, {"path": self.bigint_path, "k": 0}, reject=True),
        ]
        # the bad expression and the bad address read the first n=14 file,
        # so they join its group, behind its encode
        target = groups[2][0]
        groups[2] += [
            Op("cam_bad_expr", target.n, {
                "path": target.args["path"],
                "spec": "expr:" + BAD_EXPRESSIONS[int(rng.integers(len(BAD_EXPRESSIONS)))],
            }, reject=True),
            Op("read_bad_address", target.n, {
                "path": target.args["path"],
                "k": (1 << target.n) + int(rng.integers(0, 1 << target.n)),
            }, reject=True),
        ]
        for _ in range(2):
            n = int(rng.integers(2, 7)) if tiny else int(rng.integers(1000, 1201))
            singles.append(Op("capacity", n, {}))
        for n in (5, 6) if tiny else HOLD_SIZES:
            pattern = random_pattern(rng, n, int(rng.integers(2, 7)))
            cube = pattern_cube(pattern)
            addresses = [
                random_member(rng, n, cube) if i % 2 == 0 else int(rng.integers(0, 1 << n))
                for i in range(HOLD_ADDRESSES)
            ]
            singles.append(Op("hold_read", n, {"pattern": pattern, "addresses": addresses}))
        groups += [[op] for op in singles]
        rng.shuffle(groups)
        return [op for group in groups for op in group]

    def _file_group(self, rng, rdir, n, reads, copy_no):
        pattern = random_pattern(rng, n, int(rng.integers(2, 7)))
        cube = pattern_cube(pattern)
        path = os.path.join(rdir, f"s{n}_{copy_no}.json")
        ops = [Op("encode", n, {"pattern": pattern, "path": path})]
        kinds = ("read", "cam_expr_exact", "cam_expr", "cam_minterms", "cam_needle")
        for i in range(reads):
            kind = kinds[(i + copy_no) % len(kinds)]
            args = {"path": path, "pattern": pattern}
            if i % 3 == 1:
                args["shots"] = int(rng.choice((64, 256, 1024)))
                args["seed"] = int(rng.integers(0, 2**32))
            if kind == "read":
                args["k"] = random_member(rng, n, cube) if rng.integers(2) else int(rng.integers(0, 1 << n))
            elif kind == "cam_expr_exact":
                args["cubes"] = [cube]
            elif kind == "cam_expr":
                args["cubes"] = [
                    random_cube(rng, n, int(rng.integers(1, 5)))
                    for _ in range(int(rng.integers(1, 3)))
                ]
            elif kind == "cam_minterms":
                members = np.flatnonzero(cubes_members(n, [cube]))
                if len(members) <= 16 and rng.integers(2):
                    chosen = members
                else:
                    chosen = np.unique(np.concatenate([
                        rng.choice(members, min(3, len(members)), replace=False),
                        rng.integers(0, 1 << n, 4),
                    ]))
                args["minterms"] = [int(m) for m in chosen]
            else:
                args["k0"] = random_member(rng, n, cube) if rng.integers(2) else int(rng.integers(0, 1 << n))
            ops.append(Op(kind, n, args))
        return ops

    @staticmethod
    def _cli(argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = svmem.cli.main(argv)
            except SystemExit as exc:  # argparse usage failures
                code = exc.code
        return CliOut(code, out.getvalue(), err.getvalue())

    def _argv(self, op) -> list[str]:
        a = op.args
        if op.kind in ("encode", "encode_overcap"):
            return ["encode", a["pattern"], "--out", a["path"]]
        if op.kind == "capacity":
            return ["capacity", str(op.n)]
        if op.kind in ("read", "read_bad_address", "read_bigint"):
            argv = ["read", a["path"], str(a["k"])]
        else:
            argv = ["cam", a["path"], a.get("spec") or self._spec(op)]
        if "shots" in a:
            argv += ["--shots", str(a["shots"]), "--seed", str(a["seed"])]
        return argv

    @staticmethod
    def _spec(op):
        a = op.args
        if op.kind == "cam_minterms":
            return "minterms:" + ",".join(str(m) for m in a["minterms"])
        if op.kind == "cam_needle":
            return f"needle:{a['k0']}"
        return "expr:" + " + ".join(cube_expr(op.n, *c) for c in a["cubes"])

    def run(self, op):
        if op.kind == "hold_read":
            psi = svmem.statevec.encode(op.args["pattern"])
            return HoldOut([svmem.memory.ram_read(psi, k) for k in op.args["addresses"]])
        return self._cli(self._argv(op))

    def collect(self, op, out):
        if op.kind == "encode" and out.code == 0:
            with open(op.args["path"]) as fh:
                out.written = fh.read()
        return out

    def check(self, op, out):
        if op.kind == "hold_read":
            self._check_reads(op, out)
        elif op.reject:
            self._check_rejected(op, out)
        else:
            _expect(out.code == 0, "cli.exit", f"exit {out.code}: {out.stderr.strip()}")
            if op.kind == "encode":
                self._check_encode(op, out)
            elif op.kind == "capacity":
                self._check_capacity(op, out)
            else:
                self._check_readout(op, out)

    def _check_rejected(self, op, out):
        want = 2 if op.kind == "encode_overcap" else 1
        _expect(out.code == want, "cli.reject_exit", f"exit {out.code}, want {want}")
        lines = out.stdout.splitlines()
        _expect(len(lines) == 1, "cli.reject_json", f"stdout {out.stdout!r}")
        try:
            payload = json.loads(lines[0])
        except json.JSONDecodeError:
            raise Mismatch("cli.reject_json", f"stdout {out.stdout!r}") from None
        _expect(
            isinstance(payload, dict)
            and set(payload) == {"status", "error_message"}
            and payload["status"] == "error"
            and isinstance(payload["error_message"], str)
            and payload["error_message"] != "",
            "cli.reject_json", f"payload {payload!r}",
        )
        _expect(out.stderr.startswith("svmem: error:"), "cli.reject_stderr", repr(out.stderr))
        if op.kind == "encode_overcap":
            _expect(not os.path.exists(op.args["path"]), "cli.reject_file", "over-cap state written")

    def _check_encode(self, op, out):
        _expect(out.stdout == "", "cli.encode_stdout", repr(out.stdout[:80]))
        data = json.loads(out.written)
        pattern = op.args["pattern"]
        n = len(pattern)
        _expect(data.get("n") == n, "cli.encode_n", f"{data.get('n')} != {n}")
        amps = np.array(data["amps"], dtype=np.float64)
        _expect(amps.shape == (1 << n, 2), "cli.encode_shape", str(amps.shape))
        members = cubes_members(n, [pattern_cube(pattern)])
        _expect(
            bool(np.all(amps[members] == (1.0, 0.0)) and np.all(amps[~members] == 0.0)),
            "cli.encode_support", "amplitudes are not the pattern's subcube",
        )
        word = (amps[:, 0] != 0).astype(np.uint8)
        back = svmem.memory.pattern_for(word)
        _expect(
            back is not None and "".join(f.value for f in back) == pattern,
            "cli.pattern_roundtrip", f"{back} != {pattern}",
        )

    def _check_capacity(self, op, out):
        payload = json.loads(out.stdout)
        total = 3**op.n
        _expect(payload["total"] == str(total), "cli.capacity_total", "total != 3**n")
        rows = payload["rows"]
        _expect(
            len(rows) == op.n + 1 and sum(r["product"] for r in rows) == total,
            "cli.capacity_rows", f"{len(rows)} rows",
        )

    def _check_readout(self, op, out):
        payload = json.loads(out.stdout)
        n, a = op.n, op.args
        members = cubes_members(n, [pattern_cube(a["pattern"])])
        size = int(members.sum())
        if op.kind == "read":
            inside = bool(members[a["k"]])
            _expect(payload["bit"] == int(inside), "cli.read_bit", f"{payload['bit']} != {int(inside)}")
            probability = 1.0 / size if inside else 0.0
            recognized = None
        else:
            if op.kind == "cam_minterms":
                truth = np.zeros(1 << n, dtype=bool)
                truth[a["minterms"]] = True
            elif op.kind == "cam_needle":
                truth = np.zeros(1 << n, dtype=bool)
                truth[a["k0"]] = True
            else:
                truth = cubes_members(n, a["cubes"])
            probability = float((truth & members).sum()) / size
            recognized = bool(np.array_equal(truth, members))
        _expect(
            abs(payload["probability"] - probability) <= 1e-12,
            "cli.probability", f"{payload['probability']} != {probability}",
        )
        if recognized is not None:
            _expect(payload["recognizes"] is recognized, "cli.recognizes",
                    f"{payload['recognizes']} != {recognized}")
        if "shots" in a:
            samples = payload.get("samples", {})
            allowed = {"0"} if probability == 0 else {"1"} if probability == 1 else {"0", "1"}
            _expect(
                payload.get("shots") == a["shots"]
                and sum(samples.values()) == a["shots"]
                and set(samples) <= allowed,
                "cli.samples", f"{samples}",
            )

    def _check_reads(self, op, out):
        n = op.n
        members = cubes_members(n, [pattern_cube(op.args["pattern"])])
        size = int(members.sum())
        for k, (bit, probability) in zip(op.args["addresses"], out.reads, strict=True):
            inside = bool(members[k])
            _expect(bit == int(inside), "memory.ram_read_bit", f"address {k}")
            want = 1.0 / size if inside else 0.0
            _expect(abs(probability - want) <= 1e-12, "memory.ram_read_probability", f"address {k}")

    def fingerprint(self, op, out):
        if op.kind == "hold_read":
            return repr(out.reads).encode()
        return repr((out.code, out.stdout, out.stderr, out.written)).encode()

    def counts(self, op, out):
        path = op.args.get("path")
        if op.kind == "hold_read" or op.kind == "encode_overcap" or path is None:
            return {}
        # bytes of state JSON the CLI read or wrote
        return {"json_bytes": os.path.getsize(path)}

    def known_defect(self, op, exc):
        if op.kind == "read_bigint" and isinstance(exc, OverflowError):
            return "401-digit integer amplitude raises an uncaught OverflowError"
        return None

    def largest_qubits(self):
        return max(HOLD_SIZES)

    def close(self):
        shutil.rmtree(self.tmpdir, ignore_errors=True)


# Netlist mix, per round: (count, n, minterms, form). Ascending cost:
# needles and few-minterm functions; six n=12 functions with 64 minterms
# that hold the median; three mid-size functions; three n=14 functions with
# 128 minterms that hold the 90th percentile; one n=14 function with 512
# minterms. Replay costs gates x 2^(n+1); expr forms are single cubes,
# so their minterm count is exact.
ORACLE_MIX = (
    (1, 10, 1, "needle"), (1, 12, 1, "needle"), (1, 14, 1, "needle"),
    (1, 10, 4, "minterms"), (1, 12, 4, "minterms"),
    (1, 10, 8, "expr"), (1, 11, 16, "expr"),
    (3, 12, 64, "minterms"), (3, 12, 64, "expr"),
    (1, 14, 32, "minterms"), (1, 10, 256, "expr"), (1, 13, 128, "minterms"),
    (2, 14, 128, "minterms"), (1, 14, 128, "expr"),
    (1, 14, 512, "expr"),
)
ORACLE_TINY = ((1, 3, 1, "needle"), (1, 5, 6, "minterms"), (1, 6, 16, "expr"))


@dataclass
class NetlistOut:
    f: object
    netlist: str
    replayed: np.ndarray
    marked: np.ndarray


class OracleNetlist(Workload):
    def round(self, rng, tiny=False):
        ops = []
        for count, n, minterms, form in ORACLE_TINY if tiny else ORACLE_MIX:
            for _ in range(count):
                args = {"pattern": random_pattern(rng, n, int(rng.integers(1, n + 1)))}
                if form == "needle":
                    args["k0"] = int(rng.integers(0, 1 << n))
                    marked = np.array([args["k0"]])
                elif form == "minterms":
                    marked = np.sort(rng.choice(1 << n, minterms, replace=False))
                    args["minterms"] = [int(m) for m in marked]
                else:
                    cube = random_cube(rng, n, n - int(math.log2(minterms)))
                    args["expr"] = cube_expr(n, *cube)
                    marked = np.flatnonzero(cubes_members(n, [cube]))
                args["marked"] = marked
                ops.append(Op(form, n, args))
        rng.shuffle(ops)
        return ops

    def run(self, op):
        a = op.args
        if op.kind == "needle":
            f = svmem.boolfn.needle(a["k0"], op.n)
        elif op.kind == "minterms":
            f = svmem.boolfn.from_minterms(a["minterms"], op.n)
        else:
            f = svmem.boolfn.parse(a["expr"], svmem.boolfn.default_var_names(op.n))
        netlist = svmem.oracle.emit_circuit(f)
        psi = svmem.statevec.kron(svmem.statevec.encode(a["pattern"]), svmem.statevec.encode("O"))
        replayed = svmem.oracle.replay_circuit(netlist, psi)
        marked = svmem.oracle.apply_marking(f, psi)
        return NetlistOut(f, netlist, replayed.amps, marked.amps)

    def check(self, op, out):
        n, marked = op.n, op.args["marked"]
        lines = out.netlist.splitlines()
        _expect(
            len(lines) == len(marked) + 1 and lines[0] == f"qubits {n + 1}",
            "oracle.netlist_lines", f"{len(lines)} lines for {len(marked)} minterms",
        )
        _expect(np.array_equal(out.replayed, out.marked), "oracle.replay_equals_marking",
                "replayed state differs from the marking oracle")
        # reference marking: |x, q> -> |x, q xor f(x)> on psi (x) |1>
        truth = np.zeros(1 << n, dtype=bool)
        truth[marked] = True
        psi = cubes_members(n, [pattern_cube(op.args["pattern"])]).astype(np.complex128)
        aux_one = np.zeros(((1 << n), 2), dtype=np.complex128)
        aux_one[:, 1] = psi
        aux_one[truth] = aux_one[truth][:, ::-1]
        _expect(np.array_equal(out.marked, aux_one.reshape(-1)), "oracle.marking_reference",
                "marking oracle differs from the reference permutation")
        # phase kickback: marking on psi (x) |-> equals (phase oracle on psi) (x) |->
        minus = np.array([1.0, -1.0], dtype=np.complex128) / math.sqrt(2.0)
        state = svmem.statevec.StateVector(n + 1, np.kron(psi, minus))
        kicked = svmem.oracle.apply_marking(out.f, state).amps
        reference = np.kron(np.where(truth, -psi, psi), minus)
        _expect(np.array_equal(kicked, reference), "oracle.kickback",
                "marking on psi (x) |-> is not the phase oracle (x) |->")
        phased = svmem.oracle.apply_phase(out.f, svmem.statevec.StateVector(n, psi)).amps
        _expect(np.array_equal(np.kron(phased, minus), reference), "oracle.phase_reference",
                "phase oracle differs from the reference signs")

    def fingerprint(self, op, out):
        return out.netlist.encode() + out.replayed.tobytes() + out.marked.tobytes()

    def counts(self, op, out):
        return {"gates": len(op.args["marked"])}

    def largest_qubits(self):
        return max(n for _, n, _, _ in ORACLE_MIX) + 1


WORKLOADS = ("grover_search", "cli_memory", "oracle_netlist")


def make(name: str, tmpdir: str, seed: int) -> Workload:
    if name == "grover_search":
        return GroverSearch()
    if name == "cli_memory":
        return CliMemory(tmpdir, np.random.default_rng([seed, 0]))
    if name == "oracle_netlist":
        return OracleNetlist()
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
