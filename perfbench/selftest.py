#!/usr/bin/env python3
"""Self-test of the benchmark harness at tiny sizes (n <= 6, a few ops per workload).

    python3 perfbench/selftest.py

Run from the repository root. It shows that
  1. every op of a tiny round passes its checks, for two seeds, and the two
     seeds give different inputs;
  2. every correctness check in workloads.py fires on a deliberately
     corrupted output;
  3. tracing leaves outputs byte-identical, records cross-module calls as
     child spans, and self times plus the harness's own time account for
     the traced op time;
  4. run.py exits non-zero, printing no result, without the svmem sources.
Exits 0 when all of it holds.
"""

from __future__ import annotations

import contextlib
import copy
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path
from unittest.mock import patch as mock_patch

import run

run.import_svmem()

import numpy as np  # noqa: E402

import svmem  # noqa: E402
import workloads  # noqa: E402
from spans import NAME, PARENT, Tracer  # noqa: E402
from workloads import Mismatch  # noqa: E402

TMP = run.TMP_DIR / "selftest"


def tiny_round(wl, seed):
    return wl.round(run._rng(seed, 1), tiny=True)


def describe(ops):
    """The inputs of a round, without the per-round file paths."""
    return repr([
        (op.kind, op.n, {k: np.asarray(v).tolist() for k, v in op.args.items() if k != "path"})
        for op in ops
    ])


def check_seeds(name):
    wl = workloads.make(name, str(TMP / name), 1)
    try:
        rounds = [tiny_round(wl, seed) for seed in (1, 2)]
        for ops in rounds:
            assert all(op.n <= 6 or op.kind in ("encode_overcap", "capacity") for op in ops), name
            assert all(op.n <= 6 for op in ops if op.kind == "capacity"), name
            for op in ops:
                record = run.run_op(wl, op)
                assert record.failure is None or record.known, f"{name} {op.kind}: {record.failure}"
        assert describe(rounds[0]) != describe(rounds[1]), f"{name}: seeds 1 and 2 gave the same inputs"
    finally:
        wl.close()
    return len(rounds[0])


def _set_json(out, **changes):
    payload = json.loads(out.stdout)
    payload.update(changes)
    out.stdout = json.dumps(payload) + "\n"


def _edit_written(out, edit):
    data = json.loads(out.written)
    edit(data)
    out.written = json.dumps(data)


def _first_member_zeroed(data):
    k = next(i for i, (re_, _) in enumerate(data["amps"]) if re_ != 0)
    data["amps"][k] = [0.0, 0.0]


def _complement(f):
    return svmem.boolfn.BoolFn(f.n, f.table ^ 1)


def _sample_out_of_range(r):
    k = next(iter(r.samples))
    r.samples[1 << r.n] = r.samples.pop(k)


def _swap_both(out):
    for amps in (out.replayed, out.marked):
        amps[[0, 1]] = amps[[1, 0]]
        amps[0] += 1


def _wrong_phase(f, psi):
    return svmem.statevec.StateVector(psi.n, 2 * psi.amps)


def _cli_ok(op):
    return not op.reject and op.kind != "hold_read"


# (check expected to fire, which ops it applies to, corruption,
#  (owner, attribute, broken replacement) for a library call, or None)
CORRUPTIONS = {
    "grover_search": [
        ("grover.marked", lambda op: True, lambda o: setattr(o.report, "marked", o.report.marked + 1), None),
        ("grover.iterations", lambda op: True, lambda o: setattr(o.report, "iterations", o.report.iterations + 1), None),
        ("grover.closed_form", lambda op: True,
         lambda o: setattr(o.report, "simulated_success", o.report.simulated_success + 1e-6), None),
        ("grover.final_state", lambda op: True,
         lambda o: o.report.final_state.amps.__setitem__(0, o.report.final_state.amps[0] * 3 + 1), None),
        ("grover.shots", lambda op: True,
         lambda o: o.report.samples.__setitem__(next(iter(o.report.samples)), 10**6), None),
        ("grover.sample_range", lambda op: True, lambda o: _sample_out_of_range(o.report), None),
    ],
    "cli_memory": [
        ("cli.exit", _cli_ok, lambda o: setattr(o, "code", 1), None),
        ("cli.read_bit", lambda op: op.kind == "read", lambda o: _set_json(o, bit=1 - json.loads(o.stdout)["bit"]), None),
        ("cli.probability", lambda op: op.kind.startswith("cam_") and not op.reject,
         lambda o: _set_json(o, probability=json.loads(o.stdout)["probability"] + 0.01), None),
        ("cli.recognizes", lambda op: op.kind.startswith("cam_") and not op.reject,
         lambda o: _set_json(o, recognizes=not json.loads(o.stdout)["recognizes"]), None),
        ("cli.samples", lambda op: "shots" in op.args,
         lambda o: _set_json(o, samples={"0": 1, "1": 1}), None),
        ("cli.encode_stdout", lambda op: op.kind == "encode", lambda o: setattr(o, "stdout", "{}\n"), None),
        ("cli.encode_n", lambda op: op.kind == "encode",
         lambda o: _edit_written(o, lambda d: d.__setitem__("n", d["n"] + 1)), None),
        ("cli.encode_shape", lambda op: op.kind == "encode",
         lambda o: _edit_written(o, lambda d: d.__setitem__("amps", d["amps"][:-1])), None),
        ("cli.encode_support", lambda op: op.kind == "encode", lambda o: _edit_written(o, _first_member_zeroed), None),
        ("cli.pattern_roundtrip", lambda op: op.kind == "encode", lambda o: None,
         (svmem.memory, "pattern_for", lambda word: None)),
        ("cli.capacity_total", lambda op: op.kind == "capacity",
         lambda o: _set_json(o, total=str(int(json.loads(o.stdout)["total"]) + 1)), None),
        ("cli.capacity_rows", lambda op: op.kind == "capacity",
         lambda o: _set_json(o, rows=json.loads(o.stdout)["rows"][:-1]), None),
        ("cli.reject_exit", lambda op: op.reject and op.kind != "read_bigint", lambda o: setattr(o, "code", 0), None),
        ("cli.reject_json", lambda op: op.reject and op.kind != "read_bigint",
         lambda o: setattr(o, "stdout", '{"status": "ok"}\n'), None),
        ("cli.reject_stderr", lambda op: op.reject and op.kind != "read_bigint", lambda o: setattr(o, "stderr", ""), None),
        ("cli.reject_file", lambda op: op.kind == "encode_overcap",
         lambda o: Path(o.path).write_text("{}"), None),
        ("memory.ram_read_bit", lambda op: op.kind == "hold_read",
         lambda o: o.reads.__setitem__(0, (1 - o.reads[0][0], o.reads[0][1])), None),
        ("memory.ram_read_probability", lambda op: op.kind == "hold_read",
         lambda o: o.reads.__setitem__(0, (o.reads[0][0], o.reads[0][1] + 0.5)), None),
    ],
    "oracle_netlist": [
        ("oracle.netlist_lines", lambda op: True,
         lambda o: setattr(o, "netlist", "".join(o.netlist.splitlines(True)[:-1])), None),
        ("oracle.replay_equals_marking", lambda op: True,
         lambda o: o.replayed.__setitem__(0, o.replayed[0] + 1), None),
        ("oracle.marking_reference", lambda op: True, _swap_both, None),
        ("oracle.kickback", lambda op: True, lambda o: setattr(o, "f", _complement(o.f)), None),
        ("oracle.phase_reference", lambda op: True, lambda o: None, (svmem.oracle, "apply_phase", _wrong_phase)),
    ],
}


def check_corruptions(name):
    wl = workloads.make(name, str(TMP / name), 3)
    fired = set()
    try:
        ops = tiny_round(wl, 3)
        outs = []
        for op in ops:
            try:
                outs.append(wl.collect(op, wl.run(op)))
            except Exception as exc:  # only the known defect may raise
                assert wl.known_defect(op, exc), f"{name} {op.kind}: {exc!r}"
                outs.append(None)
        for check, applies, corrupt, patch in CORRUPTIONS[name]:
            targets = [(op, out) for op, out in zip(ops, outs) if out is not None and applies(op)]
            assert targets, f"{name}: no op to corrupt for {check}"
            for op, out in targets:
                bad = copy.deepcopy(out)
                if op.kind == "encode_overcap":
                    bad.path = op.args["path"]
                corrupt(bad)
                try:
                    with mock_patch.object(*patch) if patch else contextlib.nullcontext():
                        wl.check(op, bad)
                except Mismatch as m:
                    assert m.check == check, f"{name} {op.kind}: {check} corrupted, {m.check} fired"
                    fired.add(check)
                else:
                    raise AssertionError(f"{name} {op.kind}: check {check} missed a corrupted output")
                finally:
                    if op.kind == "encode_overcap":
                        Path(op.args["path"]).unlink(missing_ok=True)
    finally:
        wl.close()
    return fired


def all_checks():
    source = (Path(__file__).parent / "workloads.py").read_text()
    return set(re.findall(r'"((?:grover|cli|memory|oracle)\.[a-z_]+)"', source))


def check_tracing(name):
    wl = workloads.make(name, str(TMP / name), 4)
    tracer = Tracer(svmem)
    try:
        rounds = [tiny_round(wl, 4), tiny_round(wl, 5)]
        plain, traced, mismatches = run.measure(wl, iter(rounds), 0, tracer, min_ops=0)
    finally:
        wl.close()
    assert mismatches == 0, f"{name}: tracing changed {mismatches} outputs"
    assert all(r.failure is None or r.known for rnd in plain + traced for r in rnd), name
    values = run.per_layer(tracer, traced, plain)
    assert abs(values["trace.accounted_share"] - 1) < 1e-9, values["trace.accounted_share"]
    edges = {(tracer.spans[s[PARENT]][NAME], s[NAME]) for s in tracer.spans if s[PARENT] >= 0}
    return edges


def check_bare_directory():
    bare = TMP / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(Path(__file__).parent, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grover_search", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170,
    )
    shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0, "run.py succeeded without the svmem sources"
    assert '"correct"' not in proc.stdout, "run.py printed a result without the svmem sources"


def main():
    try:
        for name in workloads.WORKLOADS:
            print(f"{name}: {check_seeds(name)} ops per tiny round pass on seeds 1 and 2, inputs differ")
        fired = set()
        for name in workloads.WORKLOADS:
            fired |= check_corruptions(name)
        missing = all_checks() - fired
        assert not missing, f"checks never shown to fire: {sorted(missing)}"
        print(f"all {len(fired)} correctness checks fire on corrupted outputs")
        edges = set()
        for name in workloads.WORKLOADS:
            edges |= check_tracing(name)
        for edge in (("grover.run", "oracle.apply_phase"), ("cli.main", "statevec.encode"),
                     ("cli.main", "grover.sample_counts"), ("cli.main", "boolfn.parse"),
                     ("memory.ram_read", "statevec.norm_squared"), ("cli.main", "statevec.from_json_dict")):
            assert edge in edges, f"no {edge[1]} span under {edge[0]}"
        print(f"tracing: outputs unchanged, {len(edges)} parent-child span pairs, self times add up")
        check_bare_directory()
        print("run.py refuses to run without the svmem sources")
    finally:
        shutil.rmtree(TMP, ignore_errors=True)
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
