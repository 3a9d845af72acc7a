#!/usr/bin/env python3
"""Run one svmem benchmark workload, check every output, print its metrics.

    python3 perfbench/run.py --workload grover_search --seed 1 --seconds 35 --trace 0

Run from the repository root. svmem is imported from ./src only; without
./src/svmem the run exits non-zero and prints no result. One client runs
the workload's ops in a closed loop (each op starts when the previous one
has returned and been checked) for at least --seconds and at least MIN_OPS
ops, in whole rounds. With --trace 0 the result holds the end-to-end
metrics; with --trace 1 every round runs twice on the same inputs, once
traced and once not, and the result holds the per-layer metrics. The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
Details and spans go to .perfbench_out/; state files live in
.perfbench_tmp/ while the run lasts.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

# one thread throughout: the workloads are single-client closed loops
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402  (after the thread settings above)

from spans import LAYERS, Tracer, summarize  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
TMP_DIR = ROOT / ".perfbench_tmp"
MIN_OPS = 110  # so a p90 over the run's ops has at least ten samples beyond it
HARD_CAP_S = 120.0  # stop starting rounds after this, even short of MIN_OPS
SETUP_PROBES = 5
BYTES_PER_AMP = 16  # complex128
# amplitude bytes the phase oracle moves per call: read input, write output
PHASE_BYTES_PER_AMP = 2 * BYTES_PER_AMP


def import_svmem():
    init = ROOT / "src" / "svmem" / "__init__.py"
    if not init.is_file():
        sys.exit(f"perfbench: {init.relative_to(ROOT)} not found; run from a checkout with the svmem sources")
    sys.path.insert(0, str(init.parent.parent))
    import svmem

    if Path(svmem.__file__).resolve() != init.resolve():
        sys.exit(f"perfbench: imported svmem from {svmem.__file__}, not from {init}")
    return svmem


@dataclass
class Record:
    """One timed op and what its check found."""

    op: object
    seconds: float
    failure: str | None = None
    known: bool = False  # the failure is the documented known defect
    fingerprint: bytes = b""  # digest of the output, compared across traced and untraced passes
    counts: dict = field(default_factory=dict)


def run_op(wl, op, tracer=None, op_id=None) -> Record:
    if tracer is not None:
        tracer.op = op_id
    start = time.perf_counter()
    try:
        out, exc = wl.run(op), None
    except Exception as err:  # a traceback is a failed op, not a crashed benchmark
        out, exc = None, err
    seconds = time.perf_counter() - start
    if tracer is not None:
        tracer.op = None
    record = Record(op, seconds)
    if exc is not None:
        known = wl.known_defect(op, exc)
        record.failure = f"known defect: {known}" if known else f"{type(exc).__name__}: {exc}"
        record.known = known is not None
        record.fingerprint = hashlib.sha256(repr((type(exc).__name__, str(exc))).encode()).digest()
        return record
    try:
        out = wl.collect(op, out)
        wl.check(op, out)
        record.fingerprint = hashlib.sha256(wl.fingerprint(op, out)).digest()
        if tracer is not None:
            record.counts = wl.counts(op, out)
    except Exception as err:  # a check that cannot even read the output also fails the op
        record.failure = f"{type(err).__name__}: {err}"
    return record


def round_source(wl, seed: int):
    for i in itertools.count(1):
        yield wl.round(_rng(seed, i))


def _rng(*key):
    return np.random.default_rng(list(key))


def measure(wl, rounds, seconds: float, tracer=None, min_ops: int = MIN_OPS, between=None):
    """Whole rounds until both `seconds` and `min_ops` are reached, or the rounds run out.

    Returns (untraced rounds, traced rounds, fingerprint mismatches), each
    round a list of records. Without a tracer every round runs once,
    untraced. With one, each round runs untraced and traced on the same
    inputs, alternating which goes first. `between(elapsed)` runs after
    each round; its own time does not count towards `seconds`.
    """
    plain, traced, mismatches, done, paused = [], [], 0, 0, 0.0
    start = time.perf_counter()
    for i, ops in enumerate(rounds):
        if tracer is None:
            plain.append([run_op(wl, op) for op in ops])
        else:
            passes = {}
            for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
                if with_trace:
                    first = sum(map(len, traced))
                    tracer.install()
                    try:
                        passes[True] = [run_op(wl, op, tracer, first + j) for j, op in enumerate(ops)]
                    finally:
                        tracer.uninstall()
                else:
                    passes[False] = [run_op(wl, op) for op in ops]
            for a, b in zip(passes[False], passes[True]):
                if a.fingerprint != b.fingerprint:
                    mismatches += 1
                    b.failure = b.failure or "output changed when tracing was switched on"
            plain.append(passes[False])
            traced.append(passes[True])
        done += len(ops) * (1 if tracer is None else 2)
        elapsed = time.perf_counter() - start - paused
        if between is not None:
            mark = time.perf_counter()
            between(elapsed)
            paused += time.perf_counter() - mark
        if elapsed >= HARD_CAP_S or (elapsed >= seconds and done >= min_ops):
            break
    return plain, traced, mismatches


def ops_per_s(rounds) -> float:
    """Closed-loop throughput: ops per second of op time."""
    return sum(map(len, rounds)) / sum(r.seconds for rnd in rounds for r in rnd)


def probe_setup(args) -> float:
    """Seconds from starting a fresh process to the point where it would time its first op."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0", "--probe"]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - start
    proc.communicate()
    if proc.returncode != 0 or line.strip() != "ready":
        sys.exit(f"perfbench: set-up probe failed (exit {proc.returncode})")
    return elapsed


def end_to_end(rounds, setup_samples) -> dict:
    records = [r for rnd in rounds for r in rnd]
    ms = [r.seconds * 1e3 for r in records]
    per_round = [[r.seconds * 1e3 for r in rnd] for rnd in rounds]
    failed = sum(r.failure is not None for r in records)
    # Quantiles are taken per round and averaged. Every round is the same
    # mix, so a round's quantiles estimate the workload's; pooling all ops
    # instead lets a quantile inside a block of equal-cost ops jump between
    # the speed levels a shared host alternates between.
    return {
        "setup_s": statistics.median(setup_samples),
        "ops_per_s": ops_per_s(rounds),
        "op_p50_ms": statistics.mean(statistics.median(r) for r in per_round),
        "op_p90_ms": statistics.mean(statistics.quantiles(r, n=10)[8] for r in per_round),
        "op_p50_ms_pooled": statistics.median(ms),
        "op_p90_ms_pooled": statistics.quantiles(ms, n=10)[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_rate": 1 - failed / len(records),
        "error_rate": failed / len(records),
    }


def per_layer(tracer, traced_rounds, plain_rounds) -> dict:
    traced = [r for rnd in traced_rounds for r in rnd]
    rounds = len(traced_rounds)
    op_times = {i: r.seconds for i, r in enumerate(traced)}
    rejected = {i for i, r in enumerate(traced) if r.op.reject}
    s = summarize(tracer.spans, op_times, rejected)
    totals = defaultdict(float)
    max_drift = 0.0
    for r in traced:
        for key, value in r.counts.items():
            if key == "drift":
                max_drift = max(max_drift, value)
            else:
                totals[key] += value
    per = 1.0 / rounds
    values = {}
    for name in tracer.names:
        values[f"{name}.calls"] = s["calls"].get(name, 0) * per
        values[f"{name}.busy_s"] = s["busy"].get(name, 0.0) * per
        values[f"{name}.self_s"] = s["self"].get(name, 0.0) * per
    for layer in LAYERS:
        values[f"{layer}.self_s"] = sum(v for k, v in s["self"].items() if k.startswith(layer + ".")) * per
        values[f"{layer}.errors"] = s["errors"][layer] * per
        values[f"{layer}.rejections"] = s["rejections"][layer] * per
    values["harness.self_s"] = s["harness_self"] * per
    kernel_s = s["busy"].get("oracle.apply_phase", 0.0) + s["busy"].get("grover.diffusion", 0.0)
    values["grover.iterations"] = totals["iterations"] * per
    values["grover.amp_iters_per_s"] = totals["amp_iters"] / kernel_s if kernel_s else 0.0
    values["oracle.apply_phase.amp_bytes"] = totals["amp_iters"] * PHASE_BYTES_PER_AMP * per
    values["grover.hit_ratio"] = totals["hits"] / totals["shots"] if totals["shots"] else 0.0
    values["grover.max_drift"] = max_drift
    values["statevec.json_bytes"] = totals["json_bytes"] * per
    values["oracle.gates"] = totals["gates"] * per
    replay_s = s["busy"].get("oracle.replay_circuit", 0.0)
    values["oracle.replay_gate_us"] = replay_s / totals["gates"] * 1e6 if totals["gates"] else 0.0
    untraced_rate, traced_rate = ops_per_s(plain_rounds), ops_per_s(traced_rounds)
    values["trace.ops_per_s_untraced"] = untraced_rate
    values["trace.ops_per_s_traced"] = traced_rate
    values["trace.overhead_ops_per_s"] = untraced_rate - traced_rate
    values["trace.overhead_pct"] = 100 * (untraced_rate - traced_rate) / untraced_rate
    values["trace.spans"] = len(tracer.spans) * per
    op_total = sum(op_times.values())
    values["trace.accounted_share"] = (sum(s["self"].values()) + s["harness_self"]) / op_total
    return values


def _size_bytes(text: str) -> int:
    units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    return int(text[:-1]) * units[text[-1]] if text[-1] in units else int(text)


def machine_context(seed: int, largest_qubits: int) -> dict:
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), model)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    largest = BYTES_PER_AMP << largest_qubits
    llc = caches.get(max(caches)) if caches else None
    context = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "seed": seed,
        "largest_array_bytes": largest,
    }
    if llc:
        ratio = largest / _size_bytes(llc)
        context["largest_array_vs_llc"] = round(ratio, 4)
        context["note"] = (
            f"largest array {largest / 2**20:g} MiB is {ratio:.2f}x the {llc} last-level cache; "
            + ("it exceeds the LLC" if ratio > 1 else "it fits in the LLC")
            + (", and no op reaches 4x LLC" if ratio < 4 else ", reaching 4x LLC")
            + ". Amplitude byte counts are computed, not a DRAM bandwidth measurement."
        )
    return context


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    import_svmem()
    import workloads

    wl = workloads.make(args.workload, str(TMP_DIR / f"{args.workload}-{os.getpid()}"), args.seed)
    try:
        # input generation: the rounds that MIN_OPS needs, then lazily more
        ahead = []
        source = round_source(wl, args.seed)
        while sum(map(len, ahead)) < MIN_OPS:
            ahead.append(next(source))
        warm = [run_op(wl, op) for op in wl.round(_rng(args.seed, 0, 1), tiny=True)]
        bad = [r.failure for r in warm if r.failure and not r.known]
        if bad:
            sys.exit(f"perfbench: warm-up op failed: {bad[0]}")
        if args.probe:
            print("ready", flush=True)
            return 0

        tracer, setup_samples = None, []
        if args.trace:
            import svmem

            tracer = Tracer(svmem)

        def probe_when_due(elapsed):
            # spread the set-up probes over the run, so they see the same machine as the ops
            if len(setup_samples) < SETUP_PROBES and elapsed >= len(setup_samples) * args.seconds / SETUP_PROBES:
                setup_samples.append(probe_setup(args))

        plain, traced, mismatches = measure(wl, itertools.chain(ahead, source), args.seconds, tracer,
                                            between=None if args.trace else probe_when_due)
    finally:
        wl.close()
    while not args.trace and len(setup_samples) < SETUP_PROBES:
        setup_samples.append(probe_setup(args))

    records = [r for rnd in plain + traced for r in rnd]
    if args.trace:
        section, values = "per_layer", per_layer(tracer, traced, plain)
    else:
        section, values = "end_to_end", end_to_end(plain, setup_samples)
    failures = [r for r in records if r.failure]
    unknown = [r for r in failures if not r.known]
    # the known defect alone leaves the run correct; any other failure does not
    correct = not unknown and mismatches == 0
    if args.trace and abs(values["trace.accounted_share"] - 1) > 1e-6:
        correct = False
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared[section]}

    context = machine_context(args.seed, wl.largest_qubits())
    by_class = defaultdict(list)
    for r in records:
        by_class[f"{r.op.kind} n={r.op.n}"].append(r.seconds * 1e3)
    details = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "ops": len(records), "rounds": len(plain),
        "values": values, "context": context,
        "class_median_ms": {k: statistics.median(v) for k, v in sorted(by_class.items())},
        "failures": [f"{r.op.kind} n={r.op.n}: {r.failure}" for r in failures[:50]],
        "setup_samples_s": setup_samples,
        "round_op_ms": [[(f"{r.op.kind} n={r.op.n}", r.seconds * 1e3) for r in rnd] for rnd in plain],
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(details, indent=1) + "\n")
    if tracer is not None:
        with open(OUT_DIR / f"{args.workload}-seed{args.seed}-spans.jsonl", "w") as fh:
            for name, start, end, parent, op, error in tracer.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent,
                                     "op": op, "error": error is not None}) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"ops {len(records)}  failed {len(failures)} ({len(failures) - len(unknown)} known defect)")
    print(f"context {json.dumps(context)}")
    if not args.trace:
        print(f"  {'error_rate':<40} {values['error_rate']:.6g} (failed / attempted)")
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:.6g} {m['unit']}")
    for r in unknown[:5]:
        print(f"  FAILED {r.op.kind} n={r.op.n}: {r.failure}")
    print(json.dumps({"correct": correct, "attempted": len(records), "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
