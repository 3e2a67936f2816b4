#!/usr/bin/env python3
"""Seeded, closed-loop benchmark of whdetect's public API.

One process, one thread, one client: each operation starts when the
previous one returns.  Every output is checked against an oracle that does
not call the function under test.

    python3 perfbench/run.py                              # all workloads, plain and traced
    python3 perfbench/run.py --workload algebra           # one workload, plain and traced
    python3 perfbench/run.py --workload algebra --trace 0 --seed 3 --seconds 50

With ``--trace 0`` or ``--trace 1`` a single run prints its metrics by name
and unit, then one JSON line ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics of BENCHMARK.json, or with tracing
its per-layer metrics.  See README.md for how each metric is computed.
"""

from __future__ import annotations

import argparse
import ctypes
import ctypes.util
import functools
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MIN_PASSES = 3  # every input is timed at least this often in a plain run
TRACE_MIN_PASSES = 2  # plain and traced passes each, in a traced run
SETUP_PROBES = 6  # extra fresh processes that time set-up
TAIL_BEYOND = 10  # samples required beyond the tail percentile


def spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def import_whdetect():
    """Import whdetect from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "whdetect" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no whdetect sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import whdetect

    if Path(whdetect.__file__).resolve().parent != SRC / "whdetect":
        raise SystemExit(f"perfbench: imported whdetect from {whdetect.__file__}")
    return whdetect


def setup(workload: str, seed: int):
    """Import whdetect and build the seeded inputs; returns the time it took."""
    t0 = perf_counter()
    wd = import_whdetect()
    ops, digest = workloads.build(workload, wd, seed)
    return perf_counter() - t0, wd, ops, digest


@dataclass
class Measurement:
    times: list[list[float]]  # every repeat of each input, seconds
    op_ids: list[list[int]]  # operation id of each of those repeats
    passes: int = 0
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def typical(self) -> tuple[list[float], list[int]]:
        """Each input's median repeat (the lower middle one of an even count):
        its latency and its operation id."""
        latencies, ids = [], []
        for times, op_ids in zip(self.times, self.op_ids):
            j = sorted(range(len(times)), key=times.__getitem__)[(len(times) - 1) // 2]
            latencies.append(times[j])
            ids.append(op_ids[j])
        return latencies, ids


def measure(ops, checks, seconds: float, min_rounds: int, tracer=None):
    """Run rounds of whole passes over the inputs until ``seconds`` have elapsed.

    Without a tracer a round is one plain pass.  With one, a round is a
    plain and a traced pass, in alternating order, so that drift of the
    host between passes falls on both sides alike.  A round is started only
    while it would end less than half a round past ``seconds``; at least
    ``min_rounds`` rounds run.  Returns the plain and the traced
    Measurement (None without a tracer).
    """
    plain = Measurement([[] for _ in ops], [[] for _ in ops])
    traced = Measurement([[] for _ in ops], [[] for _ in ops]) if tracer else None
    start = perf_counter()
    rounds = 0
    while True:
        if tracer is None:
            _pass(plain, ops, checks, None)
        else:
            sides = [(plain, None), (traced, tracer)]
            for m, tr in sides if rounds % 2 == 0 else reversed(sides):
                _pass(m, ops, checks, tr)
        rounds += 1
        elapsed = perf_counter() - start
        if rounds >= min_rounds and elapsed * (1 + 0.5 / rounds) >= seconds:
            return plain, traced


@functools.cache
def _malloc_trim():
    """glibc's ``malloc_trim``, or None where the C library has none."""
    try:
        fn = ctypes.CDLL(ctypes.util.find_library("c")).malloc_trim
    except (OSError, AttributeError):
        return None
    fn.argtypes = [ctypes.c_size_t]
    fn.restype = ctypes.c_int
    return fn


def _pass(m: Measurement, ops, checks, tracer) -> None:
    """One timed pass over every input, traced when a tracer is given.

    A full collection and ``malloc_trim`` run, untimed, before the pass;
    the garbage collector stays on while operations run, so its pauses are
    part of their latency.
    """
    k = len(ops)
    gc.collect()
    trim = _malloc_trim()
    if trim:
        trim(0)  # hand freed pages back, so one pass's garbage does not fragment the next
    if tracer:
        tracer.install()
    try:
        for i, op in enumerate(ops):
            op_id = m.passes * k + i
            span = tracer.begin_op(op_id) if tracer else None
            t0 = perf_counter()
            try:
                out, err = op.run(), None
            except Exception as exc:  # an unexpected exception fails this operation
                out, err = None, f"{type(exc).__name__}: {exc}"
            dt = perf_counter() - t0
            if tracer:
                tracer.close(span)
            err = err or checks[i](out)
            del out
            m.times[i].append(dt)
            m.op_ids[i].append(op_id)
            m.attempted += 1
            if err:
                m.failed += 1
                if len(m.errors) < 5:
                    m.errors.append(f"input {i} ({op.kind}): {err}")
    finally:
        if tracer:
            tracer.uninstall()
    m.passes += 1


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolated q-th percentile."""
    v = sorted(values)
    pos = q / 100 * (len(v) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def tail_percentile(n: int) -> float:
    """Highest percentile (to 0.1) with at least TAIL_BEYOND of n samples beyond it."""
    q = math.floor(1000 * (1 - TAIL_BEYOND / n)) / 10
    if q <= 50:
        raise SystemExit(f"perfbench: {n} inputs leave no tail percentile above p50")
    return q


def timing_metrics(latencies: list[float], tail_q: float) -> dict[str, float]:
    """Throughput and latency from one latency per input."""
    return {
        "throughput_ops_s": len(latencies) / sum(latencies),
        "latency_p50_ms": quantile(latencies, 50) * 1e3,
        "latency_tail_ms": quantile(latencies, tail_q) * 1e3,
    }


def setup_probe_times(workload: str, seed: int) -> list[float]:
    """Set-up time of fresh processes, each importing whdetect anew."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: set-up probe failed\n{proc.stderr}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def emit(info: dict, metrics: dict[str, float], units: dict[str, str], m_list) -> None:
    """Print every metric by name with its unit, then the result line."""
    attempted = sum(m.attempted for m in m_list)
    failed = sum(m.failed for m in m_list)
    for m in m_list:
        for e in m.errors:
            print(f"FAILED {e}", file=sys.stderr)
    print(f"attempted = {attempted}  failed = {failed}  "
          f"failed_frac = {failed / attempted:.6g} ratio")
    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    print("info " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))


def single_run(workload: str, seed: int, seconds: float, trace: bool) -> None:
    bench = spec()
    setup_s, wd, ops, digest = setup(workload, seed)
    checks = [op.make_check() for op in ops]
    k = len(ops)
    tail_q = tail_percentile(k)
    info = {"workload": workload, "seed": seed, "inputs": k, "input_digest": digest,
            "tail_percentile": tail_q}
    print(f"workload {workload}  seed {seed}  inputs {k}  input_digest {digest}  "
          f"tail = p{tail_q:g} of {k} per-input median latencies")

    if not trace:
        m = measure(ops, checks, seconds, MIN_PASSES)[0]
        metrics = timing_metrics(m.typical()[0], tail_q)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        probes = setup_probe_times(workload, seed)
        metrics["setup_s"] = statistics.median([setup_s] + probes)
        print(f"passes {m.passes}  setup samples "
              + " ".join(f"{t:.4f}" for t in [setup_s] + probes))
        info.update(passes=m.passes)
        units = {e["name"]: e["unit"] for e in bench["end_to_end"]}
        emit(info, metrics, units, [m])
        return

    tracer = tracing.Tracer()
    plain, traced = measure(ops, checks, seconds, TRACE_MIN_PASSES, tracer)
    traced_latencies, chosen = traced.typical()
    metrics = tracing.layer_metrics(tracer, chosen)
    metrics["trace.traced_throughput_ops_s"] = k / sum(traced_latencies)
    metrics["trace.overhead_ratio"] = sum(traced_latencies) / sum(plain.typical()[0])
    by_kind = tracing.enumerations_by_kind(tracer, chosen, lambda op: ops[op % k].kind)
    busy, own, kids = tracing.children_cover(tracer, "pipeline.analyze", chosen)
    print(f"passes {plain.passes} plain + {traced.passes} traced; spans {len(tracer.names)}")
    print("enumerate_cosets per input by kind: "
          + ", ".join(f"{kind} {n:g}" for kind, n in by_kind.items()))
    print(f"pipeline.analyze busy {busy:.6f} s = self {own:.6f} s + children "
          f"{kids:.6f} s (difference {busy - own - kids:.3g} s)")
    OUT.mkdir(exist_ok=True)
    spans_file = OUT / f"spans-{workload}-seed{seed}.jsonl"
    tracer.dump(spans_file)
    print(f"spans written to {spans_file.relative_to(ROOT)}")
    info.update(passes=traced.passes, enumerations_by_kind=by_kind)
    units = {e["name"]: e["unit"] for e in bench["per_layer"]}
    emit(info, metrics, units, [plain, traced])


def orchestrate(names: list[str], seed: int, seconds: float, modes: list[int], out) -> int:
    """Run each workload in its own process, plain and/or traced."""
    bench = spec()
    why = {w["name"]: w["why"] for w in bench["workloads"]}
    report = {"seed": seed, "seconds": seconds, "environment": environment(), "workloads": {}}
    status = 0
    for name in names:
        entry = report["workloads"].setdefault(name, {"why": why[name]})
        for trace in modes:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
                   str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            print(f"== {name} ({'traced' if trace else 'plain'})", flush=True)
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode != 0 or not lines:
                status = 1
                continue
            result = json.loads(lines[-1])
            info = json.loads(next(l for l in lines if l.startswith("info "))[5:])
            status |= 0 if result["correct"] else 1
            entry.update(
                inputs=info["inputs"], input_digest=info["input_digest"],
                tail_percentile=info["tail_percentile"],
            )
            key = "per_layer" if trace else "end_to_end"
            entry[key] = {n: v["value"] for n, v in result["metrics"].items()}
            entry[f"{key}_run"] = {
                "attempted": result["attempted"], "failed": result["failed"],
                "failed_frac": result["failed"] / result["attempted"],
                "passes": info["passes"],
            }
            if trace:
                entry["enumerations_by_kind"] = info["enumerations_by_kind"]
    if out:
        with open(out, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return status


def environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=["all", *workloads.WORKLOADS])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec()["run_seconds"],
                    help="how long a run measures (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", default="both", choices=["0", "1", "both"])
    ap.add_argument("--out", help="with several runs: write every metric here as JSON")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.setup_only:
        setup_s = setup(args.workload, args.seed)[0]
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if args.workload != "all" and args.trace != "both":
        single_run(args.workload, args.seed, args.seconds, args.trace == "1")
        return 0
    import_whdetect()  # fail before starting any child when the sources are missing
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    modes = [0, 1] if args.trace == "both" else [int(args.trace)]
    return orchestrate(names, args.seed, args.seconds, modes, args.out)


if __name__ == "__main__":
    sys.exit(main())
