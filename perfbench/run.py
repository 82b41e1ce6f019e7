#!/usr/bin/env python3
"""Benchmark of crossrank: certificate generation, verification, lifting
and the command line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {bezout,verify,lift,cli} --seed N \
        --seconds S --trace {0,1}

The program is imported from ``src/`` of the checkout.  Set-up is timed
in fresh interpreters (import plus input generation), several times, and
the median is reported.  A run then repeats the workload's fixed list of
operations in whole rounds, one operation at a time, until another round
would pass ``--seconds``.  With ``--trace 0`` the last line of standard
output is the JSON result with the end-to-end metrics; with ``--trace 1``
the public functions are wrapped with span recorders and the result holds
the per-layer metrics for one pass of the list.  See README.md.
"""
from __future__ import annotations

import os

# one BLAS thread: the operations are small and the machine is shared
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 3
CLI_SUBCOMMANDS = ("random", "cert-upper", "cert-lower", "random-subgroup",
                   "conjugate", "verify", "bounds")
CHILD_PROBES = 5


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("bezout", "verify", "lift", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", dest="setup_only", default=None,
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _make(name, seed, workdir, shim=None):
    from workloads import WORKLOADS
    cls = WORKLOADS[name]
    if name == "cli":
        return cls(seed, workdir, SRC, shim)
    return cls(seed, workdir)


def _timed_setups(args, rundir: Path) -> tuple[list[float], Path]:
    """Run the set-up in fresh interpreters; return times and the last dir."""
    times, target = [], None
    for k in range(SETUP_REPEATS):
        target = rundir / f"setup-{k}"
        target.mkdir()
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-only", str(target)]
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=170)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError("set-up failed:\n" + proc.stderr.decode(errors="replace"))
    return times, target


def _child_ms(code: str) -> float:
    """Median wall time of a fresh interpreter running ``code``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(CHILD_PROBES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
        samples.append((time.perf_counter() - start) * 1e3)
    return statistics.median(samples)


def _measure(workload, seconds: float, recorder=None):
    """Whole rounds of the operation list until another would pass ``seconds``."""
    durations, sizes, failed, raised, errors = [], [], 0, [], []
    first_identity, round_seconds = [], []
    start = time.perf_counter()
    while True:
        rounds = workload.round = len(round_seconds)
        mark = len(durations)
        for i, op in enumerate(workload.ops):
            if recorder is not None:
                recorder.op = rounds * len(workload.ops) + i
            t0 = time.perf_counter_ns()
            try:
                result = op()
            except Exception as exc:  # an operation that raises has failed
                durations.append(time.perf_counter_ns() - t0)
                raised.append(f"op {i} raised {type(exc).__name__}: {exc}")
                if rounds == 0:
                    first_identity.append(None)
                continue
            durations.append(time.perf_counter_ns() - t0)
            op_failed, size, identity = workload.inspect(i, result)
            failed += op_failed
            sizes.append(size)
            digest = hashlib.sha256(identity).hexdigest()
            if rounds == 0:
                first_identity.append(digest)
                if not op_failed:
                    errors += [f"op {i}: {msg}" for msg in workload.check(i, result)]
            elif first_identity[i] is not None and digest != first_identity[i]:
                errors.append(f"op {i}: round {rounds} output differs from round 0")
        round_seconds.append(sum(durations[mark:]) / 1e9)
        spent = time.perf_counter() - start
        if spent + spent / len(round_seconds) > seconds:
            break
    return durations, sizes, failed, raised, errors, round_seconds


def _end_to_end(durations, sizes, setup_times, rss_kb) -> dict:
    ms = sorted(d / 1e6 for d in durations)
    return {
        "ops_per_s": (len(ms) / (sum(ms) / 1e3), "1/s"),
        "op_p50_ms": (statistics.median(ms), "ms"),
        "op_p90_ms": (statistics.quantiles(ms, n=10)[8] if len(ms) > 1 else ms[0], "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        "artifact_kb": (statistics.fmean(sizes) / 1e3 if sizes else 0.0, "kB"),
    }


def _cli_layers(workload, durations, measured: bool) -> dict:
    """Interpreter, import and per-subcommand times; zero off ``cli``."""
    if not measured:
        return {name: 0.0 for name in ("cli.interpreter_ms", "cli.import_ms",
                                       *(f"cli.{s}.p50_ms" for s in CLI_SUBCOMMANDS))}
    out = {"cli.interpreter_ms": _child_ms("pass")}
    out["cli.import_ms"] = _child_ms("import crossrank.cli") - out["cli.interpreter_ms"]
    per_sub: dict[str, list[float]] = {}
    count = len(workload.ops)
    for k, d in enumerate(durations):
        per_sub.setdefault(workload.subcommand(k % count), []).append(d / 1e6)
    for name in CLI_SUBCOMMANDS:
        out[f"cli.{name}.p50_ms"] = statistics.median(per_sub.get(name, [0.0]))
    return out


def _declared(trace: int) -> dict:
    """Metric names and units declared in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _setup_only(args) -> int:
    """One timed set-up: importing ``workloads`` imports the program."""
    sys.path.insert(0, str(SRC))
    _make(args.workload, args.seed, Path(args.setup_only)).setup()
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "crossrank" / "__init__.py").is_file():
        print(f"error: no crossrank sources under {SRC}", file=sys.stderr)
        return 2
    if args.setup_only:
        return _setup_only(args)
    sys.path.insert(0, str(SRC))

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-{args.seed}-trace{args.trace}"
    rundir = OUT / f"run-{tag}-{os.getpid()}"
    rundir.mkdir()
    try:
        setup_times, setup_dir = _timed_setups(args, rundir)
        recorder = None
        shim = None
        if args.trace and args.workload == "cli":
            shim = HERE / "cli_shim.py"
            (rundir / "spans").mkdir()
        elif args.trace:
            recorder = tracing.Recorder()
        workload = _make(args.workload, args.seed, rundir, shim)
        workload.prepare(setup_dir)
        if recorder is not None:
            tracing.install(recorder)

        durations, sizes, failed, raised, errors, round_seconds = _measure(
            workload, args.seconds, recorder)
        rounds = len(round_seconds)

        if args.workload == "cli":
            rss_kb = workload.max_rss_kb
        else:
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        e2e = _end_to_end(durations, sizes, setup_times, rss_kb)

        metrics = {name: value for name, (value, _) in e2e.items()}
        if args.trace:
            if shim is not None:
                spans, counts = tracing.merge(sorted(
                    (rundir / "spans").glob("*.jsonl"),
                    key=lambda p: tuple(map(int, p.stem.split("-")))))
            else:
                spans, counts = recorder.spans, recorder.counts
            tracing.write_spans(OUT / f"spans-{tag}.jsonl", spans, counts)
            values = {**tracing.layer_metrics(spans, counts, rounds),
                      **_cli_layers(workload, durations, shim is not None)}
        else:
            values = metrics
        reported = {name: {"value": values[name], "unit": unit}
                    for name, unit in _declared(args.trace).items()}

        for msg in (raised + errors)[:20]:
            print(f"check: {msg}", file=sys.stderr)
        result = {"correct": not errors, "attempted": len(durations),
                  "failed": failed + len(raised), "metrics": reported}
        summary = {
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "rounds": rounds, "ops_per_round": len(workload.ops),
            "round_seconds": round_seconds,
            "end_to_end": metrics, "setup_times_s": setup_times,
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "numpy": numpy.__version__,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        }
        (OUT / f"BENCH_{tag}.json").write_text(json.dumps({**summary, **result}, indent=2))
        print(json.dumps(summary), file=sys.stderr)
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(rundir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
