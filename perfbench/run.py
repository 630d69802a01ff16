"""gridscreen benchmark: N-1 screening time, oracle fidelity and per-outage latency.

One workload, as the benchmark contract runs it (last stdout line is JSON)::

    python3 perfbench/run.py --workload n1-tiled944 --seed 1 --seconds 30 --trace 0

Every workload, untraced then traced, each in its own process; prints every
metric and rewrites BENCHMARK.json from perfbench/spec.py::

    python3 perfbench/run.py --all [--seed N] [--seconds S]

Fast self-test of every workload at a tiny size::

    python3 perfbench/run.py --selftest

Run from the repository root; the package is imported from ./src.
Per-run records and span traces are written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
CHILD_TIMEOUT_S = 900

sys.path.insert(0, str(HERE))
import spec  # noqa: E402


def pin_threads() -> dict[str, str]:
    """Cap BLAS threads at nproc (default 1, one closed loop); call before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        value = os.environ.get(var, "1")
        want = int(value) if value.isdigit() and int(value) > 0 else 1
        os.environ[var] = str(min(want, nproc))
    return {var: os.environ[var] for var in THREAD_VARS}


def import_package() -> None:
    """Import gridscreen from this checkout's sources, or stop with exit code 1."""
    pkg = SRC / "gridscreen"
    if not (pkg / "__init__.py").is_file():
        sys.exit(f"perfbench: no gridscreen sources at {pkg}")
    sys.path.insert(0, str(SRC))
    import gridscreen

    if Path(gridscreen.__file__).resolve().parent != pkg.resolve():
        sys.exit(f"perfbench: imported gridscreen from {gridscreen.__file__}, not {pkg}")


def machine_info(threads: dict[str, str]) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": threads,
    }


def run_workload(args) -> int:
    threads = pin_threads()
    import_package()
    import session
    from spans import Tracer

    w = spec.workload(args.workload)
    if args.tiny:
        w = w.tiny()
    if args.trace:
        tracer = Tracer()
        result = session.trace(w, args.seed, tracer)
    else:
        result = session.measure(w, args.seed, args.seconds)

    names = [m[0] for m in (spec.PER_LAYER if args.trace else spec.END_TO_END)]
    info = dict(result.info, machine=machine_info(threads))
    print(f"workload {w.name} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    for key, value in info.items():
        print(f"info {key} = {value}")
    for name, ok, detail in result.ledger.checks:
        print(f"check {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    print(f"info attempted {result.ledger.attempted} failed {result.ledger.failed}")
    for name in names:
        print(f"metric {name} = {result.metrics[name]:.6g} {spec.UNITS[name]} (n={result.samples[name]})")

    record = {
        "correct": result.ledger.correct,
        "attempted": result.ledger.attempted,
        "failed": result.ledger.failed,
        "metrics": {name: {"value": float(result.metrics[name]), "unit": spec.UNITS[name]} for name in names},
    }
    stem = f"{w.name}{'-tiny' if args.tiny else ''}-seed{args.seed}"
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{stem}-trace{args.trace}.json").write_text(
        json.dumps(dict(record, info=info, samples=result.samples, checks=result.ledger.checks), indent=1)
        + "\n"
    )
    if args.trace:
        tracer.write(OUT / f"trace-{stem}.json", {"workload": w.name, "seed": args.seed, **info})
    print(json.dumps(record))
    return 0 if result.ledger.correct else 1


def child(name: str, seed: int, seconds: float, trace: int, tiny: bool) -> tuple[int, list[str], dict | None]:
    """Run one workload in its own process; return its exit code, output lines and result."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)] + (["--tiny"] if tiny else [])
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
        lines.append(proc.stderr)
    return proc.returncode, lines, result


def run_all(args) -> int:
    (ROOT / "BENCHMARK.json").write_text(spec.benchmark_json())
    status = 0
    table = []
    for w in spec.WORKLOADS:
        for trace in (0, 1):
            code, lines, result = child(w.name, args.seed, args.seconds, trace, False)
            print("\n".join(lines[:-1]))
            if code or result is None or not result["correct"]:
                status = 1
            for name, metric in (result or {}).get("metrics", {}).items():
                table.append(f"{w.name:18} {name:38} {metric['value']:>14.6g} {metric['unit']}")
    print("\n".join(["", "summary"] + table))
    print("ALL CHECKS PASS" if status == 0 else "SOME CHECK FAILED")
    return status


def selftest() -> int:
    """Every workload at a tiny size, both modes; checks the output contract."""
    problems = []
    bench = ROOT / "BENCHMARK.json"
    if bench.is_file() and bench.read_text() != spec.benchmark_json():
        problems.append("BENCHMARK.json differs from perfbench/spec.py; run --all to rewrite it")
    for w in spec.WORKLOADS:
        for trace in (0, 1):
            code, lines, result = child(w.name, 1, 0.2, trace, True)
            where = f"{w.name} trace {trace}"
            if code or result is None:
                problems.append(f"{where}: exit {code}: {lines[-3:]}")
                continue
            want = [m[0] for m in (spec.PER_LAYER if trace else spec.END_TO_END)]
            got = result["metrics"]
            if sorted(result) != ["attempted", "correct", "failed", "metrics"] or sorted(got) != sorted(want):
                problems.append(f"{where}: output keys {sorted(result)} / {sorted(got)}")
            elif not all(math.isfinite(m["value"]) for m in got.values()):
                problems.append(f"{where}: non-finite metric")
            elif not trace and not all(m["value"] != 0 for m in got.values()):
                problems.append(f"{where}: an end-to-end metric is 0")
            elif result["attempted"] < 1 or not result["correct"]:
                problems.append(f"{where}: attempted {result['attempted']}, correct {result['correct']}")
    for p in problems:
        print(f"selftest FAIL {p}")
    print("selftest PASS" if not problems else f"selftest: {len(problems)} problem(s)")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=[w.name for w in spec.WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="run the workload at self-test size")
    parser.add_argument("--all", action="store_true", help="run every workload, traced and untraced")
    parser.add_argument("--selftest", action="store_true", help="tiny run of every workload")
    args = parser.parse_args(argv)
    if args.selftest:
        return selftest()
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("one of --workload, --all or --selftest is required")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
