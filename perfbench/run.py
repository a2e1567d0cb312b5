"""toricsym benchmark: one workload, timed untraced or traced.

    python3 perfbench/run.py --workload census --seed 1 --seconds 24 --trace 0

Run from the root of a source checkout; the program is imported from its
``src`` directory.  The workload runs in ``WORKERS`` fresh processes one
after another, each for its share of ``--seconds`` in whole passes over the
workload's operations (at least one); results are pooled, because a
process's memory layout alone moves its speed by several percent.  The last line of
standard output is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of the median pass with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKERS = 3
SETUP_PROBES = 2  # set-up only processes, beside the workers' own set-up
WORKER_TIMEOUT = 150

sys.path.insert(0, str(HERE))

import speed  # noqa: E402  (benchmark modules live beside this file)
from tracer import Tracer  # noqa: E402


def import_program():
    """Import toricsym from this checkout, or exit without a result."""
    sys.path.insert(0, str(SRC))
    try:
        import toricsym.cli  # noqa: F401  (imports every layer)
    except ImportError as exc:
        sys.exit(f"cannot import toricsym from {SRC}: {exc}")
    import toricsym

    if SRC not in Path(toricsym.__file__).resolve().parents:
        sys.exit(f"toricsym was imported from {toricsym.__file__}, not from {SRC}")


def set_up(workload, seed):
    """Import the program and write the workload's input documents; the
    set-up time is scaled to the reference speed (see speed.py)."""
    import workloads

    t = time.perf_counter()
    import_program()
    workdir = ROOT / ".perfbench_work" / f"{workload}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    work = workloads.WORKLOADS[workload](seed, workdir)
    return work, workdir, speed.scaled_seconds(time.perf_counter() - t)


def digest(output):
    return hashlib.sha256(json.dumps(output, sort_keys=True).encode()).hexdigest()


def measure(work, seconds, tracer, probe):
    """Whole passes until the time is up; returns the per-pass records.

    Times exclude the probe's samples.  Without a probe the speed scales
    are 1; with one, each operation and each pass is scaled by the
    reference speed around it."""
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        records = []

        def run(op):
            if tracer:
                tracer.begin_op(op.id)
            busy = probe.busy if probe else 0.0
            t = time.perf_counter()
            try:
                output, error = op.run(), None
            except Exception as exc:  # an operation that fails is counted, not fatal
                output, error = None, f"{type(exc).__name__}: {exc}"
            end = time.perf_counter()
            if tracer:
                tracer.end_op()
            records.append([op, output, error, end - t - ((probe.busy - busy) if probe else 0.0), (t, end)])
            return output

        if tracer:
            tracer.start_pass()
        busy = probe.busy if probe else 0.0
        t = time.perf_counter()
        work.run_pass(run)
        end = time.perf_counter()
        wall = tracer.end_pass() if tracer else end - t
        scale = 1.0
        if probe:
            wall -= probe.busy - busy
            scale = probe.scale(t, end)
        for r in records:
            r[4] = probe.scale(*r[4]) if probe else 1.0
        layers = tracer.metrics(wall) if tracer else None
        passes.append({"wall": wall, "scale": scale, "records": records, "layers": layers})
        if len(passes) > 1:  # later passes are compared with the first by digest
            for r in records:
                r[1] = digest(r[1]) if r[2] is None else None
    return passes


def verify(passes):
    """Checks the first pass's outputs and compares later passes with it.

    Returns (digests of the first pass, failed operations per pass,
    problems).  An operation that fails only through its named known fault
    is failed but not a problem."""
    first = passes[0]["records"]
    problems, failed = [], 0
    for op, output, error, *_ in first:
        found = [error] if error else op.check(output)
        if found:
            failed += 1
            if found != [op.known_fault]:
                problems += [f"{op.id}: {p}" for p in found]
    digests = [[r[0].id, digest(r[1]) if r[2] is None else None] for r in first]
    for k, p in enumerate(passes[1:], 2):
        if [[r[0].id, r[1] if r[2] is None else None] for r in p["records"]] != digests:
            problems.append(f"pass {k} ran other operations or gave other results")
    return digests, failed, problems


def worker(args):
    """Set up, measure and check in this process; print one JSON line."""
    work, workdir, setup = set_up(args.workload, args.seed)
    try:
        tracer = probe = None
        if args.trace:
            tracer = Tracer()
            tracer.install()
        else:
            probe = speed.SpeedProbe()
            probe.start()
        try:
            passes = measure(work, args.seconds, tracer, probe)
        finally:
            if tracer:
                tracer.uninstall()
            if probe:
                probe.stop()
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        digests, failed, problems = verify(passes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    scaled = []
    for p in passes:
        ops = [r[3] * r[4] for r in p["records"]]
        glue = p["wall"] - sum(r[3] for r in p["records"])
        scaled.append({"raw": p["wall"], "wall": glue * p["scale"] + sum(ops), "ops": ops, "layers": p["layers"]})
    print(json.dumps({
        "setup": setup,
        "peak_mb": peak_mb,
        "digests": digests,
        "failed_per_pass": failed,
        "problems": problems,
        "passes": scaled,
    }))
    return 0


def spawn(args, *extra):
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload, "--seed", str(args.seed)]
    done = subprocess.run(
        [*command, "--trace", str(args.trace), *extra],
        capture_output=True, text=True, timeout=WORKER_TIMEOUT, cwd=ROOT,
    )
    if done.returncode != 0:
        sys.exit(f"worker failed with exit {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("census", "contractions", "automorphisms"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_only:
        _, workdir, setup = set_up(args.workload, args.seed)
        shutil.rmtree(workdir)
        print(json.dumps({"setup": setup}))
        return 0
    if args.worker:
        return worker(args)

    import_program()  # fail fast, before any worker, where there is no program
    share = str(args.seconds / WORKERS)
    results = [spawn(args, "--worker", "--seconds", share) for _ in range(WORKERS)]
    setups = [r["setup"] for r in results]
    setups += [spawn(args, "--setup-only", "--seconds", "0")["setup"] for _ in range(SETUP_PROBES)]

    problems = [p for r in results for p in r["problems"]]
    if any(r["digests"] != results[0]["digests"] for r in results):
        problems.append("workers ran other operations or gave other results")
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    passes = [p for r in results for p in r["passes"]]
    ops = len(results[0]["digests"])

    if args.trace:
        metrics = sorted(passes, key=lambda p: p["wall"])[(len(passes) - 1) // 2]["layers"]
    else:
        metrics = {
            "setup_s": [statistics.median(setups), "s"],
            "wall_s": [statistics.median(p["wall"] for p in passes), "s"],
            "op_p50_s": [statistics.median(t for p in passes for t in p["ops"]), "s"],
            "peak_rss_mb": [statistics.median(r["peak_mb"] for r in results), "MB"],
        }
    walls = " ".join(f"{p['raw']:.3f}" for p in passes)
    print(f"{len(passes)} passes of {ops} operations, unscaled seconds: {walls}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": ops * len(passes),
        "failed": sum(r["failed_per_pass"] * len(r["passes"]) for r in results),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
