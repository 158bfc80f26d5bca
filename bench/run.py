"""Benchmark of the trip library and CLI.

    python3 bench/run.py --workload paper_m20 --seed 1 --seconds 30 --trace 0

Run from the repository root. The checkout's own code is measured: ``src/``
goes on the path and the CLI runs as ``python -m trip.cli``. Workloads:

* ``paper_m20``, ``wide_m4``: library calls in a fresh child process
  (``lib_workload.py``), so set-up time and peak memory are its own.
* ``joint_cli``: whole ``trip`` processes (``cli_workload.py``).
* ``all``: each of the above in turn, in its own process.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
layer metrics plus the traced run's own end-to-end figures with ``--trace 1``.
Generated inputs live under ``bench/work/`` and are removed afterwards; the
spans of a traced run are kept there as ``trace-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(BENCH, "work")
CHILD_TIMEOUT_S = 150

E2E_UNITS = {
    "setup_s": "s",
    "eval_rows_per_s": "rows/s",
    "marginal_rows_per_s": "rows/s",
    "train_rows_per_s": "rows/s",
    "sample_rows_per_s": "rows/s",
    "cond_rows_per_s": "rows/s",
    "peak_rss_mib": "MiB",
}
WORKLOADS = ("paper_m20", "wide_m4", "joint_cli")


def throughput(timed) -> float:
    """Rows per second over all ``(rows, seconds)`` timings of one operation.

    On a shared host the speed changes in spells of seconds. The total over
    the run weighs fast and slow spells by their length, and it spread less
    from run to run than the median of per-round figures.
    """
    rows, seconds = map(sum, zip(*timed))
    return rows / seconds


def blas_threads() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    """Environment for every process the benchmark starts."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + BENCH
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(blas_threads())
    return env


def run_checked(cmd, stdout, timeout=CHILD_TIMEOUT_S) -> int:
    """Run ``cmd`` to its end; kill it if it outlives ``timeout``."""
    proc = subprocess.Popen(cmd, stdout=stdout, env=child_env(), cwd=ROOT)
    try:
        return proc.wait(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def result_line(correct, attempted, failed, metrics: dict, units: dict) -> str:
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    })


def metrics_for(raw: dict, trace: bool) -> tuple[dict, dict]:
    """The reported metrics and their units from one workload's raw result."""
    if not trace:
        return raw["e2e"], E2E_UNITS
    from tracer import LAYER_UNITS

    metrics = dict(raw["layers"])
    metrics.update({f"traced.{k}": v for k, v in raw["e2e"].items()})
    units = dict(LAYER_UNITS)
    units.update({f"traced.{k}": u for k, u in E2E_UNITS.items()})
    return metrics, units


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    work = os.path.join(WORK, f"{name}-s{seed}-p{os.getpid()}")
    os.makedirs(work)
    try:
        if name == "joint_cli":
            import cli_workload

            return cli_workload.run(work, seed, seconds, trace)
        import lib_workload

        return lib_workload.run_parent(work, name, seed, seconds, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_all(args) -> int:
    """Every workload in its own process; one summary line at the end."""
    correct, attempted, failed, metrics, units = True, 0, 0, {}, {}
    for name in WORKLOADS:
        out_path = os.path.join(WORK, f"all-{name}.out")
        with open(out_path, "w") as out:
            code = run_checked(
                [sys.executable, os.path.join(BENCH, "run.py"), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                out, timeout=None,
            )
        with open(out_path) as fh:
            last = fh.read().strip().splitlines()[-1:]
        os.remove(out_path)
        if code != 0 or not last:
            print(f"workload {name} exited with {code}", file=sys.stderr)
            return 1
        print(f"{name}: {last[0]}")
        res = json.loads(last[0])
        correct &= res["correct"]
        attempted += res["attempted"]
        failed += res["failed"]
        for key, val in res["metrics"].items():
            metrics[f"{name}.{key}"] = val["value"]
            units[f"{name}.{key}"] = val["unit"]
    print(result_line(correct, attempted, failed, metrics, units))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "trip", "__init__.py")):
        print(f"no trip sources under {SRC}: run from a full checkout", file=sys.stderr)
        return 2
    os.environ.update(child_env())  # BLAS threads must be fixed before numpy loads
    sys.path[:0] = [SRC, BENCH]
    os.makedirs(WORK, exist_ok=True)
    if args.workload == "all":
        return run_all(args)

    started = time.monotonic()
    raw = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for msg in raw["failures"]:
        print(f"check failed: {msg}", file=sys.stderr)
    print(
        f"{args.workload}: {raw['attempted']} operations, {raw['failed']} failed, "
        f"{time.monotonic() - started:.1f} s wall, BLAS threads {blas_threads()}",
        file=sys.stderr,
    )
    metrics, units = metrics_for(raw, bool(args.trace))
    print(result_line(not raw["failures"], raw["attempted"], raw["failed"], metrics, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
