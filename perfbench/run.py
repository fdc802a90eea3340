"""The repository benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every sample runs in a fresh single-threaded worker process (worker.py), one
at a time, with PELLDECIDE_CACHE_DIR removed from its environment.  With
``--trace 0`` the end-to-end metrics are printed; with ``--trace 1`` one
untraced and one traced worker run the same jobs and the per-layer metrics
of the traced one are printed, with the difference as the tracing overhead.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a readable table and a JSON line of run details (environment, job
count, failed ratio, source line counts).  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import LAYERS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "pelldecide"
OUT = ROOT / "bench_out"
DEADLINE_S = 175.0

# Set-up samples per run, the first taken by the worker that runs the jobs.
# prove-x5 and relations build x5 (and x3) by L* in set-up, 6-13 s a sample,
# so they take one; the import-only workloads take seven.
SETUP_SAMPLES = {"prove-x5": 1, "relations": 1, "learn": 7, "search": 7}


class WorkerError(Exception):
    pass


def worker_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "PELLDECIDE_CACHE_DIR"}
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               NUMEXPR_NUM_THREADS="1",
               # The compiler eliminates variables in set iteration order, which
               # follows string hashes; a random hash seed moves a prove-x5 job
               # by up to 40%.  Fix it so that runs compare the same computation.
               PYTHONHASHSEED="0")
    return env


def run_worker(args: argparse.Namespace, deadline: float, *extra: str) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), *extra]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerError("worker ran past the deadline") from None
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        raise WorkerError("worker printed no result") from None


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def src_lines() -> dict[str, int]:
    return {p.stem: len(p.read_text().splitlines()) for p in sorted(PACKAGE.glob("*.py"))}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no package source at {PACKAGE}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    lines = src_lines()
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    try:
        main_run = run_worker(args, deadline)
        runs = [main_run]
        setups = None
        if args.trace:
            spans = OUT / f"{stem}.spans.jsonl"
            traced = run_worker(args, deadline, "--trace", "--spans", str(spans))
            runs.append(traced)
            metrics = dict(traced["layers"])
            for m in LAYERS:
                metrics[f"{m.lstrip('_')}.src_lines"] = lines[m]
            metrics["trace.wall_s"] = traced["wall_s"]
            metrics["trace.overhead_s"] = traced["wall_s"] - main_run["wall_s"]
            units = metric_units("per_layer")
        else:
            setups = [main_run] + [run_worker(args, deadline, "--setup-only")
                                   for _ in range(SETUP_SAMPLES[args.workload] - 1)]
            metrics = {
                "wall_s": main_run["wall_s"],
                "job_p50_s": statistics.median(main_run["job_s"]),
                "setup_s": statistics.median(r["setup_s"] for r in setups),
                "peak_rss_mb": main_run["peak_rss_mb"],
            }
            units = metric_units("end_to_end")
    except WorkerError as e:
        print(f"error: {args.workload}: {e}", file=sys.stderr)
        return 1

    attempted = sum(len(r["jobs"]) for r in runs)
    failed = sum(r["failed"] for r in runs)
    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "jobs": len(main_run["jobs"]),
        "failed_ratio": failed / attempted,
        # the same times in wall seconds, before the host clock's scaling
        "raw_wall_s": main_run["raw_wall_s"],
        "raw_job_p50_s": statistics.median(main_run["raw_job_s"]),
        "setup_samples": setups and [r["setup_s"] for r in setups],
        "raw_setup_samples": setups and [r["raw_setup_s"] for r in setups],
        "host_clock": [r["host_clock"] for r in runs],
        "job_s": dict(zip(main_run["jobs"], main_run["job_s"])),
        "env": {
            "python": main_run["python"], "numpy": main_run["numpy"],
            "numba_enabled": main_run["numba_enabled"],
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "git_commit": git_commit(),
        },
        "src_lines": lines,
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    (OUT / f"{stem}.json").write_text(json.dumps({**details, **result}, indent=1))

    for name, unit in units.items():
        print(f"{name:<36} {metrics[name]:>14.6g} {unit}")
    print(f"{'jobs':<36} {details['jobs']:>14d}")
    print(f"{'failed_ratio':<36} {details['failed_ratio']:>14.6g} ({failed}/{attempted} jobs)")
    print(json.dumps(details))
    print(json.dumps(result))
    if failed:
        print(f"warning: {failed} of {attempted} jobs failed their checks", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
