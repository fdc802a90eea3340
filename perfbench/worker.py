"""One benchmark worker: set up a workload, run its jobs, check them, report.

Started by run.py as a fresh process for every sample, so no in-process memo
or disk cache carries over from one run to the next.  Times are taken on a
``HostClock`` (hostclock.py), which discounts the shared host's changing
speed; the raw wall times are reported next to them.  Prints one JSON object
on its last line of standard output.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
        [--trace] [--setup-only] [--spans FILE]
"""

from time import perf_counter

T0 = perf_counter()  # worker start: before numpy or pelldecide is imported

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from hostclock import HostClock  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def run_jobs(jobs, tracer=None) -> tuple[list[tuple[float, float]], list, list]:
    """Run each job once, in order; return its start and end, output and error."""
    times, outputs, errors = [], [], []
    for job in jobs:
        if tracer is not None:
            tracer.job = job.name
        start = perf_counter()
        try:
            out, err = job.run(), None
        except Exception:
            out, err = None, traceback.format_exc()
        times.append((start, perf_counter()))
        outputs.append(out)
        errors.append(err)
    return times, outputs, errors


def count_failures(jobs, outputs, errors) -> int:
    """Jobs that raised, or whose output the reference check rejects."""
    failed = 0
    for job, out, err in zip(jobs, outputs, errors):
        if err is None:
            try:
                if job.check(out):
                    continue
                err = "result disagrees with the reference"
            except Exception:
                err = "check raised:\n" + traceback.format_exc()
        failed += 1
        print(f"FAILED {job.name}: {err}", file=sys.stderr)
    return failed


def main() -> None:
    clock = HostClock()
    clock.start(origin=T0)

    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", type=Path)
    args = ap.parse_args()

    sys.path[:0] = [str(SRC), str(HERE)]
    import numpy
    import pelldecide
    from pelldecide import _kernels

    if not Path(pelldecide.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"error: imported pelldecide from {pelldecide.__file__}, not from {SRC}")
    import workloads

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    jobs = workloads.build(args.workload, args.seed, args.seconds)
    ready = perf_counter()
    setup = workloads.SETUP_SENSITIVITY
    if args.setup_only:
        clock.stop()
        print(json.dumps({"setup_s": clock.span(T0, ready, setup), "raw_setup_s": ready - T0}))
        return

    times, outputs, errors = run_jobs(jobs, tracer)
    first, last = times[0][0], times[-1][1]
    clock.stop()
    beta = workloads.HOST_SENSITIVITY[args.workload]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.active = False
    failed = count_failures(jobs, outputs, errors)

    result = {
        "setup_s": clock.span(T0, ready, setup),
        "wall_s": clock.span(first, last, beta),
        "job_s": [clock.span(a, b, beta) for a, b in times],
        "raw_setup_s": ready - T0,
        "raw_wall_s": last - first,
        "raw_job_s": [b - a for a, b in times],
        "host_clock": clock.summary(),
        "jobs": [job.name for job in jobs],
        "failed": failed,
        "peak_rss_mb": peak_rss_mb,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "numba_enabled": bool(_kernels.NUMBA_ENABLED),
    }
    if tracer is not None:
        tracer.rescale(lambda t: clock.scaled(t, beta))
        result["layers"] = tracer.layer_metrics()
        if args.spans is not None:
            tracer.write(args.spans)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
