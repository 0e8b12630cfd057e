"""Benchmark of rsgame's ensemble studies, end to end and layer by layer.

    python3 perfbench/run.py --workload priced-sweep --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from its `src/`.
With `--trace 0` the run times whole rounds of the workload for `--seconds`
and reports the end-to-end metrics; with `--trace 1` it runs one round of
the workload untraced and once more with spans around every layer, and
reports the per-layer metrics and the tracing overhead.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

# one thread for every numerical library, set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_PROBES = 5
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


def import_workloads():
    """Import the program from this checkout's src/, or exit without a result."""
    if not os.path.isfile(os.path.join(SRC, "rsgame", "__init__.py")):
        sys.exit(f"error: {SRC}/rsgame not found; run from a checkout of the "
                 "repository")
    sys.path.insert(0, SRC)
    import workloads
    import rsgame
    if not os.path.abspath(rsgame.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: rsgame was imported from {rsgame.__file__}, not {SRC}")
    return workloads


def setup_seconds(workload, seed):
    """Median time from starting a process to its workload being ready.

    Each probe is a fresh interpreter that imports numpy and rsgame and
    builds the workload's inputs, as the measuring process does before its
    first timed call.  A first, unmeasured probe fills the bytecode cache.
    """
    times = []
    for i in range(SETUP_PROBES + 1):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, os.path.abspath(__file__),
                               "--probe", "--workload", workload,
                               "--seed", str(seed)],
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            sys.exit(f"error: set-up probe failed with code {code}")
        if i:
            times.append(ready)
    return statistics.median(times)


def run_tasks(wl, tasks, tracer=None):
    outcomes = []
    for task in tasks:
        if tracer is not None:
            tracer.current_instance = task.ident
        outcomes.append(wl.run(task))
    return outcomes


def timed_phase(wl, seconds):
    """Whole rounds until `seconds` have passed: each round's outcomes and time."""
    rounds = []
    start = time.perf_counter()
    while True:
        begin = time.perf_counter()
        outcomes = run_tasks(wl, wl.round(len(rounds)))
        rounds.append((outcomes, time.perf_counter() - begin))
        if time.perf_counter() - start >= seconds:
            return rounds


def tail(times):
    """Highest listed percentile with at least ten samples beyond it."""
    n = len(times)
    if n < 40:
        return None
    cuts = statistics.quantiles(times, n=1000, method="inclusive")
    for p in TAIL_PERCENTILES:
        if n * (1.0 - p / 100.0) >= 10:
            return p, cuts[int(round(p * 10)) - 1], n
    return None


def end_to_end(rounds, setup_s, rss_mb):
    """The end-to-end metrics; rates are medians over the run's rounds.

    Every round does the same work, so a round's rate differs from another's
    only by how fast the machine ran it; the median keeps a slow spell that
    covers a few rounds out of the figure.
    """
    outcomes = [o for outs, _ in rounds for o in outs]
    attempted = sum(o.instances for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    per_instance = [o.seconds / o.instances for o in outcomes]

    def rate(count):
        return statistics.median(sum(count(o) for o in outs) / dt
                                 for outs, dt in rounds)

    metrics = {
        "setup_s": (setup_s, "s"),
        "instances_per_s": (rate(lambda o: o.instances - o.failed), "1/s"),
        "equilibria_per_s": (rate(lambda o: o.equilibria), "1/s"),
        "instance_s_p50": (statistics.median(per_instance), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    return metrics, outcomes, attempted, failed, tail(per_instance)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all' to run each in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    workloads = import_workloads()
    if args.workload == "all":
        # each workload in its own process, so peak RSS is the workload's own
        codes = [subprocess.run([sys.executable, os.path.abspath(__file__),
                                 "--workload", name, "--seed", str(args.seed),
                                 "--seconds", str(args.seconds),
                                 "--trace", str(args.trace)]).returncode
                 for name in workloads.WORKLOADS]
        return max(codes)
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; one of "
                 f"all, {', '.join(workloads.WORKLOADS)}")
    if args.probe:
        workloads.build(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    if args.trace:
        import tracing
        wl = workloads.build(args.workload, args.seed)
        tasks = wl.round(0)
        start = time.perf_counter()
        run_tasks(wl, tasks)
        untraced = time.perf_counter() - start
        tracer = tracing.Tracer()
        start = time.perf_counter()
        with tracer.installed():
            outcomes = run_tasks(wl, tasks, tracer)
        traced = time.perf_counter() - start
        metrics = tracing.layer_metrics(tracer)
        metrics["trace.overhead"] = (100.0 * (traced / untraced - 1.0), "%")
        os.makedirs(OUT, exist_ok=True)
        dump = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.csv")
        tracer.dump(dump)
        print(f"spans: {len(tracer.start)} written to {os.path.relpath(dump, ROOT)}")
        print(f"traced phase {traced:.3f} s, untraced {untraced:.3f} s, "
              f"{len(tasks)} operations")
        attempted = sum(o.instances for o in outcomes)
        failed = sum(o.failed for o in outcomes)
    else:
        setup_s = setup_seconds(args.workload, args.seed)
        wl = workloads.build(args.workload, args.seed)
        rounds = timed_phase(wl, args.seconds)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics, outcomes, attempted, failed, tail_row = end_to_end(
            rounds, setup_s, rss_mb)
        print(f"timed phase {sum(dt for _, dt in rounds):.3f} s, "
              f"{len(outcomes)} operations in {len(rounds)} rounds of "
              + ", ".join(f"{dt:.3f}" for _, dt in rounds) + " s")
        if tail_row is not None:
            p, value, n = tail_row
            print(f"instance_s_tail = {value:.6g} s (p{p:g} of {n} instances)")
        else:
            print(f"instance_s_tail: omitted, {len(outcomes)} operations < 40")

    errors = workloads.check_worked_instance() + wl.check(outcomes)
    for message in errors[:20]:
        print(f"CHECK FAILED: {message}")
    for o in outcomes:
        if o.error:
            print(f"failed operation {o.task.label}: {o.error}")
            break
    print(f"workload {args.workload}: attempted {attempted}, failed {failed}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }), flush=True)
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
