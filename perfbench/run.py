"""Benchmark of the hillstab command line, driven in process.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \\
        --trace <0|1>

Run from the root of a source checkout.  The benchmark imports hillstab
from ``src/``, writes the workload's seeded inputs under
``.perfbench_run/``, and calls ``hillstab.cli.main`` for one job at a time
(one client, closed loop, no threads) in whole passes over the workload's
job list until ``--seconds`` have gone by.  Every output is then checked
against the computations in ``reference.py``.

Every time is reported in reference seconds: the wall time divided by the
machine's speed factor, which fixed probe kernels measure before, during
and after the timed step (``speed.py``).  On a shared host the same job's
wall time swings by up to 2x, within a second and from one minute to the
next; the probes slow with it, so the ratio stays steadier.
``wall_ref_s`` and ``job_p50_ref_s`` carry the unit ``ref_s`` to say so;
``setup_s`` is rescaled the same way and keeps the unit ``s``.  The first
pass is timed like the others: it is not slower, as the imports that would
make it so are in the set-up.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones (setup_s, wall_ref_s, job_p50_ref_s, peak_rss_mb);
with ``--trace 1`` one untraced pass is followed by traced passes, and
the metrics are the per-layer ones of ``tracing.py`` plus
``trace.overhead_ref_s``, the traced minus the untraced pass time.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
#: input generation is repeated this many times and its median reported
SETUP_REPEATS = 5
#: fresh interpreters that time ``import hillstab.cli``; the median is kept
IMPORT_REPEATS = 5


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_hillstab():
    """Import hillstab from this checkout's src/ for the jobs to call."""
    src = ROOT / "src"
    if not (src / "hillstab" / "cli.py").is_file():
        raise SystemExit(f"error: no hillstab sources under {src}")
    sys.path.insert(0, str(src))
    cli = importlib.import_module("hillstab.cli")
    hs = sys.modules["hillstab"]
    if Path(hs.__file__).resolve().parent != src / "hillstab":
        raise SystemExit(f"error: imported hillstab from {hs.__file__}")
    return cli, hs


def import_seconds(speed) -> float:
    """Median reference time of a user's first ``import hillstab.cli``
    (numpy and scipy included), each in a fresh interpreter that this call
    waits for.  The interpreter times its import; the speed factor is
    probed here just before and after, on the same core: this process and
    the interpreter are held to one core for the purpose, as a probe on
    the other core did not track the import time at all."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t0 = time.perf_counter(); import hillstab.cli; "
            "print(time.perf_counter() - t0)")
    times = []
    cores = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cores)})
    try:
        for _ in range(IMPORT_REPEATS):
            before = speed.factor()
            done = subprocess.run(
                [sys.executable, "-c", code, str(ROOT / "src")],
                capture_output=True, text=True, timeout=120, check=True)
            dt = float(done.stdout.strip().splitlines()[-1])
            after = speed.factor()
            times.append(dt / speed.rescale([before, after]))
            print(f"import: {dt:.4f} s at factors {before:.3f}, {after:.3f}",
                  file=sys.stderr)
    finally:
        os.sched_setaffinity(0, cores)
    return statistics.median(times)


def run_pass(workload, call, speed, in_call=True) -> dict:
    """One pass over the job list; only the cli.main calls are timed, in
    reference seconds (see ``speed.Meter``)."""
    latencies, failures, outputs = {}, [], {}
    wall = raw = 0.0
    meter = speed.Meter(in_call)
    for job in workload.jobs:
        if os.path.exists(job.output):
            os.remove(job.output)
        try:
            rc = meter.call(call, job)
        except SystemExit as e:  # argparse rejected the job
            rc = e
        except Exception as e:  # an error that escaped cli.main
            rc = e
        wall += meter.ref_s
        raw += meter.wall_s
        if rc == 0:
            latencies[job.label] = meter.ref_s
            with open(job.output) as fh:
                outputs[job.label] = fh.read()
        else:
            failures.append((job, rc))
        print(f"  {job.label:24s} {meter.wall_s:9.4f} s {meter.ref_s:9.4f} "
              f"ref_s  rc={rc!r}", file=sys.stderr)
    print(f"pass: {raw:.3f} s, {wall:.3f} ref_s", file=sys.stderr)
    return {"wall": wall, "latencies": latencies, "failures": failures,
            "outputs": outputs}


def check_outputs(workload, passes) -> list:
    """Each job's own check on the first pass, identical outputs in every
    later pass, the workload's checks across jobs, and no failure except
    the jobs marked as failing."""
    problems = []
    for p in passes:
        problems += [f"{job.label} failed: {rc!r}"
                     for job, rc in p["failures"] if not job.may_fail]
    first = passes[0]["outputs"]
    for job in workload.jobs:
        if job.label not in first:
            continue
        try:
            found = job.check(first[job.label])
        except Exception as e:  # a malformed output fails its check
            found = [f"check raised {e!r}"]
        problems += [f"{job.label}: {p}" for p in found]
        for later in passes[1:]:
            if later["outputs"].get(job.label) != first[job.label]:
                problems.append(f"{job.label}: output differs between passes")
    for final in workload.final_checks:
        problems += final()
    return problems


def timed_passes(workload, call, speed, seconds: float) -> list:
    """Passes until ``seconds`` have gone by; at least one."""
    passes = []
    start = perf_counter()
    while not passes or perf_counter() - start < seconds:
        passes.append(run_pass(workload, call, speed))
    return passes


def job_p50(passes) -> float:
    """Median over the completed jobs of each job's median time over the
    passes: a job's own spread cannot move the figure to another job."""
    labels = [label for label in passes[0]["latencies"]
              if all(label in p["latencies"] for p in passes)]
    return statistics.median(
        statistics.median(p["latencies"][label] for p in passes)
        for label in labels)


def main(argv=None) -> int:
    args = parse_args(argv)
    cli, hs = import_hillstab()

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import speed
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    build = workloads.WORKLOADS[args.workload]
    run_dir = ROOT / ".perfbench_run" / args.workload
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    gen_s = []
    for _ in range(SETUP_REPEATS):
        before = speed.factor()
        t0 = perf_counter()
        workload = build(args.seed, str(run_dir))
        workload.write_inputs()
        dt = perf_counter() - t0
        gen_s.append(dt / speed.rescale([before, speed.factor()]))
    setup_s = import_seconds(speed) + statistics.median(gen_s)

    def plain(job):
        return cli.main(job.argv)

    if args.trace:
        passes = [run_pass(workload, plain, speed)]
        untraced_wall = passes[0]["wall"]
        tracers = []
        start = perf_counter()
        while len(tracers) == 0 or perf_counter() - start < args.seconds:
            tracer = tracing.Tracer()
            tracer.install(hs)
            try:
                passes.append(run_pass(
                    workload,
                    lambda job: tracer.job(job.subcommand, cli.main,
                                           job.argv),
                    speed, in_call=False))
            finally:
                tracer.uninstall()
            tracers.append(tracer)
        per_pass = [t.metrics() for t in tracers]
        values = {name: (statistics.median(m[name] for m in per_pass)
                         if tracing.UNITS[name] == "s" else per_pass[0][name])
                  for name in per_pass[0]}
        values["trace.overhead_ref_s"] = statistics.median(
            p["wall"] for p in passes[1:]) - untraced_wall
        metrics = {name: {"value": v, "unit": tracing.UNITS[name]}
                   for name, v in values.items()}
    else:
        passes = timed_passes(workload, plain, speed, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_ref_s": {"value": statistics.median(p["wall"]
                                                      for p in passes),
                           "unit": "ref_s"},
            "job_p50_ref_s": {"value": job_p50(passes), "unit": "ref_s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }

    t0 = perf_counter()
    problems = check_outputs(workload, passes)
    print(f"checks took {perf_counter() - t0:.1f} s", file=sys.stderr)
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": len(workload.jobs) * len(passes),
        "failed": sum(len(p["failures"]) for p in passes),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
