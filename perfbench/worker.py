"""One workload in one fresh process: set-up, then the closed loop or the traced run.

Started by run.py, which pins the thread variables; prints one JSON object as
its last line. Only the standard library is imported before set-up is timed.
"""

import argparse
import csv
import json
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_JOBS = 100  # jobs the metrics are taken from, so ten or more lie beyond p90
MIN_SAMPLE_S = 5.0  # job time the metrics are taken from
OVERRUN_S = 60.0  # start no pass this long after the measuring time ends

# Layers a workload must never call, and layers it must call. The workloads'
# rationale rests on these: a predictor or analysis change cannot move `synth`,
# a renderer change cannot move `predict`, and only `verify` analyses.
NOT_CALLED = {
    "synth": ("bessel", "spectrum", "analysis"),
    "verify": (),
    "predict": ("wavetable", "operators", "pm", "analysis"),
}
CALLED = {"synth": ("wavetable", "operators", "pm"), "verify": ("analysis",), "predict": ("bessel", "spectrum")}


class Session:
    """Runs jobs and counts the ones whose result differs from the reference."""

    def __init__(self, runner, refs):
        self.runner = runner
        self.refs = refs
        self.attempted = 0
        self.failures = []

    def run(self, job) -> float:
        code, elapsed, error = self.runner.run(job)
        self.record(job, code, error)
        return elapsed

    def record(self, job, code, error) -> None:
        reason = self.runner.check(job, code, error, self.refs.get(job.key))
        self.attempted += 1
        if reason is not None:
            self.failures.append({"argv": " ".join(job.argv), "reason": reason})

    def run_pass(self, jobs, tracer=None) -> list:
        times = []
        for job in jobs:
            if tracer is not None:
                tracer.job = self.attempted
            times.append(self.run(job))
        return times


def closed_loop(session, workload, seed, seconds) -> dict:
    """Whole passes until `seconds` have passed and MIN_JOBS jobs were timed.

    The metrics come from the slowest passes that together hold MIN_JOBS
    jobs and MIN_SAMPLE_S seconds of job time. The host of a small shared VM
    runs at a steady slow speed with faster bursts of varying length and
    speed; the slow passes repeat from run to run, the fast ones do not. The
    time floor keeps one stall in a short pass from deciding which passes
    count as slow. Every pass holds the same mix of strata, so the selected
    passes hold the workload's mix.
    """
    from workloads import batch

    passes = []
    start = time.perf_counter()
    while True:
        passes.append(session.run_pass(batch(workload, seed, len(passes))))
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds and sum(map(len, passes)) >= MIN_JOBS) or elapsed >= seconds + OVERRUN_S:
            break
    sample = []
    for times in sorted(passes, key=sum, reverse=True):
        sample += times
        if len(sample) >= MIN_JOBS and sum(sample) >= MIN_SAMPLE_S:
            break
    p90 = statistics.quantiles(sample, n=10)[8]
    return {
        "metrics": {
            "jobs_per_s": len(sample) / sum(sample),
            "job_ms_p50": 1e3 * statistics.median(sample),
            "job_ms_p90": 1e3 * p90,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
        "jobs": sum(map(len, passes)),
        "sampled_jobs": len(sample),
        "beyond_p90": sum(t > p90 for t in sample),
        "passes": len(passes),
        "pass_s": list(map(sum, passes)),
        "wall_s": time.perf_counter() - start,
    }


def traced_run(session, workload, seed, seconds, trace_dir) -> dict:
    """Pairs of passes over one batch, untraced then traced, until the time is up.

    Writes the traced passes' spans to `trace_dir/spans.csv` and their jobs'
    argv to `trace_dir/jobs.csv`.
    """
    from tracing import SPAN_HEADER, UNITS, Tracer, layer_calls, layer_metrics
    from workloads import batch

    jobs = batch(workload, seed, 0)
    tracer = Tracer()
    untraced, traced, per_pass = [], [], []
    calls = None
    start = time.perf_counter()
    trace_dir.mkdir(parents=True, exist_ok=True)
    with open(trace_dir / "spans.csv", "w") as spans, open(trace_dir / "jobs.csv", "w", newline="") as job_file:
        spans.write(SPAN_HEADER)
        job_rows = csv.writer(job_file)
        job_rows.writerow(["pass", "job", "argv"])
        while True:
            untraced.append(sum(session.run_pass(jobs)))
            first_job = session.attempted
            missing = tracer.install()
            try:
                traced.append(sum(session.run_pass(jobs, tracer)))
            finally:
                tracer.uninstall()
            job_rows.writerows([len(traced) - 1, first_job + k, " ".join(job.argv)] for k, job in enumerate(jobs))
            totals = tracer.totals()
            per_pass.append(layer_metrics(totals))
            calls = layer_calls(totals)
            tracer.write(spans, len(traced) - 1)
            tracer.clear()
            if time.perf_counter() - start >= seconds:
                break
    metrics = {name: statistics.median(p[name] for p in per_pass) for name in UNITS}
    metrics["trace_overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    violations = [f"{workload} called {layer} {calls[layer]} times" for layer in NOT_CALLED[workload] if calls[layer]]
    violations += [f"{workload} never called {layer}" for layer in CALLED[workload] if not calls[layer]]
    return {
        "metrics": metrics,
        "units": {**UNITS, "trace_overhead_s": "s"},
        "jobs": len(jobs),
        "passes": len(traced),
        "layer_calls": calls,
        "separation_violations": violations,
        "missing_entry_points": missing,
        "untraced_pass_s": untraced,
        "traced_pass_s": traced,
        "wall_s": time.perf_counter() - start,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--trace-dir", type=Path, help="directory for the traced run's spans and jobs")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "src"))

    start = time.perf_counter()
    import fmstack.cli  # noqa: F401  (set-up: the import itself is measured)

    import_s = time.perf_counter() - start
    import fmstack
    import numpy

    from runner import JobRunner, load_references
    from workloads import warmup_job

    runner = JobRunner(args.workdir)
    warmup = warmup_job(args.workload)
    code, warmup_s, error = runner.run(warmup)
    result = {"setup_s": import_s + warmup_s}
    if not args.setup_only:
        session = Session(runner, load_references(args.workload))
        session.record(warmup, code, error)
        if args.trace:
            result |= traced_run(session, args.workload, args.seed, args.seconds, args.trace_dir)
        else:
            result |= closed_loop(session, args.workload, args.seed, args.seconds)
        result |= {"attempted": session.attempted, "failures": session.failures}
    result |= {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "fmstack_path": str(Path(fmstack.__file__).parent),
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
