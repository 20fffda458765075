"""fmstack benchmark: seeded closed-loop batches of CLI jobs, one workload per fresh process.

    python3 perfbench/run.py --workload synth|verify|predict|all [--seed N] [--seconds S] [--trace 0|1]

With --trace 0 it prints the end-to-end metrics, with --trace 1 the per-layer
metrics of a traced run. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"  # job outputs while running; results and traces afterwards
SETUP_PROBES = 5  # extra fresh processes that only set up; setup_s is the median
TIME_LIMIT_S = 170.0  # the whole run, probes included

# one thread for numpy's BLAS/OpenMP back ends, whichever is present
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_ms_p50": "ms",
    "job_ms_p90": "ms",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}


class BenchError(Exception):
    pass


def run_worker(args: list, deadline: float) -> dict:
    env = {**os.environ, **PINNED_ENV}
    env.pop("PYTHONPATH", None)  # the worker puts this checkout's src/ first itself
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out after {exc.timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def _read(path: Path) -> str:
    try:
        return path.read_text().strip()
    except OSError:
        return "unknown"


def provenance(worker: dict, workload: str, seed: int, trace: int) -> dict:
    cpu_model = "unknown"
    for line in _read(Path("/proc/cpuinfo")).splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(index / "size")
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "fmstack").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "python": worker["python"],
        "numpy": worker["numpy"],
        "fmstack_path": worker["fmstack_path"],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "caches": caches,
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "jobs": worker["jobs"],
        "attempted": worker["attempted"],
        "passes": worker["passes"],
        "thread_env": PINNED_ENV,
        "platform": platform.platform(),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    try:
        common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--workdir", str(workdir)]
        setups = []
        if trace:
            common += ["--trace", "1", "--trace-dir", str(OUT_DIR / f"trace-{workload}")]
        else:
            setups = [run_worker([*common, "--setup-only"], deadline)["setup_s"] for _ in range(SETUP_PROBES)]
        worker = run_worker(common, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(worker["failures"])
    attempted = worker["attempted"]
    metrics = dict(worker["metrics"])
    if trace:
        units = worker["units"]
        correct = failed == 0 and not worker["separation_violations"]
    else:
        setups.append(worker["setup_s"])
        metrics["setup_s"] = statistics.median(setups)
        metrics["ok_ratio"] = 1.0 - failed / attempted
        units = END_TO_END_UNITS
        correct = failed == 0
    report = {
        "workload": workload,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        "provenance": provenance(worker, workload, seed, trace),
        "failures": worker["failures"][:20],
        "detail": {k: v for k, v in worker.items() if k not in ("metrics", "units", "failures")} | {"setup_probes_s": setups},
    }
    results = OUT_DIR / "results"
    results.mkdir(exist_ok=True)
    (results / f"{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(report, indent=1) + "\n")
    return report


def print_report(report: dict) -> None:
    detail = report["detail"]
    head = f"{report['workload']}: {report['attempted']} jobs attempted, {report['failed']} failed"
    if "beyond_p90" in detail:
        head += (
            f"; {detail['jobs']} timed jobs in {detail['passes']} passes;"
            f" metrics from the slowest passes: {detail['sampled_jobs']} jobs, {detail['beyond_p90']} beyond p90"
        )
    else:
        head += f"; {detail['passes']} traced passes of {detail['jobs']} jobs"
    print(head)
    for name, m in report["metrics"].items():
        print(f"  {name:28s} {m['value']:14.6f} {m['unit']}")
    print(f"  {'fail_ratio':28s} {report['failed'] / report['attempted']:14.6f} failed/attempted")
    for failure in report["failures"]:
        print(f"  FAILED {failure['reason']}: {failure['argv']}")
    for violation in detail.get("separation_violations", []):
        print(f"  LAYER SEPARATION VIOLATED: {violation}")
    for name in detail.get("missing_entry_points", []):
        print(f"  NOT TRACED (no such entry point): {name}")
    print("provenance " + json.dumps(report["provenance"]))


def main() -> int:
    # SIGTERM unwinds like an exception, so subprocess.run kills the running
    # worker and the work directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "fmstack" / "cli.py").is_file():
        print(f"error: no fmstack sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    reports = []
    for workload in workloads:
        try:
            reports.append(run_workload(workload, args.seed, args.seconds, args.trace))
        except BenchError as exc:
            print(f"error: {workload}: {exc}", file=sys.stderr)
            return 1
        print_report(reports[-1])
    if len(reports) == 1:
        metrics = reports[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{name}": m for r in reports for name, m in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
