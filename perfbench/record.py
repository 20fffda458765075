"""Record the reference result of every catalog job at the current commit.

    python3 perfbench/record.py

Writes `perfbench/reference/<workload>.json` (argv, exit code and output
digest per job) and `<workload>-lines.npz` (predicted lines at full
precision). Run it only at a commit whose outputs are the ones every later
commit must reproduce; the benchmark counts any difference as a failed job.
"""

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import fmstack  # noqa: E402
from runner import REFERENCE_DIR, JobRunner, file_digest, reference_paths  # noqa: E402
from workloads import CHECK_BYTES, CHECK_LINES, WORKLOADS, all_jobs  # noqa: E402


def record(workload: str, runner: JobRunner) -> None:
    jobs, lines = {}, {}
    exits = {}
    for job in all_jobs(workload):
        code, _, error = runner.run(job)
        if error is not None:
            raise SystemExit(f"{workload}: {' '.join(job.argv)} raised {error}")
        entry = {"argv": list(job.argv), "exit": code}
        out = runner.out_path(job)
        if code == 0 and job.check == CHECK_BYTES:
            entry["sha256"] = file_digest(out)
        if code == 0 and job.check == CHECK_LINES:
            spec = runner.captured
            lines[job.key] = np.stack([spec.freqs, spec.amps])
            entry["lines"] = len(spec.freqs)
        out.unlink(missing_ok=True)
        jobs[job.key] = entry
        exits[(job.argv[0], code)] = exits.get((job.argv[0], code), 0) + 1
    meta_path, lines_path = reference_paths(workload)
    doc = {"fmstack_version": fmstack.__version__, "numpy_version": np.__version__, "jobs": jobs}
    meta_path.write_text(json.dumps(doc, indent=1) + "\n")
    if lines:
        np.savez_compressed(lines_path, **lines)
    summary = ", ".join(f"{cmd} exit {code}: {n}" for (cmd, code), n in sorted(exits.items()))
    print(f"{workload}: {len(jobs)} jobs ({summary})")


def main() -> None:
    REFERENCE_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        runner = JobRunner(Path(tmp))
        for workload in WORKLOADS:
            record(workload, runner)


if __name__ == "__main__":
    main()
