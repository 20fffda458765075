"""Replay the benchmark's verify and predict catalogs against their recorded outputs.

`perfbench/workloads.py` generates the jobs and `perfbench/reference/` holds
what each job produced when the references were recorded: the exit code, the
sha256 of measured spectrum CSVs, and predicted lines at full precision. Any
change to an output byte or a predicted line fails here, not only in the
benchmark. Both are read, never written.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

import fmstack.cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["verify", "predict"])
def test_catalog_reproduces_references(workload, tmp_path, monkeypatch, capsys):
    workloads = _workloads()
    refs = json.loads((PERFBENCH / "reference" / f"{workload}.json").read_text())["jobs"]
    with np.load(PERFBENCH / "reference" / f"{workload}-lines.npz") as npz:
        lines = {key: npz[key] for key in npz.files}

    captured = []
    write = fmstack.cli.write_spectrum_csv

    def capturing(path, spec):
        captured.append(spec)
        return write(path, spec)

    monkeypatch.setattr(fmstack.cli, "write_spectrum_csv", capturing)
    jobs = workloads.all_jobs(workload)
    mismatches = []
    for job in jobs:
        ref = refs[job.key]
        out = tmp_path / f"out{job.suffix}"
        captured.clear()
        code = fmstack.cli.main(job.command(str(out)))
        capsys.readouterr()
        argv = " ".join(job.argv)
        if code != ref["exit"]:
            mismatches.append(f"{argv}: exit {code}, reference {ref['exit']}")
        elif code == 0 and job.check == workloads.CHECK_BYTES:
            if hashlib.sha256(out.read_bytes()).hexdigest() != ref["sha256"]:
                mismatches.append(f"{argv}: output bytes differ")
        elif code == 0 and job.check == workloads.CHECK_LINES:
            (spec,) = captured
            if not np.array_equal(np.stack([spec.freqs, spec.amps]), lines[job.key]):
                mismatches.append(f"{argv}: predicted lines differ")
        out.unlink(missing_ok=True)
    assert len(jobs) == len(refs)
    assert mismatches == []
