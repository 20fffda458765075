"""Runs jobs in-process through `fmstack.cli.main` and checks them against the references.

Import this module only after `fmstack.cli` is imported: the benchmark times
that import as part of set-up.
"""

import contextlib
import hashlib
import io
import json
import sys
import time
from pathlib import Path

import numpy as np

import fmstack.cli
from workloads import CHECK_BYTES, CHECK_LINES

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
LINE_TOLERANCE = 1e-9  # Hz for frequencies, absolute for amplitudes


def patch_everywhere(module_name: str, qualname: str, make_replacement) -> list:
    """Replace a function, in its module and in every fmstack module that imported it.

    `qualname` is `name` or `Class.method`; a method is replaced on its class.
    Returns (owner, attribute, original) triples for `unpatch`.
    """
    module = sys.modules[module_name]
    if "." in qualname:
        cls_name, attr = qualname.split(".")
        cls = getattr(module, cls_name)
        original = cls.__dict__[attr]
        setattr(cls, attr, make_replacement(original))
        return [(cls, attr, original)]
    original = getattr(module, qualname)
    replacement = make_replacement(original)
    undo = []
    for name, mod in list(sys.modules.items()):
        if name != "fmstack" and not name.startswith("fmstack."):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                undo.append((mod, attr, original))
    return undo


def unpatch(undo: list) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class JobRunner:
    """Runs one job at a time; the job's stdout and stderr go to an in-memory sink.

    The spectrum CSV writer is wrapped to keep the spectrum it was given, so
    predicted lines can be checked at full precision (the CSV holds 9 digits).
    """

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.sink = io.StringIO()
        self.captured = None
        patch_everywhere("fmstack.io_formats", "write_spectrum_csv", self._capturing)

    def _capturing(self, write):
        def write_spectrum_csv(path, spec):
            self.captured = spec
            return write(path, spec)

        return write_spectrum_csv

    def out_path(self, job) -> Path:
        return self.workdir / f"out{job.suffix}"

    def run(self, job):
        """Run a job; returns (exit code or None, wall seconds, error text or None)."""
        self.captured = None
        self.sink.seek(0)
        self.sink.truncate()
        argv = job.command(str(self.out_path(job)))
        error = None
        with contextlib.redirect_stdout(self.sink), contextlib.redirect_stderr(self.sink):
            start = time.perf_counter()
            try:
                code = fmstack.cli.main(argv)
            except SystemExit as exc:  # argparse reports usage errors this way
                code = exc.code
            except Exception as exc:  # a job that raises is a failed job, not a crash
                code, error = None, f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
        return code, elapsed, error

    def check(self, job, code, error, ref) -> str | None:
        """Reason the job failed against its reference, or None; removes its output."""
        out = self.out_path(job)
        try:
            if error is not None:
                return f"raised {error}"
            if ref is None:
                return "no reference result for this job"
            if code != ref["exit"]:
                return f"exit code {code}, reference {ref['exit']}"
            if ref["exit"] != 0:
                return None
            if job.check == CHECK_BYTES:
                if not out.is_file():
                    return "no output file"
                if file_digest(out) != ref["sha256"]:
                    return "output bytes differ from the reference"
            elif job.check == CHECK_LINES:
                return compare_lines(self.captured, ref["lines"])
            return None
        finally:
            out.unlink(missing_ok=True)


def compare_lines(spec, reference) -> str | None:
    if spec is None:
        return "no spectrum reached the CSV writer"
    freqs, amps = reference
    if len(spec.freqs) != len(freqs):
        return f"{len(spec.freqs)} predicted lines, reference {len(freqs)}"
    df = float(np.max(np.abs(spec.freqs - freqs), initial=0.0))
    da = float(np.max(np.abs(spec.amps - amps), initial=0.0))
    if df > LINE_TOLERANCE or da > LINE_TOLERANCE:
        return f"predicted lines differ from the reference by {df:.3g} Hz, {da:.3g} in amplitude"
    return None


def reference_paths(workload: str) -> tuple:
    return REFERENCE_DIR / f"{workload}.json", REFERENCE_DIR / f"{workload}-lines.npz"


def load_references(workload: str) -> dict:
    """Job key -> {"exit", "sha256" or "lines"} as recorded by record.py."""
    meta_path, lines_path = reference_paths(workload)
    refs = json.loads(meta_path.read_text())["jobs"]
    if lines_path.is_file():
        with np.load(lines_path) as lines:
            for key in lines.files:
                refs[key]["lines"] = (lines[key][0], lines[key][1])
    return refs
