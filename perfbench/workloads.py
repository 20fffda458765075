"""Seeded job generators for the `synth`, `verify` and `predict` workloads.

A job is an argv for `fmstack.cli.main`. Job parameters come from a fixed
catalog: each workload is a list of strata (a topology, size and sample rate
that fix the cost of a job) and each stratum holds a few variants (the
frequencies and indices, drawn once from a fixed catalog seed). Every catalog
job has a reference result in `reference/`, recorded by `record.py`.

The workload seed only picks variants and orders the jobs: pass `i` of seed `s`
takes `take` variants per stratum, with replacement, and shuffles them. Any
seed therefore runs only jobs that have a reference, and every pass has the
same mix of strata, so passes of different seeds cost about the same.

Nothing here imports numpy or fmstack.
"""

import functools
import hashlib
import json
import random
from dataclasses import dataclass

OUT = "{out}"  # placeholder for the job's output path
VARIANTS = 3  # catalog variants per stratum
WORKLOADS = ("synth", "verify", "predict")

# what the checker compares against the reference, besides the exit code
CHECK_EXIT = "exit"  # exit code only (compare, drift-demo)
CHECK_BYTES = "bytes"  # exit code and sha256 of the output file (WAV, measured CSV)
CHECK_LINES = "lines"  # exit code and predicted lines within 1e-9 (predicted CSV)


@dataclass(frozen=True)
class Job:
    argv: tuple
    check: str
    suffix: str = ""  # output file suffix, "" when the job writes no file

    @property
    def key(self) -> str:
        """Stable id: digest of the argv with the output path left as a placeholder."""
        return hashlib.sha1(json.dumps(self.argv).encode()).hexdigest()[:16]

    def command(self, out_path: str) -> list:
        return [out_path if a == OUT else a for a in self.argv]


@dataclass(frozen=True)
class Stratum:
    take: int  # variants drawn per pass
    variants: tuple  # each variant is a tuple of jobs


def _num(x) -> str:
    return f"{x:.10g}"


def _ops(pairs) -> list:
    out = []
    for amp, freq in pairs:
        out += ["--op", f"{_num(amp)}:{_num(freq)}"]
    return out


def _render(topology, pairs, sr, dur, bits, gain=None) -> Job:
    argv = ["render", "--topology", topology, *_ops(pairs), "--sr", _num(sr), "--dur", _num(dur)]
    if gain is not None:
        argv += ["--feedback-gain", _num(gain)]
    argv += ["--bits", str(bits), "--out", OUT]
    return Job(tuple(argv), CHECK_BYTES, ".wav")


def _predicted(topology, pairs) -> Job:
    argv = ["spectrum", "--topology", topology, *_ops(pairs), "--mode", "predicted", "--out", OUT]
    return Job(tuple(argv), CHECK_LINES, ".csv")


# --- synth: render jobs over all six topologies --------------------------------
# (topology, operators, sample rate, seconds, bits, take). Stacks keep the
# modulation index <= 1 past depth 3, so the compounded deviation of a
# corrected depth-8 stack stays below the sample rate. The takes put the
# median and p90 jobs inside blocks of similar renders, not in the gap between
# two strata: 13 jobs a pass cost less than the README's render (3 operators,
# 1 s at 48 kHz, four times a pass), 13 cost more, and the depth-8 1 s render
# (four times a pass) sits around p90.
_SYNTH = (
    ("fm-stack", 1, 48000, 0.05, 16, 1),
    ("fm-stack", 2, 48000, 0.25, 32, 1),
    ("fm-stack", 3, 48000, 1.0, 32, 4),
    ("fm-stack", 3, 96000, 0.5, 16, 1),
    ("fm-stack", 4, 96000, 0.25, 32, 1),
    ("fm-stack", 5, 48000, 0.5, 16, 1),
    ("fm-stack", 6, 96000, 0.1, 32, 1),
    ("fm-stack", 8, 48000, 1.0, 16, 4),
    ("fm-stack", 8, 96000, 0.5, 32, 1),
    ("fm-stack", 2, 48000, 3.0, 16, 1),
    ("fm-stack", 4, 96000, 2.0, 32, 1),
    ("fm-stack-naive", 1, 96000, 0.05, 32, 1),
    ("fm-stack-naive", 3, 48000, 0.5, 16, 1),
    ("fm-stack-naive", 7, 48000, 0.25, 32, 1),
    ("fm-stack-naive", 8, 96000, 0.25, 16, 1),
    ("fm-stack-naive", 2, 96000, 1.0, 32, 1),
    ("pm1", 2, 48000, 1.0, 16, 1),
    ("pm1", 2, 96000, 3.0, 32, 1),
    ("pm2", 3, 48000, 0.5, 32, 1),
    ("pm2", 3, 96000, 2.0, 16, 1),
    ("fm-feedback", 1, 48000, 0.25, 16, 1),
    ("fm-feedback", 1, 96000, 0.5, 32, 1),
    ("fm-feedback", 1, 48000, 2.0, 16, 1),
    ("pm-feedback", 1, 48000, 1.0, 32, 1),
    ("pm-feedback", 1, 96000, 3.0, 16, 1),
)


def _synth_job(rng, topology, n_ops, sr, dur, bits) -> Job:
    amp = round(rng.uniform(0.5, 1.0), 3)
    carrier = round(rng.uniform(200.0, 1000.0), 1)
    if topology in ("fm-feedback", "pm-feedback"):
        gain = round(rng.uniform(0.1, 1.0), 3)
        return _render(topology, [(amp, carrier)], sr, dur, bits, gain)
    z_max = 2.5 if n_ops <= 3 else 1.0
    mods = [(round(rng.uniform(0.2, z_max), 3), round(rng.uniform(100.0, 1200.0), 1)) for _ in range(n_ops - 1)]
    return _render(topology, mods + [(amp, carrier)], sr, dur, bits)


# --- verify: the paper's checks on commensurate patches at 96 kHz -------------
# (grid Hz, seconds). As in the paper's second-order example, all three
# operators share one frequency, the grid or twice it; with these indices the
# corrected stack passes `compare` and `drift-demo` while the naive one drifts.
_VERIFY = tuple((grid, dur) for grid in (250, 500) for dur in (0.064, 0.128, 0.192, 0.25))


def _verify_jobs(rng, grid, dur) -> tuple:
    freq = grid * rng.randint(1, 2)
    pairs = [(round(rng.uniform(0.5, 2.5), 2), freq), (round(rng.uniform(0.5, 1.8), 2), freq), (1.0, freq)]
    ops = _ops(pairs)
    timing = ["--sr", "96000", "--dur", _num(dur)]
    compare = ["compare", "--topology-a", "fm-stack", "--topology-b", "pm2", *ops, *timing,
               "--tolerance-db", "1", "--floor-db", "-60"]
    drift = [*ops, *timing, "--grid-hz", str(grid), "--tolerance-hz", "1"]
    measured = ["spectrum", "--topology", "fm-stack", *ops, *timing, "--grid-hz", str(grid),
                "--mode", "measured", "--out", OUT]
    return (
        Job(tuple(compare), CHECK_EXIT),
        Job(("drift-demo", "--topology", "fm-stack", *drift), CHECK_EXIT),
        Job(("drift-demo", "--topology", "fm-stack-naive", *drift), CHECK_EXIT),
        Job(tuple(measured), CHECK_BYTES, ".csv"),
        _predicted(rng.choice(("fm-stack", "pm2")), pairs),
    )


# --- predict: analytic spectra of incommensurate patches ----------------------
# (topology, operators, index range of the upper modulator, index range of the
# lower one, take). Frequencies carry three decimals, so their ratios are
# incommensurate and no sidebands merge. First-order and single-operator
# patches are 18 of the 30 jobs a pass, so the median job is a cheap one with
# a margin of a tenth of the jobs; the second-order patches make up the tail
# from p60 up, and the four high-index ones hold p90.
_PREDICT = (
    ("pm1", 2, None, (0.5, 8.0), 8),
    ("fm-stack", 1, None, None, 2),
    ("fm-stack", 2, None, (0.5, 8.0), 8),
    ("pm2", 3, (0.5, 2.0), (0.5, 2.0), 2),
    ("pm2", 3, (2.0, 4.0), (2.0, 4.0), 2),
    ("pm2", 3, (5.0, 8.0), (1.0, 3.0), 2),
    ("fm-stack", 3, (0.5, 2.0), (0.5, 2.0), 2),
    ("fm-stack", 3, (2.0, 4.0), (2.0, 4.0), 2),
    ("fm-stack", 3, (1.0, 3.0), (5.0, 8.0), 2),
)


def _predict_job(rng, topology, n_ops, upper, lower) -> Job:
    pairs = [(round(rng.uniform(0.5, 1.0), 3), round(rng.uniform(200.0, 2000.0), 3))]
    if n_ops >= 2:
        pairs.insert(0, (round(rng.uniform(*lower), 3), round(rng.uniform(100.0, 1500.0), 3)))
    if n_ops == 3:
        pairs.insert(0, (round(rng.uniform(*upper), 3), round(rng.uniform(100.0, 1500.0), 3)))
    return _predicted(topology, pairs)


@functools.cache
def catalog(workload: str) -> tuple:
    """The workload's strata; identical on every call."""
    rng = random.Random(f"fmstack-perfbench-catalog:{workload}")
    strata = []
    if workload == "synth":
        for topology, n_ops, sr, dur, bits, take in _SYNTH:
            variants = tuple((_synth_job(rng, topology, n_ops, sr, dur, bits),) for _ in range(VARIANTS))
            strata.append(Stratum(take, variants))
    elif workload == "verify":
        for grid, dur in _VERIFY:
            variants = tuple(_verify_jobs(rng, grid, dur) for _ in range(VARIANTS))
            strata.append(Stratum(1, variants))
    elif workload == "predict":
        for topology, n_ops, upper, lower, take in _PREDICT:
            variants = tuple((_predict_job(rng, topology, n_ops, upper, lower),) for _ in range(VARIANTS))
            strata.append(Stratum(take, variants))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return tuple(strata)


def warmup_job(workload: str) -> Job:
    """The set-up job: the first job of the catalog's first stratum."""
    return catalog(workload)[0].variants[0][0]


def batch(workload: str, seed: int, index: int) -> list:
    """Jobs of pass `index` under `seed`: `take` variants per stratum, shuffled."""
    rng = random.Random(f"fmstack-perfbench:{workload}:{seed}:{index}")
    jobs = []
    for stratum in catalog(workload):
        for _ in range(stratum.take):
            jobs.extend(stratum.variants[rng.randrange(len(stratum.variants))])
    rng.shuffle(jobs)
    return jobs


def all_jobs(workload: str) -> list:
    """Every catalog job once, in catalog order."""
    return [job for stratum in catalog(workload) for variant in stratum.variants for job in variant]
