"""Command-line front end: render patches to WAV, export spectra, run checks.

Exit codes: 0 success / within tolerance, 1 tolerance exceeded, 2 usage
error, 3 runtime or instability error. Outputs are written only after the
computation finished, so a failing run leaves no partial files.
"""

import argparse
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .analysis import (
    MIN_PERIODS,
    AnalysisFrame,
    detect_carrier_drift,
    measure_spectrum,
)
from .io_formats import WavSpec, write_spectrum_csv, write_wav
from .operators import (
    InstabilityError,
    render_feedback_fm,
    render_naive_stack,
    render_stack,
)
from .pm import PMParams, render_feedback_pm, render_pm1, render_pm2
from .spectrum import (
    BudgetExceededError,
    LineSpectrum,
    predict_first_order,
    predict_second_order,
)

TOPOLOGIES = ("fm-stack", "fm-stack-naive", "pm1", "pm2", "fm-feedback", "pm-feedback")
_ARITY = {"pm1": (2, 2), "pm2": (3, 3), "fm-feedback": (1, 1), "pm-feedback": (1, 1)}


class UsageError(Exception):
    pass


@dataclass
class PatchSpec:
    """A renderable patch: topology plus (amp_or_index, freq_hz) pairs, top to bottom."""

    topology: str
    operators: list[tuple[float, float]]
    feedback_gain: float = 0.0
    sample_rate: float = 48000.0
    duration: float = 1.0

    def __post_init__(self):
        if self.topology not in TOPOLOGIES:
            raise UsageError(f"unknown topology {self.topology!r} (choose from {', '.join(TOPOLOGIES)})")
        lo, hi = _ARITY.get(self.topology, (1, 64))
        if not lo <= len(self.operators) <= hi:
            raise UsageError(
                f"topology {self.topology} takes {lo} operator(s)"
                + (f" to {hi}" if hi != lo else "")
                + f", got {len(self.operators)}"
            )
        self.operators = [(float(a), float(f)) for a, f in self.operators]
        values = [v for op in self.operators for v in op] + [self.feedback_gain, self.sample_rate, self.duration]
        if not all(math.isfinite(v) for v in values):
            raise UsageError("operator values, feedback gain, sample rate and duration must be finite")
        if self.sample_rate <= 0 or self.duration <= 0:
            raise UsageError("sample rate and duration must be positive")
        if self.n_samples < 1:
            raise UsageError(f"duration {self.duration:g} s rounds to 0 samples at {self.sample_rate:g} Hz")

    @classmethod
    def from_json(cls, text: str) -> "PatchSpec":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise UsageError(f"bad patch JSON: {exc}") from exc
        if not isinstance(doc, dict) or "topology" not in doc or "operators" not in doc:
            raise UsageError("patch JSON needs at least 'topology' and 'operators'")
        known = {"topology", "operators", "feedback_gain", "sample_rate", "duration"}
        extra = set(doc) - known
        if extra:
            raise UsageError(f"unknown patch keys: {', '.join(sorted(extra))}")
        return cls(
            topology=doc["topology"],
            operators=[tuple(op) for op in doc["operators"]],
            feedback_gain=doc.get("feedback_gain", 0.0),
            sample_rate=doc.get("sample_rate", 48000.0),
            duration=doc.get("duration", 1.0),
        )

    @property
    def n_samples(self) -> int:
        return round(self.duration * self.sample_rate)


def render_patch(patch: PatchSpec) -> np.ndarray:
    """Render the audio signal of a patch with the matching engine."""
    n = patch.n_samples
    sr = patch.sample_rate
    ops = patch.operators
    if patch.topology == "fm-stack":
        return render_stack(ops, n, sr).audio
    if patch.topology == "fm-stack-naive":
        return render_naive_stack(ops, n, sr).audio
    if patch.topology == "pm1":
        (z, fm), (amp, fc) = ops
        return amp * render_pm1(PMParams(fc, [fm], [z], sr), n)
    if patch.topology == "pm2":
        (z0, fm0), (z1, fm1), (amp, fc) = ops
        return amp * render_pm2(PMParams(fc, [fm0, fm1], [z0, z1], sr), n)
    if patch.topology == "fm-feedback":
        ((amp, f),) = ops
        return render_feedback_fm(amp, f, patch.feedback_gain, n, sr).audio
    ((amp, f),) = ops
    return render_feedback_pm(amp, f, patch.feedback_gain, n, sr)


def predict_patch(patch: PatchSpec) -> LineSpectrum:
    """Analytic line spectrum for first/second-order patches."""
    ops = patch.operators
    if patch.topology in ("pm1", "fm-stack", "pm2") and len(ops) == 1:
        ((amp, fc),) = ops
        return LineSpectrum(np.array([fc]), np.array([amp]))
    if patch.topology == "pm1" or (patch.topology == "fm-stack" and len(ops) == 2):
        (z, fm), (amp, fc) = ops
        return predict_first_order(fc, fm, z).scaled(amp)
    if patch.topology == "pm2" or (patch.topology == "fm-stack" and len(ops) == 3):
        (z0, fm0), (z1, fm1), (amp, fc) = ops
        return predict_second_order(fc, fm0, fm1, z0, z1).scaled(amp)
    raise UsageError(f"no analytic prediction for topology {patch.topology} with {len(ops)} operators")


def _grid_hz(patches: list[PatchSpec]) -> float:
    """gcd of all operator frequencies, on values rounded to 1e-6 Hz."""
    micro = [round(f * 1e6) for p in patches for _, f in p.operators if f > 0]
    if not micro:
        raise UsageError("patch has no positive frequencies to build a grid from")
    return math.gcd(*micro) / 1e6


def _measure_patch(patch: PatchSpec, grid_hz: float | None, window: str):
    signal = render_patch(patch)
    grid = grid_hz if grid_hz else _grid_hz([patch])
    spp = patch.sample_rate / grid
    if abs(spp - round(spp)) > 1e-6 * spp or len(signal) < round(spp) * MIN_PERIODS:
        # non-commensurate grid (or too few periods): fall back to a Hann
        # window on a synthetic grid of MIN_PERIODS segments
        spp = len(signal) // MIN_PERIODS
        if spp < 2:
            raise UsageError("duration too short to analyze; increase --dur")
        grid = patch.sample_rate / spp
        window = "hann"
    frame = AnalysisFrame.from_signal(signal, patch.sample_rate, grid)
    return measure_spectrum(frame, window), grid


def _parse_op(text: str) -> tuple[float, float]:
    try:
        amp, freq = text.split(":")
        return float(amp), float(freq)
    except ValueError as exc:
        raise UsageError(f"bad --op {text!r}, expected AMP:FREQ") from exc


def _patch_from_args(args, suffix="") -> PatchSpec:
    patch_json = getattr(args, "patch" + suffix, None)
    if patch_json:
        if patch_json.lstrip().startswith("{"):
            return PatchSpec.from_json(patch_json)
        with open(patch_json) as fh:
            return PatchSpec.from_json(fh.read())
    topology = getattr(args, "topology" + suffix, None)
    if topology is None:
        raise UsageError(f"need --topology{suffix.replace('_', '-')} or --patch{suffix.replace('_', '-')}")
    if not args.op:
        raise UsageError("need at least one --op AMP:FREQ")
    return PatchSpec(
        topology=topology,
        operators=[_parse_op(op) for op in args.op],
        feedback_gain=args.feedback_gain,
        sample_rate=args.sr,
        duration=args.dur,
    )


def cmd_render(args) -> int:
    patch = _patch_from_args(args)
    signal = render_patch(patch)
    write_wav(args.out, signal, WavSpec(round(patch.sample_rate), args.bits))
    print(f"wrote {args.out}: {len(signal)} samples at {patch.sample_rate:g} Hz")
    return 0


def cmd_spectrum(args) -> int:
    patch = _patch_from_args(args)
    if args.mode == "predicted":
        spec = predict_patch(patch)
    else:
        spec, _ = _measure_patch(patch, args.grid_hz, args.window)
    write_spectrum_csv(args.out, spec)
    n = len(spec.freqs)
    print(f"wrote {args.out}: {n} rows ({args.mode})")
    return 0


def _line_mags(patch: PatchSpec, grid: float, periods: int) -> np.ndarray:
    """Magnitudes at harmonic-grid lines over the first `periods` grid periods.

    Hann-windowed: exact for bin-centered lines, robust against the slight
    off-grid smear of discretely integrated FM partials.
    """
    signal = render_patch(patch)
    spp = patch.sample_rate / grid
    if abs(spp - round(spp)) > 1e-6 * spp:
        raise UsageError(f"grid {grid:g} Hz does not divide the sample rate")
    if len(signal) < round(spp) * periods:
        raise UsageError(f"need at least {periods} grid periods; increase --dur")
    frame = AnalysisFrame.from_signal(signal, patch.sample_rate, grid, periods)
    return measure_spectrum(frame, "hann").mags[::periods]


def cmd_compare(args) -> int:
    patch_a = _patch_from_args(args, "_a")
    patch_b = _patch_from_args(args, "_b")
    if patch_a.sample_rate != patch_b.sample_rate or patch_a.duration != patch_b.duration:
        raise UsageError("compared patches must share sample rate and duration")
    grid = args.grid_hz if args.grid_hz else _grid_hz([patch_a, patch_b])
    lines_a = _line_mags(patch_a, grid, MIN_PERIODS)
    lines_b = _line_mags(patch_b, grid, MIN_PERIODS)
    ref = max(lines_a.max(), lines_b.max())
    floor = ref * 10.0 ** (args.floor_db / 20.0)
    active = (lines_a > floor) | (lines_b > floor)
    with np.errstate(divide="ignore"):
        diff_db = np.abs(
            20.0 * np.log10(np.maximum(lines_a, 1e-300))
            - 20.0 * np.log10(np.maximum(lines_b, 1e-300))
        )
    max_diff = float(diff_db[active].max()) if active.any() else 0.0
    ok = max_diff <= args.tolerance_db
    print(
        f"compare: max line difference {max_diff:.3f} dB over {int(active.sum())} lines "
        f"above {args.floor_db:g} dB floor (tolerance {args.tolerance_db:g} dB) -> "
        + ("PASS" if ok else "FAIL")
    )
    return 0 if ok else 1


def cmd_drift_demo(args) -> int:
    patch = _patch_from_args(args)
    if patch.topology not in ("fm-stack", "fm-stack-naive"):
        raise UsageError("drift-demo expects an fm-stack or fm-stack-naive patch")
    grid = args.grid_hz if args.grid_hz else _grid_hz([patch])
    spec, grid = _measure_patch(patch, grid, args.window)
    max_offset, offenders = detect_carrier_drift(spec, grid, args.tolerance_hz)
    ok = max_offset <= args.tolerance_hz
    print(
        f"drift: max offset {max_offset:.3f} Hz from the {grid:g} Hz grid, "
        f"{len(offenders)} peak(s) past {args.tolerance_hz:g} Hz -> "
        + ("PASS" if ok else "FAIL")
    )
    return 0 if ok else 1


def _add_patch_flags(sub, compare=False):
    if compare:
        sub.add_argument("--topology-a", dest="topology_a", choices=TOPOLOGIES)
        sub.add_argument("--topology-b", dest="topology_b", choices=TOPOLOGIES)
        sub.add_argument("--patch-a", dest="patch_a", help="patch JSON text or file")
        sub.add_argument("--patch-b", dest="patch_b", help="patch JSON text or file")
    else:
        sub.add_argument("--topology", choices=TOPOLOGIES)
        sub.add_argument("--patch", help="patch JSON text or file")
    sub.add_argument("--op", action="append", default=[], metavar="AMP:FREQ",
                     help="operator, repeatable, top of the stack first")
    sub.add_argument("--feedback-gain", type=float, default=0.0)
    sub.add_argument("--sr", type=float, default=48000.0)
    sub.add_argument("--dur", type=float, default=1.0, help="seconds")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fmstack", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("render", help="render a patch to a WAV file")
    _add_patch_flags(p)
    p.add_argument("--out", required=True)
    p.add_argument("--bits", type=int, choices=(16, 32), default=32)
    p.set_defaults(func=cmd_render)

    p = subs.add_parser("spectrum", help="export a measured or predicted spectrum CSV")
    _add_patch_flags(p)
    p.add_argument("--mode", choices=("measured", "predicted"), default="measured")
    p.add_argument("--window", choices=("rectangular", "hann"), default="rectangular")
    p.add_argument("--grid-hz", type=float, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_spectrum)

    p = subs.add_parser("compare", help="compare the spectra of two patches line by line")
    _add_patch_flags(p, compare=True)
    p.add_argument("--tolerance-db", type=float, default=1.0)
    p.add_argument("--floor-db", type=float, default=-60.0)
    p.add_argument("--grid-hz", type=float, default=None)
    p.set_defaults(func=cmd_compare)

    p = subs.add_parser("drift-demo", help="measure partial-peak drift against a harmonic grid")
    _add_patch_flags(p)
    p.add_argument("--grid-hz", type=float, default=None)
    p.add_argument("--tolerance-hz", type=float, default=1.0)
    p.add_argument("--window", choices=("rectangular", "hann"), default="rectangular")
    p.set_defaults(func=cmd_drift_demo)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InstabilityError, BudgetExceededError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
