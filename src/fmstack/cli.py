"""Command-line front end: render patches to WAV, export spectra, run checks.

Exit codes: 0 success / within tolerance, 1 tolerance exceeded, 2 usage
error, 3 runtime or instability error. A failing run leaves no output file
and leaves an existing one as it was: `render` and `spectrum` write their
WAV or CSV into a temporary file beside --out and atomically replace --out
with it (a symlink's target) once the whole file is written. An --out that
exists and is not a regular file, such as a FIFO or /dev/stdout on a pipe,
is written straight into instead, and the summary line goes to standard
error, so the stream holds only the file's bytes.
"""

import argparse
import functools
import json
import math
import os
import sys
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .analysis import (
    MIN_PERIODS,
    AnalysisFrame,
    detect_carrier_drift,
    measure_spectrum,
    samples_per_period,
)
from .io_formats import WavSpec, wav_sink, write_spectrum_csv
from .operators import (
    InstabilityError,
    Sink,
    render_feedback_fm,
    render_naive_stack,
    render_stack,
)
from .pm import render_feedback_pm, render_pm_chain
from .spectrum import BudgetExceededError, LineSpectrum, predict_stack

_MAX_SAMPLES = (2**32 - 1 - 36) // 4  # 32-bit float samples a RIFF file's size field can hold


class UsageError(Exception):
    pass


def _json_number(value, what: str) -> float:
    # bool is an int subclass, yet `true` is no duration; an integer past the
    # double range overflows in float()
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise UsageError(f"patch {what} must be a number, got {json.dumps(value)}")
    try:
        return float(value)
    except OverflowError as exc:
        raise UsageError(f"patch {what} is out of range") from exc


@dataclass
class PatchSpec:
    """A renderable patch: topology plus (amp_or_index, freq_hz) pairs, top to bottom."""

    topology: str
    operators: list[tuple[float, float]]
    feedback_gain: float = 0.0
    sample_rate: float = 48000.0
    duration: float = 1.0

    def __post_init__(self):
        if not isinstance(self.topology, str) or self.topology not in TOPOLOGIES:
            raise UsageError(f"unknown topology {self.topology!r} (choose from {', '.join(TOPOLOGIES)})")
        lo, hi = TOPOLOGIES[self.topology].arity
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
        if self.feedback_gain and self.topology not in ("fm-feedback", "pm-feedback"):
            raise UsageError(f"topology {self.topology} has no feedback loop; its feedback gain must be 0")
        if self.sample_rate <= 0 or self.duration <= 0:
            raise UsageError("sample rate and duration must be positive")
        length = self.duration * self.sample_rate
        if not (math.isfinite(length) and round(length) <= _MAX_SAMPLES):
            raise UsageError(
                f"duration {self.duration:g} s at {self.sample_rate:g} Hz is more than "
                f"the {_MAX_SAMPLES} samples a WAV file can hold"
            )
        if self.n_samples < 1:
            raise UsageError(f"duration {self.duration:g} s rounds to 0 samples at {self.sample_rate:g} Hz")

    @classmethod
    def from_json(cls, text: str) -> "PatchSpec":
        try:
            doc = json.loads(text)
        except ValueError as exc:  # JSONDecodeError, or an integer too long to convert
            raise UsageError(f"bad patch JSON: {exc}") from exc
        if not isinstance(doc, dict) or "topology" not in doc or "operators" not in doc:
            raise UsageError("patch JSON needs at least 'topology' and 'operators'")
        known = {"topology", "operators", "feedback_gain", "sample_rate", "duration"}
        extra = set(doc) - known
        if extra:
            raise UsageError(f"unknown patch keys: {', '.join(sorted(extra))}")
        ops = doc["operators"]
        if not isinstance(ops, list) or not all(isinstance(op, list) and len(op) == 2 for op in ops):
            raise UsageError("patch 'operators' must be a list of [amp, freq] pairs")
        return cls(
            topology=doc["topology"],
            operators=[(_json_number(a, "operator value"), _json_number(f, "operator value")) for a, f in ops],
            feedback_gain=_json_number(doc.get("feedback_gain", 0.0), "feedback_gain"),
            sample_rate=_json_number(doc.get("sample_rate", 48000.0), "sample_rate"),
            duration=_json_number(doc.get("duration", 1.0), "duration"),
        )

    @property
    def n_samples(self) -> int:
        return round(self.duration * self.sample_rate)


def _render_pm(patch: PatchSpec, n_samples: int, sink: Sink | None = None) -> np.ndarray | None:
    try:
        return render_pm_chain(patch.operators, n_samples, patch.sample_rate, sink)
    except ValueError as exc:  # a negative modulation index
        raise UsageError(str(exc)) from exc


@dataclass(frozen=True)
class Topology:
    """Operator count range, renderer of a patch's first n samples (returned,
    or handed to a sink a block at a time), and analytic predictor (None if
    it has none)."""

    arity: tuple[int, int]
    render: Callable[[PatchSpec, int, Sink | None], np.ndarray | None]
    predict: Callable[[list], LineSpectrum] | None = None


TOPOLOGIES = {
    "fm-stack": Topology((1, 64), lambda p, n, sink=None: render_stack(
        p.operators, n, p.sample_rate, sink), predict_stack),
    "fm-stack-naive": Topology((1, 64), lambda p, n, sink=None: render_naive_stack(
        p.operators, n, p.sample_rate, sink)),
    "pm-stack": Topology((2, 64), _render_pm, predict_stack),
    "pm1": Topology((2, 2), _render_pm, predict_stack),
    "pm2": Topology((3, 3), _render_pm, predict_stack),
    "fm-feedback": Topology((1, 1), lambda p, n, sink=None: render_feedback_fm(
        *p.operators[0], p.feedback_gain, n, p.sample_rate, sink)),
    "pm-feedback": Topology((1, 1), lambda p, n, sink=None: render_feedback_pm(
        *p.operators[0], p.feedback_gain, n, p.sample_rate, sink)),
}


def render_patch(patch: PatchSpec, n_samples: int | None = None) -> np.ndarray:
    """Render the first `n_samples` samples of a patch (all `patch.n_samples`
    by default) with its topology's engine.

    Every engine gives the same first k samples at any length asked for, so a
    shorter render is a prefix of the full one, bit for bit. Errors that would
    first occur past `n_samples` (aliasing, a diverging feedback loop) are not
    raised.
    """
    return TOPOLOGIES[patch.topology].render(patch, patch.n_samples if n_samples is None else n_samples)


def predict_patch(patch: PatchSpec) -> LineSpectrum:
    """Analytic line spectrum of a patch, for topologies that have one."""
    predict = TOPOLOGIES[patch.topology].predict
    if predict is None:
        raise UsageError(f"no analytic prediction for topology {patch.topology}")
    if any(z < 0 or f <= 0 for z, f in patch.operators[:-1]):
        raise UsageError("predicted spectra need modulation indices >= 0 and modulation frequencies > 0")
    return predict(patch.operators)


def _analysis_grid(grid_hz: float | None, patches: list[PatchSpec]) -> float:
    """The --grid-hz value or, when it is not given, the gcd of the magnitudes
    of all nonzero operator frequencies of the patches, on values rounded to
    1e-6 Hz."""
    if grid_hz is not None:  # checked where it is used, by _measure
        return grid_hz
    try:
        micro = [round(abs(f) * 1e6) for p in patches for _, f in p.operators if f]
    except OverflowError as exc:  # f * 1e6 past the double range
        raise UsageError("operator frequency too large to build a grid from; give --grid-hz") from exc
    if not micro:
        raise UsageError("patch has no nonzero frequencies to build a grid from")
    grid = math.gcd(*micro) / 1e6
    if grid == 0:
        raise UsageError("operator frequencies round to a 0 Hz grid at 1e-6 Hz; give --grid-hz")
    return grid


def _measure(patch: PatchSpec, grid: float, window: str, periods: int | None = None):
    """Spectrum of the first `periods` periods of `grid` (every whole period by
    default), which are all that is rendered; the grid must divide the rate
    and fit MIN_PERIODS periods."""
    spp = samples_per_period(patch.sample_rate, grid)
    if not spp:
        raise UsageError(f"grid {grid:g} Hz does not divide the sample rate")
    if patch.n_samples < spp * MIN_PERIODS:
        raise UsageError(f"need at least {MIN_PERIODS} grid periods; increase --dur")
    periods = patch.n_samples // spp if periods is None else periods
    frame = AnalysisFrame(render_patch(patch, spp * periods), patch.sample_rate, grid)
    return measure_spectrum(frame, window)


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
        try:
            with open(patch_json, encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise UsageError(f"cannot read patch file {patch_json}: {exc}") from exc
        return PatchSpec.from_json(text)
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


def _summary(out: str, what: str) -> None:
    # an --out that is not a regular file may be the stream stdout goes to
    print(f"wrote {out}: {what}", file=sys.stdout if os.path.isfile(out) else sys.stderr)


def cmd_render(args) -> int:
    patch = _patch_from_args(args)
    if not patch.sample_rate.is_integer():  # the WAV header holds whole Hz only
        raise UsageError(f"render needs a whole sample rate in Hz, got {patch.sample_rate:g}")
    try:
        spec = WavSpec(round(patch.sample_rate), args.bits)
    except ValueError as exc:  # a rate the WAV header cannot hold, checked before rendering
        raise UsageError(str(exc)) from exc
    # each block goes from the engine to the encoder: memory stays a few
    # blocks at any duration
    with wav_sink(args.out, patch.n_samples, spec) as sink:
        TOPOLOGIES[patch.topology].render(patch, patch.n_samples, sink)
    _summary(args.out, f"{patch.n_samples} samples at {patch.sample_rate:g} Hz")
    return 0


def cmd_spectrum(args) -> int:
    patch = _patch_from_args(args)
    if args.mode == "predicted":
        spec = predict_patch(patch)
    else:
        grid, window = _analysis_grid(args.grid_hz, [patch]), args.window
        spp = samples_per_period(patch.sample_rate, grid)
        if args.grid_hz is None and (not spp or patch.n_samples < spp * MIN_PERIODS):
            # a derived grid that does not divide the rate or fit MIN_PERIODS periods
            # falls back to Hann on a synthetic grid; a given grid must do both
            spp = patch.n_samples // MIN_PERIODS
            if spp < 2:
                raise UsageError("duration too short to analyze; increase --dur")
            grid, window = patch.sample_rate / spp, "hann"
        spec = _measure(patch, grid, window)
    write_spectrum_csv(args.out, spec)
    _summary(args.out, f"{len(spec.freqs)} rows ({args.mode})")
    return 0


def _check_finite(args, *names: str) -> None:
    for name in names:
        if not math.isfinite(getattr(args, name)):
            raise UsageError(f"--{name.replace('_', '-')} must be finite, got {getattr(args, name):g}")


def cmd_compare(args) -> int:
    patch_a = _patch_from_args(args, "_a")
    patch_b = _patch_from_args(args, "_b")
    if patch_a.sample_rate != patch_b.sample_rate or patch_a.duration != patch_b.duration:
        raise UsageError("compared patches must share sample rate and duration")
    _check_finite(args, "tolerance_db", "floor_db")
    # thresholds that decide the result whatever the signal: a negative
    # tolerance fails every pair, and as no line lies above the strongest
    # one, a floor at or above 0 dB passes every pair on zero lines
    if args.tolerance_db < 0:
        raise UsageError(f"--tolerance-db must be >= 0, got {args.tolerance_db:g}")
    if args.floor_db >= 0:
        raise UsageError(f"--floor-db must be below 0 dB, the strongest line, got {args.floor_db:g}")
    grid = _analysis_grid(args.grid_hz, [patch_a, patch_b])
    # Hann-windowed: exact for bin-centered lines, robust against the slight
    # off-grid smear of discretely integrated FM partials
    lines_a = _measure(patch_a, grid, "hann", MIN_PERIODS).mags[::MIN_PERIODS]
    lines_b = _measure(patch_b, grid, "hann", MIN_PERIODS).mags[::MIN_PERIODS]
    ref = max(lines_a.max(), lines_b.max())
    floor = ref * 10.0 ** (args.floor_db / 20.0)
    active = (lines_a > floor) | (lines_b > floor)
    diff_db = np.abs(20.0 * np.log10(np.maximum(lines_a, 1e-300))
                     - 20.0 * np.log10(np.maximum(lines_b, 1e-300)))
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
    _check_finite(args, "tolerance_hz")
    if args.tolerance_hz < 0:  # fails every patch
        raise UsageError(f"--tolerance-hz must be >= 0, got {args.tolerance_hz:g}")
    grid = _analysis_grid(args.grid_hz, [patch])
    spec = _measure(patch, grid, args.window)
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built once per process: parsing leaves the parser unchanged, and the
    # `append` action of --op copies its default list before appending
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
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
