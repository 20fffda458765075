"""Spans around fmstack's public entry points, recorded from outside the program.

`Tracer.install` replaces each entry point in TARGETS, in its module and in
every fmstack module that imported it, with a wrapper that records a span:
name, start, end, parent span and job id. Spans stay in memory until the
benchmark writes them out between passes. A span's self time is its
duration minus the durations of its child spans.

The per-sample entry points (`Operator.tick`, `PhaseAccumulator.tick`) are
not wrapped: a wrapper per sample would cost more than the sample. Their
work shows as the `n_samples` arguments of the renderers that call them.
"""

import time
from array import array

from runner import patch_everywhere, unpatch


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _length(args, kwargs, result):
    return len(result)


def _lines(args, kwargs, result):
    return len(result.freqs)


def _stack_ticks(args, kwargs, result):
    # one operator-sample per operator and output sample
    return len(_arg(args, kwargs, 0, "params")) * _arg(args, kwargs, 1, "n_samples")


def _n_samples_at(pos):
    return lambda args, kwargs, result: _arg(args, kwargs, pos, "n_samples")


def _wav_bytes(args, kwargs, result):
    samples = _arg(args, kwargs, 1, "samples")
    return 44 + len(samples) * (_arg(args, kwargs, 2, "spec").bit_depth // 8)


def _csv_rows(args, kwargs, result):
    return len(_arg(args, kwargs, 1, "spec").freqs)


# (module, entry point, work counted per call from its arguments or result)
TARGETS = (
    ("fmstack.wavetable", "PhaseAccumulator.run", _length),
    ("fmstack.operators", "Operator.process", None),
    ("fmstack.operators", "render_stack", _stack_ticks),
    ("fmstack.operators", "render_naive_stack", _stack_ticks),
    ("fmstack.operators", "render_feedback_fm", _n_samples_at(3)),
    ("fmstack.pm", "render_pm1", _n_samples_at(1)),
    ("fmstack.pm", "render_pm2", _n_samples_at(1)),
    ("fmstack.pm", "render_feedback_pm", _n_samples_at(3)),
    ("fmstack.bessel", "bessel_row", _length),  # max_order + 1
    ("fmstack.spectrum", "predict_first_order", _lines),
    ("fmstack.spectrum", "predict_second_order", _lines),
    ("fmstack.spectrum", "merge_and_fold", None),
    ("fmstack.analysis", "measure_spectrum", _lines),
    ("fmstack.analysis", "detect_carrier_drift", None),
    ("fmstack.io_formats", "write_wav", _wav_bytes),
    ("fmstack.io_formats", "write_spectrum_csv", _csv_rows),
    ("fmstack.cli", "main", None),
)
NAMES = tuple(name for _, name, _ in TARGETS)
LAYER = {name: module.split(".")[1] for module, name, _ in TARGETS}
LAYERS = tuple(dict.fromkeys(LAYER.values()))

# per-layer metric -> unit; `layer_metrics` fills them in this order
UNITS = {
    "wavetable.run.calls": "count",
    "wavetable.run.self_ms": "ms",
    "wavetable.samples": "count",
    "wavetable.ns_per_sample": "ns",
    "operators.process.calls": "count",
    "operators.self_ms": "ms",
    "operators.stack_ms": "ms",
    "operators.feedback_ms": "ms",
    "operators.ticks": "count",
    "pm.self_ms": "ms",
    "pm.feedback_ms": "ms",
    "pm.samples": "count",
    "bessel.row.calls": "count",
    "bessel.self_ms": "ms",
    "bessel.orders": "count",
    "spectrum.predict.calls": "count",
    "spectrum.self_ms": "ms",
    "spectrum.lines_out": "count",
    "analysis.measure.calls": "count",
    "analysis.measure_ms": "ms",
    "analysis.drift_ms": "ms",
    "analysis.bins": "count",
    "io_formats.wav_ms": "ms",
    "io_formats.wav_bytes": "bytes",
    "io_formats.csv_ms": "ms",
    "io_formats.csv_rows": "count",
    "cli.self_ms": "ms",
}


class Tracer:
    """Span recorder for one process; `job` tags the spans of the running job."""

    def __init__(self):
        self.job = -1
        self._undo = []
        self._stack = []
        self.name = array("b")
        self.parent = array("l")
        self.job_id = array("l")
        self.start = array("d")
        self.end = array("d")
        self.work = array("d")

    def clear(self) -> None:
        """Drop the recorded spans (in place: installed wrappers hold these arrays)."""
        for spans in (self.name, self.parent, self.job_id, self.start, self.end, self.work):
            del spans[:]

    def install(self) -> list:
        """Wrap every entry point; returns the ones that no longer exist."""
        missing = []
        for i, (module, name, work) in enumerate(TARGETS):
            try:
                self._undo += patch_everywhere(module, name, lambda fn, i=i, w=work: self._wrap(fn, i, w))
            except (KeyError, AttributeError):
                missing.append(f"{module}.{name}")
        return missing

    def uninstall(self) -> None:
        unpatch(self._undo)
        self._undo = []

    def _wrap(self, fn, name_id, work):
        stack = self._stack
        names, parents, jobs = self.name, self.parent, self.job_id
        starts, ends, works = self.start, self.end, self.work
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(names)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            jobs.append(self.job)
            starts.append(0.0)
            ends.append(0.0)
            works.append(0.0)
            stack.append(i)
            starts[i] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if work is not None:
                works[i] = work(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def totals(self) -> dict:
        """Per entry point: calls, inclusive seconds, self seconds, work."""
        n = len(self.name)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = {name: [0, 0.0, 0.0, 0.0] for name in NAMES}
        for i in range(n):
            row = out[NAMES[self.name[i]]]
            dur = self.end[i] - self.start[i]
            row[0] += 1
            row[1] += dur
            row[2] += dur - child[i]
            row[3] += self.work[i]
        return out

    def write(self, fh, pass_index: int) -> None:
        """Append this pass's spans as CSV rows under SPAN_HEADER."""
        for i in range(len(self.name)):
            fh.write(
                f"{pass_index},{self.job_id[i]},{i},{NAMES[self.name[i]]},{self.parent[i]},"
                f"{self.start[i]:.9f},{self.end[i]:.9f},{self.work[i]:.0f}\n"
            )


# `span` numbers restart each pass; `parent` is a span number, -1 for none;
# `work` is the per-call count of TARGETS (samples, ticks, orders, lines, bytes, rows)
SPAN_HEADER = "pass,job,span,name,parent,start_s,end_s,work\n"


def layer_calls(totals: dict) -> dict:
    """Calls per layer, for the layer-separation check."""
    calls = dict.fromkeys(LAYERS, 0)
    for name, (n, _, _, _) in totals.items():
        calls[LAYER[name]] += n
    return calls


def layer_metrics(totals: dict) -> dict:
    """The per-layer metrics of UNITS from `Tracer.totals`."""

    def calls(*names):
        return sum(totals[n][0] for n in names)

    def incl_ms(*names):
        return 1e3 * sum(totals[n][1] for n in names)

    def self_ms(*names):
        return 1e3 * sum(totals[n][2] for n in names)

    def work(*names):
        return sum(totals[n][3] for n in names)

    def layer(name):
        return [n for n in NAMES if LAYER[n] == name]

    samples = work("PhaseAccumulator.run")
    values = {
        "wavetable.run.calls": calls("PhaseAccumulator.run"),
        "wavetable.run.self_ms": self_ms("PhaseAccumulator.run"),
        "wavetable.samples": samples,
        "wavetable.ns_per_sample": 1e6 * self_ms("PhaseAccumulator.run") / samples if samples else 0.0,
        "operators.process.calls": calls("Operator.process"),
        "operators.self_ms": self_ms(*layer("operators")),
        "operators.stack_ms": incl_ms("render_stack", "render_naive_stack"),
        "operators.feedback_ms": incl_ms("render_feedback_fm"),
        "operators.ticks": work("render_stack", "render_naive_stack", "render_feedback_fm"),
        "pm.self_ms": self_ms(*layer("pm")),
        "pm.feedback_ms": incl_ms("render_feedback_pm"),
        "pm.samples": work(*layer("pm")),
        "bessel.row.calls": calls("bessel_row"),
        "bessel.self_ms": self_ms("bessel_row"),
        "bessel.orders": work("bessel_row"),
        "spectrum.predict.calls": calls("predict_first_order", "predict_second_order"),
        "spectrum.self_ms": self_ms(*layer("spectrum")),
        "spectrum.lines_out": work("predict_first_order", "predict_second_order"),
        "analysis.measure.calls": calls("measure_spectrum"),
        "analysis.measure_ms": incl_ms("measure_spectrum"),
        "analysis.drift_ms": incl_ms("detect_carrier_drift"),
        "analysis.bins": work("measure_spectrum"),
        "io_formats.wav_ms": incl_ms("write_wav"),
        "io_formats.wav_bytes": work("write_wav"),
        "io_formats.csv_ms": incl_ms("write_spectrum_csv"),
        "io_formats.csv_rows": work("write_spectrum_csv"),
        "cli.self_ms": self_ms("main"),
    }
    return values
