"""Acceptance suite: one test per criterion, each printing a PASS line.

Run `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import time

import numpy as np
from scipy.special import jv

from fmstack.analysis import AnalysisFrame, measure_dc, measure_spectrum
from fmstack.bessel import bessel_row
from fmstack.cli import main
from fmstack.operators import render_feedback_fm, render_stack
from fmstack.pm import render_feedback_pm, render_pm_chain
from fmstack.spectrum import AMPLITUDE_FLOOR, _component_weights, predict_stack
from fmstack.wavetable import PHASE_MODULUS, PhaseAccumulator
from oracles import bessel_series, line_amplitude

FIG3_OPS = ["--op", "3:500", "--op", "2:500", "--op", "1:500"]


def test_criterion_1_first_order_spectrum_vs_bessel():
    t0 = time.perf_counter()
    fs = 48000.0
    n = round(fs / 500.0) * 16
    audio = render_stack([(2.0, 500.0), (1.0, 2000.0)], n, fs)
    spec = measure_spectrum(AnalysisFrame(audio, fs, 500.0))
    lines = spec.mags[::16]
    checked = 0
    worst = 0.0
    for k, measured in enumerate(lines):
        if measured < 1e-3:  # -60 dBFS
            continue
        expected = abs(jv(k - 4, 2.0))  # carrier at harmonic 4 of the grid
        worst = max(worst, abs(measured - expected))
        checked += 1
    elapsed = time.perf_counter() - t0
    assert checked >= 10
    assert worst < 1e-2
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 PASS - first-order FM partials match |J_n(2)| "
          f"(worst {worst:.2e} < 1e-2, {checked} lines, {elapsed:.2f}s)")


def test_criterion_2_second_order_fm_pm_equivalence(capsys):
    t0 = time.perf_counter()
    code = main(["compare", "--topology-a", "fm-stack", "--topology-b", "pm2"] + FIG3_OPS
                + ["--sr", "96000", "--dur", "0.064", "--tolerance-db", "1", "--floor-db", "-60"])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    assert code == 0, out
    assert elapsed < 5.0
    diff = float(out.split("difference")[1].split("dB")[0])
    print(f"ACCEPTANCE 2 PASS - fm-stack vs pm2 at Fig.3 parameters, fs=96k: "
          f"max {diff:.3f} dB <= 1 dB above -60 dB floor ({elapsed:.2f}s)")


def test_criterion_3_second_order_predictor_vs_oracle():
    fs = 96000.0
    periods = 16
    n = round(fs / 500.0) * periods
    pm = render_pm_chain([(3.0, 500.0), (2.0, 500.0), (1.0, 500.0)], n, fs)
    lines = measure_spectrum(AnalysisFrame(pm, fs, 500.0)).mags[::periods]
    pred = predict_stack([(3.0, 500.0), (2.0, 500.0), (1.0, 500.0)])
    floor = max(np.abs(pred.amps).max(), lines.max()) * 1e-3
    worst = 0.0
    for k, measured in enumerate(lines):
        predicted = abs(line_amplitude(pred, k * 500.0))
        if max(predicted, measured) < floor:
            continue
        worst = max(worst, abs(20.0 * np.log10(predicted / measured)))
    assert worst < 1.0

    degen = predict_stack([(0.0, 123.0), (2.0, 500.0), (1.0, 700.0)])
    first = predict_stack([(2.0, 500.0), (1.0, 700.0)])
    strong = np.abs(first.amps) >= AMPLITUDE_FLOOR  # a lone modulator keeps its weaker lines
    assert np.array_equal(degen.freqs, first.freqs[strong])
    assert np.array_equal(degen.amps, first.amps[strong])
    single = predict_stack([(3.0, 123.0), (0.0, 456.0), (1.0, 500.0)])
    assert list(single.freqs) == [500.0] and list(single.amps) == [1.0]
    print(f"ACCEPTANCE 3 PASS - truncated second-order prediction matches the PM "
          f"oracle DFT (worst {worst:.3f} dB <= 1 dB); degenerate cases exact")


def test_criterion_4_naive_drift_pathology(capsys):
    base = FIG3_OPS + ["--sr", "96000", "--dur", "0.128", "--grid-hz", "500", "--tolerance-hz", "1"]
    naive_code = main(["drift-demo", "--topology", "fm-stack-naive"] + base)
    naive_out = capsys.readouterr().out
    naive_offset = float(naive_out.split("max offset")[1].split("Hz")[0])
    corrected_code = main(["drift-demo", "--topology", "fm-stack"] + base)
    corrected_out = capsys.readouterr().out
    corrected_offset = float(corrected_out.split("max offset")[1].split("Hz")[0])
    assert naive_code != 0
    assert naive_offset >= 5.0
    assert corrected_code == 0
    assert corrected_offset < 1.0
    print(f"ACCEPTANCE 4 PASS - naive stack drifts {naive_offset:.1f} Hz (>=5, exit "
          f"{naive_code}); corrected stack {corrected_offset:.3f} Hz (<1, exit 0)")


def test_criterion_5_feedback_fm_and_pm():
    t0 = time.perf_counter()
    fs = 48000.0
    n = round(fs / 500.0) * 64
    fb_fm = render_feedback_fm(1.0, 500.0, 0.5, n, fs)
    frame = AnalysisFrame(fb_fm, fs, 500.0)
    dc = measure_dc(frame)
    harmonics = measure_spectrum(frame).mags[::64][1:11]
    assert abs(dc) > 0.05
    for k in range(9):
        assert harmonics[k] > harmonics[k + 1]

    fb_pm = render_feedback_pm(1.0, 500.0, 1.3, n, fs)
    from fmstack.analysis import fit_spectral_slope

    slope = fit_spectral_slope(measure_spectrum(AnalysisFrame(fb_pm, fs, 500.0)), 500.0, range(1, 11))
    elapsed = time.perf_counter() - t0
    assert -9.0 <= slope <= -3.0
    assert elapsed < 2.0
    print(f"ACCEPTANCE 5 PASS - feedback FM |DC|={abs(dc):.3f}>0.05 with monotone "
          f"harmonic decay; feedback PM slope {slope:.2f} dB/oct in [-9,-3] ({elapsed:.2f}s)")


def test_criterion_6_bessel_suite():
    for z in [0.5, 1.0, 2.0, 4.0, 8.0]:
        row = bessel_row(int(z) + 40, z)
        assert abs(row[0] ** 2 + 2.0 * np.sum(row[1:] ** 2) - 1.0) < 1e-10
    for z in np.linspace(0.5, 16.0, 16):
        row = bessel_row(34, float(z))
        for order in range(1, 33):
            assert abs(row[order - 1] + row[order + 1] - (2.0 * order / z) * row[order]) < 1e-9
    worst = 0.0
    for z in [0.5, 1.0, 2.0, 4.0, 8.0, 16.0]:
        for zeta in (z, -z):  # orders -32..32 as the predictor weights them
            for order, weight in zip(range(-32, 33), _component_weights(zeta, 32)):
                worst = max(worst, abs(weight - bessel_series(order, zeta)))
    assert worst < 1e-12
    print(f"ACCEPTANCE 6 PASS - Bessel normalization <1e-10, recurrence <1e-9, "
          f"series-oracle agreement {worst:.1e} < 1e-12")


def test_criterion_7_bit_exact_oscillator():
    acc = PhaseAccumulator(48000.0)
    inc = int(437.19 * acc.freq_scale)
    n = 4096
    acc.run(1.0, np.full(n, inc, dtype=np.int64))
    assert acc.phase == (n * inc) % PHASE_MODULUS

    acc2 = PhaseAccumulator(48000.0)
    inc2 = int(500.0 * acc2.freq_scale)
    out = acc2.run(1.0, np.full(96, inc2, dtype=np.int64))
    err = np.abs(out - np.cos(2.0 * np.pi * 500.0 * np.arange(96) / 48000.0)).max()
    assert err <= 5e-6
    print(f"ACCEPTANCE 7 PASS - phase register equals closed-form wrap exactly; "
          f"interpolated cosine error {err:.2e} <= 5e-6")


def test_criterion_8_determinism(tmp_path):
    wav_args = ["render", "--topology", "fm-stack"] + FIG3_OPS + ["--sr", "48000", "--dur", "0.25"]
    a, b = tmp_path / "a.wav", tmp_path / "b.wav"
    assert main(wav_args + ["--out", str(a)]) == 0
    assert main(wav_args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()

    csv_args = ["spectrum", "--topology", "fm-feedback", "--op", "1:500", "--feedback-gain", "0.5",
                "--sr", "48000", "--dur", "0.2", "--mode", "measured"]
    c, d = tmp_path / "c.csv", tmp_path / "d.csv"
    assert main(csv_args + ["--out", str(c)]) == 0
    assert main(csv_args + ["--out", str(d)]) == 0
    assert c.read_bytes() == d.read_bytes()
    print("ACCEPTANCE 8 PASS - repeated CLI runs produce byte-identical WAV and CSV")
