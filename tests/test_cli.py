import json

import numpy as np
import pytest

from fmstack.cli import TOPOLOGIES, PatchSpec, Topology, UsageError, main, render_patch

FIG3_OPS = ["--op", "3:500", "--op", "2:500", "--op", "1:500"]


def test_render_pure_tone(tmp_path):
    out = tmp_path / "tone.wav"
    code = main(["render", "--topology", "pm1", "--op", "0:500", "--op", "1:440",
                 "--sr", "48000", "--dur", "0.1", "--out", str(out)])
    assert code == 0
    raw = out.read_bytes()
    samples = np.frombuffer(raw[44:], dtype="<f4")
    ideal = np.cos(2.0 * np.pi * 440.0 * np.arange(4800) / 48000.0)
    assert len(samples) == 4800
    assert np.abs(samples - ideal).max() < 1e-6


def test_render_determinism(tmp_path):
    args = ["render", "--topology", "fm-stack"] + FIG3_OPS + ["--sr", "48000", "--dur", "0.25"]
    a, b = tmp_path / "a.wav", tmp_path / "b.wav"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_spectrum_determinism(tmp_path):
    args = ["spectrum", "--topology", "fm-stack"] + FIG3_OPS + [
        "--sr", "48000", "--dur", "0.1", "--mode", "measured"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_spectrum_predicted_single_carrier(tmp_path):
    out = tmp_path / "p.csv"
    code = main(["spectrum", "--topology", "pm1", "--op", "0:500", "--op", "0.5:440",
                 "--mode", "predicted", "--out", str(out)])
    assert code == 0
    rows = out.read_text().strip().split("\n")
    assert rows == ["freq_hz,amplitude", "440,0.5"]


def test_spectrum_predicted_unsupported_topology(tmp_path):
    code = main(["spectrum", "--topology", "fm-feedback", "--op", "1:500",
                 "--feedback-gain", "0.5", "--mode", "predicted", "--out", str(tmp_path / "x.csv")])
    assert code == 2


@pytest.mark.parametrize("ops", [["--topology", "fm-stack-naive", "--op", "2:500", "--op", "1:500"],
                                 ["--topology", "pm-feedback", "--op", "1:500", "--feedback-gain", "0.5"]])
def test_spectrum_predicted_other_unsupported_topologies(ops, tmp_path):
    out = tmp_path / "x.csv"
    assert main(["spectrum", *ops, "--mode", "predicted", "--out", str(out)]) == 2
    assert not out.exists()


def test_spectrum_predicted_four_operator_stack(tmp_path):
    out = tmp_path / "p.csv"
    code = main(["spectrum", "--topology", "fm-stack", "--op", "2:500", "--op", "1.5:500",
                 "--op", "1:500", "--op", "0.5:500", "--mode", "predicted", "--out", str(out)])
    assert code == 0
    rows = out.read_text().strip().split("\n")
    assert rows[0] == "freq_hz,amplitude"
    assert len(rows) > 20


def test_spectrum_predicted_deep_stack_exceeds_budget(tmp_path):
    # eight incommensurate operators with indices up to 2 expand past the term budget
    ops = ["2:101.3", "1.7:233.9", "2:317.1", "1.9:411.7", "2:523.3", "1.8:617.9", "2:733.1", "1:1500.7"]
    out = tmp_path / "p.csv"
    code = main(["spectrum", "--topology", "fm-stack", *[a for op in ops for a in ("--op", op)],
                 "--mode", "predicted", "--out", str(out)])
    assert code == 3
    assert not out.exists()


def test_spectrum_measured_feedback_fm_dc(tmp_path):
    out = tmp_path / "fb.csv"
    code = main(["spectrum", "--topology", "fm-feedback", "--op", "1:500",
                 "--feedback-gain", "1", "--sr", "48000", "--dur", "0.2",
                 "--mode", "measured", "--out", str(out)])
    assert code == 0
    first = out.read_text().split("\n")[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) > 0.05


def test_compare_identical_patches(capsys):
    code = main(["compare", "--topology-a", "pm2", "--topology-b", "pm2"] + FIG3_OPS
                + ["--sr", "96000", "--dur", "0.064"])
    assert code == 0
    assert "0.000 dB" in capsys.readouterr().out


def test_compare_fm_stack_vs_pm2(capsys):
    code = main(["compare", "--topology-a", "fm-stack", "--topology-b", "pm2"] + FIG3_OPS
                + ["--sr", "96000", "--dur", "0.064", "--tolerance-db", "1", "--floor-db", "-60"])
    assert code == 0
    assert "PASS" in capsys.readouterr().out


def test_compare_naive_stack_fails(capsys):
    code = main(["compare", "--topology-a", "fm-stack-naive", "--topology-b", "pm2"] + FIG3_OPS
                + ["--sr", "96000", "--dur", "0.064", "--tolerance-db", "1", "--floor-db", "-60"])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


def test_compare_grid_mismatch():
    code = main(["compare", "--topology-a", "pm2", "--patch-b",
                 json.dumps({"topology": "pm2", "operators": [[3, 500], [2, 500], [1, 500]],
                             "sample_rate": 48000.0, "duration": 0.064})]
                + FIG3_OPS + ["--sr", "96000", "--dur", "0.064"])
    assert code == 2


def test_drift_demo_corrected_passes(capsys):
    code = main(["drift-demo", "--topology", "fm-stack"] + FIG3_OPS
                + ["--sr", "96000", "--dur", "0.128", "--grid-hz", "500", "--tolerance-hz", "1"])
    assert code == 0
    assert "PASS" in capsys.readouterr().out


def test_drift_demo_naive_fails(capsys):
    code = main(["drift-demo", "--topology", "fm-stack-naive"] + FIG3_OPS
                + ["--sr", "96000", "--dur", "0.128", "--grid-hz", "500", "--tolerance-hz", "1"])
    assert code == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
    offset = float(out.split("max offset")[1].split("Hz")[0])
    assert offset >= 5.0


def test_drift_demo_single_operator(capsys):
    code = main(["drift-demo", "--topology", "fm-stack", "--op", "1:500",
                 "--sr", "48000", "--dur", "0.1", "--tolerance-hz", "1"])
    assert code == 0


def test_drift_demo_rejects_pm_topology():
    code = main(["drift-demo", "--topology", "pm1", "--op", "2:500", "--op", "1:500",
                 "--sr", "48000", "--dur", "0.1"])
    assert code == 2


def test_instability_exits_3_without_file(tmp_path):
    out = tmp_path / "boom.wav"
    code = main(["render", "--topology", "fm-feedback", "--op", "1:500",
                 "--feedback-gain", "50", "--sr", "48000", "--dur", "0.1", "--out", str(out)])
    assert code == 3
    assert not out.exists()


def test_non_finite_render_exits_3_without_file(tmp_path, monkeypatch, capsys):
    # no valid patch renders NaN today; a renderer that does must not reach the file
    monkeypatch.setitem(TOPOLOGIES, "pm-feedback", Topology((1, 1), lambda p: np.full(p.n_samples, np.nan)))
    out = tmp_path / "nan.wav"
    code = main(["render", "--topology", "pm-feedback", "--op", "1:500", "--dur", "0.01", "--out", str(out)])
    assert code == 3
    assert "NaN or infinite" in capsys.readouterr().err
    assert not out.exists()


def test_patch_json_file(tmp_path):
    patch = {"topology": "fm-stack", "operators": [[2, 500], [1, 2000]],
             "sample_rate": 48000.0, "duration": 0.05}
    path = tmp_path / "patch.json"
    path.write_text(json.dumps(patch))
    out = tmp_path / "o.wav"
    assert main(["render", "--patch", str(path), "--out", str(out)]) == 0
    assert out.exists()


@pytest.mark.parametrize("argv", [
    ["render", "--topology", "pm1", "--op", "1:440", "--out", "x.wav"],        # pm1 arity
    ["render", "--topology", "pm2", "--op", "1:440", "--op", "1:440", "--out", "x.wav"],
    ["render", "--topology", "fm-feedback", "--op", "1:1", "--op", "1:2", "--out", "x.wav"],
    ["render", "--topology", "pm1", "--op", "bad", "--out", "x.wav"],          # malformed op
    ["render", "--patch", "{not json", "--out", "x.wav"],
    ["render", "--patch", json.dumps({"topology": "pm1"}), "--out", "x.wav"],  # missing keys
    ["render", "--patch", json.dumps({"topology": "warp", "operators": [[1, 2]]}), "--out", "x.wav"],
    ["render", "--out", "x.wav"],                                              # no topology
])
def test_usage_errors_exit_2(argv, tmp_path):
    assert main(argv[:-1] + [str(tmp_path / "x.wav")]) == 2


@pytest.mark.parametrize("argv", [
    ["render", "--topology", "fm-stack", "--op", "nan:300", "--op", "1:440"],
    ["render", "--topology", "fm-stack", "--op", "1:inf"],
    ["render", "--topology", "fm-feedback", "--op", "1:500", "--feedback-gain", "nan"],
    ["render", "--topology", "fm-stack", "--op", "1:500", "--sr", "inf"],
    ["render", "--topology", "fm-stack", "--op", "1:500", "--dur", "nan"],
    ["render", "--patch", '{"topology": "fm-stack", "operators": [[NaN, 300], [1, 440]]}'],
    ["render", "--patch", '{"topology": "pm-feedback", "operators": [[1, 500]], "feedback_gain": Infinity}'],
    ["render", "--topology", "fm-stack", "--op", "1:500", "--dur", "0.00001"],  # rounds to 0 samples
    ["render", "--topology", "fm-stack", "--op", "1:500", "--sr", "1e300", "--dur", "1e300"],  # inf samples
    ["render", "--topology", "fm-stack", "--op", "1:500", "--sr", "96000", "--dur", "11185"],  # > 4 GiB
    ["render", "--patch", '{"topology": "fm-stack", "operators": [[1, 500]], "sample_rate": "x"}'],
    ["render", "--patch", '{"topology": "fm-stack", "operators": 5}'],
    ["render", "--patch", '{"topology": "fm-stack", "operators": [[1]]}'],
    ["render", "--patch", '{"topology": "fm-stack", "operators": [[1, 500]], "duration": true}'],
    ["render", "--patch", '{"topology": "fm-stack", "operators": [[1, "500"]]}'],
    ["render", "--patch", '{"topology": ["fm-stack"], "operators": [[1, 500]]}'],
    ["render", "--patch", '{"topology": "fm-stack", "operators": [[1, 500]], "duration": 1' + "0" * 400 + "}"],
    ["render", "--topology", "fm-stack", "--op", "1:100", "--sr", "5e9", "--dur", "1e-9"],  # rate past 32 bits
    ["render", "--topology", "fm-stack", "--op", "1:100", "--sr", "1.2e9", "--dur", "1e-8", "--bits", "32"],  # byte rate
    ["render", "--topology", "fm-stack", "--op", "1:0.1", "--sr", "0.4", "--dur", "10"],  # rate rounds to 0 Hz
])
def test_bad_values_exit_2_without_file(argv, tmp_path):
    out = tmp_path / "x.wav"
    assert main(argv + ["--out", str(out)]) == 2
    assert not out.exists()


def test_budget_exceeded_exits_3_without_file(tmp_path):
    out = tmp_path / "p.csv"
    code = main(["spectrum", "--mode", "predicted", "--topology", "pm2", "--op", "30:123.4",
                 "--op", "30:456.7", "--op", "1:1000", "--out", str(out)])
    assert code == 3
    assert not out.exists()


@pytest.mark.parametrize("ops", [
    ["--topology", "pm1", "--op", "1:1e308", "--op", "1:1e308"],  # a line at inf Hz
    ["--topology", "fm-stack", "--op", "1:1e308", "--op", "1:1e308", "--op", "1:1e308"],
])
def test_overflowing_prediction_exits_3_without_file(ops, tmp_path, capsys):
    out = tmp_path / "p.csv"
    assert main(["spectrum", *ops, "--mode", "predicted", "--out", str(out)]) == 3
    assert "overflow" in capsys.readouterr().err
    assert not out.exists()


def test_patch_spec_round_trip():
    patch = PatchSpec.from_json(json.dumps({
        "topology": "pm2", "operators": [[3, 500], [2, 500], [1, 500]],
        "feedback_gain": 0.0, "sample_rate": 96000.0, "duration": 0.064}))
    assert patch.n_samples == 6144
    out = render_patch(patch)
    assert len(out) == 6144


def test_patch_rejects_unknown_keys():
    with pytest.raises(UsageError):
        PatchSpec.from_json(json.dumps({"topology": "pm1", "operators": [[1, 1], [1, 1]], "glide": 2}))


def test_render_16_bit(tmp_path):
    out = tmp_path / "t16.wav"
    assert main(["render", "--topology", "fm-stack", "--op", "1:500",
                 "--sr", "48000", "--dur", "0.05", "--bits", "16", "--out", str(out)]) == 0
    assert out.stat().st_size == 44 + 2 * 2400


def test_patch_length_bound_is_the_riff_limit():
    # 32-bit float samples: 36 header bytes plus 4 per sample in a uint32 size field
    last = (2**32 - 1 - 36) // 4
    assert PatchSpec("fm-stack", [(1.0, 500.0)], sample_rate=1.0, duration=last).n_samples == last
    with pytest.raises(UsageError):
        PatchSpec("fm-stack", [(1.0, 500.0)], sample_rate=1.0, duration=last + 1)


def _run(argv, tmp_path, capsys):
    out = tmp_path / "out.bin"
    out.unlink(missing_ok=True)
    code = main([str(out) if a == "OUT" else a for a in argv])
    printed = capsys.readouterr()
    return code, printed.out, printed.err, out.read_bytes() if out.exists() else None


def test_repeated_main_calls_do_not_share_state(tmp_path, capsys):
    timing = ["--sr", "96000", "--dur", "0.064"]
    jobs = [
        ["spectrum", "--topology", "pm2"] + FIG3_OPS + ["--mode", "predicted", "--out", "OUT"],
        ["spectrum", "--topology", "pm1", "--op", "2:250", "--op", "1:1000", "--mode", "predicted",
         "--out", "OUT"],
        ["spectrum", "--topology", "fm-stack", "--op", "1:500"] + timing + ["--out", "OUT"],
        ["render", "--topology", "fm-stack", "--op", "2:500", "--op", "1:500"] + timing
        + ["--bits", "16", "--out", "OUT"],
        ["compare", "--topology-a", "fm-stack-naive", "--topology-b", "pm2"] + FIG3_OPS + timing,
        ["drift-demo", "--topology", "fm-stack"] + FIG3_OPS + timing + ["--grid-hz", "500"],
        ["drift-demo", "--topology", "fm-stack", "--op", "1:500", "--sr", "48000", "--dur", "0.1"],
        ["render", "--topology", "pm1", "--op", "1:440", "--out", "OUT"],  # arity: exit 2
    ]
    first = [_run(job, tmp_path, capsys) for job in jobs]
    assert [r[0] for r in first] == [0, 0, 0, 0, 1, 0, 0, 2]
    for _ in range(2):
        assert [_run(job, tmp_path, capsys) for job in reversed(jobs)] == first[::-1]
