import contextlib
import dataclasses
import hashlib
import json
import os
import signal
import stat
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fmstack
from fmstack.cli import TOPOLOGIES, PatchSpec, Topology, UsageError, main, render_patch
from fmstack.io_formats import WavSpec, write_wav
from fmstack.operators import DEFAULT_BLOCK_SIZE, InstabilityError

FIG3_OPS = ["--op", "3:500", "--op", "2:500", "--op", "1:500"]
_FIG3_96K = FIG3_OPS + ["--sr", "96000", "--dur", "0.064"]


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


# measured spectrum CSVs on paths the benchmark's reference catalog does not
# take, pinned by sha256: the Hann fallback on a synthetic grid, where the
# derived grid fits too few periods or does not divide the rate, and a frame
# of odd length, which has no Nyquist bin (17 periods of 441 samples)
@pytest.mark.parametrize("flags, sha256", [
    (["--op", "1:440.3", "--op", "1:1000", "--sr", "48000"],
     "0bd2bc0d8141e56d4f01692effdf6be618872d3def6e35c7deed74b294888b15"),
    (["--op", "1:700", "--op", "1:1400", "--sr", "48000", "--dur", "0.1"],
     "86960c3574fdc8155eadd5ec02fb9e6839b40a1f3f2f8501814b3bb06e983d0d"),
    (["--op", "2:300", "--op", "1:500", "--sr", "44100", "--grid-hz", "100", "--dur", "0.17"],
     "9f69195b0d7c2743ec368717a3ce8a22e1154070de53f153a73bd6c271832c7a"),
], ids=["hann_fallback_few_periods", "hann_fallback_grid_off_rate", "odd_frame"])
def test_measured_spectrum_csv_bytes(flags, sha256, tmp_path):
    out = tmp_path / "m.csv"
    assert main(["spectrum", "--topology", "pm1", *flags, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256


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


@pytest.mark.parametrize("depth", [4, 5])
def test_compare_fm_stack_vs_pm_stack_at_depth(depth, capsys):
    code = main(["compare", "--topology-a", "fm-stack", "--topology-b", "pm-stack", *["--op", "1:500"] * depth,
                 "--sr", "96000", "--dur", "0.064", "--tolerance-db", "1", "--floor-db", "-60"])
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


@pytest.mark.parametrize("carrier", ["1:300", "1:-300"])
def test_negative_frequencies_are_analysed_on_the_magnitude_grid(carrier, capsys):
    # gcd(500, 300) = 100 Hz whatever the signs; 0.2 s holds 20 periods of it
    ops = ["--op", "1:-500", "--op", carrier, "--sr", "96000", "--dur", "0.2"]
    assert main(["drift-demo", "--topology", "fm-stack", *ops]) == 0
    assert "from the 100 Hz grid" in capsys.readouterr().out
    # the same lines as the patch with +500 Hz: cos is even
    for top in ("1:-500", "1:500"):
        assert main(["compare", "--topology-a", "fm-stack", "--topology-b", "pm-stack", "--op", top,
                     *ops[2:]]) == 0
        assert "over 9 lines" in capsys.readouterr().out


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


def _render_nan(patch, n, sink=None, render=TOPOLOGIES["pm-feedback"].render):
    """pm-feedback with every block NaN on its way to the sink of `render`."""
    return render(patch, n, lambda block: sink(np.full(len(block), np.nan)))


def test_non_finite_render_exits_3_without_file(tmp_path, monkeypatch, capsys):
    # no valid patch renders NaN today; a renderer that does must not reach the file
    monkeypatch.setitem(TOPOLOGIES, "pm-feedback", Topology((1, 1), _render_nan))
    out = tmp_path / "nan.wav"
    code = main(["render", "--topology", "pm-feedback", "--op", "1:500", "--dur", "0.01", "--out", str(out)])
    assert code == 3
    assert "NaN or infinite" in capsys.readouterr().err
    assert not out.exists()


def test_render_leaves_only_its_output(tmp_path):
    out = tmp_path / "fig3.wav"
    assert main(["render", "--topology", "fm-stack", *FIG3_OPS, "--dur", "0.5", "--out", str(out)]) == 0
    assert [p.name for p in tmp_path.iterdir()] == ["fig3.wav"]
    assert len(out.read_bytes()) == 44 + 4 * 24000


def _diverge_after_two_blocks(patch, n, sink=None, render=TOPOLOGIES["pm-feedback"].render):
    """pm-feedback that diverges once two blocks have reached the sink."""
    handed = []

    def forward(block):
        sink(block)
        handed.append(len(block))
        if len(handed) == 2:
            raise InstabilityError("diverged after two blocks")

    return render(patch, n, forward)


def _tree(root):
    """Every path under root with its bytes, None for a directory."""
    return {p.relative_to(root): None if p.is_dir() else p.read_bytes() for p in root.rglob("*")}


# flags of a render that fails, and the renderer it uses in place of
# pm-feedback's, or "directory" where --out names an existing directory
@pytest.mark.parametrize("flags, renderer", [
    (["--topology", "fm-feedback", "--op", "1:500", "--feedback-gain", "50"], None),
    (["--topology", "pm-feedback", "--op", "1:500"], _render_nan),
    (["--topology", "pm-feedback", "--op", "1:500"], _diverge_after_two_blocks),
    (["--topology", "fm-stack", *FIG3_OPS], "directory"),
    (["--topology", "fm-stack", "--op", "100:500", "--op", "1:1000"], None),  # 51 kHz at sample 0
], ids=["instability", "nan", "diverges_after_two_blocks", "out_is_a_directory", "stack_aliases"])
def test_failing_render_leaves_the_directory_as_it_was(flags, renderer, tmp_path, monkeypatch):
    out = tmp_path / "out.wav"
    if renderer == "directory":
        out.mkdir()
        (out / "kept.txt").write_bytes(b"kept")
    else:
        out.write_bytes(b"an earlier render")
        if renderer is not None:
            monkeypatch.setitem(TOPOLOGIES, "pm-feedback", Topology((1, 1), renderer))
    before = _tree(tmp_path)
    assert main(["render", *flags, "--sr", "48000", "--dur", "0.5", "--out", str(out)]) == 3
    assert _tree(tmp_path) == before  # no temporary file, the old output untouched


def _run_into_fifo_on_stdout(fifo, argv) -> tuple[int, list[bytes]]:
    """main(argv + --out fifo) with standard output going into the FIFO too,
    as for `--out /dev/stdout` piped into a reader; returns the exit code and
    the bytes the FIFO received."""
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    with open(fifo, "w") as stdout, contextlib.redirect_stdout(stdout):
        code = main([*argv, "--out", str(fifo)])
    reader.join(timeout=10)
    assert not reader.is_alive()
    return code, received


def test_render_streams_into_an_existing_fifo(tmp_path, capsys):
    fifo, regular = tmp_path / "out.fifo", tmp_path / "out.wav"
    os.mkfifo(fifo)
    argv = ["render", "--topology", "fm-stack", "--op", "1:500", "--sr", "8000", "--dur", "0.01", "--bits", "16"]
    code, received = _run_into_fifo_on_stdout(fifo, argv)
    assert code == 0
    assert capsys.readouterr().err == f"wrote {fifo}: 80 samples at 8000 Hz\n"
    assert stat.S_ISFIFO(fifo.stat().st_mode)  # the node is still there, not replaced
    assert main([*argv, "--out", str(regular)]) == 0
    assert capsys.readouterr().out == f"wrote {regular}: 80 samples at 8000 Hz\n"
    assert received == [regular.read_bytes()]  # the WAV and nothing else
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.fifo", "out.wav"]  # no temporary left


def test_spectrum_streams_into_an_existing_fifo(tmp_path, capfd):
    fifo, regular = tmp_path / "out.fifo", tmp_path / "out.csv"
    os.mkfifo(fifo)
    argv = ["spectrum", "--mode", "predicted", "--topology", "pm1", "--op", "1:100", "--op", "1:1000"]
    code, received = _run_into_fifo_on_stdout(fifo, argv)
    assert code == 0
    assert capfd.readouterr() == ("", f"wrote {fifo}: 19 rows (predicted)\n")
    assert main([*argv, "--out", str(regular)]) == 0
    assert capfd.readouterr() == (f"wrote {regular}: 19 rows (predicted)\n", "")
    assert received == [regular.read_bytes()]  # the CSV and nothing else


# a process whose file size limit is 64 bytes, with SIGXFSZ ignored so that
# a write past it fails with EFBIG instead of killing the process
_FILE_SIZE_LIMITED_MAIN = """import resource, signal, sys
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
resource.setrlimit(resource.RLIMIT_FSIZE, (64, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))
from fmstack.cli import main
sys.exit(main(sys.argv[1:]))
"""


# a CSV and a WAV of a few hundred bytes each
_WRITERS = pytest.mark.parametrize("argv", [
    ["spectrum", "--mode", "predicted", "--topology", "pm1", "--op", "1:100", "--op", "1:1000"],
    ["render", "--topology", "fm-stack", "--op", "1:500", "--sr", "8000", "--dur", "0.01"],
], ids=["spectrum", "render"])


@pytest.mark.skipif(not hasattr(signal, "SIGXFSZ"), reason="needs POSIX file size limits")
@_WRITERS
def test_a_write_past_the_file_size_limit_leaves_the_old_output(argv, tmp_path):
    out = tmp_path / "out"
    out.write_bytes(b"an earlier output\n" * 40)
    before = _tree(tmp_path)
    src = os.path.dirname(os.path.dirname(fmstack.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", _FILE_SIZE_LIMITED_MAIN, *argv, "--out", str(out)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 3
    assert "File too large" in proc.stderr
    assert _tree(tmp_path) == before  # no temporary file, the old output untouched


@_WRITERS
def test_a_symlinked_out_stays_a_link_to_the_new_output(argv, tmp_path):
    target, link, plain = tmp_path / "target", tmp_path / "link", tmp_path / "plain"
    target.write_bytes(b"an earlier output")
    link.symlink_to("target")
    assert main([*argv, "--out", str(link)]) == 0
    assert main([*argv, "--out", str(plain)]) == 0
    assert os.readlink(link) == "target"
    assert target.read_bytes() == plain.read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link", "plain", "target"]


@_WRITERS
def test_a_replaced_out_keeps_its_mode(argv, tmp_path, monkeypatch):
    out, new, ref = tmp_path / "out", tmp_path / "new", tmp_path / "ref"
    for mode in (0o600, 0o640):  # at least one differs from a new file's mode under any umask
        out.write_bytes(b"an earlier output")
        out.chmod(mode)
        assert main([*argv, "--out", str(out)]) == 0
        assert stat.S_IMODE(out.stat().st_mode) == mode
    # a new --out gets the mode open() gives a new file, with no extra system call
    calls = []
    monkeypatch.setattr(os, "fchmod", lambda *a: calls.append(a))
    assert main([*argv, "--out", str(new)]) == 0
    ref.write_bytes(b"")
    assert stat.S_IMODE(new.stat().st_mode) == stat.S_IMODE(ref.stat().st_mode)
    assert calls == []


def test_aliasing_stack_compare_exits_3(capsys):
    # the top operator's 100 * 500 Hz modulation output puts the carrier at 51 kHz
    assert main(["compare", "--topology-a", "fm-stack", "--topology-b", "pm-stack", "--op", "100:500",
                 "--op", "1:1000", "--sr", "8000", "--dur", "0.1"]) == 3
    assert capsys.readouterr() == ("", "error: instantaneous frequency aliases at fs=8000.0\n")


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
    ["render", "--topology", "pm-stack", "--op", "1:440", "--out", "x.wav"],    # pm-stack takes 2 to 64
    ["render", "--topology", "pm-stack", *["--op", "1:440"] * 65, "--out", "x.wav"],
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
    ["render", "--topology", "fm-stack", "--op", "1:500", "--sr", "44100.5", "--dur", "0.01"],  # header holds whole Hz
    ["render", "--topology", "fm-stack", "--op", "1:0.1", "--sr", "1.49", "--dur", "10"],
    *[["spectrum", "--topology", "fm-stack", "--op", "1:500", "--sr", "96000", "--dur", "0.064", "--grid-hz", grid]
      for grid in ("nan", "inf", "-500", "0")],
    ["spectrum", "--topology", "fm-stack", "--op", "1:4e-7", "--sr", "96000", "--dur", "0.064"],  # grid rounds to 0
    ["spectrum", "--topology", "pm1", "--op", "1:1e303", "--op", "1:500", "--sr", "96000", "--dur", "0.064"],
    # a given grid that does not divide the rate (7, 333.3 Hz) or fits fewer than 16 periods (1e-3 Hz)
    *[["spectrum", "--topology", "fm-stack", *_FIG3_96K, "--grid-hz", grid] for grid in ("7", "333.3", "1e-3")],
    # a negative modulation index or a modulation frequency <= 0
    ["render", "--topology", "pm1", "--op=-1:500", "--op", "1:440"],
    ["spectrum", "--topology", "fm-stack", "--op", "1:500", "--op=-1:500", "--op", "1:500", "--mode", "predicted"],
    ["spectrum", "--topology", "fm-stack", "--op", "1:-500", "--op", "1:500", "--mode", "predicted"],
    # a patch file that cannot be read: a missing path or a directory
    ["render", "--patch", "no-such-dir/patch.json"],
    ["render", "--patch", "."],
    # a feedback gain on a topology without a feedback loop
    ["render", "--topology", "fm-stack", "--op", "1:500", "--feedback-gain", "0.7"],
    ["render", "--patch", '{"topology": "pm1", "operators": [[1, 500], [1, 440]], "feedback_gain": -0.1}'],
    ["spectrum", "--topology", "fm-stack-naive", *_FIG3_96K, "--feedback-gain", "1e-300"],
    # a derived grid that needs the fallback, on fewer than 32 samples
    ["spectrum", "--topology", "fm-stack", "--op", "1:440.3", "--sr", "48000", "--dur", "0.0005"],
])
def test_bad_values_exit_2_without_file(argv, tmp_path):
    out = tmp_path / "x.wav"
    assert main(argv + ["--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    *[["compare", "--topology-a", "fm-stack-naive", "--topology-b", "pm2", *_FIG3_96K, "--grid-hz=" + grid]
      for grid in ("nan", "inf", "-500", "0")],
    *[["drift-demo", "--topology", "fm-stack", *_FIG3_96K, "--grid-hz=" + grid]
      for grid in ("nan", "inf", "-500", "0")],
    ["compare", "--topology-a", "fm-stack", "--topology-b", "fm-stack", "--op", "1:4e-7", "--sr", "96000",
     "--dur", "0.064"],
    ["drift-demo", "--topology", "fm-stack", "--op", "1:4e-7", "--sr", "96000", "--dur", "0.064"],
    # the naive stack fails this comparison; no threshold may turn it into a pass
    *[["compare", "--topology-a", "fm-stack-naive", "--topology-b", "pm2", *_FIG3_96K, flag + "=" + value]
      for flag in ("--floor-db", "--tolerance-db") for value in ("nan", "inf", "-inf")],
    *[["drift-demo", "--topology", "fm-stack-naive", *_FIG3_96K, "--tolerance-hz=" + value]
      for value in ("nan", "inf", "-inf")],
    # nor may one decide the result whatever the signal: no line lies above
    # a floor at or above 0 dB (the naive stack reads 80.4 dB off without
    # one), and a negative tolerance fails patches that match within 0.011 dB
    *[["compare", "--topology-a", "fm-stack-naive", "--topology-b", "pm2", "--op", "2:500", "--op", "1.5:500",
       "--op", "1:500", "--sr", "96000", "--dur", "0.1", "--floor-db", floor] for floor in ("10", "0")],
    ["compare", "--topology-a", "fm-stack", "--topology-b", "pm2", *["--op", "1:500"] * 3, "--sr", "96000",
     "--dur", "0.064", "--tolerance-db=-0.5"],
    ["drift-demo", "--topology", "fm-stack", *_FIG3_96K, "--grid-hz", "500", "--tolerance-hz=-1"],
    # a given grid is never replaced: the naive stack is ~164 Hz off the 500 Hz grid
    *[["drift-demo", "--topology", "fm-stack-naive", *FIG3_OPS, "--sr", "96000", "--dur", "0.128", "--grid-hz", grid]
      for grid in ("7", "333.3", "1e-3")],
    # nor is a derived one: 440.3 Hz does not divide 96 kHz, and 0.128 s holds
    # fewer than 16 periods of the 100 Hz grid of 500 and 300 Hz, of either sign
    ["drift-demo", "--topology", "fm-stack", "--op", "1:440.3", "--op", "1:440.3", "--sr", "96000", "--dur", "0.2"],
    *[["drift-demo", "--topology", "fm-stack", "--op", top, "--op", "1:300", "--sr", "96000", "--dur", "0.128"]
      for top in ("1:500", "1:-500")],
    # a feedback gain on a topology without a feedback loop, as a flag or in patch JSON
    ["compare", "--topology-a", "fm-stack", "--topology-b", "pm2", *_FIG3_96K, "--feedback-gain", "0.5"],
    ["compare", "--topology-a", "fm-stack", *_FIG3_96K, "--patch-b", json.dumps(
        {"topology": "pm2", "operators": [[3, 500], [2, 500], [1, 500]], "feedback_gain": 0.5,
         "sample_rate": 96000, "duration": 0.064})],
])
def test_bad_analysis_values_exit_2(argv, capsys):
    assert main(argv) == 2
    printed = capsys.readouterr()
    assert printed.out == ""
    assert printed.err.startswith("error: ")


def test_patch_file_that_is_not_utf8_exits_2(tmp_path, capsys):
    path = tmp_path / "patch.json"
    path.write_bytes(b'{"topology": "fm-stack", "operators": [[1, 500]], "name": "\xe9"}')
    assert main(["render", "--patch", str(path), "--out", str(tmp_path / "x.wav")]) == 2
    assert "utf-8" in capsys.readouterr().err
    assert not (tmp_path / "x.wav").exists()


def test_other_commands_accept_non_integer_rates(tmp_path):
    out = tmp_path / "x.csv"
    assert main(["spectrum", "--topology", "fm-stack", "--op", "1:500", "--sr", "44100.5", "--dur", "0.1",
                 "--out", str(out)]) == 0
    assert out.exists()


def test_budget_exceeded_exits_3_without_file(tmp_path, capsys):
    out = tmp_path / "p.csv"
    code = main(["spectrum", "--mode", "predicted", "--topology", "pm2", "--op", "30:123.4",
                 "--op", "30:456.7", "--op", "1:1000", "--out", str(out)])
    assert code == 3
    assert not out.exists()
    # the message names what a command line can change: no flag sets a floor or a sideband count
    err = capsys.readouterr().err
    assert "smaller indices or fewer operators" in err
    assert "floor" not in err and "sideband" not in err


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
    # 16-bit samples, the most a WAV file holds: 36 header bytes plus 2 per
    # sample in a uint32 size field
    last = (2**32 - 1 - 36) // 2
    assert PatchSpec("fm-stack", [(1.0, 500.0)], sample_rate=1.0, duration=last).n_samples == last
    with pytest.raises(UsageError):
        PatchSpec("fm-stack", [(1.0, 500.0)], sample_rate=1.0, duration=last + 1)


@pytest.mark.parametrize("bits, code", [(16, 3), (32, 2)])
def test_render_length_bound_follows_bits(bits, code, tmp_path, monkeypatch):
    # one sample more than a 32-bit float WAV file holds, which a 16-bit one
    # holds; the stub encoder fails as it is reached, so nothing renders
    n = (2**32 - 1 - 36) // 4 + 1
    reached = []

    @contextlib.contextmanager
    def stub(path, n_samples, spec):
        reached.append((n_samples, spec.bit_depth))
        raise OSError("stub encoder")
        yield

    monkeypatch.setattr("fmstack.cli.wav_sink", stub)
    out = tmp_path / "long.wav"
    assert main(["render", "--topology", "fm-stack", "--op", "1:0.25", "--sr", "1", "--dur", str(n),
                 "--bits", str(bits), "--out", str(out)]) == code
    assert reached == ([(n, 16)] if bits == 16 else [])
    assert not out.exists()


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


# --- analysis commands render only the samples they measure


def _draw_patch(draw, topology, sample_rate, n):
    freq, amp = st.floats(20.0, 2000.0), st.floats(0.0, 1.0)
    lo, hi = TOPOLOGIES[topology].arity
    depth = draw(st.integers(lo, min(hi, 4)))
    # indices up to 1.5 keep a 4-deep stack's instantaneous frequency below
    # 20 kHz; amp * gain < 1 keeps feedback FM from diverging
    ops = [(draw(st.floats(0.0, 1.5)), draw(freq)) for _ in range(depth - 1)] + [(draw(amp), draw(freq))]
    # only the feedback topologies take a nonzero gain
    gain = draw(st.floats(0.0, 0.9 if topology == "fm-feedback" else 1.5)) if "feedback" in topology else 0.0
    return PatchSpec(topology, ops, feedback_gain=gain, sample_rate=sample_rate, duration=n / sample_rate)


@settings(max_examples=36, deadline=None)
@given(topology=st.sampled_from(sorted(TOPOLOGIES)), sample_rate=st.sampled_from([48000.0, 96000.0]),
       n=st.one_of(st.integers(1, 3 * DEFAULT_BLOCK_SIZE + 2),
                   st.sampled_from([m * DEFAULT_BLOCK_SIZE + d for m in (1, 2, 3) for d in (-1, 0, 1)])),
       data=st.data())
def test_short_render_is_a_prefix_of_the_full_render(topology, sample_rate, n, data):
    patch = _draw_patch(data.draw, topology, sample_rate, n)
    n = patch.n_samples
    full = render_patch(patch)
    assert isinstance(full, np.ndarray) and full.dtype == np.float64 and full.shape == (n,)
    ks = {n, data.draw(st.integers(0, n))}
    ks.update(k for m in range(1, n // DEFAULT_BLOCK_SIZE + 1)
              for k in (m * DEFAULT_BLOCK_SIZE - 1, m * DEFAULT_BLOCK_SIZE, m * DEFAULT_BLOCK_SIZE + 1) if k <= n)
    for k in sorted(ks):
        assert np.array_equal(render_patch(patch, k), full[:k]), k


@settings(max_examples=30, deadline=None)
@given(topology=st.sampled_from(sorted(TOPOLOGIES)), sample_rate=st.sampled_from([48000.0, 96000.0]),
       n=st.sampled_from([1, 100, *(m * DEFAULT_BLOCK_SIZE + d for m in (1, 2) for d in (-1, 0, 1))]),
       data=st.data())
def test_blocks_handed_to_a_sink_are_the_returned_array(topology, sample_rate, n, data):
    patch = _draw_patch(data.draw, topology, sample_rate, n)
    blocks, buffers = [], set()

    def sink(block):
        buffers.add(block.__array_interface__["data"][0])
        blocks.append(block.copy())  # the buffer is reused for the next block

    assert TOPOLOGIES[topology].render(patch, n, sink) is None
    assert [len(b) for b in blocks] == [min(DEFAULT_BLOCK_SIZE, n - s) for s in range(0, n, DEFAULT_BLOCK_SIZE)]
    assert len(buffers) == 1
    assert np.concatenate(blocks).tobytes() == render_patch(patch).tobytes()


@pytest.mark.parametrize("bits", [16, 32])
@pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
def test_render_command_writes_the_bytes_of_write_wav(topology, bits, tmp_path, caplog):
    # an output amplitude of 1.5 clips, so the clip path is compared too
    lo, _ = TOPOLOGIES[topology].arity
    ops = [(0.7, 300.0)] * (lo - 1) + [(1.5, 500.0)]
    gain = 0.5 if "feedback" in topology else 0.0
    patch = PatchSpec(topology, ops, feedback_gain=gain, sample_rate=48000.0, duration=0.4)
    flags = [f"--op={a}:{f}" for a, f in ops] + ["--feedback-gain", str(gain), "--sr", "48000", "--dur", "0.4"]
    out = tmp_path / "cli.wav"
    assert main(["render", "--topology", topology, *flags, "--bits", str(bits), "--out", str(out)]) == 0
    write_wav(tmp_path / "array.wav", render_patch(patch), WavSpec(48000, bits))
    assert out.read_bytes() == (tmp_path / "array.wav").read_bytes()
    assert caplog.text.count("clipped") == 2


@pytest.fixture
def render_lengths(monkeypatch):
    """Sample counts asked of every topology's renderer, in call order."""
    lengths = []
    for name, topology in list(TOPOLOGIES.items()):
        def spy(patch, n, sink=None, render=topology.render):
            lengths.append(n)
            return render(patch, n, sink)
        monkeypatch.setitem(TOPOLOGIES, name, dataclasses.replace(topology, render=spy))
    return lengths


# patch flags, the analysis command around them, samples it reads (whole
# periods of the grid it uses), rows written
_ANALYSES = [
    # 16 periods of 192 samples (500 Hz at 96 kHz) per side out of 24000
    (["--topology", "fm-stack", *FIG3_OPS, "--sr", "96000", "--dur", "0.25"],
     ["compare", "--topology-b", "pm2"], [3072, 3072], None),
    # 250 Hz grid: 25 whole periods of 384 samples out of 9696
    (["--topology", "fm-stack", "--op", "1:500", "--op", "1:750", "--sr", "96000", "--dur", "0.101"],
     ["spectrum", "--out", "OUT"], [9600], 4801),
    # 440.3 Hz does not divide 48 kHz: Hann on 16 periods of 4814 // 16 = 300 samples
    (["--topology", "pm-feedback", "--op", "1:440.3", "--feedback-gain", "0.5", "--sr", "48000", "--dur", "0.1003"],
     ["spectrum", "--out", "OUT"], [4800], 2401),
    # 65 whole periods of 192 samples out of 12528
    (["--topology", "fm-stack", *FIG3_OPS, "--sr", "96000", "--dur", "0.1305"],
     ["drift-demo", "--grid-hz", "500"], [12480], None),
]


def _analysis_argv(patch, command, out):
    if command[0] == "compare":
        patch = ["--topology-a" if a == "--topology" else a for a in patch]
    return [str(out) if a == "OUT" else a for a in command + patch]


@pytest.mark.parametrize("patch, command, lengths, rows", _ANALYSES)
def test_analysis_renders_only_what_it_measures(patch, command, lengths, rows, render_lengths, tmp_path):
    out = tmp_path / "x.csv"
    assert main(_analysis_argv(patch, command, out)) == 0
    assert render_lengths == lengths
    if rows is not None:
        assert len(out.read_text().splitlines()) == 1 + rows


@pytest.mark.parametrize("patch, command, lengths, rows", _ANALYSES)
def test_analysis_misses_errors_past_the_samples_it_reads(patch, command, lengths, rows, monkeypatch, tmp_path):
    # A renderer that fails when asked for more than the analysed samples
    # stands for a patch that aliases or diverges only after them: the
    # analysis passes, and only `render` of the whole duration sees the error.
    for name, topology in list(TOPOLOGIES.items()):
        def render(patch, n, sink=None, render=topology.render):
            if n > max(lengths):
                raise InstabilityError(f"diverged past sample {max(lengths)}")
            return render(patch, n, sink)
        monkeypatch.setitem(TOPOLOGIES, name, dataclasses.replace(topology, render=render))
    assert main(_analysis_argv(patch, command, tmp_path / "x.csv")) == 0
    wav = tmp_path / "x.wav"
    assert main(["render", *patch, "--out", str(wav)]) == 3
    assert not wav.exists()
