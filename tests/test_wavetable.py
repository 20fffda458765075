import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from fmstack.wavetable import (
    COSINE_TABLE,
    DIFF_TABLE,
    PHASE_MODULUS,
    PhaseAccumulator,
    freq_to_increment,
)
from oracles import phase_accumulator_run


def test_cosine_table_endpoints():
    assert len(COSINE_TABLE) == 1025 and len(DIFF_TABLE) == 1024
    assert COSINE_TABLE[0] == 1.0
    assert abs(COSINE_TABLE[256]) < 1e-12  # quarter period
    assert COSINE_TABLE[512] == -1.0  # half period
    assert COSINE_TABLE[1024] == 1.0
    assert not COSINE_TABLE.flags.writeable and not DIFF_TABLE.flags.writeable


def test_cosine_table_matches_cos():
    ideal = np.cos(2.0 * np.pi * np.arange(1025) / 1024)
    assert np.abs(COSINE_TABLE[:-1] - ideal[:-1]).max() < 1e-15
    assert COSINE_TABLE[-1] == COSINE_TABLE[0]
    assert np.array_equal(DIFF_TABLE, COSINE_TABLE[1:] - COSINE_TABLE[:-1])
    # linear interpolation is worst midway between points: h**2 / 8 for step h
    mid = COSINE_TABLE[:-1] + 0.5 * DIFF_TABLE
    err = np.abs(mid - np.cos(2.0 * np.pi * (np.arange(1024) + 0.5) / 1024)).max()
    assert 4e-6 < err <= (2.0 * np.pi / 1024) ** 2 / 8


def test_freq_to_increment():
    assert freq_to_increment(0.0, 48000) == 0
    assert freq_to_increment(12000.0, 48000) == 2**30
    assert freq_to_increment(-12000.0, 48000) == -(2**30)
    # truncation toward zero, like the C integer cast
    assert freq_to_increment(480.0, 48000) == 42949672
    assert freq_to_increment(-480.0, 48000) == -42949672


@pytest.mark.parametrize("freq", [48000.0, -48000.0, 50000.0, np.inf, np.nan])
def test_increment_out_of_range(freq):
    with pytest.raises(ValueError, match="must be finite and below the sample rate"):
        freq_to_increment(freq, 48000)


@pytest.mark.parametrize("sr", [0.0, -48000.0, np.inf, -np.inf, np.nan])
def test_bad_sample_rate_rejected(sr):
    with pytest.raises(ValueError, match="sample rate must be finite and positive"):
        freq_to_increment(500.0, sr)
    with pytest.raises(ValueError, match="sample rate must be finite and positive"):
        PhaseAccumulator(sr)


def test_tick_trivial():
    acc = PhaseAccumulator(48000)
    assert acc.tick(0.0, 12345) == 0.0
    acc2 = PhaseAccumulator(48000)
    assert acc2.tick(1.0, 0) == 1.0


def test_sample_after_100_ticks():
    # phase after 100 increments is 100*trunc(480*2^32/48000) mod 2^32,
    # 96 counts short of a full cycle, so the next sample is ~cos(0)
    acc = PhaseAccumulator(48000)
    inc = freq_to_increment(480.0, 48000)
    for _ in range(100):
        acc.tick(1.0, inc)
    assert acc.phase == (100 * inc) % PHASE_MODULUS
    assert abs(acc.tick(1.0, inc) - 1.0) < 1e-4


@pytest.mark.parametrize("freq", [500.0, 480.0, 437.19, -333.33, 12345.6])
def test_phase_wraparound_exact(freq):
    acc = PhaseAccumulator(48000)
    inc = freq_to_increment(freq, 48000)
    n = 1000
    acc.run(1.0, np.full(n, inc, dtype=np.int64))
    assert acc.phase == (n * inc) % PHASE_MODULUS


@pytest.mark.parametrize("freq,fs", [(500.0, 48000.0), (437.0, 44100.0), (997.0, 96000.0)])
def test_interpolation_accuracy_one_period(freq, fs):
    acc = PhaseAccumulator(fs)
    inc = freq_to_increment(freq, fs)
    n = int(np.ceil(fs / freq))
    out = acc.run(1.0, np.full(n, inc, dtype=np.int64))
    ideal = np.cos(2.0 * np.pi * freq * np.arange(n) / fs)
    assert np.abs(out - ideal).max() <= 5e-6


def test_amplitude_linearity_exact():
    a1 = PhaseAccumulator(48000)
    a2 = PhaseAccumulator(48000)
    inc = freq_to_increment(777.7, 48000)
    for _ in range(300):
        s1 = a1.tick(0.35, inc)
        s2 = a2.tick(0.70, inc)
        assert s2 == 2.0 * s1


def test_run_matches_tick_bitwise():
    rng = np.random.default_rng(7)
    increments = rng.integers(-(2**26), 2**26, size=500, dtype=np.int64)
    serial = PhaseAccumulator(48000)
    vector = PhaseAccumulator(48000)
    expected = np.array([serial.tick(0.9, int(i)) for i in increments])
    out = vector.run(0.9, increments)
    assert np.array_equal(out, expected)
    assert vector.phase == serial.phase


def test_split_runs_match_tick_across_wrap():
    # start just below 2**32: the first increment wraps forward, the mostly
    # negative rest wraps backward several times; split at uneven points
    rng = np.random.default_rng(11)
    increments = rng.integers(-(2**27), 2**25, size=700, dtype=np.int64)
    increments[0] = 2**26
    serial = PhaseAccumulator(48000)
    vector = PhaseAccumulator(48000)
    serial.phase = vector.phase = PHASE_MODULUS - 12345
    expected = np.array([serial.tick(0.9, int(i)) for i in increments])
    parts = [vector.run(0.9, chunk) for chunk in np.split(increments, [1, 250, 251, 600])]
    assert np.array_equal(np.concatenate(parts), expected)
    assert vector.phase == serial.phase


def test_negative_increment_runs_backward():
    fwd = PhaseAccumulator(48000)
    bwd = PhaseAccumulator(48000)
    inc = freq_to_increment(500.0, 48000)
    n = 96
    up = fwd.run(1.0, np.full(n, inc, dtype=np.int64))
    down = bwd.run(1.0, np.full(n, -inc, dtype=np.int64))
    # cosine is even, so reversing phase direction gives the same samples
    assert np.abs(up - down).max() < 1e-5


# phases anywhere, with extra weight just below the 2**32 wrap
_phases = st.one_of(st.integers(0, PHASE_MODULUS - 1), st.integers(PHASE_MODULUS - 2**20, PHASE_MODULUS - 1))
# increments of either sign up to a full cycle, plus the 2**31 edges
_increments = st.one_of(
    st.integers(-(PHASE_MODULUS - 1), PHASE_MODULUS - 1),
    st.integers(-(2**20), 2**20),
    st.sampled_from([0, 1, -1, 2**31 - 1, 2**31, -(2**31), -(2**31) - 1]),
)


@given(
    phase=_phases,
    amp=st.floats(-1e6, 1e6),
    runs=st.lists(st.lists(_increments, max_size=300), min_size=1, max_size=4),
)
@example(phase=PHASE_MODULUS - 1, amp=1.0, runs=[[1, -2, 2**31, -(2**31)], [PHASE_MODULUS - 1]])
def test_run_matches_pre_difference_table_oracle_bitwise(phase, amp, runs):
    new = PhaseAccumulator(48000)
    old = PhaseAccumulator(48000)
    new.phase = old.phase = phase
    for run in runs:
        increments = np.array(run, dtype=np.int64)
        got = new.run(amp, increments)
        want = phase_accumulator_run(old, amp, increments)
        assert got.tobytes() == want.tobytes()
        assert new.phase == old.phase
