import numpy as np
import pytest

from fmstack.wavetable import (
    PHASE_MODULUS,
    PhaseAccumulator,
    freq_to_increment,
    make_cosine_table,
)


def test_cosine_table_endpoints():
    table = make_cosine_table(1025)
    assert table[0] == 1.0
    assert abs(table[256]) < 1e-12  # quarter period
    assert table[1024] == 1.0


def test_cosine_table_small():
    table = make_cosine_table(17)
    assert table[8] == -1.0


def test_cosine_table_matches_cos():
    for k in range(4, 11):
        size = 2**k + 1
        table = make_cosine_table(size)
        ideal = np.cos(2.0 * np.pi * np.arange(size) / (size - 1))
        assert np.abs(table[:-1] - ideal[:-1]).max() < 1e-15
        assert table[-1] == table[0]


@pytest.mark.parametrize("size", [1000, 9, 16, 1024, 2])
def test_bad_table_sizes(size):
    with pytest.raises(ValueError):
        make_cosine_table(size)


def test_freq_to_increment():
    assert freq_to_increment(0.0, 48000) == 0
    assert freq_to_increment(12000.0, 48000) == 2**30
    assert freq_to_increment(-12000.0, 48000) == -(2**30)
    # truncation toward zero, like the C integer cast
    assert freq_to_increment(480.0, 48000) == 42949672
    assert freq_to_increment(-480.0, 48000) == -42949672


@pytest.mark.parametrize("freq", [48000.0, -48000.0, 50000.0])
def test_increment_out_of_range(freq):
    with pytest.raises(ValueError):
        freq_to_increment(freq, 48000)


def test_tick_trivial():
    table = make_cosine_table(1025)
    acc = PhaseAccumulator(1025, 48000)
    assert acc.tick(table, 0.0, 12345) == 0.0
    acc2 = PhaseAccumulator(1025, 48000)
    assert acc2.tick(table, 1.0, 0) == 1.0


def test_sample_after_100_ticks():
    # phase after 100 increments is 100*trunc(480*2^32/48000) mod 2^32,
    # 96 counts short of a full cycle, so the next sample is ~cos(0)
    table = make_cosine_table(1025)
    acc = PhaseAccumulator(1025, 48000)
    inc = freq_to_increment(480.0, 48000)
    for _ in range(100):
        acc.tick(table, 1.0, inc)
    assert acc.phase == (100 * inc) % PHASE_MODULUS
    assert abs(acc.tick(table, 1.0, inc) - 1.0) < 1e-4


@pytest.mark.parametrize("freq", [500.0, 480.0, 437.19, -333.33, 12345.6])
def test_phase_wraparound_exact(freq):
    table = make_cosine_table(1025)
    acc = PhaseAccumulator(1025, 48000)
    inc = freq_to_increment(freq, 48000)
    n = 1000
    acc.run(table, 1.0, np.full(n, inc, dtype=np.int64))
    assert acc.phase == (n * inc) % PHASE_MODULUS


@pytest.mark.parametrize("freq,fs", [(500.0, 48000.0), (437.0, 44100.0), (997.0, 96000.0)])
def test_interpolation_accuracy_one_period(freq, fs):
    table = make_cosine_table(1025)
    acc = PhaseAccumulator(1025, fs)
    inc = freq_to_increment(freq, fs)
    n = int(np.ceil(fs / freq))
    out = acc.run(table, 1.0, np.full(n, inc, dtype=np.int64))
    ideal = np.cos(2.0 * np.pi * freq * np.arange(n) / fs)
    assert np.abs(out - ideal).max() <= 5e-6


def test_amplitude_linearity_exact():
    table = make_cosine_table(1025)
    a1 = PhaseAccumulator(1025, 48000)
    a2 = PhaseAccumulator(1025, 48000)
    inc = freq_to_increment(777.7, 48000)
    for _ in range(300):
        s1 = a1.tick(table, 0.35, inc)
        s2 = a2.tick(table, 0.70, inc)
        assert s2 == 2.0 * s1


def test_run_matches_tick_bitwise():
    table = make_cosine_table(1025)
    rng = np.random.default_rng(7)
    increments = rng.integers(-(2**26), 2**26, size=500, dtype=np.int64)
    serial = PhaseAccumulator(1025, 48000)
    vector = PhaseAccumulator(1025, 48000)
    expected = np.array([serial.tick(table, 0.9, int(i)) for i in increments])
    out = vector.run(table, 0.9, increments)
    assert np.array_equal(out, expected)
    assert vector.phase == serial.phase


def test_split_runs_match_tick_across_wrap():
    # start just below 2**32: the first increment wraps forward, the mostly
    # negative rest wraps backward several times; split at uneven points
    table = make_cosine_table(1025)
    rng = np.random.default_rng(11)
    increments = rng.integers(-(2**27), 2**25, size=700, dtype=np.int64)
    increments[0] = 2**26
    serial = PhaseAccumulator(1025, 48000)
    vector = PhaseAccumulator(1025, 48000)
    serial.phase = vector.phase = PHASE_MODULUS - 12345
    expected = np.array([serial.tick(table, 0.9, int(i)) for i in increments])
    parts = [vector.run(table, 0.9, chunk) for chunk in np.split(increments, [1, 250, 251, 600])]
    assert np.array_equal(np.concatenate(parts), expected)
    assert vector.phase == serial.phase


def test_negative_increment_runs_backward():
    table = make_cosine_table(1025)
    fwd = PhaseAccumulator(1025, 48000)
    bwd = PhaseAccumulator(1025, 48000)
    inc = freq_to_increment(500.0, 48000)
    n = 96
    up = fwd.run(table, 1.0, np.full(n, inc, dtype=np.int64))
    down = bwd.run(table, 1.0, np.full(n, -inc, dtype=np.int64))
    # cosine is even, so reversing phase direction gives the same samples
    assert np.abs(up - down).max() < 1e-5
