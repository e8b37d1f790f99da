"""Spectrogram front end against a direct-definition DFT oracle.

The oracle below evaluates X[k] = sum_n x[n] exp(-2*pi*i*k*n/N) from the
transform definition (an O(N^2) matrix product), sharing no code with the
FFT route used by the implementation.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from voicehand import atomic
from voicehand.audio import to_window_values
from voicehand.errors import BadWindowLength
from voicehand.features import (
    FEATURE_SHAPE,
    HANN_WINDOW,
    HOP,
    SEGMENT_LENGTH,
    compute_features,
    export_csv,
    log_compress,
    stft_power,
)
from voicehand.synth import tone_samples
from voicehand.wav import AudioClip

from conftest import HalfWriter


def dft_matrix(n=256, bins=129):
    k = np.arange(bins)[:, None]
    t = np.arange(n)[None, :]
    return np.exp(-2j * np.pi * k * t / n)


def oracle_power(window, n=256, hop=224):
    """One-sided power spectrogram straight from the DFT definition."""
    w = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)
    bins = n // 2 + 1
    e = dft_matrix(n, bins)
    frames = (len(window) - n) // hop + 1
    out = np.empty((bins, frames))
    for t in range(frames):
        seg = window[t * hop : t * hop + n] * w
        coeffs = e @ seg
        out[:, t] = coeffs.real**2 + coeffs.imag**2
    return out


def rel_err(a, b):
    scale = np.maximum(np.abs(b), 1e-12 * max(np.abs(b).max(), 1.0))
    return np.max(np.abs(a - b) / scale)


def test_power_matches_dft_oracle_on_random_windows():
    rng = np.random.default_rng(42)
    for _ in range(3):
        window = rng.uniform(-1, 1, 16000)
        got = stft_power(window.astype(np.float64))
        want = oracle_power(window)
        assert got.shape == FEATURE_SHAPE
        assert rel_err(got, want) < 1e-6


def test_geometry_129_bins_71_frames():
    assert SEGMENT_LENGTH == 256
    assert HOP == 224
    assert FEATURE_SHAPE == (129, 71)


def test_hann_is_periodic_variant():
    # periodic Hann of length n == symmetric Hann of length n+1 minus its last point
    np.testing.assert_allclose(HANN_WINDOW, np.hanning(257)[:-1], atol=1e-15)
    assert HANN_WINDOW[0] == 0.0
    assert HANN_WINDOW[128] == 1.0


def test_silent_clip_is_uniform_log_floor():
    clip = AudioClip(samples=np.zeros(16000, dtype=np.int16))
    features = compute_features(clip)
    assert features.shape == FEATURE_SHAPE
    assert np.all(features == np.log(1e-10))


def test_impulse_energy_stays_in_covering_frame():
    window = np.zeros(16000)
    window[5000] = 0.8
    power = stft_power(window)
    # sample 5000 lies only in frame 22: [22*224, 22*224 + 256)
    nonzero_cols = np.flatnonzero(power.sum(axis=0) > 0)
    np.testing.assert_array_equal(nonzero_cols, [22])


def test_tail_samples_beyond_last_frame_are_ignored():
    window = np.zeros(16000)
    window[15990] = 1.0  # past 70*224 + 256 = 15936
    assert np.all(stft_power(window) == 0.0)


def test_sine_concentrates_in_matching_bin():
    # 2000 Hz at 16 kHz with 256-point frames -> bin 2000/16000*256 = 32
    samples = tone_samples(2000.0, amplitude=0.9, phase=0.3)
    power = stft_power(to_window_values(samples))
    assert np.all(np.argmax(power, axis=0) == 32)


def test_log_compress_known_values():
    np.testing.assert_allclose(log_compress(np.array([0.0])), np.log(1e-10))
    np.testing.assert_allclose(log_compress(np.array([1.0])), np.log(1.0 + 1e-10))


def test_bad_window_length_rejected():
    with pytest.raises(BadWindowLength):
        stft_power(np.zeros(100))


@pytest.mark.parametrize("shape", [(255,), (0,), (2, 16000), ()])
def test_input_without_one_segment_in_one_dimension_rejected(shape):
    with pytest.raises(BadWindowLength):
        stft_power(np.zeros(shape))


def test_short_signal_frames_are_bitwise_those_of_a_full_window():
    # the stream cache computes a 70 ms hop's 5 new frames from 1152 samples
    window = np.random.default_rng(4).uniform(-1, 1, 16000)
    first = 66 * HOP
    part = stft_power(window[first : first + 1152])
    assert part.shape == (129, 5)
    assert part.tobytes() == stft_power(window)[:, 66:].tobytes()


def test_compute_features_pads_short_clips():
    clip = AudioClip(samples=np.full(4000, 9000, dtype=np.int16))
    features = compute_features(clip)
    assert features.shape == FEATURE_SHAPE
    # frames past the padded region collapse to the log floor
    assert np.all(features[:, -10:] == np.log(1e-10))
    assert features[:, 0].max() > np.log(1e-10)


def test_export_csv_grid(tmp_path):
    rng = np.random.default_rng(0)
    features = rng.normal(size=FEATURE_SHAPE)
    path = tmp_path / "grid.csv"
    export_csv(features, path)
    rows = path.read_text().strip().splitlines()
    assert len(rows) == 129
    assert all(len(r.split(",")) == 71 for r in rows)
    parsed = np.loadtxt(path, delimiter=",")
    np.testing.assert_allclose(parsed, features, rtol=1e-9)
    direct = tmp_path / "direct.csv"
    np.savetxt(direct, features, fmt="%.10g", delimiter=",")
    assert path.read_bytes() == direct.read_bytes()


def test_export_csv_failed_write_keeps_earlier_file_and_leaves_no_temp(tmp_path, monkeypatch):
    path = tmp_path / "grid.csv"
    export_csv(np.zeros(FEATURE_SHAPE), path)
    before = path.read_bytes()
    monkeypatch.setattr(atomic, "open", lambda *a, **k: HalfWriter(open(*a, **k)),
                        raising=False)
    with pytest.raises(OSError, match="No space"):
        export_csv(np.ones(FEATURE_SHAPE), path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["grid.csv"]


@settings(max_examples=40, deadline=None)
@given(arrays(np.float64, 5, elements=st.floats(min_value=0.0, max_value=1e6)))
def test_log_compress_monotone_and_floored(power):
    out = log_compress(power)
    assert np.all(out >= np.log(1e-10))
    order = np.argsort(power)
    assert np.all(np.diff(out[order]) >= 0)
