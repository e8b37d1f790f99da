"""Window normalization and noise mixing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from voicehand.audio import (
    PCM_SCALE,
    WINDOW_SAMPLES,
    NoisePool,
    mix_noise,
    to_window,
    to_window_values,
)
from voicehand.errors import VoicehandError
from voicehand.wav import AudioClip


def test_scale_matches_manual_division():
    samples = np.array([-32768, -1, 0, 1, 32767], dtype=np.int16)
    values = to_window_values(samples, pad=False)
    np.testing.assert_allclose(values, samples.astype(np.float64) / 32768.0)
    assert values.dtype == np.float64
    assert PCM_SCALE == 32768.0


def test_short_clip_zero_padded_at_tail():
    samples = np.full(100, 16384, dtype=np.int16)
    window = to_window_values(samples)
    assert window.shape == (WINDOW_SAMPLES,)
    np.testing.assert_allclose(window[:100], 0.5)
    assert np.all(window[100:] == 0.0)


def test_long_clip_keeps_first_second():
    samples = np.arange(20000, dtype=np.int16)
    window = to_window_values(samples)
    assert window.shape == (WINDOW_SAMPLES,)
    np.testing.assert_allclose(window, samples[:16000] / 32768.0)


def test_to_window_wraps_clip():
    clip = AudioClip(samples=np.full(16000, -32768, dtype=np.int16))
    np.testing.assert_allclose(to_window(clip), -1.0)


def test_mix_gain_zero_is_identity_even_with_empty_pool():
    window = np.linspace(-1, 1, WINDOW_SAMPLES)
    out = mix_noise(window, NoisePool(clips=()), gain=0.0, offset_seed=7)
    np.testing.assert_array_equal(out, window)


def test_mix_empty_pool_raises_when_gain_positive():
    with pytest.raises(VoicehandError, match="noise mixing requested but the pool is empty"):
        mix_noise(np.zeros(WINDOW_SAMPLES), NoisePool(clips=()), gain=0.1, offset_seed=7)


def _pool_one_clip(n=40000, seed=3):
    rng = np.random.default_rng(seed)
    return NoisePool(clips=(rng.integers(-32768, 32768, size=n, dtype=np.int16),))


def test_mix_is_deterministic_per_seed():
    window = np.zeros(WINDOW_SAMPLES)
    pool = _pool_one_clip()
    a = mix_noise(window, pool, gain=0.05, offset_seed=123)
    b = mix_noise(window, pool, gain=0.05, offset_seed=123)
    c = mix_noise(window, pool, gain=0.05, offset_seed=124)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_mix_adds_contiguous_noise_slice():
    # with a zero window the output IS gain * a slice of the pool clip
    pool = _pool_one_clip()
    out = mix_noise(np.zeros(WINDOW_SAMPLES), pool, gain=0.05, offset_seed=11)
    clip = pool.clips[0] / PCM_SCALE
    windows = np.lib.stride_tricks.sliding_window_view(clip, WINDOW_SAMPLES)
    matches = np.flatnonzero(np.isclose(windows[:, 0], out[0] / 0.05))
    assert any(np.allclose(out, 0.05 * windows[m]) for m in matches)


def test_mix_clamps_to_unit_range():
    window = np.ones(WINDOW_SAMPLES)
    pool = NoisePool(clips=(np.full(20000, 32767, dtype=np.int16),))
    out = mix_noise(window, pool, gain=0.1, offset_seed=5)
    np.testing.assert_array_equal(out, 1.0)


def test_pool_from_files_drops_short_clips(tmp_path):
    from voicehand.wav import write_wav

    long_path = tmp_path / "long.wav"
    short_path = tmp_path / "short.wav"
    write_wav(long_path, np.ones(16000, dtype=np.int16))
    write_wav(short_path, np.ones(400, dtype=np.int16))
    pool = NoisePool.from_files([long_path, short_path])
    assert len(pool) == 1
    assert pool.clips[0].shape == (16000,)
    assert pool.clips[0].dtype == np.int16


def test_mix_scales_only_the_crop_with_the_bits_of_the_scaled_clip(tmp_path):
    # the pool keeps int16 PCM; the mix must equal the one made from the
    # whole clip scaled to float64 first and then sliced
    from voicehand.wav import write_wav

    rng = np.random.default_rng(5)
    clips = [rng.integers(-32768, 32768, size=n, dtype=np.int16) for n in (16000, 23456)]
    paths = []
    for i, clip in enumerate(clips):
        paths.append(tmp_path / f"noise{i}.wav")
        write_wav(paths[-1], clip)
    pool = NoisePool.from_files(paths)
    window = rng.uniform(-1, 1, WINDOW_SAMPLES)
    for seed in range(12):
        pick = np.random.default_rng(seed)
        clip = clips[int(pick.integers(len(clips)))].astype(np.float64) / PCM_SCALE
        start = int(pick.integers(len(clip) - WINDOW_SAMPLES + 1))
        want = np.clip(window + 0.07 * clip[start : start + WINDOW_SAMPLES], -1.0, 1.0)
        got = mix_noise(window, pool, gain=0.07, offset_seed=seed)
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


@settings(max_examples=30, deadline=None)
@given(
    arrays(np.int16, st.integers(min_value=0, max_value=2000),
           elements=st.integers(min_value=-32768, max_value=32767)),
    st.floats(min_value=0.0, max_value=0.1),
    st.integers(min_value=0, max_value=2**31),
)
def test_window_values_bounded(samples, gain, seed):
    window = to_window_values(samples)
    assert window.shape == (WINDOW_SAMPLES,)
    pool = _pool_one_clip(seed=1)
    out = mix_noise(window, pool, gain=gain, offset_seed=seed)
    assert out.shape == (WINDOW_SAMPLES,)
    assert np.all(out >= -1.0) and np.all(out <= 1.0)
