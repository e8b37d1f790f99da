"""Sample windows and background-noise mixing.

A sample window is exactly one second of 16 kHz audio as floats in
[-1, 1]; every clip is padded or truncated into that shape before
feature extraction.
"""

from dataclasses import dataclass

import numpy as np

from .errors import VoicehandError
from .wav import AudioClip, read_wav

WINDOW_SAMPLES = 16000
PCM_SCALE = 32768.0  # maps the full signed-16-bit range into [-1, 1)


@dataclass(frozen=True)
class NoisePool:
    """Background noise clips usable as augmentation sources, kept as
    int16 PCM (a quarter of their float64 size); `mix_noise` scales only
    the crop it takes.

    Clips shorter than one window are dropped at construction so any
    member can always supply a full 16000-sample crop.
    """

    clips: tuple

    @classmethod
    def from_files(cls, paths):
        clips = []
        for p in paths:
            samples = read_wav(p).samples
            if len(samples) >= WINDOW_SAMPLES:
                clips.append(samples)
        return cls(clips=tuple(clips))

    def __len__(self):
        return len(self.clips)


def to_window_values(samples: np.ndarray, pad=True) -> np.ndarray:
    values = np.asarray(samples, dtype=np.float64) / PCM_SCALE
    if not pad:
        return values
    if len(values) >= WINDOW_SAMPLES:
        return values[:WINDOW_SAMPLES]
    return np.concatenate([values, np.zeros(WINDOW_SAMPLES - len(values))])


def to_window(clip: AudioClip) -> np.ndarray:
    """Fix a clip to exactly one second: scale by 1/32768, zero-pad short
    clips at the end, head-truncate long ones."""
    return to_window_values(clip.samples)


def mix_noise(window: np.ndarray, pool: NoisePool, gain: float, offset_seed: int) -> np.ndarray:
    """Add a seeded random noise crop at `gain`, clamped to [-1, 1].

    gain 0 is the identity and needs no pool. The crop (clip choice and
    start offset) is fully determined by offset_seed.
    """
    if gain == 0.0:
        return np.array(window, dtype=np.float64)
    if len(pool) == 0:
        raise VoicehandError("noise mixing requested but the pool is empty")
    rng = np.random.default_rng(offset_seed)
    clip = pool.clips[int(rng.integers(len(pool.clips)))]
    start = int(rng.integers(len(clip) - WINDOW_SAMPLES + 1))
    crop = to_window_values(clip[start : start + WINDOW_SAMPLES], pad=False)
    return np.clip(window + gain * crop, -1.0, 1.0)
