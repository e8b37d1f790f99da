"""Log power spectrogram features.

One second of 16 kHz audio becomes a 129x71 grid: 256-sample frames
hopped by 224 (the unique geometry giving 129 one-sided bins x 71
frames), Hann-windowed, squared-magnitude DFT, then ln(power + 1e-10).
Any fixed window/scaling constant turns into an additive log offset that
batch normalization absorbs downstream.
"""

from dataclasses import dataclass, field

import numpy as np

from .audio import WINDOW_SAMPLES, to_window
from .errors import BadWindowLength
from .wav import AudioClip


def hann_window(n: int) -> np.ndarray:
    # periodic form, w[i] = 0.5 - 0.5 cos(2 pi i / n)
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


@dataclass(frozen=True)
class StftSpec:
    segment_length: int = 256
    hop: int = 224
    epsilon: float = 1e-10
    window: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        if self.window is None:
            object.__setattr__(self, "window", hann_window(self.segment_length))

    @property
    def fft_bins(self) -> int:
        return self.segment_length // 2 + 1

    def frame_count(self, n_samples: int) -> int:
        return (n_samples - self.segment_length) // self.hop + 1


DEFAULT_STFT = StftSpec()

FEATURE_SHAPE = (DEFAULT_STFT.fft_bins, DEFAULT_STFT.frame_count(WINDOW_SAMPLES))  # (129, 71)


def stft_power(window: np.ndarray, spec: StftSpec = DEFAULT_STFT) -> np.ndarray:
    """Squared-magnitude one-sided DFT per frame; shape (bins, frames).

    Frame t covers samples [t*hop, t*hop + segment_length). A one-second
    window gives the network's 71 frames; any 1-D signal holding at least
    one segment gives `spec.frame_count(len(window))`, each frame the same
    bits as in a longer signal holding the same samples.
    """
    window = np.asarray(window, dtype=np.float64)
    if window.ndim != 1 or len(window) < spec.segment_length:
        raise BadWindowLength(f"expected at least {spec.segment_length} samples in one "
                              f"dimension, got shape {window.shape}")
    frames = np.lib.stride_tricks.sliding_window_view(window, spec.segment_length)[:: spec.hop]
    coeffs = np.fft.rfft(frames * spec.window, axis=1)
    return (coeffs.real**2 + coeffs.imag**2).T


def log_compress(power: np.ndarray, epsilon: float = DEFAULT_STFT.epsilon) -> np.ndarray:
    """ln(power + epsilon); the epsilon keeps silent bins off -inf."""
    return np.log(power + epsilon)


def compute_features(clip: AudioClip, spec: StftSpec = DEFAULT_STFT) -> np.ndarray:
    """Raw clip to the network's (129, 71) log power spectrogram."""
    return log_compress(stft_power(to_window(clip), spec), spec.epsilon)


def export_csv(features: np.ndarray, path) -> None:
    """129 rows (bin 0 = DC) x 71 comma-separated values."""
    np.savetxt(path, features, fmt="%.10g", delimiter=",")
