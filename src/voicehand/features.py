"""Log power spectrogram features.

One second of 16 kHz audio becomes a 129x71 grid: 256-sample frames
hopped by 224 (the unique geometry giving 129 one-sided bins x 71
frames), Hann-windowed, squared-magnitude DFT, then ln(power + 1e-10).
Any fixed window/scaling constant turns into an additive log offset that
batch normalization absorbs downstream. The geometry is fixed: the
network's input shape and the stream cache's frame arithmetic read these
constants.
"""

import io

import numpy as np

from .atomic import write_atomic
from .audio import WINDOW_SAMPLES, to_window
from .errors import VoicehandError
from .wav import AudioClip

SEGMENT_LENGTH = 256  # samples per STFT frame
HOP = 224  # samples between frame starts
EPSILON = 1e-10  # keeps silent bins off -inf


# periodic Hann window, w[i] = 0.5 - 0.5 cos(2 pi i / n) for n = SEGMENT_LENGTH
HANN_WINDOW = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(SEGMENT_LENGTH) / SEGMENT_LENGTH)

FEATURE_SHAPE = (SEGMENT_LENGTH // 2 + 1, (WINDOW_SAMPLES - SEGMENT_LENGTH) // HOP + 1)  # (129, 71)


def stft_power(window: np.ndarray) -> np.ndarray:
    """Squared-magnitude one-sided DFT per frame; shape (bins, frames).

    Frame t covers samples [t*HOP, t*HOP + SEGMENT_LENGTH). A one-second
    window gives the network's 71 frames; any 1-D signal holding at least
    one segment gives (len - SEGMENT_LENGTH) // HOP + 1, each frame the
    same bits as in a longer signal holding the same samples.
    """
    window = np.asarray(window, dtype=np.float64)
    if window.ndim != 1 or len(window) < SEGMENT_LENGTH:
        raise VoicehandError(f"expected at least {SEGMENT_LENGTH} samples in one "
                             f"dimension, got shape {window.shape}")
    frames = np.lib.stride_tricks.sliding_window_view(window, SEGMENT_LENGTH)[::HOP]
    coeffs = np.fft.rfft(frames * HANN_WINDOW, axis=1)
    return (coeffs.real**2 + coeffs.imag**2).T


def log_compress(power: np.ndarray) -> np.ndarray:
    """ln(power + EPSILON)."""
    return np.log(power + EPSILON)


def compute_features(clip: AudioClip) -> np.ndarray:
    """Raw clip to the network's (129, 71) log power spectrogram."""
    return log_compress(stft_power(to_window(clip)))


def export_csv(features: np.ndarray, path) -> None:
    """129 rows (bin 0 = DC) x 71 comma-separated values, written
    atomically."""
    buffer = io.BytesIO()
    np.savetxt(buffer, features, fmt="%.10g", delimiter=",")
    write_atomic(path, buffer.getvalue())
