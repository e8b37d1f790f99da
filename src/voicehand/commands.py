"""From class probabilities to 16-bit DAC command frames.

Each finger actuator hangs off one channel of an 8-channel 16-bit I2C
DAC. A command frame is the 3-byte payload written to the device:

    byte 0   0x30 | channel   (write-and-update, channels 0..7)
    byte 1   code high byte
    byte 2   code low byte

The code is the contraction value scaled by the channel's max_fraction
cap onto the full 16-bit range, rounded half up. A window classified as
unknown, or below the decision threshold, produces no frames at all: the
hand holds its last pose.
"""

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .audio import WINDOW_SAMPLES, to_window, to_window_values
from .errors import VoicehandError
from .features import FEATURE_SHAPE, HOP, log_compress, stft_power
from .gestures import (DEFAULT_CHANNEL_MAP, FINGERS, FingerTrajectory, GestureClass, GestureTable,
                       lookup_trajectory)
from .network import run_layers
from .wav import SAMPLE_RATE, AudioClip

CMD_WRITE_UPDATE = 0x30
CODE_MAX = 0xFFFF


@dataclass(frozen=True)
class DacFrame:
    channel: int
    code: int

    def as_bytes(self) -> bytes:
        return bytes([CMD_WRITE_UPDATE | self.channel, self.code >> 8, self.code & 0xFF])


def trajectory_to_codes(trajectory: FingerTrajectory, max_fraction=(1.0,) * 8,
                        channel_map=DEFAULT_CHANNEL_MAP) -> tuple:
    """16-bit codes in finger order (thumb first).

    code = round_half_up(value * max_fraction[channel] * 65535), where the
    cap is looked up on the channel the finger is wired to.
    """
    codes = []
    for finger, value in zip(FINGERS, trajectory.as_tuple()):
        cap = max_fraction[channel_map[finger]]
        codes.append(int(value * cap * CODE_MAX + 0.5))
    return tuple(codes)


def encode_dac_frames(codes, channel_map=DEFAULT_CHANNEL_MAP) -> tuple:
    """One frame per finger, thumb first; validates channels and codes."""
    seen = {}
    frames = []
    for finger, code in zip(FINGERS, codes):
        channel = channel_map[finger]
        if not 0 <= channel <= 7:
            raise VoicehandError(f"{finger}: channel {channel} outside 0..7")
        if channel in seen:
            raise VoicehandError(f"{finger} and {seen[channel]} both wired to channel {channel}")
        seen[channel] = finger
        if not 0 <= code <= CODE_MAX:
            raise VoicehandError(f"{finger}: code {code} outside 0..{CODE_MAX}")
        frames.append(DacFrame(channel=channel, code=int(code)))
    return tuple(frames)


def frames_for(trajectory: Optional[FingerTrajectory], table: GestureTable) -> tuple:
    if trajectory is None:
        return ()
    codes = trajectory_to_codes(trajectory, table.max_fraction, table.channel_map)
    return encode_dac_frames(codes, table.channel_map)


@dataclass(frozen=True)
class Decision:
    """One classified window and the command it sends: an accepted
    decision carries its word's trajectory and frames, a rejected one
    neither, and the hand holds its pose."""

    gesture: GestureClass
    prob: float
    trajectory: Optional[FingerTrajectory]
    frames: tuple  # of DacFrame
    t_ms: Optional[int] = None  # window end time within a stream

    @property
    def accepted(self) -> bool:
        return self.trajectory is not None

    def to_json(self) -> str:
        """The wire JSON. A single-clip decision (no t_ms) says whether
        it was accepted, after prob."""
        doc = {}
        if self.t_ms is not None:
            doc["t_ms"] = int(self.t_ms)
        doc["class"] = self.gesture.word
        doc["prob"] = round(float(self.prob), 6)
        if self.t_ms is None:
            doc["accepted"] = self.accepted
        doc["trajectory"] = list(self.trajectory.as_tuple()) if self.accepted else None
        doc["frames"] = [list(f.as_bytes()) for f in self.frames]
        return json.dumps(doc)


def classify_window(network, window_values: np.ndarray) -> np.ndarray:
    """Class probabilities (9,) for one second of [-1, 1] samples."""
    feats = log_compress(stft_power(window_values))
    probs, _ = network.forward(feats[None, :, :, None], mode="infer")
    return probs[0]


def decide(probs: np.ndarray, table: GestureTable, threshold=0.0, t_ms=None) -> Decision:
    """The acceptance rule of recognize and stream: the most probable
    class is accepted when it is a known word whose probability reaches
    the threshold, and only then gets its trajectory and frames."""
    idx = int(np.argmax(probs))
    gesture = GestureClass(idx)
    prob = float(probs[idx])
    trajectory = lookup_trajectory(table, gesture) if prob >= threshold else None
    return Decision(gesture, prob, trajectory, frames_for(trajectory, table), t_ms)


def recognize_clip(network, clip: AudioClip, table: GestureTable, threshold=0.0) -> Decision:
    return decide(classify_window(network, to_window(clip)), table, threshold)


@dataclass(frozen=True)
class StreamConfig:
    hop_ms: int = 500
    decision_threshold: float = 0.7
    refractory_ms: int = 1000

    def __post_init__(self):
        if self.hop_ms <= 0:
            raise ValueError("hop_ms must be positive")
        if not 0.0 < self.decision_threshold <= 1.0:
            raise ValueError("decision_threshold must be in (0, 1]")
        if self.refractory_ms < 0:
            raise ValueError("refractory_ms must be non-negative")

    @property
    def hop_samples(self) -> int:
        return self.hop_ms * SAMPLE_RATE // 1000


def window_offsets(total_samples: int, config: StreamConfig = StreamConfig()):
    """Start offsets of every full window the stream evaluates."""
    return range(0, total_samples - WINDOW_SAMPLES + 1, config.hop_samples)


def window_probs(network, samples: np.ndarray, config: StreamConfig = StreamConfig()):
    """(offset, class probabilities) for every window `stream_decode`
    evaluates.

    A hop of k whole pool1 columns, k below a window's 13, is aligned:
    a pool1 column is STFT hop x pool1 width x conv1 stride (1) samples,
    1120 or 70 ms. There the state between windows is the last 6 (conv1
    width - 1) log frames and the 13 bn1 columns. Each window after the
    first computes only its 5k new STFT frames, runs conv1, pool1 and bn1
    over the 6 kept frames followed by them, which are the frames its k
    new pool1 columns read, and takes the rest of its bn1 output from the
    previous window, shifted by k columns. The frames are the same bits as a
    full window's, but conv1's matmul over fewer rows can round
    differently, so the probabilities agree with `classify_window` within
    1e-5 rather than bit for bit. At 70 ms conv1's 5 output columns take
    the row-major patch matrix (see `layers.Conv2D`), and its float32
    product is small enough for OpenBLAS's small-matrix kernel, which
    rounds it differently from a full window's: on the tests' trained
    model and stream recording the probabilities differ by up to 3e-7,
    with the same argmax. From 140 ms on conv1 lowers row blocks, as on
    a full window, and there they differ by 0. Any other hop runs
    `classify_window` on each window.
    """
    offsets = window_offsets(len(samples), config)
    prefix, suffix = network.layers[:3], network.layers[3:]
    fw, pw = prefix[0].weights.shape[1], prefix[1].pool_w
    n_frames = FEATURE_SHAPE[1]
    window_columns = (n_frames - fw + 1) // pw
    k, unaligned = divmod(config.hop_samples, HOP * pw)
    if unaligned or k >= window_columns:
        for offset in offsets:
            window = to_window_values(samples[offset : offset + WINDOW_SAMPLES], pad=False)
            yield offset, classify_window(network, window)
        return
    start = (n_frames - pw * k) * HOP  # first sample of a later window's new frames
    tail = None  # the last fw - 1 frames conv1 read, which it reads again
    for offset in offsets:
        first = offset if tail is None else offset + start
        values = to_window_values(samples[first : offset + WINDOW_SAMPLES], pad=False)
        frames = log_compress(stft_power(values)).astype(network.dtype)[None, :, :, None]
        if tail is None:
            columns = run_layers(prefix, frames)
        else:
            frames = np.concatenate([tail, frames], axis=2)
            columns = np.concatenate([columns[:, :, k:], run_layers(prefix, frames)], axis=2)
        tail = frames[:, :, 1 - fw :]
        yield offset, run_layers(suffix, columns)[0]


def stream_decode(network, samples: np.ndarray, table: GestureTable = None,
                  config: StreamConfig = StreamConfig()):
    """Decode a long 16 kHz PCM recording into command decisions.

    Slides a one-second window by hop_ms and yields the window's
    Decision whenever at least refractory_ms passed since the last
    emission and `decide` accepts it at the decision threshold. t_ms is
    the end of the emitting window.

    A hop that is a multiple of 70 ms, up to 840 ms, reuses work between
    windows (see `window_probs`), with the same decisions as classifying
    every window in full.
    """
    table = table or GestureTable.default()
    last_emit_ms = None
    for offset, probs in window_probs(network, samples, config):
        t_ms = (offset + WINDOW_SAMPLES) * 1000 // SAMPLE_RATE
        if last_emit_ms is not None and t_ms - last_emit_ms < config.refractory_ms:
            continue
        decision = decide(probs, table, config.decision_threshold, t_ms)
        if decision.accepted:
            last_emit_ms = t_ms
            yield decision
