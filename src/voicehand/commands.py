"""From class probabilities to 16-bit DAC command frames.

Each finger actuator hangs off one channel of an 8-channel 16-bit I2C
DAC. A command frame is the 3-byte payload written to the device:

    byte 0   0x30 | channel   (write-and-update, channels 0..7)
    byte 1   code high byte
    byte 2   code low byte

The code is the contraction value scaled by the channel's max_fraction
cap onto the full 16-bit range, rounded half up. A window classified as
unknown produces no frames at all: the hand holds its last pose.
"""

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .audio import WINDOW_SAMPLES, to_window, to_window_values
from .errors import ChannelOutOfRange, CodeOutOfRange, DuplicateChannel
from .features import log_compress, stft_power
from .gestures import FINGERS, FingerTrajectory, GestureClass, GestureTable, lookup_trajectory
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
                        channel_map=None) -> tuple:
    """16-bit codes in finger order (thumb first).

    code = round_half_up(value * max_fraction[channel] * 65535), where the
    cap is looked up on the channel the finger is wired to.
    """
    channel_map = channel_map or {f: i for i, f in enumerate(FINGERS)}
    codes = []
    for finger, value in zip(FINGERS, trajectory.as_tuple()):
        cap = max_fraction[channel_map[finger]]
        codes.append(int(value * cap * CODE_MAX + 0.5))
    return tuple(codes)


def encode_dac_frames(codes, channel_map=None) -> tuple:
    """One frame per finger, thumb first; validates channels and codes."""
    channel_map = channel_map or {f: i for i, f in enumerate(FINGERS)}
    seen = {}
    frames = []
    for finger, code in zip(FINGERS, codes):
        channel = channel_map[finger]
        if not 0 <= channel <= 7:
            raise ChannelOutOfRange(f"{finger}: channel {channel} outside 0..7")
        if channel in seen:
            raise DuplicateChannel(f"{finger} and {seen[channel]} both wired to channel {channel}")
        seen[channel] = finger
        if not 0 <= code <= CODE_MAX:
            raise CodeOutOfRange(f"{finger}: code {code} outside 0..{CODE_MAX}")
        frames.append(DacFrame(channel=channel, code=int(code)))
    return tuple(frames)


def frames_for(trajectory: Optional[FingerTrajectory], table: GestureTable) -> tuple:
    if trajectory is None:
        return ()
    codes = trajectory_to_codes(trajectory, table.max_fraction, table.channel_map)
    return encode_dac_frames(codes, table.channel_map)


@dataclass(frozen=True)
class Decision:
    """One classified window and the command it translates to."""

    gesture: GestureClass
    prob: float
    trajectory: Optional[FingerTrajectory]
    frames: tuple  # of DacFrame
    t_ms: Optional[int] = None  # window end time within a stream

    def to_json(self, accepted=None) -> str:
        """The wire JSON. Given `accepted` (a single-clip decision), the
        document carries it after prob, and a rejected decision carries
        no trajectory and no frames: the hand holds its pose."""
        doc = {}
        if self.t_ms is not None:
            doc["t_ms"] = int(self.t_ms)
        doc["class"] = self.gesture.word
        doc["prob"] = round(float(self.prob), 6)
        if accepted is not None:
            doc["accepted"] = accepted
        sent = accepted is not False
        doc["trajectory"] = list(self.trajectory.as_tuple()) if sent and self.trajectory else None
        doc["frames"] = [list(f.as_bytes()) for f in self.frames] if sent else []
        return json.dumps(doc)


def accepts(prob: float, gesture: GestureClass, threshold: float) -> bool:
    """The acceptance rule of recognize and stream: a known word whose
    probability reaches the threshold."""
    return prob >= threshold and gesture != GestureClass.UNKNOWN


def classify_window(network, window_values: np.ndarray) -> np.ndarray:
    """Class probabilities (9,) for one second of [-1, 1] samples."""
    feats = log_compress(stft_power(window_values)).astype(network.dtype)
    probs, _ = network.forward(feats[None, :, :, None], mode="infer")
    return probs[0]


def decide(probs: np.ndarray, table: GestureTable, t_ms=None) -> Decision:
    idx = int(np.argmax(probs))
    gesture = GestureClass(idx)
    trajectory = lookup_trajectory(table, gesture)
    return Decision(
        gesture=gesture,
        prob=float(probs[idx]),
        trajectory=trajectory,
        frames=frames_for(trajectory, table),
        t_ms=t_ms,
    )


def recognize_clip(network, clip: AudioClip, table: GestureTable) -> Decision:
    return decide(classify_window(network, to_window(clip)), table)


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


def stream_decode(network, samples: np.ndarray, table: GestureTable = None,
                  config: StreamConfig = StreamConfig()):
    """Decode a long 16 kHz PCM recording into command decisions.

    Slides a one-second window by hop_ms and yields a Decision whenever
    the window `accepts` at the decision threshold and at least
    refractory_ms passed since the last emission. t_ms is
    the end of the emitting window.
    """
    table = table or GestureTable.default()
    last_emit_ms = None
    for offset in window_offsets(len(samples), config):
        window = to_window_values(samples[offset : offset + WINDOW_SAMPLES], pad=False)
        probs = classify_window(network, window)
        idx = int(np.argmax(probs))
        if not accepts(float(probs[idx]), GestureClass(idx), config.decision_threshold):
            continue
        t_ms = (offset + WINDOW_SAMPLES) * 1000 // SAMPLE_RATE
        if last_emit_ms is not None and t_ms - last_emit_ms < config.refractory_ms:
            continue
        last_emit_ms = t_ms
        yield decide(probs, table, t_ms=t_ms)
