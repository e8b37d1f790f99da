"""Minimal RIFF/WAVE reader and writer for 16 kHz mono 16-bit PCM.

The engine's contract is 16 kHz single-channel 16-bit PCM only; anything
else is rejected rather than resampled or downmixed.
"""

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import VoicehandError

SAMPLE_RATE = 16000


@dataclass(frozen=True)
class AudioClip:
    """Decoded PCM audio: int16 samples at 16 kHz, single channel."""

    samples: np.ndarray  # int16, shape (n,)


def decode_wav(data: bytes) -> AudioClip:
    """Parse a RIFF/WAVE byte string into an AudioClip.

    Accepts only PCM (format code 1), 16 bits per sample, 1 channel,
    16000 Hz. Unknown chunks are skipped; the first data chunk wins.
    """
    if len(data) < 12 or data[0:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise VoicehandError("missing RIFF/WAVE header")

    fmt = None
    pos = 12
    while pos + 8 <= len(data):
        chunk_id = data[pos : pos + 4]
        (chunk_size,) = struct.unpack_from("<I", data, pos + 4)
        body = data[pos + 8 : pos + 8 + chunk_size]
        if chunk_id == b"fmt ":
            if len(body) < 16:
                raise VoicehandError("fmt chunk too short")
            fmt = struct.unpack_from("<HHIIHH", body, 0)
        elif chunk_id == b"data":
            if fmt is None:
                raise VoicehandError("data chunk before fmt chunk")
            audio_format, channels, rate, _byte_rate, _block_align, bits = fmt
            if audio_format != 1 or bits != 16:
                raise VoicehandError(f"need 16-bit PCM, got format={audio_format} bits={bits}")
            if channels != 1:
                raise VoicehandError(f"need mono, got {channels} channels")
            if rate != SAMPLE_RATE:
                raise VoicehandError(f"need {SAMPLE_RATE} Hz, got {rate}")
            # a truncated file holds fewer bytes than chunk_size claims
            samples = np.frombuffer(body[: len(body) - len(body) % 2], dtype="<i2")
            return AudioClip(samples=samples.astype(np.int16))
        # chunks are word-aligned: odd sizes carry a pad byte
        pos += 8 + chunk_size + (chunk_size & 1)

    raise VoicehandError("no data chunk found")


def read_wav(path) -> AudioClip:
    return decode_wav(Path(path).read_bytes())


def write_wav(path, samples: np.ndarray) -> None:
    """Write int16 samples as a minimal 44-byte-header mono 16 kHz WAV file."""
    pcm = np.asarray(samples, dtype="<i2").tobytes()
    header = b"RIFF" + struct.pack("<I", 36 + len(pcm)) + b"WAVE"
    header += b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, SAMPLE_RATE, SAMPLE_RATE * 2, 2, 16)
    header += b"data" + struct.pack("<I", len(pcm))
    Path(path).write_bytes(header + pcm)
