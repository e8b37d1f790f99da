"""RIFF reader/writer against an independent struct-built oracle and the
stdlib wave module."""

import io
import struct
import wave

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voicehand.errors import (
    NotRiff,
    UnsupportedChannels,
    UnsupportedEncoding,
    UnsupportedSampleRate,
)
from voicehand.wav import AudioClip, decode_wav, read_wav, write_wav

from conftest import wav_bytes


def test_decode_hand_built_bytes():
    samples = np.array([0, 1, -1, 32767, -32768, 12345], dtype=np.int16)
    clip = decode_wav(wav_bytes(samples))
    assert clip.sample_rate_hz == 16000
    assert clip.samples.dtype == np.int16
    np.testing.assert_array_equal(clip.samples, samples)


def test_decode_known_header_layout():
    # 2-sample file, every header byte written out by hand
    raw = (
        b"RIFF" + struct.pack("<I", 40) + b"WAVE"
        + b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, 16000, 32000, 2, 16)
        + b"data" + struct.pack("<I", 4)
        + struct.pack("<hh", 258, -7)
    )
    clip = decode_wav(raw)
    np.testing.assert_array_equal(clip.samples, [258, -7])


def test_unknown_chunks_skipped_including_odd_sized():
    samples = np.array([5, -5, 9], dtype=np.int16)
    raw = wav_bytes(
        samples,
        pre_chunks=((b"JUNK", b"xyz"),),  # odd size forces a pad byte
        post_chunks=((b"LIST", b"\x00" * 10),),
    )
    np.testing.assert_array_equal(decode_wav(raw).samples, samples)


def test_first_data_chunk_wins():
    first = np.array([1, 2], dtype=np.int16)
    raw = wav_bytes(first)
    raw += b"data" + struct.pack("<I", 4) + struct.pack("<hh", 9, 9)
    np.testing.assert_array_equal(decode_wav(raw).samples, first)


def test_truncated_data_chunk_keeps_whole_samples_present():
    # the data chunk claims 100 bytes but the file ends after 5 of them
    raw = wav_bytes(np.array([7, -8, 9], dtype=np.int16))[:-1]
    raw = raw[:40] + struct.pack("<I", 100) + raw[44:]
    np.testing.assert_array_equal(decode_wav(raw).samples, [7, -8])


def test_not_riff_rejected():
    with pytest.raises(NotRiff):
        decode_wav(b"OggS" + b"\x00" * 40)
    with pytest.raises(NotRiff):
        decode_wav(b"RIFF" + struct.pack("<I", 4) + b"AVI ")
    with pytest.raises(NotRiff):
        decode_wav(b"")


def test_missing_data_chunk_rejected():
    raw = wav_bytes(np.zeros(2, dtype=np.int16))
    with pytest.raises(NotRiff):
        decode_wav(raw[: raw.index(b"data")])


def test_non_pcm_rejected():
    raw = wav_bytes(np.zeros(2, dtype=np.int16), fmt_code=3)
    with pytest.raises(UnsupportedEncoding):
        decode_wav(raw)


def test_wrong_bit_depth_rejected():
    raw = wav_bytes(np.zeros(2, dtype=np.int16), bits=8)
    with pytest.raises(UnsupportedEncoding):
        decode_wav(raw)


def test_stereo_rejected():
    raw = wav_bytes(np.zeros(2, dtype=np.int16), channels=2)
    with pytest.raises(UnsupportedChannels):
        decode_wav(raw)


def test_wrong_rate_rejected():
    raw = wav_bytes(np.zeros(2, dtype=np.int16), rate=8000)
    with pytest.raises(UnsupportedSampleRate):
        decode_wav(raw)


def test_clip_rejects_wrong_rate():
    with pytest.raises(UnsupportedSampleRate):
        AudioClip(samples=np.zeros(4, dtype=np.int16), sample_rate_hz=44100)


def test_writer_against_stdlib_wave(tmp_path):
    samples = (np.sin(np.linspace(0, 20, 1000)) * 20000).astype(np.int16)
    path = tmp_path / "t.wav"
    write_wav(path, samples)
    with wave.open(io.BytesIO(path.read_bytes())) as w:
        assert w.getnchannels() == 1
        assert w.getsampwidth() == 2
        assert w.getframerate() == 16000
        assert w.getnframes() == 1000
        decoded = np.frombuffer(w.readframes(1000), dtype="<i2")
    np.testing.assert_array_equal(decoded, samples)


def test_writer_header_is_minimal_44_bytes(tmp_path):
    path = tmp_path / "t.wav"
    write_wav(path, np.zeros(10, dtype=np.int16))
    assert path.stat().st_size == 44 + 20


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=-32768, max_value=32767), min_size=0, max_size=300))
def test_round_trip_exact(tmp_path_factory, values):
    samples = np.array(values, dtype=np.int16)
    path = tmp_path_factory.mktemp("rt") / "x.wav"
    write_wav(path, samples)
    back = read_wav(path)
    np.testing.assert_array_equal(back.samples, samples)
