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
    VoicehandError,
)
from voicehand.wav import AudioClip, decode_wav, read_wav, write_wav

from conftest import wav_bytes


def test_decode_hand_built_bytes():
    samples = np.array([0, 1, -1, 32767, -32768, 12345], dtype=np.int16)
    clip = decode_wav(wav_bytes(samples))
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


# (format, channels, rate, bits) of a fmt chunk that decode_wav accepts
FMT_FIELDS = (1, 1, 16000, 16)
WRONG_FMT_FIELDS = [(3, 1, 16000, 16), (1, 2, 16000, 16), (1, 0, 16000, 16),
                    (1, 1, 8000, 16), (1, 1, 16000, 8)]


@st.composite
def wav_like_bytes(draw):
    """A RIFF file near an accepted one. It has a fmt and a data chunk and
    maybe two more chunks. Each defect comes one time in four: a fmt chunk
    of random bytes or with one wrong field, a chunk size other than the
    true one, the chunks shuffled, a few bytes overwritten, the end cut."""
    defect = st.sampled_from([False, False, False, True])
    fields = draw(st.sampled_from(WRONG_FMT_FIELDS)) if draw(defect) else FMT_FIELDS
    code, channels, rate, bits = fields
    fmt = struct.pack("<HHIIHH", code, channels, rate, rate * channels * 2, channels * 2, bits)
    if draw(defect):
        fmt = draw(st.binary(max_size=16))
    chunks = [(b"fmt ", fmt + draw(st.binary(max_size=3))), (b"data", draw(st.binary(max_size=40)))]
    chunk_ids = st.sampled_from([b"fmt ", b"data", b"LIST"]) | st.binary(min_size=4, max_size=4)
    chunks += draw(st.lists(st.tuples(chunk_ids, st.binary(max_size=9)), max_size=2))
    if draw(defect):
        chunks = draw(st.permutations(chunks))
    body = b""
    for chunk_id, chunk in chunks:
        size = draw(st.integers(0, 2**32 - 1)) if draw(defect) else len(chunk)
        body += chunk_id + struct.pack("<I", size) + chunk + b"\0" * (len(chunk) & 1)
    data = bytearray(b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body)
    if draw(defect):
        for at, value in draw(st.lists(st.tuples(st.integers(0, len(data) - 1),
                                                 st.integers(0, 255)), min_size=1, max_size=3)):
            data[at] = value
    return bytes(data[: draw(st.integers(0, len(data)))] if draw(defect) else data)


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=64) | wav_like_bytes())
def test_any_bytes_decode_to_a_clip_or_a_voicehand_error(data):
    try:
        clip = decode_wav(data)
    except VoicehandError:
        return
    assert isinstance(clip, AudioClip)
    assert clip.samples.dtype == np.int16 and clip.samples.ndim == 1
    assert 2 * len(clip.samples) <= len(data)
