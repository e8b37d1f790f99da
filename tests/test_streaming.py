"""Sliding-window decoding over long recordings, against the trained
session fixture."""

import numpy as np
import pytest

from voicehand.commands import StreamConfig, accepts, stream_decode, window_offsets
from voicehand.gestures import GestureClass
from voicehand.synth import tone_samples


def test_window_offsets_hop_and_coverage():
    config = StreamConfig()  # 500 ms hop
    offsets = list(window_offsets(40000, config))  # 2.5 s of audio
    assert offsets == [0, 8000, 16000, 24000]


def test_window_offsets_short_input_yields_nothing():
    assert list(window_offsets(15999, StreamConfig())) == []
    assert list(window_offsets(16000, StreamConfig())) == [0]


def test_window_offsets_respect_custom_hop():
    config = StreamConfig(hop_ms=250)
    assert list(window_offsets(24000, config)) == [0, 4000, 8000]


def test_config_validation():
    with pytest.raises(ValueError):
        StreamConfig(hop_ms=0)
    with pytest.raises(ValueError):
        StreamConfig(decision_threshold=1.5)
    with pytest.raises(ValueError):
        StreamConfig(refractory_ms=-1)
    assert StreamConfig(hop_ms=500).hop_samples == 8000


def test_accepts_at_the_threshold_and_never_unknown():
    assert accepts(0.7, GestureClass.ONE, 0.7)
    assert not accepts(np.nextafter(0.7, 0.0), GestureClass.ONE, 0.7)
    assert accepts(1.0, GestureClass.ONE, 1.0)
    assert not accepts(1.0, GestureClass.UNKNOWN, 0.0)
    assert not accepts(0.7, GestureClass.UNKNOWN, 0.7)


def _tone_in_silence(freq=2000.0, amplitude=0.5, phase=1.0):
    lead = np.zeros(8000, dtype=np.int16)
    tail = np.zeros(16000, dtype=np.int16)
    return np.concatenate([lead, tone_samples(freq, amplitude, phase), tail])


def test_silence_only_emits_nothing(trained):
    decisions = list(stream_decode(trained.network, np.zeros(40000, dtype=np.int16),
                                   trained.table))
    assert decisions == []


def test_tone_detected_then_suppressed_by_refractory(trained):
    samples = _tone_in_silence()
    decisions = list(stream_decode(trained.network, samples, trained.table))
    assert [d.t_ms for d in decisions] == [1000, 2000]
    assert all(d.gesture.word == "one" for d in decisions)
    assert all(d.prob >= 0.7 for d in decisions)
    # the 1500 ms window also saw the tone but fell inside the refractory gap
    assert all(b - a >= 1000 for a, b in zip([d.t_ms for d in decisions],
                                             [d.t_ms for d in decisions][1:]))


def test_refractory_zero_emits_every_confident_window(trained):
    config = StreamConfig(refractory_ms=0)
    decisions = list(stream_decode(trained.network, _tone_in_silence(), trained.table, config))
    times = [d.t_ms for d in decisions]
    assert 1500 in times  # the window the default refractory suppressed
    assert set(times) >= {1000, 1500, 2000}


def test_unknown_class_never_emits_even_at_tiny_threshold(trained):
    # the class gate is separate from the confidence gate: silence is
    # classified (confidently) as unknown and must stay silent on the wire
    config = StreamConfig(decision_threshold=1e-9, refractory_ms=0)
    decisions = list(stream_decode(trained.network, np.zeros(40000, dtype=np.int16),
                                   trained.table, config))
    assert decisions == []


def test_decisions_carry_wire_frames(trained):
    decisions = list(stream_decode(trained.network, _tone_in_silence(), trained.table))
    assert decisions, "fixture should detect the tone"
    frames = decisions[0].frames
    assert len(frames) == 5
    # "one" curls every finger but the index: full-scale on four channels
    codes = [f.code for f in frames]
    assert codes == [65535, 0, 65535, 65535, 65535]


def test_stream_without_table_uses_default_gestures(trained):
    decisions = list(stream_decode(trained.network, _tone_in_silence()))
    assert decisions
    assert all(len(d.frames) == 5 for d in decisions)


def test_timestamp_is_window_end(trained):
    decisions = list(stream_decode(trained.network, _tone_in_silence(), trained.table))
    # first emission covers samples [0, 16000): its timestamp is 1000 ms
    assert decisions[0].t_ms == 1000
