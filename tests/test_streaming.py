"""Sliding-window decoding over long recordings, against the trained
session fixture."""

import numpy as np
import pytest

from voicehand.audio import WINDOW_SAMPLES, to_window_values
from voicehand.commands import (
    StreamConfig,
    accepts,
    classify_window,
    decide,
    stream_decode,
    window_offsets,
    window_probs,
)
from voicehand.gestures import GestureClass
from voicehand.rng import substream
from voicehand.synth import tone_samples
from voicehand.wav import SAMPLE_RATE


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


# ------------------------------------------------------- the stream cache


def _mixed_recording():
    """Silence, three tones, smoothed low-level hum and a tone cut short,
    so windows straddle every kind of boundary."""
    rng = substream(5, "stream-cache")
    hum = np.convolve(rng.normal(size=12000), np.ones(8) / 8.0, "same")
    hum = np.round(hum / np.max(np.abs(hum)) * 0.02 * 32767.0).astype(np.int16)
    return np.concatenate([
        np.zeros(7000, dtype=np.int16),
        tone_samples(2000.0, 0.5, 1.0),
        hum,
        tone_samples(500.0, 0.7, 0.2),
        np.zeros(5000, dtype=np.int16),
        tone_samples(6000.0, 0.4, 2.0, n_samples=11000),
        np.zeros(9000, dtype=np.int16),
    ])


def _reference_probs(network, samples, config):
    """`classify_window` on every window in full: the uncached path."""
    return [(offset, classify_window(network, to_window_values(
        samples[offset : offset + WINDOW_SAMPLES], pad=False)))
        for offset in window_offsets(len(samples), config)]


def _reference_decode(network, samples, table, config):
    """The acceptance and refractory rules over the uncached probabilities."""
    decisions, last_emit_ms = [], None
    for offset, probs in _reference_probs(network, samples, config):
        idx = int(np.argmax(probs))
        if not accepts(float(probs[idx]), GestureClass(idx), config.decision_threshold):
            continue
        t_ms = (offset + WINDOW_SAMPLES) * 1000 // SAMPLE_RATE
        if last_emit_ms is None or t_ms - last_emit_ms >= config.refractory_ms:
            last_emit_ms = t_ms
            decisions.append(decide(probs, table, t_ms=t_ms))
    return decisions


def _wire(decisions):
    return [(d.gesture, d.t_ms, b"".join(f.as_bytes() for f in d.frames)) for d in decisions]


# 910 ms is the first aligned hop that shares no pool1 column, 1050 ms
# the first that shares no STFT frame
ALIGNED_HOPS = (70, 140, 910, 1050)


@pytest.mark.parametrize("hop_ms", ALIGNED_HOPS)
@pytest.mark.parametrize("refractory_ms", (0, 1000))
def test_aligned_hops_decide_as_the_uncached_path(trained, hop_ms, refractory_ms):
    samples = _mixed_recording()
    config = StreamConfig(hop_ms=hop_ms, refractory_ms=refractory_ms)
    want = _reference_decode(trained.network, samples, trained.table, config)
    got = list(stream_decode(trained.network, samples, trained.table, config))
    assert want, "the recording should emit at every hop"
    assert _wire(got) == _wire(want)


@pytest.mark.parametrize("hop_ms", ALIGNED_HOPS)
def test_aligned_hops_match_every_window_within_tolerance(trained, hop_ms):
    samples = _mixed_recording()
    config = StreamConfig(hop_ms=hop_ms)
    want = _reference_probs(trained.network, samples, config)
    got = list(window_probs(trained.network, samples, config))
    assert [o for o, _ in got] == [o for o, _ in want]
    for (offset, p), (_, q) in zip(got, want):
        assert p.dtype == q.dtype
        np.testing.assert_allclose(p, q, rtol=0, atol=1e-5, err_msg=f"offset {offset}")
        assert np.argmax(p) == np.argmax(q), offset


def test_unaligned_hop_is_bitwise_the_uncached_path(trained):
    samples = _mixed_recording()
    config = StreamConfig(hop_ms=500)
    want = _reference_probs(trained.network, samples, config)
    got = list(window_probs(trained.network, samples, config))
    assert [o for o, _ in got] == [o for o, _ in want]
    assert all(p.tobytes() == q.tobytes() for (_, p), (_, q) in zip(got, want))


@pytest.mark.parametrize("hop_ms", (70, 500))
def test_input_shorter_than_a_window_gives_nothing(trained, hop_ms):
    samples = _mixed_recording()[: WINDOW_SAMPLES - 1]
    config = StreamConfig(hop_ms=hop_ms, decision_threshold=1e-9, refractory_ms=0)
    assert list(window_probs(trained.network, samples, config)) == []
    assert list(stream_decode(trained.network, samples, trained.table, config)) == []


def test_fine_hop_computes_each_conv1_column_about_once(trained):
    """A 70 ms decode runs conv1 over 65 columns for the first window and
    5 per window after it; dropping the cache would compute 65 each."""
    conv1 = trained.network.layers[0]
    computed = []

    def counting_forward(*args, **kwargs):
        out = type(conv1).forward(conv1, *args, **kwargs)
        computed.append(out[0].shape[0] * out[0].shape[2])
        return out

    samples = _mixed_recording()
    config = StreamConfig(hop_ms=70)
    conv1.forward = counting_forward
    try:
        list(stream_decode(trained.network, samples, trained.table, config))
    finally:
        del conv1.forward
    windows = len(window_offsets(len(samples), config))
    assert windows > 40
    assert sum(computed) <= 65 + 5 * (windows - 1)
