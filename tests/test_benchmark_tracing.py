"""The benchmark's traced runs against the engine: every name
`perfbench/phases.py` wraps still exists, the paths it times are still
taken, and uninstalling puts every original back.

The benchmark only traces with `--trace 1`, which no other test runs, so
a renamed function or a stream path that stops calling
`classify_window` would otherwise show up only in a traced benchmark.
"""

import sys
from collections import Counter
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import phases  # noqa: E402
import tracing  # noqa: E402
from voicehand import commands, train, wav  # noqa: E402
from voicehand.adam import Adam  # noqa: E402
from voicehand.audio import NoisePool  # noqa: E402
from voicehand.dataset import index_dataset  # noqa: E402
from voicehand.gestures import GestureTable  # noqa: E402
from voicehand.network import build_network  # noqa: E402
from voicehand.synth import tone_samples, write_tone_dataset  # noqa: E402

from conftest import wav_bytes  # noqa: E402

THREE_SECONDS = 48000


def _callables(owner):
    """The functions a tracer may replace: an owner's own callable
    attributes (a wrapped method becomes one on its instance)."""
    return {key: value for key, value in vars(owner).items() if callable(value)}


def _snapshot(owners):
    return [(owner, _callables(owner)) for owner in owners]


def _assert_restored(snapshot):
    for owner, saved in snapshot:
        now = _callables(owner)
        assert now.keys() == saved.keys(), owner
        for key, value in saved.items():
            assert now[key] is value, (owner, key)


def _span_names(tracer):
    return Counter(span[3] for span in tracer.spans)


@pytest.fixture
def network():
    return build_network(seed=5)


def test_traced_recognize_records_each_stage(network):
    snapshot = _snapshot([commands, wav, network, *network.layers])
    tracer = tracing.Tracer()
    phases.trace_recognize(tracer, network)
    clip = wav.decode_wav(wav_bytes(tone_samples(2000.0, 0.5, 1.0)))
    commands.recognize_clip(network, clip, GestureTable.default())
    tracer.uninstall()
    _assert_restored(snapshot)
    names = _span_names(tracer)
    for name in ("wav.decode", "commands.recognize", "audio.to_window", "commands.classify",
                 "features.stft", "features.log", "commands.decide", "network.forward"):
        assert names[name] == 1, name
    for layer in network.layers:
        assert names[f"layers.{layer.name}.fwd"] == 1, layer.name


@pytest.mark.parametrize("hop_ms", [phases.HOP_FINE, phases.HOP_COARSE])
def test_traced_stream_records_each_stage(network, hop_ms):
    snapshot = _snapshot([commands, network, *network.layers])
    tracer = tracing.Tracer()
    phases.trace_stream(tracer, network)
    samples = tone_samples(2000.0, 0.5, 1.0, n_samples=THREE_SECONDS)
    config = commands.StreamConfig(hop_ms=hop_ms, refractory_ms=phases.STREAM_REFRACTORY_MS)
    list(commands.stream_decode(network, samples, GestureTable.default(), config))
    tracer.uninstall()
    _assert_restored(snapshot)
    names = _span_names(tracer)
    windows = len(commands.window_offsets(THREE_SECONDS, config))
    assert names["features.stft"] >= windows
    assert names["commands.decide"] >= 1
    for layer in network.layers:
        assert names[f"layers.{layer.name}.fwd"] >= 1, layer.name
    assert tracer.counts["stft_frames"] > 0
    assert tracer.counts["conv1_cols"] > 0
    if hop_ms == phases.HOP_COARSE:
        # commands.classify_ms.p50/p99 are read from these windows
        assert names["commands.classify"] == windows
    else:
        # the stream cache computes each new frame and conv1 column about once
        assert tracer.counts["stft_frames"] < 2 * (THREE_SECONDS // phases.STFT_HOP)


def test_traced_train_step_records_each_stage(network, tmp_path):
    root = write_tone_dataset(tmp_path / "tones", clips_per_class=2, val_fraction=0.0,
                              test_fraction=0.0)
    entries = index_dataset(root).split_entries("train")
    store = train.ClipStore()
    optimizer = Adam(learning_rate=1e-3)
    config = train.TrainConfig(batch_size=len(entries), augment=False)
    snapshot = _snapshot([train, network, *network.layers, store, optimizer])
    tracer = tracing.Tracer()
    step = {"start": tracing.ns()}
    phases.trace_train(tracer, network, store, optimizer, step)
    train.train_epoch(network, entries, store, NoisePool(clips=()), optimizer, config, 0)
    tracer.uninstall()
    _assert_restored(snapshot)
    names = _span_names(tracer)
    for name in ("train.step", "adam.step", "train.clip_window", "wav.read", "features.stft",
                 "features.log", "network.forward", "network.backward"):
        assert names[name] >= 1, name
    for layer in network.layers:
        assert names[f"layers.{layer.name}.fwd"] == 1, layer.name
        assert names[f"layers.{layer.name}.bwd"] == 1, layer.name

