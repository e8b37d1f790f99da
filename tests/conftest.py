"""Shared fixtures and independent oracle builders.

The WAV byte builder here is written from the RIFF format description
with struct only, so the reader in voicehand.wav is tested against a
second implementation rather than against itself. The trained-model
fixture runs a real 25-epoch training once per session on a synthetic
four-class dataset (three tones plus a near-silent hum class) so the
streaming and CLI tests exercise a network that actually discriminates.
"""

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from voicehand.checkpoint import load_checkpoint
from voicehand.dataset import index_dataset
from voicehand.gestures import GestureTable
from voicehand.network import Network, build_network
from voicehand.rng import substream
from voicehand.synth import tone_samples, write_tone_dataset
from voicehand.train import TrainConfig, fit
from voicehand.wav import write_wav


# any JSON value, nested at most a few levels
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=3),
    max_leaves=6,
)


def wav_bytes(samples, rate=16000, bits=16, channels=1, fmt_code=1,
              pre_chunks=(), post_chunks=()):
    """Build RIFF/WAVE bytes independently of voicehand.wav.

    pre_chunks / post_chunks are (id, body) pairs inserted around the fmt
    and data chunks to exercise unknown-chunk skipping and padding.
    """
    pcm = np.asarray(samples, dtype="<i2").tobytes()
    block_align = channels * bits // 8
    body = b""
    for cid, cbody in pre_chunks:
        body += cid + struct.pack("<I", len(cbody)) + cbody
        if len(cbody) % 2:
            body += b"\x00"
    body += b"fmt " + struct.pack(
        "<IHHIIHH", 16, fmt_code, channels, rate, rate * block_align, block_align, bits
    )
    for cid, cbody in post_chunks:
        body += cid + struct.pack("<I", len(cbody)) + cbody
        if len(cbody) % 2:
            body += b"\x00"
    body += b"data" + struct.pack("<I", len(pcm)) + pcm
    return b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body


def write_word_tree(root, words, clips_per_word=4, val_per_word=1, test_per_word=1,
                    noise_seconds=1.0, seed=99):
    """Handmade speech-commands style tree: deterministic low-amplitude
    clips per word folder, one background noise file, and split lists."""
    root = Path(root)
    rng = np.random.default_rng(seed)
    val_lines, test_lines = [], []
    for word in words:
        (root / word).mkdir(parents=True)
        for i in range(clips_per_word):
            n = 16000 if i % 2 == 0 else 8000  # exercise the zero-padding path
            samples = (rng.normal(size=n) * 500).astype(np.int16)
            name = f"{word}/w_{i:02d}.wav"
            (root / name).write_bytes(wav_bytes(samples))
            if i < val_per_word:
                val_lines.append(name)
            elif i < val_per_word + test_per_word:
                test_lines.append(name)
    noise_dir = root / "_background_noise_"
    noise_dir.mkdir()
    noise = (rng.normal(size=int(16000 * noise_seconds)) * 800).astype(np.int16)
    (noise_dir / "hiss.wav").write_bytes(wav_bytes(noise))
    (root / "validation_list.txt").write_text("\n".join(val_lines) + "\n")
    (root / "testing_list.txt").write_text("\n".join(test_lines) + "\n")
    return root


@pytest.fixture
def word_tree(tmp_path):
    return write_word_tree(tmp_path / "data", ("zero", "one", "hello"))


def add_hum_class(root, seed=11, clips=60, val_count=9, test_count=6):
    """Add a near-silence class so the trained fixture has a usable
    'unknown' bucket: every 12th clip is exact silence, the rest are
    smoothed noise at amplitudes far below the tone classes."""
    root = Path(root)
    (root / "hum").mkdir()
    rng = substream(seed, "synth", "hum")
    val_lines, test_lines = [], []
    for i in range(clips):
        if i % 12 == 0:
            samples = np.zeros(16000, dtype=np.int16)
        else:
            amplitude = 10.0 ** rng.uniform(-5.0, -0.6)
            noise = rng.normal(size=16000)
            smooth = np.convolve(noise, np.ones(8) / 8.0, "same")
            smooth = smooth / np.max(np.abs(smooth)) * amplitude
            samples = np.round(smooth * 32767.0).astype(np.int16)
        name = f"hum/clip_{i:04d}.wav"
        write_wav(root / name, samples)
        if i < val_count:
            val_lines.append(name)
        elif i < val_count + test_count:
            test_lines.append(name)
    for fname, lines in (("validation_list.txt", val_lines), ("testing_list.txt", test_lines)):
        path = root / fname
        path.write_text(path.read_text() + "\n".join(lines) + "\n")


@dataclass(frozen=True)
class TrainedModel:
    root: Path
    out_dir: Path
    network: Network
    best_ckpt: Path
    final_ckpt: Path
    log_csv: Path
    table: GestureTable


@pytest.fixture(scope="session")
def trained(tmp_path_factory) -> TrainedModel:
    """Train a real 4-class model (tones 500/2000/6000 Hz + hum) once per
    session; downstream tests assert exact decision behavior against it."""
    root = tmp_path_factory.mktemp("tones4")
    write_tone_dataset(root, clips_per_class=60, seed=11)
    add_hum_class(root, seed=11)
    index = index_dataset(root)
    network = build_network(seed=11)
    out_dir = tmp_path_factory.mktemp("run4")
    config = TrainConfig(epochs=25, batch_size=64, seed=11, augment=True)
    fit(network, index, config, out_dir)
    best = out_dir / "best.ckpt"
    meta = load_checkpoint(best, network)
    assert meta["val_acc"] >= 0.95, f"fixture training underperformed: {meta}"
    return TrainedModel(
        root=root,
        out_dir=out_dir,
        network=network,
        best_ckpt=best,
        final_ckpt=out_dir / "final.ckpt",
        log_csv=out_dir / "training_log.csv",
        table=GestureTable.default(),
    )


def tone_wav(path, freq_hz, amplitude=0.5, phase=1.0):
    write_wav(path, tone_samples(freq_hz, amplitude, phase))
    return Path(path)


def inflate_convs(network, scale=1000.0):
    """Scale both conv layers' weights and biases in place.

    ReLU and max-pool are positively homogeneous and train-mode batch norm
    is invariant to positive input scaling, so the network function is
    unchanged while every ReLU/pool tie margin grows by the same factor.
    Finite-difference probe windows stay absolute (h times the parameter),
    which is what makes the full-network check pass cleanly.
    """
    for name in ("conv1", "conv2"):
        layer = network[name]
        layer.weights *= scale
        layer.biases *= scale
    network.mark_mutated()
    return network


# Per-layer minimum distances from ReLU/pool ties required of a batch
# before it is gradient-checked. conv2/pool2 need more margin because the
# conv2 weight inflation also amplifies probe perturbations arriving from
# upstream parameters.
GRADCHECK_THRESHOLDS = {
    "conv1": 1e-3, "pool1": 1e-3, "conv2": 0.1, "pool2": 0.1, "dense1": 5e-3,
}


def read_csv_rows(path):
    lines = Path(path).read_text().strip().splitlines()
    return [line.split(",") for line in lines]


def assert_same_grad_bits(got, want):
    """Two gradient dicts hold the same names, in order, and the same bits."""
    assert list(got) == list(want)
    for name, g in want.items():
        assert got[name].dtype == g.dtype, name
        assert got[name].tobytes() == g.tobytes(), name
