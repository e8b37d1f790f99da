"""Loss plumbing, the epoch loop, evaluation, and full-run artifacts."""

import json
import os
import struct
import subprocess
import sys
import weakref

import numpy as np
import pytest

from voicehand.adam import Adam
from voicehand.dataset import index_dataset
from voicehand.errors import EmptyNoisePool, EmptySplit, EmptyTrainingSplit, NonFiniteOutput
from voicehand.gestures import GestureClass
from voicehand.network import build_network
from voicehand.synth import write_tone_dataset
from voicehand.train import (
    LOG_COLUMNS,
    ClipStore,
    TrainConfig,
    cross_entropy,
    evaluate,
    fit,
    one_hot,
    train_epoch,
)

from conftest import read_csv_rows, write_word_tree


def test_one_hot_layout():
    targets = one_hot([0, 8, 3])
    assert targets.shape == (3, 9)
    assert targets.dtype == np.float64
    np.testing.assert_array_equal(targets.sum(axis=1), 1.0)
    assert targets[0, 0] == targets[1, 8] == targets[2, 3] == 1.0


def test_cross_entropy_uniform_is_log_nine():
    probs = np.full((4, 9), 1.0 / 9.0)
    assert np.isclose(cross_entropy(probs, [0, 1, 2, 3]), np.log(9.0))


def test_cross_entropy_perfect_prediction_is_zero():
    probs = one_hot([2, 5])
    assert cross_entropy(probs, [2, 5]) < 1e-10


def test_cross_entropy_clamps_certain_wrong():
    probs = one_hot([0, 0])
    loss = cross_entropy(probs, [1, 1])  # target probability exactly 0
    assert np.isfinite(loss)
    assert np.isclose(loss, -np.log(1e-12))


def test_cross_entropy_mixed_case_oracle():
    probs = np.array([[0.7, 0.2, 0.1], [0.1, 0.8, 0.1]])
    want = -(np.log(0.7) + np.log(0.8)) / 2.0
    assert np.isclose(cross_entropy(probs, [0, 1]), want)


def test_clip_store_caches_windows(tmp_path):
    from voicehand.wav import write_wav

    path = tmp_path / "a.wav"
    write_wav(path, np.full(16000, 1000, dtype=np.int16))
    store = ClipStore()
    w1 = store.window(path)
    w2 = store.window(path)
    assert w1 is w2
    assert w1.shape == (16000,)


@pytest.fixture
def tiny_tree(tmp_path):
    return write_word_tree(tmp_path / "tiny", ("zero", "one"), clips_per_word=6,
                           noise_seconds=1.2)


def _small_net():
    net = build_network(seed=7)
    net["dropout"].rate = 0.0
    return net


def test_fit_writes_log_and_checkpoints(tmp_path, tiny_tree):
    index = index_dataset(tiny_tree)
    out = tmp_path / "run"
    config = TrainConfig(epochs=2, batch_size=4, seed=7)
    reports = fit(_small_net(), index, config, out)
    assert len(reports) == 2
    assert (out / "best.ckpt").is_file()
    assert (out / "final.ckpt").is_file()
    rows = read_csv_rows(out / "training_log.csv")
    assert rows[0] == list(LOG_COLUMNS)
    assert len(rows) == 3
    assert [r[0] for r in rows[1:]] == ["0", "1"]
    for row in rows[1:]:
        assert 0.0 <= float(row[2]) <= 1.0  # train_acc
        assert 0.0 <= float(row[3]) <= 1.0  # val_acc
        assert float(row[4]) >= 0.0  # seconds


def test_fit_is_deterministic_per_seed(tmp_path, tiny_tree):
    index = index_dataset(tiny_tree)
    outs = []
    for run in ("a", "b"):
        net = _small_net()
        fit(net, index, TrainConfig(epochs=2, batch_size=4, seed=7), tmp_path / run)
        outs.append((net, read_csv_rows(tmp_path / run / "training_log.csv")))
    (net_a, rows_a), (net_b, rows_b) = outs
    for ra, rb in zip(rows_a, rows_b):
        assert ra[:4] == rb[:4]  # identical apart from wall-clock seconds
    for (name, pa), (_, pb) in zip(net_a.state_tensors(), net_b.state_tensors()):
        np.testing.assert_array_equal(pa, pb, err_msg=name)


def test_fit_differs_across_seeds(tmp_path, tiny_tree):
    index = index_dataset(tiny_tree)
    rows = []
    for seed, run in ((7, "a"), (8, "b")):
        fit(_small_net(), index, TrainConfig(epochs=1, batch_size=4, seed=seed),
            tmp_path / run)
        rows.append(read_csv_rows(tmp_path / run / "training_log.csv")[1])
    assert rows[0][1:4] != rows[1][1:4]


@pytest.mark.parametrize("lr", [float("nan"), float("inf"), 0.0, -1.0])
def test_config_rejects_learning_rate_not_finite_and_positive(lr):
    with pytest.raises(ValueError, match="learning_rate"):
        TrainConfig(learning_rate=lr)


def test_fit_without_val_split_writes_strict_json_headers(tmp_path, tiny_tree):
    index = index_dataset(tiny_tree)
    no_val = type(index)(
        entries=tuple(e for e in index.entries if e.split != "val"),
        noise_files=index.noise_files,
    )
    out = tmp_path / "run"
    reports = fit(_small_net(), no_val, TrainConfig(epochs=1, batch_size=4, seed=7), out)
    assert np.isnan(reports[-1].val_acc)

    def refuse(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    for name in ("best.ckpt", "final.ckpt"):
        data = (out / name).read_bytes()
        (header_len,) = struct.unpack("<I", data[8:12])
        header = json.loads(data[12 : 12 + header_len], parse_constant=refuse)
        assert header["metadata"] == {"epoch": 0, "val_acc": None}


def test_fit_empty_training_split_raises(tmp_path, tiny_tree):
    index = index_dataset(tiny_tree)
    only_val = type(index)(
        entries=tuple(e for e in index.entries if e.split == "val"),
        noise_files=index.noise_files,
    )
    with pytest.raises(EmptyTrainingSplit):
        fit(_small_net(), only_val, TrainConfig(epochs=1), tmp_path / "x")


def test_fit_augment_without_noise_raises(tmp_path, tiny_tree):
    index = index_dataset(tiny_tree)
    bare = type(index)(entries=index.entries, noise_files=())
    with pytest.raises(EmptyNoisePool):
        fit(_small_net(), bare, TrainConfig(epochs=1, augment=True), tmp_path / "x")
    # augmentation off: same tree trains fine
    fit(_small_net(), bare, TrainConfig(epochs=1, batch_size=4, augment=False),
        tmp_path / "y")


def test_fit_stops_when_validation_outputs_are_not_finite(tmp_path):
    # an overflowing network trains on NaN without complaint; its first
    # validation pass ends the run before best.ckpt is chosen by a NaN score
    index = index_dataset(write_tone_dataset(tmp_path / "tones", clips_per_class=4))
    assert index.split_entries("val")
    net = _small_net()
    net["conv1"].weights[...] = 3e38
    out = tmp_path / "run"
    config = TrainConfig(epochs=2, batch_size=4, seed=7, augment=False)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteOutput):
        fit(net, index, config, out)
    assert not (out / "best.ckpt").exists()
    assert not (out / "final.ckpt").exists()


def test_evaluate_confusion_accounting(tiny_tree):
    index = index_dataset(tiny_tree)
    entries = index.split_entries("train")
    accuracy, confusion = evaluate(_small_net(), entries)
    assert confusion.shape == (9, 9)
    assert confusion.dtype == np.int64
    assert confusion.sum() == len(entries)
    for label in (GestureClass.ZERO, GestureClass.ONE):
        row_total = confusion[int(label)].sum()
        assert row_total == sum(1 for e in entries if e.label == label)
    assert np.isclose(accuracy, np.trace(confusion) / len(entries))


def test_evaluate_empty_split_raises():
    with pytest.raises(EmptySplit):
        evaluate(_small_net(), [])


def test_training_reduces_loss_on_tiny_problem(tmp_path, tiny_tree):
    index = index_dataset(tiny_tree)
    reports = fit(_small_net(), index,
                  TrainConfig(epochs=8, batch_size=4, seed=7, augment=False),
                  tmp_path / "run")
    assert reports[-1].train_loss < reports[0].train_loss


def test_train_epoch_frees_each_step_trace_before_the_next_forward(tiny_tree):
    # a live trace holds conv1's patch matrix, 140 MB at batch 64
    index = index_dataset(tiny_tree)
    entries = index.split_entries("train")
    config = TrainConfig(batch_size=3, seed=7, augment=False)
    assert len(entries) > 2 * config.batch_size  # three steps
    net = _small_net()
    forward = net.forward
    traces = []

    def forward_checking_previous_traces(*args, **kwargs):
        assert all(ref() is None for ref in traces), f"trace alive at forward {len(traces)}"
        probs, trace = forward(*args, **kwargs)
        traces.append(weakref.ref(trace))
        return probs, trace

    net.forward = forward_checking_previous_traces
    train_epoch(net, entries, ClipStore(), None, Adam(), config, 0)
    assert len(traces) == 3
    assert traces[-1]() is None


# Two epochs on a small tone set, with augmentation and a partial last
# batch. The digest was recorded before the first layer stopped computing
# its input gradient, so it pins forward, backward and Adam to the bit.
# The summation order of OpenBLAS's float32 matmuls depends on its thread
# count (1 and 2 threads give different digests), so the run gets its
# own process with one BLAS thread.
TWO_EPOCH_DIGEST = "e08e4bbeed4cc82fd594b95e7f40411a6a15f0841bfb4ca40a8c7a27c1099b73"

TWO_EPOCH_SCRIPT = """
import hashlib, sys
from voicehand.adam import Adam
from voicehand.audio import NoisePool
from voicehand.dataset import index_dataset
from voicehand.network import build_network
from voicehand.train import ClipStore, TrainConfig, train_epoch

index = index_dataset(sys.argv[1])
net = build_network(seed=23)
config = TrainConfig(batch_size=5, seed=23)
optimizer = Adam(learning_rate=config.learning_rate)
store = ClipStore()
pool = NoisePool.from_files(index.noise_files)
for epoch in range(2):
    train_epoch(net, index.split_entries("train"), store, pool, optimizer, config, epoch)
digest = hashlib.sha256()
for name, tensor in net.state_tensors():
    digest.update(name.encode())
    digest.update(tensor.tobytes())
print(digest.hexdigest())
"""


def test_two_epochs_are_bit_identical_to_pinned_digest(tmp_path):
    root = write_tone_dataset(tmp_path / "tones", clips_per_class=6, seed=23)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", TWO_EPOCH_SCRIPT, str(root)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == TWO_EPOCH_DIGEST
