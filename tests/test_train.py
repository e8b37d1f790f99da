"""Loss plumbing, the epoch loop, evaluation, and full-run artifacts."""

import json
import os
import struct
import subprocess
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

from voicehand.adam import Adam
from voicehand.audio import NoisePool
from voicehand.dataset import index_dataset
from voicehand.errors import CheckpointError, VoicehandError
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


def _pcm_files(tmp_path):
    """A padded, an exact and a truncated clip of random int16 samples."""
    from voicehand.wav import write_wav

    rng = np.random.default_rng(4)
    paths = []
    for name, n in (("short", 9000), ("exact", 16000), ("long", 23000)):
        paths.append(tmp_path / f"{name}.wav")
        write_wav(paths[-1], rng.integers(-32768, 32768, size=n, dtype=np.int16))
    return paths


def _fresh_features(paths, dtype):
    """A (len(paths), 129, 71, 1) batch of each clip's log power
    spectrogram, read and computed afresh and cast to dtype, as a
    training batch is filled."""
    from voicehand.audio import to_window
    from voicehand.features import log_compress, stft_power
    from voicehand.network import INPUT_SHAPE
    from voicehand.wav import read_wav

    batch = np.empty((len(paths),) + INPUT_SHAPE, dtype=dtype)
    for row, path in enumerate(paths):
        batch[row, :, :, 0] = log_compress(stft_power(to_window(read_wav(path))))
    return batch


def test_clip_store_caches_windows(tmp_path, monkeypatch):
    # the store reads each file once, keeps at most one window of int16
    # samples per path, and returns to_window(read_wav(path))'s bits, in a
    # fresh array, on every call
    import voicehand.train as train
    from voicehand.audio import to_window
    from voicehand.wav import read_wav

    paths = _pcm_files(tmp_path)
    reads = []
    monkeypatch.setattr(train, "read_wav", lambda path: reads.append(path) or read_wav(path))
    store = ClipStore()
    for _ in range(3):
        for path in paths:
            window = store.window(path)
            want = to_window(read_wav(path))
            assert window.shape == (16000,) and window.dtype == np.float64
            np.testing.assert_array_equal(window.view(np.uint64), want.view(np.uint64))
            window[:] = 2.0  # the next call must not see this
    assert reads == paths
    assert len(store._cache) == 3
    for clip in store._cache.values():
        assert clip.samples.dtype == np.int16 and len(clip.samples) <= 16000
        assert clip.samples.base is None  # owns its data: a long file is not kept alive


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_clip_store_features_are_the_fresh_bits_read_only(tmp_path, dtype):
    # the cached features equal a fresh spectrogram of the clip, cast as
    # a training batch casts it, and nobody can change them in place
    store = ClipStore()
    for path in _pcm_files(tmp_path):
        features = store.features(path, dtype)
        want = _fresh_features([path], dtype)[0, :, :, 0]
        assert features.shape == (129, 71) and features.dtype == dtype
        assert features.tobytes() == want.tobytes()
        assert not features.flags.writeable
        with pytest.raises(ValueError):
            features[0, 0] = 0.0
        assert store.features(str(path), np.dtype(dtype)) is features


def test_clip_store_keys_features_by_dtype(tmp_path):
    path = _pcm_files(tmp_path)[0]
    store = ClipStore()
    single = store.features(path, np.float32)
    double = store.features(path, np.float64)
    assert single.dtype == np.float32 and double.dtype == np.float64
    np.testing.assert_array_equal(single, double.astype(np.float32))
    assert store.features(path, np.float32) is single


def test_clip_store_features_drop_the_pcm_and_window_reads_again(tmp_path, monkeypatch):
    # an evaluated clip is held once, as features; a later window() reads
    # the file again and returns the same bits as before
    import voicehand.train as train
    from voicehand.wav import read_wav

    reads = []
    monkeypatch.setattr(train, "read_wav", lambda path: reads.append(path) or read_wav(path))
    store = ClipStore()
    for path in _pcm_files(tmp_path):
        before = store.window(path)
        store.features(path, np.float32)
        assert str(path) not in store._cache
        after = store.window(path)
        np.testing.assert_array_equal(after.view(np.uint64), before.view(np.uint64))
        assert reads[-2:] == [path, path]


def test_second_evaluate_computes_no_features(tiny_tree, monkeypatch):
    import voicehand.train as train
    from voicehand.wav import read_wav

    calls = {"stft_power": 0, "read_wav": 0}

    def counted(name, function):
        def wrapper(*args):
            calls[name] += 1
            return function(*args)
        return wrapper

    monkeypatch.setattr(train, "stft_power", counted("stft_power", train.stft_power))
    monkeypatch.setattr(train, "read_wav", counted("read_wav", read_wav))
    entries = index_dataset(tiny_tree).split_entries("train")
    net = _small_net()
    store = ClipStore()
    evaluate(net, entries, store, batch_size=3)
    assert calls == {"stft_power": len(entries), "read_wav": len(entries)}
    evaluate(net, entries, store, batch_size=3)
    assert calls == {"stft_power": len(entries), "read_wav": len(entries)}


def test_evaluate_is_the_same_with_cold_warm_and_no_store(tiny_tree):
    # the network sees the bits of an uncached batch of fresh features and
    # the confusion is theirs, whichever store evaluate reads
    entries = index_dataset(tiny_tree).split_entries("train")
    net = _small_net()
    want_batches = []
    want = np.zeros((9, 9), dtype=np.int64)
    for start in range(0, len(entries), 3):
        chunk = entries[start : start + 3]
        want_batches.append(_fresh_features([e.path for e in chunk], net.dtype))
        probs, _ = net.forward(want_batches[-1], mode="infer")
        for entry, p in zip(chunk, np.argmax(probs, axis=1)):
            want[int(entry.label), int(p)] += 1
    forward = net.forward
    batches = []
    net.forward = lambda x, **kwargs: batches.append(x.copy()) or forward(x, **kwargs)
    store = ClipStore()
    for run_store in (None, store, store):  # no store, cold, warm
        batches.clear()
        accuracy, confusion = evaluate(net, entries, run_store, batch_size=3)
        np.testing.assert_array_equal(confusion, want)
        assert accuracy == float(np.trace(want) / len(entries))
        assert len(batches) == len(want_batches)
        for got, expected in zip(batches, want_batches):
            np.testing.assert_array_equal(got.view(np.uint8), expected.view(np.uint8))


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
    with pytest.raises(VoicehandError, match="training split is empty"):
        fit(_small_net(), only_val, TrainConfig(epochs=1), tmp_path / "x")


def test_fit_augment_without_noise_raises(tmp_path, tiny_tree):
    index = index_dataset(tiny_tree)
    bare = type(index)(entries=index.entries, noise_files=())
    with pytest.raises(VoicehandError,
                       match="augmentation enabled but no usable background noise clips"):
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
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            CheckpointError, match="dense2 output is not finite"):
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
    with pytest.raises(VoicehandError, match="no entries to evaluate"):
        evaluate(_small_net(), [])


def test_training_reduces_loss_on_tiny_problem(tmp_path, tiny_tree):
    index = index_dataset(tiny_tree)
    reports = fit(_small_net(), index,
                  TrainConfig(epochs=8, batch_size=4, seed=7, augment=False),
                  tmp_path / "run")
    assert reports[-1].train_loss < reports[0].train_loss


def test_train_epoch_frees_each_step_trace_before_the_next_forward(tiny_tree):
    # a live trace holds every layer's cache, 8 MiB at batch 64
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


def test_train_step_peaks_below_27_mib(tmp_path):
    # one batch-64 step, augmented, with the clip store and Adam warm: the
    # batch is filled row by row; a list of its 64 float64 windows (8 MiB)
    # held beside it put the peak at 31.1 MiB
    index = index_dataset(write_tone_dataset(tmp_path, clips_per_class=30, seed=5))
    entries = index.split_entries("train")[:64]
    assert len(entries) == 64
    net = build_network(seed=5)
    config = TrainConfig(batch_size=64, seed=5)
    store, pool, optimizer = ClipStore(), NoisePool.from_files(index.noise_files), Adam()
    train_epoch(net, entries, store, pool, optimizer, config, 0)
    tracemalloc.start()
    try:
        train_epoch(net, entries, store, pool, optimizer, config, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 27 * 2**20


# Two epochs on a small tone set, with augmentation and a partial last
# batch, run in a process of its own at 1 and at 2 BLAS threads. The
# digest pins forward, backward and Adam to the bit; it was recorded when
# the conv gradients began reading only the pool winners' patches.
TWO_EPOCH_DIGEST = "5b8bdd89b7399326ad2dafeaaf2e4ff6798c72f7b6125bd2d45ea95c5504b281"

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


@pytest.mark.parametrize("threads", ["1", "2"])
def test_two_epochs_are_bit_identical_to_pinned_digest(tmp_path, threads):
    root = write_tone_dataset(tmp_path / "tones", clips_per_class=6, seed=23)
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads)
    proc = subprocess.run([sys.executable, "-c", TWO_EPOCH_SCRIPT, str(root)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == TWO_EPOCH_DIGEST
