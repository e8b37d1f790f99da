"""Acceptance gate: one test per shipping criterion, each printing a
single PASS line with its measured numbers. Run with -v for one
pass/fail line per criterion, or -s to see the measurements.

Criterion 7 (accuracy on the real spoken-digit corpus) only runs when
VOICEHAND_SPEECH_COMMANDS_DIR points at a local copy; everything else is
self-contained and finishes in a few minutes.
"""

import json
import os
import time

import numpy as np
import pytest

from voicehand.adam import Adam
from voicehand.audio import NoisePool, to_window_values
from voicehand.checkpoint import load_checkpoint, save_checkpoint
from voicehand.commands import StreamConfig, stream_decode
from voicehand.dataset import index_dataset, subsample_unknown
from voicehand.features import FEATURE_SHAPE, compute_features, log_compress, stft_power
from voicehand.gestures import GestureClass, GestureTable, lookup_trajectory
from voicehand.network import (
    INPUT_SHAPE,
    REFERENCE_LAYER_PARAMS,
    build_network,
    count_params,
    output_shapes,
)
from voicehand.rng import substream
from voicehand.synth import write_tone_dataset
from voicehand.train import ClipStore, TrainConfig, evaluate, fit, one_hot, train_epoch
from voicehand.wav import AudioClip

from conftest import GRADCHECK_THRESHOLDS, inflate_convs, read_csv_rows
from gradcheck import draw_checkable_batch, gradient_check

REAL_DATA_ENV = "VOICEHAND_SPEECH_COMMANDS_DIR"


def test_c01_architecture_conformance():
    started = time.monotonic()
    net = build_network(seed=17)
    trainable, non_trainable, per_layer = count_params(net)
    assert trainable == 22577
    assert non_trainable == 80
    assert trainable + non_trainable == 22657
    assert tuple(per_layer) == REFERENCE_LAYER_PARAMS
    assert output_shapes() == [
        (120, 65, 8), (17, 13, 8), (17, 13, 8),
        (11, 9, 32), (2, 3, 32), (2, 3, 32),
        (192,), (64,), (64,), (9,),
    ]
    probs, _ = net.forward(np.zeros((1,) + INPUT_SHAPE))
    assert probs.shape == (1, 9)
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    print(f"criterion 1: PASS - 22577 trainable + 80 moving stats, "
          f"shape chain exact, {elapsed:.3f}s")


def test_c02_feature_conformance_against_naive_dft():
    k = np.arange(129)[:, None]
    t = np.arange(256)[None, :]
    dft = np.exp(-2j * np.pi * k * t / 256)
    hann = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(256) / 256)

    rng = np.random.default_rng(20)
    clips = [(rng.uniform(-1, 1, 16000) * 32767).astype(np.int16) for _ in range(100)]

    started = time.monotonic()
    produced = [compute_features(AudioClip(samples=c)) for c in clips]
    engine_seconds = time.monotonic() - started
    assert engine_seconds < 10.0

    worst = 0.0
    for clip, feats in zip(clips, produced):
        window = to_window_values(clip)
        segments = np.stack([window[i * 224 : i * 224 + 256] for i in range(71)])
        oracle = np.abs(dft @ (segments * hann).T) ** 2
        power = stft_power(window)
        scale = 1e-12 * max(oracle.max(), 1.0)
        worst = max(worst, float(np.max(np.abs(power - oracle)
                                        / np.maximum(np.abs(oracle), scale))))
        np.testing.assert_array_equal(feats, log_compress(power))
    assert worst < 1e-6

    silent = compute_features(AudioClip(samples=np.zeros(16000, dtype=np.int16)))
    assert silent.shape == FEATURE_SHAPE == (129, 71)
    assert np.all(silent == np.log(1e-10))
    print(f"criterion 2: PASS - 100 clips in {engine_seconds:.2f}s, "
          f"max rel err vs direct DFT {worst:.2e}, silence at ln(1e-10)")


def test_c03_full_network_gradient_check():
    started = time.monotonic()
    net = inflate_convs(build_network(seed=3, dtype=np.float64))
    rng = substream(12, "gradcheck")
    worst_overall = 0.0
    for batch in range(5):
        x, labels, _ = draw_checkable_batch(net, rng, GRADCHECK_THRESHOLDS, batch_size=2)
        report = gradient_check(net, x, one_hot(labels), h=1e-5)
        assert set(report) == set(net.parameters())
        worst = max(report.values())
        assert worst < 1e-4, (batch, report)
        worst_overall = max(worst_overall, worst)
    elapsed = time.monotonic() - started
    print(f"criterion 3: PASS - 5 batches x 22577 params, "
          f"max rel err {worst_overall:.2e} < 1e-4, {elapsed:.1f}s")


def test_c04_adam_scalar_recurrence_and_first_step():
    lr, b1, b2, eps = 1e-3, 0.9, 0.999, 1e-7
    theta, m, v = 0.7, 0.0, 0.0
    opt = Adam()
    params = {"w": np.array([0.7])}
    worst = 0.0
    for step in range(1, 11):
        g = np.cos(0.9 * step)
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        theta -= lr * (m / (1 - b1**step)) / ((v / (1 - b2**step)) ** 0.5 + eps)
        opt.step(params, {"w": np.array([g])})
        worst = max(worst, abs(params["w"][0] - theta))
    assert worst < 1e-12

    for g in (1e-6, 1.0, 1e6):
        exact = Adam(epsilon=0.0)
        p = {"w": np.array([0.0])}
        exact.step(p, {"w": np.array([g])})
        assert abs(abs(p["w"][0]) - lr) < 1e-6 * lr
        default_eps = Adam()
        p = {"w": np.array([0.0])}
        default_eps.step(p, {"w": np.array([g])})
        assert np.isclose(abs(p["w"][0]), lr * g / (g + eps), rtol=1e-12)
    print(f"criterion 4: PASS - 10-step recurrence within {worst:.1e}, "
          f"first step = lr across 12 orders of gradient magnitude")


def test_c05_overfit_small_batch(tmp_path):
    started = time.monotonic()
    root = write_tone_dataset(tmp_path / "tones", clips_per_class=16, seed=17)
    index = index_dataset(root)
    entries = index.split_entries("train")[:32]
    config = TrainConfig(epochs=200, batch_size=8, seed=17, augment=False)

    def run():
        net = build_network(seed=17)
        net["dropout"].rate = 0.0
        store = ClipStore()
        optimizer = Adam(learning_rate=config.learning_rate)
        history = []
        for epoch in range(config.epochs):
            loss, acc = train_epoch(net, entries, store, NoisePool(clips=()),
                                    optimizer, config, epoch)
            history.append((loss, acc))
            if acc == 1.0 and loss < 0.01:
                break
        return history

    history = run()
    loss, acc = history[-1]
    assert acc == 1.0
    assert loss < 0.01
    assert len(history) <= 200
    assert run() == history  # bit-for-bit deterministic per seed
    elapsed = time.monotonic() - started
    assert elapsed < 600.0
    print(f"criterion 5: PASS - 32 clips memorized at epoch {len(history) - 1} "
          f"(loss {loss:.4f}), deterministic, {elapsed:.1f}s")


def test_c06_tone_classes_learned_with_noise_augmentation(tmp_path):
    started = time.monotonic()
    root = write_tone_dataset(tmp_path / "tones", clips_per_class=200, seed=17)
    index = index_dataset(root)
    config = TrainConfig(epochs=20, batch_size=64, seed=17, augment=True)
    net = build_network(seed=17)
    store = ClipStore()
    pool = NoisePool.from_files(index.noise_files)
    optimizer = Adam(learning_rate=config.learning_rate)
    val_entries = index.split_entries("val")
    best = 0.0
    reached_at = None
    for epoch in range(config.epochs):
        train_epoch(net, index.split_entries("train"), store, pool, optimizer,
                    config, epoch)
        val_acc, _ = evaluate(net, val_entries, store, config.batch_size)
        best = max(best, val_acc)
        if val_acc >= 0.95:
            reached_at = epoch
            break
    elapsed = time.monotonic() - started
    assert best >= 0.95, f"best val acc {best:.3f} after {config.epochs} epochs"
    assert elapsed < 600.0
    print(f"criterion 6: PASS - val acc {best:.3f} at epoch {reached_at} "
          f"(500/2000/6000 Hz, noise-mixed), {elapsed:.1f}s")


@pytest.mark.skipif(REAL_DATA_ENV not in os.environ,
                    reason=f"set {REAL_DATA_ENV} to a speech-commands corpus to run")
def test_c07_real_corpus_accuracy(tmp_path):
    root = os.environ[REAL_DATA_ENV]
    index = subsample_unknown(index_dataset(root), seed=17)
    net = build_network(seed=17)
    fit(net, index, TrainConfig(seed=17), tmp_path / "run")
    load_checkpoint(tmp_path / "run" / "best.ckpt", net)
    accuracy, _ = evaluate(net, index.split_entries("test"))
    assert 0.85 <= accuracy <= 0.93
    print(f"criterion 7: PASS - test accuracy {accuracy:.4f}")


def test_c08_single_clip_latency():
    net = build_network(seed=17)
    rng = np.random.default_rng(30)
    clips = [(rng.uniform(-1, 1, 16000) * 32767).astype(np.int16) for _ in range(60)]
    # warm-up outside the timed region
    net.forward(compute_features(AudioClip(samples=clips[0]))[None, :, :, None])
    timings = []
    for clip in clips[10:]:
        started = time.perf_counter()
        feats = compute_features(AudioClip(samples=clip)).astype(np.float32)
        probs, _ = net.forward(feats[None, :, :, None])
        timings.append(time.perf_counter() - started)
        assert probs.shape == (1, 9)
    median_ms = float(np.median(timings) * 1000.0)
    assert len(timings) == 50
    assert median_ms < 10.0
    print(f"criterion 8: PASS - median {median_ms:.2f} ms over 50 clips "
          f"(bound 10 ms; dedicated embedded hardware reaches ~2 ms)")


def test_c09_command_path_exact_bytes():
    table = GestureTable.default()
    trajectory = lookup_trajectory(table, GestureClass.TWO)
    assert trajectory.as_tuple() == (1.0, 0.0, 0.0, 1.0, 1.0)
    from voicehand.commands import frames_for

    frames = [list(f.as_bytes()) for f in frames_for(trajectory, table)]
    assert frames == [
        [0x30, 0xFF, 0xFF],
        [0x31, 0x00, 0x00],
        [0x32, 0x00, 0x00],
        [0x33, 0xFF, 0xFF],
        [0x34, 0xFF, 0xFF],
    ]
    held = frames_for(lookup_trajectory(table, GestureClass.UNKNOWN), table)
    assert held == ()
    print("criterion 9: PASS - 'two' encodes to the exact 5-frame sequence, "
          "unknown sends nothing")


def test_c10_checkpoint_round_trip_and_reproducible_training(tmp_path):
    started = time.monotonic()
    root = write_tone_dataset(tmp_path / "tones", clips_per_class=8, seed=17)
    index = index_dataset(root)

    runs = []
    for run_name in ("a", "b"):
        net = build_network(seed=17)
        out = tmp_path / run_name
        fit(net, index, TrainConfig(epochs=3, batch_size=8, seed=17), out)
        runs.append((net, out))

    (net_a, out_a), (net_b, out_b) = runs
    rows_a = read_csv_rows(out_a / "training_log.csv")
    rows_b = read_csv_rows(out_b / "training_log.csv")
    assert len(rows_a) == len(rows_b) == 4
    for ra, rb in zip(rows_a, rows_b):
        assert ra[:4] == rb[:4]  # identical apart from the seconds column
    assert (out_a / "final.ckpt").read_bytes() == (out_b / "final.ckpt").read_bytes()

    reloaded = build_network(seed=1)
    load_checkpoint(out_a / "final.ckpt", reloaded)
    for (name, x), (_, y) in zip(net_a.state_tensors(), reloaded.state_tensors()):
        assert x.tobytes() == y.tobytes(), name
    resaved = tmp_path / "resaved.ckpt"
    meta = {"epoch": 2, "val_acc": rows_a[-1][3]}
    save_checkpoint(resaved, reloaded, metadata=meta)
    save_checkpoint(tmp_path / "again.ckpt", reloaded, metadata=meta)
    assert resaved.read_bytes() == (tmp_path / "again.ckpt").read_bytes()

    elapsed = time.monotonic() - started
    assert elapsed < 120.0
    print(f"criterion 10: PASS - bitwise round trip, twin runs agree "
          f"column-for-column, {elapsed:.1f}s")
