"""Minibatch training with Adam, plus split evaluation.

One run is fully determined by (seed, dataset, config): shuffles,
dropout masks, and noise augmentation all come from named substreams of
the root seed, and augmentation is keyed by (epoch, example index) so it
does not depend on shuffle order or batch size.
"""

import csv
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .adam import Adam
from .audio import WINDOW_SAMPLES, NoisePool, mix_noise, to_window
from .checkpoint import save_checkpoint
from .dataset import DatasetIndex
from .errors import VoicehandError
from .features import log_compress, stft_power
from .gestures import CLASS_NAMES
from .network import INPUT_SHAPE, Network
from .rng import substream
from .wav import AudioClip, read_wav

N_CLASSES = len(CLASS_NAMES)
PROB_FLOOR = 1e-12  # keeps the loss finite when the net is certain and wrong
NOISE_PROB = 0.8  # share of augmented training windows that get background noise
NOISE_GAIN_MAX = 0.1  # noise gain is drawn uniformly from [0, NOISE_GAIN_MAX)

LOG_COLUMNS = ("epoch", "train_loss", "train_acc", "val_acc", "seconds")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 90
    batch_size: int = 64
    learning_rate: float = 1e-3
    seed: int = 17
    augment: bool = True

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be at least 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be at least 1, got {self.batch_size}")
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be finite and above 0, "
                             f"got {self.learning_rate}")
        if self.seed < 0:
            raise ValueError(f"seed must be at least 0, got {self.seed}")


@dataclass(frozen=True)
class EpochReport:
    epoch: int
    train_loss: float
    train_acc: float
    val_acc: float
    seconds: float


def one_hot(labels, n_classes=N_CLASSES, dtype=np.float64) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64)
    out = np.zeros((len(labels), n_classes), dtype=dtype)
    out[np.arange(len(labels)), labels] = 1
    return out


def cross_entropy(probs: np.ndarray, labels) -> float:
    """Mean negative log probability assigned to the true class."""
    labels = np.asarray(labels, dtype=np.int64)
    p = np.maximum(probs[np.arange(len(labels)), labels], PROB_FLOOR)
    return float(-np.mean(np.log(p)))


class ClipStore:
    """Clips cached by path, so repeated epochs skip the file reads and
    repeated evaluations skip the spectrograms.

    `window(path)` serves training, whose windows are augmented afresh
    every epoch. The path keeps at most its first WINDOW_SAMPLES samples
    as int16 PCM, all that `to_window` reads (32 KB, where the float64
    window is 128 KB), scaled and padded again on every call: int16 /
    32768 is exact in float64, so each call returns the same bits as a
    fresh `to_window(read_wav(path))`, in a new array the caller may
    change.

    `features(path, dtype)` serves evaluation, whose clips never change.
    The first call computes the (129, 71) log power spectrogram, as
    `train_epoch` does for each row of its batch, cast to `dtype`; every
    call returns that one read-only array. Entries are keyed by (path,
    dtype), so float32 and float64 networks never share one. The path's
    PCM is dropped then, so an evaluated clip is held once, 36.6 KB of
    float32; a later `window` on it reads the file again and returns the
    same bits."""

    def __init__(self):
        self._cache = {}
        self._features = {}

    def window(self, path) -> np.ndarray:
        key = str(path)
        if key not in self._cache:
            self._cache[key] = AudioClip(read_wav(path).samples[:WINDOW_SAMPLES].copy())
        return to_window(self._cache[key])

    def features(self, path, dtype) -> np.ndarray:
        key = (str(path), np.dtype(dtype))
        if key not in self._features:
            features = log_compress(stft_power(self.window(path))).astype(key[1])
            features.flags.writeable = False
            self._features[key] = features
            del self._cache[key[0]]
        return self._features[key]


def _augmented_window(window, pool, config: TrainConfig, epoch: int, index: int):
    rng = substream(config.seed, "augment", epoch, index)
    if rng.random() >= NOISE_PROB:
        return window
    gain = rng.uniform(0.0, NOISE_GAIN_MAX)
    return mix_noise(window, pool, gain, int(rng.integers(2**63)))


def train_epoch(network: Network, entries, store: ClipStore, pool, optimizer: Adam,
                config: TrainConfig, epoch: int):
    """One pass over the training entries; returns (mean loss, accuracy)
    measured on the training-mode forward passes."""
    order = substream(config.seed, "shuffle", epoch).permutation(len(entries))
    total_loss = 0.0
    total_correct = 0
    for start in range(0, len(order), config.batch_size):
        chosen = order[start : start + config.batch_size]
        batch = np.empty((len(chosen),) + INPUT_SHAPE, dtype=network.dtype)
        labels = np.empty(len(chosen), dtype=np.int64)
        for row, idx in enumerate(chosen):
            entry = entries[idx]
            window = store.window(entry.path)
            if config.augment:
                window = _augmented_window(window, pool, config, epoch, int(idx))
            batch[row, :, :, 0] = log_compress(stft_power(window))
            labels[row] = int(entry.label)
        dropout_rng = substream(config.seed, "dropout", epoch, start)
        probs, trace = network.forward(batch, mode="train", dropout_rng=dropout_rng)
        grads = network.backward(trace, one_hot(labels, dtype=network.dtype))
        del trace  # its caches (8.2 MiB at batch 64, input included) must not outlive the step
        optimizer.step(network.parameters(), grads)
        network.mark_mutated()
        total_loss += cross_entropy(probs, labels) * len(chosen)
        total_correct += int(np.sum(np.argmax(probs, axis=1) == labels))
    return total_loss / len(entries), total_correct / len(entries)


def evaluate(network: Network, entries, store: ClipStore = None, batch_size: int = 64):
    """Inference-mode accuracy and 9x9 confusion matrix (rows true class,
    columns predicted) over `entries`, no augmentation. Each clip's
    features come from `store`, computed on its first evaluation only."""
    if not entries:
        raise VoicehandError("no entries to evaluate")
    store = store or ClipStore()
    confusion = np.zeros((N_CLASSES, N_CLASSES), dtype=np.int64)
    for start in range(0, len(entries), batch_size):
        chunk = entries[start : start + batch_size]
        batch = np.empty((len(chunk),) + INPUT_SHAPE, dtype=network.dtype)
        for row, entry in enumerate(chunk):
            batch[row, :, :, 0] = store.features(entry.path, network.dtype)
        probs, _ = network.forward(batch, mode="infer")
        predicted = np.argmax(probs, axis=1)
        for entry, p in zip(chunk, predicted):
            confusion[int(entry.label), int(p)] += 1
    accuracy = float(np.trace(confusion) / len(entries))
    return accuracy, confusion


def fit(network: Network, index: DatasetIndex, config: TrainConfig, out_dir) -> list:
    """Full training run.

    Writes out_dir/training_log.csv (one row per epoch), best.ckpt (highest
    validation accuracy, earliest epoch on ties) and final.ckpt, and prints
    one line per epoch. Returns the per-epoch reports. Validation accuracy
    is NaN when the val split is empty, in which case best.ckpt duplicates
    final.ckpt and its metadata stores val_acc as null.
    """
    train_entries = index.split_entries("train")
    if not train_entries:
        raise VoicehandError("training split is empty")
    val_entries = index.split_entries("val")

    pool = NoisePool(clips=())
    if config.augment:
        pool = NoisePool.from_files(index.noise_files)
        if len(pool) == 0:
            raise VoicehandError("augmentation enabled but no usable background noise clips")

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    store = ClipStore()
    optimizer = Adam(learning_rate=config.learning_rate)
    reports = []
    best_acc = -np.inf
    log_path = out_dir / "training_log.csv"
    with open(log_path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(LOG_COLUMNS)
        for epoch in range(config.epochs):
            started = time.monotonic()
            train_loss, train_acc = train_epoch(
                network, train_entries, store, pool, optimizer, config, epoch
            )
            val_acc = float("nan")
            if val_entries:
                val_acc, _ = evaluate(network, val_entries, store, config.batch_size)
            seconds = time.monotonic() - started
            report = EpochReport(epoch, train_loss, train_acc, val_acc, seconds)
            reports.append(report)
            writer.writerow([
                epoch,
                f"{train_loss:.6f}",
                f"{train_acc:.6f}",
                f"{val_acc:.6f}",
                f"{seconds:.3f}",
            ])
            f.flush()
            if val_acc > best_acc:
                best_acc = val_acc
                save_checkpoint(out_dir / "best.ckpt", network,
                                metadata={"epoch": epoch, "val_acc": val_acc})
            print(f"epoch {epoch}: loss {train_loss:.4f} acc {train_acc:.4f} "
                  f"val {val_acc:.4f} ({seconds:.1f}s)")
    final_acc = reports[-1].val_acc
    final_meta = {"epoch": config.epochs - 1,
                  "val_acc": None if np.isnan(final_acc) else final_acc}
    save_checkpoint(out_dir / "final.ckpt", network, metadata=final_meta)
    if not np.isfinite(best_acc):
        save_checkpoint(out_dir / "best.ckpt", network, metadata=final_meta)
    return reports
