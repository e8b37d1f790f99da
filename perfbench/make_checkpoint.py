#!/usr/bin/env python3
"""Regenerate perfbench/tone9.ckpt, the trained network that the
recognize and stream phases load.

    python3 perfbench/make_checkpoint.py

It trains on a seeded nine-tone set (the eight known words plus the
out-of-vocabulary `bed`) with a `noise` word of pure-noise and silent
clips, which the engine maps to `unknown` like `bed`. Each word also gets
clips in which its tone fills only part of the window, the rest noise
or silence, as the windows of a stream see it. Building it takes about
two minutes on two cores. This is input generation: no phase times it.
"""

import shutil

import checkout

checkout.use_sources()

import numpy as np  # noqa: E402

from inputs import CLASS_FREQS, NOISE_LABEL, WINDOW, noise_arrays  # noqa: E402
from voicehand import build_network, evaluate, index_dataset, write_tone_dataset  # noqa: E402
from voicehand.rng import substream  # noqa: E402
from voicehand.synth import AMPLITUDE_RANGE, tone_samples  # noqa: E402
from voicehand.train import TrainConfig, fit  # noqa: E402
from voicehand.wav import write_wav  # noqa: E402

SEED = 1910
CLIPS_PER_CLASS = 60
EPOCHS = 12
MIN_OVERLAP = 0.3  # shortest share of the window a partial tone fills


def write_noise_word(root, count, seed):
    """Noise crops at random gain, a fifth of them digital silence."""
    rng = substream(seed, "checkpoint-noise")
    noises = noise_arrays(root)
    (root / NOISE_LABEL).mkdir()
    for i in range(count):
        noise = noises[int(rng.integers(len(noises)))]
        start = int(rng.integers(len(noise) - WINDOW + 1))
        gain = 0.0 if rng.random() < 0.2 else rng.uniform(0.2, 1.5)
        crop = np.round(noise[start : start + WINDOW] * gain).astype(np.int16)
        write_wav(root / NOISE_LABEL / f"clip_{i:04d}.wav", crop)


def noise_fill(rng, noises, n):
    if rng.random() < 0.3:
        return np.zeros(n, dtype=np.int16)
    noise = noises[int(rng.integers(len(noises)))]
    start = int(rng.integers(len(noise) - n + 1))
    return noise[start : start + n]


def write_partial_words(root, count, seed):
    """Per word, `count` windows whose tone covers a random share of at
    least MIN_OVERLAP at the start or end, the rest noise or silence."""
    rng = substream(seed, "checkpoint-partial")
    noises = noise_arrays(root)
    for word, freq in sorted(CLASS_FREQS.items()):
        for i in range(count):
            n = int(WINDOW * rng.uniform(MIN_OVERLAP, 1.0))
            tone = tone_samples(freq, rng.uniform(*AMPLITUDE_RANGE), rng.uniform(0, 2 * np.pi), n)
            fill = noise_fill(rng, noises, WINDOW - n)
            window = np.concatenate([tone, fill] if rng.random() < 0.5 else [fill, tone])
            write_wav(root / word / f"partial_{i:04d}.wav", window)


def main():
    work = checkout.WORK / "make-checkpoint"
    shutil.rmtree(work, ignore_errors=True)
    try:
        data = write_tone_dataset(work / "data", CLASS_FREQS, clips_per_class=CLIPS_PER_CLASS,
                                  seed=SEED)
        write_noise_word(data, CLIPS_PER_CLASS, SEED)
        write_partial_words(data, CLIPS_PER_CLASS, SEED)
        index = index_dataset(data)
        network = build_network(seed=SEED)
        fit(network, index, TrainConfig(epochs=EPOCHS, seed=SEED), work / "run")
        accuracy, _ = evaluate(network, index.split_entries("test"))
        print(f"held-out test accuracy {accuracy:.4f}")
        shutil.copyfile(work / "run" / "final.ckpt", checkout.CHECKPOINT)
        print(f"wrote {checkout.CHECKPOINT}")
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
