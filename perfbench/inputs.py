"""Seeded inputs for the benchmark phases.

Every input is derived from one workload seed. Tone words come from
`voicehand.synth.write_tone_dataset` with nine tone classes: the eight
known words plus one out-of-vocabulary word (`bed`, which the engine maps
to `unknown`). Pure-noise clips and the gaps of the long recording are
cut from the background-noise files the same call writes. The engine
only ever sees the resulting WAV files and sample arrays.
"""

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from voicehand.gestures import KNOWN_WORDS
from voicehand.rng import substream
from voicehand.synth import write_tone_dataset
from voicehand.wav import SAMPLE_RATE, read_wav, write_wav

# Tones 500 Hz apart or more, so a correct pipeline separates them easily.
CLASS_FREQS = {
    "zero": 500.0,
    "three": 1000.0,
    "bed": 1500.0,
    "one": 2000.0,
    "four": 3000.0,
    "five": 4000.0,
    "on": 5000.0,
    "two": 6000.0,
    "off": 7000.0,
}
OOV_WORD = "bed"

WINDOW = SAMPLE_RATE
GRID = SAMPLE_RATE // 2  # stream words start on a 500 ms grid
NOISE_LABEL = "noise"


def phase_seed(seed: int, phase: str) -> int:
    """One 63-bit seed per (workload seed, phase), so phases draw
    independent inputs and the same seed always gives the same ones."""
    return int(substream(seed, "perfbench", phase).integers(2**63))


def noise_arrays(root: Path) -> list:
    return [read_wav(p).samples for p in sorted((root / "_background_noise_").glob("*.wav"))]


def write_noise_clips(root: Path, count: int, seed: int) -> list:
    """`count` one-second crops of the dataset's noise files, written as
    WAVs under root/noise/. Returns their paths."""
    noises = noise_arrays(root)
    rng = substream(seed, "noise-clips")
    out_dir = root / NOISE_LABEL
    out_dir.mkdir(exist_ok=True)
    paths = []
    for i in range(count):
        noise = noises[int(rng.integers(len(noises)))]
        start = int(rng.integers(len(noise) - WINDOW + 1))
        path = out_dir / f"clip_{i:04d}.wav"
        write_wav(path, noise[start : start + WINDOW])
        paths.append(path)
    return paths


@dataclass(frozen=True)
class Clip:
    path: Path
    word: str  # a known word, OOV_WORD, or NOISE_LABEL

    @property
    def expected(self) -> str:
        """The class the engine should answer."""
        return self.word if self.word in KNOWN_WORDS else "unknown"


def recognize_clips(root, seed: int, clips_per_class: int) -> list:
    """Tone clips of all nine classes plus as many pure-noise clips as
    one class has, in a seeded order."""
    root = Path(root)
    write_tone_dataset(root, CLASS_FREQS, clips_per_class=clips_per_class, seed=seed,
                       val_fraction=0.0, test_fraction=0.0)
    clips = [Clip(p, word) for word in sorted(CLASS_FREQS)
             for p in sorted((root / word).glob("*.wav"))]
    clips += [Clip(p, NOISE_LABEL) for p in write_noise_clips(root, clips_per_class, seed)]
    order = substream(seed, "recognize-order").permutation(len(clips))
    return [clips[i] for i in order]


@dataclass(frozen=True)
class Segment:
    word: str
    start: int  # sample offset in the recording
    end: int


@dataclass(frozen=True)
class Recording:
    samples: np.ndarray  # int16
    script: tuple  # of Segment, in time order


GAP_CHOICES = (4, 5, 6)  # gap lengths in grid units: 2.0 .. 3.0 s


def stream_recording(root, seed: int, known_words: int, oov_words: int) -> Recording:
    """A long recording: `known_words` known tone words and `oov_words`
    out-of-vocabulary ones in seeded order, each a one-second dataset
    clip, separated by 2-3 s gaps of either noise or digital silence.

    Words start on a 500 ms grid, so at a 500 ms hop one window covers
    each word exactly; at 70 ms hops the windows drift across them. With
    the benchmark's 2000 ms refractory period, a gap of 2 s or more lets
    every known word emit exactly once at either hop.
    """
    root = Path(root)
    write_tone_dataset(root, CLASS_FREQS, clips_per_class=8, seed=seed,
                       val_fraction=0.0, test_fraction=0.0)
    noises = noise_arrays(root)
    rng = substream(seed, "stream-script")
    known = sorted(w for w in CLASS_FREQS if w != OOV_WORD)
    words = [known[int(rng.integers(len(known)))] for _ in range(known_words)]
    words += [OOV_WORD] * oov_words
    words = [words[i] for i in rng.permutation(len(words))]

    def gap():
        n = int(rng.choice(GAP_CHOICES)) * GRID
        if rng.random() < 0.5:
            return np.zeros(n, dtype=np.int16)
        noise = noises[int(rng.integers(len(noises)))]
        start = int(rng.integers(len(noise) - n + 1))
        return noise[start : start + n]

    pieces = [gap()]
    script = []
    at = len(pieces[0])
    for word in words:
        clips = sorted((root / word).glob("*.wav"))
        samples = read_wav(clips[int(rng.integers(len(clips)))]).samples
        script.append(Segment(word, at, at + len(samples)))
        pieces += [samples, gap()]
        at += len(samples) + len(pieces[-1])
    return Recording(samples=np.concatenate(pieces), script=tuple(script))


def train_dataset(root, seed: int, clips_per_class: int, val_fraction: float) -> Path:
    """Tone dataset for the train phase: nine classes with noise files,
    train and val splits only."""
    return write_tone_dataset(Path(root), CLASS_FREQS, clips_per_class=clips_per_class,
                              seed=seed, val_fraction=val_fraction, test_fraction=0.0)
