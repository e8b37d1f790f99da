"""Index a speech-commands style directory into labeled train/val/test splits.

Expected layout: one folder per word containing WAV files, a
_background_noise_ folder, and validation_list.txt / testing_list.txt
holding one relative path per line (forward slashes). Split membership
comes from those list files; everything not listed is training data. A
clip named in both lists goes to val, and a line naming no file is
ignored.
"""

from dataclasses import dataclass, replace
from pathlib import Path

from .errors import VoicehandError
from .gestures import KNOWN_WORDS, GestureClass
from .rng import substream

SPLITS = ("train", "val", "test")
NOISE_DIR = "_background_noise_"


@dataclass(frozen=True)
class Entry:
    path: Path
    label: GestureClass
    split: str


@dataclass(frozen=True)
class DatasetIndex:
    entries: tuple  # of Entry
    noise_files: tuple  # of Path

    def split_entries(self, split: str):
        return [e for e in self.entries if e.split == split]


def _read_list(path: Path):
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise VoicehandError(f"{path}: not UTF-8 text: {e}") from e
    return {line.strip() for line in text.splitlines() if line.strip()}


def index_dataset(root) -> DatasetIndex:
    """Walk the dataset tree and assign every WAV a label and a split: its
    folder's word among KNOWN_WORDS, or unknown."""
    root = Path(root)
    val_list = root / "validation_list.txt"
    test_list = root / "testing_list.txt"
    if not val_list.is_file() or not test_list.is_file():
        raise VoicehandError(f"{root} lacks validation_list.txt / testing_list.txt")
    val_names = _read_list(val_list)
    test_names = _read_list(test_list)

    entries = []
    noise_files = []
    for word_dir in sorted(p for p in root.iterdir() if p.is_dir()):
        wavs = sorted(word_dir.glob("*.wav"))
        if word_dir.name == NOISE_DIR:
            noise_files.extend(wavs)
            continue
        label = GestureClass.from_word(word_dir.name)
        for wav in wavs:
            rel = f"{word_dir.name}/{wav.name}"
            if rel in val_names:
                split = "val"
            elif rel in test_names:
                split = "test"
            else:
                split = "train"
            entries.append(Entry(path=wav, label=label, split=split))

    if not entries:
        raise VoicehandError(f"no labeled WAV files under {root}")
    return DatasetIndex(entries=tuple(entries), noise_files=tuple(noise_files))


def subsample_unknown(index: DatasetIndex, seed: int) -> DatasetIndex:
    """Within each split, thin the unknown class down to the mean count of
    the 8 known classes so 27 out-of-vocabulary words cannot dominate the
    loss. Known-word entries are never touched; selection is seeded."""
    kept = []
    for split in SPLITS:
        split_entries = [e for e in index.entries if e.split == split]
        known = [e for e in split_entries if e.label != GestureClass.UNKNOWN]
        unknown = [e for e in split_entries if e.label == GestureClass.UNKNOWN]
        target = int(len(known) / len(KNOWN_WORDS) + 0.5)
        if len(unknown) > target:
            rng = substream(seed, "subsample", split)
            pick = sorted(rng.choice(len(unknown), size=target, replace=False))
            unknown = [unknown[i] for i in pick]
        kept.extend(known + unknown)
    order = {id(e): i for i, e in enumerate(index.entries)}
    kept.sort(key=lambda e: order[id(e)])
    return replace(index, entries=tuple(kept))
