"""Directory indexing, split assignment, and unknown-class thinning."""

from collections import Counter

import numpy as np
import pytest

from voicehand.dataset import DatasetIndex, Entry, index_dataset, subsample_unknown
from voicehand.errors import EmptyDataset, MissingSplitLists
from voicehand.gestures import KNOWN_WORDS, GestureClass

from conftest import wav_bytes, write_word_tree


def counts(index, split):
    return Counter(e.label for e in index.split_entries(split))


def test_split_membership_follows_list_files(word_tree):
    index = index_dataset(word_tree)
    by_name = {f"{e.path.parent.name}/{e.path.name}": e for e in index.entries}
    val_names = set((word_tree / "validation_list.txt").read_text().split())
    test_names = set((word_tree / "testing_list.txt").read_text().split())
    for name, entry in by_name.items():
        if name in val_names:
            assert entry.split == "val"
        elif name in test_names:
            assert entry.split == "test"
        else:
            assert entry.split == "train"
    assert len(val_names) == 3 and len(test_names) == 3


def test_labels_known_vs_unknown(word_tree):
    index = index_dataset(word_tree)
    labels = {e.path.parent.name: e.label for e in index.entries}
    assert labels["zero"] == GestureClass.ZERO
    assert labels["one"] == GestureClass.ONE
    assert labels["hello"] == GestureClass.UNKNOWN


def test_noise_folder_excluded_from_entries(word_tree):
    index = index_dataset(word_tree)
    assert all(e.path.parent.name != "_background_noise_" for e in index.entries)
    assert len(index.noise_files) == 1
    assert index.noise_files[0].name == "hiss.wav"


def test_list_files_themselves_are_not_entries(word_tree):
    index = index_dataset(word_tree)
    assert all(e.path.suffix == ".wav" for e in index.entries)


def test_counts_per_split(word_tree):
    index = index_dataset(word_tree)
    train = counts(index, "train")
    assert train[GestureClass.ZERO] == 2  # 4 clips - 1 val - 1 test
    assert train[GestureClass.UNKNOWN] == 2
    assert sum(train.values()) == 6


def test_missing_lists_raise(tmp_path):
    (tmp_path / "zero").mkdir()
    (tmp_path / "zero" / "a.wav").write_bytes(wav_bytes(np.zeros(10, dtype=np.int16)))
    with pytest.raises(MissingSplitLists):
        index_dataset(tmp_path)


def test_empty_tree_raises(tmp_path):
    (tmp_path / "validation_list.txt").write_text("")
    (tmp_path / "testing_list.txt").write_text("")
    with pytest.raises(EmptyDataset):
        index_dataset(tmp_path)


def _synthetic_index(known_per_split=8, unknown_per_split=40):
    entries = []
    for split in ("train", "val", "test"):
        for i in range(known_per_split):
            word = KNOWN_WORDS[i % len(KNOWN_WORDS)]
            entries.append(Entry(path=f"{word}/{split}_{i}.wav",
                                 label=GestureClass.from_word(word), split=split))
        for i in range(unknown_per_split):
            entries.append(Entry(path=f"x/{split}_{i}.wav",
                                 label=GestureClass.UNKNOWN, split=split))
    return DatasetIndex(entries=tuple(entries), noise_files=())


def test_subsample_targets_mean_known_count():
    index = _synthetic_index(known_per_split=8, unknown_per_split=40)
    thinned = subsample_unknown(index, seed=17)
    for split in ("train", "val", "test"):
        split_counts = counts(thinned, split)
        assert split_counts[GestureClass.UNKNOWN] == 1  # round(8 / 8)
        known_total = sum(v for k, v in split_counts.items() if k != GestureClass.UNKNOWN)
        assert known_total == 8


def test_subsample_rounds_half_up():
    index = _synthetic_index(known_per_split=12, unknown_per_split=40)
    thinned = subsample_unknown(index, seed=17)
    # 12 known / 8 classes = 1.5 -> 2 per split
    assert counts(thinned, "train")[GestureClass.UNKNOWN] == 2


def test_subsample_never_grows_unknown():
    index = _synthetic_index(known_per_split=80, unknown_per_split=3)
    thinned = subsample_unknown(index, seed=17)
    assert counts(thinned, "val")[GestureClass.UNKNOWN] == 3


def test_subsample_deterministic_and_order_preserving():
    index = _synthetic_index()
    a = subsample_unknown(index, seed=4)
    b = subsample_unknown(index, seed=4)
    c = subsample_unknown(index, seed=5)
    assert a.entries == b.entries
    assert a.entries != c.entries
    positions = {e: i for i, e in enumerate(index.entries)}
    kept_positions = [positions[e] for e in a.entries]
    assert kept_positions == sorted(kept_positions)


def test_subsample_keeps_every_known_entry():
    index = _synthetic_index()
    thinned = subsample_unknown(index, seed=17)
    known_before = [e for e in index.entries if e.label != GestureClass.UNKNOWN]
    known_after = [e for e in thinned.entries if e.label != GestureClass.UNKNOWN]
    assert known_before == known_after
