"""Tests of the benchmark itself: seeded inputs, the tracer, the stream
gate, the estimator and the refusal to run without engine sources.

    python3 -m pytest perfbench -q
"""

import shutil
import subprocess
import sys
import types
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checkout  # noqa: E402

checkout.use_sources()

import inputs  # noqa: E402
import phases  # noqa: E402
from tracing import Tracer  # noqa: E402
from voicehand.commands import Decision, frames_for  # noqa: E402
from voicehand.gestures import GestureClass, GestureTable, lookup_trajectory  # noqa: E402


def tree_bytes(root):
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def make_inputs(root, seed):
    clips = inputs.recognize_clips(root / "recognize", seed, clips_per_class=2)
    recording = inputs.stream_recording(root / "stream", seed, known_words=3, oov_words=1)
    train_root = inputs.train_dataset(root / "train", seed, clips_per_class=4, val_fraction=0.25)
    return clips, recording, train_root


def test_same_seed_same_bytes_and_other_seed_other_bytes(tmp_path):
    a_clips, a_rec, _ = make_inputs(tmp_path / "a", 5)
    b_clips, b_rec, _ = make_inputs(tmp_path / "b", 5)
    c_clips, c_rec, _ = make_inputs(tmp_path / "c", 6)
    assert tree_bytes(tmp_path / "a") == tree_bytes(tmp_path / "b")
    assert [(c.path.name, c.word) for c in a_clips] == [(c.path.name, c.word) for c in b_clips]
    assert a_rec.samples.tobytes() == b_rec.samples.tobytes() and a_rec.script == b_rec.script
    assert tree_bytes(tmp_path / "a") != tree_bytes(tmp_path / "c")
    assert a_rec.samples.tobytes() != c_rec.samples.tobytes()


def test_inputs_cover_every_class_and_noise(tmp_path):
    clips, recording, _ = make_inputs(tmp_path, 7)
    assert {c.word for c in clips} == set(inputs.CLASS_FREQS) | {inputs.NOISE_LABEL}
    assert {c.expected for c in clips if c.word in (inputs.OOV_WORD, inputs.NOISE_LABEL)} == {"unknown"}
    assert len({c.path.read_bytes() for c in clips}) == len(clips)
    starts = [s.start for s in recording.script]
    assert all(s % inputs.GRID == 0 for s in starts)
    assert [s.word for s in recording.script].count(inputs.OOV_WORD) == 1


def test_phase_seeds_differ_per_phase():
    seeds = {inputs.phase_seed(3, p) for p in ("recognize", "stream", "train")}
    assert len(seeds) == 3


def test_self_time_subtracts_children_and_uninstall_restores():
    tracer = Tracer()
    module = types.ModuleType("m")
    module.inner = lambda: sum(range(1000))

    class Thing:
        def outer(self):
            return module.inner() + 1

    thing = Thing()
    tracer.wrap(module, "inner", "inner")
    tracer.wrap(thing, "outer", "outer")
    thing.outer()
    (inner_id, inner_parent, *_), (outer_id, outer_parent, *_, start, end) = tracer.spans
    assert inner_parent == outer_id and outer_parent is None
    selfs = tracer.self_times()
    inner_span = tracer.spans[0]
    assert selfs[outer_id] == (end - start) - (inner_span[6] - inner_span[5])
    tracer.uninstall()
    assert "outer" not in vars(thing)
    assert module.inner() == sum(range(1000))
    assert thing.outer() == sum(range(1000)) + 1
    assert len(tracer.spans) == 2


def decision(word, t_ms, table):
    gesture = GestureClass.from_word(word)
    trajectory = lookup_trajectory(table, gesture)
    return Decision(gesture, 0.9, trajectory, frames_for(trajectory, table), t_ms)


def test_stream_gate():
    table = GestureTable.default()
    expected = phases.expected_frame_bytes(table)
    script = (inputs.Segment("one", 16000, 32000), inputs.Segment("bed", 64000, 80000),
              inputs.Segment("two", 112000, 128000))
    good = [decision("one", 1500, table), decision("two", 7600, table)]
    assert phases.script_mismatch(good, script, expected) is None
    # a missing word, an extra emission, and an emission from a gap
    assert phases.script_mismatch(good[:1], script, expected)
    assert phases.script_mismatch(good + [decision("two", 8600, table)], script, expected)
    assert phases.script_mismatch([decision("one", 2990, table), good[1]], script, expected)


def test_estimate_averages_turn_medians_and_takes_block_percentiles():
    by_turn = {0: [1.0, 2.0, 30.0], 1: [10.0, 11.0, 12.0]}
    # each turn's median (2 and 11), averaged; the 30 outlier does not count
    assert phases.estimate(by_turn, 50) == 6.5
    # with a block size: the median over consecutive blocks of the block max
    assert phases.estimate(by_turn, 100, size=2) == 12.0  # blocks [1, 2] [30, 10] [11, 12]
    # fewer than two blocks: the percentile of all samples
    assert phases.estimate(by_turn, 100, size=4) == 30.0


def test_refuses_to_run_without_engine_sources(tmp_path):
    shutil.copytree(checkout.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(checkout.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "recognize",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
