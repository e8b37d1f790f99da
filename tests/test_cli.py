"""End-to-end CLI behavior: exit codes, JSON output, config precedence."""

import argparse
import io
import json
import os
import signal
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import voicehand.cli as cli
from voicehand import atomic
from voicehand.checkpoint import load_checkpoint, save_checkpoint
from voicehand.cli import CONFIG_KINDS, DATA_DIR_ENV, build_parser, main
from voicehand.gestures import GestureTable
from voicehand.network import build_network
from voicehand.synth import tone_samples, write_tone_dataset
from voicehand.wav import write_wav

from conftest import (JSON_VALUES, HalfWriter, patch_payload, read_csv_rows, tone_wav,
                      wav_bytes, write_word_tree)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# JSON nested deeper than the decoder's recursion limit
DEEP_JSON = b"[" * 200000


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    """A checkpoint of a freshly built network and one tone clip: enough
    for `recognize` to load and run, without training."""
    root = tmp_path_factory.mktemp("fresh")
    save_checkpoint(root / "fresh.ckpt", build_network())
    tone_wav(root / "tone.wav", 2000.0)
    return root


# ---------------------------------------------------------------- inspect


def test_inspect_fresh_prints_reference_counts(capsys):
    code, out, err = run_cli(capsys, "inspect", "--fresh")
    assert code == 0
    assert "trainable: 22577" in out
    assert "non-trainable: 80" in out
    assert "total: 22657" in out
    for count in ("568", "8992", "12352", "585"):
        assert count in out
    assert "129x71x1" in out
    assert err == ""


def test_inspect_checkpoint(trained, capsys):
    code, out, _ = run_cli(capsys, "inspect", "--checkpoint", str(trained.best_ckpt))
    assert code == 0
    assert "trainable: 22577" in out


def test_inspect_requires_a_source(capsys):
    code, _, err = run_cli(capsys, "inspect")
    assert code == 1
    assert "usage error" in err


def test_inspect_missing_checkpoint_is_checkpoint_error(tmp_path, capsys):
    code, _, err = run_cli(capsys, "inspect", "--checkpoint", str(tmp_path / "nope.ckpt"))
    assert code == 3
    assert err.startswith("checkpoint error: cannot read checkpoint")


def test_inspect_empty_checkpoint_path_is_checkpoint_error(capsys):
    # an empty path names no file; it does not fall back to a fresh network
    code, out, err = run_cli(capsys, "inspect", "--checkpoint", "")
    assert code == 3
    assert out == ""
    assert len(err.splitlines()) == 1


def test_inspect_corrupt_checkpoint_is_checkpoint_error(tmp_path, capsys):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"not a checkpoint at all")
    code, _, err = run_cli(capsys, "inspect", "--checkpoint", str(bad))
    assert code == 3
    assert "checkpoint error" in err


def test_inspect_deeply_nested_header_is_checkpoint_error(tmp_path, capsys):
    ckpt = _checkpoint_with_header(tmp_path / "deep.ckpt", DEEP_JSON)
    code, out, err = run_cli(capsys, "inspect", "--checkpoint", str(ckpt))
    assert code == 3
    assert out == ""
    assert err.startswith("checkpoint error:")
    assert len(err.splitlines()) == 1


# ---------------------------------------------------------------- features


def test_features_exports_grid(tmp_path, capsys):
    wav = tone_wav(tmp_path / "t.wav", 2000.0)
    out_csv = tmp_path / "grid.csv"
    code, out, _ = run_cli(capsys, "features", "--wav", str(wav), "--out", str(out_csv))
    assert code == 0
    assert "129x71" in out
    grid = np.loadtxt(out_csv, delimiter=",")
    assert grid.shape == (129, 71)


def test_features_failed_write_keeps_the_earlier_csv(tmp_path, capsys, monkeypatch):
    wav = tone_wav(tmp_path / "t.wav", 2000.0)
    out_csv = tmp_path / "grid.csv"
    out_csv.write_text("an earlier grid\n")
    monkeypatch.setattr(atomic, "open", lambda *a, **k: HalfWriter(open(*a, **k)),
                        raising=False)
    code, out, err = run_cli(capsys, "features", "--wav", str(wav), "--out", str(out_csv))
    assert code == 2
    assert out == ""
    assert err.startswith("data error:") and "No space" in err
    assert out_csv.read_text() == "an earlier grid\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["grid.csv", "t.wav"]


def test_features_missing_wav_is_data_error(tmp_path, capsys):
    code, _, err = run_cli(capsys, "features", "--wav", str(tmp_path / "no.wav"),
                           "--out", str(tmp_path / "o.csv"))
    assert code == 2
    assert err.startswith("data error: cannot read")


def test_features_non_wav_bytes_is_data_error(tmp_path, capsys):
    path = tmp_path / "fake.wav"
    path.write_bytes(b"mp3 data or something")
    code, _, err = run_cli(capsys, "features", "--wav", str(path),
                           "--out", str(tmp_path / "o.csv"))
    assert code == 2


# ---------------------------------------------------------------- recognize


def test_recognize_tone_as_known_word(trained, tmp_path, capsys):
    wav = tone_wav(tmp_path / "one.wav", 2000.0, amplitude=0.5)
    code, out, _ = run_cli(capsys, "recognize", "--checkpoint", str(trained.best_ckpt),
                           "--wav", str(wav))
    assert code == 0
    doc = json.loads(out)
    assert doc["class"] == "one"
    assert doc["accepted"] is True
    assert doc["prob"] >= 0.7
    assert doc["trajectory"] == [1.0, 0.0, 1.0, 1.0, 1.0]
    assert len(doc["frames"]) == 5
    assert doc["frames"][0] == [48, 255, 255]


def test_recognize_silence_is_unknown_with_no_frames(trained, tmp_path, capsys):
    wav = tmp_path / "quiet.wav"
    write_wav(wav, np.zeros(16000, dtype=np.int16))
    code, out, _ = run_cli(capsys, "recognize", "--checkpoint", str(trained.best_ckpt),
                           "--wav", str(wav), "--threshold", "0.7")
    assert code == 0
    doc = json.loads(out)
    assert doc["class"] == "unknown"
    assert doc["accepted"] is False
    assert doc["trajectory"] is None
    assert doc["frames"] == []


def test_recognize_threshold_gates_acceptance(trained, tmp_path, capsys):
    wav = tone_wav(tmp_path / "one.wav", 2000.0, amplitude=0.5)
    code, out, _ = run_cli(capsys, "recognize", "--checkpoint", str(trained.best_ckpt),
                           "--wav", str(wav), "--threshold", "1.0")
    doc = json.loads(out)
    if doc["prob"] >= 1.0:
        pytest.skip("fixture is fully saturated on this clip")
    assert doc["accepted"] is False
    assert doc["frames"] == []


def test_recognize_custom_gesture_table(trained, tmp_path, capsys):
    table_path = tmp_path / "table.json"
    table_path.write_text(json.dumps(
        {**TABLE, "gestures": {**TABLE["gestures"], "one": [0.0, 1.0, 0.0, 0.0, 0.0]}}))
    wav = tone_wav(tmp_path / "one.wav", 2000.0, amplitude=0.5)
    code, out, _ = run_cli(capsys, "recognize", "--checkpoint", str(trained.best_ckpt),
                           "--wav", str(wav), "--gesture-table", str(table_path))
    doc = json.loads(out)
    assert doc["trajectory"] == [0.0, 1.0, 0.0, 0.0, 0.0]


def test_recognize_bad_table_is_data_error(trained, tmp_path, capsys):
    table_path = tmp_path / "table.json"
    table_path.write_text("{broken json")
    wav = tone_wav(tmp_path / "one.wav", 2000.0)
    code, _, err = run_cli(capsys, "recognize", "--checkpoint", str(trained.best_ckpt),
                           "--wav", str(wav), "--gesture-table", str(table_path))
    assert code == 2


# the default gesture table as its JSON document
TABLE = {"gestures": {w: list(t.as_tuple()) for w, t in GestureTable.default().rows.items()},
         "max_fraction": list(GestureTable.default().max_fraction),
         "channels": dict(GestureTable.default().channel_map)}
CHANNELS = TABLE["channels"]


@pytest.mark.parametrize("doc", [
    [1, 2],
    {**TABLE, "gestures": []},
    {**TABLE, "channels": [1]},
    {**TABLE, "channels": {k: v for k, v in CHANNELS.items() if k != "little"}},
    {**TABLE, "channels": {**CHANNELS, "thumb": 9}},
    {**TABLE, "channels": {**CHANNELS, "index": 0}},
    {**TABLE, "channels": {**CHANNELS, "ring": -1}},
    {**TABLE, "channels": {**CHANNELS, "ring": "x"}},
    # values a float() or int() would coerce into a plausible table
    {**TABLE, "gestures": {**TABLE["gestures"], "one": "10111"}},
    {**TABLE, "gestures": {**TABLE["gestures"], "one": ["1", "0", "1", "1", "1"]}},
    {**TABLE, "gestures": {**TABLE["gestures"], "one": [True, False, True, True, True]}},
    {**TABLE, "max_fraction": "11111111"},
    {**TABLE, "max_fraction": [True] * 8},
    {**TABLE, "channels": {**CHANNELS, "index": 1.9}},
    {**TABLE, "channels": {**CHANNELS, "little": "5"}},
    {**TABLE, "channels": {**CHANNELS, "index": True}},
], ids=["document-list", "gestures-list", "channels-list", "channels-missing-finger",
        "channel-9", "channel-duplicate", "channel-negative", "channel-string",
        "row-string", "row-numeric-strings", "row-bools", "max-fraction-string",
        "max-fraction-bools", "channel-fraction", "channel-numeric-string", "channel-bool"])
def test_recognize_malformed_gesture_table_is_data_error(fresh, tmp_path, capsys, doc):
    table_path = tmp_path / "table.json"
    table_path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "recognize", "--checkpoint", str(fresh / "fresh.ckpt"),
                             "--wav", str(fresh / "tone.wav"), "--gesture-table", str(table_path))
    assert code == 2
    assert out == ""
    assert err.startswith("data error: gesture table")
    assert len(err.splitlines()) == 1


# -inf, which argparse alone reads as a flag, reaches the range check too
@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1", "5", "1.0001"])
def test_recognize_bad_threshold_is_usage_error(tmp_path, capsys, value):
    # checked before the checkpoint is read, so a missing one is never reached
    wav = tone_wav(tmp_path / "one.wav", 2000.0)
    code, out, err = run_cli(capsys, "recognize", "--checkpoint", str(tmp_path / "absent.ckpt"),
                             "--wav", str(wav), "--threshold", value)
    assert code == 1
    assert out == ""
    assert err.startswith("usage error: recognize: threshold must be in [0, 1]")
    assert len(err.splitlines()) == 1


def _checkpoint_with_header(path, header):
    from voicehand.checkpoint import FORMAT_VERSION, MAGIC
    path.write_bytes(MAGIC + struct.pack("<II", FORMAT_VERSION, len(header)) + header)
    return path


def _checkpoint_with_weight(path, value):
    save_checkpoint(path, build_network())
    return patch_payload(path, "dense2.weights", 0, value)


@pytest.mark.parametrize("make", [
    lambda p: _checkpoint_with_header(p, b"[]"),
    lambda p: _checkpoint_with_header(p, b'"x"'),
    lambda p: _checkpoint_with_weight(p, np.nan),
    lambda p: _checkpoint_with_weight(p, np.inf),
], ids=["header-list", "header-string", "nan-weight", "inf-weight"])
def test_recognize_malformed_checkpoint_is_checkpoint_error(tmp_path, capsys, make):
    ckpt = make(tmp_path / "bad.ckpt")
    wav = tone_wav(tmp_path / "one.wav", 2000.0)
    code, out, err = run_cli(capsys, "recognize", "--checkpoint", str(ckpt), "--wav", str(wav))
    assert code == 3
    assert out == ""
    assert err.startswith("checkpoint error:")
    assert len(err.splitlines()) == 1


def _overflowing_checkpoint(path):
    # finite weights whose matmul overflows: the file loads, the output is NaN
    net = build_network()
    net["conv1"].weights[...] = 3e38
    save_checkpoint(path, net)
    return path


@pytest.mark.filterwarnings("error")  # a numpy overflow warning would print before the error
def test_recognize_non_finite_output_is_checkpoint_error(tmp_path, capsys):
    ckpt = _overflowing_checkpoint(tmp_path / "huge.ckpt")
    wav = tone_wav(tmp_path / "one.wav", 2000.0)
    code, out, err = run_cli(capsys, "recognize", "--checkpoint", str(ckpt), "--wav", str(wav))
    assert code == 3
    assert out == ""
    assert err.startswith("checkpoint error:") and "not finite" in err
    assert len(err.splitlines()) == 1


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", [
    ["stream", "--input", "wav:{wav}", "--hop-ms", "70"],  # the stream cache's path
    ["stream", "--input", "wav:{wav}", "--hop-ms", "500"],  # classify_window per window
    ["eval", "--data-dir", "{data}", "--split", "val", "--json"],
], ids=["stream-70", "stream-500", "eval-json"])
def test_non_finite_output_ends_stream_and_eval_as_checkpoint_error(tmp_path, capsys, argv):
    # unchecked, NaN probabilities reach no threshold, so stream would print
    # nothing and exit 0, and eval would count every clip as class 0 (argmax of NaN)
    ckpt = _overflowing_checkpoint(tmp_path / "huge.ckpt")
    wav, _ = _long_recording(tmp_path)
    data = write_tone_dataset(tmp_path / "tones", clips_per_class=4)  # loud enough to overflow
    argv = [a.format(wav=wav, data=data) for a in argv] + ["--checkpoint", str(ckpt)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err.startswith("checkpoint error:") and "not finite" in err
    assert len(err.splitlines()) == 1


# ---------------------------------------------------------------- stream


def _long_recording(tmp_path):
    samples = np.concatenate([
        np.zeros(8000, dtype=np.int16),
        tone_samples(2000.0, amplitude=0.5, phase=1.0),
        np.zeros(16000, dtype=np.int16),
    ])
    path = tmp_path / "long.wav"
    write_wav(path, samples)
    return path, samples


def test_stream_wav_emits_decision_lines(trained, tmp_path, capsys):
    path, _ = _long_recording(tmp_path)
    code, out, _ = run_cli(capsys, "stream", "--checkpoint", str(trained.best_ckpt),
                           "--input", f"wav:{path}")
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert [d["t_ms"] for d in lines] == [1000, 2000]
    assert all(d["class"] == "one" for d in lines)
    assert all(len(d["frames"]) == 5 for d in lines)


def test_stream_flags_override_decision_policy(trained, tmp_path, capsys):
    path, _ = _long_recording(tmp_path)
    code, out, _ = run_cli(capsys, "stream", "--checkpoint", str(trained.best_ckpt),
                           "--input", f"wav:{path}", "--refractory-ms", "0")
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert 1500 in [d["t_ms"] for d in lines]


def test_stream_pcm_stdin_matches_wav_route(trained, tmp_path, capsys):
    path, samples = _long_recording(tmp_path)
    _, wav_out, _ = run_cli(capsys, "stream", "--checkpoint", str(trained.best_ckpt),
                            "--input", f"wav:{path}")
    proc = subprocess.run(
        [sys.executable, "-m", "voicehand.cli", "stream",
         "--checkpoint", str(trained.best_ckpt), "--input", "pcm-stdin"],
        input=samples.astype("<i2").tobytes(), capture_output=True, timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout.decode() == wav_out


def test_stream_odd_stdin_bytes_is_data_error(trained):
    proc = subprocess.run(
        [sys.executable, "-m", "voicehand.cli", "stream",
         "--checkpoint", str(trained.best_ckpt), "--input", "pcm-stdin"],
        input=b"\x00" * 7, capture_output=True, timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stderr.decode().startswith("data error: pcm-stdin")


def test_stream_bad_input_scheme_is_usage_error(trained, capsys):
    code, _, err = run_cli(capsys, "stream", "--checkpoint", str(trained.best_ckpt),
                           "--input", "microphone")
    assert code == 1
    assert "usage error" in err


def test_stream_into_a_closed_reader_exits_0_silently(trained, tmp_path):
    # both ends of the stdout pipe are closed here before the child gets
    # its input, so its first decision line meets a pipe with no reader;
    # its stdout is buffered, as a shell starts it, so the failed line is
    # still buffered when the interpreter exits
    _, samples = _long_recording(tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    read_end, write_end = os.pipe()
    proc = subprocess.Popen(
        [sys.executable, "-m", "voicehand.cli", "stream",
         "--checkpoint", str(trained.best_ckpt), "--input", "pcm-stdin"],
        stdin=subprocess.PIPE, stdout=write_end, stderr=subprocess.PIPE, env=env,
    )
    os.close(write_end)
    os.close(read_end)
    _, err = proc.communicate(samples.astype("<i2").tobytes(), timeout=120)
    assert (proc.returncode, err) == (0, b"")


def test_sigint_ends_a_stream_with_exit_0_and_keeps_its_decisions(trained, tmp_path):
    # 160 s of tone at a 70 ms hop is over 2000 windows; SIGINT goes out
    # as the first decision line arrives, far from the end
    path = tmp_path / "tone.wav"
    write_wav(path, tone_samples(2000.0, 0.5, 1.0, n_samples=160 * 16000))
    proc = subprocess.Popen(
        [sys.executable, "-m", "voicehand.cli", "stream", "--checkpoint",
         str(trained.best_ckpt), "--input", f"wav:{path}", "--hop-ms", "70"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    first = proc.stdout.readline()
    proc.send_signal(signal.SIGINT)
    rest, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (0, b"")
    lines = (first + rest).decode().splitlines()
    decisions = [json.loads(line) for line in lines]
    assert decisions and decisions[-1]["t_ms"] < 150000


def test_sigint_stops_train_with_exit_130_whole_log_rows_and_a_loadable_checkpoint(tmp_path):
    root = write_tone_dataset(tmp_path / "tones", clips_per_class=6, seed=3)
    out = tmp_path / "run"
    proc = subprocess.Popen(
        [sys.executable, "-m", "voicehand.cli", "train", "--data-dir", str(root),
         "--out", str(out), "--epochs", "100000", "--batch-size", "8"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONUNBUFFERED="1"),
    )
    try:
        assert proc.stdout.readline().startswith(b"epoch 0:")
        proc.send_signal(signal.SIGINT)
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()  # a run of 100000 epochs must not outlive a failed test
    assert (proc.returncode, err) == (130, b"interrupted\n")
    text = (out / "training_log.csv").read_text()
    assert text.endswith("\n")
    rows = read_csv_rows(out / "training_log.csv")
    assert len(rows) >= 2 and all(len(row) == 5 for row in rows)
    assert [int(row[0]) for row in rows[1:]] == list(range(len(rows) - 1))
    assert sorted(p.name for p in out.iterdir()) in (["training_log.csv"],
                                                     ["best.ckpt", "training_log.csv"])
    if (out / "best.ckpt").exists():
        assert load_checkpoint(out / "best.ckpt", build_network())["epoch"] < len(rows) - 1


class _FailingStdout(io.StringIO):
    def __init__(self, error):
        super().__init__()
        self.error = error

    def write(self, text):
        raise self.error


def test_closed_stdout_is_not_a_data_error_but_other_write_errors_are(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdout", _FailingStdout(BrokenPipeError(32, "Broken pipe")))
    assert main(["inspect", "--fresh"]) == 0
    assert capsys.readouterr().err == ""
    monkeypatch.setattr(sys, "stdout", _FailingStdout(OSError(28, "No space left on device")))
    assert main(["inspect", "--fresh"]) == 2
    assert capsys.readouterr().err == "data error: [Errno 28] No space left on device\n"


def test_stream_deeply_nested_gesture_table_is_data_error(trained, tmp_path, capsys):
    table_path = tmp_path / "deep.json"
    table_path.write_bytes(DEEP_JSON)
    wav, _ = _long_recording(tmp_path)
    code, out, err = run_cli(capsys, "stream", "--checkpoint", str(trained.best_ckpt),
                             "--gesture-table", str(table_path), "--input", f"wav:{wav}")
    assert code == 2
    assert out == ""
    assert err.startswith("data error: gesture table")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("flag, value", [
    ("--hop-ms", "0"),
    ("--threshold", "1.5"),
    ("--threshold", "-1e3"),
    ("--refractory-ms", "-1"),
])
def test_stream_bad_policy_flag_is_usage_error(tmp_path, capsys, flag, value):
    # the policy is checked before the checkpoint is read, so a missing one is never reached
    code, out, err = run_cli(capsys, "stream", "--checkpoint", str(tmp_path / "absent.ckpt"),
                             "--input", "pcm-stdin", flag, value)
    assert code == 1
    assert out == ""
    assert err.startswith("usage error: stream:") and "must be" in err
    assert len(err.splitlines()) == 1


# ---------------------------------------------------------------- eval


def test_eval_json_on_trained_fixture(trained, capsys):
    code, out, _ = run_cli(capsys, "eval", "--checkpoint", str(trained.best_ckpt),
                           "--data-dir", str(trained.root), "--split", "val", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["split"] == "val"
    assert doc["accuracy"] >= 0.9
    assert doc["clips"] > 0
    assert len(doc["confusion"]) == 9


def test_eval_text_output(trained, capsys):
    code, out, _ = run_cli(capsys, "eval", "--checkpoint", str(trained.best_ckpt),
                           "--data-dir", str(trained.root), "--split", "test")
    assert code == 0
    assert "accuracy" in out
    assert "rows true" in out


def test_eval_rejects_unknown_split(trained, capsys):
    code, _, err = run_cli(capsys, "eval", "--checkpoint", str(trained.best_ckpt),
                           "--data-dir", str(trained.root), "--split", "train")
    assert code == 1


def test_eval_missing_dataset_is_data_error(trained, tmp_path, capsys):
    code, _, err = run_cli(capsys, "eval", "--checkpoint", str(trained.best_ckpt),
                           "--data-dir", str(tmp_path / "nothing"), "--split", "val")
    assert code == 2


def test_eval_negative_seed_is_usage_error(fresh, tmp_path, capsys):
    # one known and two unknown words: the val split's unknown class is thinned with the seed
    data = write_word_tree(tmp_path / "data", ("zero", "hello", "bye"))
    argv = ["eval", "--checkpoint", str(fresh / "fresh.ckpt"), "--data-dir", str(data),
            "--split", "val"]
    code, out, err = run_cli(capsys, *argv, "--seed=-1")
    assert code == 1
    assert out == ""
    assert err.startswith("usage error:") and "seed" in err
    assert len(err.splitlines()) == 1
    code, _, _ = run_cli(capsys, *argv, "--seed=0")
    assert code == 0


@pytest.mark.parametrize("flags, config, seed", [
    ([], {"seed": 5}, 5),
    (["--seed", "3"], {"seed": 5}, 3),
    ([], None, 17),
    ([], {}, 17),
])
def test_eval_resolves_the_seed_as_train_does(fresh, tmp_path, capsys, monkeypatch,
                                              flags, config, seed):
    data = write_word_tree(tmp_path / "data", ("zero", "hello", "bye"))
    argv = ["eval", "--checkpoint", str(fresh / "fresh.ckpt"), "--data-dir", str(data),
            "--split", "val", *flags]
    if config is not None:
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps(config))
        argv += ["--config", str(conf)]
    seeds = []
    subsample = cli.subsample_unknown
    monkeypatch.setattr(cli, "subsample_unknown",
                        lambda index, seed: seeds.append(seed) or subsample(index, seed))
    code, _, _ = run_cli(capsys, *argv)
    assert code == 0
    assert seeds == [seed]


def test_eval_negative_config_seed_is_usage_error(fresh, tmp_path, capsys):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"seed": -1}))
    code, out, err = run_cli(capsys, "eval", "--checkpoint", str(fresh / "fresh.ckpt"),
                             "--data-dir", str(tmp_path / "data"), "--split", "val",
                             "--config", str(conf))
    assert code == 1
    assert out == ""
    assert err.startswith("usage error:") and "seed" in err
    assert len(err.splitlines()) == 1


# ---------------------------------------------------------------- train


@pytest.mark.filterwarnings("error")
def test_train_that_overflows_without_a_val_split_writes_no_checkpoint(tmp_path, capsys):
    # no validation pass sees the NaN outputs, so the save is what refuses
    data = write_tone_dataset(tmp_path / "tones", clips_per_class=4, val_fraction=0.0)
    out_dir = tmp_path / "run"
    code, out, err = run_cli(capsys, "train", "--data-dir", str(data), "--out", str(out_dir),
                             "--lr", "1e30", "--epochs", "2", "--batch-size", "4",
                             "--no-augment")
    assert code == 3
    assert err.startswith("checkpoint error:") and "NaN or infinite" in err
    assert len(err.splitlines()) == 1
    assert "done:" not in out
    assert sorted(p.name for p in out_dir.iterdir()) == ["training_log.csv"]


@pytest.fixture
def train_tree(tmp_path):
    return write_word_tree(tmp_path / "data", ("zero", "one"), clips_per_word=6,
                           noise_seconds=1.2)


def test_train_writes_artifacts(train_tree, tmp_path, capsys):
    out_dir = tmp_path / "run"
    code, out, _ = run_cli(capsys, "train", "--data-dir", str(train_tree),
                           "--out", str(out_dir), "--epochs", "1",
                           "--batch-size", "4", "--seed", "7")
    assert code == 0
    assert (out_dir / "best.ckpt").is_file()
    assert (out_dir / "final.ckpt").is_file()
    assert len(read_csv_rows(out_dir / "training_log.csv")) == 2
    assert "best val acc" in out


def test_train_missing_data_dir_is_usage_error(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv(DATA_DIR_ENV, raising=False)
    code, _, err = run_cli(capsys, "train", "--out", str(tmp_path / "run"),
                           "--epochs", "1")
    assert code == 1
    assert "usage error" in err


def test_train_env_var_supplies_data_dir(train_tree, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(DATA_DIR_ENV, str(train_tree))
    out_dir = tmp_path / "run"
    code, _, _ = run_cli(capsys, "train", "--out", str(out_dir), "--epochs", "1",
                         "--batch-size", "4")
    assert code == 0
    assert (out_dir / "final.ckpt").is_file()


def test_train_flag_beats_env_var(train_tree, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(DATA_DIR_ENV, str(tmp_path / "bogus"))
    code, _, _ = run_cli(capsys, "train", "--data-dir", str(train_tree),
                         "--out", str(tmp_path / "run"), "--epochs", "1",
                         "--batch-size", "4")
    assert code == 0


def test_train_config_file_supplies_options(train_tree, tmp_path, capsys):
    config = tmp_path / "conf.json"
    config.write_text(json.dumps({
        "data-dir": str(train_tree),
        "out": str(tmp_path / "run"),
        "epochs": 2,
        "batch-size": 4,
        "no-augment": True,
    }))
    code, _, _ = run_cli(capsys, "train", "--config", str(config))
    assert code == 0
    rows = read_csv_rows(tmp_path / "run" / "training_log.csv")
    assert len(rows) == 3  # header + 2 epochs


def test_train_flag_overrides_config_file(train_tree, tmp_path, capsys):
    config = tmp_path / "conf.json"
    config.write_text(json.dumps({
        "data-dir": str(train_tree),
        "out": str(tmp_path / "ignored"),
        "epochs": 2,
        "batch-size": 4,
    }))
    out_dir = tmp_path / "chosen"
    code, _, _ = run_cli(capsys, "train", "--config", str(config),
                         "--out", str(out_dir), "--epochs", "1")
    assert code == 0
    assert len(read_csv_rows(out_dir / "training_log.csv")) == 2
    assert not (tmp_path / "ignored").exists()


def test_train_broken_config_is_usage_error(tmp_path, capsys):
    config = tmp_path / "conf.json"
    config.write_text("[1, 2, 3]")
    code, _, err = run_cli(capsys, "train", "--config", str(config))
    assert code == 1
    assert "usage error" in err


def test_train_config_that_is_not_utf8_is_usage_error(tmp_path, capsys):
    config = tmp_path / "conf.json"
    config.write_bytes(b'\xff\xfe{"epochs": 1}')
    code, out, err = run_cli(capsys, "train", "--config", str(config))
    assert code == 1
    assert out == ""
    assert err.startswith("usage error: config file")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize("list_name", ["validation_list.txt", "testing_list.txt"])
def test_split_list_that_is_not_utf8_is_data_error(train_tree, fresh, tmp_path, capsys,
                                                   command, list_name):
    (train_tree / list_name).write_bytes(b"zero/w_00.wav\n\xff\xfe\n")
    argv = {"train": ["train", "--out", str(tmp_path / "run"), "--epochs", "1"],
            "eval": ["eval", "--checkpoint", str(fresh / "fresh.ckpt"), "--split", "val"]}
    code, out, err = run_cli(capsys, *argv[command], "--data-dir", str(train_tree))
    assert code == 2
    assert out == ""
    assert err.startswith("data error:") and list_name in err and "not UTF-8" in err
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "run").exists()


def test_train_deeply_nested_config_is_usage_error(tmp_path, capsys):
    config = tmp_path / "deep.json"
    config.write_bytes(DEEP_JSON)
    code, out, err = run_cli(capsys, "train", "--config", str(config))
    assert code == 1
    assert out == ""
    assert err.startswith("usage error: config file")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("key, value", [
    ("epochs", "abc"),
    ("batch-size", None),
    ("lr", "fast"),
    ("seed", [1]),
])
def test_train_wrong_typed_config_value_is_usage_error(tmp_path, capsys, key, value):
    config = tmp_path / "conf.json"
    config.write_text(json.dumps({"data-dir": str(tmp_path / "data"),
                                  "out": str(tmp_path / "run"), key: value}))
    code, _, err = run_cli(capsys, "train", "--config", str(config))
    assert code == 1
    assert err.startswith("usage error:")
    assert key in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command, key", [
    ("train", "batch_size"),
    ("train", "learning-rate"),
    ("train", "epoch"),
    ("eval", "batch_size"),
])
def test_unknown_config_key_is_usage_error(fresh, tmp_path, capsys, command, key):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"data-dir": str(tmp_path / "data"),
                                "out": str(tmp_path / "run"), key: 2}))
    argv = {"train": ["train"],
            "eval": ["eval", "--checkpoint", str(fresh / "fresh.ckpt"), "--split", "val"]}
    code, out, err = run_cli(capsys, *argv[command], "--config", str(conf))
    assert code == 1
    assert out == ""
    assert err.startswith("usage error:") and repr(key) in err
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "run").exists()


def _subparsers():
    parser = build_parser()
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def _flags(command):
    return {s for a in _subparsers()[command]._actions for s in a.option_strings}


def test_every_config_key_is_a_train_flag():
    assert {f"--{key}" for key in CONFIG_KINDS} <= _flags("train")


def test_every_key_eval_reads_is_an_eval_flag(fresh, tmp_path, capsys, monkeypatch):
    keys = []
    setting = cli._setting
    monkeypatch.setattr(cli, "_setting", lambda args, config, key, default:
                        keys.append(key) or setting(args, config, key, default))
    code, _, _ = run_cli(capsys, "eval", "--checkpoint", str(fresh / "fresh.ckpt"),
                         "--data-dir", str(tmp_path / "missing"), "--split", "val")
    assert code == 2  # every setting was read before the missing dataset ended the run
    assert set(keys) == {"data-dir", "seed"}
    assert {f"--{key}" for key in keys} <= _flags("eval")
    assert set(keys) <= set(CONFIG_KINDS)


# ---------------------------------------------------------------- parser


def test_unknown_subcommand_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "frobnicate")
    assert code == 1
    assert "usage error" in err


def test_no_subcommand_is_usage_error(capsys):
    code, _, err = run_cli(capsys)
    assert code == 1


def test_unknown_flag_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "inspect", "--fresh", "--wat")
    assert code == 1


def test_console_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "voicehand.cli", "inspect", "--fresh"],
                          capture_output=True, timeout=120)
    assert proc.returncode == 0
    assert b"trainable: 22577" in proc.stdout


@pytest.mark.parametrize("flags, config, named", [
    (["--batch-size", "0"], {}, "batch_size"),
    (["--batch-size", "-4"], {}, "batch_size"),
    (["--epochs", "0"], {}, "epochs"),
    (["--epochs", "-1"], {}, "epochs"),
    ([], {"batch-size": 0}, "batch_size"),
    ([], {"batch-size": -4}, "batch_size"),
    ([], {"epochs": 0}, "epochs"),
    ([], {"epochs": -1}, "epochs"),
    ([], {"data-dir": 5}, "data-dir"),
    ([], {"out": 5}, "out"),
    (["--seed=-1"], {}, "seed"),
    ([], {"seed": -1}, "seed"),
    ([], {"epochs": float("inf")}, "epochs"),  # as 1e400 decodes: no int holds it
    ([], {"seed": float("inf")}, "seed"),
    ([], {"batch-size": float("inf")}, "batch-size"),
    # config values are type-checked, not coerced
    ([], {"no-augment": "false"}, "no-augment"),
    ([], {"no-augment": 1}, "no-augment"),
    ([], {"epochs": 5.7}, "epochs"),
    ([], {"epochs": "3"}, "epochs"),
    ([], {"epochs": True}, "epochs"),
    ([], {"seed": True}, "seed"),
    ([], {"batch-size": 2.9}, "batch-size"),
    ([], {"lr": "0.01"}, "lr"),
    ([], {"lr": True}, "lr"),
    # a malformed value is refused even where a flag overrides it
    (["--epochs", "1"], {"epochs": "3"}, "config key epochs"),
    (["--lr", "0.01"], {"lr": "fast"}, "config key lr"),
    (["--out", "elsewhere"], {"out": 5}, "config key out"),
])
def test_train_bad_size_or_path_is_usage_error(tmp_path, capsys, flags, config, named):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"data-dir": str(tmp_path / "data"),
                                "out": str(tmp_path / "run"), **config}))
    code, out, err = run_cli(capsys, "train", "--config", str(conf), *flags)
    assert code == 1
    assert err.startswith("usage error:") and err.count("\n") == 1
    assert named in err
    assert out == ""
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1", "-1e3"])
@pytest.mark.parametrize("via", ["flag", "config"])
def test_train_learning_rate_not_finite_and_positive_is_usage_error(tmp_path, capsys,
                                                                   value, via):
    conf = tmp_path / "conf.json"
    settings = {"data-dir": str(tmp_path / "data"), "out": str(tmp_path / "run")}
    flags = ["--lr", value] if via == "flag" else []
    if via == "config":
        settings["lr"] = float(value)  # a JSON number: NaN, Infinity, 0.0, -1.0
    conf.write_text(json.dumps(settings))
    code, out, err = run_cli(capsys, "train", "--config", str(conf), *flags)
    assert code == 1
    assert err.startswith("usage error:") and "learning_rate" in err
    assert out == ""
    assert not (tmp_path / "run").exists()


# ---------------------------------------------------------------- fuzzed JSON inputs


# half the fields get an edge number: a negative seed, an infinity no int holds, an int
# no float holds
FIELD_VALUES = st.sampled_from([-1, 0, float("inf"), float("-inf"), 10**400]) | JSON_VALUES
# run_cli reads and clears capsys after every call, so examples share it safely
FUZZ = settings(max_examples=100, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def _field_paths(doc, prefix=()):
    """The path of `doc` itself and of every field nested in it."""
    yield prefix
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _field_paths(value, prefix + (key,))


def _replaced(doc, path, value):
    if not path:
        return value
    out = json.loads(json.dumps(doc))
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return out


TRAIN_CONFIG = {"data-dir": "data", "out": "run", "epochs": 2, "batch-size": 4, "lr": 1e-3,
                "seed": 17, "no-augment": True}


@FUZZ
@given(path=st.sampled_from(list(_field_paths(TRAIN_CONFIG))), value=FIELD_VALUES)
def test_train_config_with_any_json_field_ends_in_an_exit_code(fresh, capsys, path, value):
    # the data directory is missing, so a config that passes every check ends in a data error
    conf = fresh / "fuzz.json"
    conf.write_text(json.dumps(_replaced(TRAIN_CONFIG, path, value)))
    code, out, err = run_cli(capsys, "train", "--config", str(conf),
                             "--data-dir", str(fresh / "missing"))
    assert code in (1, 2)
    assert out == ""
    assert err.startswith("usage error:" if code == 1 else "data error:")


@FUZZ
@given(path=st.sampled_from(list(_field_paths(TABLE))), value=FIELD_VALUES)
def test_gesture_table_with_any_json_field_ends_in_an_exit_code(fresh, capsys, path, value):
    table_path = fresh / "fuzz-table.json"
    table_path.write_text(json.dumps(_replaced(TABLE, path, value)))
    code, out, err = run_cli(capsys, "recognize", "--checkpoint", str(fresh / "fresh.ckpt"),
                             "--wav", str(fresh / "tone.wav"), "--gesture-table", str(table_path))
    assert code in (0, 2)
    if code == 0:
        assert json.loads(out)["class"]
    else:
        assert out == ""
        assert err.startswith("data error: gesture table")


# ---------------------------------------------------------------- fuzzed argv and stdin


OPTIONS = {name: sorted(_flags(name)) for name in sorted(_subparsers())}
# the stderr label README gives each non-zero exit code
LABELS = {1: "usage error:", 2: "data error:", 3: "checkpoint error:"}


@st.composite
def argv_and_stdin(draw, root):
    """A subcommand, then flags from its own parser, each followed by a value
    or not; for train and eval a missing data directory comes last, so
    nothing trains. stdin is arbitrary bytes: short, or one window's worth."""
    command = draw(st.sampled_from(sorted(OPTIONS)))
    values = st.one_of(
        st.integers(-5, 5000).map(str),
        st.integers(min_value=10**18, max_value=10**400).map(str),
        st.sampled_from(["nan", "inf", "-inf", "", "0.5", "val", "test", "pcm-stdin",
                         str(root / "net.ckpt"), str(root / "tone.wav"), str(root / "missing"),
                         f"wav:{root / 'tone.wav'}", f"wav:{root / 'missing'}"]),
    )
    argv = [command]
    for flag in draw(st.lists(st.sampled_from(OPTIONS[command]), max_size=6)):
        argv.append(flag)
        if draw(st.booleans()):
            argv.append(draw(values))
    if command in ("train", "eval"):
        argv += ["--data-dir", str(root / "missing")]
    # one window's worth is drawn as a seed: hypothesis draws bytes one at a time
    window = st.integers(0, 2**32).map(lambda seed: np.random.default_rng(seed).bytes(32000))
    stdin = draw(st.binary(max_size=64) | window)
    return argv, stdin


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_argv_and_stdin_end_in_an_exit_code(tmp_path, capsys, monkeypatch, data):
    # relative paths (a number as --out) land in the test's directory
    monkeypatch.chdir(tmp_path)
    # `features --out` may have overwritten the inputs in an earlier example
    save_checkpoint(tmp_path / "net.ckpt", build_network())
    tone_wav(tmp_path / "tone.wav", 2000.0)
    argv, stdin = data.draw(argv_and_stdin(tmp_path))
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(stdin)))
    try:
        code = main(argv)
    except SystemExit as e:
        assert e.code == 0 and ("-h" in argv or "--help" in argv)
        code = 0
    err = capsys.readouterr().err
    assert code in (0, 1, 2, 3)
    if code:
        assert err.startswith(LABELS[code])


# ---------------------------------------------------------------- fuzzed dataset trees


_PCM = (np.random.default_rng(12).normal(size=16000) * 800).astype(np.int16)
# what a file in the tree may hold: a clip, a clip long enough to be noise,
# a stereo one, a cut one, none and no WAV at all
TREE_FILES = {"clip": wav_bytes(_PCM[:800]), "second": wav_bytes(_PCM),
              "stereo": wav_bytes(_PCM[:800], channels=2), "cut": wav_bytes(_PCM[:800])[:30],
              "empty": b"", "text": b"zero/a.wav\n"}


@st.composite
def dataset_trees(draw):
    """(files, dirs) of a small dataset tree, as relative paths: word
    folders, the noise folder and a folder named x.wav, each empty or
    holding files and directories named *.wav, and list files that hold
    lines naming its files or others, or any bytes, are missing, or are
    directories."""
    files, dirs = {}, []
    folders = ["zero", "one", "hello", "_background_noise_", "x.wav"]
    for folder in draw(st.lists(st.sampled_from(folders), unique=True, min_size=1, max_size=4)):
        dirs.append(folder)
        for name in draw(st.lists(st.sampled_from(["a.wav", "b.wav", "c.wav", "d.txt"]),
                                  unique=True, max_size=3)):
            # readable clips drawn more often, so that some runs train
            kind = draw(st.sampled_from(["clip", "clip", "second"] + sorted(TREE_FILES) + ["dir"]))
            if kind == "dir":
                dirs.append(f"{folder}/{name}")
            else:
                files[f"{folder}/{name}"] = TREE_FILES[kind]
    named = st.sampled_from(sorted(files) + ["zero/gone.wav", "", " one/a.wav "])
    for name in ("validation_list.txt", "testing_list.txt"):
        kind = draw(st.sampled_from(["lines"] * 5 + ["bytes", "missing", "dir"]))
        if kind == "lines":
            lines = draw(st.lists(named, max_size=4))
            files[name] = "\n".join(lines).encode()
        elif kind == "bytes":
            files[name] = draw(st.binary(max_size=16))
        elif kind == "dir":
            dirs.append(name)
    return files, dirs


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(tree=dataset_trees(), augment=st.booleans(), split=st.sampled_from(["val", "test"]))
def test_any_dataset_tree_ends_train_and_eval_in_an_exit_code(fresh, tmp_path, capsys, tree,
                                                               augment, split):
    root, out = Path(tempfile.mkdtemp(dir=tmp_path)), Path(tempfile.mkdtemp(dir=tmp_path))
    files, dirs = tree
    for d in dirs:
        (root / d).mkdir()
    for name, data in files.items():
        (root / name).write_bytes(data)
    train = ["train", "--data-dir", str(root), "--out", str(out), "--epochs", "1",
             "--batch-size", "4"] + ([] if augment else ["--no-augment"])
    evaluate = ["eval", "--checkpoint", str(fresh / "fresh.ckpt"), "--data-dir", str(root),
                "--split", split]
    for argv in (train, evaluate):
        code, _, err = run_cli(capsys, *argv)
        assert code in (0, 1, 2, 3)
        assert len(err.splitlines()) <= (1 if code else 0)
        if code:
            assert err.startswith(LABELS[code])
