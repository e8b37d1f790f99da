"""End-to-end CLI behavior: exit codes, JSON output, config precedence."""

import json
import subprocess
import sys

import numpy as np
import pytest

from voicehand.cli import DATA_DIR_ENV, main
from voicehand.synth import tone_samples
from voicehand.wav import write_wav

from conftest import read_csv_rows, tone_wav, write_word_tree


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


def test_inspect_corrupt_checkpoint_is_checkpoint_error(tmp_path, capsys):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"not a checkpoint at all")
    code, _, err = run_cli(capsys, "inspect", "--checkpoint", str(bad))
    assert code == 3
    assert "checkpoint error" in err


# ---------------------------------------------------------------- features


def test_features_exports_grid(tmp_path, capsys):
    wav = tone_wav(tmp_path / "t.wav", 2000.0)
    out_csv = tmp_path / "grid.csv"
    code, out, _ = run_cli(capsys, "features", "--wav", str(wav), "--out", str(out_csv))
    assert code == 0
    assert "129x71" in out
    grid = np.loadtxt(out_csv, delimiter=",")
    assert grid.shape == (129, 71)


def test_features_missing_wav_is_data_error(tmp_path, capsys):
    code, _, err = run_cli(capsys, "features", "--wav", str(tmp_path / "no.wav"),
                           "--out", str(tmp_path / "o.csv"))
    assert code == 2
    assert "cannot read" in err


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
    from voicehand.gestures import FingerTrajectory, GestureTable

    table = GestureTable.default()
    table.rows["one"] = FingerTrajectory(0.0, 1.0, 0.0, 0.0, 0.0)
    table_path = tmp_path / "table.json"
    table.save(table_path)
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


def test_stream_bad_input_scheme_is_usage_error(trained, capsys):
    code, _, err = run_cli(capsys, "stream", "--checkpoint", str(trained.best_ckpt),
                           "--input", "microphone")
    assert code == 1
    assert "usage error" in err


@pytest.mark.parametrize("flag, value", [
    ("--hop-ms", "0"),
    ("--threshold", "1.5"),
    ("--refractory-ms", "-1"),
])
def test_stream_bad_policy_flag_is_usage_error(tmp_path, capsys, flag, value):
    # the policy is checked before the checkpoint is read, so a missing one is never reached
    code, out, err = run_cli(capsys, "stream", "--checkpoint", str(tmp_path / "absent.ckpt"),
                             "--input", "pcm-stdin", flag, value)
    assert code == 1
    assert out == ""
    assert err.startswith("usage error:")
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


# ---------------------------------------------------------------- train


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
