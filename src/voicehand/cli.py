"""Command-line entry points: train, eval, recognize, stream, inspect,
features.

Exit codes: 0 success, 1 usage error (bad flags/config), 2 data error
(unreadable audio or dataset), 3 checkpoint error (missing, corrupt, or
mismatched weight file, or weights whose outputs are not finite). A
reader that closes stdout early ends the command silently with 0.
"""

import argparse
import json
import os
import re
import sys
from pathlib import Path

import numpy as np

from .checkpoint import load_checkpoint
from .commands import StreamConfig, recognize_clip, stream_decode
from .dataset import index_dataset, subsample_unknown
from .errors import CheckpointError, UsageError, VoicehandError
from .features import compute_features, export_csv
from .gestures import CLASS_NAMES, GestureTable
from .network import build_network, count_params, layer_table
from .train import TrainConfig, evaluate, fit
from .wav import read_wav

DATA_DIR_ENV = "VOICEHAND_DATA_DIR"


def _is_float(token):
    try:
        float(token)
    except ValueError:
        return False
    return True


class Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad flags; route that through the
    documented usage code instead."""

    def error(self, message):
        raise UsageError(message)

    def parse_known_args(self, args=None, namespace=None):
        """argparse reads a token such as -inf or -1e3 after a flag as
        another flag; joined to the flag as --flag=-inf, it is the flag's
        value and reaches the flag's own check."""
        joined = []
        for token in sys.argv[1:] if args is None else args:
            if (joined and re.fullmatch(r"--[^=]+", joined[-1]) and token.startswith("-")
                    and _is_float(token)):
                joined[-1] += f"={token}"
            else:
                joined.append(token)
        return super().parse_known_args(joined, namespace)


# every key a config file may hold, named after its flag, and the kind of
# JSON value it takes
CONFIG_KINDS = {"data-dir": str, "out": str, "epochs": int, "batch-size": int, "lr": float,
                "seed": int, "no-augment": bool}
EXPECTED = {str: "a path string", int: "an integer", float: "a number", bool: "true or false"}


def _load_config(path):
    """The config file's settings, each checked against its key's kind: a
    string for str, an integer for int, an integer or a fraction for
    float, true or false for bool; a bool is no number. An unknown key, a
    value of another kind or an integer no float holds is a usage error."""
    if path is None:
        return {}
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, ValueError, RecursionError) as e:
        raise UsageError(f"config file {path}: {e}")
    if not isinstance(raw, dict):
        raise UsageError(f"config file {path}: expected a JSON object")
    config = {}
    for key, value in raw.items():
        if key not in CONFIG_KINDS:
            raise UsageError(f"config file {path}: unknown key {key!r}")
        kind = CONFIG_KINDS[key]
        accepted = (int, float) if kind is float else kind
        if isinstance(value, bool) != (kind is bool) or not isinstance(value, accepted):
            raise UsageError(f"config key {key}: expected {EXPECTED[kind]}, got {value!r}")
        try:
            config[key] = kind(value)
        except OverflowError:
            raise UsageError(f"config key {key}: {value!r} does not fit a float")
    return config


def _setting(args, config, key, default):
    """Precedence: the key's flag > config file > default."""
    flag_value = getattr(args, key.replace("-", "_"))
    if flag_value is not None:
        return flag_value
    return config.get(key, default)


def _data_dir(args, config):
    value = _setting(args, config, "data-dir", os.environ.get(DATA_DIR_ENV))
    if value is None:
        raise UsageError(f"no data directory: pass --data-dir or set {DATA_DIR_ENV}")
    return Path(value)


def _network_from_checkpoint(path):
    network = build_network()
    try:
        metadata = load_checkpoint(path, network)
    except OSError as e:
        raise CheckpointError(f"cannot read checkpoint {path}: {e}")
    return network, metadata


def _read_clip(path):
    try:
        return read_wav(path)
    except OSError as e:
        raise VoicehandError(f"cannot read {path}: {e}")


def _load_table(path):
    if path is None:
        return GestureTable.default()
    try:
        return GestureTable.load(path)
    except (OSError, ValueError, KeyError, TypeError, OverflowError, RecursionError) as e:
        raise VoicehandError(f"gesture table {path}: {e}")


def cmd_train(args) -> int:
    config_file = _load_config(args.config)
    data_dir = _data_dir(args, config_file)
    out_dir = _setting(args, config_file, "out", None)
    if out_dir is None:
        raise UsageError("train needs --out")
    try:
        config = TrainConfig(
            epochs=_setting(args, config_file, "epochs", TrainConfig.epochs),
            batch_size=_setting(args, config_file, "batch-size", TrainConfig.batch_size),
            learning_rate=_setting(args, config_file, "lr", TrainConfig.learning_rate),
            seed=_setting(args, config_file, "seed", TrainConfig.seed),
            augment=not _setting(args, config_file, "no-augment", False),
        )
    except ValueError as e:
        raise UsageError(f"train: {e}")
    index = subsample_unknown(index_dataset(data_dir), config.seed)
    network = build_network(seed=config.seed)
    reports = fit(network, index, config, out_dir)
    best = max((r.val_acc for r in reports if not np.isnan(r.val_acc)), default=float("nan"))
    print(f"done: {len(reports)} epochs, best val acc {best:.4f}, "
          f"checkpoints in {out_dir}")
    return 0


def _print_confusion(confusion):
    header = " ".join(f"{name:>8}" for name in CLASS_NAMES)
    print(f"{'':>8} {header}  (rows true, cols predicted)")
    for name, row in zip(CLASS_NAMES, confusion):
        cells = " ".join(f"{int(v):>8}" for v in row)
        print(f"{name:>8} {cells}")


def cmd_eval(args) -> int:
    config_file = _load_config(args.config)
    seed = _setting(args, config_file, "seed", TrainConfig.seed)
    if seed < 0:
        raise UsageError(f"eval: seed must be at least 0, got {seed}")
    data_dir = _data_dir(args, config_file)
    network, _ = _network_from_checkpoint(args.checkpoint)
    index = subsample_unknown(index_dataset(data_dir), seed)
    entries = index.split_entries(args.split)
    accuracy, confusion = evaluate(network, entries)
    if args.json:
        print(json.dumps({
            "split": args.split,
            "clips": len(entries),
            "accuracy": accuracy,
            "class_names": list(CLASS_NAMES),
            "confusion": confusion.tolist(),
        }))
    else:
        print(f"accuracy {accuracy:.4f} on {args.split} ({len(entries)} clips)")
        _print_confusion(confusion)
    return 0


def cmd_recognize(args) -> int:
    if not 0.0 <= args.threshold <= 1.0:
        raise UsageError(f"recognize: threshold must be in [0, 1], got {args.threshold}")
    network, _ = _network_from_checkpoint(args.checkpoint)
    clip = _read_clip(args.wav)
    table = _load_table(args.gesture_table)
    print(recognize_clip(network, clip, table, args.threshold).to_json())
    return 0


def cmd_stream(args) -> int:
    try:
        config = StreamConfig(
            hop_ms=args.hop_ms,
            decision_threshold=args.threshold,
            refractory_ms=args.refractory_ms,
        )
    except ValueError as e:
        raise UsageError(f"stream: {e}")
    network, _ = _network_from_checkpoint(args.checkpoint)
    table = _load_table(args.gesture_table)
    if args.input == "pcm-stdin":
        raw = sys.stdin.buffer.read()
        if len(raw) % 2:
            raise VoicehandError("pcm-stdin: odd byte count for 16-bit samples")
        samples = np.frombuffer(raw, dtype="<i2")
    elif args.input.startswith("wav:"):
        samples = _read_clip(args.input[4:]).samples
    else:
        raise UsageError("stream --input takes wav:PATH or pcm-stdin")
    for decision in stream_decode(network, samples, table, config):
        print(decision.to_json(), flush=True)
    return 0


def cmd_inspect(args) -> int:
    if args.checkpoint is not None:
        network, _ = _network_from_checkpoint(args.checkpoint)
    else:
        network = build_network()
    rows = layer_table(network)
    widths = [max(len(str(r[i])) for r in rows) for i in range(6)]
    titles = ("#", "layer", "detail", "activation", "output", "params")
    widths = [max(w, len(t)) for w, t in zip(widths, titles)]
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    print(fmt.format(*titles))
    for row in rows:
        print(fmt.format(*map(str, row)))
    trainable, non_trainable, _ = count_params(network)
    print(f"trainable: {trainable}")
    print(f"non-trainable: {non_trainable}")
    print(f"total: {trainable + non_trainable}")
    return 0


def cmd_features(args) -> int:
    clip = _read_clip(args.wav)
    features = compute_features(clip)
    export_csv(features, args.out)
    print(f"wrote {features.shape[0]}x{features.shape[1]} grid to {args.out}")
    return 0


def build_parser() -> Parser:
    parser = Parser(prog="voicehand", description=__doc__,
                    formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=Parser)

    p = sub.add_parser("train", help="train a network and write checkpoints")
    p.add_argument("--data-dir", help=f"dataset root (default: ${DATA_DIR_ENV})")
    p.add_argument("--out", help="output directory for checkpoints and the epoch CSV")
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--no-augment", action="store_const", const=True,
                   help="disable background-noise augmentation")
    p.add_argument("--config", help="JSON config file; flags override it")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="accuracy and confusion matrix on a split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data-dir", help=f"dataset root (default: ${DATA_DIR_ENV})")
    p.add_argument("--split", choices=("val", "test"), required=True)
    p.add_argument("--seed", type=int,
                   help=f"seed for the unknown-class subsample (default {TrainConfig.seed})")
    p.add_argument("--json", action="store_true")
    p.add_argument("--config", help="JSON config file; flags override it")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("recognize", help="classify one WAV file")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--wav", required=True)
    p.add_argument("--gesture-table", help="JSON gesture table (default built in)")
    p.add_argument("--threshold", type=float, default=0.0,
                   help="minimum probability to accept the decision, in [0, 1]")
    p.set_defaults(func=cmd_recognize)

    p = sub.add_parser("stream", help="decode a long recording into command JSON lines")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True, help="wav:PATH or pcm-stdin (raw s16le)")
    p.add_argument("--gesture-table", help="JSON gesture table (default built in)")
    p.add_argument("--hop-ms", type=int, default=StreamConfig.hop_ms)
    p.add_argument("--threshold", type=float, default=StreamConfig.decision_threshold)
    p.add_argument("--refractory-ms", type=int, default=StreamConfig.refractory_ms)
    p.set_defaults(func=cmd_stream)

    p = sub.add_parser("inspect", help="print the layer table and parameter counts")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--checkpoint")
    group.add_argument("--fresh", action="store_true", help="inspect a freshly built network")
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("features", help="export one clip's 129x71 feature grid as CSV")
    p.add_argument("--wav", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_features)

    return parser


def _stdout_to_devnull():
    """Point stdout's descriptor at the null device, so the interpreter's
    exit flush of what is still buffered raises nothing more."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, ValueError):  # an in-process stream with no descriptor
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # an overflow surfaces as the CheckpointError it leads to, not a warning
        with np.errstate(over="ignore", invalid="ignore"):
            code = args.func(args)
        sys.stdout.flush()  # a closed reader shows here, not in the exit flush
        return code
    except BrokenPipeError:
        # the reader of stdout left (`stream ... | head -1`); what it read
        # stands. No other file this program writes is a pipe.
        _stdout_to_devnull()
        return 0
    except (VoicehandError, OSError) as e:
        # an OSError is unreadable data: a dataset, a noise clip, an output path
        error = e if isinstance(e, VoicehandError) else VoicehandError
        print(f"{error.label}: {e}", file=sys.stderr)
        return error.exit_code


if __name__ == "__main__":
    sys.exit(main())
