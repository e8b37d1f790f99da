#!/usr/bin/env python3
"""One benchmark phase in a process of its own, driven by run.py.

    python3 perfbench/phases.py --phase recognize|stream|train
        --role main|probe --seed N --trace 0|1 --work DIR

`run.py` starts one process per phase, so a phase's peak memory cannot
leak into another's, and drives them over stdin/stdout, one at a time:

    prepare      write the inputs, set up, warm up    -> "ready"
    measure S    measure for S seconds                -> "done"
    finish       check outputs, report                -> one JSON line

It gives each phase several measure turns in turn, so every phase's
samples spread over the whole run and a slow or fast spell of the
machine touches all of them alike. Warm-up runs blocks of work until two
consecutive blocks agree. With `--trace 1` the measured blocks alternate
between traced and untraced, so one run gives the per-layer spans and
the tracing overhead.
"""

import argparse
import json
import math
import resource
import sys
import time
from collections import defaultdict
from pathlib import Path

import checkout

checkout.use_sources()

import numpy as np  # noqa: E402

import envinfo  # noqa: E402
import inputs  # noqa: E402
import voicehand.commands as commands  # noqa: E402
import voicehand.dataset as dataset  # noqa: E402
import voicehand.train as train  # noqa: E402
import voicehand.wav as wav  # noqa: E402
from tracing import Tracer, metric_key, ns, wrap_network  # noqa: E402
from voicehand.adam import Adam  # noqa: E402
from voicehand.audio import NoisePool  # noqa: E402
from voicehand.checkpoint import load_checkpoint, save_checkpoint  # noqa: E402
from voicehand.commands import StreamConfig, encode_dac_frames, trajectory_to_codes  # noqa: E402
from voicehand.gestures import KNOWN_WORDS, GestureClass, GestureTable, lookup_trajectory  # noqa: E402
from voicehand.network import build_network  # noqa: E402
from voicehand.rng import substream  # noqa: E402
from voicehand.wav import SAMPLE_RATE  # noqa: E402

SETUP_WARMUP_S = 0.5
WARMUP_MIN_S = 0.5
WARMUP_MAX_S = 3.0
WARMUP_TOLERANCE = 0.03  # consecutive block medians within 3% count as steady
SETUP_REPEATS_PER_TURN = 20  # build_network + load_checkpoint, timed at each turn

RECOGNIZE_CLIPS_PER_CLASS = 100  # 900 tone clips + 100 noise clips, all distinct
RECOGNIZE_BLOCK = 100
P99_BLOCK = 1000  # a p99 needs 1000 samples to have 10 beyond it
RECOGNIZE_ACCURACY_FLOOR = 0.95

STREAM_KNOWN_WORDS = 10
STREAM_OOV_WORDS = 2
STREAM_REFRACTORY_MS = 2000
HOP_FINE, HOP_COARSE = 70, 500
COARSE_DECODES_PER_ROUND = 2
STFT_HOP = 224
MIN_OVERLAP_MS = 16  # one 256-sample STFT segment

TRAIN_CLIPS_PER_CLASS = 48
TRAIN_VAL_FRACTION = 0.32
TRAIN_CLIPS = 128  # two full batches of 64, so an epoch fits in one measure turn
VAL_CLIPS = 128  # two full batches of 64
BATCH = 64
EVALS_PER_EPOCH = 2
TRAIN_SETUPS_PER_TURN = 3
TRAIN_LEARNING_RATE = 3e-3  # reaches the val floor in fewer epochs than the 1e-3 default
VAL_ACCURACY_FLOOR = 0.33  # three times chance over nine classes
TRAIN_MAX_EPOCHS = 24  # a main train phase trains on, unmeasured, until the floor or this
FINGERPRINT_EPOCHS = 3

MIB = 2**20


def ms(t0, t1):
    return (t1 - t0) / 1e6


class Phase:
    """State shared by every phase: samples, op counts, the tracer."""

    def __init__(self, args):
        self.name = args.phase
        self.main = args.role == "main"
        self.seed = args.seed
        self.work = Path(args.work) / args.phase
        self.work.mkdir(parents=True, exist_ok=True)
        self.tracer = Tracer() if args.trace else None
        self.samples = defaultdict(lambda: defaultdict(list))  # (metric, traced) -> turn -> values
        self.turn = 0
        # metric -> [(reported name, percentile, block)]; default the median.
        # Without a block size, the value is each turn's percentile averaged
        # over the turns: a turn (1-2 s) sits inside one fast or slow spell
        # of the machine, and the average moves in step with the share of
        # slow spells, where one median over all samples jumps from the
        # fast spells' value to the slow ones' as that share crosses half.
        # With a block size, the value is the median over consecutive
        # blocks of that many samples of each block's percentile.
        self.percentiles = {}
        self.units = {}
        self.layers = {}
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.gates = {}
        self.info = {}
        self.setup_parts = defaultdict(list)  # part of setup -> ms samples

    def record(self, metric, unit, value, traced):
        self.units[metric] = unit
        self.samples[(metric, traced)][self.turn].append(value)

    def fail(self, message):
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)

    def layer(self, name, value, unit, n):
        self.layers[name] = {"value": float(value), "unit": unit, "n": int(n)}

    def warm_up(self, block):
        """Run untimed blocks until two in a row agree within
        WARMUP_TOLERANCE (after at least WARMUP_MIN_S) or WARMUP_MAX_S
        passes. `block()` returns the block's median op time."""
        started = time.monotonic()
        previous = None
        blocks = 0
        while True:
            current = block()
            blocks += 1
            elapsed = time.monotonic() - started
            steady = bool(previous) and abs(current / previous - 1.0) <= WARMUP_TOLERANCE
            if (steady and elapsed >= WARMUP_MIN_S) or elapsed >= WARMUP_MAX_S:
                self.info["warmup"] = {"seconds": round(elapsed, 3), "blocks": blocks,
                                       "steady": bool(steady)}
                return
            previous = current

    def turns(self, block, before_turn=None):
        """Serve measure turns until finish: each calls before_turn(),
        then runs blocks for about the turn's seconds, at least one
        untraced, alternating traced and untraced blocks with --trace 1
        (a traced block always gets its untraced partner in the same
        turn, and which of the two goes first alternates from turn to
        turn, as the first block after another phase's turn runs slow).
        A turn stops before a step (a block, or a traced and
        untraced pair) that would end it further past its seconds than
        stopping leaves it short, judged by the step before, so turns
        average their seconds even when a step is nearly a turn long."""
        measured = 0.0
        turns = 0
        seconds = yield
        while seconds is not None:
            started = time.monotonic()
            self.turn = turns
            if before_turn is not None:
                before_turn()
            k = untraced = 0
            step_started = time.monotonic()
            while True:
                traced = self.tracer is not None and (k + turns) % 2 == 0
                block(traced)
                k += 1
                untraced += not traced
                if self.tracer is None or k % 2 == 0:
                    now = time.monotonic()
                    if untraced and now - started + (now - step_started) / 2 >= seconds:
                        break
                    step_started = now
            measured += time.monotonic() - started
            turns += 1
            seconds = yield
        self.info["measured_seconds"] = round(measured, 3)
        self.info["turns"] = turns

    def warm_setup(self, setup):
        """Run setup() untimed for SETUP_WARMUP_S, as the first seconds of
        a process run slow, then once more, and return that state.
        setup() returns (seconds, {part: ms}, state); set-ups are timed
        in the measure turns (time_setup)."""
        started = time.monotonic()
        while time.monotonic() - started < SETUP_WARMUP_S:
            setup()
        return setup()[2]

    def time_setup(self, setup):
        seconds, part_ms, state = setup()
        self.record("setup_s", "s", seconds, False)
        for name, value in part_ms.items():
            self.setup_parts[name].append(value)
        return state

    def result(self):
        e2e = {}
        overhead = {}
        for (metric, traced), by_turn in self.samples.items():
            if traced:
                continue
            traced_by_turn = self.samples.get((metric, True))
            for name, q, size in self.percentiles.get(metric, [(metric, 50, None)]):
                value = estimate(by_turn, q, size)
                e2e[name] = {"value": value, "unit": self.units[metric],
                             "n": sum(map(len, by_turn.values()))}
                if traced_by_turn:
                    traced_value = estimate(traced_by_turn, q, size)
                    overhead[name] = {"traced": traced_value, "untraced": value,
                                      "traced_over_untraced": traced_value / value,
                                      "n_traced": sum(map(len, traced_by_turn.values()))}
        e2e["peak_rss_mb"] = {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                              "unit": "MiB", "n": 1}
        correct = self.failed == 0 and all(self.gates.values())
        return {
            "phase": self.name,
            "role": "main" if self.main else "probe",
            "correct": correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "errors": self.errors,
            "gates": self.gates,
            "e2e": e2e,
            "layers": self.layers,
            "overhead": overhead,
            "info": self.info,
            "blas_threads": envinfo.blas_threads(),
        }

    # -- trace summaries ---------------------------------------------
    def span_metric(self, summary, name, tag="", stat="p50_ms", metric=None):
        entry = summary.get((name, tag))
        if entry is not None:
            self.layer(metric or metric_key(name, tag), entry[stat], "ms", entry["calls"])

    def coverage(self, summary):
        """How much of each network-level span its layer spans cover."""
        out = {}
        for (name, tag), entry in sorted(summary.items()):
            if name.startswith("network."):
                uncovered = entry["self_total_ms"]
                out[f"{name}.{tag}"] = {
                    "calls": entry["calls"],
                    "span_ms_per_call": entry["total_ms"] / entry["calls"],
                    "layers_ms_per_call": (entry["total_ms"] - uncovered) / entry["calls"],
                    "uncovered_ms_per_call": uncovered / entry["calls"],
                    "covered_share": 1.0 - uncovered / entry["total_ms"],
                }
                self.span_metric(summary, name, tag, "self_p50_ms",
                                 metric=f"{name}_self_ms.{tag}")
        self.info["coverage"] = out

    def write_trace(self):
        path = self.work.parent.parent / "traces" / f"{self.name}.jsonl"
        path.parent.mkdir(parents=True, exist_ok=True)
        self.tracer.write_jsonl(path)
        self.info["trace_file"] = str(path.relative_to(checkout.ROOT))
        self.info["spans"] = len(self.tracer.spans)
        self.info["self_times"] = {
            metric_key(name, tag): {k: v for k, v in entry.items() if k != "p99_ms"}
            for (name, tag), entry in sorted(self.tracer.summary().items())
        }


def estimate(by_turn, q, size=None):
    """From {turn: values}: the mean over turns of each turn's q-th
    percentile, or with a block size, the median over consecutive full
    blocks of that many samples of each block's q-th percentile (all
    samples if there are fewer than two blocks)."""
    if size is None:
        return float(np.mean([np.percentile(v, q) for v in by_turn.values()]))
    values = [v for turn in sorted(by_turn) for v in by_turn[turn]]
    if len(values) < 2 * size:
        return float(np.percentile(values, q))
    blocks = [values[i : i + size] for i in range(0, len(values) - size + 1, size)]
    return float(np.median([np.percentile(b, q) for b in blocks]))


def expected_frame_bytes(table):
    """Wire bytes the engine must emit for each class; unknown emits none."""
    out = {}
    for gesture in GestureClass:
        trajectory = lookup_trajectory(table, gesture)
        frames = () if trajectory is None else encode_dac_frames(trajectory_to_codes(trajectory))
        out[gesture.word] = b"".join(f.as_bytes() for f in frames)
    return out


def frame_bytes(decision):
    return b"".join(f.as_bytes() for f in decision.frames)


def inference_setup():
    """build_network + load_checkpoint, which every recognize/stream CLI
    call pays."""
    t0 = ns()
    network = build_network()
    t1 = ns()
    load_checkpoint(checkout.CHECKPOINT, network)
    t2 = ns()
    return (t2 - t0) / 1e9, {"checkpoint.load_ms": ms(t1, t2)}, network


def time_inference_setups(ph):
    for _ in range(SETUP_REPEATS_PER_TURN):
        ph.time_setup(inference_setup)


def report_load_time(ph):
    if ph.tracer is not None:
        loads = ph.setup_parts["checkpoint.load_ms"]
        ph.layer("checkpoint.load_ms", np.median(loads), "ms", len(loads))


# -- recognize ---------------------------------------------------------

def trace_recognize(tracer, network):
    tracer.wrap(wav, "decode_wav", "wav.decode")
    tracer.wrap(commands, "recognize_clip", "commands.recognize")
    tracer.wrap(commands, "to_window", "audio.to_window")
    tracer.wrap(commands, "classify_window", "commands.classify")
    tracer.wrap(commands, "stft_power", "features.stft")
    tracer.wrap(commands, "log_compress", "features.log")
    tracer.wrap(commands, "decide", "commands.decide")
    wrap_network(tracer, network)


def run_recognize(ph):
    seed = inputs.phase_seed(ph.seed, "recognize")
    clips = inputs.recognize_clips(ph.work, seed, RECOGNIZE_CLIPS_PER_CLASS)
    table = GestureTable.default()
    expected = expected_frame_bytes(table)
    network = ph.warm_setup(inference_setup)
    tracer = ph.tracer
    ph.percentiles["decision_ms"] = [("decision_p50_ms", 50, None),
                                     ("decision_p99_ms", 99, P99_BLOCK)]
    hits = defaultdict(lambda: [0, 0])  # clip word -> [correct, seen]
    position = 0

    def block(traced=False, record=False):
        nonlocal position
        if traced:
            trace_recognize(tracer, network)
        latencies = []
        for _ in range(RECOGNIZE_BLOCK):
            clip = clips[position % len(clips)]
            position += 1
            data = clip.path.read_bytes()
            ph.attempted += 1
            if traced:
                tracer.op += 1
                tracer.begin("recognize.decision")
            t0 = ns()
            try:
                decision = commands.recognize_clip(network, wav.decode_wav(data), table)
            except Exception as e:  # an op that raises is a failed op; keep going
                ph.fail(f"{clip.path.name}: {type(e).__name__}: {e}")
                continue
            finally:
                t1 = ns()
                if traced:
                    tracer.end()
            latencies.append(ms(t0, t1))
            word = decision.gesture.word
            if frame_bytes(decision) != expected[word]:
                ph.fail(f"{clip.path.name}: frames for {word} differ from the gesture table")
            hits[clip.word][0] += word == clip.expected
            hits[clip.word][1] += 1
        if traced:
            tracer.uninstall()
        if record:
            for value in latencies:
                ph.record("decision_ms", "ms", value, traced)
        return float(np.median(latencies)) if latencies else 0.0

    ph.warm_up(block)
    yield from ph.turns(lambda traced: block(traced, record=True),
                        lambda: time_inference_setups(ph))
    report_load_time(ph)

    correct = sum(c for c, _ in hits.values())
    seen = sum(n for _, n in hits.values())
    accuracy = correct / seen if seen else 0.0
    ph.gates[f"accuracy >= {RECOGNIZE_ACCURACY_FLOOR}"] = accuracy >= RECOGNIZE_ACCURACY_FLOOR
    ph.info["accuracy"] = accuracy
    ph.info["accuracy_by_input"] = {w: round(c / n, 4) for w, (c, n) in sorted(hits.items())}
    ph.info["distinct_clips"] = len(clips)

    if tracer is not None:
        summary = tracer.summary()
        for name in ("wav.decode", "audio.to_window", "features.stft", "features.log",
                     "commands.decide"):
            ph.span_metric(summary, name)
        ph.span_metric(summary, "network.forward", "b1")
        for layer in network.layers:
            ph.span_metric(summary, f"layers.{layer.name}.fwd", "b1")
        ph.coverage(summary)


# -- stream ------------------------------------------------------------

def trace_stream(tracer, network):
    def count_frames(args, kwargs, result):
        tracer.counts["stft_frames"] += result.shape[1]

    tracer.wrap(commands, "classify_window", "commands.classify", new_op=True)
    tracer.wrap(commands, "to_window_values", "audio.to_window_values")
    tracer.wrap(commands, "stft_power", "features.stft", after=count_frames)
    tracer.wrap(commands, "log_compress", "features.log")
    tracer.wrap(commands, "decide", "commands.decide")
    wrap_network(tracer, network)


def script_mismatch(decisions, script, expected):
    """None when the decisions match the recording's script: one emission
    per known word, in order, each from a window that shares at least one
    STFT segment with its word (so none from a gap), with the gesture
    table's frames; else the reason."""
    words = [s for s in script if s.word in KNOWN_WORDS]
    got = [d.gesture.word for d in decisions]
    if got != [s.word for s in words]:
        return f"emitted {got}, script says {[s.word for s in words]}"
    for d, s in zip(decisions, words):
        lo = s.start * 1000 // SAMPLE_RATE + MIN_OVERLAP_MS
        hi = s.end * 1000 // SAMPLE_RATE + 1000 - MIN_OVERLAP_MS
        if not lo <= d.t_ms <= hi:
            return f"{d.gesture.word} at {d.t_ms} ms, outside {lo}..{hi} ms"
        if frame_bytes(d) != expected[d.gesture.word]:
            return f"{d.gesture.word} at {d.t_ms} ms: frames differ from the gesture table"
    return None


def run_stream(ph):
    seed = inputs.phase_seed(ph.seed, "stream")
    recording = inputs.stream_recording(ph.work, seed, STREAM_KNOWN_WORDS, STREAM_OOV_WORDS)
    table = GestureTable.default()
    expected = expected_frame_bytes(table)
    network = ph.warm_setup(inference_setup)
    tracer = ph.tracer
    audio_s = len(recording.samples) / SAMPLE_RATE
    configs = {hop: StreamConfig(hop_ms=hop, refractory_ms=STREAM_REFRACTORY_MS)
               for hop in (HOP_FINE, HOP_COARSE)}
    counts = defaultdict(lambda: defaultdict(int))  # hop -> counter -> total
    emitted = {}

    def decode(hop, traced, record):
        if traced:
            before = dict(tracer.counts)
            tracer.begin("stream.decode", f"hop{hop}")
        ph.attempted += 1
        t0 = ns()
        try:
            decisions = list(commands.stream_decode(network, recording.samples, table,
                                                    configs[hop]))
        except Exception as e:  # an op that raises is a failed op; keep going
            ph.fail(f"hop {hop}: {type(e).__name__}: {e}")
            return 0.0
        finally:
            t1 = ns()
            if traced:
                tracer.end()
        rtf = (t1 - t0) / 1e9 / audio_s
        reason = script_mismatch(decisions, recording.script, expected)
        if reason:
            ph.fail(f"hop {hop}: {reason}")
        emitted.setdefault(hop, [(d.gesture.word, d.t_ms) for d in decisions])
        if record:
            ph.record(f"rtf_hop{hop}", "s/s", rtf, traced)
        if traced:
            for key, value in tracer.counts.items():
                counts[hop][key] += value - before.get(key, 0)
            counts[hop]["windows"] += len(commands.window_offsets(len(recording.samples),
                                                                  configs[hop]))
            counts[hop]["decisions"] += len(decisions)
        return rtf

    def round_(traced, record):
        if traced:
            trace_stream(tracer, network)
        fine = decode(HOP_FINE, traced, record)
        for _ in range(COARSE_DECODES_PER_ROUND):
            decode(HOP_COARSE, traced, record)
        if traced:
            tracer.uninstall()
        return fine

    ph.warm_up(lambda: decode(HOP_COARSE, traced=False, record=False))
    yield from ph.turns(lambda traced: round_(traced, record=True),
                        lambda: time_inference_setups(ph))
    report_load_time(ph)
    ph.info["audio_seconds"] = audio_s
    ph.info["script"] = [(s.word, s.start * 1000 // SAMPLE_RATE) for s in recording.script]
    ph.info["emitted"] = {f"hop{hop}": e for hop, e in emitted.items()}

    if tracer is not None:
        summary = tracer.summary()
        classify = [e - s for _, _, _, name, _, s, e in tracer.spans if name == "commands.classify"]
        ph.layer("commands.classify_ms.p50", np.percentile(classify, 50) / 1e6, "ms", len(classify))
        ph.layer("commands.classify_ms.p99", np.percentile(classify, 99) / 1e6, "ms", len(classify))
        for hop, suffix in ((HOP_FINE, ""), (HOP_COARSE, f".hop{HOP_COARSE}")):
            c = counts[hop]
            new_frames = c["windows"] * configs[hop].hop_samples / STFT_HOP
            ph.layer(f"features.frames_per_new_frame{suffix}", c["stft_frames"] / new_frames,
                     "ratio", c["windows"])
        c = counts[HOP_FINE]
        new_cols = c["windows"] * configs[HOP_FINE].hop_samples / STFT_HOP
        ph.layer("layers.conv1.cols_per_new_col", c["conv1_cols"] / new_cols, "ratio",
                 c["windows"])
        ph.layer("commands.emit_ratio", c["decisions"] / c["windows"], "ratio", c["windows"])
        ph.coverage(summary)


# -- train -------------------------------------------------------------

def pick(entries, count, seed, name):
    order = substream(seed, "pick", name).permutation(len(entries))
    if len(entries) < count:
        raise SystemExit(f"perfbench: {name} split has {len(entries)} clips, needs {count}")
    return [entries[i] for i in sorted(order[:count])]


def train_setup(root, seed):
    """What a training run pays before its first step: index the dataset,
    thin the unknown class, load the noise pool, fill the ClipStore,
    build the network. Returns (seconds, {part: ms}, state)."""
    t0 = ns()
    index = dataset.index_dataset(root)
    t1 = ns()
    index = dataset.subsample_unknown(index, seed)
    pool = NoisePool.from_files(index.noise_files)
    entries = pick(index.split_entries("train"), TRAIN_CLIPS, seed, "train")
    val = pick(index.split_entries("val"), VAL_CLIPS, seed, "val")
    store = train.ClipStore()
    for entry in entries + val:
        store.window(entry.path)
    network = build_network(seed=seed)
    t2 = ns()
    return (t2 - t0) / 1e9, {"dataset.index_ms": ms(t0, t1)}, (pool, entries, val, store, network)


def trace_train(tracer, network, store, optimizer, step):
    def end_step(args, kwargs, result):
        now = ns()
        tracer.add("train.step", step["start"], now)
        step["start"] = now
        tracer.op += 1

    tracer.wrap(train, "mix_noise", "audio.mix_noise")
    tracer.wrap(train, "stft_power", "features.stft")
    tracer.wrap(train, "log_compress", "features.log")
    tracer.wrap(train, "read_wav", "wav.read")
    tracer.wrap(store, "window", "train.clip_window")
    tracer.wrap(optimizer, "step", "adam.step", after=end_step)
    wrap_network(tracer, network)


def run_train(ph):
    seed = inputs.phase_seed(ph.seed, "train")
    root = inputs.train_dataset(ph.work, seed, TRAIN_CLIPS_PER_CLASS, TRAIN_VAL_FRACTION)
    pool, entries, val, store, network = ph.warm_setup(lambda: train_setup(root, seed))
    config = train.TrainConfig(seed=seed, batch_size=BATCH, learning_rate=TRAIN_LEARNING_RATE)
    optimizer = Adam(learning_rate=config.learning_rate)
    tracer = ph.tracer
    losses, val_accs = [], []
    step = {"start": 0}

    def epoch_block(traced=False, record=False):
        epoch = len(losses)
        if traced:
            trace_train(tracer, network, store, optimizer, step)
            tracer.op += 1
            tracer.begin("train.epoch")
            step["start"] = ns()
        ph.attempted += 1
        t0 = ns()
        try:
            loss, _ = train.train_epoch(network, entries, store, pool, optimizer, config, epoch)
        finally:
            t1 = ns()
            if traced:
                tracer.end()
        losses.append(loss)
        if not math.isfinite(loss):
            ph.fail(f"epoch {epoch}: loss {loss}")
        if record:
            ph.record("train_clips_per_s", "clips/s", len(entries) / ((t1 - t0) / 1e9), traced)
        for _ in range(EVALS_PER_EPOCH):
            ph.attempted += 1
            if traced:
                tracer.op += 1
                tracer.begin("train.evaluate")
            t2 = ns()
            try:
                accuracy, _ = train.evaluate(network, val, store, BATCH)
            finally:
                t3 = ns()
                if traced:
                    tracer.end()
            if record:
                ph.record("eval_clips_per_s", "clips/s", len(val) / ((t3 - t2) / 1e9), traced)
        val_accs.append(accuracy)
        if traced:
            tracer.uninstall()
        return (t1 - t0) / 1e9

    def eval_block():
        t0 = ns()
        train.evaluate(network, val, store, BATCH)
        return ns() - t0

    def fresh_setups():
        """Time TRAIN_SETUPS_PER_TURN more set-ups at the start of a turn
        and go on with the ClipStore the last one filled (their networks
        are dropped, training continues on the first). The old store is
        freed before each, so one is alive at a time and peak_rss_mb stays
        that of a single training run."""
        nonlocal pool, entries, val, store
        for _ in range(TRAIN_SETUPS_PER_TURN):
            pool = entries = val = store = None
            pool, entries, val, store, _ = ph.time_setup(lambda: train_setup(root, seed))

    ph.warm_up(eval_block)
    yield from ph.turns(lambda traced: epoch_block(traced, record=True), fresh_setups)
    while ph.main and max(val_accs) < VAL_ACCURACY_FLOOR and len(losses) < TRAIN_MAX_EPOCHS:
        epoch_block()
    t0 = ns()
    save_checkpoint(ph.work / "trained.ckpt", network, metadata={"epochs": len(losses)})
    save_ms = ms(t0, ns())

    ph.info["epochs"] = len(losses)
    ph.info["train_clips"] = len(entries)
    ph.info["val_clips"] = len(val)
    ph.info["loss_fingerprint"] = [repr(x) for x in losses[:FINGERPRINT_EPOCHS]]
    ph.info["val_accuracy_by_epoch"] = [round(a, 4) for a in val_accs]
    if ph.main:
        ph.gates[f"val accuracy >= {VAL_ACCURACY_FLOOR} within {TRAIN_MAX_EPOCHS} epochs"] = (
            max(val_accs) >= VAL_ACCURACY_FLOOR)

    if tracer is not None:
        summary = tracer.summary()
        ph.span_metric(summary, "audio.mix_noise")
        ph.span_metric(summary, "adam.step")
        ph.span_metric(summary, "train.step", stat="p50_ms", metric="train.step_ms.p50")
        ph.span_metric(summary, "train.step", stat="p99_ms", metric="train.step_ms.p99")
        tag = f"b{BATCH}"
        for name in ("network.forward", "network.backward", "network.infer"):
            ph.span_metric(summary, name, tag)
        for layer in network.layers:
            for kind in ("fwd", "bwd", "infer"):
                ph.span_metric(summary, f"layers.{layer.name}.{kind}", tag)
        ph.coverage(summary)
        ph.layer(f"network.trace_mb.{tag}", tracer.counts[f"trace_bytes.{tag}"] / MIB, "MiB", 1)
        ph.layer("layers.conv1.bwd_dx_mb", tracer.counts["conv1_dx_bytes"] / MIB, "MiB", 1)
        windows = summary[("train.clip_window", "")]["calls"]
        reads = summary.get(("wav.read", ""), {"calls": 0})["calls"]
        ph.layer("train.clipstore_hit_ratio", 1.0 - reads / windows, "ratio", windows)
        ph.layer("checkpoint.save_ms", save_ms, "ms", 1)
        index_ms = ph.setup_parts["dataset.index_ms"]
        ph.layer("dataset.index_ms", np.median(index_ms), "ms", len(index_ms))


PHASES = {"recognize": run_recognize, "stream": run_stream, "train": run_train}


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--phase", choices=sorted(PHASES), required=True)
    parser.add_argument("--role", choices=("main", "probe"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True)
    args = parser.parse_args()
    ph = Phase(args)
    steps = None
    for line in sys.stdin:
        command = line.split()
        if command == ["prepare"]:
            steps = PHASES[args.phase](ph)
            next(steps)
            print("ready", flush=True)
        elif command[:1] == ["measure"] and steps is not None:
            steps.send(float(command[1]))
            print("done", flush=True)
        elif command == ["finish"] and steps is not None:
            try:
                steps.send(None)
            except StopIteration:
                pass
            if ph.tracer is not None:
                ph.write_trace()
            print(json.dumps(ph.result()), flush=True)
            return 0
        else:
            print(f"perfbench: unexpected command {line.strip()!r}", file=sys.stderr)
            return 2
    return 2  # stdin closed before finish


if __name__ == "__main__":
    sys.exit(main())
