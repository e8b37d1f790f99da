"""Checkpoint container: canonical layout, bitwise stability, and
header-before-payload validation."""

import json
import os
import struct
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voicehand import atomic
from voicehand.checkpoint import (
    FORMAT_VERSION,
    MAGIC,
    load_checkpoint,
    save_checkpoint,
)
from voicehand.errors import (
    BadMagic,
    CheckpointError,
    NegativeVariance,
    NonFinitePayload,
    SpecMismatch,
    TruncatedPayload,
    UnsupportedVersion,
)
from voicehand.network import build_network

from conftest import JSON_VALUES, HalfWriter, patch_payload

CANONICAL_TENSORS = [
    "conv1.weights", "conv1.biases",
    "bn1.gamma", "bn1.beta", "bn1.moving_mean", "bn1.moving_var",
    "conv2.weights", "conv2.biases",
    "bn2.gamma", "bn2.beta", "bn2.moving_mean", "bn2.moving_var",
    "dense1.weights", "dense1.biases",
    "dense2.weights", "dense2.biases",
]


def _scrambled_net(seed=31):
    net = build_network(seed=seed)
    rng = np.random.default_rng(seed)
    for _, tensor in net.state_tensors():
        tensor += rng.normal(size=tensor.shape).astype(tensor.dtype) * 0.01
    net.mark_mutated()
    return net


def test_round_trip_is_bitwise(tmp_path):
    net = _scrambled_net()
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, net, metadata={"epoch": 3, "val_acc": 0.5})
    fresh = build_network(seed=99)
    meta = load_checkpoint(path, fresh)
    assert meta == {"epoch": 3, "val_acc": 0.5}
    for (name, a), (_, b) in zip(net.state_tensors(), fresh.state_tensors()):
        np.testing.assert_array_equal(a, b, err_msg=name)
        assert a.tobytes() == b.tobytes(), name


def test_save_twice_is_byte_identical(tmp_path):
    net = _scrambled_net()
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(p1, net, metadata={"k": 1})
    save_checkpoint(p2, net, metadata={"k": 1})
    assert p1.read_bytes() == p2.read_bytes()


def test_file_layout_and_payload_size(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, build_network(seed=17))
    raw = path.read_bytes()
    assert raw[:4] == MAGIC == b"KWS1"
    version, header_len = struct.unpack_from("<II", raw, 4)
    assert version == FORMAT_VERSION == 1
    header = json.loads(raw[12 : 12 + header_len])
    assert [t["name"] for t in header["tensors"]] == CANONICAL_TENSORS
    assert header["dtype"] == "float32"
    assert header["input_shape"] == [129, 71, 1]
    assert len(header["class_names"]) == 9
    payload = raw[12 + header_len :]
    assert len(payload) == 4 * 22657
    assert path.stat().st_size == 12 + header_len + 4 * 22657


def test_load_returns_the_header_metadata(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, build_network(seed=17), metadata={"note": "x"})
    assert load_checkpoint(path, build_network(seed=3)) == {"note": "x"}


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, build_network(seed=17))
    raw = bytearray(path.read_bytes())
    raw[:4] = b"NOPE"
    path.write_bytes(bytes(raw))
    with pytest.raises(BadMagic):
        load_checkpoint(path, build_network(seed=17))


def test_future_version_rejected(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, build_network(seed=17))
    raw = bytearray(path.read_bytes())
    struct.pack_into("<I", raw, 4, 2)
    path.write_bytes(bytes(raw))
    with pytest.raises(UnsupportedVersion):
        load_checkpoint(path, build_network(seed=17))


def test_truncated_payload_rejected(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, build_network(seed=17))
    raw = path.read_bytes()
    path.write_bytes(raw[:-40])
    with pytest.raises(TruncatedPayload):
        load_checkpoint(path, build_network(seed=17))


def test_trailing_garbage_rejected(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, build_network(seed=17))
    path.write_bytes(path.read_bytes() + b"\x00" * 8)
    with pytest.raises(TruncatedPayload):
        load_checkpoint(path, build_network(seed=17))


def _tamper_header(path, mutate):
    raw = path.read_bytes()
    version, header_len = struct.unpack_from("<II", raw, 4)
    header = json.loads(raw[12 : 12 + header_len])
    mutate(header)
    new_header = json.dumps(header, sort_keys=True).encode()
    out = raw[:4] + struct.pack("<II", version, len(new_header)) + new_header
    out += raw[12 + header_len :]
    path.write_bytes(out)


def test_wrong_architecture_rejected(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, build_network(seed=17))

    def mutate(header):
        header["arch"][0]["filters"] = 16

    _tamper_header(path, mutate)
    with pytest.raises(SpecMismatch):
        load_checkpoint(path, build_network(seed=17))


def test_wrong_class_names_rejected(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, build_network(seed=17))
    _tamper_header(path, lambda h: h["class_names"].reverse())
    with pytest.raises(SpecMismatch):
        load_checkpoint(path, build_network(seed=17))


def test_header_validated_before_payload_is_read(tmp_path):
    # both defects present: the header complaint must win
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, build_network(seed=17))
    _tamper_header(path, lambda h: h["class_names"].reverse())
    raw = path.read_bytes()
    path.write_bytes(raw[:-40])
    with pytest.raises(SpecMismatch):
        load_checkpoint(path, build_network(seed=17))


@pytest.mark.parametrize("header", [b"[]", b'"x"', b"17", b"null"])
def test_header_that_is_not_an_object_rejected(tmp_path, header):
    path = tmp_path / "m.ckpt"
    path.write_bytes(MAGIC + struct.pack("<II", FORMAT_VERSION, len(header)) + header)
    with pytest.raises(SpecMismatch, match="not a JSON object"):
        load_checkpoint(path, build_network(seed=17))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("tensor", ["conv1.weights", "bn2.moving_var", "dense2.biases"])
def test_non_finite_payload_rejected_and_network_untouched(tmp_path, bad, tensor):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, build_network(seed=17))
    patch_payload(path, tensor, -1, bad)
    net = _scrambled_net()
    before = [a.copy() for _, a in net.state_tensors()]
    with pytest.raises(NonFinitePayload):
        load_checkpoint(path, net)
    for (name, a), b in zip(net.state_tensors(), before):
        np.testing.assert_array_equal(a, b, err_msg=name)


@pytest.mark.parametrize("tensor", ["bn1.moving_var", "bn2.moving_var"])
def test_negative_moving_variance_rejected_and_network_untouched(tmp_path, tensor):
    # a negative variance loads as NaN outputs; training's running average is never below 0
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, build_network(seed=17))
    patch_payload(path, tensor, 0, -1.0)
    net = _scrambled_net()
    before = [a.copy() for _, a in net.state_tensors()]
    with pytest.raises(NegativeVariance, match=tensor):
        load_checkpoint(path, net)
    for (name, a), b in zip(net.state_tensors(), before):
        np.testing.assert_array_equal(a, b, err_msg=name)


def test_load_does_not_touch_network_on_header_error(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, _scrambled_net())
    _tamper_header(path, lambda h: h["class_names"].reverse())
    net = build_network(seed=17)
    before = [a.copy() for _, a in net.state_tensors()]
    with pytest.raises(SpecMismatch):
        load_checkpoint(path, net)
    for (name, a), b in zip(net.state_tensors(), before):
        np.testing.assert_array_equal(a, b, err_msg=name)


def test_load_bumps_version_so_old_traces_go_stale(tmp_path):
    from voicehand.errors import StaleTrace
    from voicehand.network import INPUT_SHAPE
    from voicehand.rng import substream
    from voicehand.train import one_hot

    path = tmp_path / "m.ckpt"
    save_checkpoint(path, _scrambled_net())
    net = build_network(seed=17)
    _, trace = net.forward(np.zeros((1,) + INPUT_SHAPE), mode="train",
                           dropout_rng=substream(0, "dropout", 0, 0))
    load_checkpoint(path, net)
    with pytest.raises(StaleTrace):
        net.backward(trace, one_hot([0]))


def test_load_into_float64_network_casts(tmp_path):
    path = tmp_path / "m.ckpt"
    source = _scrambled_net()
    save_checkpoint(path, source)
    wide = build_network(seed=1, dtype=np.float64)
    load_checkpoint(path, wide)
    assert wide["conv1"].weights.dtype == np.float64
    np.testing.assert_allclose(wide["conv1"].weights, source["conv1"].weights.astype(np.float64))


def test_failed_write_keeps_previous_file_and_leaves_no_temp(tmp_path, monkeypatch):
    path = tmp_path / "best.ckpt"
    save_checkpoint(path, build_network(seed=17), metadata={"epoch": 0})
    before = path.read_bytes()
    assert [p.name for p in tmp_path.iterdir()] == ["best.ckpt"]

    monkeypatch.setattr(atomic, "open", lambda *a, **k: HalfWriter(open(*a, **k)),
                        raising=False)
    with pytest.raises(OSError, match="No space"):
        save_checkpoint(path, _scrambled_net(), metadata={"epoch": 1})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["best.ckpt"]


@pytest.mark.parametrize("tensor, value, error", [
    ("conv1.weights", np.nan, NonFinitePayload),
    ("dense2.biases", -np.inf, NonFinitePayload),
    ("bn1.moving_var", -1.0, NegativeVariance),
    ("bn2.moving_var", -1e-30, NegativeVariance),
])
def test_save_refuses_what_load_refuses_and_keeps_the_earlier_file(tmp_path, tensor, value,
                                                                   error):
    path = tmp_path / "final.ckpt"
    save_checkpoint(path, build_network(seed=17), metadata={"epoch": 0})
    before = path.read_bytes()
    net = _scrambled_net()
    dict(net.state_tensors())[tensor].flat[0] = value
    with pytest.raises(error):
        save_checkpoint(path, net, metadata={"epoch": 1})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["final.ckpt"]


@pytest.mark.filterwarnings("error")  # the float32 cast's overflow is no warning either
def test_save_checks_the_float32_values_it_would_write(tmp_path):
    # 1e39 is finite in a float64 network and infinite once written as float32
    wide = build_network(seed=17, dtype=np.float64)
    wide["dense1"].weights[0, 0] = 1e39
    with pytest.raises(NonFinitePayload):
        save_checkpoint(tmp_path / "m.ckpt", wide)
    assert list(tmp_path.iterdir()) == []
    wide["dense1"].weights[0, 0] = 3e38  # inside float32's range
    save_checkpoint(tmp_path / "m.ckpt", wide)
    load_checkpoint(tmp_path / "m.ckpt", build_network(seed=3))


def test_metadata_must_be_strict_json(tmp_path):
    path = tmp_path / "m.ckpt"
    with pytest.raises(ValueError):
        save_checkpoint(path, build_network(seed=17), metadata={"val_acc": float("nan")})
    assert list(tmp_path.iterdir()) == []


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_checkpoint_loads_from_a_pipe_read_once(tmp_path):
    # a named pipe (or a shell's <(...)) can be read once: a second open
    # would see another writer's bytes, here an empty file
    source = _scrambled_net()
    save_checkpoint(tmp_path / "m.ckpt", source)
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)

    def feed():
        for data in ((tmp_path / "m.ckpt").read_bytes(), b""):
            try:
                with open(pipe, "wb") as f:
                    f.write(data)
            except BrokenPipeError:
                pass

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    net = build_network(seed=99)
    try:
        load_checkpoint(pipe, net)
    finally:
        for _ in range(100):  # let a writer still waiting for a reader finish
            if not writer.is_alive():
                break
            os.close(os.open(pipe, os.O_RDONLY | os.O_NONBLOCK))
            writer.join(0.05)
    assert not writer.is_alive()
    for (name, a), (_, b) in zip(source.state_tensors(), net.state_tensors()):
        assert a.tobytes() == b.tobytes(), name


# ---------------------------------------------------------------- fuzzed bytes


@pytest.fixture(scope="module")
def fuzz_target(tmp_path_factory):
    """(path to overwrite, valid checkpoint bytes, network, its tensor bytes)."""
    path = tmp_path_factory.mktemp("fuzz") / "m.ckpt"
    save_checkpoint(path, _scrambled_net(), metadata={"epoch": 3})
    net = build_network(seed=99)
    return path, path.read_bytes(), net, [a.tobytes() for _, a in net.state_tensors()]


@st.composite
def mutated(draw, data):
    """`data`, a valid checkpoint, with one kind of damage: bytes
    overwritten (half of them in the prefix and header), the end cut,
    bytes appended, one header field (or a field of one arch or tensor
    entry) rewritten, or one payload float replaced (NaN and infinity
    among the values)."""
    end = 12 + struct.unpack_from("<I", data, 8)[0]
    kind = draw(st.sampled_from(["flip", "truncate", "append", "field", "float"]))
    if kind == "flip":
        out = bytearray(data)
        at = st.integers(0, end - 1) | st.integers(0, len(data) - 1)
        for i, value in draw(st.lists(st.tuples(at, st.integers(0, 255)), min_size=1, max_size=4)):
            out[i] = value
        return bytes(out)
    if kind == "truncate":
        return data[: draw(st.integers(0, len(data) - 1))]
    if kind == "append":
        return data + draw(st.binary(min_size=1, max_size=16))
    if kind == "float":
        at = end + 4 * draw(st.integers(0, (len(data) - end) // 4 - 1))
        return data[:at] + struct.pack("<f", draw(st.floats(width=32))) + data[at + 4 :]
    header = json.loads(data[12:end])
    target = header
    key = draw(st.sampled_from(sorted(header)))
    if key in ("arch", "tensors") and draw(st.booleans()):
        target = draw(st.sampled_from(header[key]))
        key = draw(st.sampled_from(sorted(target)))
    target[key] = draw(JSON_VALUES)
    raw = json.dumps(header).encode()
    return MAGIC + struct.pack("<II", FORMAT_VERSION, len(raw)) + raw + data[end:]


@settings(max_examples=200, deadline=None)
@given(draw=st.data())
def test_damaged_checkpoint_is_an_error_or_finite_weights(fuzz_target, draw):
    """A file that loads holds finite values and moving variances of at
    least 0; any other file is refused and leaves the network as it was."""
    path, valid, net, before = fuzz_target
    for (_, a), b in zip(net.state_tensors(), before):
        a[...] = np.frombuffer(b, dtype=a.dtype).reshape(a.shape)
    path.write_bytes(draw.draw(mutated(valid)))
    try:
        load_checkpoint(path, net)
    except CheckpointError:
        for (name, a), b in zip(net.state_tensors(), before):
            assert a.tobytes() == b, name
        return
    for name, a in net.state_tensors():
        assert np.isfinite(a).all(), name
        if name.endswith(".moving_var"):
            assert (a >= 0).all(), name
