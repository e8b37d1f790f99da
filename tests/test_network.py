"""Full-stack wiring: shapes, parameter counts, determinism, and the
trace/mutation discipline."""

import hashlib
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import voicehand.network

from voicehand.errors import CheckpointError, VoicehandError
from voicehand.network import (
    INPUT_SHAPE,
    Network,
    build_network,
    count_params,
    layer_table,
    output_shapes,
)
from voicehand.rng import substream
from voicehand.train import one_hot

from conftest import (REFERENCE_LAYER_PARAMS, REFERENCE_NON_TRAINABLE, REFERENCE_TRAINABLE,
                      assert_same_grad_bits)


def test_declared_shape_progression():
    shapes = output_shapes()
    assert shapes == [
        (120, 65, 8),
        (17, 13, 8),
        (17, 13, 8),
        (11, 9, 32),
        (2, 3, 32),
        (2, 3, 32),
        (192,),
        (64,),
        (64,),
        (9,),
    ]


def test_parameter_counts_are_exact():
    net = build_network(seed=17)
    trainable, non_trainable, per_layer = count_params(net)
    assert trainable == REFERENCE_TRAINABLE == 22577
    assert non_trainable == REFERENCE_NON_TRAINABLE == 80
    assert tuple(per_layer) == REFERENCE_LAYER_PARAMS == (
        568, 0, 32, 8992, 0, 128, 0, 12352, 0, 585)
    assert trainable + non_trainable == 22657


def test_parameter_count_definition_cross_check():
    # recount from the live arrays, independently of count_params
    net = build_network(seed=17)
    assert sum(a.size for a in net.parameters().values()) == 22577
    assert sum(a.size for _, a in net.state_tensors()) == 22657


def test_layer_table_matches_shape_trace():
    net = build_network(seed=17)
    rows = layer_table(net)
    assert rows[0][1].startswith("input")
    assert "129x71x1" in rows[0][4]
    assert [r[5] for r in rows[1:]] == list(REFERENCE_LAYER_PARAMS)
    assert "9" in rows[-1][4]


def test_forward_probabilities_well_formed():
    net = build_network(seed=17)
    x = np.random.default_rng(0).normal(size=(3,) + INPUT_SHAPE)
    probs, trace = net.forward(x, mode="infer")
    assert trace is None
    assert probs.shape == (3, 9)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-6)
    assert np.all(probs >= 0)


def test_zero_input_gives_uniform_probabilities():
    net = build_network(seed=17)
    probs, _ = net.forward(np.zeros((2,) + INPUT_SHAPE))
    np.testing.assert_allclose(probs, 1.0 / 9.0, atol=1e-7)
    assert np.all(probs == probs[0, 0])  # identical logits, identical probs


def test_infer_forward_refuses_output_that_is_not_finite():
    net = build_network(seed=17)
    net["conv1"].weights[...] = 3e38
    x = np.random.default_rng(0).normal(size=(2,) + INPUT_SHAPE)
    with np.errstate(over="ignore", invalid="ignore"):
        # training steps are not checked
        probs, trace = net.forward(x, mode="train", dropout_rng=np.random.default_rng(0))
        assert trace is not None and not np.isfinite(probs).all()
        with pytest.raises(CheckpointError, match="dense2 output is not finite"):
            net.forward(x, mode="infer")


def test_same_seed_same_network():
    a = build_network(seed=123)
    b = build_network(seed=123)
    c = build_network(seed=124)
    for (name, pa), (_, pb) in zip(a.state_tensors(), b.state_tensors()):
        np.testing.assert_array_equal(pa, pb, err_msg=name)
    assert any(
        not np.array_equal(pa, pc)
        for (_, pa), (_, pc) in zip(a.state_tensors(), c.state_tensors())
    )


# sha256 over (name, tensor bytes) of every state tensor: pins the Glorot
# draw order, the fan-ins and the dtype handling of build_network
BUILD_DIGESTS = {
    (0, "float32"): "442a0433aa10a911e5fd15d24ded4ef96d0601bbae719f39d553ba4f4578dc17",
    (0, "float64"): "c0f2391cafb89a374bfb4e3c08e483ab9cc3fb67ee96ee319f887d764896b187",
    (17, "float32"): "e28bcca0dc5f4adda6efe66dfcee1ec640ac2bebddc3b971526066783747b053",
    (17, "float64"): "30ea257efaef583fd110ddfc44fed8d1f4cf244746fcf2fb4676b726887ddef5",
}


@pytest.mark.parametrize("seed, dtype", sorted(BUILD_DIGESTS))
def test_built_tensors_are_bit_identical_to_pinned_digest(seed, dtype):
    digest = hashlib.sha256()
    for name, tensor in build_network(seed=seed, dtype=dtype).state_tensors():
        digest.update(name.encode())
        digest.update(tensor.tobytes())
    assert digest.hexdigest() == BUILD_DIGESTS[(seed, dtype)]


def test_build_network_follows_arch(monkeypatch):
    arch = [dict(spec) for spec in voicehand.network.ARCH]
    arch[3]["filters"] = arch[5]["channels"] = 16
    arch[7]["units"] = 32
    monkeypatch.setattr(voicehand.network, "ARCH", tuple(arch))
    net = build_network(seed=17)
    assert net["conv2"].weights.shape == (7, 5, 8, 16)
    assert net["bn2"].gamma.shape == (16,)
    assert net["dense1"].weights.shape == (96, 32)
    assert net["dense2"].weights.shape == (32, 9)
    probs, _ = net.forward(np.zeros((1,) + INPUT_SHAPE))
    assert probs.shape == (1, 9)
    rows = layer_table(net)
    assert rows[4] == (4, "conv", "16 @ 7x5", "relu", "11x9x16", 4496)
    assert rows[7] == (7, "flatten", "-", "-", "96", 0)
    assert rows[8] == (8, "dense", "32 units", "relu", "32", 3104)


def test_init_statistics_follow_fan_based_limits():
    net = build_network(seed=17)
    w1 = net["conv1"].weights
    limit1 = np.sqrt(6.0 / (10 * 7 * 1 + 10 * 7 * 8))
    assert np.abs(w1).max() <= limit1
    assert np.abs(w1).max() > 0.8 * limit1  # actually fills the range
    assert np.all(net["conv1"].biases == 0.0)
    assert np.all(net["bn1"].gamma == 1.0)
    assert np.all(net["bn1"].moving_var == 1.0)
    w2 = net["dense2"].weights
    limit2 = np.sqrt(6.0 / (64 + 9))
    assert np.abs(w2).max() <= limit2


def test_backward_produces_every_trainable_gradient():
    net = build_network(seed=17, dtype=np.float64)
    rng = np.random.default_rng(1)
    x = rng.normal(size=(2,) + INPUT_SHAPE)
    probs, trace = net.forward(x, mode="train", dropout_rng=substream(0, "dropout", 0, 0))
    grads = net.backward(trace, one_hot([0, 3]))
    assert set(grads) == set(net.parameters())
    for name, g in grads.items():
        assert g.shape == net.parameters()[name].shape, name
        assert np.all(np.isfinite(g)), name


def test_stale_trace_refused_after_mutation():
    net = build_network(seed=17)
    x = np.zeros((2,) + INPUT_SHAPE)
    _, trace = net.forward(x, mode="train", dropout_rng=substream(0, "dropout", 0, 0))
    net.mark_mutated()
    with pytest.raises(VoicehandError, match="parameters changed since this trace was recorded"):
        net.backward(trace, one_hot([0, 1]))


def test_target_shape_mismatch_refused():
    net = build_network(seed=17)
    _, trace = net.forward(np.zeros((2,) + INPUT_SHAPE), mode="train",
                           dropout_rng=substream(0, "dropout", 0, 0))
    with pytest.raises(VoicehandError, match=r"targets \(3, 9\) vs probs \(2, 9\)"):
        net.backward(trace, one_hot([0, 1, 2]))


def test_constant_logit_shift_leaves_probabilities_unchanged():
    net = build_network(seed=17)
    x = np.random.default_rng(2).normal(size=(2,) + INPUT_SHAPE).astype(np.float32)
    before, _ = net.forward(x)
    net["dense2"].biases += 100.0  # shifts every logit equally
    net.mark_mutated()
    after, _ = net.forward(x)
    np.testing.assert_allclose(after, before, atol=1e-6)
    np.testing.assert_array_equal(np.argmax(after, axis=1), np.argmax(before, axis=1))


def test_class_names_and_lookup():
    net = build_network(seed=17)
    assert net["dense1"].weights.shape == (192, 64)
    with pytest.raises(KeyError):
        net["nonexistent"]


def test_dropout_layer_carries_requested_rate():
    assert build_network(seed=17)["dropout"].rate == 0.5


def test_custom_network_composes():
    # the stack is generic: a dense-only classifier works end to end
    from voicehand.layers import Dense

    rng = np.random.default_rng(3)
    net = Network(
        [
            Dense("d1", rng.normal(size=(6, 5)), np.zeros(5), activation="relu"),
            Dense("d2", rng.normal(size=(5, 3)), np.zeros(3), activation="softmax"),
        ],
        dtype=np.float64,
    )
    x = rng.normal(size=(4, 6))
    probs, trace = net.forward(x, mode="train")
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=1e-12)
    grads = net.backward(trace, one_hot([0, 1, 2, 0], n_classes=3))
    assert set(grads) == {"d1.weights", "d1.biases", "d2.weights", "d2.biases"}


def _full_backward_reference(net, trace, targets):
    """Every layer's full backward, the first layer's input gradient
    included, with no version or shape checks."""
    d = (trace.probs - np.asarray(targets, dtype=net.dtype)) / trace.probs.shape[0]
    grads = {}
    for layer, cache in zip(net.layers[::-1], trace.caches[::-1]):
        d, layer_grads = layer.backward(d, cache)
        grads.update(layer_grads)
    return d, grads


def _assert_backward_matches_reference(net, x, labels):
    probs, trace = net.forward(x, mode="train", dropout_rng=substream(4, "dropout", 0, 0))
    targets = one_hot(labels, n_classes=probs.shape[1], dtype=net.dtype)
    grads = net.backward(trace, targets)
    d_x, want = _full_backward_reference(net, trace, targets)
    assert d_x.shape == x.shape  # the input gradient Network.backward skips
    assert_same_grad_bits(grads, want)
    assert all(g.dtype == net.dtype for g in grads.values())


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_backward_skipping_input_grad_keeps_every_gradient_bit(dtype):
    net = build_network(seed=4, dtype=dtype)
    x = np.random.default_rng(4).normal(size=(3,) + INPUT_SHAPE)
    _assert_backward_matches_reference(net, x, [0, 4, 8])


def test_dense_only_backward_skipping_input_grad_keeps_every_gradient_bit():
    from voicehand.layers import Dense

    rng = np.random.default_rng(5)
    net = Network(
        [
            Dense("d1", rng.normal(size=(6, 5)), rng.normal(size=5), activation="relu"),
            Dense("d2", rng.normal(size=(5, 3)), np.zeros(3), activation="softmax"),
        ],
        dtype=np.float64,
    )
    _assert_backward_matches_reference(net, rng.normal(size=(4, 6)), [0, 1, 2, 0])


# Conv weight gradients are summed over fixed chunks of gathered patch
# rows (see `layers.Conv2D`), so OpenBLAS's thread count cannot change
# their bits; one gemm over every patch row of the batch gave different
# bits at 1 and 2 threads. The bias gradients sum the pool winners'
# masked gradient. Batch 64 is training's default.
GRAD_BITS_SCRIPT = """
import hashlib
import numpy as np
from voicehand.network import INPUT_SHAPE, build_network
from voicehand.train import one_hot

for dtype, sizes in ((np.float32, (3, 5, 16, 64)), (np.float64, (3, 5, 16))):
    for n in sizes:
        net = build_network(seed=31, dtype=dtype)
        rng = np.random.default_rng(n)
        x = rng.normal(size=(n,) + INPUT_SHAPE)
        _, trace = net.forward(x, "train", dropout_rng=rng)
        grads = net.backward(trace, one_hot(rng.integers(9, size=n), dtype=dtype))
        for name in ("conv1.weights", "conv1.biases", "conv2.weights", "conv2.biases"):
            digest = hashlib.sha256(grads[name].tobytes()).hexdigest()
            print(np.dtype(dtype).name, n, name, digest)
"""


def test_conv_weight_gradients_do_not_depend_on_the_blas_thread_count():
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", GRAD_BITS_SCRIPT], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert len(outputs[0].splitlines()) == 28
    assert outputs[0] == outputs[1]


# sha256 of infer-mode probabilities at batch 1, 3 and 64, then of every
# (offset, probabilities) pair `window_probs` yields at the 70 ms (cached)
# and 500 ms (per-window) hops, for a fresh network with scrambled
# batch-norm statistics. It is also the digest of the same script with
# every 70 ms window run through `classify_window` in full, as the stream
# cache gives the uncached bits, so it pins the infer path to the bit.
# One BLAS thread, in a process of its own.
INFER_DIGEST = "882d2c59909638bace5729578efffb55c47bd4d73a2d974bd46f4b24818727d7"

INFER_SCRIPT = """
import hashlib
import numpy as np
from voicehand.commands import StreamConfig, window_probs
from voicehand.network import INPUT_SHAPE, build_network
from voicehand.rng import substream
from voicehand.synth import tone_samples

net = build_network(seed=29)
rng = substream(29, "infer-digest")
for layer in (net["bn1"], net["bn2"]):
    layer.gamma[...] = rng.uniform(0.5, 1.5, layer.gamma.shape)
    layer.beta[...] = rng.normal(0.0, 0.2, layer.beta.shape)
    layer.moving_mean[...] = rng.normal(0.0, 0.5, layer.moving_mean.shape)
    layer.moving_var[...] = rng.uniform(0.5, 2.0, layer.moving_var.shape)
digest = hashlib.sha256()
for n in (1, 3, 64):
    x = rng.normal(size=(n,) + INPUT_SHAPE)
    digest.update(net.forward(x, "infer")[0].tobytes())
noise = rng.normal(0.0, 2000.0, 24000)
samples = np.concatenate([noise, tone_samples(1500.0, 0.5, 1.0), noise]).astype(np.int16)
for hop_ms in (70, 500):
    for offset, probs in window_probs(net, samples, StreamConfig(hop_ms=hop_ms)):
        digest.update(offset.to_bytes(8, "little"))
        digest.update(probs.tobytes())
print(digest.hexdigest())
"""


def test_infer_probabilities_are_bit_identical_to_pinned_digest():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", INFER_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == INFER_DIGEST


def test_infer_forward_keeps_no_batch_sized_patch_matrix():
    # conv1's batch-16 patch matrix alone is 35 MiB of float32; infer mode
    # lowers one clip at a time and peaks near 6 MiB
    net = build_network(seed=3)
    x = np.random.default_rng(3).normal(size=(16,) + INPUT_SHAPE).astype(np.float32)
    net.forward(x[:1], "infer")
    tracemalloc.start()
    try:
        net.forward(x, "infer")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_train_step_keeps_no_patch_matrix():
    # conv1's batch-16 patch matrix alone is 35 MiB of float32; train mode
    # caches conv1's input and ReLU mask, and backward gathers the pool
    # winners' patches in chunks of CHUNK_ROWS rows
    net = build_network(seed=3)
    rng = np.random.default_rng(3)
    x = rng.normal(size=(16,) + INPUT_SHAPE).astype(np.float32)
    targets = one_hot(rng.integers(9, size=16), dtype=np.float32)
    net.backward(net.forward(x[:1], "train", dropout_rng=rng)[1], targets[:1])
    tracemalloc.start()
    try:
        _, trace = net.forward(x, "train", dropout_rng=rng)
        alive = tracemalloc.get_traced_memory()[0]
        net.backward(trace, targets)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert alive < 4 * 2**20
    assert peak < 20 * 2**20


def test_backward_allocates_less_than_one_conv1_output():
    # pool1 hands conv1 its winners, not a gradient shaped like conv1's
    # output, and conv1 gathers only the winners' patches
    net = build_network(seed=3)
    rng = np.random.default_rng(3)
    x = rng.normal(size=(16,) + INPUT_SHAPE).astype(np.float32)
    targets = one_hot(rng.integers(9, size=16), dtype=np.float32)
    net.backward(net.forward(x[:1], "train", dropout_rng=rng)[1], targets[:1])
    _, trace = net.forward(x, "train", dropout_rng=rng)
    tracemalloc.start()
    try:
        net.backward(trace, targets)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 120 * 65 * 8 * 4
