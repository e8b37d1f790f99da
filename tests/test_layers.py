"""Layer forward passes against nested-loop oracles; backward passes
against central finite differences on a scalar probe loss sum(y * R)."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from voicehand.errors import CheckpointError, VoicehandError
from voicehand.layers import (CHUNK_ROWS, POOL_CHUNK, ROW_BLOCK, BatchNorm, Conv2D, Dense, Dropout,
                              Flatten, MaxPool2D, Routed, relu_grad, softmax)

from conftest import assert_same_grad_bits


def conv_relu_oracle(x, w, b):
    """Valid cross-correlation + bias + ReLU, written as bare loops."""
    n, h, width, cin = x.shape
    fh, fw, _, cout = w.shape
    oh, ow = h - fh + 1, width - fw + 1
    out = np.zeros((n, oh, ow, cout))
    for ni in range(n):
        for i in range(oh):
            for j in range(ow):
                for co in range(cout):
                    acc = b[co]
                    for a in range(fh):
                        for bb in range(fw):
                            for ci in range(cin):
                                acc += x[ni, i + a, j + bb, ci] * w[a, bb, ci, co]
                    out[ni, i, j, co] = acc
    return np.maximum(out, 0.0)


def pool_oracle(x, ph, pw):
    n, h, w, c = x.shape
    oh, ow = h // ph, w // pw
    out = np.zeros((n, oh, ow, c))
    for ni in range(n):
        for i in range(oh):
            for j in range(ow):
                for ci in range(c):
                    out[ni, i, j, ci] = x[ni, i * ph : (i + 1) * ph, j * pw : (j + 1) * pw, ci].max()
    return out


def bn_train_oracle(x, gamma, beta, epsilon):
    c = x.shape[-1]
    flat = x.reshape(-1, c)
    mean = flat.sum(axis=0) / flat.shape[0]
    var = ((flat - mean) ** 2).sum(axis=0) / flat.shape[0]  # biased
    return gamma * (x - mean) / np.sqrt(var + epsilon) + beta, mean, var


def fd_grads(loss_fn, arrays, h=1e-6):
    """Central differences of loss_fn() with respect to each array, probed
    element by element through the live array."""
    out = {}
    for name, arr in arrays.items():
        g = np.zeros_like(arr, dtype=np.float64)
        for i in range(arr.size):
            orig = arr.flat[i]
            arr.flat[i] = orig + h
            lp = loss_fn()
            arr.flat[i] = orig - h
            lm = loss_fn()
            arr.flat[i] = orig
            g.flat[i] = (lp - lm) / (2.0 * h)
        out[name] = g
    return out


def assert_close(a, b, tol=1e-7):
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-4)
    assert np.max(np.abs(a - b) / denom) < tol


# ---------------------------------------------------------------- conv


def _small_conv():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(2, 5, 6, 3))
    w = rng.normal(size=(3, 2, 3, 4)) * 0.5
    b = rng.normal(size=4) * 0.5
    return x, Conv2D("c", w, b)


def test_conv_forward_matches_loop_oracle():
    x, layer = _small_conv()
    y, _ = layer.forward(x)
    np.testing.assert_allclose(y, conv_relu_oracle(x, layer.weights, layer.biases),
                               rtol=1e-12, atol=1e-12)


def test_conv_backward_matches_finite_differences():
    x, layer = _small_conv()
    rng = np.random.default_rng(9)
    y, cache = layer.forward(x, "train")
    probe = rng.normal(size=y.shape)
    d_x, grads = layer.backward(probe, cache)

    def loss():
        return float(np.sum(layer.forward(x)[0] * probe))

    numeric = fd_grads(loss, {"w": layer.weights, "b": layer.biases, "x": x})
    assert_close(grads["c.weights"], numeric["w"], 1e-6)
    assert_close(grads["c.biases"], numeric["b"], 1e-6)
    assert_close(d_x, numeric["x"], 1e-6)


def test_conv_relu_mask_zeroes_inactive_gradient():
    x = np.full((1, 3, 3, 1), -5.0)  # every pre-activation negative
    layer = Conv2D("c", np.ones((2, 2, 1, 1)), np.zeros(1))
    y, cache = layer.forward(x, "train")
    assert np.all(y == 0.0)
    d_x, grads = layer.backward(np.ones_like(y), cache)
    assert np.all(d_x == 0.0)
    assert np.all(grads["c.weights"] == 0.0)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_relu_grad_is_where_bit_for_bit(dtype):
    # every special value, in a masked and an unmasked position, in both orders
    special = np.array([np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 1.5, -2.5,
                        np.finfo(dtype).tiny / 2, -np.finfo(dtype).max], dtype=dtype)
    d_out = np.concatenate([special, special])
    active = np.arange(d_out.size) < special.size
    d_out = np.concatenate([d_out, d_out[::-1]])
    active = np.concatenate([active, ~active])
    want = np.where(active, d_out, 0.0)
    assert_same_bits(relu_grad(d_out, active), want)
    # and on a strided (n, h, w, c) view, as a layer's gradient can be
    rng = np.random.default_rng(8)
    d_out = rng.choice(special, size=(3, 5, 4, 6))[:, ::2]
    active = rng.random(size=d_out.shape) < 0.5
    assert_same_bits(relu_grad(d_out, active), np.where(active, d_out, 0.0))


def test_conv_rejects_undersized_input():
    _, layer = _small_conv()
    with pytest.raises(VoicehandError, match="c: input 2x2 smaller than filter 3x2"):
        layer.forward(np.zeros((1, 2, 2, 3)))
    with pytest.raises(VoicehandError, match=r"c: expected \(n, h, w, 3\), got \(1, 5, 6, 2\)"):
        layer.forward(np.zeros((1, 5, 6, 2)))


# ---------------------------------------------------------------- pool


def test_pool_forward_matches_loop_oracle():
    rng = np.random.default_rng(10)
    x = rng.normal(size=(2, 11, 9, 5))
    layer = MaxPool2D("p", 5, 3)
    y, _ = layer.forward(x)
    assert y.shape == (2, 2, 3, 5)
    np.testing.assert_array_equal(y, pool_oracle(x, 5, 3))


def test_pool_floor_semantics_drop_trailing_rows():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(1, 5, 4, 2))
    layer = MaxPool2D("p", 2, 2)
    y, _ = layer.forward(x)
    assert y.shape == (1, 2, 2, 2)
    x2 = x.copy()
    x2[0, 4, :, :] = 1e9  # cropped row must never reach the output
    y2, _ = layer.forward(x2)
    np.testing.assert_array_equal(y, y2)


def test_pool_backward_routes_to_argmax_and_conserves_mass():
    rng = np.random.default_rng(12)
    x = rng.normal(size=(2, 6, 6, 3))
    layer = MaxPool2D("p", 2, 3)
    y, cache = layer.forward(x, "train")
    d_out = rng.normal(size=y.shape)
    routed, grads = layer.backward(d_out, cache)
    d_x = routed.dense()
    assert grads == {}
    assert np.isclose(d_x.sum(), d_out.sum())  # ties absent: mass conserved
    # each tile has exactly one nonzero gradient cell, at the tile max
    for ni in range(2):
        for i in range(3):
            for j in range(2):
                for ci in range(3):
                    tile = x[ni, 2 * i : 2 * i + 2, 3 * j : 3 * j + 3, ci]
                    dtile = d_x[ni, 2 * i : 2 * i + 2, 3 * j : 3 * j + 3, ci]
                    assert np.count_nonzero(dtile) == 1
                    assert dtile.flat[np.argmax(tile)] == d_out[ni, i, j, ci]


def test_pool_tie_goes_to_first_in_row_major_order():
    x = np.zeros((1, 2, 2, 1))
    x[0, 0, 1, 0] = 7.0  # flat position 1 within the tile
    x[0, 1, 0, 0] = 7.0  # flat position 2
    layer = MaxPool2D("p", 2, 2)
    y, cache = layer.forward(x, "train")
    assert y[0, 0, 0, 0] == 7.0
    d_x = layer.backward(np.ones_like(y), cache)[0].dense()
    assert d_x[0, 0, 1, 0] == 1.0
    assert d_x[0, 1, 0, 0] == 0.0


def test_pool_backward_gradient_matches_finite_differences():
    rng = np.random.default_rng(13)
    x = rng.normal(size=(1, 4, 4, 2))
    layer = MaxPool2D("p", 2, 2)
    y, cache = layer.forward(x, "train")
    probe = rng.normal(size=y.shape)
    d_x = layer.backward(probe, cache)[0].dense()

    def loss():
        return float(np.sum(layer.forward(x)[0] * probe))

    numeric = fd_grads(loss, {"x": x})
    assert_close(d_x, numeric["x"], 1e-6)


def test_pool_network_scale_shapes():
    # the two shapes the full network depends on
    a, _ = MaxPool2D("p1", 7, 5).forward(np.zeros((1, 120, 65, 8)))
    assert a.shape == (1, 17, 13, 8)
    b, _ = MaxPool2D("p2", 5, 3).forward(np.zeros((1, 11, 9, 32)))
    assert b.shape == (1, 2, 3, 32)


def test_conv_then_pool_backward_matches_finite_differences():
    # the conv reads its ReLU mask and patches at the pool's winners only;
    # the conv output's last row and column lie outside every pool tile,
    # and the first tile of channel 0 is all ReLU zeros, so its tie goes
    # to the first position, whose mask is off, and sends no gradient
    rng = np.random.default_rng(26)
    x = rng.normal(size=(2, 9, 12, 2))
    x[:, :4, :4, :] = -3.0 - np.abs(x[:, :4, :4, :])
    w = rng.normal(size=(3, 2, 2, 3)) * 0.5
    w[..., 0] = np.abs(w[..., 0])
    conv = Conv2D("c", w, rng.normal(size=3) * 0.5)
    pool = MaxPool2D("p", 3, 2)
    z, conv_cache = conv.forward(x, "train")
    assert z.shape == (2, 7, 11, 3)  # 2x5 tiles of 3x2, a row and a column cropped
    assert np.all(z[:, :3, :2, 0] == 0.0)
    y, pool_cache = pool.forward(z, "train")
    probe = rng.normal(size=y.shape)
    routed, _ = pool.backward(probe, pool_cache)
    d_x, grads = conv.backward(routed, conv_cache)

    def loss():
        return float(np.sum(pool.forward(conv.forward(x)[0])[0] * probe))

    numeric = fd_grads(loss, {"w": conv.weights, "b": conv.biases, "x": x})
    assert_close(grads["c.weights"], numeric["w"], 1e-5)
    assert_close(grads["c.biases"], numeric["b"], 1e-5)
    assert_close(d_x, numeric["x"], 1e-5)
    # the input's last row and column feed only the cropped conv row and column
    assert np.all(d_x[:, -1] == 0.0) and np.all(d_x[:, :, -1] == 0.0)


# ---------------------------------------------------------------- batch norm


def _bn(channels=4, dtype=np.float64):
    return BatchNorm("b", channels, dtype=dtype)


def test_bn_train_matches_moment_oracle():
    rng = np.random.default_rng(14)
    x = rng.normal(loc=3.0, scale=2.0, size=(4, 3, 2, 4))
    layer = _bn()
    layer.gamma[...] = rng.uniform(0.5, 2.0, 4)
    layer.beta[...] = rng.normal(size=4)
    y, _ = layer.forward(x, "train")
    want, mean, var = bn_train_oracle(x, layer.gamma, layer.beta, layer.epsilon)
    np.testing.assert_allclose(y, want, rtol=1e-12)
    np.testing.assert_allclose(layer.moving_mean, 0.99 * 0.0 + 0.01 * mean, rtol=1e-12)
    np.testing.assert_allclose(layer.moving_var, 0.99 * 1.0 + 0.01 * var, rtol=1e-12)


def test_bn_train_output_is_standardized():
    rng = np.random.default_rng(15)
    x = rng.normal(loc=-2.0, scale=5.0, size=(8, 6, 4))
    layer = _bn(4)
    y, _ = layer.forward(x, "train")
    flat = y.reshape(-1, 4)
    np.testing.assert_allclose(flat.mean(axis=0), 0.0, atol=1e-12)
    # output variance is exactly var/(var + epsilon), slightly below 1
    var = x.reshape(-1, 4).var(axis=0)
    np.testing.assert_allclose(flat.var(axis=0), var / (var + 1e-3), rtol=1e-10)


def test_bn_infer_uses_moving_stats_and_never_mutates():
    rng = np.random.default_rng(16)
    layer = _bn(3)
    layer.moving_mean[...] = [1.0, -2.0, 0.5]
    layer.moving_var[...] = [4.0, 1.0, 9.0]
    before = (layer.moving_mean.copy(), layer.moving_var.copy())
    x = rng.normal(size=(5, 3))
    y, cache = layer.forward(x, "infer")
    assert cache is None
    want = (x - layer.moving_mean) / np.sqrt(layer.moving_var + 1e-3)
    np.testing.assert_allclose(y, want, rtol=1e-12)
    np.testing.assert_array_equal(layer.moving_mean, before[0])
    np.testing.assert_array_equal(layer.moving_var, before[1])


def test_bn_backward_matches_finite_differences():
    rng = np.random.default_rng(17)
    x = rng.normal(size=(3, 4, 2))
    layer = _bn(2)
    layer.gamma[...] = [1.5, 0.7]
    layer.beta[...] = [0.2, -0.4]
    y, cache = layer.forward(x, "train")
    probe = rng.normal(size=y.shape)
    d_x, grads = layer.backward(probe, cache)

    def loss():
        return float(np.sum(layer.forward(x, "train")[0] * probe))

    numeric = fd_grads(loss, {"x": x, "gamma": layer.gamma, "beta": layer.beta})
    assert_close(d_x, numeric["x"], 1e-5)
    assert_close(grads["b.gamma"], numeric["gamma"], 1e-5)
    assert_close(grads["b.beta"], numeric["beta"], 1e-5)


def test_bn_empty_batch_rejected():
    with pytest.raises(VoicehandError, match="train-mode forward on an empty batch"):
        _bn(2).forward(np.zeros((0, 2)), "train")


def test_bn_channel_mismatch_rejected():
    with pytest.raises(VoicehandError, match=r"expected 4 channels, got \(2, 3\)"):
        _bn(4).forward(np.zeros((2, 3)), "train")


def test_bn_state_lists_four_tensors():
    names = [n for n, _ in _bn(2).state()]
    assert names == ["b.gamma", "b.beta", "b.moving_mean", "b.moving_var"]
    assert [n for n, _ in _bn(2).trainable()] == ["b.gamma", "b.beta"]


# ---------------------------------------------------------------- dense, softmax


def test_dense_forward_matches_matmul_oracle():
    rng = np.random.default_rng(18)
    w = rng.normal(size=(5, 3))
    b = rng.normal(size=3)
    x = rng.normal(size=(4, 5))
    plain, _ = Dense("d", w, b).forward(x)
    np.testing.assert_allclose(plain, x @ w + b, rtol=1e-12)
    relu, _ = Dense("d", w, b, activation="relu").forward(x)
    np.testing.assert_allclose(relu, np.maximum(x @ w + b, 0.0), rtol=1e-12)


def test_dense_relu_backward_matches_finite_differences():
    rng = np.random.default_rng(19)
    layer = Dense("d", rng.normal(size=(6, 4)), rng.normal(size=4), activation="relu")
    x = rng.normal(size=(3, 6))
    y, cache = layer.forward(x)
    probe = rng.normal(size=y.shape)
    d_x, grads = layer.backward(probe, cache)

    def loss():
        return float(np.sum(layer.forward(x)[0] * probe))

    numeric = fd_grads(loss, {"w": layer.weights, "b": layer.biases, "x": x})
    assert_close(grads["d.weights"], numeric["w"], 1e-6)
    assert_close(grads["d.biases"], numeric["b"], 1e-6)
    assert_close(d_x, numeric["x"], 1e-6)


def test_softmax_known_values_and_invariance():
    p = softmax(np.array([[0.0, np.log(2.0)]]))
    np.testing.assert_allclose(p, [[1.0 / 3.0, 2.0 / 3.0]], rtol=1e-12)
    logits = np.array([[1.0, 2.0, 3.0], [-5.0, 0.0, 5.0]])
    np.testing.assert_allclose(softmax(logits), softmax(logits + 1000.0), rtol=1e-12)
    np.testing.assert_allclose(softmax(logits).sum(axis=1), 1.0, rtol=1e-15)


def test_softmax_survives_extreme_logits():
    p = softmax(np.array([[1e4, 0.0, -1e4]]))
    assert np.all(np.isfinite(p))
    np.testing.assert_allclose(p.sum(), 1.0)


def test_dense_softmax_backward_requires_fused_logit_gradient():
    rng = np.random.default_rng(20)
    layer = Dense("d", rng.normal(size=(4, 3)), np.zeros(3), activation="softmax")
    x = rng.normal(size=(2, 4))
    y, cache = layer.forward(x)
    np.testing.assert_allclose(y.sum(axis=1), 1.0, rtol=1e-12)
    d = np.ones_like(y) / 2
    d_x, grads = layer.backward(d, cache)
    assert set(grads) == {"d.weights", "d.biases"}
    # the gradient arrives at the logits: backward applies no softmax Jacobian
    np.testing.assert_array_equal(grads["d.weights"], x.T @ d)
    np.testing.assert_array_equal(d_x, d @ layer.weights.T)


# ---------------------------------------------------------------- flatten, dropout


def test_flatten_round_trip():
    x = np.arange(24.0).reshape(2, 3, 4, 1)
    layer = Flatten("f")
    y, cache = layer.forward(x)
    assert y.shape == (2, 12)
    np.testing.assert_array_equal(y[0], np.arange(12.0))
    d_x, _ = layer.backward(y, cache)
    np.testing.assert_array_equal(d_x, x)


def test_dropout_infer_is_identity():
    x = np.random.default_rng(21).normal(size=(5, 7))
    y, _ = Dropout("do", 0.5).forward(x, "infer")
    np.testing.assert_array_equal(y, x)


def test_dropout_at_rate_zero_is_identity_without_rng():
    x = np.ones((3, 3))
    y, _ = Dropout("do", 0.0).forward(x, "train")
    np.testing.assert_array_equal(y, x)


@pytest.mark.parametrize("rate, mode", [(0.5, "infer"), (0.0, "train"), (0.0, "infer")])
def test_dropout_that_drops_nothing_caches_nothing_and_passes_gradient_through(rate, mode):
    layer = Dropout("do", rate)
    x = np.random.default_rng(24).normal(size=(4, 6))
    y, cache = layer.forward(x, mode, np.random.default_rng(0))
    assert y is x
    assert cache is None
    d_out = np.random.default_rng(25).normal(size=(4, 6))
    d_x, grads = layer.backward(d_out, cache)
    assert d_x is d_out
    assert grads == {}


def test_dropout_train_needs_rng():
    with pytest.raises(ValueError):
        Dropout("do", 0.5).forward(np.ones((2, 2)), "train")


def test_dropout_validates_its_rate():
    with pytest.raises(ValueError):
        Dropout("do", 1.0)
    with pytest.raises(ValueError):
        Dropout("do", -0.1)


def test_dropout_statistics_and_inverted_scaling():
    rng = np.random.default_rng(22)
    x = np.ones((100, 1000))
    y, mask = Dropout("do", 0.5).forward(x, "train", rng)
    kept = y != 0.0
    assert abs(kept.mean() - 0.5) < 0.01
    np.testing.assert_allclose(y[kept], 2.0)  # survivors scaled by 1/(1-rate)
    np.testing.assert_allclose(y.mean(), 1.0, atol=0.02)  # expectation preserved
    np.testing.assert_array_equal(kept, mask)


def test_dropout_backward_applies_same_mask():
    rng = np.random.default_rng(23)
    layer = Dropout("do", 0.5)
    x = np.ones((10, 10))
    y, cache = layer.forward(x, "train", rng)
    d_x, _ = layer.backward(np.ones_like(y), cache)
    np.testing.assert_array_equal((d_x != 0), (y != 0))
    np.testing.assert_allclose(d_x[d_x != 0], 2.0)


# ---------------------------------------------------------------- input_grad=False


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_conv_backward_without_input_grad_keeps_parameter_grad_bits(dtype):
    rng = np.random.default_rng(30)
    layer = Conv2D("c", rng.normal(size=(3, 2, 2, 4)).astype(dtype),
                   rng.normal(size=4).astype(dtype))
    y, cache = layer.forward(rng.normal(size=(3, 7, 6, 2)).astype(dtype), "train")
    d_out = rng.normal(size=y.shape).astype(dtype)
    d_x, full = layer.backward(d_out, cache)
    assert d_x.shape == (3, 7, 6, 2)
    skipped, grads = layer.backward(d_out, cache, input_grad=False)
    assert skipped is None
    assert_same_grad_bits(grads, full)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("activation", ["relu", None, "softmax"])
def test_dense_backward_without_input_grad_keeps_parameter_grad_bits(dtype, activation):
    rng = np.random.default_rng(31)
    layer = Dense("d", rng.normal(size=(6, 5)).astype(dtype), rng.normal(size=5).astype(dtype),
                  activation=activation)
    y, cache = layer.forward(rng.normal(size=(4, 6)).astype(dtype), "train")
    d_out = rng.normal(size=y.shape).astype(dtype)
    d_x, full = layer.backward(d_out, cache)
    assert d_x.shape == (4, 6)
    skipped, grads = layer.backward(d_out, cache, input_grad=False)
    assert skipped is None
    assert_same_grad_bits(grads, full)


# ---------------------------------------------------------------- infer mode


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _with_ties(x, ph, pw):
    """x with its first tile all zeros and, in the next two tiles along the
    width, a +0.0/-0.0 tie for the max in both orders; everything else in
    those tiles is negative."""
    x = x.copy()
    x[:, :ph, :pw] = 0.0
    for j, first in ((1, -0.0), (2, 0.0)):
        tile = x[:, :ph, j * pw : (j + 1) * pw]
        tile[...] = -1.0 - np.abs(tile)
        tile[:, 0, -1] = first
        tile[:, -1, 0] = -first
    return x


INFER_SHAPES = [((1, 14, 15, 3), 7, 5), ((3, 14, 15, 3), 7, 5), ((3, 11, 13, 2), 5, 3)]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape, ph, pw", INFER_SHAPES)
def test_pool_infer_is_train_bit_for_bit(dtype, shape, ph, pw):
    layer = MaxPool2D("p", ph, pw)
    x = _with_ties(np.random.default_rng(40).normal(size=shape), ph, pw).astype(dtype)
    y, cache = layer.forward(x, "infer")
    assert cache is None
    assert_same_bits(y, layer.forward(x, "train")[0])
    # the first max in row-major order wins a tie, sign of zero included
    assert not np.signbit(y[:, 0, 0]).any()
    assert np.signbit(y[:, 0, 1]).all()
    assert not np.signbit(y[:, 0, 2]).any()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape, ph, pw", INFER_SHAPES)
def test_conv_infer_is_train_bit_for_bit(dtype, shape, ph, pw):
    rng = np.random.default_rng(41)
    cin = shape[-1]
    layer = Conv2D("c", rng.normal(size=(ph, pw, cin, 4)).astype(dtype),
                   np.array([0.0, -0.0, 0.5, -0.5], dtype=dtype))
    x = _with_ties(rng.normal(size=shape), ph, pw).astype(dtype)
    y, cache = layer.forward(x, "infer")
    assert cache is None
    assert_same_bits(y, layer.forward(x, "train")[0])


@settings(max_examples=200, deadline=None)
@given(data=st.data(), dtype=st.sampled_from([np.float32, np.float64]),
       ph=st.integers(1, 4), pw=st.integers(1, 4))
def test_pool_infer_is_train_bit_for_bit_for_any_shape(data, dtype, ph, pw):
    shape = (data.draw(st.integers(1, 3)), data.draw(st.integers(ph, 3 * ph + 2)),
             data.draw(st.integers(pw, 3 * pw + 2)), data.draw(st.integers(1, 3)))
    # few distinct values, signed zeros among them, so most tiles hold ties
    x = data.draw(arrays(dtype, shape,
                         elements=st.sampled_from([-1.0, -0.0, 0.0, 0.5, 2.0])))
    layer = MaxPool2D("p", ph, pw)
    y, cache = layer.forward(x, "infer")
    assert cache is None
    assert_same_bits(y, layer.forward(x, "train")[0])


POOL_VALUES = [-np.inf, -1.0, -0.0, 0.0, 0.5, 2.0, np.inf, np.nan]


@settings(max_examples=200, deadline=None)
@given(data=st.data(), dtype=st.sampled_from([np.float32, np.float64]),
       n=st.sampled_from([1, 64]), ph=st.integers(1, 4), pw=st.integers(1, 5),
       values=st.lists(st.sampled_from(POOL_VALUES), min_size=1, max_size=6),
       normal_share=st.sampled_from([0.0, 0.3, 1.0]), seed=st.integers(0, 2**32 - 1))
def test_pool_train_routing_is_argmax_for_any_values(data, dtype, n, ph, pw, values,
                                                     normal_share, seed):
    # train mode's winner is each tile's first max in row-major order (its
    # first NaN in a NaN tile); the reference is argmax over an explicit
    # copy of the tiles
    shape = (n, data.draw(st.integers(ph, 3 * ph + 2)),
             data.draw(st.integers(pw, 3 * pw + 2)), data.draw(st.integers(1, 3)))
    rng = np.random.default_rng(seed)
    x = np.where(rng.random(shape) < normal_share, rng.normal(size=shape),
                 rng.choice(np.array(values), size=shape)).astype(dtype)
    layer = MaxPool2D("p", ph, pw)
    y, (argmax, x_shape) = layer.forward(x, "train")
    tiles = layer.tiles(x)
    want = tiles.argmax(axis=3)
    assert x_shape == x.shape
    np.testing.assert_array_equal(argmax, want)
    assert_same_bits(y, layer.forward(x, "infer")[0])
    # NaN compares equal here: a NaN tile's max is NaN, whichever NaN
    np.testing.assert_array_equal(
        y, np.take_along_axis(tiles, want[:, :, :, None, :], axis=3)[:, :, :, 0, :])


def test_network_train_forward_makes_no_copy_of_conv1_output():
    # pool1 takes its max from strided views and scans them for the
    # winners; a copy of conv1's (64, 120, 65, 8) float32 output into
    # tiles, and argmax's second copy, put the peak near 50 MiB
    from voicehand.network import INPUT_SHAPE, build_network

    net = build_network(seed=3)
    rng = np.random.default_rng(3)
    x = rng.normal(size=(64,) + INPUT_SHAPE).astype(np.float32)
    net.forward(x[:1], "train", dropout_rng=rng)
    tracemalloc.start()
    try:
        net.forward(x, "train", dropout_rng=rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


# ---------------------------------------------------------------- patch layout


def _lowered(layer, x):
    """x's C-contiguous (n·oh·ow, fh·fw·cin) patch matrix, every output
    position in row-major order."""
    fh, fw, cin, _ = layer.weights.shape
    patches = np.lib.stride_tricks.sliding_window_view(x, (fh, fw), axis=(1, 2))
    return np.ascontiguousarray(patches.transpose(0, 1, 2, 4, 5, 3)).reshape(-1, fh * fw * cin)


def _col2im(d_cols, x_shape):
    """Sum (n, oh, ow, fh, fw, cin) patch gradients back into x's shape."""
    n, oh, ow, fh, fw, cin = d_cols.shape
    d_x = np.zeros(x_shape, dtype=d_cols.dtype)
    for a in range(fh):
        for b in range(fw):
            d_x[:, a : a + oh, b : b + ow, :] += d_cols[:, :, :, a, b, :]
    return d_x


def _reference(layer, x, d_out):
    """(output, weight grad, bias grad, input grad) of a conv layer through
    a C-contiguous patch matrix, `@` forward and tensordot gradients, in
    the layer's summation order. d_out is dense or Routed. The weight
    gradient takes the rows listed in some channel (every row for a dense
    d_out) in row-major order, CHUNK_ROWS rows at a time; the bias
    gradient sums the masked gradient over the listed entries in their
    order; the input gradient contracts the masked gradient of every row,
    unlisted ones zero, with one filter tap's weights at a time and adds
    each tap's product at its offset."""
    fh, fw, cin, cout = layer.weights.shape
    n, h, w, _ = x.shape
    oh, ow = h - fh + 1, w - fw + 1
    cols = _lowered(layer, x)
    weights = layer.weights.reshape(-1, cout)
    z = cols @ weights + layer.biases
    y = np.maximum(z, 0.0).reshape(n, oh, ow, cout)
    routed = Routed.of(d_out)
    dz = np.where(z > 0.0, routed.dense().reshape(-1, cout), 0.0)
    listed = np.unique(routed.pos + (np.arange(n) * oh * ow)[:, None, None])
    d_w = np.zeros_like(weights)
    for start in range(0, listed.size, CHUNK_ROWS):
        rows = listed[start : start + CHUNK_ROWS]
        d_w += np.tensordot(cols[rows], dz[rows], axes=([0], [0]))
    d_b = np.take_along_axis(dz.reshape(n, oh * ow, cout), routed.pos, axis=1).sum(axis=(0, 1))
    d_x = np.zeros(x.shape, dtype=dz.dtype)
    for a in range(fh):
        for b in range(fw):
            tap = np.tensordot(dz, layer.weights[a, b], axes=([1], [1]))
            d_x[:, a : a + oh, b : b + ow, :] += tap.reshape(n, oh, ow, cin)
    return y, d_w.reshape(layer.weights.shape), d_b, d_x


def _dense_oracle(layer, x, d_out):
    """(weight grad, bias grad, input grad) in float64 by the plain dense
    algorithm: one tensordot over every patch row of the batch, one sum
    over every output position, col2im."""
    fh, fw, cin, cout = layer.weights.shape
    cols = _lowered(layer, x.astype(np.float64))
    weights = layer.weights.reshape(-1, cout).astype(np.float64)
    z = cols @ weights + layer.biases.astype(np.float64)
    d_out = Routed.of(d_out).dense().astype(np.float64)
    dz = np.where(z > 0.0, d_out.reshape(-1, cout), 0.0)
    d_cols = np.tensordot(dz, weights, axes=([1], [1])).reshape(d_out.shape[:3] + (fh, fw, cin))
    return (np.tensordot(cols, dz, axes=([0], [0])).reshape(layer.weights.shape),
            dz.sum(axis=0), _col2im(d_cols, x.shape))


def _assert_matches_reference(layer, x, d_out, got_x, grads):
    _, want_w, want_b, want_x = _reference(layer, x, d_out)
    assert_same_bits(grads["c.weights"], want_w)
    assert_same_bits(grads["c.biases"], want_b)
    assert_same_bits(got_x, want_x)
    # only the summation order differs from the dense algorithm
    eps = np.finfo(x.dtype).eps
    for got, oracle in zip((grads["c.weights"], grads["c.biases"], got_x),
                           _dense_oracle(layer, x, d_out)):
        assert np.abs(got - oracle).max() <= 64 * eps * np.abs(oracle).max()


# conv1 on a full window (row blocks), conv1 on a 70 ms stream hop's 11
# frames and conv2 on pool1's output (both row-major), and conv1 on 131
# rows, whose 122 output rows end in a short row block
NETWORK_CONVS = [((10, 7, 1, 8), (1, 129, 71, 1)), ((10, 7, 1, 8), (2, 129, 71, 1)),
                 ((10, 7, 1, 8), (1, 129, 11, 1)),
                 ((7, 5, 8, 32), (1, 17, 13, 8)), ((7, 5, 8, 32), (2, 17, 13, 8)),
                 ((10, 7, 1, 8), (2, 131, 71, 1))]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("w_shape, x_shape", NETWORK_CONVS)
def test_conv_is_row_major_reference_bit_for_bit_at_network_size(dtype, w_shape, x_shape):
    rng = np.random.default_rng(42)
    layer = Conv2D("c", (rng.normal(size=w_shape) * 0.2).astype(dtype),
                   (rng.normal(size=w_shape[-1]) * 0.1).astype(dtype))
    x = rng.normal(size=x_shape).astype(dtype)
    y, cache = layer.forward(x, "train")
    want_y = _reference(layer, x, y)[0]
    assert_same_bits(y, want_y)
    assert_same_bits(layer.forward(x, "infer")[0], want_y)
    # a dense output gradient, then the network's pool winners
    d_out = rng.normal(size=y.shape).astype(dtype)
    _assert_matches_reference(layer, x, d_out, *layer.backward(d_out, cache))
    pool = MaxPool2D("p", *{1: (7, 5), 8: (5, 3)}[w_shape[2]])
    pooled, pool_cache = pool.forward(y, "train")
    routed, _ = pool.backward(rng.normal(size=pooled.shape).astype(dtype), pool_cache)
    _assert_matches_reference(layer, x, routed, *layer.backward(routed, cache))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("cin", [1, 2])
def test_conv_weight_gradient_chunks_that_end_a_clip_short(dtype, cin):
    # 38x298 = 11324 output positions a clip, not a multiple of
    # CHUNK_ROWS: one chunk holds the end of the first clip and the start
    # of the second, and the batch ends in a shorter chunk; one channel
    # lowers row blocks in forward, two row-major
    assert 11324 % CHUNK_ROWS and 2 * 11324 % CHUNK_ROWS
    rng = np.random.default_rng(43)
    layer = Conv2D("c", rng.normal(size=(3, 3, cin, 2)).astype(dtype),
                   rng.normal(size=2).astype(dtype))
    x = rng.normal(size=(2, 40, 300, cin)).astype(dtype)
    y, cache = layer.forward(x, "train")
    assert_same_bits(y, _reference(layer, x, y)[0])
    d_out = rng.normal(size=y.shape).astype(dtype)
    _assert_matches_reference(layer, x, d_out, *layer.backward(d_out, cache))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_conv1_on_a_140_ms_hop_is_the_column_major_product(dtype):
    # conv1 on a 140 ms stream hop's 16 frames lowers row blocks. In
    # float32 the row-major (1200, 70) @ (70, 8) product is small enough
    # for OpenBLAS's small-matrix kernel, which rounds differently from
    # its regular kernel; row blocks, a full window's row-major product
    # and a column-major patch matrix's go through the regular one
    rng = np.random.default_rng(42)
    layer = Conv2D("c", (rng.normal(size=(10, 7, 1, 8)) * 0.2).astype(dtype),
                   (rng.normal(size=8) * 0.1).astype(dtype))
    x = rng.normal(size=(1, 129, 16, 1)).astype(dtype)
    cols = np.asfortranarray(_lowered(layer, x))
    want = np.maximum(cols @ layer.weights.reshape(-1, 8) + layer.biases, 0.0)
    y, cache = layer.forward(x, "train")
    assert_same_bits(y, want.reshape(y.shape))
    assert_same_bits(layer.forward(x, "infer")[0], y)
    d_out = rng.normal(size=y.shape).astype(dtype)
    _assert_matches_reference(layer, x, d_out, *layer.backward(d_out, cache))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_conv_row_blocks_keep_the_sign_of_zero(dtype):
    # an all-zero clip (+0.0, then -0.0) makes every product a signed zero,
    # and signed-zero biases make the pre-activations' sign depend on the
    # order of the adds; they match the row-major patch matrix's, zero
    # taps and all; 131 rows make 122 output rows, a short last row block
    assert (131 - 10 + 1) % ROW_BLOCK
    rng = np.random.default_rng(44)
    layer = Conv2D("c", rng.normal(size=(10, 7, 1, 8)).astype(dtype),
                   np.array([0.0, -0.0] * 3 + [0.5, -0.5], dtype=dtype))
    x = np.zeros((2, 131, 71, 1), dtype=dtype)
    x[1] = -0.0
    z = np.empty((2, 122, 65, 8), dtype=dtype)
    for _ in layer._row_blocks(x, z):
        pass
    want = _lowered(layer, x) @ layer.weights.reshape(-1, 8) + layer.biases
    assert_same_bits(z, want.reshape(z.shape))
    y, _ = layer.forward(x, "train")
    assert_same_bits(y, _reference(layer, x, y)[0])
    assert_same_bits(layer.forward(x, "infer")[0], y)


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_a_non_finite_input_value_spreads_over_its_row_block_and_is_refused(value):
    from voicehand.network import INPUT_SHAPE, build_network, run_layers

    net = build_network(seed=3)
    x = np.random.default_rng(45).normal(size=(1,) + INPUT_SHAPE).astype(np.float32)
    x[0, 0, 0, 0] = value
    with np.errstate(invalid="ignore", over="ignore"):
        z, _ = net.layers[0].forward(x)
    # only output row 0 weighs the value; the other rows of its block take
    # it times a zero tap, which is NaN, in the one column that reads it
    assert np.isnan(z[0, 1:ROW_BLOCK, 0]).all()
    assert np.isfinite(z[0, :, 1:]).all() and np.isfinite(z[0, ROW_BLOCK:]).all()
    with pytest.raises(CheckpointError), np.errstate(invalid="ignore", over="ignore"):
        run_layers(net.layers, x)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_pool_train_routing_is_argmax_chunk_by_chunk(dtype):
    # pool1's input at batch 20 goes in chunks of 8, 8 and 4 clips, in
    # infer mode too; a NaN sends the second chunk alone through the
    # first-equal scan. Every tile's max is a signed zero or, in about half
    # the tiles of every other clip, 0.5, so nearly every tile holds a tie
    assert POOL_CHUNK // (120 * 65 * 8) == 8
    rng = np.random.default_rng(47)
    x = rng.choice(np.array([-1.0, -0.0, 0.0]), size=(20, 120, 65, 8))
    x[::2] = np.where(rng.random(x[::2].shape) < 0.02, 0.5, x[::2])
    x = x.astype(dtype)
    x[9, 3, 4, 5] = np.nan
    layer = MaxPool2D("p", 7, 5)
    y, (argmax, _) = layer.forward(x, "train")
    np.testing.assert_array_equal(argmax, layer.tiles(x).argmax(axis=3))
    assert_same_bits(y, layer._tile_max(x))
    y_infer, cache = layer.forward(x, "infer")
    assert cache is None
    assert_same_bits(y_infer, y)


def test_pool_routes_a_tile_of_more_than_255_values():
    # 16x17 tiles: the winners' keys a·pw + b run to 271, past uint8
    rng = np.random.default_rng(48)
    x = rng.choice(np.array([-1.0, -0.0, 0.0, 0.5]), size=(2, 33, 35, 3), p=[0.6, 0.2, 0.19, 0.01])
    x[0, :16, :17, 0] = -1.0
    x[0, 15, 3:17, 0] = [-0.0, 0.0, 2.0, 2.0] + [0.0] * 10  # the winner, 2.0 at 15·17 + 5
    layer = MaxPool2D("p", 16, 17)
    y, (argmax, _) = layer.forward(x, "train")
    np.testing.assert_array_equal(argmax, layer.tiles(x).argmax(axis=3))
    assert argmax[0, 0, 0, 0] == 260
    assert_same_bits(y, layer._tile_max(x))


def test_pool1_train_forward_peaks_below_5_mib():
    # rows first over 8 clips at a time, each temporary a fraction of the
    # (64, 120, 65, 8) float32 input (16 MB); the first-equal scan over
    # the whole batch peaked at 6.1 MiB
    layer = MaxPool2D("pool1", 7, 5)
    x = np.random.default_rng(46).normal(size=(64, 120, 65, 8)).astype(np.float32)
    np.maximum(x, 0.0, out=x)
    layer.forward(x[:1], "train")
    tracemalloc.start()
    try:
        layer.forward(x, "train")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20
