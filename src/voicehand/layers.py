"""Network layers with hand-written forward and backward passes.

Activations are tensors in channels-last layout: (batch, height, width,
channels) for the 2D stages, (batch, features) after flattening. Every
layer is called as forward(x, mode="infer", rng=None), where mode is
"train" or "infer" and rng drives dropout, and returns (output, cache);
backward takes the upstream gradient plus that cache and returns (input
gradient, parameter grads).
Parameter dtype is float32 in production and float64 in verification
builds; a layer never changes the dtype it was built with.
"""

import numpy as np

from .errors import EmptyBatch, ShapeMismatch


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax, shifted by the row max so huge logits cannot overflow."""
    z = logits - np.max(logits, axis=-1, keepdims=True)
    e = np.exp(z)
    return e / np.sum(e, axis=-1, keepdims=True)


class Conv2D:
    """Valid (no padding) cross-correlation, stride 1, ReLU activation.

    Weights are (filter_h, filter_w, in_channels, out_channels). The
    forward pass lowers input patches to a matrix so the contraction runs
    as one matmul; the patch matrix is kept in the cache for the weight
    gradient.
    """

    activation = "relu"

    def __init__(self, name, weights, biases):
        self.name = name
        self.weights = weights
        self.biases = biases

    def forward(self, x, mode="infer", rng=None):
        fh, fw, cin, cout = self.weights.shape
        if x.ndim != 4 or x.shape[3] != cin:
            raise ShapeMismatch(f"{self.name}: expected (n, h, w, {cin}), got {x.shape}")
        n, h, w, _ = x.shape
        if h < fh or w < fw:
            raise ShapeMismatch(f"{self.name}: input {h}x{w} smaller than filter {fh}x{fw}")
        oh, ow = h - fh + 1, w - fw + 1
        patches = np.lib.stride_tricks.sliding_window_view(x, (fh, fw), axis=(1, 2))
        # (n, oh, ow, cin, fh, fw) -> rows ordered (fh, fw, cin) to match the weight layout
        cols = np.ascontiguousarray(patches.transpose(0, 1, 2, 4, 5, 3))
        cols = cols.reshape(n, oh * ow, fh * fw * cin)
        z = cols @ self.weights.reshape(-1, cout) + self.biases
        z = z.reshape(n, oh, ow, cout)
        return np.maximum(z, 0.0), (cols, x.shape, z > 0.0)

    def backward(self, d_out, cache):
        cols, x_shape, active = cache
        fh, fw, cin, cout = self.weights.shape
        n, h, w, _ = x_shape
        oh, ow = h - fh + 1, w - fw + 1
        dz = np.where(active, d_out, 0.0).reshape(n, oh * ow, cout)
        d_w = np.tensordot(cols, dz, axes=([0, 1], [0, 1])).reshape(self.weights.shape)
        d_b = dz.sum(axis=(0, 1))
        d_cols = (dz @ self.weights.reshape(-1, cout).T).reshape(n, oh, ow, fh, fw, cin)
        d_x = np.zeros(x_shape, dtype=d_out.dtype)
        for a in range(fh):
            for b in range(fw):
                d_x[:, a : a + oh, b : b + ow, :] += d_cols[:, :, :, a, b, :]
        return d_x, {f"{self.name}.weights": d_w, f"{self.name}.biases": d_b}

    def trainable(self):
        return [(f"{self.name}.weights", self.weights), (f"{self.name}.biases", self.biases)]

    def state(self):
        return self.trainable()


class MaxPool2D:
    """Non-overlapping max pooling; trailing rows/columns that do not fill
    a window are dropped. The cache records the winning position per
    window so backward routes gradient to exactly one input (first max on
    ties), conserving gradient mass."""

    def __init__(self, name, pool_h, pool_w):
        self.name = name
        self.pool_h = pool_h
        self.pool_w = pool_w

    def tiles(self, x):
        """Windows of x as (n, oh, ow, pool_h * pool_w, c), row-major within a window."""
        n, h, w, c = x.shape
        ph, pw = self.pool_h, self.pool_w
        oh, ow = h // ph, w // pw
        cropped = x[:, : oh * ph, : ow * pw, :]
        tiles = cropped.reshape(n, oh, ph, ow, pw, c).transpose(0, 1, 3, 2, 4, 5)
        return tiles.reshape(n, oh, ow, ph * pw, c)

    def forward(self, x, mode="infer", rng=None):
        if x.ndim != 4:
            raise ShapeMismatch(f"{self.name}: expected 4D input, got {x.shape}")
        if x.shape[1] < self.pool_h or x.shape[2] < self.pool_w:
            raise ShapeMismatch(f"{self.name}: input {x.shape} smaller than pool window")
        tiles = self.tiles(x)
        argmax = tiles.argmax(axis=3)
        y = np.take_along_axis(tiles, argmax[:, :, :, None, :], axis=3)[:, :, :, 0, :]
        return y, (argmax, x.shape)

    def backward(self, d_out, cache):
        argmax, x_shape = cache
        n, h, w, c = x_shape
        ph, pw = self.pool_h, self.pool_w
        oh, ow = h // ph, w // pw
        d_tiles = np.zeros((n, oh, ow, ph * pw, c), dtype=d_out.dtype)
        np.put_along_axis(d_tiles, argmax[:, :, :, None, :], d_out[:, :, :, None, :], axis=3)
        d_crop = d_tiles.reshape(n, oh, ow, ph, pw, c).transpose(0, 1, 3, 2, 4, 5)
        d_x = np.zeros(x_shape, dtype=d_out.dtype)
        d_x[:, : oh * ph, : ow * pw, :] = d_crop.reshape(n, oh * ph, ow * pw, c)
        return d_x, {}

    def trainable(self):
        return []

    def state(self):
        return []


class BatchNorm:
    """Per-channel batch normalization.

    Train mode standardizes with the batch mean and biased variance over
    all batch/height/width positions and nudges the moving statistics;
    infer mode uses the moving statistics and never mutates state.
    """

    def __init__(self, name, channels, epsilon=1e-3, momentum=0.99, dtype=np.float32):
        self.name = name
        self.epsilon = epsilon
        self.momentum = momentum
        self.gamma = np.ones(channels, dtype=dtype)
        self.beta = np.zeros(channels, dtype=dtype)
        self.moving_mean = np.zeros(channels, dtype=dtype)
        self.moving_var = np.ones(channels, dtype=dtype)

    def forward(self, x, mode="infer", rng=None):
        if x.shape[-1] != self.gamma.shape[0]:
            raise ShapeMismatch(f"{self.name}: expected {self.gamma.shape[0]} channels, got {x.shape}")
        axes = tuple(range(x.ndim - 1))
        if mode == "train":
            if x.shape[0] == 0:
                raise EmptyBatch(f"{self.name}: train-mode forward on an empty batch")
            mean = x.mean(axis=axes)
            var = x.var(axis=axes)
            inv_std = 1.0 / np.sqrt(var + self.epsilon)
            xhat = (x - mean) * inv_std
            m = self.momentum
            self.moving_mean[...] = m * self.moving_mean + (1.0 - m) * mean
            self.moving_var[...] = m * self.moving_var + (1.0 - m) * var
            return self.gamma * xhat + self.beta, (xhat, inv_std)
        inv_std = 1.0 / np.sqrt(self.moving_var + self.epsilon)
        return self.gamma * (x - self.moving_mean) * inv_std + self.beta, None

    def backward(self, d_out, cache):
        xhat, inv_std = cache
        axes = tuple(range(d_out.ndim - 1))
        d_gamma = (d_out * xhat).sum(axis=axes)
        d_beta = d_out.sum(axis=axes)
        # full backward: the batch mean and variance both depend on x
        d_xhat = d_out * self.gamma
        d_x = inv_std * (
            d_xhat
            - d_xhat.mean(axis=axes)
            - xhat * (d_xhat * xhat).mean(axis=axes)
        )
        return d_x, {f"{self.name}.gamma": d_gamma, f"{self.name}.beta": d_beta}

    def trainable(self):
        return [(f"{self.name}.gamma", self.gamma), (f"{self.name}.beta", self.beta)]

    def state(self):
        return self.trainable() + [
            (f"{self.name}.moving_mean", self.moving_mean),
            (f"{self.name}.moving_var", self.moving_var),
        ]


class Flatten:
    def __init__(self, name):
        self.name = name

    def forward(self, x, mode="infer", rng=None):
        return x.reshape(x.shape[0], -1), x.shape

    def backward(self, d_out, cache):
        return d_out.reshape(cache), {}

    def trainable(self):
        return []

    def state(self):
        return []


class Dense:
    """Fully connected layer: out = activation(x @ W + b).

    activation is "relu", "softmax", or None. A softmax Dense has no
    standalone backward: its gradient arrives already fused with the
    cross-entropy loss at the logits, signaled via at_logits=True.
    """

    def __init__(self, name, weights, biases, activation=None):
        self.name = name
        self.weights = weights
        self.biases = biases
        self.activation = activation

    def forward(self, x, mode="infer", rng=None):
        if x.ndim != 2 or x.shape[1] != self.weights.shape[0]:
            raise ShapeMismatch(
                f"{self.name}: expected (n, {self.weights.shape[0]}), got {x.shape}"
            )
        z = x @ self.weights + self.biases
        if self.activation == "relu":
            return np.maximum(z, 0.0), (x, z > 0.0)
        if self.activation == "softmax":
            return softmax(z), (x, None)
        return z, (x, None)

    def backward(self, d_out, cache, at_logits=False):
        x, active = cache
        if self.activation == "relu" and not at_logits:
            dz = np.where(active, d_out, 0.0)
        elif self.activation == "softmax" and not at_logits:
            raise ValueError(f"{self.name}: softmax gradient must be fused with the loss")
        else:
            dz = d_out
        d_w = x.T @ dz
        d_b = dz.sum(axis=0)
        d_x = dz @ self.weights.T
        return d_x, {f"{self.name}.weights": d_w, f"{self.name}.biases": d_b}

    def trainable(self):
        return [(f"{self.name}.weights", self.weights), (f"{self.name}.biases", self.biases)]

    def state(self):
        return self.trainable()


class Dropout:
    """Inverted dropout: training zeroes each element with probability
    `rate` and scales survivors by 1/(1-rate); inference is the identity."""

    def __init__(self, name, rate=0.5):
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate {rate} outside [0, 1)")
        self.name = name
        self.rate = rate

    def forward(self, x, mode="infer", rng=None):
        if mode != "train" or self.rate == 0.0:
            return x, np.ones(x.shape, dtype=bool)
        if rng is None:
            raise ValueError(f"{self.name}: train-mode dropout needs an rng")
        mask = rng.random(x.shape) >= self.rate
        return np.where(mask, x / (1.0 - self.rate), 0.0), mask

    def backward(self, d_out, cache):
        mask = cache
        if self.rate == 0.0:
            return d_out, {}
        return np.where(mask, d_out / (1.0 - self.rate), 0.0), {}

    def trainable(self):
        return []

    def state(self):
        return []
