"""Network layers with hand-written forward and backward passes.

Activations are tensors in channels-last layout: (batch, height, width,
channels) for the 2D stages, (batch, features) after flattening. Every
layer subclasses `Layer`, which states the calling convention all six
share and names each layer's stored tensors. Parameter dtype is float32
in production and float64 in verification builds; a layer never changes
the dtype it was built with.

Only train mode builds what backward reads. In infer mode Conv2D,
MaxPool2D, BatchNorm and Dropout return None as their cache: MaxPool2D
takes its max without recording where it was, BatchNorm uses its
moving statistics and Dropout passes its input through. Conv2D runs the
same loop in both modes and keeps no patches in either; in train mode it
caches its input and ReLU mask. MaxPool2D takes the same strided max in
both modes; train mode then finds each tile's winner by a first-equal
scan of the same strided views, so neither mode copies its input.
Backward needs a train-mode cache.

Every backward returns a dense input gradient except MaxPool2D's: a
pool tile passes its gradient to one input, its winner, so the pool
returns a `Routed` gradient listing the winners, and the Conv2D below
reads its ReLU mask and gathers patches at those positions only.

Conv2D's forward lowers its input to (rows, fh·fw·cin) patch matrices,
one clip at a time into one reused buffer, and runs the convolution as
matmuls on them. How a buffer lies in memory follows the input:
offset-major for one channel wider than the filter (conv1 on a full
window), row-major otherwise (conv2). The layout changes no bit of
full-window inference. See Conv2D.
"""

from typing import NamedTuple

import numpy as np

from .errors import VoicehandError

# Most patch rows in one chunk of a conv weight gradient (see Conv2D). With
# OpenBLAS 0.3.31 on 2 cores, the (rows, 280)ᵀ @ (rows, 32) gemm of conv2
# gave the same bits at 1 and 2 threads up to 384 rows, and not from 385
# (float64) or 449 (float32) rows on; tests/test_network.py checks the
# thread counts against each other.
CHUNK_ROWS = 384


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax, shifted by the row max so huge logits cannot overflow."""
    z = logits - np.max(logits, axis=-1, keepdims=True)
    e = np.exp(z)
    return e / np.sum(e, axis=-1, keepdims=True)


def relu_grad(d_out: np.ndarray, active: np.ndarray) -> np.ndarray:
    """d_out where active, +0.0 elsewhere: the bits of `np.where(active,
    d_out, 0.0)`, NaN, infinities and -0.0 included, by ANDing d_out's
    words with all-ones or all-zeros words. A random mask defeats
    np.where's select loop; the AND runs about 4x faster."""
    word = np.dtype(f"u{d_out.dtype.itemsize}")
    keep = active.astype(word)
    np.negative(keep, out=keep)  # 1 -> all ones, 0 -> 0
    return np.bitwise_and(d_out.view(word), keep, out=keep).view(d_out.dtype)


class Layer:
    """A named layer and the tensors it stores.

    Every layer is called as forward(x, mode="infer", rng=None), where
    mode is "train" or "infer" and rng drives dropout, and returns
    (output, cache); backward takes the upstream gradient plus that cache
    and returns (input gradient, parameter grads). The two parameter
    layers, Conv2D and Dense, also take backward(..., input_grad=True):
    with input_grad=False they return (None, parameter grads) and skip
    the input gradient's work, for the first layer of a network, whose
    input is data and has no gradient to pass on. The parameter grads are
    the same bits either way.

    PARAMS and STATE name the attributes holding the trainable tensors
    and the other stored ones (batch-norm's moving statistics). Each
    tensor is keyed "<layer name>.<attribute>", trainable ones first, in
    the order the class lists them: the checkpoint payload's order.
    """

    PARAMS = ()
    STATE = ()

    def __init__(self, name):
        self.name = name

    def trainable(self):
        return [(f"{self.name}.{a}", getattr(self, a)) for a in self.PARAMS]

    def state(self):
        return [(f"{self.name}.{a}", getattr(self, a)) for a in self.PARAMS + self.STATE]

    def grads(self, *values):
        """Parameter gradients, given in PARAMS order, keyed like `trainable`."""
        return {f"{self.name}.{a}": v for a, v in zip(self.PARAMS, values)}


class Routed(NamedTuple):
    """A gradient with respect to a (n, h, w, c) tensor, zero except at
    listed positions: entry [i, k, ch] of `grad` is the gradient at flat
    position `pos[i, k, ch]`, r·w + q, of clip i's (h, w) plane in
    channel ch. A position is listed at most once per clip and channel.

    MaxPool2D.backward returns one listing each tile's winner, so the
    conv layer below reads its ReLU mask and patches at the winners only.
    `Routed.of` lists every position of a dense gradient, the one
    conversion a dense gradient handed to a conv layer takes."""

    shape: tuple
    pos: np.ndarray
    grad: np.ndarray

    @classmethod
    def of(cls, d):
        """d itself if it is Routed; else every position of the dense d."""
        if isinstance(d, cls):
            return d
        n, h, w, c = d.shape
        pos = np.broadcast_to(np.arange(h * w)[:, None], (n, h * w, c))
        return cls(d.shape, pos, d.reshape(n, h * w, c))

    def dense(self):
        """The gradient as a (n, h, w, c) array, +0.0 where nothing is listed."""
        n, h, w, c = self.shape
        out = np.zeros((n, h * w, c), dtype=self.grad.dtype)
        np.put_along_axis(out, self.pos, self.grad, axis=1)
        return out.reshape(self.shape)


class Conv2D(Layer):
    """Valid (no padding) cross-correlation, stride 1, ReLU activation.

    Weights are (filter_h, filter_w, in_channels, out_channels). Input
    patches are lowered to (rows, fh·fw·cin) matrices, one row per output
    position and columns in the weight layout's order, so the contraction
    is `cols @ W` and the weight gradient `cols.T @ dz`.

    Forward, in either mode, is one loop over the clips: lower the clip
    into one reused buffer, matmul, add the bias, ReLU. Per-clip matmuls
    give a batch-wide matmul's bits, as a gemm sums each output over the
    same taps in the same order whatever its row count. Train mode
    caches the input and the ReLU mask, (x, active): 6 MiB for conv1 at
    batch 64, against 133 MiB for its whole patch matrix. Infer mode
    caches nothing (None).

    Backward takes the output gradient as a `Routed` (a dense one goes
    through `Routed.of`). Below a max pool only each tile's winner has a
    gradient, 1 in 35 conv1 outputs. Backward reads the ReLU mask at the
    listed entries only; a tile whose ReLU outputs are all 0 lists its
    first position, whose mask is off, so it passes no gradient. It
    gathers the patches of the rows listed in some channel, in row-major
    order, from the cached input, which must not change between the two
    calls: a patch is fh runs of fw·cin neighbouring input values, copied
    a run at a time. The bias gradient sums the masked gradient over the
    listed entries. The weight gradient is summed chunk by chunk, `d_w
    += cols_k.T @ dz_k`, over CHUNK_ROWS gathered rows at a time (the
    last chunk shorter), in order. Fixing the chunks fixes the summation
    order: one gemm over every row of the batch is split by OpenBLAS in
    a way that depends on its thread count, and gave different
    weight-gradient bits at 1 and 2 threads. The input gradient fills
    the masked gradient into a dense (n·oh·ow, cout) array, multiplies
    it by one filter tap's (cin, cout) weights at a time and adds each
    product at its tap's offset, so each add runs over rows of ow·cin
    contiguous values. As a network's first layer Conv2D runs backward
    with input_grad=False, which skips the input gradient.

    A forward patch buffer's memory layout is the one whose filling
    copies the longer contiguous runs of input. With one input channel
    and ow > fw it is offset-major, the transpose of a C-contiguous
    (fh·fw·cin, rows) buffer: each filter tap copies runs of ow
    neighbouring input values. Otherwise it is row-major, one run of
    fw·cin values per patch row. Conv1 on a full 129x71 window copies
    runs of 65 values instead of 7. Conv2 (8 channels) and conv1 on a
    70 ms stream hop's 11 frames (ow 5) stay row-major: an offset-major
    run there is strided by cin or shorter than fw, and measured slower.
    Both layouts feed the gemm the same values, but OpenBLAS can round a
    small gemm on a transposed operand differently in the last bit: one
    forward call does (`commands.window_probs` names it).
    """

    PARAMS = ("weights", "biases")
    activation = "relu"

    def __init__(self, name, weights, biases):
        super().__init__(name)
        self.weights = weights
        self.biases = biases

    def forward(self, x, mode="infer", rng=None):
        fh, fw, cin, cout = self.weights.shape
        if x.ndim != 4 or x.shape[3] != cin:
            raise VoicehandError(f"{self.name}: expected (n, h, w, {cin}), got {x.shape}")
        n, h, w, _ = x.shape
        if h < fh or w < fw:
            raise VoicehandError(f"{self.name}: input {h}x{w} smaller than filter {fh}x{fw}")
        oh, ow = h - fh + 1, w - fw + 1
        w = self.weights.reshape(-1, cout)
        z = np.empty((n, oh, ow, cout), dtype=np.result_type(x, self.weights, self.biases))
        # the bias once per output row: the adds of `+= biases` over (oh·ow, cout)
        row_bias = np.tile(self.biases, ow)
        for i, cols in self.lowered(x):
            zi = z[i].reshape(-1, cout)
            np.matmul(cols, w, out=zi)
            z_rows = z[i].reshape(oh, -1)
            z_rows += row_bias
            np.maximum(zi, 0.0, out=zi)
        if mode != "train":
            return z, None
        return z, (x, z > 0.0)

    def lowered(self, x):
        """x's patch matrices clip by clip: yields (clip, cols), cols a
        (oh·ow, fh·fw·cin) view of one buffer that the next clip
        overwrites."""
        fh, fw, _, _ = self.weights.shape
        patches = np.lib.stride_tricks.sliding_window_view(x, (fh, fw), axis=(1, 2))
        # (n, oh, ow, cin, fh, fw) -> (n, oh, ow, fh, fw, cin), the weight layout's order
        patches = patches.transpose(0, 1, 2, 4, 5, 3)
        cols, slots = self._patch_matrix(*patches.shape[1:3], x.dtype)
        for i in range(x.shape[0]):
            slots[...] = patches[i]
            yield i, cols

    def _patch_matrix(self, oh, ow, dtype):
        """An empty (oh·ow, fh·fw·cin) patch matrix and a view of its
        memory shaped (oh, ow, fh, fw, cin) to copy patches into.
        Offset-major when that copies the longer contiguous runs: one
        input channel and ow > fw; row-major otherwise."""
        fh, fw, cin, _ = self.weights.shape
        rows, taps = oh * ow, fh * fw * cin
        if cin == 1 and ow > fw:
            buf = np.empty((fh, fw, cin, oh, ow), dtype=dtype)
            return buf.reshape(taps, rows).T, buf.transpose(3, 4, 0, 1, 2)
        buf = np.empty((oh, ow, fh, fw, cin), dtype=dtype)
        return buf.reshape(rows, taps), buf

    def backward(self, d_out, cache, input_grad=True):
        x, active = cache
        fh, fw, cin, cout = self.weights.shape
        n, oh, ow, _ = active.shape
        plane = oh * ow
        routed = Routed.of(d_out)
        at = routed.pos + np.arange(0, n * plane, plane)[:, None, None]  # row in (n·oh·ow)
        entry = at * cout + np.arange(cout)  # element of (n, oh, ow, cout)
        dz = relu_grad(routed.grad, active.reshape(-1).take(entry))
        # the rows listed in some channel, in order, and the masked gradient on each
        listed = np.zeros(n * plane, dtype=bool)
        listed[at] = True
        rows = np.flatnonzero(listed)
        rank = np.cumsum(listed, dtype=np.int32) - 1
        dz_rows = np.zeros((rows.size, cout), dtype=dz.dtype)
        dz_rows.reshape(-1)[rank[at] * cout + np.arange(cout)] = dz
        h, w = x.shape[1:3]
        flat_x = x.reshape(-1)
        run = np.dtype((np.void, fw * cin * flat_x.itemsize))
        runs = np.lib.stride_tricks.sliding_window_view(flat_x, fw * cin).view(run)[:, 0]
        clip, p = np.divmod(rows, plane)
        first = ((clip * h + p // ow) * w + p % ow) * cin  # each row's first input value
        run_starts = np.arange(fh) * w * cin
        d_w = np.zeros((fh * fw * cin, cout), dtype=np.result_type(x, dz))
        for k in range(0, rows.size, CHUNK_ROWS):
            cols = runs[first[k : k + CHUNK_ROWS, None] + run_starts].view(x.dtype)
            d_w += cols.reshape(-1, fh * fw * cin).T @ dz_rows[k : k + CHUNK_ROWS]
        grads = self.grads(d_w.reshape(self.weights.shape), dz.sum(axis=(0, 1)))
        if not input_grad:
            return None, grads
        dz_all = routed._replace(grad=dz).dense().reshape(-1, cout)
        d_x = np.zeros(x.shape, dtype=dz.dtype)
        for a in range(fh):
            for b in range(fw):
                d_x[:, a : a + oh, b : b + ow, :] += (dz_all @ self.weights[a, b].T).reshape(
                    n, oh, ow, cin)
        return d_x, grads


class MaxPool2D(Layer):
    """Non-overlapping max pooling; trailing rows/columns that do not fill
    a window are dropped.

    Both modes take the same max: np.maximum over the pool_w column
    offsets, then over the pool_h row offsets, of strided views of the
    input, with the running max as the second operand. np.maximum
    returns its second operand when the two are equal (+0.0 and -0.0
    included), so a later value replaces the running max only when it
    is greater, which is argmax's first-max rule. A tile holding NaN has
    a NaN max; when its NaNs differ in sign or payload, the max carries
    the bits np.maximum keeps, which need not be the winner's. Infer mode
    caches nothing (None).

    Train mode also caches each tile's winner, argmax's index into
    `tiles`: the first position in row-major order equal to the max, or
    the first NaN in a tile holding one. It finds it by comparing each
    offset's strided view with the max, last offset to first, and
    writing the offset where they match, so no copy of the input is made
    (pool1's at batch 64 is 16 MB). Backward returns a `Routed` gradient
    that lists each winner and the output gradient at it: gradient mass
    is conserved, and no input-shaped array is built."""

    def __init__(self, name, pool_h, pool_w):
        super().__init__(name)
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

    def _tile_max(self, x):
        """Each tile's max: np.maximum over the pool_w column offsets, then
        the pool_h row offsets, of strided views of x, the running max
        second."""
        ph, pw = self.pool_h, self.pool_w
        h, w = x.shape[1] // ph * ph, x.shape[2] // pw * pw
        cols = x[:, :h, 0:w:pw]
        for j in range(1, pw):
            cols = np.maximum(x[:, :h, j:w:pw], cols)
        y = cols[:, 0::ph]
        for i in range(1, ph):
            y = np.maximum(cols[:, i::ph], y)
        return y

    def forward(self, x, mode="infer", rng=None):
        if x.ndim != 4:
            raise VoicehandError(f"{self.name}: expected 4D input, got {x.shape}")
        if x.shape[1] < self.pool_h or x.shape[2] < self.pool_w:
            raise VoicehandError(f"{self.name}: input {x.shape} smaller than pool window")
        y = self._tile_max(x)
        if mode != "train":
            return y, None
        # Each tile's winner is its first position equal to y, or its first
        # NaN when y is NaN: argmax's rule. Offsets are visited last to
        # first, so the first hit is written last. y is one of its tile's
        # values, so every tile has a hit and every entry is written.
        n, _, _, c = x.shape
        ph, pw = self.pool_h, self.pool_w
        oh, ow = y.shape[1:3]
        windows = x[:, : oh * ph, : ow * pw].reshape(n, oh, ph, ow, pw, c)
        has_nan = bool(np.isnan(y).any())
        argmax = np.empty(y.shape, dtype=np.intp)
        hit = np.empty(y.shape, dtype=bool)
        for k in reversed(range(ph * pw)):
            at = windows[:, :, k // pw, :, k % pw, :]
            np.equal(at, y, out=hit)
            if has_nan:
                hit |= np.isnan(at)
            np.copyto(argmax, k, where=hit)
        return y, (argmax, x.shape)

    def backward(self, d_out, cache):
        argmax, x_shape = cache
        n, h, w, c = x_shape
        ph, pw = self.pool_h, self.pool_w
        oh, ow = h // ph, w // pw
        corner = (np.arange(oh)[:, None] * ph * w + np.arange(ow) * pw).reshape(-1, 1)
        in_tile = (np.arange(ph)[:, None] * w + np.arange(pw)).ravel()
        pos = corner + in_tile[argmax.reshape(n, oh * ow, c)]
        return Routed(x_shape, pos, d_out.reshape(n, oh * ow, c)), {}


class BatchNorm(Layer):
    """Per-channel batch normalization.

    Train mode standardizes with the batch mean and biased variance over
    all batch/height/width positions and nudges the moving statistics;
    infer mode uses the moving statistics and never mutates state.
    """

    PARAMS = ("gamma", "beta")
    STATE = ("moving_mean", "moving_var")

    def __init__(self, name, channels, epsilon=1e-3, momentum=0.99, dtype=np.float32):
        super().__init__(name)
        self.epsilon = epsilon
        self.momentum = momentum
        self.gamma = np.ones(channels, dtype=dtype)
        self.beta = np.zeros(channels, dtype=dtype)
        self.moving_mean = np.zeros(channels, dtype=dtype)
        self.moving_var = np.ones(channels, dtype=dtype)

    def forward(self, x, mode="infer", rng=None):
        if x.shape[-1] != self.gamma.shape[0]:
            raise VoicehandError(
                f"{self.name}: expected {self.gamma.shape[0]} channels, got {x.shape}"
            )
        axes = tuple(range(x.ndim - 1))
        if mode == "train":
            if x.shape[0] == 0:
                raise VoicehandError(f"{self.name}: train-mode forward on an empty batch")
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
        return d_x, self.grads(d_gamma, d_beta)


class Flatten(Layer):
    def forward(self, x, mode="infer", rng=None):
        return x.reshape(x.shape[0], -1), x.shape

    def backward(self, d_out, cache):
        return d_out.reshape(cache), {}


class Dense(Layer):
    """Fully connected layer: out = activation(x @ W + b).

    activation is "relu", "softmax", or None. Backward takes the
    gradient at the activation's output, except for softmax: a softmax
    Dense ends the network, whose loss gradient is fused with the softmax
    and arrives at the logits (see `Network.backward`), so its backward
    takes the gradient at the logits.
    """

    PARAMS = ("weights", "biases")

    def __init__(self, name, weights, biases, activation=None):
        super().__init__(name)
        self.weights = weights
        self.biases = biases
        self.activation = activation

    def forward(self, x, mode="infer", rng=None):
        if x.ndim != 2 or x.shape[1] != self.weights.shape[0]:
            raise VoicehandError(
                f"{self.name}: expected (n, {self.weights.shape[0]}), got {x.shape}"
            )
        z = x @ self.weights + self.biases
        if self.activation == "relu":
            return np.maximum(z, 0.0), (x, z > 0.0)
        if self.activation == "softmax":
            return softmax(z), (x, None)
        return z, (x, None)

    def backward(self, d_out, cache, input_grad=True):
        x, active = cache
        dz = d_out if active is None else relu_grad(d_out, active)
        d_w = x.T @ dz
        d_b = dz.sum(axis=0)
        grads = self.grads(d_w, d_b)
        if not input_grad:
            return None, grads
        return dz @ self.weights.T, grads


class Dropout(Layer):
    """Inverted dropout: training zeroes each element with probability
    `rate` and scales survivors by 1/(1-rate); inference is the identity.
    The cache is the keep mask, or None where nothing was dropped (infer
    mode, rate 0), for which backward passes the gradient through."""

    def __init__(self, name, rate=0.5):
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate {rate} outside [0, 1)")
        super().__init__(name)
        self.rate = rate

    def forward(self, x, mode="infer", rng=None):
        if mode != "train" or self.rate == 0.0:
            return x, None
        if rng is None:
            raise ValueError(f"{self.name}: train-mode dropout needs an rng")
        mask = rng.random(x.shape) >= self.rate
        return np.where(mask, x / (1.0 - self.rate), 0.0), mask

    def backward(self, d_out, cache):
        mask = cache
        if mask is None:
            return d_out, {}
        return np.where(mask, d_out / (1.0 - self.rate), 0.0), {}
