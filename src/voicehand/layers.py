"""Network layers with hand-written forward and backward passes.

Activations are tensors in channels-last layout: (batch, height, width,
channels) for the 2D stages, (batch, features) after flattening. Every
layer subclasses `Layer`, which states the calling convention all six
share and names each layer's stored tensors. Parameter dtype is float32
in production and float64 in verification builds; a layer never changes
the dtype it was built with.

Only train mode builds what backward reads. In infer mode Conv2D,
MaxPool2D, BatchNorm and Dropout return None as their cache: MaxPool2D
returns its max without the winners, BatchNorm uses its
moving statistics and Dropout passes its input through. Conv2D runs the
same loop in both modes and keeps no patches in either; in train mode it
caches its input and ReLU mask. MaxPool2D finds each tile's winner rows
first over contiguous row slabs, a few clips at a time; infer mode on a
small input takes a columns-first max over strided views instead.
Neither copies its input. Backward needs a train-mode cache.

Every backward returns a dense input gradient except MaxPool2D's: a
pool tile passes its gradient to one input, its winner, so the pool
returns a `Routed` gradient listing the winners. Conv2D's backward
takes only a `Routed` gradient, as both of the network's convs sit
under pools: it reads its ReLU mask and gathers patches at the listed
positions only.

Conv2D's forward runs the convolution as matmuls on patch matrices
lowered one clip at a time into one reused buffer. With one input
channel and an output wider than the filter (conv1 on a full window),
one patch row feeds ROW_BLOCK vertically adjacent output rows through a
banded weight matrix; otherwise a patch row feeds one output position
(conv2). Either way each output sums the same products in the same
order. See Conv2D.
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

# Output rows one patch row feeds in Conv2D's row-block lowering (see
# Conv2D). Conv1's forward on a 2-core VM, OpenBLAS 0.3.31 at 2 threads,
# medians of five rounds over R: at batch 64, 26.5 ms at R = 4, 22-23 ms
# from 6 to 24, 30.9 ms at 40; at batch 1, 0.32-0.34 ms from 6 to 16,
# 0.55 ms at 40; on a 140 ms stream hop's 16 frames, 0.094 ms at 4,
# 0.106 ms at 8, 0.142 ms at 16. 8 divides conv1's 120 output rows.
ROW_BLOCK = 8

# Input values one pass of MaxPool2D's winners' scan works on, in whole
# clips: 8 of pool1's, all of pool2's at batch 64; infer mode takes the
# scan from this size on (see MaxPool2D). Pool1's train forward at batch
# 64 on the same VM, medians of five rounds: 6.8 ms a clip at a time,
# 4.0-4.2 ms at 4 to 16 clips, 5.4 ms at all 64, whose temporaries also
# peak 4x higher.
POOL_CHUNK = 2**19


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
    conv layer below reads its ReLU mask and patches at the winners only."""

    shape: tuple
    pos: np.ndarray
    grad: np.ndarray

    def dense(self):
        """The gradient as a (n, h, w, c) array, +0.0 where nothing is listed."""
        n, h, w, c = self.shape
        out = np.zeros((n, h * w, c), dtype=self.grad.dtype)
        np.put_along_axis(out, self.pos, self.grad, axis=1)
        return out.reshape(self.shape)


class Conv2D(Layer):
    """Valid (no padding) cross-correlation, stride 1, ReLU activation.

    Weights are (filter_h, filter_w, in_channels, out_channels). A patch
    matrix has one row per output position and fh·fw·cin columns in the
    weight layout's order, so the contraction is `cols @ W` and the
    weight gradient `cols.T @ dz`.

    Forward, in either mode, is one loop over the clips: lower the clip
    into one reused buffer, matmul, add the bias, ReLU. Per-clip matmuls
    give a batch-wide matmul's bits, as a gemm sums each output over the
    same taps in the same order whatever its row count. Train mode
    caches the input and the ReLU mask, (x, active): 6 MiB for conv1 at
    batch 64, against 133 MiB for its whole patch matrix. Infer mode
    caches nothing (None).

    With one input channel and ow > fw (conv1 on a full window, and on a
    stream hop of 140 ms and more), a patch row feeds R = ROW_BLOCK
    vertically adjacent output rows: it holds the (fh + R - 1)·fw taps
    they read, and a banded (taps, R·cout) weight matrix, whose output
    row j holds the filter shifted down j rows and exact zeros elsewhere,
    gives all R outputs in one product. The patches are lowered at the
    clip's full width from a zero-padded copy of it, so each tap copies
    runs of w input values, and the columns past ow and rows past oh are
    dropped as the bias is added. OpenBLAS's gemm kernel sums each
    output over its taps in order, and a zero tap adds an exact zero, so
    the outputs are the bits of the patch matrix times the weights: of a
    column-major patch matrix at any width, and of a row-major one but
    where a float32 product is small enough for OpenBLAS's small-matrix
    kernel, which rounds differently (conv1 on a 140 ms hop's 16
    frames). A zero tap times an infinite or NaN input is NaN, though: a
    non-finite input value makes NaN in all R output rows of each block
    that reads it, at the columns that read it, not only in the rows
    whose filter covers it. Such a window's output is not finite either
    way, and `network.run_layers` refuses it.

    Otherwise (conv2, 8 channels; conv1 on a 70 ms stream hop's 11
    frames, ow 5) a patch row is one output position, lowered row-major
    by `lowered`, one run of fw·cin values per filter row.

    Backward takes the output gradient as a `Routed`, the max pool's
    above it: only each tile's winner has a gradient, 1 in 35 conv1
    outputs. Backward reads the ReLU mask at the listed entries only; a
    tile whose ReLU outputs are all 0 lists its first position, whose
    mask is off, so it passes no gradient. It gathers the patches of the
    rows listed in some channel, in row-major order, from the cached
    input, which must not change between the two calls: a patch is fh
    runs of fw·cin neighbouring input values, copied a run at a time.
    The bias gradient sums the masked gradient over the listed entries.
    The weight gradient is summed chunk by chunk, `d_w += cols_k.T @
    dz_k`, over CHUNK_ROWS gathered rows at a time (the last chunk
    shorter), in order. Fixing the chunks fixes the summation order: one
    gemm over every row of the batch is split by OpenBLAS in a way that
    depends on its thread count, and gave different weight-gradient bits
    at 1 and 2 threads. The input gradient fills the masked gradient
    into a dense (n·oh·ow, cout) array, multiplies it by one filter
    tap's (cin, cout) weights at a time and adds each product at its
    tap's offset, so each add runs over rows of ow·cin contiguous
    values. As a network's first layer Conv2D runs backward with
    input_grad=False, which skips the input gradient.
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
        z = np.empty((n, oh, ow, cout), dtype=np.result_type(x, self.weights, self.biases))
        # row blocks where they beat row-major patches: conv1 at batch 1 on
        # the 2-core VM took 0.09-0.11 ms against 0.07-0.10 at ow 5 (a 70 ms
        # hop), level at ow 7, 0.10-0.13 against 0.12-0.17 at ow 10 (140 ms)
        fill = self._row_blocks if cin == 1 and ow > fw else self._rows
        for zi in fill(x, z):
            np.maximum(zi, 0.0, out=zi)
        if mode != "train":
            return z, None
        return z, (x, z > 0.0)

    def _rows(self, x, z):
        """Fill z with x's pre-activations clip by clip, one output
        position per patch row; yields each clip's filled z[i]."""
        cout = z.shape[3]
        w = self.weights.reshape(-1, cout)
        # the bias once per output row: the adds of `+= biases` over (oh·ow, cout)
        row_bias = np.tile(self.biases, z.shape[2])
        for i, cols in self.lowered(x):
            np.matmul(cols, w, out=z[i].reshape(-1, cout))
            z_rows = z[i].reshape(z.shape[1], -1)
            z_rows += row_bias
            yield z[i]

    def _row_blocks(self, x, z):
        """Fill z with the pre-activations of x's one channel clip by clip,
        ROW_BLOCK output rows per patch row (see the class docstring);
        yields each clip's filled z[i]."""
        fh, fw, _, cout = self.weights.shape
        n, h, w, _ = x.shape
        oh, ow = z.shape[1:3]
        r = ROW_BLOCK
        blocks, taps = -(-oh // r), fh + r - 1  # taps: the input rows one block reads
        band = np.zeros((taps, fw, r, cout), dtype=self.weights.dtype)
        for j in range(r):
            band[j : j + fh, :, j] = self.weights[:, :, 0]
        band = band.reshape(taps * fw, r * cout)
        # a clip over zeros: a block's patch row reads fw - 1 values past the
        # end of an input row, and the last block reads rows past the clip
        padded = np.zeros((blocks * r + fh, w), dtype=x.dtype)
        step = padded.strides[1]
        patches = np.lib.stride_tricks.as_strided(
            padded, (taps, fw, blocks, w), (w * step, step, r * w * step, step), writeable=False)
        buf = np.empty(patches.shape, dtype=x.dtype)
        cols = buf.reshape(taps * fw, blocks * w).T
        out = np.empty((blocks * w, r * cout), dtype=z.dtype)
        # (block, output row in block, column, channel), cropped to ow columns
        blocked = out.reshape(blocks, w, r, cout)[:, :ow].transpose(0, 2, 1, 3)
        whole = oh // r
        for i in range(n):
            padded[:h] = x[i, :, :, 0]
            buf[...] = patches
            np.matmul(cols, band, out=out)
            np.add(blocked[:whole], self.biases, out=z[i, : whole * r].reshape(whole, r, ow, cout))
            if whole < blocks:
                np.add(blocked[whole, : oh - whole * r], self.biases, out=z[i, whole * r :])
            yield z[i]

    def lowered(self, x):
        """x's row-major patch matrices clip by clip: yields (clip, cols),
        cols a (oh·ow, fh·fw·cin) view of one buffer that the next clip
        overwrites."""
        fh, fw, _, _ = self.weights.shape
        patches = np.lib.stride_tricks.sliding_window_view(x, (fh, fw), axis=(1, 2))
        # (n, oh, ow, cin, fh, fw) -> (n, oh, ow, fh, fw, cin), the weight layout's order
        patches = patches.transpose(0, 1, 2, 4, 5, 3)
        buf = np.empty(patches.shape[1:], dtype=x.dtype)
        cols = buf.reshape(-1, fh * fw * x.shape[3])
        for i in range(x.shape[0]):
            buf[...] = patches[i]
            yield i, cols

    def backward(self, routed, cache, input_grad=True):
        x, active = cache
        fh, fw, cin, cout = self.weights.shape
        n, oh, ow, _ = active.shape
        plane = oh * ow
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

    Each output is the bits of its tile's first max in row-major order,
    argmax's first-max rule, sign of zero included, in either mode and
    by either of two scans.

    The winners' scan finds each tile's winner, argmax's index into the
    tile's values in row-major order, and returns the winner's own bits.
    It works rows first over contiguous slabs of ow·pw·c values,
    POOL_CHUNK input values at a time: for each tile column a running
    max, and the first row that reached it, `first = max(first, (row >
    max) · a)`. It then moves the columns to the front, the c values of
    a tile column as one item, and takes among the columns whose max
    equals the tile's the smallest a·pw + b, in the smallest unsigned
    type that holds pw·ph. NaN is greater than nothing, so the scan
    cannot find it; a chunk holding one takes the winner as the first
    position equal to the strided max below, or the first NaN, by
    comparing each offset's strided view with it, and that max's bits as
    y. No copy of the input is made (pool1's at batch 64 is 16 MB).

    The strided max takes np.maximum over the pool_w column offsets,
    then over the pool_h row offsets, of strided views of the input,
    with the running max as the second operand. np.maximum returns its
    second operand when the two are equal (+0.0 and -0.0 included), so
    a later value replaces the running max only when it is greater.

    Train mode runs the winners' scan and caches the winners as intp.
    Infer mode caches nothing (None); it runs the winners' scan on an
    input of POOL_CHUNK values or more and the strided max on a smaller
    one, whose ten calls cost less than the scan's two dozen. On a
    2-core VM the strided max took 0.07 against 0.11 ms on pool1 at
    batch 1, 0.011 against 0.049 ms on pool2 at batch 1 and 0.09 against
    0.22 ms at batch 64 (below POOL_CHUNK), and 4.5 against 3.9 ms on
    pool1 at batch 64.

    Backward returns a `Routed` gradient that lists each winner and the
    output gradient at it: gradient mass is conserved, and no
    input-shaped array is built."""

    def __init__(self, name, pool_h, pool_w):
        super().__init__(name)
        self.pool_h = pool_h
        self.pool_w = pool_w

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
        if mode != "train" and x.size < POOL_CHUNK:
            return self._tile_max(x), None
        n, h, w, c = x.shape
        shape = (n, h // self.pool_h, w // self.pool_w, c)
        y = np.empty(shape, dtype=x.dtype)
        argmax = np.empty(shape, dtype=np.intp)
        step = max(1, POOL_CHUNK // x[0].size)
        for lo in range(0, n, step):
            self._winners(x[lo : lo + step], y[lo : lo + step], argmax[lo : lo + step])
        if mode != "train":
            return y, None
        return y, (argmax, x.shape)

    def _winners(self, x, y, argmax):
        """Fill y and argmax with x's tile maxima and winners, rows first
        (see the class docstring)."""
        n, _, _, c = x.shape
        ph, pw = self.pool_h, self.pool_w
        oh, ow = y.shape[1:3]
        slab = (n, oh, ow * pw * c)
        rows = [x[:, a : oh * ph : ph, : ow * pw].reshape(slab) for a in range(ph)]
        col_max = rows[0].copy()
        # the smallest unsigned type holding ph·pw: every a·pw + b is below its max
        key_type = np.min_scalar_type(ph * pw)
        first = np.zeros(slab, dtype=key_type)  # the first row at col_max
        greater = np.empty(slab, dtype=bool)
        rose = np.empty(slab, dtype=key_type)
        for a in range(1, ph):
            np.greater(rows[a], col_max, out=greater)
            np.maximum(rows[a], col_max, out=col_max)  # col_max stays on a tie
            np.multiply(greater, key_type.type(a), out=rose)
            np.maximum(first, rose, out=first)
        del greater, rose
        # (pw, tiles, c): column b of every tile, contiguous
        tiles = n * oh * ow
        key = _columns_first(first, pw, c)
        del first
        key *= key_type.type(pw)
        key += np.arange(pw, dtype=key_type)[:, None, None]  # a·pw + b, the winner's index
        col_max = _columns_first(col_max, pw, c)
        tile_max = col_max.max(axis=0)
        if np.isnan(tile_max).any():
            return self._first_equal(x, y, argmax)
        below = np.not_equal(col_max, tile_max).astype(key_type)
        key |= np.negative(below, out=below)  # all ones where a column's max is below the tile's
        winner = key.min(axis=0)
        argmax.reshape(tiles, c)[...] = winner
        at = (winner % key_type.type(pw)).astype(np.intp)
        at *= tiles * c
        at += np.arange(tiles * c).reshape(tiles, c)
        col_max.reshape(-1).take(at, out=y.reshape(tiles, c))

    def _first_equal(self, x, y, argmax):
        """Fill y with the strided max and argmax with each tile's first
        position equal to it, or its first NaN when the max is NaN."""
        n, _, _, c = x.shape
        ph, pw = self.pool_h, self.pool_w
        oh, ow = y.shape[1:3]
        y[...] = self._tile_max(x)
        windows = x[:, : oh * ph, : ow * pw].reshape(n, oh, ph, ow, pw, c)
        hit = np.empty(y.shape, dtype=bool)
        # last offset to first, so the first hit is written last; y is one
        # of its tile's values, so every tile has a hit
        for k in reversed(range(ph * pw)):
            at = windows[:, :, k // pw, :, k % pw, :]
            np.equal(at, y, out=hit)
            hit |= np.isnan(at)
            np.copyto(argmax, k, where=hit)

    def backward(self, d_out, cache):
        argmax, x_shape = cache
        n, h, w, c = x_shape
        ph, pw = self.pool_h, self.pool_w
        oh, ow = h // ph, w // pw
        corner = (np.arange(oh)[:, None] * ph * w + np.arange(ow) * pw).reshape(-1, 1)
        in_tile = (np.arange(ph)[:, None] * w + np.arange(pw)).ravel()
        pos = corner + in_tile[argmax.reshape(n, oh * ow, c)]
        return Routed(x_shape, pos, d_out.reshape(n, oh * ow, c)), {}


def _columns_first(v, pw, c):
    """v, whose last axis runs over tiles of pw columns of c values, as a
    (pw, tiles, c) array: column b of every tile, contiguous. Each
    column's c values move as one item."""
    item = np.dtype((np.void, c * v.itemsize))
    out = np.empty((pw, v.size // (pw * c)), dtype=item)
    out[...] = v.reshape(-1, pw * c).view(item).T
    return out.view(v.dtype).reshape(pw, -1, c)


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

    activation is "relu" or "softmax". Backward takes the gradient at the
    ReLU's output, but a softmax Dense ends the network, whose loss
    gradient is fused with the softmax and arrives at the logits (see
    `Network.backward`), so its backward takes the gradient at the
    logits.
    """

    PARAMS = ("weights", "biases")

    def __init__(self, name, weights, biases, activation):
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
        return softmax(z), (x, None)

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
