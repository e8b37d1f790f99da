"""The fixed 9-class recognition network.

Architecture, in order: 129x71x1 log-spectrogram input -> conv 8@10x7
(ReLU) -> maxpool 7x5 -> batchnorm -> conv 32@7x5 (ReLU) -> maxpool 5x3
-> batchnorm -> flatten -> dense 64 (ReLU) -> dropout -> dense 9
(softmax). Pooling is non-overlapping: the published stride-1 figure for
the pooling rows contradicts the layer output shapes, and the shapes and
parameter counts only reconcile with stride = pool size, so shapes
govern. `ARCH` states the architecture once: `build_network` interprets
it and `output_shapes` derives every shape from it.

22577 trainable parameters plus 80 batch-norm moving statistics.
"""

from dataclasses import dataclass

import numpy as np

from .errors import CheckpointError, VoicehandError
from .features import FEATURE_SHAPE
from .layers import BatchNorm, Conv2D, Dense, Dropout, Flatten, MaxPool2D
from .rng import substream

INPUT_SHAPE = FEATURE_SHAPE + (1,)  # (129, 71, 1)

# architecture hyperparameters, also the checkpoint header's spec descriptor
ARCH = (
    {"type": "conv", "name": "conv1", "filters": 8, "filter_size": [10, 7], "stride": 1, "activation": "relu"},
    {"type": "maxpool", "name": "pool1", "pool_size": [7, 5]},
    {"type": "batchnorm", "name": "bn1", "channels": 8, "epsilon": 1e-3, "momentum": 0.99},
    {"type": "conv", "name": "conv2", "filters": 32, "filter_size": [7, 5], "stride": 1, "activation": "relu"},
    {"type": "maxpool", "name": "pool2", "pool_size": [5, 3]},
    {"type": "batchnorm", "name": "bn2", "channels": 32, "epsilon": 1e-3, "momentum": 0.99},
    {"type": "flatten", "name": "flatten"},
    {"type": "dense", "name": "dense1", "units": 64, "activation": "relu"},
    {"type": "dropout", "name": "dropout", "rate": 0.5},
    {"type": "dense", "name": "dense2", "units": 9, "activation": "softmax"},
)

# reference per-layer parameter counts (batch-norm rows include moving stats)
REFERENCE_LAYER_PARAMS = (568, 0, 32, 8992, 0, 128, 0, 12352, 0, 585)
REFERENCE_TRAINABLE = 22577
REFERENCE_NON_TRAINABLE = 80


@dataclass
class ForwardTrace:
    """Per-layer caches from a train-mode forward, consumed by backward."""

    caches: list
    probs: np.ndarray
    version: int


class Network:
    """An ordered layer stack with a shared dtype.

    Mutation discipline: anything that changes parameters bumps
    `version`; a ForwardTrace remembers the version it saw so backward
    can refuse to run against mutated weights.
    """

    def __init__(self, layers, dtype=np.float32):
        self.layers = list(layers)
        self.dtype = np.dtype(dtype)
        self.version = 0

    def __getitem__(self, name):
        for layer in self.layers:
            if layer.name == name:
                return layer
        raise KeyError(name)

    def mark_mutated(self):
        self.version += 1

    def forward(self, x, mode="infer", dropout_rng=None):
        """Run the stack; returns (probabilities, trace) in train mode and
        (probabilities, None) in infer mode, through `run_layers`."""
        h = np.asarray(x, dtype=self.dtype)
        if mode != "train":
            return run_layers(self.layers, h), None
        caches = []
        for layer in self.layers:
            h, cache = layer.forward(h, mode, dropout_rng)
            caches.append(cache)
        return h, ForwardTrace(caches=caches, probs=h, version=self.version)

    def backward(self, trace: ForwardTrace, targets: np.ndarray) -> dict:
        """Gradients of the mean cross-entropy loss for every trainable
        parameter. The softmax and the loss are differentiated together:
        the seed gradient at the final (softmax) Dense's logits is
        (p - onehot) / batch, which that layer's backward takes as it is.
        The first layer, a Conv2D or Dense, runs with input_grad=False:
        the network input is data, so its gradient would go unread."""
        if trace.version != self.version:
            raise VoicehandError("network parameters changed since this trace was recorded")
        targets = np.asarray(targets, dtype=self.dtype)
        if targets.shape != trace.probs.shape:
            raise VoicehandError(f"targets {targets.shape} vs probs {trace.probs.shape}")
        d = (trace.probs - targets) / trace.probs.shape[0]
        grads = {}
        for layer, cache in zip(self.layers[:0:-1], trace.caches[:0:-1]):
            d, layer_grads = layer.backward(d, cache)
            grads.update(layer_grads)
        grads.update(self.layers[0].backward(d, trace.caches[0], input_grad=False)[1])
        return grads

    def parameters(self) -> dict:
        """Trainable parameters in canonical layer order."""
        out = {}
        for layer in self.layers:
            out.update(layer.trainable())
        return out

    def state_tensors(self) -> list:
        """All stored tensors (trainable + moving statistics), canonical order."""
        out = []
        for layer in self.layers:
            out.extend(layer.state())
        return out


def build_network(seed=17, dtype=np.float32) -> Network:
    """Fresh network built from `ARCH`: Glorot-uniform weights drawn in
    layer order, zero biases, identity batch-norm (gamma 1, beta 0, moving
    mean 0, moving var 1). Each layer's fan-in is the previous layer's
    output shape: its channels for a conv, its length for a dense."""
    rng = substream(seed, "init")
    dtype = np.dtype(dtype)

    def glorot(shape, fan_in, fan_out):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-limit, limit, size=shape).astype(dtype)

    layers = []
    for spec, in_shape in zip(ARCH, [INPUT_SHAPE] + output_shapes()):
        kind, name = spec["type"], spec["name"]
        if kind == "conv":
            fh, fw = spec["filter_size"]
            cin, cout = in_shape[-1], spec["filters"]
            w = glorot((fh, fw, cin, cout), fh * fw * cin, fh * fw * cout)
            layers.append(Conv2D(name, w, np.zeros(cout, dtype=dtype)))
        elif kind == "maxpool":
            layers.append(MaxPool2D(name, *spec["pool_size"]))
        elif kind == "batchnorm":
            layers.append(BatchNorm(name, spec["channels"], spec["epsilon"], spec["momentum"], dtype))
        elif kind == "flatten":
            layers.append(Flatten(name))
        elif kind == "dense":
            n_in, n_out = in_shape[0], spec["units"]
            w = glorot((n_in, n_out), n_in, n_out)
            layers.append(Dense(name, w, np.zeros(n_out, dtype=dtype), activation=spec["activation"]))
        elif kind == "dropout":
            layers.append(Dropout(name, spec["rate"]))
    return Network(layers, dtype=dtype)


def run_layers(layers, h, mode="infer"):
    """Output of `layers` run in order on `h`, keeping no cache. In infer
    mode an output that is not finite raises `CheckpointError`, as argmax
    would pick its NaN as the decision."""
    for layer in layers:
        h, _ = layer.forward(h, mode)
    if mode == "infer" and not np.isfinite(h).all():
        raise CheckpointError(f"the network's {layers[-1].name} output is not finite")
    return h


def count_params(network: Network):
    """(trainable, non_trainable, per-layer totals). Per-layer totals count
    every stored tensor, so batch-norm rows include the moving statistics."""
    trainable = sum(a.size for _, a in network.parameters().items())
    total = sum(a.size for _, a in network.state_tensors())
    per_layer = [sum(a.size for _, a in layer.state()) for layer in network.layers]
    return trainable, total - trainable, per_layer


def output_shapes():
    """Static per-layer output shapes, derived from `ARCH` alone."""
    h, w, c = INPUT_SHAPE
    shapes = []
    for spec in ARCH:
        kind = spec["type"]
        if kind == "conv":
            fh, fw = spec["filter_size"]
            h, w, c = h - fh + 1, w - fw + 1, spec["filters"]
            shapes.append((h, w, c))
        elif kind == "maxpool":
            ph, pw = spec["pool_size"]
            h, w = h // ph, w // pw
            shapes.append((h, w, c))
        elif kind == "batchnorm":
            shapes.append((h, w, c))
        elif kind == "flatten":
            c = h * w * c
            shapes.append((c,))
        elif kind == "dense":
            c = spec["units"]
            shapes.append((c,))
        elif kind == "dropout":
            shapes.append((c,))
    return shapes


def layer_table(network: Network):
    """Rows for the architecture summary: (index, type, detail, activation,
    output shape, stored parameter count)."""
    _, _, per_layer = count_params(network)
    shapes = output_shapes()
    rows = [(0, "input (log spectrogram)", "-", "-", "x".join(map(str, INPUT_SHAPE)), 0)]
    for i, (spec, shape, n_params) in enumerate(zip(ARCH, shapes, per_layer), start=1):
        kind = spec["type"]
        if kind == "conv":
            detail = f"{spec['filters']} @ {spec['filter_size'][0]}x{spec['filter_size'][1]}"
        elif kind == "maxpool":
            detail = f"{spec['pool_size'][0]}x{spec['pool_size'][1]}"
        elif kind == "dropout":
            detail = f"rate {spec['rate']}"
        elif kind == "dense":
            detail = f"{spec['units']} units"
        else:
            detail = "-"
        activation = spec.get("activation", "-") or "-"
        rows.append((i, kind, detail, activation, "x".join(map(str, shape)), n_params))
    return rows
