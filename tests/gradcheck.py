"""Finite-difference verification of the analytic gradients.

Central differences on the mean cross-entropy loss, parameter by
parameter. The check runs the network without its dropout layers and
restores batch-norm moving statistics when it ends (train-mode
batch-norm never reads them), so each loss evaluation sees identical
network state. Build the network under test with float64; at
float32 the h=1e-5 probes drown in rounding noise.

Finite differences are only trustworthy when no probe crosses a ReLU or
max-pool tie, so check batches should be drawn with draw_checkable_batch,
which rejects inputs until every tie margin clears a per-layer threshold.
"""

from contextlib import contextmanager

import numpy as np

from voicehand.layers import BatchNorm, Dropout, MaxPool2D
from voicehand.network import INPUT_SHAPE, Network, run_layers
from voicehand.train import N_CLASSES, cross_entropy

DENOM_FLOOR = 1e-5  # smallest denominator of a relative error; see gradient_check


@contextmanager
def _probe_mode(network: Network):
    """The network without its dropout layers, as a Network sharing every
    other layer; batch-norm moving statistics are put back on exit.
    Inside, every layer runs as `layer.forward(h, "train")`: batch-norm
    standardizes with batch statistics, which the moving statistics never
    feed, so every loss evaluation sees the same network.
    """
    norms = [l for l in network.layers if isinstance(l, BatchNorm)]
    stats = [(l.moving_mean.copy(), l.moving_var.copy()) for l in norms]
    try:
        yield Network([l for l in network.layers if not isinstance(l, Dropout)], network.dtype)
    finally:
        for layer, (mean, var) in zip(norms, stats):
            layer.moving_mean[...] = mean
            layer.moving_var[...] = var


def pool_tiles(x, ph, pw):
    """The (ph, pw) max-pool tiles of x as (n, oh, ow, ph * pw, c),
    row-major within a tile; trailing rows and columns that fill no tile
    are dropped, as MaxPool2D drops them."""
    n, h, w, c = x.shape
    oh, ow = h // ph, w // pw
    tiles = x[:, : oh * ph, : ow * pw].reshape(n, oh, ph, ow, pw, c).transpose(0, 1, 3, 2, 4, 5)
    return tiles.reshape(n, oh, ow, ph * pw, c)


def tie_margins(network: Network, x) -> dict:
    """Distance of each kinked layer from its nearest tie, {layer: margin}.

    For ReLU layers the margin is min |pre-activation|; for max pools it is
    the smallest gap between a tile's top two values. A parameter probe of
    size h moves a pre-activation by at most h times the probe's
    sensitivity, so margins above a sensitivity-aware threshold guarantee
    kink-free loss evaluations. Runs in `_probe_mode`, so margins are
    meaningful for dropout-off checks only.
    """
    h_act = np.asarray(x, dtype=network.dtype)
    margins = {}
    with _probe_mode(network) as probe:
        for layer in probe.layers:
            if isinstance(layer, MaxPool2D):
                tiles = pool_tiles(h_act, layer.pool_h, layer.pool_w)
                top2 = np.partition(tiles, -2, axis=3)[:, :, :, -2:, :]
                margins[layer.name] = float((top2[..., 1, :] - top2[..., 0, :]).min())
            if getattr(layer, "activation", None) == "relu":
                margins[layer.name] = _relu_margin(layer, h_act)
            h_act, _ = layer.forward(h_act, "train")
    return margins


def _relu_margin(layer, x) -> float:
    """min |pre-activation| of a ReLU Conv2D or Dense on input x; a conv's
    pre-activations are taken clip by clip, as its forward takes them."""
    w = layer.weights.reshape(-1, layer.weights.shape[-1])
    if hasattr(layer, "lowered"):
        parts = (cols @ w for _, cols in layer.lowered(x))
    else:
        parts = (x @ w,)
    return float(min(np.abs(z + layer.biases).min() for z in parts))


def draw_checkable_batch(network: Network, rng, thresholds: dict, batch_size: int = 2,
                         max_tries: int = 500):
    """Random (x, labels, margins) whose tie margins clear `thresholds`.

    Draws standard-normal inputs until every layer named in `thresholds`
    has margin at least its threshold; a clean draw typically lands within
    a handful of tries when conv weights are scaled up for clearance.
    """
    for _ in range(max_tries):
        x = rng.normal(size=(batch_size,) + INPUT_SHAPE)
        margins = tie_margins(network, x)
        if all(margins[name] >= m for name, m in thresholds.items()):
            labels = rng.integers(N_CLASSES, size=batch_size)
            return x, labels, margins
    raise RuntimeError(f"no tie-free batch within {max_tries} draws; thresholds {thresholds}")


def gradient_check(network: Network, x, targets_onehot, h: float = 1e-5, names=None) -> dict:
    """Max relative error per parameter tensor, {name: error}.

    Relative error is |analytic - numeric| / max(|analytic|, |numeric|,
    DENOM_FLOOR). The floor turns near-zero pairs into an absolute
    comparison: float64 central differences at h=1e-5 only resolve
    absolute differences down to about 1e-10 (machine epsilon times the
    loss over 2h), so without a floor, roundoff on tiny gradients
    masquerades as relative error. Structural gradient bugs also corrupt
    large gradients, which the floor never touches. `names` restricts the
    check to a subset of parameter tensors.

    Perturbing layer k's parameters cannot change activations before
    layer k, so each probe reruns only the suffix of the network from the
    perturbed layer on, against cached inputs.
    """
    x = np.asarray(x, dtype=network.dtype)
    targets = np.asarray(targets_onehot, dtype=network.dtype)
    labels = np.argmax(targets, axis=1)

    with _probe_mode(network) as probe:
        _, trace = probe.forward(x, mode="train")
        analytic = probe.backward(trace, targets)

        # unperturbed input to every layer, for suffix-only probe forwards
        layer_inputs = []
        h_act = x
        for layer in probe.layers:
            layer_inputs.append(h_act)
            h_act, _ = layer.forward(h_act, "train")
        owner = {layer.name: k for k, layer in enumerate(probe.layers)}

        params = probe.parameters()
        if names is not None:
            wanted = set(names)
            params = {k: v for k, v in params.items() if k in wanted}

        worst = {}
        for name, theta in params.items():
            start = owner[name.split(".")[0]]
            suffix = probe.layers[start:]
            grad = np.asarray(analytic[name]).reshape(-1)
            tensor_worst = 0.0
            for i in range(theta.size):
                orig = float(theta.flat[i])
                theta.flat[i] = orig + h  # .flat writes through views too
                probs = run_layers(suffix, layer_inputs[start], "train")
                loss_plus = cross_entropy(probs, labels)
                theta.flat[i] = orig - h
                probs = run_layers(suffix, layer_inputs[start], "train")
                loss_minus = cross_entropy(probs, labels)
                theta.flat[i] = orig
                numeric = (loss_plus - loss_minus) / (2.0 * h)
                a = float(grad[i])
                err = abs(a - numeric) / max(abs(a), abs(numeric), DENOM_FLOOR)
                tensor_worst = max(tensor_worst, err)
            worst[name] = tensor_worst
    return worst
