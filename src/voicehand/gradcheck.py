"""Finite-difference verification of the analytic gradients.

Central differences on the mean cross-entropy loss, parameter by
parameter. Dropout is forced off for the duration and batch-norm moving
statistics are restored when the check ends (train-mode batch-norm never
reads them), so each loss evaluation sees identical network state. Build the network under test with float64; at
float32 the h=1e-5 probes drown in rounding noise.

Finite differences are only trustworthy when no probe crosses a ReLU or
max-pool tie, so check batches should be drawn with draw_checkable_batch,
which rejects inputs until every tie margin clears a per-layer threshold.
"""

from contextlib import contextmanager

import numpy as np

from .layers import BatchNorm, Dropout
from .network import INPUT_SHAPE, Network
from .train import cross_entropy


@contextmanager
def _probe_mode(network: Network):
    """Dropout off for the duration, batch-norm moving statistics put back
    on exit. Inside, every layer runs as `layer.forward(h, "train")`:
    batch-norm standardizes with batch statistics, which the moving
    statistics never feed, so every loss evaluation sees the same network.
    """
    dropouts = [l for l in network.layers if isinstance(l, Dropout)]
    norms = [l for l in network.layers if isinstance(l, BatchNorm)]
    rates = [l.rate for l in dropouts]
    stats = [(l.moving_mean.copy(), l.moving_var.copy()) for l in norms]
    try:
        for layer in dropouts:
            layer.rate = 0.0
        yield
    finally:
        for layer, rate in zip(dropouts, rates):
            layer.rate = rate
        for layer, (mean, var) in zip(norms, stats):
            layer.moving_mean[...] = mean
            layer.moving_var[...] = var


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
    with _probe_mode(network):
        for layer in network.layers:
            if hasattr(layer, "tiles"):
                top2 = np.partition(layer.tiles(h_act), -2, axis=3)[:, :, :, -2:, :]
                margins[layer.name] = float((top2[..., 1, :] - top2[..., 0, :]).min())
            h_act, cache = layer.forward(h_act, "train")
            if getattr(layer, "activation", None) == "relu":
                # cache[0] is the conv patch matrix or the dense input
                w = layer.weights
                z = cache[0] @ w.reshape(-1, w.shape[-1]) + layer.biases
                margins[layer.name] = float(np.abs(z).min())
    return margins


def draw_checkable_batch(network: Network, rng, thresholds: dict, batch_size: int = 2,
                         n_classes: int = 9, max_tries: int = 500):
    """Random (x, labels, margins) whose tie margins clear `thresholds`.

    Draws standard-normal inputs until every layer named in `thresholds`
    has margin at least its threshold; a clean draw typically lands within
    a handful of tries when conv weights are scaled up for clearance.
    """
    for _ in range(max_tries):
        x = rng.normal(size=(batch_size,) + INPUT_SHAPE)
        margins = tie_margins(network, x)
        if all(margins[name] >= m for name, m in thresholds.items()):
            labels = rng.integers(n_classes, size=batch_size)
            return x, labels, margins
    raise RuntimeError(f"no tie-free batch within {max_tries} draws; thresholds {thresholds}")


def _forward_suffix(network: Network, start: int, h_act):
    """Forward through layers[start:]; call inside `_probe_mode`."""
    for layer in network.layers[start:]:
        h_act, _ = layer.forward(h_act, "train")
    return h_act


def gradient_check(network: Network, x, targets_onehot, h: float = 1e-5, names=None,
                   denom_floor: float = 1e-5) -> dict:
    """Max relative error per parameter tensor, {name: error}.

    Relative error is |analytic - numeric| / max(|analytic|, |numeric|,
    denom_floor). The floor turns near-zero pairs into an absolute
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

    with _probe_mode(network):
        _, trace = network.forward(x, mode="train")
        analytic = network.backward(trace, targets)

        # unperturbed input to every layer, for suffix-only probe forwards
        layer_inputs = []
        h_act = x
        for layer in network.layers:
            layer_inputs.append(h_act)
            h_act, _ = layer.forward(h_act, "train")
        owner = {layer.name: k for k, layer in enumerate(network.layers)}

        params = network.parameters()
        if names is not None:
            wanted = set(names)
            params = {k: v for k, v in params.items() if k in wanted}

        worst = {}
        for name, theta in params.items():
            start = owner[name.split(".")[0]]
            grad = np.asarray(analytic[name]).reshape(-1)
            tensor_worst = 0.0
            for i in range(theta.size):
                orig = float(theta.flat[i])
                theta.flat[i] = orig + h  # .flat writes through views too
                probs = _forward_suffix(network, start, layer_inputs[start])
                loss_plus = cross_entropy(probs, labels)
                theta.flat[i] = orig - h
                probs = _forward_suffix(network, start, layer_inputs[start])
                loss_minus = cross_entropy(probs, labels)
                theta.flat[i] = orig
                numeric = (loss_plus - loss_minus) / (2.0 * h)
                a = float(grad[i])
                err = abs(a - numeric) / max(abs(a), abs(numeric), denom_floor)
                tensor_worst = max(tensor_worst, err)
            worst[name] = tensor_worst
    return worst
