"""Finite-difference gradient verification at unit scale.

The exhaustive full-network check over all 22577 parameters runs in the
acceptance suite; here the machinery itself is exercised: margin
measurement, batch rejection, determinism, state restoration, and a
dense-only network where smoothness permits a far tighter tolerance.
"""

import numpy as np
import pytest

from voicehand.layers import Dense, Dropout
from voicehand.network import INPUT_SHAPE, Network, build_network
from voicehand.rng import substream
from voicehand.train import one_hot

from conftest import GRADCHECK_THRESHOLDS, inflate_convs
from gradcheck import draw_checkable_batch, gradient_check, tie_margins


def _dense_only(seed=5):
    rng = np.random.default_rng(seed)
    return Network(
        [
            Dense("d1", rng.normal(size=(10, 8)) * 0.6, rng.normal(size=8) * 0.1,
                  activation="relu"),
            Dense("d2", rng.normal(size=(8, 3)) * 0.6, np.zeros(3), activation="softmax"),
        ],
        dtype=np.float64,
    )


def _dense_batch(net, seed=6, batch=4, margin=1e-3):
    rng = np.random.default_rng(seed)
    for _ in range(200):
        x = rng.normal(size=(batch, 10))
        if tie_margins(net, x)["d1"] >= margin:
            return x, rng.integers(3, size=batch)
    raise AssertionError("no tie-free dense batch found")


def test_dense_only_network_passes_at_1e6():
    net = _dense_only()
    x, labels = _dense_batch(net)
    report = gradient_check(net, x, one_hot(labels, n_classes=3), h=1e-4)
    assert set(report) == {"d1.weights", "d1.biases", "d2.weights", "d2.biases"}
    worst = max(report.values())
    assert worst < 1e-6, report


def test_report_is_deterministic():
    net = _dense_only()
    x, labels = _dense_batch(net)
    targets = one_hot(labels, n_classes=3)
    a = gradient_check(net, x, targets, h=1e-4)
    b = gradient_check(net, x, targets, h=1e-4)
    assert a == b


def test_full_network_spot_check_passes_at_1e4():
    net = inflate_convs(build_network(seed=3, dtype=np.float64))
    rng = substream(12, "gradcheck")
    x, labels, margins = draw_checkable_batch(net, rng, GRADCHECK_THRESHOLDS)
    for name, needed in GRADCHECK_THRESHOLDS.items():
        assert margins[name] >= needed
    names = ["conv1.biases", "bn1.gamma", "bn2.beta", "dense1.biases", "dense2.weights"]
    report = gradient_check(net, x, one_hot(labels), names=names)
    assert set(report) == set(names)
    assert max(report.values()) < 1e-4, report


def test_tie_margins_zero_input_is_degenerate():
    net = build_network(seed=3, dtype=np.float64)
    margins = tie_margins(net, np.zeros((2,) + INPUT_SHAPE))
    # zero input with zero biases sits exactly on every ReLU tie
    assert margins["conv1"] == 0.0
    assert set(margins) == {"conv1", "pool1", "conv2", "pool2", "dense1"}


def test_tie_margins_positive_for_random_input():
    net = inflate_convs(build_network(seed=3, dtype=np.float64))
    x = substream(12, "gradcheck").normal(size=(2,) + INPUT_SHAPE)
    margins = tie_margins(net, x)
    assert all(m > 0.0 for m in margins.values())


def test_rejection_sampler_gives_up_cleanly():
    net = build_network(seed=3, dtype=np.float64)
    with pytest.raises(RuntimeError):
        draw_checkable_batch(net, substream(0, "x"), {"conv1": 1e12}, max_tries=3)


def test_check_restores_dropout_and_moving_stats():
    net = build_network(seed=3, dtype=np.float64)
    drop = net["dropout"]
    bn1 = net["bn1"]
    bn1.moving_mean[...] = 0.25
    mean_before = bn1.moving_mean.copy()
    var_before = bn1.moving_var.copy()
    rng = substream(12, "gradcheck")
    x = rng.normal(size=(2,) + INPUT_SHAPE)
    gradient_check(net, x, one_hot(rng.integers(9, size=2)), names=["dense2.biases"])
    assert drop.rate == 0.5
    np.testing.assert_array_equal(bn1.moving_mean, mean_before)
    np.testing.assert_array_equal(bn1.moving_var, var_before)


class FixedRateDropout(Dropout):
    """A dropout layer whose rate, once set, refuses to change."""

    def __setattr__(self, name, value):
        if name == "rate" and "rate" in vars(self):
            raise AttributeError("dropout rate is fixed")
        super().__setattr__(name, value)


def test_check_never_writes_the_dropout_rate():
    net = build_network(seed=3, dtype=np.float64)
    net.layers[net.layers.index(net["dropout"])] = FixedRateDropout("dropout", 0.5)
    rng = substream(12, "gradcheck")
    x = rng.normal(size=(2,) + INPUT_SHAPE)
    assert set(tie_margins(net, x)) == {"conv1", "pool1", "conv2", "pool2", "dense1"}
    report = gradient_check(net, x, one_hot(rng.integers(9, size=2)), names=["dense2.biases"])
    assert report["dense2.biases"] < 1e-4
    assert net["dropout"].rate == 0.5


def test_names_subset_limits_work():
    net = build_network(seed=3, dtype=np.float64)
    rng = substream(12, "gradcheck")
    x = rng.normal(size=(2,) + INPUT_SHAPE)
    report = gradient_check(net, x, one_hot([0, 1]), names=["dense2.biases"])
    assert list(report) == ["dense2.biases"]
