"""Adam optimizer over name-keyed parameter dicts."""

import numpy as np


class Adam:
    """Bias-corrected Adam.

    Per step, for each parameter with gradient g (b1 = BETA1, b2 = BETA2):
        m <- b1 m + (1 - b1) g
        v <- b2 v + (1 - b2) g^2
        theta <- theta - lr * mhat / (sqrt(vhat) + eps)
    with mhat = m / (1 - b1^t) and vhat = v / (1 - b2^t). With eps = 0 the
    very first step moves every parameter by exactly lr in magnitude,
    independent of gradient scale.
    """

    BETA1 = 0.9
    BETA2 = 0.999

    def __init__(self, learning_rate=1e-3, epsilon=1e-7):
        self.learning_rate = float(learning_rate)
        self.epsilon = float(epsilon)
        self.t = 0
        self.m = {}
        self.v = {}

    def step(self, params: dict, grads: dict) -> None:
        """Update params in place from same-keyed grads."""
        missing = set(params) - set(grads)
        if missing:
            raise KeyError(f"gradients missing for {sorted(missing)}")
        self.t += 1
        correction1 = 1.0 - self.BETA1**self.t
        correction2 = 1.0 - self.BETA2**self.t
        for name, theta in params.items():
            g = grads[name]
            if g.shape != theta.shape:
                raise ValueError(f"{name}: gradient shape {g.shape} != parameter shape {theta.shape}")
            if name not in self.m:
                self.m[name] = np.zeros_like(theta)
                self.v[name] = np.zeros_like(theta)
            m = self.m[name]
            v = self.v[name]
            m *= self.BETA1
            m += (1.0 - self.BETA1) * g
            v *= self.BETA2
            v += (1.0 - self.BETA2) * np.square(g)
            mhat = m / correction1
            vhat = v / correction2
            theta -= (self.learning_rate * mhat / (np.sqrt(vhat) + self.epsilon)).astype(theta.dtype)
