"""Pointwise regression losses and their derivatives.

Losses are written as functions of the residual a = y - f(x). loss_terms
returns the value and the first two derivatives with respect to a together,
so pseudo-Huber takes its root once; the curvature is needed for
differentiating gradient-norm penalties with respect to network parameters.
"""
import numpy as np

from .errors import ConfigError


def loss_terms(kind: str, a, delta: float = 1.0):
    """(value, d/da, d^2/da^2) of the loss at residual a.

    Squared error's curvature is the scalar 2.0. Pseudo-Huber,
    delta^2 * (sqrt(1 + (a/delta)^2) - 1), is quadratic (a^2/2) near zero and
    linear (delta*|a|) in the tails, and smooth everywhere, unlike the plain
    Huber loss; its three terms share one root.
    """
    a = np.asarray(a, dtype=np.float64)
    if kind == "squared_error":
        return np.square(a), 2.0 * a, 2.0
    if kind == "pseudo_huber":
        if not delta > 0:
            raise ConfigError(f"pseudo-Huber delta must be positive, got {delta}")
        r = a / delta
        q = 1.0 + r * r
        root = np.sqrt(q)
        return delta * delta * (root - 1.0), a / root, q**-1.5
    raise ConfigError(f"unknown loss kind {kind!r}")


def loss_value(kind: str, a, delta: float = 1.0):
    """The loss at residual a: a float for a scalar a, else an array."""
    out = np.asarray(loss_terms(kind, a, delta)[0])
    return float(out) if out.ndim == 0 else out


def pseudo_huber(a, delta: float = 1.0):
    """delta^2 * (sqrt(1 + (a/delta)^2) - 1); see loss_terms."""
    return loss_value("pseudo_huber", a, delta)
