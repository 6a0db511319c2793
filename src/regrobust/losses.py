"""Pointwise regression losses and their derivatives.

Losses are written as functions of the residual a = y - f(x). Both the value
and the first two derivatives with respect to a are exposed; the curvature is
needed for differentiating gradient-norm penalties with respect to network
parameters.
"""
import numpy as np

from .errors import ConfigError

LOSS_KINDS = ("squared_error", "pseudo_huber")


def pseudo_huber(a, delta: float = 1.0):
    """delta^2 * (sqrt(1 + (a/delta)^2) - 1).

    Quadratic (a^2/2) near zero, linear (delta*|a|) in the tails. Smooth
    everywhere, unlike the plain Huber loss.
    """
    if not delta > 0:
        raise ConfigError(f"pseudo-Huber delta must be positive, got {delta}")
    a = np.asarray(a, dtype=np.float64)
    r = a / delta
    out = delta * delta * (np.sqrt(1.0 + r * r) - 1.0)
    return float(out) if out.ndim == 0 else out


def loss_value(kind: str, a, delta: float = 1.0):
    if kind == "squared_error":
        return np.square(a)
    if kind == "pseudo_huber":
        return pseudo_huber(a, delta)
    raise ConfigError(f"unknown loss kind {kind!r}")


def loss_d1(kind: str, a, delta: float = 1.0):
    """First derivative with respect to the residual."""
    if kind == "squared_error":
        return 2.0 * a
    if kind == "pseudo_huber":
        r = a / delta
        return a / np.sqrt(1.0 + r * r)
    raise ConfigError(f"unknown loss kind {kind!r}")


def loss_d2(kind: str, a, delta: float = 1.0):
    """Second derivative with respect to the residual (a scalar for squared error)."""
    if kind == "squared_error":
        return 2.0
    if kind == "pseudo_huber":
        r = a / delta
        return (1.0 + r * r) ** -1.5
    raise ConfigError(f"unknown loss kind {kind!r}")
