"""Gradient-based L-infinity attacks on regression networks.

The attack objective is always the plain squared error (y - f(x))^2, whatever
loss the model was trained with. Every kind runs one signed-gradient loop,
``_signed_steps(step, radius, steps)``: pgd as (epsilon, rho, steps), fgsm as
(epsilon, epsilon, 1) and none as 0 steps. Attacks take a single point (D,)
with a scalar target, or a batch (N, D) with targets (N,) whose rows they
perturb independently.
"""
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, check_count
from .nn import RegressionNet, _as_batch, input_gradient

# Each kind and the AttackConfig fields it reads; a config entry sets only these.
ATTACK_KINDS = {"none": (), "fgsm": ("epsilon",), "pgd": ("epsilon", "rho", "steps")}


@dataclass(frozen=True)
class AttackConfig:
    """An attack kind plus its knobs; only the fields the kind reads are validated."""

    kind: str
    epsilon: float = 0.1  # per-step magnitude (fgsm: the whole perturbation)
    rho: float = 0.1  # pgd ball radius around the clean point
    steps: int = 10

    def __post_init__(self):
        if self.kind not in ATTACK_KINDS:
            raise ConfigError(f"kind must be one of {tuple(ATTACK_KINDS)}, got {self.kind!r}")
        for name in ("epsilon", "rho"):
            v = getattr(self, name)
            if name in self.params and not (np.isfinite(v) and v > 0):
                raise ConfigError(f"{name} must be positive, got {v}")
        if "steps" in self.params:
            check_count("steps", self.steps)
            if self.epsilon > 2.0 * self.rho:
                warnings.warn(
                    f"pgd step size {self.epsilon} exceeds the ball diameter "
                    f"{2.0 * self.rho}; iterates will just bounce between faces",
                    stacklevel=2,
                )

    @property
    def params(self) -> tuple:
        return ATTACK_KINDS[self.kind]


DEFAULT_FGSM = AttackConfig(kind="fgsm", epsilon=0.1)
DEFAULT_PGD = AttackConfig(kind="pgd", epsilon=0.025, rho=0.1, steps=10)


def _signed_steps(net: RegressionNet, x, y, step: float, radius: float, steps: int):
    """steps signed-gradient ascent steps of size step on (y - f(x))^2, each
    clipped to the L-inf ball of the given radius around x. Coordinates with
    zero gradient stay put (sign(0) = 0); 0 steps return a copy of x.
    """
    X, single = _as_batch(net, x)
    Y = np.atleast_1d(np.asarray(y, dtype=np.float64))
    lo = X - radius
    hi = X + radius
    adv = X.copy()
    for _ in range(steps):
        adv = np.clip(adv + step * np.sign(input_gradient(net, adv, Y)), lo, hi)
    return adv[0] if single else adv


def apply_attack(net: RegressionNet, x, y, cfg: AttackConfig):
    """Run cfg's attack; kind 'none' returns an unmodified copy."""
    step, radius, steps = {"none": (0.0, 0.0, 0), "fgsm": (cfg.epsilon, cfg.epsilon, 1),
                           "pgd": (cfg.epsilon, cfg.rho, cfg.steps)}[cfg.kind]
    return _signed_steps(net, x, y, step, radius, steps)


def fgsm(net: RegressionNet, x, y, epsilon: float):
    """One signed-gradient step: x + epsilon * sign(d (y - f(x))^2 / d x)."""
    return apply_attack(net, x, y, AttackConfig(kind="fgsm", epsilon=epsilon))


def pgd(net: RegressionNet, x, y, cfg: AttackConfig):
    """Iterated signed-gradient ascent, clipped to the L-inf ball of radius rho."""
    if cfg.kind != "pgd":
        raise ConfigError(f"pgd needs a pgd config, got kind={cfg.kind!r}")
    return apply_attack(net, x, y, cfg)
