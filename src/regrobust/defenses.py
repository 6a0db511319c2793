"""Training-time defenses: robust loss, gradient penalty, stability penalty.

The stability penalty for a training point x with nearest-neighbor distance d
and label gap g is a Monte-Carlo estimate of

    E_{dx ~ U(ball)} [ (f(x) - f(x + dx))^2 * 1[|f(x) - f(x + dx)| > g] ]

where the ball is the L-infinity ball of radius beta * d. Prediction swings
smaller than the gap to the nearest neighbor's label are considered benign and
are not penalized. The indicator is treated as constant when differentiating
(straight-through), so the gradient is exact for the gated squared term with
the gate frozen at its sampled value.

Each stability-penalty evaluation draws its perturbations for the whole batch
with one ``rng.random(size=(B*S, D))`` call (B rows, S samples per row, D
features), mapped in place to 2r - 1, row-major, so sample s of row i is row
i*S + s of that draw. This is the same stream and the same bits as
``rng.uniform(-1, 1, size=(B, S, D))``. Training makes one such draw per
minibatch step.

The perturbed points are never built as a batch. Their pre-activations are
split as z(x + r*u) = z(x) + r*(u @ w1^T), one (B*S, H) buffer that becomes
the post-ReLU values in place. Only the samples whose gate fired carry a
non-zero weight in the gradient, so only those G points x + r*u are formed
and contracted against the parameter Jacobian.
"""
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError, NonFiniteError, check_count
from .nn import (RegressionNet, _as_batch, _clean_terms, _output_head, _param_grad,
                 batch_backward, forward_parts, grad_penalty_batch)

# Each kind's primary loss and the DefenseConfig fields it reads, in search draw
# order. Reading "sigma" adds the gradient penalty, "lam" the stability penalty.
KINDS = {
    "none": ("squared_error", ()),
    "pseudo_huber": ("pseudo_huber", ("delta",)),
    "grad_reg": ("squared_error", ("sigma",)),
    "ansr": ("squared_error", ("beta", "lam")),
    "combined": ("pseudo_huber", ("delta", "sigma", "beta", "lam")),
}
DEFENSE_KINDS = tuple(KINDS)


@dataclass(frozen=True)
class DefenseConfig:
    """A defense kind plus its knobs. Every field is validated, but the kind
    reads only its params (and n_samples, with the stability penalty), and an
    experiment config's defense entry may set only those params.
    """

    kind: str
    delta: float = 1.0  # pseudo-Huber scale
    sigma: float = 0.1  # input-gradient penalty weight
    lam: float = 1.0  # stability penalty weight
    beta: float = 1.0  # perturbation radius as a multiple of nn distance
    n_samples: int = 100  # Monte-Carlo samples per point per step

    def __post_init__(self):
        if self.kind not in DEFENSE_KINDS:
            raise ConfigError(f"kind must be one of {DEFENSE_KINDS}, got {self.kind!r}")
        for name in ("delta", "sigma", "lam", "beta"):
            v = getattr(self, name)
            if not np.isfinite(v):
                raise ConfigError(f"{name} must be finite, got {v}")
        if not self.delta > 0:
            raise ConfigError(f"delta must be positive, got {self.delta}")
        if self.sigma < 0:
            raise ConfigError(f"sigma must be >= 0, got {self.sigma}")
        if self.lam < 0:
            raise ConfigError(f"lambda must be >= 0, got {self.lam}")
        if not self.beta > 0:
            raise ConfigError(f"beta must be positive, got {self.beta}")
        check_count("n_samples", self.n_samples)

    @property
    def params(self) -> tuple:
        """The fields this kind reads besides n_samples, in search draw order."""
        return KINDS[self.kind][1]

    @property
    def needs_neighbors(self) -> bool:
        """Whether the stability penalty is active: it needs neighbors and an rng."""
        return "lam" in self.params


def ansr_batch(net: RegressionNet, X, radii, gaps, n_samples: int, rng, fwd=None):
    """Stability penalty values and the summed unscaled theta-gradient.

    Returns (omega (B,), grad_sum (n_params,)) where omega[i] is the
    Monte-Carlo penalty for row i (ball radius radii[i], label gap gaps[i])
    and grad_sum is sum_i d omega[i] / d theta with the sampled perturbations
    and gates held fixed. The draw and the gated contraction are as the
    module docstring describes: one (B, S, D) uniform draw per call, whatever
    the radii and gaps.

    A radius of zero makes every perturbed copy equal to the clean point, so
    the true penalty is exactly zero; the gate enforces that explicitly
    because equal values routed through different matmul shapes can round
    one ulp apart. The row's samples are still drawn to keep the stream
    aligned. fwd, if given, is forward_parts(net, X) of a validated X.
    """
    if rng is None:
        raise ConfigError("the stability penalty draws random perturbations and needs an rng")
    if fwd is None:
        X, _ = _as_batch(net, X)
        fwd = forward_parts(net, X)
    B, D = X.shape
    S = int(n_samples)
    radii = np.asarray(radii, dtype=np.float64)
    gaps = np.asarray(gaps, dtype=np.float64)
    if radii.shape != (B,) or gaps.shape != (B,):
        raise DimensionError(
            f"radii/gaps must have shape ({B},), got {radii.shape} and {gaps.shape}"
        )
    if not (np.isfinite(radii).all() and np.isfinite(gaps).all()):
        raise NonFiniteError("radii/gaps contain NaN or infinity")
    if (radii < 0).any() or (gaps < 0).any():
        raise ConfigError("radii and label gaps must be >= 0")

    U = rng.random(size=(B * S, D))
    U *= 2.0
    U -= 1.0
    z0, a0, _, y0, act1_0, _ = fwd
    # z(x + r*u) = z0 + r*(u @ w1^T); the buffer becomes the post-ReLU values in place.
    ap = U @ net.w1.T  # (B*S, H)
    for rows in (ap.reshape(B, -1), U.reshape(B, -1)):  # U then holds the offsets r_i * u
        rows *= radii[:, None]  # one contiguous row per radius: cheaper than a 3-d broadcast
    ap3 = ap.reshape(B, S, -1)
    ap3 += z0[:, None, :]
    np.maximum(ap, 0.0, out=ap)
    yp, act1_p, _ = _output_head(net, ap @ net.w2 + net.b2)
    dy = y0[:, None] - yp.reshape(B, S)
    gate = (np.abs(dy) > gaps[:, None]) & (radii[:, None] > 0.0)
    gated = np.where(gate, dy, 0.0)
    omega = (gated * gated).mean(axis=1)  # (B,)

    # d omega_i / d theta = (2/S) sum_s gated * (d f(x_i)/d theta - d f(x_i+dx)/d theta);
    # only the G gated samples have a non-zero weight, so only they are contracted.
    coef = (2.0 / S) * gated  # (B, S)
    c0 = coef.sum(axis=1) * act1_0  # (B,) weight on the clean-point jacobian
    idx = np.flatnonzero(gate)  # (G,) gated rows of the (B*S) perturbed batch
    row = idx // S
    # np.take along axis 0 gathers the same values as fancy indexing, faster at small D.
    XPg = np.take(U, idx, axis=0)
    XPg += np.take(X, row, axis=0)  # the gated perturbed inputs x_i + r_i * u, (G, D)
    cp = np.take(coef.ravel() * act1_p, idx)  # (G,) weight on each gated perturbed jacobian
    grad_sum = _param_grad(net, X, a0, c0) - _param_grad(net, XPg, np.take(ap, idx, axis=0), cp)
    return omega, grad_sum


def batch_loss_grad(net: RegressionNet, X, Y, cfg: DefenseConfig, rng=None, nn_distances=None,
                    label_gaps=None):
    """Mean training objective and its mean theta-gradient over a batch.

    The objective is the primary loss plus the sigma- and lambda-penalties,
    as KINDS[cfg.kind] names them. nn_distances/label_gaps are required only when
    the stability penalty is active; fresh perturbations are drawn from rng on
    every call. X and Y are validated and run forward once, by one
    nn._clean_terms: the primary loss and the gradient penalty read it through
    their terms keyword, and the stability penalty reads its fwd field.
    """
    loss_kind, params = KINDS[cfg.kind]
    terms = _clean_terms(net, X, Y, loss_kind, cfg.delta)
    X, Y, fwd = terms[:3]
    values, grad_sum = batch_backward(net, X, Y, terms=terms)
    total = values.sum()

    if "sigma" in params:
        penalties, pgrad = grad_penalty_batch(net, X, Y, cfg.sigma, terms=terms)
        total += penalties.sum()
        grad_sum += pgrad

    if "lam" in params:
        if nn_distances is None or label_gaps is None:
            raise ConfigError("stability penalty needs nn_distances and label_gaps")
        radii = cfg.beta * np.asarray(nn_distances, dtype=np.float64)
        omega, ograd = ansr_batch(net, X, radii, label_gaps, cfg.n_samples, rng, fwd=fwd)
        total += cfg.lam * omega.sum()
        grad_sum += cfg.lam * ograd

    grad_sum /= len(X)
    return total / len(X), grad_sum
