"""Single hidden layer ReLU regression network with exact reverse-mode math.

Dense float64 numpy throughout. The flat parameter vector used by the
optimizer is laid out as

    [w1 row-major, b1, w2, b2]

and _views gives its four blocks as views, so a net's weights (vector_to_net)
and a gradient's blocks write through to it. Every parameter gradient comes
in that layout, built by one contraction (_param_grad) over the cached
forward intermediates. Every loss gradient (batch_backward,
grad_penalty_batch, input_gradient) reads one clean batch from _clean_terms:
the validated inputs and targets, their forward pass, the loss derivatives,
the ReLU mask and the hidden-layer adjoint. A training step builds it once
for all its terms. ReLU'(0) is taken to be 0, and all analytic gradients are
exact for the piecewise-linear network, which is what the finite-difference
test suites check against. The identity head's derivatives are the scalars
1.0 and 0.0, which give the same bits as arrays of ones and zeros without
allocating them.
"""
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError, NonFiniteError
from .losses import loss_terms

ACTIVATIONS = ("identity", "sigmoid")


@dataclass
class RegressionNet:
    """Weights of f(x) = act(w2 . relu(w1 @ x + b1) + b2)."""

    w1: np.ndarray  # (hidden, input)
    b1: np.ndarray  # (hidden,)
    w2: np.ndarray  # (hidden,)
    b2: np.ndarray  # () 0-d, so it too can be a view of a parameter vector
    output_activation: str = "identity"

    def __post_init__(self):
        self.w1 = np.asarray(self.w1, dtype=np.float64)
        self.b1 = np.asarray(self.b1, dtype=np.float64)
        self.w2 = np.asarray(self.w2, dtype=np.float64)
        self.b2 = np.asarray(self.b2, dtype=np.float64)
        if self.w1.ndim != 2 or self.b2.ndim != 0:
            raise DimensionError(f"w1 must be 2-d, b2 0-d; got {self.w1.shape}, {self.b2.shape}")
        h = self.w1.shape[0]
        if self.b1.shape != (h,) or self.w2.shape != (h,):
            raise DimensionError(
                f"b1/w2 must have shape ({h},), got {self.b1.shape} and {self.w2.shape}"
            )
        if self.output_activation not in ACTIVATIONS:
            raise ConfigError(
                f"output_activation must be one of {ACTIVATIONS}, got {self.output_activation!r}"
            )

    @property
    def input_dim(self) -> int:
        return self.w1.shape[1]

    @property
    def hidden_dim(self) -> int:
        return self.w1.shape[0]

    @property
    def n_params(self) -> int:
        return self.w1.size + self.b1.size + self.w2.size + 1


def initialize(input_dim: int, rng, hidden_dim=None, output_activation: str = "identity"):
    """Glorot-uniform weights, zero biases.

    hidden_dim defaults to input_dim (hidden layer as wide as the input).
    """
    if input_dim < 1:
        raise DimensionError(f"input_dim must be >= 1, got {input_dim}")
    h = input_dim if hidden_dim is None else int(hidden_dim)
    if h < 1:
        raise DimensionError(f"hidden_dim must be >= 1, got {h}")
    lim1 = np.sqrt(6.0 / (input_dim + h))
    lim2 = np.sqrt(6.0 / (h + 1))
    return RegressionNet(
        w1=rng.uniform(-lim1, lim1, size=(h, input_dim)),
        b1=np.zeros(h),
        w2=rng.uniform(-lim2, lim2, size=h),
        b2=0.0,
        output_activation=output_activation,
    )


def params_to_vector(net: RegressionNet) -> np.ndarray:
    return np.concatenate([net.w1.ravel(), net.b1, net.w2, [net.b2]])


def _views(vec: np.ndarray, h: int, d: int) -> tuple:
    """(w1, b1, w2, b2) of a flat vector in the parameter layout as views of it, b2 0-d."""
    k = h * d
    return vec[:k].reshape(h, d), vec[k : k + h], vec[k + h : k + 2 * h], vec[-1, ...]


def vector_to_net(net: RegressionNet, theta: np.ndarray) -> RegressionNet:
    """A net of net's architecture whose weights are views of the flat vector theta."""
    theta = np.asarray(theta, dtype=np.float64)
    if theta.shape != (net.n_params,):
        raise DimensionError(
            f"expected parameter vector of shape ({net.n_params},), got {theta.shape}"
        )
    return RegressionNet(*_views(theta, net.hidden_dim, net.input_dim),
                         output_activation=net.output_activation)


def _as_batch(net: RegressionNet, x) -> tuple[np.ndarray, bool]:
    """Coerce x to a (N, D) float64 matrix; flag whether input was a single point."""
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != net.input_dim:
        raise DimensionError(
            f"input must have {net.input_dim} features, got shape {np.asarray(x).shape}"
        )
    if not np.isfinite(x).all():
        raise NonFiniteError("network input contains NaN or infinity")
    return x, single


def _sigmoid(u):
    out = np.empty_like(u)
    pos = u >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-u[pos]))
    e = np.exp(u[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def forward_parts(net: RegressionNet, X: np.ndarray):
    """All intermediates for a (N, D) batch.

    Returns (z, a, u, yhat, act1, act2) where z = w1 @ x + b1 pre-activations,
    a = relu(z), u is the pre-output, yhat the prediction, and act1/act2 the
    first/second derivatives of the output activation at u: (N,) arrays for
    the sigmoid head, the scalars 1.0 and 0.0 for the identity head.
    """
    z = X @ net.w1.T + net.b1
    a = np.maximum(z, 0.0)
    u = a @ net.w2 + net.b2
    return (z, a, u, *_output_head(net, u))


def _output_head(net: RegressionNet, u):
    """(yhat, act1, act2): the output activation and its first two derivatives
    at u; for the identity head, the scalars 1.0 and 0.0."""
    if net.output_activation == "identity":
        return u, 1.0, 0.0
    p = _sigmoid(u)
    act1 = p * (1.0 - p)
    return p, act1, act1 * (1.0 - 2.0 * p)


def forward(net: RegressionNet, x):
    """Predict for one point (returns float) or a batch (returns (N,) array)."""
    X, single = _as_batch(net, x)
    yhat = forward_parts(net, X)[3]
    return float(yhat[0]) if single else yhat


def _param_grad(net: RegressionNet, X, a, g_u, dz=None) -> np.ndarray:
    """sum_i g_u[i] * d u(x_i) / d theta from cached intermediates, packed.

    X is (N, D), a the post-ReLU hidden values from forward_parts (a > 0
    exactly where z > 0), and g_u (N,) the weight on each row's pre-output.
    dz, if given, is relu'(z) * w2 * g_u[:, None], built by the caller.
    """
    grad = np.empty(net.n_params)
    g_w1, g_b1, g_w2, g_b2 = _views(grad, *net.w1.shape)
    # einsum adds the rows in order, as .sum(axis=0) does, about 3x faster on a narrow array.
    np.einsum("ij,i->j", a, g_u, out=g_w2)
    if dz is None:
        dz = (a > 0.0) * net.w2  # (N, H)
        dz *= g_u[:, None]
    np.matmul(dz.T, X, out=g_w1)
    np.einsum("ij->j", dz, out=g_b1)
    g_b2[...] = g_u.sum()
    return grad


def _clean_terms(net: RegressionNet, X, Y, loss: str, delta: float):
    """One step's clean batch: validated once, run forward once.

    X is a (N, D) batch or one (D,) point and Y its (N,) targets. Returns
    (X, Y, fwd, values, l1, l2, g_u, on, dz): X as a (N, D) float64 matrix, Y
    as (N,) float64, fwd = forward_parts(net, X), the loss and its first two
    derivatives at the residuals Y - yhat, the weight g_u = d loss/d u on each
    row's pre-output, the ReLU mask on = relu'(z) = z > 0 (N, H), and the
    hidden-layer adjoint dz = on * w2 * g_u[:, None], so dz @ w1 is d loss/d x.
    """
    X, _ = _as_batch(net, X)
    Y = np.atleast_1d(np.asarray(Y, dtype=np.float64))
    if Y.shape != (X.shape[0],):
        raise DimensionError(f"targets must have shape ({X.shape[0]},), got {Y.shape}")
    if not np.isfinite(Y).all():
        raise NonFiniteError("targets contain NaN or infinity")
    fwd = forward_parts(net, X)
    z, _, _, yhat, act1, _ = fwd
    values, l1, l2 = loss_terms(loss, Y - yhat, delta)
    g_u = -l1 * act1  # (N,)
    dz = (on := z > 0.0) * net.w2
    dz *= g_u[:, None]
    return X, Y, fwd, values, l1, l2, g_u, on, dz


def batch_backward(net: RegressionNet, X, Y, loss: str = "squared_error", delta: float = 1.0,
                   terms=None):
    """Per-point loss values and the summed parameter gradient over a batch.

    Returns (values (N,), grad_sum (n_params,)). terms, if given, is
    _clean_terms(net, X, Y, loss, delta), read instead of validating X and Y
    and building the clean batch again.
    """
    if terms is None:
        terms = _clean_terms(net, X, Y, loss, delta)
    X, _, fwd, values, _, _, g_u, _, dz = terms
    return np.asarray(values, dtype=np.float64), _param_grad(net, X, fwd[1], g_u, dz)


def input_gradient(net: RegressionNet, X, Y, loss: str = "squared_error", delta: float = 1.0):
    """Gradient of loss(y - f(x)) with respect to x, per row; (D,) for one point.

    The default squared error is the attack objective's gradient regardless
    of which loss the network was trained with.
    """
    grads = _clean_terms(net, X, Y, loss, delta)[-1] @ net.w1  # (N, D)
    return grads[0] if np.ndim(X) == 1 else grads


def grad_penalty_batch(net: RegressionNet, X, Y, sigma: float, loss: str = "squared_error",
                       delta: float = 1.0, terms=None):
    """Input-gradient L1 penalty sigma * ||d loss/d x||_1 and its theta-gradient.

    The theta-gradient treats the ReLU activation pattern and the signs of
    d loss/d x as locally constant, which is exact almost everywhere for the
    piecewise-linear network. terms is as in batch_backward, and its ReLU mask
    is relu'(z). Returns (penalties (N,), grad_sum (n_params,)).
    """
    if terms is None:
        terms = _clean_terms(net, X, Y, loss, delta)
    X, _, (_, a, _, _, act1, act2), _, l1, l2, g_u, on, dz = terms
    mw2 = on * net.w2  # relu'(z) * w2 (N, H)
    # d g_u / d u with the loss evaluated at resid = y - act(u).
    k = l2 * act1 * act1 - l1 * act2  # (N,)
    d_x = dz @ net.w1  # (N, D)
    s = np.sign(d_x)
    penalties = sigma * np.abs(d_x).sum(axis=1)
    v = s @ net.w1.T  # (N, H)
    kc = k * (v * mw2).sum(axis=1)  # (N,)
    grad = _param_grad(net, X, a, kc, mw2 * kc[:, None])
    g_w1, _, g_w2, _ = _views(grad, *net.w1.shape)
    # Terms where theta enters d_x directly rather than through g_u.
    g_w1 += dz.T @ s
    g_w2 += np.einsum("ij,i->j", v * on, g_u)
    return penalties, sigma * grad
