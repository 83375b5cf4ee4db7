"""Dense network machinery written against numpy only.

Forward/backward passes, the focal and cross-entropy losses, the Adam
update, and the step-decay learning-rate rule are all explicit here; no
autodiff framework is involved.  Math runs in double precision so that
analytic gradients can be checked against central finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError, ShapeError, ValidationError

RELU = "relu"
SIGMOID = "sigmoid"
IDENTITY = "identity"
_ACTIVATIONS = (RELU, SIGMOID, IDENTITY)

PRED_CLAMP = 1e-7  # probabilities are clamped to [PRED_CLAMP, 1 - PRED_CLAMP] before any log


@dataclass
class MlpModel:
    """Weights, biases, and per-layer activation names of a dense network.

    ``weights[l]`` has shape (d_out, d_in); layers chain, hidden layers
    rectify, and the output layer is sigmoid in the standard configs
    (identity supports the softmax classification head).
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    activations: list[str]

    def __post_init__(self):
        if not (len(self.weights) == len(self.biases) == len(self.activations) > 0):
            raise ValidationError("weights, biases, activations must align and be non-empty")
        for i, (W, b, act) in enumerate(zip(self.weights, self.biases, self.activations)):
            if act not in _ACTIVATIONS:
                raise ValidationError(f"layer {i}: unknown activation {act!r}")
            if W.ndim != 2 or b.shape != (W.shape[0],):
                raise ShapeError(f"layer {i}: weight {W.shape} / bias {b.shape} mismatch")
            if i > 0 and W.shape[1] != self.weights[i - 1].shape[0]:
                raise ShapeError(
                    f"layer {i}: input width {W.shape[1]} does not chain from "
                    f"{self.weights[i - 1].shape[0]}"
                )
            if not (np.isfinite(W).all() and np.isfinite(b).all()):
                raise ValidationError(f"layer {i}: non-finite parameters")

    @property
    def layer_dims(self) -> list[int]:
        return [self.weights[0].shape[1]] + [W.shape[0] for W in self.weights]

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[1]

    @property
    def output_dim(self) -> int:
        return self.weights[-1].shape[0]

    def parameter_bytes(self) -> bytes:
        """Canonical byte string of all parameters (for freeze checks)."""
        return b"".join([W.tobytes() for W in self.weights] + [b.tobytes() for b in self.biases])


@dataclass
class ForwardCache:
    """Per-layer pre-activations and activations for one mini-batch."""

    x: np.ndarray
    pre: list[np.ndarray]
    act: list[np.ndarray]

    @property
    def batch_size(self) -> int:
        return self.x.shape[0]


@dataclass
class Gradients:
    """Parameter gradients shaped exactly like the model they came from."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]


def init_model(layer_dims, seed: int, output_activation: str = SIGMOID) -> MlpModel:
    """Glorot-uniform weights (+-sqrt(6/(fan_in+fan_out))), zero biases.

    Deterministic for a fixed seed.  Hidden layers rectify.
    """
    dims = list(layer_dims)
    if len(dims) < 2:
        raise ValidationError("need at least an input and an output dimension")
    if any(d < 1 for d in dims):
        raise ValidationError(f"layer dims must be positive, got {dims}")
    if output_activation not in _ACTIVATIONS:
        raise ValidationError(f"unknown output activation {output_activation!r}")
    rng = np.random.default_rng(seed)
    weights, biases, acts = [], [], []
    for i, (d_in, d_out) in enumerate(zip(dims[:-1], dims[1:])):
        limit = np.sqrt(6.0 / (d_in + d_out))
        weights.append(rng.uniform(-limit, limit, size=(d_out, d_in)))
        biases.append(np.zeros(d_out))
        acts.append(RELU if i < len(dims) - 2 else output_activation)
    return MlpModel(weights=weights, biases=biases, activations=acts)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _apply(act: str, z: np.ndarray) -> np.ndarray:
    if act == RELU:
        return np.maximum(0.0, z)
    if act == SIGMOID:
        return _sigmoid(z)
    return z


def _derivative(act: str, z: np.ndarray, a: np.ndarray) -> np.ndarray:
    # rectifier derivative at exactly 0 is taken as 0
    if act == RELU:
        return (z > 0).astype(np.float64)
    if act == SIGMOID:
        return a * (1.0 - a)
    return np.ones_like(z)


def forward(model: MlpModel, inputs) -> tuple[np.ndarray, ForwardCache]:
    """Run the network on a batch; returns outputs and the backprop cache.

    Accepts a single vector or a (batch, input_dim) matrix; the output
    shape follows the input.
    """
    x = np.asarray(inputs, dtype=np.float64)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != model.input_dim:
        raise ShapeError(f"input width {x.shape} does not match model d0={model.input_dim}")
    pre, act = [], []
    a = x
    for W, b, name in zip(model.weights, model.biases, model.activations):
        z = a @ W.T + b
        a = _apply(name, z)
        pre.append(z)
        act.append(a)
    if not np.isfinite(a).all():
        raise NumericError("non-finite network output; parameters are diverging")
    out = a[0] if single else a
    return out, ForwardCache(x=x, pre=pre, act=act)


def backward(model: MlpModel, cache: ForwardCache, grad_outputs) -> Gradients:
    """Exact reverse-mode gradients for the cached forward pass."""
    g = np.asarray(grad_outputs, dtype=np.float64)
    if g.ndim == 1:
        g = g[None, :]
    if g.shape != cache.act[-1].shape:
        raise ShapeError(
            f"output gradient shape {g.shape} does not match forward outputs "
            f"{cache.act[-1].shape}"
        )
    n_layers = len(model.weights)
    grad_w = [None] * n_layers
    grad_b = [None] * n_layers
    delta = g
    for l in range(n_layers - 1, -1, -1):
        delta = delta * _derivative(model.activations[l], cache.pre[l], cache.act[l])
        a_in = cache.x if l == 0 else cache.act[l - 1]
        grad_w[l] = delta.T @ a_in
        grad_b[l] = delta.sum(axis=0)
        if l > 0:
            delta = delta @ model.weights[l]
    return Gradients(weights=grad_w, biases=grad_b)


@dataclass(frozen=True)
class FocalParams:
    """Focal-loss hyperparameters: class weight alpha, focusing power gamma."""

    alpha: float = 0.5
    gamma: float = 4.0

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValidationError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.gamma < 0.0:
            raise ValidationError(f"gamma must be >= 0, got {self.gamma}")


def clamp_probs(pred: np.ndarray) -> np.ndarray:
    return np.clip(pred, PRED_CLAMP, 1.0 - PRED_CLAMP)


def focal_loss(pred, target, params: FocalParams) -> tuple[float, np.ndarray]:
    """Mean focal loss over every element, with its gradient wrt ``pred``.

    Per element with target q and prediction p:
        -[alpha * q * (1-p)^gamma * log(p)
          + (1-alpha) * (1-q) * p^gamma * log(1-p)]
    The mean runs over the batch and the target dimensions together.
    """
    p_raw = np.asarray(pred, dtype=np.float64)
    q = np.asarray(target, dtype=np.float64)
    if p_raw.shape != q.shape:
        raise ShapeError(f"pred shape {p_raw.shape} != target shape {q.shape}")
    a, g = params.alpha, params.gamma
    p = clamp_probs(p_raw)
    one_m_p = 1.0 - p
    log_p = np.log(p)
    log_1mp = np.log(one_m_p)
    term = -(a * q * one_m_p**g * log_p + (1.0 - a) * (1.0 - q) * p**g * log_1mp)
    # d(term)/dp; the gamma * x^(gamma-1) factors vanish exactly at gamma = 0
    d_pos = -a * q * (one_m_p**g / p - g * one_m_p ** (g - 1.0) * log_p)
    d_neg = -(1.0 - a) * (1.0 - q) * (g * p ** (g - 1.0) * log_1mp - p**g / one_m_p)
    grad = (d_pos + d_neg) / term.size
    return float(term.mean()), grad


def action_loss(pred, labels) -> tuple[float, np.ndarray]:
    """Cross-entropy -log(pred[label]) over sigmoid-head class outputs.

    Accepts one probability vector with an integer label, or a batch with
    a label per row; the loss averages over the batch and the gradient
    carries the same 1/batch factor.
    """
    p = np.asarray(pred, dtype=np.float64)
    single = p.ndim == 1
    if single:
        p = p[None, :]
    y = np.atleast_1d(np.asarray(labels))
    if p.ndim != 2 or y.shape != (p.shape[0],):
        raise ShapeError(f"pred shape {p.shape} incompatible with labels shape {y.shape}")
    if y.min() < 0 or y.max() >= p.shape[1]:
        raise ValidationError(f"label out of range [0, {p.shape[1]})")
    n = p.shape[0]
    rows = np.arange(n)
    picked = clamp_probs(p[rows, y])
    loss = float(-np.log(picked).mean())
    grad = np.zeros_like(p)
    grad[rows, y] = -1.0 / (picked * n)
    return loss, grad[0] if single else grad


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_action_loss(logits, labels) -> tuple[float, np.ndarray]:
    """Cross-entropy over a softmax of raw class scores (identity head)."""
    z = np.asarray(logits, dtype=np.float64)
    single = z.ndim == 1
    if single:
        z = z[None, :]
    y = np.atleast_1d(np.asarray(labels))
    if y.shape != (z.shape[0],):
        raise ShapeError(f"logits shape {z.shape} incompatible with labels shape {y.shape}")
    if y.min() < 0 or y.max() >= z.shape[1]:
        raise ValidationError(f"label out of range [0, {z.shape[1]})")
    n = z.shape[0]
    p = softmax(z)
    rows = np.arange(n)
    loss = float(-np.log(clamp_probs(p[rows, y])).mean())
    grad = p.copy()
    grad[rows, y] -= 1.0
    grad /= n
    return loss, grad[0] if single else grad


@dataclass
class AdamState:
    """First/second moment accumulators and step counter for one model."""

    m_w: list[np.ndarray]
    v_w: list[np.ndarray]
    m_b: list[np.ndarray]
    v_b: list[np.ndarray]
    t: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


def init_adam(model: MlpModel, beta1: float = 0.9, beta2: float = 0.999,
              eps: float = 1e-8) -> AdamState:
    return AdamState(
        m_w=[np.zeros_like(W) for W in model.weights],
        v_w=[np.zeros_like(W) for W in model.weights],
        m_b=[np.zeros_like(b) for b in model.biases],
        v_b=[np.zeros_like(b) for b in model.biases],
        beta1=beta1, beta2=beta2, eps=eps,
    )


def adam_step(model: MlpModel, grads: Gradients, state: AdamState,
              lr: float) -> tuple[MlpModel, AdamState]:
    """One bias-corrected Adam update, applied in place."""
    if lr <= 0:
        raise ValidationError(f"learning rate must be positive, got {lr}")
    if len(grads.weights) != len(model.weights):
        raise ShapeError("gradient layer count does not match model")
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    corr1 = 1.0 - b1**state.t
    corr2 = 1.0 - b2**state.t
    for params, gs, ms, vs in (
        (model.weights, grads.weights, state.m_w, state.v_w),
        (model.biases, grads.biases, state.m_b, state.v_b),
    ):
        for p, g, m, v in zip(params, gs, ms, vs):
            if g.shape != p.shape:
                raise ShapeError(f"gradient shape {g.shape} != parameter shape {p.shape}")
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            p -= lr * (m / corr1) / (np.sqrt(v / corr2) + state.eps)
    return model, state


@dataclass(frozen=True)
class LrSchedule:
    """Step decay: multiply the rate by ``decay_factor`` every period."""

    base_lr: float
    period_epochs: int
    total_epochs: int
    decay_factor: float = 0.7

    def __post_init__(self):
        if self.base_lr <= 0:
            raise ValidationError(f"base_lr must be positive, got {self.base_lr}")
        if not 0.0 < self.decay_factor <= 1.0:
            raise ValidationError(f"decay_factor must be in (0, 1], got {self.decay_factor}")
        if self.period_epochs < 1:
            raise ValidationError("period_epochs must be >= 1")
        if self.total_epochs < 1:
            raise ValidationError("total_epochs must be >= 1")


def lr_at(schedule: LrSchedule, epoch: int) -> float:
    """Learning rate in effect at a given epoch."""
    if not 0 <= epoch < schedule.total_epochs:
        raise ValidationError(
            f"epoch {epoch} out of range [0, {schedule.total_epochs})"
        )
    return schedule.base_lr * schedule.decay_factor ** (epoch // schedule.period_epochs)
