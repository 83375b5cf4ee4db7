"""Dense network machinery written against numpy only.

Forward/backward passes, the focal and cross-entropy losses, the Adam
update, and the step-decay learning-rate rule are all explicit here; no
autodiff framework is involved.  Math runs in double precision so that
analytic gradients can be checked against central finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ShapeError, ValidationError

RELU = "relu"
SIGMOID = "sigmoid"
IDENTITY = "identity"
_ACTIVATIONS = (RELU, SIGMOID, IDENTITY)

PRED_CLAMP = 1e-7  # probabilities are clamped to [PRED_CLAMP, 1 - PRED_CLAMP] before any log


def parameter_count(layer_dims) -> int:
    """Weights plus biases of a dense network with these layer widths."""
    dims = list(layer_dims)
    return sum(d_out * (d_in + 1) for d_in, d_out in zip(dims[:-1], dims[1:]))


def weight_shapes(layer_dims) -> list[tuple[int, int]]:
    """(d_out, d_in) of each layer's weight matrix."""
    dims = list(layer_dims)
    return list(zip(dims[1:], dims[:-1]))


def layer_views(params: np.ndarray, shapes) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per-layer weight and bias views of one flat parameter vector.

    The layout is every layer's weights in order, row-major with shape
    (d_out, d_in), then every layer's biases.
    """
    weights, biases = [], []
    off = 0
    for d_out, d_in in shapes:
        weights.append(params[off:off + d_out * d_in].reshape(d_out, d_in))
        off += d_out * d_in
    for d_out, _ in shapes:
        biases.append(params[off:off + d_out])
        off += d_out
    return weights, biases


def _pack(weights, biases) -> np.ndarray:
    parts = [np.ravel(a) for a in (*weights, *biases)]
    return np.concatenate(parts, dtype=np.float64) if parts else np.zeros(0)


class MlpModel:
    """Weights, biases, and per-layer activation names of a dense network.

    ``params`` is one contiguous float64 vector in the ``layer_views``
    layout; ``weights[l]`` (shape (d_out, d_in)) and ``biases[l]`` are
    views into it.  Layers chain, hidden layers rectify, and the output
    layer is sigmoid in the standard configs (identity supports the softmax
    classification head).  Built from per-layer lists, the model copies
    them into a new vector; ``from_params`` wraps one that is already
    filled.
    """

    def __init__(self, weights, biases, activations):
        if not (len(weights) == len(biases) == len(activations) > 0):
            raise ValidationError("weights, biases, activations must align and be non-empty")
        for i, (W, b) in enumerate(zip(weights, biases)):
            if W.ndim != 2 or b.shape != (W.shape[0],):
                raise ShapeError(f"layer {i}: weight {W.shape} / bias {b.shape} mismatch")
            if i > 0 and W.shape[1] != weights[i - 1].shape[0]:
                raise ShapeError(
                    f"layer {i}: input width {W.shape[1]} does not chain from "
                    f"{weights[i - 1].shape[0]}"
                )
        dims = [weights[0].shape[1]] + [W.shape[0] for W in weights]
        self._wrap(_pack(weights, biases), dims, activations)

    @classmethod
    def from_params(cls, params: np.ndarray, layer_dims, activations) -> MlpModel:
        """The model over ``params``, laid out for ``layer_dims``; no copy is made."""
        model = cls.__new__(cls)
        model._wrap(params, list(layer_dims), activations)
        return model

    def _wrap(self, params: np.ndarray, dims: list[int], activations) -> None:
        if len(activations) != len(dims) - 1:
            raise ValidationError(f"{len(activations)} activations for {len(dims) - 1} layers")
        if params.dtype != np.float64 or params.shape != (parameter_count(dims),):
            raise ShapeError(f"parameters {params.dtype}{params.shape} do not fit dims {dims}")
        self.params = params
        self.weights, self.biases = layer_views(params, weight_shapes(dims))
        self.activations = list(activations)
        for i, (W, b, act) in enumerate(zip(self.weights, self.biases, self.activations)):
            if act not in _ACTIVATIONS:
                raise ValidationError(f"layer {i}: unknown activation {act!r}")
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
        return self.params.tobytes()


@dataclass
class ForwardCache:
    """The input and every layer's activations for one mini-batch.

    Each activation's derivative is computed from the activation itself,
    so no pre-activation is kept.
    """

    x: np.ndarray
    act: list[np.ndarray]


class Gradients:
    """Parameter gradients in the flat layout of ``MlpModel``.

    ``params`` is the flat vector, ``weights``/``biases`` its views.
    Built from per-layer lists, the lists are copied into a new vector.
    """

    def __init__(self, weights, biases):
        self.params = _pack(weights, biases)
        self.weights, self.biases = layer_views(self.params, [np.shape(W) for W in weights])

    @classmethod
    def empty_like(cls, model: MlpModel) -> Gradients:
        """Uninitialized gradients laid out like ``model``'s parameters."""
        grads = cls.__new__(cls)
        grads.params = np.empty_like(model.params)
        grads.weights, grads.biases = layer_views(grads.params, [W.shape for W in model.weights])
        return grads


def init_model(layer_dims, seed: int, output_activation: str = SIGMOID) -> MlpModel:
    """Glorot-uniform weights (+-sqrt(6/(fan_in+fan_out))), zero biases.

    Deterministic for a fixed seed.  Hidden layers rectify.  Each weight
    view is filled in place with the values ``rng.uniform(-limit, limit)``
    would return, ``-limit + (limit - -limit) * u``, so no per-layer array
    is built.
    """
    dims = list(layer_dims)
    if len(dims) < 2:
        raise ValidationError("need at least an input and an output dimension")
    if any(d < 1 for d in dims):
        raise ValidationError(f"layer dims must be positive, got {dims}")
    if output_activation not in _ACTIVATIONS:
        raise ValidationError(f"unknown output activation {output_activation!r}")
    rng = np.random.default_rng(seed)
    params = np.zeros(parameter_count(dims))
    weights, _ = layer_views(params, weight_shapes(dims))
    for W in weights:
        d_out, d_in = W.shape
        limit = np.sqrt(6.0 / (d_in + d_out))
        rng.random(out=W)
        W *= limit - -limit
        W += -limit
    acts = [RELU] * (len(dims) - 2) + [output_activation]
    return MlpModel.from_params(params, dims, acts)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # exp of a non-positive argument cannot overflow; each branch equals the
    # textbook form on its side of zero bit for bit
    e = np.exp(-np.abs(z))
    d = 1.0 + e
    return np.where(z >= 0, 1.0 / d, e / d)


def _apply(act: str, z: np.ndarray) -> np.ndarray:
    """The activation of ``z``; ReLU overwrites ``z`` in place."""
    if act == RELU:
        return np.maximum(0.0, z, out=z)
    if act == SIGMOID:
        return _sigmoid(z)
    return z


def _derivative(act: str, a: np.ndarray) -> np.ndarray:
    """The activation's derivative, from its output ``a``."""
    # rectifier derivative at exactly 0 is taken as 0; a > 0 exactly where z > 0
    if act == RELU:
        return a > 0
    if act == SIGMOID:
        return a * (1.0 - a)
    return np.ones_like(a)


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
    act = []
    a = x
    for W, b, name in zip(model.weights, model.biases, model.activations):
        z = a @ W.T
        z += b
        a = _apply(name, z)
        act.append(a)
    if not np.isfinite(a).all():
        raise NumericError("non-finite network output; parameters are diverging")
    out = a[0] if single else a
    return out, ForwardCache(x=x, act=act)


def _check_layout(model: MlpModel, grads: Gradients) -> None:
    shapes = [W.shape for W in model.weights]
    if [W.shape for W in grads.weights] != shapes or grads.params.shape != model.params.shape:
        raise ShapeError(f"gradient layout {[W.shape for W in grads.weights]} "
                         f"does not match model weights {shapes}")


def backward(model: MlpModel, cache: ForwardCache, grad_outputs,
             grads: Gradients) -> Gradients:
    """Exact reverse-mode gradients for the cached forward pass, into ``grads``.

    Each layer's gradients are written straight into the views of
    ``grads``, a vector laid out like the model's parameters, whose old
    values are overwritten; ``grads`` is returned.  A training loop passes
    the same vector every step, so no gradient memory is allocated.
    """
    _check_layout(model, grads)
    g = np.asarray(grad_outputs, dtype=np.float64)
    if g.ndim == 1:
        g = g[None, :]
    if g.shape != cache.act[-1].shape:
        raise ShapeError(
            f"output gradient shape {g.shape} does not match forward outputs "
            f"{cache.act[-1].shape}"
        )
    delta = g
    for l in range(len(model.weights) - 1, -1, -1):
        delta = delta * _derivative(model.activations[l], cache.act[l])
        a_in = cache.x if l == 0 else cache.act[l - 1]
        np.matmul(delta.T, a_in, out=grads.weights[l])
        delta.sum(axis=0, out=grads.biases[l])
        if l > 0:
            delta = delta @ model.weights[l]
    return grads


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


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
ADAM_BLOCK = 32768  # elements per pass of adam_step: 256 KB per operand stays in cache


@dataclass
class AdamState:
    """First/second moments in the model's flat layout, and the step count."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0


def init_adam(model: MlpModel) -> AdamState:
    return AdamState(m=np.zeros_like(model.params), v=np.zeros_like(model.params))


TRAIN_BYTES_PER_PARAMETER = 32  # float64 parameters, gradients, and Adam's m and v
_MEMINFO = "/proc/meminfo"


def _mem_available() -> int | None:
    """``MemAvailable`` from ``_MEMINFO`` in bytes; None when it cannot be read."""
    try:
        with open(_MEMINFO, encoding="ascii") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    return None


def check_training_memory(layer_dims) -> None:
    """Refuse to train a network whose float64 training state cannot fit.

    Training peaks at ``TRAIN_BYTES_PER_PARAMETER`` bytes per parameter
    (parameters, one gradient vector, Adam's two moments) plus the feature
    matrix and one mini-batch.  When the per-parameter bytes exceed the
    memory the kernel reports as available, this raises ``ValidationError``
    before anything is allocated.  The check is skipped where ``_MEMINFO``
    cannot be read.
    """
    needed = TRAIN_BYTES_PER_PARAMETER * parameter_count(layer_dims)
    available = _mem_available()
    if available is not None and needed > available:
        raise ValidationError(
            f"training a network of layer dims {list(layer_dims)} needs {needed} bytes "
            f"({TRAIN_BYTES_PER_PARAMETER} per parameter), but only {available} bytes "
            f"are available"
        )


def adam_step(model: MlpModel, grads: Gradients, state: AdamState,
              lr: float) -> tuple[MlpModel, AdamState]:
    """One bias-corrected Adam update, applied in place.

    Per element, in this order of operations:
        m = b1*m + (1-b1)*g;  v = b2*v + ((1-b2)*g)*g
        p -= (lr*(m/corr1)) / (sqrt(v/corr2) + eps)
    The flat vectors are walked ``ADAM_BLOCK`` elements at a time through
    two scratch blocks, so every operand stays in cache between the
    operations and no whole-vector temporary is made.
    """
    if lr <= 0:
        raise ValidationError(f"learning rate must be positive, got {lr}")
    _check_layout(model, grads)
    state.t += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    corr1 = 1.0 - b1**state.t
    corr2 = 1.0 - b2**state.t
    p_all, g_all, m_all, v_all = model.params, grads.params, state.m, state.v
    n = p_all.size
    x_all = np.empty(min(n, ADAM_BLOCK))
    y_all = np.empty_like(x_all)
    for start in range(0, n, ADAM_BLOCK):
        stop = min(start + ADAM_BLOCK, n)
        p, g, m, v = p_all[start:stop], g_all[start:stop], m_all[start:stop], v_all[start:stop]
        x, y = x_all[:stop - start], y_all[:stop - start]
        m *= b1
        np.multiply(g, 1.0 - b1, out=x)
        m += x
        v *= b2
        np.multiply(g, 1.0 - b2, out=x)
        x *= g
        v += x
        np.divide(v, corr2, out=x)
        np.sqrt(x, out=x)
        x += ADAM_EPS
        np.divide(m, corr1, out=y)
        y *= lr
        y /= x
        p -= y
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
