"""Dense network machinery written against numpy only.

One layout and one input shape: a network's parameters, its gradients
and Adam's two moments are each one flat float64 vector in the
``layer_views`` layout, and every pass runs on a (batch, width) matrix.
Forward/backward passes, the focal and cross-entropy losses, and the
Adam update are all explicit here; no autodiff framework is involved.
Math runs in double precision so that analytic gradients can be checked
against central finite differences.  The step-decay learning rate is a
formula over the module configs' fields, in ``pipeline.lr_at``.

``adam_step`` splits a long flat vector into contiguous ranges, one per
core that BLAS leaves idle plus the caller's own (``_adam_threads``),
and walks them on short-lived threads; numpy releases the interpreter
lock inside each block's operations.  The update is elementwise, so its
bits do not depend on the split.
"""

from __future__ import annotations

import ctypes
import os
import threading
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


class MlpModel:
    """Weights, biases, and per-layer activation names of a dense network.

    ``params`` is one contiguous float64 vector in the ``layer_views``
    layout for ``layer_dims``, wrapped without a copy; ``weights[l]``
    (shape (d_out, d_in)) and ``biases[l]`` are views into it.  Hidden
    layers rectify, and the output layer is sigmoid in the standard
    configs (identity supports the softmax classification head).
    """

    def __init__(self, params: np.ndarray, layer_dims, activations):
        dims = list(layer_dims)
        if len(dims) < 2 or len(activations) != len(dims) - 1:
            raise ValidationError(f"{len(activations)} activations for layer dims {dims}")
        if params.dtype != np.float64 or params.shape != (parameter_count(dims),):
            raise ShapeError(f"parameters {params.dtype}{params.shape} do not fit dims {dims}")
        self.params = params
        self.layer_dims = dims
        self.weights, self.biases = layer_views(params, weight_shapes(dims))
        self.activations = list(activations)
        for i, (W, b, act) in enumerate(zip(self.weights, self.biases, self.activations)):
            if act not in _ACTIVATIONS:
                raise ValidationError(f"layer {i}: unknown activation {act!r}")
            if not (np.isfinite(W).all() and np.isfinite(b).all()):
                raise ValidationError(f"layer {i}: non-finite parameters")

    @property
    def input_dim(self) -> int:
        return self.layer_dims[0]

    def parameter_bytes(self) -> bytes:
        """Canonical byte string of all parameters (for freeze checks)."""
        return self.params.tobytes()


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
    return MlpModel(params, dims, acts)


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


def forward(model: MlpModel, X) -> tuple[np.ndarray, list[np.ndarray]]:
    """Run the network on a (batch, input_dim) matrix.

    Returns the outputs and ``acts = [X, a_1, ..., a_L]``, the input and
    every layer's activations, which is all ``backward`` needs: each
    activation's derivative is computed from the activation itself.
    """
    x = np.asarray(X, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.input_dim:
        raise ShapeError(f"input shape {x.shape} is not a (batch, width {model.input_dim}) batch")
    acts = [x]
    for W, b, name in zip(model.weights, model.biases, model.activations):
        z = acts[-1] @ W.T
        z += b
        acts.append(_apply(name, z))
    if not np.isfinite(acts[-1]).all():
        raise NumericError("non-finite network output; parameters are diverging")
    return acts[-1], acts


def _check_layout(model: MlpModel, grads: np.ndarray) -> None:
    if grads.shape != model.params.shape:
        raise ShapeError(f"gradient layout {grads.shape} does not match model parameters "
                         f"{model.params.shape}")


def backward(model: MlpModel, acts: list[np.ndarray], grad_outputs,
             grads: np.ndarray) -> np.ndarray:
    """Exact reverse-mode gradients for the forward pass that gave ``acts``.

    Each layer's gradients are written straight into the ``layer_views``
    of ``grads``, a float64 vector laid out like the model's parameters,
    whose old values are overwritten; ``grads`` is returned.  A training
    loop passes the same vector every step, so no gradient memory is
    allocated.
    """
    _check_layout(model, grads)
    g = np.asarray(grad_outputs, dtype=np.float64)
    if g.shape != acts[-1].shape:
        raise ShapeError(
            f"output gradient shape {g.shape} does not match forward outputs {acts[-1].shape}"
        )
    grad_w, grad_b = layer_views(grads, weight_shapes(model.layer_dims))
    delta = g
    for l in range(len(model.weights) - 1, -1, -1):
        delta = delta * _derivative(model.activations[l], acts[l + 1])
        np.matmul(delta.T, acts[l], out=grad_w[l])
        delta.sum(axis=0, out=grad_b[l])
        if l > 0:
            delta = delta @ model.weights[l]
    return grads


def clamp_probs(pred: np.ndarray) -> np.ndarray:
    return np.clip(pred, PRED_CLAMP, 1.0 - PRED_CLAMP)


def focal_loss(pred, target, alpha: float, gamma: float) -> tuple[float, np.ndarray]:
    """Mean focal loss over every element, with its gradient wrt ``pred``.

    Per element with target q and prediction p, class weight alpha and
    focusing power gamma:
        -[alpha * q * (1-p)^gamma * log(p)
          + (1-alpha) * (1-q) * p^gamma * log(1-p)]
    The mean runs over the batch and the target dimensions together.
    """
    p_raw = np.asarray(pred, dtype=np.float64)
    q = np.asarray(target, dtype=np.float64)
    if p_raw.shape != q.shape:
        raise ShapeError(f"pred shape {p_raw.shape} != target shape {q.shape}")
    a, g = alpha, gamma
    p = clamp_probs(p_raw)
    one_m_p = 1.0 - p
    log_p = np.log(p)
    log_1mp = np.log(one_m_p)
    w_pos = a * q
    w_neg = (1.0 - a) * (1.0 - q)
    pow_pos = one_m_p**g
    pow_neg = p**g
    term = -(w_pos * pow_pos * log_p + w_neg * pow_neg * log_1mp)
    # d(term)/dp; the gamma * x^(gamma-1) factors vanish exactly at gamma = 0
    d_pos = -w_pos * (pow_pos / p - g * one_m_p ** (g - 1.0) * log_p)
    d_neg = -w_neg * (g * p ** (g - 1.0) * log_1mp - pow_neg / one_m_p)
    grad = (d_pos + d_neg) / term.size
    return float(term.mean()), grad


def _check_labels(scores: np.ndarray, labels: np.ndarray) -> None:
    if scores.ndim != 2 or labels.shape != (scores.shape[0],):
        raise ShapeError(f"outputs shape {scores.shape} incompatible with labels shape "
                         f"{labels.shape}")
    if labels.min() < 0 or labels.max() >= scores.shape[1]:
        raise ValidationError(f"label out of range [0, {scores.shape[1]})")


def action_loss(pred, labels) -> tuple[float, np.ndarray]:
    """Cross-entropy -log(pred[label]) over sigmoid-head class outputs.

    ``pred`` is a batch with one integer label per row; the loss averages
    over the batch and the gradient carries the same 1/batch factor.
    """
    p = np.asarray(pred, dtype=np.float64)
    y = np.asarray(labels)
    _check_labels(p, y)
    n = p.shape[0]
    rows = np.arange(n)
    picked = clamp_probs(p[rows, y])
    loss = float(-np.log(picked).mean())
    grad = np.zeros_like(p)
    grad[rows, y] = -1.0 / (picked * n)
    return loss, grad


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_action_loss(logits, labels) -> tuple[float, np.ndarray]:
    """Cross-entropy over a softmax of raw class scores (identity head)."""
    z = np.asarray(logits, dtype=np.float64)
    y = np.asarray(labels)
    _check_labels(z, y)
    n = z.shape[0]
    p = softmax(z)
    rows = np.arange(n)
    loss = float(-np.log(clamp_probs(p[rows, y])).mean())
    grad = p.copy()
    grad[rows, y] -= 1.0
    grad /= n
    return loss, grad


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# elements per pass of an adam_step range (one range per _adam_threads, each with
# two scratch blocks of its own): 256 KB per operand stays in cache
ADAM_BLOCK = 32768
ADAM_MIN_BLOCKS = 4  # shortest range given its own thread: ~1 ms of work against ~0.1 ms to start one
ADAM_MAX_THREADS = 2  # the split was timed on two cores only


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


def check_memory(layer_dims, bytes_per_parameter: int, task: str) -> None:
    """Refuse a ``task`` that needs more than ``MemAvailable`` for its parameters.

    When ``bytes_per_parameter`` times the network's parameter count exceeds
    the memory the kernel reports as available, this raises
    ``ValidationError`` before anything is allocated.  The check is skipped
    where ``_MEMINFO`` cannot be read.
    """
    needed = bytes_per_parameter * parameter_count(layer_dims)
    available = _mem_available()
    if available is not None and needed > available:
        raise ValidationError(
            f"{task} a network of layer dims {list(layer_dims)} needs {needed} bytes "
            f"({bytes_per_parameter} per parameter), but only {available} bytes "
            f"are available"
        )


def check_training_memory(layer_dims) -> None:
    """Refuse to train a network whose float64 training state cannot fit.

    Training peaks at ``TRAIN_BYTES_PER_PARAMETER`` bytes per parameter
    (parameters, one gradient vector, Adam's two moments) plus the feature
    matrix, one mini-batch, and two ``ADAM_BLOCK`` scratch blocks (512 KB)
    per Adam range, one range per ``_adam_threads``.
    """
    check_memory(layer_dims, TRAIN_BYTES_PER_PARAMETER, "training")


try:  # numpy's OpenBLAS thread-count controls; without them, a count of None and a no-op
    _lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
    blas_threads = _lib.scipy_openblas_get_num_threads64_
    blas_threads.argtypes, blas_threads.restype = [], ctypes.c_int
    set_blas_threads = _lib.scipy_openblas_set_num_threads64_
    set_blas_threads.argtypes, set_blas_threads.restype = [ctypes.c_int], None
except (AttributeError, OSError):
    blas_threads, set_blas_threads = (lambda: None), (lambda count: None)


def _adam_threads() -> int:
    """How many threads, the caller's included, one ``adam_step`` may use.

    The caller's own, plus each core of the process's affinity mask (else
    the machine's core count) that BLAS's live thread count leaves idle,
    at most ``ADAM_MAX_THREADS``; one where BLAS cannot report its count.
    OpenBLAS's helper threads spin on their cores for about 0.1 s after
    each matrix product, so an Adam thread there would only wait for them.
    """
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # the affinity call exists only on some platforms
        cores = os.cpu_count() or 1
    blas = min(blas_threads() or cores, cores)
    return max(1, min(ADAM_MAX_THREADS, cores - blas + 1))


def _adam_ranges(n: int, threads: int) -> list[tuple[int, int]]:
    """Contiguous [start, stop) ranges that split [0, n) for ``adam_step``.

    At most ``threads`` ranges, each a whole number of ``ADAM_BLOCK``s (the
    last ends at n), and none shorter than ``ADAM_MIN_BLOCKS`` blocks; a
    vector too short for two such ranges is one range.
    """
    blocks = n // ADAM_BLOCK  # whole blocks; the last range also takes the ragged tail
    k = max(1, min(threads, blocks // ADAM_MIN_BLOCKS))
    edges = [i * blocks // k * ADAM_BLOCK for i in range(k)] + [n]
    return list(zip(edges[:-1], edges[1:]))


def _adam_walk(p_all, g_all, m_all, v_all, lr, corr1, corr2, start, stop) -> None:
    """The Adam update of elements [start, stop), in place, through two scratch blocks."""
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    x_all = np.empty(min(stop - start, ADAM_BLOCK))
    y_all = np.empty_like(x_all)
    for lo in range(start, stop, ADAM_BLOCK):
        hi = min(lo + ADAM_BLOCK, stop)
        p, g, m, v = p_all[lo:hi], g_all[lo:hi], m_all[lo:hi], v_all[lo:hi]
        x, y = x_all[:hi - lo], y_all[:hi - lo]
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


def adam_step(model: MlpModel, grads: np.ndarray, state: AdamState,
              lr: float) -> tuple[MlpModel, AdamState]:
    """One bias-corrected Adam update, applied in place.

    Per element, in this order of operations:
        m = b1*m + (1-b1)*g;  v = b2*v + ((1-b2)*g)*g
        p -= (lr*(m/corr1)) / (sqrt(v/corr2) + eps)
    The flat vectors are split into ``_adam_ranges``, one per
    ``_adam_threads``: with BLAS on one thread, as in training, a two-core
    machine gets two ranges, and with BLAS on both cores, or under
    ``taskset -c 0``, there is one.  The calling thread walks the first
    range and a short-lived thread each other one, or the caller itself
    where no thread can be started; all are joined before this returns,
    and an exception in any is raised here.  Each range is walked
    ``ADAM_BLOCK`` elements at a time through its own two scratch blocks,
    so every operand stays in cache between the operations and no
    whole-vector temporary is made.  The update is elementwise, so the
    bits do not depend on the split.
    """
    if not lr > 0:
        raise ValidationError(f"learning rate must be positive, got {lr}")
    _check_layout(model, grads)
    state.t += 1
    args = (model.params, grads, state.m, state.v, lr,
            1.0 - ADAM_BETA1**state.t, 1.0 - ADAM_BETA2**state.t)
    first, *rest = _adam_ranges(model.params.size, _adam_threads())
    errors: list[BaseException] = []

    def walk(start: int, stop: int) -> None:
        try:
            _adam_walk(*args, start, stop)
        except BaseException as exc:  # a thread drops what it raises; the caller re-raises it
            errors.append(exc)

    workers: list[threading.Thread] = []
    for start, stop in rest:
        worker = threading.Thread(target=walk, args=(start, stop))
        try:
            worker.start()
        except RuntimeError:  # no thread to be had: the range is walked here
            walk(start, stop)
        else:
            workers.append(worker)
    walk(*first)
    for worker in workers:
        worker.join()
    if errors:
        raise errors[0]
    return model, state
