"""From-scratch MLP: forward/backward against finite differences, losses, Adam.

The step-decay schedule and the focal terms are fields of the module
configs; their formula and bounds are checked here too.
"""

import math
import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from casar import neuralcore
from casar.datamodel import DatasetConfig
from casar.errors import NumericError, ShapeError, ValidationError
from casar.neuralcore import (
    ADAM_BLOCK,
    ADAM_MIN_BLOCKS,
    IDENTITY,
    PRED_CLAMP,
    RELU,
    SIGMOID,
    SPLIT_MAX_THREADS,
    AdamState,
    MlpModel,
    _sigmoid,
    action_loss,
    adam_step,
    backward,
    clamp_probs,
    focal_loss,
    forward,
    init_adam,
    init_model,
    layer_views,
    parameter_count,
    softmax,
    softmax_action_loss,
)
from casar.pipeline import ActionModuleConfig, ContactModuleConfig, lr_at


def _model(weights, biases, activations) -> MlpModel:
    """A model over the given per-layer arrays, packed into one flat vector."""
    params = np.concatenate([np.ravel(a) for a in (*weights, *biases)]).astype(np.float64)
    return MlpModel(params, [weights[0].shape[1]] + [W.shape[0] for W in weights], activations)


# ---------------------------------------------------------------------------
# finite-difference oracle (kept independent of backward())


def numeric_gradients(model, inputs, loss_of_output, eps=1e-5):
    """Central differences through the whole forward pass, one parameter at a time."""
    grads = np.zeros_like(model.params)

    def loss_now():
        out, _ = forward(model, inputs)
        return loss_of_output(out)

    flat = model.params  # every weight and bias is a view of it
    for i in range(flat.size):
        saved = flat[i]
        flat[i] = saved + eps
        hi = loss_now()
        flat[i] = saved - eps
        lo = loss_now()
        flat[i] = saved
        grads[i] = (hi - lo) / (2.0 * eps)
    return grads


def assert_grads_close(analytic, numeric, tol=1e-4):
    denom = np.maximum(1e-6, np.maximum(np.abs(analytic), np.abs(numeric)))
    rel = np.abs(analytic - numeric) / denom
    assert rel.max() <= tol, f"relative gradient error {rel.max():.2e}"


def test_backward_matches_finite_differences_focal():
    rng = np.random.default_rng(11)
    for draw in range(3):
        model = init_model([5, 4, 3], seed=100 + draw)
        X = rng.normal(size=(8, 5))
        Y = rng.integers(0, 2, size=(8, 3)).astype(np.float64)
        out, acts = forward(model, X)
        _, grad_out = focal_loss(out, Y, 0.5, 4.0)
        analytic = backward(model, acts, grad_out, np.empty_like(model.params))
        numeric = numeric_gradients(model, X, lambda o: focal_loss(o, Y, 0.5, 4.0)[0])
        assert_grads_close(analytic, numeric)


def test_backward_matches_finite_differences_action_heads():
    rng = np.random.default_rng(12)
    labels = rng.integers(0, 3, size=8)
    X = rng.normal(size=(8, 6))
    for draw in range(3):
        sig = init_model([6, 4, 3], seed=200 + draw, output_activation=SIGMOID)
        out, acts = forward(sig, X)
        _, grad_out = action_loss(out, labels)
        assert_grads_close(
            backward(sig, acts, grad_out, np.empty_like(sig.params)),
            numeric_gradients(sig, X, lambda o: action_loss(o, labels)[0]),
        )
        lin = init_model([6, 4, 3], seed=300 + draw, output_activation=IDENTITY)
        out, acts = forward(lin, X)
        _, grad_out = softmax_action_loss(out, labels)
        assert_grads_close(
            backward(lin, acts, grad_out, np.empty_like(lin.params)),
            numeric_gradients(lin, X, lambda o: softmax_action_loss(o, labels)[0]),
        )


# ---------------------------------------------------------------------------
# focal loss values


def test_focal_frozen_scalar():
    loss, _ = focal_loss(np.array([[0.5]]), np.array([[1.0]]), 0.5, 4.0)
    assert loss == pytest.approx(0.5 * 0.0625 * math.log(2.0), abs=1e-12)


def test_focal_gamma_zero_is_balanced_cross_entropy():
    rng = np.random.default_rng(5)
    p = rng.uniform(0.05, 0.95, size=(6, 7))
    q = rng.integers(0, 2, size=(6, 7)).astype(np.float64)
    loss, grad = focal_loss(p, q, alpha=0.5, gamma=0.0)
    bce = -(0.5 * q * np.log(p) + 0.5 * (1 - q) * np.log(1 - p))
    bce_grad = -(0.5 * q / p - 0.5 * (1 - q) / (1 - p)) / p.size
    assert abs(loss - bce.mean()) <= 1e-12
    np.testing.assert_allclose(grad, bce_grad, atol=1e-12)


@pytest.mark.parametrize("gamma", [0.0, 2.0, 4.0])
def test_focal_matches_the_textbook_expression_bit_for_bit(gamma):
    rng = np.random.default_rng(int(gamma))
    a = 0.25
    p_raw = rng.uniform(0.0, 1.0, size=(64, 84))
    p_raw[0, :4] = (0.0, 1e-9, 1.0 - 1e-9, 1.0)  # clamped at both ends
    q = rng.integers(0, 2, size=p_raw.shape).astype(np.float64)
    loss, grad = focal_loss(p_raw, q, a, gamma)
    p = clamp_probs(p_raw)
    term = -(a * q * (1.0 - p)**gamma * np.log(p)
             + (1.0 - a) * (1.0 - q) * p**gamma * np.log(1.0 - p))
    d_pos = -a * q * ((1.0 - p)**gamma / p - gamma * (1.0 - p)**(gamma - 1.0) * np.log(p))
    d_neg = -(1.0 - a) * (1.0 - q) * (gamma * p**(gamma - 1.0) * np.log(1.0 - p)
                                      - p**gamma / (1.0 - p))
    assert loss == float(term.mean())
    assert grad.tobytes() == ((d_pos + d_neg) / term.size).tobytes()


def test_focal_is_finite_at_saturated_predictions():
    p = np.array([[0.0, 1.0]])
    q = np.array([[1.0, 0.0]])
    loss, grad = focal_loss(p, q, 0.5, 4.0)
    assert np.isfinite(loss) and np.isfinite(grad).all()


def test_focal_batch_mean_weighting():
    rng = np.random.default_rng(8)
    p = rng.uniform(0.1, 0.9, size=(5, 4))
    q = rng.integers(0, 2, size=(5, 4)).astype(np.float64)
    whole, _ = focal_loss(p, q, 0.5, 4.0)
    head, _ = focal_loss(p[:2], q[:2], 0.5, 4.0)
    tail, _ = focal_loss(p[2:], q[2:], 0.5, 4.0)
    assert abs(whole - (2 * head + 3 * tail) / 5) <= 1e-12


def test_focal_params_validated():
    for bad in ({"focal_alpha": 0.0}, {"focal_alpha": 1.0}, {"focal_gamma": -1.0}):
        with pytest.raises(ValidationError, match=next(iter(bad))):
            ContactModuleConfig(**bad)
    ContactModuleConfig(focal_alpha=0.25, focal_gamma=0.0)


def test_focal_shape_mismatch():
    with pytest.raises(ShapeError):
        focal_loss(np.zeros((2, 3)), np.zeros((3, 2)), 0.5, 4.0)


# ---------------------------------------------------------------------------
# action losses


def test_action_loss_picks_the_labeled_output():
    pred = np.array([[0.2, 0.7, 0.1]])
    loss, grad = action_loss(pred, [1])
    assert loss == pytest.approx(-math.log(0.7), abs=1e-12)
    assert grad[0, 0] == 0.0 and grad[0, 2] == 0.0
    assert grad[0, 1] == pytest.approx(-1.0 / 0.7, abs=1e-12)


def test_action_loss_clamps_zero_probability():
    loss, grad = action_loss(np.array([[0.0, 1.0]]), [0])
    assert loss == pytest.approx(-math.log(PRED_CLAMP), abs=1e-9)
    assert np.isfinite(grad).all()


def test_action_loss_label_range():
    with pytest.raises(ValidationError):
        action_loss(np.ones((2, 3)) * 0.5, [0, 3])


def test_action_loss_rejects_a_single_vector():
    pred = np.array([0.2, 0.7, 0.1])
    for loss_fn in (action_loss, softmax_action_loss):
        with pytest.raises(ShapeError):
            loss_fn(pred, 1)
        loss, grad = loss_fn(pred[None, :], [1])
        assert np.isfinite(loss) and grad.shape == (1, 3)


def test_softmax_uniform_logits_give_log_class_count():
    for c in (2, 6, 36):
        loss, _ = softmax_action_loss(np.zeros((4, c)), np.zeros(4, dtype=int))
        assert loss == pytest.approx(math.log(c), abs=1e-12)


def test_softmax_is_shift_invariant_and_normalized():
    rng = np.random.default_rng(2)
    z = rng.normal(size=(5, 9)) * 50
    p = softmax(z)
    np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)
    np.testing.assert_allclose(softmax(z + 1000.0), p, atol=1e-12)


def test_softmax_loss_gradient_rows_sum_to_zero():
    rng = np.random.default_rng(3)
    z = rng.normal(size=(4, 5))
    _, grad = softmax_action_loss(z, rng.integers(0, 5, size=4))
    np.testing.assert_allclose(grad.sum(axis=1), 0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# model construction and forward


def test_init_model_is_deterministic_and_glorot_bounded():
    a = init_model([7, 5, 3], seed=4)
    b = init_model([7, 5, 3], seed=4)
    c = init_model([7, 5, 3], seed=5)
    for Wa, Wb in zip(a.weights, b.weights):
        np.testing.assert_array_equal(Wa, Wb)
    assert any(not np.array_equal(Wa, Wc) for Wa, Wc in zip(a.weights, c.weights))
    for W, bias in zip(a.weights, a.biases):
        fan_out, fan_in = W.shape
        bound = math.sqrt(6.0 / (fan_in + fan_out))
        assert np.abs(W).max() <= bound
        np.testing.assert_array_equal(bias, 0.0)
    assert a.activations == [RELU, SIGMOID]
    assert a.layer_dims == [7, 5, 3]


def test_init_model_validation():
    with pytest.raises(ValidationError):
        init_model([5], seed=0)
    with pytest.raises(ValidationError):
        init_model([5, 0, 3], seed=0)
    with pytest.raises(ValidationError):
        init_model([5, 4, 3], seed=0, output_activation="tanh")


def test_model_rejects_inconsistent_layers():
    n = parameter_count([5, 4, 3])
    with pytest.raises(ShapeError):
        MlpModel(np.zeros(n + 1), [5, 4, 3], [RELU, SIGMOID])
    for dtype in (np.float32, np.float64):  # the two parameter precisions
        assert MlpModel(np.zeros(n, dtype=dtype), [5, 4, 3], [RELU, SIGMOID]).params.dtype == dtype
    for dtype in (np.float16, np.int64, np.int32):
        with pytest.raises(ShapeError):
            MlpModel(np.zeros(n, dtype=dtype), [5, 4, 3], [RELU, SIGMOID])
    with pytest.raises(ValidationError):
        MlpModel(np.zeros(n), [5, 4, 3], [RELU])
    with pytest.raises(ValidationError):
        MlpModel(np.zeros(n), [5, 4, 3], [RELU, "tanh"])
    with pytest.raises(ValidationError):
        MlpModel(np.full(n, np.nan), [5, 4, 3], [RELU, SIGMOID])


def test_weights_and_biases_are_views_of_one_flat_vector():
    model = init_model([7, 5, 3], seed=4)
    assert model.params.shape == (parameter_count([7, 5, 3]),) == (7 * 5 + 5 * 3 + 5 + 3,)
    for a in model.weights + model.biases:
        assert a.base is model.params
    assert model.parameter_bytes() == b"".join(
        [W.tobytes() for W in model.weights] + [b.tobytes() for b in model.biases])
    model.params[-1] = 2.5  # the last bias of the last layer
    assert model.biases[-1][-1] == 2.5
    # the constructor wraps the vector it is given, without a copy
    assert MlpModel(model.params, [7, 5, 3], [RELU, SIGMOID]).params is model.params
    # backward writes every layer into the views of one gradient vector
    _, acts = forward(model, np.ones((2, 7)))
    grads = np.full_like(model.params, np.nan)
    assert backward(model, acts, np.ones((2, 3)), grads) is grads
    assert np.isfinite(grads).all()  # every layer's views were written


def test_forward_rejects_a_single_vector():
    model = init_model([6, 4, 2], seed=1)
    x = np.linspace(-1, 1, 6)
    with pytest.raises(ShapeError, match="batch"):
        forward(model, x)
    with pytest.raises(ShapeError, match="batch"):
        forward(model, np.ones((2, 5)))
    out, acts = forward(model, x[None])
    assert out.shape == (1, 2)
    assert [a.shape for a in acts] == [(1, 6), (1, 4), (1, 2)] and acts[-1] is out


def test_forward_rows_are_independent():
    model = init_model([5, 8, 3], seed=9)
    rng = np.random.default_rng(10)
    X = rng.normal(size=(7, 5))
    full, _ = forward(model, X)
    for i in range(7):
        row, _ = forward(model, X[i:i + 1])
        # batched matmul may reassociate sums, so allow ulp-level slack
        np.testing.assert_allclose(full[i], row[0], rtol=1e-12, atol=1e-15)


def test_forward_is_pure():
    model = init_model([4, 3, 2], seed=0)
    x = np.ones((1, 4))
    a, _ = forward(model, x)
    b, _ = forward(model, x)
    np.testing.assert_array_equal(a, b)


def test_float32_model_keeps_every_array_in_float32():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(5, 6)).astype(np.float32)
    labels = rng.integers(0, 3, size=5)
    targets = rng.integers(0, 2, size=(5, 3)).astype(np.float64)
    for head, loss in ((SIGMOID, lambda o: action_loss(o, labels)),
                       (SIGMOID, lambda o: focal_loss(o, targets, 0.5, 4.0)),
                       (IDENTITY, lambda o: softmax_action_loss(o, labels))):
        model = init_model([6, 4, 3], seed=7, output_activation=head, dtype=np.float32)
        # the same float64 Glorot draws, cast once
        assert model.params.tobytes() == init_model(
            [6, 4, 3], seed=7, output_activation=head).params.astype(np.float32).tobytes()
        out, acts = forward(model, X)
        assert acts[0] is X  # an input already in the parameters' dtype is not copied
        assert [a.dtype for a in acts] == [np.float32] * 3
        value, grad_out = loss(out)
        assert isinstance(value, float) and grad_out.dtype == np.float32
        grads = backward(model, acts, grad_out, np.empty_like(model.params))
        assert grads.dtype == np.float32
        with pytest.raises(ShapeError, match="float64"):
            backward(model, acts, grad_out, np.empty(model.params.size))
        state = init_adam(model)
        adam_step(model, grads, state, lr=np.float64(1e-3))
        assert [a.dtype for a in (model.params, state.m, state.v)] == [np.float32] * 3


def test_float64_input_to_a_float32_model_is_cast_once():
    model = init_model([6, 4, 3], seed=8, dtype=np.float32)
    X = np.random.default_rng(9).normal(size=(4, 6))
    out, acts = forward(model, X)
    assert acts[0].dtype == np.float32
    assert acts[0].tobytes() == X.astype(np.float32).tobytes()
    assert out.tobytes() == forward(model, X.astype(np.float32))[0].tobytes()


def test_forward_flags_non_finite_results():
    model = _model([np.array([[1e200]]), np.array([[1e200]])], [np.zeros(1), np.zeros(1)],
                   [IDENTITY, IDENTITY])
    with np.errstate(over="ignore"), pytest.raises(NumericError):
        forward(model, np.array([[1e200]]))


def test_sigmoid_is_stable_at_extreme_preactivations():
    model = _model([np.array([[1.0]])], [np.zeros(1)], [SIGMOID])
    lo, _ = forward(model, np.array([[-1e4]]))
    hi, _ = forward(model, np.array([[1e4]]))
    assert 0.0 <= lo[0, 0] < 1e-300 or lo[0, 0] == 0.0
    assert hi[0, 0] == 1.0


def test_relu_derivative_is_zero_at_zero():
    model = _model([np.array([[1.0]]), np.array([[1.0]])], [np.zeros(1), np.zeros(1)],
                   [RELU, IDENTITY])
    out, acts = forward(model, np.array([[0.0]]))
    assert out[0, 0] == 0.0
    grads = backward(model, acts, np.array([[1.0]]), np.empty_like(model.params))
    assert grads[0] == 0.0  # first layer's weight: no gradient flows through relu(0)
    out, acts = forward(model, np.array([[2.0]]))
    grads = backward(model, acts, np.array([[1.0]]), np.empty_like(model.params))
    assert grads[0] == 2.0  # active side: d/dw (w * x) = x


def _masked_sigmoid(z):
    """The two-branch sigmoid through boolean gathers and scatters, as a reference."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def test_sigmoid_equals_the_masked_formula_bit_for_bit():
    special = np.array([0.0, -0.0, 1.0, -1.0, 1e-300, -1e-300, 800.0, -800.0])
    rng = np.random.default_rng(21)
    for z in (special, rng.normal(scale=12.0, size=(37, 29)), rng.normal(size=1000)):
        got = _sigmoid(z)
        assert got.tobytes() == _masked_sigmoid(z).tobytes()
    assert _sigmoid(special)[:2].tolist() == [0.5, 0.5]


def test_backward_overwrites_the_vector_it_is_given():
    model = init_model([6, 5, 4, 3], seed=4)
    rng = np.random.default_rng(5)
    X, G = rng.normal(size=(9, 6)), rng.normal(size=(9, 3))
    _, acts = forward(model, X)
    fresh = backward(model, acts, G, np.empty_like(model.params))
    stale = np.full_like(model.params, np.nan)
    assert backward(model, acts, G, stale).tobytes() == fresh.tobytes()
    with pytest.raises(ShapeError, match="gradient layout"):
        backward(model, acts, G, np.empty_like(init_model([6, 4, 4, 3], seed=4).params))


def test_clamp_probs_bounds():
    clamped = clamp_probs(np.array([-1.0, 0.0, 0.5, 1.0, 2.0]))
    assert clamped.min() == PRED_CLAMP
    assert clamped.max() == 1.0 - PRED_CLAMP
    assert clamped[2] == 0.5


# ---------------------------------------------------------------------------
# Adam


def _single_weight_model(w0: float) -> MlpModel:
    return MlpModel(np.array([w0, 0.0]), [1, 1], [IDENTITY])


def test_adam_first_step_has_learning_rate_magnitude():
    model = init_model([3, 2], seed=0, output_activation=IDENTITY)
    before = [W.copy() for W in model.weights]
    grad_w = np.array([[0.5, -2.0, 10.0], [-0.01, 1.0, -1.0]])
    grads = np.concatenate([grad_w.ravel(), [3.0, -3.0]])
    adam_step(model, grads, init_adam(model), lr=0.01)
    delta = model.weights[0] - before[0]
    np.testing.assert_allclose(delta, -0.01 * np.sign(grad_w), rtol=1e-6)


def test_adam_zero_gradient_moves_nothing():
    model = init_model([3, 2], seed=1)
    before = [W.copy() for W in model.weights]
    adam_step(model, np.zeros_like(model.params), init_adam(model), lr=0.1)
    for W, W0 in zip(model.weights, before):
        np.testing.assert_array_equal(W, W0)


def test_adam_minimizes_a_quadratic():
    model = _single_weight_model(1.0)
    state = init_adam(model)
    for _ in range(200):
        w = model.weights[0][0, 0]
        adam_step(model, np.array([2.0 * w, 0.0]), state, lr=0.1)
    assert abs(model.weights[0][0, 0]) < 0.05


def test_adam_updates_are_deterministic_and_stateful():
    runs = []
    for _ in range(2):
        model = _single_weight_model(0.3)
        state = init_adam(model)
        for step in range(5):
            adam_step(model, np.array([1.0, 0.0]), state, lr=0.05)
        runs.append(model.weights[0][0, 0])
    assert runs[0] == runs[1]
    assert isinstance(state, AdamState) and state.t == 5


def test_adam_step_matches_the_unblocked_update_bit_for_bit():
    """The blocked in-place walk gives exactly the per-array expression's bits, in either dtype."""
    for dtype in (np.float64, np.float32):
        model = init_model([400, 250, 9], seed=2, dtype=dtype)
        n = model.params.size
        assert n > 3 * ADAM_BLOCK and n % ADAM_BLOCK  # several blocks and a ragged tail
        ref_p = [a.copy() for a in model.weights + model.biases]
        ref_m = [np.zeros_like(a) for a in ref_p]
        ref_v = [np.zeros_like(a) for a in ref_p]
        state = init_adam(model)
        rng = np.random.default_rng(3)
        for t, lr in enumerate((1e-3, 5e-4, 2e-3, 1e-4), start=1):
            flat = rng.normal(scale=rng.uniform(0.01, 10.0), size=n).astype(dtype)
            gw, gb = layer_views(flat, [W.shape for W in model.weights])
            adam_step(model, flat, state, lr)
            # the bias corrections folded into two scalars (Kingma & Ba, end of section 2)
            root2 = math.sqrt(1.0 - 0.999**t)
            step, eps = lr * root2 / (1.0 - 0.9**t), 1e-8 * root2
            for p, g, m, v in zip(ref_p, gw + gb, ref_m, ref_v):
                m *= 0.9
                m += (1.0 - 0.9) * g
                v *= 0.999
                v += (1.0 - 0.999) * g * g
                p -= m / (np.sqrt(v) + eps) * step
            assert b"".join(a.tobytes() for a in ref_p) == model.parameter_bytes()
        assert state.t == 4
        assert state.m.dtype == state.v.dtype == model.params.dtype == dtype


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_adam_scratch_blocks_take_the_parameters_dtype(dtype, pin_split_threads):
    pin_split_threads(1)
    model = init_model([400, 250, 9], seed=2, dtype=dtype)
    assert model.params.size > ADAM_BLOCK
    grads = np.random.default_rng(4).normal(size=model.params.size).astype(dtype)
    state = init_adam(model)
    tracemalloc.start()
    try:
        adam_step(model, grads, state, lr=1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    scratch = ADAM_BLOCK * np.dtype(dtype).itemsize  # one range, one block
    assert scratch <= peak <= scratch + (64 << 10)


def test_adam_validation():
    model = _single_weight_model(0.0)
    with pytest.raises(ValidationError):
        adam_step(model, np.zeros(2), init_adam(model), lr=0.0)
    with pytest.raises(ValidationError):
        adam_step(model, np.zeros(2), init_adam(model), lr=float("nan"))
    with pytest.raises(ShapeError):
        adam_step(model, np.zeros(0), init_adam(model), lr=0.1)


def _adam_run(threads: int, pin_split_threads) -> bytes:
    """Params, m and v bytes after three Adam steps on ``threads`` threads."""
    pin_split_threads(threads)
    model = init_model([2100, 250, 9], seed=4)
    n = model.params.size
    # just above the floor for four ranges, with a ragged tail
    assert 4 * ADAM_MIN_BLOCKS * ADAM_BLOCK < n < (4 * ADAM_MIN_BLOCKS + 1) * ADAM_BLOCK
    assert len(neuralcore._adam_ranges(n, threads)) == threads
    state = init_adam(model)
    rng = np.random.default_rng(5)
    for lr in (1e-3, 5e-4, 2e-3):
        adam_step(model, rng.normal(size=n), state, lr)
    assert state.t == 3
    return model.parameter_bytes() + state.m.tobytes() + state.v.tobytes()


def test_adam_step_bits_do_not_depend_on_the_thread_count(pin_split_threads):
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # threads interleave as often as they can
    try:
        runs = [_adam_run(threads, pin_split_threads) for threads in (1, 2, 3, 4)]
    finally:
        sys.setswitchinterval(interval)
    assert runs[1:] == runs[:1] * 3


@pytest.mark.parametrize("n, ranges", [
    (1, 1), (2 * ADAM_MIN_BLOCKS * ADAM_BLOCK - 1, 1),
    (2 * ADAM_MIN_BLOCKS * ADAM_BLOCK + 1, 2), (100 * ADAM_BLOCK, 3)])
def test_adam_ranges_cover_the_vector_in_whole_blocks(n, ranges):
    split = neuralcore._adam_ranges(n, 3)
    assert len(split) == ranges
    assert split[0][0] == 0 and split[-1][1] == n
    assert all(stop == start for (_, stop), (start, _) in zip(split, split[1:]))
    assert all(start % ADAM_BLOCK == 0 for start, _ in split)
    assert ranges == 1 or all(stop - start >= ADAM_MIN_BLOCKS * ADAM_BLOCK for start, stop in split)


@pytest.mark.parametrize("cores, blas, threads", [
    (2, 2, 1),  # OpenBLAS's default: one thread per core, none left idle
    (2, 1, 2),  # one BLAS thread, as in training
    (2, 8, 1),
    (1, 1, 1),  # taskset -c 0
    (8, 1, SPLIT_MAX_THREADS),
    (8, 7, 2),
    (8, 8, 1),
    (2, None, 1)])  # a BLAS without thread controls: one range
def test_adam_threads_use_the_cores_blas_leaves_idle(monkeypatch, cores, blas, threads):
    # process-wide for the test: neuralcore reads the mask through the os module
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)
    monkeypatch.setattr(neuralcore, "blas_threads", lambda: blas)
    assert neuralcore._split_threads() == threads


def test_numpys_blas_thread_controls_are_found(restore_blas_threads):
    assert isinstance(neuralcore.blas_threads(), int), (
        "numpy's OpenBLAS exports no scipy_openblas_get_num_threads64_ / "
        "scipy_openblas_set_num_threads64_: training would run at the caller's BLAS "
        "thread count, and its bytes would depend on it")
    for count in (1, 2, 1):
        neuralcore.set_blas_threads(count)
        assert neuralcore.blas_threads() == count


def test_adam_step_raises_what_a_worker_raises(pin_split_threads, monkeypatch):
    pin_split_threads(2)
    walk = neuralcore._adam_walk
    failure = ArithmeticError("worker failed")

    def failing_walk(*args):
        if args[-2] > 0:  # the range a worker thread walks
            raise failure
        walk(*args)

    monkeypatch.setattr(neuralcore, "_adam_walk", failing_walk)
    model = init_model([2100, 250, 9], seed=4)
    threads = threading.active_count()
    with pytest.raises(ArithmeticError) as info:
        adam_step(model, np.ones_like(model.params), init_adam(model), lr=1e-3)
    assert info.value is failure
    assert threading.active_count() == threads


def test_adam_step_walks_a_range_itself_when_no_thread_starts(pin_split_threads, monkeypatch):
    whole = _adam_run(1, pin_split_threads)

    def no_thread(self):
        raise RuntimeError("can't start new thread")

    monkeypatch.setattr(threading.Thread, "start", no_thread)
    assert _adam_run(2, pin_split_threads) == whole


# g and f at the C4 widths: only g's first layer is large enough to split
G_DIMS = [DatasetConfig().augmented_clip_dim, 256, 256, DatasetConfig().action_class_count]
F_DIMS = [DatasetConfig().frame_dim, 64, 64, DatasetConfig().contact_dim]


def _products(dims, rows: int, dtype, threads: int, pin_split_threads) -> bytes:
    """Forward outputs and backward gradients of one pass on ``threads`` threads."""
    pin_split_threads(threads)
    model = init_model(dims, seed=6, dtype=dtype)
    X = np.random.default_rng(7).normal(size=(rows, dims[0]))
    with neuralcore.training_mode():
        out, acts = forward(model, X)
        grads = backward(model, acts, out - 0.5, np.empty_like(model.params))
    return b"".join(a.tobytes() for a in acts) + grads.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("dims, rows", [(G_DIMS, 48), (G_DIMS, 1), (F_DIMS, 32)],
                         ids=["g-training-batch", "g-one-row", "f-scoring-block"])
def test_products_give_the_same_bits_on_one_two_and_three_threads(
        dims, rows, dtype, pin_split_threads):
    runs = [_products(dims, rows, dtype, threads, pin_split_threads) for threads in (1, 2, 3)]
    assert runs[1:] == runs[:1] * 2


def test_only_gs_first_layer_products_start_threads(pin_split_threads, monkeypatch):
    starts, start = [0], threading.Thread.start

    def counting_start(self):
        starts[0] += 1
        start(self)

    monkeypatch.setattr(threading.Thread, "start", counting_start)
    _products(F_DIMS, 64, np.float32, 2, pin_split_threads)  # f's training batch
    _products(F_DIMS, 32, np.float32, 2, pin_split_threads)
    assert starts == [0]
    _products(G_DIMS, 48, np.float32, 2, pin_split_threads)
    assert starts == [2]  # one forward product and one weight gradient, of its first layer


def test_a_products_worker_exception_reaches_the_caller(pin_split_threads, monkeypatch):
    pin_split_threads(2)
    matmul, failure = np.matmul, ArithmeticError("worker failed")

    def failing_matmul(*args, **kwargs):
        if threading.current_thread() is not threading.main_thread():
            raise failure
        return matmul(*args, **kwargs)

    model = init_model(G_DIMS, seed=6, dtype=np.float32)
    X = np.ones((48, G_DIMS[0]))
    out, acts = forward(model, X)
    threads = threading.active_count()
    monkeypatch.setattr(np, "matmul", failing_matmul)
    for run in (lambda: forward(model, X),
                lambda: backward(model, acts, out, np.empty_like(model.params))):
        with pytest.raises(ArithmeticError) as info:
            run()
        assert info.value is failure
        assert threading.active_count() == threads


def test_products_run_a_range_themselves_when_no_thread_starts(pin_split_threads, monkeypatch):
    whole = _products(G_DIMS, 48, np.float32, 1, pin_split_threads)

    def no_thread(self):
        raise RuntimeError("can't start new thread")

    monkeypatch.setattr(threading.Thread, "start", no_thread)
    assert _products(G_DIMS, 48, np.float32, 2, pin_split_threads) == whole


# ---------------------------------------------------------------------------
# learning-rate schedule


def test_lr_schedule_frozen_values():
    f = ContactModuleConfig(base_lr=1e-4, lr_period_epochs=20, epochs=100, lr_decay_factor=0.7)
    assert lr_at(f, 0) == 1e-4
    assert lr_at(f, 19) == 1e-4
    assert lr_at(f, 20) == 7e-5
    assert lr_at(f, 40) == 4.9e-5
    g = ActionModuleConfig(base_lr=1e-5, lr_period_epochs=200, epochs=600, lr_decay_factor=0.7)
    assert lr_at(g, 199) == 1e-5
    assert lr_at(g, 200) == 7e-6
    assert lr_at(g, 599) == 1e-5 * 0.7 ** 2


def test_lr_schedule_validation():
    for config_cls in (ContactModuleConfig, ActionModuleConfig):
        for bad in ({"base_lr": 0.0}, {"lr_period_epochs": 0}, {"lr_decay_factor": 1.5},
                    {"lr_decay_factor": 0.0}, {"epochs": 0}):
            with pytest.raises(ValidationError, match=next(iter(bad))):
                config_cls(**bad)
        config_cls(lr_decay_factor=1.0, lr_period_epochs=1)
