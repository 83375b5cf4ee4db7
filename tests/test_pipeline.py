"""Contact derivation, staged f/g training, feature assembly, checkpoints."""

import re
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from casar import neuralcore as nn
from casar.datamodel import (
    ActionClip,
    DatasetConfig,
    FrameSample,
    HandPose,
    ObjectAnnotation,
    encode_clip,
    encode_frame,
    resample_frames,
)
from casar.errors import (
    CheckpointError,
    DataIOError,
    NumericError,
    ShapeError,
    ValidationError,
)
from casar.geometry import ContactThresholds, box_corners, expand_bbox_21, label_contact_map
from casar.pipeline import (
    ActionModuleConfig,
    ContactModuleConfig,
    TrainedActionModule,
    TrainedContactModule,
    _fit,
    clip_features,
    derive_contact_dataset,
    load_checkpoint,
    load_checkpoint_meta,
    predict_action,
    predict_contact,
    save_checkpoint,
    train_action_module,
    train_contact_module,
)

THRESHOLDS = ContactThresholds(eta_c=0.02, eta_d=0.20)

FAST_CONTACT = ContactModuleConfig(
    hidden_width=16, epochs=3, base_lr=5e-4, lr_period_epochs=2, batch_size=32, seed=1
)
FAST_ACTION = ActionModuleConfig(
    hidden_width=24,
    epochs=4,
    base_lr=1e-3,
    lr_period_epochs=3,
    batch_size=8,
    action_head="softmax_ce",
    binarize_contact=True,
    seed=1,
)


def far_frame(offset: float = 5.0) -> FrameSample:
    """Both hands a long way from the object: every joint is distant."""
    J = 21
    base = np.arange(J * 3, dtype=np.float64).reshape(J, 3) * 0.001 + offset
    pose_points = expand_bbox_21(box_corners([0, 0, 0], [0.1, 0.1, 0.1]))
    return FrameSample(
        hand=HandPose(left=base, right=base + 0.01),
        object=ObjectAnnotation(
            label_id=0,
            pose_points=pose_points,
            world_from_canonical=np.eye(4),
            mesh_id="m0",
        ),
    )


def far_clip(n_frames=2, clip_id="c0") -> ActionClip:
    return ActionClip(
        clip_id=clip_id,
        action_label=0,
        frames=tuple(far_frame(5.0 + 0.1 * i) for i in range(n_frames)),
    )


@pytest.fixture(scope="module")
def trained_contact(tiny_synth, tiny_config):
    _, _, contacts = tiny_synth
    module, history = train_contact_module(contacts[:120], FAST_CONTACT, tiny_config)
    return module, history


# ---------------------------------------------------------------------------
# contact derivation


def test_derive_matches_generator_labels(tiny_synth):
    clips, meshes, contacts = tiny_synth
    derived = derive_contact_dataset(clips, meshes, THRESHOLDS)
    assert len(derived) == len(contacts) == sum(len(c) for c in clips)
    for d, g in zip(derived, contacts):
        assert (d.clip_id, d.frame_index) == (g.clip_id, g.frame_index)
        np.testing.assert_array_equal(d.target.contact, g.target.contact)
        np.testing.assert_array_equal(d.target.distant, g.target.distant)


def test_derive_emits_one_sample_per_raw_frame(tiny_synth):
    _, meshes, _ = tiny_synth
    clip = far_clip(n_frames=2)
    mesh = next(iter(meshes.values()))
    samples = derive_contact_dataset([clip], {"m0": mesh}, THRESHOLDS)
    assert [(s.clip_id, s.frame_index) for s in samples] == [("c0", 0), ("c0", 1)]


def test_derive_far_hands_are_all_distant(tiny_synth):
    _, meshes, _ = tiny_synth
    mesh = next(iter(meshes.values()))
    samples = derive_contact_dataset([far_clip()], {"m0": mesh}, THRESHOLDS)
    for s in samples:
        np.testing.assert_array_equal(s.target.contact, 0)
        np.testing.assert_array_equal(s.target.distant, 1)


def test_derive_missing_mesh_names_the_clip():
    with pytest.raises(ValidationError, match=r"c0.*m0"):
        derive_contact_dataset([far_clip()], {}, THRESHOLDS)


def test_derive_gives_each_frame_the_bits_of_its_own_query(tiny_synth):
    """One nearest-vertex query per clip labels each frame as a query of that frame alone."""
    clips, meshes, _ = tiny_synth
    held = [ActionClip(clip_id=f"{c.clip_id}_held", action_label=c.action_label,
                       frames=tuple(FrameSample(hand=f.hand, object=c.frames[0].object)
                                    for f in c.frames)) for c in clips]
    single = [ActionClip(clip_id=f"{c.clip_id}_one", action_label=c.action_label,
                         frames=c.frames[:1]) for c in clips + held]
    clips = clips + held + single
    assert len({c.mesh_id for c in clips}) >= 2
    assert {len(c) for c in single} == {1} and min(len(c) for c in held) > 1

    def own_query(clip, frame):
        pose = frame.object.world_from_canonical
        canonical = (frame.hand.joints() - pose[:3, 3]) @ pose[:3, :3]
        return meshes[clip.mesh_id].query_distances(canonical)

    dists = np.sort(np.concatenate([own_query(c, f) for c in clips for f in c.frames]))
    # thresholds that sit exactly on distances some joints have: a distance
    # one ulp away from its own query's would flip that joint's bit
    for thr in (THRESHOLDS, ContactThresholds(float(dists[len(dists) // 8]),
                                              float(dists[len(dists) // 2]))):
        samples = iter(derive_contact_dataset(clips, meshes, thr))
        for clip in clips:
            for i, frame in enumerate(clip.frames):
                s = next(samples)
                assert (s.clip_id, s.frame_index) == (clip.clip_id, i)
                want = label_contact_map(own_query(clip, frame), thr)
                np.testing.assert_array_equal(s.target.contact, want.contact)
                np.testing.assert_array_equal(s.target.distant, want.distant)
        assert next(samples, None) is None


# ---------------------------------------------------------------------------
# contact module training and inference


def test_train_contact_is_deterministic(tiny_synth, tiny_config, trained_contact):
    _, _, contacts = tiny_synth
    module, history = trained_contact
    again, history2 = train_contact_module(contacts[:120], FAST_CONTACT, tiny_config)
    assert module.parameter_digest() == again.parameter_digest()
    assert history == history2
    assert len(history) == FAST_CONTACT.epochs
    assert history[-1] < history[0]
    assert module.model.layer_dims == [
        tiny_config.frame_dim, 16, 16, tiny_config.contact_dim,
    ]


def test_train_contact_rejects_empty(tiny_config):
    with pytest.raises(ValidationError):
        train_contact_module([], FAST_CONTACT, tiny_config)


def test_predict_contact_outputs_probabilities(tiny_config, trained_contact):
    module, _ = trained_contact
    rows = np.linspace(-0.5, 0.5, 3 * tiny_config.frame_dim).reshape(3, tiny_config.frame_dim)
    out = predict_contact(module, rows)
    assert out.shape == (3, tiny_config.contact_dim)
    assert np.all((out > 0.0) & (out < 1.0))
    np.testing.assert_array_equal(out, predict_contact(module, rows))


def test_predict_contact_rejects_wrong_width(tiny_config, trained_contact):
    module, _ = trained_contact
    for rows in (np.zeros((1, 10)), np.zeros(tiny_config.frame_dim),
                 np.zeros((2, 1, tiny_config.frame_dim))):
        with pytest.raises(ShapeError):
            predict_contact(module, rows)


def test_contact_fit_keeps_every_array_in_float32(tiny_synth, tiny_config, monkeypatch):
    _, _, contacts = tiny_synth
    dtypes = set()
    forward, focal_loss, backward, adam_step = nn.forward, nn.focal_loss, nn.backward, nn.adam_step

    def recording_forward(model, X):
        out, acts = forward(model, X)
        dtypes.update(a.dtype for a in [X, model.params, *acts])  # X: the batch as _fit gives it
        return out, acts

    def recording_loss(pred, target, alpha, gamma):
        loss, grad = focal_loss(pred, target, alpha, gamma)
        dtypes.update(a.dtype for a in (pred, target, grad))
        return loss, grad

    def recording_backward(model, acts, grad_outputs, grads):
        dtypes.update(a.dtype for a in (grad_outputs, grads))
        return backward(model, acts, grad_outputs, grads)

    def recording_adam_step(model, grads, state, lr):
        dtypes.update(a.dtype for a in (model.params, grads, state.m, state.v))
        return adam_step(model, grads, state, lr)

    for name, fn in [("forward", recording_forward), ("focal_loss", recording_loss),
                     ("backward", recording_backward), ("adam_step", recording_adam_step)]:
        monkeypatch.setattr(nn, name, fn)
    module, _ = train_contact_module(contacts[:120], FAST_CONTACT, tiny_config)
    assert dtypes == {np.dtype(np.float32)}
    assert module.model.params.dtype == np.float32


def test_f_scores_the_same_bits_before_and_after_a_checkpoint_round_trip(
        tmp_path, tiny_synth, tiny_config, trained_contact):
    clips, _, contacts = tiny_synth
    module, _ = trained_contact
    path = tmp_path / "f.ckpt"
    save_checkpoint(module.model, path)
    # the file's parameter blocks (each layer's weights, then its bias) are f's own bytes
    model = module.model
    blocks = b"".join(W.tobytes() + b.tobytes() for W, b in zip(model.weights, model.biases))
    assert path.read_bytes()[-len(blocks):] == blocks
    loaded = TrainedContactModule(load_checkpoint(path), module.config)
    assert loaded.model.params.dtype == np.float64
    assert loaded.model.params.astype(np.float32).tobytes() == model.params.tobytes()
    rows = np.stack([encode_frame(s.frame, tiny_config) for s in contacts])
    scored = predict_contact(module, rows)
    assert scored.dtype == np.float64
    assert scored.tobytes() == predict_contact(loaded, rows).tobytes()
    raw_cfg = ActionModuleConfig(action_head="softmax_ce", binarize_contact=False, seed=1)
    assert (clip_features(clips, module, raw_cfg, tiny_config).tobytes()
            == clip_features(clips, loaded, raw_cfg, tiny_config).tobytes())


@pytest.mark.parametrize("hidden", [16, 256])
def test_f_gives_a_frame_the_same_bits_alone_and_in_a_stack(tiny_synth, tiny_config, hidden,
                                                             restore_blas_threads):
    clips, _, _ = tiny_synth
    dims = [tiny_config.frame_dim, hidden, hidden, tiny_config.contact_dim]
    module = TrainedContactModule(nn.init_model(dims, seed=2), ContactModuleConfig(hidden))
    # clips of 8-14 frames: stacked, each clip starts at another row of a block
    frames = [np.stack([encode_frame(fr, tiny_config) for fr in c.frames]) for c in clips]
    starts = np.cumsum([0] + [len(rows) for rows in frames])
    for threads in (1, 2):
        nn.set_blas_threads(threads)
        stacked = predict_contact(module, np.concatenate(frames))
        for rows, start in zip(frames, starts):
            assert np.array_equal(predict_contact(module, rows),
                                  stacked[start:start + len(rows)]), (
                f"f gives a frame other bits alone than beside other frames (hidden width "
                f"{hidden}, {threads} BLAS threads): if predict_contact still runs fixed "
                f"zero-padded blocks, this BLAS build does not give a row the same bits "
                f"wherever it sits in a block")


# ---------------------------------------------------------------------------
# clip features


def test_clip_feature_widths(tiny_synth, tiny_config, trained_contact):
    clips, _, _ = tiny_synth
    module, _ = trained_contact
    plain_cfg = ActionModuleConfig(augment_contact=False)
    plain = clip_features(clips[:2], None, plain_cfg, tiny_config)
    assert plain.shape == (2, 6304)
    aug = clip_features(clips[:2], module, FAST_ACTION, tiny_config)
    assert aug.shape == (2, 8992)
    assert clip_features([], module, FAST_ACTION, tiny_config).shape == (0, 8992)


def test_clip_features_layout_and_binarization(tiny_synth, tiny_config, trained_contact):
    clips, _, _ = tiny_synth
    module, _ = trained_contact
    clip = clips[0]
    aug = clip_features([clip], module, FAST_ACTION, tiny_config)
    per_frame = aug.reshape(tiny_config.frames_per_clip, tiny_config.augmented_frame_dim)
    frame_part = per_frame[:, : tiny_config.frame_dim]
    contact_part = per_frame[:, tiny_config.frame_dim:]
    plain = clip_features(
        [clip], None, ActionModuleConfig(augment_contact=False), tiny_config
    ).reshape(tiny_config.frames_per_clip, tiny_config.frame_dim)
    np.testing.assert_array_equal(frame_part, plain)
    assert set(np.unique(contact_part)) <= {0.0, 1.0}
    # and without binarization the appended values are raw sigmoid outputs
    raw_cfg = ActionModuleConfig(
        action_head="softmax_ce", binarize_contact=False, seed=1
    )
    raw = clip_features([clip], module, raw_cfg, tiny_config).reshape(
        tiny_config.frames_per_clip, tiny_config.augmented_frame_dim
    )[:, tiny_config.frame_dim:]
    assert np.all((raw > 0.0) & (raw < 1.0))
    np.testing.assert_array_equal((raw >= 0.5).astype(float), contact_part)


def test_masks_zero_the_right_halves(tiny_synth, tiny_config, trained_contact):
    clips, _, _ = tiny_synth
    module, _ = trained_contact
    clip = clips[0]
    J = tiny_config.joint_count
    fd = tiny_config.frame_dim

    def tail(cfg):
        feats = clip_features([clip], module, cfg, tiny_config)
        return feats.reshape(tiny_config.frames_per_clip, -1)[:, fd:]

    both = tail(FAST_ACTION)
    no_contact = tail(ActionModuleConfig(
        action_head="softmax_ce", binarize_contact=True, mask_contact=True, seed=1
    ))
    no_distant = tail(ActionModuleConfig(
        action_head="softmax_ce", binarize_contact=True, mask_distant=True, seed=1
    ))
    np.testing.assert_array_equal(no_contact[:, :J], 0.0)
    np.testing.assert_array_equal(no_contact[:, J:], both[:, J:])
    np.testing.assert_array_equal(no_distant[:, J:], 0.0)
    np.testing.assert_array_equal(no_distant[:, :J], both[:, :J])


def test_augment_without_module_is_rejected(tiny_synth, tiny_config):
    clips, _, _ = tiny_synth
    with pytest.raises(ValidationError):
        clip_features(clips[:1], None, FAST_ACTION, tiny_config)


def test_clip_features_appends_f_outputs_per_frame(tiny_synth, tiny_config, trained_contact):
    clips, _, _ = tiny_synth
    module, _ = trained_contact
    n_f, fd = tiny_config.frames_per_clip, tiny_config.frame_dim
    rows = encode_clip(resample_frames(clips[0], n_f), tiny_config).reshape(n_f, fd)
    raw_cfg = ActionModuleConfig(action_head="softmax_ce", binarize_contact=False, seed=1)
    aug = clip_features(clips[:1], module, raw_cfg, tiny_config)
    assert aug.shape == (1, tiny_config.augmented_clip_dim)
    per_frame = aug.reshape(n_f, tiny_config.augmented_frame_dim)
    np.testing.assert_array_equal(per_frame[:, :fd], rows)
    # f scores in float64 over its float32 parameters
    model = module.model
    wide = nn.MlpModel(model.params.astype(np.float64), model.layer_dims, model.activations)
    np.testing.assert_array_equal(per_frame[:, fd:], nn.forward(wide, rows)[0])


def test_float32_clip_features_are_the_float64_ones_cast_once(
        tiny_synth, tiny_config, trained_contact):
    clips, _, _ = tiny_synth
    module, _ = trained_contact
    raw_cfg = ActionModuleConfig(action_head="softmax_ce", binarize_contact=False, seed=1)
    # f reads float64 frames and binarizes its float64 outputs, whatever g's dtype
    for cfg in (FAST_ACTION, raw_cfg, ActionModuleConfig(augment_contact=False)):
        wide = clip_features(clips, module, cfg, tiny_config)
        narrow = clip_features(clips, module, cfg, tiny_config, np.float32)
        assert (wide.dtype, narrow.dtype) == (np.float64, np.float32)
        assert narrow.tobytes() == wide.astype(np.float32).tobytes()
    # the float32 matrix is the only whole matrix built: no float64 one beside it
    tracemalloc.start()
    try:
        narrow = clip_features(clips * 4, module, FAST_ACTION, tiny_config, np.float32)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= narrow.nbytes + (1 << 20) < 2 * narrow.nbytes


def test_clip_features_rejects_wrong_contact_width(tiny_synth, tiny_config):
    clips, _, _ = tiny_synth
    wide = nn.init_model([tiny_config.frame_dim, 4, tiny_config.contact_dim + 1], seed=0)
    module = TrainedContactModule(model=wide, config=FAST_CONTACT)
    with pytest.raises(ShapeError):
        clip_features(clips[:1], module, FAST_ACTION, tiny_config)


# ---------------------------------------------------------------------------
# action module training


def test_train_action_staged_regime(tiny_synth, tiny_config, trained_contact):
    clips, _, _ = tiny_synth
    module, _ = trained_contact
    digest_before = module.parameter_digest()
    action, history = train_action_module(clips, module, FAST_ACTION, tiny_config)
    assert module.parameter_digest() == digest_before
    assert len(history) == FAST_ACTION.epochs
    assert action.model.input_dim == tiny_config.augmented_clip_dim
    assert action.model.params.dtype == np.float32
    again, history2 = train_action_module(clips, module, FAST_ACTION, tiny_config)
    assert again.model.parameter_bytes() == action.model.parameter_bytes()
    assert history2 == history
    pred, out = predict_action(module, action, clips[0], tiny_config)
    assert 0 <= pred < tiny_config.action_class_count
    assert out.shape == (tiny_config.action_class_count,)
    assert pred == int(np.argmax(out))


def test_train_action_plain_width(tiny_synth, tiny_config):
    clips, _, _ = tiny_synth
    cfg = ActionModuleConfig(
        hidden_width=16,
        epochs=2,
        base_lr=1e-3,
        lr_period_epochs=2,
        batch_size=8,
        action_head="softmax_ce",
        augment_contact=False,
        seed=0,
    )
    action, history = train_action_module(clips, None, cfg, tiny_config)
    assert action.model.input_dim == tiny_config.clip_dim
    assert len(history) == cfg.epochs


def test_train_action_guards(tiny_synth, tiny_config, trained_contact):
    clips, _, _ = tiny_synth
    module, _ = trained_contact
    with pytest.raises(ValidationError):
        train_action_module([], module, FAST_ACTION, tiny_config)
    with pytest.raises(ValidationError, match="augment_contact"):
        train_action_module(clips, None, FAST_ACTION, tiny_config)


PAPER_G_DIMS = [8992, 5000, 5000, 4]  # the default g on tiny_config's four classes


def test_training_that_cannot_fit_in_memory_fails_before_allocating(
        tiny_synth, tiny_config, trained_contact, monkeypatch):
    clips, _, contacts = tiny_synth
    module, _ = trained_contact
    assert tiny_config.augmented_clip_dim == PAPER_G_DIMS[0]
    needed = 16 * nn.parameter_count(PAPER_G_DIMS)  # g trains in float32
    assert needed > 10**9  # ~70M parameters
    monkeypatch.setattr(nn, "_mem_available", lambda: 10**9)

    def no_features(*args):
        raise AssertionError("clip features were built before the memory check")

    monkeypatch.setattr("casar.pipeline.clip_features", no_features)
    with pytest.raises(ValidationError) as exc:
        train_action_module(clips, module, ActionModuleConfig(), tiny_config)
    assert exc.value.exit_code == 2
    for part in (str(PAPER_G_DIMS), f"needs {needed} bytes (16 per parameter)",
                 f"only {10**9} bytes"):
        assert part in str(exc.value)
    monkeypatch.setattr(nn, "_mem_available", lambda: 10**6)
    with pytest.raises(ValidationError, match=r"\[197, 256, 256, 84\]"):
        train_contact_module(contacts, ContactModuleConfig(), tiny_config)


def test_memory_check_is_skipped_when_meminfo_is_unreadable(tmp_path, monkeypatch):
    (tmp_path / "meminfo").write_text("MemTotal:       1024 kB\nMemAvailable:   2 kB\n")
    monkeypatch.setattr(nn, "_MEMINFO", str(tmp_path / "meminfo"))
    assert nn._mem_available() == 2048
    with pytest.raises(ValidationError):
        nn.check_training_memory([40, 8, 2], np.float64)
    (tmp_path / "garbled").write_text("MemAvailable: lots\n")
    for name in ("missing", "garbled"):
        monkeypatch.setattr(nn, "_MEMINFO", str(tmp_path / name))
        assert nn._mem_available() is None
        nn.check_training_memory(PAPER_G_DIMS, np.float64)


def test_g_that_fits_only_in_float32_is_trained(tiny_synth, tiny_config, trained_contact,
                                                tmp_path, monkeypatch):
    clips, _, _ = tiny_synth
    module, _ = trained_contact
    dims = [tiny_config.augmented_clip_dim, FAST_ACTION.hidden_width, FAST_ACTION.hidden_width,
            tiny_config.action_class_count]
    count = nn.parameter_count(dims)
    kb = 24 * count // 1024  # between float32's 16 B and float64's 32 B per parameter
    (tmp_path / "meminfo").write_text(f"MemTotal:   {4 * kb} kB\nMemAvailable:   {kb} kB\n")
    monkeypatch.setattr(nn, "_MEMINFO", str(tmp_path / "meminfo"))
    with pytest.raises(ValidationError, match=f"needs {32 * count} bytes \\(32 per parameter\\)"):
        nn.check_training_memory(dims, np.float64)
    nn.check_training_memory(dims, np.float32)
    action, _ = train_action_module(clips, module, FAST_ACTION, tiny_config)
    assert action.model.layer_dims == dims
    assert action.model.params.dtype == np.float32


def test_fit_fills_one_gradient_vector(tiny_synth, tiny_config, monkeypatch):
    _, _, contacts = tiny_synth
    filled, stepped = [], []
    backward, adam_step = nn.backward, nn.adam_step

    def recording_backward(model, acts, grad_outputs, grads):
        filled.append(grads)
        return backward(model, acts, grad_outputs, grads)

    def recording_adam_step(model, grads, state, lr):
        stepped.append(grads)
        return adam_step(model, grads, state, lr)

    monkeypatch.setattr(nn, "backward", recording_backward)
    monkeypatch.setattr(nn, "adam_step", recording_adam_step)
    module, _ = train_contact_module(contacts[:120], FAST_CONTACT, tiny_config)
    steps = FAST_CONTACT.epochs * -(-120 // FAST_CONTACT.batch_size)
    assert len(filled) == len(stepped) == steps
    assert all(g is filled[0] for g in filled + stepped)
    assert filled[0].shape == module.model.params.shape
    assert not np.shares_memory(filled[0], module.model.params)


def test_fit_runs_on_one_blas_thread_and_restores_the_callers_count(
        tiny_synth, tiny_config, monkeypatch, restore_blas_threads):
    _, _, contacts = tiny_synth
    seen = []
    adam_step = nn.adam_step

    def recording_adam_step(model, grads, state, lr):
        seen.append(nn.blas_threads())
        return adam_step(model, grads, state, lr)

    monkeypatch.setattr(nn, "adam_step", recording_adam_step)
    nn.set_blas_threads(3)
    train_contact_module(contacts[:64], FAST_CONTACT, tiny_config)
    assert seen and set(seen) == {1}
    assert nn.blas_threads() == 3

    def diverging_loss(out, target):
        if len(seen) > 1:
            raise NumericError("non-finite network output")
        return nn.focal_loss(out, target, 0.5, 2.0)

    seen.clear()
    model = nn.init_model([4, 8, 2], seed=0)
    X, Y = np.ones((64, 4)), np.ones((64, 2))
    with pytest.raises(NumericError, match="epoch 1, step 0"):
        _fit(model, X, Y, diverging_loss, FAST_CONTACT)
    assert seen == [1, 1]
    assert nn.blas_threads() == 3


needs_fp_control = pytest.mark.skipif(
    nn.fp_mode() is None, reason="no FP-mode control: fegetenv on x86-64 glibc only")
STATUS_FLAGS = 0x3F  # MXCSR's sticky exception flags; any inexact operation may set one


@needs_fp_control
def test_fit_flushes_subnormals_in_every_adam_thread_and_restores_the_callers_mode(
        monkeypatch, pin_split_threads):
    dims = [1024, 256, 256, 6]  # long enough for two Adam ranges, one on a worker thread
    pin_split_threads(2)
    assert len(nn._adam_ranges(nn.parameter_count(dims), 2)) == 2
    config = ActionModuleConfig(hidden_width=256, epochs=2, base_lr=1e-3, lr_period_epochs=1,
                                batch_size=16, action_head="softmax_ce")
    rng = np.random.default_rng(1)
    X = rng.normal(size=(32, dims[0])).astype(np.float32)
    labels = rng.integers(0, dims[-1], size=len(X))
    seen = []
    walk = nn._adam_walk

    def recording_walk(*args):
        seen.append((threading.current_thread() is threading.main_thread(),
                     nn.fp_mode() & nn.FLUSH_SUBNORMALS))
        walk(*args)

    def diverging_loss(out, target):
        if seen:
            raise NumericError("non-finite network output")
        return nn.softmax_action_loss(out, target)

    monkeypatch.setattr(nn, "_adam_walk", recording_walk)
    caller = nn.fp_mode()
    try:
        for mode in (caller & ~nn.FLUSH_SUBNORMALS, caller | nn.FLUSH_SUBNORMALS):
            for loss_fn in (nn.softmax_action_loss, diverging_loss):
                nn.set_fp_mode(mode)
                seen.clear()
                model = nn.init_model(dims, seed=0, output_activation=nn.IDENTITY,
                                      dtype=np.float32)
                if loss_fn is diverging_loss:
                    with pytest.raises(NumericError, match="epoch 0, step 1"):
                        _fit(model, X, labels, loss_fn, config)
                else:
                    _fit(model, X, labels, loss_fn, config)
                assert {main for main, _ in seen} == {True, False}
                assert {flushed for _, flushed in seen} == {nn.FLUSH_SUBNORMALS}
                assert nn.fp_mode() & ~STATUS_FLAGS == mode & ~STATUS_FLAGS
    finally:
        nn.set_fp_mode(caller)


@needs_fp_control
def test_a_long_float32_fit_ends_with_no_subnormal_moment_and_the_same_bytes(monkeypatch):
    dims = [6, 8, 8, 4]
    config = ContactModuleConfig(hidden_width=8, epochs=900, base_lr=1e-3, lr_period_epochs=900,
                                 batch_size=16)
    rng = np.random.default_rng(0)
    X = rng.normal(size=(16, dims[0])).astype(np.float32)
    Y = (rng.random((16, dims[-1])) < 0.5).astype(np.float32)
    states, calls = [], []
    init_adam = nn.init_adam
    monkeypatch.setattr(nn, "init_adam", lambda model: states.append(init_adam(model)) or states[-1])

    def three_steps_then_zero_gradients(out, target):
        # Adam's first moment then decays by 0.9 a step, under float32's smallest
        # normal (~1.2e-38) after ~800 steps
        loss, grad = nn.focal_loss(out, target, 0.5, 2.0)
        calls.append(loss)
        return loss, (grad if len(calls) <= 3 else np.zeros_like(grad))

    runs = []
    for control in ("set", "stubbed to a no-op"):
        if control != "set":
            monkeypatch.setattr(nn, "set_fp_mode", lambda mode: None)
        calls.clear()
        model = nn.init_model(dims, seed=0, dtype=np.float32)
        history = _fit(model, X, Y, three_steps_then_zero_gradients, config)
        m = states[-1].m
        subnormal = int(((m != 0) & (np.abs(m) < np.finfo(np.float32).tiny)).sum())
        runs.append((model.parameter_bytes(), history, subnormal))
    (flushed_bytes, flushed_history, flushed), (plain_bytes, plain_history, plain) = runs
    assert plain > 0, "the fit never reached a subnormal moment; it tests nothing"
    assert flushed == 0
    assert flushed_bytes == plain_bytes
    assert flushed_history == plain_history


def test_fit_peaks_at_the_training_bytes_per_parameter(pin_split_threads):
    dims = [2048, 512, 512, 6]  # a g-like net: wide input, narrow head
    config = ActionModuleConfig(hidden_width=512, epochs=2, base_lr=1e-3, lr_period_epochs=1,
                                batch_size=32, action_head="softmax_ce")
    threads = 2
    pin_split_threads(threads)
    assert len(nn._adam_ranges(nn.parameter_count(dims), threads)) == threads
    for dtype in (np.float64, np.float32):  # f's and g's training precision
        tracemalloc.start()
        try:
            rng = np.random.default_rng(0)
            X = rng.normal(size=(96, dims[0])).astype(dtype)
            labels = rng.integers(0, dims[-1], size=len(X))
            model = nn.init_model(dims, seed=0, output_activation=nn.IDENTITY, dtype=dtype)
            _fit(model, X, labels, nn.softmax_action_loss, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = np.dtype(dtype).itemsize
        batch = config.batch_size * dims[0] * size
        # one Adam scratch block per range, and one batch's activations
        slack = (1 << 20) + (threads - 1) * nn.ADAM_BLOCK * size
        bound = nn.TRAIN_VECTORS * size * nn.parameter_count(dims) + X.nbytes + batch + slack
        assert peak <= bound, f"{dtype.__name__}: peak {peak} exceeds {bound}"


def test_fit_gives_the_same_bits_on_one_adam_thread_and_two(pin_split_threads):
    # a g-like net long enough for two Adam ranges, whose first layer's products split
    dims = [1024, 256, 256, 6]
    config = ActionModuleConfig(hidden_width=256, epochs=2, base_lr=1e-3, lr_period_epochs=1,
                                batch_size=48, action_head="softmax_ce")
    rng = np.random.default_rng(1)
    X = rng.normal(size=(96, dims[0]))
    labels = rng.integers(0, dims[-1], size=len(X))
    assert config.batch_size * dims[0] * dims[1] > nn.SPLIT_MIN_MACS
    runs = []
    for threads in (1, 2):
        pin_split_threads(threads)
        assert len(nn._adam_ranges(nn.parameter_count(dims), threads)) == threads
        model = nn.init_model(dims, seed=0, output_activation=nn.IDENTITY)
        history = _fit(model, X, labels, nn.softmax_action_loss, config)
        runs.append((history, model.parameter_bytes()))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("stage", ["contact", "action"])
def test_diverging_fit_names_the_network_epoch_and_step(
        tiny_synth, tiny_config, trained_contact, stage):
    clips, _, contacts = tiny_synth
    with np.errstate(all="ignore"), pytest.raises(NumericError) as info:
        if stage == "contact":
            train_contact_module(
                contacts[:120], ContactModuleConfig(
                    hidden_width=16, epochs=3, base_lr=1e300, batch_size=32), tiny_config)
        else:
            config = ActionModuleConfig(
                hidden_width=24, epochs=3, base_lr=1e300, batch_size=4,
                action_head="softmax_ce", binarize_contact=True)
            train_action_module(clips, trained_contact[0], config, tiny_config)
    net = "contact network f" if stage == "contact" else "action network g"
    assert re.match(net + r" diverged at epoch \d+, step \d+: non-finite", str(info.value))
    assert isinstance(info.value.__cause__, NumericError)


def test_train_action_rejects_out_of_range_labels(tiny_synth, tiny_config, trained_contact):
    clips, _, _ = tiny_synth
    module, _ = trained_contact
    bad = ActionClip(clip_id="bad", action_label=99, frames=clips[0].frames)
    with pytest.raises(ValidationError):
        train_action_module([bad], module, FAST_ACTION, tiny_config)


def test_predict_zeroed_model_breaks_ties_low(tiny_synth, tiny_config):
    clips, _, _ = tiny_synth
    C = tiny_config.action_class_count
    dims = [tiny_config.clip_dim, C]
    model = nn.MlpModel(np.zeros(nn.parameter_count(dims)), dims, [nn.SIGMOID])
    stub = TrainedActionModule(
        model=model, config=ActionModuleConfig(augment_contact=False)
    )
    pred, out = predict_action(None, stub, clips[0], tiny_config)
    assert pred == 0
    np.testing.assert_array_equal(out, 0.5)


def test_predict_action_width_mismatch(tiny_synth, tiny_config):
    clips, _, _ = tiny_synth
    model = nn.init_model([100, 4, tiny_config.action_class_count], seed=0)
    stub = TrainedActionModule(
        model=model, config=ActionModuleConfig(augment_contact=False)
    )
    with pytest.raises(ShapeError, match="width"):
        predict_action(None, stub, clips[0], tiny_config)


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_round_trip(tmp_path, trained_contact, tiny_config):
    module, _ = trained_contact
    path = tmp_path / "f.ckpt"
    save_checkpoint(module.model, path, meta={"kind": "contact"})
    loaded = load_checkpoint(path)
    assert loaded.layer_dims == module.model.layer_dims
    assert loaded.activations == module.model.activations
    x = np.linspace(-1, 1, tiny_config.frame_dim)[None]
    a, _ = nn.forward(module.model, x)
    b, _ = nn.forward(loaded, x)
    np.testing.assert_allclose(a, b, atol=1e-6)
    # weights are stored as float32; a second save of the loaded model is
    # byte-identical because the rounding has already happened
    first = path.read_bytes()
    save_checkpoint(loaded, tmp_path / "g.ckpt")
    assert (tmp_path / "g.ckpt").read_bytes() == first


def test_checkpoint_meta_sidecar(tmp_path, trained_contact):
    module, _ = trained_contact
    path = tmp_path / "f.ckpt"
    save_checkpoint(module.model, path, meta={"kind": "contact", "note": "x"})
    meta = load_checkpoint_meta(path)
    assert meta["kind"] == "contact"
    assert meta["note"] == "x"
    assert meta["layer_dims"] == module.model.layer_dims
    assert meta["activations"] == module.model.activations
    with pytest.raises(DataIOError):
        load_checkpoint_meta(tmp_path / "missing.ckpt")


def test_checkpoint_is_read_without_holding_the_whole_file(
        tmp_path, trained_contact, monkeypatch):
    module, _ = trained_contact
    path = tmp_path / "f.ckpt"
    save_checkpoint(module.model, path)

    def no_read_bytes(self):
        raise AssertionError(f"read_bytes({self}) called")

    monkeypatch.setattr(Path, "read_bytes", no_read_bytes)
    monkeypatch.setattr("casar.pipeline._READ_BLOCK", 7)  # blocks span several reads
    loaded = load_checkpoint(path)
    np.testing.assert_array_equal(loaded.params, module.model.params.astype(np.float32))


def test_checkpoint_that_cannot_fit_in_memory_is_refused_before_allocating(
        tmp_path, trained_contact, monkeypatch):
    module, _ = trained_contact
    path = tmp_path / "f.ckpt"
    save_checkpoint(module.model, path)
    needed = 8 * nn.parameter_count(module.model.layer_dims)
    (tmp_path / "meminfo").write_text(f"MemAvailable:   {needed // 1024 - 1} kB\n")
    monkeypatch.setattr(nn, "_MEMINFO", str(tmp_path / "meminfo"))

    def no_empty(*args, **kwargs):
        raise AssertionError("parameters were allocated before the memory check")

    monkeypatch.setattr("casar.pipeline.np.empty", no_empty)
    with pytest.raises(ValidationError) as exc:
        load_checkpoint(path)
    assert exc.value.exit_code == 2
    for part in (f"loading a network of layer dims {module.model.layer_dims}",
                 f"needs {needed} bytes (8 per parameter)",
                 f"only {(needed // 1024 - 1) * 1024} bytes"):
        assert part in str(exc.value)


@pytest.mark.parametrize(
    "mangle",
    [
        lambda b: b"WRONGMAG" + b[8:],  # bad magic
        lambda b: b[:8] + (99).to_bytes(4, "little") + b[12:],  # bad version
        lambda b: b[: len(b) // 2],  # truncated
        lambda b: b + b"\x00\x00\x00\x00",  # trailing garbage
        lambda b: b[:25] + (7).to_bytes(4, "little") + b[29:],  # layer 1 input width
    ],
    ids=["magic", "version", "truncated", "trailing", "chain"],
)
def test_checkpoint_corruption_detected(tmp_path, trained_contact, mangle):
    module, _ = trained_contact
    path = tmp_path / "f.ckpt"
    save_checkpoint(module.model, path)
    raw = path.read_bytes()
    path.write_bytes(mangle(raw))
    with pytest.raises(CheckpointError, match="^" + re.escape(str(path))):
        load_checkpoint(path)


# ---------------------------------------------------------------------------
# end-to-end convergence smoke


def test_contact_training_learns_the_tiny_set(tiny_synth, tiny_config):
    _, _, contacts = tiny_synth
    cfg = ContactModuleConfig(
        hidden_width=32, epochs=25, base_lr=1e-3, lr_period_epochs=12,
        batch_size=32, seed=2,
    )
    module, history = train_contact_module(contacts, cfg, tiny_config)
    from casar.datamodel import encode_frame

    X = np.stack([encode_frame(s.frame, tiny_config) for s in contacts])
    Y = np.stack([s.target.as_target_vector() for s in contacts])
    out, _ = nn.forward(module.model, X)
    acc = float(((out >= 0.5) == (Y >= 0.5)).mean())
    assert acc >= 0.85
    assert history[-1] < history[0]
