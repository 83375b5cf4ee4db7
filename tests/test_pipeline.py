"""Contact derivation, staged f/g training, feature assembly, checkpoints."""

import re
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
    resample_frames,
)
from casar.errors import (
    CheckpointError,
    DataIOError,
    NumericError,
    ShapeError,
    ValidationError,
)
from casar.geometry import ContactThresholds, box_corners, expand_bbox_21
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
    vec = np.linspace(-0.5, 0.5, tiny_config.frame_dim)
    out = predict_contact(module, vec)
    assert out.shape == (tiny_config.contact_dim,)
    assert np.all((out > 0.0) & (out < 1.0))
    np.testing.assert_array_equal(out, predict_contact(module, vec))


def test_predict_contact_rejects_wrong_width(trained_contact):
    module, _ = trained_contact
    with pytest.raises(ShapeError):
        predict_contact(module, np.zeros(10))


# ---------------------------------------------------------------------------
# clip features


def test_clip_feature_widths(tiny_synth, tiny_config, trained_contact):
    clips, _, _ = tiny_synth
    module, _ = trained_contact
    plain_cfg = ActionModuleConfig(augment_contact=False)
    plain = clip_features(clips[0], None, plain_cfg, tiny_config)
    assert plain.shape == (6304,)
    aug = clip_features(clips[0], module, FAST_ACTION, tiny_config)
    assert aug.shape == (8992,)


def test_clip_features_layout_and_binarization(tiny_synth, tiny_config, trained_contact):
    clips, _, _ = tiny_synth
    module, _ = trained_contact
    clip = clips[0]
    aug = clip_features(clip, module, FAST_ACTION, tiny_config)
    per_frame = aug.reshape(tiny_config.frames_per_clip, tiny_config.augmented_frame_dim)
    frame_part = per_frame[:, : tiny_config.frame_dim]
    contact_part = per_frame[:, tiny_config.frame_dim:]
    plain = clip_features(
        clip, None, ActionModuleConfig(augment_contact=False), tiny_config
    ).reshape(tiny_config.frames_per_clip, tiny_config.frame_dim)
    np.testing.assert_array_equal(frame_part, plain)
    assert set(np.unique(contact_part)) <= {0.0, 1.0}
    # and without binarization the appended values are raw sigmoid outputs
    raw_cfg = ActionModuleConfig(
        action_head="softmax_ce", binarize_contact=False, seed=1
    )
    raw = clip_features(clip, module, raw_cfg, tiny_config).reshape(
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
        feats = clip_features(clip, module, cfg, tiny_config)
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
        clip_features(clips[0], None, FAST_ACTION, tiny_config)


def test_clip_features_appends_f_outputs_per_frame(tiny_synth, tiny_config, trained_contact):
    clips, _, _ = tiny_synth
    module, _ = trained_contact
    n_f, fd = tiny_config.frames_per_clip, tiny_config.frame_dim
    rows = encode_clip(resample_frames(clips[0], n_f), tiny_config).reshape(n_f, fd)
    raw_cfg = ActionModuleConfig(action_head="softmax_ce", binarize_contact=False, seed=1)
    aug = clip_features(clips[0], module, raw_cfg, tiny_config)
    assert aug.shape == (tiny_config.augmented_clip_dim,)
    per_frame = aug.reshape(n_f, tiny_config.augmented_frame_dim)
    np.testing.assert_array_equal(per_frame[:, :fd], rows)
    np.testing.assert_array_equal(per_frame[:, fd:], nn.forward(module.model, rows)[0])


def test_clip_features_rejects_wrong_contact_width(tiny_synth, tiny_config):
    clips, _, _ = tiny_synth
    wide = nn.init_model([tiny_config.frame_dim, 4, tiny_config.contact_dim + 1], seed=0)
    module = TrainedContactModule(model=wide, config=FAST_CONTACT)
    with pytest.raises(ShapeError):
        clip_features(clips[0], module, FAST_ACTION, tiny_config)


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
    needed = nn.TRAIN_BYTES_PER_PARAMETER * nn.parameter_count(PAPER_G_DIMS)
    assert needed > 2 * 10**9  # ~70M parameters
    monkeypatch.setattr(nn, "_mem_available", lambda: 2 * 10**9)

    def no_features(*args):
        raise AssertionError("clip features were built before the memory check")

    monkeypatch.setattr("casar.pipeline.clip_features", no_features)
    with pytest.raises(ValidationError) as exc:
        train_action_module(clips, module, ActionModuleConfig(), tiny_config)
    assert exc.value.exit_code == 2
    for part in (str(PAPER_G_DIMS), f"needs {needed} bytes", f"only {2 * 10**9} bytes"):
        assert part in str(exc.value)
    monkeypatch.setattr(nn, "_mem_available", lambda: 10**6)
    with pytest.raises(ValidationError, match=r"\[197, 256, 256, 84\]"):
        train_contact_module(contacts, ContactModuleConfig(), tiny_config)


def test_memory_check_is_skipped_when_meminfo_is_unreadable(tmp_path, monkeypatch):
    (tmp_path / "meminfo").write_text("MemTotal:       1024 kB\nMemAvailable:   2 kB\n")
    monkeypatch.setattr(nn, "_MEMINFO", str(tmp_path / "meminfo"))
    assert nn._mem_available() == 2048
    with pytest.raises(ValidationError):
        nn.check_training_memory([40, 8, 2])
    (tmp_path / "garbled").write_text("MemAvailable: lots\n")
    for name in ("missing", "garbled"):
        monkeypatch.setattr(nn, "_MEMINFO", str(tmp_path / name))
        assert nn._mem_available() is None
        nn.check_training_memory(PAPER_G_DIMS)


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


def test_fit_peaks_at_the_training_bytes_per_parameter():
    dims = [2048, 512, 512, 6]  # a g-like net: wide input, narrow head
    config = ActionModuleConfig(hidden_width=512, epochs=2, base_lr=1e-3, lr_period_epochs=1,
                                batch_size=32, action_head="softmax_ce")
    tracemalloc.start()
    try:
        rng = np.random.default_rng(0)
        X = rng.normal(size=(96, dims[0]))
        labels = rng.integers(0, dims[-1], size=len(X))
        model = nn.init_model(dims, seed=0, output_activation=nn.IDENTITY)
        _fit(model, X, labels, nn.softmax_action_loss, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    batch = config.batch_size * dims[0] * 8
    slack = 1 << 20  # Adam's two scratch blocks (512 KB) and one batch's activations
    bound = nn.TRAIN_BYTES_PER_PARAMETER * nn.parameter_count(dims) + X.nbytes + batch + slack
    assert peak <= bound, f"peak {peak} exceeds {bound}"


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
