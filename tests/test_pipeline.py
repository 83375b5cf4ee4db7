"""Contact derivation, staged f/g training, feature assembly, checkpoints."""

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
    ShapeError,
    ValidationError,
)
from casar.geometry import ContactThresholds, box_corners, expand_bbox_21
from casar.pipeline import (
    ActionModuleConfig,
    ContactModuleConfig,
    TrainedActionModule,
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


def test_train_action_rejects_out_of_range_labels(tiny_synth, tiny_config, trained_contact):
    clips, _, _ = tiny_synth
    module, _ = trained_contact
    bad = ActionClip(clip_id="bad", action_label=99, frames=clips[0].frames)
    with pytest.raises(ValidationError):
        train_action_module([bad], module, FAST_ACTION, tiny_config)


def test_predict_zeroed_model_breaks_ties_low(tiny_synth, tiny_config):
    clips, _, _ = tiny_synth
    C = tiny_config.action_class_count
    model = nn.MlpModel(
        weights=[np.zeros((C, tiny_config.clip_dim))],
        biases=[np.zeros(C)],
        activations=[nn.SIGMOID],
    )
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
    x = np.linspace(-1, 1, tiny_config.frame_dim)
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


@pytest.mark.parametrize(
    "mangle",
    [
        lambda b: b"WRONGMAG" + b[8:],  # bad magic
        lambda b: b[:8] + (99).to_bytes(4, "little") + b[12:],  # bad version
        lambda b: b[: len(b) // 2],  # truncated
        lambda b: b + b"\x00\x00\x00\x00",  # trailing garbage
    ],
    ids=["magic", "version", "truncated", "trailing"],
)
def test_checkpoint_corruption_detected(tmp_path, trained_contact, mangle):
    module, _ = trained_contact
    path = tmp_path / "f.ckpt"
    save_checkpoint(module.model, path)
    raw = path.read_bytes()
    path.write_bytes(mangle(raw))
    with pytest.raises(CheckpointError):
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
