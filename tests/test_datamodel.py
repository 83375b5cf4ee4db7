"""Encodings, resampling, containers, and dataset file round trips."""

import json
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from casar.datamodel import (
    ActionClip,
    ContactSample,
    DatasetConfig,
    FrameSample,
    HandPose,
    ObjectAnnotation,
    encode_clip,
    encode_frame,
    resample_frames,
    resample_indices,
)
from casar.errors import ParseError, ShapeError, ValidationError, check_field_types
from casar.geometry import ContactMap, box_corners, expand_bbox_21
from casar.io import (
    load_clips,
    load_contact_targets,
    load_meshes,
    write_clips,
    write_contact_targets,
    write_meshes,
)


def make_frame(config: DatasetConfig, label_id: int = 0, offset: float = 0.0,
               mesh_id: str = "m0") -> FrameSample:
    J = config.joints_per_hand
    base = np.arange(J * 3, dtype=np.float64).reshape(J, 3) * 0.01 + offset
    left = base if config.hands == 2 else None
    right = base + 1.0
    pose_points = expand_bbox_21(box_corners([0, 0, 0], [0.1, 0.1, 0.1])) + offset
    return FrameSample(
        hand=HandPose(left=left, right=right),
        object=ObjectAnnotation(
            label_id=label_id,
            pose_points=pose_points,
            world_from_canonical=np.eye(4),
            mesh_id=mesh_id,
        ),
    )


def make_clip(config, n_frames=3, label=0, clip_id="c0"):
    frames = tuple(make_frame(config, offset=0.05 * i) for i in range(n_frames))
    return ActionClip(clip_id=clip_id, action_label=label, frames=frames)


# ---------------------------------------------------------------------------
# config dimensioning


def test_default_dims_match_two_hand_eight_object_layout():
    dc = DatasetConfig()
    assert dc.frame_dim == 197
    assert dc.contact_dim == 84
    assert dc.clip_dim == 6304
    assert dc.augmented_frame_dim == 281
    assert dc.augmented_clip_dim == 8992


def test_config_validation():
    with pytest.raises(ValidationError):
        DatasetConfig(hands=3)
    with pytest.raises(ValidationError):
        DatasetConfig(action_class_count=1)
    with pytest.raises(ValidationError):
        DatasetConfig(frames_per_clip=0)


@dataclass
class _Typed:
    count: int
    rate: float


def test_check_field_types_takes_any_integral_or_real_but_not_bool():
    check_field_types(_Typed(count=np.int64(3), rate=2))
    check_field_types(_Typed(count=3, rate=np.float32(0.5)))
    with pytest.raises(ValidationError, match="count"):
        check_field_types(_Typed(count=True, rate=0.5))
    with pytest.raises(ValidationError, match="rate"):
        check_field_types(_Typed(count=1, rate=False))
    with pytest.raises(ValidationError, match="count"):
        check_field_types(_Typed(count=2.0, rate=0.5))
    with pytest.raises(ValidationError, match="frames_per_clip"):
        DatasetConfig(frames_per_clip=True)
    assert DatasetConfig(frames_per_clip=np.int64(3)).clip_dim == 3 * 197


# ---------------------------------------------------------------------------
# containers


def test_hand_pose_stacks_left_before_right():
    left = np.zeros((2, 3))
    right = np.ones((2, 3))
    joints = HandPose(left=left, right=right).joints()
    np.testing.assert_array_equal(joints[:2], left)
    np.testing.assert_array_equal(joints[2:], right)


def test_one_hand_pose():
    right = np.ones((4, 3))
    pose = HandPose(left=None, right=right)
    assert pose.joints().shape == (4, 3)


def test_clip_requires_constant_object_label():
    dc = DatasetConfig(joints_per_hand=2, action_class_count=2, object_class_count=2)
    for objects in [
        [(0, "m0"), (1, "m0")],
        # one label, but frame 1 shows another mesh: labeling and writing use frame 0's
        [(0, "obj6"), (0, "obj5"), (0, "obj6")],
        [(0, "m0"), (0, None)],
    ]:
        frames = tuple(make_frame(dc, label_id=label, mesh_id=mesh) for label, mesh in objects)
        with pytest.raises(ValidationError, match="constant"):
            ActionClip(clip_id="bad", action_label=0, frames=frames)


def test_clip_rejects_empty_and_negative_label():
    dc = DatasetConfig(joints_per_hand=2)
    with pytest.raises(ValidationError):
        ActionClip(clip_id="empty", action_label=0, frames=())
    # a float or bool label would fail later as numpy's bare IndexError
    for label in (-1, 1.5, 2.0, True):
        with pytest.raises(ValidationError, match="action label"):
            ActionClip(clip_id="bad", action_label=label, frames=(make_frame(dc),))


def test_object_annotation_validates_pose_points_and_transform():
    with pytest.raises(ShapeError):
        ObjectAnnotation(label_id=0, pose_points=np.zeros((8, 3)),
                         world_from_canonical=np.eye(4))
    T = np.eye(4)
    T[0, 0] = 2.0
    with pytest.raises(ValidationError):
        ObjectAnnotation(label_id=0, pose_points=np.zeros((21, 3)), world_from_canonical=T)
    for label in (-1, 2.0, 1.5, True):
        with pytest.raises(ValidationError, match="object label"):
            ObjectAnnotation(label_id=label, pose_points=np.zeros((21, 3)),
                             world_from_canonical=np.eye(4))
    np_label = ObjectAnnotation(label_id=np.int64(2), pose_points=np.zeros((21, 3)),
                                world_from_canonical=np.eye(4))
    assert np_label.label_id == 2


# ---------------------------------------------------------------------------
# frame encoding


def test_encode_frame_layout_decodes_back():
    """The flat vector is [left joints | right joints | pose points | one-hot]."""
    dc = DatasetConfig()
    frame = make_frame(dc, label_id=3)
    vec = encode_frame(frame, dc)
    assert vec.shape == (197,)
    J3 = 21 * 3
    np.testing.assert_array_equal(vec[:J3].reshape(21, 3), frame.hand.left)
    np.testing.assert_array_equal(vec[J3:2 * J3].reshape(21, 3), frame.hand.right)
    np.testing.assert_array_equal(vec[2 * J3:2 * J3 + 63].reshape(21, 3),
                                  frame.object.pose_points)
    np.testing.assert_array_equal(vec[-8:], np.eye(8)[3])


def test_encode_frame_enforces_hand_count_and_label_range():
    two_hand = DatasetConfig()
    frame = FrameSample(
        hand=HandPose(left=None, right=np.zeros((21, 3))),
        object=ObjectAnnotation(label_id=0, pose_points=np.zeros((21, 3)),
                                world_from_canonical=np.eye(4)),
    )
    with pytest.raises(ShapeError):
        encode_frame(frame, two_hand)
    small = DatasetConfig(object_class_count=2)
    bad = make_frame(DatasetConfig(), label_id=5)
    with pytest.raises(ValidationError):
        encode_frame(bad, small)


# ---------------------------------------------------------------------------
# resampling


def test_resample_indices_frozen_example():
    # floor(j * 10 / 32) for j in 0..31, worked out by hand
    want = [0, 0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 4,
            5, 5, 5, 5, 6, 6, 6, 7, 7, 7, 8, 8, 8, 9, 9, 9]
    np.testing.assert_array_equal(resample_indices(10, 32), want)


def test_resample_indices_identity_and_subsample():
    np.testing.assert_array_equal(resample_indices(32, 32), np.arange(32))
    np.testing.assert_array_equal(resample_indices(64, 32), np.arange(32) * 2)
    np.testing.assert_array_equal(resample_indices(1, 4), [0, 0, 0, 0])


@given(st.integers(1, 500), st.integers(1, 128))
def test_resample_indices_properties(length, n_frames):
    idx = resample_indices(length, n_frames)
    assert len(idx) == n_frames
    assert idx[0] == 0
    assert idx[-1] < length
    assert np.all(np.diff(idx) >= 0)  # order preserved


def test_resample_indices_rejects_empty():
    with pytest.raises(ValidationError):
        resample_indices(0, 32)
    with pytest.raises(ValidationError):
        resample_indices(10, 0)


def test_resample_frames_duplicates_single_frame():
    dc = DatasetConfig(joints_per_hand=2, frames_per_clip=4)
    clip = make_clip(dc, n_frames=1)
    out = resample_frames(clip, 4)
    assert len(out) == 4
    for f in out.frames:
        np.testing.assert_array_equal(f.hand.right, clip.frames[0].hand.right)


# ---------------------------------------------------------------------------
# clip encoding


def test_encode_clip_requires_resampled_length():
    dc = DatasetConfig(joints_per_hand=2, frames_per_clip=8)
    clip = make_clip(dc, n_frames=3)
    with pytest.raises(ShapeError):
        encode_clip(clip, dc)
    vec = encode_clip(resample_frames(clip, 8), dc)
    assert vec.shape == (dc.clip_dim,)


# ---------------------------------------------------------------------------
# file round trips


def test_clip_file_round_trip_is_exact(tiny_synth, tmp_path):
    clips, meshes, samples = tiny_synth
    dc = DatasetConfig()
    path = tmp_path / "clips.jsonl"
    write_clips(clips, path)
    back = load_clips(path, dc)
    assert len(back) == len(clips)
    for a, b in zip(clips, back):
        assert a.clip_id == b.clip_id
        assert a.action_label == b.action_label
        assert a.mesh_id == b.mesh_id
        assert len(a) == len(b)
        for fa, fb in zip(a.frames, b.frames):
            np.testing.assert_array_equal(fa.hand.left, fb.hand.left)
            np.testing.assert_array_equal(fa.hand.right, fb.hand.right)
            np.testing.assert_array_equal(fa.object.pose_points, fb.object.pose_points)
            np.testing.assert_array_equal(fa.object.world_from_canonical,
                                          fb.object.world_from_canonical)


def test_contact_file_round_trip_is_exact(tiny_synth, tmp_path):
    clips, _, samples = tiny_synth
    path = tmp_path / "contacts.jsonl"
    write_contact_targets(samples, path)
    back = load_contact_targets(path, clips, DatasetConfig())
    assert len(back) == len(samples)
    for a, b in zip(samples, back):
        assert (a.clip_id, a.frame_index) == (b.clip_id, b.frame_index)
        np.testing.assert_array_equal(a.target.contact, b.target.contact)
        np.testing.assert_array_equal(a.target.distant, b.target.distant)


def test_failed_contact_write_keeps_the_old_file(tiny_synth, tmp_path):
    _, _, samples = tiny_synth
    path = tmp_path / "contacts.jsonl"
    write_contact_targets(samples[:2], path)
    before = path.read_bytes()
    orphan = ContactSample(frame=samples[0].frame, target=samples[0].target)
    with pytest.raises(ValidationError, match="clip_id"):
        write_contact_targets(samples + [orphan], path)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["contacts.jsonl"]


def test_mesh_dir_round_trip(tiny_synth, tmp_path):
    _, meshes, _ = tiny_synth
    write_meshes(meshes, tmp_path / "meshes")
    back = load_meshes(tmp_path / "meshes")
    assert set(back) == set(meshes)
    for mid in meshes:
        np.testing.assert_array_equal(back[mid].vertices, meshes[mid].vertices)


def test_empty_clip_file_loads_to_empty_list(tmp_path):
    path = tmp_path / "none.jsonl"
    path.write_text("")
    assert load_clips(path, DatasetConfig()) == []


def test_hand_written_fixture_parses_field_for_field(tmp_path):
    dc = DatasetConfig(joints_per_hand=1, object_class_count=2, action_class_count=2)
    corners = box_corners([0, 0, 0], [1, 1, 1]).tolist()
    record = {
        "clip_id": "fixture",
        "action_label": 1,
        "object_label": 1,
        "mesh_id": "box",
        "frames": [
            {"left": [[0.0, 0.0, 0.0]], "right": [[1.0, 2.0, 3.0]],
             "bbox_corners": corners, "object_pose": np.eye(4).tolist()},
            {"left": [[0.1, 0.1, 0.1]], "right": [[4.0, 5.0, 6.0]],
             "bbox_corners": corners, "object_pose": np.eye(4).tolist()},
        ],
    }
    path = tmp_path / "one.jsonl"
    path.write_text(json.dumps(record) + "\n")
    clips = load_clips(path, dc)
    assert len(clips) == 1
    clip = clips[0]
    assert clip.clip_id == "fixture"
    assert clip.action_label == 1
    assert clip.object_label == 1
    assert clip.mesh_id == "box"
    assert len(clip) == 2
    np.testing.assert_array_equal(clip.frames[0].hand.right, [[1.0, 2.0, 3.0]])
    np.testing.assert_array_equal(clip.frames[1].hand.left, [[0.1, 0.1, 0.1]])
    # bbox corners expand to the full 21-point representation at load
    np.testing.assert_array_equal(clip.frames[0].object.pose_points,
                                  expand_bbox_21(np.asarray(corners)))


def test_malformed_clip_line_raises_parse_error(tmp_path):
    path = tmp_path / "broken.jsonl"
    path.write_text('{"clip_id": "x", "action_label": }\n')
    with pytest.raises(ParseError):
        load_clips(path, DatasetConfig())


def test_contact_targets_must_reference_known_clips(tiny_synth, tmp_path):
    clips, _, samples = tiny_synth
    path = tmp_path / "contacts.jsonl"
    write_contact_targets(samples, path)
    with pytest.raises(ValidationError):
        load_contact_targets(path, clips[:1], DatasetConfig())


def test_contact_sample_carries_provenance(tiny_synth):
    _, _, samples = tiny_synth
    s = samples[0]
    assert isinstance(s, ContactSample)
    assert s.clip_id is not None and s.frame_index == 0
    assert s.target.joint_count == 42
