"""Encodings, resampling, containers, and dataset file round trips."""

import errno
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
    clip_from_arrays,
    encode_clip,
    encode_frame,
    resample_frames,
    resample_indices,
)
from casar.errors import DataIOError, ParseError, ShapeError, ValidationError, check_field_types
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

    def disk_full_after(samples):  # the write fails after every record has gone out
        yield from samples
        raise OSError(errno.ENOSPC, "No space left on device")

    with pytest.raises(DataIOError, match="No space left on device"):
        write_contact_targets(disk_full_after(samples), path)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["contacts.jsonl"]


def _stacked(clip):
    """A clip's right, left, corners and poses, each stacked over its frames."""
    f = clip.frames
    left = None if f[0].hand.left is None else np.stack([x.hand.left for x in f])
    return (np.stack([x.hand.right for x in f]), left,
            np.stack([x.object.pose_points[1:9] for x in f]),
            np.stack([x.object.world_from_canonical for x in f]))


def _bits(clip):
    """Every bit of a clip's frame arrays, with its labels and mesh id."""
    arrays = [(f.hand.right, f.hand.left, f.object.pose_points, f.object.world_from_canonical)
              for f in clip.frames]
    return (clip.clip_id, clip.action_label, clip.object_label, clip.mesh_id,
            [None if a is None else (a.dtype, a.shape, a.tobytes())
             for frame in arrays for a in frame])


def test_synth_loader_and_builder_give_the_same_bits(tiny_synth, tmp_path):
    clips = tiny_synth[0]
    write_clips(clips, tmp_path / "clips.jsonl")
    loaded = load_clips(tmp_path / "clips.jsonl", DatasetConfig())
    built = [clip_from_arrays(c.clip_id, c.action_label, c.object_label, c.mesh_id,
                              *_stacked(c)) for c in clips]
    want = [_bits(c) for c in clips]
    assert [_bits(c) for c in loaded] == want
    assert [_bits(c) for c in built] == want


def test_one_hand_clip_file_round_trips_byte_for_byte(tiny_synth, tmp_path):
    one_hand = []
    for c in tiny_synth[0]:
        right, _, corners, poses = _stacked(c)
        one_hand.append(clip_from_arrays(c.clip_id, c.action_label, c.object_label,
                                         c.mesh_id, right, None, corners, poses))
    write_clips(one_hand, tmp_path / "a.jsonl")
    back = load_clips(tmp_path / "a.jsonl", DatasetConfig(hands=1))
    assert [_bits(c) for c in back] == [_bits(c) for c in one_hand]
    write_clips(back, tmp_path / "b.jsonl")
    text = (tmp_path / "a.jsonl").read_bytes()
    assert b'"left":null' in text and b'"left":[' not in text
    assert (tmp_path / "b.jsonl").read_bytes() == text


def test_clip_from_arrays_refuses_arrays_of_different_lengths():
    corners = np.stack([box_corners([0, 0, 0], [0.1, 0.1, 0.1])] * 3)
    joints, poses = np.zeros((3, 21, 3)), np.stack([np.eye(4)] * 3)
    clip = clip_from_arrays("c", 0, 0, None, joints, None, corners, poses)
    assert len(clip) == 3 and clip.frames[2].hand.left is None
    for args in [(joints[:2], None, corners, poses), (joints, joints[:2], corners, poses),
                 (joints, None, corners[:2], poses), (joints, None, corners, poses[:2])]:
        with pytest.raises(ShapeError, match="differ in length"):
            clip_from_arrays("c", 0, 0, None, *args)


def test_mesh_dir_round_trip(tiny_synth, tmp_path):
    _, meshes, _ = tiny_synth
    write_meshes(meshes, tmp_path / "meshes")
    back = load_meshes(tmp_path / "meshes")
    assert set(back) == set(meshes)
    for mid in meshes:
        np.testing.assert_array_equal(back[mid].vertices, meshes[mid].vertices)


def test_mesh_ids_pick_files_by_stem_only(tiny_synth, tmp_path):
    _, meshes, _ = tiny_synth
    write_meshes(meshes, tmp_path / "meshes")
    (tmp_path / "meshes" / "broken.obj").write_text("v 1 2 nan\n")
    write_meshes({"outside": meshes["obj0"]}, tmp_path)  # tmp_path/outside.obj
    back = load_meshes(tmp_path / "meshes", ["obj0", "obj3", "../outside", "absent"])
    assert list(back) == ["obj0", "obj3"]
    for mid in back:
        np.testing.assert_array_equal(back[mid].vertices, meshes[mid].vertices)
    assert load_meshes(tmp_path / "meshes", []) == {}


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
