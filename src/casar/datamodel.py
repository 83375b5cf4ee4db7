"""Dataset containers, built by ``clip_from_arrays``, and their input encodings.

A frame encodes to a flat vector ``[hand joints | 21 object pose points |
object one-hot]``; a clip is a fixed number of such frames flattened in
order.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ShapeError, ValidationError, check_field_types
from .geometry import (ContactMap, ContactThresholds, as_points, expand_bbox_21,
                       validate_rigid_transform)

OBJECT_POSE_POINTS = 21  # center + 8 corners + 12 mid-edge points


def _check_label(value, what: str) -> None:
    """A class label is an int >= 0: as for an int config field, any integral but bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 0:
        raise ValidationError(f"{what} must be an int >= 0, got {value!r}")


@dataclass(frozen=True)
class DatasetConfig:
    """Dataset geometry and dimensioning.

    The per-frame encoded width is ``3*hands*joints_per_hand + 63 +
    object_class_count`` (two-hand, 8-object default: 197).
    """

    hands: int = 2
    joints_per_hand: int = 21
    object_class_count: int = 8
    action_class_count: int = 36
    frames_per_clip: int = 32
    thresholds: ContactThresholds = field(default_factory=ContactThresholds)

    def __post_init__(self):
        check_field_types(self)
        if self.hands not in (1, 2):
            raise ValidationError(f"hands must be 1 or 2, got {self.hands}")
        if self.joints_per_hand < 1:
            raise ValidationError("joints_per_hand must be >= 1")
        if self.object_class_count < 1:
            raise ValidationError("object_class_count must be >= 1")
        if self.action_class_count < 2:
            raise ValidationError("action_class_count must be >= 2")
        if self.frames_per_clip < 1:
            raise ValidationError("frames_per_clip must be >= 1")

    @property
    def joint_count(self) -> int:
        return self.hands * self.joints_per_hand

    @property
    def contact_dim(self) -> int:
        """Width of a contact-map target: contact half plus distant half."""
        return 2 * self.joint_count

    @property
    def frame_dim(self) -> int:
        return 3 * self.joint_count + 3 * OBJECT_POSE_POINTS + self.object_class_count

    @property
    def clip_dim(self) -> int:
        return self.frames_per_clip * self.frame_dim

    @property
    def augmented_frame_dim(self) -> int:
        return self.frame_dim + self.contact_dim

    @property
    def augmented_clip_dim(self) -> int:
        return self.frames_per_clip * self.augmented_frame_dim


@dataclass(frozen=True)
class HandPose:
    """Joint coordinates for one frame; left is None for one-hand datasets."""

    right: np.ndarray
    left: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "right", as_points(self.right, "right hand"))
        if self.left is not None:
            object.__setattr__(self, "left", as_points(self.left, "left hand"))

    def joints(self) -> np.ndarray:
        """All joints stacked, left hand first when present."""
        if self.left is None:
            return self.right
        return np.vstack([self.left, self.right])


@dataclass(frozen=True)
class ObjectAnnotation:
    """Object pose and identity for one frame.

    ``pose_points`` are the 21 world-frame bounding-box points;
    ``world_from_canonical`` poses the mesh for contact derivation.
    ``mesh_id`` may be None when no mesh is available.
    """

    label_id: int
    pose_points: np.ndarray
    world_from_canonical: np.ndarray
    mesh_id: str | None = None

    def __post_init__(self):
        _check_label(self.label_id, "object label")
        pts = as_points(self.pose_points, "object pose points")
        if len(pts) != OBJECT_POSE_POINTS:
            raise ShapeError(
                f"expected {OBJECT_POSE_POINTS} object pose points, got {len(pts)}"
            )
        object.__setattr__(self, "pose_points", pts)
        object.__setattr__(
            self, "world_from_canonical", validate_rigid_transform(self.world_from_canonical)
        )


@dataclass(frozen=True)
class FrameSample:
    """One frame's hand pose plus object annotation."""

    hand: HandPose
    object: ObjectAnnotation


@dataclass(frozen=True)
class ActionClip:
    """A labeled frame sequence; the object label and mesh id are constant over frames."""

    clip_id: str
    action_label: int
    frames: tuple[FrameSample, ...]

    def __post_init__(self):
        object.__setattr__(self, "frames", tuple(self.frames))
        if len(self.frames) < 1:
            raise ValidationError(f"clip {self.clip_id!r}: needs at least one frame")
        _check_label(self.action_label, f"clip {self.clip_id!r}: action label")
        objects = {(f.object.label_id, f.object.mesh_id) for f in self.frames}
        if len(objects) != 1:
            raise ValidationError(
                f"clip {self.clip_id!r}: object label and mesh id must be constant, "
                f"got {sorted(objects, key=str)}"
            )

    @property
    def object_label(self) -> int:
        return self.frames[0].object.label_id

    @property
    def mesh_id(self) -> str | None:
        return self.frames[0].object.mesh_id

    def __len__(self) -> int:
        return len(self.frames)


@dataclass(frozen=True)
class ContactSample:
    """A frame with its ground-truth contact map.

    ``clip_id`` and ``frame_index`` record where the frame came from so
    samples can be written to and joined against the clip files.
    """

    frame: FrameSample
    target: ContactMap
    clip_id: str
    frame_index: int


def clip_from_arrays(clip_id: str, action_label: int, object_label: int,
                     mesh_id: str | None, right, left, corners, poses) -> ActionClip:
    """The clip whose frame t is row t of each per-frame array; the only frame builder.

    ``right`` and ``left`` are ``(T, J, 3)`` joints, ``left`` None for one
    hand; ``corners`` ``(T, 8, 3)`` box corners in canonical corner order,
    expanded here to the 21 pose points; ``poses`` ``(T, 4, 4)`` transforms.
    The frames hold views of these arrays, and their constructors check them.
    """
    lefts = [None] * len(right) if left is None else left
    if not len(right) == len(lefts) == len(corners) == len(poses):
        raise ShapeError(f"clip {clip_id!r}: per-frame arrays differ in length")
    frames = tuple(
        FrameSample(hand=HandPose(right=r, left=l), object=ObjectAnnotation(
            label_id=object_label, pose_points=p, world_from_canonical=w, mesh_id=mesh_id))
        for r, l, p, w in zip(right, lefts, expand_bbox_21(corners), poses)
    )
    return ActionClip(clip_id=clip_id, action_label=action_label, frames=frames)


def _check_frame(frame: FrameSample, config: DatasetConfig) -> None:
    J = config.joints_per_hand
    if config.hands == 2 and frame.hand.left is None:
        raise ShapeError("two-hand config but frame has no left hand")
    if config.hands == 1 and frame.hand.left is not None:
        raise ShapeError("one-hand config but frame carries a left hand")
    if frame.hand.right.shape != (J, 3):
        raise ShapeError(f"right hand must have {J} joints, got {frame.hand.right.shape}")
    if frame.hand.left is not None and frame.hand.left.shape != (J, 3):
        raise ShapeError(f"left hand must have {J} joints, got {frame.hand.left.shape}")
    if frame.object.label_id >= config.object_class_count:
        raise ValidationError(
            f"object label {frame.object.label_id} out of range "
            f"[0, {config.object_class_count})"
        )


def encode_frame(frame: FrameSample, config: DatasetConfig) -> np.ndarray:
    """Flat per-frame vector [hand joints | object points | object one-hot].

    Hand joints flatten left hand first (joint 0 x, y, z, ..), then the
    right hand; object points flatten in their fixed 21-point order.
    """
    _check_frame(frame, config)
    return np.concatenate([
        frame.hand.joints().ravel(),
        frame.object.pose_points.ravel(),
        np.eye(config.object_class_count)[frame.object.label_id],
    ])


def resample_indices(length: int, n_frames: int) -> np.ndarray:
    """Source index for each output frame j: floor(j * length / n_frames).

    One rule covers uniform subsampling (length > n_frames), in-order
    duplication (length < n_frames), and identity (equal lengths).
    """
    if length < 1:
        raise ValidationError("cannot resample an empty sequence")
    if n_frames < 1:
        raise ValidationError("target frame count must be >= 1")
    j = np.arange(n_frames)
    return (j * length) // n_frames


def resample_frames(clip: ActionClip, n_frames: int) -> ActionClip:
    """Normalize a clip to exactly `n_frames` frames."""
    idx = resample_indices(len(clip), n_frames)
    return replace(clip, frames=tuple(clip.frames[i] for i in idx))


def encode_clip(clip: ActionClip, config: DatasetConfig) -> np.ndarray:
    """Flatten a resampled clip: its encoded frames, in order."""
    n_f = config.frames_per_clip
    if len(clip) != n_f:
        raise ShapeError(
            f"clip {clip.clip_id!r} has {len(clip)} frames; resample to {n_f} first"
        )
    return np.stack([encode_frame(f, config) for f in clip.frames]).ravel()
