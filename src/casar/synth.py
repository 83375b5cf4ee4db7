"""Deterministic synthetic hand-object scenes for verification runs.

Each action class is defined by which fingertips of the acting hand touch
the object, a temporal phase pattern (hold the whole clip, approach then
touch, or touch then retreat), and whether the other hand stays distant or
hovers in the intermediate band.  Classes are therefore perfectly
separable from contact/distant indicator vectors alone, while the raw
coordinates carry heavy nuisance variation: which object appears is random
and independent of the class, the scene is placed with a random yaw, tilt,
and translation, every frame gets a small global rigid jitter, and every
joint gets Gaussian noise.

Ground-truth contact targets come from ``derive_contact_dataset`` run on
the emitted clips and meshes, the same routine ``derive-contact`` uses, so
recomputing labels from the emitted scenes reproduces the targets
bit-exactly, with or without noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .datamodel import (
    ActionClip,
    ContactSample,
    FrameSample,
    HandPose,
    ObjectAnnotation,
)
from .errors import NumericError, ValidationError, check_field_types
from .geometry import (
    ContactThresholds,
    ObjectMesh,
    box_corners,
    expand_bbox_21,
)
from .pipeline import derive_contact_dataset

HAND_JOINTS = 21
FINGERS = ("thumb", "index", "middle", "ring", "pinky")
# joint layout: wrist, then 4 joints per finger in FINGERS order, tip last
TIP_JOINT = {name: 4 + 4 * i for i, name in enumerate(FINGERS)}

PHASES = ("hold", "approach", "retreat")
BANDS = ("far", "mid")

# distances in meters, relative to the object surface
_TOUCH_GAP = (0.002, 0.006)
_START_DISTANCE = (0.26, 0.34)
_MID_BAND_CHECK = (0.052, 0.148)
_FAR_CHECK = 0.24
_PLUNGE_ANGLE = (math.radians(15.0), math.radians(30.0))
_HAND_SCALE = (0.92, 1.06)
_MAX_PLACEMENT_ATTEMPTS = 240


@dataclass(frozen=True)
class ClassSpec:
    """Semantic definition of one synthetic action class."""

    tips: tuple[str, ...]
    phase: str
    other_band: str
    acting: str

    def __post_init__(self):
        if any(f not in FINGERS for f in self.tips) or not self.tips:
            raise ValidationError(f"bad fingertip set {self.tips}")
        if self.phase not in PHASES:
            raise ValidationError(f"bad phase {self.phase}")
        if self.other_band not in BANDS:
            raise ValidationError(f"bad band {self.other_band}")
        if self.acting not in ("right", "left"):
            raise ValidationError(f"bad acting hand {self.acting}")


# The first six classes form three pairs that differ only in the other
# hand's distance band, so the distant half of the contact map carries
# information the contact half does not; the pairs themselves differ by
# fingertip set and temporal phase.  Later entries add variety: which
# hand acts (the other hand is the one kept away from the object), more
# fingertip combinations, and remixed phases.
CLASS_CATALOG = (
    ClassSpec(("index",), "hold", "far", "right"),
    ClassSpec(("index",), "hold", "mid", "right"),
    ClassSpec(("thumb", "index"), "approach", "far", "right"),
    ClassSpec(("thumb", "index"), "approach", "mid", "right"),
    ClassSpec(("index", "middle"), "retreat", "far", "right"),
    ClassSpec(("index", "middle"), "retreat", "mid", "right"),
    ClassSpec(("index", "middle", "ring"), "hold", "far", "right"),
    ClassSpec(("index",), "hold", "far", "left"),
    ClassSpec(("thumb", "index"), "hold", "mid", "right"),
    ClassSpec(("index", "middle"), "approach", "far", "left"),
    ClassSpec(("index",), "retreat", "mid", "right"),
    ClassSpec(("index", "middle", "ring"), "approach", "far", "right"),
)


@dataclass(frozen=True)
class SynthSpec:
    """Size, noise, and seeding of one synthetic dataset."""

    class_count: int
    clips_per_class: int
    frames_range: tuple[int, int] = (20, 60)
    noise_sigma: float = 0.003
    seed: int = 0

    def __post_init__(self):
        check_field_types(self)
        if not 2 <= self.class_count <= len(CLASS_CATALOG):
            raise ValidationError(
                f"class_count must be in [2, {len(CLASS_CATALOG)}], got {self.class_count}"
            )
        if self.clips_per_class < 1:
            raise ValidationError(f"clips_per_class must be >= 1, got {self.clips_per_class}")
        lo, hi = self.frames_range
        if not 1 <= lo <= hi:
            raise ValidationError(f"frames_range must satisfy 1 <= lo <= hi, got {self.frames_range}")
        if self.noise_sigma < 0:
            raise ValidationError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")


# ---------------------------------------------------------------------------
# hand templates

# per-finger x offsets of a right hand, palm up, fingers along +y
_FINGER_X = {"thumb": -0.035, "index": -0.0175, "middle": 0.0, "ring": 0.0175, "pinky": 0.035}

# (y, z) chains; z points out of the palm, away from the touched surface
_EXTENDED = ((0.080, 0.004), (0.120, 0.010), (0.140, 0.024), (0.170, 0.0))
_CURLED = ((0.080, 0.006), (0.108, 0.034), (0.106, 0.062), (0.088, 0.074))
_THUMB_PINCH = (
    (-0.055, 0.095, 0.050),
    (-0.048, 0.125, 0.038),
    (-0.040, 0.148, 0.032),
    (-0.032, 0.166, 0.002),
)
_THUMB_TUCKED = (
    (-0.042, 0.045, 0.028),
    (-0.050, 0.068, 0.046),
    (-0.046, 0.088, 0.058),
    (-0.038, 0.102, 0.064),
)

PRIMARY_FINGER = "index"  # every catalog tip set contains it; it anchors placement


def hand_template(touching: tuple[str, ...], side: str) -> np.ndarray:
    """A 21-joint hand pose with the given fingers extended to touch.

    Touching fingers share a common fingertip depth and squeeze together
    laterally so several tips can rest on one curved surface; the rest
    curl up and away.  ``side`` mirrors the template across x for the
    left hand.
    """
    joints = np.zeros((HAND_JOINTS, 3))
    extended = [f for f in touching if f != "thumb"]
    pinch_x = float(np.mean([_FINGER_X[f] for f in extended])) if extended else 0.0
    for i, finger in enumerate(FINGERS):
        base = 1 + 4 * i
        if finger == "thumb":
            chain = _THUMB_PINCH if "thumb" in touching else _THUMB_TUCKED
            joints[base:base + 4] = np.asarray(chain)
        else:
            x = _FINGER_X[finger]
            if finger in touching:
                # squeeze the distal joints toward the shared touch line
                blend = (0.0, 0.2, 0.45, 0.45)
                joints[base:base + 4] = [
                    (x + b * (pinch_x - x), y, z) for b, (y, z) in zip(blend, _EXTENDED)
                ]
            else:
                joints[base:base + 4] = [(x, y, z) for y, z in _CURLED]
    if side == "left":
        joints = joints * np.array([-1.0, 1.0, 1.0])
    return joints


# ---------------------------------------------------------------------------
# procedural object meshes (canonical frame, bounding-box center at origin)


def _center(verts: np.ndarray) -> np.ndarray:
    mid = (verts.min(axis=0) + verts.max(axis=0)) / 2.0
    return verts - mid


def _fibonacci_sphere(n: int) -> np.ndarray:
    i = np.arange(n)
    phi = math.pi * (3.0 - math.sqrt(5.0)) * i
    z = 1.0 - 2.0 * (i + 0.5) / n
    r = np.sqrt(1.0 - z * z)
    return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])


def _box_cloud(hx: float, hy: float, hz: float, n: int = 7) -> np.ndarray:
    g = np.linspace(-1.0, 1.0, n)
    u, v = np.meshgrid(g, g, indexing="ij")
    u, v = u.ravel(), v.ravel()
    ones = np.ones_like(u)
    faces = []
    for sign in (-1.0, 1.0):
        faces.append(np.column_stack([sign * ones * hx, u * hy, v * hz]))
        faces.append(np.column_stack([u * hx, sign * ones * hy, v * hz]))
        faces.append(np.column_stack([u * hx, v * hy, sign * ones * hz]))
    return np.unique(np.round(np.vstack(faces), 12), axis=0)


def _cylinder_cloud(radius: float, half_h: float, n_theta: int = 26, n_z: int = 12) -> np.ndarray:
    theta = np.linspace(0.0, 2.0 * math.pi, n_theta, endpoint=False)
    zs = np.linspace(-half_h, half_h, n_z)
    side = [
        (radius * math.cos(t), radius * math.sin(t), z) for z in zs for t in theta
    ]
    caps = []
    for z in (-half_h, half_h):
        for rr in np.linspace(radius / 3.0, radius, 3, endpoint=False):
            for t in theta[::2]:
                caps.append((rr * math.cos(t), rr * math.sin(t), z))
    return np.asarray(side + caps)


def _torus_cloud(ring_r: float, tube_r: float, n_u: int = 26, n_v: int = 14) -> np.ndarray:
    u = np.linspace(0.0, 2.0 * math.pi, n_u, endpoint=False)
    v = np.linspace(0.0, 2.0 * math.pi, n_v, endpoint=False)
    uu, vv = np.meshgrid(u, v, indexing="ij")
    x = (ring_r + tube_r * np.cos(vv)) * np.cos(uu)
    y = (ring_r + tube_r * np.cos(vv)) * np.sin(uu)
    z = tube_r * np.sin(vv)
    return np.column_stack([x.ravel(), y.ravel(), z.ravel()])


def _cone_cloud(radius: float, height: float) -> np.ndarray:
    pts = [(0.0, 0.0, height)]
    for frac in np.linspace(0.08, 1.0, 11):
        r = radius * frac
        z = height * (1.0 - frac)
        n_theta = max(6, int(round(26 * frac)))
        theta = np.linspace(0.0, 2.0 * math.pi, n_theta, endpoint=False)
        pts.extend((r * math.cos(t), r * math.sin(t), z) for t in theta)
    for rr in np.linspace(radius / 4.0, radius, 4, endpoint=False):
        theta = np.linspace(0.0, 2.0 * math.pi, 14, endpoint=False)
        pts.extend((rr * math.cos(t), rr * math.sin(t), 0.0) for t in theta)
    return np.asarray(pts)


def _capsule_cloud(radius: float, half_h: float) -> np.ndarray:
    body = _cylinder_cloud(radius, half_h, n_theta=24, n_z=8)
    body = body[np.abs(np.linalg.norm(body[:, :2], axis=1) - radius) < 1e-9]
    cap = _fibonacci_sphere(160) * radius
    top = cap[cap[:, 2] >= 0.0] + np.array([0.0, 0.0, half_h])
    bottom = cap[cap[:, 2] <= 0.0] - np.array([0.0, 0.0, half_h])
    return np.vstack([body, top, bottom])


def make_meshes() -> dict[str, ObjectMesh]:
    """Eight fixed desk-scale objects (6 to 14 cm), vertex clouds only."""
    shapes = [
        _box_cloud(0.050, 0.035, 0.025),
        _fibonacci_sphere(350) * 0.045,
        _cylinder_cloud(0.030, 0.060),
        _fibonacci_sphere(380) * np.array([0.060, 0.042, 0.032]),
        _torus_cloud(0.045, 0.018),
        _cone_cloud(0.040, 0.100),
        _capsule_cloud(0.028, 0.045),
        _box_cloud(0.060, 0.045, 0.009, n=8),
    ]
    return {
        f"obj{i}": ObjectMesh(mesh_id=f"obj{i}", vertices=_center(v))
        for i, v in enumerate(shapes)
    }


# ---------------------------------------------------------------------------
# placement helpers


# Placement works on 3- and 4-vectors, where each numpy call costs more
# than its arithmetic.  A norm is math.sqrt(v.dot(v)), the sum
# np.linalg.norm takes, and a cross product is a1*b2 - a2*b1 on floats, as
# np.cross computes it: the same bits with fewer numpy calls.


def _norm(v: np.ndarray) -> float:
    return math.sqrt(v.dot(v))


def _random_unit(rng: np.random.Generator) -> np.ndarray:
    while True:
        v = rng.normal(size=3)
        n = _norm(v)
        if n > 1e-8:
            return v / n


def _random_tangent(rng: np.random.Generator, normal: np.ndarray) -> np.ndarray:
    while True:
        v = rng.normal(size=3)
        t = v - (v @ normal) * normal
        n = _norm(t)
        if n > 1e-8:
            return t / n


def _cross(a: list[float], b: list[float]) -> list[float]:
    (a0, a1, a2), (b0, b1, b2) = a, b
    return [a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0]


def _rotation_about(axis: np.ndarray, angle: float) -> np.ndarray:
    x, y, z = axis.tolist()
    c, s = math.cos(angle), math.sin(angle)
    cc = 1.0 - c
    return np.array([
        [c + x * x * cc, x * y * cc - z * s, x * z * cc + y * s],
        [y * x * cc + z * s, c + y * y * cc, y * z * cc - x * s],
        [z * x * cc - y * s, z * y * cc + x * s, c + z * z * cc],
    ])


def _random_rotation(rng: np.random.Generator) -> np.ndarray:
    q = rng.normal(size=4)
    w, x, y, z = (q / _norm(q)).tolist()
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


@dataclass(frozen=True)
class _Placement:
    """Object-frame scene layout for one clip, before motion and jitter."""

    acting_joints: np.ndarray  # acting hand at its contact configuration
    other_joints: np.ndarray
    approach_dir: np.ndarray  # outward unit vector the acting hand backs off along
    backoff: float  # how far the acting hand retreats in the moving phases


def _place_hands(
    rng: np.random.Generator,
    cspec: ClassSpec,
    mesh: ObjectMesh,
    hand_scale: float,
) -> _Placement:
    """Sample a scene layout whose intended contact pattern is unambiguous.

    Rejection-samples anchors and orientations until the acting hand's
    touching tips are clearly inside the contact threshold, every other
    joint clearly outside it, and the other hand sits inside its band,
    leaving margins the joint noise cannot realistically cross.
    """
    touching = np.zeros(HAND_JOINTS, dtype=bool)
    touching[[TIP_JOINT[f] for f in cspec.tips]] = True
    apart = ~touching
    other_side = "left" if cspec.acting == "right" else "right"
    template = hand_template(cspec.tips, cspec.acting) * hand_scale
    tip_row = TIP_JOINT[PRIMARY_FINGER]
    rest_template = hand_template((), other_side) * hand_scale
    moving = cspec.phase in ("approach", "retreat")
    verts = mesh.vertices

    for _ in range(_MAX_PLACEMENT_ATTEMPTS):
        anchor = verts[rng.integers(len(verts))]
        norm = _norm(anchor)
        if norm < 0.015:
            continue
        outward = anchor / norm
        tangent = _random_tangent(rng, outward)
        plunge = rng.uniform(*_PLUNGE_ANGLE)
        cos, sin = math.cos(plunge), math.sin(plunge)
        pairs = list(zip(outward.tolist(), tangent.tolist()))
        finger_dir = [-cos * o + sin * t for o, t in pairs]
        palm_normal = [sin * o + cos * t for o, t in pairs]
        # columns: spread, finger direction, palm normal
        rot = np.array(list(zip(_cross(finger_dir, palm_normal), finger_dir, palm_normal)))
        gap = rng.uniform(*_TOUCH_GAP)
        shift = (anchor + gap * outward) - rot @ template[tip_row]
        acting = template @ rot.T + shift

        dists = mesh.query_distances(acting)
        if dists[touching].max() >= 0.012 or dists[apart].min() <= 0.028:
            continue
        if dists.max() >= 0.185:
            continue

        backoff = rng.uniform(*_START_DISTANCE) - gap
        if moving:
            far = mesh.query_distances(acting + backoff * outward)
            if far.min() <= 0.215:
                continue

        away = _random_unit(rng)
        if away @ outward > 0.26:  # keep the hands on well-separated sides
            continue
        rest_rot = _random_rotation(rng)
        rest = rest_template @ rest_rot.T
        rest_center = rest.mean(axis=0)
        support = verts[np.argmax(verts @ away)]
        if cspec.other_band == "far":
            dist = rng.uniform(0.26, 0.33)
        else:
            dist = rng.uniform(0.075, 0.105)
        rest = rest + (support + dist * away - rest_center)
        d2 = mesh.query_distances(rest)
        if cspec.other_band == "far":
            if d2.min() <= _FAR_CHECK:
                continue
        else:
            lo, hi = _MID_BAND_CHECK
            if d2.min() <= lo or d2.max() >= hi:
                continue

        return _Placement(
            acting_joints=acting,
            other_joints=rest,
            approach_dir=outward,
            backoff=backoff,
        )
    raise NumericError(
        f"could not place hands for class {cspec} after {_MAX_PLACEMENT_ATTEMPTS} attempts"
    )


def _smoothstep(x: np.ndarray) -> np.ndarray:
    t = np.clip(x, 0.0, 1.0)
    return t * t * (3.0 - 2.0 * t)


def _phase_offsets(phase: str, n_frames: int, travel: float) -> np.ndarray:
    """Per-frame backoff of the acting hand along the approach direction."""
    if n_frames == 1:
        t = np.zeros(1)
    else:
        t = np.arange(n_frames) / (n_frames - 1)
    if phase == "hold":
        return np.zeros(n_frames)
    if phase == "approach":
        return travel * (1.0 - _smoothstep(t / 0.85))
    return travel * _smoothstep((t - 0.15) / 0.85)


# ---------------------------------------------------------------------------
# generator


def _build_clip(
    rng: np.random.Generator,
    clip_id: str,
    class_id: int,
    cspec: ClassSpec,
    meshes: list[ObjectMesh],
    canon_corners: list[np.ndarray],
    n_frames: int,
    noise_sigma: float,
) -> ActionClip:
    obj_id = int(rng.integers(len(meshes)))
    mesh = meshes[obj_id]
    hand_scale = rng.uniform(*_HAND_SCALE)
    placement = _place_hands(rng, cspec, mesh, hand_scale)
    offsets = _phase_offsets(cspec.phase, n_frames, placement.backoff)

    # the whole scene is dropped into the world at an arbitrary orientation,
    # so no raw-coordinate direction is informative on its own
    scene_rot = _random_rotation(rng)
    scene_pos = np.array([
        rng.uniform(-0.12, 0.12), rng.uniform(-0.12, 0.12), rng.uniform(0.33, 0.57),
    ])

    frames = []
    for i in range(n_frames):
        jitter_rot = _rotation_about(_random_unit(rng), rng.uniform(0.0, 0.10))
        jitter_pos = rng.uniform(-0.02, 0.02, size=3)
        # the pose is checked once, by ObjectAnnotation below
        world = np.eye(4)
        world[:3, :3] = jitter_rot @ scene_rot
        world[:3, 3] = scene_pos + jitter_pos
        rot_t, shift = world[:3, :3].T, world[:3, 3]

        acting = placement.acting_joints + offsets[i] * placement.approach_dir
        acting_w = acting @ rot_t + shift
        other_w = placement.other_joints @ rot_t + shift
        if noise_sigma > 0.0:
            acting_w = acting_w + rng.normal(0.0, noise_sigma, size=acting_w.shape)
            other_w = other_w + rng.normal(0.0, noise_sigma, size=other_w.shape)

        if cspec.acting == "right":
            hand = HandPose(right=acting_w, left=other_w)
        else:
            hand = HandPose(right=other_w, left=acting_w)

        pose_points = expand_bbox_21(canon_corners[obj_id] @ rot_t + shift)
        annotation = ObjectAnnotation(
            label_id=obj_id,
            pose_points=pose_points,
            world_from_canonical=world,
            mesh_id=mesh.mesh_id,
        )
        frames.append(FrameSample(hand=hand, object=annotation))

    return ActionClip(clip_id=clip_id, action_label=class_id, frames=tuple(frames))


def synth_generate(
    spec: SynthSpec,
    clip_prefix: str = "clip",
    thresholds: ContactThresholds = ContactThresholds(),
) -> tuple[list[ActionClip], dict[str, ObjectMesh], list[ContactSample]]:
    """Generate a class-balanced two-hand dataset with ground-truth contacts.

    Returns clips (class-major order), the mesh dictionary, and one
    contact sample per frame, labeled by ``derive_contact_dataset``.  Two calls with equal arguments produce
    identical output; ``clip_prefix`` namespaces clip ids so independent
    train and test sets can live side by side.
    """
    mesh_dict = make_meshes()
    meshes = [mesh_dict[k] for k in sorted(mesh_dict)]
    canon_corners = [box_corners(m.vertices.min(axis=0), m.vertices.max(axis=0))
                     for m in meshes]

    total = spec.class_count * spec.clips_per_class
    children = np.random.SeedSequence(spec.seed).spawn(total)
    lo, hi = spec.frames_range

    clips: list[ActionClip] = []
    for class_id in range(spec.class_count):
        cspec = CLASS_CATALOG[class_id]
        for j in range(spec.clips_per_class):
            rng = np.random.default_rng(children[class_id * spec.clips_per_class + j])
            n_frames = int(rng.integers(lo, hi + 1))
            clip_id = f"{clip_prefix}_{class_id:02d}_{j:04d}"
            clips.append(_build_clip(
                rng, clip_id, class_id, cspec, meshes,
                canon_corners, n_frames, spec.noise_sigma,
            ))
    return clips, mesh_dict, derive_contact_dataset(clips, mesh_dict, thresholds)
