"""On-disk dataset formats.

Clips and contact targets are JSON Lines; meshes are OBJ-subset vertex
files, one per mesh id.  Writers emit a canonical form (fixed key order,
shortest round-trip float formatting), so loading a canonical file and
writing it back reproduces it byte for byte.

Clip record:
    {"clip_id": str, "action_label": int, "object_label": int,
     "mesh_id": str|null, "frames": [{"left": [[x,y,z] x J]|null,
     "right": [[x,y,z] x J], "bbox_corners": [[x,y,z] x 8],
     "object_pose": [[...] x 4]}]}

``bbox_corners`` are world-frame per-frame corners in canonical corner
order; the 21-point pose representation is expanded at load time.
``object_pose`` is the 4x4 row-major world-from-canonical mesh transform.

Contact record:
    {"clip_id": str, "frame_index": int, "contact": [0/1 x H*J],
     "distant": [0/1 x H*J]}

Every writer in the package goes through ``atomic_write``: a file is
either left as it was or replaced whole.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from itertools import chain
from pathlib import Path

import numpy as np

from .datamodel import (
    ActionClip,
    ContactSample,
    DatasetConfig,
    FrameSample,
    HandPose,
    ObjectAnnotation,
)
from .errors import DataIOError, ParseError, ValidationError
from .geometry import ContactMap, ObjectMesh, as_points, expand_bbox_21

MESH_SUFFIX = ".obj"


@contextmanager
def atomic_write(path, mode: str = "w"):
    """Open ``path`` for writing; it is replaced only if the block completes.

    Data goes to ``<path>.tmp``, which ``os.replace`` moves over ``path``
    on success and which is removed on any failure, so readers see the old
    file or the new one, never a partial write.  Text is UTF-8 and line
    endings are written as given.  OS failures become ``DataIOError``.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    text = {} if "b" in mode else {"encoding": "utf-8", "newline": ""}
    try:
        try:
            with open(tmp, mode, **text) as fh:
                yield fh
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)
    except OSError as exc:
        raise DataIOError(f"cannot write {path}: {exc}") from exc


def _require(cond: bool, path, lineno: int, msg: str) -> None:
    if not cond:
        raise ParseError(f"{path}:{lineno}: {msg}")


@contextmanager
def _record(path, lineno: int):
    """A failure to convert or validate inside the block becomes ``ParseError``.

    This covers numpy's conversion errors (a string coordinate, a ragged
    list, an integer too large for a float) and the constructors'
    ``ValidationError``s; the message names ``path:lineno``.
    """
    try:
        yield
    except ParseError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{path}:{lineno}: {exc}") from exc


def _load_jsonl(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    yield lineno, json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ParseError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
    except OSError as exc:
        raise DataIOError(f"cannot read {path}: {exc}") from exc


_NUMBER_TYPES = {int, float}  # what json.loads makes of a JSON number; bool is not one


def _matrix(raw, path, lineno, name, shape):
    """A list of ``shape[0]`` rows of ``shape[1]`` JSON numbers, as float64."""
    _require(isinstance(raw, list) and len(raw) == shape[0] and set(map(type, raw)) == {list},
             path, lineno, f"{name} must be a list of {shape[0]} rows of {shape[1]} numbers")
    _require(set(map(type, chain.from_iterable(raw))) <= _NUMBER_TYPES, path, lineno,
             f"{name} must hold only numbers")
    arr = np.asarray(raw, dtype=np.float64)
    _require(arr.shape == shape, path, lineno, f"{name} has shape {arr.shape}")
    _require(bool(np.isfinite(arr).all()), path, lineno, f"{name} has non-finite values")
    return arr


def _parse_frame(raw, clip_fields, config, path, lineno):
    _require(isinstance(raw, dict), path, lineno, "frame must be an object")
    J = config.joints_per_hand
    left = raw.get("left")
    if config.hands == 2:
        _require(left is not None, path, lineno, "two-hand dataset but frame has left=null")
        left = _matrix(left, path, lineno, "left", (J, 3))
    else:
        _require(left is None, path, lineno, "one-hand dataset but frame has a left hand")
    right = _matrix(raw.get("right"), path, lineno, "right", (J, 3))
    corners = _matrix(raw.get("bbox_corners"), path, lineno, "bbox_corners", (8, 3))
    pose = _matrix(raw.get("object_pose"), path, lineno, "object_pose", (4, 4))
    annotation = ObjectAnnotation(
        label_id=clip_fields["object_label"],
        pose_points=expand_bbox_21(corners),
        world_from_canonical=pose,
        mesh_id=clip_fields["mesh_id"],
    )
    return FrameSample(hand=HandPose(right=right, left=left), object=annotation)


def load_clips(path, config: DatasetConfig) -> list[ActionClip]:
    """Load and validate a JSONL clip file; an empty file yields []."""
    clips = []
    seen = set()
    for lineno, rec in _load_jsonl(path):
        _require(isinstance(rec, dict), path, lineno, "record must be an object")
        clip_id = rec.get("clip_id")
        _require(isinstance(clip_id, str) and clip_id, path, lineno, "missing clip_id")
        _require(clip_id not in seen, path, lineno, f"duplicate clip_id {clip_id!r}")
        seen.add(clip_id)
        action = rec.get("action_label")
        # type() and not isinstance(): JSON true/false load as bool, an int subclass
        _require(type(action) is int and 0 <= action < config.action_class_count,
                 path, lineno,
                 f"action_label {action!r} is not an int in [0, {config.action_class_count})")
        obj = rec.get("object_label")
        _require(type(obj) is int and 0 <= obj < config.object_class_count,
                 path, lineno,
                 f"object_label {obj!r} is not an int in [0, {config.object_class_count})")
        mesh_id = rec.get("mesh_id")
        _require(mesh_id is None or isinstance(mesh_id, str), path, lineno,
                 "mesh_id must be a string or null")
        frames_raw = rec.get("frames")
        _require(isinstance(frames_raw, list) and frames_raw, path, lineno,
                 "frames must be a non-empty list")
        fields = {"object_label": obj, "mesh_id": mesh_id}
        with _record(path, lineno):
            frames = tuple(_parse_frame(f, fields, config, path, lineno) for f in frames_raw)
            clips.append(ActionClip(clip_id=clip_id, action_label=action, frames=frames))
    return clips


def _nested(arr) -> list:
    return np.asarray(arr, dtype=np.float64).tolist()


def clip_to_record(clip: ActionClip) -> dict:
    """Canonical JSON-ready dict for one clip."""
    frames = []
    for f in clip.frames:
        # pose_points[1:9] are the stored corners; center/mid-edges re-derive
        frames.append({
            "left": None if f.hand.left is None else _nested(f.hand.left),
            "right": _nested(f.hand.right),
            "bbox_corners": _nested(f.object.pose_points[1:9]),
            "object_pose": _nested(f.object.world_from_canonical),
        })
    return {
        "clip_id": clip.clip_id,
        "action_label": int(clip.action_label),
        "object_label": int(clip.object_label),
        "mesh_id": clip.mesh_id,
        "frames": frames,
    }


def write_clips(clips, path) -> None:
    """Write clips as canonical JSON Lines."""
    with atomic_write(path) as fh:
        for clip in clips:
            fh.write(json.dumps(clip_to_record(clip), separators=(",", ":")))
            fh.write("\n")


def read_obj_vertices(path) -> np.ndarray:
    """Read vertices from an OBJ-subset text file (``v x y z`` lines).

    Lines starting with any other token are ignored.  Units: meters.
    """
    rows = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                parts = line.split()
                if not parts or parts[0] != "v":
                    continue
                if len(parts) < 4:
                    raise ParseError(f"{path}:{lineno}: vertex line needs 3 coordinates")
                try:
                    xyz = [float(v) for v in parts[1:4]]
                except ValueError as exc:
                    raise ParseError(f"{path}:{lineno}: bad coordinate: {exc}") from exc
                if not all(np.isfinite(xyz)):
                    raise ParseError(f"{path}:{lineno}: non-finite coordinate")
                rows.append(xyz)
    except OSError as exc:
        raise DataIOError(f"cannot read mesh file {path}: {exc}") from exc
    if not rows:
        raise ParseError(f"{path}: no vertex lines found")
    return np.asarray(rows, dtype=np.float64)


def write_obj_vertices(path, vertices) -> None:
    """Write vertices as OBJ-subset text, one ``v x y z`` line per vertex."""
    verts = as_points(vertices, "vertices")
    with atomic_write(path) as fh:
        for x, y, z in verts:
            fh.write(f"v {float(x)!r} {float(y)!r} {float(z)!r}\n")


def load_meshes(directory) -> dict[str, ObjectMesh]:
    """Load every ``<mesh_id>.obj`` file in a directory."""
    d = Path(directory)
    if not d.is_dir():
        raise DataIOError(f"mesh directory not found: {directory}")
    meshes = {}
    for path in sorted(d.glob(f"*{MESH_SUFFIX}")):
        mesh_id = path.stem
        meshes[mesh_id] = ObjectMesh(mesh_id=mesh_id, vertices=read_obj_vertices(path))
    return meshes


def write_meshes(meshes: dict[str, ObjectMesh], directory) -> None:
    d = Path(directory)
    try:
        d.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise DataIOError(f"cannot create mesh directory {d}: {exc}") from exc
    for mesh_id, mesh in sorted(meshes.items()):
        write_obj_vertices(d / f"{mesh_id}{MESH_SUFFIX}", mesh.vertices)


def _bits(raw, path, lineno, name, count):
    _require(isinstance(raw, list) and len(raw) == count, path, lineno,
             f"{name} must be a list of {count} bits")
    # by type first: true/false and 1.0 equal 1 but are not the int bits the format writes
    _require(set(map(type, raw)) <= {int} and set(raw) <= {0, 1}, path, lineno,
             f"{name} entries must be 0 or 1")
    return np.asarray(raw, dtype=np.uint8)


def load_contact_targets(path, clips, config: DatasetConfig) -> list[ContactSample]:
    """Load contact targets and join them against their source clips."""
    by_id = {c.clip_id: c for c in clips}
    samples = []
    for lineno, rec in _load_jsonl(path):
        _require(isinstance(rec, dict), path, lineno, "record must be an object")
        clip_id = rec.get("clip_id")
        _require(isinstance(clip_id, str) and clip_id in by_id, path, lineno,
                 f"unknown clip_id {clip_id!r}")
        clip = by_id[clip_id]
        idx = rec.get("frame_index")
        _require(type(idx) is int and 0 <= idx < len(clip), path, lineno,
                 f"frame_index {idx!r} is not an int in [0, {len(clip)}) "
                 f"for clip {clip_id!r}")
        with _record(path, lineno):
            target = ContactMap(
                contact=_bits(rec.get("contact"), path, lineno, "contact", config.joint_count),
                distant=_bits(rec.get("distant"), path, lineno, "distant", config.joint_count),
            )
        samples.append(ContactSample(
            frame=clip.frames[idx], target=target, clip_id=clip_id, frame_index=idx,
        ))
    return samples


def write_contact_targets(samples, path) -> None:
    """Write contact samples as canonical JSON Lines (needs provenance ids)."""
    with atomic_write(path) as fh:
        for s in samples:
            if s.clip_id is None or s.frame_index is None:
                raise ValidationError(
                    "contact sample lacks clip_id/frame_index; cannot serialize"
                )
            rec = {
                "clip_id": s.clip_id,
                "frame_index": int(s.frame_index),
                "contact": [int(b) for b in s.target.contact],
                "distant": [int(b) for b in s.target.distant],
            }
            fh.write(json.dumps(rec, separators=(",", ":")))
            fh.write("\n")
