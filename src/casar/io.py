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

Every file the package reads goes through ``_lines``, which refuses a
line that is not UTF-8, and every parse of its text through ``_record``:
a file that cannot be read is a ``DataIOError``, and a malformed line a
``ParseError`` at ``path:line``.  Every writer goes through
``atomic_write``: it creates the file's parent directory if that is
missing, and a file is either left as it was or replaced whole.
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

    The parent directory is created first if it is missing.  Data goes to
    ``<path>.tmp``, which ``os.replace`` moves over ``path`` on success and
    which is removed on any failure, so readers see the old file or the new
    one, never a partial write.  Text is UTF-8 and line endings are written
    as given.  OS failures become ``DataIOError``.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    text = {} if "b" in mode else {"encoding": "utf-8", "newline": ""}
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
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


class _record:
    """A failure to parse, convert or validate inside the block becomes ``ParseError``.

    This covers the JSON reader's errors (bad syntax, nesting too deep, an
    integer too long to convert), numpy's and ``float``'s conversion errors
    and the constructors' ``ValidationError``s; the message names
    ``path:lineno``.  A class, as a mesh enters one per vertex line.
    """

    def __init__(self, path, lineno: int):
        self.path, self.lineno = path, lineno

    def __enter__(self):
        return self

    def __exit__(self, kind, exc, tb):
        if (isinstance(exc, (TypeError, ValueError, OverflowError, RecursionError))
                and not isinstance(exc, ParseError)):
            raise ParseError(f"{self.path}:{self.lineno}: {exc}") from exc


def _lines(path, where=None):
    """Yield ``(line number, text)`` for each line of a UTF-8 file, one line at a time.

    Errors name ``where``, the path by default.  A bad byte is caught here,
    not in a ``_record`` per line, which would slow a mesh's many lines.
    """
    where, lineno = where or path, 0
    try:
        with open(path, "rb") as fh:
            for lineno, raw in enumerate(fh, start=1):
                yield lineno, raw.decode("utf-8")
    except OSError as exc:
        raise DataIOError(f"cannot read {where}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{where}:{lineno}: {exc}") from exc


def _load_jsonl(path):
    for lineno, line in _lines(path):
        if line.strip():
            with _record(path, lineno):
                rec = json.loads(line)
            yield lineno, rec


def read_json_object(path, what: str) -> dict:
    """The JSON object that fills a file, such as a config file or a sidecar.

    Errors name ``what``, the kind of file, and line 1, where the object starts.
    """
    where = f"{what} {path}"
    text = "".join(line for _, line in _lines(path, where))
    with _record(where, 1):
        doc = json.loads(text)
    _require(isinstance(doc, dict), where, 1, "expected a JSON object at top level")
    return doc


_NUMBER_TYPES = {int, float}  # what json.loads makes of a JSON number; bool is not one


def _matrix(raw, path, lineno, name, shape):
    """A list of ``shape[0]`` rows of ``shape[1]`` JSON numbers, as float64.

    NaN and the infinities are JSON numbers to Python's reader; the
    constructors that keep the values refuse them.
    """
    _require(isinstance(raw, list) and len(raw) == shape[0] and set(map(type, raw)) == {list},
             path, lineno, f"{name} must be a list of {shape[0]} rows of {shape[1]} numbers")
    _require(set(map(type, chain.from_iterable(raw))) <= _NUMBER_TYPES, path, lineno,
             f"{name} must hold only numbers")
    arr = np.asarray(raw, dtype=np.float64)
    _require(arr.shape == shape, path, lineno, f"{name} has shape {arr.shape}")
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
    for lineno, line in _lines(path):
        parts = line.split()
        if not parts or parts[0] != "v":
            continue
        _require(len(parts) >= 4, path, lineno, "vertex line needs 3 coordinates")
        with _record(path, lineno):
            xyz = [float(v) for v in parts[1:4]]
        _require(all(np.isfinite(xyz)), path, lineno, "non-finite coordinate")
        rows.append(xyz)
    if not rows:
        raise ParseError(f"{path}: no vertex lines found")
    return np.asarray(rows, dtype=np.float64)


def write_obj_vertices(path, vertices) -> None:
    """Write vertices as OBJ-subset text, one ``v x y z`` line per vertex."""
    verts = as_points(vertices, "vertices")
    with atomic_write(path) as fh:
        for x, y, z in verts:
            fh.write(f"v {float(x)!r} {float(y)!r} {float(z)!r}\n")


def load_meshes(directory, mesh_ids=None) -> dict[str, ObjectMesh]:
    """Load the ``<mesh_id>.obj`` files in a directory: all, or those ``mesh_ids`` names.

    The directory is listed either way; an id is only matched against the
    stems of the listed files, never joined into a path, and an id with no
    file is left out.
    """
    d = Path(directory)
    if not d.is_dir():
        raise DataIOError(f"mesh directory not found: {directory}")
    wanted = None if mesh_ids is None else set(mesh_ids)
    meshes = {}
    for path in sorted(d.glob(f"*{MESH_SUFFIX}")):
        mesh_id = path.stem
        if wanted is None or mesh_id in wanted:
            meshes[mesh_id] = ObjectMesh(mesh_id=mesh_id, vertices=read_obj_vertices(path))
    return meshes


def write_meshes(meshes: dict[str, ObjectMesh], directory) -> None:
    d = Path(directory)
    for mesh_id, mesh in sorted(meshes.items()):
        write_obj_vertices(d / f"{mesh_id}{MESH_SUFFIX}", mesh.vertices)


def _bits(raw, path, lineno, name, count):
    """``count`` JSON ints, returned as given; ``ContactMap`` checks that they are bits."""
    _require(isinstance(raw, list) and len(raw) == count, path, lineno,
             f"{name} must be a list of {count} bits")
    # true/false and 1.0 equal 1 but are not the int bits the format writes
    _require(set(map(type, raw)) <= {int}, path, lineno, f"{name} entries must be JSON ints")
    return raw


def load_contact_targets(path, clips, config: DatasetConfig) -> list[ContactSample]:
    """Load contact targets and join them against their source clips."""
    by_id = {c.clip_id: c for c in clips}
    first_line = {}
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
        first = first_line.setdefault((clip_id, idx), lineno)
        _require(first == lineno, path, lineno,
                 f"repeated record for clip {clip_id!r} frame {idx}, first at line {first}")
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
