"""Hand-object contact geometry.

Ground-truth contact labeling works on raw point sets: hand joints are
compared against the vertices of a posed object mesh, and every joint is
classified as a contact point (nearest vertex closer than ``eta_c``), a
distant point (nearest vertex farther than ``eta_d``), or neither.
Distances are point-to-vertex, never point-to-surface; mesh faces are
ignored throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .errors import ShapeError, ValidationError, check_field_types

# Canonical corner order for an 8-corner box: corner index i has bits
# (b0, b1, b2) = (i & 1, i >> 1 & 1, i >> 2 & 1), each bit selecting the
# min (0) or max (1) coordinate along x, y, z respectively.  Edges are
# the corner pairs differing in exactly one bit, sorted by (low, high).
BOX_EDGES: tuple[tuple[int, int], ...] = (
    (0, 1), (0, 2), (0, 4), (1, 3), (1, 5), (2, 3),
    (2, 6), (3, 7), (4, 5), (4, 6), (5, 7), (6, 7),
)

_ORTHONORMAL_TOL = 1e-6
_BOTTOM_ROW_TOL = 1e-9


def as_points(points, name: str = "points") -> np.ndarray:
    """Validate and return an (N, 3) float64 array of finite 3D points."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1 and pts.shape == (3,):
        pts = pts[None, :]
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ShapeError(f"{name}: expected (N, 3) point array, got shape {pts.shape}")
    if not np.isfinite(pts).all():
        raise ValidationError(f"{name}: contains non-finite coordinates")
    return pts


def as_point(point, name: str = "point") -> np.ndarray:
    """Validate a single finite 3D point, returned as shape (3,)."""
    p = np.asarray(point, dtype=np.float64)
    if p.shape != (3,):
        raise ShapeError(f"{name}: expected a 3-vector, got shape {p.shape}")
    if not np.isfinite(p).all():
        raise ValidationError(f"{name}: contains non-finite coordinates")
    return p


@dataclass(frozen=True)
class ObjectMesh:
    """Vertex set of one object in its canonical frame.

    Faces carry no meaning for contact labeling and are not stored.
    """

    mesh_id: str
    vertices: np.ndarray

    def __post_init__(self):
        verts = as_points(self.vertices, f"mesh {self.mesh_id!r} vertices")
        if len(verts) == 0:
            raise ValidationError(f"mesh {self.mesh_id!r}: needs at least one vertex")
        object.__setattr__(self, "vertices", verts)


@dataclass(frozen=True)
class SpatialIndex:
    """Immutable nearest-neighbor index over a fixed vertex set.

    Queries return the exact minimum Euclidean distance; construction
    copies the vertices, so the caller's array is never reordered.
    Safe for concurrent read-only queries.
    """

    tree: cKDTree = field(repr=False)

    def query_distances(self, points: np.ndarray) -> np.ndarray:
        pts = as_points(points, "query points")
        dists, _ = self.tree.query(pts, k=1)
        return np.atleast_1d(np.asarray(dists, dtype=np.float64))


@dataclass(frozen=True)
class ContactThresholds:
    """Distance thresholds in meters: contact below eta_c, distant above eta_d."""

    eta_c: float = 0.02
    eta_d: float = 0.20

    def __post_init__(self):
        check_field_types(self)
        if not (0.0 < self.eta_c < self.eta_d):
            raise ValidationError(
                f"need 0 < eta_c < eta_d, got eta_c={self.eta_c}, eta_d={self.eta_d}"
            )


@dataclass(frozen=True)
class ContactMap:
    """Per-joint binary contact and distant indicator vectors.

    Both vectors have one entry per hand joint (hands stacked left then
    right).  A joint is never both in contact and distant.
    """

    contact: np.ndarray
    distant: np.ndarray

    def __post_init__(self):
        contact = np.asarray(self.contact, dtype=np.uint8)
        distant = np.asarray(self.distant, dtype=np.uint8)
        if contact.ndim != 1 or contact.shape != distant.shape:
            raise ShapeError(
                f"contact/distant must be equal-length vectors, got "
                f"{contact.shape} and {distant.shape}"
            )
        for name, vec in (("contact", contact), ("distant", distant)):
            if not np.isin(vec, (0, 1)).all():
                raise ValidationError(f"{name} entries must be 0 or 1")
        if np.any(contact & distant):
            raise ValidationError("a joint cannot be both contact and distant")
        object.__setattr__(self, "contact", contact)
        object.__setattr__(self, "distant", distant)

    @property
    def joint_count(self) -> int:
        return len(self.contact)

    def as_target_vector(self) -> np.ndarray:
        """Concatenated [contact | distant] float vector, the training target."""
        return np.concatenate([self.contact, self.distant]).astype(np.float64)


def build_vertex_index(vertices) -> SpatialIndex:
    """Build an exact nearest-neighbor index over a non-empty vertex set."""
    verts = np.asarray(vertices, dtype=np.float64)
    if verts.size == 0:
        raise ValidationError("cannot index an empty vertex set")
    verts = as_points(verts, "vertices")
    # copy: the index must stay valid if the caller mutates its array
    return SpatialIndex(tree=cKDTree(verts.copy()))


def validate_rigid_transform(transform) -> np.ndarray:
    """Check a 4x4 homogeneous rigid transform and return it as float64.

    Requires bottom row (0, 0, 0, 1), an orthonormal rotation block
    (max |R^T R - I| <= 1e-6), and positive determinant.
    """
    T = np.asarray(transform, dtype=np.float64)
    if T.shape != (4, 4):
        raise ShapeError(f"rigid transform must be 4x4, got shape {T.shape}")
    if not np.isfinite(T).all():
        raise ValidationError("rigid transform contains non-finite entries")
    if np.abs(T[3] - np.array([0.0, 0.0, 0.0, 1.0])).max() > _BOTTOM_ROW_TOL:
        raise ValidationError(f"bottom row must be (0, 0, 0, 1), got {T[3]}")
    R = T[:3, :3]
    err = np.abs(R.T @ R - np.eye(3)).max()
    if err > _ORTHONORMAL_TOL:
        raise ValidationError(f"rotation block not orthonormal (|R^T R - I| = {err:.2e})")
    if np.linalg.det(R) <= 0:
        raise ValidationError("rotation block must have positive determinant")
    return T


def make_transform(rotation, translation) -> np.ndarray:
    """Assemble a 4x4 transform from a 3x3 rotation and a translation."""
    T = np.eye(4)
    T[:3, :3] = np.asarray(rotation, dtype=np.float64)
    T[:3, 3] = np.asarray(translation, dtype=np.float64)
    return validate_rigid_transform(T)


def transform_points(transform, points) -> np.ndarray:
    """Apply a rigid transform to points: p' = R p + t, order preserved."""
    T = validate_rigid_transform(transform)
    pts = as_points(points)
    return pts @ T[:3, :3].T + T[:3, 3]


def label_contact_map(joints, index: SpatialIndex, thresholds: ContactThresholds) -> ContactMap:
    """Label every hand joint against an index of posed mesh vertices.

    Comparisons are strict: a distance exactly equal to a threshold sets
    neither bit.  The index must already be built in the same frame as
    the joints.
    """
    dists = index.query_distances(as_points(joints, "joints"))
    return ContactMap(
        contact=(dists < thresholds.eta_c).astype(np.uint8),
        distant=(dists > thresholds.eta_d).astype(np.uint8),
    )


def box_corners(low, high) -> np.ndarray:
    """The 8 corners of an axis-aligned box in canonical corner order."""
    lo = as_point(low, "low")
    hi = as_point(high, "high")
    corners = np.empty((8, 3))
    for i in range(8):
        corners[i] = [
            hi[0] if i & 1 else lo[0],
            hi[1] if i & 2 else lo[1],
            hi[2] if i & 4 else lo[2],
        ]
    return corners


def expand_bbox_21(corners) -> np.ndarray:
    """Expand 8 box corners into the 21-point pose representation.

    Output order: center, the 8 corners unchanged, then the 12 mid-edge
    points following ``BOX_EDGES``.  Corners must already be in canonical
    corner order.
    """
    c = np.asarray(corners, dtype=np.float64)
    if c.shape != (8, 3):
        raise ShapeError(f"expected 8 corners of shape (8, 3), got {c.shape}")
    c = as_points(c, "corners")
    center = c.mean(axis=0)
    mids = np.array([(c[a] + c[b]) * 0.5 for a, b in BOX_EDGES])
    return np.vstack([center[None, :], c, mids])
