"""Hand-object contact geometry.

Ground-truth contact labeling works on raw point sets: hand joints are
compared against the vertices of an object mesh, and every joint is
classified as a contact point (nearest vertex closer than ``eta_c``), a
distant point (nearest vertex farther than ``eta_d``), or neither.
Each ``ObjectMesh`` builds its nearest-vertex index once and answers
these distance queries itself.  Distances are point-to-vertex, never
point-to-surface; mesh faces are ignored throughout.
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

_CORNER_BITS = (np.arange(8)[:, None] >> np.arange(3)) & 1
_EDGE_LOW, _EDGE_HIGH = np.array(BOX_EDGES).T

_ORTHONORMAL_TOL = 1e-6
_BOTTOM_ROW_TOL = 1e-9


def as_points(points, name: str = "points") -> np.ndarray:
    """Validate and return an (N, 3) float64 array of finite 3D points."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ShapeError(f"{name}: expected (N, 3) point array, got shape {pts.shape}")
    if not np.isfinite(pts).all():
        raise ValidationError(f"{name}: contains non-finite coordinates")
    return pts


def build_vertex_index(vertices) -> cKDTree:
    """An exact nearest-neighbor tree over a read-only copy of a non-empty vertex set."""
    verts = as_points(vertices, "vertices")
    if len(verts) == 0:
        raise ValidationError("cannot index an empty vertex set")
    # the copy is the tree's data: writing into the caller's array cannot reach it
    verts = verts.copy()
    verts.setflags(write=False)
    return cKDTree(verts)


@dataclass(frozen=True)
class ObjectMesh:
    """Vertex set of one object in its canonical frame, with its nearest-vertex index.

    Faces carry no meaning for contact labeling and are not stored.  The
    constructor builds the index once; ``vertices`` is the read-only copy
    it was built over, so writing into the caller's array changes neither.
    Safe for concurrent read-only queries.
    """

    mesh_id: str
    vertices: np.ndarray
    _tree: cKDTree = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        verts = as_points(self.vertices, f"mesh {self.mesh_id!r} vertices")
        if len(verts) == 0:
            raise ValidationError(f"mesh {self.mesh_id!r}: needs at least one vertex")
        tree = build_vertex_index(verts)
        object.__setattr__(self, "_tree", tree)
        object.__setattr__(self, "vertices", tree.data)

    def query_distances(self, points) -> np.ndarray:
        """The exact distance from each of ``points`` to its nearest vertex."""
        pts = as_points(points, "query points")
        dists, _ = self._tree.query(pts, k=1)  # one float64 distance per row of pts
        return dists


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
        contact, distant = np.asarray(self.contact), np.asarray(self.distant)
        if contact.ndim != 1 or contact.shape != distant.shape:
            raise ShapeError(
                f"contact/distant must be equal-length vectors, got "
                f"{contact.shape} and {distant.shape}"
            )
        bits = np.array([contact, distant])
        # a bool is a bit; any other entry is checked before the uint8 cast,
        # which would turn 0.7 into 0 and 256 into 0
        if bits.dtype != bool and not ((bits == 0) | (bits == 1)).all():
            raise ValidationError("contact and distant entries must be 0 or 1")
        bits = bits.astype(np.uint8)
        if (bits[0] & bits[1]).any():
            raise ValidationError("a joint cannot be both contact and distant")
        object.__setattr__(self, "contact", bits[0])
        object.__setattr__(self, "distant", bits[1])

    @property
    def joint_count(self) -> int:
        return len(self.contact)

    def as_target_vector(self) -> np.ndarray:
        """Concatenated [contact | distant] float vector, the training target."""
        return np.concatenate([self.contact, self.distant]).astype(np.float64)


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
    # on the 16 floats, a few Python operations cost less than numpy calls
    (a, b, c, _), (d, e, f, _), (g, h, i, _), (b0, b1, b2, b3) = T.tolist()
    if max(abs(b0), abs(b1), abs(b2), abs(b3 - 1.0)) > _BOTTOM_ROW_TOL:
        raise ValidationError(f"bottom row must be (0, 0, 0, 1), got {T[3]}")
    # R^T R holds the dot products of R's columns (a, d, g), (b, e, h), (c, f, i)
    err = max(abs(a * a + d * d + g * g - 1.0), abs(b * b + e * e + h * h - 1.0),
              abs(c * c + f * f + i * i - 1.0), abs(a * b + d * e + g * h),
              abs(a * c + d * f + g * i), abs(b * c + e * f + h * i))
    if err > _ORTHONORMAL_TOL:
        raise ValidationError(f"rotation block not orthonormal (|R^T R - I| = {err:.2e})")
    # an orthonormal block has determinant +-1, so the cofactor expansion's sign is exact
    if a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g) <= 0:
        raise ValidationError("rotation block must have positive determinant")
    return T


def transform_points(transform, points) -> np.ndarray:
    """Apply a rigid transform to points: p' = R p + t, order preserved."""
    T = validate_rigid_transform(transform)
    pts = as_points(points)
    return pts @ T[:3, :3].T + T[:3, 3]


def label_contact_map(dists, thresholds: ContactThresholds) -> ContactMap:
    """Label every hand joint from its distance to the object's nearest vertex.

    ``dists`` holds one distance per joint, as ``ObjectMesh.query_distances``
    returns them for joints in the frame of the mesh's vertices.
    Comparisons are strict: a distance exactly equal to a threshold sets
    neither bit.
    """
    d = np.asarray(dists, dtype=np.float64)
    return ContactMap(contact=d < thresholds.eta_c, distant=d > thresholds.eta_d)


def box_corners(low, high) -> np.ndarray:
    """The 8 corners of an axis-aligned box in canonical corner order."""
    bounds = as_points([low, high], "box bounds")  # a (2, 3) array: low row, high row
    # corner i takes bounds[bit][axis], the bit of i that selects that axis
    return bounds[_CORNER_BITS, np.arange(3)]


def expand_bbox_21(corners) -> np.ndarray:
    """Expand 8 box corners into the 21-point pose representation.

    Output order: center, the 8 corners unchanged, then the 12 mid-edge
    points following ``BOX_EDGES``.  Corners must already be in canonical
    corner order.  Finiteness is checked where the points are kept, by
    ``ObjectAnnotation``.
    """
    c = np.asarray(corners, dtype=np.float64)
    if c.shape != (8, 3):
        raise ShapeError(f"expected 8 corners of shape (8, 3), got {c.shape}")
    out = np.empty((21, 3))
    out[1:9] = c
    with np.errstate(invalid="ignore"):  # inf + -inf is NaN, which the keeper refuses
        center = out[0]
        np.add.reduce(c, axis=0, out=center)  # the mean, as np.mean takes it
        center /= 8
        mids = out[9:]
        np.add(c[_EDGE_LOW], c[_EDGE_HIGH], out=mids)
        mids *= 0.5
    return out
