"""Contact labeling geometry: exact distances, strict thresholds, box expansion."""

import numpy as np
import pytest
from hypothesis import given, assume
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from casar.errors import ShapeError, ValidationError
from casar.geometry import (
    BOX_EDGES,
    ContactMap,
    ContactThresholds,
    ObjectMesh,
    box_corners,
    build_vertex_index,
    expand_bbox_21,
    label_contact_map,
    transform_points,
    validate_rigid_transform,
)
from casar.io import read_obj_vertices, write_obj_vertices


def brute_force_distances(vertices, queries):
    """Oracle: per-query min Euclidean distance by full pairwise scan."""
    v = np.asarray(vertices, dtype=np.float64)
    q = np.asarray(queries, dtype=np.float64)
    diffs = q[:, None, :] - v[None, :, :]
    return np.sqrt((diffs ** 2).sum(axis=2)).min(axis=1)


def rigid(rotation, translation):
    """The 4x4 transform p -> rotation @ p + translation."""
    T = np.eye(4)
    T[:3, :3] = rotation
    T[:3, 3] = translation
    return T


def rotation_from_angles(a, b, c):
    ca, sa = np.cos(a), np.sin(a)
    cb, sb = np.cos(b), np.sin(b)
    cc, sc = np.cos(c), np.sin(c)
    rx = np.array([[1, 0, 0], [0, ca, -sa], [0, sa, ca]])
    ry = np.array([[cb, 0, sb], [0, 1, 0], [-sb, 0, cb]])
    rz = np.array([[cc, -sc, 0], [sc, cc, 0], [0, 0, 1]])
    return rz @ ry @ rx


finite_coords = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
point_arrays = lambda n_min, n_max: hnp.arrays(
    np.float64, st.tuples(st.integers(n_min, n_max), st.just(3)), elements=finite_coords
)


# ---------------------------------------------------------------------------
# mesh index vs brute force


def test_index_matches_brute_force_oracle():
    rng = np.random.default_rng(42)
    for _ in range(200):
        verts = rng.uniform(-1.0, 1.0, size=(rng.integers(1, 400), 3))
        joints = rng.uniform(-1.2, 1.2, size=(42, 3))
        mesh = ObjectMesh(mesh_id="m", vertices=verts)
        got = mesh.query_distances(joints)
        want = brute_force_distances(verts, joints)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)


def test_contact_map_matches_brute_force_bits():
    rng = np.random.default_rng(7)
    thr = ContactThresholds(eta_c=0.02, eta_d=0.20)
    for _ in range(50):
        verts = rng.uniform(-0.2, 0.2, size=(rng.integers(1, 300), 3))
        joints = rng.uniform(-0.4, 0.4, size=(42, 3))
        mesh = ObjectMesh(mesh_id="m", vertices=verts)
        cmap = label_contact_map(mesh.query_distances(joints), thr)
        dists = brute_force_distances(verts, joints)
        np.testing.assert_array_equal(cmap.contact, (dists < thr.eta_c).astype(np.uint8))
        np.testing.assert_array_equal(cmap.distant, (dists > thr.eta_d).astype(np.uint8))


def test_single_point_query_helper():
    verts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    mesh = ObjectMesh(mesh_id="m", vertices=verts)
    assert mesh.query_distances([[0.25, 0.0, 0.0]])[0] == pytest.approx(0.25, abs=1e-15)
    with pytest.raises(ShapeError):  # one point is a (1, 3) array, not a bare (3,) one
        mesh.query_distances([0.25, 0.0, 0.0])


def test_index_never_mutates_or_aliases_caller_vertices():
    verts = np.array([[0.0, 0.0, 0.0], [5.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
    snapshot = verts.copy()
    mesh = ObjectMesh(mesh_id="m", vertices=verts)
    np.testing.assert_array_equal(verts, snapshot)
    verts[:] = 999.0  # the mesh and its index must hold their own copy
    np.testing.assert_array_equal(mesh.vertices, snapshot)
    assert mesh.query_distances([[0.0, 0.0, 0.0]])[0] == 0.0
    with pytest.raises(ValueError):  # the copy the index was built over is read-only
        mesh.vertices[0, 0] = 1.0


def test_empty_vertex_set_rejected():
    with pytest.raises(ValidationError):
        build_vertex_index(np.zeros((0, 3)))


# ---------------------------------------------------------------------------
# threshold semantics


def test_thresholds_are_strict_at_the_boundary():
    verts = np.array([[0.0, 0.0, 0.0]])
    mesh = ObjectMesh(mesh_id="m", vertices=verts)
    thr = ContactThresholds(eta_c=0.02, eta_d=0.20)
    joints = np.array([
        [0.02, 0.0, 0.0],   # exactly eta_c: not contact
        [0.20, 0.0, 0.0],   # exactly eta_d: not distant
        [0.019, 0.0, 0.0],  # contact
        [0.201, 0.0, 0.0],  # distant
        [0.1, 0.0, 0.0],    # neither
    ])
    cmap = label_contact_map(mesh.query_distances(joints), thr)
    np.testing.assert_array_equal(cmap.contact, [0, 0, 1, 0, 0])
    np.testing.assert_array_equal(cmap.distant, [0, 0, 0, 1, 0])


def test_threshold_validation():
    with pytest.raises(ValidationError):
        ContactThresholds(eta_c=0.3, eta_d=0.2)
    with pytest.raises(ValidationError):
        ContactThresholds(eta_c=0.0, eta_d=0.2)
    with pytest.raises(ValidationError):
        ContactThresholds(eta_c=np.nan, eta_d=0.2)


@given(point_arrays(1, 60), point_arrays(1, 30))
def test_contact_and_distant_are_mutually_exclusive(verts, joints):
    mesh = ObjectMesh(mesh_id="m", vertices=verts)
    cmap = label_contact_map(mesh.query_distances(joints), ContactThresholds(0.02, 0.20))
    assert not np.any(cmap.contact & cmap.distant)


@given(
    point_arrays(1, 40),
    point_arrays(1, 20),
    st.floats(0.005, 0.05),
    st.floats(0.06, 0.5),
    st.floats(0.001, 0.004),
)
def test_threshold_monotonicity(verts, joints, eta_c, eta_d, shrink):
    """Tightening eta_c can only clear contact bits; widening eta_d only clears distant bits."""
    mesh = ObjectMesh(mesh_id="m", vertices=verts)
    base = label_contact_map(mesh.query_distances(joints), ContactThresholds(eta_c, eta_d))
    tighter = label_contact_map(mesh.query_distances(joints),
                                ContactThresholds(eta_c - shrink, eta_d + shrink))
    assert np.all(tighter.contact <= base.contact)
    assert np.all(tighter.distant <= base.distant)


@given(
    point_arrays(1, 30),
    point_arrays(1, 15),
    st.tuples(st.floats(-3.1, 3.1), st.floats(-3.1, 3.1), st.floats(-3.1, 3.1)),
    st.tuples(st.floats(-5, 5), st.floats(-5, 5), st.floats(-5, 5)),
)
def test_labels_invariant_under_rigid_motion(verts, joints, angles, translation):
    thr = ContactThresholds(0.02, 0.20)
    mesh = ObjectMesh(mesh_id="m", vertices=verts)
    dists = mesh.query_distances(joints)
    # keep clear of the strict-comparison boundary so fp noise cannot flip a bit
    assume(np.abs(dists - thr.eta_c).min() > 1e-9)
    assume(np.abs(dists - thr.eta_d).min() > 1e-9)
    T = rigid(rotation_from_angles(*angles), np.asarray(translation))
    before = label_contact_map(mesh.query_distances(joints), thr)
    after = label_contact_map(
        ObjectMesh(mesh_id="m", vertices=transform_points(T, verts)).query_distances(
            transform_points(T, joints)),
        thr,
    )
    np.testing.assert_array_equal(before.contact, after.contact)
    np.testing.assert_array_equal(before.distant, after.distant)


# ---------------------------------------------------------------------------
# contact map container


def test_contact_map_rejects_overlap_and_nonbinary():
    with pytest.raises(ValidationError):
        ContactMap(contact=np.array([1, 0]), distant=np.array([1, 0]))
    # checked before the uint8 cast, which would make 0.7 and 256 into 0 and 1.9 into 1
    for bad in (2, 0.7, 1.9, -1, 256):
        with pytest.raises(ValidationError):
            ContactMap(contact=np.array([bad, 0]), distant=np.array([0.0, 0.0]))
    with pytest.raises(ShapeError):
        ContactMap(contact=np.array([1, 0]), distant=np.array([0, 0, 0]))


def test_target_vector_layout():
    cmap = ContactMap(contact=np.array([1, 0, 0]), distant=np.array([0, 0, 1]))
    np.testing.assert_array_equal(cmap.as_target_vector(), [1.0, 0.0, 0.0, 0.0, 0.0, 1.0])
    assert cmap.as_target_vector().dtype == np.float64
    assert cmap.joint_count == 3


# ---------------------------------------------------------------------------
# rigid transforms


def test_rigid_transform_validation():
    T = np.eye(4)
    T[3, 0] = 0.5
    with pytest.raises(ValidationError):
        validate_rigid_transform(T)
    S = np.eye(4)
    S[0, 0] = 2.0  # scaling is not rigid
    with pytest.raises(ValidationError):
        validate_rigid_transform(S)
    M = np.eye(4)
    M[0, 0] = -1.0  # reflection
    with pytest.raises(ValidationError):
        validate_rigid_transform(M)
    with pytest.raises(ShapeError):
        validate_rigid_transform(np.eye(3))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("at", [(0, 0), (1, 3), (3, 0), (3, 3)])
def test_rigid_transform_refuses_non_finite_entries(bad, at):
    T = np.eye(4)
    T[at] = bad
    with pytest.raises(ValidationError, match="non-finite entries"):
        validate_rigid_transform(T)


@pytest.mark.parametrize("col", range(4))
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_rigid_transform_bottom_row_tolerance(col, sign):
    T = np.eye(4)
    T[3, col] += sign * 5e-10  # within 1e-9 of (0, 0, 0, 1): accepted as given
    np.testing.assert_array_equal(validate_rigid_transform(T), T)
    T[3, col] = np.eye(4)[3, col] + sign * 2e-9
    with pytest.raises(ValidationError, match=r"bottom row must be \(0, 0, 0, 1\)"):
        validate_rigid_transform(T)


@pytest.mark.parametrize("where", ["diagonal", "shear"])
def test_rigid_transform_orthonormal_tolerance(where):
    """max |R^T R - I| just under 1e-6 is accepted, just over it refused."""
    def block(err):
        T = rigid(rotation_from_angles(0.3, -0.7, 1.2), [0.1, 0.2, 0.3])
        if where == "diagonal":  # |R^T R - I| = s^2 - 1 on the scaled column
            T[:3, 0] *= np.sqrt(1.0 + err)
        else:  # R = I + e E_01: R^T R - I has e off the diagonal and e^2 on it
            T[:3, :3] = np.eye(3)
            T[0, 1] = err
        return T

    T = block(0.9e-6)
    np.testing.assert_array_equal(validate_rigid_transform(T), T)
    with pytest.raises(ValidationError, match="not orthonormal"):
        validate_rigid_transform(block(1.1e-6))


@pytest.mark.parametrize("flip", [np.diag([1.0, 1.0, -1.0]), -np.eye(3),
                                  np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])])
def test_rigid_transform_refuses_reflections(flip):
    T = rigid(rotation_from_angles(0.4, 1.1, -2.0) @ flip, [0.5, -0.5, 1.0])
    with pytest.raises(ValidationError, match="positive determinant"):
        validate_rigid_transform(T)
    np.testing.assert_array_equal(validate_rigid_transform(rigid(flip @ flip, [0, 0, 0])),
                                  np.eye(4))


def test_transform_points_applies_rotation_then_translation():
    R = rotation_from_angles(0.0, 0.0, np.pi / 2.0)
    T = rigid(R, [1.0, 2.0, 3.0])
    out = transform_points(T, np.array([[1.0, 0.0, 0.0]]))
    np.testing.assert_allclose(out, [[1.0, 3.0, 3.0]], atol=1e-12)


def test_transform_points_preserves_order_and_distances():
    rng = np.random.default_rng(1)
    pts = rng.normal(size=(17, 3))
    T = rigid(rotation_from_angles(0.3, -1.1, 2.0), [0.4, -0.2, 0.9])
    out = transform_points(T, pts)
    d_before = np.linalg.norm(pts[1:] - pts[:-1], axis=1)
    d_after = np.linalg.norm(out[1:] - out[:-1], axis=1)
    np.testing.assert_allclose(d_before, d_after, atol=1e-12)


# ---------------------------------------------------------------------------
# box corners and the 21-point expansion


def test_box_corners_follow_bit_order():
    corners = box_corners([0.0, 0.0, 0.0], [1.0, 2.0, 3.0])
    for i in range(8):
        expect = [1.0 if i & 1 else 0.0, 2.0 if i & 2 else 0.0, 3.0 if i & 4 else 0.0]
        np.testing.assert_array_equal(corners[i], expect)


def test_box_edges_differ_in_exactly_one_bit():
    assert len(BOX_EDGES) == 12
    for a, b in BOX_EDGES:
        assert a < b
        assert bin(a ^ b).count("1") == 1


def test_expand_bbox_21_frozen_unit_box():
    corners = box_corners([0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
    pts = expand_bbox_21(corners)
    assert pts.shape == (21, 3)
    np.testing.assert_array_equal(pts[0], [0.5, 0.5, 0.5])  # center
    np.testing.assert_array_equal(pts[1:9], corners)  # corners unchanged
    # first edge (0, 1) spans x at y=z=0
    np.testing.assert_array_equal(pts[9], [0.5, 0.0, 0.0])
    # last edge (6, 7) spans x at y=z=1
    np.testing.assert_array_equal(pts[20], [0.5, 1.0, 1.0])


@given(
    st.tuples(st.floats(-2, 2), st.floats(-2, 2), st.floats(-2, 2)),
    st.tuples(st.floats(0.01, 2), st.floats(0.01, 2), st.floats(0.01, 2)),
    st.tuples(st.floats(-3.1, 3.1), st.floats(-3.1, 3.1), st.floats(-3.1, 3.1)),
    st.tuples(st.floats(-5, 5), st.floats(-5, 5), st.floats(-5, 5)),
)
def test_expand_bbox_21_equivariant_under_rigid_motion(low, extent, angles, translation):
    lo = np.asarray(low)
    corners = box_corners(lo, lo + np.asarray(extent))
    T = rigid(rotation_from_angles(*angles), np.asarray(translation))
    a = transform_points(T, expand_bbox_21(corners))
    b = expand_bbox_21(transform_points(T, corners))
    np.testing.assert_allclose(a, b, atol=1e-9)


def test_expand_bbox_21_needs_eight_corners():
    with pytest.raises(ShapeError):
        expand_bbox_21(np.zeros((7, 3)))
    with pytest.raises(ShapeError):
        expand_bbox_21(np.zeros((3, 7, 3)))


def test_expand_bbox_21_gives_each_set_of_a_stack_its_own_bits(rng):
    corners = rng.normal(size=(40, 8, 3)) * 10.0 ** rng.uniform(-3, 3, size=(40, 8, 1))
    stack = expand_bbox_21(corners)
    assert stack.shape == (40, 21, 3)
    for t in range(40):
        assert stack[t].tobytes() == expand_bbox_21(corners[t]).tobytes()


# ---------------------------------------------------------------------------
# mesh container and OBJ I/O


def test_object_mesh_validation():
    with pytest.raises(ValidationError, match="^mesh 'empty': cannot index an empty vertex"):
        ObjectMesh(mesh_id="empty", vertices=np.zeros((0, 3)))
    with pytest.raises(ValidationError, match="^mesh 'nan': vertices: contains non-finite"):
        ObjectMesh(mesh_id="nan", vertices=np.array([[np.nan, 0.0, 0.0]]))
    with pytest.raises(ShapeError, match="^mesh 'flat': vertices: expected \\(N, 3\\)"):
        ObjectMesh(mesh_id="flat", vertices=np.zeros((4, 2)))


def test_obj_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(3)
    verts = rng.normal(size=(50, 3))
    path = tmp_path / "mesh.obj"
    write_obj_vertices(path, verts)
    back = read_obj_vertices(path)
    np.testing.assert_array_equal(back, verts)  # repr round-trips doubles exactly


def test_obj_reader_skips_foreign_lines_and_flags_bad_ones(tmp_path):
    path = tmp_path / "mixed.obj"
    path.write_text("# comment\nv 1 2 3\nf 1 2 3\nv 4 5 6\n")
    np.testing.assert_array_equal(read_obj_vertices(path), [[1, 2, 3], [4, 5, 6]])
    bad = tmp_path / "bad.obj"
    bad.write_text("v 1 2\n")
    from casar.errors import ParseError
    with pytest.raises(ParseError):
        read_obj_vertices(bad)
    empty = tmp_path / "empty.obj"
    empty.write_text("# nothing\n")
    with pytest.raises(ParseError):
        read_obj_vertices(empty)
