"""Synthetic scene generator: determinism, label self-consistency, class structure."""

import sys

import numpy as np
import pytest

from casar import geometry
from casar.datamodel import DatasetConfig
from casar.errors import ValidationError
from casar.geometry import ContactThresholds, ObjectMesh, label_contact_map, transform_points
from casar.io import write_clips, write_contact_targets, write_meshes
from casar.pipeline import derive_contact_dataset
from casar.synth import CLASS_CATALOG, SynthSpec, hand_template, make_meshes, synth_generate


def test_catalog_has_twelve_distinct_classes():
    assert len(CLASS_CATALOG) == 12
    assert len(set(CLASS_CATALOG)) == 12
    for spec in CLASS_CATALOG:
        assert spec.phase in ("hold", "approach", "retreat")
        assert spec.other_band in ("far", "mid")
        assert spec.acting in ("left", "right")


def test_spec_validation():
    with pytest.raises(ValidationError):
        SynthSpec(class_count=1, clips_per_class=5)
    with pytest.raises(ValidationError):
        SynthSpec(class_count=13, clips_per_class=5)
    with pytest.raises(ValidationError):
        SynthSpec(class_count=4, clips_per_class=0)
    with pytest.raises(ValidationError):
        SynthSpec(class_count=4, clips_per_class=1, frames_range=(9, 4))
    with pytest.raises(ValidationError):
        SynthSpec(class_count=4, clips_per_class=1, noise_sigma=-0.1)


def test_meshes_are_bbox_centered_and_within_class_count():
    meshes = make_meshes()
    assert len(meshes) == 8
    for mid, mesh in meshes.items():
        lo = mesh.vertices.min(axis=0)
        hi = mesh.vertices.max(axis=0)
        np.testing.assert_allclose((lo + hi) / 2.0, 0.0, atol=1e-12)


def test_generation_shape_and_balance(tiny_synth):
    clips, meshes, samples = tiny_synth
    assert len(clips) == 12
    counts = np.bincount([c.action_label for c in clips], minlength=4)
    np.testing.assert_array_equal(counts, [3, 3, 3, 3])
    for clip in clips:
        assert 8 <= len(clip) <= 14
        assert clip.mesh_id in meshes
        assert 0 <= clip.object_label < 8
    assert len(samples) == sum(len(c) for c in clips)


def test_clip_ids_are_stable_and_prefixable():
    spec = SynthSpec(class_count=2, clips_per_class=2, frames_range=(5, 6), seed=1)
    clips, _, _ = synth_generate(spec)
    assert [c.clip_id for c in clips] == [
        "clip_00_0000", "clip_00_0001", "clip_01_0000", "clip_01_0001"]
    renamed, _, _ = synth_generate(spec, clip_prefix="test")
    assert renamed[0].clip_id == "test_00_0000"


def test_determinism_is_byte_exact(tmp_path):
    spec = SynthSpec(class_count=3, clips_per_class=2, frames_range=(6, 10), seed=9)
    for run in ("a", "b"):
        clips, meshes, samples = synth_generate(spec)
        d = tmp_path / run
        d.mkdir()
        write_clips(clips, d / "clips.jsonl")
        write_meshes(meshes, d / "meshes")
        write_contact_targets(samples, d / "contacts.jsonl")
    assert (tmp_path / "a/clips.jsonl").read_bytes() == (tmp_path / "b/clips.jsonl").read_bytes()
    assert (tmp_path / "a/contacts.jsonl").read_bytes() == (tmp_path / "b/contacts.jsonl").read_bytes()
    for obj in sorted((tmp_path / "a/meshes").iterdir()):
        assert obj.read_bytes() == (tmp_path / "b/meshes" / obj.name).read_bytes()


def test_seeds_actually_change_the_data():
    spec_a = SynthSpec(class_count=2, clips_per_class=1, frames_range=(5, 5), seed=1)
    spec_b = SynthSpec(class_count=2, clips_per_class=1, frames_range=(5, 5), seed=2)
    a, _, _ = synth_generate(spec_a)
    b, _, _ = synth_generate(spec_b)
    assert not np.array_equal(a[0].frames[0].hand.right, b[0].frames[0].hand.right)


def test_emitted_labels_are_self_consistent(tiny_synth):
    """Recomputing labels from the emitted world geometry reproduces every bit."""
    clips, meshes, samples = tiny_synth
    thr = ContactThresholds(0.02, 0.20)
    clip_by_id = {c.clip_id: c for c in clips}
    for s in samples[::3]:
        clip = clip_by_id[s.clip_id]
        frame = clip.frames[s.frame_index]
        world = transform_points(frame.object.world_from_canonical,
                                 meshes[clip.mesh_id].vertices)
        posed = ObjectMesh(mesh_id="posed", vertices=world)
        again = label_contact_map(frame.hand.joints(), posed, thr)
        np.testing.assert_array_equal(again.contact, s.target.contact)
        np.testing.assert_array_equal(again.distant, s.target.distant)


def test_custom_thresholds_flow_into_the_labels():
    spec = SynthSpec(class_count=2, clips_per_class=1, frames_range=(5, 6), seed=4)
    loose = ContactThresholds(eta_c=0.05, eta_d=0.10)
    clips, meshes, samples = synth_generate(spec, thresholds=loose)
    clip_by_id = {c.clip_id: c for c in clips}
    for s in samples[::2]:
        frame = clip_by_id[s.clip_id].frames[s.frame_index]
        world = transform_points(frame.object.world_from_canonical,
                                 meshes[clip_by_id[s.clip_id].mesh_id].vertices)
        posed = ObjectMesh(mesh_id="posed", vertices=world)
        again = label_contact_map(frame.hand.joints(), posed, loose)
        np.testing.assert_array_equal(again.contact, s.target.contact)
        np.testing.assert_array_equal(again.distant, s.target.distant)


def test_phase_signatures_show_in_the_contact_bits():
    """hold keeps fingertip contact all clip; approach starts clear, ends touching;
    retreat is the mirror image."""
    spec = SynthSpec(class_count=6, clips_per_class=3, frames_range=(16, 20), seed=5)
    clips, _, samples = synth_generate(spec)
    by_frame = {(s.clip_id, s.frame_index): s for s in samples}
    for clip in clips:
        phase = CLASS_CATALOG[clip.action_label].phase
        first = by_frame[(clip.clip_id, 0)].target.contact.sum()
        last = by_frame[(clip.clip_id, len(clip) - 1)].target.contact.sum()
        if phase == "hold":
            assert first >= 1 and last >= 1
        elif phase == "approach":
            assert first == 0 and last >= 1
        else:
            assert first >= 1 and last == 0


def test_noise_free_generation_also_labels_consistently():
    spec = SynthSpec(class_count=2, clips_per_class=2, frames_range=(6, 8),
                     noise_sigma=0.0, seed=6)
    clips, meshes, samples = synth_generate(spec)
    thr = ContactThresholds(0.02, 0.20)
    clip_by_id = {c.clip_id: c for c in clips}
    for s in samples:
        frame = clip_by_id[s.clip_id].frames[s.frame_index]
        world = transform_points(frame.object.world_from_canonical,
                                 meshes[clip_by_id[s.clip_id].mesh_id].vertices)
        posed = ObjectMesh(mesh_id="posed", vertices=world)
        again = label_contact_map(frame.hand.joints(), posed, thr)
        np.testing.assert_array_equal(again.contact, s.target.contact)


def test_each_mesh_builds_its_index_once(monkeypatch):
    """synth builds one index per mesh, and deriving labels on built meshes builds none."""
    real, built = geometry.build_vertex_index, []

    def counted(vertices):
        built.append(len(vertices))
        return real(vertices)

    # replace the function wherever casar binds it, as a tracer from outside would
    for name, module in list(sys.modules.items()):
        if name.startswith("casar") and getattr(module, "build_vertex_index", None) is real:
            monkeypatch.setattr(module, "build_vertex_index", counted)
    spec = SynthSpec(class_count=2, clips_per_class=2, frames_range=(4, 6), seed=8)
    clips, meshes, samples = synth_generate(spec)
    assert len(built) == len(meshes)
    built.clear()
    again = derive_contact_dataset(clips, meshes, ContactThresholds())
    assert built == []
    assert [(a.target.contact.tolist(), a.target.distant.tolist()) for a in again] == \
        [(s.target.contact.tolist(), s.target.distant.tolist()) for s in samples]


def test_hand_template_mirrors_left():
    right = hand_template(("index",), "right")
    left = hand_template(("index",), "left")
    assert right.shape == (21, 3)
    np.testing.assert_array_equal(left, right * np.array([-1.0, 1.0, 1.0]))


def test_pose_points_match_the_posed_canonical_box(tiny_synth):
    """The emitted 21 pose points are the transformed canonical bbox corners,
    re-expanded; their pairwise distances must match the canonical ones."""
    clips, meshes, _ = tiny_synth
    clip = clips[0]
    verts = meshes[clip.mesh_id].vertices
    lo, hi = verts.min(axis=0), verts.max(axis=0)
    from casar.geometry import box_corners, expand_bbox_21
    canon = expand_bbox_21(box_corners(lo, hi))
    for frame in clip.frames[:3]:
        posed = expand_bbox_21(
            transform_points(frame.object.world_from_canonical, box_corners(lo, hi))
        )
        np.testing.assert_allclose(frame.object.pose_points, posed, atol=1e-9)
        d_canon = np.linalg.norm(canon[1:] - canon[0], axis=1)
        d_posed = np.linalg.norm(frame.object.pose_points[1:] - frame.object.pose_points[0], axis=1)
        np.testing.assert_allclose(d_canon, d_posed, atol=1e-9)
