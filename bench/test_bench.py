"""Tests of the benchmark's own checks: each rejects a corrupted output.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
from casar import datamodel, geometry, neuralcore, pipeline, synth  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import Label, in_child  # noqa: E402

DC = datamodel.DatasetConfig()
TH = DC.thresholds


@pytest.fixture(scope="module")
def scene():
    clips, meshes, samples = synth.synth_generate(
        synth.SynthSpec(2, 1, frames_range=(5, 7), seed=3))
    return clips, meshes, samples


def _flip(sample, joint):
    """The sample with one joint's bits changed, keeping the map valid."""
    t = sample.target
    contact, distant = t.contact.copy(), t.distant.copy()
    if contact[joint]:
        contact[joint] = 0
    else:
        distant[joint] = 1 - distant[joint]
    return dataclasses.replace(sample, target=geometry.ContactMap(contact, distant))


def test_brute_force_accepts_derived_labels_and_rejects_a_flipped_bit(scene):
    clips, meshes, _ = scene
    derived = pipeline.derive_contact_dataset(clips, meshes, TH)
    vertices = {k: m.vertices for k, m in meshes.items()}
    assert checks.check_labels(clips, vertices, derived, TH.eta_c, TH.eta_d) == []
    bad = list(derived)
    bad[3] = _flip(bad[3], 5)
    assert checks.check_labels(clips, vertices, bad, TH.eta_c, TH.eta_d)
    assert checks.check_labels(clips, vertices, derived[:-1], TH.eta_c, TH.eta_d)


def test_brute_force_ignores_only_distances_at_a_threshold():
    verts = np.zeros((1, 3))
    pose = np.eye(4)[None]
    joints = np.array([[[TH.eta_c, 0.0, 0.0], [TH.eta_c * 0.5, 0.0, 0.0]]])
    contact, distant, ambiguous = checks.brute_force_labels(
        joints, verts, pose, TH.eta_c, TH.eta_d)
    assert ambiguous.tolist() == [[True, False]]
    assert contact.tolist() == [[False, True]] and not distant.any()


def test_same_labels_rejects_a_changed_bit_and_a_lost_sample(scene):
    _, _, samples = scene
    assert checks.check_same_labels(samples, samples, "x") == []
    changed = list(samples)
    changed[0] = _flip(changed[0], 0)
    assert checks.check_same_labels(changed, samples, "x")
    assert checks.check_same_labels(samples[1:], samples, "x")


def _small_modules(seed=0):
    f = neuralcore.init_model([DC.frame_dim, 16, 16, DC.contact_dim], seed=seed)
    g = neuralcore.init_model([DC.augmented_clip_dim, 32, 32, DC.action_class_count],
                              seed=seed + 1)
    return (pipeline.TrainedContactModule(model=f, config=pipeline.ContactModuleConfig()),
            pipeline.TrainedActionModule(model=g, config=pipeline.ActionModuleConfig()))


def test_reference_forward_matches_predict_action_and_rejects_a_perturbed_score(scene):
    clips, _, _ = scene
    f, g = _small_modules()
    got = np.stack([pipeline.predict_action(f, g, c, DC)[1] for c in clips])
    want, _ = checks.reference_scores(checks.model_layers(f.model), checks.model_layers(g.model),
                                      clips, DC.frames_per_clip, DC.object_class_count,
                                      binarize=False)
    assert checks.check_scores(got, want, 1e-4) == []
    assert checks.check_scores(got + 1e-6, want, 1e-4) == []  # float32-sized error passes
    off = got.copy()
    off[1, 4] += 1e-3
    assert checks.check_scores(off, want, 1e-4)
    # a wrong resampling rule shows: score each clip on its frames reversed
    reversed_clips = [dataclasses.replace(c, frames=c.frames[::-1]) for c in clips]
    wrong, _ = checks.reference_scores(checks.model_layers(f.model), checks.model_layers(g.model),
                                       reversed_clips, DC.frames_per_clip,
                                       DC.object_class_count, binarize=False)
    assert checks.check_scores(got, wrong, 1e-4)


def test_argmax_must_agree_when_the_top_two_are_apart():
    want = np.array([[0.1, 0.9, 0.2]])
    swapped = np.array([[0.1, 0.9 - 5e-5, 0.9 + 5e-5]])
    assert checks.check_scores(swapped, want, 1e-4)  # within tol but the argmax moved
    near_tie = np.array([[0.5, 0.5 + 5e-5, 0.1]])
    flipped = np.array([[0.5 + 5e-5, 0.5, 0.1]])
    assert checks.check_scores(flipped, near_tie, 1e-4) == []  # top two closer than tol


def test_checkpoint_reader_follows_the_documented_layout(tmp_path):
    f, _ = _small_modules()
    path = tmp_path / "f.ckpt"
    pipeline.save_checkpoint(f.model, path)
    layers = checks.read_checkpoint(path)
    for (w, b, code), W, B in zip(layers, f.model.weights, f.model.biases):
        assert np.array_equal(w, W.astype(np.float32))
        assert np.array_equal(b, B.astype(np.float32))
    assert [c for *_, c in layers] == [checks.RELU, checks.RELU, checks.SIGMOID]
    path.write_bytes(path.read_bytes() + b"\0")
    with pytest.raises(ValueError):
        checks.read_checkpoint(path)


def test_training_check_rejects_each_broken_property():
    ok = dict(element_acc=0.97, top1=0.95, f_history=[1.0, 0.5], g_history=[2.0, 0.1],
              f_digest_before="a", f_digest_after="a")
    assert checks.check_training(**ok) == []
    for change in (dict(element_acc=0.94), dict(top1=0.89), dict(f_digest_after="b"),
                   dict(f_history=[0.5, 0.5]), dict(g_history=[0.1, 0.2]),
                   dict(element_acc=float("nan"))):
        assert checks.check_training(**{**ok, **change}), change


class _TinyLabel(Label):
    SYNTH_PER_CLASS = 1
    STATIC_PER_CLASS = 1
    FRAMES = 4


def test_label_round_passes_and_a_non_canonical_file_is_caught(tmp_path):
    wl = _TinyLabel(seed=2, work=tmp_path)
    wl.setup()
    wl.run_round()
    assert wl.check(first=True) == []
    wl.run_round()
    assert wl.check(first=False) == []
    # the file on disk is not what the writer makes of its loaded content
    clips_file = tmp_path / "clips.jsonl"
    clips_file.write_text(clips_file.read_text().replace(",", ", ", 1))
    wl.first = None
    assert wl.check(first=True)


def test_label_static_clips_hold_the_pose(tmp_path):
    wl = _TinyLabel(seed=2, work=tmp_path)
    wl.setup()
    for clip in wl.static_clips:
        poses = {f.object.world_from_canonical.tobytes() for f in clip.frames}
        assert len(poses) == 1


def test_in_child_returns_the_result_and_reports_a_failed_child():
    assert in_child(lambda: int(np.arange(4).sum())) == 6
    with pytest.raises(RuntimeError):
        in_child(lambda: 1 / 0)


def test_tracer_nests_spans_counts_per_round_and_restores_functions(scene):
    clips, meshes, _ = scene
    original = pipeline.derive_contact_dataset
    tracer = Tracer(f_input_dim=DC.frame_dim)
    tracer.install()
    try:
        assert pipeline.derive_contact_dataset is not original
        for r in range(2):
            tracer.round = r
            tracer.enabled = True
            pipeline.derive_contact_dataset(clips, meshes, TH)
            tracer.enabled = False
        pipeline.derive_contact_dataset(clips, meshes, TH)  # disabled: not recorded
    finally:
        tracer.uninstall()
    assert pipeline.derive_contact_dataset is original
    assert geometry.validate_rigid_transform.__name__ == "validate_rigid_transform"
    dur, self_time, calls = tracer.spans()
    frames = sum(len(c.frames) for c in clips)
    assert calls["geometry.label_contact_map"] == {0: frames, 1: frames}
    assert calls["pipeline.derive_contact_dataset"] == {0: 1, 1: 1}
    assert all(0 <= s <= d for s, d in zip(self_time["pipeline.derive_contact_dataset"],
                                           dur["pipeline.derive_contact_dataset"]))


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "label", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_run_prints_the_result_line_last():
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "label", "--seed", "4",
                           "--seconds", "0", "--trace", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
