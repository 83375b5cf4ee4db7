"""Acceptance gate.

Each test exercises one numbered release criterion end to end and prints a
single ``[ACCEPTANCE] Cn PASS/FAIL`` line on the real stdout so the result
is visible even under pytest's capture.  C4 trains the full synthetic
pipeline and takes a few minutes; everything else is fast.
"""

import math
import os
import time
from dataclasses import replace

import numpy as np
import pytest

from casar import neuralcore as nn
from casar.datamodel import DatasetConfig, encode_frame
from casar.evaluation import (
    action_accuracy,
    confusion_matrix,
    evaluate_pipeline,
    run_ablation,
    write_report,
)
from casar.geometry import ContactThresholds, ObjectMesh, label_contact_map
from casar.pipeline import (
    ActionModuleConfig,
    ContactModuleConfig,
    TrainedActionModule,
    TrainedContactModule,
    clip_features,
    load_checkpoint,
    lr_at,
    predict_action,
    predict_contact,
    save_checkpoint,
    train_action_module,
    train_contact_module,
)
from casar.synth import SynthSpec, synth_generate


def _report(capture, criterion: str, ok: bool, detail: str = "") -> None:
    """Print one [ACCEPTANCE] line on the real stdout, past pytest's capture."""
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    with capture.disabled():
        print(f"[ACCEPTANCE] {criterion} {status}{suffix}", flush=True)


# ---------------------------------------------------------------------------
# C1: indexed nearest-vertex distances == brute force, contact maps bit-equal


def test_c1_geometry_oracle_equivalence(capfd):
    t0 = time.time()
    rng = np.random.default_rng(2024)
    thresholds = ContactThresholds(eta_c=0.02, eta_d=0.20)
    worst = 0.0
    bits_equal = True
    for _ in range(1000):
        n_verts = int(rng.integers(100, 5001))
        verts = rng.normal(size=(n_verts, 3)) * rng.uniform(0.05, 1.0)
        joints = rng.normal(size=(42, 3)) * rng.uniform(0.05, 1.0)
        mesh = ObjectMesh(mesh_id="m", vertices=verts)
        fast = mesh.query_distances(joints)
        brute = np.sqrt(
            ((joints[:, None, :] - verts[None, :, :]) ** 2).sum(axis=2)
        ).min(axis=1)
        worst = max(worst, float(np.abs(fast - brute).max()))
        cmap = label_contact_map(joints, mesh, thresholds)
        bits_equal = bits_equal and np.array_equal(
            cmap.contact, (brute < thresholds.eta_c).astype(np.uint8)
        ) and np.array_equal(
            cmap.distant, (brute > thresholds.eta_d).astype(np.uint8)
        )
    elapsed = time.time() - t0
    ok = worst <= 1e-12 and bits_equal and elapsed < 30.0
    _report(capfd, "C1", ok, f"max dist err {worst:.2e}, bits equal {bits_equal}, {elapsed:.1f}s")
    assert ok


# ---------------------------------------------------------------------------
# C2: analytic gradients vs central finite differences, 20 draws per model


def _numeric_gradients(model, X, loss_of_output, eps=1e-5):
    grads = np.zeros_like(model.params)

    def loss_now():
        out, _ = nn.forward(model, X)
        return loss_of_output(out)

    flat = model.params  # every weight and bias is a view of it
    for i in range(flat.size):
        saved = flat[i]
        flat[i] = saved + eps
        hi = loss_now()
        flat[i] = saved - eps
        lo = loss_now()
        flat[i] = saved
        grads[i] = (hi - lo) / (2.0 * eps)
    return grads


def _max_rel_err(model, X, loss_fn) -> float:
    out, acts = nn.forward(model, X)
    _, grad_out = loss_fn(out)
    analytic = nn.backward(model, acts, grad_out, np.empty_like(model.params))
    numeric = _numeric_gradients(model, X, lambda o: loss_fn(o)[0])
    denom = np.maximum(1e-6, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float((np.abs(analytic - numeric) / denom).max())


def test_c2_gradient_checks(capfd):
    t0 = time.time()
    rng = np.random.default_rng(7)
    worst = 0.0
    for draw in range(20):
        model = nn.init_model([5, 4, 3], seed=1000 + draw)
        X = rng.normal(size=(6, 5))
        Y = rng.integers(0, 2, size=(6, 3)).astype(np.float64)
        worst = max(worst, _max_rel_err(model, X, lambda o: nn.focal_loss(o, Y, 0.5, 4.0)))
    for draw in range(20):
        model = nn.init_model([6, 4, 3], seed=2000 + draw)
        X = rng.normal(size=(6, 6))
        labels = rng.integers(0, 3, size=6)
        worst = max(worst, _max_rel_err(model, X, lambda o: nn.action_loss(o, labels)))
    elapsed = time.time() - t0
    ok = worst <= 1e-4 and elapsed < 10.0
    _report(capfd, "C2", ok, f"max rel err {worst:.2e}, {elapsed:.1f}s")
    assert ok


# ---------------------------------------------------------------------------
# C3: frozen scalar values


def test_c3_scalar_values(capfd):
    loss, _ = nn.focal_loss(np.array([[0.5]]), np.array([[1.0]]), alpha=0.5, gamma=4.0)
    focal_ok = abs(loss - 0.5 * 0.0625 * math.log(2.0)) <= 1e-9
    f_config = ContactModuleConfig(
        base_lr=1e-4, lr_period_epochs=20, epochs=100, lr_decay_factor=0.7
    )
    lr_ok = (
        lr_at(f_config, 0) == 1e-4
        and lr_at(f_config, 19) == 1e-4
        and lr_at(f_config, 20) == 7e-5
        and lr_at(f_config, 40) == 1e-4 * 0.7 ** 2
    )
    ok = focal_ok and lr_ok
    _report(capfd, "C3", ok, f"focal {loss:.9f}, lr(20) {lr_at(f_config, 20):.1e}")
    assert ok


# ---------------------------------------------------------------------------
# C4: synthetic end-to-end at reduced widths


@pytest.mark.slow
def test_c4_synthetic_end_to_end(capfd):
    t0 = time.time()
    dc = DatasetConfig()
    train_clips, _, train_samples = synth_generate(
        SynthSpec(class_count=6, clips_per_class=100, seed=7)
    )
    test_clips, _, test_samples = synth_generate(
        SynthSpec(class_count=6, clips_per_class=35, seed=8), clip_prefix="test"
    )

    f_cfg = ContactModuleConfig(
        hidden_width=64, epochs=40, base_lr=1e-4, lr_period_epochs=20,
        batch_size=64, seed=7,
    )
    contact, _ = train_contact_module(train_samples, f_cfg, dc)

    clip_by_id = {c.clip_id: c for c in test_clips}
    X = np.stack([
        encode_frame(clip_by_id[s.clip_id].frames[s.frame_index], dc)
        for s in test_samples
    ])
    T = np.stack([s.target.as_target_vector() for s in test_samples])
    P, _ = nn.forward(contact.model, X)
    element_acc = float(((P >= 0.5) == (T >= 0.5)).mean())

    g_cfg = ActionModuleConfig(
        hidden_width=256, epochs=100, base_lr=2e-4, lr_period_epochs=50,
        batch_size=48, seed=7, action_head="softmax_ce",
        augment_contact=True, binarize_contact=True,
    )
    action, _ = train_action_module(train_clips, contact, g_cfg, dc)
    preds = [predict_action(contact, action, c, dc)[0] for c in test_clips]
    top1 = action_accuracy(preds, [c.action_label for c in test_clips])

    ablation_cfg = replace(g_cfg, epochs=60)
    rows = run_ablation(train_clips, test_clips, contact, ablation_cfg, dc)
    accs = {r.variant: r.accuracy for r in rows}
    gap = accs["contact_distant"] - accs["baseline"]
    ordered = accs["contact_distant"] >= accs["contact_only"]

    elapsed = time.time() - t0
    ok = (
        element_acc >= 0.95
        and top1 >= 0.90
        and gap >= 0.05
        and ordered
        and elapsed <= 600.0
    )
    _report(
        capfd,
        "C4",
        ok,
        f"element acc {element_acc*100:.2f}%, top1 {top1*100:.2f}%, "
        f"ablation gap {gap*100:.2f}pts "
        f"[{', '.join(f'{r.variant}={r.accuracy*100:.2f}' for r in rows)}], "
        f"{elapsed:.0f}s",
    )
    assert element_acc >= 0.95
    assert top1 >= 0.90
    assert gap >= 0.05
    assert ordered
    assert elapsed <= 600.0


# ---------------------------------------------------------------------------
# C5: frozen-f bit identity, rerun determinism, checkpoint round trip


def test_c5_pipeline_contracts(capfd, tiny_synth, tiny_config, tmp_path):
    clips, _, contacts = tiny_synth
    f_cfg = ContactModuleConfig(
        hidden_width=16, epochs=3, base_lr=5e-4, lr_period_epochs=2,
        batch_size=32, seed=1,
    )
    g_cfg = ActionModuleConfig(
        hidden_width=24, epochs=4, base_lr=1e-3, lr_period_epochs=3,
        batch_size=8, action_head="softmax_ce", binarize_contact=True, seed=1,
    )

    f1, _ = train_contact_module(contacts, f_cfg, tiny_config)
    digest_before = f1.parameter_digest()
    g1, _ = train_action_module(clips, f1, g_cfg, tiny_config)
    frozen_ok = f1.parameter_digest() == digest_before

    f2, _ = train_contact_module(contacts, f_cfg, tiny_config)
    g2, _ = train_action_module(clips, f2, g_cfg, tiny_config)
    write_report(evaluate_pipeline(f1, g1, clips, contacts, tiny_config), tmp_path / "a")
    write_report(evaluate_pipeline(f2, g2, clips, contacts, tiny_config), tmp_path / "b")
    rerun_ok = (
        (tmp_path / "a" / "metrics.json").read_bytes()
        == (tmp_path / "b" / "metrics.json").read_bytes()
    )

    ckpt = tmp_path / "g.ckpt"
    save_checkpoint(g1.model, ckpt)
    loaded = load_checkpoint(ckpt)
    x = clip_features(clips[:1], f1, g_cfg, tiny_config)
    orig, _ = nn.forward(g1.model, x)
    back, _ = nn.forward(loaded, x)
    round_trip_err = float(np.abs(orig - back).max())
    ckpt_ok = round_trip_err <= 1e-6

    ok = frozen_ok and rerun_ok and ckpt_ok
    _report(
        capfd,
        "C5",
        ok,
        f"frozen {frozen_ok}, rerun identical {rerun_ok}, "
        f"round trip err {round_trip_err:.1e}",
    )
    assert ok


# ---------------------------------------------------------------------------
# C6: confusion diagonal / total == top-1 accuracy, exactly


def test_c6_metric_consistency(capfd):
    rng = np.random.default_rng(99)
    ok = True
    for _ in range(100):
        c = int(rng.integers(2, 20))
        n = int(rng.integers(1, 200))
        preds = rng.integers(0, c, size=n)
        labels = rng.integers(0, c, size=n)
        m = confusion_matrix(preds, labels, class_count=c)
        if np.trace(m) / n != action_accuracy(preds, labels):
            ok = False
            break
    _report(capfd, "C6", ok, "100 random prediction sets")
    assert ok


# ---------------------------------------------------------------------------
# C7 (soft): single-clip inference latency at full dims


def test_c7_inference_latency_soft(capfd):
    dc = DatasetConfig()
    clips, _, _ = synth_generate(
        SynthSpec(class_count=2, clips_per_class=1, frames_range=(32, 32), seed=1)
    )
    clip = clips[0]
    contact = TrainedContactModule(
        model=nn.init_model([dc.frame_dim, 256, 256, dc.contact_dim], seed=0),
        config=ContactModuleConfig(),
    )
    action = TrainedActionModule(
        model=nn.init_model(
            [dc.augmented_clip_dim, 5000, 5000, dc.action_class_count], seed=0
        ),
        config=ActionModuleConfig(),
    )
    predict_action(contact, action, clip, dc)  # warm up
    timings = []
    for _ in range(5):
        t0 = time.perf_counter()
        predict_contact(contact, np.stack([encode_frame(frame, dc) for frame in clip.frames]))
        predict_action(contact, action, clip, dc)
        timings.append(time.perf_counter() - t0)
    best_ms = min(timings) * 1e3
    ok = best_ms <= 100.0
    _report(capfd, "C7", ok, f"soft criterion, best of 5: {best_ms:.1f}ms")
    if not ok:
        with capfd.disabled():
            print(
                f"[ACCEPTANCE] C7 latency {best_ms:.1f}ms exceeds the 100ms "
                "target (soft criterion, not fatal)",
                flush=True,
            )


# ---------------------------------------------------------------------------
# C8 (optional): external real dataset, only when one is supplied


def test_c8_external_dataset_optional(capfd):
    data_dir = os.environ.get("CASAR_H2O_DIR")
    if not data_dir:
        with capfd.disabled():
            print(
                "[ACCEPTANCE] C8 SKIP (optional: set CASAR_H2O_DIR to a "
                "converted dataset directory to run the full-dims training "
                "gate)",
                flush=True,
            )
        pytest.skip("no external dataset configured")
    from casar.io import load_clips, load_contact_targets, load_meshes
    from pathlib import Path

    root = Path(data_dir)
    dc = DatasetConfig()
    clips = load_clips(root / "clips.jsonl", dc)
    meshes = load_meshes(root / "meshes")
    contacts = load_contact_targets(root / "contacts.jsonl", clips, dc)
    split = int(0.8 * len(clips))
    train_clips, test_clips = clips[:split], clips[split:]
    contact, _ = train_contact_module(contacts, ContactModuleConfig(), dc)
    action, _ = train_action_module(train_clips, contact, ActionModuleConfig(), dc)
    preds = [predict_action(contact, action, c, dc)[0] for c in test_clips]
    top1 = action_accuracy(preds, [c.action_label for c in test_clips])
    ok = top1 >= 0.85
    _report(capfd, "C8", ok, f"external dataset top1 {top1*100:.2f}%")
    assert ok
