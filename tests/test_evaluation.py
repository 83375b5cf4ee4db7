"""Accuracy metrics, per-object contact tables, ablation grid, report files."""

import json
import math
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from casar import datamodel, evaluation
from casar import neuralcore as nn
from casar.errors import DataIOError, ShapeError, ValidationError
from casar.evaluation import (
    ABLATION_VARIANTS,
    AblationRow,
    action_accuracy,
    confusion_matrix,
    contact_accuracy_by_object,
    evaluate_pipeline,
    run_ablation,
    write_report,
)
from casar.geometry import ContactMap
from casar.pipeline import (
    F_BLOCK_ROWS,
    SCORE_BLOCK_ROWS,
    ActionModuleConfig,
    ContactModuleConfig,
    clip_features,
    predict_action,
    score_clips,
    train_action_module,
    train_contact_module,
)

FAST_CONTACT = ContactModuleConfig(
    hidden_width=16, epochs=3, base_lr=5e-4, lr_period_epochs=2, batch_size=32, seed=1
)
FAST_ACTION = ActionModuleConfig(
    hidden_width=24,
    epochs=4,
    base_lr=1e-3,
    lr_period_epochs=3,
    batch_size=8,
    action_head="softmax_ce",
    binarize_contact=True,
    seed=1,
)


@pytest.fixture(scope="module")
def staged(tiny_synth, tiny_config):
    clips, _, contacts = tiny_synth
    f, _ = train_contact_module(contacts[:120], FAST_CONTACT, tiny_config)
    g, _ = train_action_module(clips, f, FAST_ACTION, tiny_config)
    return f, g


# ---------------------------------------------------------------------------
# scalar metrics


def test_action_accuracy_values():
    assert action_accuracy([0, 1, 2], [0, 1, 1]) == pytest.approx(2 / 3)
    assert action_accuracy(list(range(10)), list(range(10))) == 1.0


def test_action_accuracy_guards():
    with pytest.raises(ValidationError):
        action_accuracy([], [])
    with pytest.raises(ShapeError):
        action_accuracy([0, 1], [0])


def test_confusion_frozen_small_case():
    m = confusion_matrix([0, 1, 1], [0, 0, 1], class_count=2)
    np.testing.assert_array_equal(m, [[1, 1], [0, 1]])


def test_confusion_rejects_out_of_range():
    with pytest.raises(ValidationError):
        confusion_matrix([0, 2], [0, 1], class_count=2)
    with pytest.raises(ValidationError):
        confusion_matrix([0, -1], [0, 1], class_count=2)


@given(
    st.integers(min_value=2, max_value=6).flatmap(
        lambda c: st.tuples(
            st.just(c),
            st.lists(st.integers(0, c - 1), min_size=1, max_size=40),
            st.lists(st.integers(0, c - 1), min_size=1, max_size=40),
        )
    )
)
def test_confusion_row_sums_and_diagonal(case):
    c, preds, labels = case
    n = min(len(preds), len(labels))
    preds, labels = preds[:n], labels[:n]
    m = confusion_matrix(preds, labels, class_count=c)
    # row i counts every clip whose true label is i
    np.testing.assert_array_equal(
        m.sum(axis=1), np.bincount(labels, minlength=c)
    )
    np.testing.assert_array_equal(
        m.sum(axis=0), np.bincount(preds, minlength=c)
    )
    assert m.sum() == n
    assert np.trace(m) / n == action_accuracy(preds, labels)


# ---------------------------------------------------------------------------
# contact accuracy by object


def _maps(vectors):
    half = len(vectors[0]) // 2
    return [ContactMap(contact=v[:half], distant=v[half:]) for v in vectors]


def test_contact_accuracy_exact_fraction():
    J = 42
    truth = np.concatenate([np.ones(J), np.zeros(J)])
    perfect = truth.astype(np.float64)
    broken = perfect.copy()
    broken[:21] = 0.0  # 21 wrong contact bits in the first frame
    rows, avg_c, avg_d = contact_accuracy_by_object(
        np.stack([broken, perfect]), _maps([truth, truth]), [0, 0]
    )
    assert avg_c == (21 / 42 + 1.0) / 2
    assert avg_d == 1.0
    assert (avg_c + avg_d) / 2 == 0.875
    assert rows[0].frame_count == 2


def test_contact_threshold_is_inclusive_at_half():
    truth = np.array([1, 0, 0, 1], dtype=np.uint8)
    at_half = np.full(4, 0.5)
    rows, avg_c, avg_d = contact_accuracy_by_object(
        at_half[None, :], _maps([truth]), [3]
    )
    # 0.5 counts as a predicted 1: contact half [1,1] vs [1,0] is 50% right,
    # distant half [1,1] vs [0,1] likewise
    assert avg_c == 0.5 and avg_d == 0.5
    assert rows[0].object_label == 3


def test_contact_accuracy_grouping_is_frame_weighted():
    rng = np.random.default_rng(6)
    J = 5
    n = 9
    truth = []
    for _ in range(n):
        c = rng.integers(0, 2, size=J)
        d = rng.integers(0, 2, size=J) & (1 - c)
        truth.append(np.concatenate([c, d]))
    probs = rng.uniform(size=(n, 2 * J))
    labels = np.array([0, 0, 0, 1, 1, 2, 2, 2, 2])
    rows, avg_c, avg_d = contact_accuracy_by_object(probs, _maps(truth), labels)
    assert [r.object_label for r in rows] == [0, 1, 2]
    assert sum(r.frame_count for r in rows) == n
    pooled_c = sum(r.contact_acc * r.frame_count for r in rows) / n
    pooled_d = sum(r.distant_acc * r.frame_count for r in rows) / n
    assert abs(pooled_c - avg_c) <= 1e-12
    assert abs(pooled_d - avg_d) <= 1e-12


def test_contact_accuracy_guards():
    truth = np.array([1, 0], dtype=np.uint8)
    with pytest.raises(ValidationError):
        contact_accuracy_by_object(np.zeros((0, 2)), [], [])
    with pytest.raises(ShapeError):
        contact_accuracy_by_object(np.zeros((1, 4)), _maps([truth]), [0])
    with pytest.raises(ShapeError):
        contact_accuracy_by_object(np.zeros((1, 2)), _maps([truth]), [0, 1])


# ---------------------------------------------------------------------------
# pipeline evaluation


def test_evaluate_pipeline_report_consistency(tiny_synth, tiny_config, staged):
    clips, _, contacts = tiny_synth
    f, g = staged
    report = evaluate_pipeline(f, g, clips, contacts, tiny_config)
    assert report.clip_count == len(clips)
    assert report.confusion.sum() == len(clips)
    assert report.frame_count == len(contacts)
    assert np.trace(report.confusion) / len(clips) == report.top1_accuracy
    assert 0.0 <= report.average_contact_acc <= 1.0
    assert 0.0 <= report.average_distant_acc <= 1.0
    assert {r.object_label for r in report.per_object} == {
        c.object_label for c in clips
    }


def test_evaluate_pipeline_without_contact_targets(tiny_synth, tiny_config, staged):
    clips, _, _ = tiny_synth
    f, g = staged
    report = evaluate_pipeline(f, g, clips, [], tiny_config)
    assert report.per_object == ()
    assert math.isnan(report.average_contact_acc)
    assert math.isnan(report.average_distant_acc)
    assert report.frame_count == 0
    with pytest.raises(ValidationError):
        evaluate_pipeline(f, g, [], [], tiny_config)


def test_evaluate_pipeline_encodes_frames_into_one_matrix(
        tiny_synth, tiny_config, staged, monkeypatch):
    clips, _, contacts = tiny_synth
    f, g = staged
    encode, predict = evaluation.encode_frame, evaluation.predict_contact
    seen = {}

    def first_call_resets_the_peak(frame, config):
        if "base" not in seen:
            seen["base"] = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
        return encode(frame, config)

    def peak_on_entry(module, rows):
        seen["peak"], seen["matrix"] = tracemalloc.get_traced_memory()[1], rows.nbytes
        return predict(module, rows)

    monkeypatch.setattr(evaluation, "encode_frame", first_call_resets_the_peak)
    monkeypatch.setattr(evaluation, "predict_contact", peak_on_entry)
    tracemalloc.start()
    try:
        evaluate_pipeline(f, g, clips, contacts, tiny_config)
    finally:
        tracemalloc.stop()
    assert seen["matrix"] == len(contacts) * tiny_config.frame_dim * 8
    # the matrix and one frame's encoding, not a list of rows and then their stack
    assert seen["peak"] - seen["base"] < 1.5 * seen["matrix"]


def _count_calls(monkeypatch, fn) -> list:
    """Record each call to ``fn`` made through any casar module that binds it."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "casar" or name.startswith("casar."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counted)
    return calls


def test_frames_are_encoded_once_and_scored_in_blocks(tiny_synth, tiny_config, staged,
                                                      monkeypatch):
    clips, _, contacts = tiny_synth
    f, g = staged
    encodes = _count_calls(monkeypatch, datamodel.encode_frame)
    forwards = _count_calls(monkeypatch, nn.forward)
    clip_features(clips[:1], f, g.config, tiny_config)
    assert len(encodes) == tiny_config.frames_per_clip
    n_f = tiny_config.frames_per_clip
    assert len(clips) * n_f <= SCORE_BLOCK_ROWS
    forwards.clear()
    report = evaluate_pipeline(f, g, clips, contacts, tiny_config)
    # one block of clips: f once per F_BLOCK_ROWS of its frames and g once on
    # its features, then f once per F_BLOCK_ROWS contact frames
    assert len(forwards) == (math.ceil(len(clips) * n_f / F_BLOCK_ROWS) + 1
                             + math.ceil(len(contacts) / F_BLOCK_ROWS))
    preds = [predict_action(f, g, c, tiny_config)[0] for c in clips]
    np.testing.assert_array_equal(
        report.confusion,
        confusion_matrix(preds, [c.action_label for c in clips], tiny_config.action_class_count))
    # smaller clip blocks: one clip per block, f once per F_BLOCK_ROWS of its
    # frames and g once, then the contact frames as before; and the same report
    forwards.clear()
    monkeypatch.setattr("casar.pipeline.SCORE_BLOCK_ROWS", 5)
    blocked = evaluate_pipeline(f, g, clips, contacts, tiny_config)
    assert len(forwards) == (len(clips) * (math.ceil(n_f / F_BLOCK_ROWS) + 1)
                             + math.ceil(len(contacts) / F_BLOCK_ROWS))
    assert blocked.per_object == report.per_object
    np.testing.assert_array_equal(blocked.confusion, report.confusion)


def test_block_boundaries_change_no_feature_or_report(tiny_synth, tiny_config, staged,
                                                      monkeypatch):
    clips, _, contacts = tiny_synth
    f, g = staged
    raw = replace(g.config, binarize_contact=False)
    preds = [predict_action(f, g, c, tiny_config)[0] for c in clips]
    runs = []
    # clip blocks of one clip (at a clip's frames and below) and of all clips (the default)
    for rows in (tiny_config.frames_per_clip, 5, SCORE_BLOCK_ROWS):
        monkeypatch.setattr("casar.pipeline.SCORE_BLOCK_ROWS", rows)
        np.testing.assert_array_equal(
            np.argmax(score_clips(f, g, clips, tiny_config), axis=1), preds)
        runs.append((clip_features(clips, f, g.config, tiny_config),
                     clip_features(clips, f, raw, tiny_config),
                     evaluate_pipeline(f, g, clips, contacts, tiny_config)))
    features, raw_features, report = runs[0]
    for other, other_raw, other_report in runs[1:]:
        np.testing.assert_array_equal(other, features)
        np.testing.assert_array_equal(other_raw, raw_features)
        np.testing.assert_array_equal(other_report.confusion, report.confusion)
        assert replace(other_report, confusion=None) == replace(report, confusion=None)
    # a clip's raw features do not depend on the clips built with it
    np.testing.assert_array_equal(
        np.concatenate([clip_features([c], f, raw, tiny_config) for c in clips]), raw_features)


# ---------------------------------------------------------------------------
# ablation grid


def test_run_ablation_rows_and_determinism(tiny_synth, tiny_config, staged):
    clips, _, _ = tiny_synth
    f, _ = staged
    rows = run_ablation(clips, clips, f, FAST_ACTION, tiny_config)
    assert [r.variant for r in rows] == [name for name, _ in ABLATION_VARIANTS]
    assert all(isinstance(r, AblationRow) for r in rows)
    assert all(0.0 <= r.accuracy <= 1.0 for r in rows)
    # the baseline row is exactly a both-masked training run
    masked = replace(FAST_ACTION, mask_contact=True, mask_distant=True)
    g_masked, _ = train_action_module(clips, f, masked, tiny_config)
    preds = [predict_action(f, g_masked, c, tiny_config)[0] for c in clips]
    manual = action_accuracy(preds, [c.action_label for c in clips])
    assert rows[0].accuracy == manual


# ---------------------------------------------------------------------------
# report files


def test_write_report_files_and_idempotence(tmp_path, tiny_synth, tiny_config, staged):
    clips, _, contacts = tiny_synth
    f, g = staged
    report = evaluate_pipeline(f, g, clips, contacts, tiny_config)
    out = tmp_path / "report"
    write_report(report, out, provenance={"dataset": "tiny"})
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    assert set(first) == {"metrics.json", "confusion.csv", "per_object.csv"}
    write_report(report, out, provenance={"dataset": "tiny"})
    second = {p.name: p.read_bytes() for p in out.iterdir()}
    assert first == second

    metrics = json.loads(first["metrics.json"])
    assert metrics["top1_accuracy"] == report.top1_accuracy
    assert metrics["clip_count"] == report.clip_count
    assert metrics["provenance"] == {"dataset": "tiny"}
    lines = first["confusion.csv"].decode().strip().splitlines()
    assert len(lines) == tiny_config.action_class_count + 1
    body = [list(map(int, ln.split(",")[1:])) for ln in lines[1:]]
    np.testing.assert_array_equal(np.array(body), report.confusion)
    per_object = first["per_object.csv"].decode().strip().splitlines()
    assert per_object[-1].startswith("average,")


def test_write_report_nan_becomes_null(tmp_path, tiny_synth, tiny_config, staged):
    clips, _, _ = tiny_synth
    f, g = staged
    report = evaluate_pipeline(f, g, clips, [], tiny_config)
    write_report(report, tmp_path / "r")
    metrics = json.loads((tmp_path / "r" / "metrics.json").read_text())
    assert metrics["average_contact_accuracy"] is None
    assert metrics["average_distant_accuracy"] is None


def test_write_report_io_failure(tmp_path, tiny_synth, tiny_config, staged):
    clips, _, _ = tiny_synth
    f, g = staged
    report = evaluate_pipeline(f, g, clips, [], tiny_config)
    blocker = tmp_path / "blocker"
    blocker.write_text("file, not a directory")
    with pytest.raises(DataIOError):
        write_report(report, blocker / "nested")
