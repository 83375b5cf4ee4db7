"""Metrics and reports: top-1 accuracy, per-object contact accuracy,
confusion matrices, and the four-row contact-map ablation harness.

Per-object accuracy is raw element-wise bit accuracy over every joint of
every frame (threshold 0.5, with 0.5 itself mapping to 1); averages are
frame-weighted, which over constant-width contact maps is exactly the
pooled per-bit accuracy.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .datamodel import ActionClip, ContactSample, DatasetConfig, encode_frame
from .errors import ShapeError, ValidationError
from .io import atomic_write
from .pipeline import (
    ActionModuleConfig,
    TrainedActionModule,
    TrainedContactModule,
    predict_contact,
    score_clips,
    train_action_module,
)

ABLATION_VARIANTS = (
    ("baseline", dict(mask_contact=True, mask_distant=True)),
    ("contact_only", dict(mask_contact=False, mask_distant=True)),
    ("distant_only", dict(mask_contact=True, mask_distant=False)),
    ("contact_distant", dict(mask_contact=False, mask_distant=False)),
)


@dataclass(frozen=True)
class ObjectRow:
    """Contact/distant bit accuracy for the frames of one object class."""

    object_label: int
    contact_acc: float
    distant_acc: float
    frame_count: int


@dataclass(frozen=True)
class EvalReport:
    top1_accuracy: float
    per_object: tuple[ObjectRow, ...]
    average_contact_acc: float
    average_distant_acc: float
    confusion: np.ndarray
    clip_count: int
    frame_count: int


def action_accuracy(predictions, labels) -> float:
    """Fraction of exact class matches."""
    preds = np.asarray(predictions)
    labs = np.asarray(labels)
    if preds.shape != labs.shape or preds.ndim != 1:
        raise ShapeError(f"predictions {preds.shape} and labels {labs.shape} must align")
    if len(preds) == 0:
        raise ValidationError("cannot compute accuracy over zero clips")
    return float(np.mean(preds == labs))


def confusion_matrix(predictions, labels, class_count: int) -> np.ndarray:
    """C x C counts; rows are ground truth, columns are predictions."""
    preds = np.asarray(predictions)
    labs = np.asarray(labels)
    if preds.shape != labs.shape or preds.ndim != 1:
        raise ShapeError(f"predictions {preds.shape} and labels {labs.shape} must align")
    if len(preds) and (preds.min() < 0 or preds.max() >= class_count
                       or labs.min() < 0 or labs.max() >= class_count):
        raise ValidationError(f"class index out of range [0, {class_count})")
    matrix = np.zeros((class_count, class_count), dtype=np.int64)
    np.add.at(matrix, (labs, preds), 1)
    return matrix


def contact_accuracy_by_object(
    predicted_probs,
    targets: list,
    object_labels,
) -> tuple[tuple[ObjectRow, ...], float, float]:
    """Bit accuracies grouped by object label, plus frame-weighted averages.

    ``predicted_probs`` holds one probability vector per frame; targets are
    the matching ContactMaps.  Probabilities at or above 0.5 count as
    predicted 1.
    """
    probs = np.asarray(predicted_probs, dtype=np.float64)
    labels = np.asarray(object_labels)
    if probs.ndim != 2 or len(targets) != probs.shape[0] or labels.shape != (probs.shape[0],):
        raise ShapeError(
            f"misaligned inputs: probs {probs.shape}, {len(targets)} targets, "
            f"labels {labels.shape}"
        )
    if probs.shape[0] == 0:
        raise ValidationError("cannot compute contact accuracy over zero frames")
    half = targets[0].joint_count
    if probs.shape[1] != 2 * half:
        raise ShapeError(f"probability width {probs.shape[1]} != 2 x {half} joints")
    binary = (probs >= 0.5).astype(np.uint8)
    truth = np.stack([t.as_target_vector() for t in targets]).astype(np.uint8)
    hits_contact = (binary[:, :half] == truth[:, :half]).mean(axis=1)
    hits_distant = (binary[:, half:] == truth[:, half:]).mean(axis=1)

    rows = []
    for obj in sorted(set(int(v) for v in labels)):
        sel = labels == obj
        rows.append(ObjectRow(
            object_label=obj,
            contact_acc=float(hits_contact[sel].mean()),
            distant_acc=float(hits_distant[sel].mean()),
            frame_count=int(sel.sum()),
        ))
    avg_contact = float(hits_contact.mean())
    avg_distant = float(hits_distant.mean())
    return tuple(rows), avg_contact, avg_distant


def evaluate_pipeline(
    contact: TrainedContactModule | None,
    action: TrainedActionModule,
    clips: list[ActionClip],
    contact_samples: list[ContactSample],
    data_config: DatasetConfig,
) -> EvalReport:
    """Score action classification on clips and contact prediction on frames.

    ``score_clips`` scores the clips in blocks, so beside the scores memory
    holds one block of f rows and one block of clip features; ties go to
    the lowest class index as in ``predict_action``.  Contact accuracy runs
    f on the raw (un-resampled) frames in ``contact_samples``, one row per
    frame.  Pass an empty list when no ground-truth targets exist: the
    per-object table is then empty and the contact averages are nan.
    """
    if not clips:
        raise ValidationError("cannot evaluate over zero clips")
    preds = np.argmax(score_clips(contact, action, clips, data_config), axis=1)
    labels = [c.action_label for c in clips]
    top1 = action_accuracy(preds, labels)
    confusion = confusion_matrix(preds, labels, data_config.action_class_count)

    if contact_samples and contact is not None:
        frames = np.stack([encode_frame(s.frame, data_config) for s in contact_samples])
        rows, avg_c, avg_d = contact_accuracy_by_object(
            predict_contact(contact, frames), [s.target for s in contact_samples],
            [s.frame.object.label_id for s in contact_samples])
    else:
        rows, avg_c, avg_d = (), float("nan"), float("nan")
    return EvalReport(
        top1_accuracy=top1,
        per_object=rows,
        average_contact_acc=avg_c,
        average_distant_acc=avg_d,
        confusion=confusion,
        clip_count=len(clips),
        frame_count=sum(r.frame_count for r in rows),
    )


@dataclass(frozen=True)
class AblationRow:
    variant: str
    accuracy: float


def run_ablation(
    train_clips: list[ActionClip],
    test_clips: list[ActionClip],
    contact: TrainedContactModule,
    config: ActionModuleConfig,
    data_config: DatasetConfig,
) -> list[AblationRow]:
    """Train and score the four mask variants of the contact augmentation.

    One shared frozen contact module; every variant trains g from the same
    seed and schedule and differs only in which halves of the appended
    contact features are zeroed, at train and at test time alike.
    """
    rows = []
    for name, masks in ABLATION_VARIANTS:
        variant_config = replace(config, augment_contact=True, **masks)
        action, _ = train_action_module(train_clips, contact, variant_config, data_config)
        report = evaluate_pipeline(contact, action, test_clips, [], data_config)
        rows.append(AblationRow(variant=name, accuracy=report.top1_accuracy))
    return rows


# ---------------------------------------------------------------------------
# report files


def write_report(report: EvalReport, out_dir, provenance: dict | None = None) -> None:
    """Emit metrics.json, confusion.csv, and per_object.csv.

    The JSON is canonical (sorted keys) and carries no wall-clock data, so
    repeated identical runs produce byte-identical report files.
    """
    out = Path(out_dir)

    def _json_safe(value: float):
        return None if np.isnan(value) else value

    metrics = {
        "top1_accuracy": report.top1_accuracy,
        "average_contact_accuracy": _json_safe(report.average_contact_acc),
        "average_distant_accuracy": _json_safe(report.average_distant_acc),
        "clip_count": report.clip_count,
        "frame_count": report.frame_count,
        "provenance": provenance or {},
    }
    with atomic_write(out / "metrics.json") as fh:
        json.dump(metrics, fh, sort_keys=True, indent=2)
        fh.write("\n")
    with atomic_write(out / "confusion.csv") as fh:
        writer = csv.writer(fh)
        c = report.confusion.shape[0]
        writer.writerow(["label\\pred"] + [str(j) for j in range(c)])
        for i in range(c):
            writer.writerow([str(i)] + [str(int(v)) for v in report.confusion[i]])
    with atomic_write(out / "per_object.csv") as fh:
        writer = csv.writer(fh)
        writer.writerow(["object_label", "contact_acc", "distant_acc", "frames"])
        for row in report.per_object:
            writer.writerow([
                row.object_label,
                repr(row.contact_acc),
                repr(row.distant_acc),
                row.frame_count,
            ])
        writer.writerow([
            "average",
            repr(report.average_contact_acc),
            repr(report.average_distant_acc),
            report.frame_count,
        ])
