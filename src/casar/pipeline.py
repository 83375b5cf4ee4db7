"""Two-stage training: contact network f, frozen, then action network g.

Stage one derives per-frame contact targets from posed meshes and fits f
with the focal loss.  Stage two freezes f, augments every resampled clip
with f's per-frame predictions, and fits the classifier g on the flat
augmented vectors.  Checkpoints are a small binary format with a JSON
sidecar; training parameters stay double precision internally and are
stored as single precision.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .datamodel import (
    ActionClip,
    ContactSample,
    DatasetConfig,
    encode_clip,
    encode_frame,
    resample_frames,
)
from .errors import (
    CheckpointError,
    DataIOError,
    NumericError,
    ShapeError,
    ValidationError,
)
from .geometry import (
    ContactThresholds,
    ObjectMesh,
    SpatialIndex,
    build_vertex_index,
    label_contact_map,
)
from .io import atomic_write
from . import neuralcore as nn

ACTION_HEADS = ("sigmoid_ce", "softmax_ce")

CHECKPOINT_MAGIC = b"CASARNET"
CHECKPOINT_VERSION = 1
_ACT_CODES = {nn.RELU: 0, nn.SIGMOID: 1, nn.IDENTITY: 2}
_ACT_NAMES = {v: k for k, v in _ACT_CODES.items()}
_MAX_LAYERS = 64


@dataclass(frozen=True)
class ContactModuleConfig:
    """Hyperparameters of the contact network f."""

    hidden_width: int = 256
    epochs: int = 100
    base_lr: float = 1e-4
    lr_decay_factor: float = 0.7
    lr_period_epochs: int = 20
    focal_alpha: float = 0.5
    focal_gamma: float = 4.0
    batch_size: int = 64
    seed: int = 0

    def __post_init__(self):
        if self.hidden_width < 1 or self.epochs < 1 or self.batch_size < 1:
            raise ValidationError("hidden_width, epochs, batch_size must be positive")
        # constructing these validates the numeric ranges
        self.schedule()
        self.focal()

    def schedule(self) -> nn.LrSchedule:
        return nn.LrSchedule(
            base_lr=self.base_lr,
            period_epochs=self.lr_period_epochs,
            total_epochs=self.epochs,
            decay_factor=self.lr_decay_factor,
        )

    def focal(self) -> nn.FocalParams:
        return nn.FocalParams(alpha=self.focal_alpha, gamma=self.focal_gamma)


@dataclass(frozen=True)
class ActionModuleConfig:
    """Hyperparameters and feature switches of the action network g.

    ``augment_contact`` appends f's per-frame predictions to the clip
    encoding; ``binarize_contact`` thresholds them at 0.5; the mask flags
    zero out either half of the appended features at train and test time
    (the ablation rows).
    """

    hidden_width: int = 5000
    epochs: int = 600
    base_lr: float = 1e-5
    lr_decay_factor: float = 0.7
    lr_period_epochs: int = 200
    batch_size: int = 16
    action_head: str = "sigmoid_ce"
    augment_contact: bool = True
    binarize_contact: bool = False
    mask_contact: bool = False
    mask_distant: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.hidden_width < 1 or self.epochs < 1 or self.batch_size < 1:
            raise ValidationError("hidden_width, epochs, batch_size must be positive")
        if self.action_head not in ACTION_HEADS:
            raise ValidationError(
                f"action_head must be one of {ACTION_HEADS}, got {self.action_head!r}"
            )
        self.schedule()

    def schedule(self) -> nn.LrSchedule:
        return nn.LrSchedule(
            base_lr=self.base_lr,
            period_epochs=self.lr_period_epochs,
            total_epochs=self.epochs,
            decay_factor=self.lr_decay_factor,
        )


@dataclass
class TrainedContactModule:
    """Frozen contact network plus the config it was trained with."""

    model: nn.MlpModel
    config: ContactModuleConfig

    def parameter_digest(self) -> str:
        return hashlib.sha256(self.model.parameter_bytes()).hexdigest()


@dataclass
class TrainedActionModule:
    """Action classifier plus the feature switches it was trained under."""

    model: nn.MlpModel
    config: ActionModuleConfig


def derive_contact_dataset(
    clips: list[ActionClip],
    meshes: dict[str, ObjectMesh],
    thresholds: ContactThresholds,
) -> list[ContactSample]:
    """Label every raw frame of every clip against its object's mesh.

    One sample per frame, pre-resampling, so the contact set is as large
    as the recordings allow.  Labels are computed in each mesh's canonical
    frame: one vertex index per mesh id over the canonical vertices, and
    each frame's joints moved into that frame with the inverse object pose,
    ``(joints - t) @ R``.  Point-to-vertex distance does not change under a
    rigid pose, so these are the labels of the posed mesh.  This is the
    only routine that turns joints and poses into labels; the synthetic
    generator's targets come from it too.
    """
    samples: list[ContactSample] = []
    indexes: dict[str, SpatialIndex] = {}
    for clip in clips:
        mesh_id = clip.mesh_id
        if mesh_id is None or mesh_id not in meshes:
            raise ValidationError(
                f"clip {clip.clip_id!r}: mesh {mesh_id!r} not available for contact derivation"
            )
        if mesh_id not in indexes:
            indexes[mesh_id] = build_vertex_index(meshes[mesh_id].vertices)
        index = indexes[mesh_id]
        for i, frame in enumerate(clip.frames):
            pose = frame.object.world_from_canonical
            canonical = (frame.hand.joints() - pose[:3, 3]) @ pose[:3, :3]
            cmap = label_contact_map(canonical, index, thresholds)
            samples.append(
                ContactSample(frame=frame, target=cmap, clip_id=clip.clip_id, frame_index=i)
            )
    return samples


def _epoch_batches(rng: np.random.Generator, count: int, batch_size: int):
    perm = rng.permutation(count)
    for start in range(0, count, batch_size):
        yield perm[start:start + batch_size]


def train_contact_module(
    samples: list[ContactSample],
    config: ContactModuleConfig,
    data_config: DatasetConfig,
) -> tuple[TrainedContactModule, list[float]]:
    """Fit f on per-frame samples with the focal loss; returns it frozen.

    The history holds one mean focal loss per epoch, averaged over all
    samples.  Identical samples, config, and data config give bit-identical
    parameters.
    """
    if not samples:
        raise ValidationError("cannot train the contact module on an empty sample list")
    X = np.stack([encode_frame(s.frame, data_config) for s in samples])
    Y = np.stack([s.target.as_target_vector() for s in samples])
    if Y.shape[1] != data_config.contact_dim:
        raise ShapeError(
            f"targets have width {Y.shape[1]}, config expects {data_config.contact_dim}"
        )
    model = nn.init_model(
        [data_config.frame_dim, config.hidden_width, config.hidden_width, data_config.contact_dim],
        seed=config.seed,
    )
    adam = nn.init_adam(model)
    schedule = config.schedule()
    focal = config.focal()
    rng = np.random.default_rng(config.seed)
    n = len(X)
    history: list[float] = []
    for epoch in range(config.epochs):
        lr = nn.lr_at(schedule, epoch)
        total = 0.0
        for batch in _epoch_batches(rng, n, config.batch_size):
            out, cache = nn.forward(model, X[batch])
            loss, grad = nn.focal_loss(out, Y[batch], focal)
            grads = nn.backward(model, cache, grad)
            nn.adam_step(model, grads, adam, lr)
            total += loss * len(batch)
        history.append(total / n)
    return TrainedContactModule(model=model, config=config), history


def predict_contact(module: TrainedContactModule, frame_vec: np.ndarray) -> np.ndarray:
    """Per-frame contact/distant probabilities for one encoded frame."""
    v = np.asarray(frame_vec, dtype=np.float64)
    if v.ndim != 1 or v.shape[0] != module.model.input_dim:
        raise ShapeError(
            f"frame vector has shape {v.shape}, module expects ({module.model.input_dim},)"
        )
    out, _ = nn.forward(module.model, v)
    return out


def clip_features(
    clip: ActionClip,
    contact: TrainedContactModule | None,
    config: ActionModuleConfig,
    data_config: DatasetConfig,
) -> np.ndarray:
    """Resample a clip and build the flat vector g consumes.

    With ``augment_contact`` the frozen contact module runs on every
    resampled frame and its outputs (optionally binarized, optionally
    masked by half) are appended per frame; otherwise the plain clip
    encoding is returned.
    """
    resampled = resample_frames(clip, data_config.frames_per_clip)
    if not config.augment_contact:
        return encode_clip(resampled, data_config)
    if contact is None:
        raise ValidationError("augment_contact requires a trained contact module")
    frame_vecs = np.stack([encode_frame(f, data_config) for f in resampled.frames])
    probs, _ = nn.forward(contact.model, frame_vecs)
    if probs.shape[1] != data_config.contact_dim:
        raise ShapeError(
            f"contact module emits {probs.shape[1]} values, config expects "
            f"{data_config.contact_dim}"
        )
    if config.binarize_contact:
        probs = (probs >= 0.5).astype(np.float64)
    half = data_config.joint_count
    if config.mask_contact or config.mask_distant:
        probs = probs.copy()
        if config.mask_contact:
            probs[:, :half] = 0.0
        if config.mask_distant:
            probs[:, half:] = 0.0
    return encode_clip(resampled, data_config, contact_probs=probs)


def _loss_for_head(head: str):
    return nn.action_loss if head == "sigmoid_ce" else nn.softmax_action_loss


def train_action_module(
    clips: list[ActionClip],
    contact: TrainedContactModule | None,
    config: ActionModuleConfig,
    data_config: DatasetConfig,
) -> tuple[TrainedActionModule, list[float]]:
    """Fit g on contact-augmented clip encodings under the staged regime.

    The contact module is used purely for inference here; its parameters
    are verified bit-identical before and after.  History is the per-epoch
    mean classification loss.
    """
    if not clips:
        raise ValidationError("cannot train the action module on an empty clip list")
    if config.augment_contact and contact is None:
        raise ValidationError("augment_contact requires a trained contact module")
    n_classes = data_config.action_class_count
    labels = np.array([c.action_label for c in clips])
    bad = [c.clip_id for c in clips if not 0 <= c.action_label < n_classes]
    if bad:
        raise ValidationError(
            f"action labels out of range [0, {n_classes}) in clips: {bad[:5]}"
        )

    digest_before = contact.parameter_digest() if contact is not None else None
    X = np.stack([clip_features(c, contact, config, data_config) for c in clips])
    expected = (
        data_config.augmented_clip_dim if config.augment_contact else data_config.clip_dim
    )
    if X.shape[1] != expected:
        raise ShapeError(f"clip features have width {X.shape[1]}, expected {expected}")

    head_activation = nn.SIGMOID if config.action_head == "sigmoid_ce" else nn.IDENTITY
    model = nn.init_model(
        [expected, config.hidden_width, config.hidden_width, n_classes],
        seed=config.seed,
        output_activation=head_activation,
    )
    adam = nn.init_adam(model)
    schedule = config.schedule()
    loss_fn = _loss_for_head(config.action_head)
    rng = np.random.default_rng(config.seed)
    n = len(X)
    history: list[float] = []
    for epoch in range(config.epochs):
        lr = nn.lr_at(schedule, epoch)
        total = 0.0
        for batch in _epoch_batches(rng, n, config.batch_size):
            out, cache = nn.forward(model, X[batch])
            loss, grad = loss_fn(out, labels[batch])
            grads = nn.backward(model, cache, grad)
            nn.adam_step(model, grads, adam, lr)
            total += loss * len(batch)
        history.append(total / n)
    if contact is not None and contact.parameter_digest() != digest_before:
        raise NumericError("contact module parameters changed during action training")
    return TrainedActionModule(model=model, config=config), history


def predict_action(
    contact: TrainedContactModule | None,
    action: TrainedActionModule,
    clip: ActionClip,
    data_config: DatasetConfig,
) -> tuple[int, np.ndarray]:
    """Class index (argmax, lowest index wins ties) and g's raw outputs."""
    x = clip_features(clip, contact, action.config, data_config)
    if x.shape[0] != action.model.input_dim:
        raise ShapeError(
            f"clip features have width {x.shape[0]}, action model expects "
            f"{action.model.input_dim}"
        )
    out, _ = nn.forward(action.model, x)
    return int(np.argmax(out)), out


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(model: nn.MlpModel, path, meta: dict | None = None) -> None:
    """Write the binary checkpoint and its ``<name>.meta.json`` sidecar.

    Layout: magic, u32 version, u32 layer count, per-layer u32 in_dim /
    u32 out_dim / u8 activation code, then per-layer row-major float32
    weights followed by the bias.  Everything little-endian.
    """
    parts = [CHECKPOINT_MAGIC, struct.pack("<I", CHECKPOINT_VERSION),
             struct.pack("<I", len(model.weights))]
    for W, act in zip(model.weights, model.activations):
        parts.append(struct.pack("<IIB", W.shape[1], W.shape[0], _ACT_CODES[act]))
    for W, b in zip(model.weights, model.biases):
        parts.append(np.ascontiguousarray(W, dtype="<f4").tobytes())
        parts.append(np.ascontiguousarray(b, dtype="<f4").tobytes())
    sidecar = dict(meta or {})
    sidecar.setdefault("layer_dims", model.layer_dims)
    sidecar.setdefault("activations", list(model.activations))
    with atomic_write(path, "wb") as fh:
        fh.writelines(parts)
    with atomic_write(_sidecar_path(path)) as fh:
        fh.write(json.dumps(sidecar, sort_keys=True, separators=(",", ":")) + "\n")


def _sidecar_path(path) -> Path:
    return Path(path).with_name(Path(path).name + ".meta.json")


def _take(buf: bytes, offset: int, count: int, what: str, path) -> tuple[bytes, int]:
    if offset + count > len(buf):
        raise CheckpointError(f"{path}: truncated checkpoint while reading {what}")
    return buf[offset:offset + count], offset + count


def load_checkpoint(path) -> nn.MlpModel:
    """Read a checkpoint back into a double-precision model."""
    try:
        buf = Path(path).read_bytes()
    except OSError as exc:
        raise DataIOError(f"cannot read checkpoint {path}: {exc}") from exc
    raw, off = _take(buf, 0, 8, "magic", path)
    if raw != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: bad magic {raw!r}; not a checkpoint file")
    raw, off = _take(buf, off, 4, "version", path)
    version = struct.unpack("<I", raw)[0]
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{path}: unsupported checkpoint version {version} (expected {CHECKPOINT_VERSION})"
        )
    raw, off = _take(buf, off, 4, "layer count", path)
    n_layers = struct.unpack("<I", raw)[0]
    if not 1 <= n_layers <= _MAX_LAYERS:
        raise CheckpointError(f"{path}: implausible layer count {n_layers}")
    headers = []
    for i in range(n_layers):
        raw, off = _take(buf, off, 9, f"layer {i} header", path)
        d_in, d_out, code = struct.unpack("<IIB", raw)
        if code not in _ACT_NAMES:
            raise CheckpointError(f"{path}: layer {i}: unknown activation code {code}")
        if d_in < 1 or d_out < 1:
            raise CheckpointError(f"{path}: layer {i}: bad dims {d_in}x{d_out}")
        headers.append((d_in, d_out, _ACT_NAMES[code]))
    weights, biases, acts = [], [], []
    for i, (d_in, d_out, act) in enumerate(headers):
        raw, off = _take(buf, off, 4 * d_in * d_out, f"layer {i} weights", path)
        weights.append(np.frombuffer(raw, dtype="<f4").reshape(d_out, d_in).astype(np.float64))
        raw, off = _take(buf, off, 4 * d_out, f"layer {i} bias", path)
        biases.append(np.frombuffer(raw, dtype="<f4").astype(np.float64))
        acts.append(act)
    if off != len(buf):
        raise CheckpointError(f"{path}: {len(buf) - off} trailing bytes after parameters")
    try:
        return nn.MlpModel(weights=weights, biases=biases, activations=acts)
    except ValidationError as exc:
        raise CheckpointError(f"{path}: inconsistent checkpoint: {exc}") from exc


def load_checkpoint_meta(path) -> dict:
    """Read the JSON sidecar written next to a checkpoint."""
    meta_path = _sidecar_path(path)
    try:
        return json.loads(meta_path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise DataIOError(f"cannot read checkpoint sidecar {meta_path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"{meta_path}: invalid JSON sidecar: {exc}") from exc
