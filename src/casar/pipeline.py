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
import os
import struct
from dataclasses import dataclass
from functools import partial
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
    check_field_types,
)
from .geometry import (
    ContactThresholds,
    ObjectMesh,
    label_contact_map,
)
from .io import atomic_write, read_json_object
from . import neuralcore as nn

ACTION_HEADS = ("sigmoid_ce", "softmax_ce")

CHECKPOINT_MAGIC = b"CASARNET"
CHECKPOINT_VERSION = 1
_ACT_CODES = {nn.RELU: 0, nn.SIGMOID: 1, nn.IDENTITY: 2}
_ACT_NAMES = {v: k for k, v in _ACT_CODES.items()}
_MAX_LAYERS = 64
SCORE_BLOCK_ROWS = 4096  # frames per block of clips that score_clips builds and scores
F_BLOCK_ROWS = 32  # rows per forward of f outside training: one shape, so a row's bits are its own


def _check_fit_fields(config) -> None:
    """Field types, sizes, seed and step-decay schedule of a module config."""
    check_field_types(config)
    if config.hidden_width < 1 or config.epochs < 1 or config.batch_size < 1:
        raise ValidationError("hidden_width, epochs, batch_size must be positive")
    if config.seed < 0:
        raise ValidationError(f"seed must be >= 0, got {config.seed}")
    if config.base_lr <= 0:
        raise ValidationError(f"base_lr must be positive, got {config.base_lr}")
    if not 0.0 < config.lr_decay_factor <= 1.0:
        raise ValidationError(f"lr_decay_factor must be in (0, 1], got {config.lr_decay_factor}")
    if config.lr_period_epochs < 1:
        raise ValidationError(f"lr_period_epochs must be >= 1, got {config.lr_period_epochs}")


@dataclass(frozen=True)
class ContactModuleConfig:
    """Hyperparameters of the contact network f, focal-loss terms included."""

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
        _check_fit_fields(self)
        if not 0.0 < self.focal_alpha < 1.0:
            raise ValidationError(f"focal_alpha must be in (0, 1), got {self.focal_alpha}")
        if self.focal_gamma < 0.0:
            raise ValidationError(f"focal_gamma must be >= 0, got {self.focal_gamma}")


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
        _check_fit_fields(self)
        if self.action_head not in ACTION_HEADS:
            raise ValidationError(
                f"action_head must be one of {ACTION_HEADS}, got {self.action_head!r}"
            )


def lr_at(config: ContactModuleConfig | ActionModuleConfig, epoch: int) -> float:
    """Step decay: ``base_lr`` times ``lr_decay_factor`` per ``lr_period_epochs`` epochs."""
    return config.base_lr * config.lr_decay_factor ** (epoch // config.lr_period_epochs)


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
    frame: each mesh answers from its own vertex index, built once over its
    canonical vertices, and each frame's joints are moved into that frame
    with the inverse object pose, ``(joints - t) @ R``.  Point-to-vertex
    distance does not change under a rigid pose, so these are the labels
    of the posed mesh.  This is the only routine that turns joints and
    poses into labels; the synthetic generator's targets come from it too.
    """
    samples: list[ContactSample] = []
    for clip in clips:
        mesh = meshes.get(clip.mesh_id)
        if mesh is None:
            raise ValidationError(f"clip {clip.clip_id!r}: mesh {clip.mesh_id!r} "
                                  "not available for contact derivation")
        for i, frame in enumerate(clip.frames):
            pose = frame.object.world_from_canonical
            canonical = (frame.hand.joints() - pose[:3, 3]) @ pose[:3, :3]
            cmap = label_contact_map(canonical, mesh, thresholds)
            samples.append(
                ContactSample(frame=frame, target=cmap, clip_id=clip.clip_id, frame_index=i)
            )
    return samples


def _fit(
    model: nn.MlpModel,
    X: np.ndarray,
    targets: np.ndarray,
    loss_fn,
    config: ContactModuleConfig | ActionModuleConfig,
) -> list[float]:
    """Mini-batch Adam on ``(X, targets)`` under ``config``'s schedule.

    Each epoch visits the rows in a fresh permutation drawn from a
    generator seeded with ``config.seed``.  Returns one mean loss per
    epoch, averaged over all rows.  BLAS runs on one thread, so the bytes
    do not depend on the caller's count, restored on return.  The working
    set is fixed: parameters, one gradient vector, Adam's moments, two
    256 KB Adam scratch blocks per Adam thread, and one mini-batch with its
    activations, dropped before the next is drawn.  A ``NumericError`` is
    re-raised naming the network and the epoch and step (from 0).
    """
    net = "contact network f" if isinstance(config, ContactModuleConfig) else "action network g"
    adam = nn.init_adam(model)
    grads = np.empty_like(model.params)
    rng = np.random.default_rng(config.seed)
    n = len(X)
    history: list[float] = []
    caller = nn.blas_threads()
    nn.set_blas_threads(1)
    try:
        for epoch in range(config.epochs):
            lr = lr_at(config, epoch)
            perm = rng.permutation(n)
            total = 0.0
            for step, start in enumerate(range(0, n, config.batch_size)):
                batch = perm[start:start + config.batch_size]
                out, acts = nn.forward(model, X[batch])
                loss, grad = loss_fn(out, targets[batch])
                nn.backward(model, acts, grad, grads)
                del out, acts, grad
                nn.adam_step(model, grads, adam, lr)
                total += loss * len(batch)
            history.append(total / n)
    except NumericError as exc:
        raise NumericError(f"{net} diverged at epoch {epoch}, step {step}: {exc}") from exc
    finally:
        nn.set_blas_threads(caller)
    return history


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
    dims = [data_config.frame_dim, config.hidden_width, config.hidden_width,
            data_config.contact_dim]
    nn.check_training_memory(dims)
    X = np.stack([encode_frame(s.frame, data_config) for s in samples])
    Y = np.stack([s.target.as_target_vector() for s in samples])
    if Y.shape[1] != data_config.contact_dim:
        raise ShapeError(
            f"targets have width {Y.shape[1]}, config expects {data_config.contact_dim}"
        )
    model = nn.init_model(dims, seed=config.seed)
    history = _fit(model, X, Y, partial(nn.focal_loss, alpha=config.focal_alpha,
                                       gamma=config.focal_gamma), config)
    return TrainedContactModule(model=model, config=config), history


def predict_contact(module: TrainedContactModule, rows: np.ndarray) -> np.ndarray:
    """f's outputs for a ``(frames, width)`` matrix, in zero-padded blocks of ``F_BLOCK_ROWS``."""
    out = np.empty((len(rows), module.model.layer_dims[-1]))
    for start in range(0, len(rows), F_BLOCK_ROWS):
        block = rows[start:start + F_BLOCK_ROWS]
        padded = np.zeros((F_BLOCK_ROWS,) + block.shape[1:])
        padded[:len(block)] = block
        out[start:start + len(block)] = nn.forward(module.model, padded)[0][:len(block)]
    return out


def clip_features(
    clips: list[ActionClip],
    contact: TrainedContactModule | None,
    config: ActionModuleConfig,
    data_config: DatasetConfig,
) -> np.ndarray:
    """Resample clips and build the ``(clips, width)`` matrix g consumes.

    With ``augment_contact``, f runs on all the resampled frames at once and its
    outputs (optionally binarized, optionally masked by half) follow each
    frame's encoding; otherwise a row is the plain clip encoding.
    """
    if config.augment_contact and contact is None:
        raise ValidationError("augment_contact requires a trained contact module")
    n_f, fd = data_config.frames_per_clip, data_config.frame_dim
    width = data_config.augmented_frame_dim if config.augment_contact else fd
    X = np.empty((len(clips), n_f, width))
    for i, clip in enumerate(clips):
        X[i, :, :fd] = encode_clip(resample_frames(clip, n_f), data_config).reshape(n_f, fd)
    if config.augment_contact:
        if contact.model.layer_dims[-1] != data_config.contact_dim:
            raise ShapeError(f"contact module emits {contact.model.layer_dims[-1]} values, "
                             f"config expects {data_config.contact_dim}")
        probs = X[:, :, fd:]  # a view: f's outputs land in X
        probs[...] = predict_contact(contact, X[:, :, :fd].reshape(-1, fd)).reshape(probs.shape)
        if config.binarize_contact:
            probs[...] = probs >= 0.5
        if config.mask_contact:
            probs[:, :, :data_config.joint_count] = 0.0
        if config.mask_distant:
            probs[:, :, data_config.joint_count:] = 0.0
    return X.reshape(len(clips), n_f * width)


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
    n_classes = data_config.action_class_count
    labels = np.array([c.action_label for c in clips])
    bad = [c.clip_id for c in clips if not 0 <= c.action_label < n_classes]
    if bad:
        raise ValidationError(
            f"action labels out of range [0, {n_classes}) in clips: {bad[:5]}"
        )

    width = data_config.augmented_clip_dim if config.augment_contact else data_config.clip_dim
    dims = [width, config.hidden_width, config.hidden_width, n_classes]
    nn.check_training_memory(dims)

    digest_before = contact.parameter_digest() if contact is not None else None
    X = clip_features(clips, contact, config, data_config)

    head_activation = nn.SIGMOID if config.action_head == "sigmoid_ce" else nn.IDENTITY
    model = nn.init_model(dims, seed=config.seed, output_activation=head_activation)
    loss_fn = nn.action_loss if config.action_head == "sigmoid_ce" else nn.softmax_action_loss
    history = _fit(model, X, labels, loss_fn, config)
    if contact is not None and contact.parameter_digest() != digest_before:
        raise NumericError("contact module parameters changed during action training")
    return TrainedActionModule(model=model, config=config), history


def score_clips(
    contact: TrainedContactModule | None,
    action: TrainedActionModule,
    clips: list[ActionClip],
    data_config: DatasetConfig,
) -> np.ndarray:
    """g's raw outputs, one row per clip.

    Features are built and scored for ``SCORE_BLOCK_ROWS // frames_per_clip`` clips at a time.
    """
    per_block = max(1, SCORE_BLOCK_ROWS // data_config.frames_per_clip)
    scores = np.empty((len(clips), action.model.layer_dims[-1]))
    for start in range(0, len(clips), per_block):
        block = slice(start, start + per_block)
        X = clip_features(clips[block], contact, action.config, data_config)
        scores[block] = nn.forward(action.model, X)[0]
    return scores


def predict_action(
    contact: TrainedContactModule | None,
    action: TrainedActionModule,
    clip: ActionClip,
    data_config: DatasetConfig,
) -> tuple[int, np.ndarray]:
    """Class index (argmax, lowest index wins ties) and g's raw outputs."""
    out = score_clips(contact, action, [clip], data_config)[0]
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


_READ_BLOCK = 1 << 18  # float32 values per read of the parameter blocks (1 MB)


def _take(fh, count: int, what: str, path) -> bytes:
    raw = fh.read(count)
    if len(raw) != count:
        raise CheckpointError(f"{path}: truncated checkpoint while reading {what}")
    return raw


def load_checkpoint(path) -> nn.MlpModel:
    """Read a checkpoint back into a double-precision model."""
    try:
        with open(path, "rb") as fh:
            return _read_checkpoint(fh, path)
    except OSError as exc:
        raise DataIOError(f"cannot read checkpoint {path}: {exc}") from exc


def _read_checkpoint(fh, path) -> nn.MlpModel:
    """Check the header, the file size and the memory, then stream the float32 blocks.

    A checkpoint whose float64 parameters exceed ``MemAvailable`` is
    refused with ``ValidationError`` before they are allocated.  Each block
    is cast into its float64 view through one buffer of at most
    ``_READ_BLOCK`` values, so the file is never held whole.
    """
    raw = _take(fh, 8, "magic", path)
    if raw != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: bad magic {raw!r}; not a checkpoint file")
    version = struct.unpack("<I", _take(fh, 4, "version", path))[0]
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{path}: unsupported checkpoint version {version} (expected {CHECKPOINT_VERSION})"
        )
    n_layers = struct.unpack("<I", _take(fh, 4, "layer count", path))[0]
    if not 1 <= n_layers <= _MAX_LAYERS:
        raise CheckpointError(f"{path}: implausible layer count {n_layers}")
    headers = []
    for i in range(n_layers):
        d_in, d_out, code = struct.unpack("<IIB", _take(fh, 9, f"layer {i} header", path))
        if code not in _ACT_NAMES:
            raise CheckpointError(f"{path}: layer {i}: unknown activation code {code}")
        if d_in < 1 or d_out < 1:
            raise CheckpointError(f"{path}: layer {i}: bad dims {d_in}x{d_out}")
        headers.append((d_in, d_out, _ACT_NAMES[code]))
    dims = [headers[0][0]] + [d_out for _, d_out, _ in headers]
    for i in range(1, n_layers):
        if headers[i][0] != dims[i]:
            raise CheckpointError(
                f"{path}: inconsistent checkpoint: layer {i} input width {headers[i][0]} "
                f"does not chain from {dims[i]}"
            )
    count = nn.parameter_count(dims)
    expected = fh.tell() + 4 * count
    size = os.fstat(fh.fileno()).st_size
    if size < expected:
        raise CheckpointError(
            f"{path}: truncated checkpoint: {size} bytes, its layer dims {dims} need {expected}"
        )
    if size > expected:
        raise CheckpointError(f"{path}: {size - expected} trailing bytes after parameters")
    nn.check_memory(dims, 8, "loading")  # 8 B per float64 parameter
    params = np.empty(count)
    weights, biases = nn.layer_views(params, nn.weight_shapes(dims))
    buf = np.empty(min(count, _READ_BLOCK), dtype="<f4")
    for W, b in zip(weights, biases):  # file order: each layer's weights, then its bias
        for flat in (W.reshape(-1), b):
            for start in range(0, flat.size, buf.size):
                chunk = buf[:flat.size - start]
                if fh.readinto(chunk) != chunk.nbytes:  # the file shrank after the size check
                    raise CheckpointError(f"{path}: truncated checkpoint while reading parameters")
                flat[start:start + chunk.size] = chunk
    try:
        return nn.MlpModel(params, dims, [act for _, _, act in headers])
    except ValidationError as exc:
        raise CheckpointError(f"{path}: inconsistent checkpoint: {exc}") from exc


def load_checkpoint_meta(path) -> dict:
    """Read the JSON sidecar written next to a checkpoint; it must be one JSON object."""
    return read_json_object(_sidecar_path(path), "checkpoint sidecar")
