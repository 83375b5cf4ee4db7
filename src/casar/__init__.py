"""Contact-aware skeletal action recognition.

Derive per-joint contact/distant labels from 3D hand joints and object
meshes, train a contact-prediction network on per-frame samples, then
train an action classifier on contact-augmented skeleton clips.
"""

from .errors import (
    CasarError,
    CheckpointError,
    DataIOError,
    NumericError,
    ParseError,
    ShapeError,
    ValidationError,
)
from .geometry import (
    ContactMap,
    ContactThresholds,
    ObjectMesh,
    build_vertex_index,
    expand_bbox_21,
    label_contact_map,
    transform_points,
)
from .datamodel import (
    ActionClip,
    ContactSample,
    DatasetConfig,
    FrameSample,
    HandPose,
    ObjectAnnotation,
    encode_clip,
    encode_frame,
    resample_frames,
)
from .io import (
    load_clips,
    load_contact_targets,
    load_meshes,
    write_clips,
    write_contact_targets,
    write_meshes,
)
from .neuralcore import FocalParams, LrSchedule, MlpModel, focal_loss, forward, init_model
from .pipeline import (
    ActionModuleConfig,
    ContactModuleConfig,
    TrainedActionModule,
    TrainedContactModule,
    derive_contact_dataset,
    load_checkpoint,
    load_checkpoint_meta,
    predict_action,
    predict_contact,
    save_checkpoint,
    train_action_module,
    train_contact_module,
)
from .evaluation import (
    EvalReport,
    action_accuracy,
    confusion_matrix,
    contact_accuracy_by_object,
    evaluate_pipeline,
    run_ablation,
    write_report,
)
from .synth import CLASS_CATALOG, SynthSpec, synth_generate

__version__ = "0.1.0"

__all__ = [
    "CasarError",
    "CheckpointError",
    "DataIOError",
    "NumericError",
    "ParseError",
    "ShapeError",
    "ValidationError",
    "ContactMap",
    "ContactThresholds",
    "ObjectMesh",
    "build_vertex_index",
    "expand_bbox_21",
    "label_contact_map",
    "transform_points",
    "ActionClip",
    "ContactSample",
    "DatasetConfig",
    "FrameSample",
    "HandPose",
    "ObjectAnnotation",
    "encode_clip",
    "encode_frame",
    "resample_frames",
    "load_clips",
    "load_contact_targets",
    "load_meshes",
    "write_clips",
    "write_contact_targets",
    "write_meshes",
    "FocalParams",
    "LrSchedule",
    "MlpModel",
    "focal_loss",
    "forward",
    "init_model",
    "ActionModuleConfig",
    "ContactModuleConfig",
    "TrainedActionModule",
    "TrainedContactModule",
    "derive_contact_dataset",
    "load_checkpoint",
    "load_checkpoint_meta",
    "predict_action",
    "predict_contact",
    "save_checkpoint",
    "train_action_module",
    "train_contact_module",
    "EvalReport",
    "action_accuracy",
    "confusion_matrix",
    "contact_accuracy_by_object",
    "evaluate_pipeline",
    "run_ablation",
    "write_report",
    "CLASS_CATALOG",
    "SynthSpec",
    "synth_generate",
]
