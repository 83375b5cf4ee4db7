"""Contact-aware skeletal action recognition.

Derive per-joint contact/distant labels from 3D hand joints and object
meshes, train a contact-prediction network on per-frame samples, then
train an action classifier on contact-augmented skeleton clips.

The package root holds the library-use names shown in the README and the
error classes; everything else lives in its submodule (``casar.io``,
``casar.evaluation``, ``casar.geometry``, ...).
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
from .datamodel import DatasetConfig
from .pipeline import (
    ActionModuleConfig,
    ContactModuleConfig,
    predict_action,
    train_action_module,
    train_contact_module,
)
from .synth import SynthSpec, synth_generate

__version__ = "0.1.0"

__all__ = [
    "CasarError",
    "CheckpointError",
    "DataIOError",
    "NumericError",
    "ParseError",
    "ShapeError",
    "ValidationError",
    "DatasetConfig",
    "ActionModuleConfig",
    "ContactModuleConfig",
    "predict_action",
    "train_action_module",
    "train_contact_module",
    "SynthSpec",
    "synth_generate",
]
