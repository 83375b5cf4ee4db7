"""Command-line surface for reproducible runs.

Subcommands: synth, derive-contact, train-contact, train-action, eval,
predict, ablation.  Every command with filesystem outputs writes a run
manifest next to them; wall-clock data lives only in the manifest, so
rerunning with the same inputs and seeds leaves every other output file
byte-identical.  Failures print a one-line JSON error to stderr and exit
2 (validation/config), 3 (I/O or running out of memory), or 4 (numeric
failure).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from . import neuralcore as nn
from .datamodel import DatasetConfig
from .errors import (
    CasarError,
    CheckpointError,
    ShapeError,
    ValidationError,
)
from .evaluation import evaluate_pipeline, run_ablation, write_report
from .geometry import ContactThresholds
from .io import (
    atomic_write,
    load_clips,
    load_contact_targets,
    load_meshes,
    read_json_object,
    write_clips,
    write_contact_targets,
    write_meshes,
)
from .pipeline import (
    ACTION_HEADS,
    ActionModuleConfig,
    ContactModuleConfig,
    TrainedActionModule,
    TrainedContactModule,
    derive_contact_dataset,
    load_checkpoint,
    load_checkpoint_meta,
    save_checkpoint,
    score_clips,
    train_action_module,
    train_contact_module,
)
from .synth import SynthSpec, synth_generate

_CONFIG_SECTIONS = ("dataset", "thresholds", "contact", "action")


def _write_manifest(path: Path, t0: float, command: str, **fields) -> None:
    """Write a run manifest with its eight documented keys.

    ``fields`` are ``config``, ``seeds``, ``inputs`` and ``outputs``; the
    wall-clock ``started_utc`` and ``elapsed_seconds`` count from ``t0``.
    """
    manifest = {
        "command": command,
        "tool_version": __version__,
        **fields,
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(t0)),
        "elapsed_seconds": round(time.time() - t0, 3),
    }
    with atomic_write(path) as fh:
        fh.write(json.dumps(manifest, sort_keys=True, indent=2) + "\n")


def _print_error(kind: str, message: str) -> None:
    print(json.dumps({"error": kind, "message": message}), file=sys.stderr)


# ---------------------------------------------------------------------------
# configs: the --config file, the flags, the checkpoint sidecars


def _load_config(path) -> dict:
    doc = {} if path is None else read_json_object(path, "config")
    unknown = set(doc) - set(_CONFIG_SECTIONS)
    if unknown:
        raise ValidationError(
            f"config {path}: unknown sections {sorted(unknown)}; "
            f"expected a subset of {list(_CONFIG_SECTIONS)}"
        )
    return doc


def _build(cls, raw, where: str, flags: dict | None = None, lenient: bool = False):
    """A config dataclass from the JSON object ``raw``; its errors start with ``where``.

    Unknown keys are rejected, or dropped when ``lenient``: a sidecar written
    by an older casar may carry retired fields.  A nested ``thresholds``
    object, as a sidecar's dataset carries, is built the same way, strictly.
    Entries of ``flags`` that name a field and are not None then replace
    values of the checked config, so a flag never hides a bad file value.
    """
    if not isinstance(raw, dict):
        raise ValidationError(f"{where}: expected a JSON object, got {type(raw).__name__}")
    names = {f.name for f in dataclasses.fields(cls)}
    if not lenient and raw.keys() - names:
        raise ValidationError(f"{where}: unknown keys {sorted(raw.keys() - names)}")
    kwargs = {k: v for k, v in raw.items() if k in names}
    if isinstance(kwargs.get("thresholds"), dict):
        kwargs["thresholds"] = _build(ContactThresholds, kwargs["thresholds"],
                                      f"{where} thresholds")
    try:
        config = cls(**kwargs)
    except ValidationError as exc:
        raise type(exc)(f"{where}: {exc}") from exc
    flags = {k: v for k, v in (flags or {}).items() if k in names and v is not None}
    return dataclasses.replace(config, **flags) if flags else config


def _dataset_config(doc: dict, args, *sidecars: tuple) -> DatasetConfig:
    """The config file's dataset, else the first sidecar's that has one, else the defaults.

    ``sidecars`` are ``(checkpoint path, sidecar)`` pairs.  The file's
    ``thresholds`` section replaces the chosen dataset's thresholds, and
    threshold flags (``--eta-c``, ``--eta-d``) win over both.
    """
    where, section = f"config {args.config}", doc.get("dataset", {})
    if isinstance(section, dict) and "thresholds" in section:
        raise ValidationError(
            f'{where} dataset section: eta values belong in the top-level "thresholds" section'
        )
    if "dataset" in doc:
        dc = _build(DatasetConfig, section, f"{where} dataset section")
    else:
        dc = next((_build(DatasetConfig, meta["dataset"], f"{ckpt} sidecar dataset", lenient=True)
                   for ckpt, meta in sidecars if "dataset" in meta), DatasetConfig())
    raw = doc.get("thresholds", dataclasses.asdict(dc.thresholds))
    thresholds = _build(ContactThresholds, raw, f"{where} thresholds section", vars(args))
    return dataclasses.replace(dc, thresholds=thresholds)


# ---------------------------------------------------------------------------
# checkpoint loading and saving


def _load_module(path, config_cls):
    """A contact or action checkpoint as a trained module, config from its sidecar."""
    model = load_checkpoint(path)
    meta = load_checkpoint_meta(path)
    # a sidecar written by the library's save_checkpoint carries no config
    raw = meta.get("config", {"hidden_width": model.layer_dims[1]})
    config = _build(config_cls, raw, f"{path} sidecar config", lenient=True)
    module_cls = TrainedContactModule if config_cls is ContactModuleConfig else TrainedActionModule
    return module_cls(model=model, config=config), meta


def _load_pipeline(args, doc: dict):
    """f and g from ``--contact-ckpt``/``--action-ckpt``, checked to belong together."""
    contact, cmeta = _load_module(args.contact_ckpt, ContactModuleConfig)
    action, ameta = _load_module(args.action_ckpt, ActionModuleConfig)
    trained_with, loaded = ameta.get("contact_digest"), contact.parameter_digest()
    if trained_with is not None and trained_with != loaded:
        raise CheckpointError(
            f"{args.action_ckpt} was trained with contact network {trained_with}, "
            f"but {args.contact_ckpt} holds {loaded}"
        )
    dc = _dataset_config(doc, args, (args.action_ckpt, ameta), (args.contact_ckpt, cmeta))
    _check_widths(dc, contact, action)
    return contact, action, dc


def _check_widths(dc: DatasetConfig, contact: TrainedContactModule,
                  action: TrainedActionModule | None = None) -> None:
    if contact.model.input_dim != dc.frame_dim:
        raise ShapeError(
            f"contact checkpoint expects input width {contact.model.input_dim}, "
            f"frame encoding is {dc.frame_dim}"
        )
    if action is None:
        return
    expected = dc.augmented_clip_dim if action.config.augment_contact else dc.clip_dim
    if action.model.input_dim != expected:
        raise ShapeError(
            f"action checkpoint expects input width {action.model.input_dim}, "
            f"clip encoding is {expected}"
        )


def _save_trained(args, t0: float, module, history: list, dc: DatasetConfig,
                  inputs: dict, **meta) -> None:
    """Write a trained network's checkpoint, its sidecar and its run manifest."""
    kind = "contact" if isinstance(module, TrainedContactModule) else "action"
    config, dataset = dataclasses.asdict(module.config), dataclasses.asdict(dc)
    out = Path(args.out)
    save_checkpoint(module.model, out, {
        "kind": kind, "tool_version": __version__, "config": config, "dataset": dataset,
        "final_loss": history[-1], **meta,
    })
    _write_manifest(out.with_name(out.name + ".manifest.json"), t0, f"train-{kind}",
                    config={"dataset": dataset, kind: config}, seeds={kind: module.config.seed},
                    inputs=inputs, outputs={"checkpoint": str(out)})
    unit = "samples" if kind == "contact" else "clips"
    print(f"trained {kind} module on {meta[unit]} {unit}, "
          f"loss {history[0]:.6f} -> {history[-1]:.6f}, saved to {out}")


# ---------------------------------------------------------------------------
# commands


def cmd_synth(args) -> int:
    t0 = time.time()
    spec = SynthSpec(
        class_count=args.classes,
        clips_per_class=args.clips_per_class,
        frames_range=(args.frames_min, args.frames_max),
        noise_sigma=args.noise,
        seed=args.seed,
    )
    clips, meshes, contacts = synth_generate(spec)
    out = Path(args.out)
    # meshes/ first: a directory that cannot take it fails before any file is written
    write_meshes(meshes, out / "meshes")
    write_clips(clips, out / "clips.jsonl")
    write_contact_targets(contacts, out / "contacts.jsonl")
    _write_manifest(out / "manifest.json", t0, "synth",
                    config={"synth": dataclasses.asdict(spec)}, seeds={"synth": spec.seed},
                    inputs={}, outputs={"clips": str(out / "clips.jsonl"),
                                        "meshes": str(out / "meshes"),
                                        "contacts": str(out / "contacts.jsonl")})
    print(f"wrote {len(clips)} clips, {len(meshes)} meshes, "
          f"{len(contacts)} contact samples to {out}")
    return 0


def cmd_derive_contact(args) -> int:
    t0 = time.time()
    # a flag wins over the preset, which wins over the config file
    if args.eta_d is None and args.preset == "fpha":
        args.eta_d = 0.10
    dc = _dataset_config(_load_config(args.config), args)
    clips = load_clips(args.clips, dc)
    meshes = load_meshes(args.meshes, {clip.mesh_id for clip in clips})
    samples = derive_contact_dataset(clips, meshes, dc.thresholds)
    out = Path(args.out)
    write_contact_targets(samples, out)
    _write_manifest(out.with_name(out.name + ".manifest.json"), t0, "derive-contact",
                    config={"dataset": dataclasses.asdict(dc)}, seeds={},
                    inputs={"clips": str(args.clips), "meshes": str(args.meshes)},
                    outputs={"contacts": str(out)})
    print(f"derived {len(samples)} contact samples "
          f"(eta_c={dc.thresholds.eta_c}, eta_d={dc.thresholds.eta_d}) to {out}")
    return 0


def cmd_train_contact(args) -> int:
    t0 = time.time()
    doc = _load_config(args.config)
    dc = _dataset_config(doc, args)
    fcfg = _build(ContactModuleConfig, doc.get("contact", {}),
                  f"config {args.config} contact section", vars(args))
    data = Path(args.data)
    contacts = load_contact_targets(data / "contacts.jsonl",
                                    load_clips(data / "clips.jsonl", dc), dc)
    module, history = train_contact_module(contacts, fcfg, dc)
    _save_trained(args, t0, module, history, dc, {"data": str(args.data)}, samples=len(contacts))
    return 0


def cmd_train_action(args) -> int:
    t0 = time.time()
    doc = _load_config(args.config)
    contact, cmeta = _load_module(args.contact_ckpt, ContactModuleConfig)
    dc = _dataset_config(doc, args, (args.contact_ckpt, cmeta))
    _check_widths(dc, contact)
    gcfg = _build(ActionModuleConfig, doc.get("action", {}),
                  f"config {args.config} action section", vars(args))
    clips = load_clips(Path(args.data) / "clips.jsonl", dc)
    action, history = train_action_module(clips, contact, gcfg, dc)
    _save_trained(args, t0, action, history, dc,
                  {"data": str(args.data), "contact_ckpt": str(args.contact_ckpt)},
                  contact_digest=contact.parameter_digest(), clips=len(clips))
    return 0


def cmd_eval(args) -> int:
    t0 = time.time()
    contact, action, dc = _load_pipeline(args, _load_config(args.config))
    data = Path(args.data)
    clips = load_clips(data / "clips.jsonl", dc)
    # without contact targets the report's contact accuracies are NaN
    cpath = data / "contacts.jsonl"
    contacts = load_contact_targets(cpath, clips, dc) if cpath.exists() else []
    report = evaluate_pipeline(contact, action, clips, contacts, dc)
    inputs = {"data": str(args.data), "contact_ckpt": str(args.contact_ckpt),
              "action_ckpt": str(args.action_ckpt)}
    write_report(report, args.report,
                 provenance={"command": "eval", "tool_version": __version__, **inputs})
    _write_manifest(Path(args.report) / "manifest.json", t0, "eval",
                    config={"dataset": dataclasses.asdict(dc)}, seeds={}, inputs=inputs,
                    outputs={"report": str(args.report)})
    print(f"top-1 accuracy {report.top1_accuracy:.4f} over {report.clip_count} clips; "
          f"report written to {args.report}")
    return 0


def cmd_predict(args) -> int:
    contact, action, dc = _load_pipeline(args, _load_config(args.config))
    clips = load_clips(args.clip, dc)
    scores = score_clips(contact, action, clips, dc)
    probs = nn.softmax(scores) if action.config.action_head == "softmax_ce" else scores
    for clip, idx, row in zip(clips, np.argmax(scores, axis=1), probs):
        print(json.dumps({
            "clip_id": clip.clip_id,
            "predicted_class": int(idx),
            "probabilities": [float(p) for p in row],
        }))
    return 0


def cmd_ablation(args) -> int:
    t0 = time.time()
    doc = _load_config(args.config)
    contact = None
    if args.contact_ckpt is not None:
        contact, cmeta = _load_module(args.contact_ckpt, ContactModuleConfig)
        dc = _dataset_config(doc, args, (args.contact_ckpt, cmeta))
        _check_widths(dc, contact)
    else:
        dc = _dataset_config(doc, args)
    data = Path(args.data)
    train_clips = load_clips(data / "clips.jsonl", dc)
    if args.test_data is not None:
        test_clips = load_clips(Path(args.test_data) / "clips.jsonl", dc)
    else:
        test_clips = train_clips
    if contact is None:
        # the training flags are g's; f comes from the config file alone
        fcfg = _build(ContactModuleConfig, doc.get("contact", {}),
                      f"config {args.config} contact section")
        contacts = load_contact_targets(data / "contacts.jsonl", train_clips, dc)
        contact, _ = train_contact_module(contacts, fcfg, dc)
    gcfg = _build(ActionModuleConfig, doc.get("action", {}),
                  f"config {args.config} action section", vars(args))
    rows = run_ablation(train_clips, test_clips, contact, gcfg, dc)
    report = Path(args.report)
    with atomic_write(report / "ablation.csv") as fh:
        fh.write("variant,accuracy\n")
        for row in rows:
            fh.write(f"{row.variant},{row.accuracy!r}\n")
    _write_manifest(report / "manifest.json", t0, "ablation",
                    config={"dataset": dataclasses.asdict(dc), "action": dataclasses.asdict(gcfg)},
                    seeds={"action": gcfg.seed},
                    inputs={"data": str(args.data), "test_data": str(args.test_data or args.data),
                            "contact_ckpt": args.contact_ckpt and str(args.contact_ckpt)},
                    outputs={"report": str(report / "ablation.csv")})
    for row in rows:
        print(f"{row.variant:16s} {row.accuracy:.4f}")
    return 0


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        _print_error("UsageError", message)
        raise SystemExit(2)


def _add_train_flags(sub, cfg) -> None:
    """``cfg``'s training flags: each dest names a field, each help shows its default."""
    unit = "frames" if isinstance(cfg, ContactModuleConfig) else "clips"
    sub.add_argument("--hidden-width", type=int,
                     help=f"hidden layer width (default: {cfg.hidden_width})")
    sub.add_argument("--epochs", type=int, help=f"training epochs (default: {cfg.epochs})")
    sub.add_argument("--lr", dest="base_lr", metavar="LR", type=float,
                     help=f"base learning rate, decays x{cfg.lr_decay_factor} per period "
                          f"(default: {cfg.base_lr})")
    sub.add_argument("--batch-size", type=int,
                     help=f"mini-batch size (default: {cfg.batch_size} {unit})")
    sub.add_argument("--seed", type=int,
                     help=f"initialization and shuffling seed (default: {cfg.seed})")
    if isinstance(cfg, ActionModuleConfig):
        sub.add_argument("--action-head", choices=ACTION_HEADS,
                         help=f"output head and loss (default: {cfg.action_head})")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="casar",
        description="Contact-aware skeletal action recognition: synthesize data, "
                    "derive contact labels, train the contact and action networks, "
                    "evaluate, predict.",
    )
    parser.add_argument("--version", action="version", version=f"casar {__version__}")
    subs = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = subs.add_parser("synth", parents=[], help="generate a synthetic labeled dataset",
                        description="Generate a synthetic dataset: clips.jsonl, meshes/, "
                                    "contacts.jsonl, and a run manifest.")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=0, help="generator seed (default: 0)")
    p.add_argument("--classes", type=int, default=6,
                   help="number of action classes, 2..12 (default: 6)")
    p.add_argument("--clips-per-class", type=int, default=10,
                   help="clips per class (default: 10)")
    p.add_argument("--noise", type=float, default=0.003,
                   help="joint noise sigma in meters (default: 0.003)")
    p.add_argument("--frames-min", type=int, default=20,
                   help="minimum raw clip length (default: 20)")
    p.add_argument("--frames-max", type=int, default=60,
                   help="maximum raw clip length (default: 60)")
    p.set_defaults(func=cmd_synth)

    p = subs.add_parser("derive-contact", help="label clips against object meshes",
                        description="Derive per-joint contact/distant labels for every "
                                    "raw frame of every clip.")
    p.add_argument("--clips", required=True, help="clips.jsonl path")
    p.add_argument("--meshes", required=True, help="mesh directory")
    thresholds = DatasetConfig().thresholds
    p.add_argument("--eta-c", type=float,
                   help=f"contact threshold in meters (default: {thresholds.eta_c})")
    p.add_argument("--eta-d", type=float,
                   help=f"distant threshold in meters (default: {thresholds.eta_d})")
    p.add_argument("--preset", choices=["fpha"], default=None,
                   help="dataset preset: fpha sets eta_d=0.10 (default: none)")
    p.add_argument("--config", default=None, help="JSON config file (flags win)")
    p.add_argument("--out", required=True, help="output contacts.jsonl path")
    p.set_defaults(func=cmd_derive_contact)

    p = subs.add_parser("train-contact", help="train the contact network f",
                        description="Train the per-frame contact network on a dataset "
                                    "directory holding clips.jsonl and contacts.jsonl.")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--config", default=None, help="JSON config file (flags win)")
    p.add_argument("--out", required=True, help="output checkpoint path")
    _add_train_flags(p, ContactModuleConfig())
    p.set_defaults(func=cmd_train_contact)

    p = subs.add_parser("train-action", help="train the action network g",
                        description="Train the clip-level action classifier on "
                                    "contact-augmented encodings; f stays frozen.")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--contact-ckpt", required=True, help="trained contact checkpoint")
    p.add_argument("--config", default=None, help="JSON config file (flags win)")
    p.add_argument("--out", required=True, help="output checkpoint path")
    _add_train_flags(p, ActionModuleConfig())
    p.set_defaults(func=cmd_train_action)

    p = subs.add_parser("eval", help="evaluate a trained pipeline",
                        description="Write metrics.json, confusion.csv, per_object.csv "
                                    "for a trained pipeline on a dataset directory.")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--contact-ckpt", required=True, help="trained contact checkpoint")
    p.add_argument("--action-ckpt", required=True, help="trained action checkpoint")
    p.add_argument("--config", default=None, help="JSON config file (flags win)")
    p.add_argument("--report", required=True, help="report output directory")
    p.set_defaults(func=cmd_eval)

    p = subs.add_parser("predict", help="classify clips, JSON lines to stdout",
                        description="Print one JSON object per clip: clip_id, "
                                    "predicted_class, probabilities.")
    p.add_argument("--clip", required=True, help="clips.jsonl path (1 or more clips)")
    p.add_argument("--contact-ckpt", required=True, help="trained contact checkpoint")
    p.add_argument("--action-ckpt", required=True, help="trained action checkpoint")
    p.add_argument("--config", default=None, help="JSON config file (flags win)")
    p.set_defaults(func=cmd_predict)

    p = subs.add_parser("ablation", help="train and score the four mask variants",
                        description="Run the contact-feature ablation: baseline, "
                                    "contact-only, distant-only, contact+distant.")
    p.add_argument("--data", required=True, help="training dataset directory")
    p.add_argument("--test-data", default=None,
                   help="evaluation dataset directory (default: same as --data)")
    p.add_argument("--contact-ckpt", default=None,
                   help="reuse a trained contact checkpoint instead of training one")
    p.add_argument("--config", default=None, help="JSON config file (flags win)")
    p.add_argument("--report", required=True, help="report output directory")
    _add_train_flags(p, ActionModuleConfig())
    p.set_defaults(func=cmd_ablation)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "func", None) is None:
        parser.print_help()
        return 2
    try:
        # a diverging fit is reported once, by forward's NumericError
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.func(args)
    except CasarError as exc:
        _print_error(type(exc).__name__, str(exc))
        return exc.exit_code
    except OSError as exc:
        _print_error(type(exc).__name__, str(exc))
        return 3
    except MemoryError as exc:  # a resource limit, like an unwritable disk
        _print_error("MemoryError", f"out of memory: {exc}" if str(exc) else "out of memory")
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
