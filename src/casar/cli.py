"""Command-line surface for reproducible runs.

Subcommands: synth, derive-contact, train-contact, train-action, eval,
predict, ablation.  Every command with filesystem outputs writes a run
manifest next to them; wall-clock data lives only in the manifest, so
rerunning with the same inputs and seeds leaves every other output file
byte-identical.  Failures print a one-line JSON error to stderr and exit
2 (validation/config), 3 (I/O), or 4 (numeric failure).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

from . import __version__
from . import neuralcore as nn
from .datamodel import DatasetConfig
from .errors import (
    CasarError,
    CheckpointError,
    DataIOError,
    ParseError,
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
    write_clips,
    write_contact_targets,
    write_meshes,
)
from .pipeline import (
    ActionModuleConfig,
    ContactModuleConfig,
    TrainedActionModule,
    TrainedContactModule,
    derive_contact_dataset,
    load_checkpoint,
    load_checkpoint_meta,
    predict_action,
    save_checkpoint,
    train_action_module,
    train_contact_module,
)
from .synth import SynthSpec, synth_generate

_CONFIG_SECTIONS = ("dataset", "thresholds", "contact", "action")


@dataclasses.dataclass
class RunManifest:
    """What ran, with what configuration, on what, producing what."""

    command: str
    tool_version: str
    config: dict
    seeds: dict
    inputs: dict
    outputs: dict
    started_utc: str
    elapsed_seconds: float


def _utc_now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def _write_manifest(manifest: RunManifest, path: Path) -> None:
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise DataIOError(f"cannot write manifest {path}: {exc}") from exc
    with atomic_write(path) as fh:
        fh.write(json.dumps(dataclasses.asdict(manifest), sort_keys=True, indent=2) + "\n")


def _print_error(kind: str, message: str) -> None:
    print(json.dumps({"error": kind, "message": message}), file=sys.stderr)


# ---------------------------------------------------------------------------
# config document handling


def _load_config(path) -> dict:
    if path is None:
        return {}
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise DataIOError(f"cannot read config {path}: {exc}") from exc
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ParseError(f"config {path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValidationError(f"config {path}: expected a JSON object at top level")
    unknown = set(doc) - set(_CONFIG_SECTIONS)
    if unknown:
        raise ValidationError(
            f"config {path}: unknown sections {sorted(unknown)}; "
            f"expected a subset of {list(_CONFIG_SECTIONS)}"
        )
    return doc


def _build_section(cls, section: dict, overrides: dict, what: str):
    """Instantiate a config dataclass from a JSON section plus flag overrides.

    Flags win over the file; the dataclass itself validates values.
    """
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = set(section) - known
    if unknown:
        raise ValidationError(f"{what}: unknown keys {sorted(unknown)}")
    merged = dict(section)
    merged.update({k: v for k, v in overrides.items() if v is not None})
    return cls(**merged)


def _dataset_config(doc: dict, eta_c: float | None = None, eta_d: float | None = None) -> DatasetConfig:
    section = dict(doc.get("dataset", {}))
    if "thresholds" in section:
        raise ValidationError(
            'config: eta values belong in the top-level "thresholds" section'
        )
    tsec = dict(doc.get("thresholds", {}))
    unknown = set(tsec) - {"eta_c", "eta_d"}
    if unknown:
        raise ValidationError(f"config thresholds section: unknown keys {sorted(unknown)}")
    default = DatasetConfig().thresholds
    cval = eta_c if eta_c is not None else tsec.get("eta_c", default.eta_c)
    dval = eta_d if eta_d is not None else tsec.get("eta_d", default.eta_d)
    thr = ContactThresholds(eta_c=cval, eta_d=dval)
    return _build_section(DatasetConfig, section, {"thresholds": thr}, "config dataset section")


# config field -> command-line flag (argparse dest) of the training commands
_TRAIN_FLAGS = {"hidden_width": "hidden_width", "epochs": "epochs", "base_lr": "lr",
                "batch_size": "batch_size", "seed": "seed", "action_head": "action_head"}


def _module_config(cls, doc: dict, section: str, args=None):
    """A network's config from the file's ``section``, the training flags winning.

    With ``args`` None the file section alone decides.
    """
    overrides = {key: getattr(args, flag, None) for key, flag in _TRAIN_FLAGS.items()}
    return _build_section(cls, doc.get(section, {}), overrides, f"config {section} section")


def _dataset_from_meta(meta: dict) -> DatasetConfig | None:
    raw = meta.get("dataset")
    if not isinstance(raw, dict):
        return None
    raw = dict(raw)
    thr = raw.pop("thresholds", None)
    known = {f.name for f in dataclasses.fields(DatasetConfig)}
    kwargs = {k: v for k, v in raw.items() if k in known}
    if isinstance(thr, dict):
        kwargs["thresholds"] = ContactThresholds(**thr)
    return DatasetConfig(**kwargs)


def _resolve_dataset_config(doc: dict, *metas: dict) -> DatasetConfig:
    """Config file wins, then the first checkpoint sidecar carrying one."""
    if "dataset" in doc or "thresholds" in doc:
        return _dataset_config(doc)
    for meta in metas:
        dc = _dataset_from_meta(meta)
        if dc is not None:
            return dc
    return DatasetConfig()


# ---------------------------------------------------------------------------
# checkpoint loading


def _filtered_kwargs(cls, raw) -> dict:
    if not isinstance(raw, dict):
        return {}
    known = {f.name for f in dataclasses.fields(cls)}
    return {k: v for k, v in raw.items() if k in known}


_MODULE_TYPES = {
    "contact": (TrainedContactModule, ContactModuleConfig),
    "action": (TrainedActionModule, ActionModuleConfig),
}


def _load_module(path, kind: str):
    """A contact or action checkpoint as a trained module, config from its sidecar."""
    module_cls, config_cls = _MODULE_TYPES[kind]
    model = load_checkpoint(path)
    meta = load_checkpoint_meta(path)
    kwargs = _filtered_kwargs(config_cls, meta.get("config"))
    kwargs.setdefault("hidden_width", model.layer_dims[1])
    return module_cls(model=model, config=config_cls(**kwargs)), meta


def _load_pipeline(args, doc: dict):
    """f and g from ``--contact-ckpt``/``--action-ckpt``, checked to belong together."""
    contact, cmeta = _load_module(args.contact_ckpt, "contact")
    action, ameta = _load_module(args.action_ckpt, "action")
    trained_with, loaded = ameta.get("contact_digest"), contact.parameter_digest()
    if trained_with is not None and trained_with != loaded:
        raise CheckpointError(
            f"{args.action_ckpt} was trained with contact network {trained_with}, "
            f"but {args.contact_ckpt} holds {loaded}"
        )
    dc = _resolve_dataset_config(doc, ameta, cmeta)
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


# ---------------------------------------------------------------------------
# dataset directory layout


def _load_dataset(data_dir, dc: DatasetConfig, need_contacts: bool):
    d = Path(data_dir)
    clips_path = d / "clips.jsonl"
    if not clips_path.is_file():
        raise DataIOError(f"no clips.jsonl under {d}")
    clips = load_clips(clips_path, dc)
    meshes = {}
    if (d / "meshes").is_dir():
        meshes = load_meshes(d / "meshes")
    contacts = []
    cpath = d / "contacts.jsonl"
    if cpath.is_file():
        contacts = load_contact_targets(cpath, clips, dc)
    elif need_contacts:
        raise DataIOError(
            f"no contacts.jsonl under {d}; run the synth or derive-contact command first"
        )
    return clips, meshes, contacts


# ---------------------------------------------------------------------------
# commands


def cmd_synth(args) -> int:
    started, t0 = _utc_now(), time.time()
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
    _write_manifest(RunManifest(
        command="synth",
        tool_version=__version__,
        config={"synth": dataclasses.asdict(spec)},
        seeds={"synth": spec.seed},
        inputs={},
        outputs={"clips": str(out / "clips.jsonl"), "meshes": str(out / "meshes"),
                 "contacts": str(out / "contacts.jsonl")},
        started_utc=started,
        elapsed_seconds=round(time.time() - t0, 3),
    ), out / "manifest.json")
    print(f"wrote {len(clips)} clips, {len(meshes)} meshes, "
          f"{len(contacts)} contact samples to {out}")
    return 0


def cmd_derive_contact(args) -> int:
    started, t0 = _utc_now(), time.time()
    doc = _load_config(args.config)
    # a flag wins over the preset, which wins over the config file
    eta_d = 0.10 if args.eta_d is None and args.preset == "fpha" else args.eta_d
    dc = _dataset_config(doc, args.eta_c, eta_d)
    clips = load_clips(args.clips, dc)
    meshes = load_meshes(args.meshes)
    samples = derive_contact_dataset(clips, meshes, dc.thresholds)
    out = Path(args.out)
    write_contact_targets(samples, out)
    _write_manifest(RunManifest(
        command="derive-contact",
        tool_version=__version__,
        config={"dataset": dataclasses.asdict(dc)},
        seeds={},
        inputs={"clips": str(args.clips), "meshes": str(args.meshes)},
        outputs={"contacts": str(out)},
        started_utc=started,
        elapsed_seconds=round(time.time() - t0, 3),
    ), out.with_name(out.name + ".manifest.json"))
    print(f"derived {len(samples)} contact samples "
          f"(eta_c={dc.thresholds.eta_c}, eta_d={dc.thresholds.eta_d}) to {out}")
    return 0


def cmd_train_contact(args) -> int:
    started, t0 = _utc_now(), time.time()
    doc = _load_config(args.config)
    dc = _dataset_config(doc)
    fcfg = _module_config(ContactModuleConfig, doc, "contact", args)
    _, _, contacts = _load_dataset(args.data, dc, need_contacts=True)
    module, history = train_contact_module(contacts, fcfg, dc)
    out = Path(args.out)
    meta = {
        "kind": "contact",
        "tool_version": __version__,
        "config": dataclasses.asdict(fcfg),
        "dataset": dataclasses.asdict(dc),
        "samples": len(contacts),
        "final_loss": history[-1],
    }
    save_checkpoint(module.model, out, meta)
    _write_manifest(RunManifest(
        command="train-contact",
        tool_version=__version__,
        config={"dataset": dataclasses.asdict(dc), "contact": dataclasses.asdict(fcfg)},
        seeds={"contact": fcfg.seed},
        inputs={"data": str(args.data)},
        outputs={"checkpoint": str(out)},
        started_utc=started,
        elapsed_seconds=round(time.time() - t0, 3),
    ), out.with_name(out.name + ".manifest.json"))
    print(f"trained contact module on {len(contacts)} samples, "
          f"loss {history[0]:.6f} -> {history[-1]:.6f}, saved to {out}")
    return 0


def cmd_train_action(args) -> int:
    started, t0 = _utc_now(), time.time()
    doc = _load_config(args.config)
    contact, cmeta = _load_module(args.contact_ckpt, "contact")
    dc = _resolve_dataset_config(doc, cmeta)
    _check_widths(dc, contact)
    gcfg = _module_config(ActionModuleConfig, doc, "action", args)
    clips, _, _ = _load_dataset(args.data, dc, need_contacts=False)
    action, history = train_action_module(clips, contact, gcfg, dc)
    out = Path(args.out)
    meta = {
        "kind": "action",
        "tool_version": __version__,
        "config": dataclasses.asdict(gcfg),
        "dataset": dataclasses.asdict(dc),
        "contact_digest": contact.parameter_digest(),
        "clips": len(clips),
        "final_loss": history[-1],
    }
    save_checkpoint(action.model, out, meta)
    _write_manifest(RunManifest(
        command="train-action",
        tool_version=__version__,
        config={"dataset": dataclasses.asdict(dc), "action": dataclasses.asdict(gcfg)},
        seeds={"action": gcfg.seed},
        inputs={"data": str(args.data), "contact_ckpt": str(args.contact_ckpt)},
        outputs={"checkpoint": str(out)},
        started_utc=started,
        elapsed_seconds=round(time.time() - t0, 3),
    ), out.with_name(out.name + ".manifest.json"))
    print(f"trained action module on {len(clips)} clips, "
          f"loss {history[0]:.6f} -> {history[-1]:.6f}, saved to {out}")
    return 0


def cmd_eval(args) -> int:
    started, t0 = _utc_now(), time.time()
    doc = _load_config(args.config)
    contact, action, dc = _load_pipeline(args, doc)
    clips, _, contacts = _load_dataset(args.data, dc, need_contacts=False)
    report = evaluate_pipeline(contact, action, clips, contacts, dc)
    write_report(report, args.report, provenance={
        "command": "eval",
        "tool_version": __version__,
        "data": str(args.data),
        "contact_ckpt": str(args.contact_ckpt),
        "action_ckpt": str(args.action_ckpt),
    })
    _write_manifest(RunManifest(
        command="eval",
        tool_version=__version__,
        config={"dataset": dataclasses.asdict(dc)},
        seeds={},
        inputs={"data": str(args.data), "contact_ckpt": str(args.contact_ckpt),
                "action_ckpt": str(args.action_ckpt)},
        outputs={"report": str(args.report)},
        started_utc=started,
        elapsed_seconds=round(time.time() - t0, 3),
    ), Path(args.report) / "manifest.json")
    print(f"top-1 accuracy {report.top1_accuracy:.4f} over {report.clip_count} clips; "
          f"report written to {args.report}")
    return 0


def cmd_predict(args) -> int:
    doc = _load_config(args.config)
    contact, action, dc = _load_pipeline(args, doc)
    clips = load_clips(args.clip, dc)
    for clip in clips:
        idx, out = predict_action(contact, action, clip, dc)
        probs = nn.softmax(out) if action.config.action_head == "softmax_ce" else out
        print(json.dumps({
            "clip_id": clip.clip_id,
            "predicted_class": idx,
            "probabilities": [float(p) for p in probs],
        }))
    return 0


def cmd_ablation(args) -> int:
    started, t0 = _utc_now(), time.time()
    doc = _load_config(args.config)
    dc = _dataset_config(doc)
    train_clips, _, contacts = _load_dataset(
        args.data, dc, need_contacts=args.contact_ckpt is None)
    if args.test_data is not None:
        test_clips, _, _ = _load_dataset(args.test_data, dc, need_contacts=False)
    else:
        test_clips = train_clips
    if args.contact_ckpt is not None:
        contact, _ = _load_module(args.contact_ckpt, "contact")
    else:
        # the training flags are g's; f comes from the config file alone
        fcfg = _module_config(ContactModuleConfig, doc, "contact")
        contact, _ = train_contact_module(contacts, fcfg, dc)
    gcfg = _module_config(ActionModuleConfig, doc, "action", args)
    rows = run_ablation(train_clips, test_clips, contact, gcfg, dc)
    report = Path(args.report)
    try:
        report.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise DataIOError(f"cannot write ablation report to {report}: {exc}") from exc
    with atomic_write(report / "ablation.csv") as fh:
        fh.write("variant,accuracy\n")
        for row in rows:
            fh.write(f"{row.variant},{row.accuracy!r}\n")
    _write_manifest(RunManifest(
        command="ablation",
        tool_version=__version__,
        config={"dataset": dataclasses.asdict(dc), "action": dataclasses.asdict(gcfg)},
        seeds={"action": gcfg.seed},
        inputs={"data": str(args.data),
                "test_data": str(args.test_data) if args.test_data else str(args.data),
                "contact_ckpt": str(args.contact_ckpt) if args.contact_ckpt else None},
        outputs={"report": str(report / "ablation.csv")},
        started_utc=started,
        elapsed_seconds=round(time.time() - t0, 3),
    ), report / "manifest.json")
    for row in rows:
        print(f"{row.variant:16s} {row.accuracy:.4f}")
    return 0


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        _print_error("UsageError", message)
        raise SystemExit(2)


def _add_train_flags(sub, contact: bool) -> None:
    widths = "256" if contact else "5000"
    epochs = "100" if contact else "600"
    lr = "1e-4" if contact else "1e-5"
    batch = "64 frames" if contact else "16 clips"
    sub.add_argument("--hidden-width", type=int, default=None,
                     help=f"hidden layer width (default: {widths})")
    sub.add_argument("--epochs", type=int, default=None,
                     help=f"training epochs (default: {epochs})")
    sub.add_argument("--lr", type=float, default=None,
                     help=f"base learning rate, decays x0.7 per period (default: {lr})")
    sub.add_argument("--batch-size", type=int, default=None,
                     help=f"mini-batch size (default: {batch})")
    sub.add_argument("--seed", type=int, default=None,
                     help="initialization and shuffling seed (default: 0)")


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
    p.add_argument("--eta-c", type=float, default=None,
                   help="contact threshold in meters (default: 0.02)")
    p.add_argument("--eta-d", type=float, default=None,
                   help="distant threshold in meters (default: 0.20)")
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
    _add_train_flags(p, contact=True)
    p.set_defaults(func=cmd_train_contact)

    p = subs.add_parser("train-action", help="train the action network g",
                        description="Train the clip-level action classifier on "
                                    "contact-augmented encodings; f stays frozen.")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--contact-ckpt", required=True, help="trained contact checkpoint")
    p.add_argument("--config", default=None, help="JSON config file (flags win)")
    p.add_argument("--out", required=True, help="output checkpoint path")
    _add_train_flags(p, contact=False)
    p.add_argument("--action-head", choices=["sigmoid_ce", "softmax_ce"], default=None,
                   help="output head and loss (default: sigmoid_ce)")
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
    _add_train_flags(p, contact=False)
    p.add_argument("--action-head", choices=["sigmoid_ce", "softmax_ce"], default=None,
                   help="output head and loss (default: sigmoid_ce)")
    p.set_defaults(func=cmd_ablation)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "func", None) is None:
        parser.print_help()
        return 2
    try:
        return args.func(args)
    except CasarError as exc:
        _print_error(type(exc).__name__, str(exc))
        return exc.exit_code
    except OSError as exc:
        _print_error(type(exc).__name__, str(exc))
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
