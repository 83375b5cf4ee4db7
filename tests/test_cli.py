"""Command line surface: the full synth/derive/train/eval flow plus error paths."""

import json
import subprocess
import sys

import pytest

import casar.cli
from casar.cli import main
from casar.pipeline import ActionModuleConfig, ContactModuleConfig, load_checkpoint_meta

SMALL_CFG = {
    "dataset": {"action_class_count": 4},
    "contact": {
        "hidden_width": 16,
        "epochs": 3,
        "base_lr": 5e-4,
        "lr_period_epochs": 2,
        "batch_size": 32,
        "seed": 1,
    },
    "action": {
        "hidden_width": 32,
        "epochs": 4,
        "base_lr": 1e-3,
        "lr_period_epochs": 3,
        "batch_size": 8,
        "action_head": "softmax_ce",
        "binarize_contact": True,
        "seed": 1,
    },
}

SYNTH_ARGS = [
    "--seed", "5", "--classes", "4", "--clips-per-class", "3",
    "--frames-min", "8", "--frames-max", "14",
]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Run the whole five-command flow once; tests inspect the artifacts."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    cfg = root / "config.json"
    cfg.write_text(json.dumps(SMALL_CFG))
    assert main(["synth", "--out", str(data)] + SYNTH_ARGS) == 0
    assert main([
        "derive-contact",
        "--clips", str(data / "clips.jsonl"),
        "--meshes", str(data / "meshes"),
        "--out", str(root / "derived.jsonl"),
    ]) == 0
    assert main([
        "train-contact",
        "--data", str(data),
        "--config", str(cfg),
        "--out", str(root / "f.ckpt"),
    ]) == 0
    assert main([
        "train-action",
        "--data", str(data),
        "--contact-ckpt", str(root / "f.ckpt"),
        "--config", str(cfg),
        "--out", str(root / "g.ckpt"),
    ]) == 0
    assert main([
        "eval",
        "--data", str(data),
        "--contact-ckpt", str(root / "f.ckpt"),
        "--action-ckpt", str(root / "g.ckpt"),
        "--config", str(cfg),
        "--report", str(root / "report"),
    ]) == 0
    return root


def test_flow_writes_every_artifact(workspace):
    data = workspace / "data"
    for path in [
        data / "clips.jsonl",
        data / "contacts.jsonl",
        data / "manifest.json",
        workspace / "derived.jsonl",
        workspace / "f.ckpt",
        workspace / "f.ckpt.meta.json",
        workspace / "g.ckpt",
        workspace / "g.ckpt.meta.json",
        workspace / "report" / "metrics.json",
        workspace / "report" / "confusion.csv",
        workspace / "report" / "per_object.csv",
        workspace / "report" / "manifest.json",
    ]:
        assert path.exists(), path
    assert sorted(p.suffix for p in (data / "meshes").iterdir()) == [".obj"] * 8


def test_derive_reproduces_generator_labels(workspace):
    generated = (workspace / "data" / "contacts.jsonl").read_bytes()
    derived = (workspace / "derived.jsonl").read_bytes()
    assert derived == generated


def test_synth_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["synth", "--out", str(a)] + SYNTH_ARGS) == 0
    assert main(["synth", "--out", str(b)] + SYNTH_ARGS) == 0
    for name in ["clips.jsonl", "contacts.jsonl"]:
        assert (a / name).read_bytes() == (b / name).read_bytes()
    for mesh in sorted((a / "meshes").iterdir()):
        assert mesh.read_bytes() == (b / "meshes" / mesh.name).read_bytes()


def test_eval_rerun_is_byte_identical(workspace):
    again = workspace / "report2"
    assert main([
        "eval",
        "--data", str(workspace / "data"),
        "--contact-ckpt", str(workspace / "f.ckpt"),
        "--action-ckpt", str(workspace / "g.ckpt"),
        "--config", str(workspace / "config.json"),
        "--report", str(again),
    ]) == 0
    for name in ["metrics.json", "confusion.csv", "per_object.csv"]:
        assert (again / name).read_bytes() == (
            workspace / "report" / name
        ).read_bytes()


def test_predict_emits_json_lines(workspace, capsys):
    rc = main([
        "predict",
        "--clip", str(workspace / "data" / "clips.jsonl"),
        "--contact-ckpt", str(workspace / "f.ckpt"),
        "--action-ckpt", str(workspace / "g.ckpt"),
        "--config", str(workspace / "config.json"),
    ])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 12  # 4 classes x 3 clips
    for line in lines:
        row = json.loads(line)
        assert set(row) == {"clip_id", "predicted_class", "probabilities"}
        assert 0 <= row["predicted_class"] < 4
        assert len(row["probabilities"]) == 4
        assert all(0.0 <= p <= 1.0 for p in row["probabilities"])


def test_manifest_carries_the_run_config(workspace):
    manifest = json.loads((workspace / "data" / "manifest.json").read_text())
    assert manifest["command"] == "synth"
    assert manifest["config"]["synth"]["class_count"] == 4
    assert manifest["seeds"] == {"synth": 5}
    assert set(manifest) >= {
        "command", "tool_version", "config", "seeds",
        "inputs", "outputs", "started_utc", "elapsed_seconds",
    }
    train_manifest = json.loads((workspace / "f.ckpt.manifest.json").read_text())
    assert train_manifest["command"] == "train-contact"
    assert train_manifest["config"]["contact"]["hidden_width"] == 16


def test_checkpoint_sidecars_describe_training(workspace):
    f_meta = load_checkpoint_meta(workspace / "f.ckpt")
    assert f_meta["kind"] == "contact"
    assert f_meta["config"]["hidden_width"] == 16
    assert f_meta["dataset"]["action_class_count"] == 4
    g_meta = load_checkpoint_meta(workspace / "g.ckpt")
    assert g_meta["kind"] == "action"
    assert g_meta["config"]["action_head"] == "softmax_ce"
    assert g_meta["contact_digest"]
    assert g_meta["layer_dims"][0] == 8992


def test_ablation_command(workspace, tmp_path):
    report = tmp_path / "ablation"
    rc = main([
        "ablation",
        "--data", str(workspace / "data"),
        "--contact-ckpt", str(workspace / "f.ckpt"),
        "--config", str(workspace / "config.json"),
        "--report", str(report),
    ])
    assert rc == 0
    lines = (report / "ablation.csv").read_text().strip().splitlines()
    assert lines[0] == "variant,accuracy"
    variants = [ln.split(",")[0] for ln in lines[1:]]
    assert variants == ["baseline", "contact_only", "distant_only", "contact_distant"]
    for ln in lines[1:]:
        acc = float(ln.split(",")[1])
        assert 0.0 <= acc <= 1.0
    assert (report / "manifest.json").exists()


def test_ablation_trains_f_from_the_config_file_only(workspace, tmp_path, monkeypatch):
    """The training flags are documented as g's; they must not reach f."""
    seen = {}

    def fake_train_contact(samples, config, dc):
        seen["f"] = config
        return "f", []

    def fake_ablation(train_clips, test_clips, contact, config, dc):
        seen["g"] = config
        return []

    monkeypatch.setattr(casar.cli, "train_contact_module", fake_train_contact)
    monkeypatch.setattr(casar.cli, "run_ablation", fake_ablation)
    rc = main([
        "ablation",
        "--data", str(workspace / "data"),
        "--config", str(workspace / "config.json"),
        "--report", str(tmp_path / "ablation"),
        "--hidden-width", "12", "--epochs", "1", "--lr", "0.01",
        "--batch-size", "4", "--seed", "9",
    ])
    assert rc == 0
    assert seen["f"] == ContactModuleConfig(**SMALL_CFG["contact"])
    flags = dict(hidden_width=12, epochs=1, base_lr=0.01, batch_size=4, seed=9)
    assert seen["g"] == ActionModuleConfig(**{**SMALL_CFG["action"], **flags})


# ---------------------------------------------------------------------------
# error paths


def stderr_json(capsys):
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1, err
    return json.loads(err[0])


def test_invalid_class_count_exits_2(capsys):
    rc = main(["synth", "--out", "/tmp/unused", "--classes", "1"])
    assert rc == 2
    payload = stderr_json(capsys)
    assert payload["error"] == "ValidationError"
    assert "class" in payload["message"]


def test_missing_dataset_exits_3(tmp_path, capsys):
    rc = main([
        "train-contact", "--data", str(tmp_path / "nope"),
        "--out", str(tmp_path / "f.ckpt"),
    ])
    assert rc == 3
    assert stderr_json(capsys)["error"] == "DataIOError"


def test_threshold_inversion_exits_2(workspace, capsys):
    rc = main([
        "derive-contact",
        "--clips", str(workspace / "data" / "clips.jsonl"),
        "--meshes", str(workspace / "data" / "meshes"),
        "--eta-c", "0.5", "--eta-d", "0.1",
        "--out", "/tmp/unused.jsonl",
    ])
    assert rc == 2
    assert stderr_json(capsys)["error"] == "ValidationError"


def test_missing_mesh_is_named(workspace, tmp_path, capsys):
    empty = tmp_path / "meshes"
    empty.mkdir()
    rc = main([
        "derive-contact",
        "--clips", str(workspace / "data" / "clips.jsonl"),
        "--meshes", str(empty),
        "--out", str(tmp_path / "out.jsonl"),
    ])
    assert rc == 2
    assert "mesh" in stderr_json(capsys)["message"]


def test_clip_width_mismatch_exits_2(workspace, tmp_path, capsys):
    cfg = tmp_path / "short.json"
    doc = dict(SMALL_CFG)
    doc["dataset"] = {"action_class_count": 4, "frames_per_clip": 16}
    cfg.write_text(json.dumps(doc))
    rc = main([
        "eval",
        "--data", str(workspace / "data"),
        "--contact-ckpt", str(workspace / "f.ckpt"),
        "--action-ckpt", str(workspace / "g.ckpt"),
        "--config", str(cfg),
        "--report", str(tmp_path / "r"),
    ])
    assert rc == 2
    assert "width" in stderr_json(capsys)["message"]


def test_mismatched_checkpoint_pair_exits_2(workspace, tmp_path, capsys):
    other_f = tmp_path / "other_f.ckpt"
    assert main([
        "train-contact", "--data", str(workspace / "data"),
        "--config", str(workspace / "config.json"), "--seed", "2", "--out", str(other_f),
    ]) == 0
    capsys.readouterr()
    pair = ["--contact-ckpt", str(other_f), "--action-ckpt", str(workspace / "g.ckpt"),
            "--config", str(workspace / "config.json")]
    rc = main(["eval", "--data", str(workspace / "data"), "--report", str(tmp_path / "r")]
              + pair)
    assert rc == 2
    assert stderr_json(capsys)["error"] == "CheckpointError"
    assert main(["predict", "--clip", str(workspace / "data" / "clips.jsonl")] + pair) == 2
    payload = stderr_json(capsys)
    assert payload["error"] == "CheckpointError"
    assert "other_f.ckpt" in payload["message"]


def test_sidecar_without_contact_digest_is_accepted(workspace, tmp_path, capsys):
    g = tmp_path / "g.ckpt"
    g.write_bytes((workspace / "g.ckpt").read_bytes())
    meta = load_checkpoint_meta(workspace / "g.ckpt")
    del meta["contact_digest"]
    (tmp_path / "g.ckpt.meta.json").write_text(json.dumps(meta))
    rc = main([
        "predict", "--clip", str(workspace / "data" / "clips.jsonl"),
        "--contact-ckpt", str(workspace / "f.ckpt"), "--action-ckpt", str(g),
        "--config", str(workspace / "config.json"),
    ])
    assert rc == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 12


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    assert stderr_json(capsys)["error"] == "UsageError"


def test_no_command_prints_help(capsys):
    assert main([]) == 2
    assert "usage" in capsys.readouterr().out.lower()


def test_help_shows_defaults(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["train-contact", "--help"])
    assert exc.value.code == 0
    assert "default" in capsys.readouterr().out


def test_console_script_version():
    proc = subprocess.run(
        [sys.executable, "-m", "casar.cli", "--version"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("casar ")
