"""Command line surface: the full synth/derive/train/eval flow plus error paths."""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import casar.cli
from casar import neuralcore
from casar.cli import build_parser, main
from casar.datamodel import DatasetConfig
from casar.io import load_clips
from casar.neuralcore import parameter_count, softmax
from casar.pipeline import (
    ActionModuleConfig,
    ContactModuleConfig,
    load_checkpoint_meta,
    predict_action,
)

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
    """Run the whole flow once, synth through ablation; tests inspect the artifacts."""
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
    assert main([
        "ablation",
        "--data", str(data),
        "--contact-ckpt", str(root / "f.ckpt"),
        "--config", str(cfg),
        "--report", str(root / "ablation"),
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


def test_synth_writes_nothing_when_meshes_cannot_be_made(tmp_path, capsys):
    out = tmp_path / "d"
    out.mkdir()
    (out / "meshes").write_text("a file, not a directory")
    assert main(["synth", "--out", str(out)] + SYNTH_ARGS) == 3
    err = stderr_json(capsys)
    assert err["error"] == "DataIOError"
    assert str(out / "meshes") in err["message"]
    assert not (out / "clips.jsonl").exists()


@pytest.mark.parametrize("config,flags,expected", [
    (None, [], (0.02, 0.20)),
    (None, ["--preset", "fpha"], (0.02, 0.10)),
    ({"eta_c": 0.03, "eta_d": 0.15}, [], (0.03, 0.15)),
    ({"eta_c": 0.03, "eta_d": 0.15}, ["--preset", "fpha"], (0.03, 0.10)),
    ({"eta_c": 0.03, "eta_d": 0.15}, ["--preset", "fpha", "--eta-c", "0.01",
                                      "--eta-d", "0.12"], (0.01, 0.12)),
])
def test_derive_thresholds_flag_then_preset_then_config_then_default(
        workspace, tmp_path, config, flags, expected):
    argv = ["derive-contact", "--clips", str(workspace / "data" / "clips.jsonl"),
            "--meshes", str(workspace / "data" / "meshes"),
            "--out", str(tmp_path / "c.jsonl")] + flags
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps({"thresholds": config}))
        argv += ["--config", str(tmp_path / "cfg.json")]
    assert main(argv) == 0
    manifest = json.loads((tmp_path / "c.jsonl.manifest.json").read_text())
    thresholds = manifest["config"]["dataset"]["thresholds"]
    assert (thresholds["eta_c"], thresholds["eta_d"]) == expected


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


def _predict(workspace, clip_path, capsys) -> str:
    assert main([
        "predict",
        "--clip", str(clip_path),
        "--contact-ckpt", str(workspace / "f.ckpt"),
        "--action-ckpt", str(workspace / "g.ckpt"),
        "--config", str(workspace / "config.json"),
    ]) == 0
    return capsys.readouterr().out


def test_predict_on_an_empty_clip_file_prints_nothing(workspace, tmp_path, capsys):
    empty = tmp_path / "clips.jsonl"
    empty.write_text("")
    assert _predict(workspace, empty, capsys) == ""


def test_predict_reruns_byte_identical_and_agrees_with_predict_action(workspace, capsys):
    clips_path = workspace / "data" / "clips.jsonl"
    out = _predict(workspace, clips_path, capsys)
    assert _predict(workspace, clips_path, capsys) == out
    # the file is scored in one stacked pass; one clip alone may differ in the last bits
    contact, _ = casar.cli._load_module(workspace / "f.ckpt", ContactModuleConfig)
    action, _ = casar.cli._load_module(workspace / "g.ckpt", ActionModuleConfig)
    dc = DatasetConfig(action_class_count=4)
    clips = load_clips(clips_path, dc)
    rows = [json.loads(line) for line in out.splitlines()]
    assert [r["clip_id"] for r in rows] == [c.clip_id for c in clips]
    for row, clip in zip(rows, clips):
        idx, scores = predict_action(contact, action, clip, dc)
        assert row["predicted_class"] == idx
        np.testing.assert_allclose(row["probabilities"], softmax(scores), rtol=0, atol=1e-9)


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


def test_manifests_hold_exactly_the_documented_keys(workspace):
    documented = {"command", "tool_version", "config", "seeds", "inputs", "outputs",
                  "started_utc", "elapsed_seconds"}
    manifests = {
        "synth": workspace / "data" / "manifest.json",
        "derive-contact": workspace / "derived.jsonl.manifest.json",
        "train-contact": workspace / "f.ckpt.manifest.json",
        "train-action": workspace / "g.ckpt.manifest.json",
        "eval": workspace / "report" / "manifest.json",
        "ablation": workspace / "ablation" / "manifest.json",
    }
    for command, path in manifests.items():
        manifest = json.loads(path.read_text())
        assert set(manifest) == documented, path
        assert manifest["command"] == command


def test_ablation_command(workspace):
    report = workspace / "ablation"
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


def test_ablation_reads_the_contact_checkpoints_dataset(workspace, tmp_path, monkeypatch):
    """Without --config, the dataset comes from f's sidecar, as for train-action."""
    seen = {}

    def fake_ablation(train_clips, test_clips, contact, config, dc):
        seen["dc"] = dc
        return []

    monkeypatch.setattr(casar.cli, "run_ablation", fake_ablation)
    rc = main([
        "ablation",
        "--data", str(workspace / "data"),
        "--contact-ckpt", str(workspace / "f.ckpt"),
        "--report", str(tmp_path / "ablation"),
    ])
    assert rc == 0
    assert seen["dc"].action_class_count == SMALL_CFG["dataset"]["action_class_count"]
    manifest = json.loads((tmp_path / "ablation" / "manifest.json").read_text())
    assert manifest["config"]["dataset"] == load_checkpoint_meta(workspace / "f.ckpt")["dataset"]


def test_a_thresholds_section_alone_keeps_the_sidecars_dataset(workspace, tmp_path):
    """A config file with no dataset section falls back to the sidecar's dataset;
    its thresholds section replaces only that dataset's thresholds."""
    cfg = tmp_path / "thr.json"
    thresholds = {"eta_c": 0.03, "eta_d": 0.15}
    cfg.write_text(json.dumps({"thresholds": thresholds, "action": SMALL_CFG["action"]}))
    g = tmp_path / "g.ckpt"
    assert main([
        "train-action",
        "--data", str(workspace / "data"),
        "--contact-ckpt", str(workspace / "f.ckpt"),
        "--config", str(cfg),
        "--out", str(g),
    ]) == 0
    expected = {**load_checkpoint_meta(workspace / "f.ckpt")["dataset"], "thresholds": thresholds}
    assert load_checkpoint_meta(g)["dataset"] == expected
    assert main([
        "eval",
        "--data", str(workspace / "data"),
        "--contact-ckpt", str(workspace / "f.ckpt"),
        "--action-ckpt", str(g),
        "--config", str(cfg),
        "--report", str(tmp_path / "report"),
    ]) == 0
    manifest = json.loads((tmp_path / "report" / "manifest.json").read_text())
    assert manifest["config"]["dataset"] == expected


# ---------------------------------------------------------------------------
# each command reads only its own files; every writer makes its directory


def _dataset_with_bad_files(workspace, root, bad_contacts=True):
    """A copy of the workspace dataset with a non-finite mesh vertex and a bad last contact."""
    data = root / "data"
    shutil.copytree(workspace / "data", data)
    (data / "meshes" / "obj0.obj").write_text("v 1 2 nan\n")
    if bad_contacts:
        with open(data / "contacts.jsonl", "a", encoding="utf-8") as fh:
            fh.write('{"clip_id":"nope","frame_index":0,"contact":[],"distant":[]}\n')
    return data


def test_action_training_reads_neither_meshes_nor_contacts(workspace, tmp_path):
    data = _dataset_with_bad_files(workspace, tmp_path)
    f, cfg = str(workspace / "f.ckpt"), str(workspace / "config.json")
    assert main(["train-action", "--data", str(data), "--contact-ckpt", f, "--config", cfg,
                 "--out", str(tmp_path / "g.ckpt")]) == 0
    for name in ["g.ckpt", "g.ckpt.meta.json"]:
        assert (tmp_path / name).read_bytes() == (workspace / name).read_bytes()
    assert main(["ablation", "--data", str(data), "--test-data", str(data),
                 "--contact-ckpt", f, "--config", cfg,
                 "--report", str(tmp_path / "ablation")]) == 0
    assert ((tmp_path / "ablation" / "ablation.csv").read_bytes()
            == (workspace / "ablation" / "ablation.csv").read_bytes())


def test_contact_training_reads_contacts_but_not_meshes(workspace, tmp_path, capsys):
    data = _dataset_with_bad_files(workspace, tmp_path)
    last = len((data / "contacts.jsonl").read_text().splitlines())
    assert main(["train-contact", "--data", str(data), "--config",
                 str(workspace / "config.json"), "--out", str(tmp_path / "f.ckpt")]) == 2
    assert f"contacts.jsonl:{last}: unknown clip_id" in stderr_json(capsys)["message"]


def test_eval_does_not_read_meshes(workspace, tmp_path, monkeypatch):
    """Both runs name their dataset ``data``, so the reports' provenance matches too."""
    shutil.copytree(workspace / "data", tmp_path / "clean" / "data")
    _dataset_with_bad_files(workspace, tmp_path / "bad", bad_contacts=False)
    for root in ["clean", "bad"]:
        monkeypatch.chdir(tmp_path / root)
        assert main(["eval", "--data", "data", "--contact-ckpt", str(workspace / "f.ckpt"),
                     "--action-ckpt", str(workspace / "g.ckpt"),
                     "--config", str(workspace / "config.json"), "--report", "report"]) == 0
    for name in ["metrics.json", "confusion.csv", "per_object.csv"]:
        assert ((tmp_path / "bad" / "report" / name).read_bytes()
                == (tmp_path / "clean" / "report" / name).read_bytes())


def test_writers_create_a_missing_output_directory(workspace, tmp_path):
    data = workspace / "data"
    derived = tmp_path / "new" / "deeper" / "c.jsonl"
    assert main(["derive-contact", "--clips", str(data / "clips.jsonl"),
                 "--meshes", str(data / "meshes"), "--out", str(derived)]) == 0
    assert derived.read_bytes() == (workspace / "derived.jsonl").read_bytes()
    f = tmp_path / "models" / "f.ckpt"
    assert main(["train-contact", "--data", str(data), "--config",
                 str(workspace / "config.json"), "--out", str(f)]) == 0
    for name in ["f.ckpt", "f.ckpt.meta.json"]:
        assert (f.parent / name).read_bytes() == (workspace / name).read_bytes()
    assert (f.parent / "f.ckpt.manifest.json").is_file()


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


# a child process that limits its own address space to what it uses after the
# imports plus 256 MB, then runs the CLI; the test process keeps its limits
_LIMITED_CLI = """
import os, resource, sys
import casar.cli
pages = int(open("/proc/self/statm").read().split()[0])
limit = pages * os.sysconf("SC_PAGE_SIZE") + (256 << 20)
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
sys.exit(casar.cli.main(sys.argv[1:]))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="needs Linux's /proc")
def test_running_out_of_memory_exits_3_with_one_json_line(tmp_path):
    src = os.path.dirname(os.path.dirname(casar.cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = tmp_path / "big"
    proc = subprocess.run(
        [sys.executable, "-c", _LIMITED_CLI, "synth", "--out", str(out),
         "--classes", "6", "--clips-per-class", "2000000"],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 3, proc.stderr
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1, proc.stderr
    assert json.loads(lines[0]) == {"error": "MemoryError", "message": "out of memory"}
    assert not out.exists()


def test_training_matrix_that_cannot_fit_exits_2_before_it_is_built(
        workspace, tmp_path, monkeypatch, capsys):
    # 200,000 frames a clip: a 56.2M-wide input, 0.9 GB of float32 training
    # state at hidden width 1, and 225 MB of training matrix per clip
    dc = DatasetConfig(action_class_count=4, frames_per_clip=200_000)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"dataset": {"action_class_count": 4, "frames_per_clip": 200_000},
                               "action": {"hidden_width": 1}}))
    clips = len(load_clips(workspace / "data" / "clips.jsonl", dc))
    params = 16 * parameter_count([dc.augmented_clip_dim, 1, 1, 4])
    matrix = 4 * clips * (dc.augmented_clip_dim + 4)  # inputs, and targets as wide as g's output
    (tmp_path / "meminfo").write_text(f"MemAvailable:   {(params + matrix // 2) // 1024} kB\n")
    monkeypatch.setattr(neuralcore, "_MEMINFO", str(tmp_path / "meminfo"))

    def no_features(*args):
        raise AssertionError("the training matrix was built before the memory check")

    monkeypatch.setattr("casar.pipeline.clip_features", no_features)
    rc = main(["train-action", "--data", str(workspace / "data"),
               "--contact-ckpt", str(workspace / "f.ckpt"), "--config", str(cfg),
               "--out", str(tmp_path / "g.ckpt")])
    assert rc == 2
    message = stderr_json(capsys)["message"]
    assert f"needs {params} bytes (16 per parameter) plus {matrix} bytes" in message
    assert not (tmp_path / "g.ckpt").exists()


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


def test_derive_reads_only_the_meshes_its_clips_name(tmp_path, capsys):
    data = tmp_path / "d"
    assert main(["synth", "--out", str(data), "--seed", "0", "--classes", "2",
                 "--clips-per-class", "1", "--frames-min", "4", "--frames-max", "4"]) == 0
    argv = ["derive-contact", "--clips", str(data / "clips.jsonl"),
            "--meshes", str(data / "meshes"), "--out"]
    assert main(argv + [str(tmp_path / "clean.jsonl")]) == 0
    (data / "meshes" / "unused.obj").write_text("v 1 2 nan\n")
    assert main(argv + [str(tmp_path / "unused.jsonl")]) == 0
    assert (tmp_path / "unused.jsonl").read_bytes() == (tmp_path / "clean.jsonl").read_bytes()
    # a clip that names a mesh with no file still fails, naming the clip and the mesh
    first = load_clips(data / "clips.jsonl", DatasetConfig())[0]
    (data / "meshes" / f"{first.mesh_id}.obj").unlink()
    capsys.readouterr()
    assert main(argv + [str(tmp_path / "absent.jsonl")]) == 2
    assert stderr_json(capsys)["message"] == (
        f"clip {first.clip_id!r}: mesh {first.mesh_id!r} not available for contact derivation")


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


def _sidecar_edit(edit):
    def apply(meta):
        edit(meta)
        return meta
    return apply


# (where the bad value goes, the value or edit, the key the error must name)
MISTYPED_INPUTS = {
    "config-hidden-width-string": ("config", {"contact": {"hidden_width": "big"}}, "hidden_width"),
    "config-hidden-width-bool": ("config", {"contact": {"hidden_width": True}}, "hidden_width"),
    "config-epochs-float": ("config", {"contact": {"epochs": 2.5}}, "epochs"),
    "config-seed-negative": ("config", {"contact": {"seed": -1}}, "seed"),
    "config-base-lr-string": ("config", {"contact": {"base_lr": "x"}}, "base_lr"),
    "config-base-lr-nan": ("config", {"contact": {"base_lr": float("nan")}}, "base_lr"),
    "config-focal-gamma-infinity": (
        "config", {"contact": {"focal_gamma": float("inf")}}, "focal_gamma"),
    "config-eta-c-string": ("config", {"thresholds": {"eta_c": "0.01"}}, "eta_c"),
    "config-eta-d-too-large": ("config", {"thresholds": {"eta_d": 10**400}}, "eta_d"),
    "config-section-not-object": ("config", {"contact": 3}, "contact"),
    "config-frames-per-clip-float": (
        "config", {"dataset": {"frames_per_clip": 2.5}}, "frames_per_clip"),
    "flag-synth-seed-negative": ("synth", ["--seed", "-1"], "seed"),
    "flag-train-contact-seed-negative": ("train-contact", ["--seed", "-1"], "seed"),
    "flag-synth-noise-nan": ("synth", ["--noise", "nan"], "noise_sigma"),
    "flag-train-contact-lr-nan": ("train-contact", ["--lr", "nan"], "base_lr"),
    "flag-train-contact-lr-inf": ("train-contact", ["--lr", "inf"], "base_lr"),
    "sidecar-hidden-width-string": (
        "sidecar", _sidecar_edit(lambda m: m["config"].update(hidden_width="x")), "hidden_width"),
    "sidecar-unknown-threshold": (
        "sidecar", _sidecar_edit(lambda m: m["dataset"]["thresholds"].update(eta_x=0.1)), "eta_x"),
    "sidecar-config-not-object": ("sidecar", _sidecar_edit(lambda m: m.update(config="oops")),
                                  "config"),
    "sidecar-not-object": ("sidecar", lambda m: [m], "sidecar"),
}


@pytest.mark.parametrize("source,bad,key", MISTYPED_INPUTS.values(), ids=MISTYPED_INPUTS.keys())
def test_mistyped_input_exits_2_naming_its_file_and_key(workspace, tmp_path, capsys,
                                                        source, bad, key):
    data, named = str(workspace / "data"), None
    if source == "config":
        named = tmp_path / "c.json"
        named.write_text(json.dumps(bad))
        argv = ["train-contact", "--data", data, "--config", str(named),
                "--out", str(tmp_path / "f.ckpt")]
    elif source == "sidecar":
        named = tmp_path / "g.ckpt"
        named.write_bytes((workspace / "g.ckpt").read_bytes())
        meta = bad(load_checkpoint_meta(workspace / "g.ckpt"))
        (tmp_path / "g.ckpt.meta.json").write_text(json.dumps(meta))
        argv = ["predict", "--clip", str(workspace / "data" / "clips.jsonl"),
                "--contact-ckpt", str(workspace / "f.ckpt"), "--action-ckpt", str(named)]
    else:
        argv = [source, "--out", str(tmp_path / "out")] + bad
        if source == "train-contact":
            argv += ["--data", data]
    assert main(argv) == 2
    message = stderr_json(capsys)["message"]
    assert key in message
    if named is not None:
        assert str(named) in message


def test_flag_does_not_hide_a_mistyped_config_value(workspace, tmp_path, capsys):
    """The file is checked on its own before the flags replace its values."""
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"contact": {"epochs": 2.5}}))
    rc = main(["train-contact", "--data", str(workspace / "data"), "--config", str(cfg),
               "--epochs", "1", "--out", str(tmp_path / "f.ckpt")])
    assert rc == 2
    message = stderr_json(capsys)["message"]
    assert str(cfg) in message and "epochs" in message


def test_sidecar_from_an_older_version_is_accepted(workspace, tmp_path, capsys):
    """Retired top-level keys of a sidecar's config and dataset are ignored."""
    g = tmp_path / "g.ckpt"
    g.write_bytes((workspace / "g.ckpt").read_bytes())
    meta = load_checkpoint_meta(workspace / "g.ckpt")
    meta["config"]["center_clips"] = True
    meta["dataset"]["center_clips"] = True
    (tmp_path / "g.ckpt.meta.json").write_text(json.dumps(meta))
    rc = main([
        "predict", "--clip", str(workspace / "data" / "clips.jsonl"),
        "--contact-ckpt", str(workspace / "f.ckpt"), "--action-ckpt", str(g),
    ])
    assert rc == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 12


def test_diverging_run_prints_one_stderr_line(workspace, tmp_path):
    """Numpy's overflow warnings stay quiet; the NumericError line reports the divergence.

    Run in a subprocess: pytest would capture the warnings in process.
    """
    proc = subprocess.run(
        [sys.executable, "-m", "casar.cli", "train-contact",
         "--data", str(workspace / "data"), "--config", str(workspace / "config.json"),
         "--lr", "1e300", "--out", str(tmp_path / "f.ckpt")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 4
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, lines
    assert json.loads(lines[0])["error"] == "NumericError"


# runs the CLI, first printing the digest of f's float64 parameters, which the
# float32 checkpoint rounds away
_CLI_PRINTING_F_DIGEST = """
import sys
import casar.cli as cli
train = cli.train_contact_module

def train_and_print(*args):
    module, history = train(*args)
    print(module.parameter_digest())
    return module, history

cli.train_contact_module = train_and_print
sys.exit(cli.main(sys.argv[1:]))
"""


def test_trained_bytes_do_not_depend_on_the_blas_thread_variables(tmp_path):
    """f at its default widths, trained in a process pinned to one BLAS thread by
    ``OPENBLAS_NUM_THREADS`` and in one left at OpenBLAS's default, gives the same bytes."""
    data = tmp_path / "data"
    assert main(["synth", "--out", str(data), "--seed", "0", "--clips-per-class", "4",
                 "--frames-min", "24", "--frames-max", "24"]) == 0
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    digests = []
    for name, pinned in (("pinned", {"OPENBLAS_NUM_THREADS": "1"}), ("default", {})):
        proc = subprocess.run(
            [sys.executable, "-c", _CLI_PRINTING_F_DIGEST, "train-contact", "--data", str(data),
             "--hidden-width", "256", "--batch-size", "64", "--epochs", "2",
             "--out", str(tmp_path / name / "f.ckpt")],
            env={**env, **pinned}, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout.splitlines()[0])
    assert digests[0] == digests[1]
    for suffix in ("f.ckpt", "f.ckpt.meta.json"):
        pinned, default = (tmp_path / name / suffix for name in ("pinned", "default"))
        assert pinned.read_bytes() == default.read_bytes(), suffix


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    assert stderr_json(capsys)["error"] == "UsageError"


def test_no_command_prints_help(capsys):
    assert main([]) == 2
    assert "usage" in capsys.readouterr().out.lower()


@pytest.mark.parametrize("command,config", [
    ("train-contact", ContactModuleConfig()),
    ("train-action", ActionModuleConfig()),
    ("ablation", ActionModuleConfig()),
], ids=["train-contact", "train-action", "ablation"])
def test_training_flag_help_shows_the_dataclass_default(command, config):
    sub = build_parser()._subparsers._group_actions[0].choices[command]
    helps = {action.dest: action.help for action in sub._actions}
    fields = ["hidden_width", "epochs", "base_lr", "batch_size", "seed"]
    if isinstance(config, ActionModuleConfig):
        fields.append("action_head")
    for name in fields:
        assert f"(default: {getattr(config, name)}" in helps[name], name


def test_threshold_flag_help_shows_the_dataclass_default():
    sub = build_parser()._subparsers._group_actions[0].choices["derive-contact"]
    helps = {action.dest: action.help for action in sub._actions}
    thresholds = DatasetConfig().thresholds
    assert f"(default: {thresholds.eta_c})" in helps["eta_c"]
    assert f"(default: {thresholds.eta_d})" in helps["eta_d"]


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
