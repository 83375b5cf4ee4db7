"""Loaders under malformed input: every bad record is a ParseError naming path:line."""

import contextlib
import dataclasses
import io
import json
import re
import shutil

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from casar import neuralcore as nn
from casar.cli import main
from casar.datamodel import DatasetConfig
from casar.errors import ParseError
from casar.io import (
    load_clips,
    load_contact_targets,
    write_clips,
    write_contact_targets,
    write_meshes,
)
from casar.pipeline import ActionModuleConfig, save_checkpoint
from casar.synth import SynthSpec, synth_generate

DC = DatasetConfig()


@pytest.fixture(scope="module")
def records():
    """One canonical clip record and the contact record of its first frame."""
    clips, _, samples = synth_generate(SynthSpec(class_count=2, clips_per_class=1,
                                                 frames_range=(3, 3), seed=0))
    return clips[:1], samples[:1]


def _lines(tmp_path, clips, samples):
    write_clips(clips, tmp_path / "clips.jsonl")
    write_contact_targets(samples, tmp_path / "contacts.jsonl")
    return (json.loads((tmp_path / name).read_text())
            for name in ("clips.jsonl", "contacts.jsonl"))


def _set(rec, where, value):
    for key in where[:-1]:
        rec = rec[key]
    rec[where[-1]] = value


def _load(tmp_path, clips, samples, file, where, value):
    """Write the files with one field replaced, then load them."""
    clip_rec, contact_rec = _lines(tmp_path, clips, samples)
    _set(clip_rec if file == "clips" else contact_rec, where, value)
    (tmp_path / "clips.jsonl").write_text(json.dumps(clip_rec) + "\n")
    (tmp_path / "contacts.jsonl").write_text(json.dumps(contact_rec) + "\n")
    loaded = load_clips(tmp_path / "clips.jsonl", DC)
    load_contact_targets(tmp_path / "contacts.jsonl", loaded, DC)


MALFORMED = [
    ("clips", ("frames", 0, "right", 0), [0.0, 0.0, "x"]),
    ("clips", ("frames", 0, "object_pose", 1), [0.0, 1.0, 0.0]),
    ("clips", ("action_label",), True),
    ("clips", ("object_label",), False),
    ("contacts", ("contact", 0), [0, 1]),
    ("contacts", ("frame_index",), True),
    # strings and booleans are not JSON numbers, even where their value would fit
    ("clips", ("frames", 0, "right", 0), [0.0, "1.5", True]),
    ("clips", ("frames", 0, "bbox_corners", 3, 2), "0.25"),
    ("clips", ("frames", 0, "left", 0, 0), False),
    ("clips", ("frames", 0, "object_pose", 3, 3), True),
    ("clips", ("frames", 0, "object_pose", 3, 0), "0"),
    ("contacts", ("contact",), [False] * DC.joint_count),
    ("contacts", ("distant",), [0.0] * DC.joint_count),
    # NaN and Infinity are JSON numbers to Python's reader; the constructors refuse them
    ("clips", ("frames", 0, "right", 4, 1), float("nan")),
    ("clips", ("frames", 0, "right", 4, 1), float("inf")),
    ("clips", ("frames", 0, "bbox_corners", 5, 0), float("nan")),
    ("clips", ("frames", 0, "bbox_corners", 5, 0), float("inf")),
    # opposite infinities make NaN centers and midpoints, without a numpy warning
    ("clips", ("frames", 0, "bbox_corners"),
     [[float("inf"), 0.0, 0.0], [float("-inf"), 0.0, 0.0]] + [[0.0, 0.0, 0.0]] * 6),
    ("clips", ("frames", 0, "object_pose", 0, 3), float("nan")),
    ("clips", ("frames", 0, "object_pose", 0, 3), float("inf")),
    # ints that are not bits; 256 would wrap to 0 in a uint8 cast
    ("contacts", ("contact", 0), 2),
    ("contacts", ("contact", 0), -1),
    ("contacts", ("contact", 0), 256),
]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A directory of valid inputs, and the path in it of each file the readers take.

    The untrained f and g have the default dataset widths; g's sidecar holds its configs.
    """
    root = tmp_path_factory.mktemp("inputs")
    clips, meshes, samples = synth_generate(SynthSpec(class_count=2, clips_per_class=1,
                                                      frames_range=(3, 3), seed=0))
    write_clips(clips, root / "data" / "clips.jsonl")
    write_contact_targets(samples, root / "data" / "contacts.jsonl")
    write_meshes({c.mesh_id: meshes[c.mesh_id] for c in clips}, root / "data" / "meshes")
    config = {"dataset": dataclasses.asdict(DC), "contact": {"hidden_width": 4}}
    (root / "config.json").write_text(json.dumps(config, indent=1) + "\n")
    save_checkpoint(nn.init_model([DC.frame_dim, 4, DC.contact_dim], seed=0), root / "f.ckpt")
    save_checkpoint(nn.init_model([DC.augmented_clip_dim, 4, DC.action_class_count], seed=1),
                    root / "g.ckpt",
                    {"kind": "action", "dataset": dataclasses.asdict(DC),
                     "config": dataclasses.asdict(ActionModuleConfig(hidden_width=4))})
    return root, {
        "clips": "data/clips.jsonl",
        "contacts": "data/contacts.jsonl",
        "mesh": f"data/meshes/{clips[0].mesh_id}.obj",
        "config": "config.json",
        "sidecar": "g.ckpt.meta.json",
    }


@pytest.mark.parametrize("file,where,value", MALFORMED)
def test_malformed_record_is_a_parse_error_and_exits_2(
        tmp_path, records, inputs, capsys, file, where, value):
    clips, samples = records
    with pytest.raises(ParseError, match="^" + re.escape(f"{tmp_path / file}.jsonl:1: ")):
        _load(tmp_path, clips, samples, file, where, value)
    root = inputs[0]
    pair = ["--contact-ckpt", str(root / "f.ckpt"), "--action-ckpt", str(root / "g.ckpt")]
    if file == "clips":
        argv = ["predict", "--clip", str(tmp_path / "clips.jsonl")] + pair
    else:  # predict reads no contacts; eval does
        argv = ["eval", "--data", str(tmp_path), "--report", str(tmp_path / "r")] + pair
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert json.loads(err[0])["error"] == "ParseError"


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=8,
)

FIELDS = [
    ("clips", ("clip_id",)), ("clips", ("action_label",)), ("clips", ("object_label",)),
    ("clips", ("mesh_id",)), ("clips", ("frames",)), ("clips", ("frames", 0)),
    ("clips", ("frames", 0, "left")), ("clips", ("frames", 0, "right", 2)),
    ("clips", ("frames", 0, "right", 2, 1)), ("clips", ("frames", 0, "bbox_corners")),
    ("clips", ("frames", 1, "object_pose")), ("clips", ("frames", 1, "object_pose", 3)),
    ("contacts", ("clip_id",)), ("contacts", ("frame_index",)), ("contacts", ("contact",)),
    ("contacts", ("distant", 5)),
]


@given(field=st.sampled_from(FIELDS), value=JSON_VALUES)
@example(field=("clips", ("clip_id",)), value="0")
def test_any_replaced_field_loads_or_is_a_parse_error(tmp_path_factory, records, field,
                                                      value):
    tmp_path = tmp_path_factory.mktemp("fuzz")
    clips, samples = records
    file, where = field
    try:
        _load(tmp_path, clips, samples, file, where, value)
    except ParseError as exc:
        # a clip renamed to another valid id loads, and its contact record names the old id
        named = [file] + (["contacts"] if field == ("clips", ("clip_id",)) else [])
        assert str(exc).startswith(tuple(f"{tmp_path / f}.jsonl:1: " for f in named))


def test_repeated_contact_record_is_a_parse_error_naming_both_lines(
        tmp_path, tiny_synth, tiny_config):
    clips, _, samples = tiny_synth
    write_clips(clips, tmp_path / "clips.jsonl")
    write_contact_targets(samples[:3] + samples[1:2], tmp_path / "contacts.jsonl")
    loaded = load_clips(tmp_path / "clips.jsonl", tiny_config)
    first = samples[1]
    with pytest.raises(ParseError, match="^" + re.escape(
            f"{tmp_path / 'contacts.jsonl'}:4: repeated record for clip {first.clip_id!r} "
            f"frame {first.frame_index}, first at line 2")):
        load_contact_targets(tmp_path / "contacts.jsonl", loaded, tiny_config)


# ---------------------------------------------------------------------------
# every file a command reads, corrupted byte by byte


def _argv(root, file):
    """A command that reads ``file``: derive-contact reads the mesh, eval the rest."""
    data = root / "data"
    if file == "mesh":
        return ["derive-contact", "--clips", str(data / "clips.jsonl"),
                "--meshes", str(data / "meshes"), "--out", str(root / "derived.jsonl")]
    argv = ["eval", "--data", str(data), "--contact-ckpt", str(root / "f.ckpt"),
            "--action-ckpt", str(root / "g.ckpt"), "--report", str(root / "report")]
    return argv + (["--config", str(root / "config.json")] if file == "config" else [])


def _copy(inputs, dest, file):
    """Copy the valid inputs into ``dest``; return the path of ``file`` there."""
    root, paths = inputs
    shutil.copytree(root, dest, dirs_exist_ok=True)
    return dest / paths[file]


def _run(argv):
    """``main``'s exit code and its stderr lines."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = main(argv)
    return rc, err.getvalue().splitlines()


def _corrupt(data: bytes, edit) -> bytes:
    how, at, arg = edit
    at %= len(data) + 1
    if how == "flip":
        at = min(at, len(data) - 1)
        return data[:at] + bytes([data[at] ^ arg]) + data[at + 1:]
    if how == "insert":
        return data[:at] + arg + data[at:]
    return data[:at]  # truncate


AT = st.integers(0, 1 << 20)  # taken modulo the file size
EDITS = st.one_of(
    st.tuples(st.just("flip"), AT, st.integers(1, 255)),
    st.tuples(st.just("insert"), AT, st.just(b"\xff")),
    st.tuples(st.just("truncate"), AT, st.none()),
)
FILES = ("clips", "contacts", "mesh", "config", "sidecar")


@given(file=st.sampled_from(FILES), edit=EDITS)
@example(file="mesh", edit=("insert", 0, b"\xff"))  # not UTF-8
@example(file="config", edit=("insert", 0, b"[" * 100_000))  # nested past the recursion limit
@example(file="sidecar", edit=("insert", 0, b"9" * 5_000))  # past int's 4,300-digit limit
def test_a_corrupted_input_file_ends_in_an_exit_code_not_a_traceback(
        tmp_path_factory, inputs, file, edit):
    """Exit 4 stays possible: a flip can make a coordinate 1e300, which parses."""
    work = tmp_path_factory.mktemp("corrupt")
    path = _copy(inputs, work, file)
    path.write_bytes(_corrupt(path.read_bytes(), edit))
    rc, err = _run(_argv(work, file))
    assert rc in (0, 2, 3, 4)
    assert len(err) == (rc != 0)
    if err:
        assert set(json.loads(err[0])) == {"error", "message"}


# what each file gets: 0xff at the start of its last line, the others at the start of the file
UNREADABLE = {"not-utf8": b"\xff", "deep-nesting": b"[" * 100_000, "long-int": b"9" * 5_000}
UNREADABLE_CASES = {f"{file}-{kind}": (file, UNREADABLE[kind]) for file in FILES
                    for kind in UNREADABLE if file != "mesh" or kind == "not-utf8"}


@pytest.mark.parametrize("file,payload", UNREADABLE_CASES.values(), ids=UNREADABLE_CASES.keys())
def test_unreadable_text_exits_2_naming_its_file_and_line(tmp_path, inputs, file, payload):
    path = _copy(inputs, tmp_path, file)
    data = path.read_bytes()
    at = data.rstrip(b"\n").rfind(b"\n") + 1 if payload == b"\xff" else 0
    path.write_bytes(data[:at] + payload + data[at:])
    line = data[:at].count(b"\n") + 1
    rc, err = _run(_argv(tmp_path, file))
    assert rc == 2 and len(err) == 1
    assert json.loads(err[0])["error"] == "ParseError"
    assert f"{path}:{line}: " in json.loads(err[0])["message"]


@pytest.mark.parametrize("file", FILES)
def test_an_input_that_cannot_be_read_exits_3(tmp_path, inputs, file):
    path = _copy(inputs, tmp_path, file)
    path.unlink()
    path.mkdir()  # open() fails on a directory, whoever runs the test
    rc, err = _run(_argv(tmp_path, file))
    assert rc == 3 and len(err) == 1
    payload = json.loads(err[0])
    assert payload["error"] == "DataIOError" and "cannot read" in payload["message"]
    assert str(path) in payload["message"]
