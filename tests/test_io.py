"""Loaders under malformed input: every bad record is a ParseError naming path:line."""

import json
import re

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from casar import neuralcore as nn
from casar.cli import main
from casar.datamodel import DatasetConfig
from casar.errors import ParseError
from casar.io import load_clips, load_contact_targets, write_clips, write_contact_targets
from casar.pipeline import save_checkpoint
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
def checkpoints(tmp_path_factory):
    """An f and a g of the default dataset widths, untrained."""
    root = tmp_path_factory.mktemp("ckpt")
    save_checkpoint(nn.init_model([DC.frame_dim, 4, DC.contact_dim], seed=0), root / "f.ckpt")
    save_checkpoint(nn.init_model([DC.augmented_clip_dim, 4, DC.action_class_count], seed=1),
                    root / "g.ckpt")
    return root / "f.ckpt", root / "g.ckpt"


@pytest.mark.parametrize("file,where,value", MALFORMED)
def test_malformed_record_is_a_parse_error_and_exits_2(
        tmp_path, records, checkpoints, capsys, file, where, value):
    clips, samples = records
    with pytest.raises(ParseError, match="^" + re.escape(f"{tmp_path / file}.jsonl:1: ")):
        _load(tmp_path, clips, samples, file, where, value)
    f_ckpt, g_ckpt = checkpoints
    pair = ["--contact-ckpt", str(f_ckpt), "--action-ckpt", str(g_ckpt)]
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
