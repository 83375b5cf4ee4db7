"""The three workloads: ``train``, ``infer`` and ``label``.

``BENCHMARK.json`` lists ``train`` and ``label`` only.  ``infer`` is run
by hand (``run.py --workload infer``): a third workload in the listed set
would leave too little of the time budget for runs long enough to hold
``label``'s ``round_s`` within its bound on this shared host.

Each workload object has the same life cycle.  ``setup()`` builds the
inputs from the seed (timed as set-up, repeated for a median);
``prepare()`` does untimed work the checks need; ``run_round()`` makes
one round of the workload's casar calls and returns the seconds each
stage took; ``check(first)`` verifies that round's outputs, fully on the
first round and against the first round afterwards.  Every round makes
the same calls on the same inputs, so the rounds are interchangeable
samples and the per-round call counts repeat exactly.

casar is reached only through module attributes (``pipeline.predict_action``
and so on), so a tracer installed on those modules sees every call.
"""

from __future__ import annotations

import hashlib
import math
import multiprocessing
import statistics
import time
from pathlib import Path

import numpy as np

from casar import datamodel, evaluation, io, neuralcore, pipeline, synth

import checks

CLASSES = 6  # the synthetic classes C4 trains on


def _percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _file_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def in_child(fn):
    """``fn()`` run in a forked child process; its result comes back through a pipe.

    The memory the child takes does not count toward this process's peak RSS.
    """
    ctx = multiprocessing.get_context("fork")
    receive, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=lambda: send.send(fn()))
    child.start()
    send.close()
    try:
        result = receive.recv()
    except EOFError:  # the child died before it sent a result
        result = None
    child.join()
    if child.exitcode != 0:
        raise RuntimeError(f"child process exited with code {child.exitcode}")
    return result


class Workload:
    """The set-up count, and facts the per-layer metrics need (zero where the
    workload lacks the layer)."""

    setups = 3  # set-ups per run; setup_s is their median
    g_trained_parameters = 0  # parameters of the g that Adam updates
    bytes_written = 0  # bytes of the files one round writes through casar.io

    def adam_steps(self) -> int:
        """Adam steps one round must take."""
        return 0

    def prepare(self) -> None:
        pass


class Train(Workload):
    """Staged f -> g training at C4's bench widths, then ``evaluate_pipeline``.

    neuralcore does nearly all of the timed work, Adam most of g's step.
    synth and geometry run only in set-up.
    """

    # f needs many distinct clips to generalise, g far fewer: f trains on the
    # per-frame samples of every training clip, g on the first G_PER_CLASS
    # clips of each class.  Short clips keep synth's set-up cost down.
    F_PER_CLASS = 60
    G_PER_CLASS = 24
    TEST_PER_CLASS = 15
    FRAMES = 8
    F_EPOCHS = 30
    G_EPOCHS = 20
    ops_per_round = 3  # train f, train g, evaluate

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.dc = datamodel.DatasetConfig()
        self.f_config = pipeline.ContactModuleConfig(
            hidden_width=64, epochs=self.F_EPOCHS, base_lr=2e-3,
            lr_period_epochs=self.F_EPOCHS // 2, batch_size=64, seed=seed)
        self.g_config = pipeline.ActionModuleConfig(
            hidden_width=256, epochs=self.G_EPOCHS, base_lr=2e-4,
            lr_period_epochs=self.G_EPOCHS // 2, batch_size=48, seed=seed,
            action_head="softmax_ce", augment_contact=True, binarize_contact=True)
        self.first = None

    def setup(self) -> None:
        frames = (self.FRAMES, self.FRAMES)
        clips, _, self.train_samples = synth.synth_generate(synth.SynthSpec(
            CLASSES, self.F_PER_CLASS, frames_range=frames, seed=self.seed))
        # synth returns the clips class by class
        self.train_clips = [c for i, c in enumerate(clips)
                            if i % self.F_PER_CLASS < self.G_PER_CLASS]
        self.test_clips, _, self.test_samples = synth.synth_generate(synth.SynthSpec(
            CLASSES, self.TEST_PER_CLASS, frames_range=frames, seed=self.seed + 1),
            clip_prefix="test")

    def adam_steps(self) -> int:
        """epochs x ceil(samples / batch), summed over f and g."""
        f = self.F_EPOCHS * math.ceil(len(self.train_samples) / self.f_config.batch_size)
        g = self.G_EPOCHS * math.ceil(len(self.train_clips) / self.g_config.batch_size)
        return f + g

    def run_round(self) -> dict[str, float]:
        t0 = time.perf_counter()
        f, f_hist = pipeline.train_contact_module(self.train_samples, self.f_config, self.dc)
        t1 = time.perf_counter()
        digest = checks.parameter_digest(f.model)
        t2 = time.perf_counter()
        g, g_hist = pipeline.train_action_module(self.train_clips, f, self.g_config, self.dc)
        t3 = time.perf_counter()
        report = evaluation.evaluate_pipeline(f, g, self.test_clips, self.test_samples, self.dc)
        t4 = time.perf_counter()
        self.out = dict(f=f, g=g, f_hist=f_hist, g_hist=g_hist, report=report,
                        f_digest_before=digest)
        self.g_trained_parameters = sum(w.size + b.size
                                        for w, b in zip(g.model.weights, g.model.biases))
        return {"train_f": t1 - t0, "train_g": t3 - t2, "eval": t4 - t3}

    def check(self, first: bool) -> list[str]:
        o = self.out
        digests = (checks.parameter_digest(o["f"].model), checks.parameter_digest(o["g"].model))
        summary = (digests, o["f_hist"], o["g_hist"], o["report"].top1_accuracy)
        if not first:
            return [] if summary == self.first else ["round differs from the first round"]
        self.first = summary
        f_layers = checks.model_layers(o["f"].model)
        g_layers = checks.model_layers(o["g"].model)
        # element accuracy of f's raw outputs on the held-out frames
        frames = [s.frame for s in self.test_samples]
        probs = checks.mlp(f_layers, checks.frame_rows(frames, self.dc.object_class_count))
        truth = checks.label_bits(self.test_samples).astype(bool)
        element_acc = float(((probs >= 0.5) == truth).mean())
        # top-1 from the program's raw scores, each checked against the reference
        got = np.stack([pipeline.predict_action(o["f"], o["g"], c, self.dc)[1]
                        for c in self.test_clips])
        want, clip_probs = checks.reference_scores(
            f_layers, g_layers, self.test_clips, self.dc.frames_per_clip,
            self.dc.object_class_count, binarize=True)
        on_edge = [bool((np.abs(p - 0.5) <= 1e-9).any()) for p in clip_probs]
        problems = checks.check_scores(got, want, 1e-4 * (1.0 + np.abs(want).max()), on_edge)
        labels = np.array([c.action_label for c in self.test_clips])
        top1 = float((got.argmax(axis=1) == labels).mean())
        if top1 != o["report"].top1_accuracy:
            problems.append(f"evaluate_pipeline top-1 {o['report'].top1_accuracy} != {top1}")
        problems += checks.check_training(element_acc, top1, o["f_hist"], o["g_hist"],
                                          o["f_digest_before"], digests[0])
        return problems

    def stage_metrics(self, rounds) -> dict[str, tuple[float, str]]:
        med = {k: statistics.median(r[k] for r in rounds) for k in rounds[0]}
        return {
            "train_f_frames_per_s": (len(self.train_samples) * self.F_EPOCHS / med["train_f"],
                                     "frames/s"),
            "train_g_clips_per_s": (len(self.train_clips) * self.G_EPOCHS / med["train_g"],
                                    "clips/s"),
            "eval_clips_per_s": (len(self.test_clips) / med["eval"], "clips/s"),
        }


class Infer(Workload):
    """One caller, closed loop: load both checkpoints, then classify clip after clip.

    Paper widths (f hidden 256, g hidden 5000 on the 8,992-wide input).
    g's first layer is ~360 MB of float64, so each forward is bound by
    memory bandwidth; no backward pass or Adam runs.
    """

    CLIPS = 40
    F_HIDDEN = 256
    G_HIDDEN = 5000
    TOL = 1e-4  # a float32 forward also stays within this of the float64 reference

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.dc = datamodel.DatasetConfig()
        self.f_path = work / "f.ckpt"
        self.g_path = work / "g.ckpt"
        self.ops_per_round = 2 + self.CLIPS
        self.latencies: list[float] = []

    def setup(self) -> None:
        # the paper-width g takes ~1 GB to build and save; a child does it, so
        # that peak_rss_mb is that of loading and predicting
        in_child(self._write_checkpoints)
        clips, _, _ = synth.synth_generate(
            synth.SynthSpec(CLASSES, math.ceil(self.CLIPS / CLASSES), seed=self.seed))
        self.clips = clips[:self.CLIPS]

    def _write_checkpoints(self) -> None:
        dc = self.dc
        f = neuralcore.init_model([dc.frame_dim, self.F_HIDDEN, self.F_HIDDEN, dc.contact_dim],
                                  seed=self.seed)
        pipeline.save_checkpoint(f, self.f_path)
        g = neuralcore.init_model(
            [dc.augmented_clip_dim, self.G_HIDDEN, self.G_HIDDEN, dc.action_class_count],
            seed=self.seed + 1)
        pipeline.save_checkpoint(g, self.g_path)

    def prepare(self) -> None:
        self.want = in_child(lambda: checks.reference_scores(
            checks.read_checkpoint(self.f_path), checks.read_checkpoint(self.g_path),
            self.clips, self.dc.frames_per_clip, self.dc.object_class_count,
            binarize=False)[0])

    def run_round(self) -> dict[str, float]:
        t0 = time.perf_counter()
        f_model = pipeline.load_checkpoint(self.f_path)
        g_model = pipeline.load_checkpoint(self.g_path)
        t1 = time.perf_counter()
        f = pipeline.TrainedContactModule(
            model=f_model, config=pipeline.ContactModuleConfig(hidden_width=self.F_HIDDEN))
        g = pipeline.TrainedActionModule(
            model=g_model, config=pipeline.ActionModuleConfig(hidden_width=self.G_HIDDEN))
        latencies, scores = [], []
        for clip in self.clips:
            s = time.perf_counter()
            _, out = pipeline.predict_action(f, g, clip, self.dc)
            latencies.append(time.perf_counter() - s)
            scores.append(out)
        self.out = np.stack(scores)
        self.latencies += latencies
        return {"ckpt_load": t1 - t0, "predict": sum(latencies)}

    def check(self, first: bool) -> list[str]:
        return checks.check_scores(self.out, self.want, self.TOL)

    def stage_metrics(self, rounds) -> dict[str, tuple[float, str]]:
        ms = [1e3 * s for s in self.latencies]
        return {
            "predict_ms_p50": (statistics.median(ms), "ms"),
            "predict_ms_p90": (_percentile(ms, 0.9), "ms"),
            "ckpt_load_s": (statistics.median(r["ckpt_load"] for r in rounds), "s"),
        }


class Label(Workload):
    """The data path with no network: synth, write, load, derive.

    Most clips come from ``synth_generate`` and jitter the object pose every
    frame; the rest are rebuilt here with the pose held at its first value,
    as in recordings of a static object.  The two regimes miss and hit the
    per-pose kd-tree reuse in ``derive_contact_dataset``.
    """

    # many short clips, so that each round averages over synth's random
    # object choice and placement work instead of following a few clips
    SYNTH_PER_CLASS = 12
    # Set-up cost varies with each clip's random hand placement, so the
    # static clips span every class and are many enough to average it out.
    STATIC_PER_CLASS = 8
    FRAMES = 12
    ops_per_round = 8  # synth, three writes, three loads, derive
    setups = 7  # one set-up takes ~0.5 s; seven make a window long enough to be steady

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.dc = datamodel.DatasetConfig()
        self.first = None

    def setup(self) -> None:
        clips, _, _ = synth.synth_generate(synth.SynthSpec(
            CLASSES, self.STATIC_PER_CLASS, frames_range=(self.FRAMES, self.FRAMES),
            seed=self.seed + 1), clip_prefix="static")
        self.static_clips = [self._hold_pose(c) for c in clips]

    @staticmethod
    def _hold_pose(clip):
        obj = clip.frames[0].object
        frames = [datamodel.FrameSample(hand=f.hand, object=obj) for f in clip.frames]
        return datamodel.ActionClip(clip_id=clip.clip_id, action_label=clip.action_label,
                                    frames=tuple(frames))

    def run_round(self) -> dict[str, float]:
        w = self.work
        t0 = time.perf_counter()
        clips, meshes, samples = synth.synth_generate(synth.SynthSpec(
            CLASSES, self.SYNTH_PER_CLASS, frames_range=(self.FRAMES, self.FRAMES),
            seed=self.seed))
        t1 = time.perf_counter()
        clips = clips + self.static_clips
        io.write_clips(clips, w / "clips.jsonl")
        io.write_meshes(meshes, w / "meshes")
        io.write_contact_targets(samples, w / "contacts.jsonl")
        t2 = time.perf_counter()
        loaded = io.load_clips(w / "clips.jsonl", self.dc)
        loaded_meshes = io.load_meshes(w / "meshes")
        loaded_samples = io.load_contact_targets(w / "contacts.jsonl", loaded, self.dc)
        t3 = time.perf_counter()
        derived = pipeline.derive_contact_dataset(loaded, loaded_meshes, self.dc.thresholds)
        t4 = time.perf_counter()
        self.frames = sum(len(c.frames) for c in clips)
        self.synth_frames = len(samples)
        self.out = dict(meshes=meshes, samples=samples, loaded=loaded,
                        loaded_meshes=loaded_meshes, loaded_samples=loaded_samples,
                        derived=derived)
        self.bytes_written = sum(p.stat().st_size for p in self._files(w))
        return {"synth": t1 - t0, "write": t2 - t1, "load": t3 - t2, "derive": t4 - t3}

    @staticmethod
    def _files(directory: Path) -> list[Path]:
        return [directory / "clips.jsonl", directory / "contacts.jsonl",
                *sorted((directory / "meshes").iterdir())]

    def _digests(self, directory: Path) -> dict[str, str]:
        return {p.relative_to(directory).as_posix(): _file_digest(p)
                for p in self._files(directory)}

    def check(self, first: bool) -> list[str]:
        o = self.out
        summary = (self._digests(self.work), checks.label_bits(o["derived"]).tobytes())
        if not first:
            return [] if summary == self.first else ["round differs from the first round"]
        self.first = summary
        # the canonical format: writing what was loaded reproduces the bytes
        again = self.work / "again"
        again.mkdir(exist_ok=True)
        io.write_clips(o["loaded"], again / "clips.jsonl")
        io.write_meshes(o["loaded_meshes"], again / "meshes")
        io.write_contact_targets(o["loaded_samples"], again / "contacts.jsonl")
        problems = [f"{name}: loading and writing back changes the bytes"
                    for name, d in self._digests(again).items() if summary[0].get(name) != d]
        n_synth = len(o["samples"])
        problems += checks.check_same_labels(o["derived"][:n_synth], o["samples"],
                                             "derived vs synth labels")
        problems += checks.check_same_labels(o["loaded_samples"], o["samples"],
                                             "loaded vs written labels")
        th = self.dc.thresholds
        vertices = {k: m.vertices for k, m in o["meshes"].items()}
        problems += checks.check_labels(o["loaded"], vertices, o["derived"], th.eta_c, th.eta_d)
        return problems

    def stage_metrics(self, rounds) -> dict[str, tuple[float, str]]:
        med = {k: statistics.median(r[k] for r in rounds) for k in rounds[0]}
        return {
            "synth_frames_per_s": (self.synth_frames / med["synth"], "frames/s"),
            "write_frames_per_s": (self.frames / med["write"], "frames/s"),
            "load_frames_per_s": (self.frames / med["load"], "frames/s"),
            "derive_frames_per_s": (self.frames / med["derive"], "frames/s"),
        }


WORKLOADS = {"train": Train, "infer": Infer, "label": Label}
