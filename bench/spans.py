"""Spans around calls into casar's public functions, recorded from outside.

The benchmark does not change casar to trace it.  ``Tracer.install``
replaces each traced function, in every casar module that binds it, with
a wrapper that records a span (name, start, end, parent, round, network)
and restores the originals on ``uninstall``.  Spans stay in memory and are
written to JSONL only when the run ends.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from collections import Counter, defaultdict

# (module, function) pairs the tracer wraps; names in spans are "module.function"
TRACED = {
    "neuralcore": ("forward", "backward", "adam_step", "focal_loss",
                   "action_loss", "softmax_action_loss"),
    "pipeline": ("clip_features", "load_checkpoint", "derive_contact_dataset",
                 "train_contact_module", "train_action_module", "predict_action",
                 "predict_contact"),
    "datamodel": ("encode_frame", "encode_clip", "resample_frames"),
    "geometry": ("build_vertex_index", "label_contact_map", "validate_rigid_transform",
                 "transform_points"),
    "io": ("write_clips", "write_meshes", "write_contact_targets", "load_clips",
           "load_meshes", "load_contact_targets"),
    "synth": ("synth_generate",),
    "evaluation": ("evaluate_pipeline",),
}

# the loss each network trains with: f uses the focal loss, g a classification loss
_LOSS_NET = {"focal_loss": "f", "action_loss": "g", "softmax_action_loss": "g"}


class Tracer:
    """Records one span per traced call while installed.

    ``f_input_dim`` tells the two networks apart: a model whose input width
    equals it is the contact network f, any other model is g.
    """

    def __init__(self, f_input_dim: int):
        self.f_input_dim = f_input_dim
        self.round = -1
        self.enabled = False
        self.names: list[str] = []
        self.nets: list[str | None] = []
        self.rounds: list[int] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _net(self, short: str, args) -> str | None:
        if short in _LOSS_NET:
            return _LOSS_NET[short]
        if short in ("forward", "backward", "adam_step"):
            return "f" if args[0].input_dim == self.f_input_dim else "g"
        return None

    def _wrap(self, name: str, fn):
        short = name.split(".", 1)[1]
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            i = len(self.names)
            self.names.append(name)
            self.nets.append(self._net(short, args))
            self.rounds.append(self.round)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.starts.append(0.0)
            self.ends.append(0.0)
            self._stack.append(i)
            self.starts[i] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self.ends[i] = clock()
                self._stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "casar" or key.startswith("casar."))]
        for layer, functions in TRACED.items():
            home = sys.modules[f"casar.{layer}"]
            for short in functions:
                original = getattr(home, short)
                wrapper = self._wrap(f"{layer}.{short}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._saved.append((module, attr, original))
                            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def write_jsonl(self, path, summary: dict) -> None:
        """A summary line, then one ``[id, name, net, round, parent, start, end]`` per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"summary": summary,
                                 "columns": ["id", "name", "net", "round", "parent",
                                             "start", "end"]}) + "\n")
            for i, name in enumerate(self.names):
                fh.write(json.dumps([i, name, self.nets[i], self.rounds[i], self.parents[i],
                                     self.starts[i], self.ends[i]]) + "\n")

    def spans(self):
        """Per-name arrays: durations, self times, and per-round call counts."""
        child_time = [0.0] * len(self.names)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child_time[p] += self.ends[i] - self.starts[i]
        dur = defaultdict(list)
        self_time = defaultdict(list)
        calls = defaultdict(Counter)
        for i, name in enumerate(self.names):
            net = self.nets[i]
            if net is None:
                key = name
            elif name.split(".", 1)[1] in _LOSS_NET:
                key = f"neuralcore.loss.{net}"
            else:
                key = f"{name}.{net}"
            for k in {name, key}:
                d = self.ends[i] - self.starts[i]
                dur[k].append(d)
                self_time[k].append(d - child_time[i])
                calls[k][self.rounds[i]] += 1
        return dur, self_time, calls

    def total_by_round(self, name: str) -> dict:
        """Seconds spent in ``name`` spans, per round."""
        totals: dict = defaultdict(float)
        for i, n in enumerate(self.names):
            if n == name:
                totals[self.rounds[i]] += self.ends[i] - self.starts[i]
        return totals

    def calls_under(self, ancestor: str, name: str) -> Counter:
        """Per-round count of ``name`` spans nested anywhere below ``ancestor``."""
        counts: Counter = Counter()
        for i, n in enumerate(self.names):
            if n != name:
                continue
            p = self.parents[i]
            while p >= 0 and self.names[p] != ancestor:
                p = self.parents[p]
            if p >= 0:
                counts[self.rounds[i]] += 1
        return counts


def median_or_zero(values, scale: float) -> float:
    """Median of ``values`` times ``scale``; 0.0 when the layer made no call."""
    return statistics.median(values) * scale if values else 0.0
