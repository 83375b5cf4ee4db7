#!/usr/bin/env python3
"""casar benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload train|label|infer --seed N --seconds S --trace 0|1

``train`` and ``label`` are the workloads of BENCHMARK.json; ``infer`` is
run by hand.

Run from the root of a source checkout; casar is imported from its
``src/`` directory.  The run sets up its inputs from the seed several
times, each time afresh (the median is ``setup_s``), then makes whole
rounds of the workload's casar calls until the rounds have taken ``--seconds``, checking every
round's outputs.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics from spans with ``--trace 1``.
The line before it holds the workload's stage figures.
"""

from __future__ import annotations

import os

BLAS_THREADS = "1"
# numpy reads these when it is first imported, so they are set before any import of it
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import gc
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
COUNT_UNITS = ("count", "B")


def import_casar():
    """Import casar from this checkout's ``src/``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "casar" / "__init__.py").is_file():
        sys.exit(f"bench: no casar sources under {src}")
    sys.path.insert(0, str(src))
    import casar
    if Path(casar.__file__).resolve().parent != (src / "casar").resolve():
        sys.exit(f"bench: imported casar from {casar.__file__}, not from {src}")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="casar benchmark")
    parser.add_argument("--workload", required=True, choices=("train", "infer", "label"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def per_layer_metrics(tracer, workload) -> tuple[dict, list[str]]:
    """Per-layer figures from the spans of all rounds, and any count that did not repeat.

    Times are medians per call (per round for calls made once a round);
    counts are per round and must be the same in every round.
    """
    from spans import median_or_zero

    dur, self_time, calls = tracer.spans()
    rounds = range(tracer.round + 1)
    problems = []

    def per_round(counter, name):
        counts = [counter.get(r, 0) for r in rounds]
        if len(set(counts)) > 1:
            problems.append(f"{name}: per-round counts differ {counts}")
        return counts[0]

    def count(name):
        return per_round(calls.get(name, {}), name)

    def t(name, scale):
        return median_or_zero(dur.get(name, []), scale)

    def self_s(name):
        return median_or_zero(self_time.get(name, []), 1.0)

    def round_total(name):
        per = tracer.total_by_round(name)
        return median_or_zero([per.get(r, 0.0) for r in rounds], 1.0) if per else 0.0

    adam_calls = count("neuralcore.adam_step")
    if adam_calls != workload.adam_steps():
        problems.append(f"adam_step calls {adam_calls} != {workload.adam_steps()} expected")
    m = {
        "neuralcore.adam_step.g.ms": (t("neuralcore.adam_step.g", 1e3), "ms"),
        "neuralcore.adam_step.bytes": (7 * 8 * workload.g_trained_parameters, "B"),
        "neuralcore.adam_step.f.ms": (t("neuralcore.adam_step.f", 1e3), "ms"),
        "neuralcore.forward.f.ms": (t("neuralcore.forward.f", 1e3), "ms"),
        "neuralcore.backward.f.ms": (t("neuralcore.backward.f", 1e3), "ms"),
        "neuralcore.loss.f.ms": (t("neuralcore.loss.f", 1e3), "ms"),
        "neuralcore.forward.g.ms": (t("neuralcore.forward.g", 1e3), "ms"),
        "neuralcore.backward.g.ms": (t("neuralcore.backward.g", 1e3), "ms"),
        "neuralcore.loss.g.ms": (t("neuralcore.loss.g", 1e3), "ms"),
        "neuralcore.adam_step.calls": (adam_calls, "count"),
        "neuralcore.forward.calls": (count("neuralcore.forward"), "count"),
        "pipeline.clip_features.ms": (t("pipeline.clip_features", 1e3), "ms"),
        "pipeline.load_checkpoint.s": (round_total("pipeline.load_checkpoint"), "s"),
        "pipeline.derive_contact_dataset.self_s": (self_s("pipeline.derive_contact_dataset"), "s"),
        "datamodel.encode_frame.calls": (count("datamodel.encode_frame"), "count"),
        "datamodel.encode_frame.us": (t("datamodel.encode_frame", 1e6), "us"),
        "datamodel.resample_frames.us": (t("datamodel.resample_frames", 1e6), "us"),
        "geometry.build_vertex_index.calls": (count("geometry.build_vertex_index"), "count"),
        "geometry.build_vertex_index.us": (t("geometry.build_vertex_index", 1e6), "us"),
        "geometry.label_contact_map.calls": (count("geometry.label_contact_map"), "count"),
        "geometry.label_contact_map.us": (t("geometry.label_contact_map", 1e6), "us"),
        "geometry.validate_rigid_transform.calls":
            (count("geometry.validate_rigid_transform"), "count"),
        "io.write_clips.s": (t("io.write_clips", 1.0), "s"),
        "io.write_contact_targets.s": (t("io.write_contact_targets", 1.0), "s"),
        "io.bytes_written": (workload.bytes_written, "B"),
        "io.load_clips.s": (t("io.load_clips", 1.0), "s"),
        "io.load_contact_targets.s": (t("io.load_contact_targets", 1.0), "s"),
        "synth.synth_generate.self_s": (self_s("synth.synth_generate"), "s"),
        "evaluation.evaluate_pipeline.s": (t("evaluation.evaluate_pipeline", 1.0), "s"),
        "evaluation.forward_calls": (
            per_round(tracer.calls_under("evaluation.evaluate_pipeline", "neuralcore.forward"),
                      "evaluation.forward_calls"), "count"),
    }
    return m, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    import_casar()
    sys.path.insert(0, str(BENCH))
    from spans import Tracer
    from workloads import WORKLOADS
    from casar import datamodel

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        # Each set-up and each round starts from the same heap: the previous
        # set-up is dropped and the garbage collector has just run.
        setup_s = []
        for _ in range(WORKLOADS[args.workload].setups):
            workload = None
            gc.collect()
            workload = WORKLOADS[args.workload](args.seed, work)
            t0 = time.perf_counter()
            workload.setup()
            setup_s.append(time.perf_counter() - t0)
        workload.prepare()

        tracer = None
        if args.trace:
            tracer = Tracer(f_input_dim=datamodel.DatasetConfig().frame_dim)
            tracer.install()
        rounds, problems, timed = [], [], 0.0
        while not rounds or timed < args.seconds:
            gc.collect()
            if tracer:
                tracer.round = len(rounds)
                tracer.enabled = True
            stages = workload.run_round()
            if tracer:
                tracer.enabled = False
            rounds.append(stages)
            timed += sum(stages.values())
            problems += workload.check(first=len(rounds) == 1)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer:
            tracer.uninstall()

        end_to_end = {
            "setup_s": (statistics.median(setup_s), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "round_s": (statistics.median(sum(r.values()) for r in rounds), "s"),
        }
        stages = workload.stage_metrics(rounds)
        layer = {}
        if tracer:
            layer, count_problems = per_layer_metrics(tracer, workload)
            problems += count_problems
            traces = ROOT / ".bench_work" / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            tracer.write_jsonl(traces / f"{args.workload}-seed{args.seed}.jsonl", {
                "workload": args.workload, "seed": args.seed, "rounds": len(rounds),
                "blas_threads": int(BLAS_THREADS), "end_to_end": fmt(end_to_end),
                "stages": fmt(stages), "per_layer": fmt(layer),
            })
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for p in problems:
        print(f"bench: check failed: {p}", file=sys.stderr)
    print(json.dumps({"rounds": len(rounds), "blas_threads": int(BLAS_THREADS),
                      "traced": bool(args.trace), "end_to_end": fmt(end_to_end),
                      "stages": fmt(stages), "per_layer": fmt(layer)}))
    # A layer's time reads 0 on a workload that never calls it, so the result
    # line carries the per-layer counts, which are exact; the times stay above.
    metrics = ({k: v for k, v in layer.items() if v[1] in COUNT_UNITS} if args.trace
               else end_to_end)
    print(json.dumps({
        "correct": not problems,
        "attempted": workload.ops_per_round * len(rounds),
        "failed": 0,
        "metrics": fmt(metrics),
    }))
    return 0


def fmt(metrics: dict) -> dict:
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


if __name__ == "__main__":
    sys.exit(main())
