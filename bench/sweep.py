#!/usr/bin/env python3
"""Run the benchmark over several seeds and workloads and save a result set.

    python3 bench/sweep.py --out results/a.jsonl [--seeds 1-10] [--trace 0|1] [--workload W]

Each run is a separate process of ``bench/run.py`` that measures for
``run_seconds`` of BENCHMARK.json; runs go seed by seed, each seed through
every workload of BENCHMARK.json, or through ``--workload`` alone (how
``infer``, which BENCHMARK.json does not list, is measured).  Every line of the output file is one
run: workload, seed, trace flag, the result line and the stage line
before it.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workload", choices=("train", "label", "infer"))
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workloads = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "a", encoding="utf-8") as fh:
        for seed in seed_list(args.seeds):
            for workload in workloads:
                cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                       "--seed", str(seed), "--seconds", str(seconds),
                       "--trace", str(args.trace)]
                t0 = time.perf_counter()
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                      timeout=600)
                wall = time.perf_counter() - t0
                lines = proc.stdout.strip().splitlines()
                if proc.returncode != 0 or len(lines) < 2:
                    sys.stderr.write(proc.stderr)
                    print(f"{workload} seed {seed}: exit {proc.returncode}", file=sys.stderr)
                    return 1
                record = {"workload": workload, "seed": seed, "trace": args.trace,
                          "seconds": seconds, "wall_s": round(wall, 3),
                          "info": json.loads(lines[-2]), "result": json.loads(lines[-1])}
                fh.write(json.dumps(record) + "\n")
                fh.flush()
                res = record["result"]
                print(f"{workload:6s} seed {seed:3d} correct={res['correct']} "
                      f"rounds={record['info']['rounds']} wall={wall:.1f}s "
                      + " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()
                                 if not args.trace), flush=True)
                if proc.stderr.strip():
                    sys.stderr.write(proc.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
