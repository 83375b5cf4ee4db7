#!/usr/bin/env python3
"""Compare two result sets written by sweep.py (or summarise one).

    python3 bench/compare.py A.jsonl [B.jsonl]

For each workload and figure it prints each side's median, quartiles and
spread (the distance between the quartiles as a share of the median).

- End-to-end metrics carry their bound from BENCHMARK.json.  A side is
  steady when its spread is within the bound.  B agrees with A when B's
  median is not worse than A's by more than the bound.
- Stage figures (``stage:``) and per-layer times of traced sets
  (``layer:``) are held to the largest end-to-end bound, as a guide only.
- Per-layer counts of two traced sets must repeat exactly, seed by seed.
- When A is untraced and B traced, B's end-to-end rows are the same
  figures measured under tracing: the difference is the tracing overhead.

Exits 1 if the runs differ in length, a run was incorrect, an end-to-end
metric is unsteady or worse than its bound, or a count differs.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COUNT_UNITS = ("count", "B")


def load(path) -> list[dict]:
    return [json.loads(line) for line in open(path, encoding="utf-8") if line.strip()]


def figures(records) -> dict:
    """{(workload, figure): {seed: (value, unit)}} from every line a run printed."""
    out = defaultdict(dict)
    for r in records:
        w, seed, info = r["workload"], r["seed"], r["info"]
        groups = [("", info["end_to_end"]), ("stage:", info["stages"])]
        if r["trace"]:
            groups.append(("layer:", info["per_layer"]))
        for prefix, group in groups:
            for name, m in group.items():
                out[(w, prefix + name)][seed] = (m["value"], m["unit"])
    return out


def stats(values):
    v = sorted(values)
    if len(v) < 2:
        return v[0], v[0], v[0], 0.0
    q1, med, q3 = statistics.quantiles(v, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    widest = max(m["bound"] for m in bench["end_to_end"])
    sets = [load(p) for p in argv]
    figs = [figures(s) for s in sets]
    overhead = len(sets) == 2 and not any(r["trace"] for r in sets[0]) and all(
        r["trace"] for r in sets[1])
    ok = True
    lengths = {r["seconds"] for s in sets for r in s}
    if len(lengths) > 1:
        ok = False
        print(f"runs of different lengths compared: {sorted(lengths)} s")
    for side, s in zip("AB", sets):
        bad = [f"{r['workload']} seed {r['seed']}" for r in s if not r["result"]["correct"]]
        if bad:
            ok = False
            print(f"set {side}: incorrect runs: {', '.join(bad)}")

    print(f"{'workload':8s} {'figure':46s} {'unit':8s} {'side':4s} {'median':>12s} "
          f"{'q1':>12s} {'q3':>12s} {'spread':>7s}  verdict")
    keys = sorted(set().union(*figs), key=lambda k: (k[0], k[1].count(":"), k[1]))
    for w, name in keys:
        sides = [(side, f[(w, name)]) for side, f in zip("AB", figs) if (w, name) in f]
        unit = next(iter(sides[0][1].values()))[1]
        gated = name in e2e
        if unit in COUNT_UNITS and name.startswith("layer:"):
            bound = None
        else:
            bound = e2e[name]["bound"] if gated else widest
        lower = e2e[name]["better"] == "lower" if gated else not unit.endswith("/s")
        rows = []
        for side, by_seed in sides:
            values = [v for v, _ in by_seed.values()]
            med, q1, q3, spread = stats(values)
            verdict = ""
            if bound is not None:
                verdict = "steady" if spread <= bound else f"SPREAD>{bound}"
                if spread > bound and gated and not (overhead and side == "B"):
                    ok = False
            rows.append([side, med, q1, q3, spread, verdict])
        if len(sides) == 2 and bound is not None and rows[0][1] == 0:
            rows[1][5] = "idle in A" if rows[1][1] == 0 else "idle in A, not in B"
        elif len(sides) == 2 and bound is not None:
            a, b = rows[0][1], rows[1][1]
            worse = (b - a) / a if lower else (a - b) / a
            change = f"B {b / a - 1:+.1%} vs A"
            if overhead:
                rows[1][5] += f"; tracing overhead: {change}"
            elif worse <= bound:
                rows[1][5] += f"; {change}: agree"
            else:
                rows[1][5] += f"; {change}: WORSE>{bound}"
                ok = ok and not gated
        if len(sides) == 2 and bound is None:
            a_seeds, b_seeds = sides[0][1], sides[1][1]
            same = all(a_seeds[s] == b_seeds[s] for s in set(a_seeds) & set(b_seeds))
            ok = ok and same
            rows[1][5] = "counts repeat" if same else "COUNTS DIFFER"
        for side, med, q1, q3, spread, verdict in rows:
            print(f"{w:8s} {name:46s} {unit:8s} {side:4s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:7.2%}  {verdict.strip('; ')}")
    print("all agree" if ok else "DISAGREEMENT")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
