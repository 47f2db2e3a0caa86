"""Run the benchmark over several seeds and summarise the spread of each metric.

    python3 perfbench/baseline.py --workload search --seeds 1-10 \
        [--trace 0] [--out perfbench/baseline/search.json]

Each run is `perfbench/run.py --workload W --seed S --seconds <run_seconds
of BENCHMARK.json> --trace T`, one after another.  For every metric the
summary gives the median and quartiles (``statistics.quantiles(n=4)``) of
the per-run values and the spread, the distance between the quartiles as
a share of the median.  For end-to-end metrics it also shows the bound of
BENCHMARK.json and whether the spread stays below a third of it.  With
``--out`` the runs and the summary are written with the environment stamp.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import run

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(Path(run.__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"run failed: {workload} seed {seed} (exit {proc.returncode})")
    return json.loads(lines[-1])


def summarise(runs: list) -> dict:
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        entry = {"unit": runs[0]["metrics"][name]["unit"], "median": med,
                 "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}
        if name in bounds:
            entry["bound"] = bounds[name]
            entry["within_third_of_bound"] = entry["spread"] < bounds[name] / 3
        summary[name] = entry
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=run.WORKLOAD_NAMES)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=BENCH["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    seeds = parse_seeds(args.seeds)
    runs = []
    for seed in seeds:
        result = run_once(args.workload, seed, args.seconds, args.trace)
        runs.append(result)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)
    summary = summarise(runs)
    for name, e in summary.items():
        flag = ""
        if "bound" in e:
            flag = f" bound {e['bound']}" + ("" if e["within_third_of_bound"] else "  WIDE")
        print(f"{args.workload:10s} {name:40s} median {e['median']:.6g} {e['unit']}"
              f"  spread {e['spread']:.4f}{flag}")
    if args.out:
        record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
                  "env": run.env_stamp(seeds[0]), "seeds": seeds, "runs": runs,
                  "summary": summary}
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
