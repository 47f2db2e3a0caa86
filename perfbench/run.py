"""The fatpoints benchmark: one command per workload run.

    python3 perfbench/run.py --workload search --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from ./src.
Workloads (see workloads.py): search, repro, sweep, sweep-warm.

A run sets up (import, registry load, input generation, one untimed
warm-up operation), then runs passes of its workload until ``--seconds``
have passed, checking every operation against the recorded reference.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics:

  setup_s      median of five set-ups: this process's own and four fresh
               interpreters that do the same set-up
  wall_s       median wall time of one pass
  cpu_s        median CPU time of one pass
  ops_per_s    operations completed per second of operation time
  op_p50_ms    median operation latency
  op_p90_ms    90th-percentile operation latency
  peak_rss_mb  peak resident memory of the measuring process

``--trace 1`` runs the same untraced measurement, then a fixed amount of
traced work (``trace_passes`` passes of the workload) and reports the
per-layer metrics of tracing.py plus the tracing overhead, the traced
minus the untraced median pass time.  Spans go to
.perfbench/traces/<workload>-seed<S>.jsonl.

Every run writes its result, stamped with the environment, to
.perfbench/results/.  An operation fails when it raises or when its output
differs from the reference; the run then still prints its result, with
``correct`` false, and exits with code 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_CHILDREN = 4
WORKLOAD_NAMES = ("search", "repro", "sweep", "sweep-warm")  # keys of workloads.WORKLOADS


def percentile(values, q: float) -> float:
    """Harrell-Davis estimate of the ``q`` quantile.

    A weighted mean of all order statistics, with Beta(q(n+1), (1-q)(n+1))
    weights.  Operation times cluster by point count, and a plain sample
    quantile that falls between two clusters jumps with the extreme of one
    of them; this estimate moves smoothly.  Falls back to linear
    interpolation where the Beta density is unbounded (tiny samples).
    """
    import numpy as np

    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    if a <= 1 or b <= 1:
        return float(np.quantile(x, q))
    grid = np.linspace(0.0, 1.0, 200001)[1:-1]
    log_pdf = ((a - 1) * np.log(grid) + (b - 1) * np.log1p(-grid)
               + math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b))
    cdf = np.concatenate(([0.0], np.cumsum(np.exp(log_pdf)), [0.0]))
    cdf[-1] = cdf[-2]
    cdf /= cdf[-1]
    edges = np.interp(np.arange(n + 1) / n, np.linspace(0.0, 1.0, 200001), cdf)
    return float(np.dot(np.diff(edges), x))


def setup(workload_name: str, seed: int):
    """Import, load, generate inputs and warm up.

    Returns the workload and the set-up time in seconds, scaled by the
    median of three speed probes run just after it.
    """
    t0 = perf_counter()
    import workloads

    workloads.analysis.load_registry()
    workload = workloads.WORKLOADS[workload_name](seed)
    workload.warm_up()
    elapsed = perf_counter() - t0
    import speed

    return workload, elapsed * speed.PROBE_REF_S / statistics.median(
        speed.probe() for _ in range(3))


def setup_in_child(workload_name: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", workload_name, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def env_stamp(seed: int) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _git_commit(),
        "seed": seed,
    }


def measure(workload, seconds: float) -> list:
    """Passes until ``seconds`` of wall time have gone; at least one."""
    passes = []
    start = perf_counter()
    while not passes or perf_counter() - start < seconds:
        passes.append(workload.run_pass(len(passes)))
    return passes


def pass_wall(p, scaled=True) -> float:
    return sum(r.wall * (r.scale if scaled else 1.0) for r in p)


def end_to_end(passes, setup_s: float, peak_rss_mb: float, scaled: bool = True) -> dict:
    """End-to-end metrics; times are speed-scaled unless ``scaled`` is false."""
    ops = [rec for p in passes for rec in p]
    walls = [rec.wall * (rec.scale if scaled else 1.0) for rec in ops]
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(pass_wall(p, scaled) for p in passes), "s"),
        "cpu_s": (statistics.median(sum(r.cpu * (r.scale if scaled else 1.0) for r in p)
                                    for p in passes), "s"),
        "ops_per_s": (len(ops) / sum(walls), "1/s"),
        "op_p50_ms": (1000 * percentile(walls, 0.50), "ms"),
        "op_p90_ms": (1000 * percentile(walls, 0.90), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def per_layer(workload, passes, traced_passes, tracer) -> dict:
    metrics = tracer.metrics()
    for name in ("cache.hits", "cache.misses", "cache.put_report.bytes",
                 "cache.cold.misses", "cache.warm.hits", "cache.warm.put_report_calls"):
        unit = "bytes" if name.endswith("bytes") else "count"
        metrics[name] = (workload.trace_counts.get(name, 0), unit)
    untraced = statistics.median(pass_wall(p) for p in passes)
    traced = statistics.median(pass_wall(p) for p in traced_passes)
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    metrics["trace.overhead_frac"] = ((traced - untraced) / untraced, "ratio")
    metrics["trace.ops"] = (sum(len(p) for p in traced_passes), "count")
    metrics["trace.spans"] = (len(tracer.spans), "count")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "fatpoints" / "__init__.py").is_file():
        print(f"perfbench: no library source at {SRC / 'fatpoints'}; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))

    if args.setup_only:
        workload, setup_s = setup(args.workload, args.seed)
        workload.close()
        print(json.dumps({"setup_s": setup_s}))
        return 0

    workload, own_setup = setup(args.workload, args.seed)
    import workloads  # already loaded, and timed, by setup()
    try:
        setups = [own_setup] + [setup_in_child(args.workload, args.seed)
                                for _ in range(SETUP_CHILDREN)]
        passes = measure(workload, args.seconds)
        # read before the benchmark's own statistics allocate anything
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        workload.apply_speed(passes)
        all_passes = list(passes)
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
            with tracer:
                traced_passes = workload.traced(tracer)
            workload.apply_speed(traced_passes)
            all_passes += traced_passes
            metrics = per_layer(workload, passes, traced_passes, tracer)
            trace_dir = workloads.WORK_DIR / "traces"
            trace_dir.mkdir(parents=True, exist_ok=True)
            tracer.write_jsonl(trace_dir / f"{args.workload}-seed{args.seed}.jsonl")
            raw = {}
        else:
            metrics = end_to_end(passes, statistics.median(setups), peak_rss_mb)
            raw = end_to_end(passes, statistics.median(setups), peak_rss_mb, scaled=False)
            del raw["setup_s"]
    finally:
        workload.close()
        try:  # other runs may still own caches here
            (workloads.WORK_DIR / "cache").rmdir()
        except OSError:
            pass

    ops = [rec for p in all_passes for rec in p]
    failures = [rec for rec in ops if rec.error]
    result = {
        "correct": not failures,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    env = env_stamp(args.seed)
    results_dir = workloads.WORK_DIR / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    with open(results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seconds": args.seconds,
                   "trace": args.trace, "env": env, "passes": len(all_passes),
                   "setup_samples_s": setups, "result": result,
                   "unscaled": {name: value for name, (value, _) in raw.items()},
                   "probe_s": statistics.median(workload.speed.values),
                   "failures": [{"op": r.op_id, "error": r.error} for r in failures[:50]]},
                  fh, indent=1)

    for rec in failures[:20]:
        print(f"FAILED {rec.op_id}: {rec.error}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} passes={len(all_passes)} "
          f"ops={len(ops)} env={json.dumps(env)}")
    print(f"# fail_frac = {len(failures) / len(ops):.6g} ({len(failures)}/{len(ops)})")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    print(json.dumps(result))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
