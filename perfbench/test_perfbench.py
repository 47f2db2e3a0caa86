"""The benchmark's own checks; not part of the library's test suite.

    python3 -m pytest perfbench -q      # about four minutes

* layer routing: each workload still exercises the layers it was chosen
  for (search makes no Bareiss call, repro does, warm sweep lookups all hit);
* references: the recorded outputs are what the library and its CLI give,
  and runs at the default and the held-out seed report no failure;
* contract: a run prints exactly the metrics BENCHMARK.json names, and a
  directory without the library source gets an error and no result;
* tracing: wrappers come off again and self time excludes children.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402
from fatpoints import analysis, cli, linsys  # noqa: E402
from fatpoints.serialize import dump_json  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
DEFAULT_SEED, HELD_OUT_SEED = 0, 7


def traced(workload, passes=None):
    tracer = tracing.Tracer()
    if passes is not None:
        workload.trace_passes = passes
    with tracer:
        records = workload.traced(tracer)
    return tracer, records


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


# -- layer routing -----------------------------------------------------------

def test_search_never_reaches_bareiss():
    tracer, records = traced(W.Search(DEFAULT_SEED), passes=1)
    assert not any(rec.error for p in records for rec in p)
    assert tracer.calls["analysis.conjecture_search"] == len(W.SEARCH_R)
    assert tracer.calls["linsys.modp_rref"] > 0
    assert tracer.calls["linsys.bareiss_echelon"] == 0


def test_repro_reaches_exact_kernels():
    tracer, records = traced(W.Repro(DEFAULT_SEED))
    assert not any(rec.error for p in records for rec in p)
    assert tracer.calls["linsys.bareiss_echelon"] > 0
    assert tracer.calls["algebra.order_of_vanishing"] > 0
    assert tracer.metrics()["linsys.bareiss_echelon.per_exact_call"][0] >= 1


def test_warm_sweep_hits_everything_the_cold_pass_wrote():
    workload = W.SweepWarm(DEFAULT_SEED)
    try:
        tracer, records = traced(workload, passes=3)
    finally:
        workload.close()
    assert not any(rec.error for p in records for rec in p)
    counts = workload.trace_counts
    assert counts["cache.cold.misses"] > 0
    assert workload.warm_hits_per_pass == [counts["cache.cold.misses"]] * 3
    assert counts["cache.warm.put_report_calls"] == 0


def test_cold_sweep_misses_and_writes_every_lookup():
    workload = W.Sweep(DEFAULT_SEED)
    tracer, records = traced(workload, passes=1)
    assert not any(rec.error for p in records for rec in p)
    assert workload.trace_counts["cache.hits"] == 0
    assert tracer.calls["cache.put_report"] == workload.trace_counts["cache.misses"] > 0


# -- references --------------------------------------------------------------

@pytest.mark.parametrize("seed", [DEFAULT_SEED, HELD_OUT_SEED])
def test_canonical_search_report(seed):
    rep = analysis.conjecture_search(trials=200, r_range=(4, 9), k=W.K, seed=seed)
    want = (W.REFERENCE / f"search_trials200_seed{seed}.json").read_text(encoding="utf-8")
    assert dump_json(rep.to_json_dict()) == want


def test_repro_reference_is_the_cli_output(tmp_path, capsys):
    out = tmp_path / "repro.json"
    assert cli.main(["repro", "--all", "--out", str(out)]) == 1  # dual-Hesse rows fail
    assert out.read_bytes() == (W.REFERENCE / "repro_run.json").read_bytes()


def test_sweep_reference_matches_uncached_recomputation():
    ref = W.load_reference("sweep_pool.json")["entries"]
    for r in W.SWEEP_R:
        pts = W.sweep_points(r, 0)
        rep = linsys.alpha_sequence(pts, W.K)
        assert W.sweep_outcome(rep, W.run_checkers(pts, rep.alphas)) == ref[f"{r}:0"]


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("seed,trace", [(DEFAULT_SEED, 1), (HELD_OUT_SEED, 0)])
def test_run_reports_every_metric_without_failures(workload, seed, trace):
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                 "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = BENCH["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in wanted)
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        if not trace:
            assert result["metrics"][m["name"]]["value"] > 0


# -- contract ----------------------------------------------------------------

def test_workload_names_agree():
    assert tuple(W.WORKLOADS) == run.WORKLOAD_NAMES
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOAD_NAMES)


def test_refuses_to_run_without_library_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "search", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# -- tracing -----------------------------------------------------------------

def test_tracer_restores_the_library():
    before = linsys.system_dim, analysis.alpha_sequence, W.ResultCache.get_report
    with tracing.Tracer():
        assert linsys.system_dim is not before[0]
        assert analysis.alpha_sequence is not before[1]
    assert (linsys.system_dim, analysis.alpha_sequence, W.ResultCache.get_report) == before


def test_self_time_excludes_children():
    rows = [[1, 2, 3, 4], [2, 4, 6, 9], [0, 1, 5, 7]]
    with tracing.Tracer() as tracer:
        linsys.rational_nullspace(rows)
    spans = {name: (sid, start, end, parent) for sid, name, start, end, parent, _ in tracer.spans}
    outer = spans["linsys.rational_nullspace"]
    inner = spans["linsys.bareiss_echelon"]
    assert inner[3] == outer[0]
    total = outer[2] - outer[1]
    self_sum = (tracer.self_s["linsys.rational_nullspace"]
                + tracer.self_s["linsys.bareiss_echelon"])
    assert self_sum == pytest.approx(total, rel=1e-9)
