"""The benchmark's workloads, their inputs and their reference checks.

Every workload draws its inputs from a fixed pool whose outputs were
recorded from the library (``record.py``); the seed only chooses which
pool entries a run uses and in what order, so every operation of every
seed is checked against a recorded reference.  The mix of point counts is
the same in every pass, because the time of one operation depends mostly
on the point count; a seeded draw of point counts would make the pass time
depend on the seed.

* ``search``     one pass is a round of six one-trial ``conjecture_search``
                 calls, one for each r in 4..9 (k = 5, height 999).
* ``repro``      one pass is ``repro`` over the 18 registry rows, in an
                 order shuffled by the seed; one operation is one row.
* ``sweep``      one pass streams 12 configurations ``general(r, ...)``,
                 two for each r in 3..8, through ``alpha_sequence(k=5)``
                 with a fresh ``ResultCache`` and the four checkers at the
                 k values of the criterion-10 test (12 verdicts each).
                 Every cache lookup misses and is written.
* ``sweep-warm`` set-up runs one such cold pass; every pass after it
                 repeats the same 12 configurations against the filled
                 cache, so every lookup hits.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import traceback
from pathlib import Path
from time import perf_counter, process_time

from fatpoints import analysis, configs, linsys
from fatpoints.cache import ResultCache
from fatpoints.serialize import dump_json
from speed import SpeedTrack

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = Path(__file__).resolve().parent / "reference"
WORK_DIR = ROOT / ".perfbench"

K = 5
HEIGHT = 999
POOL = 100  # pool entries per point count
SEARCH_R = tuple(range(4, 10))
SWEEP_R = tuple(range(3, 9))
SWEEP_SEED_BASE = 90000
SWEEP_PER_R = 2  # configurations per point count in one sweep pass
REPRO_WARM_UP = "ex-6general"

# (checker, k values) exactly as the criterion-10 acceptance test runs them
CHECKERS = (
    ("check_minimal_gap_collinear", (3, 4, 5)),
    ("check_unit_step_arrangement", (2, 3, 4, 5)),
    ("check_double_unit_step_collinear", (3, 4, 5)),
    ("check_uniform_step_two_conic", (4, 5)),
)


def digest(obj) -> str:
    return hashlib.sha256(dump_json(obj).encode()).hexdigest()


def load_reference(name: str) -> dict:
    with open(REFERENCE / name, "r", encoding="utf-8") as fh:
        return json.load(fh)


def search_trial(r: int, s: int):
    """One trial of the conjecture search at r points, drawn from seed ``s``."""
    return analysis.conjecture_search(trials=1, r_range=(r, r), k=K, seed=s)


def sweep_points(r: int, c: int):
    return configs.general(r, seed=SWEEP_SEED_BASE + c, height=HEIGHT)


def run_checkers(points, alphas):
    return [getattr(analysis, name)(points, k, alphas=alphas)
            for name, ks in CHECKERS for k in ks]


def sweep_outcome(rep, verdicts) -> dict:
    return {"alphas": list(rep.alphas),
            "verdicts": digest([v.to_json_dict() for v in verdicts])}


def _orders(tag: str, seed: int, strata) -> dict:
    """A seeded permutation of the pool for each point count."""
    return {r: random.Random(f"perfbench:{tag}:{seed}:{r}").sample(range(POOL), POOL)
            for r in strata}


class OpRecord:
    __slots__ = ("op_id", "start", "wall", "cpu", "error", "scale")

    def __init__(self, op_id, start, wall, cpu, error):
        self.op_id = op_id
        self.start = start
        self.wall = wall
        self.cpu = cpu
        self.error = error
        self.scale = 1.0  # machine-speed scale, set once the run's probes are in


class Workload:
    """Inputs for one seed; ``run_pass`` returns one OpRecord per operation."""

    name = ""
    trace_passes = 1

    def __init__(self, seed: int):
        self.seed = seed
        self.speed = SpeedTrack()
        # cache figures of the traced phase, by per-layer metric name
        self.trace_counts = {}

    def timed(self, op_id, fn, check):
        """Run ``fn`` timed; ``check(output)`` runs untimed and returns an error or None."""
        self.speed.tick()
        w0, c0 = perf_counter(), process_time()
        try:
            out = fn()
        except Exception:  # an operation that raises is a failed operation
            w1, c1 = perf_counter(), process_time()
            return OpRecord(op_id, w0, w1 - w0, c1 - c0, traceback.format_exc(limit=3))
        w1, c1 = perf_counter(), process_time()
        return OpRecord(op_id, w0, w1 - w0, c1 - c0, check(out))

    def apply_speed(self, passes):
        """Probe once more, then give every operation its speed scale."""
        self.speed.tick(force=True)
        for p in passes:
            for rec in p:
                rec.scale = self.speed.scale(rec.start, rec.start + rec.wall)

    def warm_up(self):
        pass

    def run_pass(self, index: int, tracer=None) -> list:
        raise NotImplementedError

    def traced(self, tracer) -> list:
        """The fixed amount of work that a traced run measures, as passes."""
        return [self.run_pass(i, tracer) for i in range(self.trace_passes)]

    def close(self):
        pass


class Search(Workload):
    name = "search"
    trace_passes = 8

    def __init__(self, seed):
        super().__init__(seed)
        self.ref = load_reference("search_pool.json")["digests"]
        self.orders = _orders("search", seed, SEARCH_R)

    def _op(self, r, s, tracer):
        op_id = f"search:r{r}:s{s}"
        if tracer is not None:
            tracer.op = op_id
        want = self.ref[f"{r}:{s}"]

        def check(rep):
            got = digest(rep.to_json_dict())
            return None if got == want else f"search report digest {got} != {want}"

        return self.timed(op_id, lambda: search_trial(r, s), check)

    def warm_up(self):
        self._op(6, self.orders[6][-1], None)

    def run_pass(self, index, tracer=None):
        return [self._op(r, self.orders[r][index % POOL], tracer) for r in SEARCH_R]


class Repro(Workload):
    name = "repro"
    trace_passes = 1

    def __init__(self, seed):
        super().__init__(seed)
        self.registry = analysis.load_registry()
        self.ref_bytes = (REFERENCE / "repro_run.json").read_text(encoding="utf-8")
        self.ref = {r["id"]: dump_json(r) for r in json.loads(self.ref_bytes)["reports"]}
        self.ids = sorted(self.registry["examples"])

    def _op(self, eid, tracer, reports):
        op_id = f"repro:{eid}"
        if tracer is not None:
            tracer.op = op_id

        def check(rep):
            reports[eid] = rep
            return None if dump_json(rep.to_json_dict()) == self.ref[eid] else \
                f"repro report for {eid} differs from the reference"

        return self.timed(op_id, lambda: analysis.repro(eid, self.registry), check)

    def warm_up(self):
        self._op(REPRO_WARM_UP, None, {})

    def run_pass(self, index, tracer=None):
        order = list(self.ids)
        random.Random(f"perfbench:repro:{self.seed}:{index}").shuffle(order)
        reports = {}
        records = [self._op(eid, tracer, reports) for eid in order]
        if len(reports) == len(self.ids):
            # the whole pass must give the bytes of `fatpoints repro --all --out`
            ordered = [reports[eid] for eid in self.ids]
            payload = dump_json({
                "schema": "fatpoints/1", "kind": "repro_run",
                "reports": [r.to_json_dict() for r in ordered],
                "pass": all(r.passed for r in ordered),
            })
            if payload != self.ref_bytes and not any(r.error for r in records):
                records[-1].error = "assembled repro_run payload differs from the reference"
        return records


class Sweep(Workload):
    name = "sweep"
    trace_passes = 6

    def __init__(self, seed):
        super().__init__(seed)
        self.ref = load_reference("sweep_pool.json")["entries"]
        self.orders = _orders("sweep", seed, SWEEP_R)
        self.totals = {"hits": 0, "misses": 0, "bytes": 0}
        self._dirs = 0

    def _fresh_cache(self):
        self._dirs += 1
        path = WORK_DIR / "cache" / f"{self.name}-{os.getpid()}-{self._dirs}"
        shutil.rmtree(path, ignore_errors=True)
        return ResultCache(path)

    @staticmethod
    def _bytes(cache) -> int:
        return sum(p.stat().st_size for p in cache.root.glob("*.json"))

    def _drop_cache(self, cache):
        self.totals["hits"] += cache.hits
        self.totals["misses"] += cache.misses
        self.totals["bytes"] += self._bytes(cache)
        shutil.rmtree(cache.root, ignore_errors=True)

    def configs_for(self, index):
        return [(r, self.orders[r][(index * SWEEP_PER_R + t) % POOL])
                for t in range(SWEEP_PER_R) for r in SWEEP_R]

    def _cold(self, r, c, cache, tracer, results):
        op_id = f"sweep:r{r}:c{c}"
        if tracer is not None:
            tracer.op = op_id
        want = self.ref[f"{r}:{c}"]

        def op():
            pts = sweep_points(r, c)
            rep = linsys.alpha_sequence(pts, K, cache=cache)
            return pts, rep, run_checkers(pts, rep.alphas)

        def check(out):
            pts, rep, verdicts = out
            got = sweep_outcome(rep, verdicts)
            results[(r, c)] = (pts, rep.to_json_dict(), got)
            return None if got == want else f"sweep outcome {got} != reference {want}"

        return self.timed(op_id, op, check)

    def cold_pass(self, pairs, cache, tracer=None, results=None):
        results = {} if results is None else results
        return [self._cold(r, c, cache, tracer, results) for r, c in pairs]

    def warm_up(self):
        cache = self._fresh_cache()
        try:
            self.cold_pass([(5, self.orders[5][-1])], cache)
        finally:
            shutil.rmtree(cache.root, ignore_errors=True)

    def run_pass(self, index, tracer=None):
        cache = self._fresh_cache()
        try:
            return self.cold_pass(self.configs_for(index), cache, tracer)
        finally:
            self._drop_cache(cache)

    def traced(self, tracer):
        before = dict(self.totals)
        passes = super().traced(tracer)
        delta = {k: self.totals[k] - before[k] for k in before}
        self.trace_counts = {
            "cache.hits": delta["hits"],
            "cache.misses": delta["misses"],
            "cache.put_report.bytes": delta["bytes"],
            "cache.cold.misses": delta["misses"],
        }
        return passes


class SweepWarm(Sweep):
    name = "sweep-warm"
    trace_passes = 20

    def __init__(self, seed):
        super().__init__(seed)
        self.pairs = self.configs_for(0)
        self.cache, self.cold = self._fill()
        self.warm_hits_per_pass = []

    def _fill(self, tracer=None):
        cache = self._fresh_cache()
        cold = {}
        records = self.cold_pass(self.pairs, cache, tracer, cold)
        errors = [rec.error for rec in records if rec.error]
        if errors:
            raise RuntimeError("cold fill of the warm sweep failed:\n" + "\n".join(errors))
        return cache, cold

    def _warm(self, r, c, tracer):
        op_id = f"sweep-warm:r{r}:c{c}"
        if tracer is not None:
            tracer.op = op_id
        pts, cold_json, cold_outcome = self.cold[(r, c)]

        def op():
            rep = linsys.alpha_sequence(pts, K, cache=self.cache)
            return rep, run_checkers(pts, rep.alphas)

        def check(out):
            rep, verdicts = out
            if rep.to_json_dict() != cold_json:
                return "warm alpha report differs from the cold one"
            got = sweep_outcome(rep, verdicts)
            return None if got == cold_outcome else f"warm outcome {got} != cold {cold_outcome}"

        return self.timed(op_id, op, check)

    def warm_up(self):
        self.run_pass(0)

    def run_pass(self, index, tracer=None):
        return [self._warm(r, c, tracer) for r, c in self.pairs]

    def traced(self, tracer):
        # A fresh cold fill and warm passes over it, both traced, so the
        # trace shows that every warm lookup hits what the cold pass wrote.
        self.close()
        put = "cache.put_report"
        self.cache, self.cold = self._fill(tracer)
        fill_misses, fill_bytes = self.cache.misses, self._bytes(self.cache)
        puts = tracer.calls[put]
        passes = []
        for i in range(self.trace_passes):
            hits = self.cache.hits
            passes.append(self.run_pass(i, tracer))
            self.warm_hits_per_pass.append(self.cache.hits - hits)
        self.trace_counts = {
            "cache.hits": self.cache.hits,
            "cache.misses": self.cache.misses,
            "cache.put_report.bytes": fill_bytes,
            "cache.cold.misses": fill_misses,
            "cache.warm.hits": min(self.warm_hits_per_pass),
            "cache.warm.put_report_calls": tracer.calls[put] - puts,
        }
        return passes

    def close(self):
        self._drop_cache(self.cache)


WORKLOADS = {w.name: w for w in (Search, Repro, Sweep, SweepWarm)}
