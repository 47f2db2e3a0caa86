"""Record the reference outputs that every benchmark run is checked against.

    python3 perfbench/record.py            # from the root of a checkout

Writes, under perfbench/reference/:

* search_pool.json      digest of the canonical SearchReport JSON of every
                        one-trial search in the search pool;
* sweep_pool.json       alphas (k <= 5, no cache) and the digest of the 12
                        checker verdicts of every sweep pool configuration;
* repro_run.json        the bytes `fatpoints repro --all --out` writes,
                        failing dual-Hesse literature rows included as
                        computed;
* search_trials200_seed<S>.json
                        the canonical `fatpoints search --trials 200 --out`
                        bytes at the default seed and at the held-out seed.

Run it only on a commit whose outputs are known to be right: a later
commit is correct when it reproduces these files.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from fatpoints import analysis, cli, linsys  # noqa: E402
from fatpoints.serialize import dump_json  # noqa: E402

import workloads as W  # noqa: E402

DEFAULT_SEED = 0
HELD_OUT_SEED = 7


def write(name: str, obj) -> None:
    path = W.REFERENCE / name
    path.write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path.relative_to(ROOT)}")


def record_search_pool():
    digests = {}
    for r in W.SEARCH_R:
        for s in range(W.POOL):
            digests[f"{r}:{s}"] = W.digest(W.search_trial(r, s).to_json_dict())
    write("search_pool.json", {"k": W.K, "r": list(W.SEARCH_R), "pool": W.POOL,
                               "digests": digests})


def record_sweep_pool():
    entries = {}
    for r in W.SWEEP_R:
        for c in range(W.POOL):
            pts = W.sweep_points(r, c)
            rep = linsys.alpha_sequence(pts, W.K)
            entries[f"{r}:{c}"] = W.sweep_outcome(rep, W.run_checkers(pts, rep.alphas))
    write("sweep_pool.json", {"k": W.K, "r": list(W.SWEEP_R), "pool": W.POOL,
                              "seed_base": W.SWEEP_SEED_BASE, "height": W.HEIGHT,
                              "entries": entries})


def record_repro_run():
    path = W.REFERENCE / "repro_run.json"
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["repro", "--all", "--out", str(path)])
    # exit code 1: the dual-Hesse literature rows fail by design
    print(f"wrote {path.relative_to(ROOT)} (repro exit code {code})")


def record_canonical_searches():
    for seed in (DEFAULT_SEED, HELD_OUT_SEED):
        rep = analysis.conjecture_search(trials=200, r_range=(4, 9), k=W.K, seed=seed)
        path = W.REFERENCE / f"search_trials200_seed{seed}.json"
        path.write_text(dump_json(rep.to_json_dict()), encoding="utf-8")
        print(f"wrote {path.relative_to(ROOT)}")


if __name__ == "__main__":
    W.REFERENCE.mkdir(exist_ok=True)
    record_repro_run()
    record_search_pool()
    record_sweep_pool()
    record_canonical_searches()
