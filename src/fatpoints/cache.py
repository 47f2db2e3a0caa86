"""Content-addressed store for linear-system reports.

Keys hash the normalized scheme, degree, field, and strategy; values are
canonical JSON, so hits are byte-identical to recomputation.  Writes go
through a temporary file and an atomic rename, which tolerates concurrent
readers and a single writer per key.  In verify mode every lookup misses
on purpose and the subsequent store compares against what is already on
disk, failing loudly on any divergence.  An entry that no longer decodes
as a report is named as corrupt, with its key and path.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path

from .algebra import AlgebraError, field_to_string
from .linsys import report_from_json_dict
from .serialize import dump_json


class CacheVerificationError(Exception):
    """A cached report differs from its recomputation."""


class CacheCorruptionError(CacheVerificationError):
    """A cache entry is not a readable report (truncated or malformed)."""


def _strategy_tag(strategy) -> str:
    parts = [type(strategy).__name__]
    for attr in ("count", "seed"):
        if hasattr(strategy, attr):
            parts.append(f"{attr}={getattr(strategy, attr)}")
    return ":".join(parts)


def cache_key(scheme, d: int, strategy, want_kernel: bool) -> str:
    fld = scheme.field
    payload = {
        "field": field_to_string(fld),
        "points": sorted(
            [list(P.coord_strings()), m]
            for P, m in zip(scheme.points, scheme.multiplicities)
        ),
        "degree": d,
        "strategy": _strategy_tag(strategy),
        "kernel": want_kernel,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _decode(key, path, text, field):
    try:
        return report_from_json_dict(json.loads(text), field)
    except (AlgebraError, AttributeError, KeyError, TypeError, ValueError) as exc:
        raise CacheCorruptionError(
            f"cache entry {key} at {path} is corrupt: {exc!r}"
        ) from exc


class ResultCache:
    def __init__(self, root, verify: bool = False):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.verify = verify
        self.hits = 0
        self.misses = 0

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def get_report(self, scheme, d, strategy, want_kernel):
        key = cache_key(scheme, d, strategy, want_kernel)
        path = self._path(key)
        if self.verify or not path.exists():
            self.misses += 1
            return None
        with open(path, "r", encoding="utf-8") as fh:
            report = _decode(key, path, fh.read(), scheme.field)
        self.hits += 1
        return report

    def put_report(self, scheme, d, strategy, want_kernel, report):
        key = cache_key(scheme, d, strategy, want_kernel)
        path = self._path(key)
        blob = dump_json(report.to_json_dict())
        if path.exists():
            with open(path, "r", encoding="utf-8") as fh:
                existing = fh.read()
            if existing != blob:
                _decode(key, path, existing, scheme.field)  # unreadable: corrupt
                raise CacheVerificationError(
                    f"cache entry {key} disagrees with recomputation"
                )
            return
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(blob)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
