"""Content-addressed store for linear-system reports.

Keys hash the normalized scheme, degree, field, strategy and kind: a
``system_dim`` report without or with its kernel, or an alpha-search probe
entry (``linsys.PROBE``), which is the first prime's report where it has
full column rank and the strategy's report otherwise.  Values are
canonical JSON, so hits are byte-identical to recomputation.  Writes go
through a temporary file and an atomic rename, which tolerates concurrent
readers and a single writer per key.  In verify mode every lookup misses
on purpose and the subsequent store compares against what is already on
disk, failing loudly on any divergence.  A hit is one open and one read.
An entry that is not UTF-8, not JSON or misses a field, and a hit whose
counts contradict its key, are named as corrupt, with the key and path.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from math import comb
from pathlib import Path

from .algebra import AlgebraError, field_to_string
from .linsys import PROBE, expected_dim, report_from_json_dict
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


_KINDS = {False: "false", True: "true", PROBE: '"probe"'}


def cache_key(scheme, d: int, strategy, kind) -> str:
    """The key of the report at (``scheme``, ``d``) under ``strategy``:
    ``kind`` is False or True for a ``system_dim`` report without or with
    its kernel, and ``PROBE`` for an alpha-search probe entry.

    The hashed text is the canonical JSON of {"degree", "field", "kernel":
    kind, "points": sorted [[coordinate strings], m], "strategy"}, written
    directly, in the order of ``scheme.point_texts``: that sorts the points
    as lists, because the closing quote sorts below every character of a
    coordinate (``-``, ``/``, digits) and distinct points differ in it.
    """
    mults = scheme.multiplicities
    points = ",".join(["[%s,%d]" % (text, mults[i]) for text, i in scheme.point_texts])
    blob = '{"degree":%d,"field":"%s","kernel":%s,"points":[%s],"strategy":"%s"}' % (
        d, field_to_string(scheme.field), _KINDS[kind], points, _strategy_tag(strategy))
    return hashlib.sha256(blob.encode()).hexdigest()


def _contradiction(r, scheme, d):
    """What in report ``r`` contradicts its key (``scheme``, ``d``), or None."""
    v = vars(r)
    for name in ("degree", "expected_dim", "actual_dim", "superabundance", "rank", "nrows",
                 "ncols"):
        if type(v[name]) is not int:
            return f"{name} {v[name]!r} is not an integer"
    exp = expected_dim(scheme, d)
    for name, want in (("degree", d), ("ncols", comb(d + 2, 2)), ("actual_dim", r.ncols - r.rank),
                       ("expected_dim", exp), ("superabundance", r.actual_dim - max(exp, 0))):
        if v[name] != want:
            return f"{name} is {v[name]}, not {want}"
    if r.kernel is not None and len(r.kernel) != r.actual_dim:
        return f"{len(r.kernel)} kernel forms for actual_dim {r.actual_dim}"
    return None


def _decode(key, path, data, scheme, d=None):
    """The report in the bytes ``data`` of an entry; with ``d``, one that
    contradicts its key is corrupt too."""
    try:
        report = report_from_json_dict(json.loads(data.decode()), scheme.field)
    except (AlgebraError, AttributeError, KeyError, TypeError, ValueError) as exc:
        problem = repr(exc)
    else:
        problem = None if d is None else _contradiction(report, scheme, d)
    if problem is not None:
        raise CacheCorruptionError(f"cache entry {key} at {path} is corrupt: {problem}")
    return report


def _read(path):
    """The bytes at ``path`` in one unbuffered read, or None if it is missing."""
    try:
        with open(path, "rb", buffering=0) as fh:
            return fh.read()
    except FileNotFoundError:
        return None


class ResultCache:
    def __init__(self, root, verify: bool = False):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._prefix = os.path.join(self.root, "")
        self.verify = verify
        self.hits = 0
        self.misses = 0

    def get_report(self, scheme, d, strategy, kind):
        key = cache_key(scheme, d, strategy, kind)
        path = f"{self._prefix}{key}.json"
        data = None if self.verify else _read(path)
        if data is None:
            self.misses += 1
            return None
        report = _decode(key, path, data, scheme, d)
        self.hits += 1
        return report

    def put_report(self, scheme, d, strategy, kind, report):
        key = cache_key(scheme, d, strategy, kind)
        path = f"{self._prefix}{key}.json"
        blob = dump_json(report.to_json_dict()).encode()
        existing = _read(path)
        if existing is not None:
            if existing != blob:
                _decode(key, path, existing, scheme)  # unreadable: corrupt
                raise CacheVerificationError(f"cache entry {key} disagrees with recomputation")
            return
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(blob)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
