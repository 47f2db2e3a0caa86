"""The canonical JSON format: exact values travel as decimal strings."""

from __future__ import annotations

import json
from dataclasses import fields

from .algebra import AlgebraError, HomoPoly, field_from_string, field_to_string, point

SCHEMA = "fatpoints/1"


def record(kind: str, obj=None, **extra) -> dict:
    """The JSON dict of one artifact: the schema and ``kind`` tags, then
    every dataclass field of ``obj`` (tuples as lists), then ``extra``,
    whose keys replace fields of the same name."""
    d = {"schema": SCHEMA, "kind": kind}
    if obj is not None:
        for f in fields(obj):
            v = getattr(obj, f.name)
            d[f.name] = list(v) if isinstance(v, tuple) else v
    d.update(extra)
    return d


def points_to_json_dict(points) -> dict:
    points = tuple(points)
    if not points:
        raise ValueError("need at least one point")
    fld = points[0].field
    return record("points", field=field_to_string(fld),
                  points=[list(P.coord_strings()) for P in points])


def points_from_json_dict(d: dict):
    if not isinstance(d, dict) or not isinstance(d.get("points"), list):
        raise ValueError('a points file must be a JSON object with a "points" list')
    if d.get("schema") not in (None, SCHEMA):
        raise ValueError(f"unsupported schema {d.get('schema')!r}")
    if "field" not in d:
        raise ValueError('a points file needs a "field" tag, "rational" or "prime:P"')
    fld = field_from_string(d["field"])
    points = []
    for i, coords in enumerate(d["points"]):
        # bool is an int subclass and a float is inexact: refuse both
        if not (isinstance(coords, list) and len(coords) == 3
                and all(type(c) in (str, int) for c in coords)):
            raise ValueError(f"point {i} must be three coordinates, each a decimal "
                             f"string or an integer; got {coords!r}")
        try:
            points.append(point(fld, coords))
        except (ValueError, AlgebraError) as exc:
            raise type(exc)(f"point {i}: {exc}") from exc
    return tuple(points)


def form_terms(f: HomoPoly) -> dict:
    """A form's degree and its terms as [exponents, decimal coefficient]."""
    return {
        "degree": f.degree,
        "terms": [[list(m), f.field.format(c)] for m, c in f.terms],
    }


def poly_to_json_dict(f: HomoPoly) -> dict:
    return record("form", field=field_to_string(f.field), **form_terms(f))


def dump_json(obj: dict) -> str:
    """Canonical bytes: stable key order, no whitespace drift."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def load_json_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
