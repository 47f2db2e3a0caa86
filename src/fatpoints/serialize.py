"""Point-set and report JSON: exact values travel as decimal strings."""

from __future__ import annotations

import json

from .algebra import HomoPoly, field_from_string, field_to_string, point

SCHEMA = "fatpoints/1"


def points_to_json_dict(points, labels=None) -> dict:
    points = tuple(points)
    if not points:
        raise ValueError("need at least one point")
    fld = points[0].field
    d = {
        "schema": SCHEMA,
        "kind": "points",
        "field": field_to_string(fld),
        "points": [[fld.format(c) for c in P.coords] for P in points],
    }
    if labels is not None:
        d["labels"] = list(labels)
    return d


def points_from_json_dict(d: dict):
    if d.get("schema") not in (None, SCHEMA):
        raise ValueError(f"unsupported schema {d.get('schema')!r}")
    fld = field_from_string(d["field"])
    return tuple(point(fld, *(fld.parse(c) for c in coords)) for coords in d["points"])


def poly_to_json_dict(f: HomoPoly) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "form",
        "field": field_to_string(f.field),
        "degree": f.degree,
        "terms": [[list(m), f.field.format(c)] for m, c in f.terms],
    }


def dump_json(obj: dict) -> str:
    """Canonical bytes: stable key order, no whitespace drift."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def load_json_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def write_json_file(path, obj: dict):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_json(obj))
