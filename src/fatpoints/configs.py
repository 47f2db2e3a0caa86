"""Deterministic seeded generators for the configuration families.

Every generator is a pure function of its parameters and seed.  "General"
position is realized by seeded integer coordinates with post-hoc exact
certification downstream; retry loops always walk a deterministic stream
derived from (seed, attempt).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import asdict, dataclass, fields
from math import comb
from typing import Optional

from .algebra import (
    QQ,
    HomoPoly,
    det3,
    evaluate,
    order_of_vanishing,
    point,
    poly_from_vector,
    prime_field,
)
from .geometry import (
    Line,
    curves_through,
    is_type9,
    rational_points_on_curve,
    singular_points_over_Fp,
)

DEFAULT_HEIGHT = 10**4
STAR_HEIGHT = 30  # coefficient bound of the seeded lines of ``star``
# draws before ``rational_nodal_nodes`` and ``two_nodal_union`` give up
NODAL_ATTEMPTS = 60
TWO_NODAL_ATTEMPTS = 400


def _found(result, what):
    if result is None:
        raise ValueError(f"{what} generation failed; try another seed")
    return result


def _general(s, r):
    return general(r, s.seed or 0, DEFAULT_HEIGHT if s.height is None else s.height)


# family -> (the ConfigSpec parameters it needs, the ones it may take, its
# generator on a ConfigSpec), in the order ``--family`` lists them
_GENERATORS = {
    "collinear": (("r",), (), lambda s: collinear(s.r)),
    "on_conic": (("r",), (), lambda s: on_conic(s.r)),
    "general": (("r",), ("seed", "height"), lambda s: _general(s, s.r)),
    "star": (("p",), ("seed",), lambda s: star(s.p, s.seed or 0)[0]),
    "star_minus_one": (("d",), ("seed",), lambda s: star_minus_one(s.d, s.seed or 0)),
    "dual_hesse": (("prime",), (), lambda s: dual_hesse(s.prime)),
    "type9": ((), ("seed",), lambda s: type9(s.seed)),
    "nagata16": ((), ("seed", "height"), lambda s: _general(s, 16)),
    "nodal_curve_nodes": (("d", "prime"), ("seed",), lambda s: nodal_curve(s)[1]),
    "two_nodal_union": (("d1", "d2", "prime"), ("seed",), lambda s: _found(
        two_nodal_union(s.d1, s.d2, s.prime, s.seed or 0), "two-nodal")),
}
FAMILIES = tuple(_GENERATORS)
DEGREE_FAMILIES = tuple(f for f, (needs, _, _) in _GENERATORS.items() if "d" in needs)


@dataclass(frozen=True)
class ConfigSpec:
    """A family tag plus the parameters needed to regenerate it."""

    family: str
    r: Optional[int] = None
    p: Optional[int] = None
    d: Optional[int] = None
    d1: Optional[int] = None
    d2: Optional[int] = None
    prime: Optional[int] = None
    seed: Optional[int] = None
    height: Optional[int] = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        needs, takes, _ = _GENERATORS[self.family]
        missing = [n for n in needs if getattr(self, n) is None]
        if missing:
            raise ValueError(
                f"family {self.family!r} needs the parameter(s) {', '.join(missing)}")
        extra = [n for n in PARAMETERS if n not in needs + takes and getattr(self, n) is not None]
        if extra:
            raise ValueError(f"family {self.family!r} takes no {', '.join(extra)}")

    def to_json_dict(self) -> dict:
        return {k: v for k, v in asdict(self).items() if v is not None}

    @classmethod
    def from_json_dict(cls, d: dict) -> "ConfigSpec":
        return cls(**{k: v for k, v in d.items() if k != "family"}, family=d["family"])


PARAMETERS = tuple(f.name for f in fields(ConfigSpec))[1:]  # all but the family


def generate(spec: ConfigSpec):
    """Dispatch a ConfigSpec to its generator; returns the point tuple."""
    return _GENERATORS[spec.family][2](spec)


# ---------------------------------------------------------------------------
# elementary families

def collinear(r: int):
    """r distinct points (0 : i : 1) on the line x = 0."""
    if r < 1:
        raise ValueError("need r >= 1")
    return tuple(point(QQ, 0, i, 1) for i in range(r))


def on_conic(r: int):
    """r distinct points (1 : t : t^2) on the smooth conic y^2 = xz."""
    if r < 1:
        raise ValueError("need r >= 1")
    return tuple(point(QQ, 1, t, t * t) for t in range(r))


def general(r: int, seed: int, height: int = DEFAULT_HEIGHT):
    """Seeded random rational points with integer coordinates in [-H, H].

    Points are redrawn until pairwise distinct with no three collinear,
    tested on the integer draws (a, b, 1); only accepted draws become points.
    Genericity beyond that is certified downstream by the exact rank
    computations themselves.
    """
    if r < 1:
        raise ValueError("need r >= 1")
    if height < 0:
        raise ValueError(f"need height >= 0; got {height}")
    rng = random.Random(f"fatpoints.general:{seed}:{r}:{height}")
    pts = []
    attempts = 0
    while len(pts) < r:
        attempts += 1
        if attempts > 10000:
            raise ValueError("rejection sampling failed; widen the height")
        c = (rng.randint(-height, height), rng.randint(-height, height), 1)
        if c not in pts and all(det3(a, b, c) for a, b in itertools.combinations(pts, 2)):
            pts.append(c)
    return tuple(point(QQ, *c) for c in pts)


def star(p: int, seed: int):
    """p seeded general lines; returns their C(p, 2) intersections and the lines.

    Redraws until the lines are distinct, no three concurrent, and all
    pairwise intersections distinct.
    """
    if p < 3:
        raise ValueError("need at least three lines")
    for attempt in itertools.count():
        rng = random.Random(f"fatpoints.star:{seed}:{p}:{attempt}")
        coeffs = [[rng.randint(-STAR_HEIGHT, STAR_HEIGHT) for _ in range(3)]
                  for _ in range(p)]
        if not all(map(any, coeffs)):
            continue
        lines = [Line.from_coeffs(QQ, c) for c in coeffs]
        pts = [L1.intersect(L2) for L1, L2 in itertools.combinations(lines, 2)
               if L1 != L2]
        if len(set(pts)) == comb(p, 2):
            return tuple(pts), tuple(lines)


def star_minus_one(d: int, seed: int):
    """The star of d lines with the intersection of the first two removed."""
    pts, lines = star(d, seed)
    removed = lines[0].intersect(lines[1])
    return tuple(P for P in pts if P != removed)


def dual_hesse(p: int):
    """The 12 triple points of nine lines over F_p, p = 1 mod 3.

    With w a primitive cube root of unity the lines are x - w^a y,
    y - w^b z and x - w^c z; exactly 12 points lie on three or more of
    them and the incidence structure is (12_3, 9_4).
    """
    if p % 3 != 1 or p <= 10:
        raise ValueError("need a prime p = 1 mod 3 with p > 10")
    lines = dual_hesse_lines(p)
    meets = {L1.intersect(L2) for L1, L2 in itertools.combinations(lines, 2)}
    pts = sorted((P for P in meets if sum(L.contains(P) for L in lines) >= 3),
                 key=lambda P: P.coords)
    if len(pts) != 12:
        raise RuntimeError("cube-root line construction degenerated")
    return tuple(pts)


def dual_hesse_lines(p: int):
    F = prime_field(p)
    w = next(x for x in range(2, p) if pow(x, 3, p) == 1)
    return tuple(Line.from_coeffs(F, [(1, -u, 0), (0, 1, -u), (1, 0, -u)][k])
                 for k in range(3) for u in (1, w, w * w))


_TYPE9_DEFAULT = ((0, 0, 1), (1, 0, 1), (0, 1, 1), (0, 2, 1), (2, 0, 1), (3, -2, 1))


def type9(seed: Optional[int] = None):
    """Vertices of three general lines plus one extra point on each line.

    The canonical instance uses the triangle x = 0, y = 0, x + y = z with
    vertices A(0:0:1), B(1:0:1), C(0:1:1) and extras D(0:2:1), E(2:0:1),
    F(3:-2:1).  A seed varies the extra points while keeping the shape.
    """
    if seed is None:
        return tuple(point(QQ, *c) for c in _TYPE9_DEFAULT)
    for attempt in itertools.count():
        rng = random.Random(f"fatpoints.type9:{seed}:{attempt}")
        d = rng.randint(2, 9)
        e = rng.randint(2, 9)
        s, t = rng.randint(1, 9), rng.randint(1, 9)
        extras = ((0, d, 1), (e, 0, 1), (s, t, s + t))
        pts = tuple(point(QQ, *c) for c in _TYPE9_DEFAULT[:3] + extras)
        if len(set(pts)) == 6 and is_type9(pts):
            return pts


# ---------------------------------------------------------------------------
# nodal rational curves over a prime field

def nodal_curve(spec: ConfigSpec):
    """The (curve, nodes) behind a ``nodal_curve_nodes`` spec's points."""
    return _found(rational_nodal_nodes(spec.d, spec.prime, spec.seed or 0), "nodal")


def _binary_form_values(coeffs, s, u, p):
    # value of sum coeffs[i] s^(d-i) u^i mod p, by Horner's rule
    acc, ui = 0, 1
    for c in coeffs:
        acc, ui = (acc * s + c * ui) % p, ui * u % p
    return acc


def _implicitize_parameterization(forms, d: int, p: int) -> Optional[HomoPoly]:
    """The unique degree-d curve through the image of a P^1 parameterization.

    Samples every parameter value, solves the linear system of degree-d
    forms vanishing on the image, and demands a one-dimensional kernel.
    """
    F = prime_field(p)
    images = set()
    for s, u in [(t, 1) for t in range(p)] + [(1, 0)]:
        c = tuple(_binary_form_values(f, s, u, p) for f in forms)
        if any(c):
            images.add(point(F, *c))
    if len(images) < comb(d + 2, 2):
        return None
    _, kernel = curves_through(images, d)
    if len(kernel) != 1:
        return None
    return poly_from_vector(F, d, [int(v) for v in kernel[0]])


def rational_nodal_nodes(d: int, p: int, seed: int):
    """A degree-d rational curve with all C(d-1, 2) nodes rational, plus the nodes.

    Draws seeded random degree-d parameterizations, implicitizes by the
    kernel method, and accepts only when the singular scan finds exactly
    the maximal node count, every singularity of local order exactly 2.
    Returns (curve, nodes) or None after NODAL_ATTEMPTS attempts.
    """
    if d < 2:
        raise ValueError("need degree >= 2")
    if p <= d * d:
        raise ValueError("need p > d^2")
    expected = comb(d - 1, 2)
    for attempt in range(NODAL_ATTEMPTS):
        rng = random.Random(f"fatpoints.nodal:{seed}:{d}:{p}:{attempt}")
        forms = [[rng.randrange(p) for _ in range(d + 1)] for _ in range(3)]
        curve = _implicitize_parameterization(forms, d, p)
        if curve is None:
            continue
        sing = singular_points_over_Fp(curve)
        if len(sing) != expected:
            continue
        if all(order_of_vanishing(curve, P) == 2 for P in sing):
            return curve, tuple(sing)
    return None


def _random_curve_through(points, d: int, p: int, rng) -> Optional[HomoPoly]:
    """A seeded random member of the degree-d forms through the given points."""
    fld, kernel = curves_through(points, d)
    cs = [rng.randrange(p) for _ in kernel]
    vec = [sum(c * v for c, v in zip(cs, col)) % p for col in zip(*kernel)]
    return poly_from_vector(fld, d, vec) if any(vec) else None


def two_nodal_union(d1: int, d2: int, p: int, seed: int):
    """Nodes of two transversal nodal curves plus all their intersections.

    The first curve comes from the nodal generator; the second is drawn
    through prescribed rational points of the first so the intersection
    points stay rational, and needs C(d2-1, 2) nodes.  The product c1 c2
    is checked through its factors: grad(c1 c2) = c2 grad c1 + c1 grad c2
    and Euler's relation (p > d1 + d2) make its singular points the nodes
    of both curves and their common points, and multiplicities add, so all
    have order 2 when no node lies on the other curve; d1 d2 distinct
    common points then make the curves transversal.  Returns the sorted
    point tuple or None.
    """
    if d1 < 2 or d2 < 2:
        raise ValueError("need degrees >= 2")
    if p <= max(d1, d2) ** 2 or p <= d1 + d2:
        raise ValueError("need p > max(d1, d2)^2 and p > d1 + d2")
    first = rational_nodal_nodes(d1, p, seed)
    if first is None:
        return None
    c1, nodes1 = first
    expected2 = comb(d2 - 1, 2)
    c1_points = rational_points_on_curve(c1)
    on_c1 = [P for P in c1_points if P not in nodes1]
    prescribe = min(d1 * d2, comb(d2 + 2, 2) - 2)
    if len(on_c1) < prescribe:
        return None
    for attempt in range(TWO_NODAL_ATTEMPTS):
        rng = random.Random(f"fatpoints.twonodal:{seed}:{d1}:{d2}:{p}:{attempt}")
        c2 = _random_curve_through(rng.sample(on_c1, prescribe), d2, p, rng)
        if c2 is None:
            continue
        sing2 = singular_points_over_Fp(c2)
        if len(sing2) != expected2:
            continue
        if not all(order_of_vanishing(c2, P) == 2 for P in sing2):
            continue
        # a node of either curve on the other is a common point
        inter = {P for P in c1_points if evaluate(c2, P) == 0}
        if len(inter) != d1 * d2 or not inter.isdisjoint((*nodes1, *sing2)):
            continue
        return tuple(sorted(inter.union(nodes1, sing2), key=lambda P: P.coords))
    return None
