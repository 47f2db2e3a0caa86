"""Exact incidence predicates and configuration detectors.

Detectors work from the lines spanned by point pairs.  For a set of at
least two points, every line of an arrangement whose intersection points
are exactly that set carries at least two of the points, so the spanned
lines are a complete candidate pool; the only incompleteness is the greedy
fallback used when the pool is too large to search exhaustively.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .algebra import (
    QQ,
    HomoPoly,
    ProjectivePoint,
    check_same_field,
    monomial_basis,
    partial_derivative,
    point,
    poly_from_vector,
)
from .linsys import modp_nullspace

EXHAUSTIVE_CANDIDATE_LIMIT = 12


@dataclass(frozen=True)
class Line:
    """A projective line, stored by coefficients with leading entry 1."""

    field: object
    coeffs: tuple

    @classmethod
    def from_coeffs(cls, field, coeffs) -> "Line":
        return cls(field, _monic(field, coeffs))

    def contains(self, P: ProjectivePoint) -> bool:
        return self.field.of(sum(c * x for c, x in zip(self.coeffs, P.coords))) == 0

    def intersect(self, other: "Line") -> ProjectivePoint:
        if self == other:
            raise ValueError("coincident lines have no unique intersection")
        return point(self.field, _cross(self.coeffs, other.coeffs))

    def __repr__(self):
        f = self.field
        return "Line(" + ", ".join(f.format(c) for c in self.coeffs) + ")"


def _monic(field, v):
    """v over its first nonzero entry: c / lead over Q, c lead^-1 over F_p."""
    v = v if field.p is None else [field.of(c) for c in v]
    lead = next((c for c in v if c), None)
    if lead is None:
        raise ValueError("a line or curve needs a nonzero coefficient")
    inv = None if field.p is None else field.inv(lead)
    lead = Fraction(lead)  # a Fraction divisor keeps Fraction's fast division path
    return tuple(c / lead if inv is None else c * inv % field.p for c in v)


def _cross(u, v):
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


@dataclass(frozen=True)
class ArrangementWitness:
    """Lines whose pairwise intersections are exactly the configuration.

    ``incidence[i]`` lists the indices of witness lines through point i.
    ``exhaustive`` records whether the subset search was complete or greedy.
    """

    lines: tuple
    incidence: tuple
    exhaustive: bool = True

    def to_json_dict(self) -> dict:
        f = self.lines[0].field if self.lines else QQ
        return {
            "lines": [[f.format(c) for c in L.coeffs] for L in self.lines],
            "incidence": [list(ix) for ix in self.incidence],
            "exhaustive": self.exhaustive,
            "convention": "pair-spanned-lines",
        }


# ---------------------------------------------------------------------------
# basic predicates

def curves_through(points, d):
    """The points' field and a basis of the degree-d forms through them:
    the kernel of their degree-d monomial rows at integer representatives,
    which only rescale the rows and so leave the RREF alone."""
    points = tuple(points)
    if not points:
        raise ValueError("need at least one point")
    fld = points[0].field
    rows = [[x**a * y**b * z**c for a, b, c in monomial_basis(d)]
            for x, y, z in (P.integer_coords() for P in points)]
    return fld, modp_nullspace(np.array(rows, dtype=object), fld.p)


def are_collinear(points) -> Optional[Line]:
    """A common line through all the points, if one exists.

    A single point vacuously lies on a line; a deterministic one through it
    is returned so that checker pipelines stay total.
    """
    fld, basis = curves_through(points, 1)
    return Line.from_coeffs(fld, basis[0]) if basis else None


def common_conic(points) -> Optional[HomoPoly]:
    """A conic (possibly degenerate) through all the points, if one exists."""
    fld, basis = curves_through(points, 2)
    return poly_from_vector(fld, 2, _monic(fld, basis[0])) if basis else None


# ---------------------------------------------------------------------------
# spanned-line machinery

def spanned_lines(points):
    """Distinct lines through point pairs with their incidence sets, by the
    first pair on each; cross products and incidences run on the points'
    integer representatives (residues over F_p), one ``Line`` per line."""
    points = tuple(points)
    fld = points[0].field if points else QQ
    p = fld.p
    for P in points:
        check_same_field(fld, P.field)
    vs = [P.integer_coords() for P in points]
    if len(set(vs)) < len(vs):  # canonical representatives
        raise ValueError("two distinct points are needed to span a line")
    found, done = [], set()  # done: pairs on a line already found
    for i, j in itertools.combinations(range(len(vs)), 2):
        if (i, j) not in done:
            a, b, c = _cross(vs[i], vs[j])
            dots = (a * x + b * y + c * z for x, y, z in vs)
            on = [k for k, v in enumerate(dots) if (v if p is None else v % p) == 0]
            done.update(itertools.combinations(on, 2))
            found.append((Line.from_coeffs(fld, (a, b, c)), frozenset(on)))
    return found


def detect_line_arrangement(points, spanned=None) -> Optional[ArrangementWitness]:
    """Search for line arrangements whose intersection set equals the points.

    Candidates are the pair-spanned lines, ``spanned`` if given.  A subset is
    a witness when every point lies on at least two chosen lines and every
    two chosen lines meet at a configuration point, one both carry.  Up to
    12 candidates every subset is tried (smallest first); past that a greedy
    pass adds lines by point richness while refusing any line that meets a
    chosen one outside the configuration; that witness is non-exhaustive.
    """
    points = tuple(points)
    if len(points) < 2:
        raise ValueError("need at least two points")
    # deterministic order: richest lines first, then by coefficient string
    cands = sorted(spanned_lines(points) if spanned is None else spanned,
                   key=lambda lc: (-len(lc[1]), repr(lc[0])))
    lines = [L for L, _ in cands]
    masks = [sum(1 << k for k in inc) for _, inc in cands]
    n = len(lines)
    full = (1 << len(points)) - 1

    def witness(chosen, exhaustive):
        # the chosen candidates, if they put every point on two of them
        once = twice = 0
        for i in chosen:
            twice |= once & masks[i]
            once |= masks[i]
        if twice != full:
            return None
        incidence = tuple(
            tuple(a for a, i in enumerate(chosen) if masks[i] >> k & 1)
            for k in range(len(points))
        )
        return ArrangementWitness(tuple(lines[i] for i in chosen), incidence,
                                  exhaustive)

    if n <= EXHAUSTIVE_CANDIDATE_LIMIT:
        for size in range(2, n + 1):
            for combo in itertools.combinations(range(n), size):
                if all(masks[i] & masks[j] for a, i in enumerate(combo) for j in combo[a + 1:]):
                    found = witness(combo, True)
                    if found is not None:
                        return found
        return None
    chosen = []
    for i in range(n):
        if all(masks[i] & masks[j] for j in chosen):
            chosen.append(i)
    return witness(chosen, False) if len(chosen) >= 2 else None


def is_star_configuration(points) -> Optional[tuple]:
    """Detect the pairwise intersections of p lines in general position.

    Succeeds only when the point count is C(p, 2) for some p and there are
    p spanned lines, each through exactly p - 1 of the points, whose
    pairwise intersections are exactly the configuration.  Returns
    ``(p, lines)`` or None.
    """
    points = tuple(points)
    r = len(points)
    if r < 3:
        raise ValueError("need at least three points")
    p = (1 + math.isqrt(8 * r + 1)) // 2  # the largest p with C(p, 2) <= r
    if p * (p - 1) // 2 != r:
        return None
    rich = [(L, inc) for L, inc in spanned_lines(points) if len(inc) == p - 1]
    for combo in itertools.combinations(rich, p):
        # C(p, 2) distinct meets in the configuration are all r points
        meets = [a & b for (_, a), (_, b) in itertools.combinations(combo, 2)]
        if all(meets) and len(set(meets)) == r:
            return p, tuple(L for L, _ in combo)
    return None


def is_type9(points) -> bool:
    """Three general lines' vertices plus one extra point on each line.

    True exactly when there are six points, exactly three spanned lines
    carry three of them (none carries more), those lines form a triangle
    with vertices in the configuration, and the three leftover points sit
    one per line.
    """
    points = tuple(points)
    if len(points) != 6:
        return False
    incs = [inc for _, inc in spanned_lines(points)]
    rich = [inc for inc in incs if len(inc) == 3]
    if len(rich) != 3 or any(len(inc) >= 4 for inc in incs):
        return False
    vertices = [a & b for a, b in itertools.combinations(rich, 2)]
    # Three distinct vertices in the configuration: each rich line then holds
    # two of them and exactly one other point, and no other point lies on two
    # of them (it would be a vertex): the three leftovers sit one per line.
    return all(vertices) and len(set(vertices)) == 3


# ---------------------------------------------------------------------------
# scans of P^2(F_p)

def plane_points_where(field, forms):
    """The common zeros in P^2(F_p) of ``forms``, sorted by coordinates.

    The canonical points of the plane, (a, b, 1), then (a, 1, 0), then
    (1, 0, 0), are held as three int64 coordinate vectors, whose power
    tables all the forms share.  A form's values sum its terms c x^i y^j z^k,
    each reduced mod p after every product: with residues below 2^31 no
    product reaches 2^62.  The zero form vanishes everywhere and a nonzero
    constant nowhere.
    """
    if field == QQ or field.p >= 2**31:
        raise ValueError(f"the scan needs a prime field F_p with p < 2^31, not {field!r}")
    p = field.p
    r = np.arange(p)
    xyz = np.array([np.r_[np.repeat(r, p), r, 1], np.r_[np.tile(r, p), np.ones(p), 0],
                    np.r_[np.ones(p * p), np.zeros(p + 1)]], dtype=np.int64)
    pows = [np.ones_like(xyz)]
    for _ in range(max((f.degree for f in forms), default=0)):
        pows.append(pows[-1] * xyz % p)
    keep = np.ones(xyz.shape[1], dtype=bool)
    for f in forms:
        check_same_field(field, f.field)
        keep &= sum(c * pows[i][0] % p * pows[j][1] % p * pows[k][2] % p
                    for (i, j, k), c in f.terms) % p == 0
    return sorted((ProjectivePoint(field, tuple(P)) for P in xyz[:, keep].T.tolist()),
                  key=lambda P: P.coords)


def singular_points_over_Fp(f: HomoPoly):
    """All rational points where the three first partials vanish.

    Exhaustive scan; requires the field characteristic to exceed the
    degree so that the gradient detects singularities faithfully.
    """
    fld = f.field
    if fld == QQ:
        raise ValueError("the scan needs a prime-field polynomial")
    if fld.p <= f.degree:
        raise ValueError(
            f"need p > degree for a faithful gradient scan (p={fld.p}, d={f.degree})"
        )
    return plane_points_where(fld, [partial_derivative(f, v) for v in range(3)])


def rational_points_on_curve(f: HomoPoly):
    """All F_p-rational points of the curve, canonically sorted."""
    return plane_points_where(f.field, [f])
