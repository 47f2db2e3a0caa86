"""Shared oracles for the test suite.

The recentering oracle rewrites a form in coordinates where a point P sits
at (1 : 0 : 0), by a linear change of coordinates; the multiplicity at P is
then the least total degree in the two other variables.  It is the
reference for ``order_of_vanishing``, which reads the same multiplicity off
Taylor coefficients without a change of coordinates.

The enumeration oracle computes the dimension of a fat-point linear system
over a small prime field by brute force: it walks every coefficient vector
of the given degree and keeps those whose form vanishes to the required
order at every point.  Orders are read from the recentered expansion at
each point, vectorized so that q^N forms stay tractable; a random sample is
always cross-checked against literal order_of_vanishing calls.

The field-scalar RREF is the reference for ``modp_rref``, ``_rref_over_q``
and ``modp_nullspace``: plain lists of field scalars, eliminated with Python
arithmetic and reduced by ``of``, so it shares no code with the numpy engine.

The plane-scan oracle walks the points of ``enumerate_projective_plane``
one by one behind a callback, with ``evaluate`` for form values; it is the
reference for the vectorized scan ``plane_points_where``.
``product_scan_points`` is the check that ``two_nodal_union`` once made on
the product of its two curves, by that scan, and is the reference for the
check it now makes through the factors.

``coeff``, ``power`` and ``line_form`` read a coefficient, raise a form to
a power and turn a ``Line`` into its linear form; only tests need them.

``line_through`` spans a ``Line`` from two points' normalized coordinates,
and ``spanned_lines_by_pairs`` builds one for every pair of points, tests
every point with ``Line.contains`` and keeps the first of equal lines: the
reference for ``spanned_lines``, which works on integer representatives.
"""

import itertools
import math
import random
from functools import lru_cache

import numpy as np

from fatpoints.algebra import (
    ProjectivePoint,
    check_same_field,
    evaluate,
    linear_form,
    monomial_basis,
    order_of_vanishing,
    partial_derivative,
    poly,
    poly_from_vector,
)
from fatpoints.geometry import Line


def coeff(f, mono):
    """The coefficient of the monomial ``mono`` in ``f``."""
    return dict(f.terms).get(mono, f.field.zero)


def power(f, n):
    """``f`` to the n-th power, by repeated multiplication."""
    if n < 0:
        raise ValueError("negative power")
    result = poly(f.field, 0, {(0, 0, 0): f.field.one})
    for _ in range(n):
        result = result * f
    return result


def line_form(L):
    """The linear form of a ``Line``."""
    return linear_form(L.field, L.coeffs)


def line_through(P, Q):
    """The ``Line`` through two distinct points of one field."""
    check_same_field(P.field, Q.field)
    if P == Q:
        raise ValueError("two distinct points are needed to span a line")
    (a, b, c), (x, y, z) = P.coords, Q.coords
    return Line.from_coeffs(P.field, (b * z - c * y, c * x - a * z, a * y - b * x))


def spanned_lines_by_pairs(points):
    """Distinct pair-spanned lines with their incidence sets, in the order
    of their first pair, by ``line_through`` and ``Line.contains``."""
    seen = {}
    for i, j in itertools.combinations(range(len(points)), 2):
        L = line_through(points[i], points[j])
        if L not in seen:
            seen[L] = frozenset(k for k, P in enumerate(points) if L.contains(P))
    return list(seen.items())


def coordinate_frame(P):
    """Columns of an invertible matrix sending (1 : 0 : 0) to ``P``.

    The first column is the normalized representative of ``P``; the other
    two are the standard basis vectors away from its trailing 1, so the
    determinant is a unit.
    """
    fld = P.field
    last = max(j for j in range(3) if P.coords[j] != fld.zero)
    cols = [P.coords]
    for k in range(3):
        if k != last:
            cols.append(tuple(fld.one if i == k else fld.zero for i in range(3)))
    # rows of the substitution: x_i -> sum_k M[i][k] u_k
    return [tuple(cols[k][i] for k in range(3)) for i in range(3)]


@lru_cache(maxsize=4096)
def monomial_expansions(P, d):
    """Each degree-``d`` basis monomial rewritten in coordinates centered at ``P``.

    Entry i is the expansion of ``monomial_basis(d)[i]`` as a term tuple in
    the new variables, where ``P`` sits at (1 : 0 : 0).
    """
    fld = P.field
    forms = [linear_form(fld, r) for r in coordinate_frame(P)]
    unit = poly(fld, 0, {(0, 0, 0): fld.one})
    pows = []
    for fm in forms:
        cur = [unit]
        for _ in range(d):
            cur.append(cur[-1] * fm)
        pows.append(cur)
    return tuple((pows[0][a] * pows[1][b] * pows[2][c]).terms
                 for (a, b, c) in monomial_basis(d))


def recentered_at(f, P):
    """Rewrite ``f`` in coordinates where ``P`` is (1 : 0 : 0)."""
    check_same_field(f.field, P.field)
    fld = f.field
    index = {m: i for i, m in enumerate(monomial_basis(f.degree))}
    expansions = monomial_expansions(P, f.degree)
    acc = {}
    for m, c in f.terms:
        for mono, coef in expansions[index[m]]:
            acc[mono] = fld.of(acc.get(mono, fld.zero) + c * coef)
    return poly(fld, f.degree, acc)


def recentered_order(f, P):
    """The multiplicity of ``f`` at ``P`` read from ``recentered_at``:
    the least total degree off the point; ``math.inf`` for the zero form."""
    return min((b + c for (a, b, c), _ in recentered_at(f, P).terms),
               default=math.inf)


def local_level_functionals(P, d, max_level):
    """Rows expressing the recentered-expansion coefficients of levels < max_level.

    A degree-d form f vanishes to order >= m at P exactly when every
    coefficient of local level (total degree off the point) below m is zero;
    each such coefficient is a linear functional of the coefficients of f.
    """
    fld = P.field
    expansions = monomial_expansions(P, d)
    levels = {}
    for i, terms in enumerate(expansions):
        for (a, b, c), coef in terms:
            lev = b + c
            if lev < max_level:
                levels.setdefault((a, b, c), [fld.zero] * len(expansions))
                levels[(a, b, c)][i] = fld.of(levels[(a, b, c)][i] + coef)
    return [levels[k] for k in sorted(levels)]


def enumeration_dimension(points, mults, d, sample_checks=25, rng=None):
    """log_q of the number of degree-d forms meeting all multiplicities."""
    fld = points[0].field
    q = fld.p
    n = len(monomial_basis(d))
    rows = []
    for P, m in zip(points, mults):
        if m == 0:
            continue
        rows.extend(local_level_functionals(P, d, m))
    F = np.array([[int(x) % q for x in r] for r in rows], dtype=np.int64)
    total = q**n
    # mixed-radix enumeration of every coefficient vector
    idx = np.arange(total, dtype=np.int64)
    V = np.empty((total, n), dtype=np.int64)
    for j in range(n):
        V[:, j] = idx % q
        idx //= q
    if len(rows):
        mask = ((V @ F.T) % q == 0).all(axis=1)
    else:
        mask = np.ones(total, dtype=bool)
    count = int(mask.sum())
    dim = 0
    while q**dim < count:
        dim += 1
    assert q**dim == count, "vanishing forms must fill a linear space"
    # literal spot check against order_of_vanishing
    rng = rng or random.Random(997)
    for _ in range(sample_checks):
        i = rng.randrange(total)
        f = poly_from_vector(fld, d, [int(v) for v in V[i]])
        ok = all(
            f.is_zero() or order_of_vanishing(f, P) >= m
            for P, m in zip(points, mults)
            if m > 0
        )
        assert ok == bool(mask[i])
    return dim


def rref_in_field(rows, fld):
    """Reduced row echelon form over any exact field, on lists of field
    scalars; returns (rank, pivot cols, rref rows)."""
    m = [[fld.of(x) for x in r] for r in rows]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    rank = 0
    pivots = []
    for col in range(nc):
        piv = next((i for i in range(rank, nr) if m[i][col] != fld.zero), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = fld.inv(m[rank][col])
        m[rank] = [fld.of(x * inv) for x in m[rank]]
        for i in range(nr):
            if i != rank and m[i][col] != fld.zero:
                f = m[i][col]
                m[i] = [fld.of(a - f * b) for a, b in zip(m[i], m[rank])]
        pivots.append(col)
        rank += 1
        if rank == nr:
            break
    return rank, pivots, m


def nullspace_in_field(rows, fld, ncols):
    """Kernel basis read off ``rref_in_field``, one vector per free column:
    the free entry is 1 and each pivot entry is minus its row's."""
    _, pivots, rref = rref_in_field(rows, fld)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [fld.zero] * ncols
        v[f] = fld.one
        for i, pc in enumerate(pivots):
            v[pc] = fld.of(-rref[i][f])
        basis.append(tuple(v))
    return basis


def enumerate_projective_plane(field):
    """Canonical representatives of P^2(F_p), p^2 + p + 1 points."""
    p = field.p
    for a in range(p):
        for b in range(p):
            yield ProjectivePoint(field, (a, b, 1))
    for a in range(p):
        yield ProjectivePoint(field, (a, 1, 0))
    yield ProjectivePoint(field, (1, 0, 0))


def scan_plane(field, keep):
    """The points of P^2(F_p) where ``keep`` holds, sorted by coordinates."""
    return sorted(filter(keep, enumerate_projective_plane(field)), key=lambda P: P.coords)


def common_zeros_by_evaluation(field, forms):
    """The common zeros of ``forms`` on P^2(F_p), one ``evaluate`` per point
    and form."""
    return scan_plane(field, lambda P: all(evaluate(g, P) == 0 for g in forms))


def singular_points_by_evaluation(f):
    """The points of P^2(F_p) where the gradient of ``f`` vanishes."""
    return common_zeros_by_evaluation(f.field, [partial_derivative(f, v) for v in range(3)])


def product_scan_points(c1, nodes1, c2):
    """The points ``two_nodal_union`` accepts for a nodal curve ``c1`` with
    nodes ``nodes1`` and a nodal second curve ``c2``, from the singular
    points of c1 c2: C(d1-1, 2) + C(d2-1, 2) + d1 d2 of them, each of order
    exactly 2, d1 d2 of them off both curves' nodes.  None when that fails."""
    d1, d2 = c1.degree, c2.degree
    sing2 = singular_points_by_evaluation(c2)
    product = c1 * c2
    sing = singular_points_by_evaluation(product)
    if len(sing) != math.comb(d1 - 1, 2) + math.comb(d2 - 1, 2) + d1 * d2:
        return None
    if any(order_of_vanishing(product, P) != 2 for P in sing):
        return None
    inter = [P for P in sing if P not in nodes1 and P not in sing2]
    if len(inter) != d1 * d2:
        return None
    return tuple(sorted(set(nodes1) | set(sing2) | set(inter), key=lambda P: P.coords))
