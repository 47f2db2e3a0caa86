"""Linear systems of plane curves with assigned base multiplicities.

The dimension of the degree-d forms vanishing to order m_i at points P_i is
the corank of a condition matrix whose rows are derivative evaluations, with
point-free factors kept per (d, m, p) (``_tables``).  Ranks are computed
either exactly, by one fraction-free loop on integer rows in two modes
(``_fraction_free``: the Bareiss echelon, or the RREF of ``_rref_over_q``),
or modulo seeded 31-bit primes (``modp_rref``).  Modular ranks can only drop,
so a full-column-rank verdict modulo one prime already certifies emptiness of
the rational system, and a modular rank equal to min(rows, columns) is the
exact rank; nonzero modular kernels are only certified after an exact
recomputation or a dimension count.  ``_rank_mod_p`` takes every rank, mod p,
over a scheme's own F_p or over Q; it and exact kernels may move three points
to the coordinate vertices first (``_framed``), leaving only the other points'
rows on the monomials the vertices do not fix, over Q only when the
coordinates show, before any build, that this matrix is cheaper for Bareiss.
``_entry`` alone builds every report from an elimination (a dimension
report, its kernel or an alpha-search emptiness probe) and reads and writes
a cache; ``iter_alpha_values`` yields the alpha sequence one k at a time.
"""

from __future__ import annotations

import math
import random
from contextlib import suppress
from dataclasses import MISSING, dataclass, field as dataclass_field, fields
from fractions import Fraction
from functools import lru_cache, reduce
from math import comb, perm
from typing import Optional

import numpy as np

from .algebra import (
    QQ,
    AlgebraError,
    CharacteristicTooSmallError,
    PrimeField,
    check_same_field,
    det3,
    field_to_string,
    monomial_basis,
    order_of_vanishing,
    poly,
    poly_from_vector,
    random_prime_31,
    reduce_points,
)
from .serialize import form_terms, record


class CertificationError(AlgebraError):
    """An exact post-check of a computed kernel or rank failed."""


class PrimeTooLargeError(AlgebraError):
    """A prime too large for elimination in 64-bit residues."""


# existence certificates that hold over the rationals (or the scheme's own
# prime field), as opposed to agreement modulo search primes
CERTIFIED_EXISTENCE = ("expected_dim", "kernel", "rank")

# the cache kind of an alpha-search probe entry, beside the False and True of
# a ``system_dim`` report without or with its kernel
PROBE = "probe"


# ---------------------------------------------------------------------------
# schemes

@dataclass(frozen=True)
class FatPointScheme:
    """Distinct points with assigned vanishing multiplicities.

    Multiplicity 0 entries are allowed and impose no conditions; they
    naturally encode residual multiplicity vectors.
    """

    points: tuple
    multiplicities: tuple
    # sorted (JSON text of its coordinates, index) per point: a cache key's order
    point_texts: tuple = dataclass_field(default=(), init=False, repr=False, compare=False)
    # sum of C(m+1, 2): the naive condition count of ``expected_dim``
    conditions: int = dataclass_field(default=0, init=False, repr=False, compare=False)

    def __post_init__(self):
        pts = tuple(self.points)
        mults = tuple(int(m) for m in self.multiplicities)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "multiplicities", mults)
        if len(pts) != len(mults):
            raise ValueError("points and multiplicities differ in length")
        if not pts:
            raise ValueError("a scheme needs at least one point")
        fld = pts[0].field
        for p in pts[1:]:
            check_same_field(fld, p.field)
        if any(m < 0 for m in mults):
            raise ValueError("multiplicities must be non-negative")
        if len(set(pts)) != len(pts):
            raise ValueError("points must be pairwise distinct")
        object.__setattr__(self, "point_texts", tuple(sorted(
            ('["%s","%s","%s"]' % P.coord_strings(), i) for i, P in enumerate(pts))))
        object.__setattr__(self, "conditions", sum(comb(m + 1, 2) for m in mults))

    @property
    def field(self):
        return self.points[0].field

    @property
    def max_multiplicity(self) -> int:
        return max(self.multiplicities)

    @classmethod
    def uniform(cls, points, k: int) -> "FatPointScheme":
        points = tuple(points)
        return cls(points, (k,) * len(points))

    def _with_multiplicities(self, mults: tuple) -> "FatPointScheme":
        """These points, checked and sorted already, with non-negative ints ``mults``."""
        scheme = object.__new__(FatPointScheme)
        vars(scheme).update(points=self.points, multiplicities=mults, point_texts=self.point_texts,
                            conditions=sum(comb(m + 1, 2) for m in mults))
        return scheme


def expected_dim(scheme: FatPointScheme, d: int) -> int:
    """C(d+2, 2) minus the naive condition count; may be negative."""
    if d < 0:
        raise ValueError("degree must be non-negative")
    return comb(d + 2, 2) - scheme.conditions


def _check_system(scheme: FatPointScheme, d: int, p: Optional[int]):
    """Refuse a degree whose condition matrix mod ``p`` (exact when None)
    cannot be built: d < 0, a characteristic too small for the derivative
    rows, or a prime too large for 64-bit residue products."""
    if d < 0:
        raise ValueError("degree must be non-negative")
    if p is not None and p >= 2**31:  # int64 products of two residues
        raise PrimeTooLargeError(
            f"F_{p} is too large for 64-bit residue elimination; need p < 2^31"
        )
    # Derivative rows need p > max(d, max m).  Simple points (all m <= 1)
    # impose plain evaluation conditions, valid in every characteristic.
    fld = scheme.field
    if fld == QQ or scheme.max_multiplicity <= 1:
        return
    bound = max(d, scheme.max_multiplicity)
    if fld.p <= bound:
        raise CharacteristicTooSmallError(
            f"F_{fld.p} is too small for degree {d} with multiplicities up to "
            f"{scheme.max_multiplicity}; need p > {bound}"
        )


# ---------------------------------------------------------------------------
# condition matrices

def _imposed(scheme: FatPointScheme, d: int, p: Optional[int]):
    """(index, integer coordinates, m) per point with conditions in degree
    d, once ``_check_system`` accepts it, with m capped at d+1: by Euler's
    relation the order-(m-1) partials imply the lower ones only when
    m-1 <= d, and the order-d partials, the rescaled coefficients, vanish
    only on the zero form, the one form of order > d."""
    _check_system(scheme, d, p)
    return [(i, P.integer_coords(), min(m, d + 1))
            for i, (P, m) in enumerate(zip(scheme.points, scheme.multiplicities)) if m]


def _mod(x, p: int, t=None):
    """x mod p in place, through the scratch array t if given (// beats numpy's % severalfold)."""
    x -= np.multiply(np.floor_divide(x, p, out=t), p, out=t)
    return x


def _product(factors, p: Optional[int]):
    """The entrywise product of residue arrays mod p (exact when None)."""
    return reduce(lambda a, b: a * b if p is None else _mod(a * b, p), factors)


@lru_cache(maxsize=128)
def _tables(d: int, m: int, p: Optional[int], caps: Optional[tuple]):
    """The point-free part of ``_derivative_rows`` for multiplicity m in
    degree d on the monomials ``_off(d, caps)`` keeps, read-only:
    F[beta, mu] = prod_c perm(mu_c, beta_c) (mod p) and the indices
    max(mu_c - beta_c, 0) + c (d + 1) into a point's powers."""
    mons, betas = np.array(monomial_basis(d))[_off(d, caps)], np.array(monomial_basis(m - 1))
    fall = np.array([[perm(e, j) for j in range(m)] for e in range(d + 1)], dtype=object)
    fall = fall if p is None else (fall % p).astype(np.int64)
    F = _product([fall[mons[:, c], betas[:, None, c]] for c in range(3)], p)
    E = (np.maximum(mons[:, None] - betas, 0) + (d + 1) * np.arange(3)).T
    E = E.astype(np.min_scalar_type(3 * d + 2), order="C")
    F.flags.writeable = E.flags.writeable = False
    return F, E


@lru_cache(maxsize=128)
def _off(d: int, caps: Optional[tuple]):
    """The read-only mask of the degree-d monomials with mu_c <= caps[c], all if caps is None."""
    off = (np.array(monomial_basis(d)) <= (d if caps is None else caps)).all(axis=1)
    off.flags.writeable = False
    return off


def _derivative_rows(imposed, d: int, p: Optional[int], caps: Optional[tuple] = None):
    """The condition matrix of ``_imposed`` entries, from one formula, on
    the monomials that ``_off(d, caps)`` keeps.

    The row of (P, beta) at monomial mu is the beta-partial of x^mu at the
    integer coordinates of P: prod_c perm(mu_c, beta_c) * P_c^(mu_c - beta_c),
    where perm(e, j) = e (e-1) ... (e-j+1) is 0 for j > e.  With a prime the
    entries are int64 residues mod p; without one they are exact Python ints
    (object dtype).  Per call only the powers P_c^e are made; ``_tables``
    gives the rest, once for each group of points of equal m.
    """
    dtype = object if p is None else np.int64
    pows = np.ones((len(imposed), 3, d + 1), dtype=dtype)
    pows[..., 1:2] = np.array([[c if p is None else c % p for c in P] for _, P, _ in imposed],
                              dtype=dtype).reshape(-1, 3, 1)
    k = 1
    while k < d:  # x^(k+j) = x^k x^j for 1 <= j <= n
        n = min(k, d - k)
        pows[..., k + 1:k + n + 1] = _product([pows[..., 1:n + 1], pows[..., k:k + 1]], p)
        k *= 2
    pows = pows.reshape(len(imposed), 3 * (d + 1))
    ms = [m for _, _, m in imposed]
    blocks = {}
    for m in set(ms):
        group = [i for i, mi in enumerate(ms) if mi == m]
        F, E = _tables(d, m, p, caps)
        blocks.update(zip(group, _product([F, *np.take(pows[group], E, 1).swapaxes(0, 1)], p)))
    empty = np.empty((0, np.count_nonzero(_off(d, caps))), dtype)
    return np.concatenate([empty, *map(blocks.get, range(len(ms)))])


def build_condition_matrix(scheme: FatPointScheme, d: int) -> np.ndarray:
    """The condition matrix over the scheme's own field, rows as in
    ``_derivative_rows``: Python ints (object dtype) at primitive integer
    representatives over Q, which only rescales each row; int64 residues
    over F_p."""
    p = scheme.field.p
    return _derivative_rows(_imposed(scheme, d, p), d, p)


def condition_matrix_mod_p(scheme: FatPointScheme, d: int, p: int) -> np.ndarray:
    """The condition matrix reduced mod a prime p < 2^31, as int64 residues.

    For rational schemes this is the integer matrix mod p; reduction can
    only lower the rank, which keeps full-rank verdicts sound.
    """
    return _derivative_rows(_imposed(scheme, d, p), d, p)


def _rank_mod_p(scheme: FatPointScheme, d: int, p: Optional[int]):
    """(rank, nrows) of the condition matrix mod p, or over Q when ``p`` is
    None, with only the rows off a standard frame eliminated when
    ``_framed`` takes one.

    Three non-collinear imposing points a, b, c move to the coordinate
    vertices by X -> (det3(X, b, c), det3(a, X, c), det3(a, b, X)), the
    integer adjugate of their coordinate matrix: a lands at (det, 0, 0).
    The move is invertible over Q and, when p does not divide det, mod p,
    so neither rank changes (an F_p point's integer coordinates are its
    residues).  The row (beta) of a vertex with multiplicity m on axis i is
    then zero except at the one monomial mu that agrees with beta off axis
    i, where it is perm(mu_i, beta_i) beta_j! beta_k! det^(d-m+1), a unit
    mod p once p > d too.  These rows cover the columns U = {mu : mu_i >
    d - m at some vertex}, so the rank is |U| plus the rank of the other
    rows on the remaining columns: one ``modp_rref`` mod p, or one Bareiss
    elimination over Q.
    """
    imposed = _imposed(scheme, d, p)
    nrows = sum(comb(m + 1, 2) for _, _, m in imposed)
    covered, R, _ = _framed(imposed, d, p)
    if not len(R):  # the frame's rows alone
        return covered, nrows
    rank = bareiss_echelon(R.tolist())[0] if p is None else modp_rref(R, p, rank_only=True)[0]
    return covered + rank, nrows


def _framed(imposed, d: int, p: Optional[int]):
    """(|U|, the matrix to eliminate, the frame's three ``_imposed`` entries
    or None) for the condition matrix mod p, or over Q when ``p`` is None.

    The frame is the first non-collinear triple, highest multiplicities
    first, and its matrix the other points' moved rows built only on the
    monomials off U.  Mod p it is taken when p > d and p does not divide its
    det, over Q when ``_height_cost`` is lower for the moved points on the
    columns off U than for all points on all columns; otherwise the matrix
    is the unframed condition matrix and |U| is 0.  Only the chosen matrix
    is built.
    """
    order = sorted(imposed, key=lambda u: -u[2])
    for k in range(2, len(order)):
        det = det3(order[0][1], order[1][1], order[k][1])
        if det:
            frame, rest = (order[0], order[1], order[k]), order[2:k] + order[k + 1:]
            (_, a, _), (_, b, _), (_, c, _) = frame
            moved = [(i, (det3(X, b, c), det3(a, X, c), det3(a, b, X)), m) for i, X, m in rest]
            caps = tuple(d - m for _, _, m in frame)
            ncols = int(np.count_nonzero(_off(d, caps)))
            if (_height_cost(moved, ncols) < _height_cost(imposed, comb(d + 2, 2))
                    if p is None else p > d and det % p):
                return comb(d + 2, 2) - ncols, _derivative_rows(moved, d, p, caps), frame
            break
    return 0, _derivative_rows(imposed, d, p), None


def _height_cost(imposed, ncols: int) -> int:
    """Rows x ncols x largest coordinate bit length of ``imposed`` entries,
    known before any build, for Bareiss's cost: rows x columns x largest entry
    bit length, which grows with the coordinates' (the adjugate doubles them)."""
    return (sum(comb(m + 1, 2) for _, _, m in imposed) * ncols
            * max((abs(x) for _, P, _ in imposed for x in P), default=0).bit_length())


def _pull_back(vectors, frame, d: int):
    """The RREF kernel basis, as ``rational_nullspace`` gives it, of the
    forms f(X) = g(l1(X), l2(X), l3(X)) for the kernel vectors g on the
    monomials off U of a ``_framed`` frame, whose move has the linear forms
    b x c, c x a, a x b; without a frame the vectors are that basis.

    The products l1^i l2^j l3^k are dense arrays P[s, t] of the
    coefficients of x^s y^t z^(e-s-t), each one linear form times an
    earlier one.  The pulled-back vectors span the kernel: ``_span_basis``.
    """
    if frame is None or not vectors:
        return vectors
    (_, a, _), (_, b, _), (_, c, _) = frame
    forms = np.cross(np.array([b, c, a], dtype=object), np.array([c, a, b], dtype=object))
    mons = monomial_basis(d)
    at = tuple(np.array(mons)[:, :2].T)
    products = {(0, 0, 0): np.ones((1, 1), dtype=object)}

    def product(mu):
        if mu not in products:
            i = next(i for i in range(3) if mu[i])
            prev = product(mu[:i] + (mu[i] - 1,) + mu[i + 1:])
            P = np.zeros((len(prev) + 1,) * 2, dtype=object)
            P[1:, :-1] += forms[i][0] * prev
            P[:-1, 1:] += forms[i][1] * prev
            P[:-1, :-1] += forms[i][2] * prev
            products[mu] = P
        return products[mu]

    S = np.array([product(mu)[at] for mu in mons
                  if all(e <= d - m for e, (_, _, m) in zip(mu, frame))], dtype=object)
    return _span_basis(np.array(vectors, dtype=object).dot(S))


def _span_basis(vectors):
    """The RREF kernel basis, as ``rational_nullspace`` gives it, of the span
    of integer ``vectors``: their RREF with the columns reversed (one row per
    free column f, its last nonzero entry), rows reversed back, ``_normalized``."""
    pivots, rows = _rref_over_q(np.array(vectors, dtype=object)[:, ::-1])
    return [_normalized(r[::-1]) for r in reversed(rows[:len(pivots)])]


def _product_basis(d: int, bound: int, pairs):
    """``_span_basis`` of the degree-d products f g of the forms of each pair
    of kernel bases in ``pairs``, in integer coefficients, if they span
    ``bound`` dimensions (a kernel of at most that many is then their span)."""
    index, vectors = {mu: i for i, mu in enumerate(monomial_basis(d))}, []
    for f, g in ((f, g) for A, B in pairs if A[0].degree + B[0].degree == d
                 for f in A for g in B):
        vectors.append([0] * len(index))
        for (a, b, c), x in f.integer_terms():
            for (a2, b2, c2), y in g.integer_terms():
                vectors[-1][index[a + a2, b + b2, c + c2]] += x * y
    return basis if vectors and len(basis := _span_basis(vectors)) == bound else None


def _normalized(v) -> tuple:
    """The kernel vector v divided by its gcd, first nonzero entry positive."""
    g = math.gcd(*v) * (1 if next(x for x in v if x) > 0 else -1)
    return tuple(x // g for x in v)


# ---------------------------------------------------------------------------
# elimination engines

def _fraction_free(rows, reduced: bool):
    """Fraction-free elimination (Bareiss 1968) of the integer lists
    ``rows`` in place; returns the pivot columns.  A pivot a = row_r[col]
    turns a row_i it clears into (a * row_i - row_i[col] * row_r) // prev,
    prev the pivot before a: the division is exact, every entry stays a
    minor of the input, and a row zero in the pivot column changes only if
    a != prev.  The echelon clears the rows below each pivot, zero left of
    it; ``reduced`` clears every other row too (Gauss-Jordan), and each
    pivot row then ends with the last pivot D at its pivot column."""
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    pivots, prev = [], 1
    for col in range(nc):
        rank = len(pivots)
        if rank == nr:
            break
        r = next((i for i in range(rank, nr) if rows[i][col]), None)
        if r is None:
            continue
        rows[rank], rows[r] = rows[r], rows[rank]
        top = rows[rank]
        a = top[col]
        for i in range(0 if reduced else rank + 1, nr):
            row = rows[i]
            b = row[col]
            if i != rank and (b or a != prev):
                for j in range(col + 1 if i > rank else 0, nc):
                    row[j] = (a * row[j] - b * top[j]) // prev
                row[col] = 0
        pivots.append(col)
        prev = a
    return pivots


def bareiss_echelon(rows):
    """Fraction-free row echelon form of an integer matrix: (rank, pivot
    columns, echelon rows), the ``_fraction_free`` echelon of a copy of the
    rows.  Every entry is a minor of the input, so bit growth is bounded."""
    m = [list(r) for r in rows]
    pivots = _fraction_free(m, reduced=False)
    return len(pivots), pivots, m


def rational_nullspace(rows, ncols: Optional[int] = None):
    """Primitive integer basis of the right kernel of an integer matrix.

    One basis vector per free column, back-substituted through the Bareiss
    echelon form in integers: scaled by D, the last pivot (the pivot
    minor's determinant), the vector is integral by Cramer's rule, so every
    division is exact; it is then divided by its gcd.
    """
    rows = list(rows)
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    rank, pivots, ech = bareiss_echelon(rows) if rows else (0, [], [])
    D = ech[rank - 1][pivots[-1]] if rank else 1
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [0] * ncols
        v[f] = D
        for i in range(rank - 1, -1, -1):
            pc = pivots[i]
            q, r = divmod(-sum(x * y for x, y in zip(ech[i][pc + 1:], v[pc + 1:]) if y),
                          ech[i][pc])
            if r:
                raise CertificationError(f"inexact back-substitution at column {pc}")
            v[pc] = q
        basis.append(_normalized(v))
    return basis


def _exact_nullspace(A, p: int):
    """``rational_nullspace`` of the integer matrix A; when A is tall, from
    only its rows independent mod p (the pivot columns of A^T mod p), which
    are independent over Q, so their kernel holds A's.  It is accepted only
    if every vector satisfies all rows of A over Z (the kernels, and so their
    RREF bases, are then equal); otherwise it is recomputed from all rows."""
    if A.shape[0] > A.shape[1]:
        vectors = rational_nullspace(A[modp_rref(A.T, p, rank_only=True)[1]].tolist(), A.shape[1])
        if not vectors or not A.dot(np.array(vectors, dtype=object).T).any():
            return vectors
    return rational_nullspace(A.tolist(), A.shape[1])


def modp_rref(A: np.ndarray, p: int, rank_only: bool = False):
    """Reduced row echelon form over F_p; returns (rank, pivot cols, rref).

    The one elimination for every prime field: int64 residues below 2^31
    (a product of two minus another stays within 2^62), Python ints above,
    and never a float (over Q, ``_rref_over_q``).  A nonzero diagonal entry
    is the pivot without a search.  Each step clears whole rows in place
    (the pivot row is zero left of its pivot), fraction-free: row r becomes
    a r - r[col] x pivot row for the pivot a, in one scratch buffer per
    call.  Pivot rows get their leading 1 at the end.
    ``rank_only`` clears only below each pivot and scales none: the rank and
    pivots are the same, the returned matrix is a row echelon form.
    """
    if p >= 2**31 or A.dtype == object:  # ints >= 2^63 would overflow int64
        A = A.astype(object) % p
    if p < 2**31:
        A = _mod(A.astype(np.int64, order="C"), p)
    buf = np.empty_like(A)
    nr, nc = A.shape
    rank = 0
    pivots = []
    for col in range(nc):
        if rank >= nr:
            break
        if not A[rank, col]:
            nz = A[rank:, col].nonzero()[0]
            if not nz.size:
                continue
            A[[rank, rank + nz[0]]] = A[[rank + nz[0], rank]]
        row = A[rank]
        for block in (A[rank + 1:],) if rank_only else (A[rank + 1:], A[:rank]):
            t = np.multiply(block[:, col, None], row, out=buf[:len(block)])
            block *= row[col]
            block -= t
            _mod(block, p, t)
        pivots.append(col)
        rank += 1
    if not rank_only:
        inv = np.array([pow(int(x), -1, p) for x in A[range(rank), pivots]], A.dtype)
        _mod(np.multiply(A[:rank], inv[:, None], out=A[:rank]), p)
    return rank, pivots, A


def _rref_over_q(A):
    """Pivots and integer rows of the RREF over Q of a matrix of ints or
    Fractions: the ``_fraction_free`` Gauss-Jordan of its rows cleared of
    denominators.  Every pivot row ends with the last pivot D at its pivot
    column: the RREF is the pivot rows divided by D.  It gives the kernels
    of ``modp_nullspace`` over Q and the basis of ``_pull_back``."""
    rows = []
    for row in A.tolist():
        den = math.lcm(*(x.denominator for x in row))
        rows.append([int(x * den) for x in row])
    return _fraction_free(rows, reduced=True), rows


def modp_nullspace(A: np.ndarray, p: Optional[int]):
    """Kernel basis over F_p (over Q when ``p`` is None) read off the RREF,
    one vector per free column: the free entry is 1, each pivot entry is
    minus its row's and the rest are 0.  Over Q no RREF is formed: a pivot
    entry is Fraction(-row[f], row[pivot]) of the integer rows of
    ``_rref_over_q``, made only at the free columns."""
    if p is None:
        pivots, rows = _rref_over_q(A)
    else:
        _, pivots, R = modp_rref(A, p)
        rows = R.tolist()
    basis = []
    for f in range(A.shape[1]):
        if f in pivots:
            continue
        v = [0] * A.shape[1]
        v[f] = 1
        for row, pc in zip(rows, pivots):
            v[pc] = Fraction(-row[f], row[pc]) if p is None else -row[f] % p
        basis.append(tuple(v))
    return basis


# ---------------------------------------------------------------------------
# rank strategies and certification levels

@dataclass(frozen=True)
class ExactRational:
    """Fraction-free elimination over cleared integers."""

    label = "EXACT_RATIONAL"


@dataclass(frozen=True)
class SinglePrime:
    """Elimination modulo one seeded random 31-bit prime."""

    seed: int = 0
    label = "SINGLE_PRIME"


@dataclass(frozen=True)
class MultiPrime:
    """Agreement of several distinct primes, escalating to exact on a split."""

    count: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("need at least one prime")

    @property
    def label(self) -> str:
        return f"MULTI_PRIME({self.count})"


DEFAULT_SEARCH_STRATEGY = MultiPrime(2)


def exact_label(field) -> str:
    """The certification of an exact answer over ``field``: over a prime
    field its own single prime is exact."""
    return ExactRational.label if field == QQ else SinglePrime.label


def parse_strategy(s: str):
    s = s.strip().lower()
    if s == "exact":
        return ExactRational()
    if s == "prime":
        return SinglePrime()
    if s.startswith("multiprime:"):
        return MultiPrime(int(s.split(":", 1)[1]))
    if s == "multiprime":
        return MultiPrime()
    raise ValueError(f"unknown strategy {s!r}")


@lru_cache(maxsize=None)
def strategy_primes(strategy) -> tuple:
    """The deterministic prime sequence of a SinglePrime or MultiPrime
    strategy."""
    n = strategy.count if isinstance(strategy, MultiPrime) else 1
    rng = random.Random(f"fatpoints.primes:{strategy.seed}")
    primes = []
    while len(primes) < n:
        q = random_prime_31(rng)
        if q not in primes:
            primes.append(q)
    return tuple(primes)


# ---------------------------------------------------------------------------
# reports

@dataclass(frozen=True)
class LinearSystemReport:
    """Outcome of one (scheme, degree) dimension computation.

    ``actual_dim`` is the vector-space dimension of the degree-d part of
    the ideal.  An ``actual_dim`` of 0 is always certified: full rank mod p
    bounds the exact rank from below.  ``existence_certified`` names the
    certificate for a nonzero dimension ("expected_dim", "kernel") or is
    None if only modular evidence exists.
    """

    degree: int
    expected_dim: int
    actual_dim: int
    superabundance: int
    certification: str
    rank: int
    nrows: int
    ncols: int
    primes: tuple = ()
    kernel: Optional[tuple] = None
    existence_certified: Optional[str] = None

    def to_json_dict(self) -> dict:
        d = record("linear_system_report", self)
        if self.kernel is None:
            del d["kernel"]
        else:
            d["kernel"] = [form_terms(g) for g in self.kernel]
        return d


@dataclass(frozen=True)
class AlphaReport:
    """Initial degrees of the uniform fat-point schemes kZ for k = 1..k_max."""

    alphas: tuple
    diffs: tuple
    entries: tuple  # one summary dict per k
    points: tuple  # the coordinate strings of each point of Z
    field: str  # the field tag of Z, "rational" or "prime:P"

    def __post_init__(self):
        a = tuple(self.alphas)
        if any(y <= x for x, y in zip(a, a[1:])):
            raise ValueError(f"alpha sequence must be strictly increasing: {a}")

    @classmethod
    def from_values(cls, points: tuple, values) -> "AlphaReport":
        """The report of the ``AlphaValue``s of kZ, k = 1, 2, ..., for Z = ``points``."""
        alphas = tuple(av.value for av in values)
        entries = tuple({"k": k, "alpha": av.value, "existence_certified": av.existence,
                         "certification": av.certification} for k, av in enumerate(values, 1))
        return cls(alphas, tuple(b - a for a, b in zip(alphas, alphas[1:])), entries,
                   tuple(P.coord_strings() for P in points), field_to_string(points[0].field))

    def to_json_dict(self) -> dict:
        return record("alpha_report", self)

    def to_csv(self) -> str:
        lines = ["k,alpha,diff"]
        for i, a in enumerate(self.alphas):
            diff = "" if i == 0 else str(self.diffs[i - 1])
            lines.append(f"{i + 1},{a},{diff}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# dimension computation

def _verify_kernel(scheme: FatPointScheme, polys) -> None:
    for P, m in zip(scheme.points, scheme.multiplicities):
        for g in polys:
            if m and order_of_vanishing(g, P, m) < m:
                raise CertificationError(
                    f"kernel element fails the multiplicity-{m} check at {P}"
                )


def _report(scheme, d, rank, nrows, certification, primes=(), kernel=None,
            witness=None):
    """A report for one rank; ``witness`` names the existence certificate
    of a nonzero dimension that the dimension count does not prove."""
    ncols = comb(d + 2, 2)
    exp = expected_dim(scheme, d)
    actual = ncols - rank
    existence = None
    if actual > 0:
        existence = "expected_dim" if exp > 0 else witness
    return LinearSystemReport(
        degree=d,
        expected_dim=exp,
        actual_dim=actual,
        superabundance=actual - max(exp, 0),
        certification=certification,
        rank=rank,
        nrows=nrows,
        ncols=ncols,
        primes=primes,
        kernel=kernel,
        existence_certified=existence,
    )


def _entry(scheme, d, strategy, kind, cache=None, full_rank_mod=None, products=None):
    """The report of degree d that ``kind`` asks for, through ``cache`` if
    given: False or True for a ``system_dim`` report without or with its
    kernel, ``PROBE`` for an alpha-search probe.  Every report of an
    elimination is made here.

    A kernel is exact: ``modp_nullspace`` of the condition matrix over a
    scheme's own F_p; over Q ``_product_basis(d, *products)`` if that spans,
    else the kernel of the one matrix ``_framed`` picks and builds, which
    ``_pull_back`` turns into the RREF basis ``rational_nullspace`` would
    give.  Every kernel form is checked at every point in the original
    coordinates.  A rank over a scheme's own F_p is one ``_rank_mod_p`` at p.
    A rational rank climbs one ladder: the first prime (``SinglePrime()``'s
    for ``ExactRational``) runs unless ``full_rank_mod`` is it; a ``PROBE`` at
    full column rank is its report, the whole emptiness certificate;
    ``ExactRational``, or another prime q that disagrees, gives the exact
    rank, by Bareiss only below min(nrows, ncols) as modular rank <= exact
    rank; else the other primes complete the strategy's report."""
    report = None if cache is None else cache.get_report(scheme, d, strategy, kind)
    if report is None:
        p, ncols, label = scheme.field.p, comb(d + 2, 2), exact_label(scheme.field)
        if kind is not PROBE and kind:
            imposed = _imposed(scheme, d, p)
            if p is not None:
                vectors = modp_nullspace(_derivative_rows(imposed, d, p), p)
            elif (vectors := products and _product_basis(d, *products)) is None:
                _, rows, frame = _framed(imposed, d, None)
                vectors = _pull_back(_exact_nullspace(rows, strategy_primes(SinglePrime())[0]),
                                     frame, d)
            kernel = tuple(poly_from_vector(scheme.field, d, v) for v in vectors)
            _verify_kernel(scheme, kernel)
            nrows = sum(comb(m + 1, 2) for _, _, m in imposed)
            report = _report(scheme, d, ncols - len(kernel), nrows, label,
                             () if p is None else (p,), kernel, "kernel")
        elif p is not None:
            report = _report(scheme, d, *_rank_mod_p(scheme, d, p), label, (p,), witness="rank")
        else:
            exact = isinstance(strategy, ExactRational)
            primes = strategy_primes(SinglePrime() if exact else strategy)
            if full_rank_mod == primes[0]:
                rank, nrows = ncols, sum(comb(m + 1, 2) for _, _, m in _imposed(scheme, d, None))
            else:
                rank, nrows = _rank_mod_p(scheme, d, primes[0])
            if kind is PROBE and rank == ncols:
                report = _report(scheme, d, rank, nrows, SinglePrime.label, primes[:1])
            elif exact or any(_rank_mod_p(scheme, d, q)[0] != rank for q in primes[1:]):
                if rank < min(nrows, ncols):
                    rank = _rank_mod_p(scheme, d, None)[0]
                report = _report(scheme, d, rank, nrows, label, witness="rank")
            else:
                report = _report(scheme, d, rank, nrows, strategy.label, primes)
        if cache is not None:
            cache.put_report(scheme, d, strategy, kind, report)
    return report


def system_dim(
    scheme: FatPointScheme,
    d: int,
    strategy=DEFAULT_SEARCH_STRATEGY,
    want_kernel: bool = False,
    cache=None,
    full_rank_mod: Optional[int] = None,
    products: Optional[tuple] = None,
) -> LinearSystemReport:
    """Dimension report of the degree-``d`` part of the fat-point ideal.

    ``actual_dim`` = C(d+2, 2) - rank of the condition matrix, with the rank
    computed per the requested strategy.  Schemes over a prime field are
    always eliminated exactly over that field.  What an alpha search proved
    at d saves work and changes no report: full column rank modulo the
    prime ``full_rank_mod``, and ``products`` = (a modular kernel
    dimension, pairs of exact kernel bases whose multiplicities add up).
    """
    return _entry(scheme, d, strategy, want_kernel, cache, full_rank_mod, products)


def kernel_basis(scheme: FatPointScheme, d: int, strategy=ExactRational()):
    """Basis of the degree-``d`` part as polynomials, multiplicity-verified.

    The default is the exact rational computation.  Passing a SinglePrime
    strategy is an explicit acceptance of a basis over one prime field: a
    rational scheme is reduced mod that prime first, and the returned
    polynomials live over it.
    """
    if scheme.field == QQ and isinstance(strategy, SinglePrime):
        fld = PrimeField(strategy_primes(strategy)[0])
        scheme = FatPointScheme(reduce_points(scheme.points, fld), scheme.multiplicities)
    elif scheme.field == QQ and not isinstance(strategy, ExactRational):
        raise ValueError(
            "kernel bases over rational schemes need the exact strategy "
            "or the explicit single-prime acceptance"
        )
    return list(system_dim(scheme, d, strategy=strategy, want_kernel=True).kernel)


# ---------------------------------------------------------------------------
# initial degrees

@dataclass(frozen=True)
class AlphaValue:
    """An initial degree together with how each side was certified.

    ``reports`` is the trail of ``alpha_search``: one ``(degree, entry)``
    pair per degree probed, in the order probed, ending with the entry at
    ``value``.
    """

    value: int
    existence: Optional[str]  # "expected_dim" | "kernel" | None
    certification: str
    reports: tuple  # (degree, LinearSystemReport or decision label) per probe

    @property
    def fully_certified(self) -> bool:
        # The degree below the value is always certified empty (full modular
        # column rank bounds the exact rank from below), and so is every
        # lower degree: x F is nonzero in degree d + 1 for F nonzero in d.
        return self.existence in CERTIFIED_EXISTENCE


def alpha_search(
    scheme: FatPointScheme,
    strategy=DEFAULT_SEARCH_STRATEGY,
    certify_existence: bool = False,
    start: Optional[int] = None,
    cache=None,
    upper: Optional[int] = None,
    factors=(),
) -> AlphaValue:
    """Alpha with its certificate and the degrees probed, searched from
    ``start`` when that exceeds max(max m, 1).

    Emptiness is closed downward (x F is nonzero in degree d + 1 for a
    nonzero F of degree d), so alpha rests on a certified-empty alpha - 1
    and the report at alpha.  hi, the first degree with a positive
    dimension count, needs no matrix and no cache lookup; the search probes
    min(``upper``, hi - 1) and then bisects, each degree at most once; the
    hint ``upper`` certifies nothing.  Each probe is one ``_entry`` call
    and, with a cache, one entry, so a warm search reads one entry per
    probe and ``reports`` is the same with and without a cache.  A rational
    scheme under a modular strategy asks the ``PROBE`` question: only full
    column rank modulo the first prime counts as empty.  Every other probe
    is the ``system_dim`` report.  A report that finds its degree empty
    after all (an escalated prime split, or a certified search's exact
    recheck) moves the search on to the next degree.  The recheck passes
    ``factors`` on to ``system_dim`` as ``products`` with the probe's dimension.

    ``reports`` holds one ``(d, entry)`` pair per probe, in order, then the
    report at the value unless its probe was the last entry, and the exact
    recheck of a certified search.  ``entry`` is the report, or the label
    ``"full_rank_mod_p"``, ``"deficient_mod_p"`` or ``"expected_dim"`` of a
    degree decided without one.  Refuses what ``system_dim`` refuses at
    the degrees a climb from ``start`` to alpha would pass.
    """
    if scheme.max_multiplicity == 0:
        raise ValueError("alpha needs at least one positive multiplicity")
    lo = max(scheme.max_multiplicity, 1, start or 0)
    p = scheme.field.p
    hi = lo  # the first degree with a positive count or refused
    with suppress(CharacteristicTooSmallError):
        while expected_dim(scheme, hi) <= 0:
            _check_system(scheme, hi, p)
            hi += 1
    kind = PROBE if p is None and isinstance(strategy, (SinglePrime, MultiPrime)) else False
    probes = {}
    trail = []

    def probe(d):
        """Whether degree d is proved empty, keeping the report that
        decided it."""
        entry = probes[d] = _entry(scheme, d, strategy, kind, cache)
        empty = entry.actual_dim == 0
        if kind is PROBE:  # empty only at the first prime's full rank
            empty = empty and entry.primes == strategy_primes(strategy)[:1]
            entry = "full_rank_mod_p" if empty else "deficient_mod_p"
        trail.append((d, entry))
        return empty

    # degrees up to `empty` are empty (below lo: under max m or the
    # caller's start); `nonempty` is the least degree above them whose
    # probe found a kernel, or hi, which needs no probe
    empty, nonempty = lo - 1, hi
    d = hi - 1 if upper is None else min(hi - 1, max(upper, lo))
    while empty < d < nonempty:
        if probe(d):
            empty = d
        else:
            nonempty = d
        d = (empty + nonempty) // 2
    for d in range(nonempty, hi):
        if d not in probes and probe(d):
            continue
        report = probes[d]
        if trail[-1][1] is not report:
            trail.append((d, report))
        if report.actual_dim == 0:
            continue  # a prime split escalated and the exact rank is full
        if report.existence_certified is None and certify_existence:
            report = system_dim(scheme, d, strategy=ExactRational(), want_kernel=True,
                                cache=cache, products=(report.actual_dim, factors))
            trail.append((d, report))
            if report.actual_dim == 0:
                continue  # the modular ranks undercounted
        return AlphaValue(d, report.existence_certified, report.certification,
                          tuple(trail))
    _check_system(scheme, hi, p)  # raises where a climb would have stopped
    # the label system_dim gives when no prime split escalates
    label = strategy.label if p is None else exact_label(scheme.field)
    trail.append((hi, "expected_dim"))
    return AlphaValue(hi, "expected_dim", label, tuple(trail))


def alpha(
    scheme: FatPointScheme,
    strategy=DEFAULT_SEARCH_STRATEGY,
    certify_existence: bool = False,
    cache=None,
) -> int:
    """Least degree with a nonzero form in the fat-point ideal."""
    return alpha_search(scheme, strategy, certify_existence, cache=cache).value


def iter_alpha_values(points, k_max: int, strategy=DEFAULT_SEARCH_STRATEGY,
                      certify_existence: bool = False, cache=None):
    """The ``AlphaValue`` of kZ for k = 1..k_max, one search at a time, each
    started above the last value.  Products of curves multiply ideals, so
    alpha(jZ) + alpha((k-j)Z) is its ``upper`` hint and the kernels of jZ and
    (k-j)Z are its ``factors``.  The kernels live as long as the generator."""
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    simple = FatPointScheme.uniform(points, 1)  # checks the points once
    alphas, kernels, start = [], [], None
    for k in range(1, k_max + 1):
        scheme = simple._with_multiplicities((k,) * len(simple.points))
        upper = min(map(sum, zip(alphas, reversed(alphas))), default=None)
        factors = [(A, B) for A, B in zip(kernels[:k // 2], reversed(kernels)) if A and B]
        av = alpha_search(scheme, strategy, certify_existence, start, cache, upper, factors)
        alphas.append(av.value)
        kernels.append(av.reports[-1][1].kernel if av.existence == "kernel" else None)
        start = av.value + 1
        yield av


def alpha_sequence(points, k_max: int, strategy=DEFAULT_SEARCH_STRATEGY,
                   certify_existence: bool = False, cache=None) -> AlphaReport:
    """Initial degrees of kZ for k = 1..k_max, from ``iter_alpha_values``."""
    points = tuple(points)
    return AlphaReport.from_values(points, list(iter_alpha_values(
        points, k_max, strategy, certify_existence, cache)))


def _vector_alpha(points, vec, strategy, certify, cache) -> int:
    if all(m == 0 for m in vec):
        return 0
    scheme = FatPointScheme(tuple(points), tuple(vec))
    return alpha(scheme, strategy=strategy, certify_existence=certify, cache=cache)


def alpha_diff(
    points,
    m_vec,
    n_vec,
    strategy=DEFAULT_SEARCH_STRATEGY,
    certify_existence: bool = False,
    cache=None,
) -> int:
    """alpha(I(m Z)) - alpha(I(n Z)) for componentwise m >= n, m != n.

    Inhomogeneous vectors are supported; an all-zero lower vector
    contributes initial degree 0.
    """
    m_vec = tuple(int(v) for v in m_vec)
    n_vec = tuple(int(v) for v in n_vec)
    points = tuple(points)
    if len(m_vec) != len(points) or len(n_vec) != len(points):
        raise ValueError("multiplicity vectors must match the point count")
    if any(a < b for a, b in zip(m_vec, n_vec)) or m_vec == n_vec:
        raise ValueError("need m >= n componentwise with m != n")
    if any(v < 0 for v in n_vec):
        raise ValueError("multiplicities must be non-negative")
    hi = _vector_alpha(points, m_vec, strategy, certify_existence, cache)
    lo = _vector_alpha(points, n_vec, strategy, certify_existence, cache)
    return hi - lo


_REPORT_FIELDS = tuple((f.name, f.default) for f in fields(LinearSystemReport))


def report_from_json_dict(d: dict, field) -> LinearSystemReport:
    """The report of ``to_json_dict``; a missing required field raises
    KeyError naming it."""
    values = {name: d[name] if default is MISSING else d.get(name, default)
              for name, default in _REPORT_FIELDS}
    values["primes"] = tuple(values["primes"])
    if values["kernel"] is not None:
        values["kernel"] = tuple(
            poly(field, g["degree"], {tuple(m): c for m, c in g["terms"]})
            for g in values["kernel"]
        )
    return LinearSystemReport(**values)
