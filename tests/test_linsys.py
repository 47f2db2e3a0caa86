"""Condition matrices, rank engines, and initial-degree searches."""

import hashlib
import json
import math
import os
import random
import re
from fractions import Fraction
from math import comb, perm, prod

import numpy as np
import pytest

from helpers import coeff, enumeration_dimension, nullspace_in_field, rref_in_field
from fatpoints import linsys
from fatpoints.analysis import load_registry, repro
from fatpoints.algebra import (
    QQ,
    CharacteristicTooSmallError,
    FieldMismatchError,
    ReductionError,
    det3,
    evaluate,
    field_to_string,
    linear_form,
    monomial_basis,
    order_of_vanishing,
    partial_derivative,
    point,
    poly,
    poly_from_vector,
    prime_field,
)
from fatpoints.cache import CacheCorruptionError, ResultCache, _strategy_tag, cache_key
from fatpoints.configs import collinear, dual_hesse, general, on_conic, star, type9
from fatpoints.linsys import (
    PROBE,
    AlphaReport,
    CertificationError,
    ExactRational,
    FatPointScheme,
    MultiPrime,
    SinglePrime,
    alpha,
    alpha_diff,
    alpha_sequence,
    bareiss_echelon,
    build_condition_matrix,
    condition_matrix_mod_p,
    exact_label,
    expected_dim,
    kernel_basis,
    modp_nullspace,
    modp_rref,
    parse_strategy,
    rational_nullspace,
    strategy_primes,
    system_dim,
)
from fatpoints.serialize import dump_json, form_terms

TRIANGLE = (point(QQ, 1, 0, 0), point(QQ, 0, 1, 0), point(QQ, 0, 0, 1))


def conic_points(r, field=QQ):
    return tuple(point(field, 1, t, t * t) for t in range(r))


def rand_int_matrix(rng, nr, nc, lo=-20, hi=20):
    return [[rng.randint(lo, hi) for _ in range(nc)] for _ in range(nr)]


def fraction_echelon(rows):
    """Gauss elimination below each pivot over Fractions, with the pivot
    rule of ``bareiss_echelon`` (the first row at or below the rank that is
    nonzero in the column): (pivot columns, rows, row swaps)."""
    m = [[Fraction(x) for x in r] for r in rows]
    nr, nc = len(m), len(m[0]) if m else 0
    pivots, swaps = [], 0
    for col in range(nc):
        rank = len(pivots)
        piv = next((i for i in range(rank, nr) if m[i][col]), None)
        if piv is None:
            continue
        if piv != rank:
            m[rank], m[piv] = m[piv], m[rank]
            swaps += 1
        for i in range(rank + 1, nr):
            if m[i][col]:
                f = m[i][col] / m[rank][col]
                for j in range(col, nc):
                    m[i][j] -= f * m[rank][j]
        pivots.append(col)
        if rank + 1 == nr:
            break
    return pivots, m, swaps


def fraction_rank(rows):
    return len(fraction_echelon(rows)[0])


# ---------------------------------------------------------------------------
# elimination engines

def test_bareiss_matches_fraction_gauss():
    # each echelon row is the Fraction row times its pivot: the rows are
    # pinned, not only the rank and pivots; the last pivot of a square
    # nonsingular matrix is its determinant, up to the row swaps' sign
    rng = random.Random(3)
    square = 0
    for n in range(160):
        nr, nc = rng.randint(1, 8), rng.randint(1, 8)
        if n % 4 == 0:
            nc = nr
        m = rand_int_matrix(rng, nr, nc, *rng.choice(((-20, 20), (-2, 2), (-10**9, 10**9))))
        for i in range(1, nr):  # rows that are combinations of earlier ones
            if rng.random() < 0.2:
                a, b = m[rng.randrange(i)], m[rng.randrange(i)]
                m[i] = [rng.randint(-3, 3) * x + rng.randint(-3, 3) * y for x, y in zip(a, b)]
        for j in range(nc):  # zero columns, so some columns hold no pivot
            if rng.random() < 0.1:
                for row in m:
                    row[j] = 0
        before = [list(r) for r in m]
        rank, pivots, ech = bareiss_echelon(m)
        assert m == before
        want_pivots, want, swaps = fraction_echelon(m)
        assert (rank, pivots) == (len(want_pivots), want_pivots)
        assert len(ech) == nr and all(len(row) == nc for row in ech)
        assert all(type(x) is int for row in ech for x in row)
        for i, (row, c) in enumerate(zip(ech, pivots)):
            assert not any(row[:c]) and row[c]
            assert [Fraction(x, row[c]) for x in row] == [x / want[i][c] for x in want[i]]
        assert not any(x for row in ech[rank:] for x in row)
        if nr == nc == rank:
            square += 1
            det = math.prod(want[i][i] for i in range(nr)) * (-1) ** swaps
            assert det.denominator == 1
            assert ech[-1][-1] == (-1) ** swaps * det
    assert square >= 20


def test_rational_nullspace_annihilates():
    rng = random.Random(5)
    for _ in range(30):
        nr, nc = rng.randint(1, 7), rng.randint(2, 9)
        m = rand_int_matrix(rng, nr, nc)
        basis = rational_nullspace(m, nc)
        rank, _, _ = bareiss_echelon(m)
        assert len(basis) == nc - rank
        for v in basis:
            assert any(v)
            for row in m:
                assert sum(a * b for a, b in zip(row, v)) == 0


def test_rational_nullspace_is_the_primitive_rref_basis():
    # the integer back-substitution gives each RREF kernel vector (free
    # entry 1) cleared of denominators and signed by its first entry
    rng = random.Random(29)
    for _ in range(40):
        nr, nc = rng.randint(0, 7), rng.randint(1, 9)
        m = rand_int_matrix(rng, nr, nc, -10**6, 10**6)
        for i in range(2, nr):  # rows that are combinations of earlier ones
            if rng.random() < 0.4:
                a, b = m[rng.randrange(i)], m[rng.randrange(i)]
                m[i] = [rng.randint(-5, 5) * x + rng.randint(-5, 5) * y for x, y in zip(a, b)]
        want = []
        for v in nullspace_in_field(m, QQ, nc):
            den = math.lcm(*(x.denominator for x in v))
            den = -den if next(x for x in v if x) < 0 else den
            want.append(tuple(int(x * den) for x in v))
        assert rational_nullspace(m, nc) == want


def test_rational_nullspace_refuses_an_inexact_back_substitution(monkeypatch):
    # an echelon form no Bareiss elimination gives: its last pivot 3 does not
    # clear the denominator 2 of the first row
    monkeypatch.setattr(linsys, "bareiss_echelon",
                        lambda rows: (2, [0, 1], [[2, 0, 1], [0, 3, 1]]))
    with pytest.raises(linsys.CertificationError, match="inexact"):
        rational_nullspace([[2, 0, 1], [0, 3, 1]], 3)


def test_row_choice_falls_back_to_all_rows_when_the_rank_drops_mod_p(monkeypatch):
    p = strategy_primes(SinglePrime())[0]
    # rank 2 over Q, 1 mod p: the chosen row 0 alone has a 2-dimensional kernel
    A = np.array([[1, 0, 0], [0, p, 0], [0, 2 * p, 0], [1, p, 0]], dtype=object)
    calls = []
    monkeypatch.setattr(linsys, "bareiss_echelon",
                        lambda rows, _f=bareiss_echelon: calls.append(len(rows)) or _f(rows))
    assert linsys._exact_nullspace(A, p) == rational_nullspace(A.tolist()) == [(0, 0, 1)]
    assert calls == [1, 4, 4]  # the chosen row, the fallback, the oracle
    # rank 2 mod p too: Bareiss sees only two rows and the check accepts them
    B = np.array([[1, 2, 3], [2, 4, 6], [0, 1, 1], [1, 3, 4]], dtype=object)
    calls.clear()
    assert linsys._exact_nullspace(B, p) == rational_nullspace(B.tolist()) == [(1, 1, -1)]
    assert calls == [2, 4]


def rand_modp_matrices(rng, q):
    """All-zero, dense, sparse and rank-2 int64 residue matrices, tall,
    wide and square."""
    for nr, nc in ((9, 4), (4, 9), (6, 6), (1, 5), (5, 1)):
        yield np.zeros((nr, nc), dtype=np.int64)
        dense = [[rng.randrange(q) for _ in range(nc)] for _ in range(nr)]
        yield np.array(dense, dtype=np.int64)
        sparse = [[x if rng.random() < 0.3 else 0 for x in r] for r in dense]
        yield np.array(sparse, dtype=np.int64)
        low = [[sum(rng.randrange(q) * b[j] for b in dense[:2]) % q
                for j in range(nc)] for _ in range(nr)]
        yield np.array(low, dtype=np.int64)


def test_modp_rank_matches_exact_on_generic_input():
    rng = random.Random(7)
    p = 2**31 - 1
    for _ in range(25):
        nr, nc = rng.randint(1, 8), rng.randint(1, 8)
        m = rand_int_matrix(rng, nr, nc)
        A = np.array([[x % p for x in r] for r in m], dtype=np.int64)
        rank, _, _ = modp_rref(A, p)
        assert rank == fraction_rank(m)
    # the whole RREF is the generic field RREF over F_q; past 2^31 the
    # residues leave int64, whose products of two would overflow silently
    for q in (7, 10007, p, 2**61 - 1):
        F = prime_field(q)
        for A in rand_modp_matrices(rng, q):
            rank, pivots, R = modp_rref(A, q)
            assert (rank, pivots, R.tolist()) == rref_in_field(A.tolist(), F)
            assert modp_rref(A, q, rank_only=True)[:2] == (rank, pivots)


def _rare_branch_matrices():
    """(name, matrix, p) for the elimination's rare branches: zero diagonal
    entries whose pivot lies in a deep row, all-zero first, middle and last
    columns, a column-major layout, degenerate shapes, p = 2, and every
    entry p - 1 at the largest int64 prime, which makes the largest
    intermediate values."""
    big = 2**31 - 1
    deep = np.zeros((6, 5), dtype=np.int64)
    deep[5, 0] = deep[4, 1] = deep[3, 2] = 3
    deep[0, 3:] = [1, 2]
    deep[5, 4] = 5
    yield "deep pivots", deep, 7
    rng = random.Random(41)
    dense = np.array([[rng.randrange(1, 101) for _ in range(7)] for _ in range(6)])
    for cols in ([0], [3], [6], [0, 3, 6]):
        A = dense.copy()
        A[:, cols] = 0
        yield f"zero columns {cols}", A, 101
    # a framed matrix is a column selection, laid out column-major
    yield "column-major", np.asfortranarray(dense), 101
    for shape in ((0, 4), (4, 0), (1, 4), (4, 1), (0, 0)):
        yield f"shape {shape}", np.array(rand_int_matrix(rng, *shape, 0, 6)).reshape(shape), 7
    yield "p = 2", np.array(rand_int_matrix(rng, 7, 6, 0, 1)), 2
    yield "p = 2, singular", np.array([[1, 1, 0], [1, 1, 0], [0, 0, 1]]), 2
    yield "all p - 1", np.full((5, 6), big - 1), big
    ones = np.full((6, 6), big - 1)
    ones[np.diag_indices(6)] = big - 2
    yield "p - 1 off the diagonal", ones, big


def test_modp_rref_rare_branches_match_the_field_oracle():
    # nonzero diagonal entries skip the pivot search, whole rows are
    # cleared in place, and residues are reduced with floor division; the
    # RREF is unique, so the generic field engine must agree entry by entry
    for name, A, p in _rare_branch_matrices():
        before = A.copy()
        rank, pivots, R = modp_rref(A, p)
        assert (rank, pivots, R.tolist()) == rref_in_field(A.tolist(), prime_field(p)), name
        assert R.dtype == np.int64 and ((0 <= R) & (R < p)).all(), name
        assert modp_rref(A, p, rank_only=True)[:2] == (rank, pivots), name
        assert (A == before).all(), name


def _reduction_inputs():
    """(name, matrix, p) whose entries need reducing before elimination:
    negative int64 entries, entries near +-2^62, and Python ints of 2^63
    and more, which an int64 cast would overflow, in an object array."""
    rng = random.Random(43)
    yield "negative", np.array(rand_int_matrix(rng, 6, 7, -10**6, -1)), 101
    yield "mixed signs", np.array(rand_int_matrix(rng, 7, 5, -10**9, 10**9)), 2**31 - 1
    for p in (7, 2147483629):
        near = [[s * (2**62 - rng.randrange(1000)) for s in rng.choices((1, -1), k=6)]
                for _ in range(5)]
        yield f"near +-2^62 mod {p}", np.array(near, dtype=np.int64), p
    huge = [[rng.choice((1, -1)) * (2**63 + rng.randrange(2**70)) for _ in range(5)]
            for _ in range(6)]
    yield "object past 2^63", np.array(huge, dtype=object), 1000003


def test_modp_rref_reduces_any_integer_input():
    # the input is reduced on a copy, by floor division for int64 and by %
    # before the int64 cast for Python ints, and the caller's matrix is kept
    for name, A, p in _reduction_inputs():
        before = A.copy()
        rank, pivots, R = modp_rref(A, p)
        assert (rank, pivots, R.tolist()) == rref_in_field(A.tolist(), prime_field(p)), name
        assert R.dtype == np.int64 and ((0 <= R) & (R < p)).all(), name
        assert modp_rref(A, p, rank_only=True)[:2] == (rank, pivots), name
        assert A.dtype == before.dtype and (A == before).all(), name


def test_modp_rref_on_a_framed_condition_matrix():
    # the matrix search eliminates at alpha - 1 for nine general quintuple
    # points, about 90 x 75: the frame's rows leave full column rank
    scheme = FatPointScheme.uniform(general(9, seed=0), 5)
    d = alpha(scheme) - 1
    p = strategy_primes(MultiPrime(2))[0]
    covered, A, frame = linsys._framed(linsys._imposed(scheme, d, p), d, p)
    assert frame is not None and A.shape[0] >= 85 and A.shape[1] >= 70
    rank, pivots, R = modp_rref(A, p)
    assert (rank, pivots, R.tolist()) == rref_in_field(A.tolist(), prime_field(p))
    assert modp_rref(A, p, rank_only=True)[:2] == (rank, pivots)
    assert covered + rank == comb(d + 2, 2)


def test_modp_rank_is_only_a_lower_bound():
    # rank drops mod 2 but not over the rationals
    m = [[2, 0], [0, 2]]
    A2 = np.array(m, dtype=np.int64) % 2
    rank2, _, _ = modp_rref(A2, 2)
    assert rank2 == 0
    assert fraction_rank(m) == 2


def test_modp_nullspace_annihilates():
    rng = random.Random(11)
    p = 10007
    for _ in range(25):
        nr, nc = rng.randint(1, 6), rng.randint(2, 8)
        m = rand_int_matrix(rng, nr, nc)
        A = np.array([[x % p for x in r] for r in m], dtype=np.int64)
        for v in modp_nullspace(A, p):
            w = np.array(v, dtype=np.int64)
            assert (A @ w % p == 0).all()


def test_kernel_readers_agree_across_engines():
    # Bareiss back-substitution, the RREF over Q and the RREF mod p give
    # the same kernel up to scaling (mod p: when no pivot is lost)
    rng = random.Random(5)
    p = 10007
    for _ in range(25):
        nr, nc = rng.randint(0, 5), rng.randint(1, 7)
        m = rand_int_matrix(rng, nr, nc, -3, 3)
        exact = rational_nullspace(m, nc)
        over_q = nullspace_in_field(m, QQ, nc)
        assert len(exact) == len(over_q)
        for u, v in zip(exact, over_q):
            pivot = next(x for x in u if x)
            scale = next(x for x in v if x) / pivot
            assert tuple(x * scale for x in u) == v
        A = np.array([[x % p for x in r] for r in m], dtype=np.int64).reshape(nr, nc)
        mod = modp_nullspace(A, p)
        if len(mod) == len(over_q):
            reduced = [tuple(x.numerator * pow(x.denominator, -1, p) % p for x in v)
                       for v in over_q]
            assert mod == reduced


def _fraction_matrix(rng, nr, nc):
    """Mixed denominators, a zero row and a zero column, and rows that are
    rational combinations of earlier ones, so the rank stops growing
    partway down."""
    m = [[Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(nc)]
         for _ in range(nr)]
    for i in range(2, nr):
        if rng.random() < 0.5:
            s, t = (Fraction(rng.randint(-5, 5), rng.randint(1, 7)) for _ in range(2))
            m[i] = [s * x + t * y for x, y in zip(m[rng.randrange(i)], m[rng.randrange(i)])]
    if nr > 1:
        m[rng.randrange(nr)] = [Fraction(0)] * nc
    if nc > 1:
        zero = rng.randrange(nc)
        m = [[0 if j == zero else x for j, x in enumerate(r)] for r in m]
    return m


def _q_cases():
    """(nr, nc, zero, integer, fraction) matrices of 64 shapes for the
    exact RREF: all zero, small integers, and ``_fraction_matrix``."""
    rng = random.Random(13)
    shapes = [(0, 1), (0, 4), (3, 3), (4, 2)]
    shapes += [(rng.randint(1, 6), rng.randint(1, 7)) for _ in range(30)]
    shapes += [(rng.randint(3, 8), rng.randint(2, 8)) for _ in range(30)]
    for nr, nc in shapes:
        yield (nr, nc, [[0] * nc for _ in range(nr)], rand_int_matrix(rng, nr, nc, -4, 4),
               _fraction_matrix(rng, nr, nc))


def test_rref_over_q_is_exact_and_matches_the_field_oracle():
    # _rref_over_q eliminates fraction-free on integer rows: its rows are
    # ints, and divided by their pivots they are the RREF; a float would
    # mean that a true division of ints slipped in
    deficient = 0
    for nr, nc, zero, integer, fraction in _q_cases():
        for m, dtypes in ((zero, (np.int64, object)), (integer, (np.int64, object)),
                          (fraction, (object,))):
            want = rref_in_field(m, QQ)
            kernel = nullspace_in_field(m, QQ, nc)
            for dtype in dtypes:
                A = np.array(m, dtype=dtype).reshape(nr, nc)
                pivots, rows = linsys._rref_over_q(A)
                R = [[Fraction(x, row[c]) for x in row] for row, c in zip(rows, pivots)]
                assert (len(pivots), pivots, R + rows[len(pivots):]) == want
                assert all(type(x) is int for r in rows for x in r)
                got = modp_nullspace(A, None)
                assert got == kernel
                entries = [x for v in got for x in v]
                assert all(type(x) in (int, Fraction) for x in entries)
            deficient += 0 < want[0] < min(nr, nc)
    assert deficient >= 20


def test_rref_over_q_pivot_rows_carry_the_last_pivot():
    # fraction-free Gauss-Jordan: after the last step every pivot row holds
    # the same pivot D at its pivot column and zeros at the other pivot
    # columns, and the rows past the rank are zero
    for nr, nc, zero, integer, fraction in _q_cases():
        for m in (zero, integer, fraction):
            pivots, rows = linsys._rref_over_q(np.array(m, dtype=object).reshape(nr, nc))
            if not pivots:
                continue
            D = rows[len(pivots) - 1][pivots[-1]]
            assert D != 0
            for i, row in enumerate(rows[:len(pivots)]):
                assert [row[c] for c in pivots] == [D if j == i else 0 for j in range(len(pivots))]
            assert not any(x for row in rows[len(pivots):] for x in row)


def test_modp_nullspace_over_q_equals_the_field_oracle():
    # entry by entry and by type: the free columns hold the ints 1 and 0,
    # the pivot columns Fractions
    cases = [(nr, nc, m) for nr, nc, _, _, m in _q_cases()]
    assert len(cases) == 64
    cases += [(0, 3, []), (3, 4, [[0] * 4] * 3),
              (3, 3, [[Fraction(1, 2), 0, 1], [0, 0, 0], [Fraction(-3, 4), 0, 2]])]
    for nr, nc, m in cases:
        got = modp_nullspace(np.array(m, dtype=object).reshape(nr, nc), None)
        want = nullspace_in_field(m, QQ, nc)
        pivots = rref_in_field(m, QQ)[1]
        free = [c for c in range(nc) if c not in pivots]
        assert len(got) == len(want) == len(free)
        for f, u, v in zip(free, got, want):
            assert u == v
            for j, x in enumerate(u):
                if j in pivots:
                    assert type(x) is Fraction
                else:
                    assert type(x) is int and x == (j == f)


# ---------------------------------------------------------------------------
# schemes and condition matrices

def test_scheme_validation():
    with pytest.raises(ValueError):
        FatPointScheme((TRIANGLE[0], TRIANGLE[0]), (1, 1))
    with pytest.raises(ValueError):
        FatPointScheme(TRIANGLE, (1, 1))
    with pytest.raises(ValueError):
        FatPointScheme(TRIANGLE, (1, -1, 1))
    with pytest.raises(ValueError, match="at least one point"):
        FatPointScheme((), ())
    for count in (expected_dim, system_dim):
        with pytest.raises(ValueError, match="degree must be non-negative"):
            count(FatPointScheme(TRIANGLE, (1, 1, 1)), -1)


def test_expected_dim_frozen_examples():
    six_double = FatPointScheme.uniform(conic_points(6), 2)
    assert expected_dim(six_double, 4) == 15 - 18 == -3

    sixteen = FatPointScheme.uniform(
        tuple(point(QQ, i, i * i + 1, 1) for i in range(16)), 1
    )
    assert expected_dim(sixteen, 5) == 21 - 16 == 5

    pts = tuple(point(QQ, i, 2 * i + 3, 1) for i in range(21))
    mixed = FatPointScheme(pts, (3,) * 12 + (2,) * 9)
    assert expected_dim(mixed, 9) == 55 - 72 - 27 == -44


@pytest.mark.parametrize("field", [QQ, prime_field(31)], ids=["Q", "F31"])
def test_expected_dim_reads_the_condition_count_of_every_build(field):
    # a scheme counts its conditions once, when it is built: directly, as a
    # uniform scheme, or from another scheme's checked points
    pts = tuple(point(field, i, i * i + 1, 1) for i in range(4))
    simple = FatPointScheme.uniform(pts, 1)
    for mults in ((0, 0, 0, 3), (1, 2, 0, 4), (2, 2, 2, 2), (0, 5, 0, 0), (0, 0, 0, 0)):
        built = (FatPointScheme(pts, mults), simple._with_multiplicities(mults),
                 FatPointScheme(list(pts), list(mults)))
        if len(set(mults)) == 1:
            built += (FatPointScheme.uniform(pts, mults[0]),)
        for scheme in built:
            assert scheme == built[0]
            for d in range(8):
                assert expected_dim(scheme, d) == comb(d + 2, 2) - sum(
                    comb(m + 1, 2) for m in mults)


def test_condition_matrix_single_simple_point():
    P = point(QQ, 2, 3, 1)
    mat = build_condition_matrix(FatPointScheme((P,), (1,)), 1)
    assert mat.shape == (1, 3)
    assert tuple(mat[0]) == P.integer_coords()


def test_condition_matrix_shapes():
    six = FatPointScheme.uniform(conic_points(6), 2)
    assert build_condition_matrix(six, 4).shape == (18, 15)


def test_multiplicity_above_degree_leaves_only_zero():
    # a nonzero degree-d form has order <= d everywhere; the order-(m-1)
    # partials of a degree d < m-1 form all vanish, so m is capped at d+1
    cases = ((FatPointScheme((TRIANGLE[2],), (2,)), 0, 1),
             (FatPointScheme(TRIANGLE[:2], (3, 1)), 1, 3 + 1),
             (FatPointScheme((point(prime_field(31), 1, 2, 3),), (5,)), 2, 6))
    for scheme, d, nrows in cases:
        assert len(build_condition_matrix(scheme, d)) == nrows
        for strategy in (ExactRational(), MultiPrime(2)):
            assert system_dim(scheme, d, strategy=strategy).actual_dim == 0
        assert kernel_basis(scheme, d, strategy=SinglePrime()) == []


def test_double_point_corank_exhaustive_over_F3():
    # every point of P^2(F_3): conics singular there form a corank-3 space
    F = prime_field(3)
    reps = [(a, b, 1) for a in range(3) for b in range(3)]
    reps += [(a, 1, 0) for a in range(3)] + [(1, 0, 0)]
    assert len(reps) == 13
    for c in reps:
        P = point(F, *c)
        rep = system_dim(FatPointScheme((P,), (2,)), 2)
        assert (rep.nrows, rep.ncols, rep.rank) == (3, 6, 3)
        assert rep.actual_dim == 3
        assert rep.actual_dim == enumeration_dimension([P], [2], 2, sample_checks=8)


def test_zero_multiplicity_contributes_no_rows():
    scheme = FatPointScheme(TRIANGLE, (2, 0, 1))
    assert len(build_condition_matrix(scheme, 3)) == comb(3, 2) + 1


def test_characteristic_guard():
    F = prime_field(3)
    P = point(F, 1, 2, 1)
    with pytest.raises(CharacteristicTooSmallError):
        build_condition_matrix(FatPointScheme((P,), (2,)), 3)
    # simple points are fine at any characteristic
    build_condition_matrix(FatPointScheme((P,), (1,)), 3)


def test_alpha_search_refuses_what_system_dim_refuses():
    # the first degree has a positive dimension count, so only the shared
    # refusal checks stop a decided search
    P = point(prime_field(2305843009213693951), 0, 0, 1)
    with pytest.raises(linsys.PrimeTooLargeError):
        linsys.alpha_search(FatPointScheme.uniform([P], 1))
    Q = point(prime_field(5), 0, 0, 1)
    with pytest.raises(CharacteristicTooSmallError):
        linsys.alpha_search(FatPointScheme.uniform([Q], 5))


def test_alpha_search_refuses_only_where_a_climb_would():
    # quadruple points at the triangle's vertices: alpha = 6 (x^2 y^2 z^2),
    # and the first degree with a positive count is 7
    def triangle(p):
        return FatPointScheme.uniform(
            [point(prime_field(p), *v) for v in ((1, 0, 0), (0, 1, 0), (0, 0, 1))], 4)

    # F_7 refuses degree 7, above alpha, so the bracket stops below it
    av = linsys.alpha_search(triangle(7))
    assert (av.value, av.certification) == (6, "SINGLE_PRIME")
    # F_5 refuses degree 5, and degree 4 is empty
    with pytest.raises(CharacteristicTooSmallError):
        linsys.alpha_search(triangle(5))


def test_modular_matrix_matches_exact_reduction():
    rng = random.Random(13)
    p = 1000003
    pts = tuple(point(QQ, rng.randint(-50, 50), rng.randint(-50, 50), 1) for _ in range(4))
    scheme = FatPointScheme(pts, (3, 2, 1, 2))
    exact = build_condition_matrix(scheme, 5)
    modular = condition_matrix_mod_p(scheme, 5, p)
    assert modular.shape == exact.shape
    for i, row in enumerate(exact):
        assert [x % p for x in row] == list(modular[i])


def _formula_cases():
    """(name, scheme, d, p) for the modular and exact condition matrices."""
    rng = random.Random(17)
    pts = tuple(point(QQ, rng.randint(-40, 40), rng.randint(-40, 40), rng.randint(1, 9))
                for _ in range(5))
    for d in (0, 1, 3, 5):
        # m = 7 is capped at d + 1, and m = 0 imposes nothing
        yield f"mixed d={d}", FatPointScheme(pts, (3, 0, 1, 7, 2)), d, 1000003
    yield "p = 2^31 - 1", FatPointScheme(pts, (4, 4, 2, 1, 3)), 6, 2**31 - 1
    yield "frame alone", FatPointScheme(TRIANGLE + (point(QQ, 1, 1, 1),), (2, 2, 2, 0)), 3, 101
    for p, m, d in ((2, 1, 3), (3, 1, 4), (13, 3, 7)):
        fld = prime_field(p)
        pts_p = [point(fld, *c) for c in
                 ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 1, 0), (2, 5, 1))]
        yield f"F_{p}", FatPointScheme.uniform(pts_p, m), d, p


def _rows_by_formula(scheme, d):
    """The condition rows entry by entry in Python ints, in point order:
    prod_c perm(mu_c, beta_c) P_c^(mu_c - beta_c) with m capped at d + 1."""
    return [[prod(perm(e, b) * c ** max(e - b, 0) for c, e, b in zip(P.integer_coords(), mu, beta))
             for mu in monomial_basis(d)]
            for P, m in zip(scheme.points, scheme.multiplicities) if m
            for beta in monomial_basis(min(m, d + 1) - 1)]


def test_one_formula_gives_both_fields_condition_matrices():
    # the exact rows are the formula's Python ints, and the int64 residue
    # rows mod p are those reduced mod p, on every branch of the tables' keys
    for name, scheme, d, p in _formula_cases():
        exact = build_condition_matrix(scheme, d)
        modular = condition_matrix_mod_p(scheme, d, p)
        want = _rows_by_formula(scheme, d)
        assert [[int(x) for x in row] for row in exact] == [
            row if scheme.field == QQ else [x % p for x in row] for row in want], name
        assert modular.dtype == np.int64 and modular.shape == exact.shape, name
        assert modular.tolist() == [[int(x) % p for x in row] for row in exact], name


def test_a_frame_with_no_other_conditions_leaves_an_empty_matrix():
    # the fourth point has multiplicity 0, so the frame's moved rows are none
    scheme = FatPointScheme(TRIANGLE + (point(QQ, 1, 1, 1),), (2, 2, 2, 0))
    for p in (None, 101):
        covered, R, frame = linsys._framed(linsys._imposed(scheme, 3, p), 3, p)
        assert frame is not None and covered == 9 and R.shape[0] == 0
        assert linsys._derivative_rows([], 3, p).shape == (0, comb(5, 2))
        assert linsys._rank_mod_p(scheme, 3, p) == (9, 9)


def test_condition_matrices_never_share_the_kept_tables():
    # writing into a returned matrix must not reach the tables kept per
    # (d, m, p): the next build of the same system is unchanged
    for name, scheme, d, p in _formula_cases():
        for build in (lambda: condition_matrix_mod_p(scheme, d, p),
                      lambda: build_condition_matrix(scheme, d)):
            first = build()
            want = first.copy()
            first += 1
            assert (build() == want).all(), name


def _kept_column_cases():
    """(name, imposed, d, p, caps) over random schemes with unequal
    multiplicities, among them caps of -1 (a frame vertex of multiplicity
    d + 1, which keeps no column) and no imposed rows at all."""
    rng = random.Random(53)
    for case in range(24):
        d = rng.randint(0, 7)
        pts = [(rng.randint(-30, 30), rng.randint(-30, 30), rng.randint(-3, 9))
               for _ in range(rng.randint(0, 5))]
        imposed = [(i, P, rng.randint(1, d + 1)) for i, P in enumerate(pts) if any(P)]
        caps = tuple(rng.randint(-1, d) for _ in range(3))
        for p in (101, 2147483629, None):
            yield f"case {case} p={p}", imposed, d, p, caps
    yield "capped vertex", [(0, (2, 3, 5), 2)], 4, 101, (-1, 2, 3)


def test_kept_column_build_equals_the_masked_full_build():
    # oracle: the full build with the mask _framed used to make per call
    for name, imposed, d, p, caps in _kept_column_cases():
        off = (np.array(monomial_basis(d)) <= list(caps)).all(axis=1)
        want = linsys._derivative_rows(imposed, d, p)[:, off]
        got = linsys._derivative_rows(imposed, d, p, caps)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tolist() == want.tolist(), name
        assert (linsys._off(d, caps) == off).all(), name


def _old_framed(imposed, d, p):
    """``_framed``'s frame choice and its full build cut down to the columns
    off U afterwards, the way it was computed before the kept-column build."""
    covered, R, frame = linsys._framed(imposed, d, p)
    if frame is None:
        return covered, R, frame
    (_, a, _), (_, b, _), (_, c, _) = frame
    rest = [u for u in sorted(imposed, key=lambda u: -u[2]) if u not in frame]
    moved = [(i, (det3(X, b, c), det3(a, X, c), det3(a, b, X)), m)
             for i, X, m in rest]
    off = (np.array(monomial_basis(d)) <= [d - m for _, _, m in frame]).all(axis=1)
    return int((~off).sum()), linsys._derivative_rows(moved, d, p)[:, off], frame


@pytest.mark.parametrize("p", [101, 2147483629, None])
def test_framed_ranks_match_the_full_build_and_the_full_matrix(p):
    rng = random.Random(59)
    schemes = [
        # the frame vertices have m = d + 1 at d = 3: U is every monomial
        (FatPointScheme(TRIANGLE + (point(QQ, 1, 1, 1), point(QQ, 2, 3, 1)),
                        (4, 5, 4, 1, 2)), 3),
        # a frame with no moved rows
        (FatPointScheme(TRIANGLE + (point(QQ, 1, 1, 1),), (2, 3, 2, 0)), 4),
    ]
    for _ in range(10):
        pts = general(rng.randint(3, 8), seed=rng.randrange(1000), height=40)
        mults = tuple(rng.randint(0, 4) for _ in pts)
        schemes.append((FatPointScheme(pts, mults), rng.randint(1, 9)))
    for scheme, d in schemes:
        if max(scheme.multiplicities) == 0:
            continue
        imposed = linsys._imposed(scheme, d, p)
        covered, R, frame = linsys._framed(imposed, d, p)
        old_covered, old_R, _ = _old_framed(imposed, d, p)
        assert (covered, R.tolist()) == (old_covered, old_R.tolist())
        assert covered + R.shape[1] == comb(d + 2, 2) or frame is None
        full = build_condition_matrix(scheme, d)
        rank = (bareiss_echelon(full.tolist())[0] if p is None
                else modp_rref(condition_matrix_mod_p(scheme, d, p), p)[0])
        assert linsys._rank_mod_p(scheme, d, p) == (rank, full.shape[0])


def test_framed_ranks_build_only_the_columns_they_eliminate(monkeypatch):
    # every entry a search's framed builds make is eliminated: none is
    # built and then dropped
    counts = {"built": 0, "eliminated": 0}
    build, eliminate = linsys._derivative_rows, linsys.modp_rref

    def counted_build(*args):
        R = build(*args)
        counts["built"] += R.size
        return R

    def counted_elimination(A, p, **kwargs):
        counts["eliminated"] += A.size
        return eliminate(A, p, **kwargs)

    monkeypatch.setattr(linsys, "_derivative_rows", counted_build)
    monkeypatch.setattr(linsys, "modp_rref", counted_elimination)
    alpha_sequence(general(8, seed=2), 4)
    assert counts["eliminated"] > 0 and counts["built"] == counts["eliminated"]


def _bareiss_cost(A):
    return A.shape[0] * A.shape[1] * max(map(abs, A.flat), default=0).bit_length()


def _built_frame_choice(imposed, d):
    """Oracle: whether the exact frame is taken by the rule ``_framed`` had
    before it read its choice off coordinates, which built the unframed and
    the framed matrix and kept the one of lower rows x columns x largest
    entry bit length."""
    order = sorted(imposed, key=lambda u: -u[2])
    for k in range(2, len(order)):
        if det3(order[0][1], order[1][1], order[k][1]):
            (_, a, _), (_, b, _), (_, c, _) = frame = (order[0], order[1], order[k])
            moved = [(i, (det3(X, b, c), det3(a, X, c), det3(a, b, X)), m)
                     for i, X, m in order[2:k] + order[k + 1:]]
            R = linsys._derivative_rows(moved, d, None, tuple(d - m for _, _, m in frame))
            return _bareiss_cost(R) < _bareiss_cost(linsys._derivative_rows(imposed, d, None))
    return False


def _random_rational_schemes(n):
    """(scheme, d): n seeded schemes of up to 9 points, integer or fractional
    coordinates (some at z = 0) of heights 5 to 10^4, m <= 6, m <= d <= 14."""
    rng = random.Random(97)
    for _ in range(n):
        height = rng.choice((5, 30, 999, 10**4))
        pts, r = [], rng.randint(1, 9)
        while len(pts) < r:
            if rng.random() < 0.5:
                c = (rng.randint(-height, height), rng.randint(-height, height),
                     rng.choice((0, 1, rng.randint(1, height))))
            else:
                c = (Fraction(rng.randint(-height, height), rng.randint(1, height)),
                     Fraction(rng.randint(-height, height), rng.randint(1, height)), 1)
            if any(c) and point(QQ, *c) not in pts:
                pts.append(point(QQ, *c))
        mults = [rng.randint(0, 6) for _ in pts]
        mults[0] = mults[0] or 1
        yield FatPointScheme(tuple(pts), tuple(mults)), rng.randint(max(mults), 14)


def _repro_pass():
    """``repro`` of every registry row, as ``fatpoints repro --all`` runs them."""
    registry = load_registry()
    for example_id in sorted(registry["examples"]):
        repro(example_id, registry)


def test_exact_frame_choice_is_read_off_coordinates_before_building(monkeypatch):
    # each rational _framed call builds one matrix, and takes the frame
    # exactly when the two-build oracle does: every such call of a repro
    # pass, and random schemes.  A repro pass makes 12 such calls: the eight
    # kernels at the product bound (ex-conic6 k = 2..6, ex-collinear5
    # k = 2, 3 and ex-3general k = 8) are spanned by products of earlier
    # kernels and build no matrix
    calls = []
    framed = linsys._framed
    monkeypatch.setattr(linsys, "_framed", lambda *args: calls.append(args) or framed(*args))
    _repro_pass()
    monkeypatch.undo()
    cases = [(imposed, d) for imposed, d, p in calls if p is None]
    assert len(cases) == 12
    cases += [(linsys._imposed(scheme, d, None), d)
              for scheme, d in _random_rational_schemes(300)]
    builds = []
    build = linsys._derivative_rows
    monkeypatch.setattr(linsys, "_derivative_rows",
                        lambda *args: builds.append(args) or build(*args))
    monkeypatch.setattr(linsys, "bareiss_echelon", None)  # no elimination runs
    taken = 0
    for imposed, d in cases:
        builds.clear()
        covered, R, frame = linsys._framed(imposed, d, None)
        assert len(builds) == 1
        want = _built_frame_choice(imposed, d)
        assert (frame is not None) == want, (imposed, d)
        taken += want
    assert min(taken, len(cases) - taken) > 30  # both sides are drawn
    # sixteen general double, triple and quadruple points stay unframed: the
    # adjugate would double the entry bits of a matrix that loses few rows
    nagata = general(16, 0)
    for k, d, shape in ((2, 8, (48, 45)), (3, 13, (96, 105)), (4, 17, (160, 171))):
        imposed = linsys._imposed(FatPointScheme.uniform(nagata, k), d, None)
        builds.clear()
        covered, R, frame = linsys._framed(imposed, d, None)
        assert (covered, frame, R.shape, len(builds)) == (0, None, shape, 1)
        assert not _built_frame_choice(imposed, d)


def test_table_caches_are_read_only_and_hold_a_repro_pass():
    mask = linsys._off(5, (2, 4, -1))
    with pytest.raises(ValueError):
        mask[0] = not mask[0]
    F, E = linsys._tables(5, 2, 101, (2, 4, 3))
    with pytest.raises(ValueError):
        F[0, 0] = 1
    # a second pass of repro --all in one process builds no table again:
    # a pass's keys, caps included, fit the bounded cache
    linsys._tables.cache_clear()
    _repro_pass()
    first = linsys._tables.cache_info()
    assert first.currsize < first.maxsize
    _repro_pass()
    second = linsys._tables.cache_info()
    assert second.misses == first.misses and second.hits > first.hits


def test_condition_rows_match_formal_derivatives():
    # independent oracle: differentiate each monomial as a form, evaluate
    # at the point and eliminate over Q with the generic field engine
    rng = random.Random(29)
    for _ in range(8):
        r = rng.randint(1, 4)
        pts = []
        while len(pts) < r:
            c = (rng.randint(-6, 6), rng.randint(-6, 6), rng.choice((0, 1, 1, 2)))
            if any(c) and point(QQ, *c) not in pts:
                pts.append(point(QQ, *c))
        mults = (rng.randint(1, 3),) + tuple(rng.randint(0, 3) for _ in range(r - 1))
        d = rng.randint(max(mults), max(mults) + 3)
        rows = []
        for P, m in zip(pts, mults):
            for beta in monomial_basis(m - 1) if m else ():
                row = []
                for mu in monomial_basis(d):
                    g = poly(QQ, d, {mu: 1})
                    for var, times in enumerate(beta):
                        for _ in range(times):
                            g = partial_derivative(g, var)
                    row.append(evaluate(g, P))
                rows.append(row)
        scheme = FatPointScheme(tuple(pts), mults)
        rep = system_dim(scheme, d, ExactRational())
        assert rref_in_field(rows, QQ)[0] == rep.rank


def test_exact_kernel_eliminates_once(monkeypatch):
    calls = {"bareiss_echelon": 0, "modp_rref": 0}
    for name in calls:
        def counting(*args, _name=name, _original=getattr(linsys, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(linsys, name, counting)
    # the tall rational matrix: one rank-only modp_rref picks its rows
    rational = FatPointScheme.uniform(conic_points(6), 2)
    rep = system_dim(rational, 4, ExactRational(), want_kernel=True)
    assert (rep.rank, len(rep.kernel)) == (14, 1)
    assert calls == {"bareiss_echelon": 1, "modp_rref": 1}
    modular = FatPointScheme.uniform(conic_points(6, prime_field(101)), 2)
    rep = system_dim(modular, 4, ExactRational(), want_kernel=True)
    assert (rep.rank, len(rep.kernel)) == (14, 1)
    assert calls == {"bareiss_echelon": 1, "modp_rref": 2}


# ---------------------------------------------------------------------------
# system dimensions

def test_five_conic_points_force_the_conic():
    pts = conic_points(5)
    rep = system_dim(FatPointScheme.uniform(pts, 1), 2, strategy=ExactRational())
    assert rep.actual_dim == 1
    # independent brute force over F_5
    F5 = prime_field(5)
    pts5 = conic_points(5, F5)
    assert enumeration_dimension(pts5, [1] * 5, 2) == 1
    rep5 = system_dim(FatPointScheme.uniform(pts5, 1), 2)
    assert rep5.actual_dim == 1


def test_three_double_points_kill_conics():
    rep = system_dim(FatPointScheme.uniform(TRIANGLE, 2), 2, strategy=ExactRational())
    assert rep.actual_dim == 0 and rep.rank == 6


def test_product_of_lines_degree_always_exists():
    rng = random.Random(19)
    for _ in range(15):
        r = rng.randint(1, 4)
        pts = []
        while len(pts) < r:
            q = point(QQ, rng.randint(-9, 9), rng.randint(-9, 9), 1)
            if q not in pts:
                pts.append(q)
        mults = tuple(rng.randint(0, 3) for _ in range(r))
        if not any(mults):
            continue
        scheme = FatPointScheme(tuple(pts), mults)
        d = sum(scheme.multiplicities)
        assert system_dim(scheme, d).actual_dim >= 1


def test_superabundance_non_negative_exact():
    rng = random.Random(23)
    for _ in range(30):
        r = rng.randint(1, 5)
        pts = []
        while len(pts) < r:
            q = point(QQ, rng.randint(-30, 30), rng.randint(-30, 30), 1)
            if q not in pts:
                pts.append(q)
        mults = tuple(rng.randint(1, 3) for _ in range(r))
        scheme = FatPointScheme(tuple(pts), mults)
        for d in range(1, 6):
            rep = system_dim(scheme, d, strategy=ExactRational())
            assert rep.superabundance >= 0
            assert rep.actual_dim >= max(rep.expected_dim, 0)


# ---------------------------------------------------------------------------
# alpha searches

def test_alpha_single_fat_point():
    P = (point(QQ, 2, 5, 1),)
    for k in range(1, 5):
        assert alpha(FatPointScheme(P, (k,))) == k


def test_alpha_collinear_uniform():
    pts = tuple(point(QQ, 0, i, 1) for i in range(3))
    for k in range(1, 5):
        assert alpha(FatPointScheme.uniform(pts, k), strategy=ExactRational()) == k


def test_alpha_three_general_double_points():
    assert alpha(FatPointScheme.uniform(TRIANGLE, 2)) == 3


def test_alpha_rejects_empty_multiplicities():
    with pytest.raises(ValueError):
        alpha(FatPointScheme(TRIANGLE, (0, 0, 0)))
    with pytest.raises(ValueError, match="k_max must be at least 1"):
        list(linsys.iter_alpha_values(TRIANGLE, 0))


def test_alpha_sequence_three_general_points():
    rep = alpha_sequence(TRIANGLE, 6)
    assert rep.alphas == (2, 3, 5, 6, 8, 9)
    assert rep.diffs == (1, 2, 1, 2, 1)
    # the report names its input, so two configurations give two artifacts
    assert rep.to_json_dict()["points"] == [("1", "0", "0"), ("0", "1", "0"), ("0", "0", "1")]


def test_alpha_sequence_six_conic_points():
    rep = alpha_sequence(conic_points(6), 5)
    assert rep.alphas == (2, 4, 6, 8, 10)


def test_alpha_sequence_checks_its_points_once():
    with pytest.raises(ValueError, match="pairwise distinct"):
        alpha_sequence(TRIANGLE + TRIANGLE[:1], 3)
    with pytest.raises(FieldMismatchError):
        alpha_sequence(TRIANGLE + (point(prime_field(31), 1, 2, 3),), 3)
    # the unchecked schemes of its steps equal the checked ones
    unchecked = FatPointScheme.uniform(TRIANGLE, 1)._with_multiplicities((3,) * 3)
    assert unchecked == FatPointScheme.uniform(TRIANGLE, 3)
    assert hash(unchecked) == hash(FatPointScheme.uniform(TRIANGLE, 3))


def test_alpha_report_requires_strict_growth():
    with pytest.raises(ValueError):
        AlphaReport((2, 2), (0,), ({}, {}), (), "rational")


def test_alpha_diff_examples():
    pts = tuple(point(QQ, 0, i, 1) for i in range(4))
    for k in range(2, 5):
        assert alpha_diff(pts, (k,) * 4, (k - 1,) * 4) == 1
    with pytest.raises(ValueError):
        alpha_diff(TRIANGLE, (1, 1, 1), (1, 1, 1))
    with pytest.raises(ValueError):
        alpha_diff(TRIANGLE, (1, 2, 1), (2, 1, 1))
    with pytest.raises(ValueError, match="match the point count"):
        alpha_diff(TRIANGLE, (1, 1), (0, 0))
    with pytest.raises(ValueError, match="non-negative"):
        alpha_diff(TRIANGLE, (1, 1, 1), (0, 0, -1))


def test_alpha_diff_zero_lower_vector():
    # three non-collinear points need a conic, and the lower side is degree 0
    assert alpha_diff(TRIANGLE, (1, 1, 1), (0, 0, 0)) == 2


def test_alpha_diff_inhomogeneous():
    # residual vector of a triple triangle step
    assert alpha_diff(TRIANGLE, (2, 2, 1), (1, 1, 0)) >= 1


# ---------------------------------------------------------------------------
# kernels

def test_kernel_unique_conic():
    pts = conic_points(5)
    basis = kernel_basis(FatPointScheme.uniform(pts, 1), 2)
    assert len(basis) == 1
    want = poly(QQ, 2, {(0, 2, 0): 1, (1, 0, 1): -1})  # y^2 - xz
    got = basis[0]
    ratio = None
    for m, c in want.terms:
        assert coeff(got, m) != 0
        r = coeff(got, m) / c
        ratio = ratio or r
        assert r == ratio
    assert len(got.terms) == len(want.terms)


def test_kernel_triple_triangle():
    basis = kernel_basis(FatPointScheme.uniform(TRIANGLE, 2), 3)
    assert len(basis) == 1
    product = (
        linear_form(QQ, (0, 0, 1)) * linear_form(QQ, (0, 1, 0)) * linear_form(QQ, (1, 0, 0))
    )
    got = basis[0]
    assert got.terms in (product.terms, tuple((m, -c) for m, c in product.terms))


def test_kernel_empty_system():
    assert kernel_basis(FatPointScheme.uniform(TRIANGLE, 2), 2) == []


def test_kernel_rejects_multiprime_for_rational_scheme():
    with pytest.raises(ValueError):
        kernel_basis(FatPointScheme.uniform(TRIANGLE, 1), 1, strategy=MultiPrime(2))


def test_kernel_single_prime_acceptance_reduces_scheme():
    # explicit acceptance: the rational scheme is reduced mod the prime and
    # the basis lives over that prime field
    basis = kernel_basis(FatPointScheme.uniform(conic_points(5), 1), 2,
                         strategy=SinglePrime())
    assert len(basis) == 1
    assert basis[0].field.p == strategy_primes(SinglePrime())[0]


def test_kernel_single_prime_refuses_merged_points():
    p = strategy_primes(SinglePrime())[0]
    scheme = FatPointScheme((point(QQ, 0, 0, 1), point(QQ, p, 0, 1)), (1, 1))
    with pytest.raises(ReductionError, match=f"reduction mod {p} merges"):
        kernel_basis(scheme, 1, strategy=SinglePrime())


def test_kernel_over_prime_field():
    F = prime_field(31)
    pts = conic_points(5, F)
    basis = kernel_basis(FatPointScheme.uniform(pts, 1), 2, strategy=SinglePrime())
    assert len(basis) == 1
    for P in pts:
        assert order_of_vanishing(basis[0], P) >= 1


@pytest.mark.parametrize("field", [QQ, prime_field(7)], ids=repr)
def test_existence_certificate_refuses_a_bad_kernel_vector(monkeypatch, field):
    # x^2 added to a conic singular at (0 : 1 : 1) keeps that double point
    # and loses the simple one, which the check must then name.
    simple = point(field, 1, 2, 3)
    scheme = FatPointScheme((point(field, 0, 1, 1), simple), (2, 1))
    name = "rational_nullspace" if field == QQ else "modp_nullspace"
    nullspace = getattr(linsys, name)

    def perturbed(*args):
        first, *rest = nullspace(*args)
        return [(first[0] + 1, *first[1:]), *rest]

    monkeypatch.setattr(linsys, name, perturbed)
    message = f"multiplicity-1 check at {simple!r}"
    with pytest.raises(CertificationError, match=re.escape(message)):
        system_dim(scheme, 2, want_kernel=True)
    with pytest.raises(CertificationError, match=re.escape(message)):
        kernel_basis(scheme, 2)


# ---------------------------------------------------------------------------
# strategies and certification

def test_parse_strategy():
    assert parse_strategy("exact") == ExactRational()
    assert parse_strategy("prime") == SinglePrime()
    assert parse_strategy("multiprime:3") == MultiPrime(3)
    assert parse_strategy("multiprime") == MultiPrime(2)
    assert parse_strategy(" Exact ") == ExactRational()
    with pytest.raises(ValueError):
        parse_strategy("float")
    with pytest.raises(ValueError, match="at least one prime"):
        parse_strategy("multiprime:0")


def test_strategies_carry_their_labels_outside_their_fields():
    # a label is data but no dataclass field, so equality, repr and the
    # cache's strategy tag see only the seed and the prime count
    strategies = (ExactRational(), SinglePrime(4), MultiPrime(3))
    assert [s.label for s in strategies] == ["EXACT_RATIONAL", "SINGLE_PRIME",
                                             "MULTI_PRIME(3)"]
    assert [exact_label(QQ), exact_label(prime_field(7))] == [ExactRational.label,
                                                              SinglePrime.label]
    assert list(map(repr, strategies)) == ["ExactRational()", "SinglePrime(seed=4)",
                                           "MultiPrime(count=3, seed=0)"]
    assert list(map(_strategy_tag, strategies)) == [
        "ExactRational", "SinglePrime:seed=4", "MultiPrime:count=3:seed=0"]
    assert SinglePrime(4) == SinglePrime(4) != SinglePrime(5)


def test_strategy_primes_deterministic():
    a = strategy_primes(MultiPrime(3))
    b = strategy_primes(MultiPrime(3))
    assert a == b and len(set(a)) == 3
    assert all(q.bit_length() == 31 for q in a)


def test_strategies_agree_on_dimension():
    scheme = FatPointScheme.uniform(conic_points(6), 2)
    dims = {
        system_dim(scheme, 4, strategy=s).actual_dim
        for s in (ExactRational(), SinglePrime(), MultiPrime(2), MultiPrime(3))
    }
    assert dims == {1}


def test_single_prime_full_rank_matches_exact():
    # a full-rank modular verdict is an exact certificate; the exact
    # recomputation must agree
    rng = random.Random(29)
    checked = 0
    for i in range(20):
        r = rng.randint(1, 4)
        pts = []
        while len(pts) < r:
            q = point(QQ, rng.randint(-40, 40), rng.randint(-40, 40), 1)
            if q not in pts:
                pts.append(q)
        scheme = FatPointScheme(tuple(pts), tuple(rng.randint(1, 3) for _ in pts))
        for d in range(1, 5):
            modular = system_dim(scheme, d, strategy=SinglePrime())
            if modular.rank == min(modular.nrows, modular.ncols):
                exact = system_dim(scheme, d, strategy=ExactRational())
                assert exact.rank == modular.rank
                checked += 1
    assert checked >= 10


def test_certified_alpha_reports_certificates():
    av = linsys.alpha_search(FatPointScheme.uniform(conic_points(6), 2),
                             certify_existence=True)
    assert av.value == 4
    assert av.existence == "kernel"
    assert av.fully_certified

    av2 = linsys.alpha_search(FatPointScheme.uniform(TRIANGLE, 1),
                              certify_existence=True)
    assert av2.value == 2 and av2.existence == "expected_dim"


def test_prime_split_escalates_to_exact(monkeypatch):
    # five points on y = 0 and (0 : 7 : 1), which is (0 : 0 : 1) mod 7: mod 7
    # all six are collinear and the conic conditions lose a rank
    pts = tuple(point(QQ, x, 0, 1) for x in range(5)) + (point(QQ, 0, 7, 1),)
    scheme = FatPointScheme.uniform(pts, 1)
    assert modp_rref(condition_matrix_mod_p(scheme, 2, 7), 7)[0] == 3
    monkeypatch.setattr(linsys, "strategy_primes", lambda s: (2**31 - 1, 7))
    rep = system_dim(scheme, 2, MultiPrime(2))
    assert rep.certification == "EXACT_RATIONAL" and rep.primes == ()
    assert rep.rank == system_dim(scheme, 2, ExactRational()).rank == 4
    av = linsys.alpha_search(scheme, MultiPrime(2))
    assert av.certification == "EXACT_RATIONAL"
    assert av.value == linsys.alpha_search(scheme, ExactRational()).value == 2


def test_an_escalated_split_eliminates_the_first_prime_once(monkeypatch):
    # six double conic points at degree 3: the first prime's framed matrix
    # is 9 x 1 with full column rank, and modulo 3 (p <= d, so unframed) the
    # 18 x 10 matrix has rank 6.  The split's exact rank is the first
    # prime's full rank, read from that one elimination, with no Bareiss.
    monkeypatch.setattr(linsys, "strategy_primes", lambda s: strategy_primes(s)[:1] + (3,)
                        if s == MultiPrime(2) else strategy_primes(s))
    calls = []
    monkeypatch.setattr(linsys, "modp_rref",
                        lambda A, p, **kw: calls.append((A.shape, p)) or modp_rref(A, p, **kw))
    monkeypatch.setattr(linsys, "bareiss_echelon",
                        lambda rows: calls.append("bareiss") or bareiss_echelon(rows))
    report = system_dim(FatPointScheme.uniform(on_conic(6), 2), 3, MultiPrime(2))
    assert calls == [((9, 1), strategy_primes(MultiPrime(2))[0]), ((18, 10), 3)]
    assert dump_json(report.to_json_dict()) == (
        '{"actual_dim":0,"certification":"EXACT_RATIONAL","degree":3,'
        '"existence_certified":null,"expected_dim":-8,"kind":"linear_system_report",'
        '"ncols":10,"nrows":18,"primes":[],"rank":10,"schema":"fatpoints/1",'
        '"superabundance":0}\n')


def test_unlucky_first_prime_inside_the_bracket(monkeypatch):
    # (t, t^2 + 7 t^3, 1) lies on the conic yz = x^2 mod 7, while six such
    # points lie on no conic over Q
    pts = tuple(point(QQ, t, t * t + 7 * t**3, 1) for t in range(1, 7))
    scheme = FatPointScheme.uniform(pts, 1)
    monkeypatch.setattr(linsys, "strategy_primes", lambda s: (7, 2**31 - 1))
    av = linsys.alpha_search(scheme, MultiPrime(2))
    assert (av.value, av.existence, av.certification) == (3, "expected_dim",
                                                          "MULTI_PRIME(2)")
    # hi - 1 = 2 is deficient mod 7, degree 1 has full rank, and the report
    # at 2 escalates to the exact rank, which finds no conic
    probe2, probe1, (d, report), last = av.reports
    assert (probe2, probe1) == ((2, "deficient_mod_p"), (1, "full_rank_mod_p"))
    assert d == 2 and report.certification == "EXACT_RATIONAL"
    assert report.actual_dim == 0
    assert last == (3, "expected_dim")


def test_a_certified_recheck_that_finds_no_curve_moves_the_climb_on(monkeypatch):
    # the six points of test_unlucky_first_prime_inside_the_bracket under a
    # single unlucky prime: its deficient conic report is the only evidence,
    # so a certified search rechecks it exactly, finds no conic, and goes on
    pts = tuple(point(QQ, t, t * t + 7 * t**3, 1) for t in range(1, 7))
    monkeypatch.setattr(linsys, "strategy_primes", lambda s: (7,))
    av = linsys.alpha_search(FatPointScheme.uniform(pts, 1), SinglePrime(),
                             certify_existence=True)
    assert (av.value, av.existence, av.certification) == (3, "expected_dim", "SINGLE_PRIME")
    assert av.reports[:2] == ((2, "deficient_mod_p"), (1, "full_rank_mod_p"))
    (d1, modular), (d2, exact), last = av.reports[2:]
    assert (d1, modular.certification, modular.primes, modular.actual_dim) == (
        2, "SINGLE_PRIME", (7,), 1)
    assert modular.existence_certified is None
    assert (d2, exact.certification, exact.actual_dim) == (2, "EXACT_RATIONAL", 0)
    assert last == (3, "expected_dim")


def test_the_climb_probes_a_skipped_degree_and_finds_it_empty(monkeypatch):
    # mod 3 the cubes x^3, y^3, z^3 have vanishing partials, so every double
    # point system of degree 3 loses rank 3 there, while degree 4 keeps full
    # rank: the bisection ends at the spurious 3, whose prime split escalates
    # to the exact rank 10, and the climb probes 4, which it never bisected
    scheme = FatPointScheme.uniform(general(7, 0), 2)
    monkeypatch.setattr(linsys, "strategy_primes", lambda s: (3, 2**31 - 1))
    av = linsys.alpha_search(scheme, MultiPrime(2))
    assert av.value == alpha(scheme, ExactRational()) == 6
    assert (av.existence, av.certification) == ("expected_dim", "MULTI_PRIME(2)")
    labels = [(d, e if isinstance(e, str) else (e.certification, e.actual_dim))
              for d, e in av.reports]
    assert labels == [(5, "deficient_mod_p"), (3, "deficient_mod_p"), (2, "full_rank_mod_p"),
                      (3, ("EXACT_RATIONAL", 0)), (4, "full_rank_mod_p"),
                      (5, ("EXACT_RATIONAL", 0)), (6, "expected_dim")]


@pytest.mark.parametrize("r", range(4, 10))
def test_bracket_works_only_from_alpha_minus_one(monkeypatch, tmp_path, r):
    pts = general(r, seed=0)
    calls = []
    rank_mod_p = linsys._rank_mod_p

    def spy(scheme, d, p):
        calls.append((scheme.multiplicities[0], d, p))
        return rank_mod_p(scheme, d, p)

    monkeypatch.setattr(linsys, "_rank_mod_p", spy)
    alphas = alpha_sequence(pts, 5, MultiPrime(2)).alphas
    assert len(set(calls)) == len(calls)
    assert all(d >= alphas[k - 1] - 1 for k, d, _ in calls)

    cache = ResultCache(tmp_path)
    writes = []
    put = cache.put_report

    def put_spy(scheme, d, *rest):
        writes.append((scheme.multiplicities[0], d))
        put(scheme, d, *rest)

    cache.put_report = put_spy
    assert alpha_sequence(pts, 5, MultiPrime(2), cache=cache).alphas == alphas
    assert writes and all(d >= alphas[k - 1] - 1 for k, d in writes)
    files = sorted(tmp_path.iterdir())
    warm = ResultCache(tmp_path)
    assert alpha_sequence(pts, 5, MultiPrime(2), cache=warm).alphas == alphas
    assert (warm.hits, warm.misses) == (len(writes), 0)
    assert sorted(tmp_path.iterdir()) == files


SEARCH_CONFIGS = {"on_conic6": on_conic(6), "collinear6": collinear(6),
                  "general5": general(5, seed=0), "dual_hesse31": dual_hesse(31)}


def _cached_searches(scheme, strategy, root):
    """The search of ``scheme`` without a cache, cold into ``root`` and warm
    from it, and the warm cache."""
    plain = linsys.alpha_search(scheme, strategy)
    cold = linsys.alpha_search(scheme, strategy, cache=ResultCache(root))
    warm_cache = ResultCache(root)
    return plain, cold, linsys.alpha_search(scheme, strategy, cache=warm_cache), warm_cache


@pytest.mark.parametrize("strategy", [MultiPrime(2), SinglePrime(), ExactRational()],
                         ids=["multiprime", "prime", "exact"])
@pytest.mark.parametrize("name", sorted(SEARCH_CONFIGS))
def test_a_cache_leaves_the_search_trail_unchanged(tmp_path, strategy, name):
    for k in range(1, 5):
        scheme = FatPointScheme.uniform(SEARCH_CONFIGS[name], k)
        plain, cold, warm, warm_cache = _cached_searches(scheme, strategy, tmp_path)
        assert plain == cold == warm
        # a warm search reads one entry per probed degree
        probed = {d for d, entry in plain.reports if entry != "expected_dim"}
        assert (warm_cache.hits, warm_cache.misses) == (len(probed), 0)


@pytest.mark.parametrize("unlucky", [0, 1], ids=["first_prime", "second_prime"])
def test_a_cache_leaves_a_prime_split_trail_unchanged(monkeypatch, tmp_path, unlucky):
    # one prime loses a rank at every degree: the reports escalate to the
    # exact rank, and an unlucky first prime finds empty degrees deficient
    bad = strategy_primes(MultiPrime(2))[unlucky]
    rank_mod_p = linsys._rank_mod_p

    def split(scheme, d, p):
        rank, nrows = rank_mod_p(scheme, d, p)
        return (rank - 1 if p == bad else rank), nrows

    monkeypatch.setattr(linsys, "_rank_mod_p", split)
    exact = []
    for k in range(1, 4):
        scheme = FatPointScheme.uniform(on_conic(6), k)
        plain, cold, warm, _ = _cached_searches(scheme, MultiPrime(2), tmp_path)
        assert plain == cold == warm
        assert plain.value == alpha(scheme, ExactRational())
        exact += [e for _, e in plain.reports if not isinstance(e, str)]
    assert exact and all(e.certification == "EXACT_RATIONAL" for e in exact)
    assert any(e.actual_dim == 0 for e in exact) == (unlucky == 0)


def test_a_cold_cached_sequence_runs_the_second_prime_only_on_kernels(monkeypatch, tmp_path):
    first, second = strategy_primes(MultiPrime(2))
    ranks = {}
    rank_mod_p = linsys._rank_mod_p

    def spy(scheme, d, p):
        got = rank_mod_p(scheme, d, p)
        ranks[scheme, d, p] = got[0]
        return got

    monkeypatch.setattr(linsys, "_rank_mod_p", spy)
    for name, pts in SEARCH_CONFIGS.items():
        alpha_sequence(pts, 5, cache=ResultCache(tmp_path / name))
    seconds = [(scheme, d) for scheme, d, p in ranks if p == second]
    assert seconds
    assert all(ranks[scheme, d, first] < comb(d + 2, 2) for scheme, d in seconds)


def test_a_probe_entry_that_contradicts_its_key_is_corrupt(tmp_path):
    # degree 7 is hi - 1 for six general triple points, empty modulo the
    # first prime: its probe entry is that prime's report alone
    scheme = FatPointScheme.uniform(general(6, seed=3), 3)
    assert alpha(scheme, cache=ResultCache(tmp_path)) == 8
    victim = tmp_path / f"{cache_key(scheme, 7, MultiPrime(2), PROBE)}.json"
    data = json.loads(victim.read_text())
    assert (data["certification"], data["primes"], data["actual_dim"]) == (
        "SINGLE_PRIME", [strategy_primes(MultiPrime(2))[0]], 0)
    data["rank"] -= 1
    victim.write_text(dump_json(data))
    with pytest.raises(CacheCorruptionError, match="actual_dim is 0, not 1") as exc:
        alpha(scheme, cache=ResultCache(tmp_path))
    assert victim.stem in str(exc.value) and str(victim) in str(exc.value)


def test_a_cache_of_dimension_reports_only_misses_on_probes(tmp_path):
    # a cache written when every cached probe was a system_dim report holds
    # those reports at the probed degrees; the probe keys never read them
    pts = general(6, seed=3)
    want = alpha_sequence(pts, 5).alphas
    old = ResultCache(tmp_path)
    for k in range(1, 6):
        scheme = FatPointScheme.uniform(pts, k)
        for d in range(k, 4 * k):
            if expected_dim(scheme, d) <= 0:
                system_dim(scheme, d, MultiPrime(2), cache=old)
    files = {f.name: f.read_bytes() for f in tmp_path.iterdir()}
    cache = ResultCache(tmp_path)
    assert alpha_sequence(pts, 5, cache=cache).alphas == want
    assert cache.hits == 0 and cache.misses > 0
    after = {f.name: f.read_bytes() for f in tmp_path.iterdir()}
    assert files.items() < after.items() and len(after) == len(files) + cache.misses


def test_cache_keys_do_not_change():
    # recorded before points memoized their formatted coordinates: a key
    # that changes would make every existing cache directory miss
    half = Fraction(-1, 2)
    rational = FatPointScheme((point(QQ, 2, 4, 2), point(QQ, half, 0, 1), point(QQ, 0, 1, 0)),
                              (2, 1, 3))
    assert (cache_key(rational, 5, MultiPrime(2), False)
            == "94cfd30d832cad251d6743085dd2673ff131466ab54cace99a40034ec72ce223")
    F31 = prime_field(31)
    modular = FatPointScheme((point(F31, 1, 2, 3), point(F31, 30, 0, 1)), (2, 2))
    assert (cache_key(modular, 4, ExactRational(), True)
            == "09ab48ae168bfc128ea2230c420617c6cfa472c42d2a43ea0fd4c91b4a83f08a")
    # another representative of the same points gives the same key
    again = FatPointScheme((point(QQ, 1, 2, 1), point(QQ, -1, 0, 2), point(QQ, 0, 5, 0)),
                           (2, 1, 3))
    assert cache_key(again, 5, MultiPrime(2), False) == cache_key(rational, 5, MultiPrime(2), False)


_PINNED_SCHEMES = {
    "q-uniform": lambda: FatPointScheme.uniform(
        (point(QQ, 2, 4, 2), point(QQ, Fraction(-1, 2), 0, 1), point(QQ, 0, 1, 0),
         point(QQ, 7, -3, 5)), 3),
    "q-mixed": lambda: FatPointScheme(
        (point(QQ, 1, 10, 1), point(QQ, 1, 1, 1), point(QQ, -1, 1, 1), point(QQ, 1, 0, 0)),
        (4, 0, 2, 7)),
    "p-uniform": lambda: FatPointScheme.uniform(
        (point(prime_field(31), 1, 2, 3), point(prime_field(31), 30, 0, 1),
         point(prime_field(31), 0, 1, 0)), 2),
    "p-mixed": lambda: FatPointScheme(
        (point(prime_field(31), 3, 30, 1), point(prime_field(31), 1, 3, 0),
         point(prime_field(31), 10, 1, 1)), (1, 5, 3)),
}
_PINNED_KEYS = {  # (scheme, kind): key at (strategy, degree) of the kind below
    ("q-uniform", False): "1cad3e6a34a0ee47ebcaedbebb5cf97e992f9e43c5cb02593181007bf6fb91c7",
    ("q-uniform", True): "af77b20e5ea67f2c11ec8d6cb3fdf7cca5d425e28481afb20953777b2de4ba61",
    ("q-uniform", PROBE): "16e12586c19d809407d6bf78819954f2a96566ef2d8ce4cee73aac7fcf44f2dd",
    ("q-mixed", False): "5d30b6052cae4e9ed9f3480999bfe4f10649f29f5ad7df8f30fa5b78946b5abc",
    ("q-mixed", True): "99a42384da00a501afc1507c1d92224ba9a3699f65a0f58bafcb7ef05c64ddc7",
    ("q-mixed", PROBE): "cc8857eb324e87ee16282635612175a4d7399daff9bec7eb5c274dfc85b45fdb",
    ("p-uniform", False): "17a87f7c6f3b8d80ec05df15fb33ad6fd10cf42a4998b19eea6c89400131b115",
    ("p-uniform", True): "b0393cacd6253c17145c4386798940f382958f20b21d0c2dc1be022ddd06db98",
    ("p-uniform", PROBE): "7bf1a0ae027ac35b53075c1de7e20e6bd3139c06317cd6dc92ba85580b794c93",
    ("p-mixed", False): "6edd3df91ba5acce1867f4bcc204c52592f85bda62f1750f2922c5ea025b7711",
    ("p-mixed", True): "7de65d1fdcfa383e2ec01c8b5595ab6ab1760c394594e41cafa16fe6b7a6148c",
    ("p-mixed", PROBE): "60181f875aac08ead4984f8cecfb9edd58b9c6bc028c24e188f86ff969b8f85b",
}


@pytest.mark.parametrize("name,kind", list(_PINNED_KEYS), ids=lambda x: str(x))
def test_cache_keys_are_pinned_per_scheme_and_kind(name, kind):
    # recorded before schemes memoized their sorted point texts; a scheme
    # from _with_multiplicities (which carries the memo of other m) and a
    # fresh one give the same key
    strategy, d = {False: (MultiPrime(2), 7), True: (ExactRational(), 9),
                   PROBE: (SinglePrime(3), 6)}[kind]
    scheme = _PINNED_SCHEMES[name]()
    other = FatPointScheme(scheme.points, tuple(m + 1 for m in scheme.multiplicities))
    assert cache_key(other, d, strategy, kind) != _PINNED_KEYS[name, kind]
    assert cache_key(scheme, d, strategy, kind) == _PINNED_KEYS[name, kind]
    carried = other._with_multiplicities(scheme.multiplicities)
    assert cache_key(carried, d, strategy, kind) == _PINNED_KEYS[name, kind]


def _json_cache_key(scheme, d, strategy, kind):
    """The key as first written: SHA-256 of json.dumps of a payload dict."""
    payload = {
        "field": field_to_string(scheme.field),
        "points": sorted([list(P.coord_strings()), m]
                         for P, m in zip(scheme.points, scheme.multiplicities)),
        "degree": d,
        "strategy": _strategy_tag(strategy),
        "kernel": kind,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def test_cache_keys_match_their_json_formula():
    # coordinates that are prefixes of one another ("1", "10", "1/2", "-1")
    # sort as strings inside the formatted points as they do as lists
    F31 = prime_field(31)
    pools = [
        [point(QQ, *c) for c in ((1, 10, 1), (1, 1, 1), (1, 1, 2), (10, 1, 1), (-1, 1, 1),
                                 (1, -1, 1), (1, 0, 0), (1, 1, 0), (1, 10, 0), (-1, 10, 2),
                                 (10, -1, 1), (1, -10, 1))],
        [point(F31, *c) for c in ((1, 10, 1), (10, 1, 1), (1, 1, 1), (3, 30, 1), (30, 3, 1),
                                  (1, 0, 0), (0, 1, 0), (1, 3, 0))],
    ]
    rng = random.Random(5)
    checked = 0
    for pool in pools:
        for _ in range(40):
            pts = rng.sample(pool, rng.randint(1, len(pool)))
            mults = [rng.choice((0, 1, 2, 3, 10, 12)) for _ in pts]
            scheme = FatPointScheme(tuple(pts), tuple(mults))
            for strategy in (ExactRational(), SinglePrime(), MultiPrime(2), MultiPrime(3, seed=4)):
                for kind in (False, True, PROBE):
                    d = rng.randint(0, 20)
                    assert (cache_key(scheme, d, strategy, kind)
                            == _json_cache_key(scheme, d, strategy, kind))
                    checked += 1
    assert checked == 960


@pytest.mark.parametrize("upper", [None, 0, 1, 2, 3, 4, 6, 9, 40])
def test_the_product_bound_is_only_a_hint(upper):
    # below alpha the hinted degree is found empty and the search moves up;
    # at or past hi - 1 the hint changes nothing
    for scheme in (FatPointScheme.uniform(conic_points(6), 3),
                   FatPointScheme.uniform(general(5, seed=1), 2),
                   FatPointScheme(TRIANGLE, (1, 2, 3))):
        for strategy, certify in ((MultiPrime(2), False), (ExactRational(), True)):
            want = linsys.alpha_search(scheme, strategy, certify)
            got = linsys.alpha_search(scheme, strategy, certify, upper=upper)
            assert ((got.value, got.existence, got.certification)
                    == (want.value, want.existence, want.certification))


def _hint_free_sequence(points, k_max, cache):
    """The searches of ``alpha_sequence`` without the product bound."""
    start = None
    for k in range(1, k_max + 1):
        scheme = FatPointScheme.uniform(points, k)
        start = linsys.alpha_search(scheme, certify_existence=True, start=start,
                                    cache=cache).value + 1


@pytest.mark.parametrize("configurations,fewer", [
    ((on_conic(6),), True),
    ((collinear(6), type9(0)), True),
] + [((general(r, seed=0),), False) for r in range(3, 10)])
def test_the_product_bound_writes_no_more_cache_entries(tmp_path, configurations, fewer):
    # where alpha(kZ) sits below hi - 1 the bound saves probes; on general
    # points it never falls below hi - 1, so the entries are the same
    hinted, free = tmp_path / "hinted", tmp_path / "free"
    for pts in configurations:
        alpha_sequence(pts, 5, certify_existence=True, cache=ResultCache(hinted))
        _hint_free_sequence(pts, 5, ResultCache(free))
    a, b = ({f.name: f.read_bytes() for f in d.iterdir()} for d in (hinted, free))
    assert a.items() <= b.items()
    assert (len(a) < len(b)) == fewer


def _certified_values(monkeypatch, points, k_max, pairs=lambda d, pairs: pairs):
    """The ``AlphaValue``s of a certified search, ``pairs(d, pairs)`` handed to
    ``_product_basis`` in place of its pairs, and the degrees where the
    products were tried and where they gave the kernel."""
    tried, built, product_basis = [], [], linsys._product_basis

    def spy(d, bound, factors):
        basis = product_basis(d, bound, pairs(d, factors))
        tried.append(d)
        built.extend([d] if basis is not None else [])
        return basis

    monkeypatch.setattr(linsys, "_product_basis", spy)
    return list(linsys.iter_alpha_values(points, k_max, certify_existence=True)), tried, built


@pytest.mark.parametrize("points,k_max,products", [
    (on_conic(6), 6, (2, 3, 4, 5, 6)),
    (collinear(5), 3, (2, 3)),
    (general(3, seed=11, height=12), 8, (8,)),
    (star(4, 1)[0], 5, (4, 5)),
    (star(5, 1)[0], 4, (4,)),
], ids=["on_conic6", "collinear5", "general3", "star4", "star5"])
def test_kernels_built_from_products_match_the_unframed_oracle(monkeypatch, points, k_max,
                                                                products):
    # where alpha(kZ) = alpha(jZ) + alpha((k-j)Z) and the kernels of jZ and
    # (k-j)Z are exact, their products span the kernel of kZ: its basis is
    # the RREF basis of the unframed condition matrix, and the report is
    # the engine's; every other certified kernel comes from the engine
    values, _, built = _certified_values(monkeypatch, points, k_max)
    assert built == [values[k - 1].value for k in products]
    for k in products:
        av = values[k - 1]
        scheme, d, report = FatPointScheme.uniform(points, k), av.value, av.reports[-1][1]
        want = rational_nullspace(build_condition_matrix(scheme, d).tolist())
        assert report.kernel == tuple(poly_from_vector(QQ, d, v) for v in want)
        assert (av.existence, av.certification) == ("kernel", "EXACT_RATIONAL")
        assert report == system_dim(scheme, d, ExactRational(), want_kernel=True)


def test_products_that_span_less_than_the_probe_found_take_the_engine(monkeypatch):
    # star(4, 1) at k = 5, d = 11: the one form of the kernel of 2Z times the
    # four of 3Z span the four dimensions the probe found; with one form of
    # 3Z dropped they span three, and the engine computes the same kernel
    want = list(linsys.iter_alpha_values(star(4, 1)[0], 5, certify_existence=True))
    framed, exact = linsys._framed, []

    def spy(imposed, d, p):
        exact.extend([d] if p is None else [])
        return framed(imposed, d, p)

    monkeypatch.setattr(linsys, "_framed", spy)
    values, tried, built = _certified_values(
        monkeypatch, star(4, 1)[0], 5,
        lambda d, pairs: [(A, B[:-1]) for A, B in pairs] if d == 11 else pairs)
    assert (tried, built, exact) == ([4, 7, 8, 11], [8], [4, 7, 11])
    assert values == want


def test_a_corrupted_product_fails_the_kernel_check(monkeypatch):
    # x^2 in place of the conic through six conic points: x^2 times the
    # conic spans the one dimension the probe found at k = 2, and the kernel
    # check finds it vanishing only once at (1 : 0 : 0)
    x2 = poly(QQ, 2, {(2, 0, 0): 1})
    with pytest.raises(CertificationError, match="multiplicity-2 check"):
        _certified_values(monkeypatch, on_conic(6), 2,
                          lambda d, pairs: [((x2,), B) for _, B in pairs])


def test_a_kernel_past_the_int_string_limit_round_trips(tmp_path):
    # the line through (N : 1 : 1) and (0 : 0 : 1) has the coefficient N,
    # which has 5103 digits
    N = 2**16949 + 1
    f = poly(QQ, 2, {(2, 0, 0): N, (0, 1, 1): -3})
    terms = form_terms(f)
    assert poly(QQ, terms["degree"], {tuple(m): c for m, c in terms["terms"]}) == f
    scheme = FatPointScheme.uniform((point(QQ, N, 1, 1), point(QQ, 0, 0, 1)), 1)
    rep = system_dim(scheme, 1, ExactRational(), want_kernel=True, cache=ResultCache(tmp_path))
    assert N in {abs(c) for _, c in rep.kernel[0].terms}
    warm = ResultCache(tmp_path)
    assert warm.get_report(scheme, 1, ExactRational(), True) == rep and warm.hits == 1


def test_a_kernel_coefficient_with_a_zero_denominator_is_corrupt(tmp_path):
    scheme = FatPointScheme.uniform((point(QQ, 1, 1, 1), point(QQ, 0, 0, 1)), 1)
    system_dim(scheme, 1, ExactRational(), want_kernel=True, cache=ResultCache(tmp_path))
    victim = next(tmp_path.glob("*.json"))
    data = json.loads(victim.read_text())
    data["kernel"][0]["terms"][0][1] = "1/0"
    victim.write_text(dump_json(data))
    with pytest.raises(CacheCorruptionError, match="zero denominator in '1/0'") as exc:
        system_dim(scheme, 1, ExactRational(), want_kernel=True, cache=ResultCache(tmp_path))
    assert victim.stem in str(exc.value) and str(victim) in str(exc.value)


def _kernel_entry(tmp_path):
    """A scheme and the one cache entry of its exact kernel report at d = 4:
    a conic through six double points (rank 14, one form, expected -3)."""
    scheme = FatPointScheme.uniform(conic_points(6), 2)
    system_dim(scheme, 4, ExactRational(), want_kernel=True, cache=ResultCache(tmp_path))
    return scheme, next(tmp_path.glob("*.json"))


def test_a_non_utf8_entry_is_corrupt_on_lookup_and_on_verify(tmp_path):
    scheme, victim = _kernel_entry(tmp_path)
    victim.write_bytes(b'{"actual_dim":\xff}')
    for verify in (False, True):
        with pytest.raises(CacheCorruptionError, match="UnicodeDecodeError") as exc:
            system_dim(scheme, 4, ExactRational(), want_kernel=True,
                       cache=ResultCache(tmp_path, verify=verify))
        assert victim.stem in str(exc.value) and str(victim) in str(exc.value)


@pytest.mark.parametrize("field,value,message", [
    ("actual_dim", "0", "actual_dim '0' is not an integer"),
    ("rank", True, "rank True is not an integer"),
    ("nrows", 18.0, "nrows 18.0 is not an integer"),
    ("degree", 5, "degree is 5, not 4"),
    ("ncols", 16, "ncols is 16, not 15"),
    ("rank", 13, "actual_dim is 1, not 2"),
    ("expected_dim", -2, "expected_dim is -2, not -3"),
    ("superabundance", 2, "superabundance is 2, not 1"),
    ("kernel", [], "0 kernel forms for actual_dim 1"),
], ids=["str", "bool", "float", "degree", "ncols", "rank", "expected_dim",
        "superabundance", "kernel"])
def test_a_hit_that_contradicts_its_key_is_corrupt(tmp_path, field, value, message):
    scheme, victim = _kernel_entry(tmp_path)
    data = json.loads(victim.read_text())
    data[field] = value
    victim.write_text(dump_json(data))
    with pytest.raises(CacheCorruptionError, match=re.escape(message)) as exc:
        system_dim(scheme, 4, ExactRational(), want_kernel=True, cache=ResultCache(tmp_path))
    assert victim.stem in str(exc.value) and str(victim) in str(exc.value)


def test_a_string_dimension_does_not_lower_alpha(tmp_path):
    # read as a kernel, "0" at degree 7 would make alpha(3Z) 7, not 8
    scheme = FatPointScheme.uniform(general(6, seed=3), 3)
    assert alpha(scheme, cache=ResultCache(tmp_path)) == 8
    entries = {f: json.loads(f.read_text()) for f in tmp_path.glob("*.json")}
    victim, data = next((f, e) for f, e in entries.items() if e["degree"] == 7)
    data["actual_dim"] = "0"
    victim.write_text(dump_json(data))
    with pytest.raises(CacheCorruptionError, match="actual_dim") as exc:
        alpha(scheme, cache=ResultCache(tmp_path))
    assert str(victim) in str(exc.value)


def test_a_cache_hit_is_one_read_and_verify_mode_opens_nothing(tmp_path, monkeypatch):
    scheme, d, strategy = FatPointScheme.uniform(TRIANGLE, 2), 3, MultiPrime(2)
    cache = ResultCache(tmp_path)
    assert cache.get_report(scheme, d, strategy, False) is None
    assert (cache.hits, cache.misses) == (0, 1)
    report = system_dim(scheme, d, strategy, cache=cache)
    assert cache.get_report(scheme, d, strategy, False) == report
    assert (cache.hits, cache.misses) == (1, 2)
    verify = ResultCache(tmp_path, verify=True)

    def no_open(*args, **kwargs):
        raise AssertionError("verify mode opened a file")

    monkeypatch.setattr("builtins.open", no_open)
    assert verify.get_report(scheme, d, strategy, False) is None
    assert (verify.hits, verify.misses) == (0, 1)


def test_a_failed_cache_write_leaves_no_temporary_file(tmp_path, monkeypatch):
    scheme, d, strategy = FatPointScheme.uniform(TRIANGLE, 2), 3, MultiPrime(2)
    report = system_dim(scheme, d, strategy)
    cache = ResultCache(tmp_path)

    def no_rename(src, dst):
        raise OSError("rename refused")

    with monkeypatch.context() as m:
        m.setattr(os, "replace", no_rename)
        with pytest.raises(OSError, match="rename refused"):
            cache.put_report(scheme, d, strategy, False, report)
    assert list(tmp_path.iterdir()) == []
    cache.put_report(scheme, d, strategy, False, report)
    key = cache_key(scheme, d, strategy, False)
    assert [f.name for f in tmp_path.iterdir()] == [f"{key}.json"]
    assert cache.get_report(scheme, d, strategy, False) == report


def _report_json(rank, nrows, ncols, d, exp, existence, primes):
    return dump_json({
        "actual_dim": ncols - rank, "certification": "MULTI_PRIME(2)", "degree": d,
        "existence_certified": existence, "expected_dim": exp,
        "kind": "linear_system_report", "ncols": ncols, "nrows": nrows,
        "primes": list(primes), "rank": rank, "schema": "fatpoints/1",
        "superabundance": ncols - rank - max(exp, 0)})


DEFAULT_PRIMES = (2017713899, 1606961869)
# (0 : 0 : 1), (1 : 0 : 1), (3 : 7 : 1) span a frame of determinant 7
FRAME_DET_7 = tuple(point(QQ, *c) for c in ((0, 0, 1), (1, 0, 1), (3, 7, 1),
                                            (2, 5, 1), (-1, 4, 1)))


@pytest.mark.parametrize("scheme,d,primes,want", [
    # collinear: no frame
    (FatPointScheme.uniform(tuple(point(QQ, 0, i, 1) for i in range(5)), 2), 4,
     DEFAULT_PRIMES, _report_json(9, 15, 15, 4, 0, None, DEFAULT_PRIMES)),
    # two points: no frame
    (FatPointScheme((point(QQ, 1, 2, 3), point(QQ, -1, 0, 1)), (3, 2)), 3,
     DEFAULT_PRIMES, _report_json(8, 9, 10, 3, 1, "expected_dim", DEFAULT_PRIMES)),
    # the first prime divides the frame determinant
    (FatPointScheme.uniform(FRAME_DET_7, 2), 5, (7, 2**31 - 1),
     _report_json(15, 15, 21, 5, 6, "expected_dim", (7, 2**31 - 1))),
], ids=["collinear", "two_points", "prime_divides_det"])
def test_frame_fallbacks_eliminate_the_unframed_matrix(monkeypatch, scheme, d,
                                                       primes, want):
    monkeypatch.setattr(linsys, "strategy_primes", lambda s: primes)
    shapes = []
    original = linsys.modp_rref

    def spy(A, p, **kwargs):
        shapes.append(A.shape)
        return original(A, p, **kwargs)

    monkeypatch.setattr(linsys, "modp_rref", spy)
    rep = system_dim(scheme, d, MultiPrime(2))
    A = condition_matrix_mod_p(scheme, d, primes[0])
    assert shapes[0] == A.shape
    assert rep.rank == original(A, primes[0])[0]
    assert dump_json(rep.to_json_dict()) == want


def test_report_certification_labels():
    scheme = FatPointScheme.uniform(TRIANGLE, 2)
    assert system_dim(scheme, 3, strategy=ExactRational()).certification == "EXACT_RATIONAL"
    assert system_dim(scheme, 3, strategy=SinglePrime()).certification == "SINGLE_PRIME"
    assert system_dim(scheme, 3, strategy=MultiPrime(2)).certification == "MULTI_PRIME(2)"
    F = prime_field(31)
    pts = conic_points(4, F)
    assert system_dim(FatPointScheme.uniform(pts, 1), 2).certification == "SINGLE_PRIME"
    # one rule labels an exact answer over each field
    for sch, d in ((scheme, 3), (FatPointScheme.uniform(pts, 1), 2)):
        assert exact_label(sch.field) == system_dim(sch, d, strategy=ExactRational()).certification


def test_report_json_round_trip_fields():
    rep = system_dim(FatPointScheme.uniform(TRIANGLE, 2), 3, want_kernel=True,
                     strategy=ExactRational())
    d = rep.to_json_dict()
    assert d["schema"] == "fatpoints/1"
    assert d["actual_dim"] == 1 and d["expected_dim"] == 10 - 9
    assert d["kernel"][0]["degree"] == 3
