"""Incidence predicates, configuration detectors, and the singular scan."""

import itertools
import random
from fractions import Fraction

import pytest

from helpers import (
    coeff,
    enumerate_projective_plane,
    line_form,
    line_through,
    nullspace_in_field,
    spanned_lines_by_pairs,
)
from fatpoints.algebra import (
    QQ,
    FieldMismatchError,
    evaluate,
    monomial_basis,
    order_of_vanishing,
    point,
    poly,
    poly_from_vector,
    prime_field,
    reduce_points,
)
from fatpoints.configs import (
    collinear,
    dual_hesse,
    general,
    on_conic,
    star,
    type9,
)
from fatpoints.geometry import (
    Line,
    are_collinear,
    common_conic,
    detect_line_arrangement,
    rational_points_on_curve,
    is_star_configuration,
    is_type9,
    singular_points_over_Fp,
    spanned_lines,
)


# ---------------------------------------------------------------------------
# lines

def test_line_normalization_and_membership():
    L = Line.from_coeffs(QQ, (0, 3, -6))
    assert L.coeffs == (0, 1, -2)
    assert L.contains(point(QQ, 5, 2, 1))
    with pytest.raises(ValueError):
        Line.from_coeffs(QQ, (0, 0, 0))


@pytest.mark.parametrize("field", [QQ, prime_field(31), prime_field(2**31 - 1)], ids=repr)
def test_line_from_coeffs_is_the_inverse_and_multiply_rule(field):
    # over Q one Fraction(c, lead) per coefficient, over F_p the product by
    # the lead's inverse: both equal c * lead^-1 taken as field scalars
    def rule(coeffs):
        v = [field.of(c) for c in coeffs]
        inv = field.inv(next(c for c in v if c != field.zero))
        return tuple(field.of(c * inv) for c in v)

    rng = random.Random(repr(field))
    p = field.p or 1
    leads = [(0, -3, 6), (0, 0, -5), (Fraction(-2, 3), 4, Fraction(1, 7)), (0, Fraction(5, 2), 1),
             (-7, 0, 0), (12, -18, 30)]
    if field != QQ:
        leads = [c for c in leads if all(type(x) is int for x in c)]
        leads += [(p, -3, 6), (2 * p, p, 7), (-p - 4, 1, 0)]
    for _ in range(60):
        kind = rng.random()
        if kind < 0.4:
            c = tuple(rng.randint(-20, 20) for _ in range(3))
        elif field == QQ:
            c = tuple(Fraction(rng.randint(-20, 20), rng.randint(1, 9)) for _ in range(3))
        else:
            c = tuple(rng.randint(-3, 3) * p + rng.randint(0, 1) for _ in range(3))
        leads.append(c)
    checked = 0
    for c in leads:
        if not any(field.of(x) for x in c):
            continue
        L = Line.from_coeffs(field, c)
        assert L.coeffs == rule(c) and L == Line(field, rule(c))
        assert all(type(x) is type(field.one) for x in L.coeffs)
        checked += 1
    assert checked >= 60
    for zero in ((0, 0, 0),) + (((p, 0, -2 * p),) if field != QQ else ()):
        with pytest.raises(ValueError, match="nonzero coefficient"):
            Line.from_coeffs(field, zero)


def test_line_through_and_intersect():
    P, Q = point(QQ, 0, 0, 1), point(QQ, 0, 1, 1)
    L = line_through(P, Q)
    assert L.contains(P) and L.contains(Q)
    M = Line.from_coeffs(QQ, (0, 1, 0))  # y = 0
    assert L.intersect(M) == point(QQ, 0, 0, 1)
    with pytest.raises(ValueError):
        line_through(P, P)
    with pytest.raises(ValueError, match="coincident lines"):
        M.intersect(M)


# ---------------------------------------------------------------------------
# collinearity

def test_collinear_vertical_line():
    pts = (point(QQ, 0, 0, 1), point(QQ, 0, 1, 1), point(QQ, 0, 1, 0))
    L = are_collinear(pts)
    assert L is not None and L.coeffs == (1, 0, 0)


def test_collinear_absent_for_triangle():
    assert are_collinear((point(QQ, 1, 0, 0), point(QQ, 0, 1, 0), point(QQ, 0, 0, 1))) is None


def test_collinear_single_point_returns_some_line():
    P = point(QQ, 2, 3, 1)
    L = are_collinear((P,))
    assert L is not None and L.contains(P)


def test_collinear_result_vanishes_on_all_points():
    rng = random.Random(3)
    for _ in range(20):
        pts = collinear(rng.randint(2, 6))
        L = are_collinear(pts)
        assert all(evaluate(line_form(L), P) == 0 for P in pts)


# ---------------------------------------------------------------------------
# conics

def test_common_conic_through_five_parameterized_points():
    conic = common_conic(on_conic(5))
    want = poly(QQ, 2, {(0, 2, 0): 1, (1, 0, 1): -1})
    got_over_want = {m: coeff(conic, m) for m, _ in want.terms}
    vals = set(got_over_want.values())
    assert coeff(conic, (2, 0, 0)) == 0
    ratios = {coeff(conic, m) / c for m, c in want.terms}
    assert len(ratios) == 1 and 0 not in ratios
    assert len(conic.terms) == 2


def test_common_conic_absent_for_six_general():
    assert common_conic(general(6, seed=9)) is None


def test_common_conic_degenerate_two_lines():
    pts = tuple(point(QQ, 0, i, 1) for i in range(3)) + tuple(
        point(QQ, 1, i, 1) for i in range(3)
    )
    conic = common_conic(pts)
    assert conic is not None
    assert all(order_of_vanishing(conic, P) >= 1 for P in pts)


def test_common_conic_always_present_up_to_five_points():
    pts = general(5, seed=21)
    assert common_conic(pts) is not None


@pytest.mark.parametrize(
    "field", [QQ] + [prime_field(p) for p in (2, 31, 2**31 - 1, 2**61 - 1)], ids=repr)
def test_collinear_and_conic_agree_with_the_field_oracle(field):
    # The oracle eliminates the normalized coordinates as field scalars.
    # Past 2^31 an int64 elimination would overflow silently.
    rng = random.Random(repr(field))
    hi = 9 if field == QQ else field.p - 1

    def draw():
        return tuple(rng.randint(-hi if field == QQ else 0, hi) for _ in range(3))

    for _ in range(40):
        a, b = draw(), draw()
        on_line = rng.random() < 0.4
        pts = set()
        for _ in range(rng.randint(1, 7)):
            s, t = rng.randint(0, hi), rng.randint(0, hi)
            c = tuple(s * x + t * y for x, y in zip(a, b)) if on_line else draw()
            if any(field.of(x) != field.zero for x in c):
                pts.add(point(field, c))
        if not pts:
            continue
        line = nullspace_in_field([P.coords for P in pts], field, 3)
        assert are_collinear(pts) == (Line.from_coeffs(field, line[0]) if line else None)
        rows = [[field.of(x**a * y**b * z**c) for a, b, c in monomial_basis(2)]
                for x, y, z in (P.coords for P in pts)]
        conic = nullspace_in_field(rows, field, 6)
        want = None
        if conic:
            inv = field.inv(next(c for c in conic[0] if c != field.zero))
            want = poly_from_vector(field, 2, [field.of(c * inv) for c in conic[0]])
        assert common_conic(pts) == want


# ---------------------------------------------------------------------------
# spanned lines

def _spanned_line_configurations():
    rng = random.Random(17)
    small = sorted({point(QQ, c) for c in itertools.product(range(-2, 3), repeat=3) if any(c)},
                   key=repr)
    plane5 = list(enumerate_projective_plane(prime_field(5)))
    yield from (general(rng.randint(2, 9), seed=rng.randrange(10**6)) for _ in range(10))
    yield from (collinear(r) for r in (2, 3, 6))
    yield from (star(p, seed)[0] for p, seed in ((3, 0), (4, 1), (5, 2)))
    yield from (type9(), on_conic(6), dual_hesse(13), dual_hesse(31))
    yield reduce_points(general(7, seed=5), prime_field(2**61 - 1))
    for _ in range(15):  # many collinear triples and quadruples
        yield tuple(rng.sample(small, rng.randint(2, 9)))
        yield tuple(rng.sample(plane5, rng.randint(2, 9)))


def test_spanned_lines_match_the_pairwise_oracle():
    for pts in _spanned_line_configurations():
        got = spanned_lines(pts)
        assert got == spanned_lines_by_pairs(pts)
        # the meet of two spanned lines is a point of the configuration
        # exactly when both carry it, which the detectors rely on
        for (L1, a), (L2, b) in itertools.combinations(got, 2):
            assert (L1.intersect(L2) in pts) == bool(a & b)


def test_spanned_lines_refuse_repeated_points_and_mixed_fields():
    P, Q = point(QQ, 1, 2, 3), point(QQ, 2, 4, 6)
    with pytest.raises(ValueError, match="two distinct points"):
        spanned_lines((P, point(QQ, 0, 0, 1), Q))
    with pytest.raises(FieldMismatchError):
        spanned_lines((P, point(prime_field(7), 1, 2, 3)))


# ---------------------------------------------------------------------------
# arrangements and stars

def test_arrangement_star4_round_trip():
    pts, lines = star(4, seed=5)
    witness = detect_line_arrangement(pts)
    assert witness is not None and witness.exhaustive
    assert len(witness.lines) == 4
    assert set(witness.lines) == set(lines)
    assert all(len(ix) == 2 for ix in witness.incidence)


def test_arrangement_triangle():
    pts = (point(QQ, 1, 0, 0), point(QQ, 0, 1, 0), point(QQ, 0, 0, 1))
    witness = detect_line_arrangement(pts)
    assert witness is not None and len(witness.lines) == 3


def test_arrangement_absent_for_four_general_points():
    pts = general(4, seed=14)
    assert detect_line_arrangement(pts) is None
    with pytest.raises(ValueError, match="at least two points"):
        detect_line_arrangement(pts[:1])


def test_arrangement_star5_greedy_succeeds():
    pts, lines = star(5, seed=3)
    witness = detect_line_arrangement(pts)
    assert witness is not None and not witness.exhaustive
    assert set(witness.lines) == set(lines)


def test_arrangement_witness_json():
    pts, _ = star(4, seed=5)
    w = detect_line_arrangement(pts).to_json_dict()
    assert w["convention"] == "pair-spanned-lines"
    assert len(w["lines"]) == 4 and len(w["incidence"]) == 6


def test_star_detector_round_trips():
    for p, seed in ((3, 1), (4, 2), (5, 3), (6, 4)):
        pts, lines = star(p, seed)
        got = is_star_configuration(pts)
        assert got is not None and got[0] == p
        assert set(got[1]) == set(lines)


def test_star_absent_on_conic_and_type9():
    assert is_star_configuration(on_conic(6)) is None
    assert is_star_configuration(type9()) is None
    with pytest.raises(ValueError, match="at least three points"):
        is_star_configuration(on_conic(6)[:2])


def test_type9_detector():
    assert is_type9(type9())
    assert is_type9(type9(seed=8))
    assert not is_type9(on_conic(6))
    pts, _ = star(4, seed=1)
    assert not is_type9(pts)
    assert not is_type9(general(6, seed=2))


def test_type9_is_not_an_arrangement_intersection_set():
    assert detect_line_arrangement(type9()) is None


def test_dual_hesse_is_an_arrangement_intersection_set():
    # twelve points, each on three of the nine lines, whose pairwise
    # intersections are exactly the configuration; found by the greedy pass
    w = detect_line_arrangement(dual_hesse(31))
    assert w is not None and len(w.lines) == 9 and not w.exhaustive
    assert all(len(ix) == 3 for ix in w.incidence)


def test_detectors_absent_on_random_general_configurations():
    # seeded sweep; sizes where each detector could in principle fire
    for seed in range(120):
        pts6 = general(6, seed=1000 + seed)
        assert is_star_configuration(pts6) is None
        assert not is_type9(pts6)
        assert detect_line_arrangement(pts6) is None
    for seed in range(60):
        pts10 = general(10, seed=2000 + seed)
        assert is_star_configuration(pts10) is None
    for seed in range(60):
        pts4 = general(4, seed=3000 + seed)
        assert detect_line_arrangement(pts4) is None
    for seed in range(60):
        pts5 = general(5, seed=4000 + seed)
        assert detect_line_arrangement(pts5) is None


# ---------------------------------------------------------------------------
# singular scans over prime fields

def test_singular_scan_triple_line_triangle():
    F = prime_field(7)
    f = poly(F, 3, {(1, 1, 1): 1})  # xyz
    sing = singular_points_over_Fp(f)
    assert set(sing) == {point(F, 1, 0, 0), point(F, 0, 1, 0), point(F, 0, 0, 1)}


def test_singular_scan_smooth_conic_empty():
    F = prime_field(7)
    f = poly(F, 2, {(0, 2, 0): 1, (1, 0, 1): -1})
    assert singular_points_over_Fp(f) == []


def test_singular_scan_nodal_cubic():
    F = prime_field(7)
    # z y^2 - x^2 (x + z): node at (0 : 0 : 1)
    f = poly(F, 3, {(0, 2, 1): 1, (3, 0, 0): -1, (2, 0, 1): -1})
    sing = singular_points_over_Fp(f)
    assert sing == [point(F, 0, 0, 1)]
    assert order_of_vanishing(f, sing[0]) == 2


def test_singular_scan_orders_at_least_two():
    F = prime_field(11)
    f = poly(F, 4, {(2, 1, 1): 1, (0, 4, 0): 3, (1, 0, 3): 5})
    for P in singular_points_over_Fp(f):
        assert order_of_vanishing(f, P) >= 2


def test_singular_scan_requires_large_characteristic():
    F = prime_field(3)
    f = poly(F, 3, {(1, 1, 1): 1})
    with pytest.raises(ValueError):
        singular_points_over_Fp(f)
    with pytest.raises(ValueError, match="needs a prime-field polynomial"):
        singular_points_over_Fp(poly(QQ, 3, {(1, 1, 1): 1}))


def test_plane_scans_refuse_the_rationals():
    with pytest.raises(ValueError, match="needs a prime field"):
        rational_points_on_curve(poly(QQ, 1, {(1, 0, 0): 1}))


def test_plane_scans_refuse_primes_past_int64_residues():
    # checked before any of the p^2 + p + 1 points is built
    F = prime_field(2**31 + 11)
    with pytest.raises(ValueError, match="p < 2\\^31"):
        rational_points_on_curve(poly(F, 1, {(1, 0, 0): 1}))


def test_projective_plane_enumeration_count():
    F = prime_field(5)
    pts = list(enumerate_projective_plane(F))
    assert len(pts) == 31 and len(set(pts)) == 31
    assert all(P == point(F, *P.coords) for P in pts)  # built normalized
