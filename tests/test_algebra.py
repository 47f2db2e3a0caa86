"""Field, point, and polynomial layer: frozen examples plus random properties."""

import math
import random
from dataclasses import fields
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from helpers import line_form, line_through, power
from fatpoints.algebra import (
    QQ,
    FieldMismatchError,
    HomoPoly,
    RationalField,
    det3,
    evaluate,
    field_from_string,
    field_to_string,
    is_prime,
    linear_form,
    monomial_basis,
    order_of_vanishing,
    partial_derivative,
    point,
    poly,
    poly_from_vector,
    prime_field,
)
from fatpoints.geometry import Line


def rand_poly(field, d, rng, density=0.6):
    coeffs = {}
    for m in monomial_basis(d):
        if rng.random() < density:
            if field == QQ:
                coeffs[m] = rng.randint(-9, 9)
            else:
                coeffs[m] = rng.randrange(field.p)
    return poly(field, d, coeffs)


def rand_point(field, rng):
    while True:
        if field == QQ:
            c = (rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(-9, 9))
        else:
            c = (rng.randrange(field.p), rng.randrange(field.p), rng.randrange(field.p))
        if any(c):
            return point(field, *c)


# ---------------------------------------------------------------------------
# fields and scalars

def test_is_prime_small():
    primes = [n for n in range(2, 60) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
    assert is_prime(2**31 - 1)
    assert not is_prime(1) and not is_prime(2**31 - 3)


def test_rational_scalar_round_trip():
    for s in ["-3/7", "12", "0", "5/3", "-1"]:
        assert QQ.format(QQ.of(s)) == s
    # Fraction strips surrounding whitespace, as the points-file reader needs
    assert QQ.of(" 5/3\n") == Fraction(5, 3)
    assert QQ.inv(Fraction(-3, 7)) == Fraction(-7, 3)
    with pytest.raises(ZeroDivisionError):
        QQ.inv(0)


def test_scalars_past_the_int_string_limit_round_trip():
    # Python converts at most 4300 digits between int and str by default;
    # 2^16949 + 1 has 5103
    big = Fraction(2**16949 + 1)
    for q in (big, -big, 1 / big, big / 3):
        s = QQ.format(q)
        assert QQ.of(s) == q and QQ.of(f" {s}\n") == q
    assert QQ.format(Fraction(10**5000 + 7, 3)) == "1" + "0" * 4999 + "7/3"
    assert prime_field(31).of(QQ.format(big)) == (2**16949 + 1) % 31
    with pytest.raises(ValueError, match="invalid fraction string"):
        QQ.of("1" * 5000 + "x")


def test_prime_field_arithmetic():
    F = prime_field(7)
    assert F.of(5 + 4) == 2
    assert F.of(3 * 5) == 1
    assert F.inv(3) == 5
    with pytest.raises(ZeroDivisionError):
        F.inv(0)
    with pytest.raises(ValueError):
        prime_field(6)


def test_a_zero_denominator_is_a_value_error():
    with pytest.raises(ValueError, match="zero denominator in '1/0'"):
        QQ.of("1/0")
    with pytest.raises(ValueError, match="zero denominator in '-3/0'"):
        prime_field(7).of("-3/0")
    with pytest.raises(ValueError, match="zero denominator in a fraction string of 703"):
        QQ.of("1" * 701 + "/0")


def test_prime_field_of_fraction():
    F = prime_field(11)
    assert F.of(Fraction(3, 4)) == 3 * pow(4, -1, 11) % 11


def test_field_tags():
    assert field_to_string(QQ) == "rational"
    assert field_from_string("prime:31") == prime_field(31)
    assert field_from_string("rational") == QQ
    with pytest.raises(ValueError, match="unknown field tag 'foo'"):
        field_from_string("foo")


def test_rational_fields_are_equal_and_no_prime_field_is_rational():
    assert QQ == RationalField() and hash(QQ) == hash(RationalField())
    assert QQ != prime_field(7) and prime_field(7) != QQ
    assert {QQ: "rational"}[RationalField()] == "rational"
    assert repr(QQ) == "QQ"
    assert QQ.p is None and prime_field(7).p == 7


# ---------------------------------------------------------------------------
# points

def test_point_normalization_last_nonzero_is_one():
    P = point(QQ, 3, 4, 5)
    assert P.coords == (Fraction(3, 5), Fraction(4, 5), Fraction(1))
    Q = point(QQ, 2, 3, 0)
    assert Q.coords == (Fraction(2, 3), Fraction(1), Fraction(0))
    R = point(QQ, 4, 0, 0)
    assert R.coords == (Fraction(1), Fraction(0), Fraction(0))


def test_point_equality_is_projective():
    assert point(QQ, 3, 4, 5) == point(QQ, 6, 8, 10)
    assert point(QQ, 1, 2, 3) != point(QQ, 1, 2, 4)
    assert len({point(QQ, 3, 4, 5), point(QQ, -3, -4, -5)}) == 1


def test_zero_point_rejected():
    with pytest.raises(ValueError):
        point(QQ, 0, 0, 0)


def test_integer_coords_primitive():
    P = point(QQ, 3, 4, 5)
    assert P.integer_coords() == (3, 4, 5)
    Q = point(QQ, Fraction(1, 2), Fraction(1, 3), 1)
    assert Q.integer_coords() == (3, 2, 6)


@pytest.mark.parametrize("field", [QQ, prime_field(7)], ids=repr)
def test_point_memos_follow_the_point_not_its_representative(field):
    P, Q = point(field, 2, 4, 2), point(field, 1, 2, 1)
    assert hash(P) == hash(Q) == hash((field, P.coords))
    assert repr(P) == repr(Q) == "(1 : 2 : 1)" and P.coord_strings() == ("1", "2", "1")
    # P's memos are all filled and R's are not: they stay out of equality
    P.integer_coords()
    assert None not in (P._hash, P._text, P._ints)
    R = point(field, 3, 6, 3)
    assert (R._hash, R._text, R._ints) == (None, None, None)
    assert P == R
    assert [f.name for f in fields(P) if f.compare] == ["field", "coords"]


@pytest.mark.parametrize("field", [QQ, prime_field(101)])
def test_normalized_input_gives_the_point_the_rescaling_gives(field):
    for a, b, c in ((Fraction(1, 2), 3, 1), (5, 1, 0), (1, 0, 0), (-3, 7, 1)):
        fast, scaled = point(field, a, b, c), point(field, 2 * a, 2 * b, 2 * c)
        assert fast == scaled and fast.coords == scaled.coords
        assert list(map(type, fast.coords)) == list(map(type, scaled.coords))


# ---------------------------------------------------------------------------
# monomial basis

def test_monomial_basis_sizes():
    assert monomial_basis(0) == ((0, 0, 0),)
    assert len(monomial_basis(2)) == 6
    assert len(monomial_basis(10)) == 66
    for d in range(8):
        assert len(monomial_basis(d)) == comb(d + 2, 2)
    with pytest.raises(ValueError, match="degree must be non-negative"):
        monomial_basis(-1)


def test_monomial_basis_order():
    assert monomial_basis(1) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    mons = monomial_basis(3)
    assert mons[0] == (3, 0, 0) and mons[-1] == (0, 0, 3)
    assert list(mons) == sorted(mons, reverse=True)
    assert all(sum(m) == 3 for m in mons)


@pytest.mark.parametrize("field", [QQ, prime_field(7), prime_field(2**31 - 1)], ids=repr)
def test_poly_from_vector_is_poly_on_the_monomial_basis(field):
    # terms straight from monomial_basis, scalars only for nonzero entries:
    # the same form as poly's, with entries that reduce to zero dropped
    rng = random.Random(repr(field))
    p = field.p or 1

    def entry():
        kind = rng.random()
        if kind < 0.3:
            return 0
        if field == QQ:
            return Fraction(rng.randint(-9, 9), rng.randint(1, 5)) if kind < 0.6 \
                else rng.randint(-50, 50)
        return rng.randint(-3, 3) * p if kind < 0.5 else rng.randint(-2**40, 2**40)

    for _ in range(60):
        d = rng.randint(0, 6)
        v = [entry() for _ in monomial_basis(d)]
        want = poly(field, d, dict(zip(monomial_basis(d), v)))
        got = poly_from_vector(field, d, v)
        assert got == want and got.terms == want.terms
        assert all(type(c) is type(field.one) and c for _, c in got.terms)
    with pytest.raises(ValueError, match="wrong length"):
        poly_from_vector(field, 2, [1] * 5)
    with pytest.raises(ValueError, match=r"exponent \(2, 0, 1\) does not have degree 2"):
        poly(field, 2, {(2, 0, 1): 1})
    with pytest.raises(ValueError, match="degree must be non-negative"):
        poly(field, -1, {})


def test_form_strings():
    assert str(poly(QQ, 3, {})) == "0"
    assert str(poly(QQ, 0, {(0, 0, 0): Fraction(-3, 2)})) == "-3/2"
    assert str(poly(prime_field(7), 2, {(2, 0, 0): 1, (1, 1, 0): -1, (0, 0, 2): 3})) == (
        "x^2 + 6*x*y + 3*z^2")


# ---------------------------------------------------------------------------
# evaluation

def conic_circle():
    # x^2 + y^2 - z^2
    return poly(QQ, 2, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): -1})


def test_evaluate_point_on_conic():
    assert evaluate(conic_circle(), point(QQ, 3, 4, 5)) == 0


def test_evaluate_zero_factor():
    f = poly(QQ, 3, {(1, 1, 1): 1})
    assert evaluate(f, point(QQ, 1, 0, 1)) == 0


def test_evaluate_parameterized_conic_point():
    f = poly(QQ, 2, {(2, 0, 0): 1, (0, 1, 1): -1})  # x^2 - yz
    t = 2
    assert evaluate(f, point(QQ, t, 1, t * t)) == 0


def test_evaluate_field_mismatch():
    with pytest.raises(FieldMismatchError):
        evaluate(conic_circle(), point(prime_field(7), 1, 2, 3))


def test_evaluate_scale_invariance_on_normalization():
    rng = random.Random(5)
    for _ in range(25):
        f = rand_poly(QQ, 3, rng)
        a, b, c = rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(1, 9)
        lam = rng.choice([2, 3, -5, 7])
        assert point(QQ, a, b, c) == point(QQ, lam * a, lam * b, lam * c)
        assert evaluate(f, point(QQ, a, b, c)) == evaluate(
            f, point(QQ, lam * a, lam * b, lam * c)
        )


# ---------------------------------------------------------------------------
# derivatives

def test_partial_derivative_basic():
    f = poly(QQ, 3, {(3, 0, 0): 1})
    assert partial_derivative(f, 0) == poly(QQ, 2, {(2, 0, 0): 3})
    g = poly(QQ, 3, {(2, 0, 1): 1})
    assert partial_derivative(g, 1).is_zero()


def test_partial_derivative_char_3():
    F = prime_field(3)
    f = poly(F, 3, {(3, 0, 0): 1})
    assert partial_derivative(f, 0).is_zero()


def test_partial_derivative_degree_zero_rejected():
    with pytest.raises(ValueError):
        partial_derivative(poly(QQ, 0, {(0, 0, 0): 1}), 0)
    with pytest.raises(ValueError, match="variable index must be 0, 1 or 2"):
        partial_derivative(poly(QQ, 1, {(1, 0, 0): 1}), 3)


# ---------------------------------------------------------------------------
# order of vanishing

def test_order_two_lines_through_point():
    f = poly(QQ, 2, {(1, 1, 0): 1})  # x*y
    assert order_of_vanishing(f, point(QQ, 0, 0, 1)) == 2


def test_order_smooth_conic_point():
    assert order_of_vanishing(conic_circle(), point(QQ, 3, 4, 5)) == 1


def test_order_point_off_curve():
    f = poly(QQ, 3, {(3, 0, 0): 1, (0, 3, 0): 2, (0, 0, 3): 1, (1, 1, 1): 5})
    assert order_of_vanishing(f, point(QQ, 1, 1, 1)) == 0


def test_order_zero_poly_is_infinite():
    assert order_of_vanishing(poly(QQ, 4, {}), point(QQ, 1, 2, 3)) == math.inf


def brute_order_at_least(f, P, m):
    """Independent oracle: all partials of order m-1 vanish at P.

    Valid over QQ and over F_p with p > max(degree, m).
    """
    stack = [f]
    for _ in range(m - 1):
        nxt = []
        for g in stack:
            for v in range(3):
                nxt.append(partial_derivative(g, v))
        stack = nxt
    return all(g.is_zero() or evaluate(g, P) == g.field.zero for g in stack)


@pytest.mark.parametrize("field", [QQ, prime_field(101)])
def test_order_matches_derivative_conditions(field):
    rng = random.Random(17)
    checked = 0
    for _ in range(60):
        d = rng.randint(1, 6)
        f = rand_poly(field, d, rng)
        if f.is_zero():
            continue
        P = rand_point(field, rng)
        ord_direct = order_of_vanishing(f, P)
        for m in range(1, d + 1):
            assert (ord_direct >= m) == brute_order_at_least(f, P, m)
            checked += 1
    assert checked >= 100


def derivative_order(f, P):
    """Independent oracle: the least L at which some iterated partial of
    order L is nonzero at P, math.inf for the zero form.

    Valid over QQ and over F_p with p > degree.
    """
    level = {f}
    for L in range(f.degree + 1):
        if any(not g.is_zero() and evaluate(g, P) != g.field.zero for g in level):
            return L
        if L < f.degree:
            level = {partial_derivative(g, v) for g in level for v in range(3)}
    return math.inf


def _order_cases(field, rng):
    """Random forms, products of lines through P times a form off P (of
    known multiplicity), and zero forms, at points with and without a zero
    last coordinate."""
    for i in range(40):
        d = rng.randint(1, 5)
        P = rand_point(field, rng)
        if i % 4 == 0:
            P = point(field, rng.randint(1, 9), rng.randint(0, 9), 0)
        if i % 8 == 0:
            P = point(field, 1, 0, 0)
        yield rand_poly(field, d, rng), P, None
        yield poly(field, d, {}), P, math.inf
        k = rng.randint(0, d)
        while True:
            g = rand_poly(field, d - k, rng)
            if not g.is_zero() and evaluate(g, P) != field.zero:
                break
        f = g
        for _ in range(k):
            Q = P
            while Q == P:
                Q = rand_point(field, rng)
            f = f * line_form(line_through(P, Q))
        yield f, P, k


@pytest.mark.parametrize("field", [QQ, prime_field(101)])
def test_order_and_bounded_order_match_the_derivative_oracle(field):
    rng = random.Random(41)
    assert [x.name for x in fields(HomoPoly) if x.compare] == ["field", "degree", "terms"]
    for f, P, known in _order_cases(field, rng):
        order = derivative_order(f, P)
        if known is not None:
            assert order == known
        assert order_of_vanishing(f, P) == order
        for bound in range(f.degree + 3):
            assert order_of_vanishing(f, P, bound) == min(order, bound)


def test_order_is_additive_on_products():
    rng = random.Random(23)
    for _ in range(40):
        P = rand_point(QQ, rng)
        f = rand_poly(QQ, rng.randint(1, 3), rng)
        g = rand_poly(QQ, rng.randint(1, 3), rng)
        if f.is_zero() or g.is_zero():
            continue
        assert order_of_vanishing(f * g, P) == order_of_vanishing(
            f, P
        ) + order_of_vanishing(g, P)


def test_order_of_explicit_multiple_line():
    L = linear_form(QQ, (1, -1, 0))
    P = point(QQ, 1, 1, 2)
    assert order_of_vanishing(power(L, 4), P) == 4


# ---------------------------------------------------------------------------
# scalar arithmetic of forms and lines, over Q and over F_p

SCALAR_FIELDS = [QQ] + [prime_field(p) for p in (2, 3, 31, 2**31 - 1)]


@st.composite
def scalars(draw, field):
    """Fractions over Q; over F_p integers up to 2^62, which ``of`` reduces."""
    if field == QQ:
        return Fraction(draw(st.integers(-30, 30)), draw(st.integers(1, 6)))
    return draw(st.integers(-2**62, 2**62))


def triples(field):
    """Coordinate triples that are not zero in ``field``."""
    return st.tuples(*[scalars(field)] * 3).filter(lambda t: any(field.of(c) for c in t))


@st.composite
def forms(draw, field):
    d = draw(st.integers(0, 4))
    n = (d + 1) * (d + 2) // 2
    return poly_from_vector(field, d, draw(st.lists(scalars(field), min_size=n, max_size=n)))


SCALAR_SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)


@SCALAR_SETTINGS
@given(data=st.data(), field=st.sampled_from(SCALAR_FIELDS))
def test_products_and_euler_relation_hold_at_points(data, field):
    f, g = data.draw(forms(field)), data.draw(forms(field))
    P = point(field, data.draw(triples(field)))
    assert evaluate(f * g, P) == field.of(evaluate(f, P) * evaluate(g, P))
    if f.degree:
        grad = sum(x * evaluate(partial_derivative(f, i), P) for i, x in enumerate(P.coords))
        assert field.of(grad) == field.of(f.degree * evaluate(f, P))


@SCALAR_SETTINGS
@given(data=st.data(), field=st.sampled_from(SCALAR_FIELDS))
def test_lines_contain_their_points_and_meets(data, field):
    P, Q, R = (point(field, data.draw(triples(field))) for _ in range(3))
    if P != Q:
        L = line_through(P, Q)
        assert L.contains(P) and L.contains(Q)
        det = det3(P.integer_coords(), Q.integer_coords(), R.integer_coords())
        assert L.contains(R) == (field.of(det) == 0)
    L1, L2 = (Line.from_coeffs(field, data.draw(triples(field))) for _ in range(2))
    if L1 != L2:
        X = L1.intersect(L2)
        assert L1.contains(X) and L2.contains(X)
