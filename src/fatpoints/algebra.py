"""Exact coefficient fields, projective points, and homogeneous ternary forms.

Everything here is immutable and pure: scalars are ``fractions.Fraction``
over the rationals or plain residues over a prime field, computed with
Python's operators and reduced by the field's ``of``; points are
normalized coordinate triples, and polynomials are sorted term tuples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache
from typing import Optional


class AlgebraError(Exception):
    """Base class for algebraic precondition failures."""


class FieldMismatchError(AlgebraError):
    """Operands live over different coefficient fields."""


class CharacteristicTooSmallError(AlgebraError):
    """A derivative-based condition is unreliable at this characteristic."""


class ReductionError(AlgebraError):
    """A value has no image in the requested prime field, or two points merge."""


# ---------------------------------------------------------------------------
# primality (deterministic Miller-Rabin, valid for all 64-bit inputs)

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def random_prime_31(rng) -> int:
    """Draw a random 31-bit prime from a seeded ``random.Random``."""
    while True:
        c = rng.randrange(1 << 30, 1 << 31) | 1
        if is_prime(c):
            return c


# ---------------------------------------------------------------------------
# coefficient fields

# Python refuses int <-> str conversions past a process-wide number of digits,
# never below 640; the decimal module converts exactly past it.
_BIG = 10**600


@dataclass(frozen=True, repr=False)
class RationalField:
    """The rationals; scalars are ``Fraction`` (always in lowest terms)."""

    p = None  # no modulus; a class attribute, not a dataclass field
    zero = Fraction(0)
    one = Fraction(1)

    def of(self, v) -> Fraction:
        if type(v) is Fraction:  # immutable and in lowest terms already
            return v
        short = not isinstance(v, str) or len(v) <= 600
        try:
            if short:
                return Fraction(v)
            num, slash, den = v.strip().partition("/")  # "n" or "n/d"
            if not num.removeprefix("-").isdecimal() or slash and not den.isdecimal():
                raise ValueError(f"invalid fraction string of {len(v)} characters")
            return Fraction(int(Decimal(num)), int(Decimal(den)) if slash else 1)
        except ZeroDivisionError:
            name = repr(v) if short else f"a fraction string of {len(v)} characters"
            raise ValueError(f"zero denominator in {name}") from None

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero in QQ")
        return 1 / Fraction(a)

    def format(self, a) -> str:
        a = a if isinstance(a, Fraction) else Fraction(a)
        if -_BIG < a.numerator < _BIG and a.denominator < _BIG:
            return str(a)
        return f"{Decimal(a.numerator)}/{Decimal(a.denominator)}".removesuffix("/1")

    def __repr__(self):
        return "QQ"


QQ = RationalField()


@dataclass(frozen=True)
class PrimeField:
    """The field with ``p`` elements; scalars are residues in ``[0, p)``."""

    p: int
    zero = 0
    one = 1

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")

    def of(self, v) -> int:
        if isinstance(v, str):
            v = QQ.of(v)
        if isinstance(v, Fraction):
            den = v.denominator % self.p
            if den == 0:
                raise ReductionError(f"denominator of {v} vanishes mod {self.p}")
            return v.numerator * pow(den, -1, self.p) % self.p
        return int(v) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError(f"inverse of zero in F_{self.p}")
        return pow(a, -1, self.p)

    def format(self, a) -> str:
        return str(a % self.p)

    def __repr__(self):
        return f"F_{self.p}"


def prime_field(p: int) -> PrimeField:
    return PrimeField(p)


def field_from_string(s: str):
    """Parse a field tag: ``"rational"`` or ``"prime:P"``."""
    s = s.strip()
    if s in ("rational", "QQ", "Q"):
        return QQ
    if s.startswith("prime:"):
        return PrimeField(int(s.split(":", 1)[1]))
    raise ValueError(f"unknown field tag {s!r}")


def field_to_string(field) -> str:
    if field == QQ:
        return "rational"
    return f"prime:{field.p}"


def check_same_field(a, b):
    if a != b:
        raise FieldMismatchError(f"field mismatch: {a!r} vs {b!r}")


# ---------------------------------------------------------------------------
# projective points

@dataclass(frozen=True)
class ProjectivePoint:
    """A point of P^2 stored by its canonical representative.

    The representative is scaled so that the last nonzero coordinate is 1,
    which makes equality and hashing coincide with projective equality.
    """

    field: object
    coords: tuple
    # memos of hash, coord_strings and integer_coords: not compared, so
    # equality ignores them
    _hash: Optional[int] = dataclass_field(default=None, init=False, repr=False, compare=False)
    _text: Optional[tuple] = dataclass_field(default=None, init=False, repr=False, compare=False)
    _ints: Optional[tuple] = dataclass_field(default=None, init=False, repr=False, compare=False)

    def __hash__(self):
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.field, self.coords)))
        return self._hash

    def __repr__(self):
        return "(" + " : ".join(self.coord_strings()) + ")"

    def coord_strings(self) -> tuple:
        """The coordinates as the field formats them, as in every artifact."""
        if self._text is None:
            object.__setattr__(self, "_text", tuple(map(self.field.format, self.coords)))
        return self._text

    def integer_coords(self) -> tuple:
        """A primitive scaled representative with integer entries.

        Over the rationals the normalized coordinates are cleared of
        denominators and divided by their gcd; the last nonzero entry stays
        positive.  Over a prime field the residues are returned unchanged.
        """
        if self._ints is None:
            if self.field == QQ:
                den = math.lcm(*(c.denominator for c in self.coords))
                ints = [int(c * den) for c in self.coords]
                g = math.gcd(*ints)
                ints = tuple(v // g for v in ints)
            else:
                ints = tuple(int(c) for c in self.coords)
            object.__setattr__(self, "_ints", ints)
        return self._ints


def point(field, a, b=None, c=None) -> ProjectivePoint:
    """Build a normalized projective point from three coordinates.

    Accepts ``point(field, (a, b, c))`` or ``point(field, a, b, c)``.
    """
    if b is None and c is None:
        a, b, c = a
    coords = (field.of(a), field.of(b), field.of(c))
    last = None
    for j in (2, 1, 0):
        if coords[j] != field.zero:
            last = j
            break
    if last is None:
        raise ValueError("(0 : 0 : 0) is not a projective point")
    if coords[last] == field.one:  # normalized already
        return ProjectivePoint(field, coords)
    inv = field.inv(coords[last])
    return ProjectivePoint(field, tuple(field.of(x * inv) for x in coords))


def reduce_points(points, field) -> tuple:
    """The points reduced into a prime field through their primitive integer
    representatives, so every rational point has an image.  A reduction
    that merges two points is refused with ReductionError."""
    images = {}
    for P in points:
        R = point(field, P.integer_coords())
        if R in images:
            raise ReductionError(
                f"reduction mod {field.p} merges {images[R]!r} and {P!r} into {R!r}"
            )
        images[R] = P
    return tuple(images)


def det3(a, b, c):
    """The determinant of the 3x3 matrix with rows ``a``, ``b``, ``c``: zero
    exactly when the points of P^2 with these coordinates are collinear."""
    return (a[0] * (b[1] * c[2] - b[2] * c[1]) - a[1] * (b[0] * c[2] - b[2] * c[0])
            + a[2] * (b[0] * c[1] - b[1] * c[0]))


# ---------------------------------------------------------------------------
# homogeneous polynomials in x, y, z

@lru_cache(maxsize=None)
def monomial_basis(d: int) -> tuple:
    """Exponent triples of degree ``d`` in graded lexicographic order, x > y > z.

    The list has C(d+2, 2) entries starting at ``(d, 0, 0)`` and ending at
    ``(0, 0, d)``; the order is fixed so kernels and reports are reproducible.
    """
    if d < 0:
        raise ValueError("degree must be non-negative")
    return tuple(
        (a, b, d - a - b) for a in range(d, -1, -1) for b in range(d - a, -1, -1)
    )


_VARS = ("x", "y", "z")


@dataclass(frozen=True)
class HomoPoly:
    """A homogeneous ternary form: sorted nonzero terms of one degree.

    The zero form is the empty term tuple (of whatever declared degree).
    """

    field: object
    degree: int
    terms: tuple  # ((a, b, c), coefficient), graded-lex sorted
    # memo of integer_terms: not compared, so equality ignores it
    _ints: Optional[tuple] = dataclass_field(default=None, init=False, repr=False, compare=False)

    def is_zero(self) -> bool:
        return not self.terms

    def integer_terms(self) -> tuple:
        """The terms scaled by the lcm of their denominators (residues stay)."""
        if self._ints is None:
            den = math.lcm(*(c.denominator for _, c in self.terms))
            ints = tuple((m, c.numerator * (den // c.denominator)) for m, c in self.terms)
            object.__setattr__(self, "_ints", ints)
        return self._ints

    def __mul__(self, other):
        check_same_field(self.field, other.field)
        acc = {}
        for m1, c1 in self.terms:
            for m2, c2 in other.terms:
                m = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2])
                acc[m] = acc.get(m, 0) + c1 * c2
        return poly(self.field, self.degree + other.degree, acc)

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for m, c in self.terms:
            mono = "*".join(
                v if e == 1 else f"{v}^{e}"
                for v, e in zip(_VARS, m)
                if e
            )
            cs = self.field.format(c)
            if mono:
                parts.append(mono if cs == "1" else f"-{mono}" if cs == "-1" else f"{cs}*{mono}")
            else:
                parts.append(cs)
        return " + ".join(parts).replace("+ -", "- ")


def poly(field, degree: int, coeffs: dict) -> HomoPoly:
    """Build a form of the stated degree from an exponent-to-coefficient map."""
    if degree < 0:
        raise ValueError("degree must be non-negative")
    cleaned = {}
    for m, c in coeffs.items():
        m = tuple(int(e) for e in m)
        if len(m) != 3 or any(e < 0 for e in m) or sum(m) != degree:
            raise ValueError(f"exponent {m} does not have degree {degree}")
        c = field.of(c)
        if c != field.zero:
            cleaned[m] = c
    terms = tuple(sorted(cleaned.items(), key=lambda t: t[0], reverse=True))
    return HomoPoly(field, degree, terms)


def linear_form(field, coeffs) -> HomoPoly:
    a, b, c = coeffs
    return poly(field, 1, {(1, 0, 0): a, (0, 1, 0): b, (0, 0, 1): c})


def poly_from_vector(field, degree: int, vector) -> HomoPoly:
    """A form from its coefficients against ``monomial_basis(degree)``, in
    ``poly``'s term order already; scalars only of the nonzero entries."""
    mons = monomial_basis(degree)
    if len(vector) != len(mons):
        raise ValueError("coefficient vector has wrong length")
    terms = ((m, field.of(c)) for m, c in zip(mons, vector) if c)
    return HomoPoly(field, degree, tuple(t for t in terms if t[1]))


def evaluate(f: HomoPoly, P: ProjectivePoint):
    """Evaluate ``f`` at the normalized representative of ``P``."""
    check_same_field(f.field, P.field)
    x, y, z = P.coords
    return f.field.of(sum(coef * x**a * y**b * z**c for (a, b, c), coef in f.terms))


def partial_derivative(f: HomoPoly, var: int) -> HomoPoly:
    """Formal partial derivative with respect to variable 0, 1 or 2.

    Over F_p coefficients pick up the exponent mod p, so terms can vanish;
    e.g. d/dx of x^3 is the zero form over F_3.
    """
    if f.degree < 1:
        raise ValueError("cannot differentiate a degree-0 form")
    if var not in (0, 1, 2):
        raise ValueError("variable index must be 0, 1 or 2")
    acc = {}
    for m, c in f.terms:
        e = m[var]
        if e == 0:
            continue
        new = list(m)
        new[var] = e - 1
        acc[tuple(new)] = c * e
    return poly(f.field, f.degree - 1, acc)


# ---------------------------------------------------------------------------
# order of vanishing from Taylor coefficients

def order_of_vanishing(f: HomoPoly, P: ProjectivePoint, bound: Optional[int] = None):
    """Multiplicity of ``f`` at ``P``, ``math.inf`` for the zero form, or
    min(multiplicity, ``bound``), which sums only the levels below it.

    Write P's integer representative as (A, B, C) in the coordinate order
    k, l, j, where j is its last nonzero coordinate.  The multiplicity is
    the least total degree u + v of a term of f(A + Cs, B + Ct, C), whose
    coefficient of s^u t^v is C^(u+v) times the Hasse derivative sum_a
    C(a, u) A^(a-u) T[a][v], T[a][v] = sum_b f_abc C^c C(b, v) B^(b-v).
    Binomials rather than iterated derivatives keep the check valid in
    every characteristic.
    """
    check_same_field(f.field, P.field)
    (k, l, j), AA, BB, CC = _hasse_tables(P, f.degree)
    rows = {}
    for m, c in f.integer_terms():
        rows.setdefault(m[k], []).append((BB[m[l]], c * CC[m[j]]))
    T = {a: [] for a in rows}
    top = f.degree + 1 if bound is None else min(bound, f.degree + 1)
    for level in range(top):
        for a, terms in rows.items():
            T[a].append(sum(c * Bb[level] for Bb, c in terms))
        for u in range(level + 1):
            if f.field.of(sum(AA[a][u] * T[a][level - u] for a in rows)):
                return level
    return math.inf if bound is None else bound


@lru_cache(maxsize=16)
def _hasse_tables(P: ProjectivePoint, d: int):
    """The axes (k, l, j) of ``order_of_vanishing`` at P and, to degree d,
    C(a, u) A^(a-u) and C(b, v) B^(b-v) (0 for u > a, v > b) and C^c; the
    cache shares them, so callers only read them."""
    coords = P.integer_coords()
    j = max(i for i in range(3) if coords[i])
    k, l = (i for i in range(3) if i != j)
    A, B, C = coords[k], coords[l], coords[j]
    AA, BB = ([[math.comb(a, u) * X ** (a - u) if u <= a else 0 for u in range(d + 1)]
               for a in range(d + 1)] for X in (A, B))
    return (k, l, j), AA, BB, [C ** c for c in range(d + 1)]
