"""Acceptance criteria, one test per criterion, exact tolerances throughout.

Each test prints a PASS/FAIL line (visible with -s or on failure).  All
values are integer equalities; there is no floating point anywhere.

Criterion 5 documents a known red cell: for the twelve dual-Hesse points
the computed alpha(3Z) is 9 (the nine configuration lines are an explicit
degree-9 witness with triple points everywhere, and degree 8 has full
rank), while the literature table for that example claims 10, a value
belonging to the triple points of a general irreducible degree-10 curve
that no generator here constructs.  The criterion is asserted as stated
and fails on that single cell; see the registry row notes.
"""

import functools
import operator
import random

import pytest

from helpers import enumeration_dimension
from fatpoints.algebra import (
    QQ,
    CharacteristicTooSmallError,
    evaluate,
    linear_form,
    monomial_basis,
    order_of_vanishing,
    partial_derivative,
    point,
    poly,
    prime_field,
)
from fatpoints.analysis import (
    EXCEPTION,
    INCONSISTENT,
    check_double_unit_step_collinear,
    check_minimal_gap_collinear,
    check_uniform_step_two_conic,
    check_unit_step_arrangement,
    conjecture_search,
    repro,
)
from fatpoints.configs import (
    collinear,
    dual_hesse,
    dual_hesse_lines,
    general,
    on_conic,
    rational_nodal_nodes,
    star,
    star_minus_one,
    two_nodal_union,
    type9,
)
from fatpoints.linsys import (
    ExactRational,
    FatPointScheme,
    MultiPrime,
    alpha,
    alpha_diff,
    alpha_sequence,
    expected_dim,
    kernel_basis,
    system_dim,
)
from fatpoints.serialize import dump_json

CERTIFIED = ("expected_dim", "kernel", "rank")


def announce(n, passed, detail=""):
    flag = "PASS" if passed else "FAIL"
    print(f"[acceptance] criterion {n}: {flag} {detail}")


def assert_repro(example_id):
    rep = repro(example_id)
    bad = [c for c in rep.cells if not c.passed]
    assert not bad, f"{example_id}: " + "; ".join(
        f"{c.name} expected {c.expected} got {c.computed}" for c in bad
    )
    return rep


def test_criterion_01_three_general_points():
    pts = general(3, seed=11, height=12)
    rep = alpha_sequence(pts, 8, certify_existence=True)
    assert rep.alphas == (2, 3, 5, 6, 8, 9, 11, 12)
    # existence sides: positive count or explicit kernel; the degrees below
    # each value carry full-rank witnesses by construction of the search
    assert all(e["existence_certified"] in CERTIFIED for e in rep.entries)
    assert_repro("ex-3general")
    announce(1, True, str(rep.alphas))


def test_criterion_02_six_conic_points():
    pts = on_conic(6)
    rep = alpha_sequence(pts, 6, certify_existence=True)
    assert rep.alphas == (2, 4, 6, 8, 10, 12)
    assert all(e["existence_certified"] in CERTIFIED for e in rep.entries)
    assert_repro("ex-conic6")
    announce(2, True, str(rep.alphas))


def test_criterion_03_six_general_points():
    pts = general(6, seed=42)
    rep = alpha_sequence(pts, 5, certify_existence=True)
    assert rep.alphas[2:] == (8, 10, 12)
    # settle alpha(2Z) exactly: full rank at 4 over the rationals, positive
    # dimension count at 5
    two = FatPointScheme.uniform(pts, 2)
    assert system_dim(two, 4, strategy=ExactRational()).actual_dim == 0
    assert expected_dim(two, 5) == 3 > 0
    assert rep.alphas[1] == 5
    assert_repro("ex-6general")
    announce(3, True, f"alphas {rep.alphas}, alpha(2Z) settled = 5")


def test_criterion_04_type9():
    rep = assert_repro("ex-type9")
    values = [c.computed for c in rep.cells if c.name.startswith("alpha")]
    assert values == [3, 5, 7, 9, 12]
    announce(4, True, str(values))


def test_criterion_05_dual_hesse():
    failures = []
    for eid in ("ex-dualhesse-p31", "ex-dualhesse-p13"):
        rep = repro(eid)
        for c in rep.cells:
            if not c.passed:
                failures.append(f"{eid}/{c.name}: expected {c.expected}, got {c.computed}")
    announce(5, not failures, "; ".join(failures))
    if failures:
        pytest.fail(
            "dual-Hesse literature cells differ from the exact computation: "
            + "; ".join(failures)
            + ".  The nine configuration lines form an explicit degree-9 "
            "divisor with order exactly 3 at all twelve points, so "
            "alpha(3Z) = 9 for this configuration; the claimed 10 belongs "
            "to a non-constructive deformation (see registry notes and the "
            "ex-dualhesse-*-faithful rows, which pass)."
        )


def test_criterion_05_dual_hesse_faithful_companions():
    assert_repro("ex-dualhesse-p31-faithful")
    assert_repro("ex-dualhesse-p13-faithful")
    announce("5b", True, "computed dual-Hesse table (4, 8, 9) on both primes")


@pytest.mark.parametrize("p", [13, 31])
def test_criterion_05_red_cell_reason(p):
    # why criterion 5 stays red: the triple dual-Hesse scheme has the one
    # degree-9 form (x^3 - y^3)(y^3 - z^3)(z^3 - x^3), minus the product of
    # the nine configuration lines, and nothing in degree 8
    F = prime_field(p)
    scheme = FatPointScheme.uniform(dual_hesse(p), 3)
    x3, y3, z3 = (3, 0, 0), (0, 3, 0), (0, 0, 3)
    cube_difference = lambda m, n: poly(F, 3, {m: 1, n: -1})
    form = cube_difference(x3, y3) * cube_difference(y3, z3) * cube_difference(z3, x3)
    assert kernel_basis(scheme, 9) == [form]
    lines = functools.reduce(operator.mul, (linear_form(F, L.coeffs)
                                            for L in dual_hesse_lines(p)))
    assert lines * poly(F, 0, {(0, 0, 0): -1}) == form  # the lines x - w^c z give x^3 - z^3
    assert system_dim(scheme, 8).actual_dim == 0


def test_criterion_06_stars():
    for p, eid in ((3, "ex-star3"), (4, "ex-star4"), (5, "ex-star5")):
        assert_repro(eid)
        pts, _ = star(p, seed=1)
        assert alpha_diff(pts, (2,) * len(pts), (1,) * len(pts)) == 1
    announce(6, True, "p = 3, 4, 5")


def test_criterion_07_lines_minus_one():
    for d, eid in ((4, "ex-minusone4"), (5, "ex-minusone5")):
        assert_repro(eid)
        pts = star_minus_one(d, seed=1)
        rep = alpha_sequence(pts, 2, certify_existence=True)
        assert rep.alphas == (d - 2, d)
    announce(7, True, "d = 4, 5")


def test_criterion_08_nagata_sixteen():
    pts = general(16, seed=7)
    rep = alpha_sequence(pts, 4, certify_existence=True)
    assert rep.alphas == (5, 9, 13, 17)
    for k in (1, 2):
        scheme = FatPointScheme.uniform(pts, k)
        exact = system_dim(scheme, 4 * k, strategy=ExactRational())
        assert exact.actual_dim == 0 and exact.rank == exact.ncols
    for k in (3, 4):
        scheme = FatPointScheme.uniform(pts, k)
        modular = system_dim(scheme, 4 * k, strategy=MultiPrime(3))
        assert modular.actual_dim == 0 and modular.certification == "MULTI_PRIME(3)"
        assert len(modular.primes) == 3
        # existence at 4k + 1 by counting
        assert expected_dim(scheme, 4 * k + 1) > 0
    # the uniform gap between consecutive levels is 4 at every step
    assert alpha_diff(pts, (2,) * 16, (1,) * 16) == 4
    assert_repro("ex-nagata16")
    announce(8, True, str(rep.alphas))


# ---------------------------------------------------------------------------
# criterion 9: property suites, each with at least 100 seeded cases

def _random_scheme(rng, max_r=5, max_m=3, height=60):
    r = rng.randint(1, max_r)
    pts = []
    while len(pts) < r:
        q = point(QQ, rng.randint(-height, height), rng.randint(-height, height), 1)
        if q not in pts:
            pts.append(q)
    mults = tuple(rng.randint(1, max_m) for _ in range(r))
    return FatPointScheme(tuple(pts), mults)


def test_criterion_09a_strict_growth():
    cases = 0
    for seed in range(100):
        r = 2 + seed % 5
        pts = general(r, seed=90000 + seed, height=999)
        rep = alpha_sequence(pts, 4)
        assert all(d >= 1 for d in rep.diffs)
        cases += 1
    assert cases >= 100
    announce("9a", True, f"{cases} configurations, growth strict")


def test_criterion_09b_subadditivity():
    rng = random.Random(91)
    cases = 0
    while cases < 102:
        r = rng.randint(2, 5)
        pts = general(r, seed=91000 + cases, height=999)
        m = rng.randint(1, 3)
        n = rng.randint(1, 3)
        am = alpha(FatPointScheme.uniform(pts, m))
        an = alpha(FatPointScheme.uniform(pts, n))
        amn = alpha(FatPointScheme.uniform(pts, m + n))
        assert amn <= am + an
        cases += 1
    announce("9b", True, f"{cases} cases")


def test_criterion_09c_gap_lower_bound():
    cases = 0
    for i in range(25):
        r = 2 + i % 5
        pts = general(r, seed=92000 + i, height=999)
        rep = alpha_sequence(pts, 6)
        for k in range(2, 7):
            assert rep.alphas[k - 1] - rep.alphas[0] >= k - 1
            cases += 1
    assert cases >= 100
    announce("9c", True, f"{cases} cases")


def test_criterion_09d_superabundance_exact():
    rng = random.Random(93)
    cases = 0
    while cases < 100:
        scheme = _random_scheme(rng)
        for d in range(1, 5):
            rep = system_dim(scheme, d, strategy=ExactRational())
            assert rep.superabundance >= 0
            assert rep.actual_dim >= max(rep.expected_dim, 0)
            cases += 1
    announce("9d", True, f"{cases} cases at EXACT_RATIONAL")


def test_criterion_09e_enumeration_oracle_small_fields():
    rng = random.Random(94)
    cells = [(2, 1, 25), (2, 2, 20), (2, 3, 15), (3, 1, 20), (3, 2, 15), (3, 3, 5)]
    cases = 0
    for q, d, count in cells:
        F = prime_field(q)
        plane = [point(F, a, b, 1) for a in range(q) for b in range(q)]
        plane += [point(F, a, 1, 0) for a in range(q)] + [point(F, 1, 0, 0)]
        for _ in range(count):
            r = rng.randint(1, 3)
            pts = tuple(rng.sample(plane, r))
            mults = (1,) * r
            brute = enumeration_dimension(pts, mults, d, sample_checks=6, rng=rng)
            rep = system_dim(FatPointScheme(pts, mults), d)
            assert rep.actual_dim == brute
            cases += 1
    assert cases >= 100
    # multiplicities >= 2 over such small fields are refused, not miscomputed
    with pytest.raises(CharacteristicTooSmallError):
        system_dim(FatPointScheme((point(prime_field(3), 1, 1, 1),), (2,)), 3)
    announce("9e", True, f"{cases} schemes vs brute-force enumeration")


def test_criterion_09f_order_matches_derivative_conditions():
    rng = random.Random(95)
    F = prime_field(101)
    cases = 0
    while cases < 100:
        fld = QQ if cases % 2 else F
        d = rng.randint(1, 6)
        coeffs = {}
        for mono in monomial_basis(d):
            if rng.random() < 0.6:
                coeffs[mono] = (rng.randint(-9, 9) if fld == QQ
                                else rng.randrange(101))
        f = poly(fld, d, coeffs)
        if f.is_zero():
            continue
        if fld == QQ:
            P = point(fld, rng.randint(-9, 9), rng.randint(-9, 9), 1)
        else:
            P = point(fld, rng.randrange(101), rng.randrange(101), 1)
        m = rng.randint(1, d)
        stack = [f]
        for _ in range(m - 1):
            stack = [partial_derivative(g, v) for g in stack for v in range(3)]
        brute = all(g.is_zero() or evaluate(g, P) == fld.zero for g in stack)
        assert (order_of_vanishing(f, P) >= m) == brute
        cases += 1
    announce("9f", True, f"{cases} cases, both fields")


# ---------------------------------------------------------------------------
# criterion 10: checker self-consistency

def _run_checkers(pts, alphas, counters):
    for k in (3, 4, 5):
        v = check_minimal_gap_collinear(pts, k, alphas=alphas)
        counters[v.status] = counters.get(v.status, 0) + 1
    for k in (2, 3, 4, 5):
        v = check_unit_step_arrangement(pts, k, alphas=alphas)
        counters[v.status] = counters.get(v.status, 0) + 1
    for k in (3, 4, 5):
        v = check_double_unit_step_collinear(pts, k, alphas=alphas)
        counters[v.status] = counters.get(v.status, 0) + 1
    for km in (4, 5):
        v = check_uniform_step_two_conic(pts, km, alphas=alphas)
        counters[v.status] = counters.get(v.status, 0) + 1


def test_criterion_10_theorem_self_consistency():
    counters = {}
    families = [
        collinear(4),
        collinear(6),
        on_conic(6),
        on_conic(8),
        star(3, seed=1)[0],
        star(4, seed=1)[0],
        star(5, seed=1)[0],
        star_minus_one(4, seed=1),
        star_minus_one(5, seed=1),
        general(6, seed=42),
        general(16, seed=7),
        dual_hesse(31),
        rational_nodal_nodes(5, 37, 986)[1],
        two_nodal_union(2, 2, 31, 1),
    ]
    for pts in families:
        rep = alpha_sequence(pts, 5)
        _run_checkers(pts, rep.alphas, counters)
    # the type-9 exception registers exactly as documented
    t9 = type9()
    rep9 = alpha_sequence(t9, 5)
    v = check_uniform_step_two_conic(t9, 4, alphas=rep9.alphas)
    assert v.status == EXCEPTION
    _run_checkers(t9, rep9.alphas, counters)
    counters.pop(EXCEPTION, None)

    for i in range(500):
        r = 3 + i % 6
        pts = general(r, seed=70000 + i, height=999)
        rep = alpha_sequence(pts, 5)
        _run_checkers(pts, rep.alphas, counters)
    assert counters.get(INCONSISTENT, 0) == 0, counters
    announce(10, True, f"status counts {counters}")


def test_criterion_11_conjecture_harness():
    a = conjecture_search(trials=200, r_range=(4, 9), k=5, seed=1)
    assert len(a.hypothesis_true) > 0
    assert a.inconsistent == ()
    for rec in a.hypothesis_true:
        assert rec["conic"] is True
    b = conjecture_search(trials=200, r_range=(4, 9), k=5, seed=1)
    assert dump_json(a.to_json_dict()) == dump_json(b.to_json_dict())
    announce(11, True,
             f"{len(a.hypothesis_true)} hypothesis-true instances, "
             "0 inconsistent, artifact byte-reproducible")
