"""Property tests: decided alpha searches against independent oracles.

* the decision path of ``alpha_search`` against a climb over full
  ``system_dim`` reports with the same strategy, with and without a cache;
* alpha is invariant under point permutations and under invertible integer
  linear transforms of the points;
* alpha sequences satisfy the Chudnovsky bound alpha(kZ) >= k (alpha(Z) + 1) / 2;
* a report survives its canonical JSON round trip, kernel included;
* the rank of a condition matrix modulo any prime is at most its exact rank,
  and the framed rank-only elimination gives that same rank, also for
  schemes over F_p at their own prime;
* exact ranks and kernels, framed or not, equal Bareiss's rank and
  ``rational_nullspace`` of the unframed condition matrix;
* ``order_of_vanishing`` agrees with the recentering oracle of ``helpers``
  over Q and over F_p for p = 2, 3, 5, 31 and 2^31 - 1;
* ``detect_line_arrangement`` finds a witness exactly when the subset
  enumeration of ``helpers`` does, on pools of at most 12 candidate lines
  and on random parts of them, and every witness it returns is one;
* the condition-matrix plane scan ``plane_points_where`` agrees with the
  per-point ``evaluate`` scan of ``helpers``, and so do ``dual_hesse``,
  built from its lines' meets, and ``two_nodal_union``, which checks the
  product of its curves through the factors, with the scan of the product.
"""

import json
from fractions import Fraction
from math import comb

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from fatpoints import configs, linsys  # noqa: E402
from fatpoints.algebra import (  # noqa: E402
    QQ,
    det3,
    evaluate,
    linear_form,
    monomial_basis,
    order_of_vanishing,
    point,
    poly_from_vector,
    prime_field,
)
from fatpoints.cache import ResultCache  # noqa: E402
from fatpoints.configs import (  # noqa: E402
    collinear,
    dual_hesse,
    dual_hesse_lines,
    general,
    on_conic,
    rational_nodal_nodes,
    two_nodal_union,
)
from fatpoints.geometry import detect_line_arrangement, plane_points_where  # noqa: E402
from fatpoints.linsys import (  # noqa: E402
    ExactRational,
    FatPointScheme,
    MultiPrime,
    SinglePrime,
    _rank_mod_p,
    alpha_search,
    alpha_sequence,
    bareiss_echelon,
    build_condition_matrix,
    condition_matrix_mod_p,
    modp_rref,
    rational_nullspace,
    report_from_json_dict,
    system_dim,
)
from fatpoints.serialize import dump_json  # noqa: E402
from helpers import (  # noqa: E402
    arrangement_by_subsets,
    arrangement_pool,
    arrangement_sources,
    coeff,
    common_zeros_by_evaluation,
    power,
    product_scan_points,
    recentered_at,
    recentered_order,
    scan_plane,
    singular_points_by_evaluation,
)

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)

coordinate = st.integers(-30, 30)


@st.composite
def point_sets(draw, max_points=7, field=QQ, first=coordinate):
    """Distinct points nonzero in ``field``: first coordinates drawn from
    ``first``, the others of height at most 30."""
    triples = draw(st.lists(st.tuples(first, coordinate, coordinate)
                            .filter(lambda t: any(field.of(c) for c in t)),
                            min_size=1, max_size=max_points))
    return tuple(dict.fromkeys(point(field, *t) for t in triples))


@st.composite
def schemes(draw, field=QQ, first=coordinate):
    pts = draw(point_sets(field=field, first=first))
    mults = draw(st.lists(st.integers(0, 4), min_size=len(pts), max_size=len(pts))
                 .filter(any))
    return FatPointScheme(pts, tuple(mults))


search_strategies = st.sampled_from([MultiPrime(2), SinglePrime(), ExactRational()])


def climb(scheme, strategy, certify, cache):
    """alpha_search as it stood before the decision path: a full report
    at every degree."""
    d = max(scheme.max_multiplicity, 1)
    while True:
        report = system_dim(scheme, d, strategy=strategy, cache=cache)
        if report.actual_dim >= 1:
            if report.existence_certified is None and certify:
                exact = system_dim(scheme, d, strategy=ExactRational(),
                                   want_kernel=True, cache=cache)
                if exact.actual_dim >= 1:
                    return d, exact.existence_certified, exact.certification
            else:
                return d, report.existence_certified, report.certification
        d += 1


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("cache")


@SETTINGS
@given(scheme=schemes(), strategy=search_strategies, certify=st.booleans())
def test_decided_alpha_matches_the_report_climb(cache_dir, scheme, strategy, certify):
    want = climb(scheme, strategy, certify, None)
    for cache in (None, ResultCache(cache_dir)):
        av = alpha_search(scheme, strategy, certify, cache=cache)
        assert (av.value, av.existence, av.certification) == want
        assert av.reports[-1][0] == av.value


def transformed(points, matrix):
    return tuple(
        point(QQ, *(sum(a * c for a, c in zip(row, P.integer_coords())) for row in matrix))
        for P in points
    )


invertible = (st.lists(st.lists(st.integers(-3, 3), min_size=3, max_size=3),
                       min_size=3, max_size=3).filter(lambda m: det3(*m)))


@SETTINGS
@given(scheme=schemes(), matrix=invertible, data=st.data())
def test_alpha_is_projectively_invariant(scheme, matrix, data):
    want = alpha_search(scheme, certify_existence=True).value
    order = data.draw(st.permutations(range(len(scheme.points))))
    permuted = FatPointScheme(tuple(scheme.points[i] for i in order),
                              tuple(scheme.multiplicities[i] for i in order))
    assert alpha_search(permuted, certify_existence=True).value == want
    moved = FatPointScheme(transformed(scheme.points, matrix), scheme.multiplicities)
    assert alpha_search(moved, certify_existence=True).value == want


@SETTINGS
@given(points=point_sets(), k_max=st.integers(2, 4))
def test_alpha_sequence_meets_the_chudnovsky_bound(points, k_max):
    alphas = alpha_sequence(points, k_max, certify_existence=True).alphas
    for k, a in enumerate(alphas, start=1):
        assert 2 * a >= k * (alphas[0] + 1)


@SETTINGS
@given(data=st.data(), field=st.sampled_from([QQ, prime_field(31)]),
       d=st.integers(0, 6), want_kernel=st.booleans())
def test_report_survives_its_json_round_trip(data, field, d, want_kernel):
    scheme = data.draw(schemes(field))
    report = system_dim(scheme, d, strategy=ExactRational(), want_kernel=want_kernel)
    assert (report.kernel is not None) == want_kernel
    blob = dump_json(report.to_json_dict())
    assert report_from_json_dict(json.loads(blob), field) == report


@st.composite
def collinear_schemes(draw):
    """Schemes with x in 210 Z, so on the line x = 0 modulo 2, 3, 5 and 7
    (and over Q when every x is 0), moved by an invertible integer matrix."""
    scheme = draw(schemes(first=st.integers(-1, 1).map(lambda t: 210 * t)))
    return FatPointScheme(transformed(scheme.points, draw(invertible)),
                          scheme.multiplicities)


@SETTINGS
@given(scheme=st.one_of(schemes(), collinear_schemes()), d=st.integers(0, 9),
       p=st.sampled_from([2, 3, 5, 7, 31, 2**31 - 1]))
def test_modular_rank_is_at_most_exact_rank(scheme, d, p):
    exact = bareiss_echelon(build_condition_matrix(scheme, d).tolist())[0]
    A = condition_matrix_mod_p(scheme, d, p)
    rank = modp_rref(A, p)[0]
    assert rank <= exact
    assert _rank_mod_p(scheme, d, p) == (rank, len(A))


@st.composite
def prime_field_systems(draw):
    """(scheme over F_p, d) that ``_check_system`` accepts, p from 2 to 31:
    simple points in any degree up to 9, or multiplicities up to 4 with
    p > d.  Points (t : -t : 1) lie on x + y = 0 mod p, and their residues
    (0, 0) and (t, p - t) are not collinear over Z, so p divides the det of
    some frames."""
    p = draw(st.sampled_from([2, 3, 5, 7, 13, 31]))
    field = prime_field(p)
    on_line = coordinate.map(lambda t: (t, -t, 1))
    triples = draw(st.lists(st.one_of(st.tuples(coordinate, coordinate, coordinate),
                                      on_line).filter(lambda t: any(map(field.of, t))),
                            min_size=3, max_size=7))
    pts = tuple(dict.fromkeys(point(field, *t) for t in triples))
    top = 1 if p == 2 or draw(st.booleans()) else min(4, p - 1)
    mults = draw(st.lists(st.integers(1, top), min_size=len(pts), max_size=len(pts)))
    d = draw(st.integers(0, 9 if top == 1 else min(9, p - 1)))
    return FatPointScheme(pts, tuple(mults)), d


@SETTINGS
@given(system=prime_field_systems())
def test_framed_rank_over_a_prime_field_is_the_unframed_rank(system):
    scheme, d = system
    p = scheme.field.p
    A = build_condition_matrix(scheme, d)
    assert _rank_mod_p(scheme, d, p) == (modp_rref(A, p)[0], len(A))


def test_dual_hesse_exact_rank_eliminates_the_framed_matrix(monkeypatch):
    # the 12 triple points over F_13 impose 72 conditions on nonics
    scheme = FatPointScheme.uniform(dual_hesse(13), 3)
    assert len(build_condition_matrix(scheme, 9)) == 72
    shapes = []
    original = linsys.modp_rref
    monkeypatch.setattr(linsys, "modp_rref",
                        lambda A, p, **kw: shapes.append(A.shape) or original(A, p, **kw))
    report = system_dim(scheme, 9)
    assert len(shapes) == 1 and shapes[0][0] < 72
    assert (report.rank, report.nrows, report.actual_dim) == (54, 72, 1)
    assert report.certification == "SINGLE_PRIME"


def exact_path(scheme, d):
    """(rank-only report's rank, kernel report's rank, its kernel vectors)."""
    rep = system_dim(scheme, d, ExactRational(), want_kernel=True)
    vectors = [tuple(coeff(g, mu) for mu in monomial_basis(d)) for g in rep.kernel]
    return system_dim(scheme, d, ExactRational()).rank, rep.rank, vectors


def unframed_oracle(scheme, d):
    A = build_condition_matrix(scheme, d).tolist()
    rank = bareiss_echelon(A)[0]
    return rank, rank, rational_nullspace(A, comb(d + 2, 2))


@SETTINGS
@given(scheme=st.one_of(schemes(), collinear_schemes()), d=st.integers(0, 8))
def test_exact_path_matches_the_unframed_oracle(scheme, d):
    assert exact_path(scheme, d) == unframed_oracle(scheme, d)


# (points, multiplicities, degree, whether the frame is taken: Bareiss gets the
# framed matrix, or none when no rows are left off the frame)
VERTICES = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
EXACT_PATH_CASES = {
    # U covers the one monomial of degree 0: a framed matrix with no columns
    "no-off-frame-columns": ((*VERTICES, (1, 1, 1)), (1, 1, 1, 1), 0, True),
    "vertex-m-above-d": (((2, 3, 1), (-1, 4, 1), (5, -2, 1), (3, 3, 1)), (5, 1, 1, 1),
                         3, True),
    "two-imposing-points": (((2, 3, 1), (-1, 4, 1), (5, -2, 1)), (3, 2, 0), 4, False),
    "collinear": (tuple(P.integer_coords() for P in collinear(5)), (2,) * 5, 4, False),
    "kernel-dimension-6": (((2, 3, 1), (-1, 4, 1), (5, -2, 1)), (2, 2, 2), 4, True),
    "conic-kernel": (tuple(P.integer_coords() for P in on_conic(6)), (2,) * 6, 4, True),
    "framed-triple": (((7, -3, 2), (1, 9, -4), (-5, 2, 6)), (4, 4, 4), 6, True),
    "unframed-simple-points": (tuple(P.integer_coords() for P in general(10, 0, 30)),
                               (1,) * 10, 4, False),
    # 30 framed rows and one kernel form: the pull-back of repro's type9 row
    "type9": (tuple(P.integer_coords() for P in configs.type9()), (4,) * 6, 9, True),
}


def bareiss_row_counts(monkeypatch):
    """The row count of every matrix ``linsys`` hands Bareiss from now on."""
    sizes = []
    monkeypatch.setattr(linsys, "bareiss_echelon",
                        lambda rows: sizes.append(len(rows)) or bareiss_echelon(rows))
    return sizes


@pytest.mark.parametrize("points, mults, d, framed", EXACT_PATH_CASES.values(),
                         ids=EXACT_PATH_CASES)
def test_exact_path_cases_match_the_unframed_oracle(monkeypatch, points, mults, d,
                                                    framed):
    scheme = FatPointScheme(tuple(point(QQ, *P) for P in points), mults)
    sizes = bareiss_row_counts(monkeypatch)
    got = exact_path(scheme, d)
    monkeypatch.undo()
    # the framed matrix drops the vertex rows, at least one per vertex, and
    # a framed matrix with no rows left reaches no Bareiss call at all
    assert 0 not in sizes
    assert (not sizes or sizes[0] < len(build_condition_matrix(scheme, d))) == framed
    assert got == unframed_oracle(scheme, d)


def test_rank_only_exact_report_runs_bareiss_only_below_full_rank(monkeypatch):
    sizes = bareiss_row_counts(monkeypatch)
    # six general double points impose independent conditions on quartics
    full = system_dim(FatPointScheme.uniform(general(6, 0, 30), 2), 4, ExactRational())
    assert (full.rank, full.nrows, full.certification) == (15, 18, "EXACT_RATIONAL")
    assert sizes == []
    # the doubled conic through six points is one quartic
    conic = FatPointScheme.uniform(on_conic(6), 2)
    deficient = system_dim(conic, 4, ExactRational())
    assert len(sizes) == 1
    monkeypatch.undo()
    assert deficient.rank == bareiss_echelon(build_condition_matrix(conic, 4).tolist())[0]
    assert deficient.rank == 14


ORDER_FIELDS = [QQ] + [prime_field(p) for p in (2, 3, 5, 31, 2**31 - 1)]


@st.composite
def forms_at_points(draw):
    """(f L^e, P): a random form f of degree d <= 5, with fractional
    coefficients over Q, times a power of a line L through P, so that d + e
    can exceed p and orders up to d + e occur.  P is drawn off z = 0, on
    z = 0 and at (1 : 0 : 0), the three charts of the check."""
    field = draw(st.sampled_from(ORDER_FIELDS))
    P = point(field, *draw(st.one_of(
        st.tuples(coordinate, coordinate, coordinate),
        st.tuples(coordinate, coordinate, st.just(0)),
        st.just((1, 0, 0)),
    ).filter(lambda t: any(field.of(c) for c in t))))
    d = draw(st.integers(0, 5))
    n = (d + 1) * (d + 2) // 2
    nums = draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n))
    dens = draw(st.lists(st.integers(1, 4 if field == QQ else 1), min_size=n, max_size=n))
    f = poly_from_vector(field, d, [Fraction(a, b) for a, b in zip(nums, dens)])
    a, b, c = P.integer_coords()
    line = linear_form(field, draw(
        st.tuples(coordinate, coordinate, coordinate)
        .map(lambda w: (b * w[2] - c * w[1], c * w[0] - a * w[2], a * w[1] - b * w[0]))
        .filter(lambda t: any(field.of(e) for e in t))))
    return f * power(line, draw(st.integers(0, 3))), P


@settings(SETTINGS, max_examples=200)
@given(case=forms_at_points())
def test_order_of_vanishing_matches_the_recentering_oracle(case):
    f, P = case
    assert order_of_vanishing(f, P) == recentered_order(f, P)


@SETTINGS
@given(case=forms_at_points())
def test_recentered_moves_point_to_origin_chart(case):
    f, P = case
    g = recentered_at(f, P)
    # value of f at P appears as the coefficient of the pure u0 power
    assert (coeff(g, (f.degree, 0, 0)) == 0) == (evaluate(f, P) == 0)


# ---------------------------------------------------------------------------
# line arrangements against the subset enumeration

@st.composite
def arrangement_pools(draw):
    """Points spanning 2 to 12 lines, with those lines or a random part of them."""
    source, lines = draw(st.sampled_from(arrangement_sources()))
    on_lines = draw(st.booleans())
    n = len(lines) if on_lines else len(source)
    picks = draw(st.lists(st.integers(0, n - 1), min_size=2,
                          max_size=5 if on_lines else 7, unique=True))
    points, pool = arrangement_pool(source, lines, picks, on_lines)
    assume(2 <= len(pool) <= 12)
    if draw(st.booleans()):
        pool = [pool[i] for i in sorted(draw(st.sets(st.integers(0, len(pool) - 1))))]
    return points, pool


@SETTINGS
@given(case=arrangement_pools())
def test_arrangement_search_is_complete_and_sound(case):
    points, pool = case
    got = detect_line_arrangement(points, pool)
    assert (got is None) == (arrangement_by_subsets(points, pool) is None)
    if got is not None:
        assert all(L.intersect(M) in points for i, L in enumerate(got.lines)
                   for M in got.lines[i + 1:])
        assert got.incidence == tuple(
            tuple(a for a, L in enumerate(got.lines) if L.contains(P)) for P in points)
        assert all(len(ix) >= 2 for ix in got.incidence)


# ---------------------------------------------------------------------------
# finite-field configurations against per-point scans

SCAN_PRIMES = (2, 3, 5, 7, 13)


@st.composite
def forms_over(draw, field):
    """A form of degree at most 6 over ``field``, most coefficients zero so
    that common zeros are not rare."""
    d = draw(st.integers(0, 6))
    coeff = st.one_of(st.just(0), st.just(0), st.integers(0, field.p - 1))
    vec = draw(st.lists(coeff, min_size=comb(d + 2, 2), max_size=comb(d + 2, 2)))
    return poly_from_vector(field, d, vec)


@st.composite
def form_lists(draw):
    F = prime_field(draw(st.sampled_from(SCAN_PRIMES)))
    return F, draw(st.lists(forms_over(F), min_size=1, max_size=3))


@SETTINGS
@given(case=form_lists())
def test_plane_scan_matches_the_evaluation_scan(case):
    F, forms = case
    assert plane_points_where(F, forms) == common_zeros_by_evaluation(F, forms)


@pytest.mark.parametrize("p", SCAN_PRIMES)
def test_plane_scan_of_zero_and_constant_forms(p):
    F = prime_field(p)
    zero, one, zero3 = (poly_from_vector(F, d, [c] * comb(d + 2, 2))
                        for d, c in ((0, 0), (0, 1), (3, 0)))
    plane = scan_plane(F, lambda P: True)
    assert len(plane) == p * p + p + 1
    assert plane_points_where(F, [zero]) == plane_points_where(F, [zero3]) == plane
    assert plane_points_where(F, [one]) == [] == plane_points_where(F, [zero3, one])


@pytest.mark.parametrize("p", [13, 19, 31, 37])
def test_dual_hesse_matches_the_plane_scan(p):
    lines = dual_hesse_lines(p)
    assert list(dual_hesse(p)) == scan_plane(
        prime_field(p), lambda P: sum(L.contains(P) for L in lines) >= 3)


# (d1, d2, p, seed, attempts the product scan rejects before the accepted one):
# the two registry rows, then seeds whose product scan rejects second curves
# that pass their own node check
TWO_NODAL_RUNS = [(2, 2, 31, 1, 0), (2, 3, 31, 124, 0), (2, 2, 11, 2, 2),
                  (3, 2, 11, 4, 3), (3, 3, 13, 1, 2)]


@pytest.mark.parametrize("d1, d2, p, seed, rejected", TWO_NODAL_RUNS)
def test_two_nodal_union_matches_the_product_scan(monkeypatch, d1, d2, p, seed,
                                                  rejected):
    draw, drawn = configs._random_curve_through, []

    def record(*args):
        drawn.append(draw(*args))
        return drawn[-1]

    monkeypatch.setattr(configs, "_random_curve_through", record)
    got = two_nodal_union(d1, d2, p, seed)
    c1, nodes1 = rational_nodal_nodes(d1, p, seed)
    verdicts = []
    for c2 in filter(None, drawn):
        sing2 = singular_points_by_evaluation(c2)
        if (len(sing2) == comb(d2 - 1, 2)
                and all(order_of_vanishing(c2, P) == 2 for P in sing2)):
            verdicts.append(product_scan_points(c1, nodes1, c2))
    assert verdicts[:-1] == [None] * rejected
    assert got is not None and verdicts[-1] == got
