"""Generators: determinism, structure, and cross-detector behavior."""

import itertools
import random
import re

import pytest

from fatpoints import configs
from fatpoints.algebra import QQ, det3, order_of_vanishing, point
from fatpoints.configs import (
    FAMILIES,
    PARAMETERS,
    ConfigSpec,
    collinear,
    dual_hesse,
    dual_hesse_lines,
    general,
    generate,
    on_conic,
    rational_nodal_nodes,
    star,
    star_minus_one,
    two_nodal_union,
    type9,
)
from fatpoints.geometry import (
    are_collinear,
    common_conic,
    is_star_configuration,
    is_type9,
)
from fatpoints.linsys import FatPointScheme, alpha, alpha_sequence

# frozen seeds, found once by scanning for first-attempt success
NODAL_CASES = {3: (11, 0), 4: (19, 22), 5: (37, 986)}
TWO_NODAL_CASES = {(2, 2): (31, 1), (2, 3): (31, 124)}


def test_generators_are_deterministic():
    assert general(5, seed=4) == general(5, seed=4)
    assert star(4, seed=9) == star(4, seed=9)
    assert type9(seed=3) == type9(seed=3)
    assert general(5, seed=4) != general(5, seed=5)


def test_collinear_family():
    pts = collinear(5)
    assert len(pts) == 5 and are_collinear(pts) is not None
    assert collinear(1) == (point(QQ, 0, 0, 1),)
    # double line forces alpha(2Z) = 2
    assert alpha(FatPointScheme.uniform(pts, 2)) == 2


def test_on_conic_family():
    pts = on_conic(5)
    assert common_conic(pts) is not None
    assert are_collinear(on_conic(2)) is not None
    assert are_collinear(on_conic(3)) is None


def test_general_family_distinct_and_no_three_collinear():
    for r, seeds in ((3, 30), (6, 5), (9, 5)):
        for seed in range(seeds):
            pts = general(r, seed=seed, height=5)
            assert len(set(pts)) == r
            for triple in itertools.combinations(pts, 3):
                assert are_collinear(triple) is None
    # the draws themselves are fixed: cache keys and artifacts depend on them
    assert [P.integer_coords() for P in general(5, seed=0, height=30)] == [
        (10, 27, 1), (-15, -14, 1), (-16, 25, 1), (25, 24, 1), (9, -9, 1)]


def test_general_respects_height():
    pts = general(6, seed=1, height=50)
    for P in pts:
        assert all(abs(c) <= 50 for c in P.integer_coords())


def test_general_refuses_a_negative_height():
    with pytest.raises(ValueError, match=re.escape("need height >= 0; got -5")):
        general(3, seed=0, height=-5)
    # height 0 leaves only (0 : 0 : 1), enough for a single point
    assert general(1, seed=0, height=0) == (point(QQ, 0, 0, 1),)


def _fraction_point_general(r, seed, height):
    """``general`` as it drew before it tested integer draws: a Fraction
    point per candidate, checked on its integer coordinates."""
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
        q = point(QQ, rng.randint(-height, height), rng.randint(-height, height), 1)
        if q in pts or not all(det3(a.integer_coords(), b.integer_coords(), q.integer_coords())
                               for a, b in itertools.combinations(pts, 2)):
            continue
        pts.append(q)
    return tuple(pts)


def _drawn(gen, r, seed, height):
    try:
        return repr(gen(r, seed, height))
    except ValueError as exc:
        return f"ValueError: {exc}"


def test_general_draws_what_the_fraction_point_draw_did():
    # the same points, reprs and refusals over r = 1..9; heights 0-2 run
    # out of points with no three collinear and ask to widen the height
    # after 10000 draws, so only a few of those run
    cases = [(r, seed, h) for h in (5, 30, 999) for r in range(1, 10) for seed in range(40)]
    cases += [(r, 0, 0) for r in (1, 2)] + [(r, 0, 1) for r in range(1, 8)]
    cases += [(r, seed, 2) for r in range(1, 10) for seed in (0, 1)]
    refusals = 0
    for r, seed, height in cases:
        want = _drawn(_fraction_point_general, r, seed, height)
        assert _drawn(general, r, seed, height) == want, (r, seed, height)
        refusals += "widen the height" in want
    assert refusals >= 3


def test_star_family_incidence():
    for p in (3, 4, 5):
        pts, lines = star(p, seed=6)
        assert len(pts) == p * (p - 1) // 2
        assert len(lines) == p
        for P in pts:
            assert sum(1 for L in lines if L.contains(P)) == 2
        for L in lines:
            assert sum(1 for P in pts if L.contains(P)) == p - 1


def test_star_minus_one_counts():
    assert len(star_minus_one(3, seed=2)) == 2
    assert len(star_minus_one(4, seed=2)) == 5
    assert len(star_minus_one(5, seed=2)) == 9


def test_dual_hesse_incidence_structure():
    for p in (31, 13):
        pts = dual_hesse(p)
        lines = dual_hesse_lines(p)
        assert len(pts) == 12 and len(lines) == 9
        for P in pts:
            assert sum(1 for L in lines if L.contains(P)) == 3
        for L in lines:
            assert sum(1 for P in pts if L.contains(P)) == 4


def test_dual_hesse_parameter_validation():
    with pytest.raises(ValueError):
        dual_hesse(29)  # 29 = 2 mod 3
    with pytest.raises(ValueError):
        dual_hesse(7)  # too small


def test_type9_shape():
    pts = type9()
    assert is_type9(pts)
    assert common_conic(pts) is None
    for seed in range(5):
        assert is_type9(type9(seed=seed))


@pytest.mark.parametrize("d", [3, 4, 5])
def test_nodal_curve_node_counts(d):
    p, seed = NODAL_CASES[d]
    got = rational_nodal_nodes(d, p, seed)
    assert got is not None
    curve, nodes = got
    assert curve.degree == d
    assert len(nodes) == (d - 1) * (d - 2) // 2
    for P in nodes:
        assert order_of_vanishing(curve, P) == 2


def test_nodal_quintic_alpha_values():
    p, seed = NODAL_CASES[5]
    curve, nodes = rational_nodal_nodes(5, p, seed)
    rep = alpha_sequence(nodes, 2)
    assert rep.alphas == (3, 5)


def test_nodal_generator_validates_parameters():
    with pytest.raises(ValueError):
        rational_nodal_nodes(5, 23, 0)  # p <= d^2
    with pytest.raises(ValueError):
        rational_nodal_nodes(1, 11, 0)


def test_nodal_generator_best_effort_none(monkeypatch):
    # with no attempts the generator gives up at once
    monkeypatch.setattr(configs, "NODAL_ATTEMPTS", 0)
    assert rational_nodal_nodes(4, 19, 0) is None


@pytest.mark.parametrize("ds,expect_r", [((2, 2), 4), ((2, 3), 7)])
def test_two_nodal_union(ds, expect_r):
    d1, d2 = ds
    p, seed = TWO_NODAL_CASES[ds]
    pts = two_nodal_union(d1, d2, p, seed)
    assert pts is not None and len(pts) == expect_r
    rep = alpha_sequence(pts, 2)
    assert rep.alphas == (d1 + d2 - 2, d1 + d2)


def test_two_nodal_rejects_bad_parameters():
    with pytest.raises(ValueError):
        two_nodal_union(2, 2, 3, 0)
    with pytest.raises(ValueError, match="need degrees >= 2"):
        two_nodal_union(1, 2, 31, 0)


@pytest.mark.parametrize("build, message", [
    (lambda: collinear(0), "need r >= 1"),
    (lambda: on_conic(0), "need r >= 1"),
    (lambda: general(0, 1), "need r >= 1"),
    (lambda: star(2, 0), "need at least three lines"),
])
def test_generators_refuse_empty_configurations(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_config_spec_round_trip():
    spec = ConfigSpec(family="star", p=4, seed=5)
    d = spec.to_json_dict()
    assert ConfigSpec.from_json_dict(d) == spec
    with pytest.raises(ValueError):
        ConfigSpec(family="spiral")
    assert ConfigSpec(family="nagata16", height=40).height == 40
    with pytest.raises(ValueError, match="family 'star' takes no height"):
        ConfigSpec(family="star", p=4, height=5)


# the parameters each family takes, required or optional, as the README lists them
FAMILY_TAKES = {"collinear": "r", "on_conic": "r", "general": "r seed height",
                "star": "p seed", "star_minus_one": "d seed", "dual_hesse": "prime",
                "type9": "seed", "nagata16": "seed height", "nodal_curve_nodes": "d prime seed",
                "two_nodal_union": "d1 d2 prime seed"}


def test_config_spec_refuses_each_parameter_its_family_ignores():
    assert set(FAMILY_TAKES) == set(FAMILIES)
    for family, takes in FAMILY_TAKES.items():
        given = dict.fromkeys(takes.split(), 1)
        assert ConfigSpec(family, **given).to_json_dict() == {"family": family, **given}
        for extra in PARAMETERS:
            if extra not in given:
                with pytest.raises(ValueError, match=f"family '{family}' takes no {extra}$"):
                    ConfigSpec(family, **given, **{extra: 1})


def test_generate_dispatch():
    assert generate(ConfigSpec(family="collinear", r=4)) == collinear(4)
    assert generate(ConfigSpec(family="on_conic", r=6)) == on_conic(6)
    assert generate(ConfigSpec(family="general", r=5, seed=3)) == general(5, seed=3)
    assert generate(ConfigSpec(family="star", p=4, seed=1)) == star(4, seed=1)[0]
    assert generate(ConfigSpec(family="type9")) == type9()
    assert generate(ConfigSpec(family="dual_hesse", prime=31)) == dual_hesse(31)
    assert len(generate(ConfigSpec(family="nagata16", seed=7))) == 16


def test_family_cross_detection_matrix():
    # matching detector fires, non-matching ones stay silent
    spts, _ = star(4, seed=11)
    assert is_star_configuration(spts) is not None
    assert not is_type9(spts)
    assert are_collinear(spts) is None
    assert common_conic(spts) is None

    cpts = on_conic(6)
    assert common_conic(cpts) is not None
    assert is_star_configuration(cpts) is None
    assert not is_type9(cpts)

    lpts = collinear(6)
    assert are_collinear(lpts) is not None
    assert is_star_configuration(lpts) is None
    assert not is_type9(lpts)
