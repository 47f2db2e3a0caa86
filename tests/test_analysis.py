"""Theorem checkers, numeric conditions, search harness, and repro engine."""

import dataclasses
import hashlib
import json
import random

import pytest

from fatpoints.algebra import QQ, field_to_string, order_of_vanishing, point, prime_field
from fatpoints import analysis, configs, linsys
from fatpoints.cli import main
from fatpoints.analysis import (
    CONSISTENT,
    EXCEPTION,
    IMPLICATIONS,
    INCONSISTENT,
    Implication,
    VACUOUS,
    check_double_unit_step_collinear,
    check_minimal_gap_collinear,
    check_uniform_step_two_conic,
    check_unit_step_arrangement,
    conjecture_search,
    load_registry,
    repro,
)
from fatpoints.configs import (
    collinear,
    dual_hesse,
    general,
    on_conic,
    rational_nodal_nodes,
    star,
    type9,
)
from fatpoints.linsys import AlphaReport, alpha_sequence
from fatpoints.serialize import dump_json


# ---------------------------------------------------------------------------
# minimal gap

def test_minimal_gap_on_collinear_points():
    v = check_minimal_gap_collinear(collinear(4), k=3)
    assert v.hypothesis_holds and v.conclusion_holds
    assert v.status == CONSISTENT


def test_minimal_gap_vacuous_on_star4():
    pts, _ = star(4, seed=1)
    # alphas are (3, 4, 7): the gap alpha(3Z) - alpha(Z) is 4, not 2
    v = check_minimal_gap_collinear(pts, k=3)
    assert not v.hypothesis_holds and v.status == VACUOUS
    assert v.context["alphas"] == [3, 4, 7]


def test_minimal_gap_vacuous_on_conic():
    v = check_minimal_gap_collinear(on_conic(6), k=3)
    assert not v.hypothesis_holds and v.status == VACUOUS
    assert v.context["alphas"] == [2, 4, 6]


def test_minimal_gap_requires_k_at_least_3():
    with pytest.raises(ValueError):
        check_minimal_gap_collinear(collinear(3), k=2)


# ---------------------------------------------------------------------------
# unit step

def test_unit_step_star4_finds_arrangement():
    pts, _ = star(4, seed=1)
    v = check_unit_step_arrangement(pts, k=2)
    assert v.hypothesis_holds and v.conclusion_holds
    assert v.status == CONSISTENT
    assert v.witness["arrangement"]["exhaustive"]


def test_unit_step_collinear():
    v = check_unit_step_arrangement(collinear(5), k=4)
    assert v.hypothesis_holds and v.conclusion_holds
    assert v.status == CONSISTENT and v.witness["collinear"]


def test_unit_step_vacuous_on_conic():
    v = check_unit_step_arrangement(on_conic(6), k=2)
    assert not v.hypothesis_holds and v.status == VACUOUS


# ---------------------------------------------------------------------------
# double unit step

def test_double_unit_step_collinear_points():
    v = check_double_unit_step_collinear(collinear(3), k=3)
    assert v.status == CONSISTENT


def test_double_unit_step_vacuous_three_general():
    pts = general(3, seed=11, height=12)
    v = check_double_unit_step_collinear(pts, k=3)
    # steps alternate 1, 2, so two consecutive unit steps never happen
    assert not v.hypothesis_holds and v.status == VACUOUS


def test_double_unit_step_vacuous_star5():
    pts, _ = star(5, seed=1)
    v = check_double_unit_step_collinear(pts, k=3)
    assert not v.hypothesis_holds and v.status == VACUOUS


# ---------------------------------------------------------------------------
# uniform step two

def test_uniform_step_two_conic_consistent():
    v = check_uniform_step_two_conic(on_conic(7), k_max=5)
    assert v.hypothesis_holds and v.conclusion_holds
    assert v.status == CONSISTENT


def test_uniform_step_two_type9_exception_at_kmax_4():
    v = check_uniform_step_two_conic(type9(), k_max=4)
    assert v.hypothesis_holds and v.conclusion_holds is False
    assert v.status == EXCEPTION
    assert v.witness["exception"] == "triangle-plus-one-per-line"


def test_uniform_step_two_type9_vacuous_at_kmax_5():
    # the fifth step is 3, so the hypothesis dies at k_max = 5
    v = check_uniform_step_two_conic(type9(), k_max=5)
    assert not v.hypothesis_holds and v.status == VACUOUS


def test_uniform_step_two_vacuous_six_general():
    pts = general(6, seed=42)
    v = check_uniform_step_two_conic(pts, k_max=4)
    assert not v.hypothesis_holds and v.status == VACUOUS


def test_checkers_accept_precomputed_alphas():
    pts = on_conic(6)
    rep = alpha_sequence(pts, 5)
    v = check_uniform_step_two_conic(pts, k_max=5, alphas=rep.alphas)
    assert v.status == CONSISTENT
    with pytest.raises(ValueError):
        check_uniform_step_two_conic(pts, k_max=5, alphas=rep.alphas[:3])


# ---------------------------------------------------------------------------
# the certified recheck and the exception rules

def _fake_engine(alphas):
    """An alpha_sequence stand-in whose values all carry kernel certificates."""
    def engine(points, k_max, **kwargs):
        entries = tuple({"k": i + 1, "alpha": a, "existence_certified": "kernel",
                         "certification": "EXACT_RATIONAL"}
                        for i, a in enumerate(alphas))
        diffs = tuple(b - a for a, b in zip(alphas, alphas[1:]))
        return AlphaReport(tuple(alphas), diffs, entries,
                           tuple(P.coord_strings() for P in points),
                           field_to_string(points[0].field))
    return engine


def test_failed_conclusion_escalates_to_vacuous():
    # precomputed alphas claim a minimal gap; the certified recheck refutes it
    v = check_minimal_gap_collinear(on_conic(6), 3, alphas=(1, 2, 3))
    assert v.status == VACUOUS and not v.hypothesis_holds
    assert v.certification == "EXACT_RATIONAL"
    assert v.context["alphas_certified"] == [2, 4, 6]
    assert v.context["escalated"] == "hypothesis failed certified recheck"


def test_certified_violation_is_inconsistent(monkeypatch):
    monkeypatch.setattr(analysis, "alpha_sequence", _fake_engine((1, 2, 3)))
    v = check_minimal_gap_collinear(on_conic(6), 3, alphas=(1, 2, 3))
    assert v.status == INCONSISTENT and v.hypothesis_holds
    assert v.conclusion_holds is False
    assert v.certification == "EXACT_RATIONAL"


def _second_prime_loses_a_rank(monkeypatch, k, d):
    """Make the second search prime undercount the rank of kZ in degree d by one."""
    second = linsys.strategy_primes(linsys.DEFAULT_SEARCH_STRATEGY)[1]
    rank_mod_p = linsys._rank_mod_p

    def split(scheme, e, p):
        rank, nrows = rank_mod_p(scheme, e, p)
        return rank - (p == second and (scheme.max_multiplicity, e) == (k, d)), nrows

    monkeypatch.setattr(linsys, "_rank_mod_p", split)


def test_a_sequence_with_mixed_labels_carries_the_strategy_label(monkeypatch):
    # a prime split escalates only the last value to an exact rank; the
    # earlier values stay modular, so neither a verdict nor a search hit may
    # claim the exact label (a failed conclusion would skip its recheck)
    _second_prime_loses_a_rank(monkeypatch, 4, 8)
    rep = alpha_sequence(on_conic(6), 4)
    assert [e["certification"] for e in rep.entries] == ["MULTI_PRIME(2)"] * 3 + [
        "EXACT_RATIONAL"]
    v = check_uniform_step_two_conic(on_conic(6), 4)
    assert (v.status, v.certification) == (CONSISTENT, "MULTI_PRIME(2)")
    monkeypatch.undo()
    _second_prime_loses_a_rank(monkeypatch, 5, 10)  # five points on a conic: alpha(5Z) = 10
    (hit,) = conjecture_search(1, (5, 5)).hypothesis_true
    assert (hit["alphas"], hit["certification"]) == ([2, 4, 6, 8, 10], "MULTI_PRIME(2)")


@pytest.mark.parametrize("points, family, k", [
    (type9, ("type9",), 5),
    (lambda: general(6, seed=42), ("general", "--r", "6", "--seed", "42"), 4),
])
def test_step_two_off_a_conic_is_inconsistent_outside_the_exception(monkeypatch, capsys,
                                                                    points, family, k):
    # six points on no conic with step-2 alphas: the triangle-plus exception
    # covers type9 at k_max = 4 only
    monkeypatch.setattr(analysis, "alpha_sequence", _fake_engine((3, 5, 7, 9, 11)[:k]))
    v = check_uniform_step_two_conic(points(), k)
    assert v.status == INCONSISTENT and v.hypothesis_holds and v.conclusion_holds is False
    assert "exception" not in v.witness
    argv = ["check", "--family", *family, "--theorem", "uniform-step-two", "--k", str(k)]
    assert main(argv) == 2
    assert json.loads(capsys.readouterr().out)["status"] == INCONSISTENT


def test_failed_arrangement_search_past_twelve_candidates_is_inconsistent(monkeypatch):
    # six general points span 15 lines; the search over them is complete
    monkeypatch.setattr(analysis, "alpha_sequence", _fake_engine((2, 3)))
    v = check_unit_step_arrangement(general(6, seed=42), 2, alphas=(2, 3))
    assert v.status == INCONSISTENT
    assert v.witness["search_exhaustive"] is True


def test_implication_table_drives_the_checkers():
    assert sorted(IMPLICATIONS) == [
        "double-unit-step", "minimal-gap", "uniform-step-two", "unit-step"]
    pts = collinear(4)
    v = IMPLICATIONS["minimal-gap"].check(pts, 3)
    assert v == check_minimal_gap_collinear(pts, 3)
    with pytest.raises(ValueError, match="need k_max >= 4"):
        IMPLICATIONS["uniform-step-two"].check(pts, 3)


_ARRANGEMENT = {"exhaustive": True, "convention": "pair-spanned-lines"}
_NO_LINES = {"collinear": False, "arrangement": None, "search_exhaustive": True}
# (conic witness, collinear-or-arrangement verdict), recorded before the
# conclusions read collinearity off the spanned lines and normalized once
_PINNED_CONCLUSIONS = {
    "general(3, 1)": (
        lambda: general(3, 1),
        "x^2 - 1714851053776725/44144064386563168*x*y + 263989775613907306673/"
        "44144064386563168*x*z - 788895517433877/1379502012080099*y^2",
        (True, {"arrangement": {
            "lines": [["1", "-1074/3893", "26668534/3893"],
                      ["1", "-13535/15506", "53150437/15506"], ["1", "-59/40", "372487/40"]],
            "incidence": [[0, 1], [1, 2], [0, 2]], **_ARRANGEMENT}})),
    "general(4, 2)": (
        lambda: general(4, 2),
        "x^2 - 442853940329284936123/1256223760491907843903*x*y - 7300003126863255716488101/"
        "1256223760491907843903*x*z - 158444565730721714922/1256223760491907843903*y^2 + "
        "3048284906403366320857038/1256223760491907843903*y*z",
        (False, _NO_LINES)),
    "general(5, 3)": (
        lambda: general(5, 3),
        "x^2 - 95684121763772453371959/23603460480598956032756*x*y + "
        "136561672481431555723099981/11801730240299478016378*x*z + "
        "11547951545179083042865/23603460480598956032756*y^2 + "
        "388589523463388632915006933/23603460480598956032756*y*z - "
        "1345480449405543954001896681699/11801730240299478016378*z^2",
        (False, _NO_LINES)),
    "collinear(5)": (lambda: collinear(5), "x^2", (True, {"collinear": True})),
    "star(4, 1)": (
        lambda: star(4, 1)[0], None,
        (True, {"arrangement": {
            "lines": [["1", "-15/7", "-11/7"], ["1", "-23/13", "-24/13"], ["1", "-8/13", "-3/26"],
                      ["1", "1/8", "-13/12"]],
            "incidence": [[2, 3], [1, 3], [0, 3], [1, 2], [0, 2], [0, 1]], **_ARRANGEMENT}})),
    "type9()": (lambda: type9(), None, (False, _NO_LINES)),
    "single point": (lambda: (point(QQ, 2, 3, 1),), "x^2 - 2/3*x*y",
                     (True, {"collinear": True})),
}


@pytest.mark.parametrize("name", list(_PINNED_CONCLUSIONS))
def test_conclusion_witnesses_are_pinned(name):
    make, conic, lines = _PINNED_CONCLUSIONS[name]
    pts = make()
    assert analysis._on_conic(pts) == (conic is not None, {"conic": conic})
    assert analysis._collinear_or_arrangement(pts) == lines


def test_conclusions_refuse_empty_and_repeated_points():
    for conclusion in (analysis._on_conic, analysis._collinear_or_arrangement):
        with pytest.raises(ValueError, match="need at least one point"):
            conclusion(())
    P, Q, R = point(QQ, 0, 0, 1), point(QQ, 1, 0, 1), point(QQ, 0, 1, 1)
    for pts in ((P, P), (P, P, Q), (P, P, Q, R)):
        with pytest.raises(ValueError, match="two distinct points"):
            analysis._collinear_or_arrangement(pts)


def _violated(hypothesis):
    """A row whose conclusion never holds."""
    return Implication("fake", "fake", "k", 2, hypothesis, lambda points: (False, {}))


def test_a_violation_carries_its_fields_exact_label():
    # over F_p the computed alphas are exact already: SINGLE_PRIME, no recheck
    v = _violated(lambda a, k: True).check(dual_hesse(31), 2)
    assert (v.status, v.certification) == (INCONSISTENT, "SINGLE_PRIME")
    assert "alphas_certified" not in v.context
    # precomputed alphas that the recheck refutes are vacuous, still over F_p
    v = _violated(lambda a, k: a[0] == 1).check(dual_hesse(31), 2, alphas=(1, 2))
    assert (v.status, v.certification) == (VACUOUS, "SINGLE_PRIME")
    assert v.context["escalated"] == "hypothesis failed certified recheck"
    # over Q the modular alphas are rechecked and certified exactly
    v = _violated(lambda a, k: True).check(on_conic(6), 2)
    assert (v.status, v.certification) == (INCONSISTENT, "EXACT_RATIONAL")
    assert v.context["alphas_certified"] == v.context["alphas"]


def test_verdict_json_shape():
    d = check_minimal_gap_collinear(collinear(4), k=3).to_json_dict()
    assert d["kind"] == "theorem_verdict"
    assert d["status"] == CONSISTENT and d["theorem"] == "minimal-gap-collinear"


# ---------------------------------------------------------------------------
# numeric conditions

def test_genus_bound_nodal_quintic_equality():
    curve, nodes = rational_nodal_nodes(5, 37, 986)
    assert all(order_of_vanishing(curve, P) == 2 for P in nodes)
    assert (curve.degree - 1) * (curve.degree - 2) == 2 * len(nodes)


# ---------------------------------------------------------------------------
# conjecture search

def test_search_rejects_bad_parameters():
    with pytest.raises(ValueError):
        conjecture_search(trials=0)
    with pytest.raises(ValueError):
        conjecture_search(trials=1, k=4)
    with pytest.raises(ValueError):
        conjecture_search(trials=1, difference=4)
    for r_range in ((6, 4), (0, 4)):
        with pytest.raises(ValueError, match="r_min"):
            conjecture_search(trials=1, r_range=r_range)


def test_prime_field_search_points_can_fill_the_affine_plane():
    # r = p^2 passes the search's r <= p^2 check, so the draws go on until
    # all 961 affine points of F_31 are drawn (about 7,000 draws)
    field = prime_field(31)
    pts = analysis._random_prime_field_points(field, 961, random.Random("fatpoints.search:0"))
    assert len(pts) == 961
    assert set(pts) == {point(field, x, y, 1) for x in range(31) for y in range(31)}


def test_search_small_run_no_inconsistencies():
    rep = conjecture_search(trials=12, r_range=(4, 7), k=5, seed=3)
    assert rep.inconsistent == ()
    assert rep.to_json_dict()["kind"] == "search_report"


def test_search_reproducible():
    a = conjecture_search(trials=8, seed=5)
    b = conjecture_search(trials=8, seed=5)
    assert a == b


def test_search_reports_certified_counterexamples(monkeypatch):
    # with the conclusion forced false, every hit is rechecked exactly, and
    # over F_p exact is that field's own SINGLE_PRIME
    monkeypatch.setattr(analysis, "common_conic", lambda points: None)
    for field, label in ((QQ, "EXACT_RATIONAL"), (prime_field(31), "SINGLE_PRIME")):
        rep = conjecture_search(trials=3, r_range=(4, 4), seed=0, field=field)
        assert [h["trial"] for h in rep.hypothesis_true] == [0, 1, 2]
        assert rep.inconsistent == rep.hypothesis_true
        for hit in rep.inconsistent:
            assert hit["conic"] is False
            assert hit["certification"] == label
            assert hit["alphas"] == [2, 4, 6, 8, 10]
    # a certified tail that breaks the pattern drops the hit
    monkeypatch.setattr(analysis, "_certified_alphas",
                        lambda points, k: ((2, 4, 6, 8, 11), "EXACT_RATIONAL"))
    rep = conjecture_search(trials=3, r_range=(4, 4), seed=0)
    assert rep.hypothesis_true == () and rep.inconsistent == ()


def test_search_step_three_checks_alpha_one():
    rep = conjecture_search(trials=2, r_range=(9, 9), difference=3, seed=0)
    assert len(rep.hypothesis_true) == 2 and rep.inconsistent == ()
    for hit in rep.hypothesis_true:
        assert hit["alpha1_is_3"] is True and "conic" not in hit
        assert hit["alphas"] == [3, 6, 9, 12, 15]


@pytest.mark.parametrize("k", [5, 6])
@pytest.mark.parametrize("difference", [2, 3])
@pytest.mark.parametrize("field", [QQ, prime_field(31)], ids=["Q", "F31"])
def test_search_judges_its_trials_as_full_sequences_do(monkeypatch, field, difference, k):
    # a trial stops at the first of its last four steps that is not
    # `difference`; the oracle judges the same drawn points on their whole
    # alpha_sequence up to k
    drawn, climb = [], analysis.iter_alpha_values
    monkeypatch.setattr(analysis, "iter_alpha_values",
                        lambda pts, kmax: drawn.append(pts) or climb(pts, kmax))
    rep = conjecture_search(trials=12, k=k, seed=3, difference=difference, field=field)
    want = []
    for t, pts in enumerate(drawn):
        full = alpha_sequence(pts, k)
        if all(x == difference for x in full.diffs[k - 5:]):
            want.append({"trial": t, "r": len(pts), "alphas": list(full.alphas),
                         "certification": full.entries[-1]["certification"],
                         "points": [list(P.coord_strings()) for P in pts]})
    assert len(drawn) == 12 and 0 < len(want) < 12
    assert rep.inconsistent == ()
    assert [{key: hit[key] for key in want[0]} for hit in rep.hypothesis_true] == want


def test_search_stops_a_trial_at_its_first_wrong_step(monkeypatch):
    # nine general points step from alpha(Z) = 3 to alpha(2Z) = 6, a step of
    # 3, so a search for steps of 2 runs the searches for Z and 2Z only
    search, calls = linsys.alpha_search, []

    def count(scheme, *args, **kwargs):
        calls.append(scheme.multiplicities[0])
        return search(scheme, *args, **kwargs)

    monkeypatch.setattr(linsys, "alpha_search", count)
    rep = conjecture_search(trials=1, r_range=(9, 9), seed=0)
    assert rep.hypothesis_true == ()
    assert calls == [1, 2]


def test_prime_field_search_skips_the_degrees_it_cannot_build():
    # trial 1 of seed 0 over F_13 has a first step other than 2; the search
    # for its 5Z would need degree 13, which F_13 cannot build, and is not run
    rep = conjecture_search(trials=200, seed=0, field=prime_field(13))
    assert rep.hypothesis_true and rep.inconsistent == ()
    for hit in rep.hypothesis_true:
        alphas = hit["alphas"]
        assert [b - a for a, b in zip(alphas, alphas[1:])] == [2] * 4


def test_search_hypothesis_controls():
    # injected control: six conic points satisfy four steps of 2 and lie on
    # a conic; sixteen very general points have steps of 4
    pts = on_conic(8)
    rep = alpha_sequence(pts, 5)
    assert all(d == 2 for d in rep.diffs)
    nag = general(16, seed=7)
    rep2 = alpha_sequence(nag, 5)
    assert all(d == 4 for d in rep2.diffs)


# ---------------------------------------------------------------------------
# repro harness

def test_repro_unknown_id():
    with pytest.raises(KeyError):
        repro("ex-spiral")
    # a registry row may name neither an unknown predicate nor an unknown check
    for cell, message in (({"check": "predicate", "name": "is_spiral"}, "unknown predicate"),
                          ({"check": "spiral"}, "unknown cell kind")):
        registry = {"examples": {"ex-odd": {"config": {"family": "collinear", "r": 3},
                                            "cells": [{**cell, "expected": True}]}}}
        with pytest.raises(ValueError, match=message):
            repro("ex-odd", registry)


def test_repro_type9_row():
    rep = repro("ex-type9")
    assert rep.passed
    assert [c.name for c in rep.cells][:5] == [
        "alpha(1Z)", "alpha(2Z)", "alpha(3Z)", "alpha(4Z)", "alpha(5Z)"
    ]
    assert "PASS" in rep.table()


def test_repro_star_rows():
    for eid in ("ex-star3", "ex-star4", "ex-star5"):
        assert repro(eid).passed


def test_repro_reads_every_alpha_cell_from_one_sequence(monkeypatch):
    # ex-star4 has alpha(1Z), alpha(2Z) and alpha_gap(2,1): one certified
    # sequence up to k = 2 serves all three
    search, calls = linsys.alpha_search, []

    def count(scheme, *args, **kwargs):
        calls.append(scheme.multiplicities[0])
        return search(scheme, *args, **kwargs)

    monkeypatch.setattr(linsys, "alpha_search", count)
    monkeypatch.setattr(analysis, "alpha_search", count, raising=False)
    rep = repro("ex-star4")
    assert rep.passed
    assert calls == [1, 2]
    gap = next(c for c in rep.cells if c.name == "alpha_gap(2,1)")
    assert (gap.computed, gap.certification) == (1, "EXACT_RATIONAL")


def test_repro_runs_no_bareiss_on_a_kernel_matrix_with_no_rows(monkeypatch):
    # ex-3general frames all three points, so its exact kernels at k = 4..7
    # leave no rows off the frame: the kernel is every column off U, found
    # without an elimination, and the report keeps its bytes
    sizes, bareiss = [], linsys.bareiss_echelon
    monkeypatch.setattr(linsys, "bareiss_echelon",
                        lambda rows: sizes.append(len(rows)) or bareiss(rows))
    rep = repro("ex-3general")
    assert rep.passed and 0 not in sizes
    assert hashlib.sha256(dump_json(rep.to_json_dict()).encode()).hexdigest() == (
        "5df390d9d5fd12b47b1b33f6d730546e4d20df6932baf4e37ae9f1f781ff874a")


def test_repro_dual_hesse_literature_row_fails_only_alpha3():
    rep = repro("ex-dualhesse-p31")
    cells = {c.name: c for c in rep.cells}
    assert cells["dual_hesse_incidence"].passed
    assert cells["alpha(2Z)"].passed
    assert not cells["alpha(3Z)"].passed and cells["alpha(3Z)"].computed == 9
    assert repro("ex-dualhesse-p31-faithful").passed
    assert repro("ex-dualhesse-p13-faithful").passed


def test_repro_nodal_predicates_on_a_seed_that_needs_a_retry(monkeypatch):
    spec = {"family": "nodal_curve_nodes", "d": 4, "prime": 17, "seed": 0}
    registry = {"examples": {"ex-nodal4": {"config": spec, "cells": [
        {"check": "predicate", "name": "node_count", "expected": 3},
        {"check": "predicate", "name": "genus_equality", "expected": True},
    ]}}}
    cells = {c.name: c.computed for c in repro("ex-nodal4", registry).cells}
    assert cells == {"node_count": 3, "genus_equality": True}
    monkeypatch.setattr(configs, "NODAL_ATTEMPTS", 1)
    assert rational_nodal_nodes(4, 17, 0) is None  # the first attempt fails


def test_repro_builds_the_nodal_curve_once(monkeypatch):
    # the row's points and both nodal predicates read one generator call,
    # and a seed whose generator gives up is still refused by name
    build, calls = configs.rational_nodal_nodes, []

    def count(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(configs, "rational_nodal_nodes", count)
    monkeypatch.setattr(analysis, "rational_nodal_nodes", count, raising=False)
    assert repro("ex-nodal5").passed
    assert len(calls) == 1
    spec = {"family": "nodal_curve_nodes", "d": 4, "prime": 17, "seed": 0}
    registry = {"examples": {"ex-nodal4": {"config": spec, "cells": [
        {"check": "predicate", "name": "node_count", "expected": 3}]}}}
    monkeypatch.setattr(configs, "NODAL_ATTEMPTS", 1)  # seed 0 needs a retry
    with pytest.raises(ValueError, match="nodal generation failed; try another seed"):
        repro("ex-nodal4", registry)


def test_an_alpha_cell_with_a_curve_below_its_value_is_uncertified(monkeypatch):
    # the nonexistence check at value - 1 finds a curve: the cell names it
    # and fails, keeping the check's certification
    real, degrees = analysis.system_dim, []

    def one_curve(scheme, d, **kwargs):
        degrees.append(d)
        return dataclasses.replace(real(scheme, d, **kwargs), actual_dim=1)

    monkeypatch.setattr(analysis, "system_dim", one_curve)
    registry = {"examples": {"ex-conic6-k2": {"config": {"family": "on_conic", "r": 6},
                                              "cells": [{"check": "alpha", "k": 2,
                                                         "expected": 4,
                                                         "nonexistence": "multiprime:3"}]}}}
    (cell,) = repro("ex-conic6-k2", registry).cells
    assert degrees == [3]
    assert cell.computed == "4 (uncertified: dim 1 at 3)"
    assert cell.certification.endswith("(MULTI_PRIME(3) at 3)")
    assert not cell.passed


def _eliminations(monkeypatch):
    """The (shape, prime, rank_only, entries) of every ``modp_rref`` call."""
    calls, modp_rref = [], linsys.modp_rref

    def spy(A, p, rank_only=False):
        calls.append((A.shape, p, rank_only, str(A.tolist())))
        return modp_rref(A, p, rank_only)

    monkeypatch.setattr(linsys, "modp_rref", spy)
    return calls


@pytest.mark.parametrize("example_id", ["ex-nagata16", "ex-6general", "ex-3general"])
def test_repro_eliminates_no_matrix_twice(monkeypatch, example_id):
    # a nonexistence cell reads the search's full rank at value - 1 modulo
    # the first prime from the trail (ex-nagata16 k = 1..4, ex-6general
    # k = 2), and a frame with no other point eliminates nothing
    # (ex-3general, whose three points are the frame)
    calls = _eliminations(monkeypatch)
    assert repro(example_id).passed
    assert len(set(calls)) == len(calls)
    assert all(shape[0] for shape, *_ in calls)


def test_a_prime_split_below_the_value_keeps_the_escalated_cell(monkeypatch):
    # the third prime of multiprime:3 is 3, modulo which the 18 x 10
    # condition matrix of six double conic points has rank 6 at degree 3
    # (too small for the frame, whose matrix is 9 x 1 modulo the others):
    # only the second and third primes run, the split escalates to the
    # exact full rank the search's first prime proved, and the cell keeps
    # its bytes
    primes = linsys.strategy_primes
    monkeypatch.setattr(linsys, "strategy_primes", lambda s: primes(s)[:2] + (3,)
                        if s == linsys.MultiPrime(3) else primes(s))
    calls = _eliminations(monkeypatch)
    registry = {"examples": {"ex-conic6-k2": {"config": {"family": "on_conic", "r": 6},
                                              "cells": [{"check": "alpha", "k": 2,
                                                         "expected": 4,
                                                         "nonexistence": "multiprime:3"}]}}}
    (cell,) = repro("ex-conic6-k2", registry).cells
    assert cell.to_json_dict() == {
        "name": "alpha(2Z)", "expected": 4, "computed": 4, "provenance": "DERIVED",
        "pass": True, "certification": "existence=kernel; below=full-rank (EXACT_RATIONAL at 3)"}
    first, second, _ = primes(linsys.MultiPrime(3))
    assert [(shape, p) for shape, p, *_ in calls if shape[1] in (1, 10)] == [
        ((9, 1), first), ((9, 1), second), ((18, 10), 3)]
    assert len(set(calls)) == len(calls)


def test_repro_report_json():
    d = repro("ex-collinear5").to_json_dict()
    assert d["kind"] == "repro_report" and d["pass"]
    assert all("provenance" in c for c in d["cells"])


def test_registry_well_formed():
    reg = load_registry()
    assert reg["schema"] == "fatpoints/1"
    for eid, entry in reg["examples"].items():
        assert "config" in entry and "cells" in entry
        for cell in entry["cells"]:
            assert cell["check"] in ("alpha", "alpha_gap", "predicate")
            assert cell.get("provenance") in ("PAPER", "DERIVED")
