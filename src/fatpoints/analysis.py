"""Classification checkers and the reproduction/search harnesses.

Each row of ``IMPLICATIONS`` turns one proved implication about slow
growth of the initial-degree sequence into a testable verdict on computed
data:

* minimal gap      alpha_{k,1} = k-1 (k >= 3)      => collinear
* unit step        alpha_{k,k-1} = 1 (k >= 2)      => collinear or the
                   intersection points of a line arrangement
* double unit step two consecutive unit steps      => collinear
* uniform step 2   alpha(mZ) arithmetic, step 2    => contained in a conic,
                   with the documented six-point triangle-plus exception
                   when only four steps are visible

Hypotheses are evaluated from computed alpha values at a stated
certification level; a hypothesis-true case whose conclusion fails is
re-evaluated exactly before being called INCONSISTENT, because for proved
implications an inconsistency can only mean an implementation bug.
"""

from __future__ import annotations

import functools
import json
import random
from dataclasses import dataclass
from importlib import resources
from typing import Callable, Optional

from .algebra import QQ, order_of_vanishing, point
from .configs import (
    ConfigSpec,
    dual_hesse_lines,
    general,
    generate,
    nodal_curve,
)
from .geometry import (
    EXHAUSTIVE_CANDIDATE_LIMIT,
    are_collinear,
    common_conic,
    detect_line_arrangement,
    is_star_configuration,
    is_type9,
    spanned_lines,
)
from .linsys import (
    CERTIFIED_EXISTENCE,
    DEFAULT_SEARCH_STRATEGY,
    AlphaReport,
    FatPointScheme,
    alpha_sequence,
    exact_label,
    iter_alpha_values,
    parse_strategy,
    strategy_primes,
    system_dim,
)
from .serialize import record

CONSISTENT = "CONSISTENT"
VACUOUS = "CONSISTENT_VACUOUS"
EXCEPTION = "CONSISTENT_EXCEPTION"
UNDECIDED = "UNDECIDED"
INCONSISTENT = "INCONSISTENT"


@dataclass(frozen=True)
class TheoremVerdict:
    """Outcome of one implication check on one configuration."""

    theorem: str
    hypothesis_holds: bool
    conclusion_holds: Optional[bool]
    status: str
    certification: str
    witness: dict
    context: dict

    def to_json_dict(self) -> dict:
        return record("theorem_verdict", self)


def _alphas_for(points, k_max, strategy, alphas):
    if alphas is not None:
        if len(alphas) < k_max:
            raise ValueError(f"need alpha values up to k={k_max}")
        return tuple(alphas[:k_max]), "precomputed"
    rep = alpha_sequence(points, k_max, strategy=strategy)
    return rep.alphas, _shared_label(rep.entries, strategy.label)


def _shared_label(entries, default: str) -> str:
    """The certification every entry carries, or ``default`` where they differ."""
    labels = {e["certification"] for e in entries}
    return labels.pop() if len(labels) == 1 else default


def _certified_alphas(points, k_max):
    """Alpha values searched for exact-grade certificates, and the field's
    exact label if both sides of every value carry one, else None.

    Degrees below each value are certified empty by full modular column
    rank (an exact statement); each value itself is certified nonzero by a
    dimension count or a verified exact kernel.
    """
    rep = alpha_sequence(points, k_max, certify_existence=True)
    certified = all(
        e["existence_certified"] in CERTIFIED_EXISTENCE for e in rep.entries
    )
    return rep.alphas, exact_label(points[0].field) if certified else None


def _collinear(points):
    line = are_collinear(points)
    return line is not None, {"line": repr(line) if line else None}


def _collinear_or_arrangement(points):
    if not points:
        raise ValueError("need at least one point")
    lines = spanned_lines(points)
    if len(lines) < 2:  # a single point, or one line through all
        return True, {"collinear": True}
    witness = detect_line_arrangement(points, lines)
    if witness is not None:
        return True, {"arrangement": witness.to_json_dict()}
    return False, {"collinear": False, "arrangement": None,
                   "search_exhaustive": len(lines) <= EXHAUSTIVE_CANDIDATE_LIMIT}


def _on_conic(points):
    conic = common_conic(points)
    return conic is not None, {"conic": str(conic) if conic else None}


def _undecided_past_exhaustive_limit(points, k, witness):
    # the arrangement detector is sound but only complete on small pools
    return (INCONSISTENT if witness["search_exhaustive"] else UNDECIDED), witness


def _triangle_plus_exception(points, k, witness):
    if k == 4 and len(points) == 6 and is_type9(points):
        return EXCEPTION, {**witness, "exception": "triangle-plus-one-per-line"}
    return INCONSISTENT, witness


@dataclass(frozen=True)
class Implication:
    """One proved implication: a hypothesis on alpha(Z), ..., alpha(kZ)
    and a geometric conclusion, with an optional rule that turns an
    apparent violation into a documented status."""

    key: str
    theorem: str
    k_name: str
    k_min: int
    hypothesis: Callable  # (alphas, k) -> bool
    conclusion: Callable  # points -> (holds, witness)
    exception: Optional[Callable] = None  # (points, k, witness) -> (status, witness)

    def check(self, points, k: int, strategy=DEFAULT_SEARCH_STRATEGY,
              alphas=None) -> TheoremVerdict:
        """Verdict of this implication on one configuration; a violation is
        rechecked with certified alphas before the exception rule sees it."""
        if k < self.k_min:
            raise ValueError(f"need {self.k_name} >= {self.k_min}")
        points = tuple(points)
        alphas, cert = _alphas_for(points, k, strategy, alphas)
        context = {self.k_name: k, "alphas": list(alphas), "r": len(points)}
        if not self.hypothesis(alphas, k):
            return TheoremVerdict(self.theorem, False, None, VACUOUS, cert, {}, context)
        holds, witness = self.conclusion(points)
        if holds:
            return TheoremVerdict(self.theorem, True, True, CONSISTENT, cert,
                                  witness, context)
        label = exact_label(points[0].field)
        if cert != label:
            exact, certified = _certified_alphas(points, k)
            context["alphas_certified"] = list(exact)
            if not self.hypothesis(exact, k):
                context["escalated"] = "hypothesis failed certified recheck"
                return TheoremVerdict(self.theorem, False, None, VACUOUS, label, {}, context)
            cert = certified or cert
        status = INCONSISTENT
        if self.exception is not None:
            status, witness = self.exception(points, k, witness)
        return TheoremVerdict(self.theorem, True, False, status, cert, witness, context)


# keyed by the ``fatpoints check --theorem`` name
IMPLICATIONS = {row.key: row for row in (
    Implication("minimal-gap", "minimal-gap-collinear", "k", 3,
                lambda a, k: a[k - 1] - a[0] == k - 1, _collinear),
    Implication("unit-step", "unit-step-arrangement", "k", 2,
                lambda a, k: a[k - 1] - a[k - 2] == 1,
                _collinear_or_arrangement, _undecided_past_exhaustive_limit),
    Implication("double-unit-step", "double-unit-step-collinear", "k", 3,
                lambda a, k: a[k - 1] - a[k - 2] == 1 and a[k - 2] - a[k - 3] == 1,
                _collinear),
    Implication("uniform-step-two", "uniform-step-two-conic", "k_max", 4,
                lambda a, k: all(y - x == 2 for x, y in zip(a, a[1:])),
                _on_conic, _triangle_plus_exception),
)}


def check_minimal_gap_collinear(
    points, k: int, strategy=DEFAULT_SEARCH_STRATEGY, alphas=None
) -> TheoremVerdict:
    """Gap alpha(kZ) - alpha(Z) at its k-1 floor forces collinear points."""
    return IMPLICATIONS["minimal-gap"].check(points, k, strategy, alphas)


def check_unit_step_arrangement(
    points, k: int, strategy=DEFAULT_SEARCH_STRATEGY, alphas=None
) -> TheoremVerdict:
    """A unit step alpha(kZ) - alpha((k-1)Z) = 1 forces lines.

    The conclusion check is sound but only complete when the candidate
    pool is small enough for the exhaustive subset search, so a failed
    detection past that limit downgrades to UNDECIDED.
    """
    return IMPLICATIONS["unit-step"].check(points, k, strategy, alphas)


def check_double_unit_step_collinear(
    points, k: int, strategy=DEFAULT_SEARCH_STRATEGY, alphas=None
) -> TheoremVerdict:
    """Two consecutive unit steps force collinear points (k >= 3)."""
    return IMPLICATIONS["double-unit-step"].check(points, k, strategy, alphas)


def check_uniform_step_two_conic(
    points, k_max: int, strategy=DEFAULT_SEARCH_STRATEGY, alphas=None
) -> TheoremVerdict:
    """An arithmetic alpha sequence of step 2 puts the points on a conic.

    With only four steps visible (k_max = 4) the six-point triangle-plus
    configuration is the documented sharp exception and is reported as
    CONSISTENT_EXCEPTION rather than a failure.
    """
    return IMPLICATIONS["uniform-step-two"].check(points, k_max, strategy, alphas)


# ---------------------------------------------------------------------------
# conjecture search

@dataclass(frozen=True)
class SearchReport:
    """Outcome of a seeded random search for step-pattern configurations."""

    difference: int
    trials: int
    seed: int
    r_range: tuple
    k: int
    hypothesis_true: tuple
    inconsistent: tuple

    def to_json_dict(self) -> dict:
        return record("search_report", self)


# coordinate height of the random rational configurations searched
SEARCH_HEIGHT = 999


def _random_prime_field_points(field, r, rng):
    pts = {}  # distinct points in draw order
    while len(pts) < r:  # ends: conjecture_search checks r <= p^2
        pts[point(field, rng.randrange(field.p), rng.randrange(field.p), 1)] = None
    return tuple(pts)


def conjecture_search(
    trials: int,
    r_range=(4, 9),
    k: int = 5,
    seed: int = 0,
    difference: int = 2,
    field=QQ,
) -> SearchReport:
    """Test random configurations for four consecutive steps of a fixed size.

    For step 2 the conclusion is a common conic (open conjecture; this run
    gathers evidence only).  For step 3 the mode is exploratory and the
    conclusion is alpha(Z) = 3.  Every hypothesis-true instance is logged
    with its conclusion check; a candidate counterexample (conclusion
    false) is escalated to certified arithmetic before being reported.
    Over a prime field the whole run is native to that field and its
    certification stays SINGLE_PRIME.
    """
    if k < 5:
        raise ValueError("need k >= 5 to see four consecutive steps")
    if trials < 1:
        raise ValueError("need at least one trial")
    if not 1 <= r_range[0] <= r_range[1]:
        raise ValueError(f"need 1 <= r_min <= r_max; got r_min={r_range[0]}, "
                         f"r_max={r_range[1]}")
    if difference not in (2, 3):
        raise ValueError("difference must be 2 or 3")
    if field != QQ and r_range[1] > field.p ** 2:
        raise ValueError(f"F_{field.p} has only {field.p ** 2} affine points; "
                         f"need r <= {field.p ** 2}")
    rng = random.Random(f"fatpoints.search:{seed}")
    hits = []
    bad = []
    for t in range(trials):
        r = rng.randint(*r_range)
        if field == QQ:
            pts = general(r, seed=rng.randrange(2**30), height=SEARCH_HEIGHT)
        else:
            pts = _random_prime_field_points(field, r, rng)
        # trials scan modulo two primes; candidates are escalated below
        values = []  # up to the first of the last four steps other than `difference`
        for av in iter_alpha_values(pts, k):
            if len(values) > k - 5 and av.value - values[-1].value != difference:
                break
            values.append(av)
        if len(values) < k:
            continue
        rep = AlphaReport.from_values(pts, values)
        hit = {
            "trial": t,
            "r": r,
            "alphas": list(rep.alphas),
            "certification": _shared_label(rep.entries, DEFAULT_SEARCH_STRATEGY.label),
            "points": [list(P.coord_strings()) for P in pts],
        }
        if difference == 2:
            ok = common_conic(pts) is not None
            hit["conic"] = ok
        else:
            ok = rep.alphas[0] == 3
            hit["alpha1_is_3"] = ok
        if not ok:
            exact, certified = _certified_alphas(pts, k)
            tail_exact = tuple(b - a for a, b in zip(exact, exact[1:]))[k - 5:]
            hit["alphas"] = list(exact)
            hit["certification"] = certified or "MIXED"
            if not all(x == difference for x in tail_exact):
                continue
            bad.append(hit)
        hits.append(hit)
    return SearchReport(
        difference, trials, seed, tuple(r_range), k, tuple(hits), tuple(bad)
    )


# ---------------------------------------------------------------------------
# the example registry and reproduction harness

def load_registry() -> dict:
    text = resources.files("fatpoints").joinpath("registry.json").read_text()
    return json.loads(text)


@dataclass(frozen=True)
class ReproCell:
    name: str
    expected: object
    computed: object
    provenance: str
    passed: bool
    certification: str = ""

    def to_json_dict(self) -> dict:
        d = dict(vars(self))  # the dataclass fields
        d["pass"] = d.pop("passed")
        return d


@dataclass(frozen=True)
class ReproReport:
    id: str
    title: str
    config: dict
    cells: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.cells)

    def to_json_dict(self) -> dict:
        return record("repro_report", self, cells=[c.to_json_dict() for c in self.cells],
                      **{"pass": self.passed})

    def table(self) -> str:
        rows = [f"{self.id}: {self.title}"]
        for c in self.cells:
            flag = "PASS" if c.passed else "FAIL"
            rows.append(
                f"  [{flag}] {c.name}: expected {c.expected}, got {c.computed}"
                f" ({c.provenance})"
            )
        return "\n".join(rows)


def _predicate_value(name: str, points, spec: ConfigSpec, nodal: Callable):
    if name == "is_type9":
        return is_type9(points)
    if name == "no_common_conic":
        return common_conic(points) is None
    if name == "collinear":
        return are_collinear(points) is not None
    if name == "is_star":
        got = is_star_configuration(points)
        return got[0] if got else None
    if name == "arrangement_found":
        return detect_line_arrangement(points) is not None
    if name == "dual_hesse_incidence":
        lines = dual_hesse_lines(spec.prime)
        per_point = {sum(1 for L in lines if L.contains(P)) for P in points}
        per_line = {sum(1 for P in points if L.contains(P)) for L in lines}
        return (len(points) == 12 and len(lines) == 9
                and per_point == {3} and per_line == {4})
    if name == "node_count":
        return len(nodal()[1])
    if name == "genus_equality":
        curve, nodes = nodal()
        d = curve.degree
        orders = [order_of_vanishing(curve, P) for P in nodes]
        # a rational curve of degree d has at most (d-1)(d-2)/2 nodes
        return (d - 1) * (d - 2) == sum(m * (m - 1) for m in orders)
    raise ValueError(f"unknown predicate {name!r}")


def _run_alpha_cell(points, cell, av):
    k, value = cell["k"], av.value
    cert = f"existence={av.existence}; below=full-rank"
    mode = cell.get("nonexistence")
    if mode and value > k:
        scheme = FatPointScheme.uniform(points, k)
        probed = (value - 1, "full_rank_mod_p") in av.reports  # by the search's first prime
        below = system_dim(scheme, value - 1, strategy=parse_strategy(mode),
                           full_rank_mod=strategy_primes(DEFAULT_SEARCH_STRATEGY)[0]
                           if probed else None)
        cert += f" ({below.certification} at {value - 1})"
        if below.actual_dim != 0:
            return (f"{value} (uncertified: dim {below.actual_dim} "
                    f"at {value - 1})"), cert
    return value, cert


def repro(example_id: str, registry: Optional[dict] = None) -> ReproReport:
    """Regenerate one registry example and diff every expected cell."""
    registry = registry or load_registry()
    entry = registry["examples"].get(example_id)
    if entry is None:
        raise KeyError(f"unknown example id {example_id!r}")
    spec = ConfigSpec.from_json_dict(entry["config"])
    # the nodal family's curve, built once for its points and both predicates
    nodal = functools.cache(lambda: nodal_curve(spec))
    points = nodal()[1] if spec.family == "nodal_curve_nodes" else generate(spec)
    # one certified sequence and its trail, kept for this call, serve the alpha and alpha_gap cells
    kmax = max((c.get(key, 0) for c in entry["cells"] for key in ("k", "m", "n")), default=0)
    values = list(iter_alpha_values(points, kmax, certify_existence=True)) if kmax else None
    cells = []
    for cell in entry["cells"]:
        kind = cell["check"]
        prov = cell.get("provenance", "DERIVED")
        if kind == "alpha":
            computed, cert = _run_alpha_cell(points, cell, values[cell["k"] - 1])
            name = f"alpha({cell['k']}Z)"
        elif kind == "alpha_gap":
            m, n = cell["m"], cell["n"]
            computed = values[m - 1].value - values[n - 1].value
            cert = values[max(m, n) - 1].certification
            name = f"alpha_gap({m},{n})"
        elif kind == "predicate":
            computed = _predicate_value(cell["name"], points, spec, nodal)
            name = cell["name"]
            cert = "EXACT" if points[0].field == QQ else f"F_{points[0].field.p}"
        else:
            raise ValueError(f"unknown cell kind {kind!r}")
        cells.append(
            ReproCell(name, cell["expected"], computed, prov,
                      computed == cell["expected"], cert)
        )
    return ReproReport(example_id, entry.get("title", example_id),
                       spec.to_json_dict(), tuple(cells))
