"""End-to-end command-line behavior: exit codes, round trips, determinism."""

import json
import math
import re

import pytest

from fatpoints import geometry
from fatpoints.algebra import QQ, evaluate, point, poly
from fatpoints.geometry import Line, spanned_lines
from fatpoints.cli import main
from fatpoints.serialize import points_from_json_dict, points_to_json_dict
from fatpoints.configs import DEGREE_FAMILIES, general, star, type9
from fatpoints.svgplot import render_svg


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_generate_round_trip(tmp_path, capsys):
    out = tmp_path / "pts.json"
    code, _, _ = run(capsys, "generate", "--family", "general", "--r", "5",
                     "--seed", "3", "--out", str(out))
    assert code == 0
    data = json.loads(out.read_text())
    assert data["schema"] == "fatpoints/1"
    assert points_from_json_dict(data) == general(5, seed=3)
    # rational points asked for over the rationals stay as they are
    code, _, _ = run(capsys, "generate", "--family", "general", "--r", "5", "--seed", "3",
                     "--field", "rational", "--out", str(out))
    assert code == 0 and json.loads(out.read_text()) == data
    with pytest.raises(ValueError, match="need at least one point"):
        points_to_json_dict(())


def test_alphaseq_conic(capsys):
    code, out, _ = run(capsys, "alphaseq", "--family", "on_conic", "--r", "6",
                       "--kmax", "5")
    assert code == 0
    assert json.loads(out)["alphas"] == [2, 4, 6, 8, 10]


def test_alphaseq_pretty_table(capsys):
    # the CSV's columns, two spaces apart; the first row has no difference
    code, out, _ = run(capsys, "alphaseq", "--family", "on_conic", "--r", "6",
                       "--kmax", "5", "--pretty")
    assert code == 0
    assert out == "k  alpha  diff\n1  2  \n2  4  2\n3  6  2\n4  8  2\n5  10  2\n"
    code, out, _ = run(capsys, "alphaseq", "--family", "on_conic", "--r", "6",
                       "--kmax", "1", "--pretty")
    assert code == 0 and out == "k  alpha  diff\n1  2  \n"


def test_alphaseq_csv_export(tmp_path, capsys):
    out = tmp_path / "table.csv"
    code, _, _ = run(capsys, "alphaseq", "--family", "on_conic", "--r", "6",
                     "--kmax", "3", "--out", str(out))
    assert code == 0
    assert out.read_text().splitlines() == ["k,alpha,diff", "1,2,", "2,4,2", "3,6,2"]


def test_alphaseq_pretty_prints_the_table_beside_a_csv_file(tmp_path, capsys):
    out = tmp_path / "q.csv"
    code, stdout, _ = run(capsys, "alphaseq", "--family", "on_conic", "--r", "6",
                          "--kmax", "3", "--pretty", "--out", str(out))
    assert code == 0
    assert stdout == "k  alpha  diff\n1  2  \n2  4  2\n3  6  2\n"
    assert out.read_text() == "k,alpha,diff\n1,2,\n2,4,2\n3,6,2\n"


def test_alpha_three_general_double_points(tmp_path, capsys):
    pts = tmp_path / "pts.json"
    run(capsys, "generate", "--family", "general", "--r", "3", "--seed", "11",
        "--height", "12", "--out", str(pts))
    code, out, _ = run(capsys, "alpha", "--points", str(pts), "--mults", "2,2,2")
    assert code == 0
    assert json.loads(out)["value"] == 3


def test_alpha_modular_strategy_warns_exit_2(capsys):
    code, out, _ = run(capsys, "alpha", "--family", "on_conic", "--r", "6",
                       "--mults", "2", "--strategy", "prime")
    assert code == 2
    assert json.loads(out)["warnings"]


def test_alphaseq_modular_strategy_warns_exit_2(capsys):
    # six conic points: each alpha(kZ) = 2k lies below the dimension count,
    # so under one prime every existence side is modular; general points'
    # are dimension counts
    code, out, _ = run(capsys, "alphaseq", "--family", "on_conic", "--r", "6", "--kmax", "3",
                       "--strategy", "prime")
    assert code == 2
    assert json.loads(out)["warnings"] == [
        f"k={k}: existence side certified only modulo primes" for k in (1, 2, 3)]
    code, out, _ = run(capsys, "alphaseq", "--family", "general", "--r", "6", "--seed", "1",
                       "--kmax", "3", "--strategy", "prime")
    assert code == 0 and json.loads(out)["warnings"] == []


@pytest.mark.parametrize("argv, message", [
    (("alpha", "--family", "collinear", "--r", "3", "--mults", "1,2"),
     "--mults has 2 entries for 3 points"),
    (("alpha", "--family", "collinear", "--r", "3", "--verify-cache"),
     "--verify-cache needs a cache directory"),
    (("alphaseq", "--family", "collinear", "--r", "3"), "--kmax >= 1 is required"),
    (("dim", "--family", "collinear", "--r", "3"), "--d is required"),
    (("kernel", "--family", "collinear", "--r", "3"), "--d is required"),
    (("dim", "--family", "star_minus_one", "--d", "4"),
     "pass the star_minus_one size as --p"),
    (("repro",), "pass --id ID or --all"),
])
def test_usage_errors_are_one_error_line(capsys, monkeypatch, argv, message):
    monkeypatch.delenv("FATPOINTS_CACHE", raising=False)
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error:") and message in err and err.count("\n") == 1


def test_dim_command(capsys):
    code, out, _ = run(capsys, "dim", "--family", "general", "--r", "6",
                       "--seed", "42", "--d", "4", "--mults", "2")
    assert code == 0
    data = json.loads(out)
    assert data["actual_dim"] == 0 and data["expected_dim"] == -3


def test_kernel_command(capsys):
    code, out, _ = run(capsys, "kernel", "--family", "on_conic", "--r", "5",
                       "--d", "2")
    assert code == 0
    data = json.loads(out)
    assert data["dimension"] == 1
    assert data["basis"][0]["degree"] == 2


def test_check_exception_status(capsys):
    code, out, _ = run(capsys, "check", "--family", "type9", "--theorem",
                       "uniform-step-two", "--k", "4")
    assert code == 0
    assert json.loads(out)["status"] == "CONSISTENT_EXCEPTION"


def test_check_honours_strategy(capsys):
    code, out, _ = run(capsys, "check", "--theorem", "minimal-gap", "--k", "3",
                       "--family", "collinear", "--r", "4", "--strategy", "exact")
    assert code == 0
    assert json.loads(out)["certification"] == "EXACT_RATIONAL"


STAR5_UNIT_STEP = ("check", "--family", "star", "--p", "5", "--seed", "1",
                   "--theorem", "unit-step", "--k", "2")


def test_check_unit_step_searches_past_twelve_candidates(capsys):
    # ten points spanning 20 lines: the five star lines, searched completely
    code, out, _ = run(capsys, *STAR5_UNIT_STEP)
    verdict = json.loads(out)
    assert code == 0 and verdict["status"] == "CONSISTENT"
    arrangement = verdict["witness"]["arrangement"]
    assert len(arrangement["lines"]) == 5 and arrangement["exhaustive"] is True


def test_check_unit_step_past_the_node_limit_is_an_error(monkeypatch, capsys):
    monkeypatch.setattr(geometry, "ARRANGEMENT_NODE_LIMIT", 3)
    code, out, err = run(capsys, *STAR5_UNIT_STEP)
    assert code == 1 and out == ""
    assert err.startswith("error:") and "3-node limit" in err
    assert err.count("\n") == 1 and "Traceback" not in err


def refused(capsys, *argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    return exc.value.code, capsys.readouterr().err


@pytest.mark.parametrize("argv,name", [
    (("generate", "--family", "collinear", "--r", "3"), "g.csv"),
    (("plot", "--family", "type9"), "x.json"),
    (("repro", "--id", "ex-star3"), "r.svg"),
], ids=["generate-csv", "plot-json", "repro-svg"])
def test_an_out_suffix_the_command_does_not_write_is_refused(tmp_path, capsys, argv, name):
    # .csv is only alphaseq's table and .svg only plot's drawing; plot
    # writes no JSON
    out = tmp_path / name
    code, err = refused(capsys, *argv, "--out", str(out))
    assert code == 2 and err.startswith(f"usage: fatpoints {argv[0]} ")
    assert f"error: --out {out}: {argv[0]} writes no {out.suffix} file" in err
    assert "Traceback" not in err and not out.exists()


def test_check_refuses_cache(tmp_path, capsys):
    # check never reads a cache, so it does not accept one
    cache = tmp_path / "cache"
    code, err = refused(capsys, "check", "--theorem", "minimal-gap", "--k", "3",
                        "--family", "collinear", "--r", "4", "--cache", str(cache))
    assert code != 0 and "--cache" in err
    assert "usage: fatpoints check" in err and "fatpoints check: error" in err
    assert not cache.exists()


@pytest.mark.parametrize("flag", ["--r", "--p", "--d", "--d1", "--d2", "--prime",
                                  "--height", "--seed"])
def test_points_refuse_family_parameters(tmp_path, capsys, flag):
    # a points file reads none of them, so accepting one would read as honoured
    pts = tmp_path / "p.json"
    run(capsys, "generate", "--family", "general", "--r", "4", "--out", str(pts))
    for command, *rest in (("generate",), ("alphaseq", "--kmax", "2")):
        code, err = refused(capsys, command, "--points", str(pts), *rest, flag, "5")
        assert code == 2 and f"usage: fatpoints {command}" in err
        assert f"--points takes no family parameters: {flag}" in err
    if flag == "--d":  # the system degree of dim and kernel
        code, _, _ = run(capsys, "dim", "--points", str(pts), "--d", "2")
        assert code == 0


def test_search_refuses_strategy_and_cache(tmp_path, capsys):
    cache = tmp_path / "cache"
    code, err = refused(capsys, "search", "--trials", "2", "--strategy", "exact",
                        "--cache", str(cache))
    assert code != 0 and "--strategy" in err and "--cache" in err
    assert not cache.exists()


# the shared options each command used to accept and ignore, with a
# command line it would otherwise run
IGNORED = {
    "generate": (("--family", "on_conic", "--r", "4"), ("--mults", "--kmax")),
    "alpha": (("--family", "on_conic", "--r", "4"), ("--kmax",)),
    "dim": (("--family", "on_conic", "--r", "4", "--d", "2"), ("--kmax",)),
    "kernel": (("--family", "on_conic", "--r", "4", "--d", "2"), ("--kmax",)),
    "alphaseq": (("--family", "on_conic", "--r", "4", "--kmax", "2"), ("--mults",)),
    "plot": (("--family", "type9"), ("--mults", "--kmax", "--pretty")),
    "check": (("--family", "collinear", "--r", "4", "--theorem", "minimal-gap",
               "--k", "3"), ("--mults", "--kmax")),
    "repro": (("--id", "ex-conic6"),
              ("--field", "--d", "--mults", "--kmax", "--seed", "--pretty")),
    "search": (("--trials", "1"), ("--d", "--mults")),
}
FLAG_VALUES = {"--field": ("rational",), "--d": ("3",), "--mults": ("2",),
               "--kmax": ("9",), "--seed": ("4",), "--pretty": ()}


@pytest.mark.parametrize("command, flag", [(c, f) for c, (_, flags) in IGNORED.items()
                                           for f in flags])
def test_commands_refuse_the_options_they_ignore(capsys, command, flag):
    base, _ = IGNORED[command]
    code, err = refused(capsys, command, *base, flag, *FLAG_VALUES[flag])
    assert code == 2
    assert err.startswith(f"usage: fatpoints {command} ")
    assert f"fatpoints {command}: error: unrecognized arguments: {flag}" in err


def test_repro_single_row(capsys):
    code, out, _ = run(capsys, "repro", "--id", "ex-type9")
    assert code == 0
    assert "PASS" in out and "FAIL" not in out


def test_repro_unknown_id(capsys):
    code, _, err = run(capsys, "repro", "--id", "ex-nonsense")
    assert code == 1 and err.startswith("error: unknown example id")


def test_repro_refuses_id_with_all(capsys):
    code, out, err = run(capsys, "repro", "--id", "ex-type9", "--all")
    assert code == 1 and out == ""
    assert err.startswith("error: pass either --id or --all, not both")


def test_repro_literature_dual_hesse_row_fails(capsys):
    code, out, _ = run(capsys, "repro", "--id", "ex-dualhesse-p31")
    assert code == 1
    assert "FAIL" in out and "alpha(3Z)" in out


def test_search_usage_error(capsys):
    code, _, err = run(capsys, "search", "--trials", "0")
    assert code == 1 and "error" in err


def test_search_artifact_reproducible(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        code, _, _ = run(capsys, "search", "--trials", "4", "--seed", "9",
                         "--out", str(path))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_search_leaves_its_defaults_to_the_library(tmp_path, capsys):
    # conjecture_search's own defaults, spelled out or left unset, and an
    # empty --field, which means rational
    base = ("search", "--trials", "5", "--seed", "0")
    runs = {"plain": base,
            "spelled": (*base, "--kmax", "5", "--field", "rational", "--conjecture", "2",
                        "--r-min", "4", "--r-max", "9"),
            "empty-field": (*base, "--field", ""),
            "no-seed": base[:3]}
    for name, argv in runs.items():
        code, _, err = run(capsys, *argv, "--out", str(tmp_path / f"{name}.json"))
        assert code == 0 and "Traceback" not in err
    want = (tmp_path / "plain.json").read_bytes()
    assert all((tmp_path / f"{name}.json").read_bytes() == want for name in runs)
    code, err = refused(capsys, *base, "--conjecture", "4")
    assert code == 2 and "invalid choice: 4" in err


def test_missing_input_is_an_error(capsys):
    code, _, err = run(capsys, "alpha")
    assert code == 1 and "required" in err


def test_points_and_family_conflict(tmp_path, capsys):
    pts = tmp_path / "p.json"
    run(capsys, "generate", "--family", "collinear", "--r", "3", "--out", str(pts))
    code, _, err = run(capsys, "alpha", "--points", str(pts), "--family", "collinear",
                       "--r", "3")
    assert code == 1 and "not both" in err


def test_plot_deterministic_bytes(tmp_path, capsys):
    a = tmp_path / "a.svg"
    b = tmp_path / "b.svg"
    for path in (a, b):
        code, _, _ = run(capsys, "plot", "--family", "type9", "--out", str(path))
        assert code == 0
    blob = a.read_bytes()
    assert blob == b.read_bytes()
    text = blob.decode()
    assert text.count("<circle") == 6
    assert text.count("<line") == 3


def test_plot_star_draws_lines(tmp_path, capsys):
    out = tmp_path / "s.svg"
    code, _, _ = run(capsys, "plot", "--family", "star", "--p", "4", "--seed", "1",
                     "--out", str(out))
    assert code == 0
    assert out.read_text().count("<line") == 4


def test_plot_points_detects_lines(tmp_path, capsys):
    # without --family, plot draws a detected star or line arrangement; the
    # lines x = 0, y = 0, x = y and x + 2y = z meet in four points, three of
    # them concurrent, so they are an arrangement but not a star
    fan = tmp_path / "fan.json"
    fan.write_text(json.dumps(points_to_json_dict(
        [point(QQ, *c) for c in ((0, 0, 1), (0, 1, 2), (1, 0, 1), (1, 1, 3))])))
    for argv, npoints, nlines in ((("--family", "star", "--p", "4"), 6, 4),
                                  (("--family", "general", "--r", "5"), 5, 0),
                                  (("--points", str(fan)), 4, 4)):
        pts = tmp_path / "pts.json"
        run(capsys, "generate", *argv, "--out", str(pts))
        code, out, _ = run(capsys, "plot", "--points", str(pts))
        assert code == 0 and out.count("<circle") == npoints
        assert out.count("<line") == nlines


@pytest.mark.parametrize("argv", [
    ("--family", "star", "--p", "4", "--seed", "1"),
    ("--family", "star", "--p", "4", "--seed", "1", "--field", "prime:101"),
    ("--family", "type9"),
], ids=["star", "star-F101", "type9"])
def test_plot_draws_the_same_picture_from_the_points_file(tmp_path, capsys, argv):
    # the drawn lines come from the points, not from the family that made them
    pts = tmp_path / "pts.json"
    run(capsys, "generate", *argv, "--out", str(pts))
    code, from_family, _ = run(capsys, "plot", *argv)
    assert code == 0
    code, from_file, _ = run(capsys, "plot", "--points", str(pts))
    assert code == 0 and from_file == from_family


def test_type9_without_seed_is_the_canonical_configuration(tmp_path, capsys):
    for seed, want in (((), type9()), (("--seed", "0"), type9(0))):
        out = tmp_path / "t9.json"
        code, _, _ = run(capsys, "generate", "--family", "type9", *seed, "--out", str(out))
        assert code == 0
        assert json.loads(out.read_text()) == points_to_json_dict(want)
    assert type9() != type9(0)


def test_plot_over_a_prime_field_draws_points_only(capsys):
    # residues mod p are no real coordinates, so no line is drawn through them
    code, out, _ = run(capsys, "plot", "--family", "dual_hesse", "--prime", "13")
    assert code == 0
    assert out.count("<circle") == 12 and "<line" not in out


def test_render_svg_draws_the_lines_of_the_points():
    assert render_svg(type9()).count("<line") == 3
    assert render_svg(star(4, seed=1)[0]).count("<line") == 4


_NUM = r'"(-?[0-9.]+)"'
FAN = tuple(point(QQ, *c) for c in ((0, 0, 1), (0, 1, 2), (1, 0, 1), (1, 1, 3)))


def _clip(seg, box):
    """The part of a segment inside a rectangle (Liang-Barsky), or None."""
    (x1, y1, x2, y2), (x0, y0, w, h) = seg, box
    dx, dy, t0, t1 = x2 - x1, y2 - y1, 0.0, 1.0
    for p, q in ((-dx, x1 - x0), (dx, x0 + w - x1), (-dy, y1 - y0), (dy, y0 + h - y1)):
        if p == 0:
            if q < 0:
                return None
        elif p < 0:
            t0 = max(t0, q / p)
        else:
            t1 = min(t1, q / p)
    return (x1 + t0 * dx, y1 + t0 * dy, x1 + t1 * dx, y1 + t1 * dy) if t0 < t1 else None


@pytest.mark.parametrize("points, lines", [
    (star(4, seed=1)[0], star(4, seed=1)[1]),
    (star(5, seed=1)[0], star(5, seed=1)[1]),
    (type9(), [L for L, inc in spanned_lines(type9()) if len(inc) == 3]),
    (FAN, [Line.from_coeffs(QQ, c) for c in ((1, 0, 0), (0, 1, 0), (1, -1, 0), (1, 2, -1))]),
], ids=["star4", "star5", "type9", "arrangement"])
def test_plot_lines_cross_the_clip_box_through_their_points(points, lines):
    # one clip rectangle; each line reaches past it both ways, so the clip
    # leaves a chord from box edge to box edge, and passes through exactly
    # the drawn points that the configuration's line carries
    svg = render_svg(points)
    assert svg.count("<clipPath") == 1
    box = tuple(map(float, re.search(
        r'<clipPath id="box"><rect x=%s y=%s width=%s height=%s/></clipPath>'
        % ((_NUM,) * 4), svg).groups()))
    drawn = re.findall(r"<line [^>]*>", svg)
    assert len(drawn) == len(lines)
    assert all('clip-path="url(#box)"' in line for line in drawn)
    centres = [tuple(map(float, c)) for c in re.findall(r"<circle cx=%s cy=%s" % (_NUM, _NUM), svg)]
    assert len(centres) == len(points)
    x0, y0, w, h = box
    on_edge = lambda x, y: (min(abs(x - x0), abs(x - x0 - w)) < 0.01 and y0 - 0.01 <= y <= y0 + h + 0.01
                            or min(abs(y - y0), abs(y - y0 - h)) < 0.01 and x0 - 0.01 <= x <= x0 + w + 0.01)
    through = []
    for line in drawn:
        x1, y1, x2, y2 = seg = tuple(map(float, re.search(
            r"x1=%s y1=%s x2=%s y2=%s" % ((_NUM,) * 4), line).groups()))
        chord = _clip(seg, box)
        assert chord is not None and math.dist(chord[:2], chord[2:]) > 1
        assert on_edge(*chord[:2]) and on_edge(*chord[2:])
        length = math.dist(seg[:2], seg[2:])
        through.append(frozenset(
            i for i, (cx, cy) in enumerate(centres)
            if abs((x2 - x1) * (cy - y1) - (y2 - y1) * (cx - x1)) / length < 0.02))
    want = [frozenset(i for i, P in enumerate(points) if L.contains(P)) for L in lines]
    assert sorted(through, key=sorted) == sorted(want, key=sorted)


def test_render_svg_empty_canvas():
    svg = render_svg(())
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
    assert "<circle" not in svg


def test_render_svg_point_at_infinity():
    from fatpoints.algebra import QQ, point

    svg = render_svg((point(QQ, 1, 2, 0), point(QQ, 0, 0, 1)))
    assert "(inf)" in svg


def test_render_svg_skips_the_line_at_infinity():
    # the coordinate triangle is a star of x = 0, y = 0 and z = 0; the last
    # is the line at infinity, which the affine chart does not show
    svg = render_svg((point(QQ, 1, 0, 0), point(QQ, 0, 1, 0), point(QQ, 0, 0, 1)))
    assert svg.count("<line") == 2 and svg.count("(inf)") == 2


def test_field_reduction_flag(capsys):
    # the conic example runs natively mod p with the same alpha table, up to
    # the largest prime that 64-bit residue elimination allows
    for field in ("prime:31", "prime:2147483647"):
        code, out, _ = run(capsys, "alphaseq", "--family", "on_conic", "--r", "6",
                           "--kmax", "4", "--field", field)
        assert code in (0, 2)
        data = json.loads(out)
        assert data["alphas"] == [2, 4, 6, 8]
        assert all(e["certification"] == "SINGLE_PRIME" for e in data["entries"])


def test_field_reduction_uses_integer_representatives(tmp_path, capsys):
    # (1/3 : 1 : 1) = (1 : 3 : 3), which is (1 : 0 : 0) mod 3
    pts = tmp_path / "pts.json"
    pts.write_text(json.dumps({"schema": "fatpoints/1", "kind": "points",
                               "field": "rational", "points": [["1/3", "1", "1"]]}))
    code, out, _ = run(capsys, "generate", "--points", str(pts), "--field", "prime:3")
    assert code == 0
    assert json.loads(out)["points"] == [["1", "0", "0"]]


def test_field_prime_too_large_is_refused(capsys):
    # int64 elimination would overflow and print wrong alphas
    code, out, err = run(capsys, "alphaseq", "--family", "on_conic", "--r", "6",
                         "--kmax", "4", "--field", "prime:2305843009213693951")
    assert code == 1 and out == ""
    assert "need p < 2^31" in err


def test_field_reduction_rejected_from_prime_field(capsys):
    code, _, err = run(capsys, "alpha", "--family", "dual_hesse", "--prime", "31",
                       "--field", "rational")
    assert code == 1 and "stay in their field" in err


def test_search_over_prime_field(capsys):
    code, out, _ = run(capsys, "search", "--trials", "5", "--seed", "3",
                       "--field", "prime:101")
    assert code == 0
    data = json.loads(out)
    assert data["inconsistent"] == []


def test_cache_coherence(tmp_path, capsys):
    cache = tmp_path / "cache"
    args = ("alphaseq", "--family", "on_conic", "--r", "5", "--kmax", "3")
    _, cold, _ = run(capsys, *args, "--cache", str(cache))
    assert list(cache.glob("*.json"))
    _, warm, _ = run(capsys, *args, "--cache", str(cache))
    _, plain, _ = run(capsys, *args)
    assert cold == warm == plain
    # verify mode recomputes and compares against the stored entries
    code, verified, _ = run(capsys, *args, "--cache", str(cache), "--verify-cache")
    assert code == 0 and verified == cold


def test_the_product_bound_saves_cache_entries(tmp_path, capsys):
    # alpha sits well below hi - 1 here, so probing the product bound first
    # skips degrees that the bisection from hi - 1 would write
    a, b = tmp_path / "a", tmp_path / "b"
    run(capsys, "alphaseq", "--family", "on_conic", "--r", "6", "--kmax", "5", "--cache", str(a))
    assert len(list(a.iterdir())) <= 15
    for family in (("collinear", "--r", "6"), ("type9",)):
        run(capsys, "alphaseq", "--family", *family, "--kmax", "5", "--cache", str(b))
    assert len(list(b.iterdir())) <= 21


def test_kernel_out_past_the_int_string_limit(tmp_path, capsys):
    # (N : 1 : 1) has a 5103-digit coordinate, so the lines through it do too
    N = 2**16949 + 1
    pts, out = tmp_path / "pts.json", tmp_path / "kernel.json"
    pts.write_text(json.dumps(points_to_json_dict([point(QQ, N, 1, 1)])))
    code, _, _ = run(capsys, "kernel", "--points", str(pts), "--d", "1", "--out", str(out))
    assert code == 0
    basis = [poly(QQ, g["degree"], {tuple(m): c for m, c in g["terms"]})
             for g in json.loads(out.read_text())["basis"]]
    assert len(basis) == 2 and all(evaluate(g, point(QQ, N, 1, 1)) == 0 for g in basis)
    assert any(abs(c) == N for g in basis for _, c in g.terms)


def test_cache_env_var(tmp_path, capsys, monkeypatch):
    cache = tmp_path / "envcache"
    monkeypatch.setenv("FATPOINTS_CACHE", str(cache))
    code, out, _ = run(capsys, "dim", "--family", "collinear", "--r", "4", "--d", "3")
    assert code == 0
    assert list(cache.glob("*.json"))


def test_cache_verify_detects_corruption(tmp_path, capsys):
    cache = tmp_path / "cache"
    args = ("dim", "--family", "collinear", "--r", "3", "--d", "2")
    run(capsys, *args, "--cache", str(cache))
    victim = next(cache.glob("*.json"))
    data = json.loads(victim.read_text())
    data["actual_dim"] += 1
    victim.write_text(json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n")
    code, _, err = run(capsys, *args, "--cache", str(cache), "--verify-cache")
    assert code == 1 and "disagrees" in err


def test_every_entry_alphaseq_writes_passes_the_hit_check(tmp_path, capsys):
    # a false positive of the key check would make the warm rerun exit 1
    cache = tmp_path / "cache"
    argvs = [("alphaseq", "--family", *family, "--kmax", "5", "--cache", str(cache))
             for family in (("on_conic", "--r", "6"), ("collinear", "--r", "6"), ("type9",))]
    cold = [run(capsys, *argv) for argv in argvs]
    entries = {f.name: f.read_bytes() for f in cache.iterdir()}
    assert len(entries) >= 15 and all(code == 0 for code, _, _ in cold)
    assert [run(capsys, *argv) for argv in argvs] == cold
    assert {f.name: f.read_bytes() for f in cache.iterdir()} == entries


def test_a_non_utf8_entry_is_an_error_line(tmp_path, capsys):
    cache = tmp_path / "cache"
    args = ("alphaseq", "--family", "on_conic", "--r", "5", "--kmax", "3", "--cache", str(cache))
    run(capsys, *args)
    victim = next(cache.glob("*.json"))
    victim.write_bytes(b'{"actual_dim":\xff}')
    code, _, err = run(capsys, *args)
    assert code == 1
    assert err.startswith("error:") and "corrupt" in err and str(victim) in err


def _truncate_one_entry(cache):
    victim = next(cache.glob("*.json"))
    victim.write_text(victim.read_text()[:40])
    return victim


def test_cache_truncated_entry_is_named_corrupt(tmp_path, capsys):
    cache = tmp_path / "cache"
    args = ("alphaseq", "--family", "on_conic", "--r", "5", "--kmax", "3")
    run(capsys, *args, "--cache", str(cache))
    victim = _truncate_one_entry(cache)
    code, _, err = run(capsys, *args, "--cache", str(cache))
    assert code == 1
    assert "corrupt" in err and victim.stem in err and str(victim) in err


def test_cache_verify_names_corruption(tmp_path, capsys):
    cache = tmp_path / "cache"
    args = ("alphaseq", "--family", "on_conic", "--r", "5", "--kmax", "3")
    run(capsys, *args, "--cache", str(cache))
    victim = _truncate_one_entry(cache)
    code, _, err = run(capsys, *args, "--cache", str(cache), "--verify-cache")
    assert code == 1
    assert "corrupt" in err and str(victim) in err and "disagrees" not in err


def test_cache_entry_missing_fields_is_corrupt(tmp_path, capsys):
    cache = tmp_path / "cache"
    args = ("dim", "--family", "collinear", "--r", "3", "--d", "2")
    run(capsys, *args, "--cache", str(cache))
    victim = next(cache.glob("*.json"))
    victim.write_text('{"rank": 3}\n')
    code, _, err = run(capsys, *args, "--cache", str(cache))
    assert code == 1
    assert "corrupt" in err and "'degree'" in err and str(victim) in err


def _points_file(field, coords):
    return json.dumps({"field": field, "points": [["0", "0", "1"], coords]})


@pytest.mark.parametrize("text,message", [
    (_points_file("rational", ["1", "2"]), "point 1 "),
    (_points_file("rational", ["1", "2", "3", "4"]), "point 1 "),
    (_points_file("rational", [0.1, 1, 1]), "point 1 "),
    (_points_file("prime:7", [0.5, 1, 1]), "point 1 "),
    (_points_file("rational", [True, 1, 1]), "point 1 "),
    (_points_file("rational", "123"), "point 1 "),
    (_points_file("rational", ["1/0", "1", "1"]), "point 1: zero denominator in '1/0'"),
    (_points_file("rational", ["1" * 700 + "/0", "1", "1"]), "point 1: zero denominator"),
    (_points_file("rational", ["0", "0", "0"]), "point 1: (0 : 0 : 0) is not a projective"),
    (_points_file("prime:7", ["1/7", "0", "1"]), "point 1: denominator of 1/7 vanishes"),
    (_points_file("rational", ["x", "0", "1"]), "point 1: "),
    ('{"field": "rational", "points": 5}', '"points" list'),
    ('[["0", "0", "1"]]', '"points" list'),
    ('{"points": [["0", "0", "1"]]}', '"field" tag, "rational" or "prime:P"'),
    ('{"schema": "other/1", "field": "rational", "points": [["0", "0", "1"]]}',
     "unsupported schema 'other/1'"),
], ids=["two", "four", "float", "float-mod-7", "bool", "string", "1/0", "long-1/0",
        "origin", "1/7-mod-7", "not-a-number", "points-not-a-list", "not-an-object",
        "no-field", "foreign-schema"])
def test_points_files_are_checked_where_they_enter(tmp_path, capsys, text, message):
    pts = tmp_path / "pts.json"
    pts.write_text(text)
    code, out, err = run(capsys, "generate", "--points", str(pts))
    assert code == 1 and out == ""
    assert err.startswith("error:") and message in err


def test_points_files_of_strings_and_integers_keep_their_bytes(tmp_path, capsys):
    pts = tmp_path / "pts.json"
    pts.write_text(json.dumps({"field": "rational",
                               "points": [["1/2", 3, "-4"], [0, "0", 1]]}))
    code, out, _ = run(capsys, "generate", "--points", str(pts))
    assert code == 0
    assert json.loads(out)["points"] == [["-1/8", "-3/4", "1"], ["0", "0", "1"]]


def test_field_reduction_refuses_merged_points(capsys):
    # two of these five rational points reduce to (2 : 2 : 1) mod 3
    code, out, err = run(capsys, "generate", "--family", "general", "--r", "5",
                         "--field", "prime:3")
    assert code == 1 and out == ""
    assert err.startswith("error:") and "reduction mod 3 merges" in err


def test_family_missing_parameter_is_refused(capsys):
    needs = {"collinear": "r", "on_conic": "r", "general": "r", "star": "p",
             "star_minus_one": "d", "dual_hesse": "prime",
             "nodal_curve_nodes": "d, prime", "two_nodal_union": "d1, d2, prime"}
    for family, params in needs.items():
        code, out, err = run(capsys, "generate", "--family", family)
        assert code == 1 and out == "", family
        assert err.startswith("error:") and err.rstrip().endswith(params), err


def test_generator_failure_is_an_error(capsys):
    code, out, err = run(capsys, "generate", "--family", "nodal_curve_nodes",
                         "--d", "5", "--prime", "37", "--seed", "1")
    assert code == 1 and out == ""
    assert err.startswith("error:") and "nodal generation failed" in err


def test_search_refuses_more_points_than_the_field_has(capsys):
    # F_2 has 4 affine points and the default r range goes up to 9
    code, out, err = run(capsys, "search", "--trials", "1", "--field", "prime:2")
    assert code == 1 and out == ""
    assert err.startswith("error:") and "need r <= 4" in err


def test_height_zero_is_not_the_default_height(capsys):
    # height 0 leaves only (0 : 0 : 1) to draw from
    code, out, err = run(capsys, "generate", "--family", "general", "--r", "3",
                         "--height", "0")
    assert code == 1 and out == ""
    assert err.startswith("error:") and "widen the height" in err


def test_search_refuses_kmax_below_five(capsys):
    code, out, err = run(capsys, "search", "--trials", "2", "--kmax", "3")
    assert code == 1 and out == ""
    assert err.startswith("error:") and "need k >= 5" in err


def test_search_refuses_an_empty_r_range(capsys):
    code, out, err = run(capsys, "search", "--trials", "2", "--r-min", "6",
                         "--r-max", "4")
    assert code == 1 and out == ""
    assert err.startswith("error:") and "r_min=6, r_max=4" in err


def test_generate_refuses_a_negative_height(capsys):
    code, out, err = run(capsys, "generate", "--family", "general", "--r", "3",
                         "--height", "-5")
    assert code == 1 and out == ""
    assert err.startswith("error:") and "need height >= 0; got -5" in err


@pytest.mark.parametrize("family, args", [("star", ("--p", "4", "--seed", "1")),
                                          ("collinear", ("--r", "3"))])
def test_generate_refuses_a_height_the_family_does_not_take(capsys, family, args):
    for height in ("5", "-5"):
        code, out, err = run(capsys, "generate", "--family", family, *args,
                             "--height", height)
        assert code == 1 and out == ""
        assert err.startswith("error:") and f"family '{family}' takes no height" in err
    code, out, _ = run(capsys, "generate", "--family", "nagata16", "--height", "40")
    assert code == 0
    assert all(abs(c) <= 40 for P in points_from_json_dict(json.loads(out))
               for c in P.integer_coords()[:2])


@pytest.mark.parametrize("argv, extra", [
    (("--family", "on_conic", "--r", "4", "--seed", "3"), "seed"),
    (("--family", "general", "--r", "3", "--p", "8"), "p"),
    (("--family", "dual_hesse", "--prime", "13", "--r", "2"), "r"),
    (("--family", "general", "--r", "3", "--d", "4"), "d"),
    (("--family", "star_minus_one", "--d", "5", "--p", "4"), "p"),
])
def test_a_family_refuses_the_parameters_it_ignores(capsys, argv, extra):
    code, out, err = run(capsys, "generate", *argv)
    assert code == 1 and out == ""
    assert err.startswith("error:") and f"family '{argv[1]}' takes no {extra}" in err


@pytest.mark.parametrize("command, family, generated", [
    ("kernel", ("--family", "star_minus_one", "--p", "5", "--seed", "1"),
     ("--family", "star_minus_one", "--d", "5", "--seed", "1")),
    ("dim", ("--family", "nodal_curve_nodes", "--p", "4", "--prime", "17", "--seed", "0"),
     ("--family", "nodal_curve_nodes", "--d", "4", "--prime", "17", "--seed", "0")),
    ("dim", ("--family", "general", "--r", "6", "--seed", "42"),
     ("--family", "general", "--r", "6", "--seed", "42")),
])
def test_dim_and_kernel_read_d_as_the_system_degree(tmp_path, capsys, command, family,
                                                    generated):
    # --p stands in for a family degree there; --d never reaches the family
    pts = tmp_path / "pts.json"
    run(capsys, "generate", *generated, "--out", str(pts))
    code, from_family, _ = run(capsys, command, *family, "--d", "3")
    assert code == 0
    code, from_file, _ = run(capsys, command, "--points", str(pts), "--d", "3")
    assert code == 0 and from_file == from_family


# each degree family's degree, then the other arguments it needs
DEGREE_FAMILY_ARGS = {"star_minus_one": ("5", "--seed", "1"),
                      "nodal_curve_nodes": ("4", "--prime", "17", "--seed", "0")}


@pytest.mark.parametrize("command", ["dim", "kernel"])
@pytest.mark.parametrize("family", DEGREE_FAMILIES)
def test_every_degree_family_takes_its_degree_as_p(tmp_path, capsys, family, command):
    degree, *rest = DEGREE_FAMILY_ARGS[family]
    pts = tmp_path / "pts.json"
    code, _, _ = run(capsys, "generate", "--family", family, "--d", degree, *rest,
                     "--out", str(pts))
    assert code == 0
    code, from_family, _ = run(capsys, command, "--family", family, "--p", degree, *rest,
                               "--d", "3")
    assert code == 0
    code, from_file, _ = run(capsys, command, "--points", str(pts), "--d", "3")
    assert code == 0 and from_file == from_family
    code, out, err = run(capsys, command, "--family", family, *rest, "--d", "3")
    assert code == 1 and out == "" and f"pass the {family} size as --p" in err


def test_alphaseq_names_the_points_it_ran_on(capsys):
    reports = []
    for seed, want in (((), type9()), (("--seed", "0"), type9(0))):
        code, out, _ = run(capsys, "alphaseq", "--family", "type9", *seed, "--kmax", "3")
        assert code == 0
        reports.append(json.loads(out))
        assert reports[-1]["points"] == points_to_json_dict(want)["points"]
        assert "seed" not in reports[-1]
    assert reports[0] != reports[1]


def test_alphaseq_names_its_field(tmp_path, capsys):
    # the points (0 : i : 1) have the same residues mod 31 and mod 37, and
    # the certification reads SINGLE_PRIME for both: only the field differs
    reports = []
    for field in ("prime:31", "prime:37"):
        out = tmp_path / f"{field.replace(':', '')}.json"
        code, _, _ = run(capsys, "alphaseq", "--family", "collinear", "--r", "5", "--kmax", "3",
                         "--field", field, "--out", str(out))
        assert code == 0
        reports.append(out.read_bytes())
        assert json.loads(reports[-1])["field"] == field
    assert reports[0] != reports[1]
    code, out, _ = run(capsys, "alphaseq", "--family", "collinear", "--r", "5", "--kmax", "3")
    assert code == 0 and json.loads(out)["field"] == "rational"
