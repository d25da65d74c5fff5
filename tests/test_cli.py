import json
import re
import sys
from dataclasses import replace
import xml.etree.ElementTree as ET

import pytest

from fractions import Fraction

from pengeom import analysis
from pengeom.analysis import classify_response, null_set_projection
from pengeom.cli import main
from pengeom.exact import RationalMatrix, rat_str
from pengeom.norms import dual_norm_value, l1_norm, slope_norm, sup_norm
from pengeom.solvers import _fista


@pytest.fixture()
def matrices(tmp_path):
    files = {}
    for name, text in {
        "one_zero": "1,0\n",
        "one_two": "1,2\n",
        "demo": "8,5,8\n10,1.25,-6\n",
        "eye": "1,0\n0,1\n",
        "bad": "1,2\n1,zz\n",
    }.items():
        path = tmp_path / f"{name}.csv"
        path.write_text(text)
        files[name] = str(path)
    return files


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_uniqueness_exit_codes_and_report(capsys, matrices):
    code, out, err = run(capsys, "uniqueness", "--matrix", matrices["one_zero"], "--norm", "sup")
    assert code == 1
    report = json.loads(out)["report"]
    assert report["unique_for_all_y"] is False
    assert report["offending_face"]["vertices"] == [["1", "0"]]
    assert json.loads(out)["inputs"]["matrix"] == [["1", "0"]]
    assert "elapsed" in err

    code, out, _ = run(capsys, "uniqueness", "--matrix", matrices["one_two"], "--mode", "bp")
    assert code == 0
    assert json.loads(out)["report"]["unique_for_all_y"] is True


def test_reports_are_byte_identical(capsys, matrices):
    args = ("accessible", "--matrix", matrices["eye"], "--norm", "l1")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second

    code, out, _ = run(capsys, "accessible", "--matrix", matrices["demo"], "--norm", "slope",
                       "--weights", "5.5,3.5,1.5")
    assert code == 0
    payload = json.loads(out)
    assert payload["accessible_count"] == 17
    assert payload["pattern_count"] == 147
    assert payload["inputs"]["norm"]["weights"] == ["11/2", "7/2", "3/2"]


def test_accessible_identity_l1(capsys, matrices):
    code, out, _ = run(capsys, "accessible", "--matrix", matrices["eye"], "--norm", "l1")
    assert code == 0
    assert json.loads(out)["accessible_count"] == 9


def test_solve_inside_null_region_is_exact(capsys, matrices):
    code, out, _ = run(capsys, "solve", "--matrix", matrices["demo"], "--norm", "slope",
                       "--weights", "5.5,3.5,1.5", "--response", "0.1,0.1")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["model"] == [0, 0, 0]
    assert result["residual"] == ["1/10", "1/10"]


def test_solve_bp_and_outside_column_space(capsys, matrices, tmp_path):
    code, out, _ = run(capsys, "solve", "--matrix", matrices["one_two"], "--mode", "bp",
                       "--response", "1")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["solution"] == ["0", "1/2"]
    assert result["objective"] == "1/2"

    wide = tmp_path / "rank1.csv"
    wide.write_text("1,2\n2,4\n")
    code, _, err = run(capsys, "solve", "--matrix", str(wide), "--mode", "bp",
                       "--response", "1,0")
    assert code == 2
    assert "error:" in err


def test_uncertified_solve_runs_fista_once(capsys, matrices, monkeypatch):
    # twenty iterations cannot certify at tol 1e-9, and a float response
    # never polishes: the report dumps the iterate of the one failed solve
    # instead of solving again
    calls = []

    def capped(X, y, norm, options, polish):
        calls.append(y)
        return _fista(X, [float(t) for t in y], norm, replace(options, max_iter=20), polish)

    monkeypatch.setattr(analysis, "_fista", capped)
    code, out, _ = run(capsys, "solve", "--matrix", matrices["demo"], "--norm", "slope",
                       "--weights", "5.5,3.5,1.5", "--response", "20,5")
    assert code == 1
    result = json.loads(out)["result"]
    assert result["converged"] is False and result["iterations"] == 20
    assert result["certificate"]["passed"] is False
    assert len(calls) == 1


def test_solve_decompose_and_analysis_read_one_fit(capsys, tmp_path, monkeypatch):
    # rational designs, responses inside and outside the zero-solution
    # region: every path reports the same pattern and projection, and every
    # CLI call runs FISTA once; inside the region that one run ends at the
    # zero piece, with the zero point, outside at an exact polish with a
    # nonzero one. Either way the exact answer reports 0 iterations: the
    # FISTA step at which a polish certified is a float fact, which an exact
    # report does not carry
    calls = []

    def counted(X, y, norm, options, polish):
        calls.append(_fista(X, y, norm, options, polish))
        return calls[-1]

    monkeypatch.setattr(analysis, "_fista", counted)
    designs = {
        "demo": [[8, 5, 8], [10, Fraction(5, 4), -6]],
        "wide": [[1, 2, Fraction(-1, 2)]],
        "square": [[2, 1], [-1, 3]],
    }
    for name, rows in designs.items():
        X = RationalMatrix.from_rows(rows)
        path = tmp_path / f"{name}.csv"
        path.write_text("".join(",".join(rat_str(t) for t in row) + "\n" for row in X.rows))
        p = X.ncols
        w = (Fraction(11, 2), Fraction(7, 2), Fraction(3, 2))[:p]
        norms = {
            "l1": (l1_norm(p), ["--norm", "l1"]),
            "sup": (sup_norm(p), ["--norm", "sup"]),
            "slope": (slope_norm(w), ["--norm", "slope", "--weights", ",".join(map(rat_str, w))]),
        }
        y0 = tuple(Fraction(3 - 2 * i) for i in range(X.nrows))
        for kind, (norm, flags) in norms.items():
            gauge = dual_norm_value(norm, X.rmatvec(y0))
            for scale in (Fraction(1, 2), Fraction(3)):
                y = tuple(t * scale / gauge for t in y0)
                argv = ["--matrix", str(path), *flags, "--response=" + ",".join(map(rat_str, y))]
                inside = scale < 1
                del calls[:]
                code, out, _ = run(capsys, "solve", *argv)
                assert code == 0 and len(calls) == 1
                assert calls[0].route == "exact" and calls[0].iterations == 0
                assert (not any(calls[0].point)) == inside
                solved = json.loads(out)["result"]
                if kind != "slope":
                    assert solved["route"] == "exact"
                    if inside:
                        assert solved["residual"] == [rat_str(t) for t in y]
                del calls[:]
                code, out, _ = run(capsys, "decompose", *argv)
                assert code == 0 and len(calls) == 1
                assert calls[0].route == "exact" and calls[0].iterations == 0
                assert (not any(calls[0].point)) == inside
                split = json.loads(out)["result"]
                assert split["exact"] is True

                pattern = solved["model"] if kind == "slope" else solved["pattern"]
                assert split["pattern"] == pattern
                projection = null_set_projection(X, norm, y)
                if split["exact"]:
                    assert split["projection"] == [rat_str(t) for t in projection]
                else:
                    assert split["projection"] == list(projection)
                if kind == "slope":
                    assert list(classify_response(X, w, y).model) == pattern


def test_a_near_singular_response_is_solved_exactly(capsys, tmp_path):
    # FISTA alone ran 100000 iterations here without a float certificate;
    # the exact polish answers with a certificate at tol 0
    path = tmp_path / "near.csv"
    path.write_text("-2,1/2,-1/3\n-5,1,-1\n")
    argv = ["--matrix", str(path), "--norm", "slope", "--weights", "6,3,2",
            "--response=-621/5,1242/25"]
    code, out, _ = run(capsys, "solve", *argv)
    assert code == 0
    result = json.loads(out)["result"]
    assert result["model"] == [-1, -2, -2]
    assert result["solution"] == ["-692/125", "-60954/125", "-60954/125"]
    assert result["certificate"]["passed"] is True and result["certificate"]["tol"] == 0
    code, out, _ = run(capsys, "decompose", *argv)
    assert code == 0 and json.loads(out)["result"]["exact"] is True


def test_decompose_pattern_and_projection(capsys, matrices):
    code, out, _ = run(capsys, "decompose", "--matrix", matrices["demo"], "--norm", "slope",
                       "--weights", "5.5,3.5,1.5", "--response", "20,5")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["pattern"] == [1, 1, 1]
    # outside the zero-solution region the split is exact too, from a
    # polish certified at tol 0, and carries no float certificate
    assert result["exact"] is True
    assert "certificate" not in result

    code, out, _ = run(capsys, "decompose", "--matrix", matrices["demo"], "--norm", "slope",
                       "--weights", "5.5,3.5,1.5", "--response", "0.1,0.1")
    result = json.loads(out)["result"]
    assert result["exact"] is True
    assert result["projection"] == ["1/10", "1/10"]


def test_models_count(capsys):
    code, out, _ = run(capsys, "models", "--cols", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 17
    assert [0, 0] in payload["models"]


def test_genericity_csv_and_json(capsys):
    args = ("genericity", "--rows", "2", "--cols", "2", "--norm", "slope",
            "--weights", "2,1", "--trials", "6", "--seed", "3")
    code, out, _ = run(capsys, *args, "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "trial,unique"
    assert len(lines) == 7 and all(line.endswith(",1") for line in lines[1:])

    code, out, _ = run(capsys, *args)
    assert json.loads(out)["report"]["fraction_unique"] == "1"

    code, out, _ = run(capsys, "genericity", "--rows", "1", "--cols", "2",
                       "--mode", "bp", "--trials", "5")
    assert json.loads(out)["report"]["fraction_unique"] == "1"


def svg_points_within_viewbox(svg_text):
    root = ET.fromstring(svg_text)
    _, _, w, h = map(float, root.attrib["viewBox"].split())
    for match in re.finditer(r'points="([^"]+)"', svg_text):
        for pair in match.group(1).split():
            x, y = map(float, pair.split(","))
            assert 0 <= x <= w and 0 <= y <= h


def test_plot_dual_ball_octagon(capsys):
    code, out, _ = run(capsys, "plot", "--norm", "slope", "--weights", "3.5,1.5")
    assert code == 0
    svg_points_within_viewbox(out)
    vertex_row = re.search(r'polygon points="([^"]+)"', out).group(1)
    assert len(vertex_row.split()) == 8

    again = run(capsys, "plot", "--norm", "slope", "--weights", "3.5,1.5")[1]
    assert out == again


def test_plot_highlighted_vertex_and_edge(capsys, matrices):
    code, out, _ = run(capsys, "plot", "--matrix", matrices["one_zero"], "--norm", "sup")
    assert code == 0
    svg_points_within_viewbox(out)
    assert out.count('fill="#e8850c"') == 2  # the two crossed vertices

    code, out, _ = run(capsys, "plot", "--matrix", matrices["one_two"], "--norm", "l1")
    assert code == 0
    assert out.count('stroke-width="4"') == 2  # two crossed edges, no vertex hits
    assert out.count('fill="#e8850c"') == 0


def test_plot_response_region(capsys, matrices, tmp_path):
    path = tmp_path / "region.svg"
    code, _, _ = run(capsys, "plot", "--matrix", matrices["demo"], "--norm", "slope",
                     "--weights", "5.5,3.5,1.5", "--out", str(path))
    assert code == 0
    text = path.read_text()
    svg_points_within_viewbox(text)
    labels = set(re.findall(r">\((-?\d+(?:, -?\d+)*)\)</text>", text))
    assert "1, 1, 1" in labels and "2, 1, 1" in labels


def test_error_exits(capsys, matrices, tmp_path, monkeypatch):
    code, _, err = run(capsys, "uniqueness", "--matrix", matrices["bad"], "--norm", "l1")
    assert code == 2 and "error:" in err

    # JSON cells that are not rationals are input errors, not non-unique verdicts
    for name, text, cell in (("bool", "[[true, 1], [0, 1]]", "true"), ("null", "[[null, 1]]", "null")):
        path = tmp_path / f"{name}.json"
        path.write_text(text)
        code, _, err = run(capsys, "uniqueness", "--matrix", str(path), "--norm", "l1")
        assert code == 2 and f"matrix entry {cell} at row 1, column 1" in err

    code, _, err = run(capsys, "uniqueness", "--matrix", matrices["one_zero"],
                       "--norm", "sup", "--format", "csv")
    assert code == 2 and "--format" in err

    code, _, err = run(capsys, "accessible", "--matrix", matrices["one_zero"], "--norm", "sup")
    assert code == 2

    code, _, err = run(capsys, "solve", "--matrix", matrices["one_zero"], "--norm", "sup")
    assert code == 2 and "--response" in err

    # malformed input, subcommand by subcommand: one error line, no traceback
    # an empty cell between two entries is missing, not padding: "1,,3" must
    # not be read as the row (1, 3)
    bad = {"ragged.csv": "1,2\n3\n", "abc.csv": "1,abc\n2,3\n", "float.json": "[[1.5, 1], [0, 1]]",
           "gap.csv": "1,,3\n2,,4\n"}
    for name, text in bad.items():
        (tmp_path / name).write_text(text)
    rest = {
        "uniqueness": ("--norm", "l1"),
        "accessible": ("--norm", "l1"),
        "solve": ("--norm", "l1", "--response", "1,1"),
        "decompose": ("--norm", "l1", "--response", "1,1"),
        "models": (),
        "plot": ("--norm", "l1"),
    }
    probes = [(cmd, "--matrix", str(tmp_path / name), *args)
              for name in bad for cmd, args in rest.items()]
    demo = ("--matrix", matrices["demo"])
    sized = {"uniqueness": demo, "accessible": demo,
             "solve": (*demo, "--response", "1,1"), "decompose": (*demo, "--response", "1,1"),
             "genericity": ("--rows", "2", "--cols", "3"), "plot": demo}
    probes += [(cmd, *args, "--norm", "l1", "--response", y)
               for y in ("1,1,1", "1,,1") for cmd, args in (("solve", demo), ("decompose", demo))]
    probes += [(cmd, *args, "--norm", "slope", "--weights", w)
               for w in ("1,2,3", "3,2,-1", "3,,2,1") for cmd, args in sized.items()]
    probes += [(cmd, *args, "--norm", "l1", "--lambda", "0") for cmd, args in sized.items()]
    probes += [(cmd, *args, "--cap", "0") for cmd, args in (
        ("uniqueness", (*demo, "--norm", "l1")), ("accessible", (*demo, "--norm", "l1")),
        ("models", ("--cols", "3")),
        ("genericity", ("--rows", "2", "--cols", "3", "--mode", "bp")))]
    for argv in probes:
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert sum(line.startswith("error:") for line in err.splitlines()) == 1, argv
        assert "Traceback" not in err and out == "", argv

    # each option refusal, with its message
    refusals = [
        (("uniqueness", *demo, "--norm", "slope", "--weights="), "empty --weights list"),
        (("uniqueness", *demo), "--norm is required here"),
        (("uniqueness", *demo, "--norm", "slope"), "--norm slope needs --weights"),
        (("uniqueness", *demo, "--norm", "slope", "--weights", "3,2,1", "--lambda", "2"),
         "--lambda does not apply to the slope norm"),
        (("uniqueness", *demo, "--norm", "slope", "--weights", "2,1"), "got 2 weights for 3 columns"),
        (("uniqueness", *demo, "--norm", "l1", "--weights", "3,2,1"),
         "--weights only applies to --norm slope"),
        (("uniqueness", *demo, "--norm", "sup", "--lambda", "2"),
         "--lambda does not apply to the sup norm"),
        (("uniqueness", "--norm", "l1"), "--matrix is required here"),
        (("uniqueness", *demo, "--mode", "bp", "--norm", "l1"),
         "bp mode fixes the l1 norm; drop --norm/--weights/--lambda"),
        (("decompose", *demo, "--mode", "bp", "--response", "1,1"),
         "decompose applies to the penalized problem"),
        (("models",), "--cols (or --matrix) sets the dimension"),
        (("genericity", "--norm", "l1"), "--rows and --cols are required here"),
        (("plot", "--norm", "l1"), "--matrix, --weights, or --cols sets the dimension"),
        (("models", "--cols", "0"), "dimension must be >= 1"),
    ]
    for argv, message in refusals:
        code, out, err = run(capsys, *argv)
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert code == 2 and len(errors) == 1 and message in errors[0], argv
        assert "Traceback" not in err and out == "", argv
    monkeypatch.setenv("PENGEOM_VERTEX_CAP", "0")
    code, out, err = run(capsys, "uniqueness", *demo, "--norm", "l1")
    assert code == 2 and out == "" and "error: PENGEOM_VERTEX_CAP must be positive" in err
    monkeypatch.delenv("PENGEOM_VERTEX_CAP")

    code, _, err = run(capsys, "uniqueness", "--matrix", str(tmp_path / "gap.csv"), "--norm", "l1")
    assert "empty cell at row 1, column 2" in err

    # a bad literal is refused naming its place too: a CSV or JSON string
    # cell by row and column, a --weights or --response item by number
    (tmp_path / "word.json").write_text('[[1, 2], [3, "x/2"]]')
    for argv, place in (
            (("uniqueness", "--matrix", str(tmp_path / "abc.csv"), "--norm", "l1"), "'abc' at row 1, column 2:"),
            (("uniqueness", "--matrix", str(tmp_path / "word.json"), "--norm", "l1"), "'x/2' at row 2, column 2:"),
            (("uniqueness", *demo, "--norm", "slope", "--weights", "3,2,one"), "'one' at --weights item 3:"),
            (("solve", *demo, "--norm", "l1", "--response", "1,1e"), "'1e' at --response item 2:")):
        code, out, err = run(capsys, *argv)
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert code == 2 and out == "" and len(errors) == 1 and "Traceback" not in err, argv
        assert errors[0].startswith(f"error: bad rational literal {place}"), argv

    # a literal beyond Python's integer string limit is refused in the
    # package's words before its value is built; within it, it answers
    # (the value of 1e{limit} has limit + 1 digits, and 10^-limit a
    # denominator of limit + 1, which the report's echo of the matrix could
    # not print; 1e{limit - 1} has limit)
    limit = sys.get_int_max_str_digits()
    if limit:
        for literal in (f"1e{limit - 100}", f"1e{limit - 1}", f"1e-{limit - 1}"):
            (tmp_path / "big.csv").write_text(f"{literal},1\n2,3\n")
            code, out, err = run(capsys, "uniqueness", "--matrix", str(tmp_path / "big.csv"), "--norm", "l1")
            assert code == 0 and json.loads(out)["inputs"]["matrix"][0][0] and "error:" not in err, literal
        for literal, why in ((f"1e{limit + 100}", "exponent beyond"), ("1e1000000", "exponent beyond"),
                             ("1e-1000000", "exponent beyond"), ("7" * (limit + 1), "digits"),
                             (f"1e{limit}", "exponent beyond"), (f"12e{limit - 1}", "exponent beyond"),
                             (f"1e-{limit}", "exponent beyond"), ("." + "0" * (limit - 1) + "1", "digits")):
            (tmp_path / "big.csv").write_text(f"{literal},1\n2,3\n")
            code, out, err = run(capsys, "uniqueness", "--matrix", str(tmp_path / "big.csv"), "--norm", "l1")
            errors = [line for line in err.splitlines() if line.startswith("error:")]
            assert code == 2 and out == "" and len(errors) == 1 and "Traceback" not in err, literal
            assert errors[0].startswith(f"error: bad rational literal '{literal[:20]}") and why in errors[0]
            code, out, err = run(capsys, "solve", *demo, "--norm", "l1", "--response", f"{literal},1")
            assert code == 2 and out == "" and "bad rational literal" in err, literal
    # an entry beyond the float range is refused where the float solve
    # would read it, naming the design or the response; 1e-400 rounds to 0
    (tmp_path / "huge.csv").write_text("1e400,1\n2,3\n")
    for argv, what in (
            (("solve", *demo, "--norm", "l1", "--response", "1e400,1"), "response"),
            (("solve", *demo, "--norm", "slope", "--weights", "3,2,1", "--response", "1e400,1"), "response"),
            (("decompose", *demo, "--norm", "sup", "--response", "1e400,1"), "response"),
            (("solve", "--matrix", str(tmp_path / "huge.csv"), "--norm", "l1", "--response", "1,1"), "design")):
        code, out, err = run(capsys, *argv)
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert code == 2 and out == "" and "Traceback" not in err, argv
        assert errors == [f"error: {what} entry beyond the float range"], argv
    assert run(capsys, "solve", *demo, "--norm", "l1", "--response", "1e-400,1")[0] == 0
    # trailing empty cells and items are padding, read as before
    (tmp_path / "padded.csv").write_text("8,5,8,\n10,1.25,-6,,\n")
    padded = ("--matrix", str(tmp_path / "padded.csv"), "--norm", "slope", "--weights", "3,2,1,")
    assert run(capsys, "uniqueness", *padded)[:2] == run(capsys, "uniqueness", *demo, *padded[2:])[:2]


def test_cap_flag_and_env_override(capsys, matrices, monkeypatch):
    # a cap the sweep fits is echoed with the inputs
    code, out, _ = run(capsys, "uniqueness", "--matrix", matrices["one_zero"], "--norm", "l1",
                       "--cap", "3")
    assert code == 0 and json.loads(out)["inputs"]["cap"] == 3

    code, _, err = run(capsys, "models", "--cols", "3", "--cap", "1")
    assert code == 2 and "cap" in err

    monkeypatch.setenv("PENGEOM_MODEL_LIMIT", "1")
    code, _, err = run(capsys, "models", "--cols", "3")
    assert code == 2 and "cap" in err

    monkeypatch.setenv("PENGEOM_MODEL_LIMIT", "nope")
    code, _, err = run(capsys, "models", "--cols", "3")
    assert code == 2 and "PENGEOM_MODEL_LIMIT" in err

    # tied slope weights sweep models, so the model cap reaches them too
    monkeypatch.setenv("PENGEOM_MODEL_LIMIT", "2")
    code, _, err = run(capsys, "uniqueness", "--matrix", matrices["demo"], "--norm", "slope",
                       "--weights", "2,2,1")
    assert code == 2 and "exceeds cap 2" in err
    monkeypatch.delenv("PENGEOM_MODEL_LIMIT")

    # genericity caps sign sweeps (bp, l1, sup) by the sign family
    genericity = ("genericity", "--mode", "bp", "--rows", "2", "--cols", "3", "--trials", "5")
    monkeypatch.setenv("PENGEOM_MODEL_LIMIT", "2")
    code, _, _ = run(capsys, *genericity)
    assert code == 0
    monkeypatch.delenv("PENGEOM_MODEL_LIMIT")
    monkeypatch.setenv("PENGEOM_SIGN_LIMIT", "2")
    code, _, err = run(capsys, *genericity)
    assert code == 2 and "cap 2" in err
    monkeypatch.delenv("PENGEOM_SIGN_LIMIT")

    # the vertex cap reaches genericity sweeps as it reaches uniqueness
    monkeypatch.setenv("PENGEOM_VERTEX_CAP", "1")
    slope = ("genericity", "--rows", "2", "--cols", "4", "--norm", "slope",
             "--weights", "3,2,1,0.5", "--trials", "2")
    code, _, err = run(capsys, *slope)
    assert code == 2 and "face has 2 vertices, cap is 1" in err
    monkeypatch.setenv("PENGEOM_VERTEX_CAP", "2")
    code, _, _ = run(capsys, *slope)
    assert code == 0

    monkeypatch.setenv("PENGEOM_VERTEX_CAP", "abc")
    code, _, err = run(capsys, "uniqueness", "--matrix", matrices["one_zero"], "--norm", "sup")
    assert code == 2 and "PENGEOM_VERTEX_CAP must be an integer" in err
