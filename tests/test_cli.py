from __future__ import annotations

import dataclasses
import re

import pytest

import sl2arc.cli
from sl2arc.arc import Arc, RepSample
from sl2arc.cli import main
from sl2arc.locus import CSV_HEADER
from sl2arc.pretzel import make_family
from sl2arc.sl2 import ConjugatorResult, Mat2
from sl2arc.words import evaluate


# ----------------------------------------------------------------------
# trace


def test_trace_product_word(capsys):
    assert main(["trace", "--word", "ab"]) == 0
    assert capsys.readouterr().out == "z\n"


def test_trace_commutator(capsys):
    assert main(["trace", "--word", "abAB"]) == 0
    assert capsys.readouterr().out == "x^2 + y^2 + z^2 - x*y*z - 2\n"


def test_trace_spelled_inverses_and_powers(capsys):
    assert main(["trace", "--word", "a^2 b a b"]) == 0
    first = capsys.readouterr().out
    assert main(["trace", "--word", "aabab"]) == 0
    assert capsys.readouterr().out == first


def test_trace_syntax_error_reports_position(capsys):
    assert main(["trace", "--word", "a^0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "position" in err


# ----------------------------------------------------------------------
# verify


def test_verify_single_n_passes(capsys):
    assert main(["verify", "--n", "1"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("family n=1: PASS")
    assert "FAIL" not in out


def test_verify_float_mode(capsys):
    assert main(["verify", "--no-exact", "--n", "2"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("family n=2: PASS")
    assert main(["verify", "--range", "1..50", "--no-exact"]) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_verify_range(capsys):
    assert main(["verify", "--range", "1..3"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 3
    for k, line in enumerate(lines, start=1):
        assert re.fullmatch(rf"n={k} PASS \(\d+ assertions\)", line)


@pytest.mark.parametrize("argv", [
    ["verify"],
    ["verify", "--n", "1", "--range", "1..2"],
    ["verify", "--n", "0"],
    ["verify", "--range", "3..1"],
    ["verify", "--range", "1-3"],
    ["verify", "--range", "0..2"],
])
def test_verify_usage_errors(argv, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error:")


# ----------------------------------------------------------------------
# arc


def test_arc_zero_steps_stdout_header_only(capsys):
    assert main(["arc", "--n", "1", "--steps", "0"]) == 0
    assert capsys.readouterr().out == CSV_HEADER + "\n"


def test_arc_to_file_with_summary(tmp_path, capsys):
    out = tmp_path / "arc.csv"
    assert main(["arc", "--n", "1", "--steps", "5", "--out", str(out)]) == 0
    assert capsys.readouterr().out == "samples=6 accepted=5 termination=maxSteps\n"
    lines = out.read_text().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 7 and lines[-1] == ""


def test_arc_exact_audit_rejects_words_that_disagree_with_the_polynomials(
        monkeypatch, capsys):
    # the n = 1 family with its curve polynomials listed in another order:
    # the exact analysis is unchanged, but its rows no longer describe the
    # word pairs that continuation evaluates
    fam = make_family(1)
    eqs = fam.curve_eqs
    swapped = dataclasses.replace(fam, curve_eqs=(eqs[1], eqs[0], eqs[2]))
    monkeypatch.setattr(sl2arc.cli, "make_family", lambda n: swapped)
    assert main(["arc", "--n", "1", "--steps", "2"]) == 3
    assert "audit failed" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["arc", "--n", "0", "--steps", "1"],
    ["arc", "--n", "1", "--steps", "-1"],
    ["arc", "--n", "1", "--step-size", "1"],
    ["arc", "--n", "1", "--step-size", "1e-9"],
    ["interval", "--n", "1", "--steps", "50", "--ceiling", "1.5"],
    ["interval", "--n", "1", "--steps", "50", "--ceiling", "nan"],
    ["arc", "--n", "1", "--steps", "5", "--ceiling", "2"],
])
def test_arc_usage_errors(argv, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_arc_rejects_direction_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["arc", "--n", "1", "--direction", "0"])
    assert exc.value.code == 2


# ----------------------------------------------------------------------
# locus / interval


def test_locus_writes_csv_and_svg(tmp_path, capsys):
    csv_path = tmp_path / "locus.csv"
    svg_path = tmp_path / "locus.svg"
    assert main(["locus", "--n", "1", "--steps", "5",
                 "--out", str(csv_path), "--svg", str(svg_path)]) == 0
    assert capsys.readouterr().out == "samples=6 accepted=5 termination=maxSteps\n"
    assert csv_path.read_text().startswith(CSV_HEADER)
    svg = svg_path.read_text()
    assert svg.startswith("<svg ") and svg.endswith("</svg>\n")


@pytest.mark.parametrize("n", [9, 21])
def test_locus_of_a_minus_arc_has_no_points(n, tmp_path, capsys):
    # the -1 side never glues, so its translation numbers are never read
    csv_path = tmp_path / "locus.csv"
    argv = ["locus", "--n", str(n), "--steps", "200", "--direction", "-1", "--out", str(csv_path)]
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert out == "samples=201 accepted=0 termination=maxSteps\n"
    assert err == ""
    assert csv_path.read_text() == CSV_HEADER + "\n"


def test_locus_requires_out(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["locus", "--n", "1", "--steps", "5"])
    assert exc.value.code == 2


def test_interval_line_format(capsys):
    assert main(["interval", "--n", "1", "--steps", "40"]) == 0
    out = capsys.readouterr().out
    assert re.fullmatch(r"interval: \(-?[0-9.e+-]+, -?[0-9.e+-]+\)\n", out)


@pytest.mark.parametrize("n, line", [
    (1, "interval: (-0.363522, 0)\n"),
    (2, "interval: (-0.191473, 0)\n"),
    (3, "interval: (-0.114103, 0)\n"),
])
def test_interval_default_run_prints_the_documented_interval(n, line, capsys):
    assert main(["interval", "--n", str(n)]) == 0
    assert capsys.readouterr().out == line


def test_interval_empty_arc_is_numerical_failure(capsys):
    assert main(["interval", "--n", "1", "--steps", "0"]) == 3
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("n, cause", [
    (9, "not close to an integer"),
])
def test_interval_longitude_translation_failure_is_numerical(n, cause, capsys):
    # the longitude translation numbers cannot be evaluated on these arcs
    assert main(["interval", "--n", str(n), "--steps", "20"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: longitude translation numbers failed:")
    assert cause in err
    assert err.count("\n") == 1


def test_interval_longitude_off_unit_determinant_is_numerical(monkeypatch, capsys):
    # a one-sample arc whose stored longitude has determinant 1 + 2e-9
    fam = make_family(1)
    ma = mb = Mat2.identity(exact=False)
    images = tuple(evaluate(getattr(fam, w), ma, mb) for w in ("m1", "m2", "l1", "l2"))
    longitude = Mat2(2.0, 0.0, 0.0, 0.5 + 1e-9)
    sample = RepSample(
        t=0.1, ma=ma, mb=mb, character=(2.0, 2.0, 2.0), residual=0.0,
        conjugator=ConjugatorResult(1, Mat2(3.0, 0.0, 0.0, 1.0 / 3.0), 1, 0.0),
        longitude_trace=float(longitude.trace()), meridian_trace=10.0 / 3.0,
        word_images=images, longitude=longitude)
    arc = Arc(fam, (sample,), "maxSteps", 1, 1e-3, (0, 1))
    monkeypatch.setattr(sl2arc.cli, "continue_arc", lambda *args, **kwargs: arc)
    assert main(["interval", "--n", "1", "--steps", "1"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: longitude translation numbers failed:")
    assert "determinant 1" in err
    assert err.count("\n") == 1


# ----------------------------------------------------------------------
# determinism


def test_repeated_runs_are_byte_identical(tmp_path, capsys):
    def run(argv):
        assert main(argv) == 0
        return capsys.readouterr().out

    for argv in (
        ["trace", "--word", "abAB"],
        ["verify", "--n", "1"],
        ["arc", "--n", "1", "--steps", "30"],
        ["interval", "--n", "1", "--steps", "30"],
    ):
        assert run(argv) == run(argv)

    paths = [tmp_path / name for name in
             ("a.csv", "a.svg", "b.csv", "b.svg")]
    for csv_path, svg_path in (paths[:2], paths[2:]):
        assert main(["locus", "--n", "1", "--steps", "30",
                     "--out", str(csv_path), "--svg", str(svg_path)]) == 0
        capsys.readouterr()
    assert paths[0].read_bytes() == paths[2].read_bytes()
    assert paths[1].read_bytes() == paths[3].read_bytes()
