from __future__ import annotations

import dataclasses
import os
import pathlib
import re
import subprocess
import sys

import pytest

import sl2arc.cli
import sl2arc.pretzel
from sl2arc.arc import Arc, RepSample
from sl2arc.cli import main
from sl2arc.locus import CSV_HEADER
from sl2arc.pretzel import make_family
from sl2arc.sl2 import ConjugatorResult, Mat2, translation_numbers_along_arc
from sl2arc.words import evaluate

from test_locus import _UNLIFTABLE


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


def test_verify_range_past_the_cap_fails_before_any_work(monkeypatch, capsys):
    monkeypatch.setattr(sl2arc.pretzel, "N_CAP", 3)
    assert main(["verify", "--range", "1..4"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:")


@pytest.mark.parametrize("n", [1600, 10_000])
def test_verify_reaches_the_cap(n, capsys):
    assert main(["verify", "--n", str(n)]) == 0
    out, err = capsys.readouterr()
    assert out.startswith(f"family n={n}: PASS") and "FAIL" not in out
    assert err == ""


def test_float_verify_past_its_reach_reports_failures(capsys):
    assert main(["verify", "--no-exact", "--n", "1600"]) == 1
    out, err = capsys.readouterr()
    assert out.startswith("family n=1600: FAIL")
    assert "  FAIL  " in out
    assert err == ""


def test_a_closed_stdout_ends_verify_quietly():
    # the reader takes one line and closes the pipe, as `| head -1` does;
    # unbuffered output makes the next write meet the closed pipe
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONUNBUFFERED="1")
    proc = subprocess.Popen([sys.executable, "-m", "sl2arc", "verify", "--range", "1..200"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"n=1 PASS (24 assertions)\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert err == b""


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


def test_arc_audit_rejects_a_curve_pair_that_disagrees_at_rho_n(monkeypatch, capsys):
    # the n = 1 family with m1 spelled as m2: the curve rank stays 2, but
    # the pair (m2 l1, m2 l2) disagrees at rho_n
    fam = make_family(1)
    bad = dataclasses.replace(fam, m1=fam.m2)
    monkeypatch.setattr(sl2arc.cli, "make_family", lambda n: bad)
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


@pytest.mark.parametrize("flag", ["--out", "--svg"])
def test_locus_unwritable_path_is_a_usage_error(flag, tmp_path, capsys):
    paths = {"--out": tmp_path / "locus.csv", "--svg": tmp_path / "locus.svg"}
    paths[flag] = tmp_path / "missing" / "x.csv"
    argv = ["locus", "--n", "1", "--steps", "5"]
    for name, path in paths.items():
        argv += [name, str(path)]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:")


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


@pytest.mark.parametrize("n", [9, 20])
def test_interval_past_n_8_succeeds(n, capsys):
    # the locus reads each longitude's translation integer at the stable
    # letter's fixed direction, where L's own eigendirection missed it
    assert main(["interval", "--n", str(n), "--steps", "20"]) == 0
    assert re.fullmatch(r"interval: \(-[0-9.e-]+, 0\)\n", capsys.readouterr().out)


def test_interval_past_n_21_succeeds(capsys):
    # float pin thresholds scaled at n = 1 reject every pair from n = 22;
    # the exact orbit test keeps (0, 1) there
    assert main(["interval", "--n", "22"]) == 0
    assert re.fullmatch(r"interval: \(-[0-9.e-]+, 0\)\n", capsys.readouterr().out)


def test_locus_past_n_21_writes_every_sample(tmp_path, capsys):
    out = tmp_path / "locus.csv"
    assert main(["locus", "--n", "30", "--steps", "200", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 201  # the header and 200 glued samples


def test_interval_does_not_check_the_longitude_determinant(monkeypatch, capsys):
    # a one-sample arc whose stored longitude has determinant 1 + 2e-9: the
    # reader without a direction classifies it and raises, the locus reads
    # it at the stable letter's direction (1, 0) without classifying it
    fam = make_family(1)
    ma = mb = Mat2.identity(exact=False)
    images = tuple(evaluate(getattr(fam, w), ma, mb) for w in ("m1", "m2", "l1", "l2"))
    longitude = Mat2(2.0, 0.0, 0.0, 0.5 + 1e-9)
    sample = RepSample(
        t=0.1, ma=ma, mb=mb, residual=0.0,
        conjugator=ConjugatorResult(1, Mat2(3.0, 0.0, 0.0, 1.0 / 3.0), 1, 0.0),
        word_images=images, longitude=longitude, commutation_residual=0.0)  # both diagonal
    assert sample.character == (2.0, 2.0, 2.0) and sample.meridian_trace == 10.0 / 3.0
    arc = Arc(fam, (sample,), "maxSteps", 1, 1e-3, (0, 1))
    with pytest.raises(ValueError, match="determinant 1"):
        translation_numbers_along_arc(arc.longitude_images())
    monkeypatch.setattr(sl2arc.cli, "continue_arc", lambda *args, **kwargs: arc)
    assert main(["interval", "--n", "1", "--steps", "1"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "interval: (-0.63093, 0)\n" and captured.err == ""


@pytest.mark.parametrize("case", sorted(_UNLIFTABLE))
def test_a_longitude_path_the_track_cannot_lift_exits_3(case, monkeypatch, tmp_path, capsys):
    path, _, message = _UNLIFTABLE[case]
    monkeypatch.setattr(Arc, "longitude_images", lambda self: path)
    assert main(["locus", "--n", "1", "--steps", "5", "--out", str(tmp_path / "locus.csv")]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: longitude translation numbers failed: {message}\n"


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
