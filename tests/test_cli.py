import argparse
import ast
import dataclasses
import hashlib
import importlib
import math
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

from diskdraw import Check, Point, Verdict, cli, constructions, descent_verify, obstruction
from diskdraw.cli import build_parser, main, verify_rolling, verify_sharp, verify_snake
from diskdraw.geometry import DEFAULT_TAU, LargestEmptyCircle

from oracles import pattern_coloring, wedge_checks_enumerated

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSimulate:
    def test_query_black(self, tmp_path, capsys):
        scene = tmp_path / "s.txt"
        scene.write_text("model open\nstroke pencil point 0 0\n")
        code, out, _ = run(capsys, "simulate", str(scene), "--query", "0.2", "0")
        assert code == 0
        assert out.strip() == "black"

    def test_query_white_and_boundary(self, tmp_path, capsys):
        scene = tmp_path / "s.txt"
        scene.write_text("model open\nstroke pencil point 0 0\n")
        code, out, _ = run(capsys, "simulate", str(scene), "--query", "5", "0")
        assert (code, out.strip()) == (0, "white")
        code, out, _ = run(capsys, "simulate", str(scene), "--query", "1", "0")
        assert (code, out.strip()) == (0, "boundary")

    def test_padding_stroke_paints_nothing(self, tmp_path, capsys):
        scene = tmp_path / "s.txt"
        scene.write_text("model open\nstroke eraser point 0 0\n")
        code, out, _ = run(capsys, "simulate", str(scene), "--query", "1e7", "1e7")
        assert (code, out.strip()) == (0, "white")

    def test_construction_scene(self, tmp_path, capsys):
        scene = tmp_path / "c.txt"
        scene.write_text("construction chessboard 1.0\n")
        code, out, _ = run(capsys, "simulate", str(scene), "--query", "0.5", "0.5")
        assert (code, out.strip()) == (0, "black")

    def test_parse_error_exit_code(self, tmp_path, capsys):
        scene = tmp_path / "bad.txt"
        scene.write_text("stroke pencil point 0 0\n")
        code, _, err = run(capsys, "simulate", str(scene), "--query", "0", "0")
        assert code == 2
        assert "parse error" in err

    def test_usage_error(self, capsys):
        assert main(["simulate"]) == 2

    @pytest.mark.parametrize("text, want", [
        ("model open\nstroke pencil point 0 0\n", (0, "black\n", "")),
        ("boundary\nsegment 0 0 1 0\nsegment 1 0 1 1\nsegment 1 1 0 1\nsegment 0 1 0 0\n", (0, "black\n", "")),
        ("model open\nstroke pencil point 0 zero\n", (2, "", "parse error: line 2, column 23: expected y, got 'zero'\n")),
    ])
    def test_byte_order_mark(self, tmp_path, capsys, text, want):
        # a UTF-8 byte-order mark before the first word is not part of it
        scene = tmp_path / "s.txt"
        for mark in ("", "\ufeff"):
            scene.write_text(mark + text, encoding="utf-8")
            assert run(capsys, "simulate", str(scene), "--query", "0.5", "0.5") == want

    def test_segment_too_short_to_measure_is_a_parse_error(self, tmp_path, capsys):
        # the ends differ, but the squared length underflows to 0 or overflows to inf
        scene = tmp_path / "s.txt"
        for segment in ("0 0 1e-300 0", "0 0 1e308 -1e308"):
            scene.write_text(f"model open\nstroke pencil segment {segment}\n")
            code, out, err = run(capsys, "simulate", str(scene), "--query", "0", "0")
            assert (code, out) == (2, "")
            assert err.startswith("parse error: line 2, column 15: ") and "Traceback" not in err


@pytest.mark.parametrize("argv, out", [
    (("simulate", "s.txt", "--query", "0", "-1e5"), "white"),
    (("simulate", "s.txt", "--query", "0.25", "-5e-1"), "black"),
    (("simulate", "s.txt", "--query", "-1.2e-05", "-0"), "black"),
    (("render", "--construction", "chessboard", "--bbox", "-2e0", "-2", "2", "2", "--res", "4", "-o", "x.pgm"),
     "wrote 16x16 PGM to x.pgm"),
], ids=["query-y", "query-fraction", "query-x", "bbox"])
def test_negative_numbers_in_exponent_form(tmp_path, capsys, monkeypatch, argv, out):
    """argparse alone takes a word such as -1e5 for an option."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "s.txt").write_text("model open\nstroke pencil point 0 0\n")
    assert run(capsys, *argv) == (0, out + "\n", "")


class TestRender:
    def test_render_scene(self, tmp_path, capsys):
        scene = tmp_path / "s.txt"
        scene.write_text("model open\nstroke pencil point 0 0\n")
        out = tmp_path / "o.pgm"
        code, stdout, _ = run(
            capsys, "render", str(scene),
            "--bbox", "-2", "-2", "2", "2", "--res", "10", "-o", str(out),
        )
        assert code == 0
        assert out.read_bytes().startswith(b"P5\n40 40\n255\n")

    def test_render_construction_with_svg(self, tmp_path, capsys):
        out = tmp_path / "snake.pgm"
        svg = tmp_path / "snake.svg"
        code, stdout, _ = run(
            capsys, "render", "--construction", "snake",
            "--bbox", "-5", "-9", "8.5", "9", "--res", "2",
            "-o", str(out), "--svg", str(svg),
        )
        assert code == 0
        assert out.exists() and svg.exists()

    def test_chessboard_svg_outlines_every_piece(self, tmp_path, capsys):
        out, svg = tmp_path / "c.pgm", tmp_path / "c.svg"
        code, stdout, _ = run(
            capsys, "render", "--construction", "chessboard",
            "--bbox", "-2", "-2", "2", "2", "--res", "5", "-o", str(out), "--svg", str(svg),
        )
        assert code == 0 and "wrote boundary SVG" in stdout
        assert svg.read_text().count("<path") == 8  # two squares of four edges

    def test_boundary_scene_svg(self, tmp_path, capsys):
        scene = tmp_path / "b.txt"
        scene.write_text("boundary\nsegment 0 0 1 0\nsegment 1 0 0 1\nsegment 0 1 0 0\n")
        svg = tmp_path / "b.svg"
        code, _, _ = run(capsys, "render", str(scene), "--bbox", "-1", "-1", "2", "2", "--res", "4",
                         "-o", str(tmp_path / "b.pgm"), "--svg", str(svg))
        assert code == 0
        assert svg.read_text().count("<path") == 3

    def test_script_svg_is_refused_on_stderr(self, tmp_path, capsys):
        svg = tmp_path / "s.svg"
        code, _, err = run(capsys, "render", "--construction", "sharp-n", "--n", "4",
                           "--bbox", "-2", "-2", "2", "2", "--res", "2",
                           "-o", str(tmp_path / "s.pgm"), "--svg", str(svg))
        assert code == 0
        assert "only available for regions" in err and not svg.exists()

    def test_render_needs_source(self, capsys):
        code, _, err = run(capsys, "render", "--bbox", "0", "0", "1", "1", "--res", "5", "-o", "x.pgm")
        assert code == 2

    def test_render_takes_one_source(self, tmp_path, capsys):
        # a scene file and --construction together name two colorings
        scene = tmp_path / "s.txt"
        scene.write_text("stroke pencil point 0 0\n")
        out = tmp_path / "x.pgm"
        code, stdout, err = run(capsys, "render", str(scene), "--construction", "chessboard",
                                "--bbox", "-1", "-1", "1", "1", "--res", "4", "-o", str(out))
        assert (code, stdout) == (2, "") and not out.exists()
        assert err == "usage error: render needs a scene file or --construction, not both\n"

    @pytest.mark.parametrize("source", [("--construction", "chessboard"), ("scene",)], ids=["chessboard", "scene"])
    def test_render_n_needs_sharp_n(self, tmp_path, capsys, source):
        # --n is the ray count of sharp-n; any other source would ignore it
        scene = tmp_path / "scene"
        scene.write_text("stroke pencil point 0 0\n")
        out = tmp_path / "x.pgm"
        source = [str(scene) if word == "scene" else word for word in source]
        code, stdout, err = run(capsys, "render", *source, "--n", "5",
                                "--bbox", "-1", "-1", "1", "1", "--res", "4", "-o", str(out))
        assert (code, stdout) == (2, "") and not out.exists()
        assert err == "usage error: --n is only read by --construction sharp-n\n"

    def test_sharp_n_defaults_to_twelve_rays(self, tmp_path, capsys):
        pgms = []
        for n in ([], ["--n", "12"]):
            pgms.append(tmp_path / f"sharp{len(n)}.pgm")
            code, _, err = run(capsys, "render", "--construction", "sharp-n", *n,
                               "--bbox", "-4", "-4", "4", "4", "--res", "2", "-o", str(pgms[-1]))
            assert (code, err) == (0, "")
        assert pgms[0].read_bytes() == pgms[1].read_bytes()


class TestTau:
    """--tau reaches every coloring the CLI builds, constructions included."""

    def test_simulate_construction(self, tmp_path, capsys):
        scene = tmp_path / "c.txt"
        scene.write_text("construction chessboard\n")
        _, out, _ = run(capsys, "simulate", str(scene), "--query", "0.5", "0.00005")
        assert out.strip() == "black"
        _, out, _ = run(capsys, "--tau", "1e-4", "simulate", str(scene), "--query", "0.5", "0.00005")
        assert out.strip() == "boundary"

    def test_simulate_boundary_scene(self, tmp_path, capsys):
        scene = tmp_path / "b.txt"
        scene.write_text("boundary\nsegment 0 0 1 0\nsegment 1 0 0 1\nsegment 0 1 0 0\n")
        _, out, _ = run(capsys, "simulate", str(scene), "--query", "0.3", "0.00005")
        assert out.strip() == "black"
        _, out, _ = run(capsys, "--tau", "1e-4", "simulate", str(scene), "--query", "0.3", "0.00005")
        assert out.strip() == "boundary"

    def test_render_construction(self, tmp_path, capsys):
        pgms = []
        for tau in (None, "1e-4"):
            out = tmp_path / f"c{tau}.pgm"
            argv = ["render", "--construction", "chessboard", "--bbox", "-1.00995", "-1", "0.99005", "1",
                    "--res", "50", "-o", str(out)]
            assert run(capsys, *(["--tau", tau] if tau else []), *argv)[0] == 0
            pgms.append(out.read_bytes())
        # column 50 sits at x = 5e-5, off the edge x = 0 at the default
        # margin and on it at 1e-4
        assert pgms[0].count(128) < pgms[1].count(128)

    @pytest.mark.parametrize("tau", ["-0.1", "0", "0.5", "nan", "x"])
    def test_out_of_range_tau_is_a_usage_error(self, tmp_path, capsys, tau):
        scene = tmp_path / "s.txt"
        scene.write_text("stroke pencil point 0 0\n")
        for source in ([str(scene)], ["--construction", "chessboard"]):
            out = tmp_path / "x.pgm"
            code, _, err = run(capsys, "--tau", tau, "render", *source,
                               "--bbox", "-2", "-2", "2", "2", "--res", "4", "-o", str(out))
            assert code == 2 and "--tau" in err
            assert not out.exists()


class TestVerify:
    def test_chessboard(self, capsys):
        code, out, _ = run(capsys, "verify", "chessboard", "--depth", "4")
        assert code == 0
        assert "certificate valid: True" in out
        assert "stage=1 kind=enc verdict=yes" in out

    def test_trapezoid(self, capsys):
        code, out, _ = run(capsys, "verify", "trapezoid", "--fuzz", "200")
        assert code == 0
        assert "ok" in out

    def test_rolling(self, capsys):
        code, out, _ = run(capsys, "verify", "rolling", "--eps", "0.5")
        assert code == 0
        assert "ok" in out

    def test_rolling_has_no_step(self, capsys):
        # the check is a proof, not a sample: there is no sample spacing
        code, out, err = run(capsys, "verify", "rolling", "--step", "inf")
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --step" in err

    def test_rolling_records_hold_the_counts(self):
        for checks, name in ((verify_rolling(0.5), "rolling disk"),
                             (verify_snake(1.001, 1, 1e-9), "rolling-disk check")):
            (check,) = [c for c in checks if c.name == name]
            assert check.ok
            assert check.value["intervals"] == 56 and check.value["kernel_calls"] == 84
            assert check.value["orbit"] == 2
            assert check.value["failures"] == check.value["undecided"] == 0

    def test_rolling_needs_the_snake(self, capsys):
        # the rolling check reads the snake alone, so it offers no choice of construction
        code, out, err = run(capsys, "verify", "rolling", "--construction", "chessboard")
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --construction chessboard" in err

    def test_chessboard_single_stage(self, capsys):
        # one stage has no stage pair: the verifier returns no record, and
        # the command refuses the depth before any work
        stages = obstruction.chessboard_stages(0.1, math.radians(0.5), 1)
        assert obstruction.scaling_descent_verify(constructions.chessboard_coloring(1.0), stages) == ()
        code, out, err = run(capsys, "verify", "chessboard", "--depth", "1")
        assert (code, out) == (2, "")
        assert err == "usage error: --depth must be at least 2, for one stage pair, got 1\n"

    def test_sharp(self, capsys):
        code, out, _ = run(capsys, "verify", "sharp", "--n", "4")
        assert code == 0
        assert out == "4-dissection of the slid-disk script at (1.0100, 20.0) thickness 1.98: ok\n"

    def test_sharp_has_no_samples(self, capsys):
        # the check is a proof, not a sample: there is no sample count
        code, out, err = run(capsys, "verify", "sharp", "--n", "12", "--samples", "0")
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --samples" in err

    def test_dissection_records_hold_the_counts(self):
        for checks, name in ((verify_sharp(12, 1e-9), "12-dissection"),
                             (verify_snake(1.001, 1, 1e-9), "12-dissection")):
            (check,) = [c for c in checks if c.name == name]
            assert check.ok
            assert (check.value["rectangles"], check.value["leaves"], check.value["depth"]) == (24, 24, 0)
            assert check.value["failures"] == check.value["undecided"] == 0
            assert 0.0 < check.value["min_margin"] < 2e-9

    def test_dissection(self, capsys):
        code, out, _ = run(
            capsys, "verify", "dissection", "--n", "12", "--L", "3.0", "--s", "1e-3",
            "--depth", "2",
        )
        assert code == 0
        assert "all radii < 1: ok" in out
        assert "wedge case split: 24/24 ok" in out

    def test_snake_small_depth(self, capsys):
        code, out, _ = run(capsys, "verify", "snake", "--depth", "1")
        assert code == 0
        assert "|AE|" in out and "rolling-disk check: ok" in out

    def test_boundary_stage_point_is_a_fail_line(self, capsys):
        # at theta 1e-7 degrees the stage-1 points lie within tau of an axis
        code, out, _ = run(capsys, "verify", "chessboard", "--theta-deg", "1e-7", "--depth", "21")
        assert code == 1
        assert out.splitlines() == ["FAIL: stage colours: stage 1 black point Point(x=0.1, y=1.7453292519943295e-10) "
                                    "is on the boundary", "certificate valid: False"]

    def test_stage_colors_are_checked_at_the_given_tau(self, capsys):
        # a stage-1 point 1.7e-10 from an axis is in the default 1e-9 collar
        # (the FAIL above) and outside a collar of 1e-12
        code, out, _ = run(capsys, "--tau", "1e-12", "verify", "chessboard", "--theta-deg", "1e-7", "--depth", "21")
        assert code == 0, out
        assert "certificate valid: True" in out and "FAIL" not in out


class TestChessboardEveryDepth:
    """verify chessboard proves every depth from stage 1 and the first
    stage pair (obstruction.scaling_descent_verify)."""

    ARGV = ("verify", "chessboard", "--r", "0.1", "--theta-deg", "0.5", "--depth")

    @pytest.mark.parametrize("depth", [10, 21, 28, 60, 200])
    def test_certifies(self, capsys, depth):
        code, out, err = run(capsys, *self.ARGV, str(depth))
        lines = out.splitlines()
        assert (code, err) == (0, "")
        assert "certificate valid: True" in lines and "FAIL" not in out
        assert f"scaling lemma: stages 2..{depth} follow from stage 1 and the stage pair 1-2" in lines
        assert out.count("kind=enc verdict=yes") == depth - 1
        assert "clearance ratios: min 0.500000000 max 0.500000000" in lines

    @pytest.mark.parametrize("argv", [("0.1", "0.5", "2"), ("0.1", "0.5", "10"), ("0.1", "0.5", "20"),
                                      ("0.12", "0.7", "20"), ("0.08", "0.3", "12")])
    def test_lines_match_the_stage_by_stage_check(self, capsys, monkeypatch, argv):
        r, theta, depth = argv
        argv = ["verify", "chessboard", "--r", r, "--theta-deg", theta, "--depth", depth]
        code, out, err = run(capsys, *argv)
        monkeypatch.setattr(cli, "scaling_descent_verify", descent_verify)
        oracle_code, oracle_out, oracle_err = run(capsys, *argv)

        def kept(text):  # every line but the lemma's, which both runs print
            lines = text.splitlines(keepends=True)
            rest = [line for line in lines if not line.startswith("scaling lemma: ")]
            assert len(rest) == len(lines) - 1
            return "".join(rest)

        assert (code, kept(out), err) == (oracle_code, kept(oracle_out), oracle_err)
        assert code == 0

    def test_underflowing_depth_is_a_usage_error(self, capsys):
        # stage 1013 would have a coordinate below the smallest normal float
        for depth in ("1013", "1100"):
            code, out, err = run(capsys, *self.ARGV, depth)
            assert (code, out) == (2, "")
            assert err == (f"usage error: depth {depth} underflows: stage {depth} has a coordinate "
                           "below the smallest normal float 2.2250738585072014e-308\n")
        code, out, err = run(capsys, *self.ARGV, "1012")
        assert (code, err) == (0, "") and out.endswith("certificate valid: True\n")


def moved_stages(monkeypatch):
    """Make verify build its dissection stages with one stage-1 black point
    of ray 3 moved by 1e-6."""
    build = cli.dissection_stages

    def moved(*args):
        stages = build(*args)
        fam = stages[1]
        p = fam.blacks[5]
        stages[1] = dataclasses.replace(fam, blacks=(*fam.blacks[:5], Point(p.x, p.y + 1e-6), *fam.blacks[6:]))
        return stages

    monkeypatch.setattr(cli, "dissection_stages", moved)


def assert_same_but_clearances(out, expected, rel=1e-9):
    """The same lines, but for `clearance=` values within rel of each other."""
    assert len(out.splitlines()) == len(expected.splitlines())
    for line, want in zip(out.splitlines(), expected.splitlines()):
        head, _, value = line.partition(" clearance=")
        want_head, _, want_value = want.partition(" clearance=")
        assert head == want_head
        assert (value == want_value) if not value else float(value) == pytest.approx(float(want_value), rel=rel)


def wedge_records_enumerated(stages, spec, tau):
    """dissection_wedge_checks' records from every wedge of every stage pair
    (tests/oracles.py::wedge_checks_enumerated): a pair's verdict is YES
    when each of its n wedges is, and its first other verdict otherwise."""
    enumerated = wedge_checks_enumerated(stages, spec, tau)
    records = []
    for fam in stages[:-1]:
        verdicts = [v for i, _, v in enumerated if i == fam.stage_index]
        assert len(verdicts) == spec.n
        verdict = next((v for v in verdicts if v is not Verdict.YES), Verdict.YES)
        records.append(Check(f"stage {fam.stage_index} wedges", verdict, None))
    return tuple(records)


DISSECTION = ("verify", "dissection", "--n", "12", "--L", "3", "--s", "1e-3", "--depth", "5")


class TestSymmetricDescent:
    """verify snake and verify dissection decide each stage pair from ray 1
    and wedge 1 (obstruction.symmetric_descent_verify)."""

    @pytest.mark.parametrize("argv, oracle, work", [
        (("verify", "dissection", "--n", "12", "--L", "3", "--s", "1e-3", "--depth", "5"),
         (70, 480, 480, 240), (10, 50, 30, 10)),
        (("verify", "dissection", "--n", "20", "--L", "5", "--s", "1e-3", "--depth", "2"),
         (44, 320, 320, 160), (4, 20, 12, 4)),
        (("verify", "snake"), (16, 384, 384, 384), (8, 48, 16, 16)),
    ], ids=["dissection-n12", "dissection-n20", "snake"])
    def test_work(self, capsys, monkeypatch, argv, oracle, work):
        """(LargestEmptyCircle builds, obstacle points they triangulate,
        queries, escapes) of the command, and of the stage-by-stage checks
        it replaces, which triangulate whole families and take the escape
        radius over every target: the same verdicts and exit code, and
        clearances within a relative 1e-9."""
        counts = [0, 0, 0, 0]
        init, query, escape = LargestEmptyCircle.__init__, LargestEmptyCircle.query, LargestEmptyCircle.escape

        def built(lec, obstacles):
            counts[0] += 1
            counts[1] += len(obstacles)
            init(lec, obstacles)

        def counting(k, method):
            def counted(*args):
                counts[k] += 1
                return method(*args)
            return counted

        monkeypatch.setattr(LargestEmptyCircle, "__init__", built)
        monkeypatch.setattr(LargestEmptyCircle, "query", counting(2, query))
        monkeypatch.setattr(LargestEmptyCircle, "escape", counting(3, escape))
        code, out, _ = run(capsys, *argv)
        assert code == 0 and tuple(counts) == work
        counts[:] = [0, 0, 0, 0]
        # the stand-ins measure no premise, so they ignore the one verify dissection shares
        monkeypatch.setattr(cli, "symmetric_descent_verify", lambda stages, spec, tau, rotation=None:
                            descent_verify(pattern_coloring(spec, tau), stages, tau))
        monkeypatch.setattr(cli, "dissection_wedge_checks", lambda stages, spec, tau, rotation=None:
                            wedge_records_enumerated(stages, spec, tau))
        code, expected, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert_same_but_clearances(out, expected)
        assert tuple(counts) == oracle

    @pytest.mark.parametrize("argv", [("verify", "snake"), DISSECTION], ids=["snake", "dissection"])
    def test_rotation_premise_is_measured_once(self, capsys, monkeypatch, argv):
        # verify dissection hands the descent and the wedge split one premise
        calls = []
        measure = obstruction._rotation_premise

        def counted(*args):
            calls.append(args)
            return measure(*args)

        monkeypatch.setattr(obstruction, "_rotation_premise", counted)
        monkeypatch.setattr(cli, "_rotation_premise", counted)
        assert run(capsys, *argv)[0] == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("argv, lines", [
        (("verify", "dissection", "--n", "12", "--L", "3", "--s", "1e-3", "--depth", "2"),
         ["wedge case split: 0/24 FAIL", "stage encirclements: FAIL"]),
        (("verify", "snake", "--depth", "2"), ["descent stages 0..2: FAIL"]),
    ], ids=["dissection", "snake"])
    def test_failed_premise_is_a_fail_line(self, capsys, monkeypatch, argv, lines):
        moved_stages(monkeypatch)
        code, out, err = run(capsys, *argv)
        assert (code, err) == (1, "")
        out = out.splitlines()
        fails = [line for line in out if line.startswith("FAIL")]
        assert len(fails) == 1 and fails[0].startswith("FAIL: rotation symmetry: stage 1 ray 3 is ")
        assert out[-len(lines) - 1:] == fails + lines  # no stage record, no fallback

    @pytest.mark.parametrize("argv", [("verify", "snake"), DISSECTION], ids=["snake", "dissection"])
    def test_stage_points_are_not_classified(self, capsys, monkeypatch, argv):
        # the region classifier, counted during the descent and over the whole command
        calls, during = [0], []
        classify, verify = constructions.classify_against_path, cli.symmetric_descent_verify

        def counted(*args):
            calls[0] += 1
            return classify(*args)

        def measured(*args, **kwargs):
            before = calls[0]
            cert = verify(*args, **kwargs)
            during.append(calls[0] - before)
            return cert

        monkeypatch.setattr(constructions, "classify_against_path", counted)
        monkeypatch.setattr(cli, "symmetric_descent_verify", measured)
        assert run(capsys, *argv)[0] == 0
        assert during == [0]
        assert (calls[0] > 0) == (argv[1] == "snake")  # the snake's rectangle proof classifies part centres

    def test_descent_needs_the_proved_dissection(self, capsys, monkeypatch):
        # the stage colours are those of the 12-dissection's rectangles
        check = cli.dissection_sample_check

        def failed(*args):  # the proof with one proved rectangle counted as failed
            report = check(*args)
            return dataclasses.replace(report, failures=report.proved[:1])

        monkeypatch.setattr(cli, "dissection_sample_check", failed)
        code, out, err = run(capsys, "verify", "snake")
        assert (code, err) == (1, "")
        out = out.splitlines()
        assert "12-dissection at (2.964, 3.735) thickness 0.793: FAIL" in out
        assert out[-1] == "descent stages 0..8: FAIL" and not any(line.startswith("FAIL") for line in out)


@pytest.mark.parametrize("pipeline, verifier, args", [
    (cli.verify_chessboard, "scaling_descent_verify", (0.1, 0.5, 10, DEFAULT_TAU)),
    (cli.verify_chessboard, "scaling_descent_verify", (0.1, 1e-7, 21, DEFAULT_TAU)),
    (cli.verify_snake, "symmetric_descent_verify", (1.001, 8, DEFAULT_TAU)),
    (cli.verify_dissection, "symmetric_descent_verify", (12, 3.0, 1e-3, 5, DEFAULT_TAU)),
    (cli.verify_dissection, "symmetric_descent_verify", (12, 3.5887177858128325, 0.002590482283749564, 2,
                                                         DEFAULT_TAU)),
], ids=["chessboard", "chessboard-premise", "snake", "dissection", "dissection-refuted"])
def test_pipelines_pass_the_descent_records_through(monkeypatch, pipeline, verifier, args):
    """A verify pipeline yields the descent verifier's own Check records, in
    order, and builds no stage or premise record of its own."""
    returned = []
    verify = getattr(cli, verifier)
    monkeypatch.setattr(cli, verifier, lambda *a, **kw: returned.append(verify(*a, **kw)) or returned[-1])
    checks = pipeline(*args)
    (cert,) = returned
    assert cert
    start = next(k for k, c in enumerate(checks) if c is cert[0])
    assert all(c is want for c, want in zip(checks[start:start + len(cert)], cert, strict=True))
    rest = checks[:start] + checks[start + len(cert):]
    assert not any(c.name == "lemma premise" or c.name.endswith(" enc") for c in rest)


def test_main_reuses_one_parser(tmp_path, capsys, monkeypatch):
    """One process, one parser: each call of a sequence prints exactly what
    it prints alone, in a fresh process."""
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage text to the terminal
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    pgm = tmp_path / "c.pgm"
    sequence = [
        ["verify", "chessboard", "--r", "0.1", "--depth", "3"],
        ["verify", "chessboard", "--r", "0.09", "--depth", "3"],
        ["verify", "chessboard", "--depth", "three"],
        ["render", "--construction", "chessboard", "--bbox", "-1", "-1", "1", "1", "--res", "8", "-o", str(pgm)],
        ["verify", "rolling", "--eps", "1"],
    ]

    def image(argv):
        return pgm.read_bytes() if argv[0] == "render" else None

    alone = []
    for argv in sequence:
        proc = subprocess.run([sys.executable, "-m", "diskdraw", *argv],
                              capture_output=True, text=True, env=env, timeout=60)
        alone.append((proc.returncode, proc.stdout, proc.stderr, image(argv)))
    pgm.unlink()
    together = [(*run(capsys, *argv), image(argv)) for argv in sequence]
    assert together == alone
    assert [code for code, *_ in together] == [0, 0, 2, 0, 0]
    assert build_parser() is build_parser()


GOLDEN = Path(__file__).with_name("verify_golden.txt")


def golden_runs():
    """(argv, stdout, exit code) of each run in verify_golden.txt: a
    `$ diskdraw ...` line, the exact stdout, then `[exit N]`."""
    runs, argv, out = [], None, []
    for line in GOLDEN.read_text().splitlines(keepends=True):
        if line.startswith("$ diskdraw "):
            argv, out = line.split()[2:], []
        elif line.startswith("[exit "):
            runs.append(pytest.param(argv, "".join(out), int(line[6:-2]), id=" ".join(argv[1:])))
        else:
            out.append(line)
    return runs


@pytest.mark.parametrize("argv, stdout, code", golden_runs())
def test_verify_golden(capsys, argv, stdout, code):
    """Every printed line and exit code of these `verify` runs is pinned; a
    run that exits 2 writes one `usage error:` line to stderr, the others
    write nothing there."""
    got, out, err = run(capsys, *argv)
    assert (got, out) == (code, stdout)
    if code == 2:
        assert err.startswith("usage error: ") and err.endswith("\n") and err.count("\n") == 1
    else:
        assert err == ""


RENDER_GOLDEN = Path(__file__).with_name("render_golden.txt")


def render_golden_runs():
    """(argv, {file name: SHA-256}) of each run in render_golden.txt: a
    `$ diskdraw ...` line, then one `<sha256>  <name>` line per file written."""
    runs = []
    for line in RENDER_GOLDEN.read_text().splitlines():
        if line.startswith("$ diskdraw "):
            runs.append((line.split()[2:], {}))
        elif line and not line.startswith("#"):
            digest, name = line.split()
            runs[-1][1][name] = digest
    return runs


def test_render_golden_holds_the_readme_commands():
    readme = (ROOT / "README.md").read_text().splitlines()
    commands = [line.split() for line in readme if line.startswith("diskdraw render --construction ")]
    assert [["diskdraw", *argv] for argv, _ in render_golden_runs()] == commands
    assert len(commands) == 3


@pytest.mark.parametrize("argv, files", [pytest.param(argv, files, id=argv[2]) for argv, files in render_golden_runs()])
def test_render_golden(tmp_path, capsys, monkeypatch, argv, files):
    """The bytes of every file these README renders write are pinned."""
    monkeypatch.chdir(tmp_path)
    code, _, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(files)
    assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in files} == files


def test_radii_within_tau_of_one_is_a_fail_line(capsys):
    # the largest critical radius is 1 - 5e-10: below 1 but not below 1 - tau
    code, out, err = run(capsys, "verify", "dissection", "--n", "12", "--L", "3.698018215596676",
                         "--s", "1e-3", "--depth", "1")
    assert (code, err) == (1, "")
    assert out.splitlines()[-1] == "all radii < 1: FAIL"


def test_radii_above_one_build_no_stage(capsys, monkeypatch):
    # the largest critical radius is 1.014: the failed premise is the last
    # line, and no stage is built
    calls = []
    build = cli.dissection_stages
    monkeypatch.setattr(cli, "dissection_stages", lambda *args: calls.append(args) or build(*args))
    code, out, err = run(capsys, "verify", "dissection", "--n", "12", "--L", "3.75", "--s", "1e-3", "--depth", "1")
    assert (code, out, err) == (1, "r_a=0.015827 r_c=0.996748 r_d=1.014055 r_e=1.005080\nall radii < 1: FAIL\n", "")
    assert calls == []


@pytest.mark.parametrize("argv", [["snake", "--depth", "2000"],
                                  ["dissection", "--n", "12", "--L", "3", "--s", "1e-3", "--depth", "2000"]],
                         ids=["snake", "dissection"])
def test_underflowing_dissection_depth_is_a_usage_error(capsys, monkeypatch, argv):
    # at s = 1e-3 the offset of stage 2000 is 0.0: refused before any stage is built
    def built(*args, **kwargs):
        raise AssertionError("a stage was built")

    monkeypatch.setattr(obstruction, "StageFamily", built)
    code, out, err = run(capsys, "verify", *argv)
    assert (code, out) == (2, "")
    assert err == ("usage error: depth 2000 underflows: stage 2000 has the offset 0.0, "
                   "below the smallest normal float 2.2250738585072014e-308\n")


class TestOutOfRangeParameters:
    """A parameter outside its domain is a usage error (exit 2) with one
    stderr line, never a traceback or the exit code of a refutation."""

    @pytest.mark.parametrize("argv", [
        ["verify", "sharp", "--n", "5"],
        ["verify", "chessboard", "--r", "2"],
        ["verify", "snake", "--r", "2"],
        ["verify", "dissection", "--n", "12", "--L", "3", "--s", "2"],
        ["verify", "dissection", "--n", "12", "--L", "3", "--s", "-0.1"],
        ["verify", "dissection", "--n", "12", "--L", "0.001", "--s", "1e-3"],
        ["verify", "dissection", "--n", "12", "--L", "3", "--s", "1e-3", "--depth", "-1"],
        ["verify", "snake", "--depth", "-1"],
        ["verify", "chessboard", "--depth", "1"],
        ["verify", "snake", "--depth", "0"],
        ["verify", "dissection", "--n", "12", "--L", "3", "--s", "1e-3", "--depth", "0"],
        ["verify", "rolling", "--eps", "nan"],
        ["verify", "trapezoid", "--fuzz", "0"],
        ["render", "--construction", "chessboard", "--bbox", "-2", "-2", "2", "2", "--res", "0.5"],
        ["render", "--construction", "chessboard", "--bbox", "2", "2", "-2", "-2", "--res", "4"],
        ["verify", "dissection", "--n", "2", "--L", "0.5", "--s", "1e-3", "--depth", "1"],
        ["verify", "dissection", "--n", "12", "--L", "1e9", "--s", "1e-3", "--depth", "1"],
        ["verify", "sharp", "--n", "64"],
    ], ids=["sharp-n5", "chessboard-r2", "snake-r2", "dissection-s2", "dissection-negative-s",
         "dissection-small-L", "dissection-depth", "snake-depth", "chessboard-one-stage", "snake-one-stage",
         "dissection-one-stage", "rolling-eps-nan", "trapezoid-fuzz-0",
         "render-res", "render-bbox", "dissection-n2", "dissection-huge-L", "sharp-n64"])
    def test_command_line(self, tmp_path, capsys, argv):
        out = tmp_path / "x.pgm"
        code, stdout, err = run(capsys, *argv, *(["-o", str(out)] if argv[0] == "render" else []))
        assert code == 2
        assert "Traceback" not in err and len(err.strip().splitlines()) == 1
        assert stdout == "" and not out.exists()

    @pytest.mark.parametrize("raster", [
        ["--bbox", "0", "0", "1", "1", "--res", "inf"],
        ["--bbox", "0", "0", "inf", "1", "--res", "4"],
        ["--bbox", "0", "0", "1e308", "1", "--res", "4"],
        ["--bbox", "0", "0", "1", "1", "--res", "nan"],
    ], ids=["res-inf", "bbox-inf", "bbox-overflow", "res-nan"])
    def test_render_keeps_existing_output(self, tmp_path, capsys, raster):
        out = tmp_path / "out.pgm"
        out.write_bytes(b"keep\n")
        code, stdout, err = run(capsys, "render", "--construction", "chessboard", *raster, "-o", str(out))
        assert code == 2
        assert err.startswith("usage error: ") and len(err.strip().splitlines()) == 1
        assert stdout == "" and out.read_bytes() == b"keep\n"

    def test_raster_too_big_for_memory(self, tmp_path, capsys, monkeypatch):
        # a refused pixel buffer is a usage error naming the raster size, and
        # the output is left as it was; the buffer is requested before any
        # row table is built, and nothing of that size is allocated here
        class Refused:
            def __mul__(self, count):
                raise MemoryError

        def no_table(*args):
            raise AssertionError("a row table was built before the pixel buffer")

        module = importlib.import_module("diskdraw.render")
        monkeypatch.setattr(module, "bytearray", lambda *args: Refused(), raising=False)
        monkeypatch.setattr(module, "_active", no_table)
        out = tmp_path / "out.pgm"
        out.write_bytes(b"keep\n")
        code, stdout, err = run(capsys, "render", "--construction", "chessboard",
                                "--bbox", "-2", "-2", "2", "2", "--res", "100000", "-o", str(out))
        assert (code, stdout) == (2, "")
        assert err == "usage error: a 400000x400000 raster does not fit in memory\n"
        assert out.read_bytes() == b"keep\n"

    @pytest.mark.parametrize("query", [("nan", "0"), ("inf", "0"), ("1e400", "0"), ("0", "nan"), ("0", "-inf")],
                             ids=["nan", "inf", "overflow", "nan-y", "minus-inf"])
    def test_non_finite_query(self, tmp_path, capsys, query):
        scene = tmp_path / "s.txt"
        scene.write_text("model open\nstroke pencil point 0 0\n")
        code, stdout, err = run(capsys, "simulate", str(scene), "--query", *query)
        assert (code, stdout) == (2, "")
        assert err.startswith("usage error: non-finite coordinates") and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("text, lineno", [
        ("# a comment\n\nconstruction chessboard abc\n", 3),
        ("construction sharp-n 5\n", 1),
        ("construction chessboard 1.0 7 8\nstroke pencil point 5 5\ngarbage line here\n", 1),
        ("construction chessboard 1.0\n# strokes do not mix with a construction\n\n"
         "stroke pencil point 5 5\ngarbage line here\n", 4),
    ], ids=["chessboard-abc", "sharp-n5", "extra-parameters", "trailing-line"])
    def test_scene_file(self, tmp_path, capsys, text, lineno):
        scene = tmp_path / "c.txt"
        scene.write_text(text)
        code, _, err = run(capsys, "simulate", str(scene), "--query", "0", "0")
        assert code == 2
        assert "Traceback" not in err and len(err.strip().splitlines()) == 1
        assert err.startswith(f"parse error: line {lineno},")

    @pytest.mark.parametrize("text, where", [
        ("  construction chessboard abc\n", "line 1, column 27: "),
        ("\tconstruction sharp-n 5\n", "line 1, column 23: "),
        ("   construction  nope 2\n", "line 1, column 18: unknown construction 'nope'"),
        ("  construction\n", "line 1, column 15: construction needs a name"),
        ("construction chessboard\n\n    stroke pencil point 5 5\n",
         "line 3, column 5: unexpected 'stroke' after the construction line"),
    ], ids=["indented-parameter", "tab-parameter", "unknown-name", "no-name", "indented-trailing-line"])
    def test_scene_file_error_column(self, tmp_path, capsys, text, where):
        # the column is the offending word's (a rejected parameter: the first
        # parameter word), or just past the last word
        scene = tmp_path / "c.txt"
        scene.write_text(text)
        code, _, err = run(capsys, "simulate", str(scene), "--query", "0", "0")
        assert code == 2
        assert err.startswith(f"parse error: {where}")


class TestEntryPoint:
    @pytest.mark.parametrize("module", ["diskdraw", "diskdraw.cli"])
    def test_python_m(self, module):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", module, "verify", "trapezoid", "--fuzz", "10"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[-1] == "ok"


def _leaf_parsers(parser, path=()):
    """(command path, parser) of each subcommand that has no subcommands."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield " ".join(path), parser
    for action in subs:
        for name, sub in action.choices.items():
            yield from _leaf_parsers(sub, (*path, name))


def _loaded_names(code) -> set[str]:
    """The names a code object and the code nested in it load."""
    names = set(code.co_names)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            names |= _loaded_names(const)
    return names


def test_every_option_reaches_its_handler():
    """Each subcommand option is read by its handler: a verify command's
    pipeline, or the func of simulate and render.  An option nothing reads
    is a knob that changes nothing."""
    leaves = dict(_leaf_parsers(build_parser()))
    assert {"simulate", "render", "verify rolling", "verify snake"} <= leaves.keys()
    for command, parser in leaves.items():
        handler = parser.get_default("pipeline") or parser.get_default("func")
        loaded = _loaded_names(handler.__code__)
        dests = [a.dest for a in parser._actions if not isinstance(a, argparse._HelpAction)]
        assert dests and [d for d in dests if d not in loaded] == [], command


def test_traced_names_resolve():
    """Every (module, attribute) the benchmark traces (TRACED in
    perfbench/run.py, read without importing it) exists once the CLI is
    imported, so a rename fails here and not only in a traced run."""
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text(encoding="utf-8"))
    (traced,) = [ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "TRACED"]
    assert traced
    for module, attribute, _ in traced:
        assert hasattr(importlib.import_module(module), attribute), f"{module}.{attribute}"
