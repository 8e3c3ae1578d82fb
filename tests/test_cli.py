import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from diskdraw.cli import main, verify_rolling, verify_sharp, verify_snake

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

    def test_segment_too_short_to_measure_is_a_parse_error(self, tmp_path, capsys):
        # the ends differ, but the squared length underflows to 0
        scene = tmp_path / "s.txt"
        scene.write_text("model open\nstroke pencil segment 0 0 1e-300 0\n")
        code, out, err = run(capsys, "simulate", str(scene), "--query", "0", "0")
        assert (code, out) == (2, "")
        assert err.startswith("parse error: line 2,") and "Traceback" not in err


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
        code, out, _ = run(capsys, "verify", "rolling", "--construction", "snake", "--eps", "0.5")
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
            assert check.value["intervals"] == 56 and check.value["kernel_calls"] == 168
            assert check.value["failures"] == check.value["undecided"] == 0

    def test_rolling_needs_the_snake(self, capsys):
        code, out, err = run(capsys, "verify", "rolling", "--construction", "chessboard")
        assert (code, out) == (2, "")
        assert "invalid choice: 'chessboard'" in err

    def test_chessboard_single_stage(self, capsys):
        # one stage has no stage pair, so no clearance is printed
        code, out, _ = run(capsys, "verify", "chessboard", "--depth", "1")
        assert code == 0
        assert out.splitlines() == ["stage=1 kind=colors verdict=yes clearance=0.0", "certificate valid: True"]

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
        # at depth 21 the chessboard stage points shrink into the tau collar
        code, out, _ = run(capsys, "verify", "chessboard", "--depth", "21")
        assert code == 1
        fail = [line for line in out.splitlines() if line.startswith("FAIL")]
        assert len(fail) == 1
        assert "stage 21" in fail[0] and "Point(" in fail[0]


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
    """Every printed line and exit code of these `verify` runs is pinned."""
    assert run(capsys, *argv) == (code, stdout, "")


def test_radii_within_tau_of_one_is_a_fail_line(capsys):
    # the largest critical radius is 1 - 5e-10: below 1 but not below 1 - tau
    code, out, err = run(capsys, "verify", "dissection", "--n", "12", "--L", "3.698018215596676",
                         "--s", "1e-3", "--depth", "1")
    assert (code, err) == (1, "")
    assert out.splitlines()[-1] == "all radii < 1: FAIL"


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
        ["verify", "rolling", "--eps", "nan"],
        ["verify", "trapezoid", "--fuzz", "0"],
        ["render", "--construction", "chessboard", "--bbox", "-2", "-2", "2", "2", "--res", "0.5"],
        ["render", "--construction", "chessboard", "--bbox", "2", "2", "-2", "-2", "--res", "4"],
    ], ids=["sharp-n5", "chessboard-r2", "snake-r2", "dissection-s2", "dissection-negative-s",
         "dissection-small-L", "dissection-depth", "snake-depth", "rolling-eps-nan", "trapezoid-fuzz-0",
         "render-res", "render-bbox"])
    def test_command_line(self, tmp_path, capsys, argv):
        out = tmp_path / "x.pgm"
        code, stdout, err = run(capsys, *argv, *(["-o", str(out)] if argv[0] == "render" else []))
        assert code == 2
        assert "Traceback" not in err and len(err.strip().splitlines()) == 1
        assert stdout == "" and not out.exists()

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
