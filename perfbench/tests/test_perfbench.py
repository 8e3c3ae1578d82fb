"""Tests of the benchmark itself: seeded inputs and correctness checks.

Run with `python -m pytest perfbench/tests` from the repository root.
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import checks
import run
import workloads
from spans import Tracer
from workloads import Calibration, PassResult, Tally

BENCH = Path(__file__).resolve().parent.parent

GENERATORS = {
    "certify": workloads.certify_inputs,
    "raster": workloads.raster_inputs,
    "membership": workloads.membership_inputs,
}


def _digest(kind: str, seed: int, hash_seed: str) -> str:
    code = (f"import hashlib, workloads; "
            f"print(hashlib.sha256(repr(workloads.{GENERATORS[kind].__name__}({seed})).encode()).hexdigest())")
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(BENCH))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True).stdout.strip()


@pytest.mark.parametrize("kind", sorted(GENERATORS))
def test_same_seed_gives_byte_identical_inputs(kind):
    gen = GENERATORS[kind]
    first = repr(gen(7)).encode()
    assert first == repr(gen(7)).encode()
    assert first != repr(gen(8)).encode()
    # independent of the interpreter's string hashing
    want = hashlib.sha256(first).hexdigest()
    assert _digest(kind, 7, "1") == want == _digest(kind, 7, "2")


def test_raster_shift_keeps_the_image_size():
    for seed in range(5):
        for item, (_, _, bbox, res) in zip(workloads.raster_inputs(seed), workloads.RENDERS):
            assert checks.raster_size(item.bbox, item.res) == checks.raster_size(bbox, res)


# -- verify ---------------------------------------------------------------


@pytest.fixture(scope="module")
def dd():
    return run.load_package()


@pytest.mark.parametrize("argv", [["verify", "chessboard", "--r", "0.1", "--theta-deg", "0.5", "--depth", "6"],
                                  ["verify", "rolling"]])
def test_verify_check_rejects_a_missing_verdict_line(dd, argv):
    code, out = workloads.run_cli(dd.cli, argv)
    assert checks.check_verify(argv, code, out) == []
    wanted, _ = checks.expected_verify_lines(argv)
    prefix, suffix = wanted[-1]
    cut = "\n".join(line for line in out.splitlines()
                    if not (line.startswith(prefix) and line.endswith(suffix)))
    assert checks.check_verify(argv, code, cut)
    assert checks.check_verify(argv, 1, out)
    assert checks.check_verify(argv, code, out + "extra: FAIL\n")


def test_verify_check_counts_certified_stage_pairs(dd):
    argv = ["verify", "chessboard", "--depth", "4"]
    code, out = workloads.run_cli(dd.cli, argv)
    assert checks.check_verify(argv, code, out) == []
    refuted = out.replace("kind=enc verdict=yes", "kind=enc verdict=boundary", 1)
    assert checks.check_verify(argv, code, refuted)


# -- render ---------------------------------------------------------------

BBOX, RES = (-2.05, -1.95, 1.95, 2.05), 10.0


@pytest.fixture(scope="module")
def chess_pgm(dd):
    spec = dd.RasterSpec(*BBOX, resolution=RES)
    return dd.to_pgm(dd.render(dd.chessboard_coloring(1.0), spec), spec)


def _every_pixel(dd):
    w, h = checks.raster_size(BBOX, RES)
    spots = [(i, j) for i in range(h) for j in range(w)]
    classify = dd.chessboard_coloring(1.0).classify
    shades = [classify(dd.Point(*checks.pixel_centre(BBOX, RES, i, j))).value for i, j in spots]
    return w, h, spots, shades


def test_render_check_rejects_a_flipped_pixel(dd, chess_pgm):
    w, h, spots, shades = _every_pixel(dd)
    pixels, problems = checks.split_pgm(chess_pgm, w, h)
    assert problems == []
    assert checks.spot_mismatches(pixels, w, spots, shades) == []
    k = 17 * w + 23
    flipped = pixels[:k] + bytes([255 - pixels[k]]) + pixels[k + 1:]
    assert len(checks.spot_mismatches(flipped, w, spots, shades)) == 1


def test_render_check_rejects_a_bad_header_or_size(chess_pgm):
    w, h = checks.raster_size(BBOX, RES)
    assert checks.split_pgm(chess_pgm, w + 1, h)[1]
    assert checks.split_pgm(chess_pgm[:-1], w, h)[1]
    assert checks.split_pgm(b"P2" + chess_pgm[2:], w, h)[1]


def test_golden_check(dd):
    tally = Tally()
    workloads.Raster(dd, 0, str(BENCH / "out")).final_checks(tally)
    assert (tally.attempted, tally.failed) == (1, 0)
    assert checks.check_golden(b"P5\n1 1\n255\n\x00")


def test_raster_pass_checks_spots(dd, tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "RENDERS", ((
        "chessboard", [], BBOX, RES),))
    raster = workloads.Raster(dd, 3, str(tmp_path))
    tally = Tally()
    result = raster.run_pass(tally, Calibration())
    assert (tally.attempted, tally.failed, raster.spot_mismatches) == (1, 0, 0)
    assert result.rate > 0 and result.parts[0] == result.wall


# -- membership -----------------------------------------------------------


def test_membership_check_rejects_a_wrong_shade():
    assert checks.check_query("black", "black", "black", 1) == []
    assert checks.check_query("white", "boundary", "white", None) == []
    assert checks.check_query("white", "black", "white", 2)  # disagrees with reference_eval
    assert checks.check_query("black", "black", "white", 1)  # round trip changed it
    assert checks.check_query("black", "black", "black", 2)  # stationary number parity


def test_membership_pass_is_correct_and_rechecks_later_passes(dd):
    member = workloads.Membership(dd, 5, "")
    member.scenes, member.points = member.scenes[:25], member.points[:25]
    tally = Tally()
    member.run_pass(tally, Calibration())
    member.run_pass(tally, Calibration())
    assert (tally.attempted, tally.failed) == (50, 0)
    member.checked[0] = (["black"], [1], "model open\n")
    member.run_pass(tally, Calibration())
    assert tally.failed == 1


def test_membership_queries_reach_the_boundary_collar(dd):
    """The last queries of a scene lie on a stroke's unit circle; unless
    another primitive of that stroke covers them, the verdict is boundary."""
    hits = total = 0
    for scene in workloads.membership_inputs(11)[:50]:
        script = dd.parse_script(scene.text)
        for q in scene.queries[workloads.RANDOM_QUERIES:]:
            hits += dd.reference_eval(dd.Point(*q), script).value == "boundary"
            total += 1
    assert hits > total // 2


# -- the result line ------------------------------------------------------


def test_timings_are_scaled_to_the_reference_speed():
    ref = workloads.CAL_REFERENCE_S
    slow = PassResult(2.0, [0.5, 0.5, 1.0], 100.0, kernel_s=2 * ref, part_kernel_s=(2 * ref,) * 3)
    fast = PassResult(1.0, [0.25, 0.25, 0.5], 200.0)
    assert workloads.median_summary([slow]) == workloads.median_summary([fast]) == (1.0, [0.25, 0.25, 0.5], 200.0)


def test_calibration_samples_each_part_while_an_operation_runs():
    calibration = workloads.Calibration()
    calibration.start()
    try:
        for part in (0, 2):
            with workloads.OpTimer(calibration, part=part):
                workloads._cal_kernel()
                deadline = time.perf_counter() + 3.0 / workloads.CAL_HZ
                while time.perf_counter() < deadline:
                    pass
        time.sleep(2.0 / workloads.CAL_HZ)  # no operation: no samples
    finally:
        calibration.stop()
    assert {part for part, _ in calibration.samples} == {0, 2}
    overall, per_part = calibration.take()
    assert per_part[1] == overall and calibration.samples == []


def test_metric_names_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert set(run.end_to_end_metrics((1.0, [0.2, 0.3, 0.5], 10.0), [0.1])) == {m["name"] for m in spec["end_to_end"]}
    one = PassResult(1.0, [0.2, 0.3, 0.5], 10.0)
    per_layer = run.layer_metrics(Tracer(), [one], [one], 0)
    assert set(per_layer) == {m["name"] for m in spec["per_layer"]}
    units = {m["name"]: m["unit"] for m in spec["per_layer"] + spec["end_to_end"]}
    assert all(units[name] == unit for name, (_, unit) in per_layer.items())
    assert all(run.moves(name) != "?" for name in per_layer)


def test_exits_nonzero_without_printing_a_result_when_sources_are_missing(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "certify", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
