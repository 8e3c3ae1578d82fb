"""Acceptance suite: one test per acceptance criterion, stated tolerances only.

Each criterion prints a PASS/FAIL line (run with -s to see them live).
Criterion 5 checks the critical circles of the dissection descent in two
sub-clauses: 5a, the cross-ray radii r_d and r_e approach their limit
L * tan(pi/n) monotonically; 5b, the anchor circle r_a is the circumcircle
of its three points and shrinks with s at the rate the construction gives,
s <= r_a < sqrt(s) under the default t = s^1.5.
"""

import math
import random
import time

import pytest

from diskdraw import (
    DiskModel,
    DrawingScript,
    Point,
    RasterSpec,
    Shade,
    StageParams,
    Tool,
    black_fraction,
    build_snake,
    chessboard_coloring,
    circumcircle3,
    dissection_check,
    eval_script,
    five_circle_radii,
    reference_eval,
    render,
    sharp_ndissected_script,
    snake_coloring,
    trapezoid_circumradius,
)
from diskdraw.cli import verify_chessboard, verify_sharp, verify_snake
from diskdraw.geometry import DEFAULT_TAU
from diskdraw.obstruction import DissectionSpec

from helpers import random_point, random_script
from test_canvas import random_convex_polygon, signed_inset


def report(number: str, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"ACCEPTANCE {number}: {status} - {description}{suffix}")


@pytest.fixture(scope="module")
def snake():
    return build_snake(1.001)


@pytest.fixture(scope="module")
def snake_col(snake):
    return snake_coloring(snake)


@pytest.fixture(scope="module")
def snake_verify():
    """The `verify snake` pipeline at r = 1.001 and depth 8: its checks by
    name and its wall time."""
    t0 = time.monotonic()
    checks = by_name(verify_snake(1.001, 8, DEFAULT_TAU))
    return checks, time.monotonic() - t0


def by_name(checks):
    named = {c.name: c for c in checks}
    assert len(named) == len(checks), "check names must be unique"
    return named


def test_criterion_01_trapezoid_formula():
    rng = random.Random(1001)
    t0 = time.monotonic()
    worst = 0.0
    for _ in range(1000):
        a = rng.uniform(0.0, 5.0)
        b = a + rng.uniform(1e-3, 5.0)
        h = rng.uniform(1e-3, 5.0)
        formula = trapezoid_circumradius(a, b, h)
        oracle = circumcircle3(Point(-b / 2, 0), Point(b / 2, 0), Point(a / 2, h)).radius
        worst = max(worst, abs(formula - oracle))
    elapsed = time.monotonic() - t0
    ok = worst < 1e-9 and elapsed < 1.0
    report("1", "trapezoid circumradius vs circumcircle oracle, 1000 trials",
           ok, f"max dev {worst:.2e}, {elapsed:.2f}s")
    assert worst < 1e-9
    assert elapsed < 1.0


def test_criterion_02_chessboard_obstruction():
    t0 = time.monotonic()
    checks = by_name(verify_chessboard(0.1, 0.5, 10, DEFAULT_TAU))
    elapsed = time.monotonic() - t0
    valid = checks["certificate valid"].ok
    clearance = checks["stage-1 clearance"].value
    limit = math.sqrt(10.0) * 0.1 / 4.0
    ratios = checks["clearance ratios"].value  # (min, max) over consecutive stages
    ok = (
        valid
        and abs(clearance - limit) / limit < 0.10
        and all(abs(r - 0.5) <= 1e-6 for r in ratios)
        and elapsed < 5.0
    )
    report("2", "chessboard descent certificate, r=0.1 theta=0.5deg depth=10",
           ok, f"stage-1 clearance {clearance:.4f}, {elapsed:.2f}s")
    assert valid
    assert abs(clearance - limit) / limit < 0.10
    assert all(abs(r - 0.5) <= 1e-6 for r in ratios)
    assert elapsed < 5.0

    # the CLI surface reports the same verdict
    from diskdraw.cli import main

    assert main(["verify", "chessboard", "--r", "0.1", "--theta-deg", "0.5",
                 "--depth", "10"]) == 0


def test_criterion_03_snake_anchors(snake_verify):
    checks, _ = snake_verify
    ae, oe, oe_prime = (checks[name].value for name in ("|AE|", "|OE|", "|OE'|"))
    curvature = checks["max curvature"].value
    rolling_ok = checks["rolling-disk check"].ok
    ok = (
        abs(ae - 0.793) <= 0.002
        and abs(oe - 2.963) <= 0.002
        and abs(oe_prime - 3.735) <= 0.002
        and curvature == 1.0 / 1.001
        and rolling_ok
    )
    report("3", "snake anchors, exact max curvature, rolling-disk check", ok,
           f"|AE|={ae:.4f} |OE|={oe:.4f} |OE'|={oe_prime:.4f}")
    assert abs(ae - 0.793) <= 0.002
    assert abs(oe - 2.963) <= 0.002
    assert abs(oe_prime - 3.735) <= 0.002
    assert curvature == 1.0 / 1.001
    assert rolling_ok
    assert all(checks[name].ok for name in ("|AE|", "|OE|", "|OE'|", "max curvature"))


def test_criterion_04_snake_undrawability_pipeline(snake_verify):
    checks, elapsed = snake_verify
    dissected = checks["12-dissection"].ok
    bound = checks["anchor bound"].value
    bound_exact = abs(bound - (2.0 + math.sqrt(3.0))) <= 1e-12
    below = checks["anchor bound"].ok
    radii_ok = checks["critical radii"].ok
    descent_ok = checks["descent"].ok
    ok = dissected and bound_exact and below and radii_ok and descent_ok and elapsed < 30.0
    report("4", "snake 12-dissection, bound, radii, descent stages 0..8", ok,
           f"{elapsed:.1f}s")
    assert dissected
    assert bound_exact and below
    assert radii_ok
    assert descent_ok
    assert [name for name in checks if name.endswith(" enc")] == [f"stage {i} enc" for i in range(8)]
    assert elapsed < 30.0


def test_criterion_05a_five_circle_limits_monotone():
    L = 3.0
    limit = L * math.tan(math.pi / 12.0)
    dev_d, dev_e = [], []
    for s in (1e-2, 1e-3, 1e-4):
        radii = five_circle_radii(StageParams(n=12, L=L, s=s))
        dev_d.append(abs(radii.r_d - limit))
        dev_e.append(abs(radii.r_e - limit))
    ok = dev_d[0] > dev_d[1] > dev_d[2] and dev_e[0] > dev_e[1] > dev_e[2]
    report("5a", "critical-circle radii approach L*tan(pi/n) monotonically", ok,
           f"dev_d={['%.1e' % d for d in dev_d]}")
    assert dev_d[0] > dev_d[1] > dev_d[2]
    assert dev_e[0] > dev_e[1] > dev_e[2]


def test_criterion_05b_r_a_below_s():
    # r_a is the circle through the white pair (-s, t), (s, t) and the ray
    # anchor (0, 0), radius (s^2 + t^2) / (2 t).  By the arithmetic-geometric
    # mean it is >= s for every t (equality only at t = s, which StageParams
    # excludes), so "r_a < s" cannot hold; the construction promises instead
    # s <= r_a < sqrt(s) under the default t = s^1.5, and r_a < 1 - tau.
    sweep = (1e-2, 1e-3, 1e-4)
    values = {}
    failed = []
    for s in sweep:
        params = StageParams(n=12, L=3.0, s=s)
        r_a = five_circle_radii(params).r_a
        values[s] = r_a
        # ray-local frame: the absolute frame at L = 3 loses ~1e-7 to rounding
        oracle = circumcircle3(Point(-s, params.t), Point(0, 0), Point(s, params.t)).radius
        if not abs(r_a - oracle) <= 1e-12 * oracle:
            failed.append(f"s={s:g}: r_a={r_a!r} is not the circumradius {oracle!r}")
        if not s <= r_a:
            failed.append(f"s={s:g}: r_a={r_a!r} < s contradicts AM-GM")
        if not r_a < math.sqrt(s):
            failed.append(f"s={s:g}: r_a={r_a!r} >= sqrt(s)={math.sqrt(s)!r}")
        if not r_a < 1.0 - DEFAULT_TAU:
            failed.append(f"s={s:g}: r_a={r_a!r} >= 1 - tau")
    trend = [values[s] for s in sweep]
    if not all(a > b for a, b in zip(trend, trend[1:])):
        failed.append(f"r_a does not strictly decrease across the sweep: {trend}")
    ok = not failed
    report("5b", "anchor circle r_a: circumradius, s <= r_a < sqrt(s), < 1 - tau, "
           "decreasing", ok,
           "; ".join(f"s={s:g}: r_a={r:.3e} r_a/sqrt(s)={r / math.sqrt(s):.5f}"
                     for s, r in values.items()))
    assert ok, "; ".join(failed)


def test_criterion_06_sharpness():
    check = by_name(verify_sharp(12, DEFAULT_TAU))["12-dissection"]

    # independent oracle: distance to the pencil stroke centers decides color
    script = sharp_ndissected_script(12)
    pencil_sets = [s.centers for s in script.strokes if s.tool is Tool.PENCIL]
    rng = random.Random(606)
    agreements = 0
    tested = 0
    for _ in range(10_000):
        p = Point(rng.uniform(-22, 22), rng.uniform(-22, 22))
        dists = [min(prim.dist(p) for prim in cs.primitives) for cs in pencil_sets]
        if any(abs(d - 1.0) <= 1e-7 for d in dists):
            continue
        want = Shade.BLACK if min(dists) < 1.0 else Shade.WHITE
        got = eval_script(p, script)
        tested += 1
        if got is want:
            agreements += 1
    ok = check.ok and agreements == tested and tested > 9000
    report("6", "slid-disk script: sharp 12-dissection and oracle agreement", ok,
           f"{agreements}/{tested} points")
    assert check.ok
    assert agreements == tested
    assert tested > 9000


def test_criterion_07_model_semantics():
    rng = random.Random(707)
    pairs = 0
    while pairs < 100_000:
        script = random_script(rng, max_strokes=8)
        closed = DrawingScript(DiskModel.CLOSED, script.strokes)
        for _ in range(500):
            x = random_point(rng, 4.0)
            ref = reference_eval(x, script)
            if ref is Shade.BOUNDARY:
                continue
            got = eval_script(x, script)
            assert got is ref
            got_closed = eval_script(x, closed)
            if got is Shade.BLACK:
                assert got_closed in (Shade.BLACK, Shade.BOUNDARY)
            pairs += 1
            if pairs >= 100_000:
                break
    report("7", "last-cover evaluator vs recursive evaluator on 1e5 pairs; "
           "open-in-closed containment", True, f"{pairs} pairs")


def test_criterion_08_convex_construction():
    rng = random.Random(808)
    tested = 0
    for _ in range(50):
        verts, script = random_convex_polygon(rng)
        for _ in range(10_000 // 50 * 5):  # 1000 points per polygon, 50 polygons
            p = random_point(rng, 3.5)
            inset = signed_inset(verts, p)
            if abs(inset) < 1e-7:
                continue
            want = Shade.BLACK if inset > 0 else Shade.WHITE
            assert eval_script(p, script) is want
            tested += 1
    ok = tested > 40_000
    report("8", "convex polygon scripts vs half-plane sign oracle", ok,
           f"{tested} points over 50 polygons")
    assert tested > 40_000


def test_criterion_09_chessboard_final_remark():
    tau = DEFAULT_TAU
    spec = DissectionSpec(
        apex=Point(0, 0), n=4, a=tau, b=1.0 - tau, d=1.0 - 2.0 * tau,
        phase=0.0, first_orientation="ccw",
    )
    result = dissection_check(chessboard_coloring(1.0), spec)
    report("9", "chessboard is totally 4-dissected at (0, c) thickness c", bool(result),
           f"{len(result.proved)}/{result.counts()['rectangles']} rectangles proved")
    assert result
    assert len(result.proved) == result.counts()["rectangles"] == 8


def test_criterion_10_rendering(snake_col):
    chess_spec = RasterSpec(-1.2, -1.2, 1.2, 1.2, resolution=100.0)
    a = render(chessboard_coloring(1.0), chess_spec)
    b = render(chessboard_coloring(1.0), chess_spec)
    frac = black_fraction(a)
    analytic = 2.0 / (2.4 * 2.4)

    snake_spec = RasterSpec(-5.0, -9.0, 8.5, 9.0, resolution=4.0)
    s1 = render(snake_col, snake_spec)
    s2 = render(snake_col, snake_spec)

    ok = a == b and s1 == s2 and abs(frac - analytic) / analytic < 0.02
    report("10", "deterministic renders; chessboard area fraction within 2%", ok,
           f"fraction {frac:.5f} vs {analytic:.5f}")
    assert a == b
    assert s1 == s2
    assert abs(frac - analytic) / analytic < 0.02
