"""Command-line surface: simulate, render, and the verification suite.

Exit codes: 0 on success/verified, 1 when a verification is refuted, 2 for
usage or parse errors.
"""

from __future__ import annotations

import argparse
import math
import sys

from .canvas import BoundaryPoint
from .constructions import (
    ConstructionInconsistent,
    build_snake,
    chessboard_coloring,
    region_coloring,
    rounded_chessboard_coloring,
    sharp_ndissected_script,
    snake_coloring,
    snake_dissection_spec,
)
from .curvature import path_max_curvature, rolling_disk_check
from .geometry import DEFAULT_TAU, Point, check_tolerance, circumcircle3, trapezoid_circumradius, unit
from .obstruction import (
    DissectionSpec,
    MisclassifiedPoint,
    StageParams,
    Verdict,
    chessboard_stages,
    default_dissection_L,
    descent_verify,
    dissection_pattern_coloring,
    dissection_sample_check,
    dissection_stages,
    dissection_wedge_checks,
    five_circle_radii,
    script_coloring,
    undrawability_bound,
)
from .render import RasterSpec, write_pgm, write_svg
from .scene import ParseError, parse_boundary, parse_script

OK, REFUTED, USAGE = 0, 1, 2


class UsageError(Exception):
    """A command-line parameter outside its domain."""


def _checked(build, *args, lineno=None, **kwargs):
    """build(*args, **kwargs), a ValueError from it (a parameter outside its
    domain) becoming a UsageError, or a ParseError at a scene file's lineno."""
    try:
        return build(*args, **kwargs)
    except ConstructionInconsistent:  # a defect, not a bad parameter
        raise
    except ValueError as exc:
        if lineno is None:
            raise UsageError(str(exc)) from None
        raise ParseError(lineno, 1, str(exc)) from None


def _load_scene(path: str, tau: float):
    """A scene file holds DSL strokes, a named construction, or a boundary;
    every kind loads as a coloring with margin tau."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    lineno, first = next(((k, words) for k, line in enumerate(text.splitlines(), start=1)
                          if (words := line.split("#", 1)[0].split())), (1, None))
    if first and first[0] == "construction":
        return _checked(_construction_coloring, first[1:], tau, lineno=lineno)
    if first and first[0] == "boundary":
        return region_coloring((parse_boundary(text),), tau, "boundary scene")
    return script_coloring(parse_script(text), tau)


def _construction_coloring(args_list, tau: float):
    """The coloring named by a construction and its optional parameter."""
    if not args_list:
        raise ValueError("construction needs a name")
    name = args_list[0]
    if name == "chessboard":
        c = float(args_list[1]) if len(args_list) > 1 else 1.0
        return chessboard_coloring(c, tau)
    if name == "rounded":
        rho = float(args_list[1]) if len(args_list) > 1 else 0.35
        return rounded_chessboard_coloring(rho, tau)
    if name == "snake":
        r = float(args_list[1]) if len(args_list) > 1 else 1.001
        return snake_coloring(build_snake(r), tau)
    if name == "sharp-n":
        n = int(args_list[1]) if len(args_list) > 1 else 12
        return script_coloring(sharp_ndissected_script(n), tau)
    raise ValueError(f"unknown construction {name!r}")


def _cmd_simulate(args) -> int:
    coloring = _load_scene(args.scene, args.tau)
    print(coloring.classify(Point(args.query[0], args.query[1])).value)
    return OK


def _cmd_render(args) -> int:
    if args.construction:
        extra = [str(args.n)] if args.construction == "sharp-n" else []
        coloring = _checked(_construction_coloring, [args.construction, *extra], args.tau)
    elif args.scene:
        coloring = _load_scene(args.scene, args.tau)
    else:
        print("render needs a scene file or --construction", file=sys.stderr)
        return USAGE
    spec = _checked(RasterSpec, *args.bbox, resolution=args.res)
    write_pgm(args.output, coloring, spec)
    print(f"wrote {spec.width}x{spec.height} PGM to {args.output}")
    if args.svg:
        if isinstance(coloring.source, tuple):
            write_svg(args.svg, [piece for loop in coloring.source for piece in loop.pieces], spec)
            print(f"wrote boundary SVG to {args.svg}")
        else:
            print("svg outlines are only available for regions "
                  "(chessboard, rounded, snake, boundary scenes)", file=sys.stderr)
    return OK


def _print_cert(cert) -> None:
    for line in cert.report_lines():
        print(line)


def _cmd_verify_chessboard(args) -> int:
    theta = math.radians(args.theta_deg)
    stages = _checked(chessboard_stages, args.r, theta, args.depth)
    cert = descent_verify(chessboard_coloring(1.0, args.tau), stages, args.tau, strict=False)
    _print_cert(cert)
    clearances = cert.enc_clearances()
    limit = math.sqrt(10.0) * args.r / 4.0
    print(f"stage-1 clearance: {clearances[0]:.6f} (small-angle limit {limit:.6f})")
    ratios = [b / a for a, b in zip(clearances, clearances[1:])]
    if ratios:
        print(f"clearance ratios: min {min(ratios):.9f} max {max(ratios):.9f}")
    print(f"certificate valid: {cert.valid}")
    return OK if cert.valid and all(c < 1.0 for c in clearances) else REFUTED


def _cmd_verify_snake(args) -> int:
    geom = _checked(build_snake, args.r)
    ok = True

    def check(label, value, expected, tol):
        nonlocal ok
        good = abs(value - expected) <= tol
        ok = ok and good
        print(f"{label}: {value:.6f} (expected {expected} +/- {tol}) {'ok' if good else 'FAIL'}")

    check("|AE|", geom.ae_len, 0.793, 0.002)
    check("|OE|", geom.oe_len, 2.963, 0.002)
    check("|OE'|", geom.oe_prime_len, 3.735, 0.002)

    curv = path_max_curvature(geom.boundary)
    good = curv.max_unsigned_curvature == 1.0 / args.r
    ok = ok and good
    print(f"max curvature: {curv.max_unsigned_curvature!r} == 1/r {'ok' if good else 'FAIL'}")

    rolling = rolling_disk_check(geom.boundary, step=0.05, eps=0.5)
    ok = ok and rolling.rolling_disk_ok
    print(f"rolling-disk check: {'ok' if rolling.rolling_disk_ok else 'FAIL'}")

    spec = snake_dissection_spec(geom, args.tau)
    coloring = snake_coloring(geom, args.tau)
    result = dissection_sample_check(coloring, spec, 200, args.tau)
    ok = ok and result.ok
    print(f"12-dissection at ({spec.a}, {spec.b}) thickness {spec.d}: "
          f"{'ok' if result.ok else 'FAIL'}")

    bound = undrawability_bound(12)
    good = spec.a < bound
    ok = ok and good
    print(f"anchor bound: {spec.a} < cot(pi/12) = {bound:.6f} {'ok' if good else 'FAIL'}")

    params = StageParams(n=12, L=default_dissection_L(12, spec.a, spec.b), s=1e-3)
    radii = five_circle_radii(params)
    good = all(rr < 1.0 for rr in radii.all_values())
    ok = ok and good
    print(f"critical radii: {['%.4f' % rr for rr in radii.all_values()]} all < 1 "
          f"{'ok' if good else 'FAIL'}")

    first = 1 if spec.first_orientation == "ccw" else -1
    stages = dissection_stages(params, spec.apex, spec.phase, args.depth, first_black_side=first)
    cert = descent_verify(coloring, stages, args.tau, strict=False)
    for line in cert.report_lines():
        if "kind=enc" in line:
            print(line)
    ok = ok and cert.valid
    print(f"descent stages 0..{args.depth}: {'ok' if cert.valid else 'FAIL'}")
    return OK if ok else REFUTED


def _cmd_verify_dissection(args) -> int:
    params = _checked(StageParams, n=args.n, L=args.L, s=args.s)
    radii = five_circle_radii(params)
    print(
        f"r_a={radii.r_a:.6f} r_c={radii.r_c:.6f} r_d={radii.r_d:.6f} r_e={radii.r_e:.6f}"
    )
    ok = all(rr < 1.0 for rr in radii.all_values())
    print(f"all radii < 1: {'ok' if ok else 'FAIL'}")
    if not ok:
        return REFUTED
    apex = Point(0.0, 0.0)
    stages = dissection_stages(params, apex, 0.0, args.depth)
    spec = DissectionSpec(
        apex=apex,
        n=args.n,
        a=args.L - 4.0 * args.s,
        b=args.L + 4.0 * args.s,
        d=4.0 * params.t,
        phase=0.0,
        first_orientation="ccw",
    )
    cert = descent_verify(dissection_pattern_coloring(spec, args.tau), stages, args.tau, strict=False)
    for line in cert.report_lines():
        if "kind=enc" in line:
            print(line)
    wedges = dissection_wedge_checks(stages, args.n, args.tau)
    bad = [w for w in wedges if w[2] is not Verdict.YES]
    print(f"wedge case split: {len(wedges) - len(bad)}/{len(wedges)} ok")
    ok = cert.valid and not bad
    print(f"stage encirclements: {'ok' if ok else 'FAIL'}")
    return OK if ok else REFUTED


def _cmd_verify_trapezoid(args) -> int:
    import random

    rng = random.Random(12345)
    worst = 0.0
    for _ in range(args.fuzz):
        a = rng.uniform(0.0, 5.0)
        b = a + rng.uniform(1e-3, 5.0)
        h = rng.uniform(1e-3, 5.0)
        formula = trapezoid_circumradius(a, b, h)
        oracle = circumcircle3(
            Point(-b / 2.0, 0.0), Point(b / 2.0, 0.0), Point(a / 2.0, h)
        ).radius
        worst = max(worst, abs(formula - oracle))
    print(f"max |formula - circumcircle| over {args.fuzz} trials: {worst:.3e}")
    ok = worst < 1e-9
    print("ok" if ok else "FAIL")
    return OK if ok else REFUTED


def _cmd_verify_rolling(args) -> int:
    if args.construction != "snake":
        print("only --construction snake is supported", file=sys.stderr)
        return USAGE
    geom = build_snake()
    report = rolling_disk_check(geom.boundary, step=args.step, eps=args.eps)
    print(f"max curvature: {report.max_unsigned_curvature:.6f}")
    print(f"failures: {len(report.failures)}")
    print("ok" if report.rolling_disk_ok else "FAIL")
    return OK if report.rolling_disk_ok else REFUTED


def _cmd_verify_sharp(args) -> int:
    script = _checked(sharp_ndissected_script, args.n)
    bound = undrawability_bound(args.n)
    spec = DissectionSpec(
        apex=Point(0.0, 0.0),
        n=args.n,
        a=bound + 0.01,
        b=20.0,
        d=2.0 - 0.02,
        phase=0.0,
        first_orientation="ccw",
    )
    result = dissection_sample_check(script_coloring(script, args.tau), spec, args.samples, args.tau)
    print(
        f"{args.n}-dissection of the slid-disk script at ({spec.a:.4f}, {spec.b}) "
        f"thickness {spec.d}: {'ok' if result.ok else 'FAIL'}"
    )
    if not result.ok:
        for ray, side, sample, got in result.failures[:5]:
            print(f"  ray {ray} side {side}: {got} at ({sample.x:.4f}, {sample.y:.4f})")
    return OK if result.ok else REFUTED


def _tau(text: str) -> float:
    try:
        return check_tolerance(float(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="diskdraw", description=__doc__)
    top.add_argument("--tau", type=_tau, default=DEFAULT_TAU, help="comparison margin, in (0, 1e-3)")
    sub = top.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="classify a query point against a scene")
    sim.add_argument("scene")
    sim.add_argument("--query", type=float, nargs=2, required=True, metavar=("X", "Y"))
    sim.set_defaults(func=_cmd_simulate)

    ren = sub.add_parser("render", help="render a scene or construction to PGM")
    ren.add_argument("scene", nargs="?")
    ren.add_argument("--construction", choices=["chessboard", "rounded", "snake", "sharp-n"])
    ren.add_argument("--n", type=int, default=12, help="ray count for sharp-n")
    ren.add_argument("--bbox", type=float, nargs=4, required=True,
                     metavar=("XMIN", "YMIN", "XMAX", "YMAX"))
    ren.add_argument("--res", type=float, required=True, help="pixels per unit")
    ren.add_argument("-o", "--output", required=True)
    ren.add_argument("--svg", help="also write the boundary outline as SVG")
    ren.set_defaults(func=_cmd_render)

    ver = sub.add_parser("verify", help="verification suite")
    vsub = ver.add_subparsers(dest="verify_command", required=True)

    chess = vsub.add_parser("chessboard")
    chess.add_argument("--r", type=float, default=0.1)
    chess.add_argument("--theta-deg", type=float, default=0.5)
    chess.add_argument("--depth", type=int, default=10)
    chess.set_defaults(func=_cmd_verify_chessboard)

    snake = vsub.add_parser("snake")
    snake.add_argument("--r", type=float, default=1.001)
    snake.add_argument("--depth", type=int, default=8)
    snake.set_defaults(func=_cmd_verify_snake)

    dis = vsub.add_parser("dissection")
    dis.add_argument("--n", type=int, required=True)
    dis.add_argument("--L", type=float, required=True)
    dis.add_argument("--s", type=float, required=True)
    dis.add_argument("--depth", type=int, default=5)
    dis.set_defaults(func=_cmd_verify_dissection)

    trap = vsub.add_parser("trapezoid")
    trap.add_argument("--fuzz", type=int, default=1000)
    trap.set_defaults(func=_cmd_verify_trapezoid)

    roll = vsub.add_parser("rolling")
    roll.add_argument("--construction", default="snake")
    roll.add_argument("--step", type=float, default=0.05)
    roll.add_argument("--eps", type=float, default=0.5)
    roll.set_defaults(func=_cmd_verify_rolling)

    sharp = vsub.add_parser("sharp")
    sharp.add_argument("--n", type=int, required=True)
    sharp.add_argument("--samples", type=int, default=200)
    sharp.set_defaults(func=_cmd_verify_sharp)

    return top


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses code 2 for usage errors
        return exc.code if isinstance(exc.code, int) else USAGE
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return USAGE
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE
    except (BoundaryPoint, MisclassifiedPoint) as exc:  # a stage point failed its color check
        print(f"FAIL: {exc}")
        return REFUTED
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return USAGE


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
