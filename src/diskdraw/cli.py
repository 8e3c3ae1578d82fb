"""Command-line surface: simulate, render, and the verification suite.

Exit codes: 0 on success/verified, 1 when a verification is refuted, 2 for
usage or parse errors.
"""

from __future__ import annotations

import argparse
import functools
import math
import random
import sys
from dataclasses import dataclass

from .canvas import BoundaryPoint
from .constructions import (
    ConstructionInconsistent,
    build_snake,
    chessboard_coloring,
    region_coloring,
    rounded_chessboard_coloring,
    sharp_dissection_spec,
    sharp_ndissected_script,
    snake_coloring,
    snake_dissection_spec,
)
from .curvature import path_max_curvature, rolling_disk_check
from .geometry import DEFAULT_TAU, Point, check_tolerance, circumcircle3, trapezoid_circumradius
from .obstruction import (
    DissectionSpec,
    MisclassifiedPoint,
    StageParams,
    Verdict,
    chessboard_stages,
    default_dissection_L,
    descent_verify,
    dissection_pattern_coloring,
    dissection_stages,
    dissection_wedge_checks,
    five_circle_radii,
    script_coloring,
    undrawability_bound,
)
# perfbench traces the dissection check as diskdraw.cli.dissection_sample_check,
# so the pipelines call it by that name (like the noqa re-export in obstruction.py)
from .obstruction import dissection_check as dissection_sample_check
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
    lines = ((k, words) for k, line in enumerate(text.splitlines(), start=1)
             if (words := line.split("#", 1)[0].split()))
    lineno, first = next(lines, (1, None))
    if first and first[0] == "construction":
        coloring = _checked(_construction_coloring, first[1:], tau, lineno=lineno)
        extra = next(lines, None)
        if extra:
            raise ParseError(extra[0], 1, f"unexpected {extra[1][0]!r} after the construction line")
        return coloring
    if first and first[0] == "boundary":
        return region_coloring((parse_boundary(text),), tau, "boundary scene")
    return script_coloring(parse_script(text), tau)


# name: (parameter type, default parameter, coloring of (parameter, tau))
_CONSTRUCTIONS = {
    "chessboard": (float, 1.0, chessboard_coloring),
    "rounded": (float, 0.35, rounded_chessboard_coloring),
    "snake": (float, 1.001, lambda r, tau: snake_coloring(build_snake(r), tau)),
    "sharp-n": (int, 12, lambda n, tau: script_coloring(sharp_ndissected_script(n), tau)),
}


def _construction_coloring(args_list, tau: float):
    """The coloring named by a construction and its optional parameter."""
    if not args_list:
        raise ValueError("construction needs a name")
    name, *params = args_list
    if name not in _CONSTRUCTIONS:
        raise ValueError(f"unknown construction {name!r}")
    if len(params) > 1:
        raise ValueError(f"construction {name} takes at most one parameter, got {len(params)}")
    kind, default, coloring = _CONSTRUCTIONS[name]
    return coloring(kind(params[0]) if params else default, tau)


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


# ---------------------------------------------------------------------------
# Verification pipelines: each returns one Check per verdict, in print order.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Check:
    """One verdict of a verify pipeline: what was checked, whether it held,
    the line `verify` prints for it (None for a check it does not print)
    and the measured value."""

    name: str
    ok: bool
    line: str | None
    value: object = None


def _mark(ok: bool) -> str:
    return "ok" if ok else "FAIL"


def _records(pipeline):
    """Collect a pipeline's checks into a tuple.  A stage point that fails
    its own color check ends the pipeline with a failing FAIL record."""

    @functools.wraps(pipeline)
    def run(*args, **kwargs) -> tuple[Check, ...]:
        checks: list[Check] = []
        try:
            checks.extend(pipeline(*args, **kwargs))
        except (BoundaryPoint, MisclassifiedPoint) as exc:
            checks.append(Check("stage colors", False, f"FAIL: {exc}"))
        return tuple(checks)

    return run


def _certificate_checks(cert, kinds=("colors", "enc")):
    """One check per record of a descent certificate of the given kinds."""
    for rec in cert.checks:
        if rec.kind in kinds:
            yield Check(f"stage {rec.stage} {rec.kind}", rec.verdict is Verdict.YES, rec.line(), rec.clearance)


def _radii_check(radii, tau: float, line: str) -> Check:
    """The critical radii are below one: the predicate dissection_stages
    requires of its parameters."""
    ok = radii.below_one(tau)
    return Check("critical radii", ok, f"{line} {_mark(ok)}", max(radii.all_values()))


@_records
def verify_chessboard(r: float, theta_deg: float, depth: int, tau: float):
    """The two-square chessboard: a descent certificate whose stage
    clearances halve exactly and stay below 1."""
    stages = _checked(chessboard_stages, r, math.radians(theta_deg), depth)
    cert = descent_verify(chessboard_coloring(1.0, tau), stages, tau)
    yield from _certificate_checks(cert)
    clearances = cert.enc_clearances()
    if clearances:
        limit = math.sqrt(10.0) * r / 4.0
        yield Check("stage-1 clearance", True,
                    f"stage-1 clearance: {clearances[0]:.6f} (small-angle limit {limit:.6f})", clearances[0])
    ratios = [b / a for a, b in zip(clearances, clearances[1:])]
    if ratios:
        yield Check("clearance ratios", True,
                    f"clearance ratios: min {min(ratios):.9f} max {max(ratios):.9f}", (min(ratios), max(ratios)))
    yield Check("certificate valid", cert.valid, f"certificate valid: {cert.valid}", cert.valid)
    yield Check("clearances < 1", all(c < 1.0 for c in clearances), None, max(clearances, default=0.0))


@_records
def verify_snake(r: float, depth: int, tau: float):
    """The snake: its anchors, curvature, 12-dissection and descent."""
    geom = _checked(build_snake, r)
    for name, value, expected in (("|AE|", geom.ae_len, 0.793), ("|OE|", geom.oe_len, 2.963),
                                  ("|OE'|", geom.oe_prime_len, 3.735)):
        ok = abs(value - expected) <= 0.002
        yield Check(name, ok, f"{name}: {value:.6f} (expected {expected} +/- 0.002) {_mark(ok)}", value)

    curv = path_max_curvature(geom.boundary).max_unsigned_curvature
    ok = curv == 1.0 / r
    yield Check("max curvature", ok, f"max curvature: {curv!r} == 1/r {_mark(ok)}", curv)

    rolling = rolling_disk_check(geom.boundary, eps=0.5)
    yield Check("rolling-disk check", rolling.rolling_disk_ok,
                f"rolling-disk check: {_mark(rolling.rolling_disk_ok)}", rolling.counts())

    spec = snake_dissection_spec(geom, tau)
    coloring = snake_coloring(geom, tau)
    result = dissection_sample_check(coloring, spec, tau)
    line = f"12-dissection at ({spec.a}, {spec.b}) thickness {spec.d}: {_mark(result.ok)}"
    yield Check("12-dissection", result.ok, line, result.counts())

    bound = undrawability_bound(12)
    ok = spec.a < bound
    yield Check("anchor bound", ok, f"anchor bound: {spec.a} < cot(pi/12) = {bound:.6f} {_mark(ok)}", bound)

    params = StageParams(n=12, L=default_dissection_L(12, spec.a, spec.b), s=1e-3)
    radii = five_circle_radii(params)
    radii_check = _radii_check(radii, tau, f"critical radii: {['%.4f' % rr for rr in radii.all_values()]} all < 1")
    yield radii_check
    if not radii_check.ok:
        return
    cert = descent_verify(coloring, _checked(dissection_stages, params, spec, depth, tau), tau)
    yield from _certificate_checks(cert, kinds=("enc",))
    yield Check("descent", cert.valid, f"descent stages 0..{depth}: {_mark(cert.valid)}", cert.valid)


@_records
def verify_dissection(n: int, L: float, s: float, depth: int, tau: float):
    """The ideal n-dissection pattern: critical radii, the descent over its
    stages and the per-wedge case split."""
    params = _checked(StageParams, n=n, L=L, s=s)
    radii = five_circle_radii(params)
    line = f"r_a={radii.r_a:.6f} r_c={radii.r_c:.6f} r_d={radii.r_d:.6f} r_e={radii.r_e:.6f}"
    yield Check("radii", True, line, radii)
    radii_check = _radii_check(radii, tau, "all radii < 1:")
    yield radii_check
    if not radii_check.ok:
        return
    spec = _checked(DissectionSpec, apex=Point(0.0, 0.0), n=n, a=L - 4.0 * s, b=L + 4.0 * s,
                    d=4.0 * params.t, phase=0.0, first_orientation="ccw")
    stages = _checked(dissection_stages, params, spec, depth, tau)
    cert = descent_verify(dissection_pattern_coloring(spec, tau), stages, tau)
    yield from _certificate_checks(cert, kinds=("enc",))
    wedges = dissection_wedge_checks(stages, spec, tau)
    good = sum(1 for w in wedges if w[2] is Verdict.YES)
    yield Check("wedge case split", good == len(wedges), f"wedge case split: {good}/{len(wedges)} ok", good)
    ok = cert.valid and good == len(wedges)
    yield Check("stage encirclements", ok, f"stage encirclements: {_mark(ok)}", ok)


@_records
def verify_trapezoid(fuzz: int):
    """The closed-form trapezoid circumradius against the circumcircle of
    three of its vertices, on seeded random trapezoids."""
    if fuzz < 1:
        raise UsageError(f"--fuzz must be at least 1, got {fuzz}")
    rng = random.Random(12345)
    worst = 0.0
    for _ in range(fuzz):
        a = rng.uniform(0.0, 5.0)
        b = a + rng.uniform(1e-3, 5.0)
        h = rng.uniform(1e-3, 5.0)
        oracle = circumcircle3(Point(-b / 2.0, 0.0), Point(b / 2.0, 0.0), Point(a / 2.0, h)).radius
        worst = max(worst, abs(trapezoid_circumradius(a, b, h) - oracle))
    yield Check("max deviation", True, f"max |formula - circumcircle| over {fuzz} trials: {worst:.3e}", worst)
    yield Check("formula", worst < 1e-9, _mark(worst < 1e-9), worst)


@_records
def verify_rolling(eps: float):
    """The two tangent unit disks roll along the snake boundary."""
    report = _checked(rolling_disk_check, build_snake().boundary, eps=eps)
    curv = report.max_unsigned_curvature
    yield Check("max curvature", True, f"max curvature: {curv:.6f}", curv)
    yield Check("failures", True, f"failures: {len(report.failures)}", len(report.failures))
    yield Check("rolling disk", report.rolling_disk_ok, _mark(report.rolling_disk_ok), report.counts())


@_records
def verify_sharp(n: int, tau: float):
    """The slid-disk script is totally n-dissected just past cot(pi/n)."""
    script = _checked(sharp_ndissected_script, n)
    spec = sharp_dissection_spec(n)
    result = dissection_sample_check(script_coloring(script, tau), spec, tau)
    yield Check(f"{n}-dissection", result.ok,
                f"{n}-dissection of the slid-disk script at ({spec.a:.4f}, {spec.b}) "
                f"thickness {spec.d}: {_mark(result.ok)}", result.counts())
    for k, leaf in enumerate(result.failures[:5], start=1):
        yield Check(f"failure {k}", False, f"  ray {leaf.ray} side {leaf.side}: {leaf.got.value} "
                    f"at ({leaf.witness.x:.4f}, {leaf.witness.y:.4f})", leaf.witness)


def _cmd_verify(args) -> int:
    checks = args.pipeline(args)
    for check in checks:
        if check.line is not None:
            print(check.line)
    return OK if all(check.ok for check in checks) else REFUTED


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
    ver.set_defaults(func=_cmd_verify)
    vsub = ver.add_subparsers(dest="verify_command", required=True)

    chess = vsub.add_parser("chessboard")
    chess.add_argument("--r", type=float, default=0.1)
    chess.add_argument("--theta-deg", type=float, default=0.5)
    chess.add_argument("--depth", type=int, default=10)
    chess.set_defaults(pipeline=lambda a: verify_chessboard(a.r, a.theta_deg, a.depth, a.tau))

    snake = vsub.add_parser("snake")
    snake.add_argument("--r", type=float, default=1.001)
    snake.add_argument("--depth", type=int, default=8)
    snake.set_defaults(pipeline=lambda a: verify_snake(a.r, a.depth, a.tau))

    dis = vsub.add_parser("dissection")
    dis.add_argument("--n", type=int, required=True)
    dis.add_argument("--L", type=float, required=True)
    dis.add_argument("--s", type=float, required=True)
    dis.add_argument("--depth", type=int, default=5)
    dis.set_defaults(pipeline=lambda a: verify_dissection(a.n, a.L, a.s, a.depth, a.tau))

    trap = vsub.add_parser("trapezoid")
    trap.add_argument("--fuzz", type=int, default=1000)
    trap.set_defaults(pipeline=lambda a: verify_trapezoid(a.fuzz))

    roll = vsub.add_parser("rolling")
    roll.add_argument("--construction", choices=["snake"], default="snake")
    roll.add_argument("--eps", type=float, default=0.5)
    roll.set_defaults(pipeline=lambda a: verify_rolling(a.eps))

    sharp = vsub.add_parser("sharp")
    sharp.add_argument("--n", type=int, required=True)
    sharp.set_defaults(pipeline=lambda a: verify_sharp(a.n, a.tau))

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
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return USAGE


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
