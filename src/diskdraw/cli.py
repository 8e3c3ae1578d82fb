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
    Check,
    DissectionSpec,
    StageParams,
    Verdict,
    _rotation_premise,
    chessboard_stages,
    default_dissection_L,
    descent_verify,  # noqa: F401  (perfbench traces the descent under this name)
    dissection_stages,
    dissection_wedge_checks,
    five_circle_radii,
    scaling_descent_verify,
    script_coloring,
    symmetric_descent_verify,
    undrawability_bound,
)
# perfbench traces the dissection check as diskdraw.cli.dissection_sample_check,
# so the pipelines call it by that name (like the noqa re-export in obstruction.py)
from .obstruction import dissection_check as dissection_sample_check
from .render import RasterSpec, write_pgm, write_svg
from .scene import ParseError, SceneLine, parse_boundary, parse_script, scene_lines

OK, REFUTED, USAGE = 0, 1, 2


class UsageError(Exception):
    """A command-line parameter outside its domain."""


def _checked(build, *args, at: SceneLine | None = None, **kwargs):
    """build(*args, **kwargs), a ValueError from it (a parameter outside its
    domain) becoming a UsageError, or a ParseError at the cursor of the
    scene line at."""
    try:
        return build(*args, **kwargs)
    except ConstructionInconsistent:  # a defect, not a bad parameter
        raise
    except ValueError as exc:
        if at is None:
            raise UsageError(str(exc)) from None
        raise at.error(str(exc)) from None


def _load_scene(path: str, tau: float):
    """A scene file holds DSL strokes, a named construction, or a boundary;
    every kind loads as a coloring with margin tau."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        text = fh.read()
    lines = scene_lines(text)
    first = next(lines, None)
    if first and first.words[0] == "construction":
        # a rejected name is reported at the name, anything else at the first parameter
        first.k = 2 if len(first.words) > 1 and first.words[1] in _CONSTRUCTIONS else 1
        coloring = _checked(_construction_coloring, first.words[1:], tau, at=first)
        extra = next(lines, None)
        if extra:
            raise extra.error(f"unexpected {extra.words[0]!r} after the construction line", 0)
        return coloring
    if first and first.words[0] == "boundary":
        return region_coloring((parse_boundary(text),), tau)
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
    print(coloring.classify(_checked(Point, *args.query)).value)
    return OK


def _cmd_render(args) -> int:
    if (args.scene is None) == (args.construction is None):
        raise UsageError("render needs a scene file or --construction, not both")
    if args.n is not None and args.construction != "sharp-n":
        raise UsageError("--n is only read by --construction sharp-n")
    if args.construction:
        extra = [] if args.n is None else [str(args.n)]
        coloring = _checked(_construction_coloring, [args.construction, *extra], args.tau)
    else:
        coloring = _load_scene(args.scene, args.tau)
    spec = _checked(RasterSpec, *args.bbox, resolution=args.res)
    try:
        write_pgm(args.output, coloring, spec)
    except MemoryError:
        raise UsageError(f"a {spec.width}x{spec.height} raster does not fit in memory") from None
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


def _check(name: str, ok: bool, line: str | None, value: object = None) -> Check:
    """The Check of a yes-or-no verdict."""
    return Check(name, Verdict.YES if ok else Verdict.NO, line, value)


def _mark(ok: bool) -> str:
    return "ok" if ok else "FAIL"


def _records(pipeline):
    """Collect a pipeline's checks into a tuple."""

    @functools.wraps(pipeline)
    def run(*args, **kwargs) -> tuple[Check, ...]:
        return tuple(pipeline(*args, **kwargs))

    return run


def _radii_check(radii, tau: float, line: str) -> Check:
    """The critical radii are below 1 - tau: the premise verify checks
    before it builds any stage."""
    ok = radii.below_one(tau)
    return _check("critical radii", ok, f"{line} {_mark(ok)}", max(radii.all_values()))


@_records
def verify_chessboard(r: float, theta_deg: float, depth: int, tau: float):
    """The two-square chessboard: a descent certificate whose stage
    clearances halve exactly and stay below 1 (scaling_descent_verify)."""
    if depth < 2:  # stages 1..depth
        raise UsageError(f"--depth must be at least 2, for one stage pair, got {depth}")
    stages = _checked(chessboard_stages, r, math.radians(theta_deg), depth)
    cert = scaling_descent_verify(chessboard_coloring(1.0, tau), stages, tau)
    yield from cert
    valid = all(c.ok for c in cert)
    if valid:
        yield _check("scaling lemma", True,
                     f"scaling lemma: stages 2..{depth} follow from stage 1 and the stage pair 1-2")
    clearances = [c.value for c in cert if c.name != "lemma premise"]
    if clearances:
        limit = math.sqrt(10.0) * r / 4.0
        yield _check("stage-1 clearance", True,
                     f"stage-1 clearance: {clearances[0]:.6f} (small-angle limit {limit:.6f})", clearances[0])
    ratios = [b / a for a, b in zip(clearances, clearances[1:])]
    if ratios:
        yield _check("clearance ratios", True,
                     f"clearance ratios: min {min(ratios):.9f} max {max(ratios):.9f}", (min(ratios), max(ratios)))
    yield _check("certificate valid", valid, f"certificate valid: {valid}", valid)
    yield _check("clearances < 1", all(c < 1.0 for c in clearances), None, max(clearances, default=0.0))


@_records
def verify_snake(r: float, depth: int, tau: float):
    """The snake: its anchors, curvature, total dissection and descent, each
    stage pair of the descent from ray 1 (symmetric_descent_verify), the
    stage colours from the dissection proved at the descent's own tau."""
    if depth < 1:  # stages 0..depth
        raise UsageError(f"--depth must be at least 1, for one stage pair, got {depth}")
    geom = _checked(build_snake, r)
    for name, value, expected in (("|AE|", geom.ae_len, 0.793), ("|OE|", geom.oe_len, 2.963),
                                  ("|OE'|", geom.oe_prime_len, 3.735)):
        ok = abs(value - expected) <= 0.002
        yield _check(name, ok, f"{name}: {value:.6f} (expected {expected} +/- 0.002) {_mark(ok)}", value)

    curv = path_max_curvature(geom.boundary)
    ok = curv == 1.0 / r
    yield _check("max curvature", ok, f"max curvature: {curv!r} == 1/r {_mark(ok)}", curv)

    rolling = rolling_disk_check(geom.boundary, eps=0.5)
    yield _check("rolling-disk check", rolling.ok, f"rolling-disk check: {_mark(rolling.ok)}", rolling.counts())

    spec = snake_dissection_spec(geom)
    result = dissection_sample_check(snake_coloring(geom, tau), spec)
    line = f"{spec.n}-dissection at ({spec.a}, {spec.b}) thickness {spec.d}: {_mark(result.ok)}"
    yield _check(f"{spec.n}-dissection", result.ok, line, result.counts())

    bound = undrawability_bound(spec.n)
    ok = spec.a < bound
    yield _check("anchor bound", ok, f"anchor bound: {spec.a} < cot(pi/{spec.n}) = {bound:.6f} {_mark(ok)}", bound)

    params = StageParams(n=spec.n, L=default_dissection_L(spec), s=1e-3)
    radii = five_circle_radii(params)
    radii_check = _radii_check(radii, tau, f"critical radii: {['%.4f' % rr for rr in radii.all_values()]} all < 1")
    yield radii_check
    if not radii_check.ok:
        return
    cert = symmetric_descent_verify(_checked(dissection_stages, params, spec, depth), spec, tau)
    yield from cert
    ok = all(c.ok for c in cert) and result.ok  # the stage colours are those of the proved rectangles
    yield _check("descent", ok, f"descent stages 0..{depth}: {_mark(ok)}", ok)


@_records
def verify_dissection(n: int, L: float, s: float, depth: int, tau: float):
    """The ideal n-dissection pattern: critical radii, the descent over its
    stages and the per-wedge case split, each from ray 1 or wedge 1 of every
    stage pair (symmetric_descent_verify, dissection_wedge_checks), the
    stage colours from the pattern's rectangles.  Both checks read one
    rotation premise (_rotation_premise), measured once.

    `all radii < 1` is checked before any stage is built.  It does not
    prove the descent at a finite s (n = 12, L = 3.5887177858128325,
    s = 0.002590482283749564 passes it and is refuted at stage 0); the
    computed descent does."""
    if depth < 1:  # stages 0..depth
        raise UsageError(f"--depth must be at least 1, for one stage pair, got {depth}")
    params = _checked(StageParams, n=n, L=L, s=s)
    radii = _checked(five_circle_radii, params)
    line = f"r_a={radii.r_a:.6f} r_c={radii.r_c:.6f} r_d={radii.r_d:.6f} r_e={radii.r_e:.6f}"
    yield _check("radii", True, line, radii)
    radii_check = _radii_check(radii, tau, "all radii < 1:")
    yield radii_check
    if not radii_check.ok:
        return
    spec = _checked(DissectionSpec, apex=Point(0.0, 0.0), n=n, a=L - 4.0 * s, b=L + 4.0 * s,
                    d=4.0 * params.t, phase=0.0, first_orientation="ccw")
    stages = _checked(dissection_stages, params, spec, depth)
    rotation = _rotation_premise(stages, spec)  # the premise of both checks, measured once
    cert = symmetric_descent_verify(stages, spec, tau, rotation=rotation)
    yield from cert
    wedges = dissection_wedge_checks(stages, spec, tau, rotation=rotation)
    good, total = n * sum(c.ok for c in wedges), n * depth  # each record stands for the pair's n wedges
    yield _check("wedge case split", good == total, f"wedge case split: {good}/{total} {_mark(good == total)}", good)
    ok = all(c.ok for c in cert + wedges)
    yield _check("stage encirclements", ok, f"stage encirclements: {_mark(ok)}", ok)


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
    yield _check("max deviation", True, f"max |formula - circumcircle| over {fuzz} trials: {worst:.3e}", worst)
    yield _check("formula", worst < 1e-9, _mark(worst < 1e-9), worst)


@_records
def verify_rolling(eps: float):
    """The two tangent unit disks roll along the snake boundary."""
    boundary = build_snake().boundary
    report = _checked(rolling_disk_check, boundary, eps=eps)
    curv = path_max_curvature(boundary)
    yield _check("max curvature", True, f"max curvature: {curv:.6f}", curv)
    yield _check("failures", True, f"failures: {len(report.failures)}", len(report.failures))
    yield _check("rolling disk", report.ok, _mark(report.ok), report.counts())


@_records
def verify_sharp(n: int, tau: float):
    """The slid-disk script is totally n-dissected just past cot(pi/n)."""
    script = _checked(sharp_ndissected_script, n)
    spec = _checked(sharp_dissection_spec, n)
    result = dissection_sample_check(script_coloring(script, tau), spec)
    yield _check(f"{n}-dissection", result.ok,
                 f"{n}-dissection of the slid-disk script at ({spec.a:.4f}, {spec.b}) "
                 f"thickness {spec.d}: {_mark(result.ok)}", result.counts())
    for k, leaf in enumerate(result.failures[:5], start=1):
        yield _check(f"failure {k}", False, f"  ray {leaf.ray} side {leaf.side}: {leaf.got.value} "
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


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads every number as a value: argparse's own
    rule takes -1e5 or -inf for an option, since it is not -D or -D.D."""

    def _parse_optional(self, arg_string):
        try:
            float(arg_string)
        except ValueError:
            return super()._parse_optional(arg_string)
        return None


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parsing leaves it unchanged."""
    top = _Parser(prog="diskdraw", description=__doc__)
    top.add_argument("--tau", type=_tau, default=DEFAULT_TAU, help="comparison margin, in (0, 1e-3)")
    sub = top.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="classify a query point against a scene")
    sim.add_argument("scene")
    sim.add_argument("--query", type=float, nargs=2, required=True, metavar=("X", "Y"))
    sim.set_defaults(func=_cmd_simulate)

    ren = sub.add_parser("render", help="render a scene or construction to PGM")
    ren.add_argument("scene", nargs="?")
    ren.add_argument("--construction", choices=_CONSTRUCTIONS)
    ren.add_argument("--n", type=int, help="ray count for sharp-n")
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
    roll.add_argument("--eps", type=float, default=0.5)
    roll.set_defaults(pipeline=lambda a: verify_rolling(a.eps))

    sharp = vsub.add_parser("sharp")
    sharp.add_argument("--n", type=int, required=True)
    sharp.set_defaults(pipeline=lambda a: verify_sharp(a.n, a.tau))

    return top


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
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
