"""The three workloads: seeded inputs, one timed pass, and its checks.

Every workload calls the program in-process, single-threaded, as one
closed-loop client: the next call starts when the previous one returned.
A pass runs the workload's whole input set once.  Each pass reports its
wall time (the sum of its timed operations), the seconds spent in each of
its three parts, and a rate in the workload's unit of work.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
import signal
import statistics
from dataclasses import dataclass, field
from time import perf_counter

import checks
from spans import percentile

# ---------------------------------------------------------------------------
# Input generation: the seed is the only source of variation.
# ---------------------------------------------------------------------------


def certify_inputs(seed: int) -> list[tuple[int, list[str]]]:
    """(part, argv) of each `verify` command.

    The seed jitters the dissection L and s and the chessboard r and theta
    inside ranges where every verdict is YES.  The snake stays at r = 1.001,
    the value its printed anchors are pinned to.
    """
    rng = random.Random(f"certify:{seed}")
    L12, s12 = rng.uniform(2.9, 3.1), rng.uniform(0.8e-3, 1.2e-3)
    L20, s20 = rng.uniform(4.9, 5.1), rng.uniform(0.8e-3, 1.2e-3)
    r, theta = rng.uniform(0.08, 0.12), rng.uniform(0.3, 0.7)
    return [
        (0, ["verify", "snake"]),
        (1, ["verify", "dissection", "--n", "12", "--L", repr(L12), "--s", repr(s12), "--depth", "5"]),
        (1, ["verify", "dissection", "--n", "20", "--L", repr(L20), "--s", repr(s20), "--depth", "2"]),
        (2, ["verify", "chessboard", "--r", repr(r), "--theta-deg", repr(theta), "--depth", "10"]),
        (2, ["verify", "rolling"]),
        (2, ["verify", "sharp", "--n", "12"]),
    ]


# (construction, extra arguments, bbox, pixels per unit)
RENDERS = (
    ("snake", [], (-5.0, -9.0, 8.5, 9.0), 10.0),
    ("sharp-n", ["--n", "12"], (-8.0, -8.0, 8.0, 8.0), 10.0),
    ("chessboard", [], (-2.0, -2.0, 2.0, 2.0), 100.0),
)
SPOTS_PER_RENDER = 48


@dataclass(frozen=True)
class RenderInput:
    construction: str
    argv: list[str]  # without the output path
    bbox: tuple[float, float, float, float]
    res: float
    spots: tuple[tuple[int, int], ...]


def raster_inputs(seed: int) -> list[RenderInput]:
    """The three renders, each bbox shifted by less than one pixel."""
    rng = random.Random(f"raster:{seed}")
    out = []
    for name, extra, (xmin, ymin, xmax, ymax), res in RENDERS:
        dx, dy = rng.uniform(-0.5, 0.5) / res, rng.uniform(-0.5, 0.5) / res
        bbox = (xmin + dx, ymin + dy, xmax + dx, ymax + dy)
        w, h = checks.raster_size(bbox, res)
        spots = tuple((rng.randrange(h), rng.randrange(w)) for _ in range(SPOTS_PER_RENDER))
        argv = ["render", "--construction", name, *extra,
                "--bbox", *map(repr, bbox), "--res", repr(res)]
        out.append(RenderInput(name, argv, bbox, res, spots))
    return out


SCRIPTS = 2000
RANDOM_QUERIES = 24
CIRCLE_QUERIES = 8


def _primitive(rng: random.Random):
    kind = rng.choices(("point", "segment", "arc", "halfplane", "plane"), (35, 30, 25, 9, 1))[0]
    if kind == "point":
        return ("point", rng.uniform(-3, 3), rng.uniform(-3, 3))
    if kind == "segment":
        return ("segment", rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(-3, 3))
    if kind == "arc":
        a0 = rng.uniform(-math.pi, math.pi)
        sweep = 0.0 if rng.random() < 0.1 else rng.uniform(0.3, 2 * math.pi - 0.3)
        cw = rng.random() < 0.3
        return ("arc", rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(0.3, 2.5),
                a0, a0 - sweep if cw else a0 + sweep, cw)
    if kind == "halfplane":
        phi = rng.uniform(-math.pi, math.pi)
        return ("halfplane", math.cos(phi), math.sin(phi), rng.uniform(-2.5, 2.5))
    return ("plane",)


def _format(prim) -> str:
    kind, *vals = prim
    if kind == "arc":
        return " ".join(["arc", *map(repr, vals[:5])]) + (" cw" if vals[5] else "")
    return " ".join([kind, *map(repr, vals)])


def _on_unit_circle(prim, rng: random.Random):
    """A point at distance exactly 1 (up to rounding) from the primitive."""
    kind = prim[0]
    if kind == "point":
        a = rng.uniform(-math.pi, math.pi)
        return prim[1] + math.cos(a), prim[2] + math.sin(a)
    if kind == "segment":
        x1, y1, x2, y2 = prim[1:]
        f = rng.uniform(0.1, 0.9)
        ln = math.hypot(x2 - x1, y2 - y1)
        side = rng.choice((1.0, -1.0))
        return (x1 + f * (x2 - x1) - side * (y2 - y1) / ln,
                y1 + f * (y2 - y1) + side * (x2 - x1) / ln)
    if kind == "arc":
        cx, cy, r, a0, a1, _ = prim[1:]
        theta = a0 + rng.uniform(0.05, 0.95) * (a1 - a0)
        return cx + (r + 1.0) * math.cos(theta), cy + (r + 1.0) * math.sin(theta)
    if kind == "halfplane":
        nx, ny, off = prim[1:]
        t = rng.uniform(-3, 3)
        return off * nx - t * ny, off * ny + t * nx
    return None


@dataclass(frozen=True)
class Scene:
    text: str
    queries: tuple[tuple[float, float], ...]


def membership_inputs(seed: int) -> list[Scene]:
    """Scene texts of 2 to 8 strokes in free tool order, with their queries.

    A share of the queries sits on a stroke's unit circle, where the stroke's
    verdict is boundary.
    """
    rng = random.Random(f"membership:{seed}")
    scenes = []
    for _ in range(SCRIPTS):
        strokes = [(rng.choice(("pencil", "eraser")), [_primitive(rng) for _ in range(rng.choice((1, 1, 2, 3)))])
                   for _ in range(rng.randint(2, 8))]
        lines = [f"model {rng.choice(('open', 'closed'))}"]
        lines += [f"stroke {tool} " + " ".join(_format(p) for p in prims) for tool, prims in strokes]
        queries = [(rng.uniform(-4, 4), rng.uniform(-4, 4)) for _ in range(RANDOM_QUERIES)]
        prims = [p for _, ps in strokes for p in ps if p[0] != "plane"]
        while prims and len(queries) < RANDOM_QUERIES + CIRCLE_QUERIES:
            queries.append(_on_unit_circle(rng.choice(prims), rng))
        scenes.append(Scene("\n".join(lines) + "\n", tuple(queries)))
    return scenes


# ---------------------------------------------------------------------------
# Running operations
# ---------------------------------------------------------------------------


@dataclass
class Tally:
    """Operations attempted and failed; a failure raised, exited with the
    wrong code or failed a check."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, problems) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[:3])


# The speed of a shared host drifts: a fixed pure-Python loop runs up to twice
# as slow for spells of 0.1 s to minutes.  While an operation runs, a SIGALRM
# handler times a fixed kernel, not part of the program, CAL_HZ times a
# second, so long operations are sampled throughout.  A pass's timings are
# scaled by CAL_REFERENCE_S over the mean kernel time of that pass: they are
# reported at the speed where the kernel takes CAL_REFERENCE_S.  Samples above
# CAL_CLIP times the median are clipped, so that one rare stall caught by a
# 0.2 ms sample does not stand for a whole sampling period.
CAL_ITERATIONS = 200
CAL_HZ = 50
CAL_CLIP = 4.0
CAL_BURST = 10
CAL_REFERENCE_S = 0.0002


@dataclass(frozen=True, slots=True)
class _CalPoint:
    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError("non-finite point")


def _cal_kernel() -> float:
    total = 0.0
    for i in range(CAL_ITERATIONS):
        p = _CalPoint((i * 0.6180339887) % 1.0, (i * 0.7548776662) % 1.0)
        total += math.hypot(p.x - 0.5, p.y - 0.5)
    return total


def _clipped_mean(samples: list[float]) -> float:
    cap = CAL_CLIP * statistics.median(samples)
    return statistics.fmean(min(x, cap) for x in samples)


class Calibration:
    """Kernel times sampled while operations run, collected per pass and per
    part of the pass."""

    def __init__(self):
        self.samples: list[tuple[int | None, float]] = []  # (part, seconds)
        self.active = False  # set by OpTimer for the duration of an operation
        self.part: int | None = None

    @staticmethod
    def _time_kernel() -> float:
        t0 = perf_counter()
        _cal_kernel()
        return perf_counter() - t0

    def _on_alarm(self, signum, frame) -> None:
        if self.active:
            self.samples.append((self.part, self._time_kernel()))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, 1.0 / CAL_HZ, 1.0 / CAL_HZ)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def burst(self) -> float:
        """The clipped mean of CAL_BURST samples taken now, for a short step
        such as set-up."""
        return _clipped_mean([self._time_kernel() for _ in range(CAL_BURST)])

    def take(self) -> tuple[float, list[float]]:
        """Clipped mean kernel times since the last take: over all samples,
        and for each of the three parts (the overall one where a part has no
        samples of its own)."""
        samples, self.samples = self.samples, []
        if not samples:
            return CAL_REFERENCE_S, [CAL_REFERENCE_S] * 3  # too short to be sampled
        overall = _clipped_mean([x for _, x in samples])
        per_part = []
        for i in range(3):
            own = [x for part, x in samples if part == i]
            per_part.append(_clipped_mean(own) if own else overall)
        return overall, per_part


@dataclass
class PassResult:
    wall: float  # seconds of timed operations
    parts: list[float]
    rate: float
    op_walls: list[float] = field(default_factory=list)
    latency_p50_p99: tuple[float, float] = (0.0, 0.0)  # per query, membership only
    kernel_s: float = CAL_REFERENCE_S  # mean calibration kernel time over the pass
    part_kernel_s: tuple[float, float, float] = (CAL_REFERENCE_S,) * 3  # and per part

    @property
    def scale(self) -> float:
        """Factor that brings this pass's wall time and rate to the reference speed."""
        return CAL_REFERENCE_S / self.kernel_s

    def scaled_part(self, i: int) -> float:
        return self.parts[i] * CAL_REFERENCE_S / self.part_kernel_s[i]


def median_summary(passes) -> tuple[float, list[float], float]:
    """Medians over the passes of the wall time, of each part and of the rate,
    each at the reference speed."""
    return (statistics.median(r.wall * r.scale for r in passes),
            [statistics.median(r.scaled_part(i) for r in passes) for i in range(3)],
            statistics.median(r.rate / r.scale for r in passes))


class OpTimer:
    """Times one operation while the host's speed is sampled; under tracing,
    installs the tracer for exactly that operation and records it as a root
    span."""

    def __init__(self, calibration: Calibration, tracer=None, part: int | None = None):
        self.calibration = calibration
        self.tracer = tracer
        self.part = part
        self.start = 0.0

    def __enter__(self):
        if self.tracer is not None:
            self.tracer.install()
            self.tracer.begin("bench.op")
        self.calibration.part = self.part
        self.calibration.active = True
        self.start = perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds = perf_counter() - self.start
        self.calibration.active = False
        if self.tracer is not None:
            self.tracer.end()
            self.tracer.uninstall()
        return False


def run_cli(cli, argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)  # looked up at call time, so a traced main is used
    return code, out.getvalue() + err.getvalue()


def _failure(argv, exc) -> list[str]:
    return [f"{' '.join(argv[:3])}: raised {type(exc).__name__}: {exc}"]


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Workload:
    """Defaults: no per-operation report and no final check."""

    spot_mismatches = 0  # render pixels that differ from the reference classifier

    def op_labels(self) -> list[str]:
        return []

    def final_checks(self, tally: Tally) -> None:
        pass


class Certify(Workload):
    """`verify` commands; encirclement, escape radius and LEC dominate."""

    name = "certify"
    part_names = ("verify_snake_s", "verify_dissection_s", "verify_local_s")
    rate_name = ("stage_pairs_per_s", "certified stage pairs per second")

    def __init__(self, dd, seed: int, outdir: str):
        self.cli = dd.cli
        self.commands = certify_inputs(seed)

    def op_labels(self) -> list[str]:
        return [" ".join(argv[:4] if argv[2:3] == ["--n"] else argv[:2]) for _, argv in self.commands]

    def run_pass(self, tally: Tally, calibration: Calibration, tracer=None) -> PassResult:
        parts, walls, pairs = [0.0, 0.0, 0.0], [], 0
        for part, argv in self.commands:
            try:
                with OpTimer(calibration, tracer, part) as op:
                    code, out = run_cli(self.cli, argv)
            except Exception as exc:  # an uncaught error is a failed operation
                tally.record(_failure(argv, exc))
                continue
            tally.record(checks.check_verify(argv, code, out))
            parts[part] += op.seconds
            walls.append(op.seconds)
            pairs += out.count("kind=enc verdict=yes")
        wall = sum(walls)
        return PassResult(wall, parts, pairs / wall if wall else 0.0, walls)


class Raster(Workload):
    """`render` of three constructions; per-pixel classification dominates."""

    name = "raster"
    part_names = ("render_snake_s", "render_sharp_s", "render_chess_s")
    rate_name = ("px_per_s", "pixels per second")

    def __init__(self, dd, seed: int, outdir: str):
        self.dd = dd
        self.cli = dd.cli
        self.renders = raster_inputs(seed)
        self.path = os.path.join(outdir, f"raster-{os.getpid()}.pgm")
        # reference classifiers for the spot checks, which run outside any
        # operation and so are never traced
        self.classify = {
            "snake": dd.snake_coloring(dd.build_snake(1.001)).classify,
            "sharp-n": dd.script_coloring(dd.sharp_ndissected_script(12)).classify,
            "chessboard": dd.chessboard_coloring(1.0).classify,
        }

    def expected_spots(self, item: RenderInput) -> list[str]:
        Point = self.dd.Point
        return [self.classify[item.construction](Point(*checks.pixel_centre(item.bbox, item.res, i, j))).value
                for i, j in item.spots]

    def op_labels(self) -> list[str]:
        return [f"render {item.construction} ({'x'.join(map(str, checks.raster_size(item.bbox, item.res)))})"
                for item in self.renders]

    def run_pass(self, tally: Tally, calibration: Calibration, tracer=None) -> PassResult:
        parts, walls, pixels = [0.0, 0.0, 0.0], [], 0
        for k, item in enumerate(self.renders):
            argv = item.argv + ["-o", self.path]
            try:
                with OpTimer(calibration, tracer, k) as op:
                    code, out = run_cli(self.cli, argv)
                with open(self.path, "rb") as fh:
                    data = fh.read()
                os.remove(self.path)
            except Exception as exc:
                tally.record(_failure(argv, exc))
                continue
            w, h = checks.raster_size(item.bbox, item.res)
            problems = [f"{' '.join(argv[:3])}: exit code {code}: {out.strip()}"] if code != 0 else []
            body, bad_header = checks.split_pgm(data, w, h)
            problems += bad_header
            if not bad_header:
                spots = checks.spot_mismatches(body, w, item.spots, self.expected_spots(item))
                self.spot_mismatches += len(spots)
                problems += spots
            tally.record(problems)
            parts[k] += op.seconds
            walls.append(op.seconds)
            pixels += w * h
        wall = sum(walls)
        return PassResult(wall, parts, pixels / wall if wall else 0.0, walls)

    def final_checks(self, tally: Tally) -> None:
        """The spec of test_snake_golden_hash must reproduce its SHA-256."""
        dd = self.dd
        spec = dd.RasterSpec(*checks.SNAKE_RES6_BBOX, resolution=6.0)
        try:
            data = dd.to_pgm(dd.render(dd.snake_coloring(dd.build_snake(1.001)), spec), spec)
        except Exception as exc:
            tally.record(_failure(["render", "golden", "snake"], exc))
            return
        tally.record(checks.check_golden(data))


class Membership(Workload):
    """Point queries against many small scripts: parse, eval_script,
    stationary_number, and a serialize -> parse round trip."""

    name = "membership"
    part_names = ("script_load_s", "eval_s", "stationary_s")
    rate_name = ("queries_per_s", "queries (eval_script + stationary_number) per second")

    def __init__(self, dd, seed: int, outdir: str):
        self.dd = dd
        self.scenes = membership_inputs(seed)
        self.points = [[dd.Point(x, y) for x, y in s.queries] for s in self.scenes]
        self.boundary_points = 0  # per pass
        self.checked = {}  # script index -> outputs of the pass that checked them

    def run_pass(self, tally: Tally, calibration: Calibration, tracer=None) -> PassResult:
        dd = self.dd
        canvas, scene_mod, BoundaryPoint = dd.canvas, dd.scene, dd.BoundaryPoint
        load = ev = st = 0.0
        walls, latencies, queries, boundary_points = [], [], 0, 0
        for k, (scene, points) in enumerate(zip(self.scenes, self.points)):
            shades, stationary = [], []
            try:
                with OpTimer(calibration, tracer) as op:
                    t0 = perf_counter()
                    script = scene_mod.parse_script(scene.text)
                    s_load = perf_counter() - t0
                    s_ev = s_st = 0.0
                    for p in points:
                        ta = perf_counter()
                        shades.append(canvas.eval_script(p, script))
                        tb = perf_counter()
                        try:
                            stationary.append(canvas.stationary_number(p, script))
                        except BoundaryPoint:
                            stationary.append(None)
                        tc = perf_counter()
                        s_ev += tb - ta
                        s_st += tc - tb
                        latencies.append(tc - ta)
                    t2 = perf_counter()
                    serialized = scene_mod.serialize_script(script)
                    again = scene_mod.parse_script(serialized)
                    s_load += perf_counter() - t2
            except Exception as exc:
                tally.record(_failure(["membership", scene.text.splitlines()[1]], exc))
                continue
            walls.append(op.seconds)
            load, ev, st = load + s_load, ev + s_ev, st + s_st
            queries += len(points)
            boundary_points += stationary.count(None)
            outputs = ([s.value for s in shades], stationary, serialized)
            if k in self.checked:  # outputs are deterministic: equal to the checked ones
                problems = [] if outputs == self.checked[k] else [f"script {k}: outputs changed between passes"]
            else:
                problems = []
                for p, shade, sn in zip(points, shades, stationary):
                    problems += checks.check_query(
                        shade.value, dd.reference_eval(p, script).value, dd.eval_script(p, again).value, sn)
                self.checked[k] = outputs
            tally.record(problems)
        self.boundary_points = boundary_points
        quantiles = (percentile(latencies, 50), percentile(latencies, 99))
        return PassResult(sum(walls), [load, ev, st], queries / (ev + st) if queries else 0.0, walls, quantiles)


WORKLOADS = {w.name: w for w in (Certify, Raster, Membership)}
