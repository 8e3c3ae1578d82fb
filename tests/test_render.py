import hashlib
import logging
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from diskdraw import (
    Arc,
    CenterSet,
    Coloring,
    DiskModel,
    DrawingScript,
    OffsetHalfPlane,
    PiecewisePath,
    Point,
    RasterSpec,
    Segment,
    SinglePoint,
    Stroke,
    Tool,
    WholePlane,
    black_fraction,
    build_snake,
    chessboard_coloring,
    eval_script,
    region_coloring,
    render,
    rounded_chessboard_coloring,
    script_coloring,
    sharp_ndissected_script,
    snake_coloring,
    to_pgm,
    write_pgm,
    write_svg,
)

from diskdraw.render import _crossing_table, _Grid

from helpers import DIFF, benchmark_workloads, scaled_loop
from oracles import ray_cast_classify, render_per_pixel

# frozen after the first verified generation (same code path, same platform)
SNAKE_PGM_SHA256 = "9f19fb2a89d27cdddae939032db05831e5bee9cb0a6274162ff07b05e51d2934"


@pytest.fixture(scope="module")
def chess_spec():
    return RasterSpec(-1.2, -1.2, 1.2, 1.2, resolution=100.0)


class TestRasterSpec:
    def test_dimensions(self, chess_spec):
        assert (chess_spec.width, chess_spec.height) == (240, 240)

    def test_validation(self):
        with pytest.raises(ValueError):
            RasterSpec(0, 0, 0, 1, resolution=10)
        with pytest.raises(ValueError):
            RasterSpec(0, 0, 1, 1, resolution=0.5)
        # non-finite coordinates or resolution, and sizes that overflow
        for bbox, res in [((0, 0, 1, 1), math.inf), ((0, 0, 1, 1), math.nan), ((0, 0, math.inf, 1), 10),
                          ((-math.inf, 0, 1, 1), 10), ((0, 0, 1e308, 1), 10), ((0, -1e308, 1, 1e308), 1)]:
            with pytest.raises(ValueError):
                RasterSpec(*bbox, resolution=res)


class TestRender:
    def test_chessboard_quadrants(self, chess_spec):
        px = render(chessboard_coloring(1.0), chess_spec)
        w = chess_spec.width

        def at(x, y):
            j = int((x - chess_spec.xmin) * 100)
            i = int((chess_spec.ymax - y) * 100)
            return px[i * w + j]

        assert at(0.5, 0.5) == 0  # quadrant I black
        assert at(-0.5, -0.5) == 0  # quadrant III black
        assert at(-0.5, 0.5) == 255
        assert at(0.5, -0.5) == 255
        assert at(1.15, 1.15) == 255  # outside the squares

    def test_single_pencil_point_disk(self):
        script = DrawingScript(
            DiskModel.OPEN, (Stroke(Tool.PENCIL, CenterSet.of_points(Point(0, 0))),)
        )
        spec = RasterSpec(-1.5, -1.5, 1.5, 1.5, resolution=40.0)
        px = render(script, spec)
        black = sum(1 for b in px if b == 0)
        expected = math.pi * (40.0**2)  # unit disk in pixel units
        assert abs(black - expected) / expected < 0.05

    def test_deterministic(self, chess_spec):
        a = render(chessboard_coloring(1.0), chess_spec)
        b = render(chessboard_coloring(1.0), chess_spec)
        assert a == b

    def test_black_fraction_matches_analytic(self, chess_spec):
        frac = black_fraction(render(chessboard_coloring(1.0), chess_spec))
        analytic = 2.0 / (2.4 * 2.4)
        assert abs(frac - analytic) / analytic < 0.02

    def test_fraction_stable_under_res_doubling(self, chess_spec):
        f1 = black_fraction(render(chessboard_coloring(1.0), chess_spec))
        spec2 = RasterSpec(-1.2, -1.2, 1.2, 1.2, resolution=200.0)
        f2 = black_fraction(render(chessboard_coloring(1.0), spec2))
        assert abs(f2 - f1) / f1 < 0.02

    def test_pgm_header(self, chess_spec):
        data = to_pgm(render(chessboard_coloring(1.0), chess_spec), chess_spec)
        assert data.startswith(b"P5\n240 240\n255\n")
        assert len(data) == len(b"P5\n240 240\n255\n") + 240 * 240

    def test_snake_golden_hash(self):
        geom = build_snake(1.001)
        spec = RasterSpec(-5.0, -9.0, 8.5, 9.0, resolution=6.0)
        data = to_pgm(render(snake_coloring(geom), spec), spec)
        assert hashlib.sha256(data).hexdigest() == SNAKE_PGM_SHA256


class TestFiles:
    def test_write_pgm_and_svg(self, tmp_path):
        spec = RasterSpec(-1.2, -1.2, 1.2, 1.2, resolution=20.0)
        out = tmp_path / "chess.pgm"
        write_pgm(str(out), chessboard_coloring(1.0), spec)
        data = out.read_bytes()
        assert data.startswith(b"P5\n")

        geom = build_snake(1.001)
        svg = tmp_path / "snake.svg"
        write_svg(str(svg), geom.boundary.pieces, RasterSpec(-5, -9, 8.5, 9, resolution=6))
        text = svg.read_text()
        assert text.startswith("<svg")
        assert text.count("<path") == len(geom.boundary.pieces)

    def test_failed_render_keeps_existing_file(self, tmp_path):
        def classify(p):
            raise RuntimeError("classifier failed")

        out = tmp_path / "out.pgm"
        out.write_bytes(b"keep\n")
        # pixel centers on the chessboard's edges x = 0 and y = 0 reach the classifier
        coloring = Coloring(classify=classify, source=chessboard_coloring(1.0).source)
        with pytest.raises(RuntimeError):
            write_pgm(str(out), coloring, RasterSpec(-0.125, -0.125, 0.875, 0.875, resolution=4.0))
        assert out.read_bytes() == b"keep\n"


# ---------------------------------------------------------------------------
# Row spans against the per-pixel loop
# ---------------------------------------------------------------------------

SCALES = [1e-3, 2.0**-5, 0.25, 1.0, 4.0, 2.0**5, 1e3, 1e6]


def per_pixel(source, spec):
    """The oracle: every pixel center classified on its own
    (tests/oracles.py::render_per_pixel)."""
    if isinstance(source, DrawingScript):
        return render_per_pixel(lambda p: eval_script(p, source), spec)
    return render_per_pixel(source.classify, spec)


def render_counts(caplog, source, spec):
    """Pixels, exactly classified pixels, active (row, item) pairs and
    crossing (row, part) pairs of one render."""
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="diskdraw"):
        pixels = render(source, spec)
    (record,) = [r for r in caplog.records if "pixels classified exactly" in r.getMessage()]
    w, h, exact, pairs, parts = record.args
    assert (w, h) == (spec.width, spec.height)
    return pixels, exact, pairs, parts


def bbox_near(center: Point, half: float, dx: float, dy: float):
    return (center.x - half + dx, center.y - half + dy, center.x + half + dx, center.y + half + dy)


# pixel-center offsets: on the quarter grid (rows and columns through vertices,
# tangent rows, exact unit distances) or anywhere
GRID = st.integers(-12, 12).map(lambda k: k / 4.0)
COORD = st.one_of(GRID, st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False))
# a raster shift in pixels; -1/2 puts pixel centers on the raster's own grid
SHIFT = st.one_of(st.just(-0.5), st.floats(-0.5, 0.5, allow_nan=False))


@st.composite
def primitives(draw, scale):
    def pt():
        return Point(scale * draw(COORD), scale * draw(COORD))

    kind = draw(st.sampled_from(["point", "segment", "arc", "halfplane", "plane"]))
    if kind == "point":
        return SinglePoint(pt())
    if kind == "segment":
        a = pt()
        b = draw(st.one_of(st.just(Point(a.x + scale, a.y)), st.just(Point(a.x, a.y - scale)),
                           st.builds(lambda: pt())))
        return Segment(a, b) if a != b else SinglePoint(a)
    if kind == "arc":
        a0 = draw(st.one_of(st.integers(0, 7).map(lambda k: k * math.pi / 4.0), st.floats(0.0, 6.3)))
        sweep = draw(st.one_of(st.just(0.0), st.floats(0.2, 6.0)))
        return Arc(pt(), scale * draw(st.sampled_from([0.25, 0.5, 1.0, 1.75])), a0, a0 + sweep, draw(st.booleans()))
    if kind == "halfplane":
        n = draw(st.one_of(st.sampled_from([Point(1, 0), Point(0, 1), Point(-1, 0), Point(0, -1)]),
                           st.floats(0.0, 6.3).map(lambda a: Point(math.cos(a), math.sin(a)))))
        return OffsetHalfPlane(n, scale * draw(COORD))
    return WholePlane()


def anchor(prim) -> Point:
    """A point of the primitive, or of its neighbourhood's edge, to center a raster on."""
    if isinstance(prim, SinglePoint):
        return prim.p
    if isinstance(prim, Segment):
        return prim.b
    if isinstance(prim, Arc):
        return prim.start_point
    if isinstance(prim, OffsetHalfPlane):
        return prim.normal.scaled(prim.offset)
    return Point(0.0, 0.0)


@st.composite
def scripts_and_specs(draw):
    scale = draw(st.sampled_from(SCALES))
    tools = [Tool.PENCIL] + draw(st.lists(st.sampled_from(Tool), max_size=4))
    strokes = [
        Stroke(tool, CenterSet(tuple(draw(st.lists(primitives(scale), min_size=1, max_size=3)))))
        for tool in tools
    ]
    script = DrawingScript.relaxed(draw(st.sampled_from(DiskModel)), strokes)
    center = anchor(draw(st.sampled_from([p for s in strokes for p in s.centers.primitives])))
    center = Point(round(center.x * 4.0) / 4.0, round(center.y * 4.0) / 4.0)
    dx, dy = (draw(SHIFT) + draw(st.integers(-8, 8)) for _ in "xy")
    xmin, ymin, xmax, ymax = bbox_near(center, 2.0, dx / 8.0, dy / 8.0)
    # the 32-row raster near the anchor, one of its rows alone (h == 1), or
    # the raster lifted wholly above or below every bounded primitive's reach
    place = draw(st.sampled_from(["near", "row", "above", "below"]))
    if place == "row":
        ymax -= draw(st.integers(0, 31)) / 8.0
        ymin = ymax - 1.0 / 8.0
    elif place != "near":
        lift = 10.0 * scale + 4.0 if place == "above" else -10.0 * scale - 4.0
        ymin, ymax = ymin + lift, ymax + lift
    return script, RasterSpec(xmin, ymin, xmax, ymax, resolution=8.0)


class TestScriptSpans:
    @DIFF
    @given(scripts_and_specs())
    def test_random_scripts_match_per_pixel(self, case):
        script, spec = case
        assert render(script, spec) == per_pixel(script, spec)

    @DIFF
    @given(scripts_and_specs(), st.sampled_from([1e-12, 1e-6, 5e-4]))
    def test_script_colorings_keep_their_tau(self, case, tau):
        script, spec = case
        coloring = script_coloring(script, tau)
        assert render(coloring, spec) == per_pixel(coloring, spec)

    @DIFF
    @given(st.lists(st.tuples(st.sampled_from(Tool), primitives(1.0).filter(lambda p: isinstance(p, Arc))),
                    min_size=1, max_size=3), SHIFT)
    def test_arcs_match_per_pixel(self, arcs, shift):
        # rasters centered on the first arc's center: rows through the
        # center and tangent to the circles about it at distance R -+ 1
        script = DrawingScript.relaxed(DiskModel.OPEN, [Stroke(t, CenterSet((a,))) for t, a in arcs])
        center = arcs[0][1].center
        spec = RasterSpec(*bbox_near(center, 3.0, shift / 8.0, shift / 8.0), resolution=8.0)
        assert render(script, spec) == per_pixel(script, spec)

    def test_exact_unit_distances(self, caplog):
        # pixel centers on the quarter grid: rows tangent to the unit circle
        # and centers at distance exactly 1 from the stroke centers
        script = DrawingScript.relaxed(DiskModel.OPEN, [
            Stroke(Tool.PENCIL, CenterSet((SinglePoint(Point(0, 0)), Segment(Point(1, 1), Point(3, 1))))),
            Stroke(Tool.PENCIL, CenterSet((OffsetHalfPlane(Point(0, -1), 1.0),))),
            Stroke(Tool.PENCIL, CenterSet.of_points(Point(0.5, 0.5))),
        ])
        spec = RasterSpec(-2.125, -2.125, 4.125, 2.125, resolution=4.0)
        pixels, exact, _, _ = render_counts(caplog, script, spec)
        assert pixels == per_pixel(script, spec)
        assert pixels.count(128) > 0 and exact >= pixels.count(128)

    def test_script_coloring_checks_tau(self):
        script = DrawingScript.relaxed(DiskModel.OPEN, [Stroke(Tool.PENCIL, CenterSet.of_points(Point(0, 0)))])
        for tau in (-0.1, 0.0, 0.5):
            with pytest.raises(ValueError):
                script_coloring(script, tau)

    def test_far_dummy_padding(self):
        # relaxed padding is the empty stroke: white everywhere, also at the
        # point (1e7, 1e7) where a far-away dummy disk once sat
        script = DrawingScript.relaxed(DiskModel.OPEN, [Stroke(Tool.ERASER, CenterSet.of_points(Point(0, 0)))])
        for center in (Point(1e7, 1e7), Point(0, 0)):
            spec = RasterSpec(*bbox_near(center, 1.5, 0.03, -0.02), resolution=8.0)
            pixels = render(script, spec)
            assert pixels == per_pixel(script, spec)
            assert pixels == b"\xff" * len(pixels)

    def test_whole_plane_then_eraser(self):
        script = DrawingScript(DiskModel.CLOSED, (
            Stroke(Tool.PENCIL, CenterSet((WholePlane(),))),
            Stroke(Tool.ERASER, CenterSet((Segment(Point(-1, 0), Point(1, 0)), SinglePoint(Point(2, 2))))),
        ))
        spec = RasterSpec(-3.0, -3.0, 3.5, 3.5, resolution=6.0)
        assert render(script, spec) == per_pixel(script, spec)


@st.composite
def convex_polygons(draw):
    k = draw(st.integers(3, 8))
    angles = sorted(draw(st.lists(st.floats(0.0, 2.0 * math.pi, exclude_max=True), min_size=k, max_size=k,
                                  unique_by=lambda a: round(a, 2))))
    radii = draw(st.lists(st.floats(0.5, 2.0), min_size=k, max_size=k))
    corners = [Point(r * math.cos(a), r * math.sin(a)) for a, r in zip(angles, radii)]
    hull = [c for i, c in enumerate(corners)
            if (c - corners[i - 1]).cross(corners[(i + 1) % k] - c) > 1e-3]
    if len(hull) < 3:
        hull = [Point(1, 0), Point(0, 1), Point(-1, -1)]
    return PiecewisePath(tuple(Segment(hull[i], hull[(i + 1) % len(hull)]) for i in range(len(hull))))


@st.composite
def arc_loops(draw):
    """A circle cut into arcs, or a rectangle with rounded corners, about the
    origin or lifted wholly above or below the raster about the origin that
    test_random_loops_match_per_pixel draws at small scales."""
    lift = draw(st.sampled_from([0.0, 5.0, -5.0]))
    if draw(st.booleans()):
        cut = st.one_of(st.sampled_from([0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi]),
                        st.floats(0.0, 2.0 * math.pi, exclude_max=True))
        cuts = sorted(draw(st.lists(cut, min_size=2, max_size=4, unique_by=lambda a: round(a, 2))))
        radius = draw(st.sampled_from([0.5, 1.0, 1.5]))
        return PiecewisePath(tuple(
            Arc(Point(0, lift), radius, cuts[i], cuts[(i + 1) % len(cuts)]) for i in range(len(cuts))
        ))
    w, h, r = draw(st.sampled_from([1.0, 1.5])), draw(st.sampled_from([0.75, 1.25])), draw(st.sampled_from([0.25, 0.5]))
    q = math.pi / 2.0
    return scaled_loop(PiecewisePath((
        Segment(Point(-w + r, -h), Point(w - r, -h)), Arc(Point(w - r, -h + r), r, -q, 0.0),
        Segment(Point(w, -h + r), Point(w, h - r)), Arc(Point(w - r, h - r), r, 0.0, q),
        Segment(Point(w - r, h), Point(-w + r, h)), Arc(Point(-w + r, h - r), r, q, 2 * q),
        Segment(Point(-w, h - r), Point(-w, -h + r)), Arc(Point(-w + r, -h + r), r, 2 * q, 3 * q),
    )), 1.0, Point(0.0, lift))


class TestRegionSpans:
    @DIFF
    @given(st.one_of(convex_polygons(), arc_loops()), st.sampled_from(SCALES), SHIFT, SHIFT, GRID)
    def test_random_loops_match_per_pixel(self, caplog, loop, scale, dx, dy, offset):
        shift = Point(scale * offset, -scale * offset)
        loop = scaled_loop(loop, scale, shift)
        coloring = region_coloring((loop,))
        # a 24-pixel raster over the loop, or over a stretch of its boundary
        # from the first piece's start
        half = min(3.0 * scale, 1.5)
        focus = shift if half < 1.5 else loop.pieces[0].point_at(0.0)
        spec = RasterSpec(*bbox_near(focus, half, dx * half / 12.0, dy * half / 12.0), resolution=12.0 / half)
        pixels, _, _, _ = render_counts(caplog, coloring, spec)
        assert pixels == per_pixel(coloring, spec)

    @pytest.mark.parametrize("make", [
        lambda: snake_coloring(build_snake(1.001)),
        lambda: chessboard_coloring(1.0),
        lambda: rounded_chessboard_coloring(0.35),
        lambda: region_coloring((scaled_loop(build_snake(1.001).boundary, 1e3, Point(0, 0)),)),
        lambda: region_coloring(tuple(scaled_loop(loop, 1e6, Point(0, 0))
                                      for loop in chessboard_coloring(1.0).source)),
        lambda: region_coloring((scaled_loop(build_snake(1.001).boundary, 1e6, Point(0, 0)),)),
    ], ids=["snake", "chessboard", "rounded", "snake-1e3", "chessboard-1e6", "snake-1e6"])
    @pytest.mark.parametrize("shift", [0.0, -1.0 / 16.0, 0.137])
    def test_constructions_match_per_pixel(self, caplog, make, shift):
        coloring = make()
        pieces = [p for loop in coloring.source for p in loop.pieces]
        focus = pieces[len(pieces) // 3].point_at(0.0)
        focus = Point(round(focus.x * 4.0) / 4.0 + shift, round(focus.y * 4.0) / 4.0 + shift)
        xmin, ymin, xmax, ymax = bbox_near(focus, 1.5, 0.0, 0.0)
        # the 24-row raster and its middle row alone (h == 1)
        for spec in (RasterSpec(xmin, ymin, xmax, ymax, resolution=8.0),
                     RasterSpec(xmin, focus.y - 1.0 / 16.0, xmax, focus.y + 1.0 / 16.0, resolution=8.0)):
            pixels, _, _, _ = render_counts(caplog, coloring, spec)
            assert pixels == per_pixel(coloring, spec)

    def test_rows_through_vertices_need_no_fallback(self, caplog):
        # rows exactly along y = 1, 0 and -1 (the horizontal edges and the
        # shared vertex) and columns through x = -1, 0, 1
        coloring = chessboard_coloring(1.0)
        spec = RasterSpec(-2.125, -1.875, 2.125, 2.125, resolution=4.0)
        pixels, _, _, _ = render_counts(caplog, coloring, spec)
        assert pixels == per_pixel(coloring, spec)
        assert pixels == render_per_pixel(lambda p: ray_cast_classify(coloring.source, p), spec)

    def test_rows_tangent_to_arcs_need_no_fallback(self, caplog):
        # rows at y = 1, 0.75, ..., -1.5: y = 1 and y = -1 are tangent, y = 0 holds the arc endpoints
        circle = PiecewisePath((Arc(Point(0, 0), 1.0, 0.0, math.pi), Arc(Point(0, 0), 1.0, math.pi, 0.0)))
        coloring = region_coloring((circle,))
        spec = RasterSpec(-1.5, -1.625, 1.5, 1.375, resolution=4.0)
        pixels, _, _, _ = render_counts(caplog, coloring, spec)
        assert pixels == per_pixel(coloring, spec)
        assert pixels == render_per_pixel(lambda p: ray_cast_classify(circle, p), spec)


class TestBenchmarkRenders:
    """The three renders of the benchmark's raster workload, seed 1."""

    COLORINGS = {
        "snake": lambda: snake_coloring(build_snake(1.001)),
        "sharp-n": lambda: script_coloring(sharp_ndissected_script(12)),
        "chessboard": lambda: chessboard_coloring(1.0),
    }

    @pytest.fixture(scope="class")
    def inputs(self):
        return benchmark_workloads().raster_inputs(1)

    def test_no_fallback_rows(self, inputs, caplog):
        # the spans settle the rows: fewer pixels go to the classifier than one row holds
        for item in inputs:
            spec = RasterSpec(*item.bbox, resolution=item.res)
            _, exact, _, _ = render_counts(caplog, self.COLORINGS[item.construction](), spec)
            assert exact < spec.width, item.construction

    def test_active_pairs_are_the_rows_in_reach(self, inputs, caplog):
        # each item reaches the rows whose center lies within r of its
        # y-range (an arc's whole circle): r = 1 + tau for a stroke
        # primitive, tau for a boundary piece; a region's crossing table
        # lists each y-monotone part under the rows whose center lies in
        # its closed y-range, a script has none
        for item in inputs:
            coloring = self.COLORINGS[item.construction]()
            if isinstance(coloring.source, DrawingScript):
                items = [p for s in coloring.source.strokes for p in s.centers.primitives]
                r = 1.0 + coloring.tau
                ranges = []
            else:
                items = [p for loop in coloring.source for p in loop.pieces]
                r = coloring.tau
                ranges = [(min(y0, y1), max(y0, y1)) for loop in coloring.source for y0, y1, _ in loop.parts]
            spec = RasterSpec(*item.bbox, resolution=item.res)
            h, sy = spec.height, (spec.ymax - spec.ymin) / spec.height
            ys = [spec.ymax - (i + 0.5) * sy for i in range(h)]

            def in_reach(widen):
                count = 0
                for p in items:
                    lo, hi = (p.center.y - p.radius, p.center.y + p.radius) if isinstance(p, Arc) \
                        else (min(p.a.y, p.b.y), max(p.a.y, p.b.y))
                    count += sum(1 for y in ys if lo - r - widen <= y <= hi + r + widen)
                return count

            _, _, pairs, parts = render_counts(caplog, coloring, spec)
            assert pairs == in_reach(0.0) == in_reach(1e-6), item.construction  # no center near a reach's end
            assert pairs < h * len(items) / 2, item.construction
            assert parts == sum(1 for lo, hi in ranges for y in ys if lo <= y <= hi), item.construction
            assert parts < h * len(ranges) / 4 if ranges else parts == 0, item.construction


# ---------------------------------------------------------------------------
# The active tables against the per-row scans they replace
# ---------------------------------------------------------------------------


@st.composite
def lattice_loops(draw):
    """A closed chain (not necessarily simple) of segments and quarter-circle
    arcs with every vertex on the quarter grid: rows through vertices, along
    horizontal segments and tangent to arcs."""
    q = math.pi / 2.0
    pieces, at = [], Point(draw(GRID), draw(GRID))
    start = at
    for _ in range(draw(st.integers(1, 6))):
        if draw(st.booleans()):
            r, k = draw(st.sampled_from([0.25, 0.5, 1.0])), draw(st.integers(0, 3))
            arc = Arc(Point(at.x - r * math.cos(k * q), at.y - r * math.sin(k * q)), r,
                      k * q, k * q + draw(st.sampled_from([q, 2 * q, -q, -2 * q])), draw(st.booleans()))
            # the arc's end, snapped to the quarter grid it lies on up to rounding
            end = Point(round(arc.end_point.x * 4.0) / 4.0, round(arc.end_point.y * 4.0) / 4.0)
            if end != at:
                pieces.append(arc)
                at = end
        else:
            b = draw(st.one_of(st.builds(lambda y: Point(draw(GRID), y), st.just(at.y)),
                               st.builds(lambda: Point(draw(GRID), draw(GRID)))))
            if b != at:
                pieces.append(Segment(at, b))
                at = b
    if at != start:
        pieces.append(Segment(at, start))
    if len(pieces) < 2:
        pieces = [Segment(start, Point(start.x + 1.0, start.y)), Segment(Point(start.x + 1.0, start.y), start)]
    return PiecewisePath(tuple(pieces))


def table_crossings(parts, y: float) -> list:
    """A row's crossings as the renderer sorts them: its listed parts only,
    by the half-open rule of PiecewisePath.crossings."""
    return sorted(x_at(y) for y0, y1, x_at in parts if (y0 > y) != (y1 > y))


def row_spec(draw):
    """A raster at resolution 4 whose row centers lie on the quarter grid or
    are shifted off it, 24 rows high or one row alone (h == 1)."""
    ymax = draw(st.integers(-16, 16)) / 4.0 + 1.0 / 8.0 + (draw(SHIFT) + 0.5) / 4.0
    rows = draw(st.sampled_from([24, 1]))
    return RasterSpec(-4.0, ymax - rows / 4.0, 4.0, ymax, resolution=4.0)


class TestActiveTables:
    @DIFF
    @given(st.lists(st.one_of(lattice_loops(), convex_polygons(), arc_loops()), min_size=1, max_size=3),
           st.data())
    def test_row_crossings_are_the_loops_crossings(self, loops, data):
        spec = row_spec(data.draw)
        grid = _Grid(spec)
        table = _crossing_table(grid, loops)
        for i in range(grid.h):
            y = grid.y(i)
            assert table_crossings(table[i], y) == sorted(x for loop in loops for x in loop.crossings(y)), (i, y)

    @pytest.mark.parametrize("make", [lambda: snake_coloring(build_snake(1.001)), lambda: chessboard_coloring(1.0),
                                      lambda: rounded_chessboard_coloring(0.35)],
                             ids=["snake", "chessboard", "rounded"])
    @pytest.mark.parametrize("ymax", [9.125, 2.0, 1.0 + 1.0 / 16.0])
    def test_construction_row_crossings(self, make, ymax):
        # rows on the quarter grid (through the chessboard's vertices and along
        # its horizontal edges) and off it, plus the top row alone (h == 1)
        loops = make().source
        for spec in (RasterSpec(-5.0, ymax - 18.5, 8.5, ymax, resolution=4.0),
                     RasterSpec(-5.0, ymax - 0.25, 8.5, ymax, resolution=4.0)):
            grid = _Grid(spec)
            table = _crossing_table(grid, loops)
            for i in range(grid.h):
                y = grid.y(i)
                assert table_crossings(table[i], y) == sorted(x for loop in loops for x in loop.crossings(y)), (i, y)

    @DIFF
    @given(st.sampled_from([1, 2, 7, 24]), st.floats(-0.5, 0.5), st.data())
    def test_cols_is_the_two_search_range(self, w, shift, data):
        spec = RasterSpec(-1.0 + shift / 4.0, -1.0, -1.0 + w / 4.0 + shift / 4.0, 0.0, resolution=4.0)
        grid = _Grid(spec)
        centre = st.integers(0, w - 1).map(grid.x)
        edge = st.one_of(
            centre,  # on a column center, columns 0 and w - 1 included
            centre.map(lambda x: math.nextafter(x, math.inf)),
            centre.map(lambda x: math.nextafter(x, -math.inf)),
            st.sampled_from([-math.inf, math.inf, spec.xmin, spec.xmax, grid.x(w - 1) + 1.0, grid.x(0) - 1.0]),
            st.floats(spec.xmin - 1.0, spec.xmax + 1.0),
        )
        lo = data.draw(edge)
        kind = data.draw(st.sampled_from(["any", "empty", "inverted", "one", "full"]))
        if kind == "empty":
            hi = lo
        elif kind == "inverted":
            hi = data.draw(st.floats(-math.inf, lo, allow_nan=False))
        elif kind == "one":  # one pixel: [x_j, x_(j+1)), or x_(w-1) up past the last column
            j = data.draw(st.integers(0, w - 1))
            lo, hi = grid.x(j), grid.x(j + 1)
        elif kind == "full":
            lo, hi = data.draw(st.sampled_from([(-math.inf, math.inf), (spec.xmin, spec.xmax), (grid.x(0), math.inf)]))
        else:
            hi = data.draw(edge)
        cols = grid.cols(lo, hi)
        assert cols == range(grid.first(lo), grid.first(hi)), (lo, hi)
        assert list(cols) == [j for j in range(w) if lo <= grid.x(j) < hi], (lo, hi)
        if kind == "full":
            assert len(cols) == w
