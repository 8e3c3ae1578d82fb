"""Delaunay triangulation of planar point sets with exact predicates.

Points are (x, y) float tuples.  Triangles are built by Bowyer-Watson
insertion (Bowyer 1981; Watson 1981, Comput. J. 24(2)): each new point
removes the triangles whose open circumdisk contains it (its cavity) and is
joined to the cavity boundary.

The hull is closed by ghost triangles rather than a finite super-triangle.
Each hull edge u -> v (exterior on its left) carries a ghost triangle
(u, v, GHOST) whose "circumdisk" is the open half-plane left of u -> v plus
the open segment uv.  A point therefore conflicts with a ghost exactly when
it lies outside the hull or on a hull edge, at every scale.

Orientation and in-circle signs come from Shewchuk's float filters (DCG 18,
1997) and fall back to exact arithmetic when the filter cannot decide: the
same determinant is evaluated in integers (every float is an integer times a
power of two), so every combinatorial decision is exact for the float inputs.
"""

from __future__ import annotations

from typing import Iterable, Optional

GHOST = -1

_EPS = 2.0**-53
_ORIENT_BOUND = (3.0 + 16.0 * _EPS) * _EPS
_INCIRCLE_BOUND = (10.0 + 96.0 * _EPS) * _EPS

XY = tuple[float, float]
Edge = tuple[int, int]


def _sign(v: int) -> int:
    return (v > 0) - (v < 0)


def _exact(*coords: float) -> tuple[list[int], int]:
    """The coordinates times one common power of two, as exact integers, and that power."""
    ratios = [c.as_integer_ratio() for c in coords]
    scale = max(d for _, d in ratios)
    return [n * (scale // d) for n, d in ratios], scale


def orient(a: XY, b: XY, c: XY) -> int:
    """+1 when a, b, c turn counterclockwise, -1 clockwise, 0 when collinear."""
    left = (a[0] - c[0]) * (b[1] - c[1])
    right = (a[1] - c[1]) * (b[0] - c[0])
    det = left - right
    bound = _ORIENT_BOUND * (abs(left) + abs(right))
    if det > bound:
        return 1
    if det < -bound:
        return -1
    (ax, ay, bx, by, cx, cy), _ = _exact(*a, *b, *c)
    return _sign((ax - cx) * (by - cy) - (ay - cy) * (bx - cx))


def incircle(a: XY, b: XY, c: XY, d: XY) -> int:
    """+1 when d is inside the circle through the counterclockwise a, b, c,
    -1 outside, 0 on it."""
    adx, ady = a[0] - d[0], a[1] - d[1]
    bdx, bdy = b[0] - d[0], b[1] - d[1]
    cdx, cdy = c[0] - d[0], c[1] - d[1]
    bc, cb = bdx * cdy, cdx * bdy
    ca, ac = cdx * ady, adx * cdy
    ab, ba = adx * bdy, bdx * ady
    alift = adx * adx + ady * ady
    blift = bdx * bdx + bdy * bdy
    clift = cdx * cdx + cdy * cdy
    det = alift * (bc - cb) + blift * (ca - ac) + clift * (ab - ba)
    permanent = (abs(bc) + abs(cb)) * alift + (abs(ca) + abs(ac)) * blift + (abs(ab) + abs(ba)) * clift
    bound = _INCIRCLE_BOUND * permanent
    if det > bound:
        return 1
    if det < -bound:
        return -1
    (ax, ay, bx, by, cx, cy, dx, dy), _ = _exact(*a, *b, *c, *d)
    adx, ady, bdx, bdy, cdx, cdy = ax - dx, ay - dy, bx - dx, by - dy, cx - dx, cy - dy
    return _sign(
        (adx * adx + ady * ady) * (bdx * cdy - cdx * bdy)
        + (bdx * bdx + bdy * bdy) * (cdx * ady - adx * cdy)
        + (cdx * cdx + cdy * cdy) * (adx * bdy - bdx * ady)
    )


def circumcenter(a: XY, b: XY, c: XY) -> Optional[XY]:
    """Circumcenter of three (x, y) tuples, or None when they are collinear.

    Evaluated in floating point relative to a; when the float denominator
    vanishes the center is recomputed exactly (and correctly rounded), so
    only truly collinear points give None.
    """
    bx, by = b[0] - a[0], b[1] - a[1]
    cx, cy = c[0] - a[0], c[1] - a[1]
    d = 2.0 * (bx * cy - by * cx)
    if d == 0.0:
        (ax, ay, bx, by, cx, cy), scale = _exact(*a, *b, *c)
        bx, by, cx, cy = bx - ax, by - ay, cx - ax, cy - ay
        d = 2 * (bx * cy - by * cx)
        if d == 0:
            return None
        bb, cc = bx * bx + by * by, cx * cx + cy * cy
        return ((ax * d + cy * bb - by * cc) / (d * scale), (ay * d + bx * cc - cx * bb) / (d * scale))
    bb, cc = bx * bx + by * by, cx * cx + cy * cy
    return (a[0] + (cy * bb - by * cc) / d, a[1] + (bx * cc - cx * bb) / d)


class Delaunay:
    """Delaunay triangulation of the distinct points among `points`.

    Triangles are stored as directed edges: adj[(u, v)] = w for each
    counterclockwise triangle (u, v, w), ghosts included.  Collinear (or
    fewer than three distinct) points have no triangles; their Delaunay
    edges join consecutive points along the line.
    """

    def __init__(self, points: Iterable[XY]):
        self.points: list[XY] = list(dict.fromkeys(points))
        self._index = {p: i for i, p in enumerate(self.points)}
        self._adj: dict[Edge, int] = {}
        self._out: list[int] = [GHOST] * len(self.points)  # one edge (i, out[i]) per vertex
        self._inserted: list[int] = []
        pts = self.points
        third = next((k for k in range(2, len(pts)) if orient(pts[0], pts[1], pts[k]) != 0), None)
        if third is None:
            return
        a, b = (0, 1) if orient(pts[0], pts[1], pts[third]) > 0 else (1, 0)
        for u, v, w in ((a, b, third), (b, a, GHOST), (third, b, GHOST), (a, third, GHOST)):
            self._add(u, v, w)
        self._inserted = [0, 1, third]
        for i in range(2, len(pts)):
            if i != third:
                self._insert(i)

    # -- queries ----------------------------------------------------------

    def triangles(self) -> list[tuple[int, int, int]]:
        """The finite triangles, each once, counterclockwise."""
        return [(u, v, w) for (u, v), w in self._adj.items() if GHOST < u < v and u < w]

    def edges(self) -> list[Edge]:
        """The Delaunay edges, each once."""
        if not self._adj:
            order = sorted(range(len(self.points)), key=self.points.__getitem__)
            return list(zip(order, order[1:]))
        return [(u, v) for u, v in self._adj if GHOST < u < v]

    def cell_fan(self, p: XY) -> Optional[list[Edge]]:
        """Link of p in Del(points + {p}), or None when p's Voronoi cell is unbounded.

        The link is the list of edges (u, v) such that (p, u, v) is a Delaunay
        triangle after inserting p, i.e. the boundary of p's insertion cavity.
        Their circumcenters are the vertices of p's Voronoi cell.  When p is
        already a vertex its own link is returned.  The cell is unbounded
        exactly when the link reaches a ghost, i.e. when p is not strictly
        inside the convex hull.
        """
        if not self._adj:
            return None
        i = self._index.get(p)
        if i is not None:
            fan = [(u, v) for _, u, v in self._around(i)]
        else:
            _, fan = self._cavity(p, self._locate(p))
        if any(GHOST in e for e in fan):
            return None
        return fan

    # -- construction -----------------------------------------------------

    def _add(self, u: int, v: int, w: int) -> None:
        adj = self._adj
        adj[(u, v)] = w
        adj[(v, w)] = u
        adj[(w, u)] = v
        for x, y in ((u, v), (v, w), (w, u)):
            if x != GHOST:
                self._out[x] = y

    def _insert(self, i: int) -> None:
        p = self.points[i]
        cavity, boundary = self._cavity(p, self._locate(p))
        adj = self._adj
        for u, v, w in cavity:
            del adj[(u, v)], adj[(v, w)], adj[(w, u)]
        for u, v in boundary:
            self._add(u, v, i)
        self._inserted.append(i)

    def _around(self, q: int):
        """Triangles (q, u, v) around vertex q, counterclockwise."""
        adj = self._adj
        first = u = self._out[q]
        while True:
            v = adj[(q, u)]
            yield (q, u, v)
            u = v
            if u == first:
                return

    def _locate(self, p: XY) -> tuple[int, int, int]:
        """Some triangle in conflict with p (p must not be a vertex).

        p's nearest vertex is a Delaunay neighbour of p, so a triangle around
        it conflicts; ties fall back to a scan of all triangles.
        """
        px, py = p
        pts = self.points
        q = min(self._inserted, key=lambda j: (pts[j][0] - px) ** 2 + (pts[j][1] - py) ** 2)
        for tri in self._around(q):
            if self._conflicts(tri, p):
                return tri
        for (u, v), w in self._adj.items():
            if self._conflicts((u, v, w), p):
                return (u, v, w)
        raise RuntimeError(f"no triangle conflicts with {p}: the triangulation is broken")

    def _conflicts(self, tri: tuple[int, int, int], p: XY) -> bool:
        u, v, w = tri
        pts = self.points
        if GHOST not in tri:
            return incircle(pts[u], pts[v], pts[w], p) > 0
        # rotate the hull edge to (a, b): the ghost region lies left of a -> b
        a, b = (u, v) if w == GHOST else (v, w) if u == GHOST else (w, u)
        a, b = pts[a], pts[b]
        side = orient(a, b, p)
        if side:
            return side > 0
        k = 0 if a[0] != b[0] else 1
        return min(a[k], b[k]) < p[k] < max(a[k], b[k])

    def _cavity(self, p: XY, seed: tuple[int, int, int]):
        """Triangles in conflict with p (a connected set containing seed) and
        the directed edges of the cavity boundary."""
        adj = self._adj
        cavity = [seed]
        seen = {frozenset(seed)}
        boundary: list[Edge] = []
        stack = [seed]
        while stack:
            u, v, w = stack.pop()
            for a, b in ((u, v), (v, w), (w, u)):
                nb = (b, a, adj[(b, a)])
                key = frozenset(nb)
                if key in seen:
                    continue
                if self._conflicts(nb, p):
                    seen.add(key)
                    cavity.append(nb)
                    stack.append(nb)
                else:
                    boundary.append((a, b))
        return cavity, boundary
