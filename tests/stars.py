"""Builders for single macro-element meshes, and the per-vertex ring
reference, used by the tests.

A 2D star mesh is a fan of triangles around one interior vertex; a 3D star
mesh is the cone from an interior vertex over a convex simplicial surface.
The random generators keep angle gaps and radii well away from degeneracy so
that classification thresholds are never borderline by accident, and they can
force exactly aligned vertices or an exactly vanishing alternating cotangent
sum, which are the interesting singular configurations.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import ConvexHull

from stokestab.macroelement import alternating_sum, build_macroelements
from stokestab.mesh import Mesh, TRIANGLE, TETRAHEDRON, _signed_measures


def ccw_ring(mesh, v, coords=None):
    """Edge neighbours of 2D vertex v counterclockwise, from the smallest
    spoke angle (ties by vertex index), and those angles in [0, 2pi).
    coords replaces the vertex coordinates.  The star table and the repair
    sweep order every ring this way at once."""
    coords = mesh.vertices if coords is None else coords
    offsets, nbrs = mesh.vertex_neighbours
    nbrs = nbrs[offsets[v]:offsets[v + 1]]
    rel = coords[nbrs] - coords[v]
    ang = np.mod(np.arctan2(rel[:, 1], rel[:, 0]), 2 * np.pi)
    order = np.lexsort((nbrs, ang))
    return nbrs[order], ang[order]


def star_mesh_2d(ring_points, q0=(0.0, 0.0)):
    """Fan mesh around q0; ring_points must wind counterclockwise."""
    ring = np.asarray(ring_points, dtype=float)
    n = len(ring)
    verts = np.vstack([np.asarray(q0, float)[None, :], ring])
    cells = [(0, 1 + k, 1 + (k + 1) % n) for k in range(n)]
    return Mesh(2, TRIANGLE, verts, cells)


def star_macro_2d(ring_points, q0=(0.0, 0.0)):
    macros = build_macroelements(star_mesh_2d(ring_points, q0))
    assert len(macros) == 1
    return macros[0]


def random_star_2d(rng, n_v=None, aligned=0, axis="y", min_gap=0.35):
    """Random fan with n_v ring vertices and `aligned` of them exactly on
    the splitting axis through q0 (0, 1 or 2)."""
    if n_v is None:
        n_v = int(rng.integers(4, 9))
    assert aligned <= 2
    for _ in range(200):
        gaps = rng.uniform(min_gap, 1.0, size=n_v)
        ang = np.cumsum(gaps) / gaps.sum() * 2 * np.pi
        ang = np.mod(ang + rng.uniform(0, 2 * np.pi), 2 * np.pi)
        ang.sort()
        if np.min(np.diff(np.concatenate([ang, [ang[0] + 2 * np.pi]]))) < min_gap / 2:
            continue
        base = 0.0 if axis == "y" else np.pi / 2
        if aligned >= 1:
            ang[int(rng.integers(n_v))] = base
        if aligned == 2:
            k = int(rng.integers(n_v))
            while abs(np.mod(ang[k] - base, 2 * np.pi)) < 1e-9:
                k = int(rng.integers(n_v))
            ang[k] = np.mod(base + np.pi, 2 * np.pi)
        ang = np.sort(np.mod(ang, 2 * np.pi))
        d = np.diff(np.concatenate([ang, [ang[0] + 2 * np.pi]]))
        if d.min() < min_gap / 2 or d.max() > np.pi - 0.05:
            continue
        r = rng.uniform(0.6, 1.4, size=n_v)
        pts = np.column_stack([r * np.cos(ang), r * np.sin(ang)])
        if aligned >= 1:   # pin the aligned coordinates exactly
            if axis == "y":
                pts[np.abs(np.sin(ang)) < 1e-12, 1] = 0.0
            else:
                pts[np.abs(np.cos(ang)) < 1e-12, 0] = 0.0
        return star_macro_2d(pts)
    raise RuntimeError("could not draw a well-separated random star")


def symmetric_hexagon(a=1.0, b=0.5):
    """Centrally symmetric 6-ring with equal cell areas; its alternating
    cotangent sum vanishes exactly."""
    pts = [(a, b), (0.0, 2 * b), (-a, b), (-a, -b), (0.0, -2 * b), (a, -b)]
    return star_macro_2d(pts)


def _fan_s(pts, axis):
    """s_condition of star_macro_2d(pts) from the fan's coordinates, nan if
    a cell turns clockwise.  As in the star table the ring goes by angle in
    [0, 2pi), ties by vertex, so a vertex crossing angle 0 rotates it."""
    n = len(pts)
    k = np.arange(1, n + 1)
    measures = _signed_measures(np.vstack([np.zeros(2), pts]),
                                np.column_stack([0 * k, k, k % n + 1]))
    if (measures <= 0).any():
        return np.nan
    angles = np.mod(np.arctan2(pts[:, 1], pts[:, 0]), 2 * np.pi)
    order = np.lexsort((k, angles))
    return alternating_sum(angles[order], measures[order], axis)


def random_s_zero_star(rng, n_v=6, axis="y"):
    """Random even star tuned by bisection until the alternating sum
    vanishes to machine precision.  Returns None when the drawn geometry
    admits no sign change.  The probes read the fan's coordinates; only the
    returned star is built as a mesh."""
    assert n_v % 2 == 0
    for _ in range(50):
        macro = random_star_2d(rng, n_v=n_v, aligned=0, axis=axis)
        ring = macro.ring_coords().copy()
        k = int(rng.integers(n_v))
        ang = macro.angles
        lo = ang[k - 1] + 0.08 if k > 0 else ang[n_v - 1] - 2 * np.pi + 0.08
        hi = ang[(k + 1) % n_v] - 0.08 if k + 1 < n_v else ang[0] + 2 * np.pi - 0.08
        if hi - lo < 0.2:
            continue
        r = np.linalg.norm(ring[k])

        def fan(theta):
            pts = ring.copy()
            pts[k] = (r * np.cos(theta), r * np.sin(theta))
            return pts

        def s_of(theta):
            if abs(np.sin(theta)) < 1e-7 or abs(np.cos(theta)) < 1e-7:
                return np.nan
            return _fan_s(fan(theta), axis)

        grid = np.linspace(lo + 1e-3, hi - 1e-3, 40)
        vals = np.array([s_of(t) for t in grid])
        ok = np.isfinite(vals)
        idx = np.flatnonzero((np.sign(vals[1:]) != np.sign(vals[:-1]))
                             & ok[1:] & ok[:-1])
        if not len(idx):
            continue
        a_, b_ = grid[idx[0]], grid[idx[0] + 1]
        for _ in range(200):
            mid = 0.5 * (a_ + b_)
            sm = s_of(mid)
            if sm == 0.0 or np.isnan(sm):
                break
            if np.sign(sm) == np.sign(vals[idx[0]]):
                a_ = mid
            else:
                b_ = mid
        mid = 0.5 * (a_ + b_)
        if np.isfinite(s_of(mid)):
            return star_macro_2d(fan(mid))
    return None


# ----------------------------------------------------------------------
# 3D stars
# ----------------------------------------------------------------------

def star_mesh_3d(surface_points, q0=(0.0, 0.0, 0.0)):
    """Cone from q0 over the convex hull of the given points.

    q0 must lie strictly inside the hull; the hull facets become the outer
    faces and every tet contains q0, so the mesh is the star of one interior
    vertex.
    """
    pts = np.asarray(surface_points, dtype=float)
    hull = ConvexHull(pts)
    used = np.unique(hull.simplices)
    remap = {int(o): k + 1 for k, o in enumerate(used)}
    verts = np.vstack([np.asarray(q0, float)[None, :], pts[used]])
    cells = [[0] + [remap[int(v)] for v in tri] for tri in hull.simplices]
    return Mesh(3, TETRAHEDRON, verts, cells)


def star_macro_3d(surface_points, q0=(0.0, 0.0, 0.0)):
    mesh = star_mesh_3d(surface_points, q0)
    macros = build_macroelements(mesh)
    assert len(macros) == 1
    return macros[0]


def random_star_3d(rng, n_pts=12, jitter=1.0):
    """Generic tet star: hull of random points on a jittered sphere."""
    for _ in range(60):
        v = rng.normal(size=(n_pts, 3))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        v *= rng.uniform(0.8, 1.2 * jitter, size=(n_pts, 1))
        try:
            macro = star_macro_3d(v)
        except Exception:
            continue
        if macro.mesh.cell_measures().min() > 1e-4:
            return macro
    raise RuntimeError("could not draw a valid random tet star")


def meridian_star_3d(rng, azimuths, fillers_per_wedge=2, axis=2):
    """Tet star split by exactly one semi-plane per given azimuth.

    Explicit construction: two staggered azimuth rings (upper and lower)
    around the axis plus the two pole vertices.  A semi-plane through the
    axis line at azimuth t splits the star exactly when both rings carry a
    vertex at t (the vertical faces then chain from pole to pole), so the
    splitting set is the azimuth list and nothing else: wedge filler
    azimuths are staggered between the rings.
    """
    azimuths = np.sort(np.mod(np.asarray(azimuths, dtype=float), 2 * np.pi))
    if len(azimuths) and np.min(np.diff(np.concatenate(
            [azimuths, [azimuths[0] + 2 * np.pi]]))) < 0.3:
        raise ValueError("azimuths too close together")

    # cyclic rings need at least 3 distinct points
    if len(azimuths) == 0:
        fillers_per_wedge = max(fillers_per_wedge, 3)
    upper_az, lower_az = list(azimuths), list(azimuths)
    bounds = list(azimuths) if len(azimuths) else [0.0]
    # fill each wedge with strictly interleaved upper/lower azimuths; long
    # same-ring runs would make the azimuth-merge band triangulation fold
    # over itself
    for k in range(len(bounds)):
        lo = bounds[k]
        hi = bounds[(k + 1) % len(bounds)]
        if hi <= lo:
            hi += 2 * np.pi
        grid = np.linspace(lo, hi, 2 * fillers_per_wedge + 2)[1:-1]
        gap = (hi - lo) / (2 * fillers_per_wedge + 1)
        grid = grid + rng.uniform(-0.2 * gap, 0.2 * gap, size=len(grid))
        upper_az += list(grid[0::2])
        lower_az += list(grid[1::2])
    upper_az = np.sort(np.mod(upper_az, 2 * np.pi))
    lower_az = np.sort(np.mod(lower_az, 2 * np.pi))

    def ring(azs, polar_lo, polar_hi):
        th = rng.uniform(polar_lo, polar_hi, size=len(azs))
        r = rng.uniform(0.9, 1.1, size=len(azs))
        return np.column_stack([r * np.sin(th) * np.cos(azs),
                                r * np.sin(th) * np.sin(azs),
                                r * np.cos(th)])

    U = ring(upper_az, 0.3 * np.pi, 0.42 * np.pi)
    L = ring(lower_az, 0.58 * np.pi, 0.7 * np.pi)
    north = np.array([0.0, 0.0, rng.uniform(0.9, 1.1)])
    south = np.array([0.0, 0.0, -rng.uniform(0.9, 1.1)])

    verts = [np.zeros(3), north, south] + list(U) + list(L)
    iu = lambda k: 3 + int(k % len(U))
    il = lambda k: 3 + len(U) + int(k % len(L))
    cells = []
    for k in range(len(U)):
        cells.append((0, 1, iu(k), iu(k + 1)))
    for k in range(len(L)):
        cells.append((0, 2, il(k), il(k + 1)))
    # zip the band between the rings: walk events by azimuth (upper first on
    # ties so the diagonal lies exactly in the shared half-plane) and emit
    # one triangle per event against the current vertex of the other ring
    events = sorted([(a, "u", k) for k, a in enumerate(upper_az)]
                    + [(a, "l", k) for k, a in enumerate(lower_az)],
                    key=lambda t: (t[0], t[1] == "l"))
    m = len(events)
    last_u = [0] * m
    last_l = [0] * m
    cu = cl = None
    for _ in range(2):
        for e in range(m):
            _, kind, idx = events[e]
            if kind == "u":
                cu = idx
            else:
                cl = idx
            last_u[e], last_l[e] = cu, cl
    for e in range(m):
        _, kind, idx = events[e]
        pu, pl = last_u[e - 1], last_l[e - 1]
        if kind == "u":
            cells.append((0, iu(pu), iu(idx), il(pl)))
        else:
            cells.append((0, il(pl), il(idx), iu(pu)))
    pts = np.asarray(verts)
    if axis == 0:
        pts = pts[:, [2, 0, 1]]
    elif axis == 1:
        pts = pts[:, [0, 2, 1]]
    mesh = Mesh(3, TETRAHEDRON, pts, cells)
    macros = build_macroelements(mesh)
    assert len(macros) == 1
    return macros[0]
