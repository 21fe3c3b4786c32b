"""Mesh post-processing that removes axis alignments around interior vertices.

A macro-element is split by an axis-orthogonal line exactly when two of its
spokes are aligned with the axis, so the repair walks the interior vertices
and, whenever a vertex sees two almost-aligned spokes (offset below
h_r = r * h), displaces it along the axis until the first of them sits at
offset exactly h_r.  Vertices that were pushed to the h_r offset are not
touched again, which keeps the result uniformly unstructured with margin r.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .mesh import MeshError, require_triangles


@dataclass
class UnstructureConfig:
    r: float
    axis: str = "x"
    h: float = field(default=None, init=False)   # mesh size, pinned by resolve

    def __post_init__(self):
        if not 0.0 < self.r < 1.0:
            raise MeshError("unstructuring factor r must be in (0, 1)")
        if self.axis not in ("x", "y"):
            raise MeshError("axis must be 'x' or 'y'")

    def resolve(self, mesh):
        """Pin the mesh size on first use so that a repair and its later
        verification measure offsets against the same h_r."""
        if self.h is None:
            self.h = mesh.metrics().h
        return self.h, self.r * self.h


@dataclass
class UniformityReport:
    passed: bool
    offending: list           # interior vertex ids with >= 2 close spokes
    margin: float             # min over macros of second-smallest offset / h
    h_r: float


def apply_algorithm1(mesh, cfg):
    """Displace interior vertices until no macro has two near-aligned spokes.

    One sweep in ascending vertex order normally suffices; the uniformity
    check reruns the sweep (at most five times) if a displacement created a
    new alignment in an already visited macro.  Displacements that would
    invert or nearly collapse a cell are halved until the mesh stays valid,
    with a warning.

    The sweep runs one wave of `Mesh.interior_waves` at a time, as array
    operations.  A vertex's move reads only its edge neighbours (its spokes
    and its cells), and a wave holds no two neighbours and follows every
    lower-index neighbour, so the waves reproduce the ascending order
    exactly.
    """
    require_triangles(mesh, "apply_algorithm1")
    h, h_r = cfg.resolve(mesh)
    ax = 0 if cfg.axis == "x" else 1
    verts = mesh.vertices.copy()
    waves = [(q0, *mesh.padded_neighbours(q0)) for q0 in mesh.interior_waves]
    scaled_back = 0
    for sweep in range(5):
        for q0, ring, real in waves:
            d = verts[ring, ax] - verts[q0, ax][:, None]
            # spokes parked at offset exactly h_r by an earlier move may
            # read a few ulps below it; do not count those as aligned
            close = real & (np.abs(d) < h_r * (1.0 - 1e-9))
            move = np.count_nonzero(close, axis=1) >= 2
            if not move.any():
                continue
            q0, ring, d, close = q0[move], ring[move], d[move], close[move]
            # the first close spoke counterclockwise: smallest angle, ties
            # by vertex index (rows ascend), which is the order of the
            # reference `ccw_ring` in tests/stars.py
            rel = verts.take(ring, axis=0) - verts[q0][:, None]
            ang = np.where(close, np.mod(np.arctan2(rel[..., 1], rel[..., 0]),
                                         2 * np.pi), np.inf)
            first = np.argmax(ang == ang.min(axis=1, keepdims=True), axis=1)
            di = d[np.arange(len(q0)), first]
            step = np.where(di > 0, -(h_r - di), h_r + di)
            scale = mesh.safe_move(verts, q0, ax, step)
            scaled_back += int(np.count_nonzero((0.0 < scale) & (scale < 1.0)))
        out = mesh.replace_vertices(verts)
        report = verify_uniform(out, cfg)
        if report.passed:
            if scaled_back:
                warnings.warn(f"{scaled_back} displacement(s) were scaled "
                              "back to keep cells valid")
            return out
    raise MeshError("unstructuring did not converge within 5 sweeps; "
                    f"{len(report.offending)} macro(s) still aligned")


def verify_uniform(mesh, cfg):
    """Check that every interior macro has at most one spoke with axis
    offset below h_r; reports the offending vertices and the uniformity
    margin (second-smallest offset over h, minimized over macros)."""
    require_triangles(mesh, "verify_uniform")
    h, h_r = cfg.resolve(mesh)
    ax = 0 if cfg.axis == "x" else 1
    inner = mesh.interior_vertices()
    nbrs, real = mesh.padded_neighbours(inner)
    x = mesh.vertices[:, ax]
    d = np.where(real, np.abs(x[nbrs] - x[inner][:, None]), np.inf)
    # second-smallest offset; inf for vertices with fewer than two spokes
    second = (np.partition(d, 1, axis=1)[:, 1] if d.shape[1] > 1
              else np.full(len(inner), np.inf))
    offending = inner[second < h_r * (1.0 - 1e-9)].tolist()
    return UniformityReport(passed=not offending, offending=offending,
                            margin=float(np.min(second / h, initial=np.inf)),
                            h_r=h_r)
