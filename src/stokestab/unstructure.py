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
from dataclasses import dataclass

import numpy as np

from .mesh import MeshError, require_triangles


@dataclass
class UnstructureConfig:
    r: float
    axis: str = "x"
    h: float = None          # mesh size; computed from the mesh when None

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
    """
    require_triangles(mesh, "apply_algorithm1")
    h, h_r = cfg.resolve(mesh)
    ax = 0 if cfg.axis == "x" else 1
    verts = mesh.vertices.copy()
    interior = [int(v) for v in mesh.interior_vertices()]
    scaled_back = 0
    for sweep in range(5):
        for q0 in interior:
            ring, _ = mesh.ccw_ring(q0, verts)
            d = verts[ring, ax] - verts[q0, ax]
            # spokes parked at offset exactly h_r by an earlier move may
            # read a few ulps below it; do not count those as aligned
            close = np.flatnonzero(np.abs(d) < h_r * (1.0 - 1e-9))
            if len(close) < 2:
                continue
            di = d[close[0]]
            step = -(h_r - di) if di > 0 else (h_r + di)
            if 0.0 < mesh.safe_move(verts, q0, ax, step) < 1.0:
                scaled_back += 1
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
    offending = []
    margin = np.inf
    for q0 in map(int, mesh.interior_vertices()):
        nbrs = mesh.neighbours(q0)
        d = np.abs(mesh.vertices[nbrs, ax] - mesh.vertices[q0, ax])
        d.sort()
        if len(d) >= 2:
            margin = min(margin, d[1] / h)
        if len(d) >= 2 and d[1] < h_r * (1.0 - 1e-9):
            offending.append(q0)
    return UniformityReport(passed=not offending, offending=offending,
                            margin=float(margin), h_r=h_r)
