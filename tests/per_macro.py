"""The per-macro predicates, 3D split analysis and witness pressures that
the per-mesh passes of `stokestab.macroelement` and `stokestab.infsup`
replaced, one star at a time, kept as the reference the parity tests
compare against.  They read no axis, split or verdict pass: the 3D splits
come from a union-find over each star's faces.

They answer the split-rule combinations of `macroelement._SPLITS` (2D
bubble and quadratic, 3D plane and semi-planes) and q2-q1:q1 on rectangle
meshes, and raise FESpaceError for the others.
"""

from __future__ import annotations

import numpy as np

from stokestab.fespace import FECombo, FESpaceError, Q1, Q2
from stokestab.macroelement import (RegularityVerdict, StructureFlags,
                                    build_macroelements, _ALIGN_TOL, _SPLITS,
                                    _S_TOL)
from stokestab.mesh import QUADRILATERAL


def aligned_count(macro, axis):
    """Ring vertices level with q0 along the axis index `axis`."""
    off = macro.ring_coords()[:, axis] - macro.q0[axis]
    return int((np.abs(off) <= _ALIGN_TOL * macro.diameter()).sum())


def alternating_sum(angles, areas, axis="y"):
    """The alternating cotangent (axis 'y') or tangent sum, spoke by spoke."""
    if axis == "y":
        cot = np.cos(angles) / np.sin(angles)
    else:
        cot = np.sin(angles) / np.cos(angles)
    s = 0.0
    for k in range(len(angles)):
        pair = 1.0 / areas[k - 1] + 1.0 / areas[k]
        s += (-1.0) ** (k + 1) * cot[k] * pair
    return float(s)


def classify_2d(macro):
    n_x, n_y = aligned_count(macro, 0), aligned_count(macro, 1)
    sins = np.sort(np.abs(np.sin(macro.angles)))
    coss = np.sort(np.abs(np.cos(macro.angles)))
    return StructureFlags(
        x_structured=n_x >= 2,
        y_structured=n_y >= 2,
        min_sin=float(sins[1:].min()) if len(sins) > 1 else float(sins[0]),
        min_cos=float(coss[1:].min()) if len(coss) > 1 else float(coss[0]),
        aligned_count_x=n_x,
        aligned_count_y=n_y,
    )


def predict_regularity(macro, combo):
    combo = FECombo.parse(combo)
    rule = _SPLITS.get(combo)
    if macro.dim != 2 or combo.dim != 2 or rule is None \
            or rule[0] not in ("bubble", "quadratic"):
        raise FESpaceError(f"unsupported combo {combo} for 2D prediction")
    kind, axis = rule
    n_aligned = aligned_count(macro, axis)
    if n_aligned >= 2:
        return RegularityVerdict("singular", "two-aligned")
    if n_aligned == 1:
        return RegularityVerdict("regular", "one-aligned")
    if kind == "bubble":
        return RegularityVerdict("regular", "no-aligned")
    if macro.n_v % 2 == 1:
        return RegularityVerdict("regular", "odd-nV")
    s = alternating_sum(macro.angles, macro.areas, "xy"[axis])
    if abs(s) <= _S_TOL * float(np.sum(1.0 / macro.areas)):
        return RegularityVerdict("singular", "even-nV-S-zero")
    return RegularityVerdict("regular", "even-nV-S-nonzero")


def structure_report(mesh, combos=()):
    combos = [FECombo.parse(c) for c in combos]
    header = ["vertex", "n_v", "x_structured", "y_structured"]
    if mesh.dim == 3:
        header += ["z_structured", "semi_planes"]
    else:
        header += ["aligned_x", "aligned_y", "min_sin", "min_cos",
                   "abs_s_scaled"]
    header += [f"verdict_{c}" for c in combos]
    rows = []
    for macro in build_macroelements(mesh):
        if mesh.dim == 3:
            flags = classify_3d(macro)
            row = [int(macro.center), macro.n_v, int(flags.x_structured),
                   int(flags.y_structured), int(flags.z_structured),
                   flags.semi_plane_count]
            predict = predict_regularity_3d
        else:
            flags = classify_2d(macro)
            if flags.aligned_count_x == 0 and flags.aligned_count_y == 0 \
                    and macro.n_v % 2 == 0:
                s_scaled = (abs(alternating_sum(macro.angles, macro.areas))
                            / float(np.sum(1.0 / macro.areas)))
            else:
                s_scaled = ""
            row = [int(macro.center), macro.n_v, int(flags.x_structured),
                   int(flags.y_structured), flags.aligned_count_x,
                   flags.aligned_count_y, flags.min_sin, flags.min_cos,
                   s_scaled]
            predict = predict_regularity
        for c in combos:
            row.append(predict(macro, c).predicted)
        rows.append(row)
    return header, rows


def components(cells, edges):
    """The connected component of each cell, by union-find over the edges
    (pairs of cells)."""
    idx = {int(c): k for k, c in enumerate(cells)}
    parent = list(range(len(idx)))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a, b in edges:
        ra, rb = find(idx[a]), find(idx[b])
        if ra != rb:
            parent[ra] = rb
    return {int(c): find(idx[c]) for c in cells}


def star_splits(macro, axis, tol=1e-9):
    """One tet star at a time with a union-find: the plane split and the
    splitting semi-planes about `axis`, directions grouped greedily, as
    (plane split, semi-plane count, aligned, directions)."""
    mesh, q0, diam = macro.mesh, macro.q0, macro.diameter()
    fs = mesh.cell_facets[macro.cells].ravel()
    _, first = np.unique(fs, return_index=True)
    fs = fs[np.sort(first)]
    pairs = mesh.facet_cells[fs]
    inner = np.isin(pairs, macro.cells).all(axis=1)
    faces = list(zip(mesh.facets[fs[inner]].tolist(), pairs[inner].tolist()))

    keep = [pair for f, pair in faces
            if not np.all(np.abs(mesh.vertices[f][:, axis] - q0[axis])
                          <= tol * diam)]
    comp = components(macro.cells, keep)
    plane_split = len(set(comp.values())) > 1

    b, c = [k for k in range(3) if k != axis]
    flat_faces, nonflat = [], []
    for f, pair in faces:
        others = [v for v in f if v != macro.center]
        u1 = mesh.vertices[others[0]][[b, c]] - q0[[b, c]]
        u2 = mesh.vertices[others[1]][[b, c]] - q0[[b, c]]
        det = u1[0] * u2[1] - u1[1] * u2[0]
        n1, n2 = np.linalg.norm(u1), np.linalg.norm(u2)
        eps = tol * diam
        if abs(det) > tol * diam ** 2 or (n1 <= eps and n2 <= eps):
            nonflat.append(pair)
            continue
        if n1 <= eps or n2 <= eps:
            u = u1 if n1 > eps else u2
            dirs = [np.arctan2(u[1], u[0])]
        elif float(u1 @ u2) >= 0:
            u = u1 / n1 + u2 / n2
            dirs = [np.arctan2(u[1], u[0])]
        else:
            dirs = [np.arctan2(u1[1], u1[0]), np.arctan2(u2[1], u2[0])]
        flat_faces.append((pair, [float(np.mod(d, 2 * np.pi)) for d in dirs]))
    comp = components(macro.cells, nonflat)
    groups = {}
    for pair, dirs in flat_faces:
        for d in dirs:
            key = next((k for k in groups
                        if min(abs(d - k), 2 * np.pi - abs(d - k)) <= tol), d)
            groups.setdefault(key, []).append(pair)
    splitting = sorted(k for k, ps in groups.items()
                       if any(comp[c1] != comp[c2] for c1, c2 in ps))
    aligned = len(splitting) == 2 \
        and abs(abs(splitting[0] - splitting[1]) - np.pi) <= tol
    return plane_split, len(splitting), aligned, tuple(splitting)


def classify_3d(macro):
    (x, *_), (y, *_), (z, count, aligned, _) = (star_splits(macro, a)
                                                for a in range(3))
    return StructureFlags(x_structured=x, y_structured=y, z_structured=z,
                          semi_plane_count=count, semi_planes_aligned=aligned)


def predict_regularity_3d(macro, combo):
    combo = FECombo.parse(combo)
    rule = _SPLITS.get(combo)
    if macro.dim != 3 or combo.dim != 3 or rule is None:
        raise FESpaceError(f"unsupported combo {combo} for 3D prediction")
    kind, axis = rule
    split, count, aligned, _ = star_splits(macro, axis)
    if kind == "plane":
        if split:
            return RegularityVerdict("singular", "3d-axis-split")
        return RegularityVerdict("regular", "3d-axis-unsplit")
    if count == 0:
        return RegularityVerdict("regular", "3d-semiplane-case-1")
    if count == 2 and not aligned:
        return RegularityVerdict("regular", "3d-semiplane-case-2")
    if count == 2:
        return RegularityVerdict("singular", "3d-semiplane-case-2")
    if count == 1:
        return RegularityVerdict("regular", "3d-semiplane-single")
    return RegularityVerdict("singular", "3d-semiplane-case-3")


def split_profile(macro, direction):
    """-(d)/|M+| on the positive side of the splitting hyperplane and
    +(d)/|M-| on the other, d the signed offset from q0 along the given
    direction (an axis index or a vector)."""
    if np.isscalar(direction):
        vec = np.zeros(macro.dim)
        vec[int(direction)] = 1.0
    else:
        vec = np.asarray(direction, float)
        vec = vec / np.linalg.norm(vec)
    sub_vertices = macro.mesh.vertices[macro.vertex_ids()]
    q0 = macro.q0
    off = (sub_vertices - q0) @ vec
    tol = 1e-12 * macro.diameter()
    meas = macro.areas
    centroid_off = (macro.mesh.vertices[macro.mesh.cells[macro.cells]]
                    .mean(axis=1) - q0) @ vec
    a_plus = float(meas[centroid_off > 0].sum())
    a_minus = float(meas[centroid_off < 0].sum())
    return np.where(off > tol, -off / a_plus,
                    np.where(off < -tol, off / a_minus, 0.0))


def s_zero_pressure(macro, axis):
    """Nullspace pressure for an even unaligned ring with vanishing
    alternating sum about the axis index `axis`."""
    n = macro.n_v
    ring = macro.ring_coords() - macro.q0
    if axis == 0:
        ring = ring[:, ::-1]
    areas = macro.areas
    ahat = np.array([1.0 / areas[k] + 1.0 / areas[k - 1] for k in range(n)])
    cot = ring[:, 0] / ring[:, 1]
    A = np.zeros((n + 1, n + 1))
    for k in range(n):
        A[k, k] = 1.0
        A[k, (k - 1) % n] = -1.0
        A[k, n] = ((-1.0) ** k) * cot[k] * ahat[k]
    A[n, :n] = areas
    _, s, Vt = np.linalg.svd(A)
    sol = Vt[-1]
    c, beta = sol[:n], sol[n]
    b = np.array([((-1.0) ** j) * beta / areas[j] for j in range(n)])
    vals = np.empty(n + 1)
    vals[0] = 0.0
    for k in range(n):
        right = b[k] * ring[k, 0] + c[k] * ring[k, 1]
        left = b[(k - 1) % n] * ring[k, 0] + c[(k - 1) % n] * ring[k, 1]
        assert abs(right - left) <= 1e-8 * (abs(right) + abs(left) + 1e-30)
        vals[1 + k] = right
    return vals


def analytic_singular_pressure(macro, combo):
    combo = FECombo.parse(combo)
    if macro.dim == 2 and macro.mesh.cell_kind == QUADRILATERAL:
        if combo.velocity != (Q2, Q1) or combo.pressure != Q1:
            raise FESpaceError(f"unsupported quad combo {combo}")
        return split_profile(macro, 1)
    predict = predict_regularity if macro.dim == 2 else predict_regularity_3d
    verdict = predict(macro, combo)
    if verdict.regular:
        return None
    kind, axis = _SPLITS[combo]
    if verdict.reason == "even-nV-S-zero":
        return s_zero_pressure(macro, axis)
    if kind != "semi-planes":
        return split_profile(macro, axis)
    _, count, aligned, dirs = star_splits(macro, axis)
    if count == 2 and aligned:
        b_ax, c_ax = [a for a in range(3) if a != axis]
        normal = np.zeros(3)
        normal[b_ax] = -np.sin(dirs[0])
        normal[c_ax] = np.cos(dirs[0])
        return split_profile(macro, normal)
    return None
