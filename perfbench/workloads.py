"""The benchmark workloads.

Each workload builds its inputs from the run seed, then repeats identical
rounds.  A round is a fixed list of operations (one inf-sup computation, one
macro x combination verdict, one solve, or one prepared mesh).  An
operation fails when the library raises, reports non-convergence, or
returns output that a check in `checks` rejects.

Library calls go through module attributes (`smesh.gen_zigzag`, ...) so that
the tracer's wrappers see them.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import stokestab.infsup as sinfsup
import stokestab.macroelement as smacro
import stokestab.mesh as smesh
import stokestab.scenarios as sscen
import stokestab.stokes as sstokes
import stokestab.unstructure as sunstr
from stokestab.unstructure import UnstructureConfig

import checks as ck


@dataclass
class Op:
    name: str
    value: object = None
    error: str = None


@dataclass
class Round:
    ops: list = field(default_factory=list)
    work_s: float = 0.0          # time in the layer the throughput measures
    work_units: int = 0          # pressure dofs, pairs, unknowns or cells
    context: dict = field(default_factory=dict)   # inputs the checks need

    def attempt(self, name, fn, *args, **kwargs):
        """Run one library call; an exception fails this operation only."""
        try:
            value = fn(*args, **kwargs)
        except Exception as exc:  # a failing call is data, the round goes on
            self.ops.append(Op(name, None, f"{type(exc).__name__}: {exc}"))
            return None
        self.ops.append(Op(name, value))
        return value


def derived_seed(seed, tag):
    """Library seed for one input, drawn from the run seed."""
    ss = np.random.SeedSequence([int(seed) % 2 ** 63, sum(map(ord, tag))])
    return int(ss.generate_state(1)[0] % (2 ** 31))


# ----------------------------------------------------------------------

class InfsupDecay:
    """beta_h of p2-p1:p1 along the decay family and on the exact structured
    grid it tends to, and of p1b-p1:p1 on a structured 16x16 grid and its
    repaired copy.

    Level 1 of the family (3x3 cells, 40% jitter) is left out: its beta
    depends so much on the jitter that it falls below level 2 for about a
    third of all seeds, so "beta decreases" would fail on some seeds only.
    Levels 4 and 5 (n_p = 1024 and 4096) are replaced by the exact
    structured 20x20 grid (n_p = 441) the family tends to: one call on them
    takes 0.6-0.8 s and 10-14 s, so a run would hold two or three rounds
    and its figures would move by up to a fifth from run to run.
    """

    name = "infsup-decay"
    LEVELS = (2, 3)
    LIMIT = 20                  # intervals of the exact structured grid
    DENSE_LIMIT = 1100          # largest n_p checked against the dense solve

    def __init__(self, seed, cfg, scratch):
        self.seed = derived_seed(seed, self.name)
        self.cfg = cfg
        self._reference = {}

    def warmup(self):
        sinfsup.infsup_constant(sscen.decay_family_mesh(2, self.seed),
                                "p2-p1:p1", k=3)

    def run(self):
        rnd = Round()
        meshes = []
        for level in self.LEVELS:
            mesh = sscen.decay_family_mesh(level, self.seed)
            meshes.append((f"decay{level}", mesh, "p2-p1:p1",
                           2 ** (level + 1) - 1))
        meshes.append((f"structured{self.LIMIT}",
                       smesh.gen_structured_tri(self.LIMIT, self.LIMIT),
                       "p2-p1:p1", self.LIMIT))
        grid = smesh.gen_structured_tri(16, 16)
        repaired = sunstr.apply_algorithm1(grid, UnstructureConfig(0.15, "y"))
        meshes += [("structured16", grid, "p1b-p1:p1", 16),
                   ("repaired16", repaired, "p1b-p1:p1", None)]
        for tag, mesh, combo, layers in meshes:
            t0 = perf_counter()
            res = rnd.attempt(tag, sinfsup.infsup_constant, mesh, combo, k=3)
            rnd.work_s += perf_counter() - t0
            if res is not None:
                rnd.work_units += res.n_pressure
                rnd.ops[-1].value = (res, mesh, combo, layers)
        return rnd

    def check(self, rnd):
        bad = {}
        betas = {}
        for op in rnd.ops:
            if op.error:
                continue
            res, mesh, combo, layers = op.value
            beta = res.beta
            betas[op.name] = beta
            if not res.converged:
                bad[op.name] = "eigensolver did not converge"
            elif not 0.0 <= beta <= 1.0:
                bad[op.name] = f"beta {beta} outside [0, 1]"
            elif reason := self._check_one(op.name, res, mesh, combo, layers):
                bad[op.name] = reason
        tags = [f"decay{lv}" for lv in self.LEVELS]
        tags.append(f"structured{self.LIMIT}")
        decay = [betas.get(tag) for tag in tags]
        if None not in decay:
            ratio_max = float(self.cfg["test7"]["beta_level1_ratio_max"])
            if any(a <= b for a, b in zip(decay, decay[1:])):
                for tag in tags:
                    bad.setdefault(tag, f"betas not decreasing {decay}")
            elif decay[0] <= 0 or decay[-1] / decay[0] > ratio_max:
                bad.setdefault(tags[-1], f"beta ratio to level 2 above "
                                         f"{ratio_max}")
        if "repaired16" in betas:
            lim = float(self.cfg["test4"]["beta_after_min"])
            if betas["repaired16"] < lim:
                bad.setdefault("repaired16", f"beta below {lim}")
        if "structured16" in betas:
            lim = float(self.cfg["test4"]["beta_before_max"])
            if betas["structured16"] > lim:
                bad.setdefault("structured16", f"beta above {lim}")
        return bad

    def _check_one(self, tag, res, mesh, combo, layers):
        sys_ = sstokes.assemble(mesh, combo)
        free = np.concatenate([~m for m in sys_.bc_mask])
        B = sys_.B[:, free].tocsr()
        structured = tag.startswith("structured")
        if layers is not None:
            q = ck.layered_pressure(mesh.vertices, layers)
            if ck.annihilates(B, q):
                if res.beta != 0.0:
                    return "layered pressure is a spurious mode but beta > 0"
            elif structured:
                return "layered pressure is not a spurious mode"
        if res.n_pressure > self.DENSE_LIMIT:
            return None
        if tag not in self._reference:
            A = sys_.A[free][:, free]
            self._reference[tag] = ck.deflated_spectrum(A, B, sys_.Mp.tocsr())
        ref = self._reference[tag]
        lam, lam_ref = float(res.spectrum[0]), float(ref[0])
        if lam_ref <= 1e-10 * float(ref[-1]):
            return None if res.beta == 0.0 else "beta > 0 on a singular pencil"
        if abs(lam - lam_ref) > 1e-8 * lam_ref:
            return f"lambda_min {lam:.15g} vs dense {lam_ref:.15g}"
        return None


# ----------------------------------------------------------------------

_COMBOS_2D = ("p1b-p1:p1", "p1-p1b:p1", "p2-p1:p1", "p1-p2:p1")
_COMBOS_3D = ("p1-p1-p1b:p1", "p1b-p1-p1:p1", "p1-p1b-p1b:p1")


class MacroOracle:
    """Closed-form verdict, numeric local nullspace and witness pressure for
    every interior macro x combination."""

    name = "macro-oracle"
    N2D = 8
    LAYERS = 2

    def __init__(self, seed, cfg, scratch):
        self.seed = derived_seed(seed, self.name)
        self.cfg = cfg

    def warmup(self):
        grid = smesh.gen_structured_tri(3, 3)
        macro = smacro.build_macroelements(grid)[0]
        for combo in _COMBOS_2D:
            sinfsup.local_nullspace(macro, combo)
        tet = smesh.gen_extruded_tet(smesh.gen_structured_tri(2, 2), 2)
        macro = smacro.build_macroelements(tet)[0]
        sinfsup.local_nullspace(macro, _COMBOS_3D[0])

    def _meshes(self):
        n = self.N2D
        jitter = smesh.gen_perturbed(smesh.gen_structured_tri(n, n), 0.3 / n,
                                     self.seed)
        # test6 also repairs this base along x; that second sweep fails to
        # converge for about 6% of seeds, so the base is repaired along y only
        base = sscen.unstructured_family_mesh(3, self.seed)
        return [
            ("structured", smesh.gen_structured_tri(n, n), _COMBOS_2D),
            ("zigzag", smesh.gen_zigzag(n, n), _COMBOS_2D),
            ("repaired", sunstr.apply_algorithm1(
                jitter, UnstructureConfig(0.15, "y")), _COMBOS_2D),
            ("extruded", smesh.gen_extruded_tet(base, self.LAYERS), _COMBOS_3D),
            ("rectangle", smesh.gen_quad_macro(), ("q2-q1:q1",)),
        ]

    def run(self):
        rnd = Round()
        meshes = self._meshes()
        t0 = perf_counter()
        for tag, mesh, combos in meshes:
            macros = smacro.build_macroelements(mesh)
            rnd.context[tag] = (len(macros), mesh)
            for macro in macros:
                for combo in combos:
                    rnd.attempt(f"{tag}:{macro.center}:{combo}", self._pair,
                                macro, combo)
        rnd.work_s = perf_counter() - t0
        rnd.work_units = len(rnd.ops)
        return rnd

    @staticmethod
    def _pair(macro, combo):
        if combo == "q2-q1:q1":
            verdict = None
        elif macro.dim == 3:
            verdict = smacro.predict_regularity_3d(macro, combo)
        else:
            verdict = smacro.predict_regularity(macro, combo)
        ns = sinfsup.local_nullspace(macro, combo)
        witness = None
        if verdict is not None and not verdict.regular:
            witness = sinfsup.analytic_singular_pressure(macro, combo)
        return macro, verdict, ns, witness

    def check(self, rnd):
        bad = {}
        quad_max = float(self.cfg["q2q1q1"]["max_residual"])
        quad_dim = float(self.cfg["q2q1q1"]["min_nullspace_dim"])
        for tag, (count, mesh) in rnd.context.items():
            quad = mesh.cell_kind == smesh.QUADRILATERAL
            own = mesh.num_vertices - len(ck.boundary_vertices(mesh.cells,
                                                                quad))
            if own != count:
                for op in rnd.ops:
                    if op.name.startswith(tag + ":"):
                        bad[op.name] = f"{count} macros, {own} interior vertices"
        for op in rnd.ops:
            if op.error or op.name in bad:
                continue
            macro, verdict, ns, witness = op.value
            tag, _, combo = op.name.split(":", 2)
            if verdict is None:
                p = np.abs(macro.mesh.vertices[macro.vertex_ids()][:, 1])
                res = ck.local_residual(ns.matrix, ns.singular_values, p)
                if ns.dim < quad_dim or res > quad_max:
                    bad[op.name] = f"|y| pressure dim {ns.dim} residual {res:.2e}"
                continue
            if verdict.regular != (ns.dim == 0):
                bad[op.name] = (f"predicted {verdict.predicted}, numeric "
                                f"nullspace dim {ns.dim}")
            elif (tag == "structured" and combo in ("p1b-p1:p1", "p2-p1:p1")
                  and verdict.regular):
                bad[op.name] = "structured macro predicted regular"
            elif witness is not None:
                res = ck.local_residual(ns.matrix, ns.singular_values,
                                        np.asarray(witness, float))
                if res > 1e-11:
                    bad[op.name] = f"witness residual {res:.2e}"
        return bad


# ----------------------------------------------------------------------

class SaddleSolve:
    """Mesh preparation, a p1b-p1:p1 manufactured-solution convergence study
    on levels 4-6 and three 32x32 lid cavities (p1b-p1:p1 Dirichlet lid on
    the zigzag grid, p1b-p1:p1 traction lid and p2-p1:p1 Dirichlet lid on
    level 5).

    Mesh preparation builds unstructured_family_mesh levels 4-6 step by step
    (grid, jitter, repair) and reads each back from an MSH file, as a user
    would, plus the 32x32 zigzag grid; it is timed in the round but not in
    the solve phase.  The cavities stay at 32x32 so that a run holds many
    rounds; the study keeps level 6, since on levels 3-5 the L2 order of p
    leaves the test3 window on some seeds.  The p2-p1:p1 convergence study
    is left out: its last-interval H1 order of u leaves the test8 window
    [0.85, 1.4] on some seeds (1.47 at most).  The p2-p1:p1 cavity keeps a
    solve that bypasses bubble condensation.
    """

    name = "saddle-solve"
    LEVELS = (4, 5, 6)
    ZIGZAG = 32
    R = 0.15
    STUDY, SECTION = "p1b-p1:p1", "test3"
    CAVITIES = (("p1b-p1:p1", "dirichlet_lid", "zigzag"),
                ("p1b-p1:p1", "neumann_lid", "family"),
                ("p2-p1:p1", "dirichlet_lid", "family"))

    def __init__(self, seed, cfg, scratch):
        self.seed = derived_seed(seed, self.name)
        self.cfg = cfg
        self.path = os.path.join(scratch, f"saddle-{os.getpid()}.msh")

    def warmup(self):
        family = [self._prepare(lv)[-1] for lv in (2, 3)]
        sstokes.convergence_study(self.STUDY, family)
        for combo, variant, _ in self.CAVITIES:
            self._cavity(smesh.gen_zigzag(4, 4), combo, variant)

    def _prepare(self, level):
        """unstructured_family_mesh(level, seed), written out and read back."""
        n = 2 ** level
        cfg = UnstructureConfig(self.R, "y")
        jitter = smesh.gen_perturbed(smesh.gen_structured_tri(n, n), 0.3 / n,
                                     self.seed + level)
        repaired = sunstr.apply_algorithm1(jitter, cfg)
        try:
            smesh.save_msh(repaired, self.path)
            loaded = smesh.load_msh(self.path)
        finally:
            if os.path.exists(self.path):
                os.remove(self.path)
        return n, jitter, cfg.h, repaired, loaded

    def run(self):
        rnd = Round()
        family = [rnd.attempt(f"mesh:level{lv}", self._prepare, lv)
                  for lv in self.LEVELS]
        family = [None if m is None else m[-1] for m in family]
        zigzag = rnd.attempt("mesh:zigzag", smesh.gen_zigzag, self.ZIGZAG,
                             self.ZIGZAG)
        solves = []
        original = sstokes.solve_penalized

        def capture(sys_, *args, **kwargs):
            sol = original(sys_, *args, **kwargs)
            solves.append((sys_, sol))
            return sol

        # convergence_study keeps its solutions to itself; the capture hands
        # them to the checks at the cost of one Python call per solve.
        sstokes.solve_penalized = capture
        try:
            t0 = perf_counter()
            try:
                rep, error = sstokes.convergence_study(self.STUDY, family), None
            except Exception as exc:  # fails the study's solves only
                rep, error = None, f"{type(exc).__name__}: {exc}"
            for k, lv in enumerate(self.LEVELS):
                if error is None and k < len(solves):
                    rnd.ops.append(Op(f"study:level{lv}", (rep,) + solves[k]))
                else:
                    rnd.ops.append(Op(f"study:level{lv}", None,
                                      error or "solve not captured"))
            for combo, variant, where in self.CAVITIES:
                mesh = zigzag if where == "zigzag" else family[-2]
                rnd.attempt(f"cavity:{combo}:{variant}", self._cavity, mesh,
                            combo, variant)
            rnd.work_s = perf_counter() - t0
        finally:
            sstokes.solve_penalized = original
        for op in rnd.ops:
            if op.value is not None and not op.name.startswith("mesh:"):
                sys_ = op.value[-2]
                rnd.work_units += int(sum((~m).sum() for m in sys_.bc_mask)
                                      + sys_.Mp.shape[0])
        return rnd

    @staticmethod
    def _cavity(mesh, combo, variant):
        sys_ = sstokes.cavity_problem(mesh, combo, variant)
        return variant, sys_, sstokes.solve_penalized(sys_)

    def check(self, rnd):
        bad = {}
        int_p_max = float(self.cfg["test1"]["max_abs_int_p"])
        study = []
        for op in rnd.ops:
            if op.error:
                continue
            kind = op.name.split(":")[0]
            if op.name == "mesh:zigzag":
                reason = self._check_zigzag(op.value)
            elif kind == "mesh":
                reason = self._check_family(*op.value)
            else:
                sys_, sol = op.value[-2:]
                resid = max(sol.diagnostics["residual"],
                            ck.saddle_residual(sys_, sol))
                reason = None if resid <= 1e-8 else f"residual {resid:.2e}"
                if kind == "cavity":
                    reason = reason or self._check_cavity(
                        op.value[0], sys_, sol, int_p_max)
                else:
                    study.append(op)
            if reason:
                bad[op.name] = reason
        reason = self._check_study(study) if study else None
        if reason:
            for op in study:
                bad.setdefault(op.name, reason)
        return bad

    def _check_family(self, n, jitter, h, repaired, loaded):
        if (repaired.num_vertices != (n + 1) ** 2
                or repaired.num_cells != 2 * n * n):
            return "grid counts"
        if not np.array_equal(repaired.cells, jitter.cells):
            return "repair changed the cells"
        bnd = ck.boundary_vertices(jitter.cells)
        if not np.array_equal(repaired.vertices[bnd], jitter.vertices[bnd]):
            return "repair moved boundary vertices"
        own_h = ck.max_edge_length(jitter.vertices, jitter.cells)
        if abs(own_h - h) > 1e-12 * own_h:
            return f"mesh size {h} vs {own_h}"
        close = ck.close_neighbour_counts(repaired.vertices, repaired.cells, 1,
                                          self.R * own_h * (1.0 - 1e-9))
        interior = np.setdiff1d(np.arange(repaired.num_vertices), bnd)
        if close[interior].max() > 1:
            return "a vertex has two neighbours closer than r*h"
        if not (np.array_equal(loaded.cells, repaired.cells)
                and np.array_equal(loaded.vertices, repaired.vertices)):
            return "MSH round trip changed the mesh"
        return _positive(jitter) or _positive(repaired)

    def _check_zigzag(self, mesh):
        n = self.ZIGZAG
        if mesh.num_vertices != (n + 1) ** 2 or mesh.num_cells != 2 * n * n:
            return "zigzag counts"
        interior = np.setdiff1d(np.arange(mesh.num_vertices),
                                ck.boundary_vertices(mesh.cells))
        x_al = ck.close_neighbour_counts(mesh.vertices, mesh.cells, 0, 1e-12)
        y_al = ck.close_neighbour_counts(mesh.vertices, mesh.cells, 1, 1e-12)
        if np.any(x_al[interior] != 2) or np.any(y_al[interior] != 0):
            return "herringbone alignment pattern broken"
        return _positive(mesh)

    def _check_study(self, ops):
        last = ops[0].value[0].orders()[-1]
        for key, lim in self.cfg[self.SECTION].items():
            base, kind = key.rsplit("_", 1)
            _, norm, comp = base.split("_")
            val = float(last[f"order_{norm.upper()}_{comp}"])
            if (val < float(lim)) if kind == "min" else (val > float(lim)):
                return f"{key}: order {val:.3f} vs {lim}"
        errors = []
        for op in ops:
            sys_, sol = op.value[1], op.value[2]
            nv = sys_.mesh.num_vertices
            u, v = ck.trig_exact(sys_.mesh.vertices)
            errors.append(max(np.abs(sol.velocity[0][:nv] - u).max(),
                              np.abs(sol.velocity[1][:nv] - v).max()))
        if any(a <= b for a, b in zip(errors, errors[1:])):
            return f"nodal errors do not fall with h: {errors}"
        return None

    @staticmethod
    def _check_cavity(variant, sys_, sol, int_p_max):
        mesh = sys_.mesh
        nv = mesh.num_vertices
        x, y = mesh.vertices[:, 0], mesh.vertices[:, 1]
        bnd = np.zeros(nv, dtype=bool)
        bnd[ck.boundary_vertices(mesh.cells)] = True
        lid = bnd & (y == y.max()) & (x > x.min()) & (x < x.max())
        u, v = sol.velocity[0][:nv], sol.velocity[1][:nv]
        if variant == "dirichlet_lid":
            if not (np.all(u[lid] == 1.0) and np.all(u[bnd & ~lid] == 0.0)):
                return "lid values of u not imposed"
        elif not np.all(u[bnd & ~lid] == 0.0):
            return "wall values of u not imposed"
        if not np.all(v[bnd] == 0.0):
            return "boundary values of v not imposed"
        if abs(sol.diagnostics["int_p"]) > int_p_max:
            return f"int_p {sol.diagnostics['int_p']:.2e}"
        return None


def _positive(mesh):
    m = ck.signed_measures(mesh.vertices, mesh.cells)
    return None if np.all(m > 0) else f"{int((m <= 0).sum())} inverted cells"


WORKLOADS = {w.name: w for w in (InfsupDecay, MacroOracle, SaddleSolve)}
