"""Named batch scenarios: generate, solve, analyze and tabulate.

Every scenario is deterministic given its seed, writes its CSV/VTK artifacts
into an output directory, and returns a result object with a one-screen
summary plus the values it measured.  With check=True, run_scenario gates
those values against the versioned bounds in data/checks.ini.
"""

from __future__ import annotations

import configparser
import inspect
import os
import re
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .infsup import (infsup_constant, local_nullspace, nullspace_residual,
                     oracle_report)
from .macroelement import build_macroelements
from .mesh import (StokestabError, _check_seed, gen_extruded_tet,
                   gen_perturbed, gen_quad_macro, gen_structured_cube,
                   gen_structured_tri, gen_zigzag, save_msh, save_vtk,
                   write_csv)
from .stokes import cavity_problem, convergence_study, solve_penalized
from .unstructure import UnstructureConfig, apply_algorithm1, verify_uniform


@dataclass
class Check:
    name: str
    value: float
    ok: bool


@dataclass
class ScenarioResult:
    name: str
    summary: list            # printable lines
    artifacts: list          # written file paths
    values: dict             # measured values, keyed as in checks.ini
    checks: list = field(default_factory=list)   # empty without --check

    @property
    def passed(self):
        return all(c.ok for c in self.checks)


def load_thresholds():
    cfg = configparser.ConfigParser()
    with resources.files("stokestab.data").joinpath("checks.ini").open() as fh:
        cfg.read_file(fh)
    return cfg


_BOUND = re.compile(r"(min|max)_(\w+)|(\w+)_(min|max)")


def gate(name, values):
    """Check values against section [name] of checks.ini, in file order: a
    key min_X or X_min bounds values[X] below, max_X or X_max above."""
    checks = []
    for key, text in load_thresholds()[name].items():
        m = _BOUND.fullmatch(key)
        measured = m and (m[2] or m[3])
        if measured not in values:
            raise StokestabError(f"checks.ini [{name}] {key}: not a bound "
                                 f"on a value that {name} measures")
        bound, value = float(text), float(values[measured])
        ok = value >= bound if "min" in m.group(1, 4) else value <= bound
        checks.append(Check(f"{key}({bound:g})", value, ok))
    return checks


# ----------------------------------------------------------------------
# mesh families
# ----------------------------------------------------------------------

def unstructured_family_mesh(level, seed=42, r=0.15):
    """Self-contained uniformly y-unstructured mesh at h ~ 2^-level:
    structured grid, random x jitter, then the alignment-removing sweep."""
    _check_seed(seed)
    n = 2 ** level
    mesh = gen_structured_tri(n, n)
    mesh = gen_perturbed(mesh, 0.3 / n, seed + level)
    return apply_algorithm1(mesh, UnstructureConfig(r=r, axis="y"))


def decay_family_mesh(level, seed=10):
    """Level k of the converging-to-structured family: the structured grid
    with 3, 7, 15, 31 intervals carries a vertical jitter of relative
    amplitude 0.4, 0.2, 0.1, 0.05; level 5 is the exact structured grid with
    63 intervals, where the alternating-layer pressure is an exact spurious
    mode.  Other levels raise StokestabError."""
    ns = [3, 7, 15, 31, 63]
    amps = [0.4, 0.2, 0.1, 0.05, 0.0]
    if not (isinstance(level, (int, np.integer)) and 1 <= level <= 5):
        raise StokestabError(f"decay family levels are 1-5, got {level!r}")
    _check_seed(seed)
    n, amp = ns[level - 1], amps[level - 1]
    base = gen_structured_tri(n, n)
    if amp == 0.0:
        return base
    return gen_perturbed(base, amp / n, seed + level, axis=1)


# ----------------------------------------------------------------------
# scenarios
# ----------------------------------------------------------------------

def run_test1(out_dir, seed=42, eps=1e-10):
    """Lid cavity on the herringbone mesh; the penalization fixes the
    pressure mean, reported in the summary."""
    mesh = gen_zigzag(15, 15)
    sys = cavity_problem(mesh, "p1b-p1:p1", "dirichlet_lid")
    sol = solve_penalized(sys, eps)
    nv = mesh.num_vertices
    vtk = os.path.join(out_dir, "test1_cavity.vtk")
    save_vtk(mesh, {"u": sol.velocity[0][:nv], "v": sol.velocity[1][:nv],
                    "p": sol.pressure}, vtk)
    diag = sol.diagnostics
    int_p = diag["int_p"]
    summary = [f"herringbone 15x15 cavity, p1b-p1:p1, eps={eps:g}, seed={seed}",
               f"mean pressure int_p = {int_p:.6e}",
               f"solver residual = {diag['residual']:.2e}",
               f"saddle system: {diag['unknowns']} unknowns, "
               f"{diag['condensed']} bubbles condensed, "
               f"L+U fill {diag['lu_fill']}, "
               f"{diag['refinements']} refinements"]
    return ScenarioResult("test1", summary, [vtk], {"abs_int_p": abs(int_p)})


def _edge_jump(mesh, p):
    """Mean absolute pressure difference along mesh edges: the roughness
    that the layered oscillation makes large."""
    e = mesh.edges()
    return float(np.mean(np.abs(p[e[:, 0]] - p[e[:, 1]])))


def _cavity_pair(name, title, combo, variant, fields, out_dir, seed, eps):
    """The cavity on the repaired level-4 family mesh and on the 16x16
    structured grid, one VTK file each with the named fields (u, v, p);
    measures the structured/unstructured ratio of the mean edge pressure
    jump."""
    artifacts = []
    summary = [f"{title}, seed={seed}"]
    jumps = {}
    for tag, mesh in [("unstructured", unstructured_family_mesh(4, seed)),
                      ("structured", gen_structured_tri(16, 16))]:
        sol = solve_penalized(cavity_problem(mesh, combo, variant), eps)
        nv = mesh.num_vertices
        solved = {"u": sol.velocity[0][:nv], "v": sol.velocity[1][:nv],
                  "p": sol.pressure}
        path = os.path.join(out_dir, f"{name}_{tag}.vtk")
        save_vtk(mesh, {f: solved[f] for f in fields}, path)
        artifacts.append(path)
        jumps[tag] = _edge_jump(mesh, sol.pressure)
        summary.append(f"  {tag}: mean edge pressure jump {jumps[tag]:.3f}")
    ratio = jumps["structured"] / jumps["unstructured"]
    summary.append(f"  oscillation ratio structured/unstructured = {ratio:.2f}")
    return ScenarioResult(name, summary, artifacts,
                          {"oscillation_ratio": ratio})


def run_test2(out_dir, seed=42, eps=1e-10):
    """Traction-driven cavity on an unstructured and a structured mesh; the
    structured pressure develops the alternating-layer oscillations."""
    return _cavity_pair("test2", "traction lid cavity, p1b-p1:p1",
                        "p1b-p1:p1", "neumann_lid", ("u", "v", "p"), out_dir,
                        seed, eps)


def run_test9(out_dir, seed=42, eps=1e-10):
    """Quadratic-velocity cavity on unstructured and structured meshes."""
    return _cavity_pair("test9", "cavity with p2-p1:p1", "p2-p1:p1",
                        "dirichlet_lid", ("p",), out_dir, seed, eps)


def _convergence_scenario(name, combo, out_dir, seed, levels):
    levels = [3, 4, 5, 6] if levels is None else levels
    if len(levels) < 2:
        raise StokestabError(f"{name} measures orders between levels and "
                             f"needs at least 2, got {len(levels)}")
    meshes = [unstructured_family_mesh(l, seed) for l in levels]
    rep = convergence_study(combo, meshes)
    csv = os.path.join(out_dir, f"{name}_orders.csv")
    rep.to_csv(csv)
    orders = {k: v for k, v in rep.orders()[-1].items() if k != "h"}
    summary = [f"{name}: {combo} on levels {levels}, seed={seed}",
               "  last-interval orders: " + "  ".join(
                   f"{k.removeprefix('order_')}={v:.3f}"
                   for k, v in orders.items())]
    # configparser folds option names to lower case (order_l2_u_min, ...)
    return ScenarioResult(name, summary, [csv],
                          {k.lower(): v for k, v in orders.items()})


def run_test3(out_dir, seed=42, levels=None):
    return _convergence_scenario("test3", "p1b-p1:p1", out_dir, seed, levels)


def run_test8(out_dir, seed=42, levels=None):
    return _convergence_scenario("test8", "p2-p1:p1", out_dir, seed, levels)


def run_test4(out_dir, seed=42, r=0.15):
    """Alignment-removing repair of the 16x16 structured grid and its effect
    on the inf-sup constant of the bubble combination."""
    mesh = gen_structured_tri(16, 16)
    cfg_y = UnstructureConfig(r=r, axis="y")
    before = infsup_constant(mesh, "p1b-p1:p1", k=1).beta
    repaired = apply_algorithm1(mesh, cfg_y)
    rep = verify_uniform(repaired, cfg_y)
    after = infsup_constant(repaired, "p1b-p1:p1", k=1).beta
    msh = os.path.join(out_dir, "test4_repaired.msh")
    save_msh(repaired, msh)
    summary = [f"repair 16x16 structured, r={r}, axis=y, seed={seed}",
               f"  verify_uniform: passed={rep.passed} margin={rep.margin:.3f}",
               f"  beta before={before:.3e} after={after:.3e}"]
    return ScenarioResult("test4", summary, [msh],
                          {"offending": len(rep.offending),
                           "beta_before": before, "beta_after": after})


_CUBE_COMBOS = ["p1-p1b-p1b:p1", "p1b-p1-p1b:p1", "p1b-p1b-p1:p1",
                "p1-p1-p1b:p1", "p1b-p1-p1:p1", "p1-p1b-p1:p1"]


def _local_3d_table(mesh, combos, csv):
    """Closed-form verdict beside the numeric nullspace dimension for every
    macro and combination, one row each read from the oracle report, written
    to csv; returns the rows and the number of macros."""
    header, report = oracle_report(mesh, combos)
    at = {h: i for i, h in enumerate(header)}
    rows = [[r[0], combo, *r[2:6]]
            + [r[at[f"{h}_{combo}"]] for h in ("verdict", "dim", "agree")]
            for r in report for combo in combos]
    write_csv(csv, ["vertex", "combo", "x_str", "y_str", "z_str",
                    "semi_planes", "predicted", "numeric_dim", "agree"], rows)
    return rows, len(report)


def run_test5(out_dir, seed=42):
    """Structured cube at the macro-element level: every enriched
    combination is locally singular, and the numeric nullspace agrees."""
    mesh = gen_structured_cube(3, 3, 3)
    csv = os.path.join(out_dir, "test5_cube_local.csv")
    rows, n_macros = _local_3d_table(mesh, _CUBE_COMBOS, csv)
    agree, total = sum(r[8] for r in rows), len(rows)
    singular = sum(1 for r in rows if r[6] == "singular")
    summary = [f"structured cube 3x3x3 ({mesh.num_cells} tets, "
               f"{n_macros} macros), seed={seed}",
               f"  predicted singular {singular}/{total}, "
               f"numeric agreement {agree}/{total}"]
    return ScenarioResult("test5", summary, [csv], {"agreement": agree / total})


def run_test6(out_dir, seed=42):
    """Extruded unstructured base: the layer planes make every macro
    z-structured, and the walls above the base edges split each star into
    vertical wedges, so single-bubble combinations are locally singular
    even though the base is unstructured."""
    base = unstructured_family_mesh(3, seed)
    base = apply_algorithm1(base, UnstructureConfig(r=0.15, axis="x"))
    mesh = gen_extruded_tet(base, 4, 1.0)
    combos = ["p1-p1-p1b:p1", "p1b-p1-p1:p1", "p1-p1b-p1b:p1"]
    csv = os.path.join(out_dir, "test6_extruded_local.csv")
    rows, n_macros = _local_3d_table(mesh, combos, csv)
    agree, total = sum(r[8] for r in rows), len(rows)
    z_struct = sum(1 for r in rows if r[4] == 1) // len(combos)
    summary = [f"extruded mesh: {mesh.num_cells} tets, {n_macros} macros, "
               f"seed={seed}",
               f"  z-structured macros: {z_struct}/{n_macros}",
               f"  numeric agreement {agree}/{total}"]
    return ScenarioResult("test6", summary, [csv],
                          {"agreement": agree / total,
                           "z_structured": z_struct / n_macros})


def run_test7(out_dir, seed=10):
    """Inf-sup decay on the family converging to the structured grid."""
    betas = []
    rows = []
    for level in range(1, 6):
        mesh = decay_family_mesh(level, seed)
        res = infsup_constant(mesh, "p2-p1:p1", k=3)
        betas.append(res.beta)
        rows.append([level, mesh.metrics().h, res.beta]
                    + list(res.spectrum[:3]))
    csv = os.path.join(out_dir, "test7_betas.csv")
    write_csv(csv, ["level", "h", "beta", "lam1", "lam2", "lam3"], rows)
    summary = [f"p2-p1:p1 inf-sup decay, seed={seed}",
               "  beta: " + "  ".join(f"{b:.4g}" for b in betas)]
    ratio = betas[4] / betas[0] if betas[0] > 0 else np.inf
    increases = sum(1 for a, b in zip(betas, betas[1:]) if a <= b)
    return ScenarioResult("test7", summary, [csv],
                          {"increases": increases, "beta_level1_ratio": ratio})


def run_q2q1q1(out_dir, seed=42):
    """Rectangle macro-element: the tensor-quadratic/bilinear combination
    admits the absolute-offset spurious pressure."""
    mesh = gen_quad_macro()
    macro = build_macroelements(mesh)[0]
    ns = local_nullspace(macro, "q2-q1:q1")
    p = np.abs(mesh.vertices[macro.vertex_ids()][:, 1])
    resid = nullspace_residual(ns, p)
    csv = os.path.join(out_dir, "q2q1q1_spectrum.csv")
    write_csv(csv, ["index", "singular_value"],
              [[i, s] for i, s in enumerate(ns.singular_values)])
    summary = [f"2x2 rectangle macro, q2-q1:q1, seed={seed}",
               f"  local nullspace dim (mod constants) = {ns.dim}",
               f"  counterexample pressure residual = {resid:.2e}"]
    return ScenarioResult("q2q1q1", summary, [csv],
                          {"nullspace_dim": ns.dim, "residual": resid})


SCENARIOS = {
    "test1": run_test1, "test2": run_test2, "test3": run_test3,
    "test4": run_test4, "test5": run_test5, "test6": run_test6,
    "test7": run_test7, "test8": run_test8, "test9": run_test9,
    "q2q1q1": run_q2q1q1,
}


def run_scenario(name, out_dir=".", check=False, **overrides):
    """Run scenario name; overrides (seed, eps, r, levels) must be
    parameters of it.  With check, gate its values against checks.ini."""
    if name not in SCENARIOS:
        raise KeyError(f"unknown scenario {name!r}; choose from "
                       + ", ".join(sorted(SCENARIOS)))
    run = SCENARIOS[name]
    params = inspect.signature(run).parameters
    for key in overrides:
        if key == "out_dir" or key not in params:
            raise StokestabError(f"scenario {name} takes no --{key}")
    if "seed" in overrides:
        _check_seed(overrides["seed"])
    os.makedirs(out_dir, exist_ok=True)
    result = run(out_dir, **overrides)
    if check:
        result.checks = gate(name, result.values)
    return result
