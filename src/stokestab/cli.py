"""Command line front-end: generate, analyze, repair, solve, tabulate."""

from __future__ import annotations

import argparse
import os
import sys

from .fespace import FECombo
from .infsup import infsup_constant, oracle_report
from .macroelement import structure_report
from .mesh import (StokestabError, _check_seed, gen_extruded_tet,
                   gen_perturbed, gen_quad_macro, gen_structured_cube,
                   gen_structured_tri, gen_zigzag, load_msh, save_msh,
                   save_vtk, write_csv)
from .scenarios import SCENARIOS, run_scenario
from .stokes import cavity_problem, convergence_study, solve_penalized
from .unstructure import UnstructureConfig, apply_algorithm1, verify_uniform


def _combo_list(text):
    return [FECombo.parse(t) for t in text.split(",")]


def cmd_gen(args):
    _check_seed(args.seed)
    if args.kind == "structured":
        mesh = gen_structured_tri(args.nx, args.ny)
    elif args.kind == "zigzag":
        mesh = gen_zigzag(args.nx, args.ny)
    elif args.kind == "perturbed-zigzag":
        mesh = gen_perturbed(gen_zigzag(args.nx, args.ny),
                             args.amplitude, args.seed)
    elif args.kind == "cube":
        mesh = gen_structured_cube(args.nx, args.ny, args.nz)
    elif args.kind == "extruded":
        base = gen_zigzag(args.nx, args.ny)
        mesh = gen_extruded_tet(base, args.nz, 1.0)
    elif args.kind == "quad-macro":
        mesh = gen_quad_macro()
    else:
        raise ValueError(args.kind)
    save_msh(mesh, args.out)
    print(f"wrote {args.out}: {mesh.num_vertices} vertices, "
          f"{mesh.num_cells} {mesh.cell_kind} cells, seed={args.seed}")
    return 0


def cmd_analyze(args):
    mesh = load_msh(args.mesh)
    report = oracle_report if args.oracle else structure_report
    header, rows = report(mesh, _combo_list(args.combo))
    write_csv(args.out, header, rows)
    n = len(rows)
    print(f"analyzed {n} macro-elements -> {args.out}")
    if args.oracle and n:
        cols = [i for i, h in enumerate(header) if h.startswith("agree_")]
        agree = sum(all(row[i] for i in cols) for row in rows)
        print(f"oracle agreement on {agree}/{n} macro-elements")
        if agree != n:
            return 1
    return 0


def cmd_unstructure(args):
    mesh = load_msh(args.mesh)
    cfg = UnstructureConfig(r=args.r, axis=args.axis)
    if args.verify_only:
        rep = verify_uniform(mesh, cfg)
        print(f"uniformly {args.axis}-unstructured: {rep.passed} "
              f"(margin {rep.margin:.4f}, {len(rep.offending)} offending)")
        return 0 if rep.passed else 1
    out = apply_algorithm1(mesh, cfg)
    save_msh(out, args.out)
    rep = verify_uniform(out, cfg)
    print(f"wrote {args.out}; verified={rep.passed} margin={rep.margin:.4f}")
    return 0


def cmd_solve_cavity(args):
    mesh = load_msh(args.mesh)
    combo = FECombo.parse(args.combo)
    sys_ = cavity_problem(mesh, combo, args.variant)
    sol = solve_penalized(sys_, args.eps)
    os.makedirs(args.out_dir, exist_ok=True)
    nv = mesh.num_vertices
    path = os.path.join(args.out_dir, "cavity.vtk")
    save_vtk(mesh, {"u": sol.velocity[0][:nv], "v": sol.velocity[1][:nv],
                    "p": sol.pressure}, path)
    diag = sol.diagnostics
    print(f"solved {combo} {args.variant}: int_p={diag['int_p']:.3e}"
          f" residual={diag['residual']:.2e} -> {path}")
    print("saddle LU: {unknowns} unknowns, {condensed} bubbles condensed, "
          "L+U fill {lu_fill}, {refinements} refinements".format(**diag))
    return 0


def cmd_convergence(args):
    from .scenarios import unstructured_family_mesh
    combo = FECombo.parse(args.combo)
    levels = list(range(3, 3 + args.levels))
    meshes = [unstructured_family_mesh(l, args.seed) for l in levels]
    rep = convergence_study(combo, meshes, eps=args.eps)
    os.makedirs(args.out_dir, exist_ok=True)
    path = os.path.join(args.out_dir, "convergence.csv")
    rep.to_csv(path)
    print(f"combo={combo} levels={levels} seed={args.seed}")
    for o in rep.orders():
        print(f"  h={o.pop('h'):.4g}  orders: " + " ".join(
            f"{k.removeprefix('order_')}={v:.3f}" for k, v in o.items()))
    print(f"wrote {path}")
    return 0


def cmd_infsup(args):
    mesh = load_msh(args.mesh)
    combo = FECombo.parse(args.combo)
    res = infsup_constant(mesh, combo, k=args.k)
    if args.out:
        write_csv(args.out, ["mesh", "combo", "beta"]
                  + [f"lam{i + 1}" for i in range(len(res.spectrum))],
                  [[args.mesh, str(combo), res.beta] + list(res.spectrum)])
    print(f"beta = {res.beta:.6g} (pressure dofs {res.n_pressure}, "
          f"converged={res.converged})")
    print(f"saddle LU: {res.unknowns} unknowns, {res.condensed} bubbles "
          f"condensed, L+U fill {res.lu_fill}")
    print("spectrum:", " ".join(f"{v:.4g}" for v in res.spectrum))
    return 0


def cmd_run(args):
    result = run_scenario(args.scenario, out_dir=args.out_dir,
                          check=args.check, **_overrides(args))
    for line in result.summary:
        print(line)
    for path in result.artifacts:
        print(f"  artifact: {path}")
    if args.check:
        for c in result.checks:
            print(f"  [{'PASS' if c.ok else 'FAIL'}] {c.name}: {c.value:.6g}")
        if not result.passed:
            return 1
    return 0


def _overrides(args):
    out = {}
    if args.seed is not None:
        out["seed"] = args.seed
    if args.eps is not None:
        out["eps"] = args.eps
    if args.r is not None:
        out["r"] = args.r
    if args.levels is not None:
        out["levels"] = list(range(3, 3 + args.levels))
    return out


def build_parser():
    p = argparse.ArgumentParser(
        prog="stokestab",
        description="Inf-sup stability analysis of mixed elements with "
                    "per-component velocity spaces")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a mesh")
    g.add_argument("--kind", required=True,
                   choices=["structured", "zigzag", "perturbed-zigzag",
                            "cube", "extruded", "quad-macro"])
    g.add_argument("--nx", type=int, default=8)
    g.add_argument("--ny", type=int, default=8)
    g.add_argument("--nz", type=int, default=4)
    g.add_argument("--amplitude", type=float, default=0.02)
    g.add_argument("--seed", type=int, default=42)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_gen)

    a = sub.add_parser("analyze", help="per-macro structure and verdicts "
                       "on a triangle or tet mesh (2D or 3D flag columns)")
    a.add_argument("mesh")
    a.add_argument("--combo", default="p1b-p1:p1,p1-p1b:p1,p2-p1:p1",
                   help="comma-separated; a tet mesh takes 3D combos")
    a.add_argument("--oracle", action="store_true",
                   help="add numeric nullspace dimensions")
    a.add_argument("--out", default="analysis.csv")
    a.set_defaults(func=cmd_analyze)

    u = sub.add_parser("unstructure", help="remove axis alignments")
    u.add_argument("mesh")
    u.add_argument("out", nargs="?", default="unstructured.msh")
    u.add_argument("--axis", choices=["x", "y"], default="x")
    u.add_argument("--r", type=float, default=0.15)
    u.add_argument("--verify-only", action="store_true")
    u.set_defaults(func=cmd_unstructure)

    s = sub.add_parser("solve-cavity", help="penalized cavity solve")
    s.add_argument("mesh")
    s.add_argument("--combo", default="p1b-p1:p1")
    s.add_argument("--variant", choices=["dirichlet_lid", "neumann_lid"],
                   default="dirichlet_lid")
    s.add_argument("--eps", type=float, default=1e-10)
    s.add_argument("--out-dir", default=".")
    s.set_defaults(func=cmd_solve_cavity)

    c = sub.add_parser("convergence", help="manufactured-solution orders")
    c.add_argument("--combo", default="p1b-p1:p1")
    c.add_argument("--levels", type=int, default=4)
    c.add_argument("--seed", type=int, default=42)
    c.add_argument("--eps", type=float, default=1e-10)
    c.add_argument("--out-dir", default=".")
    c.set_defaults(func=cmd_convergence)

    i = sub.add_parser("infsup", help="discrete inf-sup constant")
    i.add_argument("mesh")
    i.add_argument("--combo", default="p1b-p1:p1")
    i.add_argument("-k", type=int, default=5)
    i.add_argument("--out", default=None)
    i.set_defaults(func=cmd_infsup)

    r = sub.add_parser("run", help="run a named scenario")
    r.add_argument("scenario", choices=sorted(SCENARIOS))
    r.add_argument("--out-dir", default="out")
    r.add_argument("--seed", type=int, default=None)
    r.add_argument("--eps", type=float, default=None)
    r.add_argument("--r", type=float, default=None)
    r.add_argument("--levels", type=int, default=None)
    r.add_argument("--check", action="store_true",
                   help="compare against the packaged thresholds; nonzero "
                        "exit on violation")
    r.set_defaults(func=cmd_run)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (StokestabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
