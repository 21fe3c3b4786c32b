"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with the measured values.  Run with `pytest -s` to see the
lines as they complete."""

import time
import warnings

import numpy as np
import pytest

from stokestab.mesh import (gen_quad_macro, gen_structured_tri, gen_zigzag)
from stokestab.macroelement import (build_macroelements, predict_regularity,
                                    predict_regularity_3d, s_condition)
from stokestab.infsup import (analytic_singular_pressure, global_counterexample,
                              infsup_constant, local_nullspace,
                              nullspace_residual)
from stokestab.scenarios import (decay_family_mesh, unstructured_family_mesh)
from stokestab.stokes import (assemble, cavity_problem, convergence_study,
                              solve_penalized)
from stokestab.unstructure import (UnstructureConfig, apply_algorithm1,
                                   verify_uniform)

from stars import (meridian_star_3d, random_s_zero_star, random_star_2d,
                   random_star_3d, star_macro_2d, symmetric_hexagon)

warnings.filterwarnings("ignore", message=".*no interior vertex.*")


def report(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, detail


# ----------------------------------------------------------------------
# 1. oracle agreement on randomized 2D macro-elements
# ----------------------------------------------------------------------

def _fixture_pool(rng, axis):
    pool = []
    for _ in range(120):
        pool.append(random_star_2d(rng))
    for _ in range(30):
        pool.append(random_star_2d(rng, aligned=1, axis=axis))
    for _ in range(30):
        pool.append(random_star_2d(rng, aligned=2, axis=axis))
    for _ in range(10):
        a, b = rng.uniform(0.5, 2.0), rng.uniform(0.3, 1.0)
        hexa = symmetric_hexagon(a, b)
        if axis == "x":
            hexa = star_macro_2d(hexa.ring_coords()[::-1, ::-1])
        pool.append(hexa)
    made = 0
    while made < 10:
        m = random_s_zero_star(rng, n_v=6, axis=axis)
        if m is not None:
            pool.append(m)
            made += 1
    return pool


def test_criterion_1_oracle_agreement():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    combos_axes = [("p1b-p1:p1", "y"), ("p1-p1b:p1", "x"), ("p2-p1:p1", "y")]
    total = mismatches = 0
    for combo, axis in combos_axes:
        pool = _fixture_pool(rng, axis)
        assert len(pool) >= 200
        for macro in pool:
            pred = predict_regularity(macro, combo)
            dim = local_nullspace(macro, combo).dim
            total += 1
            if pred.regular != (dim == 0):
                mismatches += 1
    dt = time.time() - t0
    report(1, mismatches == 0,
           f"{total} macro/combo verdicts, {mismatches} disagreements, "
           f"{dt:.1f}s")


# ----------------------------------------------------------------------
# 2. analytic witnesses land in the numeric nullspace
# ----------------------------------------------------------------------

def test_criterion_2_witnesses():
    rng = np.random.default_rng(7)
    fixtures = [star_macro_2d([(2, 0), (0.2, 1.8), (-2, 0), (-0.5, -1.8),
                               (1.5, -1.8)])]
    for _ in range(20):
        fixtures.append(random_star_2d(rng, aligned=2, axis="y"))
    for mesh_macro in build_macroelements(gen_structured_tri(5, 4)):
        fixtures.append(mesh_macro)
    worst = 0.0
    for macro in fixtures:
        ns = local_nullspace(macro, "p1b-p1:p1")
        p = analytic_singular_pressure(macro, "p1b-p1:p1")
        worst = max(worst, nullspace_residual(ns, p))
    hexa = symmetric_hexagon()
    s_scaled = abs(s_condition(hexa)) / np.sum(1.0 / hexa.areas)
    dim = local_nullspace(hexa, "p2-p1:p1").dim
    ok = worst <= 1e-11 and s_scaled <= 1e-12 and dim >= 1
    report(2, ok, f"{len(fixtures)} split fixtures, worst residual "
                  f"{worst:.2e}; hexagon |S|/scale={s_scaled:.1e}, "
                  f"numeric dim={dim}")


# ----------------------------------------------------------------------
# 3. global spurious modes on layered structured meshes
# ----------------------------------------------------------------------

def test_criterion_3_global_counterexample():
    t0 = time.time()
    worst = 0.0
    for (k, l) in [(4, 3), (12, 7), (16, 16), (32, 32)]:
        mesh = gen_structured_tri(k, l)
        for combo in ["p1b-p1:p1", "p1-p1b:p1"]:
            p = global_counterexample(mesh, combo)
            sys = assemble(mesh, combo)
            Bt = sys.B[:, sys.free_mask()].T
            sv = np.linalg.svd(Bt.toarray() if Bt.shape[1] < 2500 else None,
                               compute_uv=False) if Bt.shape[1] < 2500 else None
            norm_bt = sv[0] if sv is not None else np.sqrt(
                abs(Bt).power(2).sum())
            resid = np.linalg.norm(Bt @ p) / (norm_bt * np.linalg.norm(p))
            worst = max(worst, resid)
    beta = infsup_constant(gen_structured_tri(24, 24), "p1b-p1:p1", k=1).beta
    dt = time.time() - t0
    ok = worst <= 1e-11 and beta <= 1e-7
    report(3, ok, f"worst scaled residual {worst:.2e}, structured beta "
                  f"{beta:.2e}, {dt:.1f}s")


# ----------------------------------------------------------------------
# 4. convergence orders for the bubble combination
# ----------------------------------------------------------------------

def test_criterion_4_orders_bubble():
    t0 = time.time()
    meshes = [unstructured_family_mesh(l) for l in (3, 4, 5, 6)]
    rep = convergence_study("p1b-p1:p1", meshes)
    last = rep.orders()[-1]
    ok = (1.7 <= last["order_L2_u"] <= 2.3
          and 1.7 <= last["order_L2_v"] <= 2.3
          and 0.85 <= last["order_H1_u"] <= 1.25
          and 0.85 <= last["order_H1_v"] <= 1.25
          and 0.6 <= last["order_L2_p"] <= 1.6)
    dt = time.time() - t0
    report(4, ok,
           "orders L2_u=%.3f H1_u=%.3f L2_v=%.3f H1_v=%.3f L2_p=%.3f, %.0fs"
           % (last["order_L2_u"], last["order_H1_u"], last["order_L2_v"],
              last["order_H1_v"], last["order_L2_p"], dt))


# ----------------------------------------------------------------------
# 5. order loss for the quadratic combination
# ----------------------------------------------------------------------

def test_criterion_5_orders_quadratic():
    meshes = [unstructured_family_mesh(l) for l in (3, 4, 5, 6)]
    rep = convergence_study("p2-p1:p1", meshes)
    last = rep.orders()[-1]
    ok = (0.85 <= last["order_H1_u"] <= 1.4 and last["order_L2_u"] <= 2.4)
    report(5, ok, "orders H1_u=%.3f (stays first order), L2_u=%.3f"
           % (last["order_H1_u"], last["order_L2_u"]))


# ----------------------------------------------------------------------
# 6. inf-sup decay towards the structured limit
# ----------------------------------------------------------------------

def test_criterion_6_beta_decay():
    betas = []
    for level in range(1, 6):
        mesh = decay_family_mesh(level)
        betas.append(infsup_constant(mesh, "p2-p1:p1", k=1).beta)
    strict = all(betas[i] > betas[i + 1] for i in range(4))
    ratio = betas[4] / betas[0] if betas[0] > 0 else np.inf
    ok = strict and ratio <= 0.1
    report(6, ok, "beta = " + " ".join(f"{b:.4g}" for b in betas)
           + f", beta5/beta1 = {ratio:.3g}")


# ----------------------------------------------------------------------
# 7. repair of the 16x16 structured mesh
# ----------------------------------------------------------------------

def test_criterion_7_repair():
    t0 = time.time()
    mesh = gen_structured_tri(16, 16)
    before = infsup_constant(mesh, "p1b-p1:p1", k=1).beta
    cfg = UnstructureConfig(r=0.15, axis="y")
    repaired = apply_algorithm1(mesh, cfg)
    verified = verify_uniform(repaired, cfg).passed
    after = infsup_constant(repaired, "p1b-p1:p1", k=1).beta
    dt = time.time() - t0
    ok = verified and before <= 1e-7 and after >= 0.01
    report(7, ok, f"verify={verified}, beta {before:.2e} -> {after:.3f}, "
                  f"{dt:.1f}s")


# ----------------------------------------------------------------------
# 8. the rectangle macro-element
# ----------------------------------------------------------------------

def test_criterion_8_quad_macro():
    mesh = gen_quad_macro()
    macro = build_macroelements(mesh)[0]
    ns = local_nullspace(macro, "q2-q1:q1")
    p = np.abs(mesh.vertices[macro.vertex_ids()][:, 1])   # a=0, c=1
    resid = nullspace_residual(ns, p)
    ok = ns.dim >= 1 and resid <= 1e-12
    report(8, ok, f"nullspace dim {ns.dim}, counterexample residual "
                  f"{resid:.2e}")


# ----------------------------------------------------------------------
# 9. 3D predicates against the numeric oracle
# ----------------------------------------------------------------------

def test_criterion_9_3d_agreement():
    rng = np.random.default_rng(99)
    fixtures = []
    for _ in range(14):
        fixtures.append(random_star_3d(rng))
    az = lambda: rng.uniform(0, 2 * np.pi)
    for _ in range(9):
        fixtures.append(meridian_star_3d(rng, []))
    for _ in range(9):
        a = az()
        fixtures.append(meridian_star_3d(rng, [a, a + np.pi]))
    for _ in range(9):
        a = az()
        fixtures.append(meridian_star_3d(rng, [a, a + rng.uniform(0.8, 2.2)]))
    for _ in range(9):
        a = az()
        fixtures.append(meridian_star_3d(rng, [a, a + 2.0, a + 4.2]))
    for _ in range(5):
        a = az()
        fixtures.append(meridian_star_3d(
            rng, [a, a + 1.5, a + np.pi, a + np.pi + 1.5]))
    combos = ["p1-p1-p1b:p1", "p1-p1b-p1b:p1"]
    total = mismatches = 0
    for macro in fixtures:
        for combo in combos:
            pred = predict_regularity_3d(macro, combo)
            dim = local_nullspace(macro, combo).dim
            total += 1
            if pred.regular != (dim == 0):
                mismatches += 1
    ok = mismatches == 0 and len(fixtures) >= 50
    report(9, ok, f"{len(fixtures)} tet stars, {total} verdicts, "
                  f"{mismatches} disagreements")


# ----------------------------------------------------------------------
# 10. penalization diagnostic on the herringbone cavity
# ----------------------------------------------------------------------

def test_criterion_10_penalization():
    mesh = gen_zigzag(15, 15)
    sys = cavity_problem(mesh, "p1b-p1:p1", "dirichlet_lid")
    sol = solve_penalized(sys, 1e-10)
    int_p = sol.diagnostics["int_p"]
    ok = abs(int_p) <= 1e-6
    report(10, ok, f"eps=1e-10, |int_p| = {abs(int_p):.2e}")
