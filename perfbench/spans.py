"""Span tracer for the benchmark's traced runs.

While installed, every public stokestab function listed in TARGETS is
replaced by a wrapper in each stokestab module namespace that holds it (and
on its class for methods), so nested library calls produce nested spans:
infsup_constant -> assemble -> build_dofmap -> Mesh.edges, for example.
Spans (layer key, start, end, parent) stay in memory until the workload
ends.  A layer's self time is its span duration minus the time covered by
its child spans.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
from collections import Counter, defaultdict

import numpy as np


def _solve_sizes(counts, args, kwargs, out):
    sys_ = args[0]
    free = np.concatenate([~m for m in sys_.bc_mask])
    n_p = sys_.Mp.shape[0]
    A = sys_.A.tocoo()
    B = sys_.B.tocoo()
    keep_a = int(np.count_nonzero(free[A.row] & free[A.col]))
    keep_b = int(np.count_nonzero(free[B.col]))
    counts["stokes.solve_calls"] += 1
    counts["stokes.unknowns"] += int(free.sum()) + n_p
    counts["stokes.saddle_nnz"] += keep_a + 2 * keep_b + sys_.Mp.nnz


def _infsup_sizes(counts, args, kwargs, out):
    counts["infsup.pressure_dofs"] += int(out.n_pressure)
    counts["infsup.unconverged"] += int(not out.converged)


def _moved(counts, args, kwargs, out):
    before = args[0].vertices
    counts["unstructure.moved_vertices"] += int(
        np.count_nonzero(np.any(out.vertices != before, axis=1)))


def _macros(counts, args, kwargs, out):
    counts["macroelement.macros"] += len(out)


def _mesh_cells(counts, args, kwargs, out):
    counts["mesh.cells"] += int(args[0].num_cells)


def _io_bytes(counts, args, kwargs, out):
    path = args[1] if len(args) > 1 else args[0]
    counts["mesh.io_bytes"] += os.path.getsize(path)


# (module, attribute, layer key, count hook).  "Class.method" names a method.
TARGETS = [
    ("mesh", "Mesh.__init__", "mesh.construct", _mesh_cells),
    ("mesh", "Mesh.edges", "mesh.edges", None),
    ("mesh", "gen_structured_tri", "mesh.generate", None),
    ("mesh", "gen_zigzag", "mesh.generate", None),
    ("mesh", "gen_extruded_tet", "mesh.generate", None),
    ("mesh", "gen_quad_macro", "mesh.generate", None),
    ("mesh", "gen_perturbed", "mesh.perturb", None),
    ("mesh", "save_msh", "mesh.io", _io_bytes),
    ("mesh", "load_msh", "mesh.io", _io_bytes),
    ("fespace", "build_dofmap", "fespace.build_dofmap", None),
    ("stokes", "operator_matrix", "stokes.operator_matrix", None),
    ("stokes", "assemble", "stokes.assemble", None),
    ("stokes", "cavity_problem", "stokes.cavity_problem", None),
    ("stokes", "solve_penalized", "stokes.solve_penalized", _solve_sizes),
    ("stokes", "convergence_study", "stokes.convergence_study", None),
    ("macroelement", "build_macroelements", "macroelement.build_macroelements",
     _macros),
    ("macroelement", "predict_regularity", "macroelement.predict", None),
    ("macroelement", "predict_regularity_3d", "macroelement.predict", None),
    ("infsup", "infsup_constant", "infsup.infsup_constant", _infsup_sizes),
    ("infsup", "local_nullspace", "infsup.local_nullspace", None),
    ("infsup", "analytic_singular_pressure", "infsup.analytic_pressure", None),
    ("unstructure", "apply_algorithm1", "unstructure.apply_algorithm1", _moved),
    ("unstructure", "verify_uniform", "unstructure.verify_uniform", None),
]

LAYERS = sorted({key for _, _, key, _ in TARGETS})


class Tracer:
    """Records spans while installed; aggregates them per layer."""

    def __init__(self):
        self.spans = []          # [key, start, end, parent index, child time]
        self.counts = Counter()
        self._stack = []
        self._saved = []

    def _wrap(self, key, fn, hook):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [key, 0.0, 0.0, parent, 0.0]
            idx = len(spans)
            spans.append(rec)
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                rec[1], rec[2] = t0, t1
            counts[key + "_calls"] += 1
            if hook is not None:
                hook(counts, args, kwargs, out)
            if parent >= 0:
                # the count hook ran inside the parent's interval but is
                # tracer work, so it is charged to no layer
                spans[parent][4] += time.perf_counter() - t0
            return out

        return traced

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if name == "stokestab" or name.startswith("stokestab.")]
        for mod, attr, key, hook in TARGETS:
            owner = importlib.import_module("stokestab." + mod)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._saved.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(key, orig, hook))
                continue
            orig = getattr(owner, attr)
            wrapped = self._wrap(key, orig, hook)
            for m in modules:
                for name, val in list(vars(m).items()):
                    if val is orig:
                        self._saved.append((m, name, orig))
                        setattr(m, name, wrapped)

    def uninstall(self):
        while self._saved:
            obj, name, orig = self._saved.pop()
            setattr(obj, name, orig)

    def layer_table(self):
        """layer key -> {self_s, calls, durations_ms}."""
        table = defaultdict(lambda: {"self_s": 0.0, "calls": 0,
                                     "durations_ms": []})
        for key, t0, t1, _parent, child in self.spans:
            row = table[key]
            row["self_s"] += (t1 - t0) - child
            row["calls"] += 1
            row["durations_ms"].append(1e3 * (t1 - t0))
        return table

    def write_spans(self, path):
        with open(path, "w") as fh:
            for key, t0, t1, parent, _child in self.spans:
                fh.write(json.dumps({"name": key, "start": t0, "end": t1,
                                     "parent": parent}) + "\n")
