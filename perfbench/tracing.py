"""Per-layer spans recorded from outside the program.

``Tracer.install`` wraps the public entry points of every hyperadams module
(the layers) and ``uninstall`` puts the originals back.  The package binds
names with ``from .x import f``, and a dataclass keeps its default factories
in the closure of its generated ``__init__``, so a wrapper replaces every
module-global binding and every closure cell that holds the wrapped object,
not only the defining one.

A span is ``(span_id, parent_id, op_id, name, start, end, extra)``.  Spans
stay in memory until the run ends.  ``extra`` is what a counter hook read
from the call (nodes assembled, Newton iterations, ...), or None.
Self time is a span's duration minus the part of it covered by its child
spans, so numpy and scipy time counts toward the innermost hyperadams span.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
from collections import defaultdict
from time import perf_counter

LAYERS = (
    "mesh",
    "ball",
    "operators",
    "inequalities",
    "extremals",
    "pde",
    "experiments",
    "config",
    "reporting",
    "cli",
)


def _n_nodes(args, result):
    return args[0].n_nodes


def _nnz(args, result):
    return result.matrix.nnz


def _solve_outcome(args, result):
    return result.iterations, result.converged


# layer -> wrapped entry points ("Class.method" or "function") -> counter hook
ENTRY_POINTS = {
    "mesh": {
        "Mesh1D.__init__": None,
        "Mesh1D.stiffness": _n_nodes,
        "Mesh1D.lumped_mass": _n_nodes,
        "Mesh1D.deriv_matrix": _n_nodes,
        "Mesh1D.integrate": None,
        "Mesh1D.evaluate": None,
        "interpolate": None,
        "differentiation_matrix": None,
    },
    "ball": {
        "RadialGrid.__init__": None,
        "RadialGrid.geodesic": None,
        "RadialGrid.geodesic_geometric": None,
        "RadialGrid.euclidean_ball": None,
        "RadialGrid.euclidean_geometric": None,
        "RadialGrid.laplacian_coefficients": None,
        "RadialFunction.from_callable": None,
        "RadialFunction.eval": None,
        "integrate_radial": None,
        "tail_fraction": None,
        "DiskGrid.__init__": None,
        "DiskGrid.sample": None,
        "DiskGrid.integrate_hyperbolic": None,
        "DiskGrid.laplace_beltrami": None,
        "hyperbolic_translate": None,
        "pushforward_2d": None,
    },
    "operators": {
        "gjms_assemble": _nnz,
        "GJMSOperator.quadratic_form": None,
        "euclidean_laplacian_radial": None,
        "hyperbolic_laplacian_radial": None,
        "hyperbolic_laplacian_coordinate_form": None,
        "euclidean_gradk_energy": None,
        "iterated_gradient_energy": None,
        "sobolev_energy": None,
        "gjms_energy": None,
    },
    "inequalities": {
        "adams_functional": None,
        "check_poincare_chain": None,
        "check_owen": None,
        "scalar_inequality_suite": None,
        "linearized_adams_bound": None,
        "fit_linearized_calibration": None,
    },
    "extremals": {
        "build_moser_profile": None,
        "moser_energy": None,
        "blowup_experiment": None,
        "sobolev_upper_experiment": None,
        "blowup_slopes": None,
        "lp_norm_hyperbolic": None,
    },
    "pde": {
        "PDEProblem.from_families": None,
        "solve_convex": _solve_outcome,
        "solve_log_constrained": _solve_outcome,
        "banded_direct_solve": None,
        "ray_coercivity_table": None,
    },
    "experiments": {
        "run_experiment": None,
        "convergence_study": None,
    },
    "config": {
        "load_config": None,
    },
    "reporting": {
        "ExperimentReport.write": None,
        "environment_stamp": None,
    },
    "cli": {
        "main": None,
    },
}

FORM_EVALS = (
    "operators.GJMSOperator.quadratic_form",
    "operators.euclidean_gradk_energy",
    "operators.iterated_gradient_energy",
    "operators.sobolev_energy",
    "operators.gjms_energy",
)
SOLVES = ("pde.solve_convex", "pde.solve_log_constrained")
GRIDS = ("ball.RadialGrid.__init__", "ball.DiskGrid.__init__")
NODE_COUNTERS = ("mesh.Mesh1D.stiffness", "mesh.Mesh1D.lumped_mass", "mesh.Mesh1D.deriv_matrix")


class Tracer:
    def __init__(self):
        self.spans = []
        self.op_id = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._stack()
        self._undo = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:  # a pool thread: the caller is the main thread's open span
                main = tracer._main_stack
                parent = main[-1] if main else None
            sid = next(tracer._ids)
            stack.append(sid)
            result = extra = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                if hook is not None and result is not None:
                    extra = hook(args, result)
                tracer.spans.append((sid, parent, tracer.op_id, name, start, end, extra))

        traced.span_name = name
        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "hyperadams"]
        replacements = {}
        for layer, entries in ENTRY_POINTS.items():
            module = importlib.import_module(f"hyperadams.{layer}")
            for dotted, hook in entries.items():
                name = f"{layer}.{dotted}"
                owner_name, _, attr = dotted.rpartition(".")
                if owner_name:  # a method: replace it on its class
                    owner = getattr(module, owner_name)
                    raw = owner.__dict__[attr]
                    if isinstance(raw, classmethod):
                        wrapped = classmethod(self._wrap(name, raw.__func__, hook))
                    else:
                        wrapped = self._wrap(name, raw, hook)
                    self._set(owner, attr, wrapped)
                else:
                    fn = getattr(module, attr)
                    replacements[id(fn)] = (fn, self._wrap(name, fn, hook))
        # every module-global binding and closure cell of a wrapped function
        for module in modules:
            for key, value in list(vars(module).items()):
                if id(value) in replacements and replacements[id(value)][0] is value:
                    self._set(module, key, replacements[id(value)][1])
            for value in list(vars(module).values()):
                for fn in _functions_of(value):
                    if hasattr(fn, "span_name"):  # a wrapper's cell holds its original
                        continue
                    for cell in fn.__closure__ or ():
                        try:
                            content = cell.cell_contents
                        except ValueError:  # empty cell
                            continue
                        if id(content) in replacements and replacements[id(content)][0] is content:
                            self._undo.append((cell, content))
                            cell.cell_contents = replacements[id(content)][1]

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for entry in reversed(self._undo):
            if len(entry) == 2:
                entry[0].cell_contents = entry[1]
            else:
                setattr(*entry)
        self._undo = []


def _functions_of(value):
    """Plain functions defined on a module object or on a class's dict."""
    if callable(value) and hasattr(value, "__closure__"):
        yield value
    if isinstance(value, type):
        for attr in vars(value).values():
            fn = getattr(attr, "__func__", attr)
            if hasattr(fn, "__closure__"):
                yield fn


def self_times(spans: list) -> dict:
    """span_id -> self time: duration minus the union of its children."""
    children = defaultdict(list)
    for sid, parent, _op, _name, start, end, _extra in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = {}
    for sid, _parent, _op, _name, start, end, _extra in spans:
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out[sid] = (end - start) - covered
    return out


def layer_metrics(spans: list) -> dict:
    """Per-layer self time and counters for one traced pass."""
    selfs = self_times(spans)
    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = 0.0
        m[f"{layer}.calls"] = 0
    calls = defaultdict(int)
    extras = defaultdict(float)
    iters = converged = 0
    for sid, _parent, _op, name, _start, _end, extra in spans:
        layer = name.split(".", 1)[0]
        m[f"{layer}.self_s"] += selfs[sid]
        m[f"{layer}.calls"] += 1
        calls[name] += 1
        if extra is None:
            continue
        if name in SOLVES:
            iters += extra[0]
            converged += extra[1]
        else:
            extras[name] += extra
    solves = sum(calls[n] for n in SOLVES)
    m.update(
        {
            "pde.solves": solves,
            "pde.newton_iters": iters,
            "pde.s_per_newton_iter": m["pde.self_s"] / iters if iters else 0.0,
            "pde.converged_ratio": converged / solves if solves else 0.0,
            "operators.assemblies": calls["operators.gjms_assemble"],
            "operators.pk_nnz": extras["operators.gjms_assemble"],
            "operators.form_evals": sum(calls[n] for n in FORM_EVALS),
            "mesh.meshes_built": calls["mesh.Mesh1D.__init__"],
            "mesh.nodes_assembled": sum(extras[n] for n in NODE_COUNTERS),
            "extremals.profiles_built": calls["extremals.build_moser_profile"],
            "inequalities.functional_evals": calls["inequalities.adams_functional"],
            "ball.grids_built": sum(calls[n] for n in GRIDS),
            "reporting.reports_written": calls["reporting.ExperimentReport.write"],
        }
    )
    return m


def census(spans: list) -> dict:
    """Calls per wrapped entry point, zeros included."""
    counts = {f"{layer}.{dotted}": 0 for layer, entries in ENTRY_POINTS.items() for dotted in entries}
    for span in spans:
        counts[span[3]] += 1
    return counts
