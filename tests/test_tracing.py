"""The per-layer tracer of the benchmark (perfbench/tracing.py) still finds
and counts the program's entry points.  The tracer is loaded from its file
and is not modified; it is uninstalled after the run."""

import dataclasses
import importlib.util
import math
import os

import pytest

import hyperadams.cli as cli
from hyperadams.config import load_config
from hyperadams.experiments import convergence_study, run_inequalities

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)


@pytest.fixture
def tracing():
    path = os.path.join(ROOT, "perfbench", "tracing.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_run_counts_assemblies_and_newton_iterations(tracing, tmp_path):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for name in ("conformal_identity.cfg", "solve_pde_log_k1.cfg", "blowup_k1.cfg"):
            cfg = os.path.join(ROOT, "configs", name)
            assert cli.main(["run", cfg, "--out", str(tmp_path)]) == 0
        # the refinement study solves its three levels through the wrapped solver
        cfg = os.path.join(ROOT, "configs", "solve_pde_log_k1.cfg")
        assert cli.main(["converge", cfg, "--out", str(tmp_path)]) == 0
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics(tracer.spans)
    calls = tracing.census(tracer.spans)
    # the functionals integrate and check their tails through one quadrature
    assert calls["ball.integrate_radial"] > 0
    assert calls["ball.tail_fraction"] > 0
    assert metrics["operators.assemblies"] > 0
    assert metrics["operators.pk_nnz"] > 0
    assert metrics["pde.newton_iters"] > 0
    assert metrics["pde.solves"] == 4
    assert metrics["mesh.meshes_built"] > 0
    assert metrics["mesh.nodes_assembled"] > 0


def test_inequalities_study_computes_only_the_margins(tracing, tmp_path):
    path = os.path.join(ROOT, "configs", "inequalities.cfg")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.main(["converge", path, "--out", str(tmp_path)]) == 0
    finally:
        tracer.uninstall()
    calls = tracing.census(tracer.spans)
    # the study reads margin signs only: no calibration, no scalar suite
    assert calls["inequalities.fit_linearized_calibration"] == 0
    assert calls["inequalities.scalar_inequality_suite"] == 0
    # and its rows are the runner's poincare/owen margin signs at n, 2n, 4n
    cfg = load_config(path)
    base = cfg.params["n_elements"]
    expected = []
    for n_el in (base, 2 * base, 4 * base):
        level = dataclasses.replace(cfg, params={**cfg.params, "n_elements": n_el, "n_profiles": 20})
        expected += [
            (f"{row[0]}_k{row[1]}_l{row[2]}", n_el, math.copysign(1.0, row[4]), True)
            for row in run_inequalities(level).rows
            if row[0] in ("poincare", "owen")
        ]
    assert convergence_study(cfg).rows == expected
