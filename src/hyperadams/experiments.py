"""Experiment implementations behind the CLI.

Each experiment consumes a validated ExperimentConfig and produces an
ExperimentReport whose CSV body is a pure function of (config, seed).
Randomized sweeps draw from numpy's PCG64 generator seeded from the config.
A runner or refinement study whose check fails says so in
``ExperimentReport.failure``; the CLI turns that into an exit code.
Every report's CSV header is its entry in ``COLUMNS``.
"""

from __future__ import annotations

import dataclasses
import math
import warnings

import numpy as np

from .ball import (
    DimensionParams,
    DiskGrid,
    RadialFunction,
    RadialGrid,
    hyperbolic_translate,
    squared_norm,
)
from .config import ExperimentConfig
from .errors import ConfigError, DiscretizationError, DomainError, FeasibilityError
from .extremals import (
    blowup_experiment,
    blowup_slopes,
    moser_first_width,
    sobolev_upper_experiment,
)
from .inequalities import (
    beta0,
    fit_linearized_calibration,
    liu_constant,
    moser_alpha,
    moser_normalizer,
    owen_constant,
    owen_margins,
    poincare_margins,
    scalar_inequality_suite,
)
from .mesh import graded_edges
from .operators import SCHEME_ORDER, euclidean_gradk_energy, gjms_assemble
from .pde import CONVEX, PDEProblem, solve_convex, solve_log_constrained
from .reporting import ExperimentReport

# CSV header of each report, as the README lists it: the seven runs, then
# the three refinement studies
COLUMNS = {
    "constants": "quantity, k, N, value, reference_value, rel_deviation",
    "conformal-identity": "k, bump, n_elements, n_nodes, gjms_energy, euclidean_energy, rel_error",
    "inequalities": "check, k, l, n_samples, min_or_value, median_or_param",
    "blowup": "k, beta, m, energy, functional, slope_fit, slope_target, max_over_min",
    "sobolev-asymptotics": "k, m, p, s_upper, p_s_upper, target_2beta0e",
    "solve-pde": "mode, k, iterations, converged, objective, residual_norm, additive_constant",
    "isometry-2d": "b_x, b_y, int_u2, int_composed, rel_integral_dev, rel_laplacian_dev",
    "conformal-identity-convergence": "case, coarse_error, fine_error, observed_order, monotone",
    "inequalities-convergence": "case, n_elements, margin_sign, placeholder",
    "solve-pde-convergence": "case, n_elements, residual, converged",
}


def _report(
    cfg: ExperimentConfig, rows, diagnostics=None, failure=None, name=None
) -> ExperimentReport:
    """The report named ``name`` (default: the config's experiment) of a run
    of ``cfg``, with its config echo and its ``COLUMNS`` header."""
    name = name or cfg.experiment
    return ExperimentReport(
        experiment=name,
        config_echo=cfg.canonical(),
        columns=COLUMNS[name].split(", "),
        rows=rows,
        diagnostics=diagnostics or {},
        failure=failure,
    )


# fixed smooth bump family used by the conformal-identity experiment
BUMPS = {
    "gauss": lambda r: np.exp(-(r**2)),
    "gauss_poly": lambda r: (1.0 + r**2) * np.exp(-1.3 * r**2) * 0.7,
    "gauss_cos": lambda r: np.exp(-0.6 * r**2) * np.cos(r),
}


def _grid(params: dict, n_elements: int | None = None) -> RadialGrid:
    """Geodesic grid from the config's grid keys; a grading whose edges
    r_max (j/n)^grading round to equal values is a configuration error."""
    n_elements = n_elements or params["n_elements"]
    if not np.all(np.diff(graded_edges(params["r_max"], n_elements, params["grading"])) > 0):
        raise ConfigError(
            f"grading = {params['grading']!r} makes graded grid edges coincide "
            f"at {n_elements} elements"
        )
    return RadialGrid.geodesic(
        r_max=params["r_max"],
        n_elements=n_elements,
        degree=params["poly_degree"],
        grading=params["grading"],
    )


def random_smooth_profiles(grid: RadialGrid, rng, n: int) -> RadialFunction:
    """Seeded family of smooth, decaying, even radial profiles, as one
    RadialFunction holding an (n, n_nodes) block, one profile per row.

    Each profile draws three amplitudes in [-1, 1], then three rates in
    [0.4, 2.5]."""
    draws = rng.uniform([-1.0] * 3 + [0.4] * 3, [1.0] * 3 + [2.5] * 3, size=(n, 6))
    r2 = grid.mesh.nodes**2
    # 0 + term_0 + term_1 + term_2, summed in place in that order
    values = np.zeros((n, r2.size))
    term = np.empty_like(values)
    for i in range(3):
        np.multiply(-draws[:, [3 + i]], r2, out=term)
        np.exp(term, out=term)
        term *= draws[:, [i]]
        values += term
    return RadialFunction(grid, values)


def random_ball_profiles(grid: RadialGrid, rng, n: int, k: int) -> RadialFunction:
    """Smooth profiles compactly supported in the ball of radius 0.55 (Owen
    sweeps), as one (n, n_nodes) block.

    The bump power grows with k so grad^k stays continuous."""
    s = grid.mesh.nodes
    base = np.clip(1.0 - (s / 0.55) ** 2, 0.0, None) ** (k + 3)
    coeffs = rng.uniform(-1.0, 1.0, size=(n, 3))
    # base * ((c_0 + c_1 s^2) + c_2 s^4), evaluated in place in that order
    values = coeffs[:, [1]] * s**2
    values += coeffs[:, [0]]
    values += coeffs[:, [2]] * s**4
    values *= base
    return RadialFunction(grid, values)


# -- individual experiments ---------------------------------------------------


def run_constants(cfg: ExperimentConfig) -> ExperimentReport:
    k_max = cfg.params["k_max"]
    rows = []
    for k in range(1, k_max + 1):
        value = beta0(k, 2 * k)
        closed = k * (4.0 * math.pi) ** k * math.factorial(k - 1)
        twoMk = 2.0 * moser_normalizer(k) * k
        rows.append(
            ("beta0_critical", k, 2 * k, value, closed, abs(value - closed) / closed)
        )
        rows.append(
            ("beta0_vs_2Mk", k, 2 * k, value, twoMk, abs(value - twoMk) / twoMk)
        )
    for N in range(2, 11):
        value = beta0(1, N)
        alpha = moser_alpha(N)
        rows.append(("beta0_first_order", 1, N, value, alpha, abs(value - alpha) / alpha))
    for k in range(1, min(k_max, 6) + 1):
        rows.append(("owen", k, 0, owen_constant(k), owen_constant(k), 0.0))
    for k in (1, 2):
        for N in range(2 * k + 1, 2 * k + 5):
            rows.append(("liu_sphere_convention", k, N, liu_constant(k, N), 0.0, 0.0))
    return _report(cfg, rows)


def flat_oracle_grid(r_max: float) -> RadialGrid:
    """The independent fine Euclidean-radius grid of ``flat_oracle_energy``,
    covering the geodesic ball of radius r_max."""
    s_max = math.tanh(r_max / 2.0)
    return RadialGrid.euclidean_ball(s_max=s_max, n_elements=40, degree=9, grading=1.3)


def flat_oracle_energy(k: int, fn, grid: RadialGrid) -> float:
    """Reference flat k-energy on a ``flat_oracle_grid``.

    The profile is resampled analytically (fn takes the geodesic radius), so
    the oracle shares neither nodes, coordinate, weights nor operator with
    the hyperbolic quadratic form it checks.  One grid serves every (k, fn):
    it keeps the flat Laplacian of each dimension once assembled.
    """
    u = RadialFunction(grid, np.asarray(fn(grid.geodesic_nodes), dtype=float))
    return euclidean_gradk_energy(u, DimensionParams(k))


def run_conformal_identity(cfg: ExperimentConfig) -> ExperimentReport:
    rows = []
    orders = {}
    oracle_grid = flat_oracle_grid(cfg.params["r_max"])
    for k in cfg.params["k_list"]:
        dims = DimensionParams(k)
        # the stiff high-order products need a resolved base level
        base_scale = {1: 1, 2: 1, 3: 2}.get(k, 2)
        levels = []  # (n_elements, grid, P_k) of each level, shared by the bumps
        for lvl in range(cfg.params["levels"]):
            n_el = cfg.params["n_elements"] * 2**lvl * base_scale
            grid = _grid(cfg.params, n_el)
            levels.append((n_el, grid, gjms_assemble(dims, grid)))
        for name, fn in BUMPS.items():
            oracle = flat_oracle_energy(k, fn, oracle_grid)
            errs = []
            for n_el, grid, op in levels:
                gjms_val = op.quadratic_form(RadialFunction.from_callable(grid, fn))
                rel = abs(gjms_val - oracle) / oracle
                errs.append(rel)
                rows.append((k, name, n_el, grid.n_nodes, gjms_val, oracle, rel))
            pair_orders = [
                math.log2(errs[i] / errs[i + 1])
                for i in range(len(errs) - 1)
                if errs[i + 1] > 0 and errs[i] > 0
            ]
            aggregate = (
                math.log2(errs[0] / errs[-1]) / (len(errs) - 1)
                if errs[0] > 0 and errs[-1] > 0
                else math.nan
            )
            orders[f"k{k}_{name}"] = {
                "errors": errs,
                "pair_orders": pair_orders,
                "observed_order": aggregate,
            }
    return _report(cfg, rows, {"orders": orders, "scheme_order": SCHEME_ORDER})


def _margin_summary(check: str, k: int, l: int, margins) -> tuple:
    return (check, k, l, len(margins), float(np.min(margins)), float(np.median(margins)))


def _inequality_margins(cfg: ExperimentConfig):
    """For each k: its dimensions, the smooth family, and the poincare and
    owen rows, with every family drawn from the config's seed in order."""
    rng = np.random.default_rng(cfg.seed)
    n_prof = cfg.params["n_profiles"]
    # one grid of each kind serves every k: operators are cached per dimension
    grid = _grid(cfg.params)
    ball = RadialGrid.euclidean_ball(
        s_max=1.0, n_elements=cfg.params["n_elements"], degree=cfg.params["poly_degree"]
    )
    for k in range(1, cfg.params["k_max"] + 1):
        dims = DimensionParams(k)
        profiles = random_smooth_profiles(grid, rng, n_prof)
        rows = [
            _margin_summary("poincare", k, l, margins)
            for l, margins in enumerate(poincare_margins(profiles, k, dims))
        ]
        ball_profiles = random_ball_profiles(ball, rng, n_prof // 2, k)
        rows.append(_margin_summary("owen", k, 0, owen_margins(ball_profiles, k)))
        yield dims, profiles, rows


def run_inequalities(cfg: ExperimentConfig) -> ExperimentReport:
    rows = []
    delta = cfg.params["delta"]
    for dims, profiles, margin_rows in _inequality_margins(cfg):
        rows += margin_rows
        fitted = RadialFunction(profiles.grid, profiles.values[:20])
        calib = fit_linearized_calibration(fitted, delta, dims)
        rows.append(
            ("linearized_calibration", dims.k, 0, len(fitted.values), calib, delta)
        )
    suite = scalar_inequality_suite(seed=cfg.seed)
    rows.append(
        (
            "scalar_suite",
            0,
            0,
            suite["n_points"],
            1.0 if suite["passed"] else 0.0,
            0.0,
        )
    )
    return _report(cfg, rows, {"scalar_suite": suite})


def run_blowup(cfg: ExperimentConfig) -> ExperimentReport:
    k = cfg.params["k"]
    r_max = cfg.params["r_max"] or None
    h0 = moser_first_width(min(cfg.params["m_list"]))  # the smallest m's is the widest
    if 0 < cfg.params["r_max"] <= h0:
        raise ConfigError(f"r_max = {r_max!r} must exceed the first element width {h0:.4g}")
    # the JSON keeps each warning stderr shows, such as a truncation tail or
    # an ill-conditioned slope fit
    with warnings.catch_warnings(record=True) as caught:
        records = blowup_experiment(
            cfg.params["beta_list"],
            cfg.params["m_list"],
            k,
            degree=cfg.params["poly_degree"],
            r_max=r_max,
        )
        fits = blowup_slopes(records)
    for w in caught:
        warnings.showwarning(w.message, w.category, w.filename, w.lineno, w.file, w.line)
    rows = []
    for rec in records:
        if not math.isfinite(rec.functional_value):
            raise DiscretizationError(
                f"the functional at beta = {rec.beta:.6g}, m = {rec.m:.6g} is not finite; "
                "lower beta or m"
            )
        fit = fits[rec.beta]
        rows.append(
            (
                k,
                rec.beta,
                rec.m,
                rec.energy,
                rec.functional_value,
                fit["slope"],
                rec.predicted_exponent,
                fit["max_over_min"],
            )
        )
    return _report(
        cfg,
        rows,
        {
            "fits": {f"{b:.6g}": f for b, f in fits.items()},
            "warnings": [f"{w.category.__name__}: {w.message}" for w in caught],
        },
    )


def run_sobolev_asymptotics(cfg: ExperimentConfig) -> ExperimentReport:
    k = cfg.params["k"]
    rows_data = sobolev_upper_experiment(
        cfg.params["m_list"], k, degree=cfg.params["poly_degree"]
    )
    rows = [(k, r.m, r.p, r.s_upper, r.p_s_upper, r.target) for r in rows_data]
    trend = [r.p_s_upper for r in rows_data]
    moving_toward = (
        abs(trend[-1] - rows_data[-1].target) <= abs(trend[0] - rows_data[0].target)
        if len(trend) > 1
        else True
    )
    return _report(
        cfg,
        rows,
        {
            "final_rel_dev": abs(trend[-1] - rows_data[-1].target) / rows_data[-1].target,
            "moving_toward_target": moving_toward,
        },
    )


def _pde_problem(cfg: ExperimentConfig) -> PDEProblem:
    """The configured problem; data outside its mode's hypotheses is a
    configuration error, raised before any solve."""
    p = cfg.params
    q1, q2 = (
        (
            p[f"{q}_family"],
            {key: p[f"{q}_{key}"] for key in ("amplitude", "width", "radius", "power")},
        )
        for q in ("q1", "q2")
    )
    dims, grid = DimensionParams(p["k"]), _grid(p)
    try:
        return PDEProblem.from_families(dims, grid, q1, q2, mode=p["mode"])
    except DomainError as exc:
        raise ConfigError(str(exc)) from None


def run_solve_pde(cfg: ExperimentConfig) -> ExperimentReport:
    problem = _pde_problem(cfg)
    solve = solve_convex if problem.mode == CONVEX else solve_log_constrained
    try:
        result = solve(problem, tol=cfg.params["tol"], max_iter=cfg.params["max_iter"])
    except FeasibilityError as exc:  # log mode with Q2 = 0 at every node: no admissible data
        raise ConfigError(str(exc)) from None
    rows = [
        (
            cfg.params["mode"],
            cfg.params["k"],
            result.iterations,
            result.converged,
            result.objective,
            result.residual_norm,
            result.additive_constant if result.additive_constant is not None else 0.0,
        )
    ]
    return _report(
        cfg,
        rows,
        {
            "message": result.message,
            "objective_history": list(result.objective_history),
            "step_lengths": list(result.step_lengths),
            "decrements": list(result.decrements),
            "converged": result.converged,
        },
        failure=None if result.converged else "solver did not converge",
    )


def run_isometry_2d(cfg: ExperimentConfig) -> ExperimentReport:
    rng = np.random.default_rng(cfg.seed)
    p = cfg.params
    disk = DiskGrid(s_max=0.92, n_radial=p["n_radial"], n_angular=p["n_angular"])
    s0 = p["support_radius"]

    # compactly supported profile for the integral identity (u must be
    # square-integrable against the exploding boundary volume)
    def u_fn(points):
        s2 = squared_norm(points)
        out = np.zeros_like(s2)
        inside = s2 < s0**2
        out[inside] = np.exp(-s2[inside] / (s0**2 - s2[inside]))
        return out

    # entire profile for the pointwise commutation check (resolved to
    # spectral accuracy by the global polynomial basis)
    a = 6.0

    def g_fn(points):
        s2 = squared_norm(points)
        return np.exp(-a * s2)

    def lap_g(points):
        s2 = squared_norm(points)
        return ((1.0 - s2) / 2.0) ** 2 * (4.0 * a**2 * s2 - 4.0 * a) * np.exp(-a * s2)

    base_u = disk.sample(u_fn)
    base_int = disk.integrate_hyperbolic(base_u**2)
    if base_int == 0.0:  # every relative deviation would divide by it
        raise DiscretizationError(
            "no disk node lies inside the support of u; "
            "raise n_radial or support_radius"
        )
    rows = []
    for _ in range(p["n_translations"]):
        while True:
            b = rng.uniform(-p["b_max"], p["b_max"], size=2)
            if np.linalg.norm(b) <= p["b_max"]:
                break
        # u, g and Delta_g g composed with tau_b, all on one set of moved points
        moved = hyperbolic_translate(b, disk.points)
        moved_int = disk.integrate_hyperbolic(u_fn(moved) ** 2)
        lap_disc = disk.laplace_beltrami(g_fn(moved))
        lap_true = lap_g(moved)
        sup_dev = float(np.max(np.abs(lap_disc - lap_true)))
        sup_ref = float(np.max(np.abs(lap_true)))
        rows.append(
            (
                float(b[0]),
                float(b[1]),
                base_int,
                moved_int,
                abs(moved_int - base_int) / base_int,
                sup_dev / sup_ref,
            )
        )
    return _report(cfg, rows)


_RUNNERS = {
    "constants": run_constants,
    "conformal-identity": run_conformal_identity,
    "inequalities": run_inequalities,
    "blowup": run_blowup,
    "sobolev-asymptotics": run_sobolev_asymptotics,
    "solve-pde": run_solve_pde,
    "isometry-2d": run_isometry_2d,
}


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    return _RUNNERS[cfg.experiment](cfg)


def _at_level(cfg: ExperimentConfig, **params) -> ExperimentConfig:
    return dataclasses.replace(cfg, params={**cfg.params, **params})


# -- refinement studies -------------------------------------------------------
# Each returns (rows, diagnostics, passed, the check it makes).


def _conformal_study(cfg: ExperimentConfig):
    rep = run_conformal_identity(_at_level(cfg, levels=3))
    rows = []
    for key, info in rep.diagnostics["orders"].items():
        errs = info["errors"]
        monotone = all(errs[i] > errs[i + 1] for i in range(len(errs) - 1))
        rows.append((key, errs[0], errs[-1], info["observed_order"], monotone))
    worst = min([math.inf] + [row[3] for row in rows])  # a NaN order never wins
    diagnostics = {"observed_min_order": worst}
    if not all(row[4] for row in rows):
        diagnostics["non_monotone"] = [row[0] for row in rows if not row[4]]
    return (
        rows,
        diagnostics,
        worst >= SCHEME_ORDER - 0.5,
        f"observed order {worst:.2f} is more than 0.5 "
        f"below the documented order {SCHEME_ORDER}",
    )


def _inequalities_study(cfg: ExperimentConfig):
    base = cfg.params["n_elements"]
    rows, signs = [], []
    for n_el in (base, 2 * base, 4 * base):
        level = _inequality_margins(_at_level(cfg, n_elements=n_el, n_profiles=20))
        signs.append({
            (r[0], r[1], r[2]): math.copysign(1.0, r[4])
            for _dims, _profiles, margin_rows in level
            for r in margin_rows
        })
        for (check, k, l), sign in signs[-1].items():
            rows.append((f"{check}_k{k}_l{l}", n_el, sign, True))
    passed = all(len({level[key] for level in signs}) == 1 for key in signs[0])
    return (
        rows,
        {"sign_stable": passed},
        passed,
        "inequality margin signs change across refinement levels",
    )


def _pde_study(cfg: ExperimentConfig):
    base = cfg.params["n_elements"]
    rows = []
    for lvl, n_el in enumerate((base, 2 * base, 4 * base)):
        row = run_solve_pde(_at_level(cfg, n_elements=n_el)).rows[0]
        rows.append((f"level{lvl}", n_el, row[5], row[3]))
    passed = all(row[2] <= cfg.params["tol"] for row in rows)
    return (
        rows,
        {"tol_saturated": passed},
        passed,
        "a refinement level's residual is above tol",
    )


_STUDIES = {
    "conformal-identity": _conformal_study,
    "inequalities": _inequalities_study,
    "solve-pde": _pde_study,
}


def convergence_study(cfg: ExperimentConfig) -> ExperimentReport:
    """Run an experiment at n, 2n, 4n elements and check its study."""
    if cfg.experiment not in _STUDIES:
        raise ConfigError(
            f"experiment {cfg.experiment!r} does not support refinement studies"
        )
    rows, diagnostics, passed, check = _STUDIES[cfg.experiment](cfg)
    return _report(
        cfg,
        rows,
        {"scheme_order": SCHEME_ORDER, **diagnostics, "passed": passed},
        failure=None if passed else f"convergence study failed: {check}",
        name=f"{cfg.experiment}-convergence",
    )
