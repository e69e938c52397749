"""Acceptance suite: every release criterion at its pinned tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one summary line
per criterion.  Criterion 5 asserts the blow-up rate beta/2M - k = 0.1 (within
10%) on the concentration core, the geodesic ball inside the inner junction,
whose exact regression slope over m = 1e3..1e6 is 0.10003; the program gives
0.10002.  The full functional carries 1/log m corrections over the same
window (exact slope 0.08900, program 0.08939), so it is asserted against the
test's continuum oracle within 1%, as is the core slope.
"""

import math

import numpy as np
import pytest
from conftest import csr_of_band, csv_body, cutoff_condition_residuals, junction_jumps
from scipy.integrate import quad

from hyperadams.ball import (
    DimensionParams,
    DiskGrid,
    RadialFunction,
    RadialGrid,
    integrate_radial,
    pushforward_2d,
)
from hyperadams.experiments import (
    BUMPS,
    flat_oracle_energy,
    flat_oracle_grid,
    random_ball_profiles,
    random_smooth_profiles,
)
from hyperadams.extremals import (
    blowup_experiment,
    blowup_slopes,
    build_moser_profile,
    moser_energy,
    moser_hyperbolic_grid,
    sobolev_upper_experiment,
)
from hyperadams.inequalities import (
    beta0,
    check_owen,
    check_poincare_chain,
    moser_alpha,
    moser_normalizer,
    owen_constant,
    scalar_inequality_suite,
)
from hyperadams.operators import SCHEME_ORDER, gjms_assemble
from hyperadams.pde import (
    CONVEX,
    PDEProblem,
    _Discretization,
    _J_value,
    _convex_linearize,
    banded_direct_solve,
    solve_convex,
)

B0_2D = 4 * math.pi


def report(criterion: str, passed: bool, detail: str):
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} — {detail}")


# -- 1. constants suite (< 1 s) ------------------------------------------------


def test_criterion_1_constants_suite():
    dev_2d = abs(beta0(1, 2) - 4 * math.pi) / (4 * math.pi)
    assert dev_2d < 1e-14

    worst_crit = 0.0
    for k in range(1, 9):
        closed = k * (4 * math.pi) ** k * math.factorial(k - 1)
        two_mk = 2 * moser_normalizer(k) * k
        val = beta0(k, 2 * k)
        worst_crit = max(
            worst_crit, abs(val - closed) / closed, abs(val - two_mk) / closed
        )
    assert worst_crit < 1e-13

    worst_first = 0.0
    for N in range(2, 11):
        a = moser_alpha(N)
        worst_first = max(worst_first, abs(beta0(1, N) - a) / a)
    assert worst_first < 1e-13

    assert owen_constant(1) == 0.25
    assert owen_constant(2) == 9.0 / 16.0

    report(
        "1 (constants)",
        True,
        f"beta0(1,2) rel dev {dev_2d:.1e}; critical identity worst {worst_crit:.1e}; "
        f"first-order reduction worst {worst_first:.1e}; A(1), A(2) exact",
    )


# -- 2. conformal energy identity (< 1 min) -------------------------------------


def test_criterion_2_conformal_identity():
    r_max, degree, grading = 9.0, 6, 2.5
    base_levels = {1: 6, 2: 6, 3: 12}
    worst_final = 0.0
    worst_order = math.inf
    lines = []
    oracle_grid = flat_oracle_grid(r_max)
    for k in (1, 2, 3):
        dims = DimensionParams(k)
        for name, fn in BUMPS.items():
            oracle = flat_oracle_energy(k, fn, oracle_grid)
            errs = []
            for lvl in range(3):
                n_el = base_levels[k] * 2**lvl
                grid = RadialGrid.geodesic(
                    r_max=r_max, n_elements=n_el, degree=degree, grading=grading
                )
                u = RadialFunction.from_callable(grid, fn)
                val = gjms_assemble(dims, grid).quadratic_form(u)
                errs.append(abs(val - oracle) / oracle)
            order = math.log2(errs[0] / errs[-1]) / 2.0
            worst_final = max(worst_final, errs[-1])
            worst_order = min(worst_order, order)
            lines.append(f"k{k}/{name}: final {errs[-1]:.1e}, order {order:.1f}")
            assert errs[-1] <= 1e-4, f"k={k} bump={name}: {errs[-1]:.2e}"
            assert order >= SCHEME_ORDER - 0.5, f"k={k} bump={name}: order {order:.2f}"
    report(
        "2 (conformal identity)",
        True,
        f"worst final rel err {worst_final:.2e} (tol 1e-4); "
        f"worst observed order {worst_order:.2f} (floor {SCHEME_ORDER - 0.5})",
    )


# -- 3. Poincare chain and Owen margins (< 1 min) --------------------------------


def test_criterion_3_poincare_and_owen_margins():
    rng = np.random.default_rng(314159)
    worst_rel_margin = math.inf
    for k in (1, 2, 3):
        dims = DimensionParams(k)
        coarse = RadialGrid.geodesic(r_max=9.0, n_elements=12, degree=6, grading=2.0)
        fine = RadialGrid.geodesic(r_max=9.0, n_elements=24, degree=6, grading=2.0)
        for l in range(k):
            m_c, m_f = [], []
            for _ in range(100):
                amps = rng.uniform(-1, 1, 3)
                rates = rng.uniform(0.4, 2.5, 3)
                vals_c = sum(
                    a * np.exp(-c * coarse.mesh.nodes**2)
                    for a, c in zip(amps, rates)
                )
                vals_f = sum(
                    a * np.exp(-c * fine.mesh.nodes**2) for a, c in zip(amps, rates)
                )
                m_c.append(
                    check_poincare_chain(RadialFunction(coarse, vals_c), k, l, dims)
                )
                m_f.append(
                    check_poincare_chain(RadialFunction(fine, vals_f), k, l, dims)
                )
            scale = float(np.max(np.abs(m_f)))
            slack = 4.0 * float(np.max(np.abs(np.array(m_f) - np.array(m_c))))
            slack += 1e-10 * scale
            assert np.min(m_f) >= -slack, f"poincare k={k} l={l}"
            worst_rel_margin = min(worst_rel_margin, np.min(m_f) / scale)
        ball = RadialGrid.euclidean_ball(s_max=1.0, n_elements=30, degree=6)
        family = random_ball_profiles(ball, rng, 100, k)
        owen_m = [
            check_owen(RadialFunction(ball, row), k)
            for row in family.values
        ]
        scale = float(np.max(np.abs(owen_m)))
        assert np.min(owen_m) >= -1e-10 * scale, f"owen k={k}"
        worst_rel_margin = min(worst_rel_margin, np.min(owen_m) / scale)
    report(
        "3 (chain/boundary margins)",
        True,
        f"all margins nonnegative up to modeled slack; "
        f"smallest relative margin {worst_rel_margin:.2e}",
    )


# -- 4. Moser sequence fidelity (< 1 min) ----------------------------------------


def test_criterion_4_moser_fidelity():
    worst_junction = 0.0
    worst_cutoff = 0.0
    ratios = []
    for k in (1, 2):
        devs = []
        for m in (100, 1000, 10000):
            prof = build_moser_profile(m, k, moser_hyperbolic_grid(m, k))
            mm = junction_jumps(prof)
            worst_junction = max(
                worst_junction, mm["inner_junction"], mm["outer_junction"]
            )
            res = cutoff_condition_residuals(prof)
            worst_cutoff = max(worst_cutoff, float(np.max(np.abs(res))))
            devs.append(abs((moser_energy(prof) - 1.0) * prof.log_m))
        med = float(np.median(devs))
        ratios.append((k, max(devs) / med, min(devs) / med))
        assert max(devs) <= 3.0 * med, f"k={k}: {devs}"
        assert min(devs) >= med / 3.0, f"k={k}: {devs}"
    assert worst_junction <= 1e-10
    assert worst_cutoff <= 1e-10
    report(
        "4 (Moser fidelity)",
        True,
        f"junction mismatch {worst_junction:.1e}, cutoff residuals {worst_cutoff:.1e} "
        f"(tol 1e-10); |energy-1|*log m spread vs median: "
        + ", ".join(f"k={k}: [{lo:.2f}, {hi:.2f}]" for k, hi, lo in ratios),
    )


# -- 5. blow-up rate (< 5 min) ---------------------------------------------------


def _oracle_blowup_slopes(beta: float, m_list) -> tuple[float, float]:
    """Continuum cross-check: regression slopes of the full functional and of
    its concentration-core contribution for the closed-form profile (whose
    first-order energy is exactly 1).  The full functional is integrated by
    adaptive quadrature; on the core the profile is the constant a, so the
    core value is (e^{beta a^2} - 1) times the exact geodesic-disc area
    4 pi sinh^2(r/2)."""

    def profile(m):
        L = math.log(m)
        a = math.sqrt(L / (4 * math.pi))
        b = math.sqrt(1.0 / (math.pi * L))
        r_in = 2 * math.atanh(0.5 / math.sqrt(m))
        return a, b, r_in

    def functional(m):
        a, b, r_in = profile(m)
        r_out = 2 * math.atanh(0.5)

        def u(r):
            rho = 2 * math.tanh(r / 2)
            if rho < 1 / math.sqrt(m):
                return a
            if rho < 1.0:
                return -b * math.log(rho)
            return 0.0

        def integrand(r):
            return math.expm1(beta * u(r) ** 2) * 2 * math.pi * math.sinh(r)

        v1, _ = quad(integrand, 0, r_in, limit=200)
        v2, _ = quad(integrand, r_in, r_out, limit=400)
        return v1 + v2

    def core(m):
        a, _, r_in = profile(m)
        return math.expm1(beta * a**2) * 4 * math.pi * math.sinh(r_in / 2) ** 2

    x = np.log(m_list)
    full = np.polyfit(x, np.log([functional(m) for m in m_list]), 1)[0]
    core_slope = np.polyfit(x, np.log([core(m) for m in m_list]), 1)[0]
    return float(full), float(core_slope)


def test_criterion_5_blowup_rate():
    m_list = [10**3, 10**4, 10**5, 10**6]
    beta_hi, beta_lo = 1.1 * B0_2D, 0.9 * B0_2D
    recs = blowup_experiment([beta_hi, beta_lo], m_list, k=1)
    fits = blowup_slopes(recs)
    slope = fits[beta_hi]["slope"]
    core_slope = fits[beta_hi]["core_slope"]
    target = beta_hi / (2 * moser_normalizer(1)) - 1  # = 0.1
    spread = fits[beta_lo]["max_over_min"]
    oracle_slope, oracle_core = _oracle_blowup_slopes(beta_hi, m_list)
    rate_dev = abs(core_slope - target) / target
    full_dev = abs(slope - oracle_slope) / oracle_slope
    core_dev = abs(core_slope - oracle_core) / oracle_core
    passed = rate_dev <= 0.10 and core_dev <= 0.01 and full_dev <= 0.01 and spread < 10
    report(
        "5 (blow-up rate)",
        passed,
        f"core slope {core_slope:.5f} vs target {target:.5f} (rel dev {rate_dev:.2%}, "
        f"tol 10%) and vs continuum {oracle_core:.5f} ({core_dev:.2%}, tol 1%); "
        f"full slope {slope:.5f} vs continuum {oracle_slope:.5f} ({full_dev:.2%}, "
        f"tol 1%); subcritical max/min {spread:.2f} (tol 10)",
    )
    assert spread < 10.0, "bounded direction failed"
    assert rate_dev <= 0.10, (
        f"concentration-core regression slope {core_slope:.5f} deviates "
        f"{rate_dev:.1%} from the blow-up rate beta/2M - k = {target:.5f} "
        f"(tolerance 10%); the continuum core slope over these m is "
        f"{oracle_core:.5f}"
    )
    assert core_dev <= 0.01, (
        f"core slope {core_slope:.5f} deviates {core_dev:.2%} from the continuum "
        f"core slope {oracle_core:.5f} (exact disc area; tolerance 1%)"
    )
    assert full_dev <= 0.01, (
        f"full-functional regression slope {slope:.5f} deviates {full_dev:.2%} "
        f"from the continuum slope {oracle_slope:.5f} of the closed-form profile "
        f"over the same m (tolerance 1%); the full functional carries 1/log m "
        f"corrections, so its exact slope over this window is below {target:.5f}"
    )


# -- 6. best-constant asymptotics (< 5 min) --------------------------------------


def test_criterion_6_best_constant_asymptotics():
    rows = sobolev_upper_experiment([100, 1000, 10000, 100000, 1000000], k=1)
    target = rows[-1].target
    assert abs(target - 8 * math.pi * math.e) < 1e-9
    final_dev = abs(rows[-1].p_s_upper - target) / target
    first_dev = abs(rows[0].p_s_upper - target) / target
    assert final_dev <= 0.15, f"final p*S_upper off by {final_dev:.1%}"
    assert final_dev < first_dev, "sweep does not move toward the limit"
    report(
        "6 (best-constant asymptotics)",
        True,
        f"p*S_upper at m=1e6: {rows[-1].p_s_upper:.3f} vs 2*beta0*e = {target:.3f} "
        f"({final_dev:.1%}, tol 15%); trend {first_dev:.1%} -> {final_dev:.1%}",
    )


# -- 7. scalar inequalities (< 1 s) ----------------------------------------------


def test_criterion_7_scalar_inequalities():
    suite = scalar_inequality_suite()
    assert suite["n_points"] >= 100_000
    assert suite["passed"], suite
    assert suite["equality_at_zero"]
    report(
        "7 (scalar inequalities)",
        True,
        f"both inequalities hold at {suite['n_points']} points in [-50, 50], "
        f"equality at t = 0",
    )


# -- 8. PDE solver (< 2 min) ------------------------------------------------------


def _pde_grid():
    return RadialGrid.geodesic(r_max=12.0, n_elements=24, degree=4, grading=1.5)


def _restricted_product(problem):
    import scipy.sparse as sp

    op = gjms_assemble(problem.dims, problem.grid)
    keep = np.arange(problem.grid.n_nodes - 1)
    K = csr_of_band(op.stiffness).tocsc()[keep][:, keep].tocsr()
    M = op.mass[keep]
    A = (sp.diags(1.0 / M) @ K).tocsr()
    P = None
    eye = sp.identity(keep.size, format="csr")
    for sigma in op.shifts:
        P = (A + sigma * eye) if P is None else ((A + sigma * eye) @ P)
    return P.tocsr(), M


def test_criterion_8_pde_solver():
    grid = _pde_grid()
    details = []
    for k in (1, 2):
        dims = DimensionParams(k)
        zero = RadialFunction(grid, np.zeros(grid.n_nodes))
        gauss = RadialFunction.from_callable(grid, lambda r: np.exp(-(r**2)))
        neg_gauss = RadialFunction.from_callable(grid, lambda r: -np.exp(-(r**2)))

        # (a) trivial data
        res_triv = solve_convex(PDEProblem(dims, zero, zero, CONVEX), tol=1e-13)
        assert res_triv.residual_norm < 1e-12

        # (b) linear case vs banded direct solve
        prob_lin = PDEProblem(dims, gauss, zero, CONVEX)
        res_lin = solve_convex(prob_lin, tol=1e-9)
        disc = _Discretization(prob_lin)
        direct = banded_direct_solve(disc, -disc.mass_dv * disc.Q1)
        lin_dev = float(
            np.max(np.abs(res_lin.u.values[:-1] - direct)) / np.max(np.abs(direct))
        )
        assert lin_dev <= 1e-8

        # (c) convex case with certified residual recomputed independently
        prob = PDEProblem(dims, gauss, neg_gauss, CONVEX)
        res = solve_convex(prob, tol=1e-9)
        assert res.converged
        P, M = _restricted_product(prob)
        u = res.u.values[:-1]
        r_vec = P @ u + prob.Q1.values[:-1] - prob.Q2.values[:-1] * np.exp(2 * u)
        certified = math.sqrt(float(np.dot(dims.omega_Nm1 * M, r_vec**2)))
        assert certified <= 1e-8, f"k={k}: certified residual {certified:.2e}"

        # gradient vs central finite differences
        rng = np.random.default_rng(7 + k)
        disc = _Discretization(prob)
        worst_fd = 0.0
        nodes = grid.mesh.nodes[:-1]
        for _ in range(20):
            u_t = rng.uniform(0.2, 1.0) * np.exp(-rng.uniform(0.5, 2) * nodes**2)
            w_t = rng.uniform(0.2, 1.0) * np.exp(-rng.uniform(0.5, 2) * nodes**2)
            g = _convex_linearize(u_t, disc)[0]
            inner = float(np.dot(disc.mass_dv, g * w_t))
            eps = 1e-5
            fd = (_J_value(u_t + eps * w_t, disc) - _J_value(u_t - eps * w_t, disc)) / (
                2 * eps
            )
            worst_fd = max(worst_fd, abs(fd - inner) / (1.0 + abs(fd)))
        assert worst_fd <= 1e-6
        details.append(
            f"k={k}: linear dev {lin_dev:.1e}, certified residual {certified:.1e}, "
            f"grad-FD {worst_fd:.1e}"
        )
    report("8 (PDE solver)", True, "; ".join(details))


# -- 9. isometry invariance, N = 2 (< 1 min) --------------------------------------


def test_criterion_9_isometry_invariance():
    rng = np.random.default_rng(2718281)
    disk = DiskGrid(s_max=0.92, n_radial=96, n_angular=96)
    s0 = 0.35

    def u_fn(points):
        s2 = np.sum(np.asarray(points, dtype=float) ** 2, axis=-1)
        out = np.zeros_like(s2)
        inside = s2 < s0**2
        out[inside] = np.exp(-s2[inside] / (s0**2 - s2[inside]))
        return out

    a = 6.0

    def g_fn(points):
        s2 = np.sum(np.asarray(points, dtype=float) ** 2, axis=-1)
        return np.exp(-a * s2)

    def lap_g(points):
        s2 = np.sum(np.asarray(points, dtype=float) ** 2, axis=-1)
        return ((1.0 - s2) / 2.0) ** 2 * (4 * a**2 * s2 - 4 * a) * np.exp(-a * s2)

    base = disk.integrate_hyperbolic(disk.sample(u_fn) ** 2)
    worst_int, worst_lap = 0.0, 0.0
    for _ in range(10):
        while True:
            b = rng.uniform(-0.5, 0.5, size=2)
            if np.linalg.norm(b) <= 0.5:
                break
        moved = disk.integrate_hyperbolic(disk.sample(pushforward_2d(u_fn, b)) ** 2)
        worst_int = max(worst_int, abs(moved - base) / base)
        G = disk.sample(pushforward_2d(g_fn, b))
        lap_disc = disk.laplace_beltrami(G)
        lap_true = disk.sample(pushforward_2d(lap_g, b))
        worst_lap = max(
            worst_lap,
            float(np.max(np.abs(lap_disc - lap_true)) / np.max(np.abs(lap_true))),
        )
    assert worst_int <= 1e-5  # grid-order tolerance at this 2D resolution
    assert worst_lap <= 1e-5
    report(
        "9 (isometry invariance)",
        True,
        f"10 random |b| <= 0.5: worst integral dev {worst_int:.1e}, "
        f"worst pointwise commutation dev {worst_lap:.1e} (tol 1e-5)",
    )


# -- 10. determinism ----------------------------------------------------------------


def test_criterion_10_determinism(tmp_path):
    from hyperadams.cli import main

    cfg = tmp_path / "ineq.cfg"
    cfg.write_text(
        "experiment = inequalities\nn_profiles = 25\nk_max = 2\nseed = 123\n"
        "n_elements = 12\npoly_degree = 5\n"
    )
    out1, out2 = tmp_path / "one", tmp_path / "two"
    assert main(["run", str(cfg), "--out", str(out1)]) == 0
    assert main(["run", str(cfg), "--out", str(out2)]) == 0
    b1 = csv_body(str(out1 / "inequalities.csv"))
    b2 = csv_body(str(out2 / "inequalities.csv"))
    assert b1 == b2
    report(
        "10 (determinism)",
        True,
        f"identical config + seed reproduce byte-identical CSV bodies "
        f"({len(b1)} bytes)",
    )
