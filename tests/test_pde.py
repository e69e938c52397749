import math
import os
import subprocess
import sys

import numpy as np
import pytest
from conftest import csr_of_band

from hyperadams.ball import DimensionParams, RadialFunction, RadialGrid
from hyperadams.config import load_config
from hyperadams.errors import DiscretizationError, DomainError, FeasibilityError
from hyperadams import pde
from hyperadams.pde import (
    CONVEX,
    FULL_STEP_DECREASE,
    LOG_CONSTRAINED,
    PDEProblem,
    _Discretization,
    _J_value,
    _JQ_value,
    _band_solve,
    _convex_linearize,
    _damped_newton,
    banded_direct_solve,
    log_argument,
    radial_family,
    ray_coercivity_table,
    solve_convex,
    solve_log_constrained,
)
from hyperadams.experiments import _pde_problem
from hyperadams.operators import gjms_assemble


@pytest.fixture(scope="module")
def pde_grid():
    return RadialGrid.geodesic(r_max=12.0, n_elements=24, degree=4, grading=1.5)


def make_problem(grid, k, q1_fn, q2_fn, mode=CONVEX):
    dims = DimensionParams(k)
    return PDEProblem(
        dims,
        RadialFunction.from_callable(grid, q1_fn),
        RadialFunction.from_callable(grid, q2_fn),
        mode,
    )


def restricted_product_matrix(problem):
    """P_k on the Dirichlet-restricted node set, assembled as one matrix
    product (a route independent of the solver's factor-by-factor applies)."""
    import scipy.sparse as sp

    op = gjms_assemble(problem.dims, problem.grid)
    n = problem.grid.n_nodes
    keep = np.arange(n - 1)
    K = csr_of_band(op.stiffness).tocsc()[keep][:, keep].tocsr()
    M = op.mass[keep]
    A = (sp.diags(1.0 / M) @ K).tocsr()
    P = None
    eye = sp.identity(keep.size, format="csr")
    for sigma in op.shifts:
        factor = (A + sigma * eye).tocsr()
        P = factor if P is None else (factor @ P).tocsr()
    return P, M


def restricted_energy_matrix(problem, absolute=False):
    """omega M P_k on the Dirichlet-restricted node set as the sparse product
    omega B_1 M^{-1} B_2 ... M^{-1} B_k of the sums B_j = K + sigma_j M
    (with absolute=True, the same product of the |B_j|)."""
    import scipy.sparse as sp

    op = gjms_assemble(problem.dims, problem.grid)
    keep = np.arange(problem.grid.n_nodes - 1)
    K = csr_of_band(op.stiffness).tocsc()[keep][:, keep].tocsr()
    M = op.mass[keep]
    factors = [(K + sigma * sp.diags(M)).tocsr() for sigma in op.shifts]
    factors = [abs(B) for B in factors] if absolute else factors
    H = factors[0]
    for B in factors[1:]:
        H = (H @ sp.diags(1.0 / M) @ B).tocsr()
    return (problem.dims.omega_Nm1 * H).tocsr()


def dense_of_band(band):
    """The n x n matrix of a LAPACK general band storage (2 bw + 1, n)."""
    bw, n = band.shape[0] // 2, band.shape[1]
    i, j = np.indices((n, n))
    inside = np.abs(i - j) <= bw
    H = np.zeros((n, n))
    H[inside] = band[(bw + i - j)[inside], j[inside]]
    return H


def independent_residual(result, problem, shift=0.0):
    """Residual of the restricted discrete equation recomputed from the
    assembled product matrix rather than the solver's internals."""
    P, M = restricted_product_matrix(problem)
    u = result.u.values[:-1]
    r = (
        P @ u
        + problem.Q1.values[:-1]
        - problem.Q2.values[:-1] * np.exp(2 * (u + shift))
    )
    mass = problem.dims.omega_Nm1 * M
    return math.sqrt(float(np.dot(mass, r**2)))


class TestFamilies:
    def test_from_families_rejects_non_l2(self, pde_grid):
        dims = DimensionParams(1)
        with pytest.raises(DomainError, match="square-integrable"):
            PDEProblem.from_families(
                dims,
                pde_grid,
                ("rational-decay", {"power": 1.0}),
                ("gaussian", {"amplitude": 1.0}),
                mode=LOG_CONSTRAINED,
            )

    def test_l2_verdict_table(self, pde_grid, monkeypatch):
        # dv_g grows like e^{(N-1) r}: gaussian and bump data are in L^2 at
        # any width or radius, a rational-decay term with a != 0 at no power;
        # Q2 - Q1 is when the rational-decay terms cancel.  The rule reads
        # the specs only, so no mesh is built.
        def no_mesh(*args, **kwargs):
            raise AssertionError("from_families built a mesh")

        monkeypatch.setattr("hyperadams.mesh.Mesh1D.__init__", no_mesh)
        convex_fails = "convex mode requires Q2 - Q1 square-integrable against dv_g"
        log_fails = "log-constrained mode requires {} square-integrable against dv_g"
        rd = "rational-decay"
        table = [
            (CONVEX, ("gaussian", {}), ("gaussian", {"amplitude": -1.0}), None),
            (CONVEX, ("gaussian", {"width": 30.0}), ("gaussian", {"amplitude": -1.0}), None),
            (CONVEX, ("gaussian", {}), ("bump", {"amplitude": -1.0, "radius": 40.0}), None),
            (CONVEX, ("bump", {}), ("gaussian", {"amplitude": -1.0}), None),
            (CONVEX, (rd, {}), ("gaussian", {"amplitude": -1.0}), convex_fails),
            (CONVEX, (rd, {"power": 200.0}), ("gaussian", {"amplitude": -1.0}), convex_fails),
            (CONVEX, ("gaussian", {}), (rd, {"amplitude": -1.0}), convex_fails),
            (CONVEX, (rd, {"amplitude": 0.0}), ("gaussian", {"amplitude": -1.0}), None),
            (CONVEX, ("bump", {}), (rd, {"amplitude": -0.0, "power": 0.5}), None),
            # equal amplitude and power cancel; radial_family's default power is 2
            (CONVEX, (rd, {"amplitude": -1.0}), (rd, {"amplitude": -1.0, "power": 2.0}), None),
            (CONVEX, (rd, {"amplitude": -1.0, "power": 3.0}),
             (rd, {"amplitude": -1.0, "power": 2.0}), convex_fails),
            (CONVEX, (rd, {}), (rd, {"amplitude": -1.0}), convex_fails),
            (LOG_CONSTRAINED, ("gaussian", {}), ("gaussian", {}), None),
            (LOG_CONSTRAINED, ("bump", {"radius": 40.0}), ("gaussian", {"width": 30.0}), None),
            (LOG_CONSTRAINED, (rd, {"amplitude": 0.0}), (rd, {"amplitude": 0.0}), None),
            (LOG_CONSTRAINED, (rd, {}), ("gaussian", {}), log_fails.format("Q1")),
            (LOG_CONSTRAINED, ("bump", {}), (rd, {"power": 40.0}), log_fails.format("Q2")),
            (LOG_CONSTRAINED, (rd, {}), (rd, {}), log_fails.format("Q1")),
        ]
        wrong = []
        for mode, q1, q2, want in table:
            try:
                PDEProblem.from_families(DimensionParams(1), pde_grid, q1, q2, mode=mode)
                got = None
            except DomainError as exc:
                got = str(exc)
            if got != want:
                wrong.append((mode, q1, q2, got))
        assert not wrong

    def test_unknown_family(self):
        with pytest.raises(DomainError) as exc:
            radial_family("sawtooth")
        assert str(exc.value) == (
            "unknown radial family 'sawtooth'; choose from "
            "['bump', 'gaussian', 'rational-decay']"
        )

    def test_families_are_their_closed_forms(self):
        r = np.array([0.0, 0.5, 1.7, 2.0, 3.0])
        cases = [
            (radial_family("gaussian"), np.exp(-(r**2))),
            (
                radial_family("gaussian", amplitude=0.3, width=1.2),
                0.3 * np.exp(-((r / 1.2) ** 2)),
            ),
            (radial_family("bump"), np.where(r < 2.0, (1.0 - (r / 2.0) ** 2) ** 3, 0.0)),
            (
                radial_family("bump", amplitude=-0.7, radius=1.5),
                np.where(r < 1.5, -0.7 * (1.0 - (r / 1.5) ** 2) ** 3, 0.0),
            ),
            (radial_family("rational-decay"), (1.0 + r**2) ** -2.0),
            (
                radial_family("rational-decay", amplitude=2.0, power=1.5),
                2.0 * (1.0 + r**2) ** -1.5,
            ),
            # the config passes every key; a family reads only its own
            (radial_family("gaussian", radius=-1.0, power=5.0), np.exp(-(r**2))),
            # (r/width)^2 overflows off the axis: the exact limit 0, no warning
            (radial_family("gaussian", width=1e-300), np.where(r == 0.0, 1.0, 0.0)),
            (radial_family("bump", radius=1e-300), np.where(r == 0.0, 1.0, 0.0)),
        ]
        for fn, want in cases:
            assert np.array_equal(fn(r), want)

    @pytest.mark.parametrize(
        "name, params, message",
        [
            ("gaussian", {"width": 0.0}, "gaussian width must be positive"),
            ("bump", {"radius": -1.0}, "bump radius must be positive"),
        ],
    )
    def test_family_parameter_messages(self, name, params, message):
        with pytest.raises(DomainError) as exc:
            radial_family(name, **params)
        assert str(exc.value) == message

    def test_convex_mode_requires_nonpositive_q2(self, pde_grid):
        with pytest.raises(DomainError, match="Q2 <= 0"):
            make_problem(pde_grid, 1, lambda r: 0 * r, lambda r: np.exp(-(r**2)))


class TestFunctionalAndDerivatives:
    def test_zero_value(self, pde_grid):
        prob = make_problem(pde_grid, 1, lambda r: 0 * r, lambda r: 0 * r)
        disc = _Discretization(prob)
        zero = np.zeros(disc.n)
        assert _J_value(zero, disc) == 0.0
        assert np.max(np.abs(_convex_linearize(zero, disc)[0])) == 0.0

    def test_q2_zero_reduces_to_quadratic(self, pde_grid):
        prob = make_problem(pde_grid, 1, lambda r: np.exp(-(r**2)), lambda r: 0 * r)
        disc = _Discretization(prob)
        u = np.exp(-disc.grid.mesh.nodes[:-1] ** 2) * 0.5
        expected = 0.5 * float(u @ (restricted_energy_matrix(prob) @ u)) + disc.dv_dot(disc.Q1, u)
        assert abs(_J_value(u, disc) - expected) < 1e-12 * max(1.0, abs(expected))

    @pytest.mark.parametrize("k", [1, 2])
    def test_gradient_matches_finite_differences(self, k, pde_grid, rng):
        prob = make_problem(
            pde_grid, k, lambda r: np.exp(-(r**2)), lambda r: -np.exp(-(r**2))
        )
        disc = _Discretization(prob)
        worst = 0.0
        for _ in range(20):
            a, c = rng.uniform(0.2, 1.0), rng.uniform(0.5, 2.0)
            aw, cw = rng.uniform(0.2, 1.0), rng.uniform(0.5, 2.0)
            u = a * np.exp(-c * disc.grid.mesh.nodes[:-1] ** 2)
            w = aw * np.exp(-cw * disc.grid.mesh.nodes[:-1] ** 2)
            g = _convex_linearize(u, disc)[0]
            inner = float(np.dot(disc.mass_dv, g * w))
            eps = 1e-5
            fd = (_J_value(u + eps * w, disc) - _J_value(u - eps * w, disc)) / (2 * eps)
            worst = max(worst, abs(fd - inner) / (1.0 + abs(fd)))
        assert worst < 1e-6

    @pytest.mark.parametrize("k", [1, 2])
    def test_log_gradient_matches_finite_differences(self, k, pde_grid, rng):
        # the driver's gradient c mass_dv res, from the log linearization's
        # certificate residual and Hessian coefficient, must be the nodal
        # gradient of J_Q
        prob = make_problem(
            pde_grid, k, lambda r: 0.3 * np.exp(-(r**2)), lambda r: np.exp(-((r / 1.2) ** 2)),
            mode=LOG_CONSTRAINED,
        )
        disc = _Discretization(prob)
        nodes = disc.grid.mesh.nodes[:-1]
        worst = 0.0
        for _ in range(20):
            u = rng.uniform(0.2, 1.0) * np.exp(-rng.uniform(0.5, 2.0) * nodes**2)
            w = rng.uniform(0.2, 1.0) * np.exp(-rng.uniform(0.5, 2.0) * nodes**2)
            res, c, _, _ = pde._log_linearize(u, disc)
            inner = float((c * disc.mass_dv * res) @ w)
            eps = 1e-5
            fd = (
                _JQ_value(u + eps * w, disc) - _JQ_value(u - eps * w, disc)
            ) / (2 * eps)
            worst = max(worst, abs(fd - inner) / (1.0 + abs(fd)))
        assert worst < 1e-6

    def test_hessian_action_psd(self, pde_grid, rng):
        prob = make_problem(
            pde_grid, 1, lambda r: np.exp(-(r**2)), lambda r: -np.exp(-(r**2))
        )
        disc = _Discretization(prob)
        nodes = disc.grid.mesh.nodes[:-1]
        for _ in range(10):
            u = rng.uniform(-0.5, 0.5) * np.exp(-rng.uniform(0.5, 2) * nodes**2)
            w = rng.uniform(-1, 1) * np.exp(-rng.uniform(0.5, 2) * nodes**2)
            # the Hessian action P_k w - 2 Q2 e^{2u} w from the linearization's
            # (c, diag), with no rank-one term
            _, c, diag, rank_one = _convex_linearize(u, disc)
            assert rank_one is None
            Hw = c * disc.op.apply(w) + diag * w / disc.mass_dv
            quad = float(np.dot(disc.mass_dv, Hw * w))
            assert quad >= -1e-10 * max(1.0, abs(quad))

    def test_overflow_value_infinite(self, pde_grid):
        # e^{800} overflows a double: J is +inf there, so the line search
        # halves such a step away
        prob = make_problem(pde_grid, 1, lambda r: 0 * r, lambda r: -np.exp(-(r**2)))
        disc = _Discretization(prob)
        assert _J_value(np.full(disc.n, 400.0), disc) == math.inf


class TestRestrictedOperator:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_energy_matrix_matches_product(self, k, pde_grid):
        # the solver's Dirichlet-restricted energy band against omega M
        # times the pointwise product assembled factor by factor
        prob = make_problem(pde_grid, k, lambda r: 0 * r, lambda r: 0 * r)
        P, M = restricted_product_matrix(prob)
        expected = (prob.dims.omega_Nm1 * M)[:, None] * P.toarray()
        op = gjms_assemble(prob.dims, pde_grid).restrict(pde_grid.n_nodes - 1)
        got = dense_of_band(op.energy_band())
        assert got.shape == expected.shape
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))
        assert _Discretization(prob).band.tobytes() == op.energy_band().tobytes()

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_band_storage_reproduces_energy_matrix(self, k, pde_grid):
        # the oracle's entries all lie within the band, and the band slots
        # outside the matrix (its two corner triangles) stay zero
        prob = make_problem(pde_grid, k, lambda r: 0 * r, lambda r: 0 * r)
        disc = _Discretization(prob)
        H = restricted_energy_matrix(prob).toarray()
        bw = disc.bandwidth
        assert bw == k * pde_grid.mesh.p
        i, j = np.indices(H.shape)
        inside = np.abs(i - j) <= bw
        assert np.all(H[~inside] == 0.0)
        r, c = np.indices(disc.band.shape)
        outside = (r + c - bw < 0) | (r + c - bw >= disc.n)
        assert np.all(disc.band[outside] == 0.0)
        got = disc.band[(bw + i - j)[inside], j[inside]]
        assert np.max(np.abs(got - H[inside])) <= 1e-14 * np.max(np.abs(H))


def todia_band(H, n):
    """A sparse matrix's band storage placed through scipy's DIA conversion."""
    dia = H.todia()
    bw = int(np.max(np.abs(dia.offsets)))
    band = np.zeros((2 * bw + 1, n))
    band[bw - dia.offsets] = dia.data[:, :n]
    return band


def solve_banded_step(disc, c, diag, b, w):
    """The scaled band step through scipy.linalg.solve_banded."""
    from numpy.lib.stride_tricks import sliding_window_view
    from scipy.linalg import solve_banded

    bw = disc.bandwidth
    ab = c * disc.band
    ab[bw] = diag
    d = np.sqrt(np.abs(diag))
    d[d == 0] = 1.0
    inv = 1.0 / d
    ab *= sliding_window_view(np.pad(inv, bw), disc.n)
    ab *= inv
    rhs = b / d if w is None else np.stack([b / d, w / d], axis=1)
    x = solve_banded((bw, bw), ab, rhs, overwrite_ab=True, check_finite=False)
    if w is None:
        return x / d
    x, z = x.T / d
    return x - z * (w @ x) / (1.0 + w @ z)


def band_step_inputs(pde_grid, k, mode, lam):
    """A discretization and a Hessian (c, diag, w) with right-hand side b of
    the kind the Newton driver solves."""
    sign = -1.0 if mode == CONVEX else 1.0
    prob = make_problem(
        pde_grid, k, lambda r: np.exp(-(r**2)), lambda r: sign * np.exp(-(r**2)), mode
    )
    disc = _Discretization(prob)
    q2e = disc.mass_dv * disc.Q2 * np.exp(2.0 * np.exp(-disc.grid.geodesic_nodes[: disc.n]))
    if mode == CONVEX:
        c, v, w = 1.0, -2.0 * q2e, None
    else:
        G = float(np.sum(q2e))
        c, v, w = 2.0, -4.0 * q2e / G, 2.0 * q2e / G
    diag = c * disc.band[disc.bandwidth] + v
    diag = diag + lam * np.max(np.abs(diag)) * disc.mass_dv
    b = -disc.mass_dv * np.cos(disc.grid.geodesic_nodes[: disc.n])
    return disc, c, diag, b, w


class TestBandStorageFill:
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("n_elements, degree", [(24, 4), (40, 6), (7, 2)])
    def test_band_from_csr_equals_todia(self, k, n_elements, degree):
        # the band read off the factor chain against the sparse product of
        # the factors: bit for bit at k = 1 (each entry is omega times an
        # entry of K); from k = 2 on, componentwise within 2 k (2p + 3) eps
        # of the product of the |B_j|, twice the roundoff of k chain steps
        # of at most 2p + 3 rounded operations per entry
        grid = RadialGrid.geodesic(r_max=12.0, n_elements=n_elements, degree=degree, grading=1.5)
        prob = make_problem(grid, k, lambda r: 0 * r, lambda r: 0 * r)
        disc = _Discretization(prob)
        expected = todia_band(restricted_energy_matrix(prob), disc.n)
        assert disc.band.shape == expected.shape
        if k == 1:
            assert disc.band.tobytes() == expected.tobytes()  # signed zeros too
        bound = 2 * k * (2 * degree + 3) * np.finfo(float).eps
        scale = todia_band(restricted_energy_matrix(prob, absolute=True), disc.n)
        assert np.all(np.abs(disc.band - expected) <= bound * scale)


class TestBandStepBitwise:
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("mode", [CONVEX, LOG_CONSTRAINED])
    @pytest.mark.parametrize("lam", [0.0, 1e-3])
    def test_gbsv_step_equals_solve_banded(self, k, mode, lam, pde_grid):
        disc, c, diag, b, w = band_step_inputs(pde_grid, k, mode, lam)
        assert np.array_equal(
            _band_solve(disc, c, diag, b, w), solve_banded_step(disc, c, diag, b, w)
        )

    def test_singular_band_raises(self, pde_grid):
        disc, _, _, b, _ = band_step_inputs(pde_grid, 1, CONVEX, 0.0)
        with pytest.raises(DiscretizationError, match="singular at r_max = 12; lower r_max"):
            _band_solve(disc, 0.0, np.zeros(disc.n), b, None)

    def test_singular_band_raises_on_the_fallback(self, pde_grid, monkeypatch):
        # the scipy path reads a positive info as a zero pivot too
        use_scipy_lapack(monkeypatch)
        disc, _, _, b, _ = band_step_inputs(pde_grid, 1, CONVEX, 0.0)
        with pytest.raises(DiscretizationError, match="singular at r_max = 12; lower r_max"):
            _band_solve(disc, 0.0, np.zeros(disc.n), b, None)


SHIPPED_PDE = ["solve_pde_linear_k1", "solve_pde_convex_k2", "solve_pde_log_k1"]

needs_numpy_lapack = pytest.mark.skipif(
    pde.lapack_path() != "numpy-openblas64",
    reason="numpy ships no 64-bit-integer OpenBLAS dgbsv here; only the scipy path runs",
)


def use_scipy_lapack(monkeypatch):
    """Send ``_band_solve`` down its scipy fallback, as on a numpy linked to
    a system LAPACK."""
    monkeypatch.setattr(pde, "_numpy_gbsv", lambda: None)
    assert pde.lapack_path() == "scipy"


def shipped_pde(name):
    """The problem of configs/<name>.cfg, its solver and its parameters."""
    cfg = load_config(os.path.join(os.path.dirname(__file__), os.pardir, "configs", f"{name}.cfg"))
    problem = _pde_problem(cfg)
    solve = solve_convex if problem.mode == CONVEX else solve_log_constrained
    return problem, solve, cfg.params


@needs_numpy_lapack
class TestLapackFallback:
    """numpy's own OpenBLAS dgbsv and scipy's give the same bits."""

    @pytest.mark.parametrize("name", SHIPPED_PDE)
    def test_fallback_steps_are_the_direct_steps(self, name, monkeypatch):
        # every Newton step of a shipped solve: two convex problems (one
        # right-hand side) and a log-mode one (the rank-one (n, 2) pair)
        problem, solve, params = shipped_pde(name)
        band_solve = pde._band_solve

        def steps_and_result():
            steps = []

            def recording(*args):
                steps.append(band_solve(*args))
                return steps[-1]

            monkeypatch.setattr(pde, "_band_solve", recording)
            result = solve(problem, tol=params["tol"], max_iter=params["max_iter"])
            return [step.tobytes() for step in steps], result

        direct_steps, direct = steps_and_result()
        use_scipy_lapack(monkeypatch)
        fallback_steps, fallback = steps_and_result()
        assert direct.converged and len(direct_steps) >= len(direct.step_lengths) > 0
        assert fallback_steps == direct_steps
        assert fallback.u.values.tobytes() == direct.u.values.tobytes()
        assert (fallback.iterations, fallback.decrements) == (direct.iterations, direct.decrements)


@needs_numpy_lapack
def test_fallback_bits_do_not_depend_on_the_blas_kernel():
    # OPENBLAS_CORETYPE is read once per process (by numpy's OpenBLAS and by
    # scipy's alike), so the checks of the direct path against scipy's
    # LAPACK run again in a child on OpenBLAS's Prescott kernels
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    child = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-k", "TestLapackFallback or TestBandStepBitwise", "tests/test_pde.py"],
        cwd=root, env=dict(os.environ, OPENBLAS_CORETYPE="Prescott"),
        capture_output=True, text=True, timeout=300,
    )
    assert child.returncode == 0, child.stdout[-3000:] + child.stderr[-2000:]
    assert child.stdout.splitlines()[-1].startswith("17 passed")


class TestBandStep:
    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("mode", [CONVEX, LOG_CONSTRAINED])
    @pytest.mark.parametrize("lam", [0.0, 1e-3])
    def test_backward_error_against_dense_hessian(self, k, mode, lam, pde_grid):
        # the scaled banded LU plus Sherman-Morrison solves the dense
        # c H0 + diag + w w^T to a backward error at roundoff
        sign = -1.0 if mode == CONVEX else 1.0
        prob = make_problem(
            pde_grid, k, lambda r: np.exp(-(r**2)), lambda r: sign * np.exp(-(r**2)), mode
        )
        disc = _Discretization(prob)
        q2e = disc.mass_dv * disc.Q2 * np.exp(2.0 * np.exp(-disc.grid.geodesic_nodes[: disc.n]))
        if mode == CONVEX:
            c, v, w = 1.0, -2.0 * q2e, None
        else:
            G = float(np.sum(q2e))
            c, v, w = 2.0, -4.0 * q2e / G, 2.0 * q2e / G
        diag = c * disc.band[disc.bandwidth] + v
        diag = diag + lam * np.max(np.abs(diag)) * disc.mass_dv
        A = c * dense_of_band(disc.band)
        A[np.diag_indices(disc.n)] = diag
        if w is not None:
            A += np.outer(w, w)
        b = -disc.mass_dv * np.cos(disc.grid.geodesic_nodes[: disc.n])
        x = _band_solve(disc, c, diag, b, w)
        norm_A = np.max(np.sum(np.abs(A), axis=1))
        assert np.max(np.abs(A @ x - b)) <= 1e-13 * norm_A * np.max(np.abs(x))


class TestSolveConvex:
    def test_trivial_zero_solution(self, pde_grid):
        for k in (1, 2):
            prob = make_problem(pde_grid, k, lambda r: 0 * r, lambda r: 0 * r)
            res = solve_convex(prob, tol=1e-12)
            assert res.converged
            assert res.residual_norm < 1e-12
            assert np.max(np.abs(res.u.values)) == 0.0

    @pytest.mark.parametrize("k", [1, 2])
    def test_linear_case_matches_banded_solve(self, k, pde_grid):
        prob = make_problem(pde_grid, k, lambda r: np.exp(-(r**2)), lambda r: 0 * r)
        res = solve_convex(prob, tol=1e-9)
        disc = _Discretization(prob)
        direct = banded_direct_solve(disc, -disc.mass_dv * disc.Q1)
        scale = np.max(np.abs(direct))
        assert np.max(np.abs(res.u.values[:-1] - direct)) < 1e-8 * scale

    @pytest.mark.parametrize("k", [1, 2])
    def test_convex_gaussian_certified(self, k, pde_grid):
        prob = make_problem(
            pde_grid, k, lambda r: np.exp(-(r**2)), lambda r: -np.exp(-(r**2))
        )
        res = solve_convex(prob, tol=1e-9)
        assert res.converged
        assert independent_residual(res, prob) <= 1e-8

    def test_sign_structure_without_source(self, pde_grid):
        # Q1 = 0, Q2 = -bump: P_k u = Q2 e^{2u} <= 0 pointwise
        prob = make_problem(
            pde_grid,
            1,
            lambda r: 0 * r,
            lambda r: -np.clip(1 - (r / 2.0) ** 2, 0, None) ** 3,
        )
        res = solve_convex(prob, tol=1e-10)
        assert res.converged
        op = gjms_assemble(prob.dims, prob.grid)
        pk_u = (op.matrix @ res.u.values)[:-1]
        mask = np.abs(pk_u) > 1e-9 * np.max(np.abs(pk_u))
        assert np.all(pk_u[mask] <= 0)

    def test_monotone_descent(self, pde_grid):
        prob = make_problem(
            pde_grid, 1, lambda r: np.exp(-(r**2)), lambda r: -np.exp(-(r**2))
        )
        res = solve_convex(prob, tol=1e-10)
        hist = res.objective_history
        assert all(b <= a + 1e-12 for a, b in zip(hist, hist[1:]))

    def test_mode_guard(self, pde_grid):
        prob = make_problem(
            pde_grid, 1, lambda r: np.exp(-(r**2)), lambda r: np.exp(-(r**2)),
            mode=LOG_CONSTRAINED,
        )
        with pytest.raises(DomainError):
            solve_convex(prob)

    def test_negative_curvature_raises(self, pde_grid, monkeypatch):
        # an energy matrix of the wrong sign makes the Newton direction
        # ascend, which the convex regime reports as a discretization defect
        init = _Discretization.__init__

        def flipped(self, problem):
            init(self, problem)
            self.band = -self.band

        monkeypatch.setattr(_Discretization, "__init__", flipped)
        prob = make_problem(
            pde_grid, 1, lambda r: np.exp(-(r**2)), lambda r: -np.exp(-(r**2))
        )
        with pytest.raises(DiscretizationError, match="negative curvature"):
            solve_convex(prob)


class TestSolveLogConstrained:
    def test_feasible_start_exists(self, pde_grid):
        prob = make_problem(
            pde_grid, 1, lambda r: 0 * r, lambda r: np.exp(-(r**2)),
            mode=LOG_CONSTRAINED,
        )
        from hyperadams.pde import _feasible_start, log_argument

        disc = _Discretization(prob)
        u0 = _feasible_start(disc)
        assert log_argument(u0, disc) > 0

    def test_infeasible_raises(self, pde_grid):
        # Q2 identically zero keeps the log argument at zero for every u
        prob = make_problem(
            pde_grid, 1, lambda r: np.exp(-(r**2)), lambda r: 0 * r,
            mode=LOG_CONSTRAINED,
        )
        with pytest.raises(FeasibilityError):
            solve_log_constrained(prob)

    def test_nonpositive_q2_is_feasible_through_negative_profiles(self, pde_grid):
        from hyperadams.pde import _feasible_start, log_argument

        prob = make_problem(
            pde_grid, 1, lambda r: 0 * r, lambda r: -np.exp(-(r**2)),
            mode=LOG_CONSTRAINED,
        )
        disc = _Discretization(prob)
        u0 = _feasible_start(disc)
        assert log_argument(u0, disc) > 0

    @pytest.mark.parametrize("k", [1, 2])
    def test_shifted_solution_residual(self, k, pde_grid):
        prob = make_problem(
            pde_grid,
            k,
            lambda r: 0.3 * np.exp(-(r**2)),
            lambda r: np.exp(-((r / 1.2) ** 2)),
            mode=LOG_CONSTRAINED,
        )
        res = solve_log_constrained(prob, tol=1e-8)
        assert res.converged
        assert res.residual_norm <= 1e-8
        assert res.additive_constant is not None
        # the shifted function u0 + c solves the equation (P_k annihilates
        # the additive constant exactly); recompute through the assembled
        # product matrix
        res_norm = independent_residual(res, prob, shift=res.additive_constant)
        assert res_norm <= 1e-7

    @pytest.mark.parametrize("k", [1, 2])
    def test_stall_below_roundoff_floor(self, k, pde_grid):
        # tol lies below the certificate's roundoff floor: the solve must
        # stop as a stall, not spend every iteration
        prob = make_problem(
            pde_grid,
            k,
            lambda r: 0.3 * np.exp(-(r**2)),
            lambda r: np.exp(-((r / 1.2) ** 2)),
            mode=LOG_CONSTRAINED,
        )
        res = solve_log_constrained(prob, tol=1e-14, max_iter=120)
        assert not res.converged
        assert res.message.startswith("stalled at residual")
        assert res.iterations < 120

    def test_constant_annihilation(self, pde_grid, dims1):
        op = gjms_assemble(dims1, pde_grid)
        out = op.matrix @ np.ones(pde_grid.n_nodes)
        assert np.max(np.abs(out)) < 1e-6

    def test_coercivity_along_rays(self, pde_grid):
        prob = make_problem(
            pde_grid, 1, lambda r: 0.3 * np.exp(-(r**2)), lambda r: np.exp(-(r**2)),
            mode=LOG_CONSTRAINED,
        )
        direction = RadialFunction.from_callable(pde_grid, lambda r: np.exp(-(r**2)))
        rows = ray_coercivity_table(prob, direction, t_values=np.linspace(0.3, 4.0, 12))
        # the deficit against the coercive quadratic part grows at most like
        # sqrt(energy): fit c0, c1 and check the fit captures the data
        E = np.array([row["energy"] for row in rows])
        deficit = np.array([row["coercive_part"] - row["objective"] for row in rows])
        A = np.stack([np.sqrt(E), np.ones_like(E)], axis=1)
        coef, *_ = np.linalg.lstsq(A, deficit, rcond=None)
        fit = A @ coef
        assert np.max(np.abs(fit - deficit)) < 0.05 * np.max(E)
        # objective grows along the ray once the quadratic term dominates
        assert rows[-1]["objective"] > rows[0]["objective"]


class TestConvexRays:
    def test_objective_coercive_along_rays(self, pde_grid):
        # the nonlinear term is nonnegative for Q2 <= 0, so along any ray
        # J(t u0) >= E(t)/2 - c sqrt(E(t)) with c = |<Q, u0>| / ||u0||_{k,g}
        prob = make_problem(
            pde_grid, 1, lambda r: np.exp(-(r**2)), lambda r: -np.exp(-(r**2))
        )
        disc = _Discretization(prob)
        u0 = np.exp(-disc.grid.mesh.nodes[:-1] ** 2)
        quad = float(disc.op.quadratic_form(u0))
        c = abs(disc.dv_dot(disc.Q2 - disc.Q1, u0)) / math.sqrt(quad)
        ts = np.linspace(0.5, 6.0, 12)
        J = np.array([_J_value(t * u0, disc) for t in ts])
        E = quad * ts**2
        assert np.all(J >= 0.5 * E - c * np.sqrt(E) - 1e-12)
        assert J[-1] > J[0]


class TestJQFunctional:
    def test_infeasible_value_infinite(self, pde_grid):
        prob = make_problem(
            pde_grid, 1, lambda r: 0 * r, lambda r: np.exp(-(r**2)),
            mode=LOG_CONSTRAINED,
        )
        disc = _Discretization(prob)
        assert _JQ_value(np.zeros(disc.n), disc) == math.inf

    def test_overflow_value_infinite(self, pde_grid):
        # e^{800} overflows a double: the log argument and J_Q are +inf there
        prob = make_problem(
            pde_grid, 1, lambda r: 0 * r, lambda r: np.exp(-(r**2)),
            mode=LOG_CONSTRAINED,
        )
        disc = _Discretization(prob)
        huge = np.full(disc.n, 400.0)
        assert log_argument(huge, disc) == math.inf
        assert _JQ_value(huge, disc) == math.inf


@pytest.fixture(scope="module")
def shipped_k2_problem():
    """configs/solve_pde_convex_k2.cfg at a given number of elements."""

    def build(n_elements):
        grid = RadialGrid.geodesic(
            r_max=12.0, n_elements=n_elements, degree=4, grading=1.5
        )
        return PDEProblem.from_families(
            DimensionParams(2),
            grid,
            ("gaussian", {"amplitude": 1.0, "width": 1.0}),
            ("gaussian", {"amplitude": -1.0, "width": 1.0}),
        )

    return build


class TestLineSearch:
    @pytest.mark.parametrize("n_elements", [96, 384])
    def test_at_most_two_objective_calls_per_iteration(
        self, n_elements, shipped_k2_problem, monkeypatch
    ):
        # at the roundoff floor Armijo cannot see the decrease left; halving
        # on that noise cost 69 calls in 12 iterations at 96 elements
        calls = []
        J_value = pde._J_value
        monkeypatch.setattr(
            pde, "_J_value", lambda *a, **kw: calls.append(1) or J_value(*a, **kw)
        )
        res = solve_convex(shipped_k2_problem(n_elements), tol=1e-8, max_iter=60)
        assert len(calls) <= 2 * res.iterations

    def test_step_below_roundoff_is_full(self, shipped_k2_problem):
        res = solve_convex(shipped_k2_problem(96), tol=1e-8, max_iter=60)
        steps = list(zip(res.objective_history, res.decrements, res.step_lengths))
        assert len(steps) == len(res.objective_history) - 1
        at_floor = [
            t for J, lam, t in steps if lam**2 <= FULL_STEP_DECREASE * max(1.0, abs(J))
        ]
        assert len(at_floor) >= 5
        assert all(t == 1.0 for t in at_floor)

    @pytest.mark.parametrize(
        "call, spoil, step",
        [(2, lambda J: J + 10.0, 0), (4, lambda J: math.inf, 2)],
        ids=["ascent-above-floor", "infinite-at-floor"],
    )
    def test_spoiled_trial_still_backtracks(
        self, call, spoil, step, shipped_k2_problem, monkeypatch
    ):
        # the 12-element solve takes three full steps, the first far above
        # the floor and the third at it; spoiling one trial value of J makes
        # the search halve that step
        calls = []
        J_value = pde._J_value

        def objective(*a, **kw):
            calls.append(1)
            J = J_value(*a, **kw)
            return spoil(J) if len(calls) == call else J

        monkeypatch.setattr(pde, "_J_value", objective)
        res = solve_convex(shipped_k2_problem(12), tol=1e-8, max_iter=60)
        assert res.converged
        at_floor = res.decrements[step] ** 2 <= FULL_STEP_DECREASE * max(
            1.0, abs(res.objective_history[step])
        )
        assert at_floor == (step == 2)
        assert res.step_lengths[step] < 1.0

    def test_armijo_miss_below_roundoff_halves_above_floor(self, shipped_k2_problem):
        # away from the floor a trial passes only by Armijo: one that misses
        # it by less than 1e-14 max(1, |J|), J's roundoff, is still halved
        disc = _Discretization(shipped_k2_problem(12))
        zero = np.zeros(disc.n)
        J0 = _J_value(zero, disc)
        res, c, _, _ = _convex_linearize(zero, disc)
        grad = c * disc.mass_dv * res
        trials = []

        def objective(u):
            if not np.any(u):
                return J0
            trials.append(u)
            if len(trials) > 1:
                return _J_value(u, disc)
            slope = float(u @ grad)  # the first trial is the full step
            assert -slope > FULL_STEP_DECREASE * max(1.0, abs(J0))
            armijo = J0 + 1e-4 * slope
            missed = armijo + 0.5e-14 * max(1.0, abs(J0))
            assert armijo < missed
            return missed

        result = _damped_newton(
            disc, zero, objective, lambda u: _convex_linearize(u, disc), 1e-8, 1
        )
        assert result.step_lengths == (0.5,)

    def test_no_finite_trial_ends_as_line_search_failed(self, pde_grid):
        # an objective finite only at the start halves all 50 trial steps away
        prob = make_problem(
            pde_grid, 1, lambda r: np.exp(-(r**2)), lambda r: -np.exp(-(r**2))
        )
        disc = _Discretization(prob)
        res = _damped_newton(
            disc, np.zeros(disc.n), lambda u: 0.0 if not np.any(u) else math.inf,
            lambda u: _convex_linearize(u, disc), 1e-9, 60,
        )
        assert res.message == "line search failed" and not res.converged
        assert res.objective == 0.0 and res.step_lengths == ()
        assert res.residual_norm == disc.dv_norm(disc.Q1 - disc.Q2)  # at u = 0

    def test_no_descent_ends_as_could_not_build_a_direction(self, pde_grid, monkeypatch):
        # a step solve that returns the ascent direction gives a positive
        # slope under every Levenberg shift, which is no descent; a rank-one
        # term, even a zero one, marks the Hessian as not convex, so the
        # negative-curvature check stays off
        prob = make_problem(
            pde_grid, 1, lambda r: np.exp(-(r**2)), lambda r: -np.exp(-(r**2))
        )
        disc = _Discretization(prob)
        zero = np.zeros(disc.n)
        monkeypatch.setattr(pde, "_band_solve", lambda disc, c, diag, b, w: -b)
        res = _damped_newton(
            disc, zero, lambda u: _J_value(u, disc),
            lambda u: _convex_linearize(u, disc)[:3] + (zero,), 1e-9, 60,
        )
        assert res.message == "could not build a descent direction"
        assert not res.converged and res.step_lengths == ()


class TestIterationCount:
    @pytest.mark.parametrize(
        "name, iterations, steps",
        [("solve_pde_linear_k1", 2, 1), ("solve_pde_convex_k2", 4, 3), ("solve_pde_log_k1", 5, 4)],
    )
    def test_iterations_count_linearizations(self, name, iterations, steps):
        # iterations counts linearizations, the last of which certifies the
        # final iterate, capped at max_iter
        problem, solve, params = shipped_pde(name)
        shipped = solve(problem, tol=params["tol"], max_iter=params["max_iter"])
        assert shipped.converged
        assert (shipped.iterations, len(shipped.step_lengths)) == (iterations, steps)
        for max_iter in (0, 1):
            res = solve(problem, tol=params["tol"], max_iter=max_iter)
            assert res.iterations == min(len(res.step_lengths) + 1, max_iter)
            assert len(res.step_lengths) <= max_iter
