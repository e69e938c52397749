import math

import numpy as np
import pytest
import scipy.sparse as sp

from hyperadams.ball import DimensionParams, RadialFunction, RadialGrid
from hyperadams.errors import DiscretizationError, DomainError
from hyperadams.operators import (
    euclidean_gradk_energy,
    euclidean_laplacian_radial,
    gjms_assemble,
    gjms_energy,
    gjms_shifts,
    hyperbolic_laplacian_coordinate_form,
    hyperbolic_laplacian_radial,
    iterated_gradient_energy,
    sobolev_energy,
)


def interior_mask(grid, r_lo=None, r_hi=None):
    nodes = grid.mesh.nodes
    lo = grid.mesh.edges[1] if r_lo is None else r_lo
    hi = 0.8 * grid.R_max if r_hi is None else r_hi
    return (nodes > lo) & (nodes < hi)


def assert_roundoff_row_sums(op, out, degree):
    """op @ 1 = -M^{-1} K 1 vanishes up to the roundoff of K's row sums: a
    row holds at most 2p + 1 entries, each rounded in the assembly, so every
    node is within (2p + 2) eps (|K| 1) / M = (2p + 2) eps (|op| 1)."""
    scale = abs(op) @ np.ones(op.shape[0])
    assert np.all(np.abs(out) <= (2 * degree + 2) * np.finfo(float).eps * scale)


class TestEuclideanLaplacian:
    def test_constant_annihilated(self, ball_grid, dims2):
        op = euclidean_laplacian_radial(dims2, ball_grid)
        out = op @ np.ones(ball_grid.n_nodes)
        # roundoff is amplified by the tiny axis mass in the first element
        assert np.max(np.abs(out)) < 1e-6
        assert_roundoff_row_sums(op, out, ball_grid.degree)

    def test_quadratic_n4(self, dims2):
        # f(s) = s^2 has Delta f = 2N = 8 in four dimensions
        grid = RadialGrid.euclidean_ball(s_max=1.0, n_elements=16, degree=6)
        op = euclidean_laplacian_radial(dims2, grid)
        out = op @ grid.mesh.nodes**2
        mask = interior_mask(grid, r_hi=0.9)
        assert np.max(np.abs(out[mask] - 8.0)) < 1e-8

    def test_fundamental_solution_harmonic(self, dims2):
        # s^{2-N} is flat-harmonic away from the origin; values below the
        # annulus are replaced by a bounded extension that local element
        # stencils on the annulus never see
        residuals = []
        for n_el in (20, 40):
            grid = RadialGrid.euclidean_ball(
                s_max=1.0, n_elements=n_el, degree=6, grading=1.0
            )
            s = grid.mesh.nodes
            vals = np.where(s > 0.2, np.maximum(s, 0.2) ** (2 - dims2.N), 25.0)
            op = euclidean_laplacian_radial(dims2, grid)
            out = op @ vals
            annulus = (s > 0.35) & (s < 0.75)
            residuals.append(np.max(np.abs(out[annulus])))
        assert residuals[0] < 1e-3
        assert residuals[1] < 0.1 * residuals[0]

    def test_linearity(self, ball_grid, dims1, rng):
        op = euclidean_laplacian_radial(dims1, ball_grid)
        f = rng.standard_normal(ball_grid.n_nodes)
        g = rng.standard_normal(ball_grid.n_nodes)
        lhs = op @ (2.5 * f - 1.25 * g)
        rhs = 2.5 * (op @ f) - 1.25 * (op @ g)
        scale = np.max(np.abs(rhs)) or 1.0
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * scale


class TestHyperbolicLaplacian:
    def test_constant_annihilated(self, geo_grid, dims1):
        op = hyperbolic_laplacian_radial(dims1, geo_grid)
        out = op @ np.ones(geo_grid.n_nodes)
        assert np.max(np.abs(out)) < 1e-6
        assert_roundoff_row_sums(op, out, geo_grid.degree)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_euclidean_radius_squared_formula(self, k):
        # Delta_g |x|^2 = ((1-s^2)/2)^2 2N + (N-2)((1-s^2)/2) 2 s^2
        dims = DimensionParams(k)
        grid = RadialGrid.geodesic(r_max=6.0, n_elements=24, degree=6, grading=1.5)
        s = grid.euclidean_nodes
        op = hyperbolic_laplacian_radial(dims, grid)
        out = op @ s**2
        conf = (1.0 - s**2) / 2.0
        expected = conf**2 * 2 * dims.N + (dims.N - 2) * conf * 2 * s**2
        mask = interior_mask(grid, r_lo=0.5, r_hi=5.0)
        assert np.max(np.abs(out[mask] - expected[mask])) < 1e-4

    def test_dual_assembly_agreement(self, dims2, rng):
        errs = []
        for n_el in (12, 24):
            grid = RadialGrid.geodesic(r_max=8.0, n_elements=n_el, degree=6, grading=2.0)
            r = grid.geodesic_nodes
            vals = sum(
                a * np.exp(-c * r**2)
                for a, c in zip(rng.uniform(0.3, 1, 3), rng.uniform(0.5, 2, 3))
            )
            div_form = hyperbolic_laplacian_radial(dims2, grid) @ vals
            coord_form = hyperbolic_laplacian_coordinate_form(dims2, grid) @ vals
            mask = interior_mask(grid, r_hi=6.0)
            scale = np.max(np.abs(div_form[mask]))
            errs.append(np.max(np.abs(div_form[mask] - coord_form[mask])) / scale)
        assert errs[0] < 1e-3
        assert errs[1] < errs[0]


class TestGJMSAssembly:
    def test_k1_reduces_to_minus_laplacian(self, dims1, geo_grid):
        P = gjms_assemble(dims1, geo_grid)
        L = hyperbolic_laplacian_radial(dims1, geo_grid)
        diff = (P.matrix + L).toarray()
        assert np.max(np.abs(diff)) < 1e-10 * max(1.0, np.max(np.abs(P.matrix.toarray())))

    def test_k2_product_expansion(self, dims2, geo_grid):
        # P_2 = (-Delta_g - 2)(-Delta_g) = Delta_g^2 + 2 Delta_g
        P = gjms_assemble(dims2, geo_grid)
        A = (-hyperbolic_laplacian_radial(dims2, geo_grid)).tocsr()
        expanded = (A @ A - 2.0 * A).toarray()
        got = P.matrix.toarray()
        scale = np.max(np.abs(expanded))
        assert np.max(np.abs(got - expanded)) < 1e-10 * scale

    @pytest.mark.parametrize("k", range(1, 7))
    def test_last_factor_shift_vanishes(self, k):
        shifts = gjms_shifts(k)
        assert shifts[-1] == 0
        assert k * (k - 1) - (2 * k) * (2 * k - 2) // 4 == 0
        assert all(s <= 0 for s in shifts)

    def test_requires_critical_dimension(self, geo_grid):
        dims = DimensionParams(2)
        object.__setattr__(dims, "N", 6)  # break the invariant on purpose
        with pytest.raises(DomainError):
            gjms_assemble(dims, geo_grid)

    def test_quadratic_form_symmetry(self, dims2, geo_grid, rng):
        P = gjms_assemble(dims2, geo_grid)
        r = geo_grid.geodesic_nodes
        for _ in range(5):
            u = rng.uniform(0.2, 1.0) * np.exp(-rng.uniform(0.5, 2) * r**2)
            w = rng.uniform(0.2, 1.0) * np.exp(-rng.uniform(0.5, 2) * r**2) * (1 + r**2)
            a = P.quadratic_form(u, w)
            b = P.quadratic_form(w, u)
            assert abs(a - b) <= 1e-10 * max(abs(a), 1.0)

    def test_positivity(self, dims2, geo_grid, rng):
        P = gjms_assemble(dims2, geo_grid)
        r = geo_grid.geodesic_nodes
        for _ in range(20):
            amps = rng.uniform(-1, 1, 3)
            rates = rng.uniform(0.5, 2.5, 3)
            u = sum(a * np.exp(-c * r**2) for a, c in zip(amps, rates))
            q = P.quadratic_form(u)
            scale = sobolev_energy(RadialFunction(geo_grid, u), dims2)
            assert q >= -1e-12 * max(scale, 1.0)


class TestHighPrecisionCrossValidation:
    def test_k3_identity_to_eleven_digits(self):
        # two fully independent routes (geodesic-coordinate product form vs
        # flat-radius Laplacian applications) agree far below the acceptance
        # tolerance when both are resolved
        import math

        from hyperadams.ball import euclidean_to_geodesic
        from hyperadams.experiments import BUMPS

        dims = DimensionParams(3)
        fn = BUMPS["gauss"]
        s_max = math.tanh(4.5)
        eu = RadialGrid.euclidean_ball(s_max=s_max, n_elements=90, degree=11, grading=1.3)
        s = eu.mesh.nodes
        r = np.zeros_like(s)
        r[1:] = euclidean_to_geodesic(s[1:])
        oracle = euclidean_gradk_energy(RadialFunction(eu, fn(r)), dims)
        geo = RadialGrid.geodesic(r_max=9.0, n_elements=96, degree=6, grading=2.5)
        val = gjms_assemble(dims, geo).quadratic_form(
            RadialFunction.from_callable(geo, fn)
        )
        assert abs(val - oracle) / oracle < 5e-10


class TestFactoredOperator:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_apply_matches_matrix(self, k, geo_grid):
        # factor-by-factor application against the multiplied-out matrix;
        # both carry roundoff of size eps |P| |u|, which is large next to
        # P u for a smooth u near the axis, so that is the scale compared
        P = gjms_assemble(DimensionParams(k), geo_grid)
        r = geo_grid.geodesic_nodes
        u = np.exp(-(r**2)) * (1.0 + 0.3 * r)
        A = P.matrix
        got = P.apply(u)
        via_matrix = A @ u
        scale = abs(A) @ np.abs(u)
        mask = r > 0
        assert np.all(np.abs(got - via_matrix)[mask] <= 1e-12 * scale[mask])


    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_block_is_bitwise_per_row(self, k, geo_grid, rng):
        # a (P, n) block runs one sparse product per factor for all rows and
        # one dot per row: every value is bitwise its single-profile call
        P = gjms_assemble(DimensionParams(k), geo_grid)
        r = geo_grid.geodesic_nodes
        block = np.array([
            sum(a * np.exp(-c * r**2) for a, c in zip(rng.uniform(-1, 1, 3), rng.uniform(0.5, 2.5, 3)))
            for _ in range(30)
        ])
        forms = P.quadratic_form(block)
        assert forms.shape == (30,)
        assert np.array_equal(forms, [P.quadratic_form(u) for u in block])
        assert np.array_equal(P.apply(block), [P.apply(u) for u in block])
        cross = P.quadratic_form(block, block[::-1])
        assert np.array_equal(cross, [P.quadratic_form(u, w) for u, w in zip(block, block[::-1])])

    @staticmethod
    def sparse_product(P, absolute=False):
        """omega B_1 M^{-1} B_2 ... M^{-1} B_k with the general sparse sums
        B_j = K + sigma_j M; with absolute=True, the same product of |B_j|."""
        factors = [(P.stiffness + s * sp.diags(P.mass)).tocsr() for s in P.shifts]
        factors = [abs(B) for B in factors] if absolute else factors
        weighted = factors[0]
        for B in factors[1:]:
            weighted = (weighted @ sp.diags(1.0 / P.mass) @ B).tocsr()
        return (P.dims.omega_Nm1 * weighted).tocsr()

    @staticmethod
    def band_of(H, bw):
        """H in LAPACK general band storage (2 bw + 1, n) through DIA."""
        dia = H.todia()
        band = np.zeros((2 * bw + 1, H.shape[0]))
        band[bw - dia.offsets] = dia.data[:, : H.shape[0]]
        return band

    @pytest.mark.parametrize("restricted", [False, True], ids=["full", "restricted"])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("degree", [4, 6])
    def test_factors_and_energy_matrix_match_sparse_sum(self, degree, k, restricted):
        # the band read off the factor chain against the multiplied-out sparse
        # product: bit for bit at k = 1, where each entry is omega times one
        # entry of K; from k = 2 on both routes round the same sums in other
        # orders, each within k (2p + 3) eps of the product of the |B_j| (k
        # chain steps of at most 2p + 3 rounded operations per entry), so
        # they differ by at most twice that
        grid = RadialGrid.geodesic(r_max=12.0, n_elements=12, degree=degree, grading=1.5)
        P = gjms_assemble(DimensionParams(k), grid)
        if restricted:
            P = P.restrict(grid.n_nodes - 1)
        bw = k * degree
        band = P.energy_band()
        expected = self.band_of(self.sparse_product(P), bw)
        assert band.shape == expected.shape
        if k == 1:
            assert band.tobytes() == expected.tobytes()  # signed zeros too
        bound = 2 * k * (2 * degree + 3) * np.finfo(float).eps
        scale = self.band_of(self.sparse_product(P, absolute=True), bw)
        assert np.all(np.abs(band - expected) <= bound * scale)
        # the pointwise matrix stores the oracle's nonzeros
        oracle = sp.diags(1.0 / (P.dims.omega_Nm1 * P.mass)) @ self.sparse_product(P)
        assert P.matrix.nnz == oracle.tocsr().nnz

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_grouped_probes_equal_unit_columns(self, k, geo_grid):
        # probe columns 2 bw + 1 apart never meet in a row of the product,
        # so the grouped chain gives the bits of the chain on each e_j
        P = gjms_assemble(DimensionParams(k), geo_grid)
        z = P._weighted_factor(k - 1, np.eye(geo_grid.n_nodes))
        for j in range(k - 2, -1, -1):
            z = P._weighted_factor(j, z / P.mass[:, None])
        bw = k * geo_grid.degree
        expected = self.band_of(sp.csr_matrix(P.dims.omega_Nm1 * z), bw)
        assert P.energy_band().tobytes() == expected.tobytes()


def _bandwidth(op) -> int:
    """Largest |row - col| of a stored entry of the pointwise matrix."""
    coo = op.matrix.tocoo()
    return int(np.max(np.abs(coo.row - coo.col)))


class TestBandedness:
    def test_bandwidth_grows_with_order(self, geo_grid):
        dims1, dims2 = DimensionParams(1), DimensionParams(2)
        b1 = _bandwidth(gjms_assemble(dims1, geo_grid))
        b2 = _bandwidth(gjms_assemble(dims2, geo_grid))
        assert 0 < b1 <= 2 * geo_grid.degree
        assert b1 < b2 <= 4 * geo_grid.degree


class TestEnergies:
    def test_zero_profile(self, geo_grid, dims1):
        u = RadialFunction(geo_grid, np.zeros(geo_grid.n_nodes))
        rep = gjms_energy(u, dims1)
        assert rep.gjms_energy == 0.0
        assert rep.euclidean_energy == 0.0
        assert rep.sobolev_energy == 0.0

    def test_k1_first_derivative_quadrature_oracle(self, dims1):
        # flat energy vs direct quadrature of (dv/ds)^2 weighted by 2 pi s
        grid = RadialGrid.euclidean_ball(s_max=1.0, n_elements=18, degree=7)
        s = grid.mesh.nodes
        v = RadialFunction(grid, np.exp(-8 * s**2))
        with pytest.warns(UserWarning, match="support touches") as record:
            energy = euclidean_gradk_energy(v, dims1)
        assert record[0].filename == __file__  # reported at the caller
        D = grid.mesh.deriv_matrix()
        deriv = D @ v.values
        oracle = grid.mesh.integrate(2 * np.pi * s * deriv**2)
        assert abs(energy - oracle) / oracle < 1e-9

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_conformal_identity_smoke(self, k):
        dims = DimensionParams(k)
        grid = RadialGrid.geodesic(r_max=9.0, n_elements=24 if k < 3 else 32,
                                   degree=6, grading=2.5)
        u = RadialFunction.from_callable(grid, lambda r: np.exp(-(r**2)))
        rep = gjms_energy(u, dims)
        rel = abs(rep.gjms_energy - rep.euclidean_energy) / rep.euclidean_energy
        assert rel < 1e-5

    def test_sobolev_m0_term_is_l2(self, geo_grid, dims2):
        from hyperadams.ball import integrate_radial

        u = RadialFunction.from_callable(geo_grid, lambda r: np.exp(-(r**2)))
        m0 = iterated_gradient_energy(u, dims2, 0)
        l2 = integrate_radial(
            RadialFunction(geo_grid, u.values**2), dims2
        )
        assert abs(m0 - l2) / l2 < 1e-11

    def test_norm_equivalence_ratio_bounded(self, dims2, rng):
        grid = RadialGrid.geodesic(r_max=9.0, n_elements=20, degree=6, grading=2.0)
        P = gjms_assemble(dims2, grid)
        ratios = []
        r = grid.geodesic_nodes
        for _ in range(30):
            amps = rng.uniform(-1, 1, 3)
            rates = rng.uniform(0.5, 2.5, 3)
            vals = sum(a * np.exp(-c * r**2) for a, c in zip(amps, rates))
            u = RadialFunction(grid, vals)
            g = P.quadratic_form(vals)
            s = sobolev_energy(u, dims2)
            if g > 1e-12:
                ratios.append(s / g)
        ratios = np.array(ratios)
        # empirical two-sided bound: equivalent norms on the sampled family
        assert ratios.max() < 1e3
        assert ratios.min() > 1e-3

    def test_poincare_chain_energies(self, dims3, rng):
        grid = RadialGrid.geodesic(r_max=10.0, n_elements=20, degree=6, grading=2.0)
        base = ((dims3.N - 1) / 2.0) ** 2
        r = grid.geodesic_nodes
        for _ in range(10):
            vals = sum(
                a * np.exp(-c * r**2)
                for a, c in zip(rng.uniform(-1, 1, 3), rng.uniform(0.5, 2.5, 3))
            )
            u = RadialFunction(grid, vals)
            energies = [iterated_gradient_energy(u, dims3, m) for m in range(4)]
            for l in range(3):
                for k in range(l + 1, 4):
                    lhs = base ** (k - l) * energies[l]
                    assert lhs <= energies[k] * (1 + 1e-8) + 1e-12

    def test_one_chain_gives_every_order(self, dims3, geo_grid, rng):
        from hyperadams.operators import _laplacian_parts, gradient_energies

        def one_order(vals, m):  # the per-order loop the chain replaced
            K, M = _laplacian_parts(dims3, geo_grid, "hyperbolic")
            z = vals
            for _ in range(m // 2):
                z = (K @ z) / M
            if m % 2 == 0:
                return dims3.omega_Nm1 * float(np.dot(M, z * z))
            return dims3.omega_Nm1 * float(z @ (K @ z))

        r = geo_grid.geodesic_nodes
        block = np.array([np.exp(-c * r**2) for c in rng.uniform(0.5, 2.5, 5)])
        energies = gradient_energies(block, geo_grid, dims3, 3)
        assert energies.shape == (5, 4)
        for u, row in zip(block, energies):
            assert np.array_equal(row, [one_order(u, m) for m in range(4)])
            single = RadialFunction(geo_grid, u)
            assert [iterated_gradient_energy(single, dims3, m) for m in range(4)] == row.tolist()
            assert sobolev_energy(single, dims3) == sum(row.tolist())

    def test_truncation_warning(self, dims1):
        grid = RadialGrid.euclidean_ball(s_max=1.0, n_elements=10, degree=5)
        v = RadialFunction(grid, np.ones(grid.n_nodes))
        with pytest.warns(UserWarning, match="support touches"):
            euclidean_gradk_energy(v, dims1)

    def test_negative_form_raises(self, geo_grid, dims1):
        P = gjms_assemble(dims1, geo_grid)
        # corrupt the operator to force a negative form
        bad = P
        from dataclasses import replace

        bad = replace(P, shifts=(-1e6,))
        u = RadialFunction.from_callable(geo_grid, lambda r: np.exp(-(r**2)))
        with pytest.raises(DiscretizationError):
            gjms_energy(u, dims1, operator=bad)
