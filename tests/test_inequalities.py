import math
import tracemalloc

import numpy as np
import pytest

from hyperadams.ball import DimensionParams, RadialFunction, RadialGrid
from hyperadams.errors import DomainError, NonFiniteSampleError
from hyperadams.experiments import random_ball_profiles, random_smooth_profiles
from hyperadams.inequalities import (
    adams_functional,
    beta0,
    check_owen,
    check_poincare_chain,
    fit_linearized_calibration,
    linearized_adams_bound,
    liu_constant,
    moser_alpha,
    linearized_margins,
    moser_normalizer,
    owen_constant,
    owen_margins,
    poincare_margins,
    scalar_inequality_suite,
)
from hyperadams.operators import iterated_gradient_energy


class TestSharpConstants:
    def test_first_order_two_dimensional(self):
        assert abs(beta0(1, 2) - 4 * math.pi) / (4 * math.pi) < 1e-15

    @pytest.mark.parametrize("k", range(1, 9))
    def test_critical_closed_form(self, k):
        closed = k * (4 * math.pi) ** k * math.factorial(k - 1)
        val = beta0(k, 2 * k)
        assert abs(val - closed) / closed < 1e-13
        assert abs(val - 2 * moser_normalizer(k) * k) / closed < 1e-13

    @pytest.mark.parametrize("N", range(2, 11))
    def test_first_order_reduces_to_moser(self, N):
        a = moser_alpha(N)
        assert abs(beta0(1, N) - a) / a < 1e-13

    def test_domain(self):
        with pytest.raises(DomainError):
            beta0(2, 2)
        with pytest.raises(DomainError):
            beta0(0, 4)

    def test_owen_values(self):
        assert owen_constant(1) == 0.25
        assert owen_constant(2) == 9.0 / 16.0
        assert owen_constant(3) == 225.0 / 64.0

    def test_liu_empty_product(self):
        # k = 1, N = 3: the denominator product is empty
        from hyperadams.ball import sphere_area

        expected = 4.0 * sphere_area(3) ** (-2.0 / 3.0) / 3.0
        assert abs(liu_constant(1, 3) - expected) < 1e-15

    def test_liu_k1_n4(self):
        from hyperadams.ball import sphere_area

        expected = 4.0 * sphere_area(4) ** (-0.5) / 8.0
        assert abs(liu_constant(1, 4) - expected) < 1e-15

    def test_liu_monotone_decreasing_in_N(self):
        for k in (1, 2):
            vals = [liu_constant(k, N) for N in range(2 * k + 1, 2 * k + 11)]
            assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_liu_domain_and_conventions(self):
        with pytest.raises(DomainError):
            liu_constant(2, 4)
        # omega_N is read as |S^N|: |S^3| = 2 pi^2 at (k, N) = (1, 3)
        expected = 4.0 * (2.0 * math.pi**2) ** (-2.0 / 3.0) / 3.0
        assert liu_constant(1, 3) == pytest.approx(expected, rel=1e-15)

    def test_critical_beta0_and_poincare_base(self, geo_grid):
        k = 2
        assert abs(beta0(k, 2 * k) - 2 * moser_normalizer(k) * k) < 1e-10
        # the k = 1, l = 0 Poincare margin weighs int u^2 by ((N-1)/2)^2 = 2.25
        dims = DimensionParams(k)
        u = RadialFunction.from_callable(geo_grid, lambda r: np.exp(-(r**2)))
        e0, e1 = (iterated_gradient_energy(u, dims, m) for m in (0, 1))
        assert check_poincare_chain(u, 1, 0, dims) == e1 - 2.25 * e0


class TestAdamsFunctional:
    def test_zero_profile(self, geo_grid, dims1):
        u = RadialFunction(geo_grid, np.zeros(geo_grid.n_nodes))
        assert adams_functional(u, 4 * math.pi, dims1) == 0.0

    def test_monotone_in_beta(self, geo_grid, dims1):
        u = RadialFunction.from_callable(geo_grid, lambda r: np.exp(-(r**2)))
        vals = [adams_functional(u, b, dims1) for b in (1.0, 2.0, 4.0, 8.0)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_monotone_in_pointwise_magnitude(self, geo_grid, dims1):
        u = RadialFunction.from_callable(geo_grid, lambda r: np.exp(-(r**2)))
        small = adams_functional(u, 2.0, dims1)
        big = adams_functional(u.scaled(1.3), 2.0, dims1)
        assert big > small

    def test_overflow_sentinel(self, geo_grid, dims1):
        u = RadialFunction.from_callable(geo_grid, lambda r: np.exp(-(r**2)))
        assert adams_functional(u, 1e6, dims1) == math.inf

    def test_truncation_flag(self, dims1):
        # slowly decaying profile on a short grid: the tail beyond R_max
        # carries more than 1e-12 of the functional
        grid = RadialGrid.geodesic(r_max=6.0, n_elements=10, degree=5, grading=1.0)
        u = RadialFunction.from_callable(grid, lambda r: np.exp(-0.9 * r))
        with pytest.warns(UserWarning, match="truncation radius"):
            adams_functional(u, 1.0, dims1)

    def test_beta_domain(self, geo_grid, dims1):
        u = RadialFunction(geo_grid, np.zeros(geo_grid.n_nodes))
        with pytest.raises(DomainError):
            adams_functional(u, -1.0, dims1)


def _refinement_slack(margins_coarse, margins_fine, scale):
    gap = np.max(np.abs(np.asarray(margins_fine) - np.asarray(margins_coarse)))
    return 4.0 * gap + 1e-10 * scale


class TestPoincareChain:
    def test_zero_margin(self, geo_grid, dims1):
        u = RadialFunction(geo_grid, np.zeros(geo_grid.n_nodes))
        assert check_poincare_chain(u, 1, 0, dims1) == 0.0

    @pytest.mark.parametrize("k,l,dim_k", [(1, 0, 1), (2, 1, 2), (2, 0, 2), (3, 2, 3)])
    def test_random_sweeps_nonnegative(self, k, l, dim_k, rng):
        dims = DimensionParams(dim_k)
        coarse = RadialGrid.geodesic(r_max=9.0, n_elements=12, degree=6, grading=2.0)
        fine = RadialGrid.geodesic(r_max=9.0, n_elements=24, degree=6, grading=2.0)
        r_c, r_f = coarse.mesh.nodes, fine.mesh.nodes
        margins_c, margins_f = [], []
        for _ in range(100):
            amps = rng.uniform(-1, 1, 3)
            rates = rng.uniform(0.4, 2.5, 3)
            u_c = RadialFunction(coarse, sum(a * np.exp(-c * r_c**2) for a, c in zip(amps, rates)))
            u_f = RadialFunction(fine, sum(a * np.exp(-c * r_f**2) for a, c in zip(amps, rates)))
            margins_c.append(check_poincare_chain(u_c, k, l, dims))
            margins_f.append(check_poincare_chain(u_f, k, l, dims))
        scale = float(np.max(np.abs(margins_f)))
        slack = _refinement_slack(margins_c, margins_f, scale)
        assert np.min(margins_f) >= -slack

    def test_order_validation(self, geo_grid, dims1):
        u = RadialFunction(geo_grid, np.zeros(geo_grid.n_nodes))
        with pytest.raises(DomainError):
            check_poincare_chain(u, 1, 1, dims1)


def _scaled_block(u: RadialFunction, factors) -> RadialFunction:
    """The family t u for t in ``factors``, as one (P, n) block."""
    return RadialFunction(u.grid, np.outer(factors, u.values))


class TestFamilyChecks:
    """The family functions give bitwise the per-profile values, and keep
    every per-profile check."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_poincare_family_is_bitwise_per_profile(self, k):
        dims = DimensionParams(k)
        grid = RadialGrid.geodesic(r_max=9.0, n_elements=16, degree=6, grading=2.0)
        profiles = random_smooth_profiles(grid, np.random.default_rng(k), 50)
        margins = poincare_margins(profiles, k, dims)
        assert margins.shape == (k, 50)
        for l in range(k):
            single = [
                check_poincare_chain(RadialFunction(grid, row), k, l, dims)
                for row in profiles.values
            ]
            assert np.array_equal(margins[l], single)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_owen_family_is_bitwise_per_profile(self, k, ball_grid):
        profiles = random_ball_profiles(ball_grid, np.random.default_rng(k), 50, k)
        single = [
            check_owen(RadialFunction(ball_grid, row), k)
            for row in profiles.values
        ]
        assert np.array_equal(owen_margins(profiles, k), single)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_linearized_family_is_bitwise_per_profile(self, k):
        dims = DimensionParams(k)
        grid = RadialGrid.geodesic(r_max=9.0, n_elements=16, degree=6, grading=2.0)
        profiles = random_smooth_profiles(grid, np.random.default_rng(k), 30)
        margins = linearized_margins(profiles, 0.9, dims, 0.5)
        single = [
            linearized_adams_bound(RadialFunction(grid, row), 0.9, dims, 0.5)
            for row in profiles.values
        ]
        assert np.array_equal(margins, single)
        calib = fit_linearized_calibration(profiles, 0.9, dims)
        assert calib == max(
            -linearized_adams_bound(RadialFunction(grid, row), 0.9, dims, 0.0)
            for row in profiles.values
        )

    def test_families_sample_as_the_per_profile_loop(self, geo_grid, ball_grid):
        # the block sampling draws and computes exactly what one draw per
        # profile did, so seeded sweeps keep their values
        rng, ref = np.random.default_rng(7), np.random.default_rng(7)
        r, s = geo_grid.mesh.nodes, ball_grid.mesh.nodes
        smooth = random_smooth_profiles(geo_grid, rng, 40)
        ball = random_ball_profiles(ball_grid, rng, 20, 2)
        for row in smooth.values:
            amps, rates = ref.uniform(-1.0, 1.0, size=3), ref.uniform(0.4, 2.5, size=3)
            assert np.array_equal(row, sum(a * np.exp(-c * r**2) for a, c in zip(amps, rates)))
        bump = np.clip(1.0 - (s / 0.55) ** 2, 0.0, None) ** 5
        for row in ball.values:
            c = ref.uniform(-1.0, 1.0, size=3)
            assert np.array_equal(row, bump * (c[0] + c[1] * s**2 + c[2] * s**4))
        assert rng.random() == ref.random()

    def test_owen_family_refuses_one_boundary_member(self, ball_grid):
        good = random_ball_profiles(ball_grid, np.random.default_rng(0), 4, 1).values
        bad = np.ones(ball_grid.n_nodes)
        family = RadialFunction(ball_grid, np.vstack([good[:2], bad, good[2:]]))
        with pytest.raises(DomainError, match="boundary"):
            owen_margins(family, 1)

    def test_overflowing_member_makes_calibration_infinite(self, geo_grid, dims1):
        base = RadialFunction.from_callable(geo_grid, lambda r: np.exp(-(r**2)))
        family = _scaled_block(base, (0.5, 1.0, 400.0))  # 2u reaches 800
        assert linearized_margins(family, 0.9, dims1, 0.0)[2] == -math.inf
        assert fit_linearized_calibration(family, 0.9, dims1) == math.inf

    def test_zero_member_leaves_calibration(self, dims1):
        grid = RadialGrid.geodesic(r_max=9.0, n_elements=20, degree=6, grading=2.0)
        base = RadialFunction.from_callable(grid, lambda r: np.exp(-(r**2)))
        family = _scaled_block(base, (0.5, 1.0))
        with_zero = _scaled_block(base, (0.5, 0.0, 1.0))
        calib = fit_linearized_calibration(family, 0.9, dims1)
        assert calib == fit_linearized_calibration(with_zero, 0.9, dims1)
        # the literal is this value on one BLAS kernel; another kernel sums
        # the n-node quadratures behind the log-moment and the energy term in
        # another order, which moves each by a few n eps
        assert abs(calib - 1.4084148500644436) <= 4 * grid.n_nodes * np.finfo(float).eps


class TestOwen:
    def test_zero_margin(self, ball_grid):
        u = RadialFunction(ball_grid, np.zeros(ball_grid.n_nodes))
        assert check_owen(u, 1) == 0.0

    def test_k1_bump_positive(self, ball_grid):
        s = ball_grid.mesh.nodes
        u = RadialFunction(ball_grid, np.clip(1 - (s / 0.5) ** 2, 0, None) ** 4)
        assert check_owen(u, 1) > 0

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_sweep_nonnegative(self, k, ball_grid, rng):
        fine = RadialGrid.euclidean_ball(s_max=1.0, n_elements=40, degree=6, grading=1.5)
        family = random_ball_profiles(fine, rng, 50, k)
        margins = [
            check_owen(RadialFunction(fine, row), k)
            for row in family.values
        ]
        scale = float(np.max(np.abs(margins)))
        assert np.min(margins) >= -1e-10 * scale

    def test_boundary_support_flagged(self, ball_grid):
        u = RadialFunction(ball_grid, np.ones(ball_grid.n_nodes))
        with pytest.raises(DomainError, match="boundary"):
            check_owen(u, 1)


def full_array_suite(n_grid, seed):
    """The scalar suite evaluated on all points at once: the chunked suite
    must return the same dict."""
    t = np.linspace(-50.0, 50.0, n_grid)
    t = np.concatenate([t, np.random.default_rng(seed).uniform(-50, 50, 1000)])
    lhs = np.expm1(t) ** 2
    rhs1 = np.expm1(2 * t) - 2 * t
    rhs2 = np.abs(np.expm1(2 * t))
    tol = 4 * np.finfo(float).eps
    direct1 = bool(np.all(lhs <= rhs1 * (1 + tol) + tol))
    direct2 = bool(np.all(lhs <= rhs2 * (1 + tol) + tol))
    rearranged1 = bool(np.all(2.0 * (np.expm1(t) - t) >= 0))
    with np.errstate(over="ignore"):
        gap2 = np.where(t >= 0, 2.0 * np.expm1(t), -2.0 * np.exp(t) * np.expm1(t))
    rearranged2 = bool(np.all(gap2 >= 0))
    return {
        "first_direct": direct1,
        "first_rearranged": rearranged1,
        "second_direct": direct2,
        "second_rearranged": rearranged2,
        "equality_at_zero": True,
        "n_points": int(t.size),
        "passed": direct1 and direct2 and rearranged1 and rearranged2,
    }


class TestScalarSuite:
    def test_suite_passes(self):
        suite = scalar_inequality_suite()
        assert suite["passed"]
        assert suite["equality_at_zero"]
        assert suite["n_points"] >= 100_000

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("n_grid", [1, 8191, 100_001])
    def test_chunks_give_the_full_array_dict(self, seed, n_grid):
        # shorter than one chunk, not a multiple of it, and the default
        assert scalar_inequality_suite(n_grid, seed) == full_array_suite(n_grid, seed)

    def test_peak_memory_is_chunk_sized(self):
        scalar_inequality_suite()  # numpy's lazy set-up is not the suite's
        tracemalloc.start()
        try:
            scalar_inequality_suite()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the 101,001 points alone take 0.8 MB; full-array checks peak at 6.6 MB
        assert peak < 2.5e6

    def test_spot_values(self):
        # t = 1: (e-1)^2 <= e^2 - 3 ; t = -2: (e^-2 - 1)^2 <= e^-4 + 4 - 1
        lhs1, rhs1 = (math.e - 1) ** 2, math.e**2 - 3.0
        assert abs(lhs1 - 2.9524924420125593) < 1e-12
        assert abs(rhs1 - 4.389056098930650) < 1e-12
        assert lhs1 <= rhs1
        lhs2, rhs2 = (math.exp(-2) - 1) ** 2, math.exp(-4) + 4 - 1
        assert lhs2 <= rhs2


class TestLinearizedBound:
    def test_zero_profile_trivially_satisfied(self, geo_grid, dims1):
        u = RadialFunction(geo_grid, np.zeros(geo_grid.n_nodes))
        assert linearized_adams_bound(u, 0.5, dims1, calibration=0.0) == math.inf

    def test_scaled_family_bounded(self, geo_grid, dims1):
        base = RadialFunction.from_callable(geo_grid, lambda r: np.exp(-(r**2)))
        family = _scaled_block(base, np.linspace(0.1, 3.0, 12))
        calib = fit_linearized_calibration(family, 0.9, dims1)
        assert math.isfinite(calib)
        margins = [
            linearized_adams_bound(RadialFunction(geo_grid, row), 0.9, dims1, calib)
            for row in family.values
        ]
        assert min(margins) >= -1e-9

    def test_moser_family_bounded(self, dims1):
        from hyperadams.extremals import build_moser_profile, moser_hyperbolic_grid

        profiles = []
        for m in (100, 1000, 10000):
            grid = moser_hyperbolic_grid(m, 1)
            profiles.append(build_moser_profile(m, 1, grid).samples)
        calibs = []
        for u in profiles:
            calibs.append(-linearized_adams_bound(u, 0.9, dims1, 0.0))
        # the fitted constant stays bounded along the concentrating family
        assert max(calibs) < 10.0

    def test_delta_domain(self, geo_grid, dims1):
        u = RadialFunction(geo_grid, np.zeros(geo_grid.n_nodes))
        with pytest.raises(DomainError):
            linearized_adams_bound(u, 1.5, dims1, 0.0)
