import math

import numpy as np
import pytest
from conftest import cutoff_condition_residuals, cutoff_derivative, junction_jumps

from hyperadams.ball import DimensionParams, RadialGrid
from hyperadams.errors import DomainError, ResolutionError
from hyperadams.extremals import (
    blowup_experiment,
    blowup_slopes,
    MoserProfile,
    build_moser_profile,
    lp_norm_hyperbolic,
    moser_energy,
    moser_energy_grid,
    moser_hyperbolic_grid,
    sobolev_upper_experiment,
)
from hyperadams.inequalities import moser_normalizer
from hyperadams.operators import euclidean_gradk_energy

B0 = 4 * math.pi


class TestProfileConstruction:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_origin_value_formula(self, k):
        m = 1000
        grid = moser_hyperbolic_grid(m, k)
        prof = build_moser_profile(m, k, grid)
        L, M = math.log(m), moser_normalizer(k)
        expected = math.sqrt(L / (2 * M)) + sum(
            1.0 / (math.sqrt(2 * M * L) * l) for l in range(1, k)
        )
        assert abs(prof.v(0.0)[0] - expected) < 1e-14 * max(1.0, expected)

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("m", [100, 10000])
    def test_branch_continuity(self, k, m):
        prof = build_moser_profile(m, k, moser_hyperbolic_grid(m, k))
        mm = junction_jumps(prof)
        tol = 1e-10 * math.sqrt(prof.log_m)
        assert mm["inner_junction"] <= tol
        assert mm["outer_junction"] <= tol

    def test_log_branch_vanishes_at_one(self):
        prof = build_moser_profile(1000, 2, moser_hyperbolic_grid(1000, 2))
        assert abs(prof.v(1.0 - 1e-13)[0]) < 1e-11
        assert abs(prof.v(1.0)[0]) < 1e-14  # cutoff side

    def test_k1_cutoff_identically_zero(self):
        prof = build_moser_profile(100, 1, moser_hyperbolic_grid(100, 1))
        assert np.all(prof.cutoff_spline == 0.0)
        rho = np.linspace(1.0, 2.0, 50)
        assert np.all(prof.v(rho) == 0.0)

    @pytest.mark.parametrize("k", [2, 3])
    def test_cutoff_conditions(self, k):
        for m in (100, 10000):
            prof = build_moser_profile(m, k, moser_hyperbolic_grid(m, k))
            res = cutoff_condition_residuals(prof)
            assert res.shape == (2 * k,)
            assert np.max(np.abs(res)) < 1e-10

    def test_cutoff_magnitude_scaling(self):
        # sup|xi| * sqrt(log m) is the same constant for every m
        sups = []
        for m in (100, 10000, 1000000):
            prof = build_moser_profile(m, 2, moser_hyperbolic_grid(m, 2))
            sup = np.max(np.abs(prof.v(np.linspace(1.0, 2.0, 2001))))
            sups.append(sup * math.sqrt(prof.log_m))
        assert max(sups) / min(sups) < 1.0 + 1e-12

    def test_resolution_guard(self):
        coarse = RadialGrid.geodesic(r_max=4.0, n_elements=4, degree=4, grading=1.0)
        with pytest.raises(ResolutionError):
            build_moser_profile(10**6, 1, coarse)

    @pytest.mark.parametrize("m, k", [(1, 1), (0, 1), (100, 0)])
    def test_m_domain(self, m, k):
        with pytest.raises(DomainError):
            build_moser_profile(m, k, moser_hyperbolic_grid(100, 1))

    @pytest.mark.parametrize("m", [1, 0])
    def test_profile_checks_its_domain(self, m):
        # the constructor itself refuses m < 2, before any log m is taken
        with pytest.raises(DomainError, match="m >= 2"):
            MoserProfile(m, 1)

    def test_geodesic_grid_required(self):
        flat = RadialGrid.euclidean_ball(s_max=1.0, n_elements=8, degree=4)
        with pytest.raises(DomainError, match="geodesic"):
            build_moser_profile(100, 1, flat)

    def test_order_k_jump_is_finite_and_recorded(self):
        prof = build_moser_profile(1000, 2, moser_hyperbolic_grid(1000, 2))
        k = prof.k
        log_branch = (-1.0) ** k * math.factorial(k - 1) * prof.slope
        jump = cutoff_derivative(prof, k, 1.0) - log_branch
        assert math.isfinite(jump)


class TestMoserEnergy:
    def test_k1_energy_near_one(self):
        prof = build_moser_profile(100, 1, moser_hyperbolic_grid(100, 1))
        assert 0.5 <= moser_energy(prof) <= 2.0

    @pytest.mark.parametrize("k", [1, 2])
    def test_deviation_times_logm_bounded(self, k):
        devs = []
        for m in (100, 1000, 10000):
            prof = build_moser_profile(m, k, moser_hyperbolic_grid(m, k))
            devs.append(abs((moser_energy(prof) - 1.0) * prof.log_m))
        med = float(np.median(devs))
        assert max(devs) <= 3.0 * med
        assert min(devs) >= med / 3.0

    def test_energy_trend_toward_one(self):
        gaps = []
        for m in (100, 10000, 1000000):
            prof = build_moser_profile(m, 2, moser_hyperbolic_grid(m, 2))
            gaps.append(abs(moser_energy(prof) - 1.0))
        assert gaps[0] > gaps[1] > gaps[2]

    @pytest.mark.parametrize("k", [1, 2])
    def test_normalized_energy_is_one(self, k):
        from hyperadams.ball import RadialFunction

        dims = DimensionParams(k)
        m = 1000
        prof = build_moser_profile(m, k, moser_hyperbolic_grid(m, k))
        energy = moser_energy(prof)
        grid = moser_energy_grid(m)
        v = RadialFunction(grid, prof.v(grid.mesh.nodes) / math.sqrt(energy))
        renorm = euclidean_gradk_energy(v, dims)
        assert abs(renorm - 1.0) < 1e-12


class TestBlowup:
    def test_records_and_exponents(self):
        recs = blowup_experiment([1.1 * B0], [1000, 10000], k=1)
        assert len(recs) == 2
        for rec in recs:
            assert rec.energy > 0
            assert abs(rec.predicted_exponent - 0.1) < 1e-12
            assert rec.functional_value > 0

    def test_supercritical_growth_subcritical_bounded(self):
        recs = blowup_experiment([1.1 * B0, 0.9 * B0], [10**3, 10**4, 10**5], k=1)
        fits = blowup_slopes(recs)
        assert fits[1.1 * B0]["slope"] > 0.05
        assert fits[0.9 * B0]["max_over_min"] < 10.0

    def test_critical_case_records_only(self):
        recs = blowup_experiment([B0], [100, 1000], k=1)
        assert all(math.isfinite(r.functional_value) for r in recs)

    def test_core_value_bounded_by_functional_and_exact_at_k1(self):
        for k in (1, 2):
            beta = 1.1 * 2 * moser_normalizer(k) * k
            for rec in blowup_experiment([beta, 0.9 * beta], [100, 10**4], k=k):
                assert 0.0 < rec.core_value <= rec.functional_value
        # k = 1: the profile is the constant peak on the core, so the core value
        # is (e^{beta peak^2 / E} - 1) times the geodesic-disc area 4 pi sinh^2(r/2)
        for m in (100, 10**4, 10**6):
            rec = blowup_experiment([1.1 * B0], [m], k=1)[0]
            peak = build_moser_profile(m, 1, moser_hyperbolic_grid(m, 1)).peak
            r_core = 2 * math.atanh(0.5 / math.sqrt(m))  # junction rho = 1/sqrt(m)
            area = 4 * math.pi * math.sinh(r_core / 2) ** 2
            exact = math.expm1(rec.beta * peak**2 / rec.energy) * area
            assert abs(rec.core_value - exact) <= 1e-12 * exact

    @pytest.mark.parametrize("k, rel_tol", [(1, 0.01), (2, 0.03)])
    def test_core_slope_at_huge_m(self, k, rel_tol):
        # the core radius is the junction s = 1/(2 sqrt(m)), down to 5e-31 here:
        # the core slope reaches its predicted 0.1 k only if that radius keeps
        # its relative accuracy
        beta = 1.1 * 2 * moser_normalizer(k) * k
        recs = blowup_experiment([beta], [10**30, 10**40, 10**50, 10**60], k=k)
        fit = blowup_slopes(recs)[beta]
        assert abs(fit["core_slope"] - fit["predicted_exponent"]) <= rel_tol * 0.1 * k

    @pytest.mark.parametrize(
        "m_list",
        [(100, 100), (10**15, 10**15 + 1), (10**14, 10**14 + 1)],
        ids=["equal", "equal-logs", "one-ulp-logs"],
    )
    def test_slopes_nan_over_one_distinct_m(self, m_list):
        # a line through coincident points has no slope (10^15 and 10^15 + 1
        # have the same double log), nor one through logs an ulp apart
        # (10^14 and 10^14 + 1)
        recs = blowup_experiment([1.1 * B0], list(m_list), k=1)
        assert all(math.isfinite(r.functional_value) for r in recs)
        fit = blowup_slopes(recs)[1.1 * B0]
        assert math.isnan(fit["slope"]) and math.isnan(fit["core_slope"])

    def test_k2_runs(self):
        recs = blowup_experiment([1.2 * 2 * moser_normalizer(2) * 2], [100, 1000], k=2)
        assert all(r.functional_value > 0 for r in recs)


class TestSobolevUpper:
    def test_rows_positive_and_trending(self):
        rows = sobolev_upper_experiment([100, 10000, 1000000], k=1)
        assert all(r.s_upper > 0 for r in rows)
        devs = [abs(r.p_s_upper - r.target) for r in rows]
        assert devs[-1] < devs[0]
        ps = [r.p_s_upper for r in rows]
        assert ps == sorted(ps)  # decreasing envelope toward the target from below

    def test_p_matches_coupling(self):
        rows = sobolev_upper_experiment([1000], k=2)
        assert abs(rows[0].p - 2 * 2 * math.log(1000)) < 1e-12

    def test_lp_norm_log_space(self, dims1):
        grid = moser_hyperbolic_grid(1000, 1)
        prof = build_moser_profile(1000, 1, grid)
        # tiny values underflow in |u|^p but the log-space route stays finite
        val = lp_norm_hyperbolic(prof.samples, 60.0, dims1)
        assert val > 0 and math.isfinite(val)
