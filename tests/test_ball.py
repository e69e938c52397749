import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from hyperadams.ball import (
    DimensionParams,
    DiskGrid,
    RadialFunction,
    RadialGrid,
    euclidean_to_geodesic,
    geodesic_to_euclidean,
    hyperbolic_translate,
    integrate_radial,
    pushforward_2d,
    squared_norm,
)
from hyperadams.errors import (
    DiscretizationError,
    DomainError,
    NonFiniteSampleError,
    UnsupportedDimensionError,
)


class TestRadiusConvert:
    def test_origin(self):
        assert geodesic_to_euclidean(0.0) == 0.0

    def test_inverse_pair(self):
        s = math.tanh(0.5)
        assert abs(euclidean_to_geodesic(s) - 1.0) < 1e-14

    def test_small_radius_relative_accuracy(self):
        # r = 2 atanh(s); a rounded 1 - s would cost it ~1e-16/s relative
        s = np.logspace(-30, math.log10(0.5), 200)
        exact = np.array([2.0 * math.atanh(x) for x in s])
        assert np.max(np.abs(euclidean_to_geodesic(s) - exact) / exact) <= 1e-15

    def test_round_trip_plain(self):
        r = np.linspace(0.0, 6.0, 200)
        s = geodesic_to_euclidean(r)
        back = np.where(s > 0, euclidean_to_geodesic(np.maximum(s, 1e-300)), 0.0)
        assert np.max(np.abs(back - r)) < 1e-13

    def test_distance_matches_metric_integral(self):
        # hyperbolic distance to |x| = s is the line integral of the
        # conformal factor along the radius
        for s in (0.2, 0.5, 0.9):
            val, _ = quad(lambda t: 2.0 / (1.0 - t**2), 0.0, s)
            assert abs(val - euclidean_to_geodesic(s)) < 1e-10


class TestVolumeWeight:
    def test_zero_at_origin(self, geo_grid, dims2):
        assert geo_grid.density(dims2)[0] == 0.0

    def test_n2_closed_form(self, geo_grid, dims1):
        r = geo_grid.geodesic_nodes
        assert np.allclose(
            geo_grid.density(dims1), 2 * np.pi * np.sinh(r), rtol=1e-14
        )

    def test_coordinate_consistency_all_nodes(self, dims1, dims2, dims3):
        # geodesic form vs Euclidean-coordinate form, stable complements
        grid = RadialGrid.geodesic(r_max=25.0, n_elements=24, degree=6, grading=2.0)
        for dims in (dims1, dims2, dims3):
            a = grid.density(dims)
            # s^{N-1} (2/(1-s^2))^N ds/dr
            s, oms = grid.euclidean_nodes, grid.one_minus_s
            one_minus_s2 = oms * (1.0 + s)
            ds_dr = 0.5 * one_minus_s2
            b = dims.omega_Nm1 * s ** (dims.N - 1) * (2.0 / one_minus_s2) ** dims.N * ds_dr
            mask = a > 0
            assert np.max(np.abs(a[mask] - b[mask]) / a[mask]) < 1e-12

    @pytest.mark.parametrize("metric_form", ["density", "laplacian"])
    def test_overflowing_weight_raises(self, dims2, metric_form):
        # sinh^3 r overflows a double from r ~ 237 on; an inf weight would
        # make every integral on the grid NaN.  The error is the only report:
        # the overflow raises no RuntimeWarning on the way
        grid = RadialGrid.geodesic(r_max=300.0, n_elements=24, degree=6, grading=1.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(DiscretizationError, match="r_max = 300"):
                if metric_form == "density":
                    grid.density(dims2)
                else:
                    grid.laplacian_coefficients(dims2)(grid.geodesic_nodes)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_density_overflow_counts_the_sphere_measure(self, dims2):
        # omega_3 sinh^3 r overflows a double from r ~ 236.3 on, sinh^3 r only
        # from r ~ 237.3: in between the density raises and the operator
        # weight, which carries no omega, stays finite
        grid = RadialGrid.geodesic(r_max=236.8, n_elements=24, degree=6, grading=1.0)
        with pytest.raises(DiscretizationError, match="r_max = 236.8"):
            grid.density(dims2)
        mass_weight = grid.laplacian_coefficients(dims2)
        assert np.all(np.isfinite(mass_weight(grid.geodesic_nodes)))

    def test_ball_volume_h2(self, dims1):
        grid = RadialGrid.geodesic(r_max=1.0, n_elements=4, degree=6, grading=1.0)
        one = RadialFunction(grid, np.ones(grid.n_nodes))
        vol = integrate_radial(one, dims1)
        exact = 2 * math.pi * (math.cosh(1.0) - 1.0)
        assert abs(vol - exact) / exact < 1e-12

    def test_ball_volume_h4(self, dims2):
        grid = RadialGrid.geodesic(r_max=1.0, n_elements=4, degree=6, grading=1.0)
        one = RadialFunction(grid, np.ones(grid.n_nodes))
        vol = integrate_radial(one, dims2)
        exact = 2 * math.pi**2 * (math.cosh(1.0) ** 3 / 3 - math.cosh(1.0) + 2.0 / 3.0)
        assert abs(vol - exact) / exact < 1e-12


class TestIntegrateRadial:
    def test_zero(self, geo_grid, dims1):
        f = RadialFunction(geo_grid, np.zeros(geo_grid.n_nodes))
        assert integrate_radial(f, dims1) == 0.0

    def test_non_finite_rejected(self, geo_grid):
        vals = np.zeros(geo_grid.n_nodes)
        vals[3] = np.nan
        with pytest.raises(NonFiniteSampleError):
            RadialFunction(geo_grid, vals)

    def test_euclidean_variant_flat_volume(self, dims1):
        # int_{B} 1 dx over the Euclidean image of a geodesic ball: the flat
        # density through ds/dr = (1 - s^2)/2 on the geodesic nodes, and the
        # measure of the Euclidean-radius grid of the same ball
        exact = math.pi * math.tanh(1.0) ** 2
        grid = RadialGrid.geodesic(r_max=2.0, n_elements=5, degree=6, grading=1.0)
        s = grid.euclidean_nodes
        ds_dr = 0.5 * grid.one_minus_s * (1.0 + s)
        got = grid.mesh.integrate(dims1.omega_Nm1 * s ** (dims1.N - 1) * ds_dr)
        assert abs(got - exact) / exact < 1e-12
        flat = RadialGrid.euclidean_ball(s_max=math.tanh(1.0), n_elements=5, degree=6)
        assert flat.one_minus_s is None
        got = integrate_radial(RadialFunction(flat, np.ones(flat.n_nodes)), dims1)
        assert abs(got - exact) / exact < 1e-12

    def test_gaussian_self_convergence_order(self, dims2):
        vals = []
        for n_el in (4, 8, 16, 32):
            grid = RadialGrid.geodesic(r_max=9.0, n_elements=n_el, degree=4, grading=2.0)
            f = RadialFunction.from_callable(grid, lambda r: np.exp(-(r**2)))
            vals.append(integrate_radial(f, dims2))
        errs = [abs(v - vals[-1]) for v in vals[:-1]]
        order = math.log2(errs[0] / errs[1])
        assert order > 3.5, f"observed order {order}"

    @pytest.mark.parametrize("measure", ["hyperbolic", "euclidean"])
    @pytest.mark.parametrize("r_max", [None, 2.0])
    def test_family_is_bitwise_per_profile(self, dims2, rng, measure, r_max):
        # r_max None: the full grid; 2.0: the grid cut at its edge at 2.0; each
        # measure is that of its grid, the flat one on the Euclidean-radius
        # grid of the same ball
        n_elements = 10 if r_max is None else 5
        if measure == "hyperbolic":
            grid = RadialGrid.geodesic(
                r_max=r_max or 4.0, n_elements=n_elements, degree=6, grading=1.0
            )
        else:
            grid = RadialGrid.euclidean_ball(
                s_max=math.tanh((r_max or 4.0) / 2), n_elements=n_elements, degree=6
            )
        block = rng.standard_normal((7, grid.n_nodes))
        got = integrate_radial(RadialFunction(grid, block), dims2)
        want = [integrate_radial(RadialFunction(grid, row), dims2) for row in block]
        assert np.array_equal(got, want)

    def test_family_checks_shape_and_measure(self, geo_grid):
        with pytest.raises(ValueError, match="samples"):
            RadialFunction(geo_grid, np.zeros((2, 3, geo_grid.n_nodes)))
        with pytest.raises(ValueError, match="samples"):
            RadialFunction(geo_grid, np.zeros((2, geo_grid.n_nodes + 1)))


def _translate_with_axis_sum(b, x):
    """hyperbolic_translate as written with np.sum over the point axis: the
    reference for the left-to-right squared norm."""
    b2 = float(np.dot(b, b))
    x2 = np.sum(x * x, axis=-1)
    xb = np.tensordot(x, b, axes=([-1], [0]))
    denom = b2 * x2 + 2.0 * xb + 1.0
    num = (1.0 - b2) * x + (x2 + 2.0 * xb + 1.0)[..., None] * b
    return num / denom[..., None]


class TestSquaredNorm:
    @pytest.mark.parametrize("length", range(1, 8))
    def test_bitwise_axis_sum(self, length):
        x = np.random.default_rng(length).uniform(-1.0, 1.0, size=(96, 128, length))
        assert np.array_equal(squared_norm(x), np.sum(x * x, axis=-1))
        assert np.array_equal(squared_norm(x[5, 7]), np.sum(x[5, 7] ** 2))

    def test_translate_bitwise_as_axis_sum(self):
        disk = DiskGrid(s_max=0.92, n_radial=48, n_angular=64)
        for b in np.random.default_rng(5).uniform(-0.4, 0.4, size=(5, 2)):
            assert np.array_equal(
                hyperbolic_translate(b, disk.points), _translate_with_axis_sum(b, disk.points)
            )


class TestHyperbolicTranslate:
    def test_identity_translation(self, rng):
        x = rng.uniform(-0.6, 0.6, size=(100, 3))
        x = x[np.linalg.norm(x, axis=1) < 0.95]
        out = hyperbolic_translate(np.zeros(3), x)
        assert np.max(np.abs(out - x)) == 0.0

    def test_origin_maps_to_b(self):
        b = np.array([0.3, -0.4])
        out = hyperbolic_translate(b, np.zeros(2))
        assert np.allclose(out, b, atol=1e-15)

    def test_inverse_composition(self, rng):
        pts = rng.uniform(-0.7, 0.7, size=(1000, 2))
        pts = pts[np.linalg.norm(pts, axis=1) < 0.97]
        b = np.array([0.35, 0.21])
        back = hyperbolic_translate(-b, hyperbolic_translate(b, pts))
        assert np.max(np.abs(back - pts)) < 1e-12

    def test_image_stays_in_ball(self, rng):
        total = 0
        for _ in range(16):
            b = rng.uniform(-0.9, 0.9, size=2)
            if np.linalg.norm(b) >= 0.97:
                continue
            pts = rng.uniform(-0.9, 0.9, size=(1000, 2))
            pts = pts[np.linalg.norm(pts, axis=1) < 0.999]
            out = hyperbolic_translate(b, pts)
            total += len(pts)
            assert np.max(np.linalg.norm(out, axis=1)) < 1.0
        assert total >= 10_000

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            hyperbolic_translate(np.array([1.0, 0.0]), np.zeros(2))
        with pytest.raises(DomainError):
            hyperbolic_translate(np.array([0.5, 0.0]), np.array([1.2, 0.0]))


class TestPushforward2D:
    def test_identity(self, rng):
        fn = lambda pts: np.exp(-np.sum(np.asarray(pts) ** 2, axis=-1))
        composed = pushforward_2d(fn, np.zeros(2))
        pts = rng.uniform(-0.5, 0.5, size=(50, 2))
        assert np.allclose(composed(pts), fn(pts))

    def test_dimension_guard(self):
        with pytest.raises(UnsupportedDimensionError):
            pushforward_2d(lambda p: p, np.array([0.1, 0.2, 0.3]))

    def test_translation_invariance_of_integral(self, dims1):
        disk = DiskGrid(s_max=0.9, n_radial=96, n_angular=96)
        s0 = 0.3

        def u(points):
            s2 = np.sum(np.asarray(points, dtype=float) ** 2, axis=-1)
            out = np.zeros_like(s2)
            inside = s2 < s0**2
            out[inside] = np.exp(-s2[inside] / (s0**2 - s2[inside]))
            return out

        base = disk.integrate_hyperbolic(disk.sample(u) ** 2)
        # radial reference on an independent 1D grid
        grid = RadialGrid.euclidean_ball(s_max=0.9, n_elements=24, degree=8)
        s = grid.mesh.nodes
        vals = u(np.stack([s, np.zeros_like(s)], axis=-1))
        dens = (2.0 / (1.0 - s**2)) ** 2 * s * 2 * np.pi
        ref = grid.mesh.integrate(vals**2 * dens)
        assert abs(base - ref) / ref < 1e-5
        moved = disk.integrate_hyperbolic(
            disk.sample(pushforward_2d(u, np.array([0.25, -0.3]))) ** 2
        )
        assert abs(moved - base) / base < 1e-5


class TestRadialFunction:
    def test_origin_value(self, geo_grid):
        u = RadialFunction.from_callable(geo_grid, lambda r: np.exp(-(r**2)))
        assert u.values[0] == 1.0

    def test_eval_interpolates(self, geo_grid):
        u = RadialFunction.from_callable(geo_grid, lambda r: np.exp(-(r**2)))
        pts = np.linspace(0.1, 3.0, 17)
        assert np.max(np.abs(u.eval(pts) - np.exp(-(pts**2)))) < 1e-7

    def test_length_mismatch(self, geo_grid):
        with pytest.raises(ValueError):
            RadialFunction(geo_grid, np.ones(3))


class TestGridInvariants:
    def test_euclidean_nodes_are_tanh_half(self, geo_grid):
        r = geo_grid.geodesic_nodes
        assert np.max(np.abs(geo_grid.euclidean_nodes - np.tanh(r / 2))) < 1e-15
        assert np.all(geo_grid.euclidean_nodes < 1.0)

    def test_quadrature_weights_positive(self, geo_grid, ball_grid):
        assert np.all(geo_grid.quad_weights > 0)
        assert np.all(ball_grid.quad_weights > 0)

    def test_arrays_immutable(self, geo_grid):
        with pytest.raises(ValueError):
            geo_grid.geodesic_nodes[0] = 1.0
        u = RadialFunction(geo_grid, np.zeros(geo_grid.n_nodes))
        with pytest.raises(ValueError):
            u.values[0] = 1.0


class TestDimensionParams:
    def test_fields(self):
        d = DimensionParams(2)
        assert d.N == 4
        assert abs(d.omega_Nm1 - 2 * math.pi**2) < 1e-14

    def test_invalid(self):
        with pytest.raises(DomainError):
            DimensionParams(0)
