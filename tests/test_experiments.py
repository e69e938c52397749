"""The experiment runners do their shared work once and give the values of the
per-item computation they replace, bit for bit."""

import numpy as np
import pytest

import hyperadams.experiments as experiments
from hyperadams.ball import DimensionParams, DiskGrid, RadialFunction, RadialGrid, pushforward_2d
from hyperadams.config import validate_config
from hyperadams.errors import ConfigError


def _config(**items):
    return validate_config({key: str(value) for key, value in items.items()})


def _counting(monkeypatch, owner, name):
    """Wrap owner.name so that every call is counted; returns the count list."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


class TestConformalIdentity:
    CFG = dict(experiment="conformal-identity", k_list="1, 2", n_elements=4, levels=3)

    def test_one_assembly_per_k_and_level(self, monkeypatch):
        calls = _counting(monkeypatch, experiments, "gjms_assemble")
        report = experiments.run_conformal_identity(_config(**self.CFG))
        assert len(calls) == 3 * 2
        assert len(report.rows) == 3 * 2 * len(experiments.BUMPS)

    def test_rows_as_one_grid_and_operator_per_bump(self):
        # the reference builds its grid and P_k afresh for every bump
        cfg = _config(**self.CFG)
        oracle_grid = experiments.flat_oracle_grid(cfg.params["r_max"])
        expected = []
        for k in (1, 2):
            dims = DimensionParams(k)
            for name, fn in experiments.BUMPS.items():
                oracle = experiments.flat_oracle_energy(k, fn, oracle_grid)
                for lvl in range(3):
                    n_el = 4 * 2**lvl
                    grid = experiments._grid(cfg.params, n_el)
                    u = RadialFunction.from_callable(grid, fn)
                    value = experiments.gjms_assemble(dims, grid).quadratic_form(u)
                    rel = abs(value - oracle) / oracle
                    expected.append((k, name, n_el, grid.n_nodes, value, oracle, rel))
        assert experiments.run_conformal_identity(cfg).rows == expected


class TestInequalities:
    @staticmethod
    def _objects_built(monkeypatch, **items):
        cfg = _config(experiment="inequalities", n_elements=8, **items)
        profiles = _counting(monkeypatch, RadialFunction, "__post_init__")
        grids = _counting(monkeypatch, RadialGrid, "__init__")
        experiments.run_inequalities(cfg)
        monkeypatch.undo()
        return len(profiles), len(grids)

    def test_profile_objects_do_not_grow_with_the_family(self, monkeypatch):
        small = self._objects_built(monkeypatch, n_profiles=10, k_max=3)
        large = self._objects_built(monkeypatch, n_profiles=40, k_max=3)
        assert small == large

    def test_one_grid_of_each_kind_per_run(self, monkeypatch):
        _, grids = self._objects_built(monkeypatch, n_profiles=10, k_max=3)
        assert grids == 2


def _isometry_profiles(s0, a=6.0):
    """u, g and Delta_g g of the isometry experiment, with the squared radius
    summed by np.sum over the point axis."""

    def u_fn(points):
        pts = np.asarray(points, dtype=float)
        s2 = np.sum(pts * pts, axis=-1)
        out = np.zeros_like(s2)
        inside = s2 < s0**2
        out[inside] = np.exp(-s2[inside] / (s0**2 - s2[inside]))
        return out

    def g_fn(points):
        pts = np.asarray(points, dtype=float)
        return np.exp(-a * np.sum(pts * pts, axis=-1))

    def lap_g(points):
        pts = np.asarray(points, dtype=float)
        s2 = np.sum(pts * pts, axis=-1)
        return ((1.0 - s2) / 2.0) ** 2 * (4.0 * a**2 * s2 - 4.0 * a) * np.exp(-a * s2)

    return u_fn, g_fn, lap_g


class TestIsometry:
    @pytest.mark.parametrize("seed", [3, 11])
    def test_rows_as_the_pushforward_path(self, seed):
        cfg = _config(
            experiment="isometry-2d", n_radial=40, n_angular=48, n_translations=5,
            b_max=0.6, seed=seed,
        )
        rows = experiments.run_isometry_2d(cfg).rows
        disk = DiskGrid(s_max=0.92, n_radial=40, n_angular=48)
        u_fn, g_fn, lap_g = _isometry_profiles(cfg.params["support_radius"])
        base = disk.integrate_hyperbolic(disk.sample(u_fn) ** 2)
        assert len(rows) == 5
        for row in rows:
            b = np.array(row[:2])
            moved = disk.integrate_hyperbolic(disk.sample(pushforward_2d(u_fn, b)) ** 2)
            lap_disc = disk.laplace_beltrami(disk.sample(pushforward_2d(g_fn, b)))
            lap_true = disk.sample(pushforward_2d(lap_g, b))
            lap_dev = float(np.max(np.abs(lap_disc - lap_true))) / float(
                np.max(np.abs(lap_true))
            )
            assert row == (row[0], row[1], base, moved, abs(moved - base) / base, lap_dev)


class TestGrid:
    def test_coinciding_edges_at_a_refined_level_rejected(self):
        # (1/24)^230 is a subnormal, (1/96)^230 underflows to 0
        params = _config(experiment="inequalities", grading=230).params
        assert experiments._grid(params).n_nodes == 24 * 6 + 1
        with pytest.raises(ConfigError, match="grading = 230.0 .* at 96 elements"):
            experiments._grid(params, 96)
