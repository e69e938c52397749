"""Geometry of the Poincare ball model.

Radial machinery lives on 1D grids in either the geodesic radius r (primary
coordinate for hyperbolic work; the volume weight sinh^{N-1} r is smooth
there) or the Euclidean radius s = tanh(r/2) (used for flat-measure energies
and for profiles defined on Euclidean balls, where s may exceed 1).  Both
flavors share the same spectral-element mesh; a grid's coordinate decides
its metric, hyperbolic on a geodesic grid and flat on a Euclidean one.

Full-dimensional (non-radial) operations are provided for N = 2 only, on a
tensor Gauss-Legendre x Fourier grid over the disk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DiscretizationError,
    DomainError,
    NonFiniteSampleError,
    UnsupportedDimensionError,
)
from .mesh import (
    Mesh1D,
    differentiation_matrix,
    geometric_edges,
    graded_edges,
)

GEODESIC = "geodesic"
EUCLIDEAN = "euclidean"


def sphere_area(n: int) -> float:
    """Surface measure of the unit n-sphere S^n in R^{n+1}."""
    return 2.0 * math.pi ** ((n + 1) / 2) / math.gamma((n + 1) / 2)


@dataclass(frozen=True)
class DimensionParams:
    """Critical-dimension bookkeeping: N = 2k and the sphere measure."""

    k: int
    N: int = field(init=False)
    omega_Nm1: float = field(init=False)

    def __post_init__(self):
        if self.k < 1 or int(self.k) != self.k:
            raise DomainError(f"k must be a positive integer, got {self.k}")
        object.__setattr__(self, "k", int(self.k))
        object.__setattr__(self, "N", 2 * self.k)
        object.__setattr__(self, "omega_Nm1", sphere_area(self.N - 1))


def geodesic_to_euclidean(r):
    """s = tanh(r/2)."""
    r_arr = np.asarray(r, dtype=float)
    if np.any(r_arr < 0):
        raise DomainError("geodesic radius must be nonnegative")
    s = np.tanh(r_arr / 2.0)
    return float(s) if np.isscalar(r) else s


def euclidean_to_geodesic(s):
    """r = log((1+s)/(1-s))."""
    s_arr = np.asarray(s, dtype=float)
    if np.any(s_arr < 0) or np.any(s_arr >= 1):
        raise DomainError("euclidean radius must lie in [0, 1)")
    # log1p(-s) keeps the relative accuracy at small s that a rounded 1 - s loses
    r = np.log1p(s_arr) - np.log1p(-s_arr)
    return float(r) if np.isscalar(s) else r


def sinh_weight(N: int, scale: float, r_max: float):
    """``scale`` sinh^{N-1} r as a function, for a geodesic grid on [0, r_max].
    A weight that overflows would make every integral NaN and raises; it
    grows with r, so its value at the grid's last node, r_max, decides that."""

    def sinh_power(r):
        with np.errstate(over="ignore"):  # reported below
            w = scale * np.sinh(r) ** (N - 1)
        if not np.all(np.isfinite(w)):
            raise DiscretizationError(
                "hyperbolic volume weight sinh^(N-1) r overflows below "
                f"r_max = {r_max:g}; lower r_max"
            )
        return w

    return sinh_power


class RadialGrid:
    """Composite Gauss-Lobatto grid in the geodesic or Euclidean radius.

    Nodes include the axis point (node 0 at radius 0); quadrature weights
    ``quad_weights`` integrate plain ``dr`` (or ``ds``) and are positive.
    The coordinate picks the metric: sinh^{N-1} r and dv_g on a geodesic
    grid, s^{N-1} and dx on a Euclidean-radius grid.  Instances are immutable
    and all arrays are read-only; private per-N caches keep the density and
    the Laplacian pair (K, M) of each dimension once formed.
    """

    def __init__(self, mesh: Mesh1D, coordinate: str = GEODESIC):
        if coordinate not in (GEODESIC, EUCLIDEAN):
            raise ValueError(f"unknown coordinate {coordinate!r}")
        self.mesh = mesh
        self.coordinate = coordinate
        self.R_max = float(mesh.edges[-1])
        self._densities: dict = {}
        self._laplacians: dict = {}
        if coordinate == GEODESIC:
            self._r = mesh.nodes
            self._s = geodesic_to_euclidean(mesh.nodes)
            self._s.flags.writeable = False
            with np.errstate(over="ignore"):  # beyond r = 709.8, 1 - s is exactly 0
                self.one_minus_s = 2.0 / (np.exp(mesh.nodes) + 1.0)  # 1 - s, stably
            self.one_minus_s.flags.writeable = False
        else:
            self._s = mesh.nodes
            self.one_minus_s = None
            self._r = None

    # -- factories ---------------------------------------------------------

    @classmethod
    def geodesic(
        cls,
        r_max: float = 25.0,
        n_elements: int = 24,
        degree: int = 6,
        grading: float = 2.0,
    ) -> "RadialGrid":
        return cls(Mesh1D(graded_edges(r_max, n_elements, grading), degree), GEODESIC)

    @classmethod
    def geodesic_geometric(
        cls,
        r_max: float,
        h_first: float,
        degree: int = 6,
        h_cap: float | None = 1.0,
        forced_edges: Sequence[float] = (),
    ) -> "RadialGrid":
        edges = geometric_edges(r_max, h_first, h_cap, forced_edges)
        return cls(Mesh1D(edges, degree), GEODESIC)

    @classmethod
    def euclidean_ball(
        cls,
        s_max: float = 1.0,
        n_elements: int = 24,
        degree: int = 6,
        grading: float = 1.5,
    ) -> "RadialGrid":
        return cls(Mesh1D(graded_edges(s_max, n_elements, grading), degree), EUCLIDEAN)

    @classmethod
    def euclidean_geometric(
        cls,
        s_max: float,
        h_first: float,
        degree: int = 6,
        h_cap: float | None = 0.25,
        forced_edges: Sequence[float] = (),
    ) -> "RadialGrid":
        edges = geometric_edges(s_max, h_first, h_cap, forced_edges)
        return cls(Mesh1D(edges, degree), EUCLIDEAN)

    # -- node data ----------------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return self.mesh.n_nodes

    @property
    def degree(self) -> int:
        return self.mesh.p

    @property
    def n_elements(self) -> int:
        return self.mesh.n_elements

    @property
    def quad_weights(self) -> np.ndarray:
        return self.mesh.quad_w

    @property
    def geodesic_nodes(self) -> np.ndarray:
        if self._r is None:
            if np.any(self._s >= 1.0):
                raise DomainError("geodesic radii undefined for s >= 1")
            r = euclidean_to_geodesic(self._s)
            r.flags.writeable = False
            self._r = r
        return self._r

    @property
    def euclidean_nodes(self) -> np.ndarray:
        return self._s

    # -- measures and operator weights -------------------------------------

    def _mass_weight(self, N: int, scale: float = 1.0):
        """``scale`` times the grid's radial volume weight in its own radius,
        as a function: sinh^{N-1} r on a geodesic grid (see ``sinh_weight``),
        s^{N-1} on a Euclidean-radius grid."""
        if self.coordinate == EUCLIDEAN:
            return lambda s: scale * s ** (N - 1)
        return sinh_weight(N, scale, self.R_max)

    def density(self, dims: DimensionParams) -> np.ndarray:
        """Per-node density with sum(quad_weights * density * f) = int f in the
        grid's measure, dv_g or dx (read-only; formed once per dimension)."""
        if dims.N not in self._densities:
            density = self._mass_weight(dims.N, dims.omega_Nm1)(self.mesh.nodes)
            density.flags.writeable = False
            self._densities[dims.N] = density
        return self._densities[dims.N]

    def laplacian_coefficients(self, dims: DimensionParams):
        """The grid's volume weight as a function of its primary coordinate:
        the stiffness and the mass weight of its radial Laplace operator."""
        return self._mass_weight(dims.N)

    def laplacian(self, dims: DimensionParams):
        """(K, M) of the grid's weighted radial Laplacian, K in band storage and
        M the read-only lumped mass (formed once per dimension)."""
        if dims.N not in self._laplacians:
            weight = self.laplacian_coefficients(dims)
            K = self.mesh.stiffness(weight(self.mesh.nodes))
            M = self.mesh.lumped_mass(weight)
            M.flags.writeable = False
            self._laplacians[dims.N] = (K, M)
        return self._laplacians[dims.N]

    def __repr__(self):
        return (
            f"RadialGrid({self.coordinate}, R_max={self.R_max:g}, "
            f"elements={self.n_elements}, degree={self.degree})"
        )


@dataclass
class RadialFunction:
    """Sampled radial profile on a RadialGrid.

    Radial functions are even in the radius; the element machinery imposes
    no artificial condition at the axis (the natural weighted-Neumann closure
    is exact for even profiles).  ``values`` may also be a (P, n) block, a
    family of P profiles on the grid, one per row; ``integrate_radial`` then
    gives one integral per row.
    """

    grid: RadialGrid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim > 2 or vals.shape[-1:] != (self.grid.n_nodes,):
            raise ValueError(
                f"expected {self.grid.n_nodes} samples, got shape {vals.shape}"
            )
        if not np.all(np.isfinite(vals)):
            raise NonFiniteSampleError("radial samples must be finite")
        vals = vals.copy()
        vals.flags.writeable = False
        self.values = vals

    @classmethod
    def from_callable(
        cls, grid: RadialGrid, fn: Callable[[np.ndarray], np.ndarray]
    ) -> "RadialFunction":
        """Sample ``fn`` at the grid's primary-coordinate nodes."""
        return cls(grid, np.asarray(fn(grid.mesh.nodes), dtype=float))

    def eval(self, x) -> np.ndarray:
        """Interpolate the profile at primary-coordinate points ``x``."""
        return self.grid.mesh.evaluate(self.values, x)

    def scaled(self, c: float) -> "RadialFunction":
        return RadialFunction(self.grid, c * self.values)


def integrate_radial(f: RadialFunction, dims: DimensionParams):
    """Quadrature of int f in the grid's measure: dv_g on a geodesic grid, dx
    on a Euclidean-radius grid; an array of one integral per profile for a
    family."""
    return f.grid.mesh.integrate(f.values * f.grid.density(dims))


def tail_fraction(f: RadialFunction, dims: DimensionParams) -> float:
    """|last element's share| of int |f| in the grid's measure (dv_g or dx);
    > 1e-12 suggests truncation."""
    integrand = np.abs(f.values) * f.grid.density(dims)
    total = f.grid.mesh.integrate(integrand)
    if total == 0.0:
        return 0.0
    return abs(f.grid.mesh.element_integrals(integrand)[-1]) / total


# -- hyperbolic translations -------------------------------------------------


def squared_norm(x: np.ndarray) -> np.ndarray:
    """|x|^2 over the last axis, summed left to right.

    The same bits as ``np.sum(x * x, axis=-1)`` (numpy sums a short axis in
    order), without the cost of a reduction over a length-2 axis.
    """
    x = np.asarray(x, dtype=float)
    out = x[..., 0] * x[..., 0]
    for i in range(1, x.shape[-1]):
        out = out + x[..., i] * x[..., i]
    return out


def hyperbolic_translate(b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Mobius self-map tau_b of the unit ball (an isometry of the metric).

    ``x`` may be a single point or an array of points in its last axis.
    """
    b = np.asarray(b, dtype=float)
    x = np.asarray(x, dtype=float)
    if b.ndim != 1:
        raise ValueError("b must be a single point")
    if x.shape[-1] != b.shape[0]:
        raise ValueError("dimension mismatch between b and x")
    b2 = float(np.dot(b, b))
    x2 = squared_norm(x)
    if b2 >= 1.0:
        raise DomainError("|b| must be < 1")
    if np.any(x2 >= 1.0):
        raise DomainError("|x| must be < 1")
    xb = np.tensordot(x, b, axes=([-1], [0]))
    denom = b2 * x2 + 2.0 * xb + 1.0
    num = (1.0 - b2) * x + (x2 + 2.0 * xb + 1.0)[..., None] * b
    return num / denom[..., None]


def pushforward_2d(f: Callable[[np.ndarray], np.ndarray], b: np.ndarray):
    """Composition f o tau_b on the disk (N = 2 only).

    ``f`` takes an (..., 2) array of points and returns values; the result
    has the same calling convention.
    """
    b = np.asarray(b, dtype=float)
    if b.shape != (2,):
        raise UnsupportedDimensionError(
            "full-dimensional composition is implemented only on the disk"
        )

    def composed(points: np.ndarray) -> np.ndarray:
        return f(hyperbolic_translate(b, points))

    return composed


class DiskGrid:
    """Tensor Gauss-Legendre (radius) x Fourier (angle) grid on the disk.

    Radial nodes are interior Gauss points on [0, s_max] — no axis node, so
    the polar-coordinate Laplacian needs no special closure.  Used for the
    N = 2 isometry-invariance experiments.
    """

    def __init__(self, s_max: float = 0.9, n_radial: int = 72, n_angular: int = 96):
        if not 0 < s_max < 1:
            raise DomainError("s_max must lie in (0, 1)")
        xg, wg = np.polynomial.legendre.leggauss(n_radial)
        self.s = 0.5 * s_max * (xg + 1.0)
        self.w_s = 0.5 * s_max * wg
        self.theta = 2.0 * np.pi * np.arange(n_angular) / n_angular
        self.s_max = s_max
        self.n_radial = n_radial
        self.n_angular = n_angular
        self._D = differentiation_matrix(self.s)
        self._D2 = self._D @ self._D
        S, TH = np.meshgrid(self.s, self.theta, indexing="ij")
        self.S = S
        self.points = np.stack([S * np.cos(TH), S * np.sin(TH)], axis=-1)

    def sample(self, f: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
        return np.asarray(f(self.points), dtype=float)

    def integrate_hyperbolic(self, F: np.ndarray) -> float:
        """int F dv_g over the disk (truncated at s_max)."""
        conf = (2.0 / (1.0 - self.s**2)) ** 2
        radial = (F.mean(axis=1) * 2.0 * np.pi) * conf * self.s
        return float(np.dot(self.w_s, radial))

    def laplace_beltrami(self, F: np.ndarray) -> np.ndarray:
        """Pointwise Delta_g F on the tensor grid (N = 2)."""
        n = self.n_angular
        freqs = np.fft.rfftfreq(n, d=1.0 / n)  # integer wavenumbers
        F_hat = np.fft.rfft(F, axis=1)
        F_tt = np.fft.irfft(-(freqs**2) * F_hat, n=n, axis=1)
        F_s = self._D @ F
        F_ss = self._D2 @ F
        s = self.s[:, None]
        flat = F_ss + F_s / s + F_tt / s**2
        return ((1.0 - s**2) / 2.0) ** 2 * flat
