"""Radial differential operators and the energy norms built from them.

The discrete Laplace operators are Galerkin pairs ``A = M^{-1} K`` with a
weighted stiffness matrix K (band storage) and a positive diagonal mass M, so
every polynomial in A (in particular each GJMS factor and their product) is
exactly self-adjoint in the M-inner product and the assembled quadratic forms
are symmetric to roundoff.  The product operator is kept only as its factors
(K, M, shifts): quadratic forms take at most ceil((k-1)/2) pointwise
operator applications per side, and the band of omega M P_k that the PDE
solver factorizes is read off the factor chain by grouped column probes.

Sign conventions: ``*_laplacian_radial`` return Delta (resp. Delta_g); the
GJMS base operator is P_1 = -Delta_g - N(N-2)/4 and the critical product is
P_k = P_1 (P_1 + 2) ... (P_1 + k(k-1)).

The axis row of A is the natural weight-zero Galerkin closure: integral
quantities are unaffected, but the pointwise value of an operator application
at r = 0 is not a consistent Laplacian value.  Pointwise identities are
therefore checked on r > 0 nodes.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .ball import EUCLIDEAN, GEODESIC, DimensionParams, RadialFunction, RadialGrid
from .errors import DiscretizationError, DomainError
from .mesh import Mesh1D, band_apply, row_dots

ENERGY_CLAMP_REL = 1e-12
SCHEME_ORDER = 4  # conservative documented order for energy functionals


def _values(u) -> np.ndarray:
    return u.values if isinstance(u, RadialFunction) else np.asarray(u, dtype=float)


@dataclass
class GJMSOperator:
    """Critical GJMS product P_k = (A + sigma_k) ... (A + sigma_1), A = M^{-1} K,
    kept as its factors: the stiffness K, the mass M and the shifts sigma_j.

    Every use of P_k goes through this object: pointwise applications, the
    quadratic form, and the band of omega M P_k that the PDE solver
    factorizes.  ``apply`` and ``quadratic_form`` take one profile (n,) or a
    family as a (P, n) block of rows.
    """

    stiffness: np.ndarray = field(repr=False)
    mass: np.ndarray = field(repr=False)
    shifts: tuple
    dims: DimensionParams

    def _weighted_factor(self, j: int, z: np.ndarray) -> np.ndarray:
        """B_j z = K z + sigma_j M z, the M-weighted j-th factor (symmetric)."""
        return band_apply(self.stiffness, z) + self.shifts[j] * (self.mass * z)

    def apply(self, u, js=None) -> np.ndarray:
        """Apply (A + sigma_j) for j in js (default: all, i.e. P_k u) pointwise."""
        z = _values(u)
        for j in range(len(self.shifts)) if js is None else js:
            z = band_apply(self.stiffness, z) / self.mass + self.shifts[j] * z
        return z

    def quadratic_form(self, u):
        """int (P_k u) u dv_g; one value per row of a block."""
        uv = _values(u)
        k = len(self.shifts)
        a = (k - 1) // 2
        b = k - 1 - a
        y = self.apply(uv, range(a))
        z = self.apply(uv, range(a + 1, a + 1 + b))
        return self.dims.omega_Nm1 * row_dots(y, self._weighted_factor(a, z))

    def energy_band(self) -> np.ndarray:
        """omega M P_k = omega B_1 M^{-1} B_2 ... M^{-1} B_k in LAPACK general
        band storage: band[bw + i - j, j] = (omega M P_k)[i, j], bw = k p.

        The factor chain runs on the 2 bw + 1 probe columns, each the sum of
        the e_j with j = c mod (2 bw + 1): columns that far apart share no
        row of the product (Curtis, Powell & Reid 1974)."""
        k, n = len(self.shifts), self.mass.size
        bw = k * (self.stiffness.shape[0] // 2)
        group = np.arange(n) % (2 * bw + 1)
        z = np.zeros((min(2 * bw + 1, n), n))
        z[group, np.arange(n)] = 1.0  # the probe columns, one per row
        z = self._weighted_factor(k - 1, z)
        for j in range(k - 2, -1, -1):
            z = self._weighted_factor(j, z / self.mass)
        i = np.arange(2 * bw + 1)[:, None] + np.arange(n) - bw  # row of entry (r, j)
        entries = z.take(group * n + i, mode="clip")  # z[group[j], i]
        return self.dims.omega_Nm1 * np.where((i >= 0) & (i < n), entries, 0.0)

    @property
    def matrix(self):
        """Pointwise P_k as one CSR matrix, (omega M)^{-1} times the band."""
        import scipy.sparse as sp

        band = self.energy_band()
        bw, n = band.shape[0] // 2, band.shape[1]
        mass_dv = np.pad(self.dims.omega_Nm1 * self.mass, bw, constant_values=1.0)
        band /= np.lib.stride_tricks.sliding_window_view(mass_dv, n)  # row i
        return sp.dia_matrix((band, bw - np.arange(2 * bw + 1)), shape=(n, n)).tocsr()

    def restrict(self, n: int) -> "GJMSOperator":
        """The same operator on the first n nodes (Dirichlet at the dropped ones)."""
        band = self.stiffness[:, :n].copy()  # column i holds row i of K
        band[np.arange(n) + np.arange(band.shape[0])[:, None] - band.shape[0] // 2 >= n] = 0.0
        return GJMSOperator(band, self.mass[:n], self.shifts, self.dims)


def _laplacian_csr(dims: DimensionParams, grid: RadialGrid):
    """-M^{-1} K as CSR; band column i is its row i, so the band as DIA is its transpose."""
    import scipy.sparse as sp

    K, M = grid.laplacian(dims)
    offsets = np.arange(K.shape[0]) - K.shape[0] // 2
    return sp.dia_matrix((-(1.0 / M) * K[::-1], offsets), shape=(M.size, M.size)).T.tocsr()


def euclidean_laplacian_radial(dims: DimensionParams, grid: RadialGrid):
    """Radial flat Laplacian Delta f = f'' + (N-1)/s f' as a CSR matrix, on
    a Euclidean-radius grid."""
    if grid.coordinate != EUCLIDEAN:
        raise DomainError("the flat metric requires a Euclidean-radius grid")
    return _laplacian_csr(dims, grid)


def hyperbolic_laplacian_radial(dims: DimensionParams, grid: RadialGrid):
    """Radial Laplace-Beltrami Delta_g f = f'' + (N-1) coth(r) f' as a CSR
    matrix, on a geodesic grid."""
    if grid.coordinate != GEODESIC:
        raise DomainError("the hyperbolic metric requires a geodesic grid")
    return _laplacian_csr(dims, grid)


def hyperbolic_laplacian_coordinate_form(dims: DimensionParams, grid: RadialGrid):
    """Strong-form Delta_g assembled from its Euclidean-coordinate expression
    ((1-s^2)/2)^2 Delta + (N-2)((1-s^2)/2) s d/ds.

    Independent cross-check of the divergence-form assembly; the axis row is
    zeroed (the 1/s coefficient is singular there) and comparisons are for
    interior nodes.
    """
    import scipy.sparse as sp

    if grid.coordinate != GEODESIC:
        raise DomainError("coordinate-form cross-check lives on geodesic grids")
    s = grid.euclidean_nodes
    conf = grid.one_minus_s * (1.0 + s) / 2.0  # (1 - s^2)/2 = ds/dr
    D_s = sp.diags(1.0 / conf) @ grid.mesh.deriv_matrix()
    inv_s = np.zeros_like(s)
    inv_s[1:] = 1.0 / s[1:]
    first_order = sp.diags((dims.N - 1) * inv_s) @ D_s
    L = sp.diags(conf**2) @ (D_s @ D_s + first_order) + sp.diags((dims.N - 2) * conf * s) @ D_s
    L = L.tolil()
    L[0, :] = 0.0
    return L.tocsr()


def gjms_shifts(k: int) -> tuple:
    """Zeroth-order shifts sigma_j = j(j-1) - k(k-1) of the factors of P_k.

    sigma_j <= 0, and the last factor's shift is exactly zero: the j = k
    factor of the critical product reduces to -Delta_g.
    """
    c = k * (k - 1)
    return tuple(j * (j - 1) - c for j in range(1, k + 1))


def gjms_assemble(dims: DimensionParams, grid: RadialGrid) -> GJMSOperator:
    """Assemble P_k = prod_j (P_1 + j(j-1)) on H^{2k} as its factors.

    P_1 = -Delta_g - N(N-2)/4 with N(N-2)/4 = k(k-1) in the critical
    dimension, so each factor is A + sigma_j for the same A = -Delta_g.
    No product is multiplied out here; see ``GJMSOperator.energy_band``.
    """
    if dims.N != 2 * dims.k:
        raise DomainError("critical GJMS assembly requires N = 2k")
    if grid.coordinate != GEODESIC:
        raise DomainError("the hyperbolic metric requires a geodesic grid")
    K, M = grid.laplacian(dims)
    return GJMSOperator(K, M, gjms_shifts(dims.k), dims)


@dataclass
class EnergyReport:
    """The three energies the critical theory compares, plus grid metadata."""

    gjms_energy: float
    euclidean_energy: float
    sobolev_energy: float
    n_nodes: int
    r_max: float
    degree: int
    notes: tuple = ()


def _clamped(value: float, scale: float, what: str, notes: list) -> float:
    if value < -ENERGY_CLAMP_REL * max(scale, 1.0):
        raise DiscretizationError(
            f"{what} = {value:.3e} is negative beyond roundoff (scale {scale:.3e})"
        )
    if value < 0.0:
        notes.append(f"{what} clamped from {value:.3e} to 0")
        return 0.0
    return value


def warn_if_truncated(values) -> None:
    """Warn, at the caller of the energy or margin function that calls this,
    if a profile, or any row of a (P, n) block, does not vanish at the last
    node: its flat energy is then truncated."""
    vmax = np.max(np.abs(values), axis=-1)
    if np.any((vmax > 0) & (np.abs(values[..., -1]) > 1e-12 * vmax)):
        warnings.warn(
            "profile support touches the quadrature boundary; "
            "the flat energy is truncated",
            stacklevel=3,
        )


def gradient_energies(values, grid: RadialGrid, dims: DimensionParams, m: int) -> np.ndarray:
    """omega int |grad^j v|^2 for j = 0..m from the radial pair (K, M) of the
    grid's metric, for one profile (n,) -> (m+1,) or each row of a (P, n)
    block -> (P, m+1).

    One chain z_{i+1} = M^{-1} K z_i serves every order: order 2i is
    ||z_i||_M^2 and order 2i+1 the K-form of z_i, whose product K z_i the
    chain reuses for its next step.
    """
    K, M = grid.laplacian(dims)
    z = np.asarray(values, dtype=float)
    energies = []
    for order in range(m + 1):
        if order % 2 == 0:
            energies.append(row_dots(M, z * z))
        else:
            Kz = band_apply(K, z)
            energies.append(row_dots(z, Kz))
            z = Kz / M
    return dims.omega_Nm1 * np.stack(energies, axis=-1)


def euclidean_gradk_energy(v: RadialFunction, dims: DimensionParams) -> float:
    """Flat k-th order energy int |grad^k v|^2 dx of a profile on a Euclidean-radius grid.

    grad^k is Delta^{k/2} for even k and grad Delta^{(k-1)/2} for odd k;
    both routes reduce to mass/stiffness forms of the flat radial Laplacian.
    """
    if v.grid.coordinate != EUCLIDEAN:
        raise DomainError("the flat metric requires a Euclidean-radius grid")
    warn_if_truncated(v.values)
    return float(gradient_energies(v.values, v.grid, dims, dims.k)[-1])


def iterated_gradient_energy(u: RadialFunction, dims: DimensionParams, m: int) -> float:
    """int |grad_g^m u|^2_g dv_g for a radial profile (m >= 0)."""
    if m < 0:
        raise DomainError("gradient order must be nonnegative")
    return float(gradient_energies(u.values, u.grid, dims, m)[-1])


def sobolev_energy(u: RadialFunction, dims: DimensionParams) -> float:
    """Full squared Sobolev norm: sum of the gradient energies up to order k."""
    return sum(gradient_energies(u.values, u.grid, dims, dims.k).tolist())


def gjms_energy(u: RadialFunction, dims: DimensionParams) -> EnergyReport:
    """Fill the GJMS, flat, and Sobolev energies of a radial profile.

    In the critical dimension the GJMS form equals the flat k-th order
    energy of the same profile; the two entries of the report are computed
    by independent routes (the hyperbolic quadratic form on the profile's
    geodesic grid vs the flat mass/stiffness forms on the Euclidean-radius
    grid of the same elements, edges tanh(r/2) and the same degree, where
    the profile is interpolated) so their agreement is a real check.
    """
    notes: list = []
    raw = gjms_assemble(dims, u.grid).quadratic_form(u)
    scale = sobolev_energy(u, dims)
    gjms = _clamped(raw, scale, "gjms quadratic form", notes)
    flat_grid = RadialGrid(Mesh1D(np.tanh(u.grid.mesh.edges / 2.0), u.grid.degree), EUCLIDEAN)
    flat_u = RadialFunction(flat_grid, u.eval(flat_grid.geodesic_nodes))
    flat = euclidean_gradk_energy(flat_u, dims)
    return EnergyReport(
        gjms_energy=gjms,
        euclidean_energy=flat,
        sobolev_energy=scale,
        n_nodes=u.grid.n_nodes,
        r_max=u.grid.R_max,
        degree=u.grid.degree,
        notes=tuple(notes),
    )
