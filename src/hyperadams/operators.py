"""Radial differential operators and the energy norms built from them.

The discrete Laplace operators are Galerkin pairs ``A = M^{-1} K`` with a
weighted stiffness matrix K and a positive diagonal mass M, so every
polynomial in A (in particular each GJMS factor and their product) is exactly
self-adjoint in the M-inner product and the assembled quadratic forms are
symmetric to roundoff.  The product operator is kept only as its factors
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
import scipy.sparse as sp

from .ball import GEODESIC, DimensionParams, RadialFunction, RadialGrid
from .errors import DiscretizationError, DomainError
from .mesh import column_dots

ENERGY_CLAMP_REL = 1e-12
SCHEME_ORDER = 4  # conservative documented order for energy functionals


def _values(u) -> np.ndarray:
    return u.values if isinstance(u, RadialFunction) else np.asarray(u, dtype=float)


def _laplacian_parts(dims: DimensionParams, grid: RadialGrid, metric: str):
    """Cached (K, M) for the weighted radial Laplacian of the given metric."""
    key = (metric, dims.N)
    if key not in grid.operator_cache:
        c_stiff, c_mass, axis_fn = grid.laplacian_coefficients(metric, dims)
        K = grid.mesh.stiffness(c_stiff)
        M = grid.mesh.lumped_mass(c_mass, axis_fn=axis_fn)
        M.flags.writeable = False
        grid.operator_cache[key] = (K, M)
    return grid.operator_cache[key]


@dataclass
class GJMSOperator:
    """Critical GJMS product P_k = (A + sigma_k) ... (A + sigma_1), A = M^{-1} K,
    kept as its factors: the stiffness K, the mass M and the shifts sigma_j.

    Every use of P_k goes through this object: pointwise applications, the
    quadratic form, and the band of omega M P_k that the PDE solver
    factorizes.  ``apply`` and ``quadratic_form`` take one profile (n,) or a
    family as a (P, n) block of rows.
    """

    stiffness: sp.csr_matrix
    mass: np.ndarray = field(repr=False)
    shifts: tuple
    dims: DimensionParams

    def _weighted_factor(self, j: int, z: np.ndarray) -> np.ndarray:
        """B_j z = K z + sigma_j M z, the M-weighted j-th factor (symmetric)."""
        mass = self.mass if z.ndim == 1 else self.mass[:, None]
        return self.stiffness @ z + self.shifts[j] * (mass * z)

    def apply(self, u, js=None) -> np.ndarray:
        """Apply (A + sigma_j) for j in js (default: all, i.e. P_k u) pointwise."""
        z = _values(u).T.copy()  # a block runs as one column per profile
        mass = self.mass if z.ndim == 1 else self.mass[:, None]
        for j in range(len(self.shifts)) if js is None else js:
            z = (self.stiffness @ z) / mass + self.shifts[j] * z
        return z.T

    def quadratic_form(self, u, w=None):
        """int (P_k u) w dv_g, exactly symmetric in (u, w); one value per row
        of a block."""
        uv = _values(u)
        wv = _values(w) if w is not None else uv
        k = len(self.shifts)
        a = (k - 1) // 2
        b = k - 1 - a
        y = self.apply(uv, range(a)).T
        z = self.apply(wv, range(a + 1, a + 1 + b)).T
        return self.dims.omega_Nm1 * column_dots(y, self._weighted_factor(a, z))

    def energy_band(self) -> np.ndarray:
        """omega M P_k = omega B_1 M^{-1} B_2 ... M^{-1} B_k in LAPACK general
        band storage: band[bw + i - j, j] = (omega M P_k)[i, j], bw = k p.

        The factor chain runs on the 2 bw + 1 probe columns, each the sum of
        the e_j with j = c mod (2 bw + 1): columns that far apart share no
        row of the product (Curtis, Powell & Reid 1974)."""
        K, k, n = self.stiffness, len(self.shifts), self.mass.size
        i = np.repeat(np.arange(n), np.diff(K.indptr))
        bw = k * int(np.max(np.abs(i - K.indices)))
        group = np.arange(n) % (2 * bw + 1)
        z = np.zeros((n, min(2 * bw + 1, n)))
        z[np.arange(n), group] = 1.0  # the probe columns
        z = self._weighted_factor(k - 1, z)
        for j in range(k - 2, -1, -1):
            z = self._weighted_factor(j, z / self.mass[:, None])
        i = np.arange(2 * bw + 1)[:, None] + np.arange(n) - bw  # row of entry (r, j)
        entries = z.take(i * z.shape[1] + group, mode="clip")  # z[i, group[j]]
        return self.dims.omega_Nm1 * np.where((i >= 0) & (i < n), entries, 0.0)

    @property
    def matrix(self) -> sp.csr_matrix:
        """Pointwise P_k as one sparse matrix, (omega M)^{-1} times the band."""
        band = self.energy_band()
        bw, n = band.shape[0] // 2, band.shape[1]
        mass_dv = np.pad(self.dims.omega_Nm1 * self.mass, bw, constant_values=1.0)
        band /= mass_dv[np.arange(2 * bw + 1)[:, None] + np.arange(n)]  # row i
        return sp.dia_matrix((band, bw - np.arange(2 * bw + 1)), shape=(n, n)).tocsr()

    def restrict(self, n: int) -> "GJMSOperator":
        """The same operator on the first n nodes (Dirichlet at the dropped ones)."""
        return GJMSOperator(self.stiffness[:n, :n], self.mass[:n], self.shifts, self.dims)


def euclidean_laplacian_radial(dims: DimensionParams, grid: RadialGrid) -> sp.csr_matrix:
    """Radial flat Laplacian Delta f = f'' + (N-1)/s f' as a CSR matrix."""
    K, M = _laplacian_parts(dims, grid, "euclidean")
    return (-sp.diags(1.0 / M) @ K).tocsr()


def hyperbolic_laplacian_radial(dims: DimensionParams, grid: RadialGrid) -> sp.csr_matrix:
    """Radial Laplace-Beltrami Delta_g f = f'' + (N-1) coth(r) f' as a CSR
    matrix."""
    K, M = _laplacian_parts(dims, grid, "hyperbolic")
    return (-sp.diags(1.0 / M) @ K).tocsr()


def hyperbolic_laplacian_coordinate_form(
    dims: DimensionParams, grid: RadialGrid
) -> sp.csr_matrix:
    """Strong-form Delta_g assembled from its Euclidean-coordinate expression
    ((1-s^2)/2)^2 Delta + (N-2)((1-s^2)/2) s d/ds.

    Independent cross-check of the divergence-form assembly; the axis row is
    zeroed (the 1/s coefficient is singular there) and comparisons are for
    interior nodes.
    """
    if grid.coordinate != GEODESIC:
        raise DomainError("coordinate-form cross-check lives on geodesic grids")
    s = grid.euclidean_nodes
    oms = grid.one_minus_s
    one_minus_s2 = oms * (1.0 + s)
    D_r = grid.mesh.deriv_matrix()
    D_s = sp.diags(2.0 / one_minus_s2) @ D_r
    D_ss = (D_s @ D_s).tocsr()
    inv_s = np.zeros_like(s)
    inv_s[1:] = 1.0 / s[1:]
    conf2 = (one_minus_s2 / 2.0) ** 2
    first_order = sp.diags((dims.N - 1) * inv_s) @ D_s
    L = sp.diags(conf2) @ (D_ss + first_order) + sp.diags(
        (dims.N - 2) * (one_minus_s2 / 2.0) * s
    ) @ D_s
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
    K, M = _laplacian_parts(dims, grid, "hyperbolic")
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


def gradient_energies(values, grid: RadialGrid, dims: DimensionParams, m: int,
                      metric: str = "hyperbolic") -> np.ndarray:
    """omega int |grad^j v|^2 for j = 0..m from the radial pair (K, M) of the
    metric, for one profile (n,) -> (m+1,) or each row of a (P, n) block ->
    (P, m+1).

    One chain z_{i+1} = M^{-1} K z_i serves every order: order 2i is
    ||z_i||_M^2 and order 2i+1 the K-form of z_i, whose product K z_i the
    chain reuses for its next step.
    """
    K, M = _laplacian_parts(dims, grid, metric)
    z = np.asarray(values, dtype=float).T  # a block runs as one column per profile
    mass = M if z.ndim == 1 else M[:, None]
    energies = []
    for order in range(m + 1):
        if order % 2 == 0:
            energies.append(column_dots(M, z * z))
        else:
            Kz = K @ z
            energies.append(column_dots(z, Kz))
            z = Kz / mass
    return dims.omega_Nm1 * np.array(energies).T


def euclidean_gradk_energy(v: RadialFunction, dims: DimensionParams) -> float:
    """Flat k-th order energy int |grad^k v|^2 dx for a radial profile.

    grad^k is Delta^{k/2} for even k and grad Delta^{(k-1)/2} for odd k;
    both routes reduce to mass/stiffness forms of the flat radial Laplacian.
    """
    warn_if_truncated(v.values)
    return float(gradient_energies(v.values, v.grid, dims, dims.k, "euclidean")[-1])


def iterated_gradient_energy(u: RadialFunction, dims: DimensionParams, m: int) -> float:
    """int |grad_g^m u|^2_g dv_g for a radial profile (m >= 0)."""
    if m < 0:
        raise DomainError("gradient order must be nonnegative")
    return float(gradient_energies(u.values, u.grid, dims, m)[-1])


def sobolev_energy(u: RadialFunction, dims: DimensionParams) -> float:
    """Full squared Sobolev norm: sum of the gradient energies up to order k."""
    return sum(gradient_energies(u.values, u.grid, dims, dims.k).tolist())


def gjms_energy(
    u: RadialFunction, dims: DimensionParams, operator: GJMSOperator | None = None
) -> EnergyReport:
    """Fill the GJMS, flat, and Sobolev energies of a radial profile.

    In the critical dimension the GJMS form equals the flat k-th order
    energy of the same profile; the two entries of the report are computed
    by independent routes (hyperbolic quadratic form vs flat-coordinate
    mass/stiffness forms) so their agreement is a real check.
    """
    if operator is None:
        operator = gjms_assemble(dims, u.grid)
    notes: list = []
    raw = operator.quadratic_form(u)
    scale = sobolev_energy(u, dims)
    gjms = _clamped(raw, scale, "gjms quadratic form", notes)
    flat = euclidean_gradk_energy(u, dims)
    return EnergyReport(
        gjms_energy=gjms,
        euclidean_energy=flat,
        sobolev_energy=scale,
        n_nodes=u.grid.n_nodes,
        r_max=u.grid.R_max,
        degree=u.grid.degree,
        notes=tuple(notes),
    )
