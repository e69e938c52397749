"""Closed-form sharp constants and numerical inequality checkers.

The universal constants that the theory leaves non-constructive (the flat
exponential-integrability constant, the linearized bound's C(delta), the
norm-equivalence constant) are never hard-coded: every check involving them
is a boundedness or slope property with the empirically fitted constant
reported alongside.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .ball import (
    EUCLIDEAN,
    DimensionParams,
    RadialFunction,
    integrate_radial,
    sphere_area,
    tail_fraction,
)
from .errors import DomainError
from .operators import gjms_assemble, gradient_energies, warn_if_truncated

EXP_OVERFLOW_LIMIT = 700.0  # natural-log scale of the double range
_SUITE_CHUNK = 8192  # points per chunk of the scalar suite


def beta0(k: int, N: int) -> float:
    """Sharp exponential-class exponent beta_0(k, N), 1 <= k < N.

    For the critical case N = 2k both parity branches coincide and the value
    reduces to k (4 pi)^k (k-1)!.
    """
    if not (1 <= k < N):
        raise DomainError(f"need 1 <= k < N, got k={k}, N={N}")
    p = N / k
    p_prime = p / (p - 1.0)
    omega = sphere_area(N - 1)
    if k % 2 == 1:
        core = math.pi ** (N / 2) * 2.0**k * math.gamma((k + 1) / 2) / math.gamma(
            (N - k + 1) / 2
        )
    else:
        core = math.pi ** (N / 2) * 2.0**k * math.gamma(k / 2) / math.gamma((N - k) / 2)
    return (N / omega) * core**p_prime


def moser_alpha(N: int) -> float:
    """Moser's first-order sharp constant alpha_N = N omega_{N-1}^{1/(N-1)}."""
    if N < 2:
        raise DomainError("need N >= 2")
    return N * sphere_area(N - 1) ** (1.0 / (N - 1))


def moser_normalizer(k: int) -> float:
    """M = (4 pi)^k (k-1)!/2, the normalization of the concentration family."""
    if k < 1:
        raise DomainError("need k >= 1")
    return (4.0 * math.pi) ** k * math.factorial(k - 1) / 2.0


def owen_constant(k: int) -> float:
    """Boundary Hardy-Rellich constant A(k) = (1 3 5 ... (2k-1))^2 / 4^k."""
    if k < 1:
        raise DomainError("need k >= 1")
    prod = 1.0
    for j in range(1, k + 1):
        prod *= (2 * j - 1) ** 2
    return prod / 4.0**k


def liu_constant(k: int, N: int) -> float:
    """Subcritical sharp Sobolev constant Lambda_k (N > 2k only).

    The omega_N in the closed form is read as the surface measure of S^N.
    The source formula does not say whether omega_N is |S^N| or the volume
    of the unit ball, so this reading is not asserted as correct.
    """
    if N <= 2 * k:
        raise DomainError("Lambda_k is defined for N > 2k (subcritical case)")
    omega_N = sphere_area(N)
    denom = N * (N - 2 * k)
    for j in range(1, k):
        denom *= N**2 - (2 * j) ** 2
    return 2.0 ** (2 * k) * omega_N ** (-2.0 * k / N) / denom


# -- functional evaluators -----------------------------------------------------


def adams_functional(u: RadialFunction, beta: float, dims: DimensionParams) -> float:
    """int (e^{beta u^2} - 1) in the grid's measure (dv_g on a geodesic grid,
    dx on a Euclidean-radius grid), overflow-safe.

    Exponents beyond the double range return +inf (the blow-up experiments
    drive this regime on purpose).  A warning is raised when the last
    element carries more than 1e-12 of the integral: the grid's truncation
    radius is then eating into a decaying tail.
    """
    if beta <= 0:
        raise DomainError("beta must be positive")
    expo = beta * u.values**2
    if np.max(expo) > EXP_OVERFLOW_LIMIT:
        return math.inf
    g = RadialFunction(u.grid, np.expm1(expo))
    if tail_fraction(g, dims) > 1e-12:
        warnings.warn(
            "tail beyond the truncation radius exceeds 1e-12 of the "
            "functional; increase R_max",
            stacklevel=2,
        )
    return integrate_radial(g, dims)


def poincare_margins(profiles: RadialFunction, k: int, dims: DimensionParams) -> np.ndarray:
    """Margins of the higher-order Poincare inequality of order k against every
    l < k, for a family (a (P, n) block, or one profile): row l holds
    int|grad^k u|^2 - ((N-1)/2)^{2(k-l)} int|grad^l u|^2 for each profile,
    all from one energy chain."""
    if k < 1:
        raise DomainError("need k >= 1")
    values = np.atleast_2d(profiles.values)
    energies = gradient_energies(values, profiles.grid, dims, k)
    return np.array([
        energies[:, k] - ((dims.N - 1) / 2.0) ** (2 * (k - l)) * energies[:, l]
        for l in range(k)
    ])


def check_poincare_chain(
    u: RadialFunction, k: int, l: int, dims: DimensionParams
) -> float:
    """Margin of the higher-order Poincare inequality between orders l < k.

    Returns int|grad^k u|^2 - ((N-1)/2)^{2(k-l)} int|grad^l u|^2; nonnegative
    up to discretization slack.
    """
    if not 0 <= l < k:
        raise DomainError("need 0 <= l < k")
    return float(poincare_margins(u, k, dims)[l, 0])


def owen_margins(profiles: RadialFunction, k: int) -> np.ndarray:
    """Margins of the boundary Hardy-Rellich inequality on the unit ball.

    Returns int|grad^k u|^2 dx - A(k) int u^2/(1-s)^{2k} dx for each profile
    of a family (a (P, n) block, or one profile) compactly supported inside
    the ball, on a Euclidean-radius grid; the weight integral is refused if
    any member's support reaches the boundary.
    """
    grid, values = profiles.grid, np.atleast_2d(profiles.values)
    s = grid.euclidean_nodes
    if grid.coordinate != EUCLIDEAN or np.max(s) > 1.0 + 1e-12:
        raise DomainError("Owen margin is for a Euclidean-radius grid of the unit ball")
    dims = DimensionParams(k)
    vmax = np.max(np.abs(values), axis=1)
    near_boundary = np.abs(values[:, s > 1.0 - 1e-9]) > 1e-12 * vmax[:, None]
    if np.any((vmax > 0) & np.any(near_boundary, axis=1)):
        raise DomainError(
            "support touches the boundary: the distance-weight integral "
            "is potentially divergent"
        )
    warn_if_truncated(values)
    lhs = gradient_energies(values, grid, dims, k)[:, k]
    weight = np.zeros_like(s)
    interior = s < 1.0
    weight[interior] = (1.0 - s[interior]) ** (-2 * k)
    weighted = RadialFunction(grid, values**2 * weight)
    w_int = integrate_radial(weighted, dims)
    return lhs - owen_constant(k) * w_int


def check_owen(u: RadialFunction, k: int) -> float:
    """Margin of the boundary Hardy-Rellich inequality for one profile (see
    ``owen_margins``)."""
    return float(owen_margins(u, k)[0])


def scalar_inequality_suite(n_grid: int = 100_001, seed: int = 0) -> dict:
    """Verify the two scalar exponential inequalities on a dense grid.

    (e^t - 1)^2 <= e^{2t} - 2t - 1   and   (e^t - 1)^2 <= |e^{2t} - 1|,
    t in [-50, 50].  Both are checked directly in floating point with a
    4-ulp relative allowance (at t ~ 50 the two sides agree to ~1e43 and the
    true gap sits below one ulp of either side) and through the exact
    cancellation-free rearrangements of rhs - lhs: 2(e^t - t - 1) for the
    first, and 2(e^t - 1) for t >= 0 / 2 e^t (1 - e^t) for t < 0 for the
    second.

    The points are checked in chunks of ``_SUITE_CHUNK``, so the temporaries
    stay cache-sized whatever ``n_grid`` is.
    """
    t = np.linspace(-50.0, 50.0, n_grid)
    rng = np.random.default_rng(seed)
    t = np.concatenate([t, rng.uniform(-50, 50, 1000)])
    tol = 4 * np.finfo(float).eps
    direct1 = direct2 = rearranged1 = rearranged2 = True
    for start in range(0, t.size, _SUITE_CHUNK):
        tc = t[start : start + _SUITE_CHUNK]
        em1 = np.expm1(tc)
        em1_2 = np.expm1(2 * tc)
        lhs = em1**2
        direct1 &= bool(np.all(lhs <= (em1_2 - 2 * tc) * (1 + tol) + tol))
        direct2 &= bool(np.all(lhs <= np.abs(em1_2) * (1 + tol) + tol))
        # exact rearrangements of rhs - lhs
        rearranged1 &= bool(np.all(2.0 * (em1 - tc) >= 0))
        with np.errstate(over="ignore"):
            gap2 = np.where(tc >= 0, 2.0 * em1, -2.0 * np.exp(tc) * em1)
        rearranged2 &= bool(np.all(gap2 >= 0))
    at_zero = float(np.expm1(0.0) ** 2) == 0.0 and float(np.expm1(0.0) - 0.0) == 0.0
    return {
        "first_direct": bool(direct1),
        "first_rearranged": rearranged1,
        "second_direct": bool(direct2),
        "second_rearranged": rearranged2,
        "equality_at_zero": at_zero,
        "n_points": int(t.size),
        "passed": bool(
            direct1 and direct2 and rearranged1 and rearranged2 and at_zero
        ),
    }


def linearized_margins(
    profiles: RadialFunction, delta: float, dims: DimensionParams, calibration: float
) -> np.ndarray:
    """Margins of the linearized exponential-moment bound for a family (a
    (P, n) block, or one profile).

    Each is C(delta) + energy/(beta0 delta) - log int (e^{2u} - 2u - 1) dv_g.
    C(delta) is an empirical calibration (the theory's constant is
    non-constructive); the margin's boundedness across a family is the
    testable content.  A zero profile makes the log -inf and its margin
    +inf (trivially satisfied); a profile with 2u beyond the double range
    gets -inf.
    """
    if not 0 < delta < 1:
        raise DomainError("delta must lie in (0, 1)")
    grid, values = profiles.grid, np.atleast_2d(profiles.values)
    energy = gjms_assemble(dims, grid).quadratic_form(values)
    expo = 2.0 * values
    overflow = np.max(expo, axis=1) > EXP_OVERFLOW_LIMIT
    expo[overflow] = 0.0  # their margin is -inf whatever the integral
    moments = integrate_radial(RadialFunction(grid, np.expm1(expo) - expo), dims)
    lhs = np.array([math.log(val) if val > 0 else -math.inf for val in moments])
    margins = calibration + energy / (beta0(dims.k, dims.N) * delta) - lhs
    margins[overflow] = -math.inf
    return margins


def linearized_adams_bound(
    u: RadialFunction, delta: float, dims: DimensionParams, calibration: float
) -> float:
    """Margin of the linearized exponential-moment bound for one profile (see
    ``linearized_margins``)."""
    return float(linearized_margins(u, delta, dims, calibration)[0])


def fit_linearized_calibration(
    profiles: RadialFunction, delta: float, dims: DimensionParams
) -> float:
    """Empirical C(delta): sup over the family (a (P, n) block, or one
    profile) of log-moment minus the energy term (the fitted constant that
    makes every margin nonnegative)."""
    margins = linearized_margins(profiles, delta, dims, 0.0).tolist()
    return max([-math.inf] + [-margin for margin in margins if margin != math.inf])
