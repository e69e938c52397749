"""Concentration (Moser-type) profile family and the two asymptotic
experiments built on it: the supercritical blow-up rate and the
large-exponent decay of the best Sobolev constant.

The blow-up rate m^{beta/2M - k} is the growth of the functional on the
concentration core, the geodesic ball inside the inner junction
rho = 1/sqrt(m); the full functional adds 1/log m corrections from the log
branch and approaches the same rate only at far larger m.  Both are recorded.

The profile v_m on the Euclidean ball of radius 2 has a logarithmic core of
height ~ sqrt(log m / 2M), an inner polynomial correction, and a polynomial
cutoff on [1, 2] matching value and derivatives up to order k-1 at both ends.
The hyperbolic test function is u~_m(x) = v_m(2x): in the critical dimension
its GJMS energy equals the flat k-energy of v_m on the radius-2 ball exactly
(scale invariance of the critical energy), which is how the energy is
computed here, on a flat radial grid whose geometric grading is self-similar
in the concentration scale 1/sqrt(m).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .ball import (
    GEODESIC,
    DimensionParams,
    RadialFunction,
    RadialGrid,
    euclidean_to_geodesic,
)
from .errors import DiscretizationError, DomainError, ResolutionError
from .inequalities import EXP_OVERFLOW_LIMIT, adams_functional, beta0, moser_normalizer
from .operators import euclidean_gradk_energy

# grading phase of the energy grids relative to the inner junction; fixed so
# the junction lands at the same relative position inside its element for
# every m (self-similar kink error ~ 1/log m)
_H_FIRST_FRACTION = 1.0 / 7.0
_GRADING_RATIO = 1.5
# elements across the concentration core; at degree 6 the core functional is
# converged to ~1e-12 relative for k <= 3 and m <= 1e12
_CORE_ELEMENTS = 4


def _cutoff_coefficients(k: int, b: float) -> np.ndarray:
    """Coefficients of the minimal-degree cutoff xi on [1, 2] in powers of
    w = 2 - rho.

    xi is the unique polynomial of degree 2k-1 with xi(1) = xi(2) = 0,
    d^l xi/d rho^l (1) = (-1)^l (l-1)! b for l = 1..k-1 and vanishing
    derivatives up to order k-1 at rho = 2.  The outer conditions make the
    first k coefficients exactly zero, so evaluation near rho = 2 is
    cancellation-free: xi = w^k (d_k + ... + d_{2k-1} w^{k-1}).  (Evaluating
    in a basis centered elsewhere leaves ~1e-17 absolute noise at rho -> 2,
    which the exponentially growing hyperbolic volume would amplify into
    garbage.)  For k = 1 the two value conditions force xi identically zero.
    """
    n = 2 * k
    coeffs = np.zeros(n)  # d_0 .. d_{k-1} = 0 by the rho = 2 conditions
    # remaining k coefficients from the k conditions at rho = 1 (w = 1):
    # value 0, and d^l/dw^l xi (1) = (l-1)! b for l = 1..k-1
    # (d/d rho = -d/dw flips the sign l times)
    A = np.zeros((k, k))
    rhs = np.zeros(k)
    for l in range(k):
        for col, j in enumerate(range(k, 2 * k)):
            A[l, col] = math.factorial(j) / math.factorial(j - l)
        rhs[l] = 0.0 if l == 0 else math.factorial(l - 1) * b
    coeffs[k:] = np.linalg.solve(A, rhs)
    return coeffs


def _cutoff_eval(coeffs: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The cutoff at w = 2 - rho."""
    out = np.zeros_like(w)
    for j, c in enumerate(coeffs):
        out += c * w**j
    return out


@dataclass
class MoserProfile:
    """The concentration profile for one (m, k); its parameters follow from (m, k)."""

    m: int
    k: int
    samples: RadialFunction | None = None  # u~_m, filled by build_moser_profile
    M: float = field(init=False)
    log_m: float = field(init=False)
    peak: float = field(init=False)  # sqrt(log m / 2M)
    slope: float = field(init=False)  # b = sqrt(2 / (M log m))
    inner_coeffs: np.ndarray = field(init=False)  # of (1 - m rho^2)^l, l = 1..k-1
    cutoff_spline: np.ndarray = field(init=False)  # xi in powers of 2 - rho on [1, 2]
    r_inner: float = field(init=False)  # 1/sqrt(m), in v-coordinates

    def __post_init__(self):
        if self.m < 2:
            raise DomainError("need m >= 2")
        L = self.log_m = math.log(self.m)
        M = self.M = moser_normalizer(self.k)
        self.peak = math.sqrt(L / (2.0 * M))
        self.slope = math.sqrt(2.0 / (M * L))
        self.inner_coeffs = np.array(
            [1.0 / (math.sqrt(2.0 * M * L) * l) for l in range(1, self.k)]
        )
        self.cutoff_spline = _cutoff_coefficients(self.k, self.slope)
        self.r_inner = 1.0 / math.sqrt(self.m)

    # -- evaluation ---------------------------------------------------------

    def v(self, rho, two_minus_rho=None) -> np.ndarray:
        """The profile on the Euclidean radius rho in [0, infty).

        ``two_minus_rho`` supplies a cancellation-free complement 2 - rho for
        evaluation points exponentially close to the outer edge (geodesic
        grids near the truncation radius).
        """
        rho = np.atleast_1d(np.asarray(rho, dtype=float))
        if two_minus_rho is None:
            two_minus_rho = 2.0 - rho
        w = np.atleast_1d(np.asarray(two_minus_rho, dtype=float))
        out = np.zeros_like(rho)
        inner = rho < self.r_inner
        mid = (rho >= self.r_inner) & (rho < 1.0)
        tail = (rho >= 1.0) & (w >= 0.0)
        if np.any(inner):
            z = 1.0 - self.m * rho[inner] ** 2
            acc = np.full(z.shape, self.peak)
            for l, c in enumerate(self.inner_coeffs, start=1):
                acc += c * z**l
            out[inner] = acc
        if np.any(mid):
            out[mid] = -self.slope * np.log(rho[mid])
        if np.any(tail):
            out[tail] = _cutoff_eval(self.cutoff_spline, w[tail])
        return out

    def u_tilde(self, s, one_minus_s=None) -> np.ndarray:
        """The hyperbolic test profile u~(s) = v(2s) on the unit ball."""
        s = np.asarray(s, dtype=float)
        comp = None if one_minus_s is None else 2.0 * np.asarray(one_minus_s, float)
        return self.v(2.0 * s, two_minus_rho=comp)


def _junction_radius(m: int) -> float:
    """Geodesic radius of the inner junction: rho = 1/sqrt(m) in v, so
    s = 1/(2 sqrt(m)) in u~."""
    return euclidean_to_geodesic(0.5 / math.sqrt(m))


def moser_energy_grid(m: int, degree: int = 6) -> RadialGrid:
    """Flat radial grid on [0, 2] for the profile's k-energy.

    Geometric grading from h = (1/sqrt(m))/7 with a forced edge at the outer
    junction rho = 1; the inner junction is deliberately not an edge (the
    self-similar kink error is the measurable 1/log m deviation for k = 1).
    """
    h0 = _H_FIRST_FRACTION / math.sqrt(m)
    return RadialGrid.euclidean_geometric(
        2.0, h0, ratio=_GRADING_RATIO, degree=degree, h_cap=0.2, forced_edges=(1.0,)
    )


def moser_first_width(m: int) -> float:
    """First element width of ``moser_hyperbolic_grid`` (it shrinks as m grows)."""
    return _H_FIRST_FRACTION * _junction_radius(m)


def moser_hyperbolic_grid(
    m: int, k: int, r_max: float | None = None, degree: int = 6
) -> RadialGrid:
    """Geodesic grid resolving u~_m for hyperbolic-measure functionals."""
    if r_max is None:
        r_max = 4.0 if k == 1 else 32.0
    outer = euclidean_to_geodesic(0.5)  # image of rho = 1
    return RadialGrid.geodesic_geometric(
        r_max, moser_first_width(m), ratio=_GRADING_RATIO, degree=degree, h_cap=1.0,
        forced_edges=(outer,),
    )


def moser_core_grid(m: int, degree: int = 6) -> RadialGrid:
    """Geodesic grid on the concentration core of u~_m.

    The core is the geodesic ball inside the inner junction (rho = 1/sqrt(m)
    in v, s = 1/(2 sqrt(m)) in u~); its radius is the grid's last edge, so
    quadrature over the grid is the functional restricted to the core.
    """
    return RadialGrid.geodesic(
        r_max=_junction_radius(m), n_elements=_CORE_ELEMENTS, degree=degree, grading=1.0
    )


def build_moser_profile(m: int, k: int, grid: RadialGrid) -> MoserProfile:
    """Construct the profile for concentration parameter m and sample
    u~_m = v_m(2 tanh(r/2)) on a geodesic grid.

    The grid must resolve the concentration scale: node spacing around the
    inner junction below 1/(4 sqrt(m)).
    """
    profile = MoserProfile(m, k)  # refuses m < 2 and k < 1
    if grid.coordinate != GEODESIC:
        raise DomainError("the Moser profile is sampled on a geodesic grid")
    nodes = grid.mesh.nodes
    nearby = nodes[nodes <= 2.0 * _junction_radius(m)]
    if nearby.size < 3 or np.min(np.diff(nearby)) > 1.0 / (4.0 * math.sqrt(m)):
        raise ResolutionError(
            f"grid spacing near the origin does not resolve 1/sqrt(m) for m={m}"
        )

    values = profile.u_tilde(grid.euclidean_nodes, one_minus_s=grid.one_minus_s)
    profile.samples = RadialFunction(grid, values)
    return profile


def moser_energy(profile: MoserProfile, degree: int = 6) -> float:
    """Squared critical energy of u~_m via the flat identity.

    In the critical dimension the GJMS form of u~_m equals the flat
    k-energy of v_m over the radius-2 ball exactly (critical scale
    invariance), so the computation happens on a flat radial grid graded
    self-similarly in 1/sqrt(m).
    """
    grid = moser_energy_grid(profile.m, degree=degree)
    v = RadialFunction.from_callable(grid, profile.v)
    return euclidean_gradk_energy(v, DimensionParams(profile.k))


def _normalized_profile(
    m: int, k: int, degree: int, r_max: float | None = None
) -> tuple[MoserProfile, float]:
    """The profile for (m, k) sampled on its hyperbolic grid, and its
    squared critical energy E (u~_m / sqrt(E) is the normalized family)."""
    hgrid = moser_hyperbolic_grid(m, k, r_max=r_max, degree=degree)
    profile = build_moser_profile(m, k, hgrid)
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # reported below
            energy = moser_energy(profile, degree=degree)
    except DiscretizationError as exc:  # m sets the flat energy grid's first width
        raise DiscretizationError(
            f"axis mass correction came out non-positive at m = {m:.6g}, k = {k} (axis "
            f"element width {_H_FIRST_FRACTION / math.sqrt(m):.3g}): it shrinks with m; lower m"
        ) from exc
    if not math.isfinite(energy):
        raise DiscretizationError(
            f"the Moser energy at m = {m:.6g}, k = {k} overflows a double; lower m"
        )
    return profile, energy


@dataclass
class BlowupRecord:
    """One cell of the supercritical blow-up experiment."""

    m: int
    beta: float
    energy: float
    functional_value: float
    predicted_exponent: float
    core_value: float  # the functional restricted to the concentration core


def _core_functional(u: np.ndarray, dv: np.ndarray, beta: float) -> float:
    """int (e^{beta u^2} - 1) dv_g over the concentration core, from samples
    ``u`` and per-node hyperbolic weights ``dv`` of a core grid.

    Unlike ``adams_functional`` there is no truncation-tail check: the core
    is cut at its junction on purpose.
    """
    expo = beta * u**2
    if np.max(expo) > EXP_OVERFLOW_LIMIT:
        return math.inf
    return float(np.dot(dv, np.expm1(expo)))


def blowup_experiment(
    beta_list, m_list, k: int, degree: int = 6, r_max: float | None = None
) -> list[BlowupRecord]:
    """Exponential functional of the normalized profiles over a (beta, m) sweep.

    Above the sharp exponent the core contribution grows like m^{beta/2M - k}
    and the full functional follows at the same asymptotic rate; below it the
    values stay bounded along the family.
    """
    dims = DimensionParams(k)
    records = []
    for m in m_list:
        m = int(m)
        profile, energy = _normalized_profile(m, k, degree, r_max)
        u_norm = profile.samples.scaled(1.0 / math.sqrt(energy))
        core = moser_core_grid(m, degree=degree)
        core_u = profile.u_tilde(
            core.euclidean_nodes, one_minus_s=core.one_minus_s
        ) / math.sqrt(energy)
        core_dv = core.quad_weights * core.density(dims)
        for beta in beta_list:
            value = adams_functional(u_norm, float(beta), dims)
            records.append(
                BlowupRecord(
                    m=m,
                    beta=float(beta),
                    energy=energy,
                    functional_value=value,
                    predicted_exponent=float(beta) / (2.0 * profile.M) - k,
                    core_value=_core_functional(core_u, core_dv, float(beta)),
                )
            )
    return records


def _loglog_slope(pairs) -> float:
    """Regression slope of log value against log m over the finite, positive
    (m, value) pairs; nan when the log m span is at most 1e-8 of the largest
    |log m| (fewer than two distinct log m included), too short to resolve."""
    pts = [(math.log(m), math.log(v)) for m, v in pairs if math.isfinite(v) and v > 0]
    logs = [x for x, _ in pts]
    if len(logs) < 2 or max(logs) - min(logs) <= 1e-8 * max(map(abs, logs)):
        return math.nan
    x, y = np.array(pts).T
    return float(np.polyfit(x, y, 1)[0])


def blowup_slopes(records: list[BlowupRecord]) -> dict:
    """Log-log regression slopes against m, per beta: ``slope`` of the full
    functional and ``core_slope`` of its concentration-core contribution."""
    out = {}
    betas = sorted({rec.beta for rec in records})
    for beta in betas:
        recs = [rec for rec in records if rec.beta == beta]
        values = [rec.functional_value for rec in recs]
        finite = [v for v in values if math.isfinite(v) and v > 0]
        spread = max(finite) / min(finite) if finite else math.inf
        out[beta] = {
            "slope": _loglog_slope((rec.m, rec.functional_value) for rec in recs),
            "core_slope": _loglog_slope((rec.m, rec.core_value) for rec in recs),
            "predicted_exponent": recs[0].predicted_exponent,
            "max_over_min": spread,
        }
    return out


def lp_norm_hyperbolic(u: RadialFunction, p: float, dims: DimensionParams) -> float:
    """(int |u|^p dv_g)^{1/p} on a geodesic grid, in log space against underflow."""
    if u.grid.coordinate != GEODESIC:
        raise DomainError("the hyperbolic metric requires a geodesic grid")
    vals = np.abs(u.values)
    w = u.grid.quad_weights * u.grid.density(dims)
    pos = vals > 0
    if not np.any(pos):
        return 0.0
    logs = p * np.log(vals[pos])
    top = np.max(logs)
    total = float(np.dot(w[pos], np.exp(logs - top)))
    return math.exp((top + math.log(total)) / p)


@dataclass
class SobolevUpperRow:
    m: int
    p: float
    s_upper: float
    p_s_upper: float
    target: float  # 2 beta0 e


def sobolev_upper_experiment(m_list, k: int, degree: int = 6) -> list[SobolevUpperRow]:
    """Rayleigh quotients of the profile family at exponent p = 2k log m.

    Each quotient is a rigorous upper bound for the best constant at that p,
    and p times the bound trends to 2 beta0 e as m grows.
    """
    dims = DimensionParams(k)
    target = 2.0 * beta0(k, 2 * k) * math.e
    rows = []
    for m in m_list:
        m = int(m)
        p = 2.0 * k * math.log(m)
        profile, energy = _normalized_profile(m, k, degree)
        lp = lp_norm_hyperbolic(profile.samples, p, dims)
        s_upper = energy / lp**2
        rows.append(
            SobolevUpperRow(m=m, p=p, s_upper=s_upper, p_s_upper=p * s_upper, target=target)
        )
    return rows
