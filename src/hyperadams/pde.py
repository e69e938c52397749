"""Variational solver for the curvature-type equation P_k u + Q1 = Q2 e^{2u}.

Two regimes, matching the two existence results:

* convex mode (Q2 <= 0, Q2 - Q1 square-integrable): minimize the smooth
  convex functional J; the gradient of J is exactly the PDE residual, so
  the convergence certificate is a recomputed residual norm, not a solver
  internal.
* log-constrained mode (Q1, Q2 square-integrable): minimize
  J_Q(u) = <P_k u, u> + 2 int Q1 u - log int Q2 (e^{2u} - 1) over the open
  set where the log argument is positive; the reported solution is the
  minimizer shifted by -(1/2) log of that argument.

Both regimes run one damped Newton driver with Armijo backtracking (a
full step once the predicted decrease is below J's roundoff); each step
solves the Hessian c H + diag, H = omega M P_k (plus a rank-one term in
log mode), by one scaled LU of the band ``GJMSOperator.energy_band`` reads
off the factors of P_k.  Minimization runs over radial grid functions
vanishing at R_max (a conforming radial subspace); it is deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np
from scipy.linalg import LinAlgError, get_lapack_funcs, solveh_banded

from .ball import DimensionParams, RadialFunction, RadialGrid, volume_weight
from .errors import (
    DiscretizationError,
    DomainError,
    FeasibilityError,
    OverflowNodeError,
)
from .inequalities import EXP_OVERFLOW_LIMIT, beta0
from .mesh import Mesh1D, gauss_lobatto, graded_edges
from .operators import gjms_assemble

CONVEX = "convex"
LOG_CONSTRAINED = "log-constrained"

(_gbsv,) = get_lapack_funcs(("gbsv",), dtype=np.float64)
# a predicted decrease at most this times max(1, |J|) is below what a
# difference of two values of J resolves; the line search then takes t = 1
FULL_STEP_DECREASE = 1e-10

_FAMILIES = {}


def radial_family(name: str, **params) -> Callable[[np.ndarray], np.ndarray]:
    """Named radial data families for Q1/Q2 (gaussian, bump, rational-decay)."""
    try:
        factory = _FAMILIES[name]
    except KeyError:
        raise DomainError(
            f"unknown radial family {name!r}; choose from {sorted(_FAMILIES)}"
        ) from None
    return factory(**params)


def _register(name):
    def deco(fn):
        _FAMILIES[name] = fn
        return fn

    return deco


@_register("gaussian")
def _gaussian(amplitude: float = 1.0, width: float = 1.0, **_ignored):
    if width <= 0:
        raise DomainError("gaussian width must be positive")
    return lambda r: amplitude * np.exp(-((np.asarray(r) / width) ** 2))


@_register("bump")
def _bump(amplitude: float = 1.0, radius: float = 2.0, **_ignored):
    if radius <= 0:
        raise DomainError("bump radius must be positive")

    def fn(r):
        z = 1.0 - (np.asarray(r, dtype=float) / radius) ** 2
        return amplitude * np.clip(z, 0.0, None) ** 3

    return fn


@_register("rational-decay")
def _rational(amplitude: float = 1.0, power: float = 2.0, **_ignored):
    return lambda r: amplitude * (1.0 + np.asarray(r, dtype=float) ** 2) ** (-power)


def square_integrable_dv(
    fn: Callable[[np.ndarray], np.ndarray], dims: DimensionParams, r_max: float
) -> bool:
    """Tail-quadrature check of int fn^2 dv_g < infinity.

    Integrates fn^2 against the hyperbolic density on one mesh: 24 graded
    elements on [0, r_max] give the base, and 12 unit elements beyond it
    give three extension blocks of 4; growing block contributions mean the
    exponential volume beats the decay (not square-integrable).  A volume
    weight that overflows on that mesh raises ``DomainError`` naming r_max.
    """
    edges = np.append(graded_edges(r_max, 24, 1.5), r_max + np.arange(1.0, 13.0))
    mesh = Mesh1D(edges, p=6)
    with np.errstate(over="ignore"):
        weight = volume_weight(mesh.nodes, dims)
    if not np.all(np.isfinite(weight)):
        limit = math.log(2.0) + (
            math.log(np.finfo(float).max) - max(math.log(dims.omega_Nm1), 0.0)
        ) / (dims.N - 1)
        raise DomainError(
            f"r_max = {r_max:g} is too large for the square-integrability check: "
            f"the volume weight sinh^(N-1) r overflows from r = {limit:.1f} "
            f"(N = {dims.N}) and the check integrates up to r_max + 12; "
            f"lower r_max below {limit - 12.0:.1f}"
        )
    f2w = np.asarray(fn(mesh.nodes), dtype=float) ** 2 * weight
    per_element = mesh.jac * (f2w[mesh.elements] @ gauss_lobatto(6)[1])
    base = per_element[:24].sum()
    blocks = per_element[24:].reshape(3, 4).sum(axis=1)
    growing = blocks[-1] > blocks[0] * 1.000001 and blocks[-1] > 1e-300
    tail_small = blocks[-1] <= 1e-10 * max(base, 1e-300)
    return bool((not growing) and tail_small)


@dataclass
class PDEProblem:
    """Data and regime for the curvature-type equation."""

    dims: DimensionParams
    Q1: RadialFunction
    Q2: RadialFunction
    mode: str = CONVEX

    def __post_init__(self):
        if self.mode not in (CONVEX, LOG_CONSTRAINED):
            raise DomainError(f"unknown mode {self.mode!r}")
        if self.Q1.grid is not self.Q2.grid:
            raise DomainError("Q1 and Q2 must share a grid")
        if self.mode == CONVEX and np.any(self.Q2.values > 1e-14):
            raise DomainError("convex mode requires Q2 <= 0 pointwise")

    @property
    def grid(self) -> RadialGrid:
        return self.Q1.grid

    @classmethod
    def from_families(
        cls,
        dims: DimensionParams,
        grid: RadialGrid,
        q1_spec: tuple[str, dict],
        q2_spec: tuple[str, dict],
        mode: str = CONVEX,
    ) -> "PDEProblem":
        """Build a problem from named families, enforcing the regime's
        square-integrability hypotheses by tail quadrature."""
        q1_fn = radial_family(q1_spec[0], **q1_spec[1])
        q2_fn = radial_family(q2_spec[0], **q2_spec[1])
        if mode == CONVEX:
            diff = lambda r: q2_fn(r) - q1_fn(r)
            if not square_integrable_dv(diff, dims, grid.R_max):
                raise DomainError(
                    "convex mode requires Q2 - Q1 square-integrable against dv_g"
                )
        else:
            for nm, fn in (("Q1", q1_fn), ("Q2", q2_fn)):
                if not square_integrable_dv(fn, dims, grid.R_max):
                    raise DomainError(
                        f"log-constrained mode requires {nm} square-integrable "
                        "against dv_g"
                    )
        return cls(
            dims=dims,
            Q1=RadialFunction.from_callable(grid, q1_fn),
            Q2=RadialFunction.from_callable(grid, q2_fn),
            mode=mode,
        )


@dataclass
class SolveResult:
    u: RadialFunction
    objective: float
    residual_norm: float
    iterations: int
    converged: bool
    additive_constant: float | None = None
    objective_history: tuple = ()
    step_lengths: tuple = ()  # t of each accepted Newton step
    decrements: tuple = ()  # Newton decrement sqrt(-slope) of each step
    message: str = ""


class _Discretization:
    """The GJMS operator restricted to the nodes below R_max (Dirichlet at
    R_max) and the problem data on those nodes."""

    def __init__(self, problem: PDEProblem):
        grid = problem.grid
        self.n = grid.n_nodes - 1  # drop the boundary node at R_max
        self.op = gjms_assemble(problem.dims, grid).restrict(self.n)
        self.mass_dv = problem.dims.omega_Nm1 * self.op.mass  # discrete dv_g weights
        self.Q1 = problem.Q1.values[: self.n]
        self.Q2 = problem.Q2.values[: self.n]
        self.Q = self.Q2 - self.Q1
        self.grid = grid

    @cached_property
    def band(self) -> np.ndarray:
        """H = omega M P_k (symmetric positive definite) in LAPACK general
        band storage (2 bw + 1, n), built on first use."""
        return self.op.energy_band()

    @cached_property
    def row_scale_index(self) -> np.ndarray:
        """(2 bw + 1, n) index of the row scale of each band entry into
        1/d zero-padded by bw on both ends: entry (r, j) holds row
        i = r + j - bw."""
        bw = self.bandwidth
        return np.arange(2 * bw + 1)[:, None] + np.arange(self.n)

    @property
    def bandwidth(self) -> int:
        return self.band.shape[0] // 2

    def interior(self, u) -> np.ndarray:
        """Interior node values of a full-grid function (arrays pass through)."""
        return u.values[: self.n] if isinstance(u, RadialFunction) else np.asarray(u)

    def embed(self, u: np.ndarray) -> RadialFunction:
        full = np.zeros(self.grid.n_nodes)
        full[: self.n] = u
        return RadialFunction(self.grid, full)

    def dv_norm(self, r: np.ndarray) -> float:
        return math.sqrt(float(np.dot(self.mass_dv, r * r)))

    def dv_dot(self, a: np.ndarray, b: np.ndarray) -> float:
        return float(np.dot(self.mass_dv, a * b))


def _exp2u(u: np.ndarray, strict: bool) -> np.ndarray:
    expo = 2.0 * u
    top = int(np.argmax(expo))
    if expo[top] > EXP_OVERFLOW_LIMIT:
        if strict:
            raise OverflowNodeError(top, float(expo[top]))
        return None
    return np.exp(expo)


def functional_J(u, problem: PDEProblem, disc: _Discretization | None = None) -> float:
    """Convex-mode objective
    J(u) = 1/2 <P_k u, u> - int Q u - 1/2 int Q2 (e^{2u} - 2u - 1) dv_g,
    with Q = Q2 - Q1.  The last term is nonnegative when Q2 <= 0."""
    if problem.mode != CONVEX:
        raise DomainError("functional_J belongs to the convex mode")
    disc = disc or _Discretization(problem)
    return _J_value(disc.interior(u), disc, strict=True)


def _J_value(u: np.ndarray, disc: _Discretization, strict: bool = False) -> float:
    e2u = _exp2u(u, strict)
    if e2u is None:
        return math.inf
    quad = 0.5 * float(disc.op.quadratic_form(u))
    linear = disc.dv_dot(disc.Q, u)
    nonlinear = 0.5 * disc.dv_dot(disc.Q2, e2u - 2.0 * u - 1.0)
    return quad - linear - nonlinear


def _convex_linearize(u: np.ndarray, disc: _Discretization) -> tuple:
    """Convex-mode residual P_k u + Q1 - Q2 e^{2u} (the dv_g-gradient of J,
    through raw factor applications), the gradient against the discrete
    dv_g weights, and the Hessian H - 2 diag(mass_dv Q2 e^{2u}) as
    (1, that diagonal)."""
    e2u = _exp2u(u, True)
    res = disc.op.apply(u) + disc.Q1 - disc.Q2 * e2u
    return res, disc.mass_dv * res, (1.0, -2.0 * disc.mass_dv * disc.Q2 * e2u), None


def gradient_J(
    u, problem: PDEProblem, disc: _Discretization | None = None
) -> np.ndarray:
    """Gradient of J against the dv_g inner product:
    P_k u + Q1 - Q2 e^{2u}; identical to the equation residual."""
    if problem.mode != CONVEX:
        raise DomainError("gradient_J belongs to the convex mode")
    disc = disc or _Discretization(problem)
    return _convex_linearize(disc.interior(u), disc)[0]


def hessian_action_J(
    u, w, problem: PDEProblem, disc: _Discretization | None = None
) -> np.ndarray:
    """Hessian action P_k w - 2 Q2 e^{2u} w (positive semidefinite, Q2 <= 0)."""
    if problem.mode != CONVEX:
        raise DomainError("hessian_action_J belongs to the convex mode")
    disc = disc or _Discretization(problem)
    c, diag = _convex_linearize(disc.interior(u), disc)[2]
    wv = disc.interior(w)
    return c * disc.op.apply(wv) + diag * wv / disc.mass_dv


def banded_direct_solve(disc: _Discretization, rhs_dv: np.ndarray) -> np.ndarray:
    """Oracle path: solve (omega M P_k) u = rhs via a banded Cholesky solve
    of the upper half of the band storage."""
    return solveh_banded(disc.band[: disc.bandwidth + 1], rhs_dv)


def _band_solve(
    disc: _Discretization, c: float, diag: np.ndarray, b: np.ndarray, w: np.ndarray | None
) -> np.ndarray:
    """Solve (A + w w^T) x = b, where A is c H with its main diagonal
    replaced by ``diag``, by one LU with partial pivoting (LAPACK gbsv) of
    the symmetrically scaled band of A (the scaling keeps the axis rows
    harmless) and Sherman-Morrison for the rank-one term."""
    bw, n = disc.bandwidth, disc.n
    ab = np.empty((3 * bw + 1, n))  # the top bw rows take the LU fill-in
    ab[:bw] = 0.0
    lower = ab[bw:]
    np.multiply(c, disc.band, out=lower)
    lower[bw] = diag
    d = np.sqrt(np.abs(diag))
    d[d == 0] = 1.0
    inv = np.zeros(n + 2 * bw)
    inv[bw : bw + n] = 1.0 / d
    lower *= inv[disc.row_scale_index]  # row i of entry (i, j)
    lower *= inv[bw : bw + n]  # column j
    rhs = b / d if w is None else np.array([b / d, w / d]).T
    _, _, x, info = _gbsv(bw, bw, ab, rhs, overwrite_ab=True, overwrite_b=True)
    if info > 0:
        raise LinAlgError("singular matrix")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal gbsv")
    if w is None:
        return x / d
    x, z = x.T / d
    return x - z * (w @ x) / (1.0 + w @ z)


def _damped_newton(
    disc: _Discretization,
    u: np.ndarray,
    objective: Callable[[np.ndarray], float],
    linearize: Callable[[np.ndarray], tuple],
    tol: float,
    max_iter: int,
    convex: bool,
) -> SolveResult:
    """Damped Newton minimization with Armijo backtracking for both regimes.

    ``objective(u)`` is inf where u is infeasible or overflows, so the line
    search halves such trial steps away.  ``linearize(u)`` returns the
    certificate residual (its dv_g-norm is compared with ``tol``), the
    gradient, the Hessian c H + diag(v) as (c, v), H = omega M P_k, and an
    optional rank-one vector w (Hessian = c H + diag(v) + w w^T).  A
    Levenberg shift lam diag(mass_dv) is raised until the step descends.  Five
    iterations without a 10 % drop in the certificate end the solve as a
    stall at the numerical floor.

    At the roundoff floor the full step is taken: when the predicted
    decrease -slope = lambda^2 (lambda the Newton decrement) is at most
    ``FULL_STEP_DECREASE * max(1, |J(u)|)``, t = 1 is accepted whenever
    J(u + s) is finite.  A difference of two values of J cannot resolve
    such a decrease (J's roundoff is ~1e-12 at |J| ~ 1 on the shipped k = 2
    problem), so Armijo would halve on noise; this is the quadratic phase
    of Newton's method (Boyd & Vandenberghe, Convex Optimization, 9.5.3).
    An infinite J(u + s) backtracks as above.
    """
    J_u = objective(u)
    history, step_lengths, decrements = [J_u], [], []
    best, stalled, message = math.inf, 0, ""
    for it in range(1, max_iter + 2):
        res, grad, (c, v), w = linearize(u)
        res_norm = disc.dv_norm(res)
        if res_norm <= tol:
            message = "converged"
            break
        if it > max_iter:  # this last pass only certifies the final iterate
            message = "max_iter reached"
            break
        if res_norm >= 0.9 * best:
            stalled += 1
            if stalled >= 5:
                message = f"stalled at residual {res_norm:.3e} (numerical floor)"
                break
        else:
            stalled = 0
        best = min(best, res_norm)
        diag = c * disc.band[disc.bandwidth] + v
        diag_max = float(np.max(np.abs(diag)))
        lam = 0.0
        for _ in range(12):
            step = _band_solve(disc, c, diag + lam * disc.mass_dv, -grad, w)
            slope = float(step @ grad)
            if slope < 0:
                break
            if convex and lam == 0.0 and slope > 1e-10 * max(1.0, diag_max):
                # the convex Hessian is positive semidefinite: an ascent
                # direction beyond roundoff is a discretization defect
                raise DiscretizationError(
                    "negative curvature detected in the convex regime"
                )
            lam = max(10.0 * lam, 1e-6 * diag_max)
        else:
            message = "could not build a descent direction"
            break
        at_floor = -slope <= FULL_STEP_DECREASE * max(1.0, abs(J_u))
        t = 1.0
        for _ in range(50):
            trial = u + t * step
            J_trial = objective(trial)
            if at_floor and t == 1.0 and math.isfinite(J_trial):
                break
            # near the minimizer the decrease (~ residual^2) falls below the
            # roundoff of J; without the allowance the search would stall
            # above the certificate's floor
            if J_trial <= J_u + 1e-4 * t * slope + 1e-14 * max(1.0, abs(J_u)):
                break
            t *= 0.5
        else:
            message = "line search failed"
            break
        u, J_u = trial, J_trial
        history.append(J_u)
        step_lengths.append(t)
        decrements.append(math.sqrt(-slope))
    return SolveResult(
        u=disc.embed(u),
        objective=J_u,
        residual_norm=res_norm,
        iterations=min(it, max_iter),
        converged=message == "converged",
        objective_history=tuple(history),
        step_lengths=tuple(step_lengths),
        decrements=tuple(decrements),
        message=message,
    )


def solve_convex(
    problem: PDEProblem, tol: float = 1e-10, max_iter: int = 60
) -> SolveResult:
    """Minimize J by damped Newton; the gradient of J is exactly the PDE
    residual, recomputed through raw factor applications as the
    convergence certificate."""
    if problem.mode != CONVEX:
        raise DomainError("solve_convex requires a convex-mode problem")
    disc = _Discretization(problem)
    return _damped_newton(
        disc, np.zeros(disc.n), lambda u: _J_value(u, disc),
        lambda u: _convex_linearize(u, disc), tol, max_iter, convex=True,
    )


def log_argument(u: np.ndarray, disc: _Discretization) -> float:
    """int Q2 (e^{2u} - 1) dv_g, the quantity kept positive in log mode."""
    e2u = _exp2u(u, False)
    if e2u is None:
        return math.inf
    return disc.dv_dot(disc.Q2, e2u - 1.0)


def functional_JQ(u, problem: PDEProblem, disc: _Discretization | None = None) -> float:
    """Log-constrained objective
    J_Q(u) = <P_k u, u> + 2 int Q1 u - log int Q2 (e^{2u} - 1) dv_g."""
    if problem.mode != LOG_CONSTRAINED:
        raise DomainError("functional_JQ belongs to the log-constrained mode")
    disc = disc or _Discretization(problem)
    uv = disc.interior(u)
    G = log_argument(uv, disc)
    if not 0.0 < G < math.inf:  # infeasible, or e^{2u} overflows
        return math.inf
    return float(disc.op.quadratic_form(uv)) + 2.0 * disc.dv_dot(disc.Q1, uv) - math.log(G)


def _log_linearize(u: np.ndarray, disc: _Discretization) -> tuple:
    """``_convex_linearize`` for J_Q: the shifted-equation residual
    P_k u + Q1 - Q2 e^{2u} / G (G the log argument) vanishes where J_Q is
    stationary, and J_Q's gradient is 2 mass_dv times it."""
    e2u = _exp2u(u, True)
    G = disc.dv_dot(disc.Q2, e2u - 1.0)
    q2e = disc.mass_dv * disc.Q2 * e2u
    res = disc.op.apply(u) + disc.Q1 - disc.Q2 * e2u / G
    return res, 2.0 * disc.mass_dv * res, (2.0, -4.0 * q2e / G), 2.0 * q2e / G


def _feasible_start(disc: _Discretization) -> np.ndarray:
    """Small profiles aligned with sign(Q2) until the log argument is positive."""
    base = np.where(disc.Q2 > 0, 1.0, np.where(disc.Q2 < 0, -1.0, 0.0))
    for t in (0.1, 0.3, 1.0, 2.0):
        u = t * base
        if log_argument(u, disc) > 0:
            return u
    raise FeasibilityError(
        "no starting profile with positive int Q2 (e^{2u} - 1) dv_g found"
    )


def solve_log_constrained(
    problem: PDEProblem, tol: float = 1e-9, max_iter: int = 120
) -> SolveResult:
    """Minimize J_Q inside the open set {log argument > 0} by damped Newton.

    The reported result carries the additive shift -(1/2) log G(u0); the
    residual certificate is evaluated for the shifted function, whose
    exponential term carries the factor 1/G(u0).
    """
    if problem.mode != LOG_CONSTRAINED:
        raise DomainError("solve_log_constrained requires log-constrained mode")
    disc = _Discretization(problem)
    result = _damped_newton(
        disc, _feasible_start(disc), lambda u: functional_JQ(u, problem, disc),
        lambda u: _log_linearize(u, disc), tol, max_iter, convex=False,
    )
    u = disc.interior(result.u)
    result.additive_constant = -0.5 * math.log(log_argument(u, disc))
    return result


def ray_coercivity_table(
    problem: PDEProblem, direction: RadialFunction, t_values, delta: float = 0.9
) -> list[dict]:
    """J_Q along a ray t -> t u0, with the coercivity comparison
    (1 - 2/(beta0 delta)) E(t) - c0 sqrt(E(t)) implied by the linearized
    exponential-moment bound (c0 fitted from the data)."""
    disc = _Discretization(problem)
    dims = problem.dims
    b0 = beta0(dims.k, dims.N)
    rows = []
    for t in t_values:
        uv = t * disc.interior(direction)
        energy = float(disc.op.quadratic_form(uv))
        J = functional_JQ(uv, problem, disc) if problem.mode == LOG_CONSTRAINED else _J_value(uv, disc)
        rows.append(
            {
                "t": float(t),
                "energy": energy,
                "objective": J,
                "coercive_part": (1.0 - 2.0 / (b0 * delta)) * energy,
            }
        )
    return rows
