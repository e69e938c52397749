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
full step once the predicted decrease is below J's roundoff).  Each regime
gives its residual res and Hessian c H + diag(v) + w w^T, H = omega M P_k
(w = None in convex mode); the driver forms the gradient c mass_dv res and
solves each step by one scaled LU of the band ``GJMSOperator.energy_band``
reads off the factors of P_k.  Minimization runs over radial grid functions
vanishing at R_max (a conforming radial subspace); it is deterministic.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .ball import DimensionParams, RadialFunction, RadialGrid
from .errors import DiscretizationError, DomainError, FeasibilityError
from .inequalities import EXP_OVERFLOW_LIMIT, beta0
from .operators import gjms_assemble

CONVEX = "convex"
LOG_CONSTRAINED = "log-constrained"

# a predicted decrease at most this times max(1, |J|) is below what a
# difference of two values of J resolves; the line search then takes t = 1
FULL_STEP_DECREASE = 1e-10


def radial_family(
    name: str,
    amplitude: float = 1.0,
    width: float = 1.0,
    radius: float = 2.0,
    power: float = 2.0,
) -> Callable[[np.ndarray], np.ndarray]:
    """Named radial data families for Q1/Q2: gaussian (amplitude, width), bump
    (amplitude, radius) and rational-decay (amplitude, power)."""
    if name == "rational-decay":
        return lambda r: amplitude * (1.0 + np.asarray(r, dtype=float) ** 2) ** (-power)
    if name == "gaussian":
        if width <= 0:
            raise DomainError("gaussian width must be positive")
        scale, shape = width, lambda x2: np.exp(-x2)
    elif name == "bump":
        if radius <= 0:
            raise DomainError("bump radius must be positive")
        scale, shape = radius, lambda x2: np.clip(1.0 - x2, 0.0, None) ** 3
    else:
        raise DomainError(
            f"unknown radial family {name!r}; choose from ['bump', 'gaussian', 'rational-decay']"
        )

    def family(r):  # (r/scale)^2 = inf gives the exact limit: e^-inf = 0, 1 - inf clips to 0
        with np.errstate(over="ignore"):
            return amplitude * shape((np.asarray(r, dtype=float) / scale) ** 2)

    return family


def _rational_decay_term(spec: tuple[str, dict]) -> tuple | None:
    """(power, amplitude) of a datum's a (1 + r^2)^(-p) term with a != 0, read
    with ``radial_family``'s defaults; None for gaussian and bump data."""
    name, params = spec
    if name != "rational-decay":
        return None
    args = inspect.signature(radial_family).bind(name, **params)
    args.apply_defaults()
    power, amplitude = args.arguments["power"], args.arguments["amplitude"]
    return (power, amplitude) if amplitude != 0 else None


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
        square-integrability hypotheses by their exact rule.  dv_g grows like
        e^{(N-1) r}, so gaussian and bump data are in L^2(dv_g) and a
        rational-decay term a (1 + r^2)^(-p) with a != 0 never is; Q2 - Q1
        is in it when the two rational-decay terms cancel."""
        q1_fn = radial_family(q1_spec[0], **q1_spec[1])
        q2_fn = radial_family(q2_spec[0], **q2_spec[1])
        q1_term, q2_term = _rational_decay_term(q1_spec), _rational_decay_term(q2_spec)
        if mode == CONVEX:
            if q1_term != q2_term:
                raise DomainError("convex mode requires Q2 - Q1 square-integrable against dv_g")
        else:
            for nm, term in (("Q1", q1_term), ("Q2", q2_term)):
                if term is not None:
                    raise DomainError(
                        f"log-constrained mode requires {nm} square-integrable against dv_g"
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
        with np.errstate(over="ignore", invalid="ignore"):  # reported below
            band = self.op.energy_band()
        if not np.all(np.isfinite(band)):
            raise self.failure("overflows a double")
        return band

    def failure(self, what: str) -> DiscretizationError:
        """The error of a Newton matrix that a grid this wide cannot carry."""
        return DiscretizationError(
            f"the Newton matrix {what} at r_max = {self.grid.R_max:g}; lower r_max"
        )

    @property
    def bandwidth(self) -> int:
        return self.band.shape[0] // 2

    def dv_norm(self, r: np.ndarray) -> float:
        return math.sqrt(float(np.dot(self.mass_dv, r * r)))

    def dv_dot(self, a: np.ndarray, b: np.ndarray) -> float:
        return float(np.dot(self.mass_dv, a * b))


def _exp2u(u: np.ndarray) -> np.ndarray | None:
    """e^{2u}, or None where some node's exponent overflows a double."""
    expo = 2.0 * u
    return None if np.max(expo) > EXP_OVERFLOW_LIMIT else np.exp(expo)


def _J_value(u: np.ndarray, disc: _Discretization) -> float:
    """Convex-mode objective
    J(u) = 1/2 <P_k u, u> - int Q u - 1/2 int Q2 (e^{2u} - 2u - 1) dv_g,
    with Q = Q2 - Q1; +inf where e^{2u} overflows.  The last term is
    nonnegative when Q2 <= 0."""
    e2u = _exp2u(u)
    if e2u is None:
        return math.inf
    quad = 0.5 * float(disc.op.quadratic_form(u))
    linear = disc.dv_dot(disc.Q, u)
    nonlinear = 0.5 * disc.dv_dot(disc.Q2, e2u - 2.0 * u - 1.0)
    return quad - linear - nonlinear


def _convex_linearize(u: np.ndarray, disc: _Discretization) -> tuple:
    """Convex-mode residual P_k u + Q1 - Q2 e^{2u} (the dv_g-gradient of J,
    through raw factor applications) and the Hessian
    H - 2 diag(mass_dv Q2 e^{2u}) as (c, v, w) = (1, that diagonal, None)."""
    e2u = np.exp(2.0 * u)
    res = disc.op.apply(u) + disc.Q1 - disc.Q2 * e2u
    return res, 1.0, -2.0 * disc.mass_dv * disc.Q2 * e2u, None


def banded_direct_solve(disc: _Discretization, rhs_dv: np.ndarray) -> np.ndarray:
    """Oracle path: solve (omega M P_k) u = rhs via a banded Cholesky solve
    of the upper half of the band storage."""
    from scipy.linalg import solveh_banded

    return solveh_banded(disc.band[: disc.bandwidth + 1], rhs_dv)


def _band_solve(
    disc: _Discretization, c: float, diag: np.ndarray, b: np.ndarray, w: np.ndarray | None
) -> np.ndarray:
    """Solve (A + w w^T) x = b, where A is c H with its main diagonal
    replaced by ``diag``, by one LU with partial pivoting (LAPACK gbsv) of
    the symmetrically scaled band of A (the scaling keeps the axis rows
    harmless) and Sherman-Morrison for the rank-one term."""
    from scipy.linalg.lapack import dgbsv  # scipy.linalg loads on the first Newton step

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
    lower *= np.lib.stride_tricks.sliding_window_view(inv, n)  # row i of entry (i, j)
    lower *= inv[bw : bw + n]  # column j
    rhs = b / d if w is None else np.array([b / d, w / d]).T
    _, _, x, info = dgbsv(bw, bw, ab, rhs, overwrite_ab=True, overwrite_b=True)
    if info > 0:
        raise disc.failure("is singular")
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
) -> SolveResult:
    """Damped Newton minimization with Armijo backtracking for both regimes.

    ``objective(u)`` is inf where u is infeasible or overflows, so the line
    search halves such trial steps away; u is linearized only where its
    objective is finite.  ``linearize(u)`` returns (res, c, v, w): the
    certificate residual (its dv_g-norm is compared with ``tol``; a norm
    that overflows a double raises ``DiscretizationError``) and the Hessian
    c H + diag(v) + w w^T, H = omega M P_k, w None when it is convex; the
    gradient is c mass_dv res.  A Levenberg shift lam diag(mass_dv) is
    raised until the step descends.  Five iterations without a 10 % drop
    in the certificate end the solve as a stall at the numerical floor.

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
        res, c, v, w = linearize(u)
        with np.errstate(over="ignore", invalid="ignore"):  # reported below
            res_norm = disc.dv_norm(res)
        if not math.isfinite(res_norm):
            raise DiscretizationError(
                "the PDE residual overflows a double; lower the data amplitudes"
            )
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
        grad = c * disc.mass_dv * res
        diag = c * disc.band[disc.bandwidth] + v
        diag_max = float(np.max(np.abs(diag)))
        lam = 0.0
        for _ in range(12):
            with np.errstate(over="ignore"):  # reported below
                shifted = diag + lam * disc.mass_dv
            if not np.all(np.isfinite(shifted)):
                raise disc.failure("overflows a double under the Levenberg shift")
            step = _band_solve(disc, c, shifted, -grad, w)
            slope = float(step @ grad)
            if slope < 0:
                break
            if w is None and lam == 0.0 and slope > 1e-10 * max(1.0, diag_max):
                # a Hessian without a rank-one term is positive semidefinite:
                # an ascent direction beyond roundoff is a discretization defect
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
    full = np.zeros(disc.grid.n_nodes)
    full[: disc.n] = u
    return SolveResult(
        u=RadialFunction(disc.grid, full),
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
        lambda u: _convex_linearize(u, disc), tol, max_iter,
    )


def log_argument(u: np.ndarray, disc: _Discretization) -> float:
    """int Q2 (e^{2u} - 1) dv_g, the quantity kept positive in log mode."""
    e2u = _exp2u(u)
    if e2u is None:
        return math.inf
    return disc.dv_dot(disc.Q2, e2u - 1.0)


def _JQ_value(u: np.ndarray, disc: _Discretization) -> float:
    """Log-constrained objective
    J_Q(u) = <P_k u, u> + 2 int Q1 u - log int Q2 (e^{2u} - 1) dv_g;
    +inf where u is infeasible or e^{2u} overflows."""
    G = log_argument(u, disc)
    if not 0.0 < G < math.inf:
        return math.inf
    return float(disc.op.quadratic_form(u)) + 2.0 * disc.dv_dot(disc.Q1, u) - math.log(G)


def _log_linearize(u: np.ndarray, disc: _Discretization) -> tuple:
    """``_convex_linearize`` for J_Q: the shifted-equation residual
    P_k u + Q1 - Q2 e^{2u} / G (G the log argument) vanishes where J_Q is
    stationary; J_Q's Hessian is (c, v, w) = (2, -4 q2e / G, 2 q2e / G),
    q2e = mass_dv Q2 e^{2u}."""
    e2u = np.exp(2.0 * u)
    G = disc.dv_dot(disc.Q2, e2u - 1.0)
    q2e = disc.mass_dv * disc.Q2 * e2u
    res = disc.op.apply(u) + disc.Q1 - disc.Q2 * e2u / G
    return res, 2.0, -4.0 * q2e / G, 2.0 * q2e / G


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
        disc, _feasible_start(disc), lambda u: _JQ_value(u, disc),
        lambda u: _log_linearize(u, disc), tol, max_iter,
    )
    u = result.u.values[: disc.n]
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
        uv = t * direction.values[: disc.n]
        energy = float(disc.op.quadratic_form(uv))
        J = (_JQ_value if problem.mode == LOG_CONSTRAINED else _J_value)(uv, disc)
        rows.append(
            {
                "t": float(t),
                "energy": energy,
                "objective": J,
                "coercive_part": (1.0 - 2.0 / (b0 * delta)) * energy,
            }
        )
    return rows
