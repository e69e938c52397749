import math

import numpy as np
import pytest
from numpy.polynomial import Polynomial

from hyperadams.ball import DimensionParams, RadialGrid


@pytest.fixture(scope="session")
def dims1():
    return DimensionParams(1)


@pytest.fixture(scope="session")
def dims2():
    return DimensionParams(2)


@pytest.fixture(scope="session")
def dims3():
    return DimensionParams(3)


@pytest.fixture(scope="session")
def geo_grid():
    """Workhorse geodesic grid for smooth decaying profiles."""
    return RadialGrid.geodesic(r_max=9.0, n_elements=20, degree=6, grading=2.5)


@pytest.fixture(scope="session")
def ball_grid():
    """Euclidean-radius grid on the unit ball."""
    return RadialGrid.euclidean_ball(s_max=1.0, n_elements=20, degree=6, grading=1.5)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260808)


def csv_body(path: str) -> bytes:
    """CSV content minus the timestamp line (the bit-stable part)."""
    with open(path, "rb") as fh:
        data = fh.read()
    return data[data.index(b"\n") + 1 :]


def csr_of_band(band: np.ndarray):
    """The scipy CSR oracle of a stiffness matrix in band storage
    ``band[p + j - i, i] = K[i, j]``: every pair of nodes that share an
    element is stored (i <= j share one when j <= p (i // p + 1)), in column
    order per row, as the element-coupling CSR pattern holds them."""
    import scipy.sparse as sp

    width, n = band.shape
    p = width // 2
    i = np.arange(n)[:, None]
    j = i + np.arange(width) - p
    lo, hi = np.minimum(i, j), np.maximum(i, j)
    stored = (j >= 0) & (j < n) & (hi <= p * (lo // p + 1))
    indptr = np.concatenate(([0], np.cumsum(stored.sum(axis=1))))
    return sp.csr_matrix((band.T[stored], j[stored], indptr), shape=(n, n))


def band_of_csr(K, p: int) -> np.ndarray:
    """The band storage ``band[p + j - i, i] = K[i, j]`` of a CSR matrix whose
    entries lie within p of the diagonal; every other slot is +0.0."""
    rows = np.repeat(np.arange(K.shape[0]), np.diff(K.indptr))
    band = np.zeros((2 * p + 1, K.shape[0]))
    band[p + K.indices - rows, rows] = K.data
    return band


def junction_jumps(prof) -> dict:
    """|v(rho) - v(rho^-)| of a Moser profile at its two branch junctions,
    the inner one rho = 1/sqrt(m) and the outer one rho = 1."""
    jumps = {}
    for name, rho in (("inner_junction", 1.0 / math.sqrt(prof.m)), ("outer_junction", 1.0)):
        below, at = prof.v(np.array([np.nextafter(rho, 0.0), rho]))
        jumps[name] = abs(at - below)
    return jumps


def cutoff_derivative(prof, l: int, rho: float) -> float:
    """d^l/d rho^l of a Moser profile's cutoff polynomial at rho, by numpy's
    polynomial class in w = 2 - rho (d/d rho = -d/dw)."""
    return (-1.0) ** l * float(Polynomial(prof.cutoff_spline).deriv(l)(2.0 - rho))


def cutoff_condition_residuals(prof) -> np.ndarray:
    """The 2k boundary-condition residuals of a Moser profile's cutoff: value
    0 at rho = 1 and 2, d^l/d rho^l = (-1)^l (l-1)! b at rho = 1 and 0 at
    rho = 2 for l = 1..k-1."""
    res = [cutoff_derivative(prof, 0, 1.0), cutoff_derivative(prof, 0, 2.0)]
    for l in range(1, prof.k):
        want = (-1.0) ** l * math.factorial(l - 1) * prof.slope
        res.append(cutoff_derivative(prof, l, 1.0) - want)
        res.append(cutoff_derivative(prof, l, 2.0))
    return np.array(res)
