"""Composite Gauss-Lobatto spectral mesh on an interval [0, X].

One mesh serves three jobs at once:

* positive-weight quadrature of ``int c(t) f(t) dt`` (element-wise
  Gauss-Lobatto rule, over the mesh or per element), of one profile or of
  each row of a (P, n) block: ``integrate``, ``element_integrals`` and
  ``interpolate`` reduce only through ``row_dots``, so a block row gets the
  bits of its single-profile call on every BLAS kernel,
* weighted stiffness forms ``int c(t) f'(t) g'(t) dt`` assembled per element
  from the exact differentiation matrix of the local interpolant, giving a
  symmetric positive-semidefinite matrix in band storage (``band_apply``
  applies it with the bits of a CSR matvec), and
* pointwise differentiation of nodal data (interface values averaged).

The reference rules of a degree are computed once per degree and read-only.

Weighted Laplace-type operators are produced as ``A = M^{-1} K`` with a
diagonal (lumped) mass ``M`` and are therefore exactly self-adjoint in the
M-inner product.  Weights that vanish at the axis node t = 0 (such as
sinh^{N-1} or s^{N-1}) make the lumped axis entry zero; ``Mesh1D._axis_mass``
replaces it by the exact first-element integral of phi_0^2 times the weight,
so that M stays positive.  Integrals stay right, but ``(A u)_0`` is no
consistent axis value: for u = exp(-r^2) on a 12-element degree-6 geodesic
grid it is -3.9e-5 where -Delta_g u(0) = 4 (N = 2), -8.2e-3 where it is 8 (N = 4).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial import legendre as npleg

from .errors import DiscretizationError

__all__ = [
    "gauss_lobatto",
    "barycentric_weights",
    "differentiation_matrix",
    "Mesh1D",
    "row_dots",
    "band_apply",
    "graded_edges",
    "geometric_edges",
]


GEOMETRIC_RATIO = 1.5  # width ratio of neighbouring ``geometric_edges`` elements


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@functools.cache
def gauss_lobatto(p: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Lobatto-Legendre nodes and weights (p + 1 points on [-1, 1])."""
    if p < 1:
        raise ValueError("polynomial degree must be >= 1")
    coeff = np.zeros(p + 1)
    coeff[-1] = 1.0
    interior = npleg.legroots(npleg.legder(coeff))
    x = np.concatenate(([-1.0], np.real(interior), [1.0]))
    w = 2.0 / (p * (p + 1) * npleg.legval(x, coeff) ** 2)
    return _read_only(x), _read_only(w)


def barycentric_weights(x: np.ndarray) -> np.ndarray:
    """Barycentric weights for interpolation on distinct nodes ``x``.

    ``x`` may hold several node sets, one per row of its last axis."""
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    i, j = np.nonzero(~np.eye(n, dtype=bool))  # off-diagonal pairs, row by row
    gaps = (x[..., i] - x[..., j]).reshape(*x.shape[:-1], n, n - 1)
    w = 1.0 / np.prod(gaps, axis=-1)
    return w / np.max(np.abs(w), axis=-1, keepdims=True)


def differentiation_matrix(x: np.ndarray) -> np.ndarray:
    """Exact differentiation matrix of the interpolant on nodes ``x``."""
    x = np.asarray(x, dtype=float)
    w = barycentric_weights(x)
    n = x.size
    i, j = np.nonzero(~np.eye(n, dtype=bool))
    D = np.zeros((n, n))
    D[i, j] = (w[j] / w[i]) / (x[i] - x[j])
    # summing each row with its zero diagonal would regroup the sum for n >= 8
    D[np.diag_indices(n)] = -D[i, j].reshape(n, n - 1).sum(axis=1)
    return D


def row_dots(x, y):
    """The dot of x and y along their last axis: a float for two vectors, one
    value per row of a (P, n) block (a vector pairs with every row).

    One einsum over C-contiguous rows (an F-ordered block would be summed in
    another order), which numpy sums in a fixed order of its own with no BLAS
    call: a block row gets bitwise its single-profile value, whatever the BLAS
    kernel or the operands' alignment.
    """
    dots = np.einsum("...i,...i->...", np.ascontiguousarray(x), np.ascontiguousarray(y))
    return float(dots) if dots.ndim == 0 else dots


def interpolate(x_nodes: np.ndarray, values: np.ndarray, x_eval: np.ndarray) -> np.ndarray:
    """Barycentric evaluation of the interpolant through (x_nodes, values).

    ``x_nodes`` and ``values`` hold the nodes on their last axis: either one
    node set for every point of ``x_eval`` or one row per point.
    """
    x_nodes = np.asarray(x_nodes, dtype=float)
    values = np.asarray(values, dtype=float)
    x_eval = np.atleast_1d(np.asarray(x_eval, dtype=float))
    diff = x_eval[:, None] - x_nodes
    hit = diff == 0.0
    q = barycentric_weights(x_nodes) / np.where(hit, 1.0, diff)
    num = row_dots(q, values)
    node_value = np.take_along_axis(
        np.broadcast_to(values, q.shape), hit.argmax(axis=1)[:, None], axis=1
    )[:, 0]
    return np.where(hit.any(axis=1), node_value, num / q.sum(axis=1))


@functools.cache
def _reference_derivative(p: int) -> np.ndarray:
    """Differentiation matrix on the degree-p Gauss-Lobatto nodes."""
    return _read_only(differentiation_matrix(gauss_lobatto(p)[0]))


@functools.cache
def _axis_rule(p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gauss nodes and weights on [-1, 1] for the axis-element integral, with
    the square of the degree-p axis cardinal function phi_0 at those nodes."""
    xg, wg = map(_read_only, npleg.leggauss(4 * (p + 1)))
    card = np.zeros(p + 1)
    card[0] = 1.0
    phi0 = interpolate(gauss_lobatto(p)[0], card, xg)
    return xg, wg, _read_only(phi0**2)


def graded_edges(x_max: float, n_elements: int, grading: float = 1.0) -> np.ndarray:
    """Element edges ``x_max * (j/E)**grading`` clustering toward 0."""
    if n_elements < 1:
        raise ValueError("need at least one element")
    if grading <= 0:
        raise ValueError("grading exponent must be positive")
    j = np.arange(n_elements + 1, dtype=float) / n_elements
    return x_max * j**grading


def geometric_edges(
    x_max: float,
    h_first: float,
    h_cap: float | None = None,
    forced: Sequence[float] = (),
) -> np.ndarray:
    """Geometric element edges 0, h, h*GEOMETRIC_RATIO, ... capped at ``h_cap``.

    ``forced`` points become exact edges; the running width continues across
    them.  Used by profile-resolving grids where a fixed grading phase
    relative to a shrinking feature scale matters.
    """
    if not np.isfinite(x_max):  # capped widths would never reach it
        raise ValueError("x_max must be finite")
    if not (0 < h_first < x_max):
        raise ValueError("h_first must lie in (0, x_max)")
    targets = sorted(set(float(f) for f in forced if 0.0 < f < x_max)) + [float(x_max)]
    edges = [0.0]
    h = h_first
    for tgt in targets:
        while edges[-1] + h < tgt * (1.0 - 1e-12):
            nxt = edges[-1] + h
            # never leave a sliver shorter than 40% of the running width
            if tgt - nxt < 0.4 * h:
                break
            edges.append(nxt)
            h *= GEOMETRIC_RATIO
            if h_cap is not None:
                h = min(h, h_cap)
        edges.append(tgt)
    return np.array(edges)


def band_apply(band: np.ndarray, z: np.ndarray) -> np.ndarray:
    """K z for K in band storage ``band[p + j - i, i] = K[i, j]`` and one
    profile (n,) or each row of a (P, n) block.  Row i sums in column order
    from +0.0, as a CSR matvec does, so a block row gives bitwise its
    single-profile call (a zero slot adds nothing to a finite sum)."""
    width, n = band.shape
    p = width // 2
    padded = np.zeros(z.shape[:-1] + (n + 2 * p,))
    padded[..., p : p + n] = z
    out = np.zeros(z.shape)
    term = np.empty(z.shape)
    for d in range(width):
        out += np.multiply(band[d], padded[..., d : d + n], out=term)
    return out


@dataclass(frozen=True)
class Mesh1D:
    """Composite Gauss-Lobatto mesh on [edges[0], edges[-1]].

    Interface nodes are shared (C0 global node set).  ``nodes`` has length
    ``n_elements * p + 1``; row ``e`` of ``elements`` lists the global
    indices of element ``e``'s nodes and ``jac[e]`` is its half-width.
    """

    edges: np.ndarray
    p: int
    nodes: np.ndarray = field(init=False, repr=False)
    quad_w: np.ndarray = field(init=False, repr=False)
    elements: np.ndarray = field(init=False, repr=False)
    jac: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        edges = np.asarray(self.edges, dtype=float)
        if edges.ndim != 1 or edges.size < 2 or np.any(np.diff(edges) <= 0):
            raise ValueError("edges must be strictly increasing with >= 2 entries")
        object.__setattr__(self, "edges", edges)
        xi, wref = gauss_lobatto(self.p)
        n_el = edges.size - 1
        elements = np.arange(n_el)[:, None] * self.p + np.arange(self.p + 1)
        jac = 0.5 * (edges[1:] - edges[:-1])
        local = 0.5 * (edges[:-1] + edges[1:])[:, None] + jac[:, None] * xi
        object.__setattr__(self, "elements", _read_only(elements))
        object.__setattr__(self, "jac", _read_only(jac))
        # an interface node keeps the right element's value
        nodes = np.append(local[:, :-1], local[-1, -1])
        object.__setattr__(self, "nodes", _read_only(nodes))
        # an interface node sums its left element's share, then its right's
        quad_w = np.bincount(elements.ravel(), weights=(wref * jac[:, None]).ravel())
        object.__setattr__(self, "quad_w", _read_only(quad_w))

    @property
    def n_elements(self) -> int:
        return self.edges.size - 1

    @property
    def n_nodes(self) -> int:
        return self.nodes.size

    def integrate(self, values: np.ndarray):
        """Quadrature of nodal data; a (P, n) block gives one value per row
        (see ``row_dots``)."""
        return row_dots(self.quad_w, np.asarray(values, dtype=float))

    def element_integrals(self, values: np.ndarray) -> np.ndarray:
        """Gauss-Lobatto integral of 1-D nodal data over each element."""
        return self.jac * row_dots(values[self.elements], gauss_lobatto(self.p)[1])

    def stiffness(self, coeff: np.ndarray) -> np.ndarray:
        """Assemble ``K[i,j] = int coeff(t) phi_i'(t) phi_j'(t) dt`` in band
        storage ``band[p + j - i, i] = K[i, j]``, shape (2p + 1, n).

        ``coeff`` is sampled at the mesh nodes; K is symmetric PSD when
        coeff >= 0 and annihilates constants exactly.  An interface diagonal
        entry sums its left element's share, then its right's.
        """
        coeff = np.asarray(coeff, dtype=float)
        p, n = self.p, self.n_nodes
        _, wref = gauss_lobatto(p)
        Dref = _reference_derivative(p)
        w_el = wref * coeff[self.elements] / self.jac[:, None]
        blocks = Dref.T @ (w_el[:, :, None] * Dref)
        # block entry (a, b) of element e sits in slot (p + b - a, e p + a)
        a, b = np.arange(p + 1)[:, None], np.arange(p + 1)
        slots = (p + b - a) * n + self.elements[:, :, None]
        band = np.bincount(slots.ravel(), weights=blocks.ravel(), minlength=(2 * p + 1) * n)
        return band.reshape(2 * p + 1, n)

    def lumped_mass(self, weight: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
        """Diagonal of ``int weight(t) f g dt`` under Gauss-Lobatto lumping,
        the weight sampled at the nodes.

        Where the weight vanishes at the axis node, the axis entry is
        ``_axis_mass(weight)`` instead; one that is not positive raises
        ``DiscretizationError``.
        """
        m = self.quad_w * np.asarray(weight(self.nodes), dtype=float)
        if m[0] == 0.0:
            m[0] = self._axis_mass(weight)
            if m[0] <= 0.0:
                raise DiscretizationError(
                    "axis mass correction came out non-positive (axis element width "
                    f"{self.edges[1] - self.edges[0]:.3g}): the first element is too "
                    "short; coarsen it (smaller grading, larger r_max)"
                )
        return m

    def _axis_mass(self, weight: Callable[[np.ndarray], np.ndarray]) -> float:
        """The axis entry of M, ``int_elem0 phi_0^2 weight`` by dense Gauss
        quadrature.  (The row sum ``int phi_0 weight`` would not do: Gauss-Lobatto
        exactness makes it vanish for polynomial weights of degree <= p-1 that
        are zero at the axis.)"""
        xg, wg, phi0_sq = _axis_rule(self.p)
        a, b = self.edges[0], self.edges[1]
        jac = 0.5 * (b - a)
        x_phys = 0.5 * (a + b) + jac * xg
        return float(np.dot(wg * jac, phi0_sq * np.asarray(weight(x_phys), dtype=float)))

    def deriv_matrix(self):
        """Pointwise d/dt of nodal data (interface rows averaged), a CSR matrix."""
        import scipy.sparse as sp

        Dref = _reference_derivative(self.p)
        share = np.ones(self.n_nodes)
        share[self.p : -1 : self.p] = 0.5
        blocks = share[self.elements][:, :, None] * (Dref / self.jac[:, None, None])
        rows, cols = np.broadcast_arrays(self.elements[:, :, None], self.elements[:, None, :])
        # the conversion to CSR sums the two interface entries in input order
        ijv = (blocks.ravel(), (rows.ravel(), cols.ravel()))
        return sp.csr_matrix(ijv, shape=(self.n_nodes, self.n_nodes))

    def evaluate(self, values: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Evaluate the piecewise interpolant of nodal data at points ``x``."""
        values = np.asarray(values, dtype=float)
        x = np.atleast_1d(np.asarray(x, dtype=float))
        el = np.clip(np.searchsorted(self.edges, x, side="right") - 1, 0, self.n_elements - 1)
        local = self.elements[el]
        return interpolate(self.nodes[local], values[local], x)
