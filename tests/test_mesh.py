import math
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse as sp
from numpy.polynomial.legendre import leggauss
from conftest import band_of_csr, csr_of_band

from hyperadams.errors import DiscretizationError
from hyperadams.mesh import (
    Mesh1D,
    _axis_rule,
    _reference_derivative,
    band_apply,
    differentiation_matrix,
    gauss_lobatto,
    geometric_edges,
    graded_edges,
    interpolate,
    row_dots,
)


@pytest.mark.parametrize("p", [2, 4, 6, 8])
def test_gauss_lobatto_weights(p):
    x, w = gauss_lobatto(p)
    assert x[0] == -1.0 and x[-1] == 1.0
    assert np.all(np.diff(x) > 0)
    assert np.all(w > 0)
    assert abs(np.sum(w) - 2.0) < 1e-14


@pytest.mark.parametrize("p", [3, 5, 7])
def test_quadrature_polynomial_exactness(p):
    # Gauss-Lobatto with p+1 points integrates degree 2p-1 exactly
    mesh = Mesh1D(np.array([0.0, 0.4, 1.0]), p=p)
    for deg in range(2 * p):
        exact = 1.0 / (deg + 1)
        got = mesh.integrate(mesh.nodes**deg)
        assert abs(got - exact) < 1e-13 * max(1.0, exact)


@pytest.mark.parametrize(
    "x",
    [gauss_lobatto(6)[0], gauss_lobatto(8)[0], leggauss(24)[0]],
    ids=["gll6", "gll8", "gl24"],
)
def test_differentiation_exact_on_polynomials(x):
    D = differentiation_matrix(x)
    for deg in range(1, x.size):
        err = np.max(np.abs(D @ x**deg - deg * x ** (deg - 1)))
        assert err < 1e-12


def test_stiffness_symmetric_psd_annihilates_constants():
    mesh = Mesh1D(graded_edges(5.0, 10, 2.0), p=5)
    K = csr_of_band(mesh.stiffness(np.sinh(mesh.nodes)))
    assert abs(K - K.T).max() < 1e-12
    assert np.max(np.abs(K @ np.ones(mesh.n_nodes))) < 1e-11
    eigs = np.linalg.eigvalsh(K.toarray())
    assert eigs.min() > -1e-10 * eigs.max()


def test_lumped_mass_axis_correction_positive():
    mesh = Mesh1D(graded_edges(5.0, 8, 2.0), p=6)
    for q in (1, 3, 5):
        m = mesh.lumped_mass(lambda t, q=q: t**q)
        assert np.all(m > 0)


def test_element_integrals_match_one_element_meshes():
    edges = geometric_edges(3.0, 0.05, forced=(1.0,))
    mesh = Mesh1D(edges, p=5)

    def fn(t):
        return np.exp(-t) * np.cos(3.0 * t)

    pieces = [Mesh1D(edges[e : e + 2], p=5) for e in range(edges.size - 1)]
    want = [sub.integrate(fn(sub.nodes)) for sub in pieces]
    got = mesh.element_integrals(fn(mesh.nodes))
    assert got.shape == (mesh.n_elements,)
    assert np.max(np.abs(got - want)) < 1e-14
    assert abs(got.sum() - mesh.integrate(fn(mesh.nodes))) < 1e-14


def test_pointwise_derivative_interface_average():
    mesh = Mesh1D(graded_edges(2.0, 6, 1.5), p=6)
    D = mesh.deriv_matrix()
    f = np.sin(mesh.nodes)
    err = np.max(np.abs(D @ f - np.cos(mesh.nodes)))
    assert err < 1e-8


def test_evaluate_interpolant():
    mesh = Mesh1D(graded_edges(3.0, 8, 1.0), p=7)
    f = np.exp(-mesh.nodes)
    pts = np.linspace(0.05, 2.95, 37)
    err = np.max(np.abs(mesh.evaluate(f, pts) - np.exp(-pts)))
    assert err < 1e-10
    at_nodes = mesh.evaluate(f, mesh.nodes)
    assert np.max(np.abs(at_nodes - f) / np.abs(f)) < 1e-14
    x, v = mesh.nodes[:8], f[:8]
    assert np.array_equal(interpolate(x, v, x), v)


def test_graded_and_geometric_edges():
    e = graded_edges(10.0, 8, 2.0)
    assert e[0] == 0.0 and e[-1] == 10.0 and np.all(np.diff(e) > 0)
    g = geometric_edges(2.0, 1e-3, h_cap=0.2, forced=(1.0,))
    assert g[0] == 0.0 and g[-1] == 2.0
    assert np.any(np.abs(g - 1.0) < 1e-14)
    assert np.all(np.diff(g) > 0)
    assert np.diff(g)[0] <= 1e-3 * (1 + 1e-12)


@pytest.mark.parametrize("x_max", [np.inf, np.nan])
def test_geometric_edges_reject_non_finite_end(x_max):
    # capped at h_cap the widths stop growing and would never reach inf
    with pytest.raises(ValueError, match="x_max must be finite"):
        geometric_edges(x_max, 0.1, h_cap=1.0)


def test_refining_elements_converges_at_documented_order():
    # documented scheme order is 4; observed self-convergence must beat it
    errors = []
    exact = None
    for n_el in (4, 8, 16, 32):
        mesh = Mesh1D(graded_edges(8.0, n_el, 2.0), p=4)
        val = mesh.integrate(np.exp(-mesh.nodes**2) * np.sinh(mesh.nodes))
        errors.append(val)
    ref = errors[-1]
    errs = [abs(v - ref) for v in errors[:-1]]
    order = np.log2(errs[0] / errs[1])
    assert order > 3.5


# The general COO assembly, kept as the reference the band assembly and the
# CSR derivative matrix must reproduce bit for bit.
def coo_scatter(mesh, blocks):
    rows = np.broadcast_to(mesh.elements[:, :, None], blocks.shape)
    cols = np.broadcast_to(mesh.elements[:, None, :], blocks.shape)
    A = sp.csr_matrix(
        (blocks.ravel(), (rows.ravel(), cols.ravel())), shape=(mesh.n_nodes, mesh.n_nodes)
    )
    A.sum_duplicates()
    return A


def reference_stiffness(mesh, coeff):
    xi, wref = gauss_lobatto(mesh.p)
    Dref = differentiation_matrix(xi)
    w_el = wref * coeff[mesh.elements] / mesh.jac[:, None]
    return coo_scatter(mesh, Dref.T @ (w_el[:, :, None] * Dref))


def reference_deriv_matrix(mesh):
    Dref = differentiation_matrix(gauss_lobatto(mesh.p)[0])
    share = np.ones(mesh.n_nodes)
    share[mesh.p : -1 : mesh.p] = 0.5
    return coo_scatter(mesh, share[mesh.elements][:, :, None] * (Dref / mesh.jac[:, None, None]))


def reference_lumped_mass(mesh, weight):
    m = mesh.quad_w * weight(mesh.nodes)
    if m[0] == 0.0:
        xi, _ = gauss_lobatto(mesh.p)
        a, b = mesh.edges[0], mesh.edges[1]
        jac = 0.5 * (b - a)
        xg, wg = leggauss(4 * (mesh.p + 1))
        card = np.zeros(mesh.p + 1)
        card[0] = 1.0
        phi0 = interpolate(xi, card, xg)
        x_phys = 0.5 * (a + b) + jac * xg
        m[0] = float(np.dot(wg * jac, phi0**2 * weight(x_phys)))
    return m


def assert_same_csr(A, B):
    assert A.nnz == B.nnz
    assert np.array_equal(A.indptr, B.indptr)
    assert np.array_equal(A.indices, B.indices)
    assert np.array_equal(A.data, B.data)
    assert np.array_equal(A.toarray(), B.toarray())
    # sorted, duplicate-free column indices in every row
    rows = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))
    assert np.all(np.diff(A.indices)[rows[1:] == rows[:-1]] > 0)


ASSEMBLY_EDGES = {
    "graded": graded_edges(5.0, 9, 2.0),
    "geometric": geometric_edges(3.0, 0.01, h_cap=0.5, forced=(1.0,)),
    "one-element": np.array([0.0, 2.0]),
}


@pytest.mark.parametrize("edges", ASSEMBLY_EDGES.values(), ids=ASSEMBLY_EDGES.keys())
@pytest.mark.parametrize("p", range(1, 13))
def test_assembly_matches_coo_reference(p, edges):
    mesh = Mesh1D(edges, p=p)

    def weight(t):
        return np.sinh(t) ** 3

    coeff = weight(mesh.nodes)
    band, reference = mesh.stiffness(coeff), reference_stiffness(mesh, coeff)
    assert band.shape == (2 * p + 1, mesh.n_nodes)
    assert_same_csr(csr_of_band(band), reference)
    # every other slot, and every zero, is +0.0
    assert np.array_equal(band, band_of_csr(reference, p))
    assert not np.any(np.signbit(band[band == 0.0]))
    assert_same_csr(mesh.deriv_matrix(), reference_deriv_matrix(mesh))
    assert np.array_equal(mesh.lumped_mass(weight), reference_lumped_mass(mesh, weight))


def test_reference_rules_built_once_per_degree_and_read_only():
    p = 7
    xi, _ = gauss_lobatto(p)
    D = _reference_derivative(p)
    assert np.array_equal(D, differentiation_matrix(xi))
    xg, wg, phi0_sq = _axis_rule(p)
    card = np.zeros(p + 1)
    card[0] = 1.0
    assert np.array_equal(phi0_sq, interpolate(xi, card, xg) ** 2)
    for a in (D, xg, wg, phi0_sq):
        assert not a.flags.writeable
    built = (_reference_derivative.cache_info().misses, _axis_rule.cache_info().misses)
    for n_el in (3, 8):
        mesh = Mesh1D(graded_edges(2.0, n_el, 1.5), p=p)
        mesh.stiffness(np.ones(mesh.n_nodes))
        mesh.deriv_matrix()
        mesh.lumped_mass(lambda t: t)
    assert _reference_derivative(p) is D and _axis_rule(p)[2] is phi0_sq
    assert (_reference_derivative.cache_info().misses, _axis_rule.cache_info().misses) == built


def test_non_positive_axis_mass_is_a_discretization_error():
    mesh = Mesh1D(graded_edges(1.0, 4, 1.0), p=4)
    with pytest.raises(DiscretizationError, match="non-positive"):
        mesh.lumped_mass(lambda t: -t)


@pytest.mark.parametrize("edges", ASSEMBLY_EDGES.values(), ids=ASSEMBLY_EDGES.keys())
@pytest.mark.parametrize("p", range(1, 13))
def test_band_apply_is_bitwise_csr_matvec(p, edges):
    # scipy's CSR matvec on the COO reference sums each row in column order
    # from +0.0; the band apply must give its bits on a vector, on C- and
    # F-ordered blocks of rows, on zeros (no -0.0) and on a restricted operator
    from hyperadams.operators import GJMSOperator

    mesh = Mesh1D(edges, p=p)
    n = mesh.n_nodes
    coeff = np.sinh(mesh.nodes) ** 3
    band, K = mesh.stiffness(coeff), reference_stiffness(mesh, coeff)
    rng = np.random.default_rng(p)
    z = rng.standard_normal(n)
    assert band_apply(band, z).tobytes() == (K @ z).tobytes()
    block = rng.standard_normal((7, n))
    want = np.ascontiguousarray((K @ block.T).T)
    for order in ("C", "F"):
        got = band_apply(band, np.asarray(block, order=order))
        assert got.shape == block.shape
        assert np.ascontiguousarray(got).tobytes() == want.tobytes()
    # the last: signed zeros that make every product of the middle row -0.0,
    # which a sum started from -0.0 would keep
    signed = np.where(K[n // 2].toarray()[0] < 0.0, 0.0, -0.0)
    for zeros in (np.zeros(n), -np.zeros(n), signed):
        got = band_apply(band, zeros)
        assert got.tobytes() == (K @ zeros).tobytes() == np.zeros(n).tobytes()
    m = max(n - p - 1, 1)  # cuts through an element where there is one to cut
    restricted = GJMSOperator(band, np.ones(n), (0,), None).restrict(m).stiffness
    assert_same_csr(csr_of_band(restricted), K[:m, :m].tocsr())
    assert np.array_equal(restricted, band_of_csr(K[:m, :m].tocsr(), p))
    assert band_apply(restricted, z[:m]).tobytes() == (K[:m, :m] @ z[:m]).tobytes()


def loop_row_dots(x, y):
    """One single-vector call per row of y on contiguous copies: the reference
    row_dots must match."""
    pairs = zip(np.broadcast_to(x, y.shape), y)
    return np.array([row_dots(np.ascontiguousarray(a), np.ascontiguousarray(b)) for a, b in pairs])


def at_offset(a, doubles):
    """A C-ordered copy of ``a`` that starts ``doubles`` doubles into a buffer."""
    buf = np.empty(a.size + 8)
    out = buf[doubles : doubles + a.size].reshape(a.shape)
    out[...] = a
    return out


@pytest.mark.parametrize("P", [0, 1, 7, 358])
@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("x_is_block", [False, True], ids=["vector-x", "block-x"])
def test_row_dots_is_bitwise_a_dot_per_row(P, order, x_is_block):
    rng = np.random.default_rng(P)
    n = 277
    y = np.asarray(rng.standard_normal((P, n)), order=order)
    x = rng.standard_normal((P, n) if x_is_block else n)
    got, want = row_dots(x, y), loop_row_dots(x, y)
    assert got.shape == want.shape == (P,) and got.dtype == want.dtype
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    # a dot product to roundoff of the exact sum of the products
    products = x * y
    exact = np.array([math.fsum(row) for row in products])
    assert np.all(np.abs(got - exact) <= n * np.finfo(float).eps * np.abs(products).sum(axis=1))
    # each row also keeps its bits wherever its operands start in memory
    for j in range(min(P, 7)):
        xj = x[j] if x_is_block else x
        for doubles in range(8):
            moved = row_dots(at_offset(xj, doubles), at_offset(y[j], 7 - doubles))
            assert moved == got[j]


# every test that pins a family row against its single-profile call bitwise
BITWISE_PER_PROFILE = (
    "family_is_bitwise_per_profile or block_is_bitwise_per_row"
    " or row_dots_is_bitwise_a_dot_per_row or one_chain_gives_every_order"
)


def test_block_bits_do_not_depend_on_the_blas_kernel():
    # OpenBLAS falls back to its Prescott kernel on a CPU it does not know;
    # there ddot's result depends on the operands' alignment.  The variable is
    # read once per process, so the bitwise tests run again in a child that
    # sets it (with another BLAS it does nothing and the tests still hold).
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, OPENBLAS_CORETYPE="Prescott")
    files = [f"tests/test_{name}.py" for name in ("ball", "inequalities", "mesh", "operators")]
    child = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-k", BITWISE_PER_PROFILE, *files],
        cwd=root, env=env, capture_output=True, text=True, timeout=300,
    )
    assert child.returncode == 0, child.stdout[-3000:] + child.stderr[-2000:]
