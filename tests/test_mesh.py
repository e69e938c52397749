import numpy as np
import pytest

from hyperadams.mesh import (
    Mesh1D,
    differentiation_matrix,
    gauss_legendre,
    gauss_lobatto,
    geometric_edges,
    graded_edges,
    interpolate,
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
    [gauss_lobatto(6)[0], gauss_lobatto(8)[0], gauss_legendre(24)[0]],
    ids=["gll6", "gll8", "gl24"],
)
def test_differentiation_exact_on_polynomials(x):
    D = differentiation_matrix(x)
    for deg in range(1, x.size):
        err = np.max(np.abs(D @ x**deg - deg * x ** (deg - 1)))
        assert err < 1e-12


def test_stiffness_symmetric_psd_annihilates_constants():
    mesh = Mesh1D(graded_edges(5.0, 10, 2.0), p=5)
    K = mesh.stiffness(np.sinh(mesh.nodes))
    assert abs(K - K.T).max() < 1e-12
    assert np.max(np.abs(K @ np.ones(mesh.n_nodes))) < 1e-11
    eigs = np.linalg.eigvalsh(K.toarray())
    assert eigs.min() > -1e-10 * eigs.max()


def test_lumped_mass_axis_correction_positive():
    mesh = Mesh1D(graded_edges(5.0, 8, 2.0), p=6)
    for q in (1, 3, 5):
        m = mesh.lumped_mass(mesh.nodes**q, axis_fn=lambda t, q=q: t**q)
        assert np.all(m > 0)


def test_integrate_subinterval_requires_edge():
    mesh = Mesh1D(np.array([0.0, 0.5, 1.0, 2.0]), p=4)
    f = np.ones(mesh.n_nodes)
    assert abs(mesh.integrate(f, x_max=1.0) - 1.0) < 1e-14
    with pytest.raises(ValueError):
        mesh.integrate(f, x_max=0.7)


def test_integrate_to_every_edge_sums_element_integrals():
    edges = geometric_edges(3.0, 0.05, ratio=1.6, forced=(1.0,))
    mesh = Mesh1D(edges, p=5)

    def fn(t):
        return np.exp(-t) * np.cos(3.0 * t)

    pieces = [Mesh1D(edges[e : e + 2], p=5) for e in range(edges.size - 1)]
    element_integrals = [sub.integrate(fn(sub.nodes)) for sub in pieces]
    assert mesh.integrate(fn(mesh.nodes), x_max=edges[0]) == 0.0
    for e in range(1, edges.size):
        got = mesh.integrate(fn(mesh.nodes), x_max=edges[e])
        assert abs(got - sum(element_integrals[:e])) < 1e-14


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
    g = geometric_edges(2.0, 1e-3, ratio=1.5, h_cap=0.2, forced=(1.0,))
    assert g[0] == 0.0 and g[-1] == 2.0
    assert np.any(np.abs(g - 1.0) < 1e-14)
    assert np.all(np.diff(g) > 0)
    assert np.diff(g)[0] <= 1e-3 * (1 + 1e-12)


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
