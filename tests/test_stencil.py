"""Unit tests for the 1-D stencil and quadrature building blocks."""

import copy

import numpy as np
import pytest

import capaf
from capaf._stencil import (
    CENTER_HALF,
    EDGE_POINTS,
    RadialStencil,
    fornberg,
    fornberg_weights,
    panel_weights,
    radial_quadrature,
)

from helpers import d_rho_by_csr, grid, radial_quadrature_by_panels, tensor_bytes


@pytest.mark.parametrize("deriv", [0, 1, 2, 3])
def test_fornberg_weights_exact_on_polynomials(deriv):
    x = np.array([-2.0, -1.3, 0.4, 1.1, 2.7, 3.0])
    w = fornberg_weights(x, 0.3, 3)[:, deriv]
    for p in range(x.size):
        # d^deriv/dx^deriv x^p at 0.3, exact because p < len(x)
        if p < deriv:
            ref = 0.0
        else:
            coef = np.prod(np.arange(p, p - deriv, -1), dtype=float)
            ref = coef * 0.3 ** (p - deriv)
        val = float(np.dot(w, x**p))
        assert abs(val - ref) < 1e-10 * max(1.0, abs(ref))


def test_fornberg_weights_centered_first_derivative():
    h = 0.1
    w = fornberg_weights(np.arange(-2, 3) * h, 0.0, 1)[:, 1]
    np.testing.assert_allclose(w * (12 * h), [1.0, -8.0, 0.0, 8.0, -1.0],
                               atol=1e-12)


def test_panel_weights_integrate_polynomials():
    nodes = np.linspace(0.2, 1.4, 6)
    w = panel_weights(nodes, 0.35, 1.1)
    for p in range(6):
        ref = (1.1 ** (p + 1) - 0.35 ** (p + 1)) / (p + 1)
        assert abs(float(np.dot(w, nodes**p)) - ref) < 1e-12


@pytest.mark.parametrize("n", [8, 16, 32])
def test_radial_quadrature_positive_and_exact_on_quintics(n):
    drho = 1.3 / (n + 0.5)
    rho = (np.arange(n + 1) + 0.5) * drho
    w = radial_quadrature(rho, drho)
    assert np.all(w > 0)
    for p in range(6):
        ref = 1.3 ** (p + 1) / (p + 1)
        assert abs(float(np.dot(w, rho**p)) - ref) < 5e-11 * ref


def test_radial_quadrature_high_order_on_smooth_integrand():
    errs = []
    for n in (16, 32, 64):
        drho = 1.0 / (n + 0.5)
        rho = (np.arange(n + 1) + 0.5) * drho
        w = radial_quadrature(rho, drho)
        errs.append(abs(float(np.dot(w, np.sin(3 * rho))) - (1 - np.cos(3.0)) / 3))
    ooa = np.log2(errs[0] / errs[1]), np.log2(errs[1] / errs[2])
    assert min(ooa) > 5.0


@pytest.mark.parametrize("theta", [0.05, 1.2, 3.0])
@pytest.mark.parametrize("n", [8, 16, 64, 128, 512])
def test_radial_quadrature_keeps_the_bytes_of_the_panel_loop(n, theta):
    # The batched solve must add each panel's weights as the loop does.
    rho = grid(theta, n, 8).rho_nodes
    assert radial_quadrature(rho, theta / (n + 0.5)).tobytes() \
        == radial_quadrature_by_panels(rho).tobytes()


def test_radial_quadrature_rejects_tiny_grids():
    with pytest.raises(ValueError, match="at least"):
        radial_quadrature(np.linspace(0.1, 1.0, 4), 0.3)


@pytest.mark.parametrize("deriv", [1, 2])
def test_d_rho_differentiates_across_the_pole(deriv):
    # Smooth fields extend across the pole through the antipodal meridian, so
    # d_rho must reproduce the derivative: an even field (rho^4) and an odd
    # one (rho^5 cos phi), whose ghost values flip sign.
    n, theta, n_phi = 24, 1.1, 8
    g = capaf.build_grid(theta, n, n_phi)
    drho, rho = g.drho, g.rho_nodes
    cos = np.cos(g.phi_nodes)
    assert RadialStencil.of(fornberg(n + 1, drho, deriv, n_phi), n + 1).mirror.any()

    even = np.repeat((rho**4)[:, None], n_phi, axis=1)
    ref = 4 * 3 * rho**2 if deriv == 2 else 4 * rho**3
    np.testing.assert_allclose(g.d_rho(even, deriv), np.repeat(ref[:, None], n_phi, axis=1),
                               atol=1e-9)

    odd = np.outer(rho**5, cos)
    ref = 5 * 4 * rho**3 if deriv == 2 else 5 * rho**4
    if deriv == 1:
        # The 5-point first difference misses a quintic by exactly
        # -h^4 f^(5) / 30 = -4 h^4; the one-sided edge rows are exact.
        ref = ref - 4 * drho**4 * (np.arange(n + 1) < n + 1 - CENTER_HALF)
    np.testing.assert_allclose(g.d_rho(odd, deriv), np.outer(ref, cos), atol=1e-9)


@pytest.mark.parametrize("shape", [(8, 8), (9, 16), (16, 24), (64, 64), (128, 130), (256, 256)],
                         ids="{0[0]}x{0[1]}".format)
@pytest.mark.parametrize("theta", [0.05, 1.2, 3.0])
def test_d_rho_keeps_the_bytes_of_the_csr_pair(theta, shape):
    # The numpy stencil sums must add each row's terms as the CSR products
    # do, signed zeros included; a_of then keeps its bytes too.
    g = capaf.build_grid(theta, *shape)
    rng = np.random.default_rng(shape[0] * shape[1])
    rho, phi = g.rho_nodes[:, None], g.phi_nodes[None, :]
    fields = {
        "random": rng.standard_normal(g.node_shape),
        "+0": np.zeros(g.node_shape),
        "-0": np.full(g.node_shape, -0.0),
        "mixed zeros": np.where(rng.random(g.node_shape) < 0.5, 0.0, -0.0),
        "smooth": np.cos(rho) * (1.0 + 0.3 * np.sin(rho) * np.cos(phi)),
        "odd": rho**5 * np.cos(phi) + rho**3 * np.sin(2 * phi),
    }
    oracle = copy.copy(g)
    oracle.d_rho = lambda values, order=1: d_rho_by_csr(g, values, order)
    for name, values in fields.items():
        for order in (1, 2):
            assert g.d_rho(values, order).tobytes() == oracle.d_rho(values, order).tobytes(), \
                (name, order)
        assert tensor_bytes(capaf.a_of(g, values)) == tensor_bytes(capaf.a_of(oracle, values)), name


@pytest.mark.parametrize("shape", [(8, 8), (16, 24), (128, 130)], ids="{0[0]}x{0[1]}".format)
@pytest.mark.parametrize("theta", [0.05, 1.2, 3.0])
def test_boundary_row_keeps_all_six_weights(theta, shape):
    # Stencils drop zero weights; the contact-angle row must still hold one
    # weight per row of the last EDGE_POINTS, the plain one-sided Fornberg row.
    g = capaf.build_grid(theta, *shape)
    want = fornberg_weights(np.arange(1 - EDGE_POINTS, 1) * g.drho, 0.0, 1)[:, 1]
    assert g.boundary_weights.shape == (EDGE_POINTS,)
    assert g.boundary_weights.tobytes() == want.tobytes()


def test_fornberg_stencil_rejects_bad_order():
    with pytest.raises(ValueError, match="deriv"):
        fornberg(12, 0.1, 3, 8)
