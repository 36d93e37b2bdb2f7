"""Finite-difference stencils and quadrature weights on the offset radial lattice.

The radial lattice is rho_j = (j + 1/2) * drho for j = 0..n_rho, with the last
node landing exactly on the contact latitude.  Nothing here knows about the
sphere; this module only manipulates 1-D node sets with uniform spacing.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

# Stencil widths.  CENTER_HALF=2 gives the 5-point 4th-order interior stencil;
# EDGE_POINTS=6 keeps one-sided closures at 4th order for second derivatives.
CENTER_HALF = 2
EDGE_POINTS = 6
QUAD_WINDOW = 6


def fornberg_weights(x: np.ndarray, x0: float, max_deriv: int) -> np.ndarray:
    """Weights of derivatives 0..max_deriv at x0 from samples at nodes x.

    Classic recursive algorithm; returns array of shape (len(x), max_deriv+1)
    whose column k holds the weights of the k-th derivative.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    c = np.zeros((n, max_deriv + 1))
    c1 = 1.0
    c4 = x[0] - x0
    c[0, 0] = 1.0
    for i in range(1, n):
        mn = min(i, max_deriv)
        c2 = 1.0
        c5 = c4
        c4 = x[i] - x0
        for j in range(i):
            c3 = x[i] - x[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[i, k] = c1 * (k * c[i - 1, k - 1] - c5 * c[i - 1, k]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[j, k] = (c4 * c[j, k] - k * c[j, k - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c


def panel_weights(nodes: np.ndarray, a, b) -> np.ndarray:
    """Interpolatory weights: sum_k w_k p(x_k) == integral_a^b p for deg(p) < len(nodes).

    Solved through a scaled monomial Vandermonde system; the node windows used
    here are small (6 points), so conditioning is not a concern.  nodes may be
    a stack of windows, shape (..., n), with one a and b per window: the
    systems are solved in one batched call, each as it would be alone.
    """
    nodes = np.asarray(nodes, dtype=float)
    n = nodes.shape[-1]
    first, last = nodes[..., :1], nodes[..., -1:]
    center = 0.5 * (first + last)
    scale = np.maximum(0.5 * (last - first), 1e-300)
    t = (nodes - center) / scale
    ta = (np.asarray(a, dtype=float)[..., None] - center) / scale
    tb = (np.asarray(b, dtype=float)[..., None] - center) / scale
    powers = np.arange(n)
    vander = t[..., None, :] ** powers[:, None]
    moments = scale * (tb ** (powers + 1) - ta ** (powers + 1)) / (powers + 1)
    return np.linalg.solve(vander, moments[..., None])[..., 0]


def radial_quadrature(rho: np.ndarray, drho: float) -> np.ndarray:
    """Weights w with sum_j w_j g(rho_j) ~ integral_0^theta g(rho) drho.

    Composite interpolatory rule over 6-node sliding windows, order ~6.  The
    plain midpoint weight drho per node is only 2nd-order accurate, which is
    not enough for the 1e-6 closed-form volume anchors on a 128x128 grid; the
    windowed rule keeps the bulk weights equal to drho and only perturbs the
    few nodes near rho=0 and rho=theta.  All panels are solved in one batch
    and added in panel order, so each weight is the same sum as panel by
    panel.
    """
    rho = np.asarray(rho, dtype=float)
    n = rho.size
    if n < QUAD_WINDOW:
        raise ValueError(f"radial rule needs at least {QUAD_WINDOW} nodes, got {n}")
    # Panel 0 is the cap between the axis and the first node (extrapolatory
    # but only drho/2 wide); panel j + 1 spans [rho_j, rho_{j+1}].
    lo = np.concatenate([[0], np.clip(np.arange(n - 1) - 2, 0, n - QUAD_WINDOW)])
    windows = lo[:, None] + np.arange(QUAD_WINDOW)
    w = np.zeros(n)
    np.add.at(w, windows, panel_weights(rho[windows], np.append(0.0, rho[:-1]), rho))
    if np.any(w <= 0.0):
        raise ValueError("radial quadrature produced non-positive weights")
    return w


def stencil_table(n_nodes: int, drho: float, deriv: int) -> list[list[tuple[int, float]]]:
    """Per-row stencil entries (col, weight) for d^deriv/drho^deriv.

    Rows near rho=0 reach across the pole: a negative col names the ghost node
    at -(g+1/2)*drho with g = -1-col, which holds the value of node g on the
    antipodal meridian (see :class:`RadialStencil`).  The last two rows are
    closed with 6-point one-sided stencils.
    """
    if deriv not in (1, 2):
        raise ValueError("deriv must be 1 or 2")
    R = n_nodes
    offs = np.arange(-CENTER_HALF, CENTER_HALF + 1)
    centered = fornberg_weights(offs * drho, 0.0, deriv)[:, deriv]
    rows = []
    for j in range(R):
        if j <= R - 1 - CENTER_HALF:
            rows.append([(j + int(o), float(c)) for o, c in zip(offs, centered)])
        else:
            idx = np.arange(R - EDGE_POINTS, R)
            w = fornberg_weights((idx - j) * drho, 0.0, deriv)[:, deriv]
            rows.append([(int(k), float(c)) for k, c in zip(idx, w)])
    return rows


class RadialStencil(NamedTuple):
    """An (n_nodes, n_nodes) radial operator of stencil_table, split for
    numpy stencil sums.

    Rows CENTER_HALF..n_nodes-1-CENTER_HALF all take the centred stencil
    ``centre`` over source rows j-CENTER_HALF..j+CENTER_HALF.  The other
    rows, the CENTER_HALF pole rows and then the CENTER_HALF edge rows, take
    ``rim`` over the source rows ``sources`` (ascending), dense with zeros
    where a row has no entry.  A pole row j also takes ``mirror[j, g]``
    times ghost node g, node g on the antipodal meridian, so on a field V of
    shape (n_nodes, n_phi) the operator is its plain part plus
    mirror @ roll(V[:CENTER_HALF], n_phi // 2, axis=1).
    """

    centre: np.ndarray
    rim: np.ndarray
    sources: np.ndarray
    mirror: np.ndarray


def radial_stencil(rows, n_nodes: int) -> RadialStencil:
    """The RadialStencil of stencil_table's rows; repeated entries are summed."""
    H = CENTER_HALF
    plain = np.zeros((2 * H, n_nodes))
    mirror = np.zeros((H, H))
    for i, j in enumerate([*range(H), *range(n_nodes - H, n_nodes)]):
        for col, w in rows[j]:
            if col < 0:
                mirror[j, -1 - col] += w
            else:
                plain[i, col] += w
    sources = np.flatnonzero(plain.any(axis=0))
    return RadialStencil(np.array([w for _, w in rows[H]]), plain[:, sources], sources, mirror)
