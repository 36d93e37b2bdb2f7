"""Lattice stencils and quadrature weights on the offset radial lattice.

The radial lattice is rho_j = (j + 1/2) * drho for j = 0..n_rho, with the last
node landing exactly on the contact latitude.  Every lattice operator is a
:class:`Stencil`, its entries sorted by row; rows near rho=0 reach across the
pole to the antipodal meridian.  One builder, :func:`banded`, makes the radial
operators: a centred band plus closure rows at rho=theta.  The grid's
Fornberg derivatives (:func:`fornberg`) and the pencil's summation-by-parts
derivative and norm (:func:`sbp`) both come from it.  Nothing here knows
about the sphere; this module only manipulates node sets with uniform
spacing.
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


class Stencil(NamedTuple):
    """A lattice operator as its entries, sorted by row.

    (G f)(i, j) is the sum, over the entries e with row[e] == i, of
    weight[e] * f(col[e], j + shift[e]), with j + shift[e] taken mod n_phi:
    a radial stencil with an azimuthal offset per entry.  The pole mirror is
    the offset n_phi/2.
    """

    row: np.ndarray
    col: np.ndarray
    shift: np.ndarray
    weight: np.ndarray


def radial(row, col, weight, n_phi: int) -> Stencil:
    """Radial entries; a negative col names the ghost node -1 - col, which
    holds that node's value on the antipodal meridian.  Zeros are dropped."""
    keep = weight != 0.0
    ghost = col < 0
    return Stencil(row[keep], np.where(ghost, -1 - col, col)[keep],
                   np.where(ghost, n_phi // 2, 0)[keep], weight[keep])


def azimuthal(rows, offsets, weights) -> Stencil:
    """The periodic stencil weights[r, k] at offsets[k] on each row rows[r]."""
    k = len(offsets)
    return Stencil(np.repeat(rows, k), np.repeat(rows, k),
                   np.tile(offsets, len(rows)), np.reshape(weights, -1))


def banded(n: int, centre, closure, n_phi: int) -> Stencil:
    """An n-row radial operator: a centred band plus closure rows.

    Each of the first n - m rows j takes centre[k] at column j + k - h, h =
    len(centre) // 2, reaching across the pole near rho=0.  The last m rows
    close it: row n - m + i takes closure[i, c] at column n - w + c, for the
    m x w array closure.  Zeros are dropped.
    """
    (m, w), h = closure.shape, len(centre) // 2
    inner = np.arange(n - m)
    row = np.concatenate([np.repeat(inner, len(centre)), np.repeat(np.arange(n - m, n), w)])
    col = np.concatenate([(inner[:, None] + np.arange(-h, h + 1)).ravel(),
                          np.tile(np.arange(n - w, n), m)])
    return radial(row, col, np.concatenate([np.tile(centre, n - m), closure.ravel()]), n_phi)


def fornberg(n: int, drho: float, deriv: int, n_phi: int) -> Stencil:
    """d^deriv/drho^deriv on n nodes: the 5-point centred Fornberg stencil,
    and 6-point one-sided closures on the last CENTER_HALF rows."""
    if deriv not in (1, 2):
        raise ValueError("deriv must be 1 or 2")
    offs = np.arange(-CENTER_HALF, CENTER_HALF + 1)
    edge = np.arange(n - EDGE_POINTS, n)
    closure = np.array([fornberg_weights((edge - j) * drho, 0.0, deriv)[:, deriv]
                        for j in range(n - CENTER_HALF, n)])
    return banded(n, fornberg_weights(offs * drho, 0.0, deriv)[:, deriv], closure, n_phi)


# Strand's summation-by-parts first derivative (J. Comput. Phys. 110, 1994),
# interior order 4, with its diagonal norm (boundary order 2), edge rows for a
# left boundary.  The exact identity H D + D^T H = boundary makes the weak form
# adjoint-consistent at the contact ring, which one-sided closures are not:
# with them the top eigenvalue drifts at low order instead of O(drho^2).
SBP_D_EDGE = (
    (-24 / 17, 59 / 34, -4 / 17, -3 / 34),
    (-1 / 2, 0.0, 1 / 2),
    (4 / 43, -59 / 86, 0.0, 59 / 86, -4 / 43),
    (3 / 98, 0.0, -59 / 98, 0.0, 32 / 49, -4 / 49),
)
SBP_H_EDGE = (17 / 48, 59 / 48, 43 / 48, 49 / 48)
SBP_CENTER = (1 / 12, -2 / 3, 0.0, 2 / 3, -1 / 12)


def sbp(n: int, drho: float, n_phi: int) -> tuple[Stencil, np.ndarray]:
    """The summation-by-parts derivative on n nodes, and its diagonal norm.

    Rows near rho=0 stay centred and reach across the pole; the last six
    columns of the last four rows take the edge rows, reversed and negated.
    """
    closure = np.array([(0.0,) * (6 - len(edge)) + edge[::-1] for edge in reversed(SBP_D_EDGE)])
    # The norm is diagonal: one entry per row, in row order.
    norm = banded(n, [drho], np.diag(SBP_H_EDGE[::-1]) * drho, n_phi).weight
    return banded(n, np.array(SBP_CENTER) / drho, -closure / drho, n_phi), norm


def on_rows(rows: np.ndarray, st: Stencil, n_rows: int) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (i, b) with st.row[b] == rows[i]: each i with every entry
    of st on its row, i ascending."""
    per_row = np.bincount(st.row, minlength=n_rows)
    reps = per_row[rows]
    i = np.repeat(np.arange(rows.size), reps)
    b = ((np.cumsum(per_row) - per_row)[rows[i]] + np.arange(i.size)
         - np.repeat(np.cumsum(reps) - reps, reps))
    return i, b


class RadialStencil(NamedTuple):
    """A radial Stencil on n_nodes rows, split for numpy stencil sums.

    Rows CENTER_HALF..n_nodes-1-CENTER_HALF take the centred weights
    ``centre`` over source rows j-CENTER_HALF..j+CENTER_HALF.  The CENTER_HALF
    pole rows and then the CENTER_HALF edge rows take ``rim`` over the source
    rows ``sources`` (ascending), zero where a row has no entry.  A pole row j
    also takes ``mirror[j, g]`` times ghost node g, node g on the antipodal
    meridian: on a field V of shape (n_nodes, n_phi) the operator is its
    plain part plus mirror @ roll(V[:CENTER_HALF], n_phi // 2, axis=1).
    """

    centre: np.ndarray
    rim: np.ndarray
    sources: np.ndarray
    mirror: np.ndarray

    @classmethod
    def of(cls, st: Stencil, n_nodes: int) -> RadialStencil:
        H = CENTER_HALF
        # Dense rows: the plain part, then the ghost entries of the pole rows.
        dense = np.zeros((n_nodes + H, n_nodes))
        dense[st.row + n_nodes * (st.shift != 0), st.col] = st.weight
        rim = dense[np.r_[:H, n_nodes - H:n_nodes]]
        sources = np.flatnonzero(rim.any(axis=0))
        return cls(dense[H, :2 * H + 1].copy(), rim[:, sources], sources,
                   dense[n_nodes:, :H].copy())
