"""Geodesic polar grid on a spherical cap, with derivatives and quadrature.

The cap is the set of unit outward normals attainable by a convex surface
meeting the horizontal floor at a fixed angle theta; intrinsically it is a
geodesic ball of radius theta in the round 2-sphere.  Scalar fields are plain
float64 arrays of shape (n_rho + 1, n_phi): radial index slow, azimuthal index
fast.  Symmetric-tensor fields carry two extra trailing axes of length 2 and
store components in the orthonormal frame (e_rho, e_phi).

Node layout: rho_j = (j + 1/2) * drho with drho = theta / (n_rho + 1/2), so the
pole is never a node and the last row sits exactly on the boundary circle
rho = theta.  Azimuthal nodes are the n_phi equispaced angles on [0, 2*pi).
Radial derivatives are sparse stencils in physical space; near the pole they
reach across it to the antipodal meridian, a half-turn roll of the field.  They
use no BLAS or FFT.  Azimuthal derivatives are Fourier.
"""

from __future__ import annotations

import numpy as np

from ._stencil import CENTER_HALF, EDGE_POINTS, radial_quadrature, stencil_pair, stencil_table

MIN_RHO = 8
MIN_PHI = 8

# Certification gate for the Robin boundary condition, relative to the field's
# sup norm.  Deliberately loose: it separates structurally incompatible data
# (violations scale with cot(theta), order one) from discretisation noise on
# the coarsest supported grids.  Sharp statements are made by the
# refinement-order tests, not by this gate.
ROBIN_GATE = 5e-2


class CapGrid:
    """Tensor-product grid on the cap; build through :func:`build_grid`.

    Attributes of note: ``rho_nodes`` (shape (n_rho+1,)), ``phi_nodes``
    (shape (n_phi,)), ``quad_weights`` (node weights for surface integrals,
    shape (n_rho+1, n_phi)), ``boundary_index`` (radial index of the boundary
    row) and ``boundary_weights`` (the first radial derivative on that row,
    one weight per row of the last ``EDGE_POINTS``).  The quadrature weights
    are strictly positive and sum to the cap area up to quadrature accuracy.
    """

    def __init__(self, theta: float, n_rho: int, n_phi: int):
        theta = float(theta)
        if not np.isfinite(theta) or not (0.0 < theta < np.pi):
            raise ValueError(f"invalid contact angle theta={theta!r}: need 0 < theta < pi")
        if int(n_rho) != n_rho or int(n_phi) != n_phi:
            raise ValueError("grid sizes must be integers")
        n_rho, n_phi = int(n_rho), int(n_phi)
        if n_rho < MIN_RHO or n_phi < MIN_PHI:
            raise ValueError(
                f"grid too coarse: need n_rho >= {MIN_RHO} and n_phi >= {MIN_PHI}, "
                f"got {n_rho}x{n_phi}"
            )
        if n_phi % 2 != 0:
            raise ValueError(f"n_phi must be even, got {n_phi}")

        self.theta = theta
        self.n_rho = n_rho
        self.n_phi = n_phi
        self.drho = theta / (n_rho + 0.5)
        self.dphi = 2.0 * np.pi / n_phi
        rho = (np.arange(n_rho + 1) + 0.5) * self.drho
        rho[-1] = theta
        self.rho_nodes = rho
        self.phi_nodes = np.arange(n_phi) * self.dphi
        self.boundary_index = n_rho

        self.sin_rho = np.sin(rho)
        self.cos_rho = np.cos(rho)
        self.cot_rho = self.cos_rho / self.sin_rho
        self.cos_theta = float(np.cos(theta))
        self.sin_theta = float(np.sin(theta))
        self.cot_theta = self.cos_theta / self.sin_theta

        w_rho = radial_quadrature(rho, self.drho)
        self.quad_weights = np.outer(w_rho * self.sin_rho, np.full(n_phi, self.dphi))

        R = n_rho + 1
        tables = {d: stencil_table(R, self.drho, d) for d in (1, 2)}
        pairs = {d: stencil_pair(rows, R) for d, rows in tables.items()}
        # Ghost nodes occur only in the first CENTER_HALF rows, and they are
        # nodes 0..CENTER_HALF-1 on the antipodal meridian.
        self._radial = {d: (p, m[:CENTER_HALF, :CENTER_HALF]) for d, (p, m) in pairs.items()}
        # 6-point one-sided first derivative on the boundary row (boundary
        # row last): the one stencil of the contact-angle condition.
        self.boundary_weights = np.array([w for _, w in tables[1][-1]])
        k = np.arange(n_phi // 2 + 1)
        self._sym_d1 = 1j * k.astype(float)
        self._sym_d1[-1] = 0.0  # Nyquist mode has no well-defined odd derivative
        self._sym_d2 = -(k.astype(float) ** 2)

    # -- shapes ----------------------------------------------------------
    @property
    def node_shape(self) -> tuple[int, int]:
        return (self.n_rho + 1, self.n_phi)

    def check_field(self, values: np.ndarray) -> np.ndarray:
        """Node values as a float array; rejects a wrong shape and NaN or inf."""
        values = np.asarray(values, dtype=float)
        if values.shape != self.node_shape:
            raise ValueError(f"field shape {values.shape} does not match grid {self.node_shape}")
        if not np.isfinite(values).all():
            raise ValueError("field holds non-finite values")
        return values

    # -- derivative engines ----------------------------------------------
    # The engines take float arrays that a public entry point (a_of,
    # surface_gradient, robin_residual, CapillaryField) has already checked.
    def d_rho(self, values: np.ndarray, order: int = 1) -> np.ndarray:
        """Radial derivative, 4th order; the pole is crossed by a half-turn roll.

        Sparse products only, no BLAS or FFT, so the result does not depend on
        the BLAS thread count.
        """
        plain, mirror = self._radial[order]
        out = plain @ values
        out[:CENTER_HALF] += mirror @ np.roll(values[:CENTER_HALF], self.n_phi // 2, axis=1)
        return out

    def boundary_d_rho(self, values: np.ndarray) -> np.ndarray:
        """First radial derivative on the boundary row only (6-point one-sided);
        a 1-D radial profile gives its one boundary value."""
        w, rows = self.boundary_weights, values[-EDGE_POINTS:]
        return sum((c * row for c, row in zip(w[1:], rows[1:])), w[0] * rows[0])

    def d_phi(self, values: np.ndarray, order: int = 1) -> np.ndarray:
        """Azimuthal derivative by Fourier differentiation."""
        return self.d_phi_orders(values, (order,))[0]

    def d_phi_orders(self, values: np.ndarray, orders) -> list[np.ndarray]:
        """Azimuthal derivatives of several orders from one forward transform."""
        F = np.fft.rfft(values, axis=1)
        return [np.fft.irfft(F * (self._sym_d1 if order == 1 else self._sym_d2),
                             n=self.n_phi, axis=1) for order in orders]

    # -- quadrature --------------------------------------------------------
    def integrate(self, values: np.ndarray) -> float:
        """Surface integral over the cap; numpy pairwise summation keeps the
        reduction order fixed, so repeated calls are bit-identical."""
        return float(np.sum(self.check_field(values) * self.quad_weights))

    def __repr__(self) -> str:  # pragma: no cover
        return f"CapGrid(theta={self.theta:.6g}, n_rho={self.n_rho}, n_phi={self.n_phi})"


def build_grid(theta: float, n_rho: int, n_phi: int) -> CapGrid:
    """Validated grid constructor; see :class:`CapGrid` for the layout."""
    return CapGrid(theta, n_rho, n_phi)


def surface_gradient(grid: CapGrid, values: np.ndarray) -> np.ndarray:
    """Intrinsic gradient in the orthonormal frame; shape (R, P, 2)."""
    values = grid.check_field(values)
    out = np.empty(grid.node_shape + (2,))
    out[..., 0] = grid.d_rho(values, 1)
    out[..., 1] = grid.d_phi(values, 1) / grid.sin_rho[:, None]
    return out


def a_of(grid: CapGrid, values: np.ndarray) -> np.ndarray:
    """Shape tensor Hess(f) + f * metric; convexity means this is positive.

    The covariant Hessian on the round sphere, in orthonormal components:
    (rho,rho):  d2f/drho2
    (rho,phi):  (d2f/drho dphi - cot(rho) df/dphi) / sin(rho)
    (phi,phi):  d2f/dphi2 / sin2(rho) + cot(rho) df/drho
    Radial derivatives are 4th-order finite differences (one-sided closures on
    the boundary row); azimuthal ones are spectral.
    """
    values = grid.check_field(values)
    f_r = grid.d_rho(values, 1)
    f_rr = grid.d_rho(values, 2)
    f_p, f_pp = grid.d_phi_orders(values, (1, 2))
    f_rp = grid.d_rho(f_p, 1)
    sin = grid.sin_rho[:, None]
    cot = grid.cot_rho[:, None]
    f_pp /= sin**2
    f_pp += cot * f_r
    f_rr += values
    f_pp += values
    out = np.empty(grid.node_shape + (2, 2))
    out[..., 0, 0] = f_rr
    out[..., 0, 1] = (f_rp - cot * f_p) / sin
    out[..., 1, 0] = out[..., 0, 1]
    out[..., 1, 1] = f_pp
    return out


def tensor_eigenvalues(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pointwise (smaller, larger) eigenvalues of symmetric 2x2 tensor fields."""
    mean = 0.5 * (A[..., 0, 0] + A[..., 1, 1])
    rad = np.sqrt((0.5 * (A[..., 0, 0] - A[..., 1, 1])) ** 2 + A[..., 0, 1] ** 2)
    return mean - rad, mean + rad


def robin_residual(grid: CapGrid, values: np.ndarray) -> np.ndarray:
    """Boundary defect d f/d rho - cot(theta) f on the row rho = theta.

    Returns one value per azimuthal node; identically small exactly for fields
    compatible with the prescribed contact angle.
    """
    values = grid.check_field(values)
    return grid.boundary_d_rho(values) - grid.cot_theta * values[grid.boundary_index, :]
