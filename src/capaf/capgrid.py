"""Geodesic polar grid on a spherical cap, with derivatives and quadrature.

The cap is the set of unit outward normals attainable by a convex surface
meeting the horizontal floor at a fixed angle theta; intrinsically it is a
geodesic ball of radius theta in the round 2-sphere.  Scalar fields are plain
float64 arrays of shape (n_rho + 1, n_phi): radial index slow, azimuthal index
fast.  A symmetric 2x2 tensor field is a ShapeTensor: three such arrays, its
components rr, rp and pp in the orthonormal frame (e_rho, e_phi), with the
off-diagonal stored once.

Node layout: rho_j = (j + 1/2) * drho with drho = theta / (n_rho + 1/2), so the
pole is never a node and the last row sits exactly on the boundary circle
rho = theta.  Azimuthal nodes are the n_phi equispaced angles on [0, 2*pi).
Radial derivatives are Fornberg finite-difference stencils, ``_stencil``
Stencils from the banded builder that also makes the spectral pencil's; near
the pole they reach across it to the antipodal meridian, a half-turn roll of
the field.  They are numpy stencil sums in a fixed order, with no BLAS, FFT
or scipy.  Azimuthal derivatives are Fourier.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ._stencil import CENTER_HALF, EDGE_POINTS, RadialStencil, fornberg, radial_quadrature

MIN_RHO = 8
MIN_PHI = 8
# Largest node count (n_rho+1)*n_phi: a field of 2**24 float64 nodes is 128 MiB,
# and a_of holds four such arrays at once.  Checked before any size becomes a
# float or an array.
MAX_NODES = 2**24

# Certification gate for the Robin boundary condition, relative to the field's
# sup norm.  Deliberately loose: it separates structurally incompatible data
# (violations scale with cot(theta), order one) from discretisation noise on
# the coarsest supported grids.  Sharp statements are made by the
# refinement-order tests, not by this gate.
ROBIN_GATE = 5e-2


def check_grid(theta, n_rho, n_phi) -> tuple[float, int, int]:
    """(theta, n_rho, n_phi) as a CapGrid takes them, or a ValueError naming the
    first rule broken: 0 < theta < pi, n_rho >= MIN_RHO, n_phi >= MIN_PHI,
    (n_rho+1)*n_phi <= MAX_NODES and an even n_phi."""
    theta = float(theta)
    if not np.isfinite(theta) or not (0.0 < theta < np.pi):
        raise ValueError(f"invalid contact angle theta={theta!r}: need 0 < theta < pi")
    if int(n_rho) != n_rho or int(n_phi) != n_phi:
        raise ValueError("grid sizes must be integers")
    n_rho, n_phi = int(n_rho), int(n_phi)
    if n_rho < MIN_RHO or n_phi < MIN_PHI:
        raise ValueError(f"grid too coarse: need n_rho >= {MIN_RHO} and n_phi >= {MIN_PHI}, "
                         f"got {n_rho}x{n_phi}")
    if (n_rho + 1) * n_phi > MAX_NODES:
        raise ValueError(f"grid too large: need (n_rho+1)*n_phi <= {MAX_NODES} nodes")
    if n_phi % 2 != 0:
        raise ValueError(f"n_phi must be even, got {n_phi}")
    return theta, n_rho, n_phi


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
        theta, n_rho, n_phi = check_grid(theta, n_rho, n_phi)
        self.theta, self.n_rho, self.n_phi = theta, n_rho, n_phi
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
        stencils = {d: fornberg(R, self.drho, d, n_phi) for d in (1, 2)}
        self._radial = {d: RadialStencil.of(st, R) for d, st in stencils.items()}
        # 6-point one-sided first derivative on the boundary row (boundary
        # row last): the one stencil of the contact-angle condition.
        self.boundary_weights = stencils[1].weight[stencils[1].row == n_rho]
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

        Numpy stencil sums, no BLAS or FFT, so the result does not depend on
        the BLAS thread count.  Each output row sums its entries from +0.0 in
        ascending source row, and a pole row adds its mirror part, summed on
        its own: the bytes of the products by a sorted CSR pair
        (plain @ V + mirror @ roll(V)).
        """
        st = self._radial[order]
        H = CENTER_HALF
        values = np.ascontiguousarray(values)
        R, P = values.shape
        out = np.empty((R, P))
        # Centred rows: window[r, :, k] is source row r + k, with no copy.
        window = np.ndarray((R - 2 * H, P, 2 * H + 1), dtype=float, buffer=values,
                            strides=(values.strides[0], values.strides[1], values.strides[0]))
        np.einsum("rpk,k->rp", window, st.centre, out=out[H:R - H], optimize=False)
        rim = np.einsum("ik,kp->ip", st.rim, values[st.sources], optimize=False)
        turned = np.empty((H, P))
        turned[:, :P // 2] = values[:H, P // 2:]
        turned[:, P // 2:] = values[:H, :P // 2]
        np.add(rim[:H], np.einsum("ik,kp->ip", st.mirror, turned, optimize=False), out=out[:H])
        out[R - H:] = rim[H:]
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


class ShapeTensor(NamedTuple):
    """Symmetric 2x2 tensor field in the frame (e_rho, e_phi), one plane per
    component: rr = (rho,rho), rp = (rho,phi) = (phi,rho), pp = (phi,phi).
    Each plane is a node-shaped array, or one meridian of it (see
    capfun._cap_meridian_tensor); a_of's planes are C-contiguous and distinct."""

    rr: np.ndarray
    rp: np.ndarray
    pp: np.ndarray


def a_of(grid: CapGrid, values: np.ndarray) -> ShapeTensor:
    """Shape tensor Hess(f) + f * metric; convexity means this is positive.

    The covariant Hessian on the round sphere, in orthonormal components:
    (rho,rho):  d2f/drho2
    (rho,phi):  (d2f/drho dphi - cot(rho) df/dphi) / sin(rho)
    (phi,phi):  d2f/dphi2 / sin2(rho) + cot(rho) df/drho
    Radial derivatives are 4th-order finite differences (one-sided closures on
    the boundary row); azimuthal ones are spectral.  The derivative arrays
    become the planes in place, so the call holds no full-grid temporary
    beyond them: at most four node-shaped arrays are alive at once.
    """
    values = grid.check_field(values)
    sin = grid.sin_rho[:, None]
    cot = grid.cot_rho[:, None]
    f_p, f_pp = grid.d_phi_orders(values, (1, 2))
    f_pp /= sin**2
    f_r = grid.d_rho(values, 1)
    f_r *= cot
    f_pp += f_r
    del f_r
    f_pp += values
    f_rr = grid.d_rho(values, 2)
    f_rr += values
    f_rp = grid.d_rho(f_p, 1)
    f_p *= cot
    f_rp -= f_p
    f_rp /= sin
    return ShapeTensor(f_rr, f_rp, f_pp)


def tensor_eigenvalues(A: ShapeTensor) -> tuple[np.ndarray, np.ndarray]:
    """Pointwise (smaller, larger) eigenvalues of a symmetric 2x2 tensor field."""
    mean = 0.5 * (A.rr + A.pp)
    half = 0.5 * (A.rr - A.pp)
    rad = _radius(half, A.rp)
    return mean - rad, mean + rad


def min_eigenvalue(A: ShapeTensor) -> float:
    """The smallest eigenvalue over all nodes: the minimum of
    tensor_eigenvalues(A)[0], bit for bit, from three full-size buffers."""
    half = np.subtract(A.rr, A.pp)
    half *= 0.5
    rad = _radius(half, A.rp)
    mean = np.add(A.rr, A.pp)
    mean *= 0.5
    mean -= rad
    return float(np.min(mean))


def _radius(half: np.ndarray, rp: np.ndarray) -> np.ndarray:
    """sqrt(half^2 + rp^2), and np.hypot, which squares nothing, where the
    squares overflow."""
    with np.errstate(over="ignore"):
        rad = half * half
        rad += rp * rp
        np.sqrt(rad, out=rad)
    if np.isinf(rad).any():
        rad = np.where(np.isinf(rad), np.hypot(half, rp), rad)
    return rad


def robin_residual(grid: CapGrid, values: np.ndarray) -> np.ndarray:
    """Boundary defect d f/d rho - cot(theta) f on the row rho = theta.

    Returns one value per azimuthal node; identically small exactly for fields
    compatible with the prescribed contact angle.
    """
    values = grid.check_field(values)
    return grid.boundary_d_rho(values) - grid.cot_theta * values[grid.boundary_index, :]
