"""Embedding of a convex body from its support function on the cap.

The body's boundary surface is recovered node by node as

    X = grad(h) + h * nu,   nu(rho, phi) = (sin rho cos phi, sin rho sin phi, cos rho),

with grad(h) expanded in the orthonormal tangent frame of the cap point.  The
third coordinate is height above the supporting plane {z = 0}; the reference
direction of the contact-angle condition points downward, so the condition on
the boundary ring reads nu_z = cos(theta) exactly.  The embedded patch doubles
as an independent oracle for enclosed volume and for the boundary-term form of
the quermassintegrals.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._floattext import float_lines
from .capgrid import CapGrid, surface_gradient
from .capfun import CapillaryField, as_field
from .mixedvol import h_k_field

# Relative area floor below which a triangle counts as degenerate.
DEGENERATE_AREA = 1e-16


@dataclass
class EmbeddedPatch:
    """Triangulated embedded surface with per-node normals.

    support is the support function the patch was built from (the body itself
    when embed is given one); positions and normals
    are (n_rho+1, n_phi, 3); triangles index the row-major flattening of the
    node array.  A polygon fan closes the pole hole inside the first node
    ring, so the mesh is a topological disk bounded by the contact ring.
    """

    grid: CapGrid
    support: CapillaryField
    positions: np.ndarray
    normals: np.ndarray
    triangles: np.ndarray
    degenerate_triangles: list[int] = field(default_factory=list)

    @property
    def flat_positions(self) -> np.ndarray:
        return self.positions.reshape(-1, 3)

    @property
    def flat_normals(self) -> np.ndarray:
        return self.normals.reshape(-1, 3)


def _triangulate(n_rows: int, n_phi: int) -> np.ndarray:
    """_corners' triangles, (n_triangles, 3), as row-major node indices."""
    lattice = np.arange(n_rows * n_phi, dtype=np.int64).reshape(n_rows, n_phi, 1)
    return _corners(lattice)[..., 0].T.copy()


def embed(grid: CapGrid, body) -> EmbeddedPatch:
    """Embed a body from its support function; accepts a body or raw values."""
    support = as_field(grid, body)
    h = support.values
    grad = surface_gradient(grid, h)
    cosr = grid.cos_rho[:, None]
    sinr = grid.sin_rho[:, None]
    cosp = np.cos(grid.phi_nodes)[None, :]
    sinp = np.sin(grid.phi_nodes)[None, :]

    e_rho = np.stack([cosr * cosp, cosr * sinp, -sinr * np.ones_like(cosp)], axis=-1)
    e_phi = np.stack(
        [np.broadcast_to(-sinp, h.shape), np.broadcast_to(cosp, h.shape),
         np.zeros_like(h)], axis=-1)
    nu = np.stack([sinr * cosp, sinr * sinp, cosr * np.ones_like(cosp)], axis=-1)

    positions = grad[..., 0:1] * e_rho + grad[..., 1:2] * e_phi + h[..., None] * nu
    patch = EmbeddedPatch(grid, support, positions, nu,
                          _triangulate(grid.n_rho + 1, grid.n_phi))
    patch.degenerate_triangles = _find_degenerate(patch)
    return patch


def _corners(lattice: np.ndarray) -> np.ndarray:
    """The corners of the patch's triangles, (3, n_triangles, W), sliced from
    an (R, P, W) node lattice of any payload width W and dtype.

    The fan over the pole hole comes first: ring 0 is a small convex polygon
    around the pole, fanned from its vertex 0.  Each quad between rings j and
    j+1 follows, split into two triangles and listed quad by quad in
    row-major order: with lo = (j, i), hi = (j+1, i) and lo_next, hi_next
    their neighbours at i+1, (lo, hi, hi_next) and (lo, hi_next, lo_next).
    Every triangle is in outward (counterclockwise) order.
    """
    fan = lattice.shape[1] - 2
    lo, hi = lattice[:-1], lattice[1:]
    out = np.empty((3, fan + 2 * lo.shape[0] * lo.shape[1], lattice.shape[2]), lattice.dtype)
    out[0, :fan] = lattice[0, 0]
    out[1, :fan] = lattice[0, 1:-1]
    out[2, :fan] = lattice[0, 2:]
    quads = out[:, fan:].reshape(3, *lo.shape[:2], 2, -1)
    for corner, tri, node in ((0, 0, lo), (0, 1, lo), (1, 0, hi)):
        quads[corner, :, :, tri] = node
    for corner, tri, node in ((1, 1, hi), (2, 0, hi), (2, 1, lo)):
        quads[corner, :, :-1, tri] = node[:, 1:]
        quads[corner, :, -1, tri] = node[:, 0]
    return out


def _find_degenerate(patch: EmbeddedPatch) -> list[int]:
    p0, p1, p2 = _corners(patch.positions)
    cross = np.cross(p1 - p0, p2 - p0)
    areas = 0.5 * np.linalg.norm(cross, axis=1)
    scale = float(np.max(np.abs(patch.positions))) or 1.0
    return [int(i) for i in np.nonzero(areas <= DEGENERATE_AREA * scale**2)[0]]


def planarity_residual(patch: EmbeddedPatch) -> float:
    """Max |height| over the boundary ring; zero only if the Robin data holds."""
    return float(np.max(np.abs(patch.positions[patch.grid.boundary_index, :, 2])))


def interior_min_height(patch: EmbeddedPatch) -> float:
    """Smallest height over the non-boundary nodes; positive for valid bodies."""
    return float(np.min(patch.positions[: patch.grid.boundary_index, :, 2]))


def enclosed_volume(patch: EmbeddedPatch) -> float:
    """Volume between the patch and the plane via the divergence theorem.

    Sums signed tetrahedron volumes against the origin; the flat bottom face
    lies in {z = 0} where the position has no normal component, so it never
    contributes and only the curved patch is meshed.
    """
    p0, p1, p2 = _corners(patch.positions)
    dets = np.einsum("ij,ij->i", p0, np.cross(p1, p2))
    return float(np.sum(dets)) / 6.0


def boundary_form_quermass(patch: EmbeddedPatch, k: int) -> float:
    """Quermassintegral of index k+1 from surface plus boundary-ring integrals.

    The surface term pulls the k-th normalized symmetric curvature function
    back to the cap, where it turns into the (2-k)-th symmetric function of
    the shape tensor of the patch's support values.  The ring term needs
    arclength for k=1 and the signed planar curvature for k=2; the ring is
    traversed counterclockwise, so the curvature of a convex ring is positive.
    """
    if k not in (1, 2):
        raise ValueError(f"k must be 1 or 2, got {k}")
    grid = patch.grid
    surface = grid.integrate(h_k_field(grid, patch.support, 2 - k))

    # The ring's (x, y) rows, differentiated in phi by the grid's own symbols.
    ring = patch.positions[grid.boundary_index, :, :2].T
    d1, d2 = grid.d_phi_orders(ring, (1, 2))
    speed2 = np.einsum("ij,ij->j", d1, d1)
    if k == 1:
        ring_term = float(np.sum(np.sqrt(speed2))) * grid.dphi
    else:
        turning = (d1[0] * d2[1] - d1[1] * d2[0]) / speed2
        ring_term = float(np.sum(turning)) * grid.dphi
    prefactor = grid.cos_theta * grid.sin_theta**k / 2.0
    return (surface - prefactor * ring_term) / 3.0


# -- mesh I/O ------------------------------------------------------------------

def export_mesh(patch: EmbeddedPatch, path) -> None:
    """Write the patch as an ASCII OBJ file with full-precision floats.

    Lines are ``v x y z`` and ``vn x y z`` at %.17g, then ``f a//a b//b c//c``
    with 1-based indices.  The floats are written, byte for byte as
    ``'%.17g' % x`` writes them, by the numpy kernel of capaf._floattext: for
    1e-6 < |x| < 1e17 it takes the 17 digits from the exact (Dekker) product
    of |x| with a power of ten and lays them out as %g does, and every other
    value (zeros, subnormals, |x| <= 1e-6 or >= 1e17, non-finite) goes
    through Python's own '%.17g'.  It works on chunks of CHUNK_ROWS rows, so
    its buffers stay small beside the face block.  The face block is one
    ``%`` over a repeated line template, and each node's ``a//a`` token is
    formatted once and shared by the faces that use it.
    """
    n_nodes = len(patch.flat_positions)
    tokens = np.array(["%d//%d" % (i, i) for i in range(1, n_nodes + 1)], dtype=object)
    with open(path, "wb") as fh:
        fh.writelines(float_lines(patch.flat_positions, b"v"))
        fh.writelines(float_lines(patch.flat_normals, b"vn"))
        faces = "f %s %s %s\n" * len(patch.triangles)
        fh.write((faces % tuple(tokens[patch.triangles].ravel().tolist())).encode("ascii"))
