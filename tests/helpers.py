"""Shared fixtures-by-function for the test suite.

Grids, bodies and weighted spaces are memoized so the many tests that share a
configuration do not pay for repeated assembly.  Convergence studies use the
analytic bodies below, which are resolution independent by construction (the
coefficients do not depend on the grid), so refining the grid samples the same
continuum object.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

import capaf

MACHINE_FLOOR = 5e-13


@functools.lru_cache(maxsize=None)
def grid(theta: float, n_rho: int, n_phi: int) -> capaf.CapGrid:
    return capaf.build_grid(theta, n_rho, n_phi)


@functools.lru_cache(maxsize=None)
def cap_body(theta: float, n_rho: int, n_phi: int) -> capaf.CapillaryBody:
    return capaf.ell(grid(theta, n_rho, n_phi))


@functools.lru_cache(maxsize=None)
def seeded_body(theta: float, n_rho: int, n_phi: int, seed: int,
                amplitude: float = 0.25) -> capaf.CapillaryBody:
    return capaf.random_body(grid(theta, n_rho, n_phi), seed, amplitude=amplitude)


def tensor_bytes(tensor) -> tuple[bytes, ...]:
    """A shape tensor's bytes, one entry per plane (rr, rp, pp)."""
    return tuple(plane.tobytes() for plane in tensor)


def shape_tensor(packed: np.ndarray) -> capaf.ShapeTensor:
    """The ShapeTensor of symmetric 2x2 data packed as (..., 2, 2)."""
    return capaf.ShapeTensor(packed[..., 0, 0], packed[..., 0, 1], packed[..., 1, 1])


def random_neumann_datum_by_loop(grid, rng, mode_cap):
    """capfun._random_neumann_datum as a loop that adds one outer product per
    coefficient, drawn one at a time.  The reference whose summation order,
    and so whose bytes, the contraction must keep."""
    u = np.zeros(grid.node_shape)
    cosm = {m: np.cos(m * grid.phi_nodes) for m in range(mode_cap + 1)}
    sinm = {m: np.sin(m * grid.phi_nodes) for m in range(mode_cap + 1)}
    for m, prof in capaf.capfun._mode_profiles(grid, mode_cap):
        k_weight = 1.0 / (1.0 + m) ** 2
        a = rng.standard_normal() * k_weight
        u += a * prof[:, None] * cosm[m][None, :]
        if m > 0:
            b = rng.standard_normal() * k_weight
            u += b * prof[:, None] * sinm[m][None, :]
    top = float(np.max(np.abs(u)))
    if top > 0:
        u /= top
    return u


def random_body_by_halving(grid, seed, base_radius=1.0, amplitude=0.25, mode_cap=3):
    """capaf.random_body as the plain halving loop: a shape tensor for every
    amplitude tried, from the datum of the outer-product loop.  The reference
    that the two-tensor prediction and the datum's contraction must match."""
    capfun = capaf.capfun
    rng = np.random.default_rng(seed)
    u = random_neumann_datum_by_loop(grid, rng, mode_cap)
    lv = capfun.ell_values(grid)
    amp = float(amplitude)
    for _ in range(capfun.MAX_HALVINGS + 1):
        values = capfun.enforce_contact_angle(grid, base_radius * lv + amp * lv * u)
        body = capfun.CapillaryBody(grid, values, {
            "seed": int(seed),
            "params": {
                "base_radius": float(base_radius),
                "amplitude": float(amplitude),
                "effective_amplitude": amp,
                "mode_cap": int(mode_cap),
            },
        })
        if body.min_eig >= capfun.MARGIN * base_radius:
            return body
        amp *= 0.5
    raise RuntimeError("generation failed")


def apply(space: capaf.WeightedSpace, f) -> np.ndarray:
    """The weighted operator applied to f, pointwise through the grid derivatives."""
    return space.apply_tensor(capaf.capfun.as_field(space.grid, f).tensor)


def bilinear(space: capaf.WeightedSpace, f, g) -> float:
    """<f, A g>_omega; coincides with the mixed volume V(f, g, f2)."""
    return space.inner(capaf.capfun.as_field(space.grid, f).values, apply(space, g))


def symmetry_residual(grid: capaf.CapGrid, f1, f2, f3) -> float:
    """Max relative spread of V over the six argument orders.

    Vanishes (to discretization error) when all three fields satisfy the
    contact-angle condition; the boundary terms in the integration by parts
    do not cancel otherwise.
    """
    fields = [capaf.capfun.as_field(grid, f) for f in (f1, f2, f3)]

    def volume(i, j, k):
        return capaf.mixed_volume(grid, fields[i], (fields[j], fields[k]))

    v_id = volume(0, 1, 2)
    denom = max(abs(v_id), 1e-30)
    worst = 0.0
    for perm in itertools.permutations(range(3)):
        worst = max(worst, abs(volume(*perm) - v_id) / denom)
    return worst


@functools.lru_cache(maxsize=None)
def cap_space(theta: float, n_rho: int, n_phi: int) -> capaf.WeightedSpace:
    g = grid(theta, n_rho, n_phi)
    return capaf.WeightedSpace(g, cap_body(theta, n_rho, n_phi))


@functools.lru_cache(maxsize=None)
def smooth_body(theta: float, n_rho: int, n_phi: int) -> capaf.CapillaryBody:
    """Analytic convex perturbation of the cap, identical across resolutions."""
    g = grid(theta, n_rho, n_phi)
    rho = g.rho_nodes[:, None]
    phi = g.phi_nodes[None, :]
    # Radial profiles with vanishing slope on the contact ring, tapered by
    # sin^m across the pole.  The amplitudes carry a theta^2 factor because the
    # profile curvature grows like 1/theta^2; this keeps the convexity margin
    # uniform over opening angles.
    osc = np.cos(np.pi * rho / g.theta) - np.cos(3.0 * np.pi * rho / g.theta)
    p2 = np.sin(rho) ** 2 * osc
    p1 = np.sin(rho) * osc
    p0 = np.cos(np.pi * rho / g.theta)
    u = (0.003 * theta ** 2 * p2 * np.cos(2.0 * phi)
         + 0.002 * theta ** 2 * p1 * np.sin(phi)
         + 0.002 * theta ** 2 * p0)
    values = capaf.ell_values(g) * (1.0 + u)
    values = capaf.enforce_contact_angle(g, values)
    return capaf.certify(g, values, {"kind": "analytic-test-body"})


@functools.lru_cache(maxsize=None)
def smooth_field(theta: float, n_rho: int, n_phi: int) -> np.ndarray:
    """Analytic capillary (non-convex) field, identical across resolutions."""
    g = grid(theta, n_rho, n_phi)
    rho = g.rho_nodes[:, None]
    phi = g.phi_nodes[None, :]
    p1 = np.sin(rho) * (np.cos(np.pi * rho / g.theta)
                        - np.cos(3.0 * np.pi * rho / g.theta))
    u = 0.7 * p1 * np.sin(phi) + 0.4 * np.cos(2.0 * np.pi * rho / g.theta)
    values = capaf.ell_values(g) * (1.0 + u)
    return capaf.enforce_contact_angle(g, values)


def solid_cap_volume(theta: float) -> float:
    """Closed-form volume of the unit cap body resting at contact angle theta."""
    c = math.cos(theta)
    return math.pi * (1.0 - c) ** 2 * (2.0 + c) / 3.0


def observed_orders(errors, floor: float = MACHINE_FLOOR) -> list[float]:
    """log2 error ratios for a doubling sequence; inf once both sit at roundoff."""
    out = []
    for e1, e2 in zip(errors, errors[1:]):
        if max(e1, e2) <= floor:
            out.append(math.inf)
        else:
            out.append(np.log2(max(e1, floor) / max(e2, floor)))
    return out


def loglog_slope(x, y) -> float:
    lx = np.log(np.asarray(x, dtype=float))
    ly = np.log(np.asarray(y, dtype=float))
    lx -= lx.mean()
    return float(np.dot(lx, ly - ly.mean()) / np.dot(lx, lx))


def load_mesh(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read back an OBJ written by capaf.export_mesh: positions, normals, triangles."""
    verts, norms, tris = [], [], []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            parts = line.split()
            if not parts:
                continue
            if parts[0] == "v":
                verts.append([float(p) for p in parts[1:4]])
            elif parts[0] == "vn":
                norms.append([float(p) for p in parts[1:4]])
            elif parts[0] == "f":
                tris.append([int(p.split("/")[0]) - 1 for p in parts[1:4]])
    return (
        np.array(verts, dtype=float),
        np.array(norms, dtype=float),
        np.array(tris, dtype=np.int64),
    )
