"""Shared fixtures-by-function for the test suite.

Grids, bodies and weighted spaces are memoized so the many tests that share a
configuration do not pay for repeated assembly.  Convergence studies use the
analytic bodies below, which are resolution independent by construction (the
coefficients do not depend on the grid), so refining the grid samples the same
continuum object.
"""

from __future__ import annotations

import functools
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


def random_body_by_halving(grid, seed, base_radius=1.0, amplitude=0.25, mode_cap=3):
    """capaf.random_body as the plain halving loop: a shape tensor for every
    amplitude tried.  The reference that the two-tensor prediction must match."""
    capfun = capaf.capfun
    rng = np.random.default_rng(seed)
    u = capfun._random_neumann_datum(grid, rng, mode_cap)
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
