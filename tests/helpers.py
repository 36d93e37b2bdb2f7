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
import types

import numpy as np
import scipy.sparse as sp

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


def mode_bands_by_unique(matrix, node_shape) -> np.ndarray:
    """Radial bands of the ring average of a lattice matrix, one per Fourier
    mode, from its stored entries grouped by np.unique: the plain reference
    whose lower half spectral._ModePencil must hold bit for bit.

    Unknown k sits at lattice index (k // n_phi, k % n_phi).  Each wrapped
    diagonal's mean over phi is its first stored entry plus the mean
    deviation from it, in the order the matrix stores them.  Returns
    bands[m, bw + o, i], the entry (i, i + o) of mode m's matrix, bw the
    radial bandwidth of the stored entries.
    """
    n_rho, n_phi = node_shape
    coo = matrix.tocoo()
    i, j = np.divmod(coo.row, n_phi)
    i2, j2 = np.divmod(coo.col, n_phi)
    bw = int(np.max(np.abs(i2 - i)))
    key = np.ravel_multi_index((i, i2 - i + bw, (j2 - j) % n_phi),
                               (n_rho, 2 * bw + 1, n_phi))
    keys, first, inverse, count = np.unique(
        key, return_index=True, return_inverse=True, return_counts=True)
    ref = coo.data[first]
    dev = np.bincount(inverse, weights=coo.data - ref[inverse])
    coef = np.zeros((n_rho, 2 * bw + 1, n_phi))
    coef.flat[keys] = ref * (count / n_phi) + dev / n_phi
    return np.conj(np.fft.rfft(coef, axis=2)).transpose(2, 1, 0)


def radial_quadrature_by_panels(rho: np.ndarray) -> np.ndarray:
    """_stencil.radial_quadrature as a loop that adds one 6-node panel at a
    time, in order: the reference whose bytes the batched rule must keep."""
    window = capaf._stencil.QUAD_WINDOW
    n = rho.size
    w = np.zeros(n)
    w[:window] += capaf._stencil.panel_weights(rho[:window], 0.0, rho[0])
    for j in range(n - 1):
        lo = min(max(j - 2, 0), n - window)
        sl = slice(lo, lo + window)
        w[sl] += capaf._stencil.panel_weights(rho[sl], rho[j], rho[j + 1])
    return w


def stencil_pair(rows, n_nodes: int) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """Sparse (plain, mirror) pair of an (n_nodes, n_nodes) radial operator.

    rows[j] lists the (col, weight) entries of output row j; a negative col
    names the ghost node -1-col, whose value lives on the antipodal meridian.
    On a field V of shape (n_nodes, n_phi) the operator is
    plain @ V + mirror @ roll(V, n_phi // 2, axis=1), and on the flattened
    field kron(plain, I) + kron(mirror, half-turn shift).  Repeated entries
    are summed; explicit zeros are dropped.
    """
    entries = [(j, col, w) for j, row in enumerate(rows) for col, w in row]
    j, col, w = (np.array(x) for x in zip(*entries))
    ghost = col < 0

    def build(mask, cols):
        m = sp.csr_matrix((w[mask], (j[mask], cols[mask])), shape=(n_nodes, n_nodes))
        m.eliminate_zeros()
        return m

    return build(~ghost, col), build(ghost, -1 - col)


def d_rho_by_csr(grid, values: np.ndarray, order: int) -> np.ndarray:
    """CapGrid.d_rho as the products by its scipy CSR pair: the reference
    whose summation order, and so whose bytes, the numpy stencil sums keep."""
    R, P = grid.node_shape
    plain, mirror = stencil_pair(capaf._stencil.stencil_table(R, grid.drho, order), R)
    h = capaf._stencil.CENTER_HALF
    out = plain @ values
    out[:h] += mirror[:h, :h] @ np.roll(values[:h], P // 2, axis=1)
    return out


def _periodic(n_phi: int, stencil) -> sp.csr_matrix:
    """Circulant matrix of a periodic azimuthal stencil ((offset, weight), ...)."""
    rows, cols, vals = [], [], []
    for off, c in stencil:
        rows.extend(range(n_phi))
        cols.extend((np.arange(n_phi) + off) % n_phi)
        vals.extend([c] * n_phi)
    return sp.csr_matrix((vals, (rows, cols)), shape=(n_phi, n_phi))


def _sbp_rows(n: int, h: float) -> tuple[list, np.ndarray]:
    spectral = capaf.spectral
    rows = [[(j + off, c / h) for off, c in zip(range(-2, 3), spectral._SBP_CENTER)]
            for j in range(n - 4)]
    rows += [[(n - 1 - k, -c / h) for k, c in enumerate(edge)]
             for edge in reversed(spectral._SBP_D_EDGE)]
    weights = np.full(n, h)
    weights[n - 4:] = np.array(spectral._SBP_H_EDGE[::-1]) * h
    return rows, weights


def _robin_basis_by_kron(grid) -> sp.csr_matrix:
    R, P = grid.node_shape
    w = grid.boundary_weights
    row = np.zeros(R - 1)
    row[R - w.size:] = w[:-1] / (grid.cot_theta - w[-1])
    ring_block = sp.kron(sp.csr_matrix(row), sp.identity(P, format="csr"))
    return sp.vstack([sp.identity((R - 1) * P, format="csr"), ring_block]).tocsr()


def assemble_operator_by_products(space: capaf.WeightedSpace):
    """spectral.assemble_operator as a chain of scipy sparse products: every
    factor of the weak form a sum of Kronecker products, multiplied out and
    then restricted to the trial space by the Robin basis.  The reference
    that the one-pass stencil assembly must match to roundoff."""
    spectral = capaf.spectral
    g = space.grid
    R, P = g.node_shape

    shift = _periodic(P, ((P // 2, 1.0),))
    eyeP = sp.identity(P, format="csr")

    def radial(rows):
        plain, mirror = stencil_pair(rows, R)
        return sp.kron(plain, eyeP) + sp.kron(mirror, shift)

    rows, h_rho = _sbp_rows(R, g.drho)
    G_rho = radial(rows)
    phi1 = _periodic(P, zip((-2, -1, 1, 2), np.array([1.0, -8.0, 8.0, -1.0]) / (12.0 * g.dphi)))
    G_phi = sp.kron(sp.diags(1.0 / g.sin_rho), phi1)

    W = space.A2
    q_rr = 0.5 * W.pp
    q_pp = 0.5 * W.rr
    q_rp = -0.5 * W.rp
    w = np.outer(h_rho * g.sin_rho, np.full(P, g.dphi))

    def dia(c):
        return sp.diags(c.reshape(-1))

    stiff = (
        G_rho.T @ dia(w * q_rr) @ G_rho
        + G_phi.T @ dia(w * q_pp) @ G_phi
        + G_rho.T @ dia(w * q_rp) @ G_phi
        + G_phi.T @ dia(w * q_rp) @ G_rho
    )
    mass_density = 0.5 * (W.rr + W.pp)
    mass_mat = dia(w * mass_density)

    d3p = _periodic(P, spectral._D3)
    pen = dia(spectral._DISSIPATION * w * mass_density)
    rho3 = radial([[(min(j, R - 3) + off, c) for off, c in spectral._D3] for j in range(R)])
    phi3 = sp.kron(sp.identity(R, format="csr"), d3p)
    dissipation = rho3.T @ pen @ rho3 + phi3.T @ pen @ phi3

    ring = sp.csr_matrix(([1.0], ([R - 1], [R - 1])), shape=(R, R))
    wr = g.sin_theta * g.dphi
    q_mumu = q_rr[g.boundary_index, :]
    q_mut = q_rp[g.boundary_index, :]
    ring_diag = sp.kron(ring, sp.diags(g.cot_theta * wr * q_mumu))
    cross = sp.kron(ring, sp.diags(wr * q_mut) @ (phi1 / g.sin_theta)).tocsr()
    cross_sym = 0.5 * (cross + cross.T)
    dropped = 0.5 * (cross - cross.T)

    form = (-stiff - dissipation + mass_mat + ring_diag + cross_sym) / 3.0
    form = 0.5 * (form + form.T)
    scale = float(np.sqrt(np.sum(form.data * form.data)))
    asym = float(np.sqrt(np.sum(dropped.data * dropped.data))) / (3.0 * max(scale, 1e-300))
    omega = (w * space.detA2 / (3.0 * space.f2)).reshape(-1)
    basis = _robin_basis_by_kron(g)
    A = (basis.T @ form.tocsr() @ basis).tocsc()
    M = (basis.T @ sp.diags(omega) @ basis).tocsc()
    return types.SimpleNamespace(A=A, M=M, basis=basis, asymmetry=asym)


def robin_fold_by_full_sum(groups, group, coef, basis):
    """spectral._robin_fold with every group summed, the identity rows too:
    the reference that the fold must match bit for bit."""
    spectral = capaf.spectral
    c1, d, e = groups.unkey(group)
    i, b1 = spectral._on_rows(c1, basis, groups.n_rho)
    j, b2 = spectral._on_rows((c1 + d)[i], basis, groups.n_rho)
    src, b1 = i[j], b1[j]
    return spectral._sum_by_key(groups.key(basis.col[b1], basis.col[b2], e[src]),
                                basis.weight[b1] * basis.weight[b2], src, coef)


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
