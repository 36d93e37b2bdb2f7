"""Weighted spectral analysis of the mixed-volume operator on the cap.

With a fixed convex reference field f2, the operator

    A f = f2 * Q(A[f], A[f2]) / det A[f2]

is formally self-adjoint in L2 of the weight d_omega = det A[f2] / (3 f2) dsigma,
and its bilinear form reproduces the mixed volume: <f, A g>_omega = V(f, g, f2).
Its spectrum carries the quadratic inequality: a simple eigenvalue 1 on top,
a two-dimensional kernel spanned by the horizontal linear functions, and the
rest nonpositive.  This module builds the weight, assembles the operator as a
sparse symmetric weak form (the contact-angle condition enters as a natural
boundary term), solves for the eigenvalues nearest 1/2 by shift-invert
Lanczos, and packages the inequality checks that follow from it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ._stencil import fornberg_weights, stencil_pair
from .capgrid import CapGrid, a_of, robin_residual, tensor_eigenvalues
from .capfun import CapillaryBody, certify, ell_values, field_values, horizontal_linear
from .mixedvol import mixed_volume, q2, quermass_tensors, quermassintegral

WINDOW = (0.01, 0.99)
# Fixed Lanczos start vector seed: reports must not depend on entropy.
_EIGSH_SEED = 20240811


class WeightedSpace:
    """Weight and inner product induced by a convex reference field f2.

    The reference must be positive; if it is not, the horizontal-linear part
    is projected out first (a translation of the body, which changes no mixed
    volume).  A reference whose shape tensor degenerates anywhere is rejected,
    since the weight would vanish or flip sign there.
    """

    def __init__(self, grid: CapGrid, f2, auto_translate: bool = True):
        self.grid = grid
        values = grid.check_field(field_values(f2))
        rmax = float(np.max(np.abs(robin_residual(grid, values))))
        scale = max(1.0, float(np.max(np.abs(values))))
        if rmax > grid.robin_gate * scale:
            raise ValueError(
                f"reference field violates the contact-angle condition "
                f"(residual {rmax:.3e})"
            )
        self.translation = (0.0, 0.0)
        if np.min(values) <= 0.0:
            if not auto_translate:
                raise ValueError("reference field must be positive")
            values = self._translate_positive(values)
        self.f2 = values
        self.A2 = a_of(grid, values)
        min_eig = float(np.min(tensor_eigenvalues(self.A2)[0]))
        if min_eig <= 0.0:
            raise ValueError(
                f"degenerate weight: reference shape tensor has eigenvalue "
                f"{min_eig:.3e}"
            )
        self.detA2 = (
            self.A2[..., 0, 0] * self.A2[..., 1, 1] - self.A2[..., 0, 1] ** 2
        )
        self.omega = self.detA2 / (3.0 * self.f2) * grid.quad_weights
        if np.min(self.omega) <= 0.0:
            raise ValueError("degenerate weight: non-positive node weights")

    def _translate_positive(self, values: np.ndarray) -> np.ndarray:
        g = self.grid
        l1 = horizontal_linear(g, (1, 0)).values
        l2 = horizontal_linear(g, (0, 1)).values
        a1 = g.integrate(values * l1) / g.integrate(l1 * l1)
        a2 = g.integrate(values * l2) / g.integrate(l2 * l2)
        out = values - a1 * l1 - a2 * l2
        if np.min(out) <= 0.0:
            raise ValueError(
                "reference field stays non-positive after horizontal translation"
            )
        self.translation = (-float(a1), -float(a2))
        return out

    def inner(self, u: np.ndarray, v: np.ndarray) -> float:
        return float(np.sum(u * v * self.omega))

    def norm(self, u: np.ndarray) -> float:
        return math.sqrt(max(self.inner(u, u), 0.0))

    def apply(self, f) -> np.ndarray:
        """Pointwise operator application through the grid derivatives."""
        values = self.grid.check_field(field_values(f))
        return self.apply_tensor(a_of(self.grid, values))

    def apply_tensor(self, Af: np.ndarray) -> np.ndarray:
        """The operator on a field given by its shape tensor Af."""
        return self.f2 * q2(Af, self.A2) / self.detA2

    def bilinear(self, f, g) -> float:
        """<f, A g>_omega; coincides with the mixed volume V(f, g, f2)."""
        values = self.grid.check_field(field_values(f))
        return self.inner(values, self.apply(g))


def self_adjoint_residual(space: WeightedSpace, f, g) -> float:
    """|<f, A g> - <g, A f>| over the larger magnitude; zero in the continuum."""
    fg = space.bilinear(f, g)
    gf = space.bilinear(g, f)
    return abs(fg - gf) / max(abs(fg), abs(gf), 1e-300)


# -- matrix assembly -----------------------------------------------------------

def _periodic(n_phi: int, stencil) -> sp.csr_matrix:
    """Circulant matrix of a periodic azimuthal stencil ((offset, weight), ...)."""
    rows, cols, vals = [], [], []
    for off, c in stencil:
        rows.extend(range(n_phi))
        cols.extend((np.arange(n_phi) + off) % n_phi)
        vals.extend([c] * n_phi)
    return sp.csr_matrix((vals, (rows, cols)), shape=(n_phi, n_phi))


# Undivided third-difference coefficients for the odd-even dissipation term:
# O(spacing^6) on resolved fields, order one on lattice-flip modes.
_D3 = ((-1, -1.0), (0, 3.0), (1, -3.0), (2, 1.0))
_DISSIPATION = 0.25


def _third_difference_rho(n: int) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    # The pole row reflects through the axis (antipodal meridian); the last
    # rows shift the stencil inward so it stays on the lattice.
    rows = [[(min(j, n - 3) + off, c) for off, c in _D3] for j in range(n)]
    return stencil_pair(rows, n)


# Summation-by-parts first derivative of interior order 4 with its diagonal
# companion norm (boundary order 2).  The exact discrete integration-by-parts
# identity H D + D^T H = boundary makes the weak form adjoint-consistent at
# the contact ring, which one-sided closures are not: with them the top
# eigenvalue drifts at low order instead of O(drho^2).
_SBP_D_EDGE = (
    (-24 / 17, 59 / 34, -4 / 17, -3 / 34),
    (-1 / 2, 0.0, 1 / 2),
    (4 / 43, -59 / 86, 0.0, 59 / 86, -4 / 43),
    (3 / 98, 0.0, -59 / 98, 0.0, 32 / 49, -4 / 49),
)
_SBP_H_EDGE = (17 / 48, 59 / 48, 43 / 48, 49 / 48)
_SBP_CENTER = (1 / 12, -2 / 3, 0.0, 2 / 3, -1 / 12)


def _sbp_radial(n: int, h: float) -> tuple[sp.csr_matrix, sp.csr_matrix, np.ndarray]:
    """Radial derivative split into plain and mirrored parts, plus its norm.

    The lattice has no axis boundary: rows near rho=0 stay centred and reach
    across to the antipodal meridian (ghost columns).  The contact boundary
    at rho=theta gets the four-row edge closure, reversed and negated.
    """
    rows = [[(j + off, c / h) for off, c in zip(range(-2, 3), _SBP_CENTER)]
            for j in range(n - 4)]
    rows += [[(n - 1 - k, -c / h) for k, c in enumerate(edge)]
             for edge in reversed(_SBP_D_EDGE)]
    weights = np.full(n, h)
    weights[n - 4:] = np.array(_SBP_H_EDGE[::-1]) * h
    return (*stencil_pair(rows, n), weights)


@dataclass
class DiscreteOperator:
    """Weak-form (Galerkin) discretization of the weighted operator.

    form is the symmetric stiffness-plus-mass matrix of the bilinear map
    (f, g) -> <f, A g>_omega; mass holds the node weights of omega in the
    derivative operator's companion quadrature (which differs from the
    reporting quadrature only in the four rows nearest the boundary), so the
    eigenproblem is the pencil (form, diag(mass)).  Assembling the quadratic
    form instead of the raw second-order stencil keeps the matrix symmetric by
    construction; the only symmetry defect is the antisymmetric half of the
    boundary cross term, whose size is recorded in asymmetry.
    """

    form: sp.csr_matrix
    mass: np.ndarray
    asymmetry: float

    def apply(self, v: np.ndarray) -> np.ndarray:
        return (self.form @ v) / self.mass


def assemble_operator(space: WeightedSpace) -> DiscreteOperator:
    """Assemble the symmetric weak form of the operator on node vectors.

    Integrating the defining expression by parts turns it into

        <f, A g>_omega = (1/3) [ -int grad(f).Q(W).grad(g) + (trW/2) f g ]
                         + ring terms,

    where Q(W) = (trW * Id - W)/2 is positive definite for convex references,
    and the contact-angle condition enters naturally through the ring terms
    (cot(theta) Q_mumu f g plus a tangential cross term, symmetrized).  The
    gradient matrices are the offset-lattice radial stencils (pole rows reach
    across to the antipodal meridian) and banded periodic differences in phi.
    """
    g = space.grid
    R, P = g.node_shape
    N = R * P

    B1, C1, h_rho = _sbp_radial(R, g.drho)
    shift = _periodic(P, ((P // 2, 1.0),))
    eyeP = sp.identity(P, format="csr")
    G_rho = sp.kron(B1, eyeP) + sp.kron(C1, shift)
    # 4th-order centred periodic first difference; banded so that the
    # stiffness products below stay sparse.
    phi1 = _periodic(P, zip((-2, -1, 1, 2), np.array([1.0, -8.0, 8.0, -1.0]) / (12.0 * g.dphi)))
    G_phi = sp.kron(sp.diags(1.0 / g.sin_rho), phi1)

    W = space.A2
    q_rr = 0.5 * W[..., 1, 1]
    q_pp = 0.5 * W[..., 0, 0]
    q_rp = -0.5 * W[..., 0, 1]
    w = np.outer(h_rho * g.sin_rho, np.full(P, g.dphi))

    def dia(c):
        return sp.diags(c.reshape(-1))

    stiff = (
        G_rho.T @ dia(w * q_rr) @ G_rho
        + G_phi.T @ dia(w * q_pp) @ G_phi
        + G_rho.T @ dia(w * q_rp) @ G_phi
        + G_phi.T @ dia(w * q_rp) @ G_rho
    )
    mass_density = 0.5 * (W[..., 0, 0] + W[..., 1, 1])
    mass_mat = dia(w * mass_density)

    # Centred first differences annihilate the odd-even modes (one lattice
    # flip per direction), which would otherwise sit spuriously at the top of
    # the spectrum.  An undivided third-difference penalty is positive
    # semidefinite, moves those modes far below the window, and perturbs
    # resolved fields only at sixth order in the spacing.
    d3p = _periodic(P, _D3)
    B3, C3 = _third_difference_rho(R)
    pen = dia(_DISSIPATION * w * mass_density)
    rho3 = sp.kron(B3, eyeP) + sp.kron(C3, shift)
    phi3 = sp.kron(sp.identity(R, format="csr"), d3p)
    dissipation = rho3.T @ pen @ rho3 + phi3.T @ pen @ phi3

    # Ring terms on the boundary row, measure sin(theta) dphi.
    ring = np.arange((R - 1) * P, N)
    wr = g.sin_theta * g.dphi
    q_mumu = q_rr[g.boundary_index, :]
    q_mut = q_rp[g.boundary_index, :]
    ring_diag = sp.csr_matrix(
        (g.cot_theta * wr * q_mumu, (ring, ring)), shape=(N, N)
    )
    # Tangential derivative along the ring; the antisymmetric half of this
    # cross term is dropped (it vanishes in the continuum) and reported.
    Gt_ring = phi1 / g.sin_theta
    cross_local = sp.diags(wr * q_mut) @ Gt_ring
    cross = sp.lil_matrix((N, N))
    cross[np.ix_(ring, ring)] = cross_local.toarray()
    cross = cross.tocsr()
    cross_sym = 0.5 * (cross + cross.T)
    dropped = 0.5 * (cross - cross.T)

    form = (-stiff - dissipation + mass_mat + ring_diag + cross_sym) / 3.0
    form = 0.5 * (form + form.T)
    scale = sp.linalg.norm(form)
    asym = float(sp.linalg.norm(dropped) / (3.0 * max(scale, 1e-300)))
    omega = (w * space.detA2 / (3.0 * space.f2)).reshape(-1)
    return DiscreteOperator(form.tocsr(), omega, asym)


# -- spectrum ------------------------------------------------------------------

@dataclass
class SpectrumReport:
    """Eigenvalues nearest 1/2, largest first, with the structural classification."""

    eigenvalues: list[float]
    residuals: list[float]
    lambda1: float
    lambda1_gap: float
    lambda1_simple: bool
    kernel_indices: list[int]
    kernel_threshold: float
    kernel_cosine: float | None
    window: tuple[float, float]
    window_empty: bool
    window_note: str
    asymmetry: float
    n_unknowns: int
    eigenvectors: np.ndarray | None = field(default=None, repr=False)

    def to_dict(self) -> dict:
        return {
            "eigenvalues": self.eigenvalues,
            "residuals": self.residuals,
            "lambda1": self.lambda1,
            "lambda1_gap": self.lambda1_gap,
            "lambda1_simple": self.lambda1_simple,
            "kernel_indices": self.kernel_indices,
            "kernel_threshold": self.kernel_threshold,
            "kernel_cosine": self.kernel_cosine,
            "window": list(self.window),
            "window_empty": self.window_empty,
            "window_note": self.window_note,
            "asymmetry": self.asymmetry,
            "n_unknowns": self.n_unknowns,
        }


def _kernel_cosine(space: WeightedSpace, vectors: np.ndarray) -> float | None:
    """Smallest principal cosine between found kernel vectors and exact linears."""
    if vectors.shape[1] == 0:
        return None
    g = space.grid
    l1 = horizontal_linear(g, (1, 0)).values
    l2 = horizontal_linear(g, (0, 1)).values
    lins = np.stack([l1.reshape(-1), l2.reshape(-1)], axis=1)
    w = space.omega.reshape(-1)

    def orthonormal(cols):
        G = cols.T @ (cols * w[:, None])
        evals, evecs = np.linalg.eigh(G)
        keep = evals > 1e-14 * evals.max()
        return cols @ (evecs[:, keep] / np.sqrt(evals[keep]))

    U = orthonormal(vectors)
    L = orthonormal(lins)
    overlap = U.T @ (L * w[:, None])
    svals = np.linalg.svd(overlap, compute_uv=False)
    if svals.size < min(U.shape[1], L.shape[1]):
        return 0.0
    return float(np.min(svals))


def _robin_basis(grid: CapGrid) -> sp.csr_matrix:
    """Columns span the fields whose ring row obeys the contact condition.

    The one-sided derivative relation d_rho f(theta) = cot(theta) f(theta)
    expresses the boundary row through the five rows below it, so the basis
    maps interior unknowns to full node vectors.  Constraining the trial space
    this way matters: the sharp bound lambda <= 1 holds only over fields with
    the correct contact angle, and unconstrained boundary layers can creep
    above it at low order.
    """
    R, P = grid.node_shape
    dw = fornberg_weights(grid.rho_nodes[-6:], grid.theta, 1)[:, 1]
    coef = dw[:-1] / (grid.cot_theta - dw[-1])
    nred = (R - 1) * P
    rows, cols, vals = [], [], []
    for k_off in range(5):
        base = (R - 6 + k_off) * P
        rows.extend(range(P))
        cols.extend(range(base, base + P))
        vals.extend([coef[k_off]] * P)
    ring_block = sp.csr_matrix((vals, (rows, cols)), shape=(P, nred))
    return sp.vstack([sp.identity(nred, format="csr"), ring_block]).tocsr()


def spectrum(space: WeightedSpace, how_many: int = 8) -> SpectrumReport:
    """Solve for the eigenpairs nearest 1/2 and classify them.

    The symmetric weak form is restricted to the contact-condition trial space
    and solved as a generalized pencil against the weight Gram matrix by
    shift-invert Lanczos at sigma=1/2, which returns the k eigenvalues nearest
    the centre of the window (0.01, 0.99); the window verdict needs no other
    eigenvalue.
    """
    g = space.grid
    op = assemble_operator(space)
    asym = op.asymmetry
    P = _robin_basis(g)
    A_red = (P.T @ op.form @ P).tocsc()
    M_red = (P.T @ sp.diags(op.mass) @ P).tocsc()
    N = A_red.shape[0]
    k = int(min(max(how_many, 6), N - 2))

    rng = np.random.default_rng(_EIGSH_SEED)
    v0 = rng.standard_normal(N)
    vals, vecs = spla.eigsh(A_red, k=k, M=M_red, sigma=0.5, which="LM", v0=v0)
    order = np.argsort(vals)[::-1]
    top_vals = vals[order]
    top_vecs = vecs[:, order]
    inside = np.nonzero((top_vals > WINDOW[0]) & (top_vals < WINDOW[1]))[0]
    # The returned values are the k nearest 1/2.  If none lies inside the
    # window, each is at least 0.49 from 1/2, and every unreturned eigenvalue
    # is farther still, so the whole spectrum avoids (0.01, 0.99).
    window_empty = bool(inside.size == 0)
    window_note = "" if window_empty else f"{inside.size} eigenvalues inside {WINDOW}"

    # Lanczos returns M-orthonormal vectors, so the full-grid fields are
    # omega-orthonormal as they stand.
    node_vecs = np.asarray(P @ top_vecs)
    mdiag = M_red.diagonal()
    residuals = []
    for i in range(top_vecs.shape[1]):
        y = top_vecs[:, i]
        r = A_red @ y - top_vals[i] * (M_red @ y)
        residuals.append(
            float(np.sqrt(np.sum(r * r / mdiag)))
            / max(float(np.sqrt(y @ (M_red @ y))), 1e-300)
        )

    lambda1 = float(top_vals[0])
    lambda1_gap = float(top_vals[0] - top_vals[1]) if len(top_vals) > 1 else math.inf

    # Mesh anchor for the kernel: the Rayleigh-Ritz values of the horizontal
    # linears say where the discretization parks the translation modes, and
    # drho^2 is the resolution scale of their eigenvector error (still one to
    # two orders below the first true negative eigenvalue on the coarsest
    # supported grids).  The relative floor keeps the threshold meaningful on
    # grids fine enough to beat both anchors.
    l1 = horizontal_linear(g, (1, 0)).values
    l2 = horizontal_linear(g, (0, 1)).values
    lins = np.stack(
        [l1[:-1].reshape(-1), l2[:-1].reshape(-1)], axis=1
    )
    B = lins.T @ (A_red @ lins)
    G = lins.T @ (M_red @ lins)
    ritz = np.linalg.eigvals(np.linalg.solve(G, B))
    kernel_scale = float(np.max(np.abs(ritz)))
    thr = max(1e-6 * abs(lambda1), 3.0 * kernel_scale, g.drho**2)
    kernel_idx = [i for i, v in enumerate(top_vals) if abs(v) <= thr]
    cosine = _kernel_cosine(space, node_vecs[:, kernel_idx]) if kernel_idx else None

    return SpectrumReport(
        eigenvalues=[float(v) for v in top_vals],
        residuals=residuals,
        lambda1=lambda1,
        lambda1_gap=lambda1_gap,
        lambda1_simple=bool(lambda1_gap > 0.5),
        kernel_indices=kernel_idx,
        kernel_threshold=float(thr),
        kernel_cosine=cosine,
        window=WINDOW,
        window_empty=window_empty,
        window_note=window_note,
        asymmetry=asym,
        n_unknowns=N,
        eigenvectors=node_vecs,
    )


# -- quadratic inequality ------------------------------------------------------

@dataclass
class Decomposition:
    """Least-squares split of f over {f1, horizontal linears} in the omega norm."""

    a: float
    a1: float
    a2: float
    residual_norm: float
    relative_residual: float
    ill_conditioned: bool

    def to_dict(self) -> dict:
        return {
            "a": self.a,
            "a1": self.a1,
            "a2": self.a2,
            "residual_norm": self.residual_norm,
            "relative_residual": self.relative_residual,
            "ill_conditioned": self.ill_conditioned,
        }


def equality_decompose(space: WeightedSpace, f, f1) -> Decomposition:
    g = space.grid
    fv = g.check_field(field_values(f))
    f1v = g.check_field(field_values(f1))
    l1 = horizontal_linear(g, (1, 0)).values
    l2 = horizontal_linear(g, (0, 1)).values
    basis = [f1v, l1, l2]
    G = np.array([[space.inner(a, b) for b in basis] for a in basis])
    rhs = np.array([space.inner(b, fv) for b in basis])
    cond = float(np.linalg.cond(G))
    coef, *_ = np.linalg.lstsq(G, rhs, rcond=None)
    fit = coef[0] * f1v + coef[1] * l1 + coef[2] * l2
    res = space.norm(fv - fit)
    return Decomposition(
        a=float(coef[0]),
        a1=float(coef[1]),
        a2=float(coef[2]),
        residual_norm=res,
        relative_residual=res / max(space.norm(fv), 1e-300),
        ill_conditioned=cond > 1e10,
    )


@dataclass
class AFReport:
    """One verdict of the quadratic mixed-volume inequality."""

    lhs: float
    rhs: float
    gap: float
    relative_gap: float
    v_mixed: float
    v_ff: float
    v_f1f1: float
    bilinear_mixed: float
    form_consistency: float
    noise_estimate: float
    equality_within_resolution: bool
    decomposition: Decomposition | None

    def to_dict(self) -> dict:
        out = {
            "lhs": self.lhs,
            "rhs": self.rhs,
            "gap": self.gap,
            "relative_gap": self.relative_gap,
            "v_mixed": self.v_mixed,
            "v_ff": self.v_ff,
            "v_f1f1": self.v_f1f1,
            "bilinear_mixed": self.bilinear_mixed,
            "form_consistency": self.form_consistency,
            "noise_estimate": self.noise_estimate,
            "equality_within_resolution": self.equality_within_resolution,
            "decomposition": None
            if self.decomposition is None
            else self.decomposition.to_dict(),
        }
        return out


def af_check(space: WeightedSpace, f, f1) -> AFReport:
    """Check V(f,f1,f2)^2 >= V(f,f,f2) V(f1,f1,f2) and diagnose near-equality.

    f only needs the contact-angle condition; f1 must additionally be convex.
    Both the mixed-volume quadrature and the weighted bilinear form of the
    operator are evaluated; their disagreement is pure roundoff and is
    reported as form_consistency.
    """
    g = space.grid
    fv = g.check_field(field_values(f))
    scale_f = max(1.0, float(np.max(np.abs(fv))))
    rres = float(np.max(np.abs(robin_residual(g, fv))))
    if rres > g.robin_gate * scale_f:
        raise ValueError(
            f"free field violates the contact-angle condition (residual {rres:.3e})"
        )
    if isinstance(f1, CapillaryBody):
        f1v = f1.values
    else:
        f1v = g.check_field(field_values(f1))
        res = certify(g, f1v)
        if not res.accepted:
            raise ValueError("f1 must be convex: " + "; ".join(res.reasons))

    # One shape tensor per field: the reference's is the space's own.
    A, A1, A2 = a_of(g, fv), a_of(g, f1v), space.A2
    v_m = mixed_volume(g, fv, tensors=(A1, A2))
    v_m_swap = mixed_volume(g, f1v, tensors=(A, A2))
    v_ff = mixed_volume(g, fv, tensors=(A, A2))
    v_11 = mixed_volume(g, f1v, tensors=(A1, A2))
    lhs = v_m * v_m
    rhs = v_ff * v_11
    gap = lhs - rhs
    rel = gap / max(abs(rhs), 1e-300)

    bil = space.inner(fv, space.apply_tensor(A1))
    consistency = abs(bil - v_m) / max(abs(v_m), abs(bil), 1e-300)

    swap_err = abs(v_m - v_m_swap)
    noise = (2.0 * abs(v_m) + abs(v_ff) + abs(v_11)) * swap_err \
        + 1e-13 * max(abs(lhs), abs(rhs), 1.0)
    near_equality = abs(gap) <= 10.0 * noise
    decomp = equality_decompose(space, fv, f1v) if near_equality else None
    return AFReport(
        lhs=lhs,
        rhs=rhs,
        gap=gap,
        relative_gap=rel,
        v_mixed=v_m,
        v_ff=v_ff,
        v_f1f1=v_11,
        bilinear_mixed=bil,
        form_consistency=consistency,
        noise_estimate=noise,
        equality_within_resolution=near_equality,
        decomposition=decomp,
    )


# -- chains --------------------------------------------------------------------

@dataclass
class ChainReport:
    """Log-concavity chain of the interpolating mixed volumes."""

    values: list[float]
    triples: list[dict]
    min_relative_slack: float

    def to_dict(self) -> dict:
        return {
            "values": self.values,
            "triples": self.triples,
            "min_relative_slack": self.min_relative_slack,
        }


def af_chain_check(
    grid: CapGrid,
    body0,
    body1,
    m: int = 3,
    references=None,
) -> ChainReport:
    """All inequalities V_(j)^(k-i) >= V_(i)^(k-j) V_(k)^(j-i), i<j<k<=m.

    V_(i) interpolates between the two bodies: i slots hold body1, m-i hold
    body0, and any slots beyond m hold reference bodies (unit cap by default).
    """
    if not 1 <= m <= 3:
        raise ValueError(f"m must lie in 1..3, got {m}")
    h0 = grid.check_field(field_values(body0))
    h1 = grid.check_field(field_values(body1))
    if references is None:
        references = []
    refs = [grid.check_field(field_values(r)) for r in references]
    if len(refs) < 3 - m:
        refs = refs + [ell_values(grid)] * (3 - m - len(refs))
    if len(refs) != 3 - m:
        raise ValueError(f"need exactly {3 - m} reference fields, got {len(refs)}")

    values = []
    for i in range(m + 1):
        slots = [h1] * i + [h0] * (m - i) + refs
        values.append(mixed_volume(grid, slots[0], (slots[1], slots[2])))

    triples = []
    min_rel = 0.0 if m < 2 else math.inf
    for i, j, k in itertools.combinations(range(m + 1), 3):
        lhs = values[j] ** (k - i)
        rhs = values[i] ** (k - j) * values[k] ** (j - i)
        slack = lhs - rhs
        rel = slack / max(abs(lhs), abs(rhs), 1e-300)
        min_rel = min(min_rel, rel)
        triples.append(
            {"i": i, "j": j, "k": k, "lhs": lhs, "rhs": rhs,
             "slack": slack, "relative_slack": rel}
        )
    return ChainReport([float(v) for v in values], triples, float(min_rel))


@dataclass
class QuermassChainReport:
    """Normalized quermassintegral inequalities for one body."""

    ratios: list[float]
    pairs: list[dict]
    min_relative_slack: float

    def to_dict(self) -> dict:
        return {
            "ratios": self.ratios,
            "pairs": self.pairs,
            "min_relative_slack": self.min_relative_slack,
        }


def quermass_chain_check(grid: CapGrid, body) -> QuermassChainReport:
    """Check V_k / V_3 >= (V_l / V_3)^((3-k)/(3-l)) for every l < k.

    Normalizing by the discrete top quermassintegral rather than the closed
    form keeps cap bodies exactly on the equality case, so the slack isolates
    the body's deviation from a cap instead of quadrature bias.  Pairs with
    k = 3 reduce to 1 >= 1 after normalization (the top integral carries no
    copy of the body); they are listed for completeness but excluded from the
    minimum, which would otherwise be pinned at zero.
    """
    tensors = quermass_tensors(grid, body)
    q = [quermassintegral(grid, body, j, tensors) for j in range(4)]
    ratios = [v / q[3] for v in q]
    pairs = []
    min_rel = math.inf
    for l in range(3):
        for k in range(l + 1, 4):
            lhs = ratios[k]
            rhs = ratios[l] ** ((3.0 - k) / (3.0 - l))
            slack = lhs - rhs
            rel = slack / max(abs(lhs), abs(rhs), 1e-300)
            if k < 3:
                min_rel = min(min_rel, rel)
            pairs.append(
                {"l": l, "k": k, "lhs": lhs, "rhs": rhs,
                 "slack": slack, "relative_slack": rel}
            )
    return QuermassChainReport([float(r) for r in ratios], pairs, float(min_rel))


def eigen_estimate_residual(space: WeightedSpace, g_field) -> float:
    """Signed defect of <A g, A g> >= <g, A g>, nonnegative up to mesh error.

    Follows from the pointwise matrix inequality Q(A[g], W)^2 >= det W *
    Q(A[g], A[g]) for positive definite W, integrated against the weight.
    """
    gv = space.grid.check_field(field_values(g_field))
    Ag = space.apply(gv)
    lhs = space.inner(Ag, Ag)
    rhs = space.inner(gv, Ag)
    return (lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)
