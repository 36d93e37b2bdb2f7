"""Weighted spectral analysis of the mixed-volume operator on the cap.

With a fixed convex reference field f2, the operator

    A f = f2 * Q(A[f], A[f2]) / det A[f2]

is formally self-adjoint in L2 of the weight d_omega = det A[f2] / (3 f2) dsigma,
and its bilinear form reproduces the mixed volume: <f, A g>_omega = V(f, g, f2).
Its spectrum carries the quadratic inequality: a simple eigenvalue 1 on top,
a two-dimensional kernel spanned by the horizontal linear functions, and the
rest nonpositive.  This module builds the weight, assembles the operator as a
sparse symmetric weak form (the contact-angle condition enters as a natural
boundary term) and restricts it to the fields whose boundary row obeys that
condition, through the grid's own boundary stencil: the result is the
Pencil (A, M) on that trial space.  It then solves for the top eigenpairs
and packages the inequality checks that follow from it.  Both eigensolvers
factor the ring average of one shifted matrix, K = 1.5 M - A, by a banded
solve per azimuthal Fourier mode.  A rotationally invariant reference makes
K block-circulant in phi, so that solve is exact and drives shift-invert
Lanczos at 1.5; any other reference gets a block LOBPCG preconditioned by it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack, subspace_angles

from ._stencil import stencil_pair
from .capgrid import CapGrid, ShapeTensor
from .capfun import as_field, certify, ell_values, horizontal_linear
from .mixedvol import mixed_sequence, mixed_volume, q2

WINDOW = (0.01, 0.99)
# Both eigensolvers factor the ring average of K = _SHIFT * M - A.  The shift
# lies above the top eigenvalue 1: shift-invert at it returns the top of the
# spectrum, and K's mode matrices (diagonal blocks of its unitary transform)
# are positive definite while every eigenvalue lies below it.
_SHIFT = 1.5
# lambda1 counts as simple when the next eigenvalue lies at least this far
# below it; the paper's dichotomy puts the next one at 0 or below.
LAMBDA1_GAP = 0.9
# Fixed seed of the Lanczos start vector and of the block eigensolver's start
# block: reports must not depend on entropy.
_EIGSH_SEED = 20240811
# The block eigensolver stops once every wanted residual is below _BLOCK_TOL,
# and fails after _BLOCK_MAX_ITER iterations; SVQB drops a direction whose
# scaled Gram eigenvalue is below _SVQB_DROP of the largest.
_BLOCK_TOL = 1e-9
_BLOCK_MAX_ITER = 300
_SVQB_DROP = 1e-12


class WeightedSpace:
    """Weight and inner product induced by a convex reference field f2.

    The reference must pass capfun.certify, which rejects a shape tensor that
    degenerates anywhere, where the weight would vanish or flip sign.  It must
    also be positive; if it is not, the horizontal-linear part is projected
    out first (a translation of the body, which changes no mixed volume) and
    the translated field is certified in turn.  linears holds the node
    values of the horizontal linear functions nu_1 and nu_2, the kernel of
    the operator.
    """

    def __init__(self, grid: CapGrid, f2):
        self.grid = grid
        self.linears = tuple(horizontal_linear(grid, d).values for d in ((1, 0), (0, 1)))
        ref = certify(grid, f2)
        self.translation = (0.0, 0.0)
        if np.min(ref.values) <= 0.0:
            ref = certify(grid, self._translate_positive(ref.values))
        self.ref = ref
        self.f2 = ref.values
        self.A2 = ref.tensor
        self.detA2 = self.A2.rr * self.A2.pp - self.A2.rp ** 2
        # Positive: f2 > 0, a certified tensor and positive quadrature weights.
        self.omega = self.detA2 / (3.0 * self.f2) * grid.quad_weights

    def _translate_positive(self, values: np.ndarray) -> np.ndarray:
        g = self.grid
        l1, l2 = self.linears
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

    def apply_tensor(self, Af: ShapeTensor) -> np.ndarray:
        """The operator on a field given by its shape tensor Af."""
        return self.f2 * q2(Af, self.A2) / self.detA2


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


def _third_difference_rho(n: int) -> list[list[tuple[int, float]]]:
    # The pole row reflects through the axis (antipodal meridian); the last
    # rows shift the stencil inward so it stays on the lattice.
    return [[(min(j, n - 3) + off, c) for off, c in _D3] for j in range(n)]


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


def _sbp_radial(n: int, h: float) -> tuple[list, np.ndarray]:
    """Stencil rows of the radial derivative, plus its diagonal norm.

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
    return rows, weights


def _robin_basis(grid: CapGrid) -> sp.csr_matrix:
    """Columns span the fields whose ring row obeys the contact condition.

    The grid's stencil of d_rho f(theta) = cot(theta) f(theta), the row that
    robin_residual and certify use, expresses the boundary row through the
    rows below it, so the basis maps interior unknowns to full node vectors.
    Constraining the trial space this way matters: the sharp bound
    lambda <= 1 holds only over fields with the correct contact angle, and
    unconstrained boundary layers can creep above it at low order.
    """
    R, P = grid.node_shape
    w = grid.boundary_weights
    row = np.zeros(R - 1)
    row[R - w.size:] = w[:-1] / (grid.cot_theta - w[-1])
    ring_block = sp.kron(sp.csr_matrix(row), sp.identity(P, format="csr"))
    return sp.vstack([sp.identity((R - 1) * P, format="csr"), ring_block]).tocsr()


@dataclass
class Pencil:
    """Weak-form (Galerkin) pencil of the weighted operator on the trial space.

    The trial space is the fields whose boundary row obeys the contact
    condition; basis maps its unknowns to node vectors.  A is the symmetric
    stiffness-plus-mass matrix of the bilinear map (f, g) -> <f, A g>_omega
    restricted to it, and M the Gram matrix of omega in the derivative
    operator's companion quadrature (which differs from the reporting
    quadrature in the six pole rows and the six rows nearest the boundary,
    by up to 0.74 drho at 32x32), so the eigenproblem is A u = lambda M u.
    Assembling the quadratic form instead of the raw second-order stencil
    keeps A symmetric by construction; the only symmetry defect is the
    antisymmetric half of the boundary cross term, whose size relative to
    the form is recorded in asymmetry.
    """

    A: sp.csc_matrix
    M: sp.csc_matrix
    basis: sp.csr_matrix
    asymmetry: float


def _frobenius(m: sp.spmatrix) -> float:
    # numpy's pairwise sum, not BLAS nrm2, so the value does not depend on
    # how many threads the BLAS library uses.
    return float(np.sqrt(np.sum(m.data * m.data)))


def assemble_operator(space: WeightedSpace) -> Pencil:
    """Assemble the operator's pencil on the contact-condition trial space.

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

    shift = _periodic(P, ((P // 2, 1.0),))
    eyeP = sp.identity(P, format="csr")

    def radial(rows):
        # The flattened pole-crossing operator of stencil_pair's rows.
        plain, mirror = stencil_pair(rows, R)
        return sp.kron(plain, eyeP) + sp.kron(mirror, shift)

    rows, h_rho = _sbp_radial(R, g.drho)
    G_rho = radial(rows)
    # 4th-order centred periodic first difference; banded so that the
    # stiffness products below stay sparse.
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

    # Centred first differences annihilate the odd-even modes (one lattice
    # flip per direction), which would otherwise sit spuriously at the top of
    # the spectrum.  An undivided third-difference penalty is positive
    # semidefinite, moves those modes far below the window, and perturbs
    # resolved fields only at sixth order in the spacing.
    d3p = _periodic(P, _D3)
    pen = dia(_DISSIPATION * w * mass_density)
    rho3 = radial(_third_difference_rho(R))
    phi3 = sp.kron(sp.identity(R, format="csr"), d3p)
    dissipation = rho3.T @ pen @ rho3 + phi3.T @ pen @ phi3

    # Ring terms on the boundary row, measure sin(theta) dphi.
    ring = sp.csr_matrix(([1.0], ([R - 1], [R - 1])), shape=(R, R))
    wr = g.sin_theta * g.dphi
    q_mumu = q_rr[g.boundary_index, :]
    q_mut = q_rp[g.boundary_index, :]
    ring_diag = sp.kron(ring, sp.diags(g.cot_theta * wr * q_mumu))
    # Tangential derivative along the ring; the antisymmetric half of this
    # cross term is dropped (it vanishes in the continuum) and reported.
    cross = sp.kron(ring, sp.diags(wr * q_mut) @ (phi1 / g.sin_theta)).tocsr()
    cross_sym = 0.5 * (cross + cross.T)
    dropped = 0.5 * (cross - cross.T)

    form = (-stiff - dissipation + mass_mat + ring_diag + cross_sym) / 3.0
    form = 0.5 * (form + form.T)
    scale = _frobenius(form)
    asym = _frobenius(dropped) / (3.0 * max(scale, 1e-300))
    omega = (w * space.detA2 / (3.0 * space.f2)).reshape(-1)
    basis = _robin_basis(g)
    A = (basis.T @ form.tocsr() @ basis).tocsc()
    M = (basis.T @ sp.diags(omega) @ basis).tocsc()
    return Pencil(A, M, basis, asym)


# -- spectrum ------------------------------------------------------------------

@dataclass
class SpectrumReport:
    """The solved eigenvalues, largest first, with the structural classification."""

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
    # Solver statistics for the run's sidecar, not part of the report: which
    # solver ran ("azimuthal_modes" or "block_lobpcg"), how many entries its
    # band factors store, and how many right-hand sides it solved with them.
    solver: str
    factor_nnz: int
    n_solves: int
    _SIDECAR = ("solver", "factor_nnz", "n_solves")

    def to_dict(self) -> dict:
        return {k: v for k, v in asdict(self).items() if k not in self._SIDECAR}

    def sidecar(self) -> dict:
        return {k: getattr(self, k) for k in self._SIDECAR}


def _kernel_cosine(space: WeightedSpace, vectors: np.ndarray) -> float | None:
    """Smallest principal cosine between found kernel vectors and exact linears.

    vectors are node vectors, one per column; None when there are none.
    """
    if vectors.shape[1] == 0:
        return None
    lins = np.stack([lin.reshape(-1) for lin in space.linears], axis=1)
    # Scaling by sqrt(omega) turns the omega inner product into the Euclidean one.
    root_w = np.sqrt(space.omega.reshape(-1))[:, None]
    angles = subspace_angles(root_w * vectors, root_w * lins)
    return float(np.cos(np.max(angles)))


def _azimuthal_mode_solver(K: sp.spmatrix, node_shape: tuple[int, int]):
    """Solve with a block-circulant K, one azimuthal mode at a time.

    Returns the solve and the number of entries its band factors store.

    Unknown k sits at lattice index (k // n_phi, k % n_phi).  When K couples
    (i, j) to (i', j') by a coefficient that depends on j' - j (mod n_phi)
    only, an rfft along phi splits it into one banded (n_rho x n_rho) matrix
    per Fourier mode m: the radial band of K, with each azimuthal offset d
    weighted by exp(2 pi i m d / n_phi).  The pole mirror is the offset
    n_phi/2 and needs no special case.  Each wrapped diagonal is averaged over
    phi (the optimal circulant of K), which is K itself when K is
    block-circulant.  Each mode matrix is factored by banded LU with partial
    pivoting; a singular mode raises RuntimeError.
    """
    n_rho, n_phi = node_shape
    coo = K.tocoo()
    i, j = np.divmod(coo.row, n_phi)
    i2, j2 = np.divmod(coo.col, n_phi)
    bw = int(np.max(np.abs(i2 - i)))
    key = np.ravel_multi_index((i, i2 - i + bw, (j2 - j) % n_phi),
                               (n_rho, 2 * bw + 1, n_phi))
    # Mean of each wrapped diagonal, taken as one of its entries plus the
    # mean deviation from it: a running sum of n_phi nearly equal entries
    # rounds at several ulps, which raised the solve's residual tenfold.
    keys, first, inverse, count = np.unique(
        key, return_index=True, return_inverse=True, return_counts=True)
    ref = coo.data[first]
    dev = np.bincount(inverse, weights=coo.data - ref[inverse])
    coef = np.zeros((n_rho, 2 * bw + 1, n_phi))
    coef.flat[keys] = ref * (count / n_phi) + dev / n_phi
    # rfft weighs offset d by exp(-2 pi i m d / n_phi); K's mode m takes the
    # conjugate weight.
    modes = np.conj(np.fft.rfft(coef, axis=2))
    # LAPACK band storage: row 2*bw + r - c of column c holds entry (r, c),
    # and the top bw rows are room for the pivoting fill.
    band = np.zeros((modes.shape[2], 3 * bw + 1, n_rho), dtype=complex)
    for off in range(-bw, bw + 1):
        rows = np.arange(max(0, -off), min(n_rho, n_rho - off))
        band[:, 2 * bw - off, rows + off] = modes[rows, off + bw, :].T
    factors = []
    for m, ab in enumerate(band):
        lu, piv, info = lapack.zgbtrf(ab, bw, bw)
        if info != 0:
            raise RuntimeError(f"azimuthal mode {m} of the shifted pencil is "
                               f"singular (zgbtrf info {info})")
        factors.append((lu, piv))

    def solve(x):
        # x is one vector or a block of them, one per column; each mode takes
        # the whole block in one banded solve.
        lattice = x.reshape(n_rho, n_phi, *x.shape[1:])
        coeffs = np.fft.rfft(lattice, axis=1).swapaxes(0, 1).copy()
        for m, (lu, piv) in enumerate(factors):
            coeffs[m], info = lapack.zgbtrs(lu, bw, bw, coeffs[m], piv)
            if info != 0:
                raise RuntimeError(f"banded solve of azimuthal mode {m} failed "
                                   f"(zgbtrs info {info})")
        return np.fft.irfft(coeffs.swapaxes(0, 1), n=n_phi, axis=1).reshape(x.shape)

    return solve, int(sum(lu.size for lu, _ in factors))


def _svqb(S: np.ndarray, MS: np.ndarray) -> np.ndarray:
    """Coefficients C that make the columns of S @ C M-orthonormal (SVQB).

    MS is M @ S.  The Gram matrix is scaled to a unit diagonal before its
    eigh, so columns of very different length weigh alike, and directions
    whose scaled eigenvalue falls below _SVQB_DROP of the largest are
    dropped as dependent: C may have fewer columns than S.
    """
    G = S.T @ MS
    G = 0.5 * (G + G.T)
    d = np.sqrt(np.diag(G))
    d[d == 0.0] = 1.0
    vals, vecs = np.linalg.eigh(G / np.outer(d, d))
    keep = vals > _SVQB_DROP * max(vals[-1], 0.0)
    return vecs[:, keep] / (d[:, None] * np.sqrt(vals[keep]))


def _residuals(A, M, lam: np.ndarray, X: np.ndarray):
    """A @ X, the residual block R = A X - M X diag(lam), and its column norms.

    Column i's norm is |r_i|_(D^-1) / |x_i|_M, D the diagonal of M, in numpy
    sums: no BLAS dot, so its bytes do not depend on the BLAS thread count.
    """
    AX, MX = A @ X, M @ X
    R = AX - MX * lam
    res = (np.sqrt(np.sum(R * R / M.diagonal()[:, None], axis=0))
           / np.maximum(np.sqrt(np.sum(X * MX, axis=0)), 1e-300))
    return AX, R, res


def _block_eigensolver(A, M, k: int, precondition):
    """The top k eigenpairs of A u = lambda M u, by block LOBPCG.

    Knyazev's locally optimal block preconditioned conjugate gradient
    (SIAM J. Sci. Comput. 23(2), 2001) on a block of k + 2 columns seeded
    from _EIGSH_SEED.  Each iteration applies precondition to the residual
    block, giving W, and runs Rayleigh-Ritz on X, W and P, where P spans the
    new X's step away from the old X.  W is M-projected off X and P and made
    M-orthonormal by SVQB; X and P come out of the Rayleigh-Ritz basis by
    orthonormal coefficients, P taken orthogonal to the new X in that small
    space.  So the whole basis stays M-orthonormal and Rayleigh-Ritz is a
    plain eigh.  Every reduction over the unknowns is a gemm X.T @ Y, a numpy
    sum or a sparse product, never a BLAS dot, so the result keeps its bytes
    under any BLAS thread count (tests check 96x96 and 128x128).

    Stops once each of the k wanted pairs has a residual below _BLOCK_TOL,
    in the norm of _residuals, which spectrum reports; raises
    RuntimeError after _BLOCK_MAX_ITER iterations.  Returns the eigenvalues,
    largest first, the M-orthonormal eigenvectors as columns, and their
    residuals.
    """
    N = A.shape[0]
    b = min(k + 2, N)
    X = np.random.default_rng(_EIGSH_SEED).standard_normal((N, b))
    S = X @ _svqb(X, M @ X)
    AS = A @ S
    for iteration in range(_BLOCK_MAX_ITER + 1):
        # S holds X, P and W in that order (only X at first), M-orthonormal.
        H = S.T @ AS
        lam, V = np.linalg.eigh(0.5 * (H + H.T))
        lam, Y = lam[::-1][:b], V[:, ::-1][:, :b]
        step = Y[:, :0]
        if iteration:
            # P: the new X's step off the old X, orthogonal to the new X.
            step = Y.copy()
            step[:b] = 0.0
            step = step - Y @ (Y.T @ step)
            step = step @ _svqb(step, step)
        XP = S @ np.hstack([Y, step])
        X = XP[:, :b]
        AX, R, res = _residuals(A, M, lam, X)
        if np.all(res[:k] < _BLOCK_TOL):
            return lam[:k], X[:, :k], res[:k]
        if iteration == _BLOCK_MAX_ITER:
            break
        # W off [X, P], then M-orthonormal.  Two classical passes: one leaves
        # roundoff of the size of the part it removed, and with one the
        # iteration failed to converge at theta 3.0 on 24x24.
        W, MXP = precondition(R), M @ XP
        for _ in range(2):
            W = W - XP @ (MXP.T @ W)
        W = W @ _svqb(W, M @ W)
        S = np.hstack([XP, W])
        AS = np.hstack([AX, AS @ step, A @ W])
    raise RuntimeError(
        f"block eigensolver did not converge in {_BLOCK_MAX_ITER} iterations "
        f"(worst residual {np.max(res[:k]):.3e}, tolerance {_BLOCK_TOL:.0e})")


def spectrum(space: WeightedSpace, how_many: int = 8) -> SpectrumReport:
    """Solve for the top k eigenpairs of the pencil and classify them.

    The pencil of :func:`assemble_operator`, already restricted to the
    contact-condition trial space, is solved for its k largest eigenpairs,
    where k is how_many but at least 6, which the kernel and window verdicts
    need.  Both solvers invert the ring average of K = 1.5 M - A one
    azimuthal mode at a time.  A reference constant along every ring, bit for
    bit, makes K block-circulant in phi, so that inverse is exact and drives
    shift-invert Lanczos at 1.5, whose k eigenvalues nearest 1.5 are the top
    k; any other reference gets the block eigensolver, preconditioned by it.
    The eigenpair residuals of :func:`_residuals` are reported either way.
    """
    if how_many < 1:
        raise ValueError(f"how_many must be at least 1, got {how_many}")
    g = space.grid
    pencil = assemble_operator(space)
    A_red, M_red = pencil.A, pencil.M
    N = A_red.shape[0]
    k = int(min(max(how_many, 6), N - 2))
    inverse, factor_nnz = _azimuthal_mode_solver(
        (_SHIFT * M_red - A_red).tocsc(), (g.node_shape[0] - 1, g.node_shape[1]))
    n_solves = 0

    def solve(x):
        nonlocal n_solves
        n_solves += x.size // N
        return inverse(x)

    if np.all(space.f2 == space.f2[:, :1]):  # rotationally invariant
        solver = "azimuthal_modes"
        # Shift-invert wants (A - 1.5 M)^-1 = -K^-1.
        OPinv = spla.LinearOperator((N, N), matvec=lambda x: -solve(x), dtype=float)
        v0 = np.random.default_rng(_EIGSH_SEED).standard_normal(N)
        vals, vecs = spla.eigsh(A_red, k=k, M=M_red, sigma=_SHIFT, which="LM",
                                v0=v0, OPinv=OPinv)
        order = np.argsort(vals)[::-1]
        top_vals, top_vecs = vals[order], vecs[:, order]
        residuals = _residuals(A_red, M_red, top_vals, top_vecs)[2]
    else:
        solver = "block_lobpcg"
        top_vals, top_vecs, residuals = _block_eigensolver(A_red, M_red, k, solve)
    inside = np.nonzero((top_vals > WINDOW[0]) & (top_vals < WINDOW[1]))[0]
    # Both solvers return the top k, so every unreturned eigenvalue lies at or
    # below the last one, which the cli's smallest_eigenvalue gate holds at or
    # below -kernel_threshold: no unreturned eigenvalue can lie in (0.01, 0.99).
    window_empty = bool(inside.size == 0)
    window_note = "" if window_empty else f"{inside.size} eigenvalues inside {WINDOW}"

    lambda1 = float(top_vals[0])
    lambda1_gap = float(top_vals[0] - top_vals[1]) if len(top_vals) > 1 else math.inf

    # Mesh anchor for the kernel: the Rayleigh-Ritz values of the horizontal
    # linears say where the discretization parks the translation modes, and
    # drho^2 is the resolution scale of their eigenvector error (still one to
    # two orders below the first true negative eigenvalue on the coarsest
    # supported grids).  The relative floor keeps the threshold meaningful on
    # grids fine enough to beat both anchors.
    lins = np.stack([lin[:-1].reshape(-1) for lin in space.linears], axis=1)
    B = lins.T @ (A_red @ lins)
    G = lins.T @ (M_red @ lins)
    ritz = np.linalg.eigvals(np.linalg.solve(G, B))
    kernel_scale = float(np.max(np.abs(ritz)))
    thr = max(1e-6 * abs(lambda1), 3.0 * kernel_scale, g.drho**2)
    kernel_idx = [i for i, v in enumerate(top_vals) if abs(v) <= thr]
    cosine = _kernel_cosine(space, (pencil.basis @ top_vecs)[:, kernel_idx])

    return SpectrumReport(
        eigenvalues=[float(v) for v in top_vals],
        residuals=[float(r) for r in residuals],
        lambda1=lambda1,
        lambda1_gap=lambda1_gap,
        lambda1_simple=bool(lambda1_gap >= LAMBDA1_GAP),
        kernel_indices=kernel_idx,
        kernel_threshold=float(thr),
        kernel_cosine=cosine,
        window=WINDOW,
        window_empty=window_empty,
        window_note=window_note,
        asymmetry=pencil.asymmetry,
        n_unknowns=N,
        solver=solver,
        factor_nnz=factor_nnz,
        n_solves=n_solves,
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


def equality_decompose(space: WeightedSpace, f, f1) -> Decomposition:
    g = space.grid
    fv = as_field(g, f).values
    f1v = as_field(g, f1).values
    l1, l2 = space.linears
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


def af_check(space: WeightedSpace, f, f1) -> AFReport:
    """Check V(f,f1,f2)^2 >= V(f,f,f2) V(f1,f1,f2) and diagnose near-equality.

    f only needs the contact-angle condition; f1 must pass capfun.certify.
    Both the mixed-volume quadrature and the weighted bilinear form of the
    operator are evaluated; their disagreement is pure roundoff and is
    reported as form_consistency.
    """
    g = space.grid
    S = as_field(g, f)
    if S.robin_max > S.robin_gate:
        raise ValueError(
            f"free field violates the contact-angle condition "
            f"(residual {S.robin_max:.3e})"
        )
    S1 = certify(g, f1)

    # One shape tensor per field: a body's is its own, the reference's the space's.
    v_m = mixed_volume(g, S, (S1, space.ref))
    v_m_swap = mixed_volume(g, S1, (S, space.ref))
    v_ff = mixed_volume(g, S, (S, space.ref))
    v_11 = mixed_volume(g, S1, (S1, space.ref))
    lhs = v_m * v_m
    rhs = v_ff * v_11
    gap = lhs - rhs
    rel = gap / max(abs(rhs), 1e-300)

    bil = space.inner(S.values, space.apply_tensor(S1.tensor))
    consistency = abs(bil - v_m) / max(abs(v_m), abs(bil), 1e-300)

    swap_err = abs(v_m - v_m_swap)
    noise = (2.0 * abs(v_m) + abs(v_ff) + abs(v_11)) * swap_err \
        + 1e-13 * max(abs(lhs), abs(rhs), 1.0)
    near_equality = abs(gap) <= 10.0 * noise
    decomp = equality_decompose(space, S, S1) if near_equality else None
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
    """Log-concavity chain of a mixed-volume sequence."""

    values: list[float]
    triples: list[dict]
    min_relative_slack: float


def af_chain_check(grid: CapGrid, body0, body1) -> ChainReport:
    """Check V_j / V_k >= (V_i / V_k)^((k-j)/(k-i)) for every i < j < k.

    V_i = V(body1 x i, body0 x (3-i)) is :func:`mixed_sequence`, so the chain
    is the log-concavity of i -> V_i that the general Alexandrov-Fenchel
    inequality gives.  Normalizing by V_k rather than a closed form keeps
    homothetic bodies exactly on the equality case.  A body keeps its shape
    tensor, as every CapillaryField does, so a body in several chains is
    shaped once.
    """
    values = mixed_sequence(grid, body0, body1)
    if min(values) <= 0.0:
        i = int(np.argmin(values))
        raise ValueError(f"mixed volume V_{i} = {values[i]:.3e} is not positive")
    triples = []
    for i, j, k in itertools.combinations(range(4), 3):
        lhs = values[j] / values[k]
        rhs = (values[i] / values[k]) ** ((k - j) / (k - i))
        slack = lhs - rhs
        rel = slack / max(abs(lhs), abs(rhs), 1e-300)
        triples.append(
            {"i": i, "j": j, "k": k, "lhs": lhs, "rhs": rhs,
             "slack": slack, "relative_slack": rel}
        )
    min_rel = min(t["relative_slack"] for t in triples)
    return ChainReport([float(v) for v in values], triples, float(min_rel))


def quermass_chain_check(grid: CapGrid, body) -> ChainReport:
    """The chain of the quermassintegrals W_0..W_3 of one body.

    This is :func:`af_chain_check` with the unit cap as the second body; the
    k = 3 triples are the normalized inequalities
    W_j / W_3 >= (W_i / W_3)^((3-j)/(3-i)), and a cap body sits exactly on
    the equality case.
    """
    return af_chain_check(grid, body, ell_values(grid))

