"""Weighted spectral analysis of the mixed-volume operator on the cap.

With a fixed convex reference field f2, the operator

    A f = f2 * Q(A[f], A[f2]) / det A[f2]

is formally self-adjoint in L2 of the weight d_omega = det A[f2] / (3 f2) dsigma,
and its bilinear form reproduces the mixed volume: <f, A g>_omega = V(f, g, f2).
Its spectrum carries the quadratic inequality: a simple eigenvalue 1 on top, a
two-dimensional kernel spanned by the horizontal linear functions, and the
rest nonpositive.  This module builds the weight, assembles the operator as a
sparse symmetric weak form (the contact-angle condition enters as a natural
boundary term) and restricts it to the fields whose boundary row obeys that
condition, through the grid's own boundary stencil: the result is the Pencil
(A, M) on that trial space.  The form's factors and the trial basis are
``_stencil`` Stencils from that module's builders.  The assembly sums the
products of their entries in one vectorized pass, folds every group through
the basis after, and forms no product of lattice matrices; A comes out
symmetric bit for bit.  The pencil holds A and M only as the groups they are
assembled in, which scipy lays out as sparse matrices on first read.  The
module then solves for the top eigenpairs and packages the inequality checks
that follow from it.  Every spectrum splits the ring average of its pencil
once, from those groups, into one banded Hermitian pencil per azimuthal
Fourier mode, held as lower bands, and factors its modes by one banded LDL^H.
A rotationally invariant reference makes the pencil block-circulant in phi, so
that split is exact: the factor's Sylvester inertia counts the eigenvalues
above any shift exactly, and a small eigh on the modes that hold the top k
solves them.  Any other reference gets a block LOBPCG, preconditioned by the
same LDL^H of 1.5 M - A (its pivots check that it is positive definite) and
started from the exact top modes.  It takes A's products with its iterates
from those with its basis, and checks its residuals afresh before it stops;
its counts are those of its Ritz values.  The found kernel is compared with
the exact linears in M's inner product.  The functions that call scipy import
it themselves, so importing capaf loads numpy alone and scipy arrives with the
first pencil.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass
from functools import cached_property
from typing import TYPE_CHECKING, NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._stencil import Stencil, azimuthal, on_rows, radial, sbp
from .capgrid import CapGrid, ShapeTensor
from .capfun import as_field, certify, ell, horizontal_linear
from .mixedvol import mixed_sequence, q2

if TYPE_CHECKING:
    import scipy.sparse as sp

WINDOW = (0.01, 0.99)
# The block eigensolver's preconditioner factors the ring average of s M - A
# at s = _SHIFT.  The shift lies above the top eigenvalue 1, so its mode
# matrices are positive definite, which the pivots of their LDL^H check.
_SHIFT = 1.5
# lambda1 counts as simple when the next eigenvalue lies at least this far
# below it; the paper's dichotomy puts the next one at 0 or below.
LAMBDA1_GAP = 0.9
# The exact counts of a rotationally invariant spectrum: how many eigenvalues
# lie above _CEILING (none should), above the window, in it, and in the
# kernel band.
_CEILING = 1.01
# Shifts at which the per-mode solve first counts eigenvalues to find the top
# k: below the kernel band, and off the hemisphere's exact eigenvalues
# (2 - l(l+1))/2, where a pivot would be small.
_LADDER = tuple(-0.15 * 2.0 ** j for j in range(7))
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

# Undivided third-difference coefficients for the odd-even dissipation term:
# O(spacing^6) on resolved fields, order one on lattice-flip modes.
_D3 = ((-1, -1.0), (0, 3.0), (1, -3.0), (2, 1.0))
_DISSIPATION = 0.25
# 4th-order centred periodic first difference in phi, times 12 dphi.  It is
# antisymmetric: the weight of offset -o is minus that of o.
_PHI1 = ((-2, 1.0), (-1, -8.0), (1, 8.0), (2, -1.0))

def _sum_by_key(key, scale, rows, table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct keys, ascending, and for each the sum of scale[p] *
    table[rows[p]] over its p: one sparse-times-dense product.  Each sum
    takes its terms from the smallest |scale| up."""
    import scipy.sparse as sp

    order = np.lexsort((np.abs(scale), key))
    key = key[order]
    starts = np.flatnonzero(np.diff(key, prepend=-1))
    sums = sp.csr_matrix((scale[order], rows[order], np.append(starts, key.size)),
                         shape=(starts.size, table.shape[0]))
    return key[starts], sums @ table


class _Form(NamedTuple):
    """A matrix on the lattice of unknowns, in the groups it is assembled in.

    Unknown k sits at lattice index (k // n_phi, k % n_phi).  Group g holds
    the entries ((c1[g], j), (c1[g] + d[g], j + e[g])), j + e[g] taken mod
    n_phi, with values[g, j] at phi index j; groups are sorted by c1, then
    d, then e, and no two share all three.
    """

    c1: np.ndarray
    d: np.ndarray
    e: np.ndarray
    values: np.ndarray

    def csr(self, n_rows: int) -> sp.csr_matrix:
        """The matrix on n_rows rings, as CSR with sorted indices and without
        its exact zeros."""
        import scipy.sparse as sp

        n_phi = self.values.shape[1]
        # In scipy's index type, so that no index array is copied.
        c1, d, e = (x.astype(np.int32)[:, None] for x in self[:3])
        j = np.arange(n_phi, dtype=np.int32)
        row = c1 * n_phi + j
        col = (c1 + d) * n_phi + (j + e) % n_phi
        matrix = sp.csr_matrix((self.values.ravel(), (row.ravel(), col.ravel())),
                               shape=(n_rows * n_phi,) * 2)
        matrix.sort_indices()
        matrix.eliminate_zeros()
        return matrix

    def lower_diagonals(self):
        """The mean over phi of each wrapped diagonal on or below the main one.

        Returns (c1, -d, e, mean) for the groups with d <= 0 and an entry
        stored.  A mean reads the group's stored entries in phi order, as CSR
        holds them: the first one plus the mean deviation from it, summed one
        after another (a plain sum of n_phi nearly equal entries rounds at
        several ulps, which raised the solve's residual tenfold).  Exact
        zeros are not stored, so they count neither as entries nor as
        deviations.
        """
        lower = self.d <= 0
        values = self.values[lower]
        n_phi = values.shape[1]
        stored = values != 0.0
        count = np.count_nonzero(stored, axis=1)
        ref = values[np.arange(values.shape[0]), np.argmax(stored, axis=1)]
        dev = np.cumsum(np.where(stored, values - ref[:, None], 0.0), axis=1)[:, -1]
        mean = ref * (count / n_phi) + dev / n_phi
        keep = count > 0
        return (self.c1[lower][keep], -self.d[lower][keep], self.e[lower][keep],
                mean[keep])


def _robin_basis(grid: CapGrid) -> Stencil:
    """Columns span the fields whose ring row obeys the contact condition.

    The basis maps the unknowns, the rows below the ring, to node rows: the
    identity below the ring, and on it the grid's stencil of
    d_rho f(theta) = cot(theta) f(theta), the row that robin_residual and
    certify use, solved for the ring value as weights on the last rows below.
    Constraining the trial space this way matters: the sharp bound
    lambda <= 1 holds only over fields with the correct contact angle, and
    unconstrained boundary layers can creep above it at low order.
    """
    ring = grid.node_shape[0] - 1
    w = grid.boundary_weights
    fold = np.arange(ring - w.size + 1, ring)
    rows = np.arange(ring)
    return radial(np.append(rows, np.full(fold.size, ring)), np.append(rows, fold),
                  np.append(np.ones(ring), w[:-1] / (grid.cot_theta - w[-1])), grid.n_phi)


class _Groups(NamedTuple):
    """Keys of the groups of a form on the n_rho x n_phi node lattice.

    A group holds the form's coefficients at one (row c1, d_rho, d_phi), one
    per phi index; its key orders groups by c1, then d_rho, then d_phi.
    """

    n_rho: int
    n_phi: int

    def key(self, c1, c2, shift):
        R, P = self
        return (c1 * (2 * R + 1) + c2 - c1 + R) * P + shift % P

    def unkey(self, group):
        R, P = self
        c1, offset = np.divmod(group, (2 * R + 1) * P)
        d, e = np.divmod(offset, P)
        return c1, d - R, e


def _robin_fold(groups: _Groups, group, coef, basis: Stencil):
    """Restrict a form's groups to the trial space, basis^T F basis.

    Every group moves to the basis entries on its row and on its column,
    scaled by both weights, and the moved groups are summed by key.  Returns
    the groups, ascending, and their coefficients.
    """
    c1, d, e = groups.unkey(group)
    i, b1 = on_rows(c1, basis, groups.n_rho)
    j, b2 = on_rows((c1 + d)[i], basis, groups.n_rho)
    src, b1 = i[j], b1[j]
    return _sum_by_key(groups.key(basis.col[b1], basis.col[b2], e[src]),
                       basis.weight[b1] * basis.weight[b2], src, coef)


@dataclass(frozen=True)
class Pencil:
    """Weak-form (Galerkin) pencil of the weighted operator on the trial space.

    The trial space, :func:`_robin_basis`, is the fields whose boundary row
    obeys the contact condition.  A is the symmetric stiffness-plus-mass
    matrix of the bilinear map (f, g) -> <f, A g>_omega restricted to it, and
    M the Gram matrix of omega in the derivative operator's companion
    quadrature (which differs from the reporting quadrature in the six pole
    rows and the six rows nearest the boundary, by up to 0.74 drho at
    32x32), so the eigenproblem is A u = lambda M u.  Assembling the
    quadratic form instead of the raw second-order stencil keeps A symmetric
    by construction, and its entries are symmetrized last, so A equals its
    transpose bit for bit.  What the form leaves out is the antisymmetric
    half of the boundary cross term; its size relative to the form is
    recorded in asymmetry.  The pencil holds A and M only as A_form and
    M_form, the groups they are assembled in, which the azimuthal split
    reads; the sparse A and M are laid out from them on first read, once.
    """

    A_form: _Form
    M_form: _Form
    asymmetry: float

    @property
    def n_rings(self) -> int:
        """Rings of unknowns: M is positive definite, so it stores the last one's diagonal."""
        return int(self.M_form.c1[-1]) + 1

    @cached_property
    def A(self) -> sp.csc_matrix:
        # A is symmetric, so its CSR form, transposed, is its CSC form.
        return self.A_form.csr(self.n_rings).T

    @cached_property
    def M(self) -> sp.csc_matrix:
        return self.M_form.csr(self.n_rings).tocsc()


def assemble_operator(space: WeightedSpace) -> Pencil:
    """Assemble the operator's pencil on the contact-condition trial space.

    Integrating the defining expression by parts turns it into

        <f, A g>_omega = (1/3) [ -int grad(f).Q(W).grad(g) + (trW/2) f g ]
                         + ring terms,

    where Q(W) = (trW * Id - W)/2 is positive definite for convex references,
    and the contact-angle condition enters naturally through the ring terms
    (cot(theta) Q_mumu f g plus a tangential cross term, symmetrized).  The
    gradients are the summation-by-parts radial stencil of ``_stencil.sbp``
    (pole rows reach across to the antipodal meridian) and banded periodic
    differences in phi.

    Every term is G_s^T diag(c) G_t for two ``_stencil.Stencil`` factors.  A
    pair of their entries on a common row adds a row of c, rolled by the
    first entry's azimuthal offset and scaled by both weights, to the
    coefficients of one lattice offset (d_rho, d_phi) on one radial row, so
    F, the form on the node lattice, is one sparse-times-dense product of
    such rows.  The Robin basis is a Stencil too, and acts on radial rows
    only: restricting F to the trial space (:func:`_robin_fold`) moves every
    group to the basis entries on its row and column, scaled by their
    weights, in a second such product.  The identity rows below the fold
    give one-term sums, so only the ring row and column change: they move
    onto the five rows below.  Folding after the sums rather than into each
    factor keeps every entry of A within one ulp of max|A| of the same form
    summed in long double, and leaves F whole for the norm that asymmetry is
    relative to.  The result is symmetrized against its transpose, kept as
    its groups (a :class:`_Form`); no lattice matrix is multiplied.
    """
    g = space.grid
    R, P = g.node_shape
    ring = R - 1
    rho = np.arange(R)
    off1 = [o for o, _ in _PHI1]
    phi1 = np.array([c for _, c in _PHI1]) / (12.0 * g.dphi)
    off3 = [o for o, _ in _D3]
    d3 = np.array([c for _, c in _D3])
    G_rho, h_rho = sbp(R, g.drho, P)
    factors = {
        "rho": G_rho,
        "phi": azimuthal(rho, off1, (1.0 / g.sin_rho)[:, None] * phi1),
        # The pole row reflects through the axis (antipodal meridian); the
        # last rows shift the stencil inward so it stays on the lattice.
        "rho3": radial(np.repeat(rho, 4), np.repeat(np.minimum(rho, R - 3), 4)
                       + np.tile(off3, R), np.tile(d3, R), P),
        "phi3": azimuthal(rho, off3, np.tile(d3, (R, 1))),
        "eye": azimuthal(rho, [0], np.ones((R, 1))),
        # Tangential derivative along the ring.
        "arc": azimuthal([ring], off1, phi1[None] / g.sin_theta),
    }
    basis = _robin_basis(g)

    W = space.A2
    q_rr = 0.5 * W.pp
    q_pp = 0.5 * W.rr
    q_rp = -0.5 * W.rp
    w = np.outer(h_rho * g.sin_rho, np.full(P, g.dphi))
    mass_density = 0.5 * (W.rr + W.pp)
    # Ring terms on the boundary row, measure sin(theta) dphi: cot(theta)
    # Q_mumu f g joins the mass there, and the tangential cross term is
    # symmetrized.  Its antisymmetric half vanishes in the continuum; it is
    # dropped and reported.
    wr = g.sin_theta * g.dphi
    mass = w * mass_density
    mass[ring] += g.cot_theta * wr * q_rr[ring]
    cross = np.zeros((R, P))
    cross[ring] = 0.5 * wr * q_rp[ring]
    # Centred first differences annihilate the odd-even modes (one lattice
    # flip per direction), which would otherwise sit spuriously at the top of
    # the spectrum.  An undivided third-difference penalty is positive
    # semidefinite, moves those modes far below the window, and perturbs
    # resolved fields only at sixth order in the spacing.
    fields = (w * q_rr, w * q_pp, w * q_rp, _DISSIPATION * w * mass_density, mass, cross)
    terms = (("rho", "rho", 0, -1.0), ("phi", "phi", 1, -1.0),
             ("rho", "phi", 2, -1.0), ("phi", "rho", 2, -1.0),
             ("rho3", "rho3", 3, -1.0), ("phi3", "phi3", 3, -1.0),
             ("eye", "eye", 4, 1.0), ("eye", "arc", 5, 1.0), ("arc", "eye", 5, 1.0))

    # F is three times the form on the node lattice.  Every pair of entries
    # on a common row adds a row of the term's field, rolled by s.shift[a]
    # and scaled by the sign and both weights, to one group: the
    # coefficients of F at one (row, d_rho, d_phi), ordered by key.
    groups = _Groups(R, P)
    key, unkey = groups.key, groups.unkey
    keys, sources, scales = [], [], []
    for s_name, t_name, field, sign in terms:
        if not fields[field].any():  # the cap's Q_rho,phi and ring cross term
            continue
        s, t = factors[s_name], factors[t_name]
        a, b = on_rows(s.row, t, R)
        keys.append(key(s.col[a], t.col[b], t.shift[b] - s.shift[a]))
        sources.append((field * P + s.shift[a] % P) * R + s.row[a])
        scales.append(sign * s.weight[a] * t.weight[b])
    # One table row per (field, roll, radial row) that some pair reads.
    source = np.concatenate(sources)
    rolls = np.zeros(len(fields) * P, dtype=bool)
    rolls[source // R] = True
    table = np.concatenate([np.roll(fields[u // P], u % P, axis=1) for u in np.flatnonzero(rolls)])
    group, coef = _sum_by_key(np.concatenate(keys), np.concatenate(scales),
                              (np.cumsum(rolls) - 1)[source // R] * R + source % R, table)
    norm = math.sqrt(np.sum(np.einsum("ij,ij->i", coef, coef))) / 3.0
    # The dropped half of the cross term, 0.5 (C - C^T): the stencil is
    # antisymmetric, so entry (j, j + o) is 0.5 a_o (c_j + c_{j+o}).
    tangent = cross[ring]
    dropped = sum(np.sum((a * (tangent + np.roll(tangent, -o)) / g.sin_theta) ** 2)
                  for o, a in zip(off1, phi1))
    asym = math.sqrt(dropped) / (3.0 * max(norm, 1e-300))

    group, coef = _robin_fold(groups, group, coef, basis)

    # A = (X + X^T)/6 with X = basis^T F basis.  Every group of X has its
    # transposed group (c1 + d, -d, -e), and the entry at phi index j
    # transposes to that group's entry at j + e.  Both entries of a pair are
    # the same sum of the same two numbers: A equals its transpose bit for bit.
    c1, d, e = unkey(group)
    partner = np.searchsorted(group, key(c1 + d, c1, -e))
    coef += sliding_window_view(np.concatenate([coef, coef], axis=1), P, axis=1)[partner, e]
    A_form = _Form(c1, d, e, coef / 6.0)

    # M = basis^T diag(omega) basis, each product rounded as
    # (weight omega) weight, as the matrix product rounds it.
    omega = w * space.detA2 / (3.0 * space.f2)
    a, b = on_rows(basis.row, basis, R)
    group, mass = _sum_by_key(key(basis.col[a], basis.col[b], 0), np.ones(a.size), np.arange(a.size),
                              basis.weight[a, None] * omega[basis.row[a]] * basis.weight[b, None])
    return Pencil(A_form, _Form(*unkey(group), mass), asym)


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
    # Exact counts from Sylvester inertia (rotationally invariant references
    # only, else None): eigenvalues above 1.01 and above 0.99, in the window,
    # in the kernel band, and the smallest relative pivot behind them.
    counts: dict | None
    # Solver statistics for the run's sidecar, not part of the report: which
    # solver ran ("azimuthal_modes" or "block_lobpcg") and its own counters.
    solver: str
    stats: dict
    _SIDECAR = ("solver", "stats")

    def to_dict(self) -> dict:
        return {k: v for k, v in asdict(self).items() if k not in self._SIDECAR}

    def sidecar(self) -> dict:
        return {"solver": self.solver, **self.stats}


def _kernel_cosine(K: np.ndarray, MK: np.ndarray, L: np.ndarray, ML: np.ndarray) -> float | None:
    """Smallest principal cosine, in M's inner product, between the found kernel
    vectors K and the exact linears L (columns; MK = M @ K, ML = M @ L), or None
    when K has none: the least singular value of Q_K^T M Q_L for bases made
    M-orthonormal by SVQB (Knyazev & Argentati, SIAM J. Sci. Comput. 23(6), 2002)."""
    if K.shape[1] == 0:
        return None
    cosines = np.linalg.svd(_svqb(K, MK).T @ (MK.T @ L) @ _svqb(L, ML), compute_uv=False)
    return float(cosines[-1])


class _ModePencil:
    """A pencil's ring average (A, M) split into its azimuthal modes.

    Averaging each wrapped diagonal of A and M over phi (the optimal
    circulant, :meth:`_Form.lower_diagonals`) couples ring nodes by
    coefficients that depend on the azimuthal offset only; for a rotationally
    invariant reference it is (A, M) itself to roundoff.  Its eigenvectors
    are radial profiles u times exp(i m phi), one Hermitian banded pencil
    (A_m, M_m) per mode m = 0..n_phi/2, in which offset e weighs
    exp(2 pi i m e / n_phi); the pole mirror is the offset n_phi/2.  Modes
    0 < m < n_phi/2 stand for the pair m and -m, whose real eigenvectors are
    the cos and sin parts, so each of their eigenvalues counts twice.  Every
    count below is exact for the ring average by Sylvester's law of inertia.
    Every reader takes the lower triangle only, so each mode is held once as
    lower bands, filled from the forms' groups with d <= 0: a[d, i, m] is
    entry (i + d, i) of A_m for d = 0..bw (the radial bandwidth of either
    form's stored entries), and m likewise for M_m, zero past the lattice and
    padded by bw rows for the Schur updates of :meth:`_factor`.
    """

    def __init__(self, pencil: Pencil):
        self.n_phi = P = pencil.A_form.values.shape[1]
        self.n_rho = n = pencil.n_rings
        diagonals = [f.lower_diagonals() for f in (pencil.A_form, pencil.M_form)]
        self.bw = bw = max(int(np.max(below, initial=0)) for _, below, _, _ in diagonals)
        self.a, self.m = (np.zeros((bw + 1, n + bw, P // 2 + 1), dtype=complex) for _ in range(2))
        for low, (c1, below, e, mean) in zip((self.a, self.m), diagonals):
            # rfft weighs offset e by exp(-2 pi i m e / n_phi): conjugate it.
            coef = np.zeros((bw + 1, n, P))
            coef[below, c1 - below, e] = mean
            low[:, :n] = np.conj(np.fft.rfft(coef, axis=2))
        # n_phi is even: the last mode is n_phi/2, real like mode 0.
        self.multiplicity = np.full(P // 2 + 1, 2)
        self.multiplicity[[0, -1]] = 1

    def _factor(self, shifts) -> np.ndarray:
        """The unpivoted banded LDL^H of s M_m - A_m for all shifts s and modes
        m, in place in the padded bands, shift and mode trailing so each column
        is contiguous: [0, j, i, m] holds pivot d_j of shift i in its real part,
        [a, j, i, m] L(j + a, j).  M_m is positive definite, so the negative
        pivots count the eigenvalues of (A_m, M_m) above s (Sylvester's law)."""
        work = self.m[:, :, None, :] * np.asarray(shifts, dtype=float)[:, None]
        work -= self.a[:, :, None, :]
        a_idx, b_idx = (x + 1 for x in np.triu_indices(self.bw))
        for j in range(self.n_rho):
            d, l = work[0, j].real, work[1:, j]
            l /= d
            # Schur update of the trailing band: entry (j+b, j+a) loses
            # L(j+b, j) d conj(L(j+a, j)) for 1 <= a <= b <= bw.
            work[b_idx - a_idx, j + a_idx] -= d * l[b_idx - 1] * np.conj(l[a_idx - 1])
        return work

    def inertia(self, shifts) -> tuple[np.ndarray, np.ndarray]:
        """Per-mode counts of eigenvalues above each shift, the negative
        pivots of :meth:`_factor`, of shape (len(shifts), n_modes) and
        without multiplicity, and each shift's smallest relative pivot:
        |d_j| over the diagonal entry it came from.  A small one means
        cancellation, and the count is then not certified."""
        n, s = self.n_rho, np.asarray(shifts, dtype=float)
        diag = np.abs(self.m[0, :n, None, :] * s[:, None] - self.a[0, :n, None, :])
        pivots = self._factor(s)[0, :n].real
        return (np.count_nonzero(pivots < 0.0, axis=0),
                np.min(np.abs(pivots) / diag, axis=(0, 2)))

    def solver(self, shift: float):
        """A solve with the ring average of shift * M - A by the counts' own
        factor (:meth:`_factor`), and the number of entries of L and D.  The
        first mode with a pivot that is not positive and finite, so not
        positive definite, raises RuntimeError before anything divides by D.
        A solve is an rfft along phi, a forward sweep of L, a division by D
        and a backward sweep of L^H over the radial rows, for every mode and
        column at once, and an irfft."""
        n, P, bw = self.n_rho, self.n_phi, self.bw
        factor = self._factor([shift])[:, :n, 0]
        d = factor[0].real.copy()  # the solve keeps no view of the whole band
        bad = np.flatnonzero(~np.all((d > 0.0) & (d < np.inf), axis=0))
        if bad.size:
            raise RuntimeError(f"azimuthal mode {bad[0]} of {shift} M - A is not positive "
                               f"definite (smallest pivot {np.min(d[:, bad[0]]):.3e})")
        # As (a, column, mode): lower[j, a - 1] = L(j + a, j), upper[j, bw - a] = conj L(j, j - a).
        lower = factor[1:].transpose(1, 0, 2)[:, :, None].copy()
        upper = np.zeros_like(lower)
        for a in range(1, bw + 1):
            upper[a:, bw - a] = np.conj(lower[:n - a, a - 1])

        def solve(x):
            # x is one vector or a block of them, one per column.  y holds the
            # radial rows between bw padding rows, each as (column, mode), so
            # every update runs over the modes innermost for any block width.
            y = np.zeros((n + 2 * bw, x.size // (n * P), P // 2 + 1), dtype=complex)
            rows, step = y[bw:n + bw], np.empty_like(y[:bw])
            rows[...] = np.fft.rfft(x.reshape(n, P, -1), axis=1).transpose(0, 2, 1)
            for j in range(n):
                y[bw + j + 1:2 * bw + j + 1] -= np.multiply(lower[j], rows[j], out=step)
            rows /= d[:, None]
            for j in range(n - 1, -1, -1):
                y[j:bw + j] -= np.multiply(upper[j], rows[j], out=step)
            return np.fft.irfft(rows.transpose(0, 2, 1), n=P, axis=1).reshape(x.shape)

        return solve, int(factor.size)

    def _dense(self, low: np.ndarray, m: int) -> np.ndarray:
        """Mode m's matrix from its lower bands, as its lower triangle: the
        only one that eigh (lower=True) reads."""
        n = self.n_rho
        out = np.zeros((n, n), dtype=complex)
        rows = np.arange(n)
        for d in range(self.bw + 1):
            out[rows[d:], rows[:n - d]] = low[d, :n - d, m]
        return out

    def top(self, k: int) -> tuple[np.ndarray, np.ndarray, dict]:
        """The ring average's top k eigenvectors, largest eigenvalue first, with
        the mode of each.

        Counts at the shifts of _LADDER, doubled further until they hold k
        eigenvalues, say how many eigenvalues each mode has above the first
        shift s that holds k.  Only those modes are solved, each by a subset
        eigh for exactly that many, so every eigenvalue not computed lies at
        or below s.  Eigenvectors are real, one per column on the trial
        lattice: u itself for modes 0 and n_phi/2, the cos and sin parts of
        u exp(i m phi) for the others, ordered by their modes' eigh values,
        which :func:`spectrum` refines on the full pencil.  Returns the
        eigenvectors, their modes, and the counts of shifts factored and modes
        solved.
        """
        from scipy.linalg import eigh

        shifts = list(_LADDER)
        above = self.inertia(shifts)[0]
        while np.max(above @ self.multiplicity) < k:
            more = [shifts[-1] * 2.0 ** i for i in range(1, 5)]
            if not np.isfinite(more[-1]):
                raise RuntimeError(f"inertia counts never reached the top {k}")
            shifts += more
            above = np.vstack([above, self.inertia(more)[0]])
        counts = above[np.argmax(above @ self.multiplicity >= k)]
        n, P = self.n_rho, self.n_phi
        vals, vecs, modes = [], [], []
        for m in np.nonzero(counts)[0]:
            Am, Mm = self._dense(self.a, m), self._dense(self.m, m)
            real = self.multiplicity[m] == 1
            if real:
                Am, Mm = Am.real, Mm.real
            w, u = eigh(Am, Mm, subset_by_index=(n - counts[m], n - 1))
            wave = np.exp(2j * np.pi * (m * np.arange(P) % P) / P)
            lattice = (u[:, None, :] * wave[None, :, None]).reshape(n * P, -1)
            for part in [lattice.real] if real else [lattice.real, lattice.imag]:
                vals.append(w)
                vecs.append(part)
                modes.append(np.full(w.size, m))
        vals, vecs, modes = (np.concatenate(x, axis=-1) for x in (vals, vecs, modes))
        keep = np.argsort(-vals, kind="stable")[:k]
        stats = {"inertia_shifts": len(shifts), "mode_solves": int(np.count_nonzero(counts))}
        return vecs[:, keep], modes[keep], stats


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


def _residual_norms(M, lam: np.ndarray, X: np.ndarray, AX: np.ndarray, MX: np.ndarray):
    """The residual block R = AX - MX diag(lam) and its column norms.

    Column i's norm is |r_i|_(D^-1) / |x_i|_M, D the diagonal of M, in numpy
    sums: no BLAS dot, so its bytes do not depend on the BLAS thread count.
    Each sum runs over a C-ordered product, row by row, so neither the
    order of the block's columns nor its memory layout moves a column's norm.
    """
    R = AX - MX * lam
    res = (np.sqrt(np.sum(np.ascontiguousarray(R * R / M.diagonal()[:, None]), axis=0))
           / np.maximum(np.sqrt(np.sum(np.ascontiguousarray(X * MX), axis=0)), 1e-300))
    return R, res


def _block_eigensolver(A, M, k: int, precondition, start: np.ndarray):
    """The top k eigenpairs of A u = lambda M u, by block LOBPCG.

    Knyazev's locally optimal block preconditioned conjugate gradient
    (SIAM J. Sci. Comput. 23(2), 2001) on the block of columns of start, at
    least k of them: spectrum passes the top k + 2 eigenvectors of the
    ring-averaged pencil, which differs from (A, M) only by the reference's
    azimuthal variation.  Each iteration applies precondition to the
    residual block, giving W, and runs Rayleigh-Ritz on X, W and P, where P
    spans the new X's step away from the old X.  W is M-projected off X and
    P and made M-orthonormal by SVQB; X and P come out of the Rayleigh-Ritz
    basis by orthonormal coefficients, P taken orthogonal to the new X in
    that small space.  So the whole basis stays M-orthonormal and
    Rayleigh-Ritz is a plain eigh.  A [X, P] is taken from A times the basis
    by the same coefficients that form [X, P] (Duersch, Shao, Yang & Gu,
    SIAM J. Sci. Comput. 40(5), 2018), so each iteration multiplies by A
    once, for A W; M [X, P] is multiplied out.  Every reduction over the
    unknowns is a gemm X.T @ Y, a numpy sum or a sparse product, never a
    BLAS dot, so the result keeps its bytes under any BLAS thread count
    (tests check 96x96 and 128x128).

    Once each of the k wanted pairs has a residual below _BLOCK_TOL, in the
    norm of :func:`_residual_norms`, on those implicit products, the
    residuals are taken again from fresh products.  It stops if they pass
    too; if not, A [X, P] is multiplied out and the iteration goes on.
    Raises RuntimeError after _BLOCK_MAX_ITER iterations.  Returns the
    eigenvalues, largest first, the M-orthonormal eigenvectors as columns,
    M times them, their explicit residuals, and the counts of n_solves
    (columns preconditioned), iterations and residual_refreshes (explicit
    checks that failed).
    """
    b = start.shape[1]
    S = start @ _svqb(start, M @ start)
    AS = A @ S
    n_solves = refreshes = 0
    for iteration in range(_BLOCK_MAX_ITER + 1):
        # S holds X, P and W in that order (only X at first), M-orthonormal,
        # and AS is A @ S.
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
        coef = np.hstack([Y, step])
        XP, AXP = S @ coef, AS @ coef
        MXP = M @ XP
        X = XP[:, :b]
        R, res = _residual_norms(M, lam, X, AXP[:, :b], MXP[:, :b])
        if np.all(res[:k] < _BLOCK_TOL):
            MXk = M @ X[:, :k]
            res = _residual_norms(M, lam[:k], X[:, :k], A @ X[:, :k], MXk)[1]
            if np.all(res < _BLOCK_TOL):
                return lam[:k], X[:, :k], MXk, res, {
                    "n_solves": n_solves, "iterations": iteration, "residual_refreshes": refreshes}
            refreshes += 1
            AXP = A @ XP
            R, res = _residual_norms(M, lam, X, AXP[:, :b], MXP[:, :b])
        if iteration == _BLOCK_MAX_ITER:
            break
        # W off [X, P], then M-orthonormal.  Two classical passes: one leaves
        # roundoff of the size of the part it removed, and with one the
        # iteration failed to converge at theta 3.0 on 24x24.
        W = precondition(R)
        n_solves += R.shape[1]
        for _ in range(2):
            W = W - XP @ (MXP.T @ W)
        W = W @ _svqb(W, M @ W)
        S = np.hstack([XP, W])
        AS = np.hstack([AXP, A @ W])
    raise RuntimeError(
        f"block eigensolver did not converge in {_BLOCK_MAX_ITER} iterations "
        f"(worst residual {np.max(res[:k]):.3e}, tolerance {_BLOCK_TOL:.0e})")


def spectrum(space: WeightedSpace, how_many: int = 8) -> SpectrumReport:
    """Solve for the top k eigenpairs of the pencil and classify them.

    The pencil of :func:`assemble_operator`, already restricted to the
    contact-condition trial space, is solved for its k largest eigenpairs,
    where k is how_many but at least 6, which the kernel and window verdicts
    need.  The ring average of the pencil is split into its azimuthal modes
    once (:class:`_ModePencil`).  A reference constant along every ring, bit
    for bit, makes the pencil block-circulant in phi, so the split is the
    pencil itself: it is counted exactly by inertia and solved only in the
    modes that hold the top k.  Any other reference gets the block
    eigensolver, preconditioned by the split's LDL^H solve of 1.5 M - A (the
    factor its counts use) and started from its top k + 2 eigenvectors.
    Either way the returned block is multiplied by A and by M once, for the
    mode solve's Rayleigh quotients and residuals on the full pencil or for
    the block solver's explicit check; its M product and that of the linears
    also give the kernel cosine.
    """
    if how_many < 1:
        raise ValueError(f"how_many must be at least 1, got {how_many}")
    g = space.grid
    pencil = assemble_operator(space)
    per_mode = _ModePencil(pencil)
    # The split alone reads the forms: they are not held through the solve.
    A_red, M_red, asymmetry = pencil.A, pencil.M, pencil.asymmetry
    del pencil
    N = A_red.shape[0]
    k = int(min(max(how_many, 6), N - 2))

    invariant = bool(np.all(space.f2 == space.f2[:, :1]))
    if invariant:
        solver = "azimuthal_modes"
        X, mode_of, stats = per_mode.top(k)
        AX, MX = A_red @ X, M_red @ X
        # A mode's eigh is accurate to roundoff of the largest eigenvalue (about
        # 1e-11 at 128x128); Rayleigh quotients on the full pencil are accurate
        # to the square of the residual, in numpy sums.
        vals = np.sum(X * AX, axis=0) / np.sum(X * MX, axis=0)
        order = np.argsort(-vals, kind="stable")
        top_vals, top_vecs, AX, MX = vals[order], X[:, order], AX[:, order], MX[:, order]
        stats = {"modes": [int(m) for m in mode_of[order]], **stats}
        residuals = _residual_norms(M_red, top_vals, top_vecs, AX, MX)[1]
    else:
        solver = "block_lobpcg"
        # Factored before the start block is solved: the other order raised
        # the peak RSS of a 96x96 random spectrum.
        precondition, factor_nnz = per_mode.solver(_SHIFT)
        start = per_mode.top(k + 2)[0]
        top_vals, top_vecs, MX, residuals, counters = _block_eigensolver(
            A_red, M_red, k, precondition, start)
        stats = {"factor_nnz": factor_nnz, **counters}
    inside = np.nonzero((top_vals > WINDOW[0]) & (top_vals < WINDOW[1]))[0]
    # The per-mode solve returns the top k, as its inertia counts certify, so no
    # unreturned eigenvalue lies above the last one, which the cli's
    # smallest_eigenvalue gate holds at or below -kernel_threshold: none lies in
    # (0.01, 0.99).  Block LOBPCG's k converged Ritz pairs are the top k only if
    # its start block reaches every top eigenvector, which nothing certifies.
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
    M_lins = M_red @ lins
    ritz = np.linalg.eigvals(np.linalg.solve(lins.T @ M_lins, lins.T @ (A_red @ lins)))
    kernel_scale = float(np.max(np.abs(ritz)))
    thr = max(1e-6 * abs(lambda1), 3.0 * kernel_scale, g.drho**2)
    kernel_idx = [i for i, v in enumerate(top_vals) if abs(v) <= thr]
    cosine = _kernel_cosine(top_vecs[:, kernel_idx], MX[:, kernel_idx], lins, M_lins)

    counts = None
    if invariant:
        above, pivots = per_mode.inertia((_CEILING, WINDOW[1], WINDOW[0], thr, -thr))
        n = [int(c) for c in above @ per_mode.multiplicity]
        counts = {f"above_{_CEILING}": n[0], f"above_{WINDOW[1]}": n[1],
                  "window": n[2] - n[1], "kernel": n[4] - n[3],
                  "min_relative_pivot": float(np.min(pivots))}

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
        asymmetry=asymmetry,
        n_unknowns=N,
        counts=counts,
        solver=solver,
        stats=stats,
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
    noise_estimate: float
    equality_within_resolution: bool
    decomposition: Decomposition | None


def af_check(space: WeightedSpace, f, f1) -> AFReport:
    """Check V(f,f1,f2)^2 >= V(f,f,f2) V(f1,f1,f2) and diagnose near-equality.

    f only needs the contact-angle condition; f1 must pass capfun.certify.
    The swap V(f1, f, f2) sets the noise floor of the near-equality test.
    """
    g = space.grid
    S = as_field(g, f)
    if S.robin_max > S.robin_gate:
        raise ValueError(
            f"free field violates the contact-angle condition "
            f"(residual {S.robin_max:.3e})"
        )
    S1 = certify(g, f1)

    # One mixed discriminant per field against the reference, shared by the
    # two mixed volumes that take it.  f1's is formed before f's shape
    # tensor, and each is dropped after its last use.
    q = q2(S1.tensor, space.A2)
    v_m = g.integrate(S.values * q) / 3.0
    v_11 = g.integrate(S1.values * q) / 3.0
    del q
    q = q2(S.tensor, space.A2)
    v_ff = g.integrate(S.values * q) / 3.0
    v_m_swap = g.integrate(S1.values * q) / 3.0
    del q
    lhs = v_m * v_m
    rhs = v_ff * v_11
    gap = lhs - rhs
    rel = gap / max(abs(rhs), 1e-300)

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
    return af_chain_check(grid, body, ell(grid))

