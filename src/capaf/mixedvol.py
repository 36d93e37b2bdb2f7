"""Mixed volumes and quermassintegrals on the cap.

The mixed volume of support-like fields f1, f2, f3 is

    V(f1, f2, f3) = (1/3) * integral of f1 * Q(A[f2], A[f3])

over the cap, where Q is the two-dimensional mixed discriminant and A[f] the
shape tensor.  Quermassintegrals are mixed volumes against copies of the
grid's one unit cap, ell(grid), and the Minkowski and Steiner identities
become testable residuals (the tests check permutation symmetry).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .capgrid import CapGrid, ShapeTensor
from .capfun import CapillaryBody, CapillaryField, as_field, ell


def b_theta(theta: float) -> float:
    """Volume of the unit solid cap: pi (1-cos t)^2 (2+cos t) / 3."""
    c = math.cos(theta)
    return math.pi * (1.0 - c) ** 2 * (2.0 + c) / 3.0


# -- mixed volumes -------------------------------------------------------------

def q2(A: ShapeTensor, B: ShapeTensor) -> np.ndarray:
    """Pointwise 2x2 mixed discriminant of two tensor fields; the result has
    the planes' (broadcast) shape."""
    return 0.5 * (A.rr * B.pp + A.pp * B.rr - 2.0 * A.rp * B.rp)


def mixed_volume(grid: CapGrid, f1, rest) -> float:
    """V(f1, f2, f3) = (1/3) * integral of f1 Q(A[f2], A[f3]).

    rest holds the two fields entering through their shape tensors; a
    CapillaryField, a body included, keeps its tensor, so a field in several
    slots has it computed once.  The value is multilinear in all slots by construction;
    permutation symmetry holds only for fields satisfying the contact-angle
    condition and only up to discretization error.
    """
    if len(rest) != 2:
        raise ValueError(f"need exactly 2 shape-slot fields, got {len(rest)}")
    A2, A3 = (as_field(grid, f).tensor for f in rest)
    return grid.integrate(as_field(grid, f1).values * q2(A2, A3)) / 3.0


def mixed_sequence(grid: CapGrid, body0, body1) -> list[float]:
    """[V(body1 x i, body0 x (3-i)) for i in 0..3] from two shape tensors.

    body1 fills the two shape slots before the scalar slot: the slots of V_i
    hold s = [1] * i + [0] * (3 - i), so only V_3 integrates body1 itself.
    """
    b = (as_field(grid, body0), as_field(grid, body1))
    values = []
    for i in range(4):
        s = [1] * i + [0] * (3 - i)
        values.append(mixed_volume(grid, b[s[2]], (b[s[0]], b[s[1]])))
    return values


def quermassintegral(grid: CapGrid, body) -> list[float]:
    """Quermassintegrals W_0..W_3: W_j has j slots holding the unit cap.

    W_0 is the enclosed volume, W_3 the unit-cap volume b_theta regardless of
    the body (degree of the Gauss map).
    """
    return mixed_sequence(grid, body, ell(grid))


def _h_k(A: ShapeTensor, k: int) -> np.ndarray:
    if k == 0:
        return np.ones(A.rr.shape)
    if k == 1:
        return 0.5 * (A.rr + A.pp)
    return A.rr * A.pp - A.rp ** 2


def h_k_field(grid: CapGrid, h, k: int) -> np.ndarray:
    """Normalized elementary symmetric function of the shape-tensor eigenvalues.

    k=0 gives 1, k=1 half the trace, k=2 the determinant.
    """
    if not 0 <= k <= 2:
        raise ValueError(f"k must lie in 0..2, got {k}")
    field = as_field(grid, h)
    if k == 0:
        return np.ones(grid.node_shape)
    return _h_k(field.tensor, k)


def minkowski_identity_residual(grid: CapGrid, f, k: int) -> float:
    """Relative defect of: integral f H_{k-1}(A[f]) = integral ell H_k(A[f])."""
    if k not in (1, 2):
        raise ValueError(f"k must be 1 or 2, got {k}")
    field = as_field(grid, f)
    lhs = grid.integrate(field.values * _h_k(field.tensor, k - 1))
    rhs = grid.integrate(ell(grid).values * _h_k(field.tensor, k))
    scale = max(abs(lhs), abs(rhs), 1e-300)
    return abs(lhs - rhs) / scale


# -- reports -------------------------------------------------------------------

@dataclass
class QuermassReport:
    """Per-index quermassintegrals of one body with the unit-cap reference."""

    theta: float
    grid: list[int]
    values: list[float]
    b_theta: float
    top_rel_err: float
    b_theta_formula: str = "pi*(1-cos(theta))**2*(2+cos(theta))/3"


def quermass_report(grid: CapGrid, body: CapillaryBody) -> QuermassReport:
    values = quermassintegral(grid, body)
    ref = b_theta(grid.theta)
    top_err = abs(values[3] - ref) / ref
    return QuermassReport(grid.theta, [grid.n_rho, grid.n_phi], values, ref, top_err)


@dataclass
class SteinerReport:
    """Cubic fit of t -> |body + t * unit cap| against binomial quermass weights."""

    t_values: list[float]
    volumes: list[float]
    coefficients: list[float]
    references: list[float]
    rel_errs: list[float]
    max_rel_err: float
    fit_residual: float


def steiner_check(grid: CapGrid, body: CapillaryBody, t_values) -> SteinerReport:
    """Volume of the outer parallel bodies versus the quermassintegral cubic.

    The enclosed volume of body + t * (unit cap) is a cubic in t whose t^k
    coefficient is binom(3, k) times the k-th quermassintegral.  A least-squares
    cubic fit over the sampled t recovers the coefficients; interpolation is
    exact when exactly four samples are given.
    """
    ts = sorted(float(t) for t in t_values)
    if len(ts) < 4:
        raise ValueError(f"need at least 4 parallel distances, got {len(ts)}")
    if any(t <= 0 for t in ts):
        raise ValueError("parallel distances must be positive")
    if any(b - a < 1e-12 for a, b in zip(ts, ts[1:])):
        raise ValueError("parallel distances must be distinct")
    h = as_field(grid, body)
    lv = ell(grid).values
    vols = []
    for t in ts:
        g = CapillaryField(grid, h.values + t * lv)
        vols.append(mixed_volume(grid, g, (g, g)))
    # Vandermonde least squares in the monomial basis; t stays O(1) so
    # conditioning is not a concern at degree 3.
    v = np.vander(np.array(ts), 4, increasing=True)
    coef, res, _, _ = np.linalg.lstsq(v, np.array(vols), rcond=None)
    fit_residual = float(np.sqrt(res[0])) if res.size else float(
        np.max(np.abs(v @ coef - np.array(vols)))
    )
    refs = [math.comb(3, k) * w for k, w in enumerate(quermassintegral(grid, h))]
    errs = [float(abs(c - r)) / max(abs(r), 1e-300) for c, r in zip(coef, refs)]
    return SteinerReport(
        ts, vols, [float(c) for c in coef], refs, errs, max(errs), fit_residual
    )
