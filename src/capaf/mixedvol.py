"""Mixed volumes and quermassintegrals on the cap.

The mixed volume of support-like fields f1, f2, f3 is

    V(f1, f2, f3) = (1/3) * integral of f1 * Q(A[f2], A[f3])

over the cap, where Q is the two-dimensional mixed discriminant and A[f] the
shape tensor.  Quermassintegrals are the mixed volumes against copies of the
unit-cap support function, and the classical integral identities (Minkowski,
Steiner, permutation symmetry) become testable residuals.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .capgrid import CapGrid, a_of
from .capfun import CapillaryBody, ell_values, field_values


def b_theta(theta: float) -> float:
    """Volume of the unit solid cap: pi (1-cos t)^2 (2+cos t) / 3."""
    c = math.cos(theta)
    return math.pi * (1.0 - c) ** 2 * (2.0 + c) / 3.0


# -- mixed volumes -------------------------------------------------------------

def q2(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Pointwise 2x2 mixed discriminant of tensor fields shaped (..., 2, 2)."""
    return 0.5 * (
        A[..., 0, 0] * B[..., 1, 1]
        + A[..., 1, 1] * B[..., 0, 0]
        - 2.0 * A[..., 0, 1] * B[..., 0, 1]
    )


def _unwrap(grid: CapGrid, obj) -> np.ndarray:
    values = field_values(obj)
    return grid.check_field(values)


def mixed_volume(grid: CapGrid, f1, rest=None, *, tensors=None) -> float:
    """V(f1, f2, f3) = (1/3) * integral of f1 Q(A[f2], A[f3]).

    rest holds the two fields entering through their shape tensors; a caller
    holding those tensors passes tensors=(A[f2], A[f3]) instead, so a field in
    several slots has its tensor computed once.  The value is multilinear in
    all slots by construction; permutation symmetry holds only for fields
    satisfying the contact-angle condition and only up to discretization error.
    """
    if (rest is None) == (tensors is None):
        raise ValueError("pass the shape slots either as fields or as tensors")
    if tensors is None:
        if len(rest) != 2:
            raise ValueError(f"need exactly 2 shape-slot fields, got {len(rest)}")
        tensors = [a_of(grid, _unwrap(grid, f)) for f in rest]
    A2, A3 = tensors
    return grid.integrate(_unwrap(grid, f1) * q2(A2, A3)) / 3.0


def quermass_tensors(grid: CapGrid, body) -> tuple[np.ndarray, np.ndarray]:
    """Shape tensors (A[body], A[unit cap]) for :func:`quermassintegral`."""
    return a_of(grid, _unwrap(grid, body)), a_of(grid, ell_values(grid))


def quermassintegral(grid: CapGrid, body, j: int, tensors=None) -> float:
    """Mixed volume with j slots holding the unit cap and 3-j holding the body.

    j=0 is the enclosed volume, j=3 the unit-cap volume b_theta regardless of
    the body (degree of the Gauss map).  tensors, from :func:`quermass_tensors`,
    lets a caller that needs several indices compute each tensor once.
    """
    if not 0 <= j <= 3:
        raise ValueError(f"quermassintegral index must lie in 0..3, got {j}")
    h = _unwrap(grid, body)
    lv = ell_values(grid)
    if tensors is None:
        tensors = (a_of(grid, h) if j <= 1 else None, a_of(grid, lv) if j >= 1 else None)
    # The cap fills the tensor slots first; the scalar slot needs no tensor.
    fields = [lv] * j + [h] * (3 - j)
    A = [tensors[1]] * j + [tensors[0]] * (3 - j)
    return mixed_volume(grid, fields[2], tensors=(A[0], A[1]))


def _h_k(A: np.ndarray, k: int) -> np.ndarray:
    if k == 0:
        return np.ones(A.shape[:-2])
    if k == 1:
        return 0.5 * (A[..., 0, 0] + A[..., 1, 1])
    return A[..., 0, 0] * A[..., 1, 1] - A[..., 0, 1] ** 2


def h_k_field(grid: CapGrid, h, k: int) -> np.ndarray:
    """Normalized elementary symmetric function of the shape-tensor eigenvalues.

    k=0 gives 1, k=1 half the trace, k=2 the determinant.
    """
    if not 0 <= k <= 2:
        raise ValueError(f"k must lie in 0..2, got {k}")
    values = _unwrap(grid, h)
    if k == 0:
        return np.ones(grid.node_shape)
    return _h_k(a_of(grid, values), k)


def minkowski_identity_residual(grid: CapGrid, f, k: int) -> float:
    """Relative defect of: integral f H_{k-1}(A[f]) = integral ell H_k(A[f])."""
    if k not in (1, 2):
        raise ValueError(f"k must be 1 or 2, got {k}")
    values = _unwrap(grid, f)
    A = a_of(grid, values)
    lhs = grid.integrate(values * _h_k(A, k - 1))
    rhs = grid.integrate(ell_values(grid) * _h_k(A, k))
    scale = max(abs(lhs), abs(rhs), 1e-300)
    return abs(lhs - rhs) / scale


def symmetry_residual(grid: CapGrid, f1, f2, f3) -> float:
    """Max relative spread of V over the six argument orders.

    Vanishes (to discretization error) when all three fields satisfy the
    contact-angle condition; the boundary terms in the integration by parts
    do not cancel otherwise.
    """
    fields = [_unwrap(grid, f) for f in (f1, f2, f3)]
    tensors = [a_of(grid, f) for f in fields]

    def volume(i, j, k):
        return mixed_volume(grid, fields[i], tensors=(tensors[j], tensors[k]))

    v_id = volume(0, 1, 2)
    denom = max(abs(v_id), 1e-30)
    worst = 0.0
    for perm in itertools.permutations(range(3)):
        worst = max(worst, abs(volume(*perm) - v_id) / denom)
    return worst


# -- reports -------------------------------------------------------------------

@dataclass
class QuermassReport:
    """Per-index quermassintegrals of one body with the unit-cap reference."""

    theta: float
    n_rho: int
    n_phi: int
    values: list[float]
    b_theta: float
    top_rel_err: float

    def rows(self) -> list[tuple[int, float, float | None, float | None]]:
        out = []
        for k, v in enumerate(self.values):
            if k == len(self.values) - 1:
                out.append((k, v, self.b_theta, self.top_rel_err))
            else:
                out.append((k, v, None, None))
        return out

    def to_dict(self) -> dict:
        return {
            "theta": self.theta,
            "grid": [self.n_rho, self.n_phi],
            "values": self.values,
            "b_theta": self.b_theta,
            "b_theta_formula": "pi*(1-cos(theta))**2*(2+cos(theta))/3",
            "top_rel_err": self.top_rel_err,
        }


def quermass_report(grid: CapGrid, body: CapillaryBody) -> QuermassReport:
    tensors = quermass_tensors(grid, body)
    values = [quermassintegral(grid, body, j, tensors) for j in range(4)]
    ref = b_theta(grid.theta)
    top_err = abs(values[3] - ref) / ref
    return QuermassReport(grid.theta, grid.n_rho, grid.n_phi, values, ref, top_err)


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

    def to_dict(self) -> dict:
        return {
            "t_values": self.t_values,
            "volumes": self.volumes,
            "coefficients": self.coefficients,
            "references": self.references,
            "rel_errs": self.rel_errs,
            "max_rel_err": self.max_rel_err,
            "fit_residual": self.fit_residual,
        }


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
    h = _unwrap(grid, body)
    lv = ell_values(grid)
    vols = []
    for t in ts:
        g = h + t * lv
        A = a_of(grid, g)
        vols.append(mixed_volume(grid, g, tensors=(A, A)))
    # Vandermonde least squares in the monomial basis; t stays O(1) so
    # conditioning is not a concern at degree 3.
    v = np.vander(np.array(ts), 4, increasing=True)
    coef, res, _, _ = np.linalg.lstsq(v, np.array(vols), rcond=None)
    fit_residual = float(np.sqrt(res[0])) if res.size else float(
        np.max(np.abs(v @ coef - np.array(vols)))
    )
    tensors = quermass_tensors(grid, body)
    refs = [math.comb(3, k) * quermassintegral(grid, body, k, tensors) for k in range(4)]
    errs = [abs(c - r) / max(abs(r), 1e-300) for c, r in zip(coef, refs)]
    return SteinerReport(
        ts, vols, [float(c) for c in coef], refs, errs, max(errs), fit_residual
    )
