"""Weighted operator, quadratic form inequality, spectrum dichotomy, chains."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg

import capaf

from helpers import (apply, assemble_operator_by_products, bilinear, cap_space, grid,
                     mode_bands_by_unique, robin_fold_by_full_sum, smooth_body)


def test_weight_is_positive_for_a_convex_reference():
    g = grid(1.2, 24, 24)
    sp = capaf.WeightedSpace(g, capaf.random_body(g, 99))
    assert float(np.min(sp.omega)) > 0


def test_weighted_space_reuses_the_reference_body_tensor():
    g = grid(1.2, 24, 24)
    body = capaf.random_body(g, 99)
    space = capaf.WeightedSpace(g, body)
    assert space.ref is body
    assert space.A2 is body.tensor


def test_weighted_space_rejects_a_bad_reference():
    g = grid(1.2, 24, 24)
    with pytest.raises(ValueError, match="robin residual"):
        capaf.WeightedSpace(g, np.ones(g.node_shape))
    # admissible but not convex: a strong m=2 ripple
    rho = g.rho_nodes[:, None]
    ripple = np.sin(rho) ** 2 * np.cos(2 * g.phi_nodes)[None, :]
    values = capaf.enforce_contact_angle(
        g, capaf.ell_values(g) * (1.0 + 2.5 * ripple))
    assert capaf.CapillaryField(g, values).robin_max < 1e-9
    with pytest.raises(ValueError, match="eigenvalue"):
        capaf.WeightedSpace(g, values)


def test_weighted_space_rejects_a_non_finite_reference():
    g = grid(1.2, 24, 24)
    values = capaf.ell_values(g)
    values[0, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        capaf.WeightedSpace(g, values)


def test_reference_translation_is_projected_out():
    # base body without any azimuthal mode-one content, so the projection
    # removes exactly the added linear
    g = grid(1.2, 24, 24)
    rho = g.rho_nodes[:, None]
    osc = np.cos(np.pi * rho / g.theta) - np.cos(3.0 * np.pi * rho / g.theta)
    u = 0.004 * np.sin(rho) ** 2 * osc * np.cos(2.0 * g.phi_nodes)[None, :]
    raw = capaf.enforce_contact_angle(g, capaf.ell_values(g) * (1.0 + u))
    body = capaf.certify(g, raw)
    # the shifted reference dips negative; the linear part carries no shape
    # information and is removed before the weight is formed
    shifted = capaf.certify(
        g, body.values + capaf.horizontal_linear(g, (5.0, -4.0)).values)
    sp0 = capaf.WeightedSpace(g, body)
    sp1 = capaf.WeightedSpace(g, shifted)
    np.testing.assert_allclose(sp1.omega, sp0.omega, rtol=1e-9)
    assert sp1.translation == pytest.approx((-5.0, 4.0), abs=1e-10)


def test_assembled_form_is_symmetric():
    sp = cap_space(1.2, 24, 24)
    op = capaf.spectral.assemble_operator(sp)
    assert op.asymmetry < 1e-12


def _translated_cap(g):
    return capaf.ell(g).values + 0.05 * capaf.horizontal_linear(g, (1, 0)).values


_REFERENCES = {
    "cap": lambda g: capaf.ell(g),
    "random": lambda g: capaf.random_body(g, 40, amplitude=0.2, mode_cap=2),
    # Dips below zero: WeightedSpace translates it back (_translate_positive).
    "translated": _translated_cap,
}


@pytest.mark.parametrize("reference", sorted(_REFERENCES))
@pytest.mark.parametrize("theta", [0.05, 1.2, 3.0])
@pytest.mark.parametrize("n_rho, n_phi", [(8, 8), (16, 24), (40, 48), (64, 64)])
def test_stencil_assembly_matches_the_sparse_product_chain(reference, theta, n_rho, n_phi):
    g = grid(theta, n_rho, n_phi)
    space = capaf.WeightedSpace(g, _REFERENCES[reference](g))
    pencil = capaf.assemble_operator(space)
    expected = assemble_operator_by_products(space)
    # The difference holds every entry stored on either side, so an entry
    # stored on one side only is held to the same bound.
    eps = np.finfo(float).eps
    assert abs(pencil.A - expected.A).max() <= 8 * eps * abs(expected.A).max()
    # The chain leaves M's row indices unsorted within a column; the one-pass
    # M is canonical, with the same bits at the same places.
    assert pencil.M.has_sorted_indices
    expected.M.sort_indices()
    for got, want in ((pencil.M, expected.M), (pencil.basis, expected.basis)):
        assert got.shape == want.shape and got.format == want.format
        for part in ("data", "indices", "indptr"):
            assert getattr(got, part).tobytes() == getattr(want, part).tobytes()
    assert abs(pencil.asymmetry - expected.asymmetry) <= 1e-12 * expected.asymmetry
    assert (pencil.A != pencil.A.T).nnz == 0


@pytest.mark.parametrize("reference", sorted(_REFERENCES))
@pytest.mark.parametrize("theta", [0.05, 1.2, 3.0])
@pytest.mark.parametrize("n_rho, n_phi", [(8, 8), (16, 24), (40, 48), (64, 64)])
def test_robin_fold_keeps_the_bytes_of_the_full_fold(monkeypatch, reference, theta, n_rho,
                                                      n_phi):
    # Groups clear of the fold rows pass through; summing them too must give
    # the same pencil, bit for bit.
    g = grid(theta, n_rho, n_phi)
    space = capaf.WeightedSpace(g, _REFERENCES[reference](g))
    pencil = capaf.assemble_operator(space)
    monkeypatch.setattr(capaf.spectral, "_robin_fold", robin_fold_by_full_sum)
    expected = capaf.assemble_operator(space)
    for got, want in ((pencil.A, expected.A), (pencil.M, expected.M),
                      (pencil.basis, expected.basis)):
        assert got.shape == want.shape and got.format == want.format
        for part in ("data", "indices", "indptr"):
            assert getattr(got, part).tobytes() == getattr(want, part).tobytes()
    assert pencil.asymmetry == expected.asymmetry


@pytest.mark.parametrize("reference", sorted(_REFERENCES))
@pytest.mark.parametrize("theta", [0.3, 2.2])
def test_assembled_operator_is_exactly_symmetric(reference, theta):
    # assemble_operator_by_products leaves |A - A^T| at up to 8.9e-16 on 24x24.
    g = grid(theta, 24, 24)
    A = capaf.assemble_operator(capaf.WeightedSpace(g, _REFERENCES[reference](g))).A
    assert (A != A.T).nnz == 0
    assert A.has_sorted_indices


def _wrapped_diagonal_spread(matrix, node_shape) -> float:
    """Largest spread along phi of a wrapped diagonal, an absent entry read as 0."""
    n_rho, n_phi = node_shape
    coo = matrix.tocoo()
    i, j = np.divmod(coo.row, n_phi)
    i2, j2 = np.divmod(coo.col, n_phi)
    keys, which = np.unique(np.stack([i, i2, (j2 - j) % n_phi]), axis=1, return_inverse=True)
    lines = np.zeros((keys.shape[1], n_phi))
    lines[which.ravel(), j] = coo.data
    return float(np.max(lines.max(axis=1) - lines.min(axis=1)))


@pytest.mark.parametrize("theta", [0.05, 1.2, 3.0])
@pytest.mark.parametrize("n", [8, 16, 32, 64, 128])
def test_cap_pencil_is_constant_along_every_wrapped_diagonal(theta, n):
    # _ModePencil splits the cap's pencil into azimuthal modes, which is
    # exact only when each wrapped diagonal is one number along phi.
    pencil = capaf.assemble_operator(cap_space(theta, n, n))
    for matrix in (pencil.A, pencil.M):
        spread = _wrapped_diagonal_spread(matrix, (n, n))
        assert spread <= 1e-14 * abs(matrix).max()


@pytest.mark.parametrize("theta", [0.05, 2.2])
@pytest.mark.parametrize("n", [16, 64])
def test_trial_space_meets_the_grids_contact_angle_row(theta, n):
    # The trial space is built from the same boundary row that certify gates
    # with, so its fields meet robin_residual at roundoff.
    g = grid(theta, n, n)
    basis = capaf.assemble_operator(capaf.WeightedSpace(g, capaf.ell(g))).basis
    f = (basis @ np.random.default_rng(n).standard_normal(basis.shape[1])).reshape(g.node_shape)
    scale = np.sum(np.abs(g.boundary_weights)) + abs(g.cot_theta)
    bound = 2.0 * np.finfo(float).eps * scale * np.max(np.abs(f))
    assert np.max(np.abs(capaf.robin_residual(g, f))) <= bound


def test_self_adjoint_residual_vanishes_under_refinement():
    errs = []
    for n in (16, 32, 64):
        g = grid(2.2, n, n)
        sp = capaf.WeightedSpace(g, capaf.random_body(g, 99))
        f = capaf.random_capillary_field(g, 5, mode_cap=2).values
        h = capaf.random_capillary_field(g, 6, mode_cap=2).values
        fh, hf = bilinear(sp, f, h), bilinear(sp, h, f)
        errs.append(abs(fh - hf) / max(abs(fh), abs(hf)))
    assert errs[-1] < 5e-6
    orders = [np.log2(e1 / e2) for e1, e2 in zip(errs, errs[1:])]
    assert min(orders) > 3.3
    assert sum(orders) / len(orders) > 3.5


def test_bilinear_form_matches_the_mixed_volume():
    g = grid(1.7, 32, 32)
    ref = capaf.random_body(g, 77)
    sp = capaf.WeightedSpace(g, ref)
    f = capaf.random_capillary_field(g, 8).values
    h = capaf.random_capillary_field(g, 9).values
    via_form = sp.inner(f, apply(sp, h))
    via_volume = capaf.mixed_volume(g, f, (h, ref.values))
    assert abs(via_form - via_volume) <= 1e-12 * max(1.0, abs(via_volume))


def test_af_check_on_a_free_random_field():
    g = grid(2.2, 24, 24)
    sp = capaf.WeightedSpace(g, capaf.random_body(g, 99))
    f1 = capaf.random_body(g, 10)
    f = capaf.random_capillary_field(g, 12).values
    rep = capaf.af_check(sp, f, f1)
    assert rep.gap >= 0.0
    assert rep.form_consistency < 1e-12
    assert rep.lhs == pytest.approx(rep.v_mixed ** 2, rel=1e-14)
    assert rep.rhs == pytest.approx(rep.v_ff * rep.v_f1f1, rel=1e-14)
    assert rep.noise_estimate > 0


def test_af_check_flags_the_equality_family():
    g = grid(1.2, 24, 24)
    sp = capaf.WeightedSpace(g, capaf.random_body(g, 99))
    f1 = capaf.random_body(g, 10)
    lin = capaf.horizontal_linear(g, (0.3, -0.1)).values
    rep = capaf.af_check(sp, 2.0 * f1.values + lin, f1)
    assert abs(rep.relative_gap) < 1e-6
    assert rep.equality_within_resolution
    dec = rep.decomposition
    assert dec is not None
    assert dec.a == pytest.approx(2.0, abs=1e-10)
    assert dec.a1 == pytest.approx(0.3, abs=1e-10)
    assert dec.a2 == pytest.approx(-0.1, abs=1e-10)
    assert dec.relative_residual < 1e-12
    assert not dec.ill_conditioned


def test_af_check_gap_is_exactly_zero_for_identical_slots():
    g = grid(1.2, 24, 24)
    sp = capaf.WeightedSpace(g, capaf.random_body(g, 99))
    f1 = capaf.random_body(g, 10)
    rep = capaf.af_check(sp, f1.values, f1)
    assert rep.gap == 0.0
    assert rep.relative_gap == 0.0


def test_af_check_input_gates():
    g = grid(1.2, 24, 24)
    sp = capaf.WeightedSpace(g, capaf.random_body(g, 99))
    f1 = capaf.random_body(g, 10)
    with pytest.raises(ValueError, match="free field violates"):
        capaf.af_check(sp, np.ones(g.node_shape), f1)
    with pytest.raises(ValueError, match="certification failed: robin residual"):
        capaf.af_check(sp, f1.values, np.ones(g.node_shape))


def test_af_quantities_are_translation_invariant():
    g = grid(1.2, 24, 24)
    sp = capaf.WeightedSpace(g, capaf.random_body(g, 99))
    f1 = capaf.random_body(g, 1)
    f = capaf.random_capillary_field(g, 12).values
    lin = capaf.horizontal_linear(g, (0.4, 0.7)).values
    r0 = capaf.af_check(sp, f, f1)
    r1 = capaf.af_check(sp, f + lin, f1)
    # invariance holds up to quadrature error; the linears are discrete
    # null-fields of the shape tensor only approximately
    assert abs(r1.lhs - r0.lhs) < 5e-4 * max(1.0, abs(r0.lhs))
    assert abs(r1.rhs - r0.rhs) < 5e-4 * max(1.0, abs(r0.rhs))
    assert abs(r1.gap - r0.gap) < 5e-4 * max(1.0, abs(r0.gap))


def test_equality_decompose_recovers_the_coefficients():
    g = grid(1.2, 24, 24)
    sp = capaf.WeightedSpace(g, capaf.random_body(g, 99))
    f1 = capaf.random_body(g, 10)
    lx = capaf.horizontal_linear(g, (1.0, 0.0)).values
    ly = capaf.horizontal_linear(g, (0.0, 1.0)).values
    dec = capaf.equality_decompose(sp, 3.0 * f1.values + 0.2 * lx - 0.4 * ly, f1)
    assert dec.a == pytest.approx(3.0, abs=1e-10)
    assert dec.a1 == pytest.approx(0.2, abs=1e-10)
    assert dec.a2 == pytest.approx(-0.4, abs=1e-10)
    assert dec.relative_residual < 1e-12


def test_equality_decompose_flags_a_degenerate_slot():
    g = grid(1.2, 24, 24)
    sp = capaf.WeightedSpace(g, capaf.random_body(g, 99))
    lin = capaf.horizontal_linear(g, (1.0, 0.0)).values
    dec = capaf.equality_decompose(sp, 2.0 * lin, lin)
    assert dec.ill_conditioned


def test_hemisphere_spectrum_shows_the_dichotomy():
    g = grid(np.pi / 2, 24, 24)
    rep = capaf.spectrum(cap_space(np.pi / 2, 24, 24), how_many=6)
    assert rep.lambda1 == pytest.approx(1.0, abs=1e-8)
    assert rep.lambda1_simple
    assert rep.kernel_indices == [1, 2]
    for i in rep.kernel_indices:
        assert abs(rep.eigenvalues[i]) < rep.kernel_threshold
    assert rep.kernel_cosine > 0.99999
    # the hemisphere continuum has its next band at -2
    for e in rep.eigenvalues[3:]:
        assert e < -1.9
    assert rep.window_empty
    assert max(rep.residuals) < 1e-8
    assert rep.n_unknowns == g.n_rho * g.n_phi


def test_random_reference_spectrum_keeps_the_dichotomy():
    g = grid(2.2, 24, 24)
    sp = capaf.WeightedSpace(g, capaf.random_body(g, 40, amplitude=0.2))
    rep = capaf.spectrum(sp, how_many=6)
    assert abs(rep.lambda1 - 1.0) < 1e-3
    assert rep.lambda1_simple
    assert len(rep.kernel_indices) == 2
    assert rep.kernel_cosine > 0.9999
    assert rep.window_empty
    others = [e for i, e in enumerate(rep.eigenvalues)
              if i != 0 and i not in rep.kernel_indices]
    assert all(e < 0 for e in others)


@pytest.mark.parametrize("n", [24, 64])
def test_spectrum_is_deterministic(n):
    # no solver draws from entropy
    space = cap_space(1.5, n, n)
    a = capaf.spectrum(space, how_many=6)
    b = capaf.spectrum(space, how_many=6)
    assert a.eigenvalues == b.eigenvalues


def _dense_pencil_eigenvalues(space):
    """Every eigenvalue of the reduced pencil, largest first, by dense eigh."""
    pencil = capaf.assemble_operator(space)
    return scipy.linalg.eigh(pencil.A.toarray(), pencil.M.toarray(),
                             eigvals_only=True)[::-1]


def _cap_reference(theta):
    return cap_space(theta, 24, 24)


def _random_reference(theta):
    g = grid(theta, 24, 24)
    return capaf.WeightedSpace(g, capaf.random_body(g, 40, amplitude=0.2))


# The cap at theta = 0.05 has a second eigenvalue 0.9688 inside the window, so
# it is the witness for window_empty = False.  If the operator is changed so
# that this eigenvalue leaves the window, pick another witness for that case.
@pytest.mark.parametrize("make_space, theta, window_empty", [
    (_cap_reference, np.pi / 2, True),
    (_random_reference, 2.2, True),
    (_cap_reference, 0.05, False),
    (_cap_reference, 2.2, True),
    (_random_reference, 0.5, True),
], ids=["cap-1.57", "random-2.2", "cap-0.05", "cap-2.2", "random-0.5"])
def test_spectrum_matches_the_dense_pencil(make_space, theta, window_empty):
    space = make_space(theta)
    rep = capaf.spectrum(space, how_many=6)
    dense = _dense_pencil_eigenvalues(space)
    k = len(rep.eigenvalues)
    assert k == 6
    np.testing.assert_allclose(rep.eigenvalues, dense[:k], rtol=0, atol=1e-9)
    lo, hi = rep.window
    inside = int(np.count_nonzero((dense > lo) & (dense < hi)))
    assert rep.window_empty == (inside == 0)
    assert rep.window_empty is window_empty
    assert max(rep.residuals) < 1e-8


@pytest.mark.parametrize("theta", [1.2, 2.2, 3.0])
@pytest.mark.parametrize("n, how_many", [(8, 1), (8, 30), (8, 100), (12, 20)])
def test_cap_spectrum_is_the_top_of_the_dense_pencil(theta, n, how_many):
    # The per-mode solve returns the top k, up to k = N - 2 (62 on 8x8).
    space = cap_space(theta, n, n)
    rep = capaf.spectrum(space, how_many=how_many)
    assert rep.solver == "azimuthal_modes"
    k = len(rep.eigenvalues)
    assert k == min(max(how_many, 6), rep.n_unknowns - 2)
    dense = _dense_pencil_eigenvalues(space)
    np.testing.assert_allclose(rep.eigenvalues, dense[:k], rtol=0, atol=1e-9)
    assert max(rep.residuals) < 1e-8


@pytest.mark.parametrize("theta", [0.3, 1.2, 3.0])
@pytest.mark.parametrize("n", [8, 12, 16, 24])
def test_inertia_counts_equal_the_dense_pencil_counts(theta, n):
    space = cap_space(theta, n, n)
    rep = capaf.spectrum(space, how_many=6)
    dense = _dense_pencil_eigenvalues(space)

    def above(s):
        return int(np.count_nonzero(dense > s))

    thr = rep.kernel_threshold
    counts = dict(rep.counts)
    assert counts.pop("min_relative_pivot") >= 1e-10
    assert counts == {"above_1.01": above(1.01), "above_0.99": above(0.99),
                      "window": above(0.01) - above(0.99), "kernel": above(-thr) - above(thr)}
    # Every count, not only the reported ones: shifts across the spectrum.
    modes = capaf.spectral._ModePencil(capaf.assemble_operator(space))
    shifts = [1.5, 1.0 - 1e-3, 0.5, 1e-3, -1e-3, -0.3, -1.0, -3.0, -10.0, -100.0]
    per_mode, _ = modes.inertia(shifts)
    assert (per_mode @ modes.multiplicity).tolist() == [above(s) for s in shifts]


def _mode_pencil(space):
    """The pencil of space split into its azimuthal modes, with the pencil."""
    pencil = capaf.assemble_operator(space)
    return capaf.spectral._ModePencil(pencil), pencil


@pytest.mark.parametrize("reference", ["random", "translated"])
@pytest.mark.parametrize("theta", [0.3, 2.2, 3.0])
@pytest.mark.parametrize("n", [16, 24])
def test_block_eigensolver_matches_the_dense_pencil(reference, theta, n):
    # References that are not rotationally invariant take the block solver.
    g = grid(theta, n, n)
    if reference == "random":
        ref = capaf.random_body(g, 40, amplitude=0.2)
    else:
        ref = _translated_cap(g)
    space = capaf.WeightedSpace(g, ref)
    rep = capaf.spectrum(space, how_many=8)
    assert rep.solver == "block_lobpcg"
    dense = _dense_pencil_eigenvalues(space)
    np.testing.assert_allclose(rep.eigenvalues, dense[:8], rtol=0, atol=1e-9)
    assert max(rep.residuals) < 1e-8
    # one preconditioned block of k + 2 columns per iteration
    assert rep.stats["n_solves"] > 0 and rep.stats["n_solves"] % 10 == 0


@pytest.mark.parametrize("theta", [0.3, 1.2, 3.0])
@pytest.mark.parametrize("n", [16, 48])
def test_the_cap_pencil_stops_at_its_ring_average_start(theta, n):
    # The cap's pencil is its own ring average, so its start block already
    # holds the top eigenpairs: the block solver stops before preconditioning.
    pencil = capaf.assemble_operator(cap_space(theta, n, n))
    k = 8
    modes = capaf.spectral._ModePencil(pencil)
    solved = []
    vals, vecs, residuals, counters = capaf.spectral._block_eigensolver(
        pencil.A, pencil.M, k, lambda x: solved.append(x) or x, modes.top(k + 2)[1])
    assert counters == {"n_solves": 0, "iterations": 0, "residual_refreshes": 0}
    assert solved == []
    np.testing.assert_allclose(vals, modes.top(k)[0], rtol=0, atol=1e-12)
    assert max(residuals) < 1e-9


def test_block_solver_reports_its_explicit_residuals(monkeypatch):
    g = grid(2.2, 24, 24)
    space = capaf.WeightedSpace(g, capaf.random_body(g, 40, amplitude=0.2))
    returned = []
    solver = capaf.spectral._block_eigensolver

    def recording(*args):
        returned.append(solver(*args))
        return returned[-1]

    monkeypatch.setattr(capaf.spectral, "_block_eigensolver", recording)
    rep = capaf.spectrum(space, how_many=8)
    vals, vecs = returned[0][:2]
    pencil = capaf.assemble_operator(space)
    expected = capaf.spectral._residuals(pencil.A, pencil.M, vals, vecs)[2]
    assert np.array(rep.residuals).tobytes() == expected.tobytes()


def test_a_failed_explicit_check_refreshes_and_iterates_on(monkeypatch):
    g = grid(2.2, 16, 16)
    space = capaf.WeightedSpace(g, capaf.random_body(g, 40, amplitude=0.2))
    plain = capaf.spectrum(space, how_many=8)
    residuals = capaf.spectral._residuals
    checks = []

    def failing_once(A, M, lam, X):
        AX, R, res = residuals(A, M, lam, X)
        checks.append(res)
        return AX, R, res + (1.0 if len(checks) == 1 else 0.0)

    monkeypatch.setattr(capaf.spectral, "_residuals", failing_once)
    rep = capaf.spectrum(space, how_many=8)
    assert len(checks) == 2
    assert rep.stats["residual_refreshes"] == 1
    assert rep.stats["iterations"] > plain.stats["iterations"]
    assert rep.residuals == checks[1].tolist()
    assert max(rep.residuals) < 1e-9
    np.testing.assert_allclose(rep.eigenvalues, plain.eigenvalues, rtol=0, atol=1e-12)


def test_the_ring_average_start_bounds_the_preconditioner_solves():
    # 270 columns from a seeded Gaussian start block; 190 from the ring average.
    g = grid(2.2, 96, 96)
    space = capaf.WeightedSpace(g, capaf.random_body(g, 1, amplitude=0.2, mode_cap=2))
    rep = capaf.spectrum(space)
    assert rep.solver == "block_lobpcg"
    assert rep.stats["n_solves"] <= 200


@pytest.mark.parametrize("reference", sorted(_REFERENCES))
@pytest.mark.parametrize("n_rho, n_phi", [(8, 8), (16, 24), (40, 48)])
def test_each_form_holds_its_matrix_bit_for_bit(reference, n_rho, n_phi):
    # The azimuthal split reads the forms, and everything else reads A and M.
    g = grid(1.2, n_rho, n_phi)
    pencil = capaf.assemble_operator(capaf.WeightedSpace(g, _REFERENCES[reference](g)))
    for form, matrix in ((pencil.A_form, pencil.A), (pencil.M_form, pencil.M)):
        c1, d, e, values = form
        keys = (c1 * (2 * n_rho + 1) + d) * n_phi + e
        assert np.all(np.diff(keys) > 0)
        j = np.arange(n_phi)
        rows = c1[:, None] * n_phi + j
        cols = (c1 + d)[:, None] * n_phi + (j + e[:, None]) % n_phi
        dense = np.zeros(matrix.shape)
        dense[rows, cols] = values
        dense[dense == 0.0] = 0.0  # a stored -0.0 is an absent entry of the matrix
        assert dense.tobytes() == matrix.toarray().tobytes()


@pytest.mark.parametrize("reference", ["cap", "random"])
@pytest.mark.parametrize("n_rho, n_phi", [(8, 8), (24, 32), (64, 64)])
def test_mode_bands_match_the_unique_grouping_bit_for_bit(reference, n_rho, n_phi):
    # _ModePencil fills these bands from the forms, and its counts, eigh and
    # preconditioner all read them, so their bytes rest on these: the mean
    # of each wrapped diagonal as the matrix's row-major entries give it.
    g = grid(2.2, n_rho, n_phi)
    ref = capaf.ell(g) if reference == "cap" else capaf.random_body(g, 40, amplitude=0.2)
    pencil = capaf.assemble_operator(capaf.WeightedSpace(g, ref))
    _assert_lower_half_of_the_unique_grouping(capaf.spectral._ModePencil(pencil), pencil)


def _assert_lower_half_of_the_unique_grouping(modes, pencil):
    n, P, bw = modes.n_rho, modes.n_phi, modes.bw
    widths = []
    for low, matrix in ((modes.a, pencil.A), (modes.m, pencil.M)):
        full = mode_bands_by_unique(matrix.tocsr(), (n, P))
        assert low.shape == (bw + 1, n + bw, P // 2 + 1)
        w = full.shape[1] // 2
        widths.append(w)
        for d in range(w + 1):
            assert low[d, :n - d].tobytes() == full[:, w - d, d:].T.tobytes()
        # Past the lattice, and past this matrix's own bandwidth, all zero.
        for d in range(bw + 1):
            assert not low[d, n - d:].any()
        assert not low[w + 1:].any()
    assert bw == max(widths)


def test_mode_bands_skip_the_exact_zeros_a_matrix_does_not_store():
    # The assembled forms hold no exact zero; this one holds +0.0 and -0.0
    # entries, and a group of zeros only, which CSR does not store.
    rng = np.random.default_rng(3)
    c1, d, e = (x.ravel() for x in np.meshgrid(np.arange(2, 4), [-2, -1, 0], [0, 3, 4],
                                               indexing="ij"))
    values = rng.standard_normal((c1.size, 8))
    values[rng.random(values.shape) < 0.3] = 0.0
    values[rng.random(values.shape) < 0.1] = -0.0
    values[d == -2] = 0.0  # so the stored bandwidth is 1
    form = capaf.spectral._Form
    A = form(c1, d, e, values)
    M = form(np.arange(4), np.zeros(4, dtype=int), np.zeros(4, dtype=int), np.ones((4, 8)))
    pencil = capaf.spectral.Pencil(A.csr(4).tocsc(), M.csr(4).tocsc(),
                                   sp.identity(32, format="csr"), 0.0, A, M)
    _assert_lower_half_of_the_unique_grouping(capaf.spectral._ModePencil(pencil), pencil)


@pytest.mark.parametrize("reference", ["cap", "random"])
def test_spectrum_splits_the_pencil_it_assembled_once(monkeypatch, reference):
    g = grid(2.2, 24, 24)
    ref = capaf.ell(g) if reference == "cap" else capaf.random_body(g, 40, amplitude=0.2)
    space = capaf.WeightedSpace(g, ref)
    assembled, split = [], []
    assemble, mode_pencil = capaf.spectral.assemble_operator, capaf.spectral._ModePencil

    def assembling(space):
        assembled.append(assemble(space))
        return assembled[-1]

    def splitting(pencil):
        split.append(pencil)
        return mode_pencil(pencil)

    monkeypatch.setattr(capaf.spectral, "assemble_operator", assembling)
    monkeypatch.setattr(capaf.spectral, "_ModePencil", splitting)
    capaf.spectrum(space, how_many=6)
    assert len(assembled) == 1
    assert len(split) == 1 and split[0] is assembled[0]


@pytest.mark.parametrize("theta", [0.3, 1.2, 3.0])
def test_the_lower_triangle_gives_the_eigh_of_the_full_hermitian_mode(theta):
    # eigh reads the lower triangle only, so the lower bands that _ModePencil
    # keeps give the bytes of the full Hermitian mode matrix.
    n = 24
    modes, pencil = _mode_pencil(cap_space(theta, n, n))
    full = [mode_bands_by_unique(x.tocsr(), (n, n)) for x in (pencil.A, pencil.M)]
    for m in (0, 1, 5, n // 2):
        pair = []
        for bands, low in zip(full, (modes.a, modes.m)):
            w = bands.shape[1] // 2
            hermitian = sum(np.diag(bands[m, w + o, max(0, -o):n - max(0, o)], o)
                            for o in range(-w, w + 1))
            lower = modes._dense(low, m)
            assert np.array_equal(np.tril(hermitian), lower)
            pair.append((hermitian, lower))
        (A_full, A_low), (M_full, M_low) = pair
        if m in (0, n // 2):
            A_full, A_low, M_full, M_low = (x.real for x in (A_full, A_low, M_full, M_low))
        for subset in (None, (n - 3, n - 1)):
            w_full, u_full = scipy.linalg.eigh(A_full, M_full, subset_by_index=subset)
            w_low, u_low = scipy.linalg.eigh(A_low, M_low, subset_by_index=subset)
            assert w_full.tobytes() == w_low.tobytes()
            assert u_full.tobytes() == u_low.tobytes()


def test_azimuthal_mode_block_solve_equals_its_column_solves():
    # The block solver preconditions k + 2 columns in one call; each column
    # must get the bytes that solving it alone gives.
    g = grid(2.2, 24, 32)
    modes, pencil = _mode_pencil(capaf.WeightedSpace(g, capaf.random_body(g, 40, amplitude=0.2)))
    solve, _ = modes.solver(1.5)
    X = np.random.default_rng(5).standard_normal((pencil.A.shape[0], 10))
    block = solve(X)
    assert block.shape == X.shape
    for j in range(X.shape[1]):
        assert np.array_equal(block[:, j], solve(X[:, j].copy()))


@pytest.mark.parametrize("n_rho, n_phi", [(48, 64), (128, 128)])
def test_azimuthal_mode_solve_matches_the_sparse_factor(n_rho, n_phi):
    modes, pencil = _mode_pencil(cap_space(np.pi / 2, n_rho, n_phi))
    solve, stored = modes.solver(1.5)
    K = (1.5 * pencil.M - pencil.A).tocsc()
    x = np.random.default_rng(5).standard_normal(K.shape[0])
    expected = scipy.sparse.linalg.splu(K).solve(x)
    assert np.linalg.norm(solve(x) - expected) <= 1e-12 * np.linalg.norm(expected)
    # The radial bandwidth is 4: one lower band of 5 rows per mode 0..n_phi/2
    assert stored == (n_phi // 2 + 1) * 5 * modes.n_rho


def test_a_singular_azimuthal_mode_raises():
    # A = -K, K a periodic second difference on every ring, and M = I: the
    # constant mode of 0 M - A = K is singular.
    form = capaf.spectral._Form
    rings, zero = np.repeat(np.arange(3), 3), np.zeros(9, dtype=int)
    A = form(rings, zero, np.tile([0, 1, 7], 3), np.repeat([[-2.0], [1.0], [1.0]] * 3, 8, axis=1))
    M = form(np.arange(3), zero[:3], zero[:3], np.ones((3, 8)))
    pencil = capaf.spectral.Pencil(A.csr(3).T, M.csr(3).tocsc(), sp.identity(24, format="csr"),
                                   0.0, A, M)
    ring = sp.diags([1.0, -2.0, 1.0], [-1, 0, 1], shape=(8, 8)).toarray()
    ring[0, 7] = ring[7, 0] = 1.0
    assert np.array_equal(pencil.A.toarray(), np.kron(np.eye(3), ring))
    modes = capaf.spectral._ModePencil(pencil)
    with pytest.raises(RuntimeError, match="azimuthal mode 0 "):
        modes.solver(0.0)


def test_a_mode_that_is_not_positive_definite_raises():
    # lambda1 = 1 lies in mode 0, above the shift 0.5: 0.5 M_0 - A_0 is
    # indefinite.  A pivoted LU factors it without complaint; Cholesky refuses.
    modes, _ = _mode_pencil(cap_space(1.2, 16, 16))
    with pytest.raises(RuntimeError, match="azimuthal mode 0 .*not positive definite"):
        modes.solver(0.5)
    modes.solver(capaf.spectral._SHIFT)


def test_every_reference_factors_the_same_shifted_pencil(monkeypatch):
    g = grid(1.2, 16, 16)
    factored = []
    mode_solver = capaf.spectral._ModePencil.solver

    def recording(self, shift):
        factored.append((self, shift))
        return mode_solver(self, shift)

    monkeypatch.setattr(capaf.spectral._ModePencil, "solver", recording)
    # The cap is split into its azimuthal modes and factors nothing.
    capaf.spectrum(capaf.WeightedSpace(g, capaf.ell(g)), how_many=6)
    assert factored == []
    for ref in (capaf.random_body(g, 40, amplitude=0.2).values, _translated_cap(g)):
        space = capaf.WeightedSpace(g, ref)
        factored.clear()
        capaf.spectrum(space, how_many=6)
        assert len(factored) == 1
        modes, shift = factored[0]
        assert shift == capaf.spectral._SHIFT
        assert (modes.n_rho, modes.n_phi) == (16, 16)
        pencil = capaf.assemble_operator(space)
        for matrix, expected in ((modes.A, pencil.A), (modes.M, pencil.M)):
            assert matrix.toarray().tobytes() == expected.toarray().tobytes()


def test_only_a_rotationally_invariant_reference_takes_the_mode_solve():
    g = grid(1.2, 24, 24)
    cap = capaf.ell(g)
    translated = _translated_cap(g)
    cases = [
        (cap.values, "azimuthal_modes"),
        (capaf.random_body(g, 40, amplitude=0.2).values, "block_lobpcg"),
        (translated, "block_lobpcg"),
    ]
    for ref, solver in cases:
        space = capaf.WeightedSpace(g, ref)
        assert space.translation == (0.0, 0.0)
        assert capaf.spectrum(space, how_many=6).solver == solver


def test_spectrum_report_serializes_to_json():
    rep = capaf.spectrum(cap_space(1.5, 24, 24), how_many=4)
    text = json.dumps(rep.to_dict())
    back = json.loads(text)
    assert back["lambda1_simple"] is True
    assert "eigenvectors" not in back


def test_af_chain_on_caps_has_zero_slack():
    g = grid(1.2, 24, 24)
    cap = capaf.ell(g)
    rep = capaf.af_chain_check(g, cap, cap)
    assert rep.min_relative_slack == 0.0
    assert len(rep.triples) == 4


def test_af_chain_on_a_scaled_cap_is_equality_at_roundoff():
    g = grid(1.2, 24, 24)
    cap = capaf.ell(g)
    scaled = capaf.certify(g, 1.5 * capaf.ell_values(g))
    rep = capaf.af_chain_check(g, scaled, cap)
    assert abs(rep.min_relative_slack) < 1e-12


def test_af_chain_on_random_bodies_has_positive_slack():
    g = grid(1.2, 24, 24)
    rep = capaf.af_chain_check(g, capaf.random_body(g, 1), capaf.random_body(g, 2))
    assert rep.min_relative_slack > 0


def test_af_chain_rejects_a_non_positive_mixed_volume():
    g = grid(1.2, 24, 24)
    # V_0 of the reflected cap is -b_theta: the chain's ratios are undefined
    with pytest.raises(ValueError, match="V_0 .* is not positive"):
        capaf.af_chain_check(g, -capaf.ell_values(g), capaf.ell(g))


def test_quermass_chain_on_the_cap():
    g = grid(1.2, 24, 24)
    rep = capaf.quermass_chain_check(g, capaf.ell(g))
    assert rep.min_relative_slack == 0.0
    # every slot holds the same cap, so all four values agree bitwise
    assert len(set(rep.values)) == 1
    assert [t["relative_slack"] for t in rep.triples] == [0.0] * 4


def test_quermass_chain_is_the_chain_against_the_cap():
    g = grid(1.2, 24, 24)
    body = capaf.random_body(g, 4)
    rep = capaf.quermass_chain_check(g, body)
    assert rep.values == capaf.quermassintegral(g, body)
    assert rep == capaf.af_chain_check(g, body, capaf.ell(g))


def test_quermass_chain_on_a_random_body():
    g = grid(1.2, 24, 24)
    rep = capaf.quermass_chain_check(g, capaf.random_body(g, 4))
    assert rep.min_relative_slack > 0


def _python(script: str, *args) -> str:
    """Stdout of script run by a fresh interpreter on this checkout's capaf."""
    src = os.path.dirname(os.path.dirname(capaf.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", script, *map(str, args)], env=env, check=True,
                          capture_output=True, text=True).stdout


_SCIPY_MODULES = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"


def test_importing_capaf_loads_no_scipy():
    out = _python(f"import sys, capaf, capaf.cli\nprint({_SCIPY_MODULES})\n")
    assert out.strip() == "[]"


def test_only_the_spectrum_loads_scipy(tmp_path):
    # Every command but spectrum (and report's spectrum section) runs on
    # numpy alone; the spectrum loads scipy at its first pencil.
    script = f"""import json, sys
import capaf.cli
out, grid = sys.argv[1], ["--grid", "16x16", "--out", sys.argv[1]]
bodies = [f"{{out}}/body_0000.json", f"{{out}}/body_0001.json"]
codes = [capaf.cli.main(argv + grid) for argv in (
    ["gen", "--count", "2"], ["quermass", *bodies], ["steiner"], ["chain", "--trials", "2"],
    ["af", "--trials", "2"], ["reconstruct", bodies[0]])]
print(json.dumps([codes, {_SCIPY_MODULES}]))
print(json.dumps([capaf.cli.main(["spectrum"] + grid), "scipy.linalg" in sys.modules]))
"""
    lines = _python(script, tmp_path).splitlines()
    assert json.loads(lines[0]) == [[0] * 6, []]
    assert json.loads(lines[1]) == [0, True]
