"""Weighted operator, quadratic form inequality, spectrum dichotomy, chains."""

import json

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg

import capaf

from helpers import apply, bilinear, grid, cap_space, smooth_body


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
    # the Lanczos start vector is seeded
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
    # Shift-invert at 1.5 returns the top k, up to k = N - 2 (62 on 8x8).
    space = cap_space(theta, n, n)
    rep = capaf.spectrum(space, how_many=how_many)
    assert rep.solver == "azimuthal_modes"
    k = len(rep.eigenvalues)
    assert k == min(max(how_many, 6), rep.n_unknowns - 2)
    dense = _dense_pencil_eigenvalues(space)
    np.testing.assert_allclose(rep.eigenvalues, dense[:k], rtol=0, atol=1e-9)
    assert max(rep.residuals) < 1e-8


def _shifted_pencil(space):
    """The matrix both eigensolvers factor, K = 1.5 M - A, and its lattice."""
    pencil = capaf.assemble_operator(space)
    R, P = space.grid.node_shape
    return (1.5 * pencil.M - pencil.A).tocsc(), (R - 1, P)


def _translated_cap(g):
    return capaf.ell(g).values + 0.05 * capaf.horizontal_linear(g, (1, 0)).values


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
    assert rep.n_solves > 0 and rep.n_solves % 10 == 0


def test_azimuthal_mode_block_solve_equals_its_column_solves():
    # The block solver preconditions k + 2 columns in one call; each column
    # must get the bytes that solving it alone gives.
    g = grid(2.2, 24, 32)
    space = capaf.WeightedSpace(g, capaf.random_body(g, 40, amplitude=0.2))
    pencil = capaf.assemble_operator(space)
    R, P = g.node_shape
    solve, _ = capaf.spectral._azimuthal_mode_solver(
        (1.5 * pencil.M - pencil.A).tocsc(), (R - 1, P))
    X = np.random.default_rng(5).standard_normal((pencil.A.shape[0], 10))
    block = solve(X)
    assert block.shape == X.shape
    for j in range(X.shape[1]):
        assert np.array_equal(block[:, j], solve(X[:, j].copy()))


@pytest.mark.parametrize("n_rho, n_phi", [(48, 64), (128, 128)])
def test_azimuthal_mode_solve_matches_the_sparse_factor(n_rho, n_phi):
    K, shape = _shifted_pencil(cap_space(np.pi / 2, n_rho, n_phi))
    solve, stored = capaf.spectral._azimuthal_mode_solver(K, shape)
    x = np.random.default_rng(5).standard_normal(K.shape[0])
    expected = scipy.sparse.linalg.splu(K).solve(x)
    assert np.linalg.norm(solve(x) - expected) <= 1e-12 * np.linalg.norm(expected)
    # K's radial bandwidth is 4: one band of 13 rows per mode 0..n_phi/2
    assert stored == (n_phi // 2 + 1) * 13 * shape[0]


def test_a_singular_azimuthal_mode_raises():
    # A periodic second difference on every ring: the constant mode is singular.
    ring = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(8, 8)).tolil()
    ring[0, 7] = ring[7, 0] = -1.0
    K = sp.kron(sp.identity(3), ring.tocsr()).tocsc()
    with pytest.raises(RuntimeError, match="azimuthal mode 0"):
        capaf.spectral._azimuthal_mode_solver(K, (3, 8))


def test_every_reference_factors_the_same_shifted_pencil(monkeypatch):
    g = grid(1.2, 16, 16)
    factored = []
    mode_solver = capaf.spectral._azimuthal_mode_solver

    def recording(K, node_shape):
        factored.append(K)
        return mode_solver(K, node_shape)

    monkeypatch.setattr(capaf.spectral, "_azimuthal_mode_solver", recording)
    for ref in (capaf.ell(g).values, capaf.random_body(g, 40, amplitude=0.2).values,
                _translated_cap(g)):
        space = capaf.WeightedSpace(g, ref)
        factored.clear()
        capaf.spectrum(space, how_many=6)
        assert len(factored) == 1
        K, _ = _shifted_pencil(space)
        assert abs(factored[0] - K).max() == 0.0


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
