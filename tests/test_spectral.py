"""Weighted operator, quadratic form inequality, spectrum dichotomy, chains."""

import json

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

import capaf

from helpers import grid, cap_space, smooth_body


def test_weight_is_positive_for_a_convex_reference():
    g = grid(1.2, 24, 24)
    sp = capaf.WeightedSpace(g, capaf.random_body(g, 99))
    assert float(np.min(sp.omega)) > 0


def test_weighted_space_rejects_a_bad_reference():
    g = grid(1.2, 24, 24)
    with pytest.raises(ValueError, match="reference field violates"):
        capaf.WeightedSpace(g, np.ones(g.node_shape))


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
    body = capaf.certify(g, raw).body
    # the shifted reference dips negative; the linear part carries no shape
    # information and is removed before the weight is formed
    shifted = capaf.translate_horizontal(body, (5.0, -4.0))
    sp0 = capaf.WeightedSpace(g, body)
    sp1 = capaf.WeightedSpace(g, shifted)
    np.testing.assert_allclose(sp1.omega, sp0.omega, rtol=1e-9)
    assert sp1.translation == pytest.approx((-5.0, 4.0), abs=1e-10)
    with pytest.raises(ValueError, match="positive"):
        capaf.WeightedSpace(g, shifted, auto_translate=False)


def test_assembled_form_is_symmetric():
    sp = cap_space(1.2, 24, 24)
    op = capaf.spectral.assemble_operator(sp)
    assert op.asymmetry < 1e-12


def test_self_adjoint_residual_vanishes_under_refinement():
    errs = []
    for n in (16, 32, 64):
        g = grid(2.2, n, n)
        sp = capaf.WeightedSpace(g, capaf.random_body(g, 99))
        f = capaf.random_capillary_field(g, 5, mode_cap=2).values
        h = capaf.random_capillary_field(g, 6, mode_cap=2).values
        errs.append(capaf.self_adjoint_residual(sp, f, h))
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
    via_form = sp.inner(f, sp.apply(h))
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
    with pytest.raises(ValueError, match="f1 must be convex"):
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
    op = capaf.assemble_operator(space)
    basis = capaf.spectral._robin_basis(space.grid)
    A = (basis.T @ op.form @ basis).toarray()
    M = (basis.T @ sp.diags(op.mass) @ basis).toarray()
    return scipy.linalg.eigh(A, M, eigvals_only=True)[::-1]


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
], ids=["cap-1.57", "random-2.2", "cap-0.05"])
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


def test_spectrum_report_serializes_to_json():
    rep = capaf.spectrum(cap_space(1.5, 24, 24), how_many=4)
    text = json.dumps(rep.to_dict())
    back = json.loads(text)
    assert back["lambda1_simple"] is True
    assert "eigenvectors" not in back


def test_eigen_estimate_residual_is_nonnegative_up_to_mesh_error():
    g = grid(2.2, 24, 24)
    sp = capaf.WeightedSpace(g, capaf.random_body(g, 40, amplitude=0.2))
    worst = capaf.eigen_estimate_residual(sp, capaf.ell_values(g))
    for s in range(20):
        f = capaf.random_capillary_field(g, 100 + s).values
        worst = min(worst, capaf.eigen_estimate_residual(sp, f))
    assert worst > -1e-6


def test_eigen_estimate_residual_is_zero_for_the_cap_eigenfunction():
    sp = cap_space(1.5, 24, 24)
    assert capaf.eigen_estimate_residual(sp, capaf.ell_values(sp.grid)) == 0.0


def test_af_chain_on_caps_has_zero_slack():
    g = grid(1.2, 24, 24)
    cap = capaf.ell(g)
    rep = capaf.af_chain_check(g, cap, cap)
    assert rep.min_relative_slack == 0.0
    assert len(rep.triples) == 4


def test_af_chain_on_a_scaled_cap_is_equality_at_roundoff():
    g = grid(1.2, 24, 24)
    cap = capaf.ell(g)
    scaled = capaf.certify(g, 1.5 * capaf.ell_values(g)).body
    rep = capaf.af_chain_check(g, scaled, cap)
    assert abs(rep.min_relative_slack) < 1e-12


def test_af_chain_on_random_bodies_has_positive_slack():
    g = grid(1.2, 24, 24)
    rep = capaf.af_chain_check(g, capaf.random_body(g, 1), capaf.random_body(g, 2))
    assert rep.min_relative_slack > 0


def test_quermass_chain_on_the_cap():
    g = grid(1.2, 24, 24)
    rep = capaf.quermass_chain_check(g, capaf.ell(g))
    assert rep.min_relative_slack == 0.0
    for r in rep.ratios:
        assert r == pytest.approx(1.0, abs=1e-12)
    # the k=3 comparisons are identities and carry zero slack by construction
    for p in rep.pairs:
        if p["k"] == 3:
            assert p["relative_slack"] == 0.0


def test_quermass_chain_on_a_random_body():
    g = grid(1.2, 24, 24)
    rep = capaf.quermass_chain_check(g, capaf.random_body(g, 4))
    assert rep.min_relative_slack > 0
