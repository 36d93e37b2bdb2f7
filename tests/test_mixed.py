"""Mixed volumes, quermassintegrals, Steiner expansion, mixed discriminants."""

import numpy as np
import pytest

import capaf
from capaf.mixedvol import q2

from helpers import (grid, shape_tensor, smooth_body, smooth_field, solid_cap_volume,
                     symmetry_residual)


def test_b_theta_closed_form_anchors():
    assert capaf.b_theta(np.pi / 2) == pytest.approx(2 * np.pi / 3, rel=1e-14)
    assert capaf.b_theta(np.pi - 1e-9) == pytest.approx(4 * np.pi / 3, rel=1e-6)
    for theta in (0.4, 1.0, 2.7):
        assert capaf.b_theta(theta) == pytest.approx(solid_cap_volume(theta),
                                                     rel=1e-14)


@pytest.mark.parametrize("theta", (0.6, np.pi / 2, 2.3))
def test_cap_volume_anchor(theta):
    g = grid(theta, 64, 64)
    lv = capaf.ell_values(g)
    v = capaf.mixed_volume(g, lv, (lv, lv))
    assert v == pytest.approx(capaf.b_theta(theta), rel=1e-7)


def test_mixed_volume_is_multilinear_and_homogeneous():
    g = grid(1.3, 16, 16)
    b = [capaf.random_body(g, s).values for s in (1, 2, 3, 4)]
    lhs = capaf.mixed_volume(g, 2.0 * b[0] + 0.7 * b[3], (b[1], b[2]))
    rhs = (2.0 * capaf.mixed_volume(g, b[0], (b[1], b[2]))
           + 0.7 * capaf.mixed_volume(g, b[3], (b[1], b[2])))
    assert abs(lhs - rhs) < 1e-12

    lhs = capaf.mixed_volume(g, b[0], (0.5 * b[1] + 1.5 * b[3], b[2]))
    rhs = (0.5 * capaf.mixed_volume(g, b[0], (b[1], b[2]))
           + 1.5 * capaf.mixed_volume(g, b[0], (b[3], b[2])))
    assert abs(lhs - rhs) < 1e-12

    v = capaf.mixed_volume(g, b[0], (b[0], b[0]))
    vr = capaf.mixed_volume(g, 1.3 * b[0], (1.3 * b[0], 1.3 * b[0]))
    assert abs(vr - 1.3 ** 3 * v) < 1e-12


def test_mixed_volume_slot_count_is_checked():
    g = grid(1.3, 16, 16)
    lv = capaf.ell_values(g)
    with pytest.raises(ValueError, match="2 shape-slot"):
        capaf.mixed_volume(g, lv, (lv,))


def test_quermassintegral_rejects_a_non_finite_body():
    g = grid(1.3, 16, 16)
    values = capaf.ell_values(g)
    values[-1, 3] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        capaf.quermassintegral(g, values)


def test_shape_tensors_are_computed_once_per_field(monkeypatch):
    g = grid(2.2, 24, 24)
    body = capaf.random_body(g, 11)
    space = capaf.WeightedSpace(g, capaf.random_body(g, 12))
    f = capaf.random_capillary_field(g, 13)
    shaped = capaf.CapillaryField(g, capaf.random_body(g, 14).values)
    shaped.tensor  # shaped before the count starts
    calls = []
    original = capaf.capfun.a_of

    def counted(grid_, values):
        calls.append(1)
        return original(grid_, values)

    # The body and the reference keep the tensors that certified them, so
    # only the free field, the unit cap and raw values are shaped.
    monkeypatch.setattr(capaf.capfun, "a_of", counted)
    capaf.af_check(space, f, body)
    assert len(calls) == 1
    calls.clear()
    capaf.quermass_report(g, body)
    assert len(calls) == 1
    calls.clear()
    capaf.quermass_chain_check(g, body)
    assert len(calls) == 1
    calls.clear()
    capaf.af_chain_check(g, body, space.f2)
    assert len(calls) == 1
    calls.clear()
    # A field on the grid that holds its tensor keeps it when certified.
    assert capaf.certify(g, shaped).tensor is shaped.tensor
    capaf.af_check(space, f, shaped)
    assert len(calls) == 0


def test_mixed_sequence_fills_the_shape_slots_with_the_second_body():
    g = grid(2.2, 24, 24)
    h0 = capaf.random_body(g, 21).values
    h1 = capaf.random_body(g, 22).values
    seq = capaf.mixed_sequence(g, h0, h1)
    for i, v in enumerate(seq):
        slots = [h1] * i + [h0] * (3 - i)
        assert v == capaf.mixed_volume(g, slots[2], (slots[0], slots[1]))


def test_symmetry_residual_converges_for_admissible_fields():
    errs = []
    for n in (16, 32, 64):
        g = grid(1.1, n, n)
        errs.append(symmetry_residual(
            g, smooth_body(1.1, n, n).values, smooth_field(1.1, n, n),
            capaf.ell_values(g)))
    assert errs[-1] < 5e-6
    for e1, e2 in zip(errs, errs[1:]):
        ooa = np.log2(e1 / e2)
        assert ooa > 3.5


def test_symmetry_fails_without_the_contact_condition():
    # a constant violates the boundary condition unless theta = pi/2
    g = grid(1.1, 32, 32)
    r = symmetry_residual(g, np.ones(g.node_shape), smooth_body(1.1, 32, 32).values,
                          capaf.ell_values(g))
    assert r > 1e-2


def test_translation_leaves_the_mixed_volume_invariant():
    diffs = []
    for n in (32, 64):
        g = grid(1.1, n, n)
        b = [capaf.random_body(g, s).values for s in (11, 12, 13)]
        lin = capaf.horizontal_linear(g, (0.3, -0.2)).values
        v0 = capaf.mixed_volume(g, b[0], (b[1], b[2]))
        v1 = capaf.mixed_volume(g, b[0] + lin, (b[1] + lin, b[2] + lin))
        diffs.append(abs(v1 - v0) / abs(v0))
    assert diffs[0] < 1e-5
    assert diffs[1] < 5e-7
    assert diffs[1] < 0.25 * diffs[0]


def test_quermassintegrals_of_scaled_caps():
    g = grid(2.2, 24, 24)
    b = capaf.b_theta(2.2)
    r = 1.7
    for j, q in enumerate(capaf.quermassintegral(g, r * capaf.ell_values(g))):
        assert q / b == pytest.approx(r ** (3 - j), rel=1e-5)


def test_top_quermassintegral_ignores_the_body():
    # degree of the Gauss map: j=3 integrates the cap against itself
    g = grid(2.2, 24, 24)
    body = capaf.random_body(g, 33)
    q3 = capaf.quermassintegral(g, body)[3]
    assert q3 == pytest.approx(capaf.b_theta(2.2), rel=1e-5)


def test_quermass_report_on_the_cap():
    g = grid(1.2, 32, 32)
    rep = capaf.quermass_report(g, capaf.ell(g))
    b = capaf.b_theta(1.2)
    assert rep.top_rel_err < 1e-6
    for v in rep.values:
        assert v == pytest.approx(b, rel=1e-6)


def test_steiner_volumes_of_the_cap_are_binomial():
    g = grid(1.1, 32, 32)
    rep = capaf.steiner_check(g, capaf.ell(g), [0.25, 0.5, 1.0, 2.0])
    assert rep.max_rel_err < 1e-10
    assert rep.fit_residual < 1e-12
    b = capaf.b_theta(1.1)
    for ref, binom in zip(rep.references, (1.0, 3.0, 3.0, 1.0)):
        assert ref == pytest.approx(binom * b, rel=1e-6)
    for t, v in zip(rep.t_values, rep.volumes):
        assert v == pytest.approx(b * (1.0 + t) ** 3, rel=1e-6)


def test_steiner_volumes_of_a_random_body():
    g = grid(1.1, 32, 32)
    rep = capaf.steiner_check(g, capaf.random_body(g, 21), [0.25, 0.5, 1.0, 2.0])
    assert rep.max_rel_err < 1e-4


def test_steiner_input_validation():
    g = grid(1.1, 16, 16)
    cap = capaf.ell(g)
    with pytest.raises(ValueError, match="at least 4"):
        capaf.steiner_check(g, cap, [0.5, 1.0])
    with pytest.raises(ValueError, match="positive"):
        capaf.steiner_check(g, cap, [0.0, 0.5, 1.0, 2.0])
    with pytest.raises(ValueError, match="distinct"):
        capaf.steiner_check(g, cap, [0.5, 0.5, 1.0, 2.0])


@pytest.mark.parametrize("k", (1, 2))
def test_minkowski_identity_residual_converges(k):
    errs = []
    for n in (16, 32, 64):
        g = grid(1.1, n, n)
        errs.append(capaf.minkowski_identity_residual(
            g, smooth_body(1.1, n, n).values, k))
    assert errs[-1] < 1e-7
    orders = [np.log2(e1 / e2) for e1, e2 in zip(errs, errs[1:])]
    assert min(orders) > 3.3
    assert sum(orders) / len(orders) > 3.5


def test_h_k_field_of_the_cap_is_one():
    g = grid(2.0, 16, 16)
    lv = capaf.ell_values(g)
    np.testing.assert_array_equal(capaf.h_k_field(g, lv, 0), 1.0)
    for k in (1, 2):
        dev = np.max(np.abs(capaf.h_k_field(g, lv, k) - 1.0))
        assert dev < 5e-5
    with pytest.raises(ValueError, match="0..2"):
        capaf.h_k_field(g, lv, 3)


def test_mixed_discriminant_closed_forms():
    A = np.array([[2.0, 0.3], [0.3, 1.0]])
    B = np.array([[1.5, -0.4], [-0.4, 3.0]])
    closed = 0.5 * (A[0, 0] * B[1, 1] + A[1, 1] * B[0, 0] - 2 * A[0, 1] * B[0, 1])
    SA, SB = shape_tensor(A), shape_tensor(B)
    assert q2(SA, SB) == pytest.approx(closed, rel=1e-14)
    assert q2(SA, SA) == pytest.approx(np.linalg.det(A), rel=1e-14)
    assert q2(SB, SA) == pytest.approx(closed, rel=1e-14)


def test_pairwise_discriminant_inequality_two_by_two():
    # D(A,B)^2 >= det(A) det(B) for positive definite pairs, vectorized
    rng = np.random.default_rng(7)
    G = rng.normal(size=(100000, 2, 2))
    A = G @ np.swapaxes(G, 1, 2) + 0.05 * np.eye(2)
    H = rng.normal(size=(100000, 2, 2))
    B = H @ np.swapaxes(H, 1, 2) + 0.05 * np.eye(2)
    dab = q2(shape_tensor(A), shape_tensor(B))
    gap = dab ** 2 - np.linalg.det(A) * np.linalg.det(B)
    scale = np.maximum(1.0, dab ** 2)
    assert float(np.min(gap / scale)) > -1e-12
