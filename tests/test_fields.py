"""Admissible fields, certification, random generation, serialization."""

import gc
import json
import sys
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import capaf

from helpers import (grid, random_body_by_halving, random_neumann_datum_by_loop, seeded_body,
                     tensor_bytes)

THETAS = (0.6, np.pi / 2, 2.3)


def test_ell_matches_closed_form():
    g = grid(1.1, 16, 16)
    ref = 1.0 - np.cos(1.1) * np.cos(g.rho_nodes)[:, None]
    np.testing.assert_allclose(capaf.ell_values(g), ref * np.ones((1, g.n_phi)))


def test_ell_is_certified_with_unit_curvature():
    # the discrete shape tensor of ell deviates from Id by truncation error
    body = capaf.ell(grid(2.2, 24, 24))
    assert body.min_eig == pytest.approx(1.0, abs=1e-4)
    assert body.provenance["kind"] == "unit-cap"
    fine = capaf.ell(grid(2.2, 64, 64))
    assert abs(fine.min_eig - 1.0) < 0.1 * abs(body.min_eig - 1.0)


def test_as_field_reuses_a_field_only_on_its_own_grid():
    g = grid(1.2, 16, 16)
    body = capaf.random_body(g, 3)
    assert capaf.capfun.as_field(g, body) is body
    field = capaf.CapillaryField(g, body.values)
    assert capaf.capfun.as_field(g, field) is field
    other = grid(1.2, 16, 16)
    moved = capaf.capfun.as_field(other, body)
    assert moved.grid is other
    np.testing.assert_array_equal(moved.values, body.values)
    raw = capaf.capfun.as_field(g, body.values)
    assert raw is not body
    assert tensor_bytes(raw.tensor) == tensor_bytes(body.tensor)


def test_threads_racing_on_one_field_read_the_same_shape_tensor():
    g = grid(1.2, 16, 16)
    values = capaf.random_body(g, 3).values
    expected = tensor_bytes(capaf.a_of(g, values))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            field = capaf.CapillaryField(g, values)
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(lambda: field.tensor) for _ in range(16)]
                tensors = [f.result(timeout=60) for f in futures]
            assert all(tensor_bytes(t) == expected for t in tensors)
            assert tensor_bytes(field.tensor) == expected
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("theta", THETAS)
def test_horizontal_linear_satisfies_the_contact_condition(theta):
    g = grid(theta, 24, 24)
    lin = capaf.horizontal_linear(g, (1.0, 0.0))
    assert lin.robin_max < 1e-5
    ref = np.sin(g.rho_nodes)[:, None] * np.cos(g.phi_nodes)[None, :]
    np.testing.assert_allclose(lin.values, ref)


def test_certify_accepts_the_cap_and_rejects_bad_fields():
    g = grid(1.0, 16, 16)
    ok = capaf.certify(g, capaf.ell_values(g), {"kind": "test"})
    assert isinstance(ok, capaf.CapillaryBody)
    assert ok.provenance == {"kind": "test"}
    # a body on the grid passes through as it is
    assert capaf.certify(g, ok) is ok

    with pytest.raises(ValueError, match="certification failed: robin residual"):
        capaf.certify(g, np.ones(g.node_shape))

    # strong m=2 ripple drives the smallest shape-tensor eigenvalue negative
    rho = g.rho_nodes[:, None]
    ripple = np.sin(rho) ** 2 * np.cos(2 * g.phi_nodes)[None, :]
    values = capaf.enforce_contact_angle(
        g, capaf.ell_values(g) * (1.0 + 2.5 * ripple))
    with pytest.raises(ValueError, match="certification failed: min shape-tensor eigenvalue"):
        capaf.certify(g, values)

    # a field failing both gates is told both
    with pytest.raises(ValueError, match="robin residual .*; min shape-tensor eigenvalue"):
        capaf.certify(g, -np.ones(g.node_shape))


def test_certify_rewraps_a_body_from_another_grid():
    g, h = grid(1.0, 16, 16), capaf.build_grid(1.0, 16, 16)
    body = capaf.ell(g)
    again = capaf.certify(h, body)
    assert again is not body and again.grid is h
    assert again.values.tobytes() == body.values.tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_certify_rejects_non_finite_fields(bad):
    g = grid(1.0, 16, 16)
    values = capaf.ell_values(g)
    values[4, 2] = bad
    with pytest.raises(ValueError, match="non-finite"):
        capaf.certify(g, values)


def test_load_body_rejects_a_non_finite_value(tmp_path):
    g = grid(1.0, 16, 16)
    path = tmp_path / "body.json"
    capaf.save_body(capaf.ell(g), path)
    data = json.loads(path.read_text())
    data["values"][7] = float("nan")
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match="non-finite"):
        capaf.load_body(path, g)


@pytest.mark.parametrize("field, value", [("theta", [1]), ("n_rho", None)])
def test_load_body_without_a_grid_refuses_a_field_that_is_not_a_number(tmp_path, field,
                                                                        value):
    data = {"theta": 1.2, "n_rho": 16, "n_phi": 16, "values": [1.0] * (17 * 16)}
    data[field] = value
    path = tmp_path / "body.json"
    path.write_text(json.dumps(data))
    message = "body.json: body theta, n_rho, n_phi or values is malformed"
    with pytest.raises(ValueError, match=message):
        capaf.load_body(path)


@pytest.mark.parametrize("theta", THETAS)
def test_enforce_contact_angle_cancels_the_discrete_defect(theta):
    g = grid(theta, 16, 16)
    rng = np.random.default_rng(5)
    rho = g.rho_nodes[:, None]
    raw = capaf.ell_values(g) + 0.3 * np.cos(3 * rho) * np.cos(
        3 * g.phi_nodes)[None, :] + rng.uniform(0, 0.01)
    fixed = capaf.enforce_contact_angle(g, raw)
    res = capaf.robin_residual(g, fixed)
    assert float(np.max(np.abs(res))) < 1e-11
    # the correction is of the size of the defect it removes
    defect = float(np.max(np.abs(capaf.robin_residual(g, raw))))
    assert float(np.max(np.abs(fixed - raw))) < 3.0 * defect


@pytest.mark.parametrize("theta", [0.05, 3.0])
@pytest.mark.parametrize("shape", [(16, 30), (24, 18), (50, 90), (32, 250)])
def test_enforce_contact_angle_matches_the_probe_form(theta, shape):
    # Each parity's scale is the radial profile's own boundary defect; it
    # equals, bit for bit, the defect of the full-grid probe
    # prof * cos(parity * phi) read at its largest node.
    g = capaf.build_grid(theta, *shape)
    f = capaf.ell_values(g) + 0.2 * np.sin(g.rho_nodes)[:, None] ** 3 * np.cos(
        3 * g.phi_nodes)[None, :] + 0.1 * np.sin(g.rho_nodes)[:, None] * np.sin(
        g.phi_nodes)[None, :]
    values = f.copy()
    x = g.rho_nodes / g.theta
    spec = np.fft.rfft(capaf.robin_residual(g, values))
    k = np.arange(spec.size)
    for parity, prof in ((0, x**4), (1, x**5)):
        part = np.fft.irfft(np.where(k % 2 == parity, spec, 0.0), g.n_phi)
        probe = prof[:, None] * np.cos(parity * g.phi_nodes)[None, :]
        pres = capaf.robin_residual(g, probe)
        j = int(np.argmax(np.abs(pres)))
        scale = pres[j] / np.cos(parity * g.phi_nodes[j])
        values -= np.outer(prof / scale, part)
    assert capaf.enforce_contact_angle(g, f).tobytes() == values.tobytes()


def test_enforce_contact_angle_is_idempotent_at_roundoff():
    g = grid(1.2, 16, 16)
    f = capaf.random_capillary_field(g, 3).values
    again = capaf.enforce_contact_angle(g, f)
    assert float(np.max(np.abs(again - f))) < 1e-12


@pytest.mark.parametrize("theta", THETAS)
def test_random_body_is_reproducible_and_certified(theta):
    g = grid(theta, 16, 16)
    b1 = capaf.random_body(g, 42)
    b2 = capaf.random_body(g, 42)
    np.testing.assert_array_equal(b1.values, b2.values)
    assert b1.min_eig > 0
    assert float(np.max(np.abs(capaf.robin_residual(g, b1.values)))) < 1e-11
    assert b1.provenance["seed"] == 42

    b3 = capaf.random_body(g, 43)
    assert float(np.max(np.abs(b3.values - b1.values))) > 1e-3


def assert_same_body(expected, body):
    assert body.values.tobytes() == expected.values.tobytes()
    assert tensor_bytes(body.tensor) == tensor_bytes(expected.tensor)
    assert body.provenance == expected.provenance


@pytest.mark.parametrize("theta", (0.05, 1.2, 2.2, 3.0))
@pytest.mark.parametrize("n", (8, 32))
@pytest.mark.parametrize("amplitude", (0.25, 4.0))
def test_random_body_is_the_body_of_the_halving_loop(theta, n, amplitude):
    g = grid(theta, n, n)
    for seed in range(30):
        assert_same_body(random_body_by_halving(g, seed, amplitude=amplitude),
                         capaf.random_body(g, seed, amplitude=amplitude))


def test_random_body_is_the_body_of_the_halving_loop_at_256():
    g = grid(1.2, 256, 256)
    for seed in range(30):
        assert_same_body(random_body_by_halving(g, seed), capaf.random_body(g, seed))


@pytest.mark.parametrize("theta", (0.05, 1.2, 2.2, 3.1))
@pytest.mark.parametrize("shape", ((8, 8), (16, 30), (24, 18), (50, 90), (32, 250)))
@pytest.mark.parametrize("mode_cap", (1, 2, 3, 5))
def test_the_datum_is_the_outer_product_loop_bit_for_bit(theta, shape, mode_cap, monkeypatch):
    # Same values and signed zeros, and the generator left in the same state;
    # random_capillary_field, which draws after the datum, then follows.
    g = grid(theta, *shape)
    for seed in range(4):
        rng, loop_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        u = capaf.capfun._random_neumann_datum(g, rng, mode_cap)
        expected = random_neumann_datum_by_loop(g, loop_rng, mode_cap)
        assert np.array_equal(u, expected)
        assert np.array_equal(np.signbit(u), np.signbit(expected))
        assert rng.bit_generator.state == loop_rng.bit_generator.state
    fields = [capaf.random_capillary_field(g, seed, mode_cap) for seed in range(2)]
    monkeypatch.setattr(capaf.capfun, "_random_neumann_datum", random_neumann_datum_by_loop)
    for seed, f in enumerate(fields):
        assert f.values.tobytes() == capaf.random_capillary_field(g, seed, mode_cap).values.tobytes()


@pytest.mark.parametrize("theta", (1.2, 2.2))
def test_the_exact_check_decides_inside_the_guard_band(theta, monkeypatch):
    # With the margin moved to within 1e-12 of a rejected halving's exact
    # min_eig, that halving passes or fails by the exact tensor alone.
    g = grid(theta, 32, 32)
    capfun = capaf.capfun
    lv = capaf.ell_values(g)
    bands = 0
    for seed in range(6):
        body = random_body_by_halving(g, seed, amplitude=4.0)
        u = capfun._random_neumann_datum(g, np.random.default_rng(seed), 3)
        amp = 4.0
        while amp > body.provenance["params"]["effective_amplitude"]:
            values = capaf.enforce_contact_angle(g, lv + amp * lv * u)
            m = capaf.CapillaryField(g, values).min_eig
            for margin, accepted in ((m - 1e-12, True), (m + 1e-12, False)):
                monkeypatch.setattr(capfun, "MARGIN", margin)
                expected = random_body_by_halving(g, seed, amplitude=4.0)
                assert (expected.provenance["params"]["effective_amplitude"] >= amp) == accepted
                assert_same_body(expected, capaf.random_body(g, seed, amplitude=4.0))
            monkeypatch.undo()
            bands += 1
            amp *= 0.5
    assert bands >= 6


def test_random_body_shapes_the_cap_once_per_grid_and_the_datum_once_per_body(monkeypatch):
    g = capaf.build_grid(1.2, 32, 32)
    capfun = capaf.capfun
    cap_values = capaf.enforce_contact_angle(g, capaf.ell_values(g)).tobytes()
    calls, cap_calls, attempts = [], [], []
    real_a_of, real_body = capfun.a_of, capfun.CapillaryBody

    def a_of(grid_, values):
        calls.append(1)
        if values.tobytes() == cap_values:
            cap_calls.append(1)
        return real_a_of(grid_, values)

    def body(*args, **kwargs):
        attempts.append(1)
        return real_body(*args, **kwargs)

    monkeypatch.setattr(capfun, "a_of", a_of)
    monkeypatch.setattr(capfun, "CapillaryBody", body)
    tried, halvings = [], []
    for first, seed in ((True, 2), (False, 5)):
        calls.clear()
        attempts.clear()
        b = capaf.random_body(g, seed, amplitude=4.0)
        b.tensor  # the tensor that accepted the body
        assert len(calls) == first + 1 + len(attempts)
        params = b.provenance["params"]
        halvings.append(round(np.log2(params["amplitude"] / params["effective_amplitude"])))
        tried.append(len(attempts))
    assert len(cap_calls) == 1
    # The halving loop would have shaped the body halvings + 1 times.
    assert tried == [1, 1] and min(halvings) >= 1

    # The datum's mode table is built once per (grid, mode_cap), however
    # many bodies and fields draw from it, and the tables die with the grid.
    profiled = []
    real_profiles = capfun._mode_profiles

    def mode_profiles(grid_, mode_cap):
        profiled.append(mode_cap)
        return real_profiles(grid_, mode_cap)

    monkeypatch.setattr(capfun, "_mode_profiles", mode_profiles)
    for seed in range(3):
        capaf.random_body(g, seed, mode_cap=2)
        capaf.random_capillary_field(g, seed)
        capaf.random_capillary_field(g, seed, mode_cap=2)
    assert profiled == [2]
    assert len(cap_calls) == 1
    entries = [a for entry in capfun._TABLES[g].values()
               for a in (entry if isinstance(entry, tuple) else (entry,))]
    assert len(entries) == 3 + 2 + 3 + 3  # cap tensor's planes, lifts, two mode tables
    assert not any(a.flags.writeable for a in entries)
    refs = [weakref.ref(a) for a in entries] + [weakref.ref(g)]
    monkeypatch.undo()
    del g, b, entries
    gc.collect()
    assert all(ref() is None for ref in refs)


def test_the_cap_tensor_dies_with_its_grid_and_threads_agree_on_it():
    capfun = capaf.capfun
    g = capaf.build_grid(2.2, 16, 16)
    full = capaf.a_of(g, capaf.enforce_contact_angle(g, capaf.ell_values(g)))
    expected = tuple(plane[:, :1].tobytes() for plane in full)
    datum = random_neumann_datum_by_loop(g, np.random.default_rng(4), 3).tobytes()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(capfun._ell_tensor, g) for _ in range(16)]
            # The datum's mode table is raced for at the same time.
            datum_futures = [pool.submit(capfun._random_neumann_datum, g,
                                         np.random.default_rng(4), 3) for _ in range(16)]
            tensors = [f.result(timeout=60) for f in futures]
            datums = [f.result(timeout=60) for f in datum_futures]
    finally:
        sys.setswitchinterval(interval)
    # One tensor, built once, and the datum's bytes in every thread.
    assert all(t is tensors[0] for t in tensors)
    assert tensor_bytes(tensors[0]) == expected
    # Read-only C-contiguous meridian planes, one per component.
    assert all(plane.shape == (g.n_rho + 1, 1) and plane.flags.c_contiguous
               and not plane.flags.writeable for plane in tensors[0])
    assert all(u.tobytes() == datum for u in datums)
    refs = [weakref.ref(g)] + [weakref.ref(plane) for plane in tensors[0]]
    del g, tensors, futures, datum_futures
    gc.collect()
    assert all(ref() is None for ref in refs)


def test_random_body_amplitude_zero_is_the_cap():
    g = grid(1.3, 16, 16)
    b = capaf.random_body(g, 7, amplitude=0.0)
    np.testing.assert_allclose(b.values, capaf.ell_values(g), atol=1e-13)


def test_random_body_parameter_validation():
    g = grid(1.3, 16, 16)
    with pytest.raises(ValueError, match="base_radius"):
        capaf.random_body(g, 1, base_radius=0.0)
    with pytest.raises(ValueError, match="amplitude"):
        capaf.random_body(g, 1, amplitude=-0.5)


def test_random_capillary_field_passes_the_gate_on_coarse_grids():
    for theta in THETAS:
        g = grid(theta, 16, 16)
        for seed in range(6):
            f = capaf.random_capillary_field(g, seed)
            scale = max(1.0, float(np.max(np.abs(f.values))))
            assert f.robin_max < 1e-11 * scale


def test_body_roundtrip_through_json(tmp_path):
    g = grid(1.4, 16, 16)
    b = seeded_body(1.4, 16, 16, 9)
    path = tmp_path / "body.json"
    capaf.save_body(b, path)
    back = capaf.load_body(path, g)
    np.testing.assert_array_equal(back.values, b.values)

    other = grid(1.5, 16, 16)
    with pytest.raises(ValueError, match="grid"):
        capaf.load_body(path, other)
