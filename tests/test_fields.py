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


@pytest.mark.parametrize("field, message", [
    ("theta", "theta is an integer too large for a float"),
    ("values", "values holds an integer too large for a float"),
])
def test_load_body_refuses_an_integer_too_large_for_a_float(tmp_path, field, message):
    data = {"theta": 1.2, "n_rho": 16, "n_phi": 16, "values": [1.0] * (17 * 16)}
    if field == "theta":
        data["theta"] = 10**400
    else:
        data["values"][5] = 10**400
    path = tmp_path / "body.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError) as info:
        capaf.load_body(path)
    assert str(info.value) == (f"{path}: body theta, n_rho, n_phi or values is malformed: "
                               f"{message}")


@pytest.mark.parametrize("n_rho, n_phi", [(10**400, 16), (16, 10**11)])
def test_load_body_without_a_grid_refuses_a_grid_too_large(tmp_path, n_rho, n_phi):
    # The size check comes before any float conversion or array of that size.
    data = {"theta": 1.2, "n_rho": n_rho, "n_phi": n_phi, "values": [1.0] * (17 * 16)}
    path = tmp_path / "body.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError) as info:
        capaf.load_body(path)
    assert str(info.value) == (f"{path}: grid too large: need (n_rho+1)*n_phi <= "
                               f"{capaf.capgrid.MAX_NODES} nodes")


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


@pytest.mark.parametrize("theta", (0.01, 0.05, 1.2, 2.2, 3.1))
@pytest.mark.parametrize("shape, mode_cap", [((8, 8), 5), ((16, 30), 3), ((256, 16), 3),
                                             ((16, 256), 3), ((256, 256), 3)])
def test_the_term_tables_give_the_enforced_datums_shape_tensor(theta, shape, mode_cap):
    # (8, 8) with mode_cap 5 has aliased rows, m > n_phi/2, and a Nyquist row.
    # Node by node within an eighth of PREDICTION_GUARD's band; the largest
    # deviation measured is 4.9 guard scales (theta 3.1, 8x8, mode_cap 5).
    g = grid(theta, *shape)
    capfun = capaf.capfun
    profiles, trig = capfun._table(g, capfun._mode_table, mode_cap)[:2]
    lv = capfun._ell_column(g)
    for seed in range(3):
        rng = np.random.default_rng(seed)
        coef, u = capfun._random_datum_terms(g, rng, mode_cap)
        assert u.tobytes() == capfun._random_neumann_datum(
            g, np.random.default_rng(seed), mode_cap).tobytes()
        # The coefficients are u's, divided by max|u| as u is.
        assert np.max(np.abs(profiles.T @ (coef[:, None] * trig) - u)) < 1e-14
        lu = capaf.enforce_contact_angle(g, lv * u)
        scale = np.finfo(float).eps * (g.n_phi / 2 / g.sin_rho[0]) ** 2 * np.max(np.abs(lu))
        for plane, exact in zip(capfun._datum_tensor(g, coef, mode_cap), capaf.a_of(g, lu)):
            assert plane.shape == g.node_shape
            assert np.max(np.abs(plane - exact)) <= capfun.PREDICTION_GUARD / 8 * scale


def test_random_body_shapes_the_cap_once_per_grid_and_the_datum_once_per_body(monkeypatch):
    g = capaf.build_grid(1.2, 32, 32)
    capfun = capaf.capfun
    cap_values = capaf.enforce_contact_angle(g, capaf.ell_values(g)).tobytes()
    calls, cap_calls, attempts, enforced = [], [], [], []
    real_a_of, real_body, real_enforce = capfun.a_of, capfun.CapillaryBody, capfun.enforce_contact_angle

    def a_of(grid_, values):
        calls.append(1)
        if values.tobytes() == cap_values:
            cap_calls.append(1)
        return real_a_of(grid_, values)

    def body(*args, **kwargs):
        attempts.append(1)
        return real_body(*args, **kwargs)

    def enforce(grid_, values):
        enforced.append(1)
        return real_enforce(grid_, values)

    monkeypatch.setattr(capfun, "a_of", a_of)
    monkeypatch.setattr(capfun, "CapillaryBody", body)
    monkeypatch.setattr(capfun, "enforce_contact_angle", enforce)
    tried, halvings = [], []
    for first, seed in ((True, 2), (False, 5)):
        calls.clear()
        attempts.clear()
        enforced.clear()
        b = capaf.random_body(g, seed, amplitude=4.0)
        b.tensor  # the tensor that accepted the body
        # The prediction reads the term tables: one a_of and one enforced
        # field per exact attempt, besides the grid's first shaping of the cap.
        assert len(calls) == first + len(attempts)
        assert len(enforced) == first + len(attempts)
        params = b.provenance["params"]
        halvings.append(round(np.log2(params["amplitude"] / params["effective_amplitude"])))
        tried.append(len(attempts))
    assert len(cap_calls) == 1
    # The halving loop would have shaped the body halvings + 1 times.
    assert tried == [1, 1] and min(halvings) >= 1

    # The datum's mode table and its term tensors are built once per
    # (grid, mode_cap), however many bodies and fields draw from them, and the
    # tables die with the grid.
    profiled, termed = [], []
    real_profiles, real_terms = capfun._mode_profiles, capfun._term_tensors

    def mode_profiles(grid_, mode_cap):
        profiled.append(mode_cap)
        return real_profiles(grid_, mode_cap)

    def term_tensors(grid_, mode_cap):
        termed.append(mode_cap)
        return real_terms(grid_, mode_cap)

    monkeypatch.setattr(capfun, "_mode_profiles", mode_profiles)
    monkeypatch.setattr(capfun, "_term_tensors", term_tensors)
    for seed in range(3):
        capaf.random_body(g, seed, mode_cap=2)
        capaf.random_capillary_field(g, seed)
        capaf.random_capillary_field(g, seed, mode_cap=2)
    assert profiled == [2]
    assert termed == [2]
    assert len(cap_calls) == 1
    entries = [a for entry in capfun._TABLES[g].values()
               for a in (entry if isinstance(entry, tuple) else (entry,))]
    # The cap tensor's planes, the lifts, two mode tables and two term tables.
    assert len(entries) == 3 + 2 + 4 + 4 + 4 + 4
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
            futures = [pool.submit(capfun._table, g, capfun._cap_meridian_tensor)
                       for _ in range(16)]
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


def test_ell_is_one_read_only_cap_per_grid():
    g = capaf.build_grid(2.2, 24, 24)
    first, second = capaf.ell(g), capaf.ell(g)
    # Two bodies on one set of arrays: the values and each plane are shared.
    assert first.values is second.values
    assert all(a is b for a, b in zip(first.tensor, second.tensor))
    for array in (first.values, *first.tensor):
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = 0.0
    certified = capaf.certify(g, capaf.ell_values(g))
    assert first.values.tobytes() == certified.values.tobytes()
    assert tensor_bytes(first.tensor) == tensor_bytes(certified.tensor)
    assert first.provenance == {"kind": "unit-cap"}
    assert first.provenance is not second.provenance
    # ell_values stays a fresh, writable array.
    assert capaf.ell_values(g).flags.writeable


def test_the_cap_dies_with_its_grid():
    # The grid's table holds the cap's arrays, not a body: a body holds its
    # grid, so a cached body would keep the grid and its table alive.
    capfun = capaf.capfun
    tables = len(capfun._TABLES)
    g = capaf.build_grid(1.2, 16, 16)
    cap = capaf.ell(g)
    capaf.quermassintegral(g, capaf.random_body(g, 3))
    assert len(capfun._TABLES) == tables + 1
    refs = [weakref.ref(g)] + [weakref.ref(a) for a in (cap.values, *cap.tensor)]
    del g, cap
    gc.collect()
    assert all(ref() is None for ref in refs)
    assert len(capfun._TABLES) == tables


def test_threads_racing_on_a_fresh_grids_cap_shape_it_once(monkeypatch):
    g = capaf.build_grid(2.2, 16, 16)
    calls = []
    real = capaf.capfun.a_of

    def counted(grid_, values):
        calls.append(1)
        return real(grid_, values)

    monkeypatch.setattr(capaf.capfun, "a_of", counted)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            caps = list(pool.map(lambda _: capaf.ell(g), range(16)))
    finally:
        sys.setswitchinterval(interval)
    assert len(calls) == 1
    assert all(c.values is caps[0].values for c in caps)
    assert all(a is b for c in caps for a, b in zip(c.tensor, caps[0].tensor))


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


def load_by_json(path, grid=None):
    """load_body as it was before its values reader: json.load of the UTF-8
    text, then body_from_dict; the body, or the message of its ValueError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return capaf.capfun.body_from_dict(json.load(fh), grid)
    except ValueError as exc:
        return f"{path}: {exc}"


def load_outcome(path, grid=None):
    """load_body's body, or the message of its ValueError."""
    try:
        return capaf.load_body(path, grid)
    except ValueError as exc:
        return str(exc)


def assert_same_outcome(got, want):
    if isinstance(want, str):
        assert got == want
    else:
        assert not isinstance(got, str), got
        assert got.values.tobytes() == want.values.tobytes()
        assert got.provenance == want.provenance
        assert (got.grid.theta, got.grid.n_rho, got.grid.n_phi) == (
            want.grid.theta, want.grid.n_rho, want.grid.n_phi)


@pytest.mark.parametrize("theta, n_rho, n_phi", [(0.3, 16, 16), (1.2, 48, 64), (3.0, 256, 256)])
@pytest.mark.parametrize("kind", ["random", "cap"])
def test_load_body_reads_a_saved_body_as_json_does(tmp_path, theta, n_rho, n_phi, kind):
    g = grid(theta, n_rho, n_phi)
    body = seeded_body(theta, n_rho, n_phi, 11) if kind == "random" else capaf.ell(g)
    path = tmp_path / "body.json"
    capaf.save_body(body, path)
    for on in (g, None):
        got = capaf.load_body(path, on)
        assert_same_outcome(got, load_by_json(path, on))
        assert got.values.tobytes() == body.values.tobytes()


def saved_variants():
    """Body files that save_body does not write, each as (id, text)."""
    body = seeded_body(1.2, 16, 16, 2)
    d = capaf.capfun.body_to_dict(body)
    saved = json.dumps(d, indent=1)
    first = repr(d["values"][0])
    assert saved.count(f"[\n  {first},") == 1
    head, tail = saved.split('\n "provenance"')

    def token(text):
        return saved.replace(f"[\n  {first},", f"[\n  {text},")

    variants = {
        "one-line": json.dumps(d),
        "indent-2": json.dumps(d, indent=2),
        "reordered": json.dumps({k: d[k] for k in ("values", "provenance", "n_phi", "theta",
                                                   "n_rho")}, indent=1),
        "values-in-provenance-first": json.dumps(
            {"provenance": {"values": d["values"]}, **{k: d[k] for k in ("theta", "n_rho",
                                                                          "n_phi", "values")}},
            indent=1),
        "values-in-provenance-last": json.dumps({**d, "provenance": {"values": [0.5]}}, indent=1),
        # The list in the writer's layout, but inside provenance, and a top-level
        # values that json reads as null.
        "values-nested-in-layout": '{"provenance": {"values": [\n  '
        + ",\n  ".join(map(repr, d["values"])) + '\n ]}, "theta": 1.2, "n_rho": 16, '
        '"n_phi": 16, "values": null}',
        "duplicate-values-list": head + '\n "values": [1.0],\n "provenance"' + tail,
        "duplicate-values-null": head + '\n "values": null,\n "provenance"' + tail,
        "duplicate-values-same": head + '\n "values": ' + json.dumps(d["values"], indent=1)
        + ',\n "provenance"' + tail,
        "duplicate-values-escaped": head + '\n "val\\u0075es": null,\n "provenance"' + tail,
        "duplicate-values-before": '{\n "values": null,' + saved[1:],
        "nan": token("NaN"),
        "plus-sign": token("+1.0"),
        "leading-zero": token("01.5"),
        "no-integer-part": token(".5"),
        "no-fraction": token("5."),
        "integer": token("1"),
        "exponent": token("1e-05"),
        "bom": "\ufeff" + saved,
        "trailing-data": saved + " []",
        "crlf": saved.replace("\n", "\r\n"),
    }
    return list(variants.items())


@pytest.mark.parametrize("name, text", saved_variants(), ids=[n for n, _ in saved_variants()])
def test_load_body_reads_any_other_layout_as_json_does(tmp_path, name, text):
    path = tmp_path / "body.json"
    path.write_bytes(text.encode("utf-8"))
    for on in (grid(1.2, 16, 16), None):
        assert_same_outcome(load_outcome(path, on), load_by_json(path, on))


def test_load_body_hands_json_only_the_header_and_provenance(tmp_path, monkeypatch):
    # Without its values reader load_body would still read every body
    # right, through json, and slowly.
    g = grid(1.2, 64, 64)
    body = seeded_body(1.2, 64, 64, 4)
    path = tmp_path / "body.json"
    capaf.save_body(body, path)
    seen = []
    real_loads = json.loads

    def loads(text, *args, **kwargs):
        seen.append(text)
        return real_loads(text, *args, **kwargs)

    def load(*args, **kwargs):
        raise AssertionError("json.load read a file that save_body wrote")

    monkeypatch.setattr(json, "loads", loads)
    monkeypatch.setattr(json, "load", load)
    back = capaf.load_body(path, g)
    head, rest = path.read_text().split('"values": [', 1)
    assert seen == [head + '"values": null' + rest.split("]", 1)[1]]
    assert back.values.tobytes() == body.values.tobytes()
    assert back.provenance == body.provenance
