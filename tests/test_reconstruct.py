"""Embedding, planarity and contact checks, volume routes, mesh round trips,
and byte pins of the mesh and body writers against per-line oracles."""

import dataclasses
import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import capaf

from helpers import (exact_ties, floats_by_kernel, floats_by_percent, grid, load_mesh,
                     obj_by_templates, obj_per_line, smooth_body)


def cap_patch(theta, n):
    g = grid(theta, n, n)
    return g, capaf.embed(g, capaf.ell(g))


def test_cap_embedding_is_the_translated_unit_sphere():
    # X = grad h + h nu with h = ell lands on nu - cos(theta) e_z
    g, patch = cap_patch(1.1, 32)
    rho = g.rho_nodes[:, None]
    phi = g.phi_nodes[None, :]
    ref = np.stack([np.sin(rho) * np.cos(phi),
                    np.sin(rho) * np.sin(phi),
                    np.cos(rho) * np.ones_like(phi)], axis=-1)
    ref[..., 2] -= np.cos(1.1)
    assert float(np.max(np.abs(patch.positions - ref))) < 1e-6
    assert patch.positions.shape == (g.n_rho + 1, g.n_phi, 3)
    assert not patch.degenerate_triangles


def test_embedding_is_homogeneous_and_translates():
    g = grid(1.1, 32, 32)
    b = capaf.random_body(g, 5)
    p = capaf.embed(g, b)

    scaled = capaf.certify(g, 1.7 * b.values)
    ps = capaf.embed(g, scaled)
    assert float(np.max(np.abs(ps.positions - 1.7 * p.positions))) < 1e-12

    # embedding is linear in h: growing by t unit caps adds t X(ell) up to
    # roundoff
    t = 0.7
    grown = capaf.certify(g, b.values + t * capaf.ell_values(g))
    pg = capaf.embed(g, grown)
    unit = capaf.embed(g, capaf.ell(g))
    assert float(np.max(np.abs(pg.positions - p.positions - t * unit.positions))) < 1e-12

    # the discrete gradient of the added linear carries truncation error
    lin = capaf.horizontal_linear(g, (0.3, -0.2)).values
    pt = capaf.embed(g, capaf.certify(g, b.values + lin))
    shift = pt.positions - p.positions
    assert float(np.max(np.abs(shift[..., 0] - 0.3))) < 1e-6
    assert float(np.max(np.abs(shift[..., 1] + 0.2))) < 1e-6
    assert float(np.max(np.abs(shift[..., 2]))) < 1e-6


def test_contact_angle_is_exact_on_the_ring():
    for theta in (0.7, np.pi / 2, 2.4):
        g = grid(theta, 24, 24)
        patch = capaf.embed(g, capaf.random_body(g, 3))
        nz = patch.normals[g.boundary_index, :, 2]
        assert float(np.max(np.abs(nz - g.cos_theta))) <= 1e-12


def test_planarity_converges_for_the_cap():
    errs = []
    for n in (16, 32, 64):
        _, patch = cap_patch(1.1, n)
        errs.append(capaf.planarity_residual(patch))
    assert errs[-1] < 1e-9
    for e1, e2 in zip(errs, errs[1:]):
        ooa = np.log2(e1 / e2)
        assert ooa > 3.5


def test_planarity_is_at_roundoff_for_projected_bodies():
    # bodies carry the discrete contact condition exactly, and the boundary
    # ring height is that residual times sin(theta)
    g = grid(1.1, 32, 32)
    patch = capaf.embed(g, smooth_body(1.1, 32, 32))
    assert capaf.planarity_residual(patch) < 1e-12
    patch = capaf.embed(g, capaf.random_body(g, 8))
    assert capaf.planarity_residual(patch) < 1e-12


def test_interior_stays_above_the_plane():
    g = grid(1.1, 32, 32)
    assert capaf.interior_min_height(capaf.embed(g, capaf.random_body(g, 5))) > 0


def test_hemisphere_mesh_volume_converges_to_the_ball_half():
    errs = []
    for n in (16, 32, 64):
        _, patch = cap_patch(np.pi / 2, n)
        errs.append(abs(capaf.enclosed_volume(patch) - 2 * np.pi / 3))
    assert errs[-1] < 5e-3
    # flat triangles give a second-order volume
    for e1, e2 in zip(errs, errs[1:]):
        assert np.log2(e1 / e2) > 1.8


def test_volume_routes_agree_on_a_random_body():
    g = grid(1.1, 64, 64)
    b = capaf.random_body(g, 5)
    vq = capaf.mixed_volume(g, b.values, (b.values, b.values))
    vm = capaf.enclosed_volume(capaf.embed(g, b))
    assert abs(vm - vq) / vq < 5e-3


@pytest.mark.parametrize("k", (1, 2))
def test_boundary_form_quermass_matches_the_cap_value(k):
    # 98 azimuthal nodes is one of the even counts n where n * (1/n) != 1 in
    # floating point, so a wavenumber built as rfftfreq(n, 1/n) is not an integer.
    for n_rho, n_phi in ((32, 32), (64, 98)):
        g = grid(1.1, n_rho, n_phi)
        q = capaf.boundary_form_quermass(capaf.embed(g, capaf.ell(g)), k)
        assert q == pytest.approx(capaf.b_theta(1.1), rel=1e-6)


@pytest.mark.parametrize("k", (1, 2))
def test_boundary_form_quermass_matches_the_quadrature_route(k):
    g = grid(1.1, 32, 32)
    b = capaf.random_body(g, 5)
    via_ring = capaf.boundary_form_quermass(capaf.embed(g, b), k)
    via_quad = capaf.quermassintegral(g, b)[k + 1]
    assert via_ring == pytest.approx(via_quad, rel=1e-4)


def test_boundary_form_quermass_index_gate():
    g = grid(1.1, 16, 16)
    with pytest.raises(ValueError, match="1 or 2"):
        capaf.boundary_form_quermass(capaf.embed(g, capaf.ell(g)), 0)


def test_mesh_export_roundtrip_is_exact(tmp_path):
    g = grid(1.1, 32, 32)
    patch = capaf.embed(g, capaf.random_body(g, 5))
    path = tmp_path / "body.obj"
    capaf.export_mesh(patch, path)
    verts, normals, tris = load_mesh(path)
    assert verts.shape == ((g.n_rho + 1) * g.n_phi, 3)
    np.testing.assert_array_equal(verts, patch.flat_positions)
    np.testing.assert_array_equal(normals, patch.flat_normals)
    np.testing.assert_array_equal(tris, patch.triangles)

    again = tmp_path / "again.obj"
    capaf.export_mesh(patch, again)
    assert path.read_bytes() == again.read_bytes()


def test_patch_keeps_the_support_values_it_was_built_from():
    g = grid(1.1, 16, 16)
    b = capaf.random_body(g, 5)
    np.testing.assert_array_equal(capaf.embed(g, b).support.values, b.values)


# -- writer byte pins ------------------------------------------------------------

def extreme_patch():
    """A random-body patch with signed zeros, subnormals and huge magnitudes."""
    g = grid(1.1, 8, 8)
    patch = capaf.embed(g, capaf.random_body(g, 3))
    positions = patch.positions.copy()
    normals = patch.normals.copy()
    specials = [-0.0, 0.0, 5e-324, -1e-310, 2.5e-301, -1e300, 1.0 / 3.0]
    positions.reshape(-1)[: len(specials)] = specials
    normals.reshape(-1)[-len(specials):] = specials
    return dataclasses.replace(patch, positions=positions, normals=normals)


def integer_patch():
    """A patch whose coordinates are exact integers, so 2.0 is written 2."""
    g = grid(1.1, 16, 16)
    patch = capaf.embed(g, capaf.random_body(g, 3))
    rng = np.random.default_rng(11)
    return dataclasses.replace(
        patch, positions=rng.integers(-10**6, 10**6, patch.positions.shape).astype(float),
        normals=rng.integers(-3, 4, patch.normals.shape).astype(float))


@pytest.mark.parametrize("make", [
    lambda: capaf.embed(grid(1.1, 32, 32), capaf.random_body(grid(1.1, 32, 32), 5)),
    lambda: cap_patch(2.2, 16)[1],
    extreme_patch,
    lambda: capaf.embed(grid(1.2, 256, 256), capaf.random_body(grid(1.2, 256, 256), 3)),
    lambda: capaf.embed(grid(1.2, 32, 32),
                        capaf.random_body(grid(1.2, 32, 32), 4, base_radius=1e3)),
    integer_patch,
], ids=["random-body", "unit-cap", "extreme-values", "random-body-256", "base-radius-1e3",
        "integers"])
def test_export_mesh_matches_the_per_line_writer(make, tmp_path):
    patch = make()
    path = tmp_path / "patch.obj"
    capaf.export_mesh(patch, path)
    assert path.read_bytes() == obj_per_line(patch) == obj_by_templates(patch)


def test_export_mesh_peak_memory_stays_below_the_template_writer(tmp_path):
    # 23.4 MB is the tracemalloc peak of the three-template writer at 256²,
    # set by its face block; the float kernel works chunk by chunk.
    g = grid(1.2, 256, 256)
    patch = capaf.embed(g, capaf.random_body(g, 3))
    tracemalloc.start()
    try:
        capaf.export_mesh(patch, tmp_path / "patch.obj")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 23.4e6


# -- the %.17g kernel ------------------------------------------------------------

def powers_of_ten():
    p = np.array([float(10**k) for k in range(19)] + [10.0**-k for k in range(1, 8)])
    return np.concatenate([p, np.nextafter(p, 0.0), np.nextafter(p, np.inf), -p])


@pytest.mark.parametrize("values", [
    exact_ties(),
    [0.99999999999999999, 9.99999999999999999e-5, 9.999999999999999e16, 99999999999999984.0,
     0.5, 1e-4, 1e-5, 1e-6, 1.0000000000000002e-6, 2.0, 100.0, 123.25, -7.0],
    powers_of_ten(),
    [0.0, -0.0, 5e-324, -1e-310, 2.5e-301, -2.5e-301, 1e300, -1e300, 1e17,
     np.inf, -np.inf, np.nan, 1.7976931348623157e308, -2.2250738585072014e-308],
], ids=["ties", "edges", "powers-of-ten", "fallback-only"])
def test_the_float_kernel_writes_what_percent_writes(values):
    assert floats_by_kernel(values) == floats_by_percent(values)


@pytest.mark.parametrize("nudge", [-1e-12, 1e-12])
def test_the_float_kernel_corrects_a_log10_that_errs_either_way(nudge, monkeypatch):
    # The exponent comes from log10 and is then checked exactly, so a log10
    # off on either side next to a power of ten changes no byte.
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: log10(a) + nudge)
    values = np.concatenate([powers_of_ten(), exact_ties(20)])
    assert floats_by_kernel(values) == floats_by_percent(values)


def test_no_double_of_the_window_rounds_up_to_a_power_of_ten():
    # Why the kernel's digits take no carry: the largest double below each
    # power of ten 10**m, m = -5..17, keeps its 17 digits under 10**17 - 1/2.
    for m in range(-5, 18):
        power = Fraction(10) ** m
        x = float(power)
        if Fraction(x) >= power:
            x = math.nextafter(x, 0.0)
        assert Fraction(x) * Fraction(10) ** (17 - m) < 10**17 - Fraction(1, 2), m


def test_the_fallback_slot_holds_the_longest_text(tmp_path):
    # 24 characters, the longest '%.17g' of any double, on a line of its own
    # and beside kernel numbers.
    longest = -2.5000000000000001e-301
    assert len("%.17g" % longest) == 24
    values = np.array([longest, 1.0 / 3.0, longest, -1.0 / 7.0, 1e-5])
    assert floats_by_kernel(values) == floats_by_percent(values)
    patch = extreme_patch()
    positions = patch.positions.copy()
    positions.reshape(-1, 3)[5] = [longest, 0.25, longest]
    patch = dataclasses.replace(patch, positions=positions)
    capaf.export_mesh(patch, tmp_path / "patch.obj")
    assert (tmp_path / "patch.obj").read_bytes() == obj_by_templates(patch)


def test_the_float_kernel_chunks_rows_without_seams():
    rng = np.random.default_rng(5)
    n = 2 * capaf._floattext.CHUNK_ROWS + 3
    values = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 18, n)
    values[::97] = 0.0
    assert floats_by_kernel(values) == floats_by_percent(values)


def find_degenerate_by_gather(patch):
    """The degenerate triangles from corners gathered through the index
    list: the reference that the sliced corners must reproduce."""
    p, t = patch.flat_positions, patch.triangles
    cross = np.cross(p[t[:, 1]] - p[t[:, 0]], p[t[:, 2]] - p[t[:, 0]])
    areas = 0.5 * np.linalg.norm(cross, axis=1)
    scale = float(np.max(np.abs(p))) or 1.0
    return [int(i) for i in np.nonzero(areas <= capaf.reconstruct.DEGENERATE_AREA * scale**2)[0]]


def enclosed_volume_by_gather(patch):
    p, t = patch.flat_positions, patch.triangles
    dets = np.einsum("ij,ij->i", p[t[:, 0]], np.cross(p[t[:, 1]], p[t[:, 2]]))
    return float(np.sum(dets)) / 6.0


@pytest.mark.parametrize("n_rows,n_phi", [(2, 3), (3, 4), (17, 5), (33, 32)])
def test_the_sliced_corners_are_the_gathered_corners(n_rows, n_phi):
    from capaf.reconstruct import _corners

    positions = np.random.default_rng(n_rows).standard_normal((n_rows, n_phi, 3))
    gathered = positions.reshape(-1, 3)[triangulate_loop(n_rows, n_phi)]
    assert _corners(positions).tobytes() == gathered.transpose(1, 0, 2).tobytes()


@pytest.mark.parametrize("theta,n", [(0.05, 16), (1.2, 64), (3.0, 33)])
def test_degenerate_triangles_and_volume_match_the_gathered_corners(theta, n):
    g = grid(theta, n, n + n % 2)
    patch = capaf.embed(g, capaf.random_body(g, 4))
    positions = patch.positions.copy()
    positions[0, 1] = positions[0, 0]       # a fan triangle
    positions[3, 5] = positions[3, 6]       # quads on both sides of a node
    positions[-2, -1] = positions[-2, 0]    # across the azimuthal seam
    positions[n // 2] = positions[n // 2, 0]  # a whole ring
    planted = dataclasses.replace(patch, positions=positions)
    expected = find_degenerate_by_gather(planted)
    assert len(expected) > 2 * g.n_phi
    assert capaf.reconstruct._find_degenerate(planted) == expected
    for p in (patch, planted):
        assert capaf.enclosed_volume(p).hex() == enclosed_volume_by_gather(p).hex()


def triangulate_loop(n_rows, n_phi):
    """The per-triangle loop the vectorised triangulation must reproduce."""
    tris = [(0, i, i + 1) for i in range(1, n_phi - 1)]
    for j in range(n_rows - 1):
        base = j * n_phi
        nxt = base + n_phi
        for i in range(n_phi):
            ip = (i + 1) % n_phi
            tris.append((base + i, nxt + i, nxt + ip))
            tris.append((base + i, nxt + ip, base + ip))
    return np.array(tris, dtype=np.int64)


@pytest.mark.parametrize("n_rows,n_phi", [(2, 3), (3, 4), (17, 5), (33, 32), (257, 256)])
def test_triangulation_matches_the_loop(n_rows, n_phi):
    from capaf.reconstruct import _triangulate

    tris = _triangulate(n_rows, n_phi)
    ref_tris = triangulate_loop(n_rows, n_phi)
    assert tris.dtype == ref_tris.dtype == np.int64
    np.testing.assert_array_equal(tris, ref_tris)


def assert_saved_as_json_dump(body, tmp_path):
    path = tmp_path / "body.json"
    capaf.save_body(body, path)
    ref = tmp_path / "ref.json"
    with open(ref, "w", encoding="utf-8") as fh:
        json.dump(capaf.capfun.body_to_dict(body), fh, indent=1)
        fh.write("\n")
    assert path.read_bytes() == ref.read_bytes()


def test_save_body_matches_json_dump(tmp_path):
    g = grid(1.1, 12, 16)
    values = capaf.random_body(g, 2).values.copy()
    values.reshape(-1)[:6] = [-0.0, 5e-324, -1e-310, 1e300, 0.1, 2.0]
    # The edges of the repr kernel's window [1e-4, 1e16), each with its
    # neighbours, and integral values of the widest positional layouts.
    edges = [1e-4, np.nextafter(1e-4, 0.0), np.nextafter(1e-4, 1.0), -1e16,
             np.nextafter(1e16, 0.0), np.nextafter(1e16, np.inf), 1e15, -4503599627370497.0]
    values.reshape(-1)[6:6 + len(edges)] = edges
    provenance = {
        "kind": "test", "nested": {"a": [1, 2.5, {"b": -0.0}], "tiny": 5e-324},
        "lists": [[1.0, 2], [], {}], "text": "cap \u00e9", "none": None,
        "flag": True, "values": None,
    }
    assert_saved_as_json_dump(capaf.CapillaryBody(g, values, provenance), tmp_path)
    assert_saved_as_json_dump(capaf.random_body(g, 4), tmp_path)
    # A 256² body, and one of base radius 1e3, whose values lie in decades
    # X >= 2 of the positional layout.
    big = grid(1.2, 256, 256)
    assert_saved_as_json_dump(capaf.random_body(big, 3), tmp_path)
    wide = capaf.random_body(g, 5, base_radius=1e3)
    assert np.min(np.abs(wide.values)) >= 100.0
    assert_saved_as_json_dump(wide, tmp_path)


def test_save_body_round_trips_bit_for_bit_at_256(tmp_path):
    g = grid(1.2, 256, 256)
    body = capaf.random_body(g, 3)
    capaf.save_body(body, tmp_path / "body.json")
    back = capaf.load_body(tmp_path / "body.json", g)
    assert back.values.tobytes() == body.values.tobytes()
    assert back.provenance == body.provenance
