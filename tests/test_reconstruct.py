"""Embedding, planarity and contact checks, volume routes, mesh round trips,
and byte pins of the mesh and body writers against per-line oracles."""

import dataclasses
import json

import numpy as np
import pytest

import capaf

from helpers import grid, load_mesh, smooth_body


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
        assert capaf.contact_angle_residual(patch) <= 1e-12


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
    g = grid(1.1, 32, 32)
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
    np.testing.assert_array_equal(capaf.embed(g, b).values, b.values)


# -- writer byte pins ------------------------------------------------------------

def obj_per_line(patch) -> bytes:
    """The OBJ text as the per-line writer formatted it: the reference bytes."""
    lines = []
    for x, y, z in patch.flat_positions:
        lines.append(f"v {x:.17g} {y:.17g} {z:.17g}")
    for x, y, z in patch.flat_normals:
        lines.append(f"vn {x:.17g} {y:.17g} {z:.17g}")
    for a, b, c in patch.triangles:
        lines.append(f"f {a + 1}//{a + 1} {b + 1}//{b + 1} {c + 1}//{c + 1}")
    return ("\n".join(lines) + "\n").encode("utf-8")


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


@pytest.mark.parametrize("make", [
    lambda: capaf.embed(grid(1.1, 32, 32), capaf.random_body(grid(1.1, 32, 32), 5)),
    lambda: cap_patch(2.2, 16)[1],
    extreme_patch,
], ids=["random-body", "unit-cap", "extreme-values"])
def test_export_mesh_matches_the_per_line_writer(make, tmp_path):
    patch = make()
    path = tmp_path / "patch.obj"
    capaf.export_mesh(patch, path)
    assert path.read_bytes() == obj_per_line(patch)


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


def test_save_body_matches_json_dump(tmp_path):
    g = grid(1.1, 12, 16)
    values = capaf.random_body(g, 2).values.copy()
    values.reshape(-1)[:6] = [-0.0, 5e-324, -1e-310, 1e300, 0.1, 2.0]
    provenance = {
        "kind": "test", "nested": {"a": [1, 2.5, {"b": -0.0}], "tiny": 5e-324},
        "lists": [[1.0, 2], [], {}], "text": "cap \u00e9", "none": None,
        "flag": True, "values": None,
    }
    body = capaf.CapillaryBody(g, values, provenance)
    path = tmp_path / "body.json"
    capaf.save_body(body, path)
    ref = tmp_path / "ref.json"
    with open(ref, "w", encoding="utf-8") as fh:
        json.dump(capaf.capfun.body_to_dict(body), fh, indent=1)
        fh.write("\n")
    assert path.read_bytes() == ref.read_bytes()

    seeded = capaf.random_body(g, 4)
    capaf.save_body(seeded, path)
    with open(ref, "w", encoding="utf-8") as fh:
        json.dump(capaf.capfun.body_to_dict(seeded), fh, indent=1)
        fh.write("\n")
    assert path.read_bytes() == ref.read_bytes()
