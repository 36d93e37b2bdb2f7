"""Grid construction, derivatives, quadrature and the boundary defect."""

import itertools
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import capaf
from capaf.capgrid import MAX_NODES, MIN_PHI, MIN_RHO, check_grid, min_eigenvalue, tensor_eigenvalues

from helpers import grid, observed_orders, shape_tensor, tensor_bytes


@pytest.mark.parametrize("theta", [-1.0, 0.0, np.pi, 4.0, np.nan])
def test_build_grid_rejects_bad_angles(theta):
    with pytest.raises(ValueError, match="contact angle"):
        capaf.build_grid(theta, 16, 16)


def test_build_grid_rejects_coarse_and_odd_grids():
    with pytest.raises(ValueError, match="too coarse"):
        capaf.build_grid(1.0, MIN_RHO - 1, 16)
    with pytest.raises(ValueError, match="too coarse"):
        capaf.build_grid(1.0, 16, MIN_PHI - 2)
    with pytest.raises(ValueError, match="even"):
        capaf.build_grid(1.0, 16, 17)


def test_check_grid_refuses_a_grid_too_large_before_building_it():
    # The sizes stay integers: 10**400 has no float, and 8 x 10**11 nodes
    # would take 6 TiB per field.  Nothing of that size is allocated.
    for n_rho, n_phi in ((10**400, 8), (8, 10**11), (MAX_NODES // 8, 8)):
        with pytest.raises(ValueError, match=r"grid too large: need \(n_rho\+1\)\*n_phi"):
            check_grid(1.2, n_rho, n_phi)
    with pytest.raises(ValueError, match="grid too large"):
        capaf.build_grid(1.2, 10**400, 8)
    assert check_grid(1.2, MAX_NODES // 8 - 1, 8) == (1.2, MAX_NODES // 8 - 1, 8)


def test_grid_layout():
    g = grid(1.2, 20, 24)
    assert g.node_shape == (21, 24)
    assert g.boundary_index == 20
    assert g.rho_nodes[-1] == pytest.approx(1.2, abs=0)
    assert g.rho_nodes[0] == pytest.approx(0.5 * g.drho)
    np.testing.assert_allclose(np.diff(g.rho_nodes), g.drho, rtol=1e-12)


def test_check_field_shape_gate():
    g = grid(1.2, 16, 16)
    with pytest.raises(ValueError, match="does not match grid"):
        g.check_field(np.zeros((16, 16)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_check_field_rejects_non_finite_values(bad):
    g = grid(1.2, 16, 16)
    values = np.ones(g.node_shape)
    values[3, 5] = bad
    with pytest.raises(ValueError, match="non-finite"):
        g.check_field(values)


def test_a_of_checks_its_field_once(monkeypatch):
    # a_of validates where the field enters; the derivative engines it calls
    # do not scan it again.
    g = grid(1.2, 16, 16)
    values = capaf.ell_values(g)
    real = capaf.CapGrid.check_field
    calls = []

    def counting(self, v):
        calls.append(1)
        return real(self, v)

    monkeypatch.setattr(capaf.CapGrid, "check_field", counting)
    capaf.a_of(g, values)
    assert len(calls) == 1


def test_a_of_is_byte_identical_across_blas_thread_counts():
    # Radial derivatives are sparse stencil products, so the shape tensor must
    # not depend on how many threads the BLAS library uses.
    script = (
        "import hashlib, capaf\n"
        "g = capaf.build_grid(2.2, 128, 128)\n"
        "f = capaf.random_capillary_field(g, seed=9).values\n"
        "planes = capaf.a_of(g, f)\n"
        "print(hashlib.sha256(b''.join(p.tobytes() for p in planes)).hexdigest())\n"
    )
    src = os.path.dirname(os.path.dirname(capaf.__file__))
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                             capture_output=True, text=True)
        digests.append(out.stdout.strip())
    assert len(digests[0]) == 64
    assert digests[0] == digests[1]


def _spectrum_reports_under_blas_threads(tmp_path, name, argv):
    src = os.path.dirname(os.path.dirname(capaf.__file__))
    reports = []
    for threads in ("1", "2"):
        out = tmp_path / f"{name}_blas{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        subprocess.run([sys.executable, "-m", "capaf", "spectrum", *argv,
                        "--out", str(out)],
                       env=env, check=True, capture_output=True)
        reports.append((out / "spectrum_report.json").read_bytes())
    return reports


def test_spectrum_at_96_is_byte_identical_across_blas_thread_counts(tmp_path):
    # The operator's scale is a numpy pairwise sum, not BLAS nrm2.  The cap
    # is solved one azimuthal mode at a time (banded inertia counts and a
    # small eigh per mode), the random reference by a block eigensolver that
    # reduces over the unknowns only by gemm, numpy sums and sparse
    # products, and both take residuals in numpy sums.  None of these
    # depends on the BLAS thread count.
    for name, argv in [
        ("random", ("--theta", "2.2", "--grid", "96x96", "--reference", "random")),
        ("cap", ("--theta", "1.57", "--grid", "96x96")),
    ]:
        reports = _spectrum_reports_under_blas_threads(tmp_path, name, argv)
        assert reports[0] == reports[1], name


def test_random_spectrum_at_128_is_byte_identical_across_blas_thread_counts(tmp_path):
    # At 16384 unknowns a BLAS dot product of two of them already differs in
    # its last digits between one and two threads; the block eigensolver's
    # residuals are numpy sums, so they keep their bytes.
    reports = _spectrum_reports_under_blas_threads(
        tmp_path, "random",
        ("--theta", "1.2", "--grid", "128x128", "--reference", "random"))
    assert b'"breach": false' in reports[0]
    assert reports[0] == reports[1]


@pytest.mark.parametrize("theta", ["1.2", "1.57"])
def test_cap_spectrum_at_128_is_byte_identical_across_blas_thread_counts(tmp_path, theta):
    # Each mode's eigh works on a 128 x 128 matrix, and every reduction over
    # the 16384 unknowns is a numpy sum or a sparse product.
    reports = _spectrum_reports_under_blas_threads(
        tmp_path, "cap", ("--theta", theta, "--grid", "128x128"))
    assert b'"breach": false' in reports[0]
    assert reports[0] == reports[1]


def test_azimuthal_mode_solve_is_byte_identical_across_blas_thread_counts():
    # The counts' own banded LDL^H, swept in numpy over all modes at once, not
    # a dense inverse: a dense per-mode inverse changes its output bytes with
    # the BLAS thread count at this size.
    script = (
        "import hashlib, numpy as np, capaf\n"
        "from capaf import spectral\n"
        "g = capaf.build_grid(1.57, 128, 128)\n"
        "space = capaf.WeightedSpace(g, capaf.ell(g))\n"
        "pencil = capaf.assemble_operator(space)\n"
        "modes = spectral._ModePencil(pencil)\n"
        "solve, _ = modes.solver(1.5)\n"
        "x = np.random.default_rng(11).standard_normal(pencil.A.shape[0])\n"
        "print(hashlib.sha256(solve(x).tobytes()).hexdigest())\n"
    )
    src = os.path.dirname(os.path.dirname(capaf.__file__))
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                             capture_output=True, text=True)
        digests.append(out.stdout.strip())
    assert len(digests[0]) == 64
    assert digests[0] == digests[1]


def test_report_bundle_is_byte_identical_across_blas_thread_counts(tmp_path):
    # The whole bundle, spectrum section included, must not depend on how many
    # threads the BLAS library uses: every report, CSV, body and mesh it writes.
    # Only the .meta.json sidecars hold timings, and may differ.
    src = os.path.dirname(os.path.dirname(capaf.__file__))
    written = []
    for threads in ("1", "2"):
        out = tmp_path / f"blas{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        subprocess.run([sys.executable, "-m", "capaf", "report", "--theta", "1.2",
                        "--grid", "48x64", "--trials", "1", "--csv", "--out", str(out)],
                       env=env, check=True, capture_output=True)
        written.append({p.relative_to(out).as_posix(): p.read_bytes()
                        for p in sorted(out.rglob("*"))
                        if p.is_file() and not p.name.endswith(".meta.json")})
    assert {"spectrum_report.json", "spectrum_report.csv", "patch.obj",
            "bodies/body_0000.json"} <= set(written[0])
    assert len(written[0]) == 16
    assert written[0] == written[1]


@pytest.mark.parametrize("theta", [0.5, np.pi / 2, 2.2])
def test_quadrature_matches_cap_area(theta):
    # integral of 1 over the cap is the geodesic-ball area 2 pi (1 - cos theta)
    g = grid(theta, 48, 48)
    area = g.integrate(np.ones(g.node_shape))
    assert area == pytest.approx(2.0 * np.pi * (1.0 - np.cos(theta)), rel=1e-10)


def test_quadrature_weights_positive():
    g = grid(2.9, 16, 16)
    assert np.all(g.quad_weights > 0)


def test_integral_of_smooth_function_converges_fast():
    theta = 1.1
    ref = None
    errs = []
    for n in (16, 32, 64):
        g = grid(theta, n, n)
        rho = g.rho_nodes[:, None]
        f = np.cos(3.0 * rho) * (1.0 + 0.3 * np.cos(2.0 * g.phi_nodes)[None, :])
        val = g.integrate(f)
        if ref is None:
            # phi average kills the m=2 part; radial part has a closed form
            from scipy.integrate import quad
            ref = 2 * np.pi * quad(lambda r: np.cos(3 * r) * np.sin(r), 0, theta)[0]
        errs.append(abs(val - ref))
    ooa = observed_orders(errs)
    assert min(ooa) > 5.0


def test_d_phi_is_spectrally_exact():
    g = grid(1.3, 16, 32)
    f = np.cos(3.0 * g.phi_nodes)[None, :] * np.ones((g.n_rho + 1, 1))
    ref = -3.0 * np.sin(3.0 * g.phi_nodes)[None, :] * np.ones((g.n_rho + 1, 1))
    np.testing.assert_allclose(g.d_phi(f, 1), ref, atol=1e-11)
    np.testing.assert_allclose(g.d_phi(f, 2), -9.0 * f, atol=1e-10)


def packed_shape_tensor(g, f):
    """The shape tensor packed as (..., 2, 2), as a_of once returned it, built
    from one transform per azimuthal derivative."""
    f_r, f_rr = g.d_rho(f, 1), g.d_rho(f, 2)
    f_p, f_pp = g.d_phi(f, 1), g.d_phi(f, 2)
    sin, cot = g.sin_rho[:, None], g.cot_rho[:, None]
    packed = np.empty(g.node_shape + (2, 2))
    packed[..., 0, 0] = f_rr + f
    packed[..., 0, 1] = packed[..., 1, 0] = (g.d_rho(f_p, 1) - cot * f_p) / sin
    packed[..., 1, 1] = f_pp / sin**2 + cot * f_r + f
    return packed


def test_a_of_takes_one_azimuthal_transform_and_equals_the_two_transform_form(
        monkeypatch):
    g = grid(2.2, 64, 64)
    f = capaf.random_capillary_field(g, seed=9).values
    two = packed_shape_tensor(g, f)

    rfft = np.fft.rfft
    calls = []

    def counting_rfft(*args, **kwargs):
        calls.append(args)
        return rfft(*args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", counting_rfft)
    A = capaf.a_of(g, f)
    assert len(calls) == 1
    assert tensor_bytes(A) == tensor_bytes(shape_tensor(two))


@pytest.mark.parametrize("theta, n_rho, n_phi", [(2.2, 64, 64), (0.3, 24, 40), (1.2, 8, 8)])
def test_a_of_returns_three_contiguous_planes(theta, n_rho, n_phi):
    g = grid(theta, n_rho, n_phi)
    f = capaf.random_capillary_field(g, seed=9).values
    A = capaf.a_of(g, f)
    assert type(A) is capaf.ShapeTensor and A._fields == ("rr", "rp", "pp")
    for plane in A:
        assert plane.shape == g.node_shape and plane.dtype == np.float64
        assert plane.flags.c_contiguous and plane.flags.writeable
        assert not np.shares_memory(plane, f)
    assert not any(np.shares_memory(a, b) for a, b in ((A.rr, A.rp), (A.rr, A.pp), (A.rp, A.pp)))
    assert tensor_bytes(A) == tensor_bytes(shape_tensor(packed_shape_tensor(g, f)))


# Peak traced allocation of one a_of call at 128x128, in node-shaped planes.
# At most four arrays are alive at once: the azimuthal transform's spectrum,
# its product and two derivatives, or at the end the three planes and f_p.
# Measured 4.51; the packed (..., 2, 2) output read 11.5, and an off-diagonal
# computed out of place (one full-grid temporary more at the end) 6.5.
A_OF_PEAK_PLANES = 5.0


def test_a_of_allocates_no_packed_tensor_or_extra_full_grid_temporary():
    g = capaf.build_grid(2.2, 128, 128)
    f = capaf.random_capillary_field(g, seed=9).values
    capaf.a_of(g, f)  # grid-lifetime tables are not the call's allocations
    tracemalloc.start()
    try:
        A = capaf.a_of(g, f)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(plane.nbytes for plane in A) == 3 * f.nbytes
    assert peak <= A_OF_PEAK_PLANES * f.nbytes, peak / f.nbytes


@pytest.mark.parametrize("m", [0, 1, 2])
def test_d_rho_converges_at_fourth_order_across_the_pole(m):
    # sin(rho)^m cos(m phi) profiles are smooth through rho=0, which exercises
    # the mirrored stencil rows for both azimuthal parities.
    theta = 1.4
    errs = []
    for n in (16, 32, 64):
        g = grid(theta, n, n)
        rho = g.rho_nodes[:, None]
        prof = np.sin(rho) ** m * np.cos(rho)
        dprof = (m * np.sin(rho) ** max(m - 1, 0) * np.cos(rho) ** 2
                 - np.sin(rho) ** (m + 1)) if m else -np.sin(rho)
        f = prof * np.cos(m * g.phi_nodes)[None, :]
        ref = dprof * np.cos(m * g.phi_nodes)[None, :]
        errs.append(float(np.max(np.abs(g.d_rho(f, 1) - ref))))
    ooa = observed_orders(errs)
    assert min(ooa) > 3.5


def test_hessian_of_the_cap_support_is_the_metric():
    # A[ell] = Hess(ell) + ell*Id equals the identity at every node.
    errs = []
    for n in (16, 32, 64):
        g = grid(1.1, n, n)
        A = capaf.a_of(g, capaf.ell_values(g))
        dev = (A.rr - 1.0, A.rp, A.pp - 1.0)
        errs.append(max(float(np.max(np.abs(plane))) for plane in dev))
    assert errs[-1] < 2e-7
    assert min(observed_orders(errs)) > 3.5


@pytest.mark.parametrize("theta", [0.3, 1.2, 2.2, 3.0])
def test_tensor_eigenvalues_agree_with_the_hypot_radius_to_one_ulp(theta):
    # The radius is the square root of squares, np.hypot only where those
    # overflow.  With a zero mean the larger eigenvalue is the radius itself.
    g = grid(theta, 32, 32)
    for seed, amplitude in itertools.product(range(4), (0.25, 2.0)):
        T = capaf.random_body(g, seed, amplitude=amplitude).tensor
        half = 0.5 * (T.rr - T.pp)
        lo, hi = tensor_eigenvalues(capaf.ShapeTensor(half, T.rp, -half))
        ref = np.hypot(half, T.rp)
        assert np.all(np.abs(hi - ref) <= np.spacing(ref))
        assert np.array_equal(lo, -hi)


def test_tensor_eigenvalues_stay_finite_where_the_squares_overflow():
    g = grid(1.2, 16, 16)
    unit = capaf.ell(g).tensor
    T = capaf.ShapeTensor._make(1e200 * plane for plane in unit)
    with np.errstate(over="ignore"):
        overflowed = np.isinf((0.5 * (T.rr - T.pp)) ** 2 + T.rp ** 2)
    assert overflowed.any()
    lo, hi = tensor_eigenvalues(T)
    assert np.isfinite(lo).all() and np.isfinite(hi).all()
    for scaled, plain in zip((lo, hi), tensor_eigenvalues(unit)):
        np.testing.assert_allclose(scaled, 1e200 * plain, rtol=1e-14)


@pytest.mark.parametrize("scale", [1.0, 1e200, 1e300])
def test_min_eigenvalue_is_the_least_of_tensor_eigenvalues_bit_for_bit(scale):
    # 1e200 and 1e300 overflow the squares and take the np.hypot fallback.
    for theta, n in ((0.3, 16), (1.2, 32), (2.2, 24), (3.0, 16)):
        g = grid(theta, n, n)
        for seed in range(3):
            T = capaf.ShapeTensor._make(
                scale * plane for plane in capaf.random_body(g, seed, amplitude=2.0).tensor)
            expected = float(np.min(tensor_eigenvalues(T)[0]))
            assert np.isfinite(expected)
            assert np.float64(min_eigenvalue(T)).tobytes() == np.float64(expected).tobytes()


def test_horizontal_linears_annihilate_the_shape_tensor():
    errs = []
    for n in (32, 64, 128):
        g = grid(2.2, n, n)
        lin = capaf.horizontal_linear(g, (0.7, -0.4))
        errs.append(float(np.max(np.abs(capaf.a_of(g, lin.values)))))
    assert errs[-1] < 5e-7
    for e1, e2 in zip(errs, errs[1:]):
        ooa = np.log2(e1 / e2)
        assert ooa > 2.5


def test_robin_residual_vanishes_for_the_cap_support():
    for theta in (0.7, 2.4):
        errs = []
        for n in (32, 64, 128):
            g = grid(theta, n, n)
            res = capaf.robin_residual(g, capaf.ell_values(g))
            errs.append(float(np.max(np.abs(res))))
        assert errs[-1] < 1e-9
        for e1, e2 in zip(errs, errs[1:]):
            ooa = np.log2(e1 / e2)
            assert ooa > 4.0


def test_robin_residual_detects_incompatible_fields():
    g = grid(1.0, 16, 16)
    res = capaf.robin_residual(g, np.ones(g.node_shape))
    # constant field: derivative 0, so the defect is exactly -cot(theta)
    np.testing.assert_allclose(res, -g.cot_theta, atol=1e-12)


def test_surface_gradient_components():
    g = grid(1.2, 32, 32)
    rho = g.rho_nodes[:, None]
    f = np.sin(rho) * np.cos(g.phi_nodes)[None, :]
    grad = capaf.surface_gradient(g, f)
    ref_r = np.cos(rho) * np.cos(g.phi_nodes)[None, :]
    ref_p = -np.sin(g.phi_nodes)[None, :] * np.ones_like(rho)
    assert float(np.max(np.abs(grad[..., 0] - ref_r))) < 1e-6
    assert float(np.max(np.abs(grad[..., 1] - ref_p))) < 1e-6
