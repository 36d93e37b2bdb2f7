"""End-to-end verification gates.

One test per guarantee the package makes.  Each test evaluates its whole
configuration first, prints exactly one PASS/FAIL line with the governing
margin, and only then asserts, so a full run always shows the scoreboard.

Run with `pytest -v -s tests/test_acceptance.py` to see the lines inline.
"""

from __future__ import annotations

import numpy as np

import capaf
from capaf import cli

from helpers import (
    apply,
    bilinear,
    cap_body,
    cap_space,
    grid,
    loglog_slope,
    observed_orders,
    smooth_body,
    smooth_field,
    solid_cap_volume,
    symmetry_residual,
)


def _verdict(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_cap_mixed_volume_matches_the_closed_form():
    # V(ell, ell, ell) against the closed-form wetted volume, five opening
    # angles spanning acute to obtuse, finest standard grid.
    thetas = [np.pi / 6, np.pi / 3, np.pi / 2, 2 * np.pi / 3, 5 * np.pi / 6]
    worst = 0.0
    for theta in thetas:
        g = grid(theta, 128, 128)
        lv = capaf.ell_values(g)
        v = capaf.mixed_volume(g, lv, (lv, lv))
        ref = solid_cap_volume(theta)
        worst = max(worst, abs(v - ref) / ref)
    g = grid(np.pi / 2, 128, 128)
    lv = capaf.ell_values(g)
    hemi = abs(capaf.mixed_volume(g, lv, (lv, lv)) - 2 * np.pi / 3) / (2 * np.pi / 3)
    worst = max(worst, hemi)
    _verdict(
        "cap volume anchor",
        worst <= 1e-6,
        f"worst relative error {worst:.3e} over {len(thetas)} angles (tol 1e-6)",
    )


def test_quermassintegrals_scale_correctly_and_cap_the_top_index():
    # On r * cap every index-j quermassintegral equals r^(3-j) * b_theta, and
    # the top index is the same constant for every admissible body.
    worst_scale = 0.0
    for theta in (np.pi / 3, 2 * np.pi / 3):
        g = grid(theta, 128, 128)
        lv = capaf.ell_values(g)
        b = capaf.b_theta(theta)
        for r in (0.5, 1.0, 2.0):
            for j, q in enumerate(capaf.quermassintegral(g, r * lv)):
                ref = r ** (3 - j) * b
                worst_scale = max(worst_scale, abs(q - ref) / abs(ref))
    g = grid(2 * np.pi / 3, 128, 128)
    b = capaf.b_theta(2 * np.pi / 3)
    worst_top = 0.0
    for i in range(20):
        body = capaf.random_body(g, seed=100 + i)
        q3 = capaf.quermassintegral(g, body)[3]
        worst_top = max(worst_top, abs(q3 - b) / abs(b))
    ok = worst_scale <= 1e-6 and worst_top <= 1e-6
    _verdict(
        "quermassintegral scaling",
        ok,
        f"scaling err {worst_scale:.3e}, top-index err {worst_top:.3e} "
        f"over 20 random bodies (tol 1e-6)",
    )


def test_geometric_identities_converge_at_high_order():
    # Minkowski-type identities, first-slot symmetry, the parallel-body
    # expansion and the reconstruction residuals on an analytic body, grids
    # 32 -> 64 -> 128 at theta = 1.1.  Requires observed order >= 3.5 and a
    # finest-grid error <= 1e-5; the triangulated volume oracle is second
    # order by construction and gets its own 1e-3 budget.
    theta = 1.1
    sizes = (32, 64, 128)
    errs = {"mink1": [], "mink2": [], "symmetry": [], "steiner": [], "planarity": []}
    contact_worst = 0.0
    for n in sizes:
        g = grid(theta, n, n)
        body = smooth_body(theta, n, n)
        errs["mink1"].append(capaf.minkowski_identity_residual(g, body.values, 1))
        errs["mink2"].append(capaf.minkowski_identity_residual(g, body.values, 2))
        errs["symmetry"].append(
            symmetry_residual(
                g, body.values, smooth_field(theta, n, n), capaf.ell_values(g)
            )
        )
        errs["steiner"].append(
            capaf.steiner_check(g, body, [0.5, 1.0, 1.5, 2.0]).max_rel_err
        )
        errs["planarity"].append(
            capaf.planarity_residual(capaf.embed(g, cap_body(theta, n, n)))
        )
        contact_worst = max(
            contact_worst,
            capaf.contact_angle_residual(capaf.embed(g, body)),
        )
    orders = {k: observed_orders(v) for k, v in errs.items()}
    min_order = min(min(o) for o in orders.values())
    worst_final = max(v[-1] for v in errs.values())

    g = grid(theta, 128, 128)
    body = smooth_body(theta, 128, 128)
    v_quad = capaf.mixed_volume(g, body.values, (body.values, body.values))
    v_mesh = capaf.enclosed_volume(capaf.embed(g, body))
    vol_rel = abs(v_mesh - v_quad) / abs(v_quad)

    ok = (
        min_order >= 3.5
        and worst_final <= 1e-5
        and vol_rel <= 1e-3
        and contact_worst <= 1e-12
    )
    _verdict(
        "identity convergence",
        ok,
        f"min order {min_order:.2f} (>=3.5), finest err {worst_final:.3e} (<=1e-5), "
        f"mesh volume {vol_rel:.3e} (<=1e-3), contact {contact_worst:.3e} (<=1e-12)",
    )


def test_quadratic_inequality_holds_and_is_tight_on_the_equality_family():
    # 500 seeded random triples per opening angle must respect the inequality
    # up to quadrature noise; fields of the form a*f1 + linear must close the
    # gap to the same noise floor, and the fitted decomposition must recover
    # them.  Equality trials run on 256^2 because the discrete gap floor
    # shrinks like the fourth power of the spacing.
    thetas = (0.5, np.pi / 2, 2.2, 2.9)
    noise = 1e-8

    min_rel_gap = np.inf
    for theta in thetas:
        g = grid(theta, 32, 32)
        for i in range(500):
            f2 = capaf.random_body(g, seed=3 * i)
            f1 = capaf.random_body(g, seed=3 * i + 1)
            sp = capaf.WeightedSpace(g, f2)
            f = capaf.random_capillary_field(g, seed=3 * i + 2)
            rep = capaf.af_check(sp, f, f1)
            min_rel_gap = min(min_rel_gap, rep.gap / max(abs(rep.rhs), 1e-300))

    worst_eq = 0.0
    worst_res = 0.0
    for k, theta in enumerate(thetas):
        g = grid(theta, 256, 256)
        rng = np.random.default_rng(4000 + k)
        for i in range(25):
            f2 = capaf.random_body(g, seed=5000 + 100 * k + i)
            f1 = capaf.random_body(g, seed=6000 + 100 * k + i)
            sp = capaf.WeightedSpace(g, f2)
            a = rng.uniform(0.5, 2.0)
            b = rng.uniform(-0.5, 0.5, size=2)
            f = a * f1.values + capaf.horizontal_linear(g, b).values
            rep = capaf.af_check(sp, f, f1)
            worst_eq = max(worst_eq, abs(rep.gap) / max(abs(rep.rhs), 1e-300))
            dec = capaf.equality_decompose(sp, f, f1)
            worst_res = max(worst_res, dec.relative_residual)

    ok = min_rel_gap >= -noise and worst_eq <= noise and worst_res <= 1e-6
    _verdict(
        "quadratic inequality",
        ok,
        f"2000 random triples min gap {min_rel_gap:+.3e} (>= -1e-8), "
        f"100 equality trials worst |gap| {worst_eq:.3e} (<= 1e-8), "
        f"decomposition residual {worst_res:.3e} (<= 1e-6)",
    )


def test_chain_inequalities_hold_with_equality_on_caps():
    # Every consecutive-index inequality in both chain reports must have
    # nonnegative slack for random bodies, and caps must sit exactly on the
    # equality case at every opening angle.
    noise = 1e-8
    g = grid(2.2, 32, 32)
    min_slack = np.inf
    for i in range(100):
        body = capaf.random_body(g, seed=7000 + i)
        rep = capaf.quermass_chain_check(g, body)
        min_slack = min(min_slack, rep.min_relative_slack)
        if i % 2 == 0:
            other = capaf.random_body(g, seed=7500 + i)
            rep2 = capaf.af_chain_check(g, body, other)
            min_slack = min(min_slack, rep2.min_relative_slack)

    cap_worst = 0.0
    for theta in (0.5, np.pi / 2, 2.2):
        gt = grid(theta, 32, 32)
        cap = cap_body(theta, 32, 32)
        cap_worst = max(
            cap_worst, abs(capaf.quermass_chain_check(gt, cap).min_relative_slack)
        )
        cap_worst = max(
            cap_worst, abs(capaf.af_chain_check(gt, cap, cap).min_relative_slack)
        )

    ok = min_slack >= -noise and cap_worst <= 1e-12
    _verdict(
        "chain inequalities",
        ok,
        f"100 random bodies min slack {min_slack:+.3e} (>= -1e-8), "
        f"cap slack {cap_worst:.3e} (<= 1e-12)",
    )


def test_spectrum_shows_a_simple_unit_eigenvalue_and_a_two_mode_kernel():
    # Cap reference on the finest grid, the hemisphere cap on 48x64, and ten
    # random references: lambda1 = 1 (tight for the cap), simple with
    # gap >= 0.9, exactly two kernel modes, and nothing inside (0.01, 0.99).
    rep = capaf.spectrum(cap_space(np.pi / 3, 128, 128), how_many=6)
    cap_ok = (
        abs(rep.lambda1 - 1.0) <= 1e-4
        and rep.lambda1_simple
        and rep.lambda1_gap >= 0.9
        and len(rep.kernel_indices) == 2
        and rep.kernel_cosine >= 1.0 - 1e-6
        and rep.window_empty
    )
    cap_err = abs(rep.lambda1 - 1.0)

    mid = capaf.spectrum(cap_space(np.pi / 2, 48, 64), how_many=6)
    mid_ok = (
        abs(mid.lambda1 - 1.0) <= 1e-3
        and mid.lambda1_simple
        and mid.lambda1_gap >= 0.9
        and len(mid.kernel_indices) == 2
        and mid.kernel_cosine >= 1.0 - 1e-6
        and mid.window_empty
    )

    g = grid(2.2, 40, 48)
    rand_ok = True
    worst_rand = 0.0
    for s in range(10):
        body = capaf.random_body(g, seed=500 + s, amplitude=0.2)
        sp = capaf.WeightedSpace(g, body.values)
        r = capaf.spectrum(sp, how_many=6)
        worst_rand = max(worst_rand, abs(r.lambda1 - 1.0))
        rand_ok = rand_ok and (
            abs(r.lambda1 - 1.0) <= 1e-3
            and r.lambda1_simple
            and r.lambda1_gap >= 0.9
            and len(r.kernel_indices) == 2
            and r.window_empty
        )

    ok = cap_ok and mid_ok and rand_ok
    _verdict(
        "spectral dichotomy",
        ok,
        f"cap lambda1 err {cap_err:.3e} (<= 1e-4), 48x64 cap "
        f"{'ok' if mid_ok else 'BAD'}, worst random lambda1 err "
        f"{worst_rand:.3e} (<= 1e-3)",
    )


def test_weighted_operator_is_self_adjoint_and_reproduces_the_mixed_volume():
    # 50 random capillary pairs on 128^2 across two angles and both cap and
    # random references.  Defects are quadrature noise, so they are budgeted
    # against the mass of the integrand actually integrated (the form values
    # can cancel to near zero while the integrand stays order one, and a
    # cancelling denominator would measure normalization, not accuracy).
    spaces = []
    for theta in (1.2, 2.2):
        g = grid(theta, 128, 128)
        spaces.append((g, cap_space(theta, 128, 128)))
        body = capaf.random_body(g, seed=31, amplitude=0.2)
        spaces.append((g, capaf.WeightedSpace(g, body.values)))

    worst_sym = 0.0
    worst_form = 0.0
    for i in range(50):
        g, sp = spaces[i % 4]
        f = capaf.random_capillary_field(g, seed=8000 + i, mode_cap=2).values
        h = capaf.random_capillary_field(g, seed=8500 + i, mode_cap=2).values
        fg = bilinear(sp, f, h)
        gf = bilinear(sp, h, f)
        mass = max(
            sp.inner(np.abs(f), np.abs(apply(sp, h))),
            sp.inner(np.abs(h), np.abs(apply(sp, f))),
        )
        scale = max(abs(fg), abs(gf), mass)
        worst_sym = max(worst_sym, abs(fg - gf) / scale)
        vmix = capaf.mixed_volume(g, f, (h, sp.f2))
        worst_form = max(worst_form, abs(fg - vmix) / scale)

    ok = worst_sym <= 1e-6 and worst_form <= 1e-6
    _verdict(
        "self-adjointness",
        ok,
        f"50 pairs, symmetry defect {worst_sym:.3e}, form consistency "
        f"{worst_form:.3e} (both <= 1e-6)",
    )


def test_inequality_gap_grows_quadratically_off_the_equality_family():
    # Perturbing an equality configuration by eps times a fixed admissible
    # profile must open the gap like eps^2: log-log slope 2.0 +- 0.2 over
    # eps in {1e-1, 1e-2, 1e-3}.
    eps = np.array([1e-1, 1e-2, 1e-3])
    slopes = []
    for theta, s2, s1 in ((1.9, 11, 12), (0.9, 21, 22)):
        g = grid(theta, 64, 64)
        rho = g.rho_nodes[:, None]
        phi = g.phi_nodes[None, :]
        f2 = capaf.random_body(g, seed=s2)
        f1 = capaf.random_body(g, seed=s1)
        sp = capaf.WeightedSpace(g, f2.values)
        q = capaf.ell_values(g) * np.cos(np.pi * rho / g.theta) * np.cos(2.0 * phi)
        q = capaf.enforce_contact_angle(g, q)
        gaps = []
        for e in eps:
            rep = capaf.af_check(sp, f1.values + e * q, f1.values)
            gaps.append(abs(rep.gap) / max(abs(rep.rhs), 1e-300))
        slopes.append(loglog_slope(eps, gaps))

    ok = all(abs(s - 2.0) <= 0.2 for s in slopes)
    _verdict(
        "gap degeneracy order",
        ok,
        f"slopes {[f'{s:.3f}' for s in slopes]} (target 2.0 +- 0.2)",
    )


def test_reports_are_byte_identical_across_reruns(tmp_path):
    # The full report bundle, run twice into fresh directories, must produce
    # byte-identical JSON for every section.
    args = ["report", "--theta", "1.2", "--grid", "16x16"]
    rc_a = cli.main([str(a) for a in args + ["--out", tmp_path / "a"]])
    rc_b = cli.main([str(a) for a in args + ["--out", tmp_path / "b"]])
    names = ("summary", "quermass", "af", "chain", "spectrum", "steiner",
             "reconstruct")
    identical = all(
        (tmp_path / "a" / f"{n}_report.json").read_bytes()
        == (tmp_path / "b" / f"{n}_report.json").read_bytes()
        for n in names
    )
    ok = rc_a == 0 and rc_b == 0 and identical
    _verdict(
        "report determinism",
        ok,
        f"exit codes ({rc_a}, {rc_b}), {len(names)} sections "
        f"{'byte-identical' if identical else 'DIFFER'}",
    )
