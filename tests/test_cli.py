"""Command line driver: parsing, exit codes, determinism, report bundles."""

import json
import os
from dataclasses import replace

import numpy as np
import pytest

import capaf
from capaf import cli


def run(argv):
    return cli.main([str(a) for a in argv])


def read_report(out_dir, name):
    with open(os.path.join(out_dir, name)) as fh:
        return json.load(fh)


def gates(report):
    """A report's gate records by name."""
    return {gate["name"]: gate for gate in report["gates"]}


def test_parse_grid_accepts_the_common_spellings():
    assert cli.parse_grid("32x48") == (32, 48)
    assert cli.parse_grid("32X48") == (32, 48)
    assert cli.parse_grid("32×48") == (32, 48)
    assert cli.parse_grid(" 32 x 48 ") == (32, 48)
    for bad in ("32", "32x", "x48", "ax b", "32x48x2"):
        with pytest.raises(cli.ConfigError, match="grid"):
            cli.parse_grid(bad)


def test_write_report_strips_numpy_types(tmp_path):
    payload = {
        "a": np.float64(1.5),
        "b": np.int32(2),
        "c": np.arange(3),
        "d": [np.bool_(True), (np.float32(0.5),)],
    }
    cli.write_report(tmp_path, "x_report", payload, None, False)
    assert read_report(tmp_path, "x_report.json") == {"a": 1.5, "b": 2, "c": [0, 1, 2],
                                                      "d": [True, [0.5]]}


def test_trial_seeds_are_distinct_per_index():
    seeds = {cli.trial_seed(7, i) for i in range(1000)}
    assert len(seeds) == 1000


def bounds(profile, n_rho):
    return {name: b.at(profile, n_rho) for name, b in cli.BOUNDS.items()}


def test_grid_anchored_tolerances():
    anchored = bounds("default", 128)
    coarse = bounds("default", 32)
    strict = bounds("strict", 16)
    assert anchored["quermass"] == pytest.approx(1e-6)
    assert coarse["quermass"] > 100 * anchored["quermass"]
    assert strict["quermass"] == 1e-6
    assert strict["af"] == 1e-8
    assert coarse["af"] > strict["af"]


def tolerances_before_the_bound_table(profile, n_rho):
    """The bounds as the per-command tolerances, module constants and inline
    literals gave them before BOUNDS held them all."""
    if profile == "strict":
        quad = cubic = af_quad = 1.0
    else:
        ratio = max(1.0, (128 + 0.5) / (n_rho + 0.5))
        quad = ratio**4
        cubic = ratio**2
        af_quad = max(1.0, (256 + 0.5) / (n_rho + 0.5)) ** 4
    return {"quermass": 1e-6 * quad, "identity": 1e-5 * quad, "af": 1e-8 * af_quad,
            "volume": 1e-3 * cubic, "lambda1": 1e-3, "kernel_cos": 1e-6 * quad,
            "residual": 1e-8, "contact": 1e-12, "cap_equality": 1e-12,
            "decomposition": 1e-6, "interior": 0.0, "lambda1_gap": 0.9, "kernel_count": 2}


@pytest.mark.parametrize("profile", ["default", "strict"])
def test_the_bound_table_reproduces_the_earlier_tolerances(profile):
    for n_rho in range(8, 513):
        old = tolerances_before_the_bound_table(profile, n_rho)
        new = bounds(profile, n_rho)
        assert {name: new[name] for name in old} == old, n_rho


def test_config_errors_exit_three(tmp_path, capsys, monkeypatch):
    assert run(["af", "--theta", "4.0", "--out", tmp_path]) == 3
    assert run(["af", "--grid", "4x4", "--out", tmp_path]) == 3
    assert run(["af", "--grid", "notagrid", "--out", tmp_path]) == 3
    assert run(["quermass", "--out", tmp_path, str(tmp_path / "missing.json")]) == 3
    assert run(["quermass", "--out", tmp_path]) == 3
    assert run(["spectrum", "--sweep", "16", "--out", tmp_path]) == 3
    assert run(["spectrum", "--grid", "16x16", "--how-many", "0", "--out", tmp_path]) == 3
    assert run(["spectrum", "--grid", "16x16", "--how-many", "-5", "--out", tmp_path]) == 3
    assert run(["reconstruct", "--out", tmp_path, "a.json", "b.json"]) == 3
    assert run(["af", "--json", "--out", tmp_path]) == 3
    assert run(["nosuchcommand"]) == 3
    assert run([]) == 3
    # Non-finite numbers are rejected while parsing, before any field is
    # built, by a message that names the option.
    for option, argv in [
        ("--amplitude", ["gen", "--amplitude", "nan"]),
        ("--base-radius", ["gen", "--base-radius", "inf"]),
        ("--base-radius", ["gen", "--base-radius", "-inf"]),
        ("--t-samples", ["steiner", "--t-samples", "nan,0.4,0.8,1.2"]),
        ("--t-samples", ["steiner", "--t-samples", "0.1,0.4,0.8,inf"]),
        ("--t-samples", ["steiner", "--t-samples", "0.1,0.4,x,1.2"]),
    ]:
        capsys.readouterr()
        assert run([*argv, "--grid", "16x16", "--out", tmp_path / "finite"]) == 3
        assert f"argument {option}: " in capsys.readouterr().err
    assert not (tmp_path / "finite").exists()
    # A thread count below one is refused, not silently run on one thread,
    # by a message that names the variable; report refuses it before any
    # section writes.
    for threads in ("0", "-3"):
        monkeypatch.setenv("CAPAF_THREADS", threads)
        for command in ("af", "chain", "report"):
            capsys.readouterr()
            assert run([command, "--grid", "16x16", "--trials", "2",
                        "--out", tmp_path / "threads"]) == 3
            assert "CAPAF_THREADS" in capsys.readouterr().err
    assert not (tmp_path / "threads").exists()


@pytest.mark.parametrize("command", ["af", "chain", "report"])
def test_zero_trials_is_a_config_error(tmp_path, command):
    assert run([command, "--grid", "16x16", "--trials", "0", "--out", tmp_path]) == 3
    assert not list(tmp_path.rglob("*_report.json"))


def test_reports_refuse_non_finite_values(tmp_path):
    with pytest.raises(RuntimeError, match="non-finite"):
        cli.write_report(tmp_path, "x_report", {"gap": float("inf")}, None, False)
    assert not (tmp_path / "x_report.json").exists()


def test_generation_failure_exits_four(tmp_path, monkeypatch):
    # no amplitude halving allowed: a rough body cannot be certified convex
    monkeypatch.setattr(capaf.capfun, "MAX_HALVINGS", 0)
    assert run(["gen", "--grid", "16x16", "--amplitude", "50",
                "--out", tmp_path]) == cli.EXIT_NUMERIC == 4


def test_help_exits_zero():
    assert run(["--help"]) == 0
    assert run(["af", "--help"]) == 0


def test_gen_writes_loadable_bodies(tmp_path):
    assert run(["gen", "--theta", "1.2", "--grid", "16x16", "--count", "3",
                "--seed", "5", "--out", tmp_path]) == 0
    gen = read_report(tmp_path, "gen_report.json")
    assert gen["identity"]
    assert len(gen["files"]) == 3
    g = capaf.build_grid(1.2, 16, 16)
    for name in gen["files"]:
        assert os.sep not in name
        body = capaf.load_body(tmp_path / name, g)
        assert body.min_eig > 0

    flat = tmp_path / "flat"
    assert run(["gen", "--theta", "1.2", "--grid", "16x16", "--count", "1",
                "--amplitude", "0", "--out", flat]) == 0
    name = read_report(flat, "gen_report.json")["files"][0]
    body = capaf.load_body(flat / name, g)
    np.testing.assert_allclose(body.values, capaf.ell_values(g), atol=1e-12)


def test_quermass_runs_on_generated_bodies(tmp_path):
    assert run(["gen", "--theta", "1.2", "--grid", "16x16", "--count", "2",
                "--out", tmp_path]) == 0
    gen = read_report(tmp_path, "gen_report.json")
    files = [tmp_path / name for name in gen["files"]]
    assert run(["quermass", "--theta", "1.2", "--grid", "16x16", "--csv",
                "--out", tmp_path] + files) == 0
    rep = read_report(tmp_path, "quermass_report.json")
    assert rep["breach"] is False
    assert (tmp_path / "quermass_report.csv").exists()
    for entry in rep["reports"]:
        # body references are basenames so the report is location independent
        assert os.sep not in entry["file"]
        assert entry["top_rel_err"] < 1e-4
        assert len(entry["values"]) == 4


def test_af_exit_codes_and_determinism(tmp_path):
    args = ["af", "--theta", "2.2", "--grid", "16x16", "--trials", "6",
            "--seed", "3"]
    d1 = tmp_path / "one"
    d2 = tmp_path / "two"
    assert run(args + ["--out", d1]) == 0
    assert run(args + ["--out", d2]) == 0
    assert ((d1 / "af_report.json").read_bytes()
            == (d2 / "af_report.json").read_bytes())

    rep = read_report(d1, "af_report.json")
    assert rep["breach"] is False
    assert rep["identity"].startswith("quadratic mixed-volume inequality")
    assert len(rep["trials"]) == 6
    assert gates(rep)["min_relative_gap"]["value"] > 0


def test_af_is_thread_count_invariant(tmp_path, monkeypatch):
    args = ["af", "--theta", "1.2", "--grid", "16x16", "--trials", "4"]
    monkeypatch.setenv("CAPAF_THREADS", "1")
    assert run(args + ["--out", tmp_path / "serial"]) == 0
    monkeypatch.setenv("CAPAF_THREADS", "3")
    assert run(args + ["--out", tmp_path / "threaded"]) == 0
    assert ((tmp_path / "serial" / "af_report.json").read_bytes()
            == (tmp_path / "threaded" / "af_report.json").read_bytes())


def test_af_equality_family(tmp_path):
    assert run(["af", "--theta", "1.2", "--grid", "24x24", "--trials", "4",
                "--equality-family", "--out", tmp_path]) == 0
    rep = read_report(tmp_path, "af_report.json")
    assert rep["breach"] is False
    for trial in rep["trials"]:
        assert trial["equality_within_resolution"] is True
        assert trial["decomposition"]["relative_residual"] < 1e-8


def test_spectrum_report_and_sweep(tmp_path):
    args = ["spectrum", "--theta", "1.5", "--grid", "16x16", "--sweep", "12,16,24"]
    assert run(args + ["--csv", "--out", tmp_path]) == 0
    rep = read_report(tmp_path, "spectrum_report.json")
    assert rep["breach"] is False
    assert rep["report"]["lambda1_simple"] is True
    sweep = rep["sweep"]
    assert sweep["sizes"] == [12, 16, 24]
    assert len(sweep["pairs"]) == 3
    assert sweep["observed_order"] > 1.0
    assert (tmp_path / "spectrum_sweep.csv").exists()
    assert (tmp_path / "spectrum_report.csv").exists()
    # Without --csv the report keeps its sweep section and no table is written.
    plain = tmp_path / "plain"
    assert run(args + ["--out", plain]) == 0
    assert sorted(p.name for p in plain.iterdir()) == [
        "spectrum_report.json", "spectrum_report.meta.json"]
    assert read_report(plain, "spectrum_report.json")["sweep"] == sweep


@pytest.mark.parametrize("sweep, message", [
    ("7,16", "grid too coarse"),
    ("16,x", "argument --sweep"),
    ("16", "argument --sweep"),
    ("16,16", "argument --sweep"),
])
def test_a_bad_sweep_exits_three_before_any_solve(tmp_path, monkeypatch, capsys,
                                                  sweep, message):
    def never(space, how_many):
        pytest.fail("a bad sweep reached the eigensolver")

    monkeypatch.setattr(cli, "spectrum", never)
    assert run(["spectrum", "--grid", "64x64", "--sweep", sweep,
                "--out", tmp_path]) == cli.EXIT_CONFIG == 3
    assert message in capsys.readouterr().err
    assert not (tmp_path / "spectrum_report.json").exists()


def test_a_breaching_gap_is_not_reported_simple(tmp_path, monkeypatch):
    # Weak dissipation leaves the lattice-flip mode inside the gap below
    # lambda1: still a gap above 0.5, but short of the one the gate needs.
    monkeypatch.setattr(capaf.spectral, "_DISSIPATION", 0.015)
    assert run(["spectrum", "--theta", "1.2", "--grid", "24x24",
                "--out", tmp_path]) == cli.EXIT_BREACH
    rep = read_report(tmp_path, "spectrum_report.json")["report"]
    assert 0.5 < rep["lambda1_gap"] < capaf.spectral.LAMBDA1_GAP
    assert rep["lambda1_simple"] is False


def test_spectrum_determinism_across_directories(tmp_path):
    args = ["spectrum", "--theta", "1.5", "--grid", "16x16"]
    assert run(args + ["--out", tmp_path / "a"]) == 0
    assert run(args + ["--out", tmp_path / "b"]) == 0
    assert ((tmp_path / "a" / "spectrum_report.json").read_bytes()
            == (tmp_path / "b" / "spectrum_report.json").read_bytes())


def test_timestamps_live_only_in_the_sidecar(tmp_path):
    assert run(["spectrum", "--theta", "1.5", "--grid", "16x16",
                "--out", tmp_path]) == 0
    body = (tmp_path / "spectrum_report.json").read_text()
    assert "written_at" not in body
    meta = read_report(tmp_path, "spectrum_report.meta.json")
    assert "written_at" in meta


def test_spectrum_solver_statistics_live_only_in_the_sidecar(tmp_path):
    # Each solver writes exactly its own statistics.
    keys = {"azimuthal_modes": {"modes", "inertia_shifts", "mode_solves"},
            "block_lobpcg": {"factor_nnz", "n_solves", "iterations", "residual_refreshes"}}
    for reference, solver in [("cap", "azimuthal_modes"),
                              ("random", "block_lobpcg")]:
        out = tmp_path / reference
        assert run(["spectrum", "--theta", "1.5", "--grid", "16x16",
                    "--reference", reference, "--out", out]) == 0
        body = (out / "spectrum_report.json").read_text()
        for key in ("solver", *keys["azimuthal_modes"], *keys["block_lobpcg"]):
            assert f'"{key}"' not in body
        meta = read_report(out, "spectrum_report.meta.json")
        assert set(meta) == {"written_at", "report", "solver", *keys[solver]}
        assert meta["solver"] == solver
    cap = read_report(tmp_path / "cap", "spectrum_report.meta.json")
    # one mode per returned eigenvalue: lambda1 in mode 0, the kernel in mode 1
    assert len(cap["modes"]) == 8
    assert cap["modes"][:3] == [0, 1, 1]
    assert cap["inertia_shifts"] >= 7
    assert 1 <= cap["mode_solves"] <= 9
    lobpcg = read_report(tmp_path / "random", "spectrum_report.meta.json")
    # a 5-row lower band of the 16 trial rings per azimuthal mode 0..8
    assert lobpcg["factor_nnz"] == 9 * 5 * 16
    assert lobpcg["n_solves"] > 0
    # one preconditioned block of k + 2 = 10 columns per iteration but the last
    assert lobpcg["n_solves"] == 10 * lobpcg["iterations"]
    assert lobpcg["residual_refreshes"] == 0


def test_spectrum_labels_the_lattice_flip_with_the_last_mode(tmp_path):
    # At theta 0.3 the odd-even flip of the azimuthal lattice sits at -0.086,
    # in mode m = n_phi/2.
    assert run(["spectrum", "--theta", "0.3", "--grid", "64x64", "--out", tmp_path]) == 0
    eigenvalues = read_report(tmp_path, "spectrum_report.json")["report"]["eigenvalues"]
    modes = read_report(tmp_path, "spectrum_report.meta.json")["modes"]
    flip = [i for i, v in enumerate(eigenvalues) if abs(v + 0.086) < 1e-3]
    assert len(flip) == 1
    assert modes[flip[0]] == 32


def test_an_unconverged_eigensolve_exits_four(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(capaf.spectral, "_BLOCK_MAX_ITER", 1)
    assert run(["spectrum", "--theta", "2.2", "--grid", "16x16",
                "--reference", "random", "--out", tmp_path]) == cli.EXIT_NUMERIC == 4
    err = capsys.readouterr().err
    assert "numerical failure: block eigensolver did not converge in 1 iterations" in err
    assert "worst residual" in err
    assert not (tmp_path / "spectrum_report.json").exists()


CONFIG_PREFIX = "capaf: config error: "
NUMERIC_PREFIX = "capaf: numerical failure: "


@pytest.mark.parametrize("exc, code, prefix", [pytest.param(*case, id=type(case[0]).__name__)
                                                for case in [
    (cli.ConfigError("bad option"), 3, CONFIG_PREFIX),
    (ValueError("bad value"), 3, CONFIG_PREFIX),
    (FileNotFoundError(2, "No such file or directory", "body.json"), 3, CONFIG_PREFIX),
    (IsADirectoryError(21, "Is a directory", "bodies"), 3, CONFIG_PREFIX),
    (RuntimeError("did not converge"), 4, NUMERIC_PREFIX),
    # A ValueError subclass, yet a numerical failure.
    (np.linalg.LinAlgError("Eigenvalues did not converge"), 4, NUMERIC_PREFIX),
]])
def test_main_maps_each_exception_type_to_one_exit_code(tmp_path, monkeypatch, capsys,
                                                        exc, code, prefix):
    def failing(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_steiner", failing)
    assert run(["steiner", "--out", tmp_path]) == code
    assert capsys.readouterr().err == f"{prefix}{exc}\n"


def test_a_failed_eigh_is_a_numerical_failure(tmp_path, monkeypatch, capsys):
    def eigh(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", eigh)
    assert run(["spectrum", "--theta", "2.2", "--grid", "16x16",
                "--reference", "random", "--out", tmp_path]) == cli.EXIT_NUMERIC == 4
    assert capsys.readouterr().err == NUMERIC_PREFIX + "Eigenvalues did not converge\n"
    assert not (tmp_path / "spectrum_report.json").exists()


@pytest.mark.parametrize("argv", [
    ["quermass", "--out", "{dir}/out", "{dir}"],
    ["gen", "--count", "1", "--out", "{file}/sub"],
    ["spectrum", "--out", "{file}"],
], ids=["body-is-a-directory", "out-below-a-file", "out-is-a-file"])
def test_an_unusable_path_is_a_config_error(tmp_path, capsys, argv):
    (tmp_path / "file").write_text("")
    argv = [a.format(dir=tmp_path, file=tmp_path / "file") for a in argv]
    assert run([*argv, "--grid", "16x16"]) == cli.EXIT_CONFIG == 3
    err = capsys.readouterr().err
    assert err.startswith(CONFIG_PREFIX) and err.count("\n") == 1


@pytest.mark.parametrize("command", ["af", "gen", "reconstruct", "report"])
def test_an_out_below_a_file_is_refused_before_any_work(tmp_path, capsys, monkeypatch, command):
    (tmp_path / "file").write_text("")
    built = []

    def build_grid(*args):
        built.append(args)
        raise AssertionError("a grid was built")

    monkeypatch.setattr(cli, "build_grid", build_grid)
    assert run([command, "--theta", "2.2", "--grid", "128x128",
                "--out", tmp_path / "file" / "x"]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(CONFIG_PREFIX) and err.count("\n") == 1
    assert built == []


def test_strict_profile_flags_a_coarse_grid_breach(tmp_path):
    # the kernel-cosine budget of 1e-6 is not attainable on a 16x16 grid
    rc = run(["spectrum", "--theta", "1.5", "--grid", "16x16",
              "--tolerance-profile", "strict", "--out", tmp_path])
    assert rc == 2
    rep = read_report(tmp_path, "spectrum_report.json")
    assert rep["breach"] is True


def test_steiner_and_chain_and_reconstruct_pass(tmp_path):
    assert run(["steiner", "--theta", "1.2", "--grid", "16x16",
                "--out", tmp_path]) == 0
    assert run(["chain", "--theta", "1.2", "--grid", "16x16",
                "--out", tmp_path]) == 0
    assert run(["reconstruct", "--theta", "1.2", "--grid", "16x16",
                "--out", tmp_path]) == 0
    for name in ("steiner", "chain", "reconstruct"):
        rep = read_report(tmp_path, f"{name}_report.json")
        assert rep["breach"] is False, name
    assert (tmp_path / "patch.obj").exists()
    rec = read_report(tmp_path, "reconstruct_report.json")
    assert rec["residuals"]["contact_angle"] <= 1e-12
    assert rec["residuals"]["planarity"] < 1e-10
    assert rec["degenerate_triangles"] == 0


def test_steiner_gates_the_minkowski_identities(tmp_path):
    assert run(["steiner", "--theta", "1.2", "--grid", "32x32",
                "--out", tmp_path]) == 0
    rep = read_report(tmp_path, "steiner_report.json")
    assert set(rep["minkowski_residuals"]) == {"k1", "k2"}
    for k, residual in rep["minkowski_residuals"].items():
        assert 0.0 < residual < gates(rep)[f"minkowski_{k}"]["bound"]


ZERO_BODY = json.dumps({"theta": 1.2, "n_rho": 16, "n_phi": 16,
                        "values": [0.0] * (17 * 16)})


@pytest.mark.parametrize("command", ["quermass", "reconstruct"])
@pytest.mark.parametrize("content, message", [
    ('{"theta": 1.2, "n_rho": 16}', "body is missing n_phi, values"),
    ("[1, 2, 3]", "body must be a JSON object, got list"),
    ("not json", "Expecting value"),
    pytest.param('{"theta": 1.2, "n_rho": 16, "n_phi": 16, "values": {"0": 1.0}}',
                 "body theta, n_rho, n_phi or values is malformed", id="values-object"),
    pytest.param(ZERO_BODY, "certification failed", id="zero-body"),
])
def test_a_malformed_body_file_is_a_config_error(tmp_path, capsys, command,
                                                 content, message):
    path = tmp_path / "bad.json"
    path.write_text(content)
    assert run([command, "--theta", "1.2", "--grid", "16x16",
                "--out", tmp_path, path]) == 3
    err = capsys.readouterr().err
    assert message in err
    assert "bad.json" in err


CHAIN_FLAGS = ["chain", "--theta", "1.2", "--grid", "16x16"]


def test_chain_is_thread_count_invariant(tmp_path, monkeypatch):
    # Each run builds a fresh grid, so the worker threads race to build its
    # tables (the unit cap's tensor, the datum's mode table).
    args = CHAIN_FLAGS + ["--trials", "4"]
    monkeypatch.setenv("CAPAF_THREADS", "1")
    assert run(args + ["--out", tmp_path / "serial"]) == 0
    monkeypatch.setenv("CAPAF_THREADS", "3")
    assert run(args + ["--out", tmp_path / "threaded"]) == 0
    assert ((tmp_path / "serial" / "chain_report.json").read_bytes()
            == (tmp_path / "threaded" / "chain_report.json").read_bytes())


def test_chain_checks_each_body_and_each_consecutive_pair(tmp_path):
    assert run(CHAIN_FLAGS + ["--trials", "3", "--csv", "--out", tmp_path]) == 0
    rep = read_report(tmp_path, "chain_report.json")
    assert len(rep["bodies"]) == 3
    assert len(rep["pairs"]) == 2
    slacks = [r["min_relative_slack"] for r in rep["bodies"] + rep["pairs"]]
    assert gates(rep)["min_relative_slack"]["value"] == min(slacks)
    assert gates(rep)["cap_equality_defect"]["value"] == 0.0
    lines = (tmp_path / "chain_report.csv").read_text().splitlines()
    assert lines[0] == "kind,index,i,j,k,lhs,rhs,slack"
    # four triples (i, j, k) per body and per pair
    assert [line.split(",")[0] for line in lines[1:]] == ["body"] * 12 + ["pair"] * 8


def test_chain_with_one_trial_checks_no_pairs(tmp_path):
    assert run(CHAIN_FLAGS + ["--trials", "1", "--out", tmp_path]) == 0
    rep = read_report(tmp_path, "chain_report.json")
    assert len(rep["bodies"]) == 1
    assert rep["pairs"] == []
    assert rep["breach"] is False


def test_chain_shapes_each_body_and_the_cap_once(tmp_path, monkeypatch):
    # trials 4: random_body shapes each field it passes through
    # enforce_contact_angle once (the grid's cap, each body's datum, each
    # amplitude it tries), and each body keeps the tensor of the amplitude
    # it accepted.  The unit cap keeps the tensor that certified it; together
    # they serve 4 quermass chains and 3 pair chains.  The cap chain shapes
    # the cap once more as its second body.
    calls, enforced = [], []
    real, real_enforce = capaf.capfun.a_of, capaf.capfun.enforce_contact_angle

    def counted(grid, values):
        calls.append(1)
        return real(grid, values)

    def enforce(grid, values):
        enforced.append(1)
        return real_enforce(grid, values)

    monkeypatch.setenv("CAPAF_THREADS", "1")
    monkeypatch.setattr(capaf.capfun, "a_of", counted)
    monkeypatch.setattr(capaf.capfun, "enforce_contact_angle", enforce)
    assert run(CHAIN_FLAGS + ["--trials", "4", "--out", tmp_path]) == 0
    assert len(enforced) >= 4
    assert len(calls) == len(enforced) + 2


def test_reconstruct_embeds_once_and_ignores_the_thread_count(tmp_path, monkeypatch):
    assert run(["gen", "--theta", "1.2", "--grid", "32x32", "--count", "1",
                "--out", tmp_path / "bodies"]) == 0
    body = tmp_path / "bodies" / "body_0000.json"
    gen_meta = read_report(tmp_path / "bodies", "gen_report.meta.json")
    assert gen_meta["body_bytes"] == body.stat().st_size
    assert "body_bytes" not in (tmp_path / "bodies" / "gen_report.json").read_text()

    calls = []

    def counted(module):
        real = module.embed

        def embed(grid, body):
            calls.append(module.__name__)
            return real(grid, body)
        return embed

    for module in (cli, capaf.reconstruct):
        monkeypatch.setattr(module, "embed", counted(module))
    outs = {}
    for threads in ("1", "2"):
        monkeypatch.setenv("CAPAF_THREADS", threads)
        calls.clear()
        out = outs[threads] = tmp_path / f"threads-{threads}"
        assert run(["reconstruct", "--theta", "1.2", "--grid", "32x32", body,
                    "--out", out]) == 0
        assert calls == ["capaf.cli"]
        meta = read_report(out, "reconstruct_report.meta.json")
        assert meta["mesh_bytes"] == (out / "patch.obj").stat().st_size
    for name in ("patch.obj", "reconstruct_report.json"):
        assert (outs["1"] / name).read_bytes() == (outs["2"] / name).read_bytes()
    report = (outs["1"] / "reconstruct_report.json").read_text()
    assert "mesh_bytes" not in report


def test_reconstruct_shapes_the_body_and_the_cap_once(tmp_path, monkeypatch):
    # the loaded body keeps the tensor that certified it for the quadrature
    # volumes and both boundary-form terms; the unit cap is shaped once
    assert run(["gen", "--theta", "1.2", "--grid", "16x16", "--count", "1",
                "--out", tmp_path / "bodies"]) == 0
    calls = []
    real = capaf.capfun.a_of

    def counted(grid, values):
        calls.append(1)
        return real(grid, values)

    monkeypatch.setattr(capaf.capfun, "a_of", counted)
    assert run(["reconstruct", "--theta", "1.2", "--grid", "16x16",
                tmp_path / "bodies" / "body_0000.json", "--out", tmp_path]) == 0
    assert len(calls) == 2


def test_report_bundle_runs_every_section(tmp_path):
    assert run(["report", "--theta", "1.2", "--grid", "16x16",
                "--out", tmp_path]) == 0
    rep = read_report(tmp_path, "summary_report.json")
    assert rep["breach"] is False
    sections = rep["sections"]
    for name in ("quermass", "af", "chain", "spectrum", "steiner",
                 "reconstruct"):
        assert sections[name] == [], name
        assert gates(rep)[name]["passed"] is True, name


def test_report_bundle_is_deterministic(tmp_path):
    args = ["report", "--theta", "1.2", "--grid", "16x16"]
    assert run(args + ["--out", tmp_path / "a"]) == 0
    assert run(args + ["--out", tmp_path / "b"]) == 0
    for name in ("summary", "af", "spectrum", "quermass"):
        assert ((tmp_path / "a" / f"{name}_report.json").read_bytes()
                == (tmp_path / "b" / f"{name}_report.json").read_bytes()), name


# Each bundle section and the standalone command that must reproduce it;
# "@name" is a body file the bundle generated.
SECTIONS = {
    "gen": ["--count", "2"],
    "quermass": ["@body_0000.json", "@body_0001.json"],
    "steiner": [],
    "reconstruct": ["@body_0000.json"],
    "chain": ["--trials", "2"],
    "af": ["--trials", "2"],
    "spectrum": [],
}
BUNDLE_FLAGS = ["--theta", "1.2", "--grid", "16x16"]


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    out = tmp_path_factory.mktemp("bundle")
    assert run(["report", *BUNDLE_FLAGS, "--trials", "2", "--out", out]) == 0
    return out


def section_report(bundle, section):
    name = {"gen": "bodies/gen", "report": "summary"}.get(section, section)
    return bundle / f"{name}_report.json"


@pytest.mark.parametrize("section", list(SECTIONS))
def test_report_sections_equal_their_standalone_commands(bundle, section, tmp_path):
    args = [bundle / "bodies" / a[1:] if a.startswith("@") else a
            for a in SECTIONS[section]]
    assert run([section, *BUNDLE_FLAGS, "--out", tmp_path, *args]) == 0
    assert ((tmp_path / f"{section}_report.json").read_bytes()
            == section_report(bundle, section).read_bytes())


def test_report_configs_list_only_their_command_options(bundle):
    parser = cli.build_parser()
    for section in [*SECTIONS, "report"]:
        config = json.loads(section_report(bundle, section).read_text())["config"]
        assert set(config) == set(vars(parser.parse_args([section]))) - {"func", "out"}
    assert not {"amplitude", "cap", "sweep"} & set(read_report(bundle, "af_report.json")["config"])
    assert "trials" not in read_report(bundle, "quermass_report.json")["config"]
    assert read_report(bundle, "reconstruct_report.json")["config"]["body"] == "body_0000.json"


def spoiled(change):
    """A patch that passes the real function's result through change."""
    return lambda real: lambda *args, **kwargs: change(real(*args, **kwargs))


def minkowski_spoiled(spoiled_k):
    return lambda real: lambda grid, body, k: 1.0 if k == spoiled_k else real(grid, body, k)


def last_replaced(values, value):
    return [*values[:-1], value]


# Each gate, a command line that reaches it, and a patch of the cli function
# whose result carries the gate's value, pushing that value past the bound.
GATE_CASES = [
    ("top_rel_err", ["quermass", "@body_0000.json", "@body_0001.json"], "quermass_report",
     spoiled(lambda r: replace(r, top_rel_err=1.0))),
    ("min_relative_gap", ["af", "--trials", "2"], "af_check",
     spoiled(lambda r: replace(r, relative_gap=-1.0))),
    ("max_relative_gap", ["af", "--trials", "2", "--equality-family"], "af_check",
     spoiled(lambda r: replace(r, relative_gap=1.0))),
    ("undecomposed_trials", ["af", "--trials", "2", "--equality-family"], "af_check",
     spoiled(lambda r: replace(r, decomposition=None))),
    ("decomposition_residual", ["af", "--trials", "2", "--equality-family"], "af_check",
     spoiled(lambda r: replace(r, decomposition=replace(r.decomposition,
                                                        relative_residual=1.0)))),
    ("min_relative_slack", ["chain", "--trials", "2"], "af_chain_check",
     spoiled(lambda r: replace(r, min_relative_slack=-1.0))),
    ("cap_equality_defect", ["chain", "--trials", "2"], "quermass_chain_check",
     spoiled(lambda r: replace(r, triples=[{**t, "relative_slack": 1e-9} for t in r.triples]))),
    ("lambda1_err", ["spectrum"], "spectrum", spoiled(lambda r: replace(r, lambda1=1.5))),
    ("lambda1_gap", ["spectrum"], "spectrum", spoiled(lambda r: replace(r, lambda1_gap=0.5))),
    # The cap's kernel and window gates read its exact counts.
    ("kernel_count", ["spectrum"], "spectrum",
     spoiled(lambda r: replace(r, counts={**r.counts, "kernel": 1}))),
    # With the smallest returned eigenvalue inside (-thr, thr), an unreturned
    # eigenvalue could sit in the kernel band too, so two kernel indices are
    # not a count of the whole spectrum.
    ("smallest_eigenvalue", ["spectrum"], "spectrum",
     spoiled(lambda r: replace(r, eigenvalues=last_replaced(r.eigenvalues,
                                                            -0.5 * r.kernel_threshold)))),
    ("window_empty", ["spectrum"], "spectrum",
     spoiled(lambda r: replace(r, counts={**r.counts, "window": 1}))),
    ("inertia_pivot", ["spectrum"], "spectrum",
     spoiled(lambda r: replace(r, counts={**r.counts, "min_relative_pivot": 0.5 * cli.BOUNDS[
         "inertia_pivot"].budget}))),
    ("max_residual", ["spectrum"], "spectrum",
     spoiled(lambda r: replace(r, residuals=last_replaced(
         r.residuals, 10.0 * cli.BOUNDS["residual"].budget)))),
    ("kernel_cosine", ["spectrum"], "spectrum",
     spoiled(lambda r: replace(r, kernel_cosine=0.5))),
    ("max_rel_err", ["steiner"], "steiner_check", spoiled(lambda r: replace(r, max_rel_err=1.0))),
    ("minkowski_k1", ["steiner"], "minkowski_identity_residual", minkowski_spoiled(1)),
    ("minkowski_k2", ["steiner"], "minkowski_identity_residual", minkowski_spoiled(2)),
    ("contact_angle", ["reconstruct"], "contact_angle_residual", spoiled(lambda v: 1e-9)),
    ("planarity", ["reconstruct"], "planarity_residual", spoiled(lambda v: 1.0)),
    # The bound is strict: a height of exactly zero fails.
    ("interior_min_height", ["reconstruct"], "interior_min_height", spoiled(lambda v: 0.0)),
    ("volume_rel_err", ["reconstruct"], "enclosed_volume", spoiled(lambda v: 2.0 * v)),
    # Doubles the boundary-form V_2 as well, which is reported but not gated.
    ("boundary_form_V_3", ["reconstruct"], "boundary_form_quermass",
     spoiled(lambda v: 2.0 * v)),
    ("reconstruct", ["report", "--trials", "2"], "planarity_residual", spoiled(lambda v: 1.0)),
]


@pytest.mark.parametrize("gate, argv, attribute, patch", [
    pytest.param(*case, id=f"{case[1][0]}-{case[0]}") for case in GATE_CASES])
def test_each_gate_trips_past_its_bound(bundle, tmp_path, monkeypatch, gate, argv, attribute,
                                       patch):
    monkeypatch.setattr(cli, attribute, patch(getattr(cli, attribute)))
    argv = [bundle / "bodies" / a[1:] if a.startswith("@") else a for a in argv]
    assert run([*argv, *BUNDLE_FLAGS, "--out", tmp_path]) == cli.EXIT_BREACH
    rep = json.loads(section_report(tmp_path, argv[0]).read_text())
    assert rep["breach"] is True
    # Each command passes unspoiled, so this gate alone fails.
    assert [g["name"] for g in rep["gates"] if not g["passed"]] == [gate]
    assert gates(rep)[gate]["margin"] <= 0


# The block solver's kernel and window gates read its returned eigenvalues.
@pytest.mark.parametrize("gate, patch", [
    ("kernel_count", spoiled(lambda r: replace(r, kernel_indices=r.kernel_indices[:1]))),
    ("window_empty", spoiled(lambda r: replace(r, window_empty=False))),
], ids=["kernel_count", "window_empty"])
def test_block_solver_gates_trip_past_their_bounds(tmp_path, monkeypatch, gate, patch):
    monkeypatch.setattr(cli, "spectrum", patch(cli.spectrum))
    assert run(["spectrum", "--reference", "random", *BUNDLE_FLAGS,
                "--out", tmp_path]) == cli.EXIT_BREACH
    rep = read_report(tmp_path, "spectrum_report.json")
    assert rep["report"]["counts"] is None
    assert [g["name"] for g in rep["gates"] if not g["passed"]] == [gate]
