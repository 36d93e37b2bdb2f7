"""Batch command-line driver: generate bodies, verify identities, emit reports.

Reports are deterministic for a fixed configuration: the JSON body contains
only config, values and verdicts, while wall-clock metadata goes to a separate
.meta.json sidecar so repeated runs stay byte-identical; no NaN or infinity
reaches a report.  Exit codes: 0 all checks passed, 2 a tolerance was breached
(the report is still written), 3 the configuration was invalid (a bad option,
a grid or body that does not validate, or a path that cannot be read or
written), 4 a numerical failure (no convex body within the amplitude halvings,
a non-finite result, or a linear-algebra routine that failed).  ``main`` alone
maps an exception to its code, by type, with one message prefix per code.

Each subparser is the only definition of its command's options and defaults,
and a report's config block lists exactly those options.  ``report`` runs each
section by parsing the section's own command line with the same parser, so
every bundle section is the standalone command run with the bundle's flags.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .capgrid import CapGrid, build_grid
from .capfun import (
    ell,
    horizontal_linear,
    load_body,
    random_body,
    random_capillary_field,
    save_body,
)
from .mixedvol import (
    minkowski_identity_residual,
    quermass_report,
    quermassintegral,
    steiner_check,
)
from .reconstruct import (
    boundary_form_quermass,
    contact_angle_residual,
    embed,
    enclosed_volume,
    export_mesh,
    interior_min_height,
    planarity_residual,
)
from .spectral import (
    WeightedSpace,
    af_chain_check,
    af_check,
    quermass_chain_check,
    spectrum,
)

EXIT_OK = 0
EXIT_BREACH = 2
EXIT_CONFIG = 3
EXIT_NUMERIC = 4

# Reference spacing for grid-anchored tolerances: the documented accuracy
# statements hold on the 128x128 grid and degrade with the scheme order when
# the grid is coarser.
ANCHOR_RHO = 128
# The equality-family gap floor shrinks with the fourth power of the spacing
# and clears 1e-8 only around 256 radial nodes, so its budget is anchored there.
AF_ANCHOR_RHO = 256
# Largest eigenpair residual a spectrum may report.  The block eigensolver
# for references that are not rotationally invariant iterates until every
# residual is below 1e-9 and raises if it never gets there; this gate catches
# an iteration that stopped short of that, should its stopping rule be
# loosened or broken.  The cap's shift-invert solves measure 2.2e-12 to
# 3.9e-12 at 64x64 and 1.3e-11 to 3.2e-11 at 128x128 (theta 0.3 to 3.0);
# random references stop between 1e-10 and 1e-9.
SPECTRUM_RESIDUAL_GATE = 1e-8


# An ArgumentTypeError, so that a parse_grid or positive_int failure inside
# argparse becomes a usage error (exit 3) with this message.
class ConfigError(argparse.ArgumentTypeError):
    pass


@dataclass
class Tolerances:
    quermass: float
    identity: float
    af: float
    volume: float
    lambda1: float
    kernel_cos: float


def make_tolerances(profile: str, n_rho: int) -> Tolerances:
    if profile == "strict":
        quad = cubic = af_quad = 1.0
    else:
        ratio = max(1.0, (ANCHOR_RHO + 0.5) / (n_rho + 0.5))
        quad = ratio**4
        cubic = ratio**2
        af_quad = max(1.0, (AF_ANCHOR_RHO + 0.5) / (n_rho + 0.5)) ** 4
    return Tolerances(
        quermass=1e-6 * quad,
        identity=1e-5 * quad,
        af=1e-8 * af_quad,
        volume=1e-3 * cubic,
        lambda1=1e-3,
        kernel_cos=1e-6 * quad,
    )


def parse_grid(text: str) -> tuple[int, int]:
    parts = text.lower().replace("×", "x").split("x")
    if len(parts) != 2:
        raise ConfigError(f"grid must look like 64x64, got {text!r}")
    try:
        n_rho, n_phi = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise ConfigError(f"grid must hold two integers, got {text!r}") from exc
    return n_rho, n_phi


def finite_float(text: str) -> float:
    """argparse type for real options: nan or inf is a usage error before any work."""
    x = float(text)
    if not math.isfinite(x):
        raise ConfigError(f"must be a finite number, got {text!r}")
    return x


def finite_floats(text: str) -> str:
    """argparse type for a comma list of finite reals; keeps the text as given."""
    for part in text.split(","):
        finite_float(part)
    return text


def sweep_sizes(text: str) -> list[int]:
    """The distinct square grid sizes of a --sweep list, ascending; none for ''."""
    return sorted({int(part) for part in text.split(",")}) if text else []


def sweep_list(text: str) -> str:
    """argparse type for --sweep: empty, or at least two distinct integer
    sizes; keeps the text as given."""
    if text and len(sweep_sizes(text)) < 2:
        raise ConfigError(f"needs at least two distinct grid sizes, got {text!r}")
    return text


def positive_int(text: str) -> int:
    """argparse type for counts: a 0 is a usage error before any work."""
    n = int(text)
    if n < 1:
        raise ConfigError(f"must be a positive integer, got {n}")
    return n


def thread_count() -> int:
    raw = os.environ.get("CAPAF_THREADS", "1")
    try:
        n = int(raw)
    except ValueError as exc:
        raise ConfigError(f"CAPAF_THREADS must be an integer, got {raw!r}") from exc
    if n < 1:
        raise ConfigError(f"CAPAF_THREADS must be a positive integer, got {n}")
    return n


def run_indexed(count: int, fn, threads: int) -> list:
    """Evaluate fn(0..count-1) and merge in index order regardless of workers."""
    if threads <= 1 or count <= 1:
        return [fn(i) for i in range(count)]
    with ThreadPoolExecutor(max_workers=min(threads, count)) as pool:
        return list(pool.map(fn, range(count)))


def trial_seed(base: int, index: int) -> int:
    return (base * 1_000_003 + index) % (2**63)


# -- report plumbing -----------------------------------------------------------

def config_dict(args: argparse.Namespace) -> dict:
    """Configuration block embedded in every report.

    Output-location fields are stripped and body files are reduced to their
    basenames, so two runs with the same science flags give byte-identical
    reports no matter where they write.
    """
    keep = {}
    for key, value in sorted(vars(args).items()):
        if key in ("func", "out"):
            continue
        if key == "bodies":
            value = [Path(p).name for p in value]
        elif key == "body" and value is not None:
            value = Path(value).name
        keep[key] = value
    return keep


def _numpy_to_json(value):
    """json.dumps default hook: numpy scalars and arrays as Python values."""
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def write_report(out_dir: Path, name: str, payload: dict, csv_text: str | None,
                 want_csv: bool, meta: dict | None = None) -> Path:
    """Write name.json, its .meta.json sidecar and optionally name.csv.

    meta holds run statistics (solver counts and the like); they go into the
    sidecar next to the timestamp, never into the report.  out_dir must exist
    (see run_command).
    """
    path = out_dir / f"{name}.json"
    try:
        text = json.dumps(payload, indent=1, sort_keys=True, allow_nan=False,
                          default=_numpy_to_json)
    except ValueError as exc:
        raise RuntimeError(f"{name}: non-finite value in the report") from exc
    path.write_text(text + "\n", encoding="utf-8")
    sidecar = {
        "written_at": datetime.now(timezone.utc).isoformat(),
        "report": path.name,
        **(meta or {}),
    }
    (out_dir / f"{name}.meta.json").write_text(
        json.dumps(sidecar, indent=1, default=_numpy_to_json) + "\n", encoding="utf-8")
    if want_csv and csv_text is not None:
        (out_dir / f"{name}.csv").write_text(csv_text, encoding="utf-8")
    return path


def csv_table(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
    return buf.getvalue()


def setup(args) -> tuple[CapGrid, Tolerances]:
    """The command's grid and its grid-anchored tolerances."""
    grid = build_grid(args.theta, *args.grid)
    return grid, make_tolerances(args.tolerance_profile, grid.n_rho)


def emit(args, name: str, payload: dict, table: str | None = None,
         meta: dict | None = None) -> Path:
    """Write report name under --out, headed by the command's config block.

    table is the CSV text, written when --csv is given.
    """
    return write_report(Path(args.out), name, {"config": config_dict(args), **payload},
                        table, args.csv, meta)


# -- subcommands -----------------------------------------------------------------

def cmd_gen(args) -> bool:
    grid, _ = setup(args)
    out = Path(args.out)
    files = []
    body_bytes = 0
    for i in range(args.count):
        body = random_body(
            grid,
            seed=trial_seed(args.seed, i),
            base_radius=args.base_radius,
            amplitude=args.amplitude,
        )
        path = out / f"body_{i:04d}.json"
        save_body(body, path)
        files.append(path.name)
        body_bytes += path.stat().st_size
    emit(args, "gen_report",
         {"identity": "seeded generation of certified convex support functions",
          "files": files},
         meta={"body_bytes": body_bytes})
    return False


def cmd_quermass(args) -> bool:
    grid, tol = setup(args)
    if not args.bodies:
        raise ConfigError("quermass needs at least one body file")
    reports = []
    rows = []
    breach = False
    for path in args.bodies:
        body = load_body(path, grid)
        rep = quermass_report(grid, body)
        reports.append({"file": Path(path).name, **asdict(rep)})
        # Only the top index has a closed-form reference.
        for k, v in enumerate(rep.values):
            top = k == len(rep.values) - 1
            rows.append([Path(path).name, k, v, rep.b_theta if top else "",
                         rep.top_rel_err if top else ""])
        if rep.top_rel_err > tol.quermass:
            breach = True
    emit(args, "quermass_report", {
        "identity": "quermassintegral table vs closed-form cap values; "
                    "top degree equals the cap volume for every body",
        "tolerance": tol.quermass,
        "reports": reports,
        "breach": breach,
    }, csv_table(["file", "k", "value", "reference", "rel_err"], rows))
    return breach


def _af_trial(grid, base, i, equality):
    """AF trial i: f2 from seed 3i, f1 from 3i+1, and f from 3i+2.

    f is a random admissible field, or on the equality family a*f1 plus a
    horizontal linear.
    """
    f2 = random_body(grid, trial_seed(base, 3 * i))
    space = WeightedSpace(grid, f2)
    f1 = random_body(grid, trial_seed(base, 3 * i + 1))
    seed = trial_seed(base, 3 * i + 2)
    if equality:
        rng = np.random.default_rng(seed)
        a = rng.uniform(0.5, 2.0)
        b1, b2 = rng.uniform(-0.5, 0.5, size=2)
        f = a * f1.values + horizontal_linear(grid, (b1, b2)).values
    else:
        f = random_capillary_field(grid, seed)
    return af_check(space, f, f1)


def cmd_af(args) -> bool:
    grid, tol = setup(args)
    threads = thread_count()
    mode = "equality" if args.equality_family else "random"

    reports = run_indexed(
        args.trials, lambda i: _af_trial(grid, args.seed, i, args.equality_family),
        threads)
    rows, trials = [], []
    breach = False
    min_rel = math.inf
    for i, rep in enumerate(reports):
        min_rel = min(min_rel, rep.relative_gap)
        bad = rep.relative_gap < -tol.af
        if args.equality_family:
            bad = abs(rep.relative_gap) > tol.af or (
                rep.decomposition is None
                or rep.decomposition.relative_residual > 1e-6
            )
        breach = breach or bad
        trials.append({"trial": i, **asdict(rep)})
        rows.append([i, rep.lhs, rep.rhs, rep.gap, rep.relative_gap,
                     rep.equality_within_resolution])
    emit(args, "af_report", {
        "identity": "quadratic mixed-volume inequality "
                    "V(f,f1,f2)^2 >= V(f,f,f2) V(f1,f1,f2)"
                    + (" on the equality family f = a*f1 + horizontal linear"
                       if args.equality_family else ""),
        "mode": mode,
        "tolerance": tol.af,
        "min_relative_gap": min_rel,
        "breach": breach,
        "trials": trials,
    }, csv_table(["trial", "lhs", "rhs", "gap", "relative_gap",
                  "equality_within_resolution"], rows))
    return breach


def cmd_chain(args) -> bool:
    grid, tol = setup(args)
    threads = thread_count()

    # Bodies keep the tensors that certified them, so each body and the cap are
    # shaped once for all their chains; the cap's own chain shapes it once more.
    cap = ell(grid)

    def one(i):
        body = random_body(grid, trial_seed(args.seed, i))
        return body, af_chain_check(grid, body, cap)

    bodies, reports = zip(*run_indexed(args.trials, one, threads))
    pairs = run_indexed(args.trials - 1,
                        lambda i: af_chain_check(grid, bodies[i], bodies[i + 1]),
                        threads)
    cap_rep = quermass_chain_check(grid, cap)
    rows = []
    for kind, reps in (("body", reports), ("pair", pairs)):
        for n, rep in enumerate(reps):
            for t in rep.triples:
                rows.append([kind, n, t["i"], t["j"], t["k"],
                             t["lhs"], t["rhs"], t["slack"]])
    min_rel = min(rep.min_relative_slack for rep in (*reports, *pairs))
    cap_equality = max(abs(t["relative_slack"]) for t in cap_rep.triples)
    breach = min_rel < -tol.af or cap_equality > 1e-12
    emit(args, "chain_report", {
        "identity": "mixed-volume chain V_j/V_k >= (V_i/V_k)^((k-j)/(k-i)) "
                    "for i < j < k, V_i = V(L x i, K x (3-i)): quermassintegrals "
                    "of each body K (L the unit cap, equality exactly on caps) "
                    "and consecutive body pairs (K, L) = (K_n, K_n+1)",
        "tolerance": tol.af,
        "min_relative_slack": min_rel,
        "cap_equality_defect": cap_equality,
        "breach": breach,
        "bodies": [asdict(rep) for rep in reports],
        "pairs": [asdict(rep) for rep in pairs],
    }, csv_table(["kind", "index", "i", "j", "k", "lhs", "rhs", "slack"], rows))
    return breach


def _spectrum_reference(grid: CapGrid, args):
    """The --reference body: the unit cap or a seeded random body."""
    if args.reference == "cap":
        return ell(grid)
    return random_body(grid, args.seed, amplitude=0.2, mode_cap=2)


def _spectrum_sweep(grids: list[CapGrid], args) -> tuple[dict, str]:
    """First-eigenvalue error under refinement on the square sweep grids."""
    rows = []
    for g in grids:
        rep = spectrum(WeightedSpace(g, _spectrum_reference(g, args)), how_many=6)
        rows.append([g.n_rho, g.drho, abs(rep.lambda1 - 1.0)])
    _, h, err = np.array(rows).T
    section = {
        "sizes": [g.n_rho for g in grids],
        "pairs": [{"n": r[0], "h": r[1], "lambda1_err": r[2]} for r in rows],
        "observed_order": np.polyfit(np.log(h), np.log(np.maximum(err, 1e-300)), 1)[0],
    }
    return section, csv_table(["n", "h", "lambda1_err"], rows)


def cmd_spectrum(args) -> bool:
    grid, tol = setup(args)
    # Every sweep grid is validated before the main solve spends any time.
    sweep = [build_grid(args.theta, n, n) for n in sweep_sizes(args.sweep)]
    rep = spectrum(WeightedSpace(grid, _spectrum_reference(grid, args)),
                   how_many=args.how_many)
    breach = abs(rep.lambda1 - 1.0) > tol.lambda1 or not rep.lambda1_simple
    breach = breach or len(rep.kernel_indices) != 2
    # The returned eigenvalues are the top k.  Only when the smallest lies
    # below the kernel band could no unreturned one fall inside it, so only
    # then is the kernel count a count of the whole spectrum.
    breach = breach or rep.eigenvalues[-1] > -rep.kernel_threshold
    breach = breach or not rep.window_empty
    breach = breach or max(rep.residuals) > SPECTRUM_RESIDUAL_GATE
    if args.reference == "cap" and rep.kernel_cosine is not None:
        breach = breach or rep.kernel_cosine < 1.0 - tol.kernel_cos
    rows = [[i, v, r] for i, (v, r) in
            enumerate(zip(rep.eigenvalues, rep.residuals))]
    payload = {
        "identity": "spectral dichotomy of the weighted operator: "
                    "lambda1 = 1 simple, two kernel modes spanned by "
                    "horizontal linears, remaining spectrum nonpositive",
        "tolerance_lambda1": tol.lambda1,
        "report": rep.to_dict(),
        "breach": breach,
    }
    if sweep:
        payload["sweep"], sweep_csv = _spectrum_sweep(sweep, args)
    path = emit(args, "spectrum_report", payload,
                csv_table(["index", "eigenvalue", "residual"], rows), meta=rep.sidecar())
    if sweep and args.csv:
        (path.parent / "spectrum_sweep.csv").write_text(sweep_csv, encoding="utf-8")
    return breach


def cmd_steiner(args) -> bool:
    grid, tol = setup(args)
    t_values = [float(p) for p in args.t_samples.split(",")]
    if args.cap:
        body = ell(grid)
    else:
        body = random_body(grid, args.seed)
    rep = steiner_check(grid, body, t_values)
    minkowski = {f"k{k}": minkowski_identity_residual(grid, body, k) for k in (1, 2)}
    breach = max(rep.max_rel_err, *minkowski.values()) > tol.identity
    rows = [[k, rep.coefficients[k], rep.references[k], rep.rel_errs[k]]
            for k in range(4)]
    emit(args, "steiner_report", {
        "identity": "volume of the parallel body is a cubic in t with "
                    "binomial quermassintegral coefficients",
        "tolerance": tol.identity,
        "report": asdict(rep),
        "minkowski_residuals": minkowski,
        "breach": breach,
    }, csv_table(["k", "coefficient", "reference", "rel_err"], rows))
    return breach


def cmd_reconstruct(args) -> bool:
    grid, tol = setup(args)
    if args.body:
        body = load_body(args.body, grid)
    else:
        body = random_body(grid, args.seed)
    patch = embed(grid, body)
    contact = contact_angle_residual(patch)
    planar = planarity_residual(patch)
    interior = interior_min_height(patch)
    vol_mesh = enclosed_volume(patch)
    quad_route = {f"V_{j}": w for j, w in enumerate(quermassintegral(grid, body))}
    vol_quad = quad_route["V_0"]
    vol_err = abs(vol_mesh - vol_quad) / max(abs(vol_quad), 1e-300)
    boundary = {f"V_{k + 1}": boundary_form_quermass(patch, k) for k in (1, 2)}
    breach = (contact > 1e-12) or (planar > tol.identity) or (interior <= 0.0) \
        or (vol_err > tol.volume)
    mesh = Path(args.out) / "patch.obj"
    export_mesh(patch, mesh)
    emit(args, "reconstruct_report", {
        "identity": "support-function embedding meets the plane at the "
                    "prescribed contact angle; enclosed volume agrees "
                    "across quadrature, mesh and boundary-form routes",
        "residuals": {
            "contact_angle": contact,
            "planarity": planar,
            "interior_min_height": interior,
            "volume_rel_err": vol_err,
        },
        "volumes": {
            "mesh": vol_mesh,
            "quadrature": vol_quad,
            "boundary_form": boundary,
            "quermass": quad_route,
        },
        "mesh_file": "patch.obj",
        "degenerate_triangles": len(patch.degenerate_triangles),
        "breach": breach,
    }, meta={"mesh_bytes": mesh.stat().st_size})
    return breach


def cmd_report(args) -> bool:
    """Small deterministic bundle of all verifications on one grid.

    Each section is parsed from its own command line, so its report equals
    the standalone command's.  The parser is built here, at call time, so the
    sections dispatch to whatever ``cmd_*`` functions the module holds now.
    """
    parser = build_parser()
    out = Path(args.out)
    shared = [f"--theta={args.theta!r}", "--grid={}x{}".format(*args.grid),
              f"--seed={args.seed}", f"--tolerance-profile={args.tolerance_profile}"]
    shared += ["--csv"] if args.csv else []

    def run(command, *argv, out=out):
        return run_command(parser.parse_args([command, *shared, f"--out={out}", *argv]))

    bodies = [str(out / "bodies" / f"body_{i:04d}.json") for i in range(2)]
    run("gen", "--count=2", out=out / "bodies")
    trials = f"--trials={args.trials}"
    breaches = {
        "quermass": run("quermass", "--", *bodies),
        "steiner": run("steiner"),
        "reconstruct": run("reconstruct", "--", bodies[0]),
        "chain": run("chain", trials),
        "af": run("af", trials),
        "spectrum": run("spectrum"),
    }
    overall = any(breaches.values())
    emit(args, "summary_report", {
        "identity": "full verification bundle",
        "sections": {name: "breach" if b else "pass" for name, b in breaches.items()},
        "breach": overall,
    })
    return overall


def run_command(args) -> bool:
    """Run a parsed command in its --out directory, created first, so that an
    --out that cannot be made is refused before any work."""
    Path(args.out).mkdir(parents=True, exist_ok=True)
    return args.func(args)


# -- argument wiring -------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="capaf",
                     description="verification driver for capillary convex bodies")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--theta", type=float, default=math.pi / 2,
                        help="contact angle in (0, pi)")
    common.add_argument("--grid", type=parse_grid, default="32x32",
                        help="radial x azimuthal node counts, e.g. 64x64")
    common.add_argument("--seed", type=int, default=1)
    common.add_argument("--out", type=str, default=".")
    common.add_argument("--csv", action="store_true",
                        help="also write a CSV table next to the JSON report")
    common.add_argument("--tolerance-profile", choices=("default", "strict"),
                        default="default")

    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("gen", parents=[common], help="generate random bodies")
    p.add_argument("--count", type=positive_int, default=3)
    p.add_argument("--base-radius", type=finite_float, default=1.0)
    p.add_argument("--amplitude", type=finite_float, default=0.25)
    p.set_defaults(func=cmd_gen)

    p = subs.add_parser("quermass", parents=[common],
                        help="quermassintegral table for body files")
    p.add_argument("bodies", nargs="*", help="body JSON files")
    p.set_defaults(func=cmd_quermass)

    p = subs.add_parser("af", parents=[common],
                        help="quadratic mixed-volume inequality trials")
    p.add_argument("--trials", type=positive_int, default=500)
    p.add_argument("--equality-family", action="store_true")
    p.set_defaults(func=cmd_af)

    p = subs.add_parser("chain", parents=[common],
                        help="mixed-volume chain inequalities: quermassintegrals "
                             "and consecutive body pairs")
    p.add_argument("--trials", type=positive_int, default=100)
    p.set_defaults(func=cmd_chain)

    p = subs.add_parser("spectrum", parents=[common],
                        help="operator spectrum and classification")
    p.add_argument("--reference", choices=("cap", "random"), default="cap")
    p.add_argument("--how-many", type=positive_int, default=8)
    p.add_argument("--sweep", type=sweep_list, default="",
                   help="comma list of square grid sizes for a first-"
                        "eigenvalue refinement study, e.g. 16,24,32")
    p.set_defaults(func=cmd_spectrum)

    p = subs.add_parser("steiner", parents=[common],
                        help="parallel-volume polynomial check")
    p.add_argument("--t-samples", type=finite_floats, default="0.1,0.4,0.8,1.2,1.6,2.0")
    p.add_argument("--cap", action="store_true", help="use the unit cap body")
    p.set_defaults(func=cmd_steiner)

    p = subs.add_parser("reconstruct", parents=[common],
                        help="embed a body and cross-check volumes")
    p.add_argument("body", nargs="?", help="optional body JSON file")
    p.set_defaults(func=cmd_reconstruct)

    p = subs.add_parser("report", parents=[common],
                        help="run the full verification bundle")
    p.add_argument("--trials", type=positive_int, default=20)
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; keep 2 reserved for breaches and
        # report malformed command lines as configuration errors instead.
        return EXIT_CONFIG if exc.code else EXIT_OK
    # The only place an exception becomes an exit code.  LinAlgError is a
    # ValueError, so the numerical clause must come first.  The environment
    # is checked before --out is created, so a refused run leaves nothing.
    try:
        thread_count()
        breach = run_command(args)
    except (RuntimeError, np.linalg.LinAlgError) as exc:
        print(f"capaf: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ConfigError, OSError, ValueError) as exc:
        print(f"capaf: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_BREACH if breach else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
