"""Batch command-line driver: generate bodies, verify identities, emit reports.

Reports are deterministic for a fixed configuration: the JSON body contains
only config, values and verdicts, while wall-clock metadata goes to a separate
.meta.json sidecar so repeated runs stay byte-identical; no NaN or infinity
reaches a report.  Every verdict is a Gate, a value held against one entry of
BOUNDS, and ``emit`` alone turns a command's gates into its breach.  Exit
codes: 0 all gates passed, 2 a gate failed (the report is still written), 3
the configuration was invalid (a bad option, a grid or body that does not
validate, or a path that cannot be read or written), 4 a numerical failure
(no convex body within the amplitude halvings, a non-finite result, or a
linear-algebra routine that failed).  ``main`` alone maps an exception to its
code, by type, with one message prefix per code.

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
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .capgrid import CapGrid, build_grid, check_grid
from .capfun import (
    MARGIN,
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
    embed,
    enclosed_volume,
    export_mesh,
    interior_min_height,
    planarity_residual,
)
from .spectral import (
    LAMBDA1_GAP,
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


# An ArgumentTypeError, so that a parse_grid or positive_int failure inside
# argparse becomes a usage error (exit 3) with this message.
class ConfigError(argparse.ArgumentTypeError):
    pass


class Bound(NamedTuple):
    """A gate bound: its budget on the anchor grid, where the documented
    accuracy statements hold.  Under --tolerance-profile default it widens by
    ((anchor + 1/2)/(n_rho + 1/2))**order on coarser grids, where the scheme
    order degrades them; order 0 is the same bound on every grid and profile."""

    budget: float
    order: int = 0
    anchor: int = 128

    def at(self, profile: str, n_rho: int):
        if profile == "strict" or not self.order:
            return self.budget
        return self.budget * max(1.0, (self.anchor + 0.5) / (n_rho + 0.5)) ** self.order


# Every bound a gate compares against.
BOUNDS = {
    "quermass": Bound(1e-6, 4),
    "identity": Bound(1e-5, 4),
    # The boundary-form V_2 of a reconstructed body converges at fourth order
    # with a constant that grows like 1/theta^2 below theta 0.3: over
    # random_body seeds 0-11 and 16x16 to 128x128 it peaks at 0.53 times this
    # bound at theta 0.05, and below 0.015 times it from theta 0.3 up.
    "boundary_v2": Bound(2e-5, 4),
    # The equality-family gap floor shrinks with the fourth power of the
    # spacing and clears 1e-8 only around 256 radial nodes, so its budget is
    # anchored there.
    "af": Bound(1e-8, 4, 256),
    "volume": Bound(1e-3, 2),
    "lambda1": Bound(1e-3),
    "lambda1_gap": Bound(LAMBDA1_GAP),
    "kernel_cos": Bound(1e-6, 4),
    "kernel_count": Bound(2),
    "window_empty": Bound(True),
    # Smallest relative pivot of the banded LDL^H factorizations behind the
    # exact counts of a rotationally invariant spectrum.  A smaller one may
    # have its sign flipped by roundoff, so the counts are not certified.
    # The cap measures 4.8e-8 at theta 0.05 on 128x128 and 6.1e-9 on
    # 256x256 (at the kernel band's shifts, which scale like the squared
    # spacing); 1e-10 leaves room for finer grids and lies far above roundoff.
    "inertia_pivot": Bound(1e-10),
    # Largest eigenpair residual a spectrum may report.  The block
    # eigensolver for references that are not rotationally invariant iterates
    # until every residual is below 1e-9 and raises if it never gets there;
    # this gate catches an iteration that stopped short of that, should its
    # stopping rule be loosened or broken.  The cap's per-mode solves
    # measure 5.2e-13 to 1.6e-12 at 64x64 and 2.4e-12 to 1.1e-11 at 128x128
    # (theta 0.3 to 3.0); random references stop between 1e-10 and 1e-9.
    "residual": Bound(1e-8),
    "decomposition": Bound(1e-6),
    "interior": Bound(0.0),
    "failures": Bound(0),
}


class Gate(NamedTuple):
    """One check of a report, `value <sense> bound` for a sense of <=, >=, > or ==.
    Its margin is positive on the passing side, and it passes on a margin >= 0
    (> 0 for ">"): the sign of a float difference is exact, so that is the
    comparison itself."""

    name: str
    value: float
    bound: float
    sense: str

    def record(self) -> dict:
        v, b = self.value, self.bound
        margin = {"<=": b - v, ">=": v - b, ">": v - b, "==": -abs(v - b)}[self.sense]
        return {**self._asdict(), "margin": margin,
                "passed": bool(margin > 0 if self.sense == ">" else margin >= 0)}


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


def non_negative_int(text: str) -> int:
    """argparse type for seeds: a negative value is a usage error before any work."""
    n = int(text)
    if n < 0:
        raise ConfigError(f"must be a non-negative integer, got {n}")
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
    sidecar = {"written_at": datetime.now(timezone.utc).isoformat(), "report": path.name,
               **(meta or {})}
    (out_dir / f"{name}.meta.json").write_text(
        json.dumps(sidecar, indent=1, default=_numpy_to_json) + "\n", encoding="utf-8")
    if want_csv and csv_text is not None:
        (out_dir / f"{name}.csv").write_text(csv_text, encoding="utf-8")
    return path


def csv_table(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows([repr(float(v)) if isinstance(v, (float, np.floating)) else v
                      for v in row] for row in [header, *rows])
    return buf.getvalue()


def setup(args) -> tuple[CapGrid, dict]:
    """The command's grid and every entry of BOUNDS on it."""
    grid = build_grid(args.theta, *args.grid)
    return grid, {name: b.at(args.tolerance_profile, grid.n_rho)
                  for name, b in BOUNDS.items()}


def emit(args, name: str, payload: dict, gates: list[Gate], table: str | None = None,
         meta: dict | None = None) -> list[str]:
    """Write report name under --out: the command's config block, its payload
    and its gates, each with its signed margin; return the failed gate names.

    The one place a verdict is reached: breach is any gate not passed.  table
    is the CSV text, written when --csv is given.
    """
    records = [gate.record() for gate in gates]
    failed = [r["name"] for r in records if not r["passed"]]
    write_report(Path(args.out), name, {"config": config_dict(args), **payload,
                                        "gates": records, "breach": bool(failed)},
                 table, args.csv, meta)
    return failed


# -- subcommands -----------------------------------------------------------------

def cmd_gen(args) -> list[str]:
    """Write --count seeded random bodies.  The sidecar records each body's
    certification margin, min_eig / (MARGIN * base_radius), which random_body
    keeps at 1 or above, and the amplitude it was accepted at."""
    grid, _ = setup(args)
    out = Path(args.out)
    files, body_bytes, bodies = [], 0, []
    for i in range(args.count):
        body = random_body(grid, seed=trial_seed(args.seed, i),
                           base_radius=args.base_radius, amplitude=args.amplitude)
        path = out / f"body_{i:04d}.json"
        save_body(body, path)
        files.append(path.name)
        body_bytes += path.stat().st_size
        bodies.append({
            "file": path.name,
            "certification_margin": body.min_eig / (MARGIN * args.base_radius),
            "effective_amplitude": body.provenance["params"]["effective_amplitude"]})
    return emit(args, "gen_report",
                {"identity": "seeded generation of certified convex support functions",
                 "files": files}, [], meta={"body_bytes": body_bytes, "bodies": bodies})


def cmd_quermass(args) -> list[str]:
    grid, tol = setup(args)
    if not args.bodies:
        raise ConfigError("quermass needs at least one body file")
    reports, rows = [], []
    for path in args.bodies:
        body = load_body(path, grid)
        rep = quermass_report(grid, body)
        reports.append({"file": Path(path).name, **asdict(rep)})
        # Only the top index has a closed-form reference.
        *lower, top = enumerate(rep.values)
        rows += [[Path(path).name, k, v, "", ""] for k, v in lower]
        rows.append([Path(path).name, *top, rep.b_theta, rep.top_rel_err])
    return emit(args, "quermass_report", {
        "identity": "quermassintegral table vs closed-form cap values; "
                    "top degree equals the cap volume for every body",
        "reports": reports,
    }, [Gate("top_rel_err", max(r["top_rel_err"] for r in reports), tol["quermass"], "<=")],
        csv_table(["file", "k", "value", "reference", "rel_err"], rows))


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


def cmd_af(args) -> list[str]:
    grid, tol = setup(args)
    reports = run_indexed(
        args.trials, lambda i: _af_trial(grid, args.seed, i, args.equality_family),
        thread_count())
    trials = [{"trial": i, **asdict(rep)} for i, rep in enumerate(reports)]
    rows = [[i, rep.lhs, rep.rhs, rep.gap, rep.relative_gap, rep.equality_within_resolution]
            for i, rep in enumerate(reports)]
    gaps = [rep.relative_gap for rep in reports]
    gates = [Gate("min_relative_gap", min(gaps), -tol["af"], ">=")]
    if args.equality_family:
        # Equality within the bound on both sides, and every f decomposed.
        residuals = [rep.decomposition.relative_residual for rep in reports
                     if rep.decomposition is not None]
        gates += [
            Gate("max_relative_gap", max(gaps), tol["af"], "<="),
            Gate("undecomposed_trials", len(reports) - len(residuals), tol["failures"], "<="),
            Gate("decomposition_residual", max(residuals, default=0.0),
                 tol["decomposition"], "<="),
        ]
    return emit(args, "af_report", {
        "identity": "quadratic mixed-volume inequality "
                    "V(f,f1,f2)^2 >= V(f,f,f2) V(f1,f1,f2)"
                    + (" on the equality family f = a*f1 + horizontal linear"
                       if args.equality_family else ""),
        "mode": "equality" if args.equality_family else "random",
        "trials": trials,
    }, gates, csv_table(["trial", "lhs", "rhs", "gap", "relative_gap",
                         "equality_within_resolution"], rows))


def cmd_chain(args) -> list[str]:
    grid, tol = setup(args)
    threads = thread_count()

    # Bodies and the grid's cap keep their tensors: each is shaped once.
    def one(i):
        body = random_body(grid, trial_seed(args.seed, i))
        return body, quermass_chain_check(grid, body)

    bodies, reports = zip(*run_indexed(args.trials, one, threads))
    pairs = run_indexed(args.trials - 1,
                        lambda i: af_chain_check(grid, bodies[i], bodies[i + 1]),
                        threads)
    rows = [[kind, n, t["i"], t["j"], t["k"], t["lhs"], t["rhs"], t["slack"]]
            for kind, reps in (("body", reports), ("pair", pairs))
            for n, rep in enumerate(reps) for t in rep.triples]
    gates = [Gate("min_relative_slack", min(rep.min_relative_slack for rep in (*reports, *pairs)),
                  -tol["af"], ">=")]
    return emit(args, "chain_report", {
        "identity": "mixed-volume chain V_j/V_k >= (V_i/V_k)^((k-j)/(k-i)) "
                    "for i < j < k, V_i = V(L x i, K x (3-i)): quermassintegrals "
                    "of each body K (L the unit cap, equality exactly on caps) "
                    "and consecutive body pairs (K, L) = (K_n, K_n+1)",
        "bodies": [asdict(rep) for rep in reports],
        "pairs": [asdict(rep) for rep in pairs],
    }, gates, csv_table(["kind", "index", "i", "j", "k", "lhs", "rhs", "slack"], rows))


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


def cmd_spectrum(args) -> list[str]:
    grid, tol = setup(args)
    # Every sweep grid is validated before the main solve spends any time.
    sweep = [build_grid(args.theta, n, n) for n in sweep_sizes(args.sweep)]
    rep = spectrum(WeightedSpace(grid, _spectrum_reference(grid, args)),
                   how_many=args.how_many)
    # A rotationally invariant reference has exact counts over the whole
    # spectrum; any other counts its returned eigenvalues.
    counts = rep.counts
    gates = [
        Gate("lambda1_err", abs(rep.lambda1 - 1.0), tol["lambda1"], "<="),
        Gate("lambda1_gap", rep.lambda1_gap, tol["lambda1_gap"], ">="),
        Gate("kernel_count", counts["kernel"] if counts is not None else len(rep.kernel_indices),
             tol["kernel_count"], "=="),
        # The returned eigenvalues are the top k.  Only when the smallest lies
        # below the kernel band could no unreturned one fall inside it, so
        # only then is the kernel count a count of the whole spectrum.
        Gate("smallest_eigenvalue", rep.eigenvalues[-1], -rep.kernel_threshold, "<="),
        Gate("window_empty", counts["window"] == 0 if counts is not None else rep.window_empty,
             tol["window_empty"], "=="),
        Gate("max_residual", max(rep.residuals), tol["residual"], "<="),
    ]
    if counts is not None:
        gates.append(Gate("inertia_pivot", counts["min_relative_pivot"],
                          tol["inertia_pivot"], ">="))
    if rep.kernel_cosine is not None:
        gates.append(Gate("kernel_cosine", rep.kernel_cosine, 1.0 - tol["kernel_cos"], ">="))
    rows = [[i, v, r] for i, (v, r) in enumerate(zip(rep.eigenvalues, rep.residuals))]
    payload = {
        "identity": "spectral dichotomy of the weighted operator: "
                    "lambda1 = 1 simple, two kernel modes spanned by "
                    "horizontal linears, remaining spectrum nonpositive",
        "report": rep.to_dict(),
    }
    if sweep:
        payload["sweep"], sweep_csv = _spectrum_sweep(sweep, args)
        if args.csv:
            (Path(args.out) / "spectrum_sweep.csv").write_text(sweep_csv, encoding="utf-8")
    return emit(args, "spectrum_report", payload, gates,
                csv_table(["index", "eigenvalue", "residual"], rows), meta=rep.sidecar())


def cmd_steiner(args) -> list[str]:
    grid, tol = setup(args)
    body = random_body(grid, args.seed)
    rep = steiner_check(grid, body)
    minkowski = {f"k{k}": minkowski_identity_residual(grid, body, k) for k in (1, 2)}
    rows = [[k, rep.swapped[k - 1], rep.quermass[k], rep.rel_errs[k - 1]] for k in (1, 2)]
    gates = [Gate("max_rel_err", rep.max_rel_err, tol["identity"], "<="),
             *(Gate(f"minkowski_{k}", v, tol["identity"], "<=") for k, v in minkowski.items())]
    return emit(args, "steiner_report", {
        "identity": "volume of the parallel body is a cubic in t with "
                    "binomial quermassintegral coefficients: the unit cap's "
                    "slot swaps with the body's",
        "report": asdict(rep),
        "minkowski_residuals": minkowski,
    }, gates, csv_table(["k", "swapped", "quermass", "rel_err"], rows))


def cmd_reconstruct(args) -> list[str]:
    grid, tol = setup(args)
    body = load_body(args.body, grid) if args.body else random_body(grid, args.seed)
    patch = embed(grid, body)
    planar = planarity_residual(patch)
    interior = interior_min_height(patch)
    vol_mesh = enclosed_volume(patch)
    quad_route = {f"V_{j}": w for j, w in enumerate(quermassintegral(grid, body))}
    vol_quad = quad_route["V_0"]
    vol_err = abs(vol_mesh - vol_quad) / max(abs(vol_quad), 1e-300)
    boundary = {f"V_{k + 1}": boundary_form_quermass(patch, k) for k in (1, 2)}
    err = {v: abs(boundary[v] - quad_route[v]) / quad_route[v] for v in boundary}
    gates = [
        Gate("planarity", planar, tol["identity"], "<="),
        Gate("interior_min_height", interior, tol["interior"], ">"),
        Gate("volume_rel_err", vol_err, tol["volume"], "<="),
        Gate("boundary_form_V_2", err["V_2"], tol["boundary_v2"], "<="),
        Gate("boundary_form_V_3", err["V_3"], tol["identity"], "<="),
    ]
    mesh = Path(args.out) / "patch.obj"
    export_mesh(patch, mesh)
    return emit(args, "reconstruct_report", {
        "identity": "support-function embedding meets the plane at the "
                    "prescribed contact angle; enclosed volume agrees "
                    "across quadrature, mesh and boundary-form routes",
        "residuals": {
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
    }, gates, meta={"mesh_bytes": mesh.stat().st_size})


def cmd_report(args) -> list[str]:
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
    sections = {
        "quermass": run("quermass", "--", *bodies),
        "steiner": run("steiner"),
        "reconstruct": run("reconstruct", "--", bodies[0]),
        "chain": run("chain", trials),
        "af": run("af", trials),
        "spectrum": run("spectrum"),
    }
    # Each section lists its failed gates, and fails the bundle's gate of its name.
    return emit(args, "summary_report", {
        "identity": "full verification bundle",
        "sections": sections,
    }, [Gate(name, len(failed), BOUNDS["failures"].budget, "<=")
        for name, failed in sections.items()])


def run_command(args) -> list[str]:
    """Run a parsed command in its --out directory, created first, so that an
    --out that cannot be made is refused before any work; return its failed
    gate names."""
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
    common.add_argument("--seed", type=non_negative_int, default=1)
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
    # The only place an exception becomes an exit code.  LinAlgError is a ValueError,
    # so the numerical clause must come first.  The environment and the grids are
    # checked before --out is created, so a refused run leaves nothing.
    try:
        thread_count()
        sweep = sweep_sizes(getattr(args, "sweep", ""))
        for n_rho, n_phi in [args.grid, *zip(sweep, sweep)]:
            check_grid(args.theta, n_rho, n_phi)
        failed = run_command(args)
    except (RuntimeError, np.linalg.LinAlgError) as exc:
        print(f"capaf: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ConfigError, OSError, ValueError) as exc:
        print(f"capaf: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_BREACH if failed else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
