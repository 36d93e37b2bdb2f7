"""capaf benchmark: drives ``capaf.cli.main`` in-process the way users do.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from anywhere; the package is imported from ``src/`` next to this
directory.  Each workload is a fixed list of CLI steps, run once in order and
then repeated, least-called step first, until the time is up.  Every CLI
call is checked: exit code 0, strict-JSON reports with ``"breach": false``,
reports byte-identical to the step's earlier calls, plus the workload's own
gates.
A call that fails any gate counts as failed; the run keeps going.

With ``--trace 0`` the last stdout line holds the end-to-end metrics, taken
with no wrappers installed.  Times are in reference seconds: each call is
timed between two runs of a fixed reference kernel, which cancels the shared
host's drift in speed (see ``Reference``).  With ``--trace 1`` each step is run untraced and
then traced in turn, and the last line holds per-layer metrics from the traced
calls plus the tracing overhead.  Earlier stdout lines record the environment
and each step's median under its descriptive name.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from spans import SPAN_NAMES, Tracer, layer_counts, layer_times

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_SAMPLES = 5
# Timed samples are reported in reference seconds: the time they would take
# on a host where the reference kernel takes REF_SECONDS (see Reference).
REF_SECONDS = 0.25
REF_SEED = 0
REFERENCE = "reference"
SETUP = "setup"
LAMBDA1_TOL = 1e-3
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True)
class Step:
    """One CLI call of a workload.

    ``label`` names the step in the human-readable output; ``argv`` omits
    ``--seed`` and ``--out``, which the runner adds.  An argument ``@step/file``
    names a file written by an earlier step.  ``same_as``
    names an earlier step whose reports this step's must equal byte for byte.
    ``work`` is (count, label) for a throughput line, e.g. trials per second.
    """

    label: str
    argv: tuple[str, ...]
    threads: int = 1
    same_as: str | None = None
    work: tuple[int, str] | None = None


# Each workload has exactly three steps; their medians, in reference
# seconds, are the end-to-end metrics step1_s, step2_s and step3_s.  Each
# step takes one to five seconds, so that every step is called several times
# in a run.  Why each workload exists, and which
# layer it loads or bypasses, is recorded in BENCHMARK.json and the README.
BODIES = tuple(f"@gen_256/body_{i:04d}.json" for i in range(4))
WORKLOADS = {
    "report_bundle": [
        Step("report_64", ("report", "--theta", "1.2", "--grid", "64x64")),
        Step("report_128", ("report", "--theta", "1.2", "--grid", "128x128")),
        Step("report_64_obtuse", ("report", "--theta", "2.2", "--grid", "64x64")),
    ],
    "af_trials_256": [
        Step("af_trials_1t", ("af", "--theta", "2.2", "--grid", "256x256",
                              "--trials", "8"), work=(8, "af_trials_per_s")),
        Step("af_trials_2t", ("af", "--theta", "2.2", "--grid", "256x256",
                              "--trials", "8"), threads=2,
             same_as="af_trials_1t", work=(8, "af_trials_per_s_2t")),
        Step("af_equality", ("af", "--theta", "2.2", "--grid", "256x256",
                             "--trials", "4", "--equality-family"),
             work=(4, "af_equality_trials_per_s")),
    ],
    "spectrum_solve": [
        Step("spectrum_40x48", ("spectrum", "--theta", "1.57", "--grid", "40x48",
                                "--sweep", "16,24,32")),
        Step("spectrum_128", ("spectrum", "--theta", "1.57", "--grid", "128x128")),
        Step("spectrum_random_96", ("spectrum", "--theta", "2.2", "--grid", "96x96",
                                    "--reference", "random")),
    ],
    "mesh_io_256": [
        Step("gen_256", ("gen", "--theta", "1.2", "--grid", "256x256",
                         "--count", "4")),
        Step("quermass_256", ("quermass", "--theta", "1.2", "--grid", "256x256")
             + BODIES),
        Step("reconstruct_256", ("reconstruct", "--theta", "1.2", "--grid",
                                 "256x256", BODIES[0])),
    ],
}

NOTES = [
    "BLAS is pinned to one thread (OPENBLAS_NUM_THREADS=1, set before numpy "
    "is imported); CAPAF_THREADS is 1 unless a step sets it.",
    "Known defect, not hidden here: spectrum reports at 48x64 differ in the "
    "11th digit across BLAS thread counts (tracked in ROADMAP.md).",
]


def pin_blas_threads() -> None:
    """Pin BLAS to one thread; must run before numpy is first imported."""
    for key in BLAS_ENV:
        os.environ[key] = "1"
    os.environ["CAPAF_THREADS"] = "1"


def load_cli():
    """Import capaf from src/; None when the source tree is absent."""
    if not (SRC / "capaf" / "cli.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import capaf.cli
    return capaf.cli


# -- gates ----------------------------------------------------------------------

def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def spectrum_problems(rep: dict) -> list[str]:
    """The spectral dichotomy: lambda1 = 1, two kernel modes, empty window."""
    problems = []
    if abs(rep["lambda1"] - 1.0) > LAMBDA1_TOL:
        problems.append(f"lambda1 = {rep['lambda1']!r}")
    if len(rep["kernel_indices"]) != 2:
        problems.append(f"kernel {rep['kernel_indices']}")
    if rep["window_empty"] is not True:
        problems.append(f"window_empty {rep['window_empty']!r}")
    return problems


def check_reports(out: Path) -> tuple[list[str], str]:
    """Gate every report a step wrote; return problems and a digest of all
    report bytes for the byte-identity gates."""
    problems = []
    digest = hashlib.sha256()
    reports = sorted(out.rglob("*_report.json"))
    if not reports:
        problems.append("no report written")
    for path in reports:
        raw = path.read_bytes()
        digest.update(str(path.relative_to(out)).encode() + b"\0" + raw)
        try:
            data = json.loads(raw, parse_constant=_reject_constant)
        except ValueError as exc:
            problems.append(f"{path.name}: {exc}")
            continue
        if path.name != "gen_report.json" and data.get("breach") is not False:
            problems.append(f"{path.name}: breach is {data.get('breach')!r}")
        if path.name == "spectrum_report.json":
            try:
                problems += [f"{path.name}: {p}" for p in spectrum_problems(data["report"])]
            except (KeyError, TypeError) as exc:
                problems.append(f"{path.name}: malformed report ({exc!r})")
    if (out / "reconstruct_report.json").exists():
        obj = out / "patch.obj"
        if not obj.is_file() or obj.stat().st_size == 0:
            problems.append("patch.obj missing or empty")
    return problems, digest.hexdigest()


# -- reference kernel -----------------------------------------------------------

class Reference:
    """A fixed kernel, independent of capaf, timed before and after every
    measured call.

    The shared host's speed drifts by up to 2x, in spells from seconds to
    minutes, and the drift moves every wall time of a run together.  A call's
    time divided by the mean of the reference times on either side of it
    cancels most of that drift; a change to capaf moves only the call.  The
    kernel mixes what capaf's steps spend their time on: Python-level loops
    formatting text (mesh and body writers), numpy arithmetic on 256x256
    arrays (grid functions), a sparse LU solve (shift-invert spectra) and a
    dense generalized eigensolve (dense spectra).  Its inputs are fixed,
    whatever the workload seed.
    """

    def __init__(self):
        import numpy as np
        import scipy.linalg
        import scipy.sparse as sp
        import scipy.sparse.linalg as spla
        self.np, self.linalg, self.spla = np, scipy.linalg, spla
        rng = np.random.default_rng(REF_SEED)
        self.a = rng.standard_normal((256, 256))
        self.b = rng.standard_normal((256, 256))
        self.points = rng.standard_normal((45_000, 3)).tolist()
        n = 120
        line = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
        self.laplacian = (sp.kron(line, sp.eye(n)) + sp.kron(sp.eye(n), line)).tocsc()
        self.rhs = np.ones(n * n)
        m = rng.standard_normal((500, 500))
        self.sym = m + m.T
        self.spd = m @ m.T / 500 + np.eye(500)

    def __call__(self) -> float:
        np = self.np
        start = time.perf_counter()
        "".join(f"v {x:.9g} {y:.9g} {z:.9g}\n" for x, y, z in self.points)
        for _ in range(20):
            c = np.sin(self.a) * np.exp(-self.b * self.b) + np.hypot(self.a, self.b)
            np.gradient(c)
        self.spla.spsolve(self.laplacian, self.rhs)
        self.linalg.eigh(self.sym, self.spd)
        return time.perf_counter() - start


# -- running --------------------------------------------------------------------

class Runner:
    """Runs one workload's steps and keeps every sample, gate result and span."""

    def __init__(self, cli, steps: list[Step], seed: int, work: Path):
        self.cli = cli
        self.steps = steps
        self.seed = seed
        self.work = work
        self.times: dict[str, list[float]] = {s.label: [] for s in steps}
        self.traced_times: dict[str, list[float]] = {s.label: [] for s in steps}
        self.traces: dict[str, list] = {s.label: [] for s in steps}
        self.setup_times: list[float] = []
        self.timeline: list[tuple[str, float, float]] = []
        self.digests: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def argv(self, step: Step) -> list[str]:
        args = [str(self.work / a[1:]) if a.startswith("@") else a
                for a in step.argv]
        return args + ["--seed", str(self.seed), "--out", str(self.work / step.label)]

    def call(self, step: Step, tracer: Tracer | None = None) -> float:
        """One gated CLI call; returns its wall time."""
        out = self.work / step.label
        shutil.rmtree(out, ignore_errors=True)
        argv = self.argv(step)
        os.environ["CAPAF_THREADS"] = str(step.threads)
        if tracer is not None:
            tracer.install()
        try:
            with contextlib.redirect_stdout(sys.stderr):
                start = time.perf_counter()
                try:
                    code = self.cli.main(argv)
                except Exception as exc:  # a crash is one failed call, not a dead run
                    traceback.print_exc()
                    code = f"{type(exc).__name__}: {exc}"
                elapsed = time.perf_counter() - start
        finally:
            if tracer is not None:
                tracer.uninstall()
            os.environ["CAPAF_THREADS"] = "1"
        self.attempted += 1
        problems = [f"exit {code}"] if code != 0 else []
        if code == 0:
            found, digest = check_reports(out)
            problems += found
            first = self.digests.setdefault(step.label, digest)
            if digest != first:
                problems.append("reports differ from an earlier call")
            if step.same_as and digest != self.digests.get(step.same_as):
                problems.append(f"reports differ from {step.same_as}")
        if problems:
            self.failed += 1
            self.problems += [f"{step.label}: {p}" for p in problems]
        return elapsed

    def measure(self, seconds: float, traced: bool, setup=None,
                reference: Reference | None = None) -> None:
        """Run the steps until no further call would end before the deadline.

        The first pass runs every step in order, since later steps may read
        files earlier ones wrote.  After it, of the steps whose last call would
        still fit, the one with the fewest calls goes next (the one with the
        least measured time among equals), so every step's median rests on
        about as many calls.

        ``setup``, when given, is sampled between calls about SETUP_SAMPLES
        times spread over the run, so its samples see the same machine load
        as the steps rather than one moment of it.

        ``reference``, when given, is timed before the first call and after
        every call and setup sample.  Every timed sample goes into
        ``timeline`` as (what, start offset, seconds), in order.
        """
        start = time.perf_counter()
        deadline = start + seconds
        next_setup = start

        def sample(what: str, fn) -> float:
            began = time.perf_counter() - start
            elapsed = fn()
            self.timeline.append((what, began, elapsed))
            if reference is not None and what != REFERENCE:
                sample(REFERENCE, reference)
            return elapsed

        if reference is not None:
            sample(REFERENCE, reference)
        for n in itertools.count():
            if n < len(self.steps):
                step = self.steps[n]
            else:
                now = time.perf_counter()
                ref = self.timeline[-1][2] if reference is not None else 0.0
                fits = [s for s in self.steps
                        if now + self.times[s.label][-1] * (1 + traced) + ref <= deadline]
                if not fits:
                    return
                step = min(fits, key=lambda s: (len(self.times[s.label]),
                                                sum(self.times[s.label])))
            if setup is not None and time.perf_counter() >= next_setup:
                self.setup_times.append(sample(SETUP, setup))
                next_setup += seconds / SETUP_SAMPLES
            self.times[step.label].append(sample(step.label, functools.partial(self.call, step)))
            if traced:
                tracer = Tracer()
                self.traced_times[step.label].append(self.call(step, tracer))
                self.traces[step.label].append(tracer.spans)


# -- metrics --------------------------------------------------------------------

def setup_sample(theta: str, grid: str) -> float:
    """Import capaf and build the workload's first grid in a fresh interpreter."""
    n_rho, n_phi = grid.split("x")
    code = ("import time; t = time.perf_counter(); import capaf; "
            f"capaf.build_grid({theta}, {n_rho}, {n_phi}); "
            "print(time.perf_counter() - t)")
    done = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=str(SRC)), cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def first_grid(steps: list[Step]) -> tuple[str, str]:
    argv = steps[0].argv
    return argv[argv.index("--theta") + 1], argv[argv.index("--grid") + 1]


def reference_seconds(timeline: list[tuple[str, float, float]], what: str) -> list[float]:
    """Each ``what`` sample's time in reference seconds: its wall time scaled
    by REF_SECONDS over the mean of the reference samples just before and
    after it, i.e. what it would take on a host where the reference kernel
    takes REF_SECONDS."""
    out = []
    for i, (name, _, elapsed) in enumerate(timeline):
        if name == what:
            ref = (timeline[i - 1][2] + timeline[i + 1][2]) / 2
            out.append(elapsed * REF_SECONDS / ref)
    return out


def end_to_end(runner: Runner) -> dict:
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (statistics.median(reference_seconds(runner.timeline, SETUP)), "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        "ok_ops_frac": (1.0 - runner.failed / max(runner.attempted, 1), "frac"),
    }
    for i, step in enumerate(runner.steps, 1):
        metrics[f"step{i}_s"] = (statistics.median(
            reference_seconds(runner.timeline, step.label)), "s")
    return metrics


def per_layer(runner: Runner) -> dict:
    """Per-layer metrics of one pass: exact counts per step (which must repeat
    across that step's traced calls) and median busy times, summed over the
    workload's steps."""
    counts: dict[str, int] = {}
    times: dict[str, float] = {}
    overhead = base = 0.0
    for step in runner.steps:
        traces = runner.traces[step.label]
        step_counts = [layer_counts(spans) for spans in traces]
        if any(c != step_counts[0] for c in step_counts):
            runner.failed += 1
            runner.problems.append(f"{step.label}: exact counts differ between calls")
        for key, value in step_counts[0].items():
            counts[key] = counts.get(key, 0) + value
        step_times = [layer_times(spans) for spans in traces]
        for key in step_times[0]:
            times[key] = times.get(key, 0.0) + statistics.median(t[key] for t in step_times)
        plain = statistics.median(runner.times[step.label])
        overhead += statistics.median(runner.traced_times[step.label]) - plain
        base += plain

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = (counts[f"{name}.calls"], "count")
        metrics[f"{name}.total_s"] = (times[f"{name}.total_s"], "s")
        metrics[f"{name}.self_s"] = (times[f"{name}.self_s"], "s")
    metrics.update({
        "spectral.af_check.a_of_per_call": (ratio(
            counts["spectral.af_check.a_of_calls"],
            counts["spectral.af_check.calls"]), "count"),
        "mixedvol.mixed_volume.a_of_per_call": (ratio(
            counts["mixedvol.mixed_volume.a_of_calls"],
            counts["mixedvol.mixed_volume.calls"]), "count"),
        "capfun.random_body.halvings": (counts["capfun.random_body.halvings"], "count"),
        "capfun.random_body.accept_ratio": (ratio(
            counts["capfun.random_body.calls"],
            counts["capfun.random_body.calls"] + counts["capfun.random_body.halvings"]),
            "frac"),
        "spectral.spectrum.n_unknowns": (counts["spectral.spectrum.n_unknowns"], "count"),
        "reconstruct.export_mesh.bytes": (counts["reconstruct.export_mesh.bytes"], "B"),
        "reconstruct.export_mesh.mb_per_s": (ratio(
            counts["reconstruct.export_mesh.bytes"] / 1e6,
            times["reconstruct.export_mesh.total_s"]), "MB/s"),
        "capfun.save_body.bytes": (counts["capfun.save_body.bytes"], "B"),
        "cli.write_report.bytes": (counts["cli.write_report.bytes"], "B"),
        "cli.run_indexed.parallel_efficiency": (ratio(
            times["cli.run_indexed.trial_cpu_s"], times["cli.run_indexed.worker_s"]),
            "frac"),
        "trace_overhead_s": (overhead, "s"),
        "trace_overhead_frac": (ratio(overhead, base), "frac"),
    })
    return metrics


# -- environment ----------------------------------------------------------------

def git_sha() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(workload: str, steps: list[Step], seed: int) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        **{key: os.environ[key] for key in BLAS_ENV},
        "CAPAF_THREADS": os.environ["CAPAF_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "workload": workload,
        "seed": seed,
        "steps": [{"label": s.label, "argv": list(s.argv), "capaf_threads": s.threads}
                  for s in steps],
        "notes": NOTES,
    }


# -- entry point ----------------------------------------------------------------

def run_workload(cli, workload: str, steps: list[Step], seed: int,
                 seconds: float, trace: bool) -> dict:
    """Measure one workload; returns the result line and the runner, whose
    samples, spans and problems the smoke check inspects."""
    work = WORK / f"{workload}_{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    runner = Runner(cli, steps, seed, work)
    try:
        setup = None if trace else functools.partial(setup_sample, *first_grid(steps))
        runner.measure(seconds, trace, setup, None if trace else Reference())
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    metrics = per_layer(runner) if trace else end_to_end(runner)
    return {
        "result": {
            "correct": runner.failed == 0,
            "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        },
        "runner": runner,
    }


def describe(runner: Runner) -> list[str]:
    """Human-readable lines: each step under its descriptive name."""
    lines = [f"# {runner.attempted} CLI calls, {runner.failed} failed"]
    refs = [t for name, _, t in runner.timeline if name == REFERENCE]
    for i, step in enumerate(runner.steps, 1):
        samples = runner.times[step.label]
        med = statistics.median(samples)
        line = f"# step{i} = {step.label}: median {med:.4f} s wall"
        if refs:
            ref_med = statistics.median(reference_seconds(runner.timeline, step.label))
            line += f", {ref_med:.4f} reference s"
        line += f", over {len(samples)} calls"
        if step.work:
            line += f"; {step.work[1]} = {step.work[0] / med:.4f} 1/s"
        lines.append(line)
    if refs:
        setup_med = statistics.median(reference_seconds(runner.timeline, SETUP))
        lines.append(f"# setup: median {statistics.median(runner.setup_times):.4f} s wall, "
                     f"{setup_med:.4f} reference s, over {len(runner.setup_times)} "
                     "interpreters")
        lines.append(f"# reference kernel: median {statistics.median(refs):.4f} s "
                     f"over {len(refs)} calls")
        lines.append("# timeline " + json.dumps(runner.timeline))
    lines += [f"# FAILED {p}" for p in runner.problems]
    return lines


def main(argv=None) -> int:
    pin_blas_threads()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    cli = load_cli()
    if cli is None:
        print(f"perfbench: capaf sources not found under {SRC}", file=sys.stderr)
        return 2
    steps = WORKLOADS[args.workload]
    print("# env " + json.dumps(environment(args.workload, steps, args.seed)))
    out = run_workload(cli, args.workload, steps, args.seed, args.seconds,
                       bool(args.trace))
    print("\n".join(describe(out["runner"])))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
