"""Span tracer that times capaf's public functions from outside the package.

Each traced function is replaced, on every ``capaf`` module that holds it by
name, with a wrapper that records a span (name, start, end, thread, parent,
and the thread's CPU time at start and end) and passes arguments and results through unchanged.  ``WeightedSpace`` is a
class, so its ``__init__`` is wrapped instead.  Spans stay in memory until the
run ends; per-layer metrics are computed from them afterwards.

Work done in ``cli.run_indexed`` worker threads has no parent on its own
thread; it is attributed to the ``run_indexed`` span that fanned it out.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import sys
import threading
import time
from dataclasses import dataclass, field

# Functions traced per module: the layers of the per-layer metrics.
TRACED = {
    "capgrid": ["build_grid", "a_of"],
    "capfun": ["random_body", "random_capillary_field", "certify",
               "enforce_contact_angle", "save_body", "load_body"],
    "mixedvol": ["mixed_volume", "quermassintegral", "quermass_report",
                 "steiner_check"],
    "spectral": ["WeightedSpace", "af_check", "equality_decompose",
                 "quermass_chain_check", "assemble_operator", "spectrum"],
    "reconstruct": ["embed", "export_mesh"],
    "cli": ["cmd_gen", "cmd_quermass", "cmd_af", "cmd_chain", "cmd_spectrum",
            "cmd_steiner", "cmd_reconstruct", "cmd_report", "write_report",
            "run_indexed"],
}

SPAN_NAMES = [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    thread: int
    start: float
    cpu_start: float
    end: float = math.nan
    cpu_end: float = math.nan
    attrs: dict = field(default_factory=dict)


def _path_arg(args, kwargs, index):
    return kwargs["path"] if "path" in kwargs else args[index]


def _observe_random_body(args, kwargs, result):
    params = result.provenance["params"]
    amp, eff = params["amplitude"], params["effective_amplitude"]
    halvings = round(math.log2(amp / eff)) if amp > 0 and eff > 0 else 0
    return {"halvings": halvings}


def _observe_run_indexed(args, kwargs, result):
    count, threads = args[0], args[2]
    return {"workers": max(1, min(threads, count))}


# Read-only observers: they look at a call's arguments and result after the
# span has ended and return exact counts to attach to it.
OBSERVERS = {
    "capfun.random_body": _observe_random_body,
    "capfun.save_body": lambda a, k, r: {"bytes": os.path.getsize(_path_arg(a, k, 1))},
    "spectral.spectrum": lambda a, k, r: {"n_unknowns": r.n_unknowns},
    "reconstruct.export_mesh": lambda a, k, r: {"bytes": os.path.getsize(_path_arg(a, k, 1))},
    "cli.write_report": lambda a, k, r: {"bytes": os.path.getsize(r)},
    "cli.run_indexed": _observe_run_indexed,
}
COUNTED = [("capfun.random_body", "halvings"), ("capfun.save_body", "bytes"),
           ("spectral.spectrum", "n_unknowns"), ("reconstruct.export_mesh", "bytes"),
           ("cli.write_report", "bytes"), ("cli.run_indexed", "workers")]


class Tracer:
    """Installs the wrappers, collects spans, and removes the wrappers again."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._fanout: int | None = None
        self._undo: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        observe = OBSERVERS.get(name)
        fanout = name == "cli.run_indexed"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else self._fanout
            span = Span(next(self._ids), parent, name, threading.get_ident(),
                        time.perf_counter(), time.thread_time())
            stack.append(span.id)
            if fanout:
                saved_fanout, self._fanout = self._fanout, span.id
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                span.cpu_end = time.thread_time()
                stack.pop()
                if fanout:
                    self._fanout = saved_fanout
                # list.append is atomic under the GIL, so worker threads may
                # record concurrently.
                self.spans.append(span)
            if observe is not None:
                span.attrs = observe(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "capaf" or n.startswith("capaf."))]
        for mod_name, fns in TRACED.items():
            home = sys.modules[f"capaf.{mod_name}"]
            for fn_name in fns:
                original = getattr(home, fn_name)
                name = f"{mod_name}.{fn_name}"
                if isinstance(original, type):
                    init = original.__init__
                    original.__init__ = self.wrap(name, init)
                    self._undo.append((original, "__init__", init))
                    continue
                wrapped = self.wrap(name, original)
                for mod in modules:
                    if getattr(mod, fn_name, None) is original:
                        setattr(mod, fn_name, wrapped)
                        self._undo.append((mod, fn_name, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


# -- analysis -------------------------------------------------------------------

def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals (children may overlap across threads)."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the time its child spans cover, per span id."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.id: (s.end - s.start) - _covered(children.get(s.id, []))
            for s in spans}


def check_tree(spans: list[Span], slack: float = 1e-6) -> list[str]:
    """Problems with the span tree: unknown parents, children outside their
    parent, negative self time.  Empty when the tree is well formed."""
    by_id = {s.id: s for s in spans}
    problems = []
    for s in spans:
        if not s.end >= s.start:
            problems.append(f"{s.name}#{s.id}: end before start")
        if s.parent is None:
            continue
        p = by_id.get(s.parent)
        if p is None:
            problems.append(f"{s.name}#{s.id}: parent {s.parent} missing")
        elif s.start < p.start - slack or s.end > p.end + slack:
            problems.append(f"{s.name}#{s.id}: outside parent {p.name}#{p.id}")
    for sid, t in self_times(spans).items():
        if t < -slack:
            problems.append(f"{by_id[sid].name}#{sid}: self time {t:.3g} < 0")
    return problems


def _descendant_counts(spans: list[Span], ancestor: str, name: str) -> int:
    """Number of `name` spans that have an `ancestor` span above them."""
    by_id = {s.id: s for s in spans}
    n = 0
    for s in spans:
        if s.name != name:
            continue
        p = s.parent
        while p is not None:
            if by_id[p].name == ancestor:
                n += 1
                break
            p = by_id[p].parent
    return n


def layer_counts(spans: list[Span]) -> dict[str, int]:
    """Exact counts of one traced sample: these repeat exactly between runs of
    the same code on the same seed."""
    out = {f"{n}.calls": 0 for n in SPAN_NAMES}
    out.update({f"{n}.{k}": 0 for n, k in COUNTED})
    for s in spans:
        out[f"{s.name}.calls"] += 1
        for key, value in s.attrs.items():
            out[f"{s.name}.{key}"] += value
    out["spectral.af_check.a_of_calls"] = _descendant_counts(
        spans, "spectral.af_check", "capgrid.a_of")
    out["mixedvol.mixed_volume.a_of_calls"] = _descendant_counts(
        spans, "mixedvol.mixed_volume", "capgrid.a_of")
    return out


def layer_times(spans: list[Span]) -> dict[str, float]:
    """Busy time per traced function in one sample: total (inclusive) and self,
    plus the trial CPU time and worker-seconds of run_indexed fan-outs."""
    out = {f"{n}.{k}": 0.0 for n in SPAN_NAMES for k in ("total_s", "self_s")}
    selfs = self_times(spans)
    for s in spans:
        out[f"{s.name}.self_s"] += selfs[s.id]
        out[f"{s.name}.total_s"] += s.end - s.start
    # Fan-outs with more than one worker: CPU time of the trials (the direct
    # children) against the worker-seconds the pool held.  Wall time of a
    # trial would include its wait for the GIL.
    trial_cpu_s = worker_s = 0.0
    for s in spans:
        if s.name == "cli.run_indexed" and s.attrs["workers"] > 1:
            worker_s += s.attrs["workers"] * (s.end - s.start)
            trial_cpu_s += sum(c.cpu_end - c.cpu_start for c in spans
                               if c.parent == s.id)
    out["cli.run_indexed.trial_cpu_s"] = trial_cpu_s
    out["cli.run_indexed.worker_s"] = worker_s
    return out
