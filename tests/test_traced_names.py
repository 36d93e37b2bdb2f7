"""Lists of names kept apart from the code they name, the benchmark tracer's
and ``capaf.__all__``, must name only what capaf still has, and the tracer's
observers must read what capaf's functions return."""

import collections
import importlib
import importlib.util
import math
import sys
from pathlib import Path

import pytest

import capaf
from capaf import cli

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("_perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their defining module up in sys.modules
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_traced_name_resolves_on_its_capaf_module(spans):
    missing = []
    for mod_name, names in spans.TRACED.items():
        module = importlib.import_module(f"capaf.{mod_name}")
        missing += [f"capaf.{mod_name}.{name}" for name in names
                    if not callable(getattr(module, name, None))]
    assert not missing, f"traced but gone: {missing}"


def test_every_exported_name_resolves_once():
    missing = [name for name in capaf.__all__ if not hasattr(capaf, name)]
    twice = [name for name, n in collections.Counter(capaf.__all__).items() if n > 1]
    assert not missing, f"exported but gone: {missing}"
    assert not twice, f"exported twice: {twice}"


def test_every_observer_counts_a_real_result(spans, tmp_path):
    g = capaf.build_grid(1.2, 16, 16)
    # A large amplitude makes random_body halve it, so halvings is not 0.
    body = capaf.random_body(g, 1, amplitude=4.0)
    capaf.save_body(body, tmp_path / "body.json")
    patch = capaf.embed(g, body)
    capaf.export_mesh(patch, path=tmp_path / "patch.obj")
    report = cli.write_report(tmp_path, "x_report", {"a": 1}, None, False)
    calls = {
        "capfun.random_body": ((g, 1), {"amplitude": 4.0}, body),
        "capfun.save_body": ((body, tmp_path / "body.json"), {}, None),
        "spectral.spectrum": ((), {}, capaf.spectrum(capaf.WeightedSpace(g, capaf.ell(g)))),
        "reconstruct.export_mesh": ((patch,), {"path": tmp_path / "patch.obj"}, None),
        "cli.write_report": ((tmp_path, "x_report"), {}, report),
        "cli.run_indexed": ((3, abs, 2), {}, cli.run_indexed(3, abs, 2)),
    }
    assert set(calls) == set(spans.OBSERVERS)
    counts = {name: spans.OBSERVERS[name](*call) for name, call in calls.items()}
    for name, attrs in counts.items():
        assert attrs, name
        for key, value in attrs.items():
            assert isinstance(value, int) and math.isfinite(value) and value >= 0, (name, key)
    assert counts["capfun.random_body"]["halvings"] > 0
    assert counts["spectral.spectrum"]["n_unknowns"] == g.n_rho * g.n_phi
    assert counts["cli.run_indexed"]["workers"] == 2
