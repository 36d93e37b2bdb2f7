"""Lists of names kept apart from the code they name, the benchmark tracer's
and ``capaf.__all__``, must name only what capaf still has."""

import collections
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import capaf

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def traced():
    spec = importlib.util.spec_from_file_location("_perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their defining module up in sys.modules
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module.TRACED


def test_every_traced_name_resolves_on_its_capaf_module(traced):
    missing = []
    for mod_name, names in traced.items():
        module = importlib.import_module(f"capaf.{mod_name}")
        missing += [f"capaf.{mod_name}.{name}" for name in names
                    if not callable(getattr(module, name, None))]
    assert not missing, f"traced but gone: {missing}"


def test_every_exported_name_resolves_once():
    missing = [name for name in capaf.__all__ if not hasattr(capaf, name)]
    twice = [name for name, n in collections.Counter(capaf.__all__).items() if n > 1]
    assert not missing, f"exported but gone: {missing}"
    assert not twice, f"exported twice: {twice}"
