"""Property tests over contact angles, grid sizes and seeds."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import capaf
from capaf import cli

THETAS = st.floats(0.05, math.pi - 0.05)
GRIDS = st.tuples(st.integers(8, 24), st.integers(4, 12).map(lambda k: 2 * k))
SEEDS = st.integers(0, 2**32 - 1)
# derandomize keeps the suite reproducible; the draws still cover the ranges.
SETTINGS = dict(deadline=None, derandomize=True, database=None)


def _refuse(constant):
    raise ValueError(f"{constant} is not strict JSON")


@settings(max_examples=60, **SETTINGS)
@given(theta=THETAS, grid=GRIDS, seed=SEEDS,
       bad=st.sampled_from([math.nan, math.inf, -math.inf]),
       where=st.tuples(*[st.floats(0, 1, exclude_max=True)] * 2))
def test_certify_returns_a_body_or_raises_value_error(theta, grid, seed, bad, where):
    g = capaf.build_grid(theta, *grid)
    rng = np.random.default_rng(seed)
    fields = [capaf.random_capillary_field(g, seed).values,
              capaf.ell_values(g) + rng.normal(0.0, rng.uniform(0.0, 2.0), g.node_shape)]
    for values in fields:
        try:
            body = capaf.certify(g, values)
        except ValueError as exc:
            assert str(exc).startswith("certification failed: ")
        else:
            assert isinstance(body, capaf.CapillaryBody)
        j, k = (int(w * n) for w, n in zip(where, g.node_shape))
        values[j, k] = bad
        with pytest.raises(ValueError, match="non-finite"):
            capaf.certify(g, values)


@settings(max_examples=8, **SETTINGS)
@given(theta=THETAS, grid=GRIDS, seed=SEEDS)
def test_every_report_is_strict_json(tmp_path_factory, theta, grid, seed):
    out = tmp_path_factory.mktemp("report")
    rc = cli.main(["report", f"--theta={theta!r}", "--grid={}x{}".format(*grid),
                   f"--seed={seed}", "--trials=1", f"--out={out}"])
    assert rc in (cli.EXIT_OK, cli.EXIT_BREACH)
    reports = sorted(out.rglob("*_report.json"))
    assert len(reports) == 8
    for path in reports:
        json.loads(path.read_text(), parse_constant=_refuse)
