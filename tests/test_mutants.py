"""Mutants of the program, each run through a command that must fail a named gate.

A mutant replaces one function with a subtly wrong copy.  A gate that no
mutant fails is not known to check anything, so each row here pins which
gates see the mutant.
"""

import json

import pytest

import capaf
from capaf import cli
from capaf.capgrid import ShapeTensor

STEINER = ["steiner", "--theta", "2.2", "--grid", "64x64", "--seed", "1"]


def shape_mutant(change):
    """capfun.a_of with its planes passed through change."""
    real = capaf.capfun.a_of
    return lambda grid, values: ShapeTensor(*change(real(grid, values)))


# The slot swaps against the cap read the body's tensor against the cap's, so
# a tensor scaled on both sides leaves them at 3.2e-8 to 1.8e-7; only the
# Minkowski identities, which hold the exact cap tensor I, see it (1.0e-3 for
# the uniform scale, 5.0e-4 for pp, against a bound of 1.58e-4).  Zeroing the
# off-diagonal moves the t swap to 2.1e-4 and minkowski_k2 to 6.2e-4.
@pytest.mark.parametrize("change, failed", [
    (lambda A: A, []),
    (lambda A: (A.rr * (1 + 1e-3), A.rp * (1 + 1e-3), A.pp * (1 + 1e-3)),
     ["minkowski_k1", "minkowski_k2"]),
    (lambda A: (A.rr, A.rp, A.pp * (1 + 1e-3)), ["minkowski_k1", "minkowski_k2"]),
    (lambda A: (A.rr, 0.0 * A.rp, A.pp), ["max_rel_err", "minkowski_k2"]),
], ids=["exact", "scaled", "pp-scaled", "rp-zeroed"])
def test_steiner_gates_see_shape_tensor_mutants(tmp_path, monkeypatch, change, failed):
    monkeypatch.setattr(capaf.capfun, "a_of", shape_mutant(change))
    assert cli.main([*STEINER, "--out", str(tmp_path)]) == (
        cli.EXIT_BREACH if failed else cli.EXIT_OK)
    rep = json.loads((tmp_path / "steiner_report.json").read_text())
    assert [g["name"] for g in rep["gates"] if not g["passed"]] == failed
