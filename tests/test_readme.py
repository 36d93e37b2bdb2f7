"""The README's Python quickstart runs as written, its command lines parse, and
its known breaches hold."""

import json
import re
import shlex
from pathlib import Path

import pytest

from capaf import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_the_python_quickstart_runs(tmp_path, monkeypatch):
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Python quickstart\n\n```python\n(.*?)```", text, re.S).group(1)
    monkeypatch.chdir(tmp_path)
    exec(compile(block, "README.md (Python quickstart)", "exec"), {})
    assert (tmp_path / "body.obj").stat().st_size > 0


def test_every_documented_command_line_parses():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Command line\n\n```sh\n(.*?)```", text, re.S).group(1)
    lines = [shlex.split(line, comments=True) for line in block.splitlines()]
    assert lines and all(words[0] == "capaf" for words in lines)
    parser = cli.build_parser()
    for words in lines:
        try:
            args = parser.parse_args(words[1:])
        except SystemExit:
            pytest.fail(f"README command line does not parse: {shlex.join(words)}")
        assert args.command == words[1]


def _known_breaches() -> dict:
    """The README's known-breaches table: (theta, grid) -> failed gates."""
    text = README.read_text(encoding="utf-8")
    section = re.search(r"### Known breaches\n(.*?)\n## ", text, re.S).group(1)
    table = {}
    rows = re.findall(r"^\| ([\d.]+) \| ([^|]+) \| ([^|]+) \|$", section, re.M)
    for theta, grids, failed in rows:
        for g in grids.split(","):
            table[(theta, g.strip())] = [name.strip() for name in failed.split(",")]
    return table


@pytest.mark.parametrize("theta", ["0.05", "0.3", "1.2", "1.57", "2.2", "3.0"])
@pytest.mark.parametrize("grid", ["16x16", "24x24", "40x48", "64x64", "128x128"])
def test_the_cap_spectrum_breaches_exactly_where_the_readme_says(tmp_path, capsys, theta, grid):
    code = cli.main(["spectrum", "--theta", theta, "--grid", grid, "--out", str(tmp_path)])
    capsys.readouterr()
    report = json.loads((tmp_path / "spectrum_report.json").read_text())
    failed = [gate["name"] for gate in report["gates"] if not gate["passed"]]
    expected = _known_breaches().get((theta, grid), [])
    assert failed == expected
    assert code == (2 if expected else 0)
