"""The README's Python quickstart runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_the_python_quickstart_runs(tmp_path, monkeypatch):
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Python quickstart\n\n```python\n(.*?)```", text, re.S).group(1)
    monkeypatch.chdir(tmp_path)
    exec(compile(block, "README.md (Python quickstart)", "exec"), {})
    assert (tmp_path / "body.obj").stat().st_size > 0
