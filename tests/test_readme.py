"""The README's "Library" example runs as written, from the repository root."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def library_example() -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs(monkeypatch):
    monkeypatch.chdir(ROOT)
    code = library_example()
    assert code.count("assert ") == 7
    exec(compile(code, "README.md", "exec"), {})
