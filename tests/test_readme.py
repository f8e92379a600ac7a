"""The README's documented examples run against the package as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_api_example_runs(capsys):
    # the block under "Python API" drifts from the code unnoticed otherwise
    section = README.read_text(encoding="utf-8").split("\n## Python API\n")[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    printed = capsys.readouterr().out.split()
    assert printed
    assert all(float(value) >= 0.0 for value in printed)
