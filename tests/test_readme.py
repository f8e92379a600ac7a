"""The README's Python API section runs, and names every exported name."""

import re
from pathlib import Path

import admac

README = Path(__file__).resolve().parent.parent / "README.md"


def python_api_section():
    text = README.read_text(encoding="utf-8").split("\n## Python API\n")[1]
    return text.split("\n## ", 1)[0]


def test_python_api_example_runs(capsys):
    # the block under "Python API" drifts from the code unnoticed otherwise
    section = python_api_section()
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    printed = capsys.readouterr().out.split()
    assert printed
    assert all(float(value) >= 0.0 for value in printed)


def test_every_exported_name_is_documented():
    section = python_api_section()
    undocumented = [name for name in admac.__all__ if name != "__version__"
                    and not re.search(rf"\b{name}\b", section)]
    assert undocumented == []
