"""The README's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def python_block(heading: str) -> str:
    """The first ```python block under the README's `## heading`."""
    section = README.read_text().split(f"\n## {heading}\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_use_block_runs(capsys):
    exec(compile(python_block("Library use"), "README.md", "exec"), {})
    cov, mc_value, half = (float(v) for v in capsys.readouterr().out.split())
    assert 0.0 < half < 0.02
    assert abs(cov - mc_value) < 0.03
