"""The README's library and configuration examples run as written."""

import re
from pathlib import Path

from hetcov.model import default_scenario, load_config

README = Path(__file__).resolve().parents[1] / "README.md"


def code_block(heading: str, language: str = "python") -> str:
    """The first fenced block in `language` under the README's `## heading`."""
    section = README.read_text().split(f"\n## {heading}\n", 1)[1]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def test_library_use_block_runs(capsys):
    exec(compile(code_block("Library use"), "README.md", "exec"), {})
    cov, mc_value, half = (float(v) for v in capsys.readouterr().out.split())
    assert 0.0 < half < 0.02
    assert abs(cov - mc_value) < 0.03


def test_scenario_configuration_block_loads(tmp_path):
    path = tmp_path / "scenario.ini"
    path.write_text(code_block("Scenario configuration", "ini"))
    assert load_config(str(path)) == default_scenario()
