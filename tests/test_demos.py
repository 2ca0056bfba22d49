"""Every narrative script in demos/ and the README's library quickstart run to completion."""

import re
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_exist():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out


def test_readme_library_quickstart_runs_as_written(capsys):
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Library quickstart\n\n```python\n(.*?)```", text, re.S).group(1)
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    audit = namespace["audit"]
    assert audit.violations == () and audit.refit_residual < 1e-12
    assert len(capsys.readouterr().out.splitlines()) == 4  # three ranked pairs, then the audit
