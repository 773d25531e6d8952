"""README's library-use example runs as printed and gives the numbers it quotes."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_example(capsys):
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace: dict = {}
    exec(compile(code, str(README), "exec"), namespace)
    report = namespace["report"]
    assert report.violated
    assert report.lhs == pytest.approx(2.0289, abs=5e-5)
    assert capsys.readouterr().out.split()[1:] == ["2.0", "True"]
