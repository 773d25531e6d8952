"""Every public function or class in src/ has a caller outside tests: the package
exports it, the console script names it, or other source code uses it."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hyperon_leggett"


def test_every_public_definition_is_used_outside_tests():
    sources = {path: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    unused = []
    for path, text in sources.items():
        for node in ast.parse(text).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                own = ast.get_source_segment(text, node)
                rest = "".join(sources.values()).replace(own, "", 1) + pyproject
                if not re.search(rf"\b{node.name}\b", rest):
                    unused.append(f"{path.name}:{node.name}")
    assert unused == []
