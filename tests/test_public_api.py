"""The package's export list, and the README's library quick start.

__all__ must name exactly the public names that __init__.py binds, each
once, so that a new public function cannot be left out of it. The names
bound are read from the import statements and definitions of
__init__.py, so the submodules the imports bind as a side effect do not
count. The quick start runs as written, and the README's Layout block
names every module of the package.
"""

import ast
import re
from pathlib import Path

import matroidalkit

ROOT = Path(__file__).resolve().parent.parent
INIT = Path(matroidalkit.__file__)


def bound_names(source):
    """The names that the top-level statements of a module bind."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return names


def test_every_exported_name_resolves():
    missing = [name for name in matroidalkit.__all__ if not hasattr(matroidalkit, name)]
    assert missing == []


def test_no_name_is_exported_twice():
    assert len(set(matroidalkit.__all__)) == len(matroidalkit.__all__)


def test_every_public_binding_is_exported():
    public = {name for name in bound_names(INIT.read_text())
              if not name.startswith("_")}
    assert public == set(matroidalkit.__all__)
    assert "betti_table" in public


def test_readme_quick_start_runs():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Library quick start\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.DOTALL)
    assert len(blocks) == 2
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


def test_readme_layout_names_every_module():
    readme = (ROOT / "README.md").read_text()
    block = readme.split("\n## Layout\n", 1)[1].split("```", 2)[1]
    lines = block.strip().splitlines()
    assert lines[0] == "src/matroidalkit/"
    listed = [line.split()[0] for line in lines[1:]]
    modules = sorted(path.name for path in INIT.parent.glob("*.py") if path != INIT)
    assert sorted(listed) == modules
