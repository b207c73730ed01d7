"""Every backticked `module.name` that the documentation cites names
something the module has: README.md, docs/formats.md and the docstrings
of the package, so a renamed or deleted name cannot stay cited."""

import ast
import importlib
import re
from pathlib import Path

import fractalkin

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path(fractalkin.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")
#: `module.name` in backticks; `module.py`, a file name, is not a reference
REFERENCE = re.compile(r"`(%s)\.(\w+)`" % "|".join(MODULES))


def docstrings(path: Path) -> str:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    kinds = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    return "\n".join(filter(None, (ast.get_docstring(node) for node in ast.walk(tree)
                                   if isinstance(node, kinds))))


def cited() -> list[tuple[str, str, str]]:
    texts = {name: (ROOT / name).read_text(encoding="utf-8")
             for name in ("README.md", "docs/formats.md")}
    texts.update((f"{path.name} docstrings", docstrings(path))
                 for path in sorted(PACKAGE.glob("*.py")))
    return [(where, module, name) for where, text in texts.items()
            for module, name in REFERENCE.findall(text) if name != "py"]


def test_every_cited_module_name_exists():
    refs = cited()
    assert len(refs) >= 20  # the pattern still finds the citations
    missing = [ref for ref in refs
               if not hasattr(importlib.import_module(f"fractalkin.{ref[1]}"), ref[2])]
    assert missing == []
