"""README.md names library functions and constants as `module.name`, and
it and the sources name fields of ``Problem.bits`` as `bits.name`; each
must exist, so a rename cannot leave the README pointing at nothing."""

import importlib
import pkgutil
import re
from pathlib import Path

import indexcode
from indexcode.problem import HypergraphBits

README = Path(__file__).resolve().parent.parent / "README.md"
SOURCES = Path(indexcode.__file__).resolve().parent


def readme_code_names():
    """Every backticked `module.name` in README.md whose module is one of
    indexcode's, as (module, name), sorted."""
    modules = {m.name for m in pkgutil.iter_modules(indexcode.__path__)}
    found = re.findall(r"`([a-z]+)\.([A-Za-z_]\w*)`", README.read_text(encoding="utf-8"))
    return sorted({(module, name) for module, name in found if module in modules})


def test_readme_code_names_exist():
    names = readme_code_names()
    assert len(names) >= 15  # e.g. problem._pairs, structure.triangles_past, cli.JSON_TRIANGLE_LIMIT
    for module, _ in names:
        importlib.import_module(f"indexcode.{module}")  # cli is not imported by the package itself
    missing = [f"{module}.{name}" for module, name in names if not hasattr(getattr(indexcode, module), name)]
    assert not missing, f"README.md names what indexcode does not have: {missing}"


def test_backticked_bits_names_are_fields():
    # README.md writes `bits.name` and the sources ``bits.name``, either
    # maybe as `Problem.bits.name`: a removed field must leave no mention
    found = {("README.md", name) for name in re.findall(r"`(?:\w+\.)?bits\.(\w+)", README.read_text("utf-8"))}
    for path in sorted(SOURCES.glob("*.py")):
        found |= {(path.name, name) for name in re.findall(r"``(?:\w+\.)?bits\.(\w+)", path.read_text("utf-8"))}
    assert len(found) >= 12  # e.g. README.md and structure.py both name bits.scan
    missing = sorted(f"{where}: bits.{name}" for where, name in found if name not in HypergraphBits._fields)
    assert not missing, f"bits has no such field: {missing}"
