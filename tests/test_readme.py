"""README.md names library functions and constants as `module.name`; each
must exist, so a rename cannot leave the README pointing at nothing."""

import importlib
import pkgutil
import re
from pathlib import Path

import indexcode

README = Path(__file__).resolve().parent.parent / "README.md"


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
