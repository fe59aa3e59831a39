"""Library functions return values; the verify suites check them.

No module of the package may check itself with an ``assert`` statement
or by raising ``AssertionError``. Checking code lives in ``verify.py``:
every public top-level function or class of a library module is either
exported in ``toricpeaks.__all__`` or used by another part of the
package, so no oracle that only a check calls sits in the library.
"""

import ast
from pathlib import Path

import toricpeaks

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "toricpeaks"
LIBRARY = ("setcomp", "permstat", "qsym", "dag", "enriched", "orderpoly")
# The benchmark's toric check imports it from ``enriched``; it moves into
# ``verify.py`` once that check uses a verify oracle instead.
ALLOWED = {"enriched.delta_toric_by_rotations"}


def _raises_assertion_error(node: ast.Raise) -> bool:
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_library_has_no_self_checks():
    sites = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
        or (isinstance(node, ast.Raise) and _raises_assertion_error(node))
    ]
    assert sites == []


def _names_used(stmt: ast.stmt) -> set[str]:
    """Every name the statement reads, bare or as an attribute."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(stmt)
        if isinstance(node, (ast.Name, ast.Attribute))
    }


def test_library_surface_is_exported_or_used():
    # A name counts as used when a top-level statement of a package module
    # other than verify.py reads it, its own definition excepted; the CLI
    # counts. ``__init__`` only re-exports, so ``__all__`` stands for it.
    public: list[str] = []
    used: set[str] = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem in ("__init__", "verify"):
            continue
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            name = getattr(stmt, "name", None)
            if path.stem in LIBRARY and name and not name.startswith("_"):
                public.append(f"{path.stem}.{name}")
            used |= _names_used(stmt) - {name}
    unused = [
        name
        for name in public
        if name.split(".")[1] not in set(toricpeaks.__all__) | used and name not in ALLOWED
    ]
    assert unused == []
