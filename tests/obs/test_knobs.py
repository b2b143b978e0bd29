"""Every ``REPRO_*`` environment knob the package reads is documented.

The knobs are collected from the source with :mod:`ast`: each
``REPRO_*`` string literal passed as the first argument to one of the
shared readers (``env_int``, ``env_float``, ``env_truthy``, also under
a leading-underscore import alias) or to ``os.environ.get``.  Each must
appear verbatim in ``README.md`` or a ``docs/*.md`` page, so a knob
cannot be added, or a documented one renamed, without the docs.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
PACKAGE = ROOT / "src" / "repro"
READERS = frozenset({"env_int", "env_float", "env_truthy"})


def _is_environ_get(func: ast.expr) -> bool:
    return (
        isinstance(func, ast.Attribute)
        and func.attr == "get"
        and isinstance(func.value, ast.Attribute)
        and func.value.attr == "environ"
        and isinstance(func.value.value, ast.Name)
        and func.value.value.id == "os"
    )


def _is_reader(func: ast.expr) -> bool:
    return isinstance(func, ast.Name) and func.id.lstrip("_") in READERS


def knobs_read() -> dict[str, str]:
    """``{knob: "relative/path.py:line"}`` for every literal knob read in the package."""
    found: dict[str, str] = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and node.args):
                continue
            first = node.args[0]
            if not (isinstance(first, ast.Constant) and isinstance(first.value, str)):
                continue
            if not first.value.startswith("REPRO_"):
                continue
            if _is_reader(node.func) or _is_environ_get(node.func):
                found.setdefault(first.value, f"{path.relative_to(PACKAGE)}:{node.lineno}")
    return found


def _documentation() -> str:
    pages = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]
    return "\n".join(page.read_text(encoding="utf-8") for page in pages)


def test_every_knob_read_is_documented():
    knobs = knobs_read()
    # One known knob per reader form, so a collector that stops seeing
    # a form fails here instead of passing on an empty inventory.
    for name in ("REPRO_OBS", "REPRO_SERVING_PORT", "REPRO_LIVE_SLO_P95_MS", "REPRO_AUDIT_LOG"):
        assert name in knobs, name
    docs = _documentation()
    undocumented = {name: where for name, where in knobs.items() if name not in docs}
    assert not undocumented, f"knobs missing from README.md / docs/*.md: {undocumented}"
