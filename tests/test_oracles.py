"""The test oracles stay independent of the code they check."""

import ast
from pathlib import Path

ORACLES = Path(__file__).resolve().parent / "oracles.py"

# nrsim's rating internals: what selection and the sweep compute ratings with.
RATING_INTERNALS = {"_sweep", "_mmse_error", "_effective_sinr", "_precoded_sinr", "_cqi",
                    "_choose", "_logdet_capacity", "_select_type1", "_select_type2",
                    "_gram_plan", "_rate_pairs"}


def _names(tree):
    """Every name the module imports, reads or reads as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield from alias.name.split(".")
        elif isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_oracles_use_no_rating_internals():
    """An oracle that imported, say, _cqi would check the sweep's CQI
    mapping against itself."""
    used = set(_names(ast.parse(ORACLES.read_text(encoding="utf-8"))))
    assert not used & RATING_INTERNALS, sorted(used & RATING_INTERNALS)


def test_guard_sees_imports_and_attributes():
    for source in ("from nrsim.csi import _cqi", "import nrsim.csi as c\nc._sweep(1, 2)",
                   "from nrsim import csi\nf = csi._choose"):
        assert set(_names(ast.parse(source))) & RATING_INTERNALS, source
