"""Source-layout rules checked on the syntax tree of the package: modules
use each other only through public names, functions merged into a single
builder stay merged, and exact matrices are read and built through their
methods, never through a `.data` attribute."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "nilcollapse"
MODULES = sorted(SRC.glob("*.py"))

# each was a second construction of an object that now has one builder
MERGED = {
    "compound_exact", "_det_exact",          # -> lie.compound_matrix
    "contraction_matrix",                    # -> spectral.contraction_blocks
    "generalized_one_eigenspace_dim",        # -> joint_..._dim([Phi])
    "_assemble", "_spot_dims", "_page_map",  # -> BigradedComplex.block
    "_row_echelon",                          # -> numerics.row_reduce
    "_rational",                             # -> RationalMatrix(rows)
    "stabilization_index", "e_infinity",     # -> spectral_sequence(cx)
    "verify_page_recursion", "total_cohomology",
    "classify_obstruction",                  # -> classify_obstructions(degrees)
}


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def test_source_modules_found():
    assert {p.stem for p in MODULES} >= {"numerics", "lie", "spectral",
                                         "superconnection", "lab", "cli"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_imports_from_sibling_modules(path):
    bad = []
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("nilcollapse")):
            bad += [f"line {node.lineno}: {alias.name}" for alias in node.names
                    if alias.name.startswith("_")]
    assert not bad, f"{path.name} imports private names: {bad}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_merged_builders_stay_deleted(path):
    defined = set()
    for node in ast.walk(_tree(path)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            defined.add(node.id)
    assert not defined & MERGED, f"{path.name} defines {defined & MERGED}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_data_attribute(path):
    # RationalMatrix keeps sparse rows: a write into a dense `.data` copy
    # would be lost without an error
    bad = [f"line {node.lineno}" for node in ast.walk(_tree(path))
           if isinstance(node, ast.Attribute) and node.attr == "data"]
    assert not bad, f"{path.name} uses a .data attribute: {bad}"
