"""Source-layout rules checked on the syntax tree of the package: modules
use each other only through public names, functions merged into a single
builder stay merged, exact matrices are read and built through their
methods, never through a `.data` attribute, the superconnection layer
converts holonomy actions that `spectral` built exactly instead of building
its own, only the equivariant metric takes a matrix logarithm, every
spectrum comes from one of two solvers, and the exact layer `spectral`
decides nothing by a float rank or eigenvalue."""

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
    "_num_matrix",                           # -> RationalMatrix(rows)
    "circle_bundle_model",                   # -> from_affine_bundle(abelian(1), T)
    "_invariant_sector_dims", "_invariant_betti",  # -> AffineModel(F=...)
    "invariant_projector",                   # -> FiniteSymmetryGroup.invariant_forms
    "sym_eig", "gen_sym_eig", "EigenResult",  # -> numerics.lowest_eigenvalues
    "_integer", "_to_fraction",              # -> numerics.integer, .rational
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


def _called_name(call):
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(
        func, "id", None)


def _callers(name):
    """(module, class or None, function) around each call of `name`."""
    out = set()
    for path in MODULES:
        parents = {child: node for node in ast.walk(_tree(path))
                   for child in ast.iter_child_nodes(node)}
        for node in parents:
            if isinstance(node, ast.Call) and _called_name(node) == name:
                fn = node
                while fn in parents and not isinstance(fn, ast.FunctionDef):
                    fn = parents[fn]
                owner = parents.get(fn)
                out.add((path.name, getattr(owner, "name", None),
                         getattr(fn, "name", None)))
    return out


def test_superconnection_builds_no_holonomy_action():
    # the action of a holonomy on forms is built once, exactly, by
    # spectral.AffineModel: superconnection.py expands no compound, and a
    # function that builds a bundle or superconnection inverts no matrix
    tree = _tree(SRC / "superconnection.py")
    bad = [f"line {node.lineno}" for node in ast.walk(tree)
           if isinstance(node, (ast.Name, ast.Attribute))
           and "compound_matrix" in (getattr(node, "id", None),
                                     getattr(node, "attr", None))]
    builders = 0
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        calls = [n for n in ast.walk(fn) if isinstance(n, ast.Call)]
        if not {"GradedBundle", "Superconnection"} & {
                _called_name(c) for c in calls}:
            continue
        builders += 1
        bad += [f"{fn.name}, line {c.lineno}" for c in calls
                if _called_name(c) in ("inv", "pinv", "inverse_exact")]
    assert builders >= 2  # from_affine_bundle and load_bundle at least
    assert not bad, f"superconnection.py builds holonomy actions: {bad}"


def test_logarithms_taken_only_by_the_equivariant_metric():
    # logm is the costliest call of a sweep point: MetricField.equivariant
    # is its one caller, and a monodromy sweep carries the logarithm it took
    # at the first point instead of taking another one per point
    assert _callers("logm") == {
        ("superconnection.py", "MetricField", "equivariant")}
    gauged = [fn for fn in ast.walk(_tree(SRC / "lab.py"))
              if isinstance(fn, ast.FunctionDef) and fn.name == "gauged"]
    assert len(gauged) == 1
    assert not {"logm", "equivariant"} & {
        _called_name(c) for c in ast.walk(gauged[0]) if isinstance(c, ast.Call)}


def test_float_eigensolves_only_in_their_owners():
    # a spectrum comes from numerics.lowest_eigenvalues or from the batched
    # Bloch blocks; the other two calls are a matrix power and a norm
    callers = set().union(*map(_callers, ("eigvalsh", "eigh", "eigsh")))
    assert callers == {
        ("numerics.py", None, "lowest_eigenvalues"),
        ("superconnection.py", "DiscreteComplex", "bloch_eigenvalues"),
        ("superconnection.py", None, "_spd_power"),
        ("superconnection.py", "DiscreteComplex", "operator_norm"),
    }


def test_spectral_makes_no_float_linear_algebra():
    # every rank, eigenspace and sector dimension in spectral.py is exact;
    # a float rank or eigenvalue call there is a tolerance call in disguise
    bad = [f"line {node.lineno}" for node in ast.walk(_tree(SRC / "spectral.py"))
           if isinstance(node, ast.Attribute) and node.attr == "linalg"]
    assert not bad, f"spectral.py uses numpy/scipy linalg: {bad}"
