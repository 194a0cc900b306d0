"""Source-layout rules checked on the syntax tree of the package: modules
use each other only through public names, functions merged into a single
builder stay merged, exact matrices are read and built through their
methods, never through a `.data` attribute or, outside `numerics`, their
sparse rows, the superconnection layer converts holonomy actions that
`spectral` built exactly instead of building its own, only the equivariant
metric takes a matrix logarithm, every grid matrix is placed by one
block builder, every spectrum comes from one of two solvers, the exact
layer `spectral` decides nothing by a float rank or eigenvalue, flatness
is decided by equality on exact blocks and only by the `Superconnection`
constructor, which every superconnection passes through, equivariance is
checked only by the `MetricField` constructor, which every metric passes
through, and no function takes a `check_*` parameter to skip a check, an
algebra's constants turn to floats only for the curvature command, a float
eigenvalue is zero by one threshold, a scenario's model is read in one
place, an input file is parsed in one place, and the exact modules divide
only through `numerics.ratio`."""

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
    "bundle_sweep", "_run_bundle", "_RUNNERS",  # -> lab.prepare and lab.KINDS
    "load_complex",                          # -> from_dict(read_json(path))
    "total_differential",                    # -> BigradedComplex.block
    "invariant_basis",                       # -> F.invariant_forms
    # only tests called these: oracles moved to tests/oracles.py, the rest
    # is done in the tests themselves
    "leray_circle", "invariant_laplacian", "direct_sum", "save_complex",
    "multiplicities", "load_report", "shifts",
    # pages are read off window ranks; the r-tuple spaces are the tests' oracle
    "_TupleSpace", "quotient_dim",
    # the Laplacian is W^T W + W W^T of the mass-weighted differential W,
    # and every assembled grid matrix is placed by _point_blocks
    "stiffness", "mass_powers", "_mass_blocks", "_block_diag_sparse",
    "_pointwise", "_derivative", "_shift_blocks", "_block_coo",
    # an algebra is exact only: the rescaling solves its exact complex in a
    # rational orthogonal adapted basis, with no float twin beside it
    "ce_matrix", "conjugate", "rescaled_differential", "rescaled_laplacian",
    "_float_colspace",
    # flatness is tested once, exactly, by check_flatness on the blocks
    # both bundle readers hold as RationalMatrix
    "FlatnessReport", "_require_flat",
    # only tests called these: AffineModel(...).actions(b) and
    # predict_small_counts(...)[0] say the same
    "form_action", "predict_small_count",
    # a float eigenvalue is zero by report.ZERO_TOL alone; the largest-gap
    # split and its floor decided nothing
    "gap_split", "SMALL_FLOOR",
    # GradedBundle and Superconnection read their blocks exactly and fill
    # the defaults themselves: no float reader and no second exact reader
    "_blocks", "_floats", "_exact_blocks",
    # every MetricField constructor takes its base and recorded logarithms
    "_with_gauge",
    # a bundle sweep builds one superconnection and one set of logarithms,
    # and each point takes a constant fiber metric: with_fiber(c I) is the
    # conformal metric, and only identity and equivariant record logarithms
    "from_logs", "conformal", "gauged",
    # closeness_epsilon(s1, s2) <= eps is the one comparison
    "epsilon_close",
    # pages are counted off each degree's pivot pairs
    "window_rank", "_window_ranks",
    # only tests called these: oracles.from_numpy and oracles.from_algebra
    "from_numpy", "from_algebra",
    # a point is the 0-torus: nil_rescale solves its sweep through
    # superconnection.spectra like every bundle kind (the float formula is
    # oracles.rescaled_spectrum), and numerics.read_blocks reads every
    # exact block of a bundle or a model complex
    "rescaled_spectrum", "_differentials", "_solve_bundle", "_ratmat",
    "_read_blocks",
}


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


BASE_KINDS = {"point", "circle", "torus2"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_base_kinds_read_only_from_one_table(path):
    # a base is the k-torus of spectral.base_generators(kind): no module
    # compares a kind's name with ==, != or in, so the generator count and
    # everything that depends on it come from the one table
    bad = []
    for node in ast.walk(_tree(path)):
        if not isinstance(node, ast.Compare) or not any(
                isinstance(op, (ast.Eq, ast.NotEq, ast.In, ast.NotIn))
                for op in node.ops):
            continue
        names = {c.value for side in [node.left, *node.comparators]
                 for c in ast.walk(side) if isinstance(c, ast.Constant)}
        if names & BASE_KINDS:
            bad.append(f"line {node.lineno}: {sorted(names & BASE_KINDS)}")
    assert not bad, f"{path.name} compares base-kind names: {bad}"


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
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                            ast.Store):
            defined.add(node.attr)  # a memo such as self._window_ranks
    assert not defined & MERGED, f"{path.name} defines {defined & MERGED}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_data_attribute(path):
    # RationalMatrix keeps sparse rows: a write into a dense `.data` copy
    # would be lost without an error
    bad = [f"line {node.lineno}" for node in ast.walk(_tree(path))
           if isinstance(node, ast.Attribute) and node.attr == "data"]
    assert not bad, f"{path.name} uses a .data attribute: {bad}"


@pytest.mark.parametrize("path", [p for p in MODULES if p.stem != "numerics"],
                         ids=lambda p: p.name)
def test_sparse_rows_read_only_by_numerics(path):
    # the {column: nonzero value} rows are the kernel's format: other
    # modules build and read matrices through RationalMatrix's constructors
    # and `tolist`, which keep every stored value nonzero and of the
    # canonical type, an int or a Fraction with a denominator
    bad = [f"line {node.lineno}" for node in ast.walk(_tree(path))
           if isinstance(node, ast.Attribute) and node.attr == "_nz"]
    assert not bad, f"{path.name} touches RationalMatrix._nz: {bad}"


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


def test_grid_matrices_placed_only_by_point_blocks():
    # the differential and the mass powers are sums of _point_blocks
    # matrices: no block assembly by scipy beside it
    bad = [f"line {node.lineno}: {node.attr}"
           for node in ast.walk(_tree(SRC / "superconnection.py"))
           if isinstance(node, ast.Attribute)
           and node.attr in ("bmat", "kron", "block_diag")]
    assert not bad, f"superconnection.py assembles blocks by scipy: {bad}"
    assert ("superconnection.py", "DiscreteComplex", "differential") in \
        _callers("_point_blocks")


def test_flatness_decided_exactly():
    # check_flatness compares exact blocks by equality: no float constant,
    # no numpy and no float max-norm decides it, and GradedBundle checks
    # shapes and invertibility only, multiplying no monodromies
    tree = _tree(SRC / "superconnection.py")
    check = [fn for fn in tree.body if isinstance(fn, ast.FunctionDef)
             and fn.name == "check_flatness"]
    bundle = [cls for cls in tree.body if isinstance(cls, ast.ClassDef)
              and cls.name == "GradedBundle"]
    assert len(check) == len(bundle) == 1
    bad = [f"line {node.lineno}" for node in ast.walk(check[0])
           if (isinstance(node, ast.Constant) and isinstance(node.value, float))
           or (isinstance(node, ast.Name) and node.id in ("np", "_absmax"))]
    init = [fn for fn in bundle[0].body
            if isinstance(fn, ast.FunctionDef) and fn.name == "__init__"]
    bad += [f"GradedBundle.__init__ line {node.lineno}"
            for node in ast.walk(init[0])
            if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult))
            or (isinstance(node, ast.Call)
                and _called_name(node) in ("dot", "matmul"))]
    assert not bad, f"flatness decided on floats: {bad}"


def test_flatness_tested_only_by_the_superconnection():
    # every superconnection is flat by construction: its constructor is the
    # one caller of check_flatness, and no reader runs a check of its own
    assert _callers("check_flatness") == {
        ("superconnection.py", "Superconnection", "__init__")}


def test_equivariance_checked_only_by_the_metric():
    # every metric is equivariant by construction: its constructor is the
    # one caller of check_equivariance, and no function takes a check_*
    # parameter that could skip this or any other check
    assert _callers("check_equivariance") == {
        ("superconnection.py", "MetricField", "__init__")}
    bad = [f"{path.name} line {node.lineno}: {node.arg}" for path in MODULES
           for node in ast.walk(_tree(path))
           if isinstance(node, ast.arg) and node.arg.startswith("check_")]
    assert not bad, f"parameters that could skip a check: {bad}"


def test_logarithms_taken_only_by_the_equivariant_metric():
    # holonomy logarithms are taken by MetricField.equivariant alone, once
    # per bundle in a monodromy sweep, through _principal_log, which is the
    # one caller of the costly logm and calls it only for a monodromy
    # without a well-conditioned eigenbasis
    assert _callers("_principal_log") == {
        ("superconnection.py", "MetricField", "equivariant")}
    assert _callers("logm") == {("superconnection.py", None, "_principal_log")}


def test_float_eigensolves_only_in_their_owners():
    # a spectrum comes from numerics.lowest_eigenvalues or from the batched
    # Bloch blocks; the other calls are a matrix power, a norm and the
    # eigenbasis of a holonomy logarithm
    callers = set().union(*map(_callers, ("eigvalsh", "eigh", "eigsh", "eig")))
    assert callers == {
        ("numerics.py", None, "lowest_eigenvalues"),
        ("superconnection.py", "DiscreteComplex", "bloch_eigenvalues"),
        ("superconnection.py", None, "_spd_power"),
        ("superconnection.py", "DiscreteComplex", "operator_norm"),
        ("superconnection.py", None, "_principal_log"),
    }


# the exact division helper: no float function is left in the exact modules
DIVIDERS = {("numerics.py", "ratio")}


@pytest.mark.parametrize("name", ["numerics.py", "spectral.py", "lie.py"])
def test_exact_modules_divide_only_through_ratio(name):
    # `int / int` is a float, which would leave Q without an error: an
    # exact division is numerics.ratio(a, b), and a true division (/) sits
    # only in the functions named above
    tree = _tree(SRC / name)
    parents = {child: node for node in ast.walk(tree)
               for child in ast.iter_child_nodes(node)}
    bad = []
    for node in parents:
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(
                node.op, ast.Div):
            outer, fn = None, node
            while fn in parents:  # the outermost function around the node
                fn = parents[fn]
                if isinstance(fn, ast.FunctionDef):
                    outer = fn.name
            if (name, outer) not in DIVIDERS:
                bad.append(f"line {node.lineno} in {outer}")
    assert not bad, f"{name} divides outside numerics.ratio: {bad}"
    defined = {fn.name for fn in tree.body if isinstance(fn, ast.FunctionDef)}
    assert {f for m, f in DIVIDERS if m == name} <= defined


def test_spectral_makes_no_float_linear_algebra():
    # every rank, eigenspace and sector dimension in spectral.py is exact;
    # a float rank or eigenvalue call there is a tolerance call in disguise
    bad = [f"line {node.lineno}" for node in ast.walk(_tree(SRC / "spectral.py"))
           if isinstance(node, ast.Attribute) and node.attr == "linalg"]
    assert not bad, f"spectral.py uses numpy/scipy linalg: {bad}"


def test_algebras_are_exact_and_floated_only_for_curvature():
    # every algebra holds exact constants, so no module asks whether it
    # does, and the curvature command is the one reader of float constants
    bad = [f"{path.name} line {node.lineno}" for path in MODULES
           for node in ast.walk(_tree(path))
           if isinstance(node, ast.Attribute) and node.attr == "exact"]
    assert not bad, f"reads of an .exact attribute: {bad}"
    assert _callers("c_float") == {("cli.py", None, "curvature")}


def test_scenario_model_read_only_by_read_model():
    # each kind declares its model fields once, in lab.KINDS, and
    # lab._read_model reads them: a `.model` read anywhere else would let a
    # field skip its reader, or a misspelled field pass without a word
    bad = []
    for path in MODULES:
        tree = _tree(path)
        parents = {child: node for node in ast.walk(tree)
                   for child in ast.iter_child_nodes(node)}
        for node in parents:
            if isinstance(node, ast.Attribute) and node.attr == "model":
                fn = node
                while fn in parents and not isinstance(fn, ast.FunctionDef):
                    fn = parents[fn]
                if (path.name, getattr(fn, "name", None)) != (
                        "lab.py", "_read_model"):
                    bad.append(f"{path.name} line {node.lineno}")
    assert not bad, f"scenario models read outside lab._read_model: {bad}"


def test_one_zero_threshold():
    # a float eigenvalue is zero iff it is at most report.ZERO_TOL: no other
    # module sets the threshold and no function takes one of its own
    bad = []
    for path in MODULES:
        for node in ast.walk(_tree(path)):
            if (isinstance(node, ast.Name) and node.id == "ZERO_TOL"
                    and isinstance(node.ctx, ast.Store)
                    and path.name != "report.py"):
                bad.append(f"{path.name} line {node.lineno}: sets ZERO_TOL")
            elif isinstance(node, ast.arg) and node.arg == "zero_tol":
                bad.append(f"{path.name} line {node.lineno}: zero_tol")
    assert not bad, f"a second zero threshold: {bad}"


def test_input_files_parsed_only_by_read_json():
    # numerics.read_json turns a file that cannot be opened or parsed into
    # an InputError naming it; a json.load anywhere else would end in a
    # traceback, and a click.Path(exists=True) would exit 2 before it
    assert _callers("load") | _callers("loads") == {
        ("numerics.py", None, "read_json")}
    exists = [f"line {node.lineno}" for node in ast.walk(_tree(SRC / "cli.py"))
              if isinstance(node, ast.Call) and _called_name(node) == "Path"
              and any(k.arg == "exists" for k in node.keywords)]
    assert not exists, f"cli.py checks paths through click: {exists}"
