"""Source-layout rules checked on the syntax tree of the package: modules
use each other only through public names, functions merged into a single
builder stay merged, every sweep of a bundle kind is built by one
affine-bundle builder, each bundle's exact affine model is built once and
read by both the superconnection and the predictions in its own
[generator][degree] layout, one function checks a bundle against its base,
exact matrices are read and built through their
methods, never through a `.data` attribute or, outside `numerics`, their
sparse rows, the superconnection layer converts holonomy actions that
`spectral` built exactly instead of building its own, only the two metric
constructors take matrix logarithms, every grid matrix of the tests'
assembled oracle is placed by one block builder, every spectrum comes from
the Bloch solver, which certifies the modes it skips by Cholesky, and no
module imports scipy or names numpy.random, the exact layer `spectral` decides nothing by a float rank or eigenvalue, flatness
is decided by equality on exact blocks and only by the `Superconnection`
constructor, which every superconnection passes through, equivariance is
checked only by the `MetricField` constructor, which every metric passes
through, and no function takes a `check_*` parameter to skip a check, an
algebra's constants turn to floats only for the curvature command, a float
eigenvalue is zero by one threshold, a scenario's model is read in one
place, an input file is parsed in one place, and the exact modules divide
only through `numerics.ratio`; and the README's library example runs
against the package as it is."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "nilcollapse"
MODULES = sorted(SRC.glob("*.py"))
ORACLES = ROOT / "tests" / "oracles.py"

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
    # only tests called these: AffineModel(...).monodromies and
    # predict_small_counts(...)[0] say the same
    "form_action", "predict_small_count",
    # only tests called these: sum(map(grading.vector_weight, I)) and
    # np.prod(base.steps) say the same
    "form_weight", "cell_volume",
    # an AffineModel builds monodromies[gen][b] when it is built, and
    # spectral.check_base checks every bundle against its base
    "actions", "_require_generators",
    # a float eigenvalue is zero by report.ZERO_TOL alone; the largest-gap
    # split and its floor decided nothing
    "gap_split", "SMALL_FLOOR",
    # GradedBundle and Superconnection read their blocks exactly and fill
    # the defaults themselves: no float reader and no second exact reader
    "_blocks", "_floats", "_exact_blocks",
    # every MetricField constructor takes its base and recorded logarithms
    "_with_gauge",
    # a bundle sweep builds one superconnection and one set of logarithms,
    # and only identity and equivariant record logarithms
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
    # a sweep point is the one Bloch symbol scaled by spectrum's `weights`,
    # a log fiber root per form: no per-point fiber metric, root or float
    # range, and every point and degree solves on one DiscreteComplex
    "with_fiber", "fiber_roots", "_gauged", "_float_range",
    # every metric that a complex accepts records its holonomy logarithms,
    # so every spectrum solves on the Bloch path: the assembled grid
    # Laplacian, its eigensolver and the checks built on it are the tests'
    # oracle (tests/oracles.py)
    "bloch_ready", "_ready", "differential", "_mass_power",
    "weighted_differential", "_weighted", "laplacian", "operator_norm",
    "_point_blocks", "_spd_power", "lowest_eigenvalues", "_DENSE_LIMIT",
    "perturbation_check", "PerturbationReport", "PERTURBATION_CONSTANT",
    "metric_continuity_check", "MetricContinuityReport",
    # a degree's symbol is d + 1 constant coefficient blocks, built once per
    # complex: no per-mode symbol or phase table, and the all-mode solve is
    # the tests' oracle (oracles.all_mode_eigenvalues)
    "_bloch_symbol", "_phase",
    # a sweep's weights are checked and solved as one stack per degree,
    # whose points are its own objects: no per-point weights key
    "_weights_key",
}
# merged functions whose name a report field still uses (DegreeReport.spectra)
MERGED_FUNCTIONS = {"spectra"}


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
    functions = {node.name for node in ast.walk(_tree(path))
                 if isinstance(node, ast.FunctionDef)}
    assert not functions & MERGED_FUNCTIONS, \
        f"{path.name} defines {functions & MERGED_FUNCTIONS}"


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


def _callers(name, paths=MODULES):
    """(module, class or None, function) around each call of `name` in the
    files `paths`, by default the package's modules."""
    out = set()
    for path in paths:
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


SWEEP_PARTS = ("BaseModel", "AffineModel", "from_affine_bundle",
               "predict_small_counts", "MetricField.equivariant",
               "MetricField.identity")


def test_sweeps_built_by_one_affine_bundle_builder():
    # every bundle kind is one flat affine bundle whose fiber metric is
    # s^(-u_I) / g_I: lab.py builds the base, the exact affine model, the
    # superconnection, the predictions and the equivariant metric at one
    # site each, and never the identity metric, which the equivariant one
    # equals for identity holonomies
    sites = {name: [] for name in SWEEP_PARTS}
    for node in ast.walk(_tree(SRC / "lab.py")):
        if isinstance(node, ast.Call):
            called = ast.unparse(node.func)
            for name in SWEEP_PARTS:
                if called == name or called.endswith(f".{name}"):
                    sites[name].append(node.lineno)
    assert {name: len(lines) for name, lines in sites.items()} == {
        **dict.fromkeys(SWEEP_PARTS[:-1], 1), "MetricField.identity": 0}, sites
    for name in SWEEP_PARTS[:-1]:
        assert _callers(name.rsplit(".")[-1], [SRC / "lab.py"]) == {
            ("lab.py", None, "_affine_sweep")}


def test_affine_model_built_only_by_the_two_bundle_readers():
    # one exact model per bundle, which the superconnection and the
    # predictions both read: from_affine_bundle and predict_small_counts
    # take it and build none
    assert _callers("AffineModel") == {
        ("lab.py", None, "_affine_sweep"),
        ("superconnection.py", None, "load_bundle")}


BASE_MESSAGES = ("monodromy generators", "a2 needs a 2-dimensional base")


def test_bundle_checked_against_its_base_only_by_check_base():
    # a k-torus takes k monodromies and a2 needs the 2-torus: one rule, so
    # one raiser of each message, spectral.check_base
    raisers = set()
    for path in MODULES:
        tree = _tree(path)
        parents = {child: node for node in ast.walk(tree)
                   for child in ast.iter_child_nodes(node)}
        for node in parents:
            if not isinstance(node, ast.Raise):
                continue
            text = "".join(c.value for c in ast.walk(node)
                           if isinstance(c, ast.Constant)
                           and isinstance(c.value, str))
            if any(m in text for m in BASE_MESSAGES):
                fn = node
                while fn in parents and not isinstance(fn, ast.FunctionDef):
                    fn = parents[fn]
                raisers.add((path.name, getattr(fn, "name", None)))
    assert raisers == {("spectral.py", "check_base")}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_holonomy_blocks_not_transposed(path):
    # AffineModel.monodromies is [generator][degree], the layout that
    # GradedBundle and flat_bundle_complex take: no reader regroups blocks
    # with zip(*map(...))
    bad = [f"line {node.lineno}" for node in ast.walk(_tree(path))
           if isinstance(node, ast.Call) and _called_name(node) == "zip"
           and any(isinstance(arg, ast.Starred)
                   and isinstance(arg.value, ast.Call)
                   and _called_name(arg.value) == "map" for arg in node.args)]
    assert not bad, f"{path.name} transposes blocks by zip(*map(...)): {bad}"


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
    # the assembled oracle's differential and mass powers are sums of
    # _point_blocks matrices: no block assembly by scipy beside it
    bad = [f"line {node.lineno}: {node.attr}"
           for node in ast.walk(_tree(ORACLES))
           if isinstance(node, ast.Attribute)
           and node.attr in ("bmat", "kron", "block_diag")]
    assert not bad, f"oracles.py assembles blocks by scipy: {bad}"
    assert ("oracles.py", "AssembledComplex", "differential") in \
        _callers("_point_blocks", [ORACLES])


def _imports(path, package):
    """Every import in `path` of `package` or of one of its submodules, as
    'line N: name'."""
    bad = []
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        bad += [f"line {node.lineno}: {name}" for name in names
                if name == package or name.startswith(f"{package}.")]
    return bad


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_imports_scipy_sparse(path):
    # every spectrum solves on the Bloch path, so the package assembles no
    # sparse matrix and loads neither scipy.sparse nor ARPACK
    bad = _imports(path, "scipy.sparse")
    assert not bad, f"{path.name} imports scipy.sparse: {bad}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_imports_scipy(path):
    # the package runs on numpy alone: the holonomy logarithms and their
    # exponentials are numpy matrix functions, and scipy is a test oracle
    bad = _imports(path, "scipy")
    assert not bad, f"{path.name} imports scipy: {bad}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_names_numpy_random(path):
    # the equivariance check samples fixed points, written as literals:
    # numpy.random and the libraries it loads would add some 5 MB to the
    # peak RSS of a bare import
    bad = _imports(path, "numpy.random") + [
        f"line {node.lineno}: {node.value.id}.random"
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.Attribute) and node.attr == "random"
        and isinstance(node.value, ast.Name)
        and node.value.id in ("np", "numpy")]
    assert not bad, f"{path.name} names numpy.random: {bad}"


def test_import_leaves_numpy_random_unloaded():
    out = subprocess.run(
        [sys.executable, "-c", "import sys, nilcollapse; "
         "print('numpy.random' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=str(SRC.parent)),
        capture_output=True, text=True, check=True).stdout
    assert out.strip() == "False"


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
    # holonomy logarithms are taken by the two metric constructors that
    # record them, identity and equivariant, once per bundle in a sweep,
    # through _holonomy_logs and _principal_log, which is the one caller of
    # the costly inverse scaling and squaring _logm and calls it only for a
    # monodromy without a well-conditioned eigenbasis
    assert _callers("_holonomy_logs") == {
        ("superconnection.py", "MetricField", "identity"),
        ("superconnection.py", "MetricField", "equivariant")}
    assert _callers("_principal_log") == {
        ("superconnection.py", None, "_holonomy_logs")}
    assert _callers("_logm") == {("superconnection.py", None, "_principal_log")}


def test_float_eigensolves_only_in_their_owners():
    # a spectrum comes from the batched Bloch blocks; the other call is the
    # eigenbasis of a holonomy logarithm. A Cholesky factorization certifies
    # the Bloch modes that the solve skips, and factors an exact Gram into
    # the orthonormal frame of a bundle
    callers = set().union(*map(_callers, ("eigvalsh", "eigh", "eigsh", "eig")))
    assert callers == {
        ("superconnection.py", "DiscreteComplex", "bloch_eigenvalues"),
        ("superconnection.py", None, "_principal_log"),
    }
    assert _callers("cholesky") == {
        ("superconnection.py", "DiscreteComplex", "_refused"),
        ("superconnection.py", "GradedBundle", "__init__"),
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


def test_readme_library_example_runs(capsys):
    # the README's python block runs as printed, so the docs name no
    # function or parameter that the package no longer has
    [block] = re.findall(r"```python\n(.*?)```",
                         (ROOT / "README.md").read_text(), re.S)
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out
