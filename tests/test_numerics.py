"""The float eigensolver of the tests' assembled oracle checked against an
independent inertia-bisection oracle, closed forms and its own sparse
branch; exact rational linear algebra checked against brute-force
floating-point rank counting."""

from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from nilcollapse import numerics, spectral
from nilcollapse.numerics import (REQUIRED, InputError, RationalMatrix,
                                  integer, nullspace_exact, rank_exact,
                                  read_fields, read_json, row_reduce,
                                  solve_exact)
from tests import dense_oracle as oracle, oracles
from tests.conftest import canonical
from tests.oracles import lowest_eigenvalues, quotient_dim


# ---------------------------------------------------------------------------
# floating-point eigenproblems
# ---------------------------------------------------------------------------

def _count_below(A, x):
    """Number of eigenvalues of symmetric A strictly below x, via the inertia
    of an LDL^T factorization. Independent of the LAPACK eigensolver path."""
    lu, d, _ = scipy.linalg.ldl(A - x * np.eye(A.shape[0]))
    w = np.linalg.eigvalsh(0.5 * (d + d.T))  # d is block diagonal, 1x1/2x2
    return int(np.sum(w < 0))


def _bisect_eigs(A, k, lo=-1e3, hi=1e3, tol=1e-9):
    out = []
    for j in range(1, k + 1):
        a, b = lo, hi
        while b - a > tol:
            m = 0.5 * (a + b)
            if _count_below(A, m) >= j:
                b = m
            else:
                a = m
        out.append(0.5 * (a + b))
    return np.array(out)


def test_sym_eig_closed_form():
    w = lowest_eigenvalues(np.array([[2.0, 1.0], [1.0, 2.0]]), 2)
    assert np.allclose(w, [1.0, 3.0], atol=1e-12)


def test_sym_eig_matches_inertia_bisection():
    rng = np.random.default_rng(7)
    for _ in range(5):
        A = rng.standard_normal((5, 5))
        A = A + A.T
        w = lowest_eigenvalues(A, 5)
        oracle = _bisect_eigs(A, 5)
        assert np.allclose(w, oracle, atol=1e-6)


def test_sym_eig_rejects_bad_input():
    with pytest.raises(InputError):
        lowest_eigenvalues(np.zeros((2, 3)), 2)
    with pytest.raises(InputError):
        lowest_eigenvalues(sp.csr_matrix((2, 3)), 2)
    assert lowest_eigenvalues(np.zeros((0, 0)), 3).shape == (0,)


@given(st.integers(2, 5), st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_sym_eig_trace_and_residual(n, seed):
    rng = np.random.default_rng(seed)
    A = rng.integers(-4, 5, size=(n, n)).astype(float)
    A = A + A.T
    w = lowest_eigenvalues(A, n)
    assert abs(w.sum() - np.trace(A)) < 1e-8 * max(1, abs(np.trace(A)))
    # min ||(A - lambda) v|| over unit v: each lambda's distance to the
    # spectrum of A
    residual = max(np.linalg.svd(A - x * np.eye(n), compute_uv=False)[-1]
                   for x in w)
    assert residual < 1e-8 * max(1.0, np.abs(A).max())
    assert np.all(np.diff(w) >= -1e-12)
    assert np.array_equal(lowest_eigenvalues(A, 2), w[:2])


def test_dense_and_arpack_branches_agree(monkeypatch):
    # a 1-D periodic Laplacian plus a diagonal, 400 unknowns: the dense
    # branch at the package's cutoff and ARPACK with the cutoff below 400
    n = 400
    rng = np.random.default_rng(5)
    L = sp.diags([np.full(n - 1, -1.0), 2.0 + rng.uniform(0, 1, n),
                  np.full(n - 1, -1.0)], [-1, 0, 1], format="lil")
    L[0, n - 1] = L[n - 1, 0] = -1.0
    L = L.tocsr()
    dense = lowest_eigenvalues(L, 6)
    monkeypatch.setattr(oracles, "_DENSE_LIMIT", n - 1)
    arpack = lowest_eigenvalues(L, 6)
    assert arpack.shape == dense.shape == (6,)
    assert np.all(np.diff(arpack) >= 0)
    assert np.abs(arpack - dense).max() <= 1e-10 * abs(L).max()
    # ARPACK cannot return every eigenvalue; asking for all of them solves
    # densely at any size
    assert np.array_equal(lowest_eigenvalues(L, n), np.linalg.eigvalsh(
        L.toarray()))


# ---------------------------------------------------------------------------
# exact rational matrices
# ---------------------------------------------------------------------------

def test_rational_matrix_construction_and_ops():
    A = RationalMatrix([["1/2", 1], [0, "2/3"]])
    B = RationalMatrix([[2, 0], [0, 3]])
    assert (A @ B).tolist()[0] == [Fraction(1), Fraction(3)]
    assert (A + (-A)).is_zero()
    assert A.scale(Fraction(2)).tolist()[0][0] == Fraction(1)
    assert A.transpose().tolist()[1][0] == Fraction(1)
    assert A == RationalMatrix([["1/2", "1"], ["0", "2/3"]])


def test_rational_matrix_from_entries():
    A = RationalMatrix.from_entries(2, 3, {(0, 2): "1/2", (1, 0): 3,
                                           (1, 1): 0})
    assert A == RationalMatrix([[0, 0, "1/2"], [3, 0, 0]])
    with pytest.raises(InputError, match="outside"):
        RationalMatrix.from_entries(2, 3, {(2, 0): 1})
    with pytest.raises(InputError):
        RationalMatrix.from_entries(1, 1, {(0, 0): 0.5})
    # the rows are sparse: there is no dense .data to write into by mistake
    with pytest.raises(AttributeError):
        A.data


def test_rational_matrix_rejects_inexact_floats():
    with pytest.raises(InputError):
        RationalMatrix([[0.5]])
    RationalMatrix([[2.0]])  # integral floats pass


def test_rational_matrix_shape_errors():
    A = RationalMatrix([[1, 2]])
    with pytest.raises(InputError):
        A @ A
    with pytest.raises(InputError):
        A + RationalMatrix([[1], [2]])


def test_rational_matrix_from_blocks():
    A, B = RationalMatrix([[1, "1/2"]]), RationalMatrix([[3], ["-2"]])
    M = RationalMatrix.from_blocks({(0, 0): A, (1, 1): B}, [1, 2], [2, 1])
    assert M == RationalMatrix([[1, "1/2", 0], [0, 0, 3], [0, 0, -2]])
    assert RationalMatrix.from_blocks({}, [0, 2], [3]) == \
        RationalMatrix.zeros(2, 3)
    with pytest.raises(InputError, match="expected"):
        RationalMatrix.from_blocks({(0, 0): B}, [1], [2])
    with pytest.raises(InputError, match="outside"):
        RationalMatrix.from_blocks({(1, 0): A}, [1], [2])


def test_numpy_round_trip():
    A = RationalMatrix([[1, -3], [2, 5]])
    assert oracles.from_numpy(A.to_numpy()) == A


@given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_rank_and_nullspace_consistency(rows, cols, seed):
    rng = np.random.default_rng(seed)
    M = rng.integers(-3, 4, size=(rows, cols))
    A = oracles.from_numpy(M)
    r = rank_exact(A)
    assert r == np.linalg.matrix_rank(M.astype(float))
    ns = nullspace_exact(A)
    assert ns.cols == cols - r
    if ns.cols:
        assert (A @ ns).is_zero()
        assert rank_exact(ns) == ns.cols


def test_solve_exact_consistent_and_inconsistent():
    A = RationalMatrix([[1, 2], [2, 4]])
    B = RationalMatrix([[3], [6]])
    X = solve_exact(A, B)
    assert (A @ X) == B
    with pytest.raises(InputError):
        solve_exact(A, RationalMatrix([[3], [7]]))


def test_row_reduce_returns_reduced_copy():
    A = RationalMatrix([[0, 2, 4], [1, 1, 1], [1, 2, 3]])
    before = A.tolist()
    rows, pivots = row_reduce(A)
    assert A.tolist() == before
    assert pivots == [0, 1]
    assert rows == [[1, 0, -1], [0, 1, 2]]


def test_row_reduce_edge_shapes():
    # 0 x n: no rows, no pivots; the kernel is everything
    empty_rows = RationalMatrix.zeros(0, 3)
    assert row_reduce(empty_rows) == ([], [])
    assert rank_exact(empty_rows) == 0
    assert nullspace_exact(empty_rows) == RationalMatrix.identity(3)
    assert solve_exact(empty_rows, RationalMatrix.zeros(0, 2)) \
        == RationalMatrix.zeros(3, 2)
    # n x 0: no columns, no pivots, an empty kernel basis
    empty_cols = RationalMatrix.zeros(3, 0)
    assert row_reduce(empty_cols) == ([], [])
    assert rank_exact(empty_cols) == 0
    ns = nullspace_exact(empty_cols)
    assert (ns.rows, ns.cols) == (0, 0)
    assert solve_exact(empty_cols, RationalMatrix.zeros(3, 1)) \
        == RationalMatrix.zeros(0, 1)
    # nothing maps onto a nonzero right-hand side
    with pytest.raises(InputError, match="inconsistent"):
        solve_exact(empty_cols, RationalMatrix([[0], [1], [0]]))


def _quotient_oracle(Amat, Bmat):
    """dim ker A - dim(ker A /\\ rowspan B) by float rank counting."""
    A = Amat.to_numpy()
    B = Bmat.to_numpy()
    ker = scipy.linalg.null_space(A) if A.size else np.eye(Amat.cols)
    kdim = ker.shape[1]
    rb = np.linalg.matrix_rank(B) if B.size else 0
    if kdim == 0 or rb == 0:
        return kdim
    joint = np.linalg.matrix_rank(np.hstack([ker, B.T]))
    inter = kdim + rb - joint
    return kdim - inter


@given(st.integers(1, 4), st.integers(0, 3), st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_quotient_dim_matches_brute_force(cols, brows, seed):
    rng = np.random.default_rng(seed)
    A = oracles.from_numpy(rng.integers(-2, 3, size=(3, cols)))
    B = oracles.from_numpy(rng.integers(-2, 3, size=(brows, cols))) \
        if brows else RationalMatrix.zeros(0, cols)
    assert quotient_dim(A, B) == _quotient_oracle(A, B)


def test_quotient_dim_dimension_mismatch():
    with pytest.raises(InputError):
        quotient_dim(RationalMatrix.zeros(1, 2), RationalMatrix.zeros(1, 3))


def test_quotient_dim_negative_raises_even_without_asserts(monkeypatch):
    # ranks no real matrix pair has: rank A = 2 leaves no kernel in 2 columns,
    # yet rank B - rank(A B^T) = 1 claims a one-dimensional intersection
    ranks = iter([2, 1, 0])
    monkeypatch.setattr(oracles, "rank_exact", lambda M: next(ranks))
    with pytest.raises(ArithmeticError, match="negative quotient dimension"):
        quotient_dim(RationalMatrix.identity(2), RationalMatrix.identity(2))


# ---------------------------------------------------------------------------
# the sparse kernel against the dense oracle
# ---------------------------------------------------------------------------

@st.composite
def _rational_rows(draw, rows=None, cols=None):
    """(dense rows of Fractions, column count): any shape up to 6 x 6,
    including 0 x n and n x 0, with a density drawn from [0, 1]; half the
    time a product through a narrow inner dimension, so that ranks fall
    short and kernels and inconsistent systems are common."""
    r = draw(st.integers(0, 6)) if rows is None else rows
    c = draw(st.integers(0, 6)) if cols is None else cols
    density = draw(st.floats(0, 1))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def entries(m, n):
        return [[Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 4)))
                 if rng.random() < density else Fraction(0)
                 for _ in range(n)] for _ in range(m)]

    if draw(st.booleans()):
        return entries(r, c), c
    k = draw(st.integers(0, 3))
    left = oracle.DenseRationalMatrix(entries(r, k), cols=k)
    right = oracle.DenseRationalMatrix(entries(k, c), cols=c)
    return (left @ right).data, c


def _pair(rows_cols):
    rows, cols = rows_cols
    return (RationalMatrix(rows, cols=cols),
            oracle.DenseRationalMatrix(rows, cols=cols))


def _same(S, D):
    """S equals the oracle's D, and every entry of S is of the canonical
    type: an int, or a Fraction whose denominator is greater than 1."""
    entries = S.tolist()
    return ((S.rows, S.cols) == (D.rows, D.cols) and entries == D.data
            and all(canonical(x) for row in entries for x in row))


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_sparse_arithmetic_matches_dense_oracle(data):
    A, Ad = _pair(data.draw(_rational_rows()))
    B, Bd = _pair(data.draw(_rational_rows(rows=A.cols)))
    C, Cd = _pair(data.draw(_rational_rows(rows=A.rows, cols=A.cols)))
    E, Ed = _pair(data.draw(_rational_rows(rows=A.rows)))
    G, Gd = _pair(data.draw(_rational_rows(cols=A.cols)))
    s = data.draw(st.fractions(max_denominator=5).filter(lambda x: abs(x) < 9))
    assert _same(A, Ad)
    assert _same(A @ B, Ad @ Bd)
    assert _same(A + C, Ad + Cd)
    assert _same(A - C, Ad + Cd.scale(-1))
    assert _same(A.scale(s), Ad.scale(s))
    assert _same(A.transpose(), Ad.transpose())
    assert _same(A.hstack(E), Ad.hstack(Ed))
    assert _same(A.vstack(G), Ad.vstack(Gd))
    assert _same(RationalMatrix.from_blocks({(0, 0): A, (0, 1): E, (1, 0): C},
                                            [A.rows, A.rows], [A.cols, E.cols]),
                 Ad.hstack(Ed).vstack(Cd.hstack(
                     oracle.DenseRationalMatrix.zeros(A.rows, E.cols))))
    assert A.is_zero() == all(x == 0 for row in Ad.data for x in row)
    assert (A == C) == (Ad.data == Cd.data)
    assert np.array_equal(A.to_numpy(), np.array(
        [[float(x) for x in row] for row in Ad.data]).reshape(A.rows, A.cols))


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_sparse_elimination_matches_dense_oracle(data):
    A, Ad = _pair(data.draw(_rational_rows()))
    rows, pivots = row_reduce(A)
    assert (rows, pivots) == oracle.row_reduce(Ad)
    assert all(canonical(x) for row in rows for x in row)
    assert rank_exact(A) == oracle.rank(Ad)
    # both take one kernel vector per free column of the reduced form
    assert _same(nullspace_exact(A), oracle.nullspace(Ad))
    B, Bd = _pair(data.draw(_rational_rows(rows=A.rows)))
    want = oracle.solve(Ad, Bd)
    if want is None:
        with pytest.raises(InputError, match="inconsistent"):
            solve_exact(A, B)
    else:
        assert _same(solve_exact(A, B), want)
    # a right-hand side in the column space always has a solution
    X, Xd = _pair(data.draw(_rational_rows(rows=A.cols)))
    assert _same(solve_exact(A, A @ X), oracle.solve(Ad, Ad @ Xd))
    Q, Qd = _pair(data.draw(_rational_rows(cols=A.cols)))
    assert quotient_dim(A, Q) == oracle.quotient_dim(Ad, Qd)
    # the holonomy invariants stay exact: an inverse and a minimal polynomial
    n = data.draw(st.integers(0, 4))
    S, Sd = _pair(data.draw(_rational_rows(rows=n, cols=n)))
    if oracle.rank(Sd) == n:
        inv = spectral.inverse_exact(S)
        assert inv @ S == RationalMatrix.identity(n)
        assert all(canonical(x) for row in inv.tolist() for x in row)
    assert all(map(canonical, spectral.minimal_polynomial(S)))


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("s", ["0", "-3", "+2", " 4 ", "1/3", "2.5", "1e3",
                               "-0", "007", "1_000", "-7/14"])
def test_to_fraction_reads_strings_as_fraction_does(s):
    got = numerics.rational(s)
    assert canonical(got) and got == Fraction(s)
    entries = RationalMatrix([[s]]).tolist()
    assert entries == [[Fraction(s)]] and canonical(entries[0][0])


ZERO_SPELLINGS = ["0", 0, 0.0, "-0", "0/5", Fraction(0), np.int64(0)]
NONZEROS = ["3", -2, 4.0, "1/3", Fraction(-5, 7), "-12"]
BAD_ENTRIES = [True, "", "x", 0.5, float("nan"), None]


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_zero_literals_read_as_every_other_entry(data):
    # the reader skips the literal "0" without a Fraction, and a list row of
    # it with one count: the matrix must be the one read entry by entry,
    # list and tuple rows alike, and a bad entry among the zeros still
    # raises wherever it sits
    rows, cols = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 6))
    entry = st.sampled_from(ZERO_SPELLINGS + NONZEROS)
    zero_or_any_row = st.one_of(st.just(["0"] * cols),
                                st.lists(entry, min_size=cols, max_size=cols))
    dense = data.draw(st.lists(zero_or_any_row, min_size=rows, max_size=rows))
    tuples = data.draw(st.lists(st.booleans(), min_size=rows, max_size=rows))

    def read(dense):
        return RationalMatrix([tuple(row) if t else list(row)
                               for row, t in zip(dense, tuples)])

    want = RationalMatrix.from_entries(rows, cols, {
        (i, j): numerics.rational(x) for i, row in enumerate(dense)
        for j, x in enumerate(row)})
    assert read(dense) == want
    assert read(dense).tolist() == [[numerics.rational(x) for x in row]
                                    for row in dense]
    i, j = data.draw(st.integers(0, rows - 1)), data.draw(st.integers(0, cols - 1))
    dense[i] = list(dense[i])
    dense[i][j] = data.draw(st.sampled_from(BAD_ENTRIES))
    with pytest.raises(InputError):
        read(dense)


@pytest.mark.parametrize("data", [[["0", "0"], ["0"]], [["0"], ["0", "1"]],
                                  [["1", "2"], ["0", "0", "0"]], [[], ["0"]],
                                  [["0"], []], [["0"], 0], ["0", ["0"]],
                                  ["10", "01"], [[np.array(["0"])]],
                                  [[np.array(["0", "0"])]],
                                  [["0", np.array(["0"])]]])
def test_ragged_or_non_list_rows_of_zeros_raise(data):
    # a NumPy array entry compares equal to "0" elementwise (or cannot say
    # as one bool): it is no zero literal, and `rational` refuses it
    with pytest.raises(InputError):
        RationalMatrix(data)


def test_string_subclass_zero_reads_as_zero():
    # a NumPy string is a str: a row of them is zero like a row of "0"
    m = RationalMatrix([[np.str_("0"), "0"], [np.str_("0"), np.str_("0")]])
    assert (m.rows, m.cols, m.is_zero()) == (2, 2, True)
    with pytest.raises(InputError, match="cannot interpret"):
        RationalMatrix([["0", np.array(["0", "0"])]])


@pytest.mark.parametrize("x", ["", "abc", "-", "--1", "+-1", "1/0", "0x10",
                               "²", 0.1, float("nan"), float("inf"),
                               None, [1], True])
def test_to_fraction_rejects_with_input_error(x):
    with pytest.raises(InputError):
        numerics.rational(x)


@pytest.mark.parametrize("x, want", [(3, 3), (-2, -2), (np.int64(7), 7),
                                     (4.0, 4), (-0.0, 0),
                                     pytest.param(2 ** 70, 2 ** 70, id="2**70")])
def test_integer_reads_integers_and_integral_floats(x, want):
    got = numerics.integer(x, "n")
    assert type(got) is int and got == want


@pytest.mark.parametrize("x", [1.5, np.float64(2.5), True, False, np.bool_(1),
                               "3", None, float("nan"), float("inf"), [1],
                               Fraction(3)])
def test_integer_rejects_with_input_error(x):
    with pytest.raises(InputError, match="n must be an integer"):
        numerics.integer(x, "n")


@pytest.mark.parametrize("x, want", [(1, 1.0), (0.25, 0.25), (-3.5, -3.5),
                                     (np.float64(0.5), 0.5), (np.int32(2), 2.0),
                                     pytest.param(2 ** 70, 2.0 ** 70, id="2**70")])
def test_real_reads_finite_numbers(x, want):
    got = numerics.real(x, "v")
    assert type(got) is float and got == want


@pytest.mark.parametrize("x", [True, np.bool_(0), "1.0", None, float("nan"),
                               float("inf"), -float("inf"),
                               pytest.param(10 ** 400, id="10**400"), [1.0],
                               1j])
def test_real_rejects_with_input_error(x):
    with pytest.raises(InputError, match="v must be a finite number"):
        numerics.real(x, "v")


# ---------------------------------------------------------------------------
# input files and objects
# ---------------------------------------------------------------------------

FIELDS = {"n": (lambda x: integer(x, "n"), REQUIRED),
          "xs": (list, [1]), "tag": (str, None)}


def test_read_fields_reads_defaults_and_given_values():
    assert read_fields({"n": 2.0}, FIELDS, "thing") == {
        "n": 2, "xs": [1], "tag": None}
    assert read_fields({"n": 2, "xs": None, "tag": 5}, FIELDS, "thing") == {
        "n": 2, "xs": [1], "tag": "5"}


@pytest.mark.parametrize("payload, what, reason", [
    ([1], "thing", "thing must be an object, got [1]"),
    ({"n": 1, "nn": 2}, "thing", "unknown thing fields ['nn']"),
    ({"n": 1, "nn": 2}, "model for kind",
     "unknown model fields ['nn'] for kind"),
    ({"xs": []}, "thing", "thing needs 'n'"),
    ({"n": None}, "thing", "thing needs 'n'"),
    ({"n": 1.5}, "thing", "n must be an integer, got 1.5"),
    ({"n": 1, "xs": 3}, "model for kind",
     "model field 'xs': 'int' object is not iterable"),
], ids=["not-an-object", "unknown", "unknown-for-owner", "missing", "null",
        "reader-input-error", "reader-type-error"])
def test_read_fields_names_the_field(payload, what, reason):
    with pytest.raises(InputError) as exc:
        read_fields(payload, FIELDS, what)
    assert str(exc.value) == reason


def test_read_json_reads_paths_and_passes_payloads(tmp_path):
    path = tmp_path / "x.json"
    path.write_text('{"a": [1, "1/2"]}')
    assert read_json(path, "thing") == read_json(str(path), "thing") == {
        "a": [1, "1/2"]}
    payload = {"a": 1}
    assert read_json(payload, "thing") is payload
    path.write_text('{"a": ')
    with pytest.raises(InputError, match=r"cannot read thing file '.*x\.json':"
                       r" not JSON: Expecting value"):
        read_json(path, "thing")
    with pytest.raises(InputError, match="Is a directory"):
        read_json(tmp_path, "thing")
