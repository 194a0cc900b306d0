"""Linear-algebra substrate: the one float eigensolver entry, the input
readers and exact rational rank arithmetic.

Floating-point spectra go through `lowest_eigenvalues` (LAPACK, or ARPACK
for large sparse matrices); everything that feeds a dimension count (ranks,
nullspaces, solves) is done in exact rational arithmetic so that rank
decisions are never made by a tolerance. Loaders read files, objects and
numbers by `read_json`, `read_fields` and `integer`, `real` or `rational`.
"""

from __future__ import annotations

import json
import os
import sys
from fractions import Fraction
from itertools import accumulate

import numpy as np
import scipy.sparse as sp


class InputError(ValueError):
    """Raised when an operation's preconditions are violated."""


# ---------------------------------------------------------------------------
# floating-point symmetric eigenproblems
# ---------------------------------------------------------------------------

# up to this many unknowns a spectrum is solved densely, above it by ARPACK
_DENSE_LIMIT = 2200


def lowest_eigenvalues(L, count: int) -> np.ndarray:
    """The `count` lowest eigenvalues of a real symmetric matrix, ascending.

    `L` is a dense array or a scipy sparse matrix, built symmetric by the
    caller (nothing here checks or symmetrizes it). Up to `_DENSE_LIMIT`
    unknowns, or when all eigenvalues are asked for, LAPACK solves the dense
    matrix; otherwise ARPACK shift-inverts just below zero.
    """
    if not sp.issparse(L):
        L = np.asarray(L, dtype=float)
    if L.ndim != 2 or L.shape[0] != L.shape[1]:
        raise InputError(f"matrix must be square, got shape {L.shape}")
    n = L.shape[0]
    if n == 0:
        return np.zeros(0)
    if n <= _DENSE_LIMIT or count >= n:
        return np.linalg.eigvalsh(L.toarray() if sp.issparse(L) else L)[:count]
    # imported here: loading ARPACK before the rest of the package, which
    # a module-level import here would do, raises the peak RSS of a whole
    # run by about 1 MB (x86-64 Linux, CPython 3.11, scipy 1.17)
    import scipy.sparse.linalg as spla
    scale = max(1.0, float(abs(L).max()))
    # a fixed start vector makes the Lanczos run repeatable; not the
    # constant vector, which spans an invariant subspace of every
    # translation-invariant operator
    lam = spla.eigsh(L, k=count, sigma=-1e-3 * scale, which="LM",
                     v0=np.random.default_rng(0).standard_normal(n),
                     return_eigenvectors=False)
    return np.sort(lam)


# ---------------------------------------------------------------------------
# input files, objects and numbers
# ---------------------------------------------------------------------------

def read_json(source, what: str):
    """The parsed JSON file at the path `source`, or a parsed `source` as it
    is; InputError naming the `what` file if it cannot be read or parsed."""
    if not isinstance(source, (str, os.PathLike)):
        return source
    try:
        with open(source) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: not JSON, not UTF-8
        reason = getattr(exc, "strerror", None) or f"not JSON: {exc}"
        raise InputError(f"cannot read {what} file {os.fspath(source)!r}: "
                         f"{reason}") from exc


REQUIRED = object()


def read_fields(payload, fields: dict, what: str) -> dict:
    """The object `payload` read by `fields`, {name: (reader, default)}; a
    missing or null field takes its default (None stays None). InputError
    naming the field for a payload that is not an object, an unknown field,
    a missing `REQUIRED` one, or a reader's TypeError or ValueError. `what`
    names the object: "bundle", or "model for nil_rescale"."""
    noun, sep, owner = what.partition(" for ")
    if not isinstance(payload, dict):
        raise InputError(f"{what} must be an object, got {payload!r}")
    unknown = sorted(set(payload) - set(fields))
    if unknown:
        raise InputError(f"unknown {noun} fields {unknown}{sep}{owner}")
    out = {}
    for name, (read, default) in fields.items():
        value = default if payload.get(name) is None else payload[name]
        if value is REQUIRED:
            raise InputError(f"{what} needs {name!r}")
        try:
            out[name] = None if value is None else read(value)
        except InputError:
            raise
        except (TypeError, ValueError) as exc:
            raise InputError(f"{noun} field {name!r}: {exc}") from exc
    return out


def integer(x, what: str) -> int:
    """x as an int: an int, a NumPy integer or an integral float, never a
    bool or a string and never truncated; InputError naming `what` else."""
    if isinstance(x, bool) or not (isinstance(x, (int, np.integer)) or
                                   isinstance(x, float) and x.is_integer()):
        raise InputError(f"{what} must be an integer, got {x!r}")
    return int(x)


def real(x, what: str) -> float:
    """x as a float: a finite int, NumPy integer or float, never a bool, a
    string, NaN or an infinity; InputError naming `what` else."""
    if isinstance(x, bool) or not (isinstance(x, (int, float, np.integer))
                                   and abs(x) <= sys.float_info.max):
        raise InputError(f"{what} must be a finite number, got {x!r}")
    return float(x)


def rational(x) -> Fraction:
    """x as a Fraction: an int, a NumPy integer, an integral float, a
    Fraction or a string `Fraction` reads, never a bool; InputError else."""
    # strings first: they are most of every serialized matrix
    if isinstance(x, str):
        # plain ASCII integers skip the general parser; int() reads them
        # exactly as Fraction() does
        if x.isascii() and (x.isdigit() or x[:1] == "-" and x[1:].isdigit()):
            return Fraction(int(x))
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"cannot interpret {x!r} as an exact rational") \
                from exc
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, np.integer)) and not isinstance(x, bool):
        return Fraction(int(x))
    if isinstance(x, float):
        if not x.is_integer():
            raise InputError(f"non-integral float {x!r} not accepted as exact rational")
        return Fraction(int(x))
    raise InputError(f"cannot interpret {x!r} as an exact rational")


_ZERO = Fraction(0)
_ONE = Fraction(1)


class RationalMatrix:
    """Sparse matrix over Q: one {column: nonzero Fraction} dict per row.

    Immutable by convention. Every operation visits stored nonzeros only;
    `tolist()` gives the dense rows.
    """

    __slots__ = ("rows", "cols", "_nz")

    def __init__(self, data, cols: int | None = None):
        nz = []
        width = None
        try:
            for row in data:
                if isinstance(row, str):  # its characters are no row
                    raise InputError(f"a matrix must be a list of rows, "
                                     f"got the string row {row!r}")
                vals, j = {}, -1
                for j, x in enumerate(row):
                    # the zero literal, most of a serialized matrix, makes
                    # no Fraction; every other entry is read and checked
                    if x.__class__ is str and x == "0":
                        continue
                    v = rational(x)
                    if v:
                        vals[j] = v
                if width is None:
                    width = j + 1
                elif j + 1 != width:
                    raise InputError("ragged rows")
                nz.append(vals)
        except TypeError as exc:
            # a row (or the matrix) that is not a list
            raise InputError(f"a matrix must be a list of rows: {exc}") from exc
        if width is None:
            if cols is None:
                raise InputError("empty matrix needs an explicit column count")
            width = cols
        self.rows, self.cols, self._nz = len(nz), width, nz

    @classmethod
    def _of(cls, rows: int, cols: int, nz: list) -> "RationalMatrix":
        """Wrap rows of nonzero Fractions that the kernel built itself."""
        m = object.__new__(cls)
        m.rows, m.cols, m._nz = rows, cols, nz
        return m

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RationalMatrix":
        return cls._of(rows, cols, [{} for _ in range(rows)])

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls._of(n, n, [{i: _ONE} for i in range(n)])

    @classmethod
    def from_entries(cls, rows: int, cols: int, entries) -> "RationalMatrix":
        """The rows x cols matrix with the {(i, j): value} entries given and
        zeros elsewhere."""
        nz = [{} for _ in range(rows)]
        for (i, j), x in entries.items():
            if not (0 <= i < rows and 0 <= j < cols):
                raise InputError(f"entry {(i, j)} outside a {rows}x{cols} matrix")
            x = rational(x)
            if x:
                nz[i][j] = x
        return cls._of(rows, cols, nz)

    @classmethod
    def from_blocks(cls, blocks, heights, widths) -> "RationalMatrix":
        """The block matrix with block rows of `heights` rows and block
        columns of `widths` columns, whose (r, c) block is the matrix
        blocks[(r, c)] of that shape, and zero where `blocks` has none."""
        row0 = list(accumulate(heights, initial=0))
        col0 = list(accumulate(widths, initial=0))
        nz = [{} for _ in range(row0[-1])]
        for (r, c), mat in blocks.items():
            if not (0 <= r < len(heights) and 0 <= c < len(widths)):
                raise InputError(f"block {(r, c)} outside a "
                                 f"{len(heights)}x{len(widths)} block grid")
            if (mat.rows, mat.cols) != (heights[r], widths[c]):
                raise InputError(f"block {(r, c)} has shape "
                                 f"{(mat.rows, mat.cols)}, expected "
                                 f"{(heights[r], widths[c])}")
            c0 = col0[c]
            for i, row in enumerate(mat._nz, row0[r]):
                if row:
                    nz[i].update({j + c0: v for j, v in row.items()})
        return cls._of(row0[-1], col0[-1], nz)

    @classmethod
    def from_numpy(cls, A) -> "RationalMatrix":
        A = np.asarray(A)
        return cls(A.tolist(), cols=A.shape[1])

    def tolist(self) -> list[list[Fraction]]:
        out = []
        for row in self._nz:
            dense = [_ZERO] * self.cols
            for j, v in row.items():
                dense[j] = v
            out.append(dense)
        return out

    def to_numpy(self) -> np.ndarray:
        out = np.zeros((self.rows, self.cols))
        for i, row in enumerate(self._nz):
            for j, v in row.items():
                out[i, j] = float(v)
        return out

    def transpose(self) -> "RationalMatrix":
        nz = [{} for _ in range(self.cols)]
        for i, row in enumerate(self._nz):
            for j, v in row.items():
                nz[j][i] = v
        return RationalMatrix._of(self.cols, self.rows, nz)

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise InputError(f"shape mismatch {self.rows}x{self.cols} @ "
                             f"{other.rows}x{other.cols}")
        out = []
        for row in self._nz:
            acc = {}
            for k, a in row.items():
                _add_scaled(acc, a, other._nz[k])
            out.append(acc)
        return RationalMatrix._of(self.rows, other.cols, out)

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise InputError("shape mismatch in addition")
        out = []
        for r1, r2 in zip(self._nz, other._nz):
            acc = dict(r1)
            _add_scaled(acc, _ONE, r2)
            out.append(acc)
        return RationalMatrix._of(self.rows, self.cols, out)

    def __neg__(self) -> "RationalMatrix":
        return RationalMatrix._of(self.rows, self.cols,
                                  [{j: -v for j, v in row.items()}
                                   for row in self._nz])

    def __sub__(self, other):
        return self + (-other)

    def scale(self, s) -> "RationalMatrix":
        s = rational(s)
        if not s:
            return RationalMatrix.zeros(self.rows, self.cols)
        return RationalMatrix._of(self.rows, self.cols,
                                  [{j: s * v for j, v in row.items()}
                                   for row in self._nz])

    def is_zero(self) -> bool:
        return not any(self._nz)

    def __eq__(self, other):
        return (isinstance(other, RationalMatrix)
                and self.rows == other.rows and self.cols == other.cols
                and self._nz == other._nz)

    def __repr__(self):
        return f"RationalMatrix({self.rows}x{self.cols})"

    def hstack(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.rows != other.rows:
            raise InputError("row mismatch in hstack")
        c = self.cols
        return RationalMatrix._of(
            self.rows, c + other.cols,
            [{**r1, **{j + c: v for j, v in r2.items()}}
             for r1, r2 in zip(self._nz, other._nz)])

    def vstack(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.cols:
            raise InputError("column mismatch in vstack")
        return RationalMatrix._of(self.rows + other.rows, self.cols,
                                  self._nz + other._nz)


def _add_scaled(target: dict, f: Fraction, source: dict) -> None:
    """target += f * source on sparse rows, dropping entries that cancel."""
    for j, v in source.items():
        x = target.get(j, 0) + f * v
        if x:
            target[j] = x
        else:
            del target[j]


def _rref(A: RationalMatrix) -> dict[int, dict[int, Fraction]]:
    """Sparse reduced row echelon form of A, as {pivot column: row}.

    Rows enter one at a time. Each is cleared at the pivot columns found so
    far; if anything is left, its leftmost column becomes a new pivot, the
    row is scaled to 1 there and that column is cleared from the earlier
    pivot rows. Pivot rows are thus zero left of their pivot and at every
    other pivot column: the reduced form, which is unique, so the order of
    elimination never changes the result.
    """
    basis: dict[int, dict[int, Fraction]] = {}
    for source in A._nz:
        row = dict(source)
        for c in [c for c in row if c in basis]:
            _add_scaled(row, -row[c], basis[c])
        if not row:
            continue
        c = min(row)
        inv = 1 / row[c]
        row = {j: v * inv for j, v in row.items()}
        for other in basis.values():
            if c in other:
                _add_scaled(other, -other[c], row)
        basis[c] = row
    return basis


def row_reduce(A: RationalMatrix) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form of A over Q, leaving A untouched.

    Returns (rows, pivots): the nonzero rows of the reduced form, one per
    pivot, and the pivot column of each.
    """
    basis = _rref(A)
    pivots = sorted(basis)
    R = RationalMatrix._of(len(pivots), A.cols, [basis[c] for c in pivots])
    return R.tolist(), pivots


def rank_exact(A: RationalMatrix) -> int:
    """Exact rank over the rationals."""
    return len(_rref(A))


def nullspace_exact(A: RationalMatrix) -> RationalMatrix:
    """Exact basis of ker(A), returned as columns of a cols x nullity matrix:
    one column per free column of the reduced form, in increasing order."""
    n = A.cols
    basis = _rref(A)
    free = {c: k for k, c in enumerate(c for c in range(n) if c not in basis)}
    nz = [{} for _ in range(n)]
    for c, k in free.items():
        nz[c][k] = _ONE
    for pc, row in basis.items():
        for j, v in row.items():
            if j != pc:
                nz[pc][free[j]] = -v
    return RationalMatrix._of(n, len(free), nz)


def solve_exact(A: RationalMatrix, B: RationalMatrix) -> RationalMatrix:
    """One exact solution X of A X = B; raises InputError if inconsistent."""
    if A.rows != B.rows:
        raise InputError("row mismatch in solve")
    n = A.cols
    nz = [{} for _ in range(n)]
    for pc, row in _rref(A.hstack(B)).items():
        if pc >= n:
            raise InputError("inconsistent linear system")
        nz[pc] = {j - n: v for j, v in row.items() if j >= n}
    return RationalMatrix._of(n, B.cols, nz)
