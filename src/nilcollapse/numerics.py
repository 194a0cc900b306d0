"""Linear-algebra substrate: the input readers and exact rational rank
arithmetic.

Everything that feeds a dimension count (ranks, nullspaces, solves) is done
in exact rational arithmetic so that rank decisions are never made by a
tolerance. Loaders read files, objects and numbers by `read_json`,
`read_fields` and `integer`, `real` or `rational`.
"""

from __future__ import annotations

import json
import os
import sys
from fractions import Fraction
from itertools import accumulate

import numpy as np


class InputError(ValueError):
    """Raised when an operation's preconditions are violated."""


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


def rational(x) -> int | Fraction:
    """x as an exact number of the canonical type: an int, or a Fraction
    whose denominator is greater than 1. Reads an int, a NumPy integer, an
    integral float, a Fraction or a string `Fraction` reads, never a bool;
    InputError else."""
    # exact ints first: an int is never a Fraction, and `Fraction` is an ABC
    # whose isinstance check costs a Python-level call
    if x.__class__ is int:
        return x
    # strings next: they are most of every serialized matrix
    if isinstance(x, str):
        # plain ASCII integers skip the general parser; int() reads them
        # exactly as Fraction() does
        if x.isascii() and (x.isdigit() or x[:1] == "-" and x[1:].isdigit()):
            return int(x)
        try:
            return _exact(Fraction(x))
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"cannot interpret {x!r} as an exact rational") \
                from exc
    if isinstance(x, Fraction):
        return _exact(x)
    if isinstance(x, (int, np.integer)) and not isinstance(x, bool):
        return int(x)
    if isinstance(x, float):
        if not x.is_integer():
            raise InputError(f"non-integral float {x!r} not accepted as exact rational")
        return int(x)
    raise InputError(f"cannot interpret {x!r} as an exact rational")


def _exact(x: int | Fraction) -> int | Fraction:
    """x in the canonical type: an integral Fraction becomes its int. An int
    is exact in tens of nanoseconds where a Fraction takes microseconds."""
    return x.numerator if x.__class__ is Fraction and x.denominator == 1 else x


def ratio(a: int | Fraction, b: int | Fraction) -> int | Fraction:
    """a / b over Q, of the canonical type; ZeroDivisionError if b is 0.
    `int / int` is a float, so every exact division goes through here."""
    return _exact(Fraction(a, b))


class RationalMatrix:
    """Sparse matrix over Q: one {column: nonzero value} dict per row.

    Every value is of `rational`'s canonical type, an int or a Fraction
    whose denominator is greater than 1, so a matrix of integers does
    integer arithmetic. Immutable by convention. Every operation visits
    stored nonzeros only; `tolist()` gives the dense rows, zeros as the
    int 0.
    """

    __slots__ = ("rows", "cols", "_nz")

    def __init__(self, data, cols: int | None = None):
        """Read `data`, rows of entries that `rational` reads, with `cols`
        columns if it has no rows. A list row of strings that all equal
        "0" is recognised by one `list.count` and one `str.join` and stored
        empty; every other row, tuple rows among them, is read entry by entry.
        InputError for ragged rows, a string or other non-row, or an entry
        `rational` refuses."""
        nz = []
        width = None
        try:
            for row in data:
                vals, j = {}, -1
                try:  # a list row of "0" strings, most rows of a complex
                    zero = row.__class__ is list and row.count(
                        "0") == len(row) and "".join(row)
                except (TypeError, ValueError):  # an entry such as an array
                    zero = False  # is read below like any other
                if zero:
                    j = len(row) - 1
                elif isinstance(row, str):  # its characters are no row
                    raise InputError(f"a matrix must be a list of rows, "
                                     f"got the string row {row!r}")
                else:
                    for j, x in enumerate(row):
                        # the zero literal is skipped unread; every other
                        # entry is read and checked
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
        """Wrap rows of nonzero canonical values that the kernel built
        itself."""
        m = object.__new__(cls)
        m.rows, m.cols, m._nz = rows, cols, nz
        return m

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RationalMatrix":
        return cls._of(rows, cols, [{} for _ in range(rows)])

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls._of(n, n, [{i: 1} for i in range(n)])

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

    def tolist(self) -> list[list[int | Fraction]]:
        out = []
        for row in self._nz:
            dense = [0] * self.cols
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
            _add_scaled(acc, 1, r2)
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
                                  [{j: _exact(s * v) for j, v in row.items()}
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


def read_blocks(blocks, shapes, name, first=0) -> list[RationalMatrix]:
    """`blocks` read exactly, one of each of the given shapes, or zeros of
    those shapes when None; block k is named name[first + k] in errors."""
    if blocks is None:
        return [RationalMatrix.zeros(*shape) for shape in shapes]
    if len(blocks) != len(shapes):
        raise InputError(f"need {len(shapes)} {name} blocks, "
                         f"got {len(blocks)}")
    out = []
    for k, (x, shape) in enumerate(zip(blocks, shapes), start=first):
        if not isinstance(x, RationalMatrix):
            x = RationalMatrix(x, cols=shape[1])
        if (x.rows, x.cols) != shape:
            raise InputError(f"{name}[{k}] has wrong shape "
                             f"{(x.rows, x.cols)}, expected {shape}")
        out.append(x)
    return out


def _add_scaled(target: dict, f: int | Fraction, source: dict) -> None:
    """target += f * source on sparse rows, dropping entries that cancel and
    keeping the others of the canonical type."""
    for j, v in source.items():
        x = target.get(j, 0) + f * v
        if x:
            target[j] = _exact(x)
        else:
            del target[j]


def _rref(A: RationalMatrix) -> tuple[dict, list[tuple[int, int]]]:
    """Sparse reduced row echelon form of A, as {pivot column: row}, and
    its pivot pairs (i, c): row i of A entered and made pivot column c.

    Rows enter one at a time, in order. Each is cleared at the pivot columns
    found so far; if anything is left, its leftmost column becomes a new
    pivot, the row is scaled to 1 there and that column is cleared from the
    earlier pivot rows. Pivot rows are thus zero left of their pivot and at
    every other pivot column: the reduced form, which is unique, so the
    order of elimination never changes it. After k rows the pivot rows are
    such a basis of the first k rows' span, so the pairs with i < k and
    c < j are as many as the rank of the leading k x j corner of A.
    """
    basis, pairs = {}, []
    for i, source in enumerate(A._nz):
        row = dict(source)
        for c in [c for c in row if c in basis]:
            _add_scaled(row, -row[c], basis[c])
        if not row:
            continue
        c = min(row)
        if row[c] != 1:
            inv = ratio(1, row[c])
            row = {j: _exact(v * inv) for j, v in row.items()}
        for other in basis.values():
            if c in other:
                _add_scaled(other, -other[c], row)
        basis[c] = row
        pairs.append((i, c))
    return basis, pairs


def row_reduce(A: RationalMatrix) -> tuple[list[list[int | Fraction]],
                                          list[int]]:
    """Reduced row echelon form of A over Q, leaving A untouched.

    Returns (rows, pivots): the nonzero rows of the reduced form, one per
    pivot, and the pivot column of each.
    """
    basis, _ = _rref(A)
    pivots = sorted(basis)
    R = RationalMatrix._of(len(pivots), A.cols, [basis[c] for c in pivots])
    return R.tolist(), pivots


def pivot_pairs(A: RationalMatrix) -> list[tuple[int, int]]:
    """`_rref`'s pivot pairs (row, pivot column) of A, in the order made."""
    return _rref(A)[1]


def rank_exact(A: RationalMatrix) -> int:
    """Exact rank over the rationals."""
    return len(pivot_pairs(A))


def nullspace_exact(A: RationalMatrix) -> RationalMatrix:
    """Exact basis of ker(A), returned as columns of a cols x nullity matrix:
    one column per free column of the reduced form, in increasing order."""
    n = A.cols
    basis, _ = _rref(A)
    free = {c: k for k, c in enumerate(c for c in range(n) if c not in basis)}
    nz = [{} for _ in range(n)]
    for c, k in free.items():
        nz[c][k] = 1
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
    for pc, row in _rref(A.hstack(B))[0].items():
        if pc >= n:
            raise InputError("inconsistent linear system")
        nz[pc] = {j - n: v for j, v in row.items() if j >= n}
    return RationalMatrix._of(n, B.cols, nz)
