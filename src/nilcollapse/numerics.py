"""Linear-algebra substrate: symmetric eigensolvers and exact rational rank
arithmetic.

Floating-point spectra go through LAPACK; everything that feeds a dimension
count (ranks, nullspaces, quotient dimensions) is done in exact rational
arithmetic so that rank decisions are never made by a tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.linalg


class InputError(ValueError):
    """Raised when an operation's preconditions are violated."""


# ---------------------------------------------------------------------------
# floating-point symmetric eigenproblems
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EigenResult:
    """Full spectrum of a (generalized) symmetric eigenproblem.

    eigenvalues are ascending; eigenvectors are the columns of `vectors`,
    orthonormal in the relevant inner product; `residual` is the max of
    ||A v - lambda (M) v|| over all pairs.
    """

    eigenvalues: np.ndarray
    vectors: np.ndarray
    residual: float


def _check_square_symmetric(A, tol, name="A"):
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise InputError(f"{name} must be square, got shape {A.shape}")
    scale = max(1.0, float(np.abs(A).max(initial=0.0)))
    asym = float(np.abs(A - A.T).max(initial=0.0))
    if asym > tol * scale:
        raise InputError(f"{name} asymmetric beyond tolerance: {asym:.3e}")
    return 0.5 * (A + A.T)


def sym_eig(A, tol: float = 1e-10) -> EigenResult:
    """Eigendecomposition of a symmetric matrix, eigenvalues ascending."""
    A = _check_square_symmetric(A, tol)
    w, v = np.linalg.eigh(A)
    residual = float(np.abs(A @ v - v * w).max(initial=0.0))
    return EigenResult(w, v, residual)


def gen_sym_eig(K, M, tol: float = 1e-10) -> EigenResult:
    """Solve K v = lambda M v for symmetric K and SPD M.

    Reduced to an ordinary symmetric problem through the Cholesky factor of M;
    a failed factorization defines the "not positive definite" error.
    Eigenvectors are returned M-orthonormal.
    """
    K = _check_square_symmetric(K, tol, "K")
    M = _check_square_symmetric(M, tol, "M")
    if K.shape != M.shape:
        raise InputError("K and M must have the same shape")
    try:
        L = np.linalg.cholesky(M)
    except np.linalg.LinAlgError as exc:
        raise InputError("M is not positive definite") from exc
    # L^{-1} K L^{-T} shares eigenvalues with the pencil (K, M).
    Y = scipy.linalg.solve_triangular(L, K, lower=True)
    C = scipy.linalg.solve_triangular(L, Y.T, lower=True)
    w, u = np.linalg.eigh(0.5 * (C + C.T))
    v = scipy.linalg.solve_triangular(L.T, u, lower=False)
    residual = float(np.abs(K @ v - (M @ v) * w).max(initial=0.0))
    return EigenResult(w, v, residual)


# ---------------------------------------------------------------------------
# exact rational matrices
# ---------------------------------------------------------------------------

def _to_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, np.integer)):
        return Fraction(int(x))
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, float):
        if x != int(x):
            raise InputError(f"non-integral float {x!r} not accepted as exact rational")
        return Fraction(int(x))
    raise InputError(f"cannot interpret {x!r} as an exact rational")


class RationalMatrix:
    """Dense matrix over Q. Immutable by convention; rows of Fractions."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data, cols: int | None = None):
        data = [[_to_fraction(x) for x in row] for row in data]
        self.rows = len(data)
        if self.rows:
            self.cols = len(data[0])
            if any(len(row) != self.cols for row in data):
                raise InputError("ragged rows")
        else:
            if cols is None:
                raise InputError("empty matrix needs an explicit column count")
            self.cols = cols
        self.data = data

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RationalMatrix":
        return cls([[Fraction(0)] * cols for _ in range(rows)], cols=cols)

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        m = cls.zeros(n, n)
        for i in range(n):
            m.data[i][i] = Fraction(1)
        return m

    @classmethod
    def from_numpy(cls, A) -> "RationalMatrix":
        A = np.asarray(A)
        return cls([[_to_fraction(A[i, j].item() if hasattr(A[i, j], "item") else A[i, j])
                     for j in range(A.shape[1])] for i in range(A.shape[0])],
                    cols=A.shape[1])

    def to_numpy(self) -> np.ndarray:
        return np.array([[float(x) for x in row] for row in self.data],
                        dtype=float).reshape(self.rows, self.cols)

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix([[self.data[i][j] for i in range(self.rows)]
                               for j in range(self.cols)], cols=self.rows)

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise InputError(f"shape mismatch {self.rows}x{self.cols} @ "
                             f"{other.rows}x{other.cols}")
        ot = other.transpose()
        out = []
        for row in self.data:
            out.append([sum(a * b for a, b in zip(row, col) if a and b)
                        for col in ot.data])
        return RationalMatrix(out, cols=other.cols)

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise InputError("shape mismatch in addition")
        return RationalMatrix([[a + b for a, b in zip(r1, r2)]
                               for r1, r2 in zip(self.data, other.data)],
                              cols=self.cols)

    def __neg__(self) -> "RationalMatrix":
        return RationalMatrix([[-a for a in row] for row in self.data],
                              cols=self.cols)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, s) -> "RationalMatrix":
        s = _to_fraction(s)
        return RationalMatrix([[s * a for a in row] for row in self.data],
                              cols=self.cols)

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.data for x in row)

    def __eq__(self, other):
        return (isinstance(other, RationalMatrix)
                and self.rows == other.rows and self.cols == other.cols
                and self.data == other.data)

    def __repr__(self):
        return f"RationalMatrix({self.rows}x{self.cols})"

    def hstack(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.rows != other.rows:
            raise InputError("row mismatch in hstack")
        return RationalMatrix([r1 + r2 for r1, r2 in zip(self.data, other.data)],
                              cols=self.cols + other.cols)

    def vstack(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.cols:
            raise InputError("column mismatch in vstack")
        return RationalMatrix(self.data + other.data, cols=self.cols)


def row_reduce(A: RationalMatrix) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form of A over Q, leaving A untouched.

    Returns (rows, pivots): the nonzero rows of the reduced form, one per
    pivot, and the pivot column of each.
    """
    data = [row[:] for row in A.data]
    pivots = []
    r = 0
    for c in range(A.cols):
        if r == A.rows:
            break
        pr = next((i for i in range(r, A.rows) if data[i][c] != 0), None)
        if pr is None:
            continue
        data[r], data[pr] = data[pr], data[r]
        inv = 1 / data[r][c]
        data[r] = [x * inv for x in data[r]]
        for i in range(A.rows):
            if i != r and data[i][c] != 0:
                f = data[i][c]
                data[i] = [a - f * b for a, b in zip(data[i], data[r])]
        pivots.append(c)
        r += 1
    return data[:r], pivots


def rank_exact(A: RationalMatrix) -> int:
    """Exact rank over the rationals."""
    return len(row_reduce(A)[1])


def nullspace_exact(A: RationalMatrix) -> RationalMatrix:
    """Exact basis of ker(A), returned as columns of a cols x nullity matrix."""
    n = A.cols
    rows, pivots = row_reduce(A)
    free = [c for c in range(n) if c not in pivots]
    basis_cols = []
    for fc in free:
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for row, pc in zip(rows, pivots):
            v[pc] = -row[fc]
        basis_cols.append(v)
    return RationalMatrix([[col[i] for col in basis_cols] for i in range(n)],
                          cols=len(basis_cols))


def solve_exact(A: RationalMatrix, B: RationalMatrix) -> RationalMatrix:
    """One exact solution X of A X = B; raises InputError if inconsistent."""
    if A.rows != B.rows:
        raise InputError("row mismatch in solve")
    rows, pivots = row_reduce(A.hstack(B))
    X = RationalMatrix.zeros(A.cols, B.cols)
    for row, pc in zip(rows, pivots):
        if pc >= A.cols:
            raise InputError("inconsistent linear system")
        X.data[pc] = row[A.cols:]
    return X


def quotient_dim(numerator_constraints: RationalMatrix,
                 denominator_generators: RationalMatrix) -> int:
    """dim ker(A) - dim(ker(A) /\\ rowspan(B)), computed exactly.

    `numerator_constraints` A and `denominator_generators` B act on the same
    ambient space (equal column counts); B's rows generate the subspace that
    gets quotiented out.
    """
    A, B = numerator_constraints, denominator_generators
    if A.cols != B.cols:
        raise InputError(f"ambient-dimension mismatch: {A.cols} vs {B.cols}")
    ker_dim = A.cols - rank_exact(A)
    # dim(ker A /\ rowspan B) = rank(B) - rank(A B^T):
    # y |-> B^T y maps onto rowspan(B); the intersection is the image of
    # ker(A B^T), and ker(B^T) sits inside ker(A B^T).
    inter = rank_exact(B) - rank_exact(A @ B.transpose())
    dim = ker_dim - inter
    if dim < 0:
        raise ArithmeticError(
            f"negative quotient dimension {dim}: kernel {ker_dim}, "
            f"intersection {inter}")
    return dim
