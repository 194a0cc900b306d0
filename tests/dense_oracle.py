"""Dense exact kernel kept as a test oracle for the sparse one in
`nilcollapse.numerics`: full lists of Fractions, Gauss-Jordan elimination
column by column taking the first nonzero row as pivot, and the nullspace,
solve and quotient dimension built on it in the plainest way."""

from fractions import Fraction


class DenseRationalMatrix:
    """Dense matrix over Q, rows of Fractions."""

    def __init__(self, data, cols: int | None = None):
        data = [[Fraction(x) for x in row] for row in data]
        self.rows = len(data)
        if self.rows:
            self.cols = len(data[0])
            if any(len(row) != self.cols for row in data):
                raise ValueError("ragged rows")
        else:
            if cols is None:
                raise ValueError("empty matrix needs an explicit column count")
            self.cols = cols
        self.data = data

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "DenseRationalMatrix":
        return cls([[Fraction(0)] * cols for _ in range(rows)], cols=cols)

    def transpose(self) -> "DenseRationalMatrix":
        return DenseRationalMatrix([[self.data[i][j] for i in range(self.rows)]
                                    for j in range(self.cols)], cols=self.rows)

    def __matmul__(self, other: "DenseRationalMatrix") -> "DenseRationalMatrix":
        assert self.cols == other.rows
        ot = other.transpose()
        return DenseRationalMatrix(
            [[sum(a * b for a, b in zip(row, col)) for col in ot.data]
             for row in self.data], cols=other.cols)

    def __add__(self, other: "DenseRationalMatrix") -> "DenseRationalMatrix":
        assert (self.rows, self.cols) == (other.rows, other.cols)
        return DenseRationalMatrix([[a + b for a, b in zip(r1, r2)]
                                    for r1, r2 in zip(self.data, other.data)],
                                   cols=self.cols)

    def scale(self, s) -> "DenseRationalMatrix":
        return DenseRationalMatrix([[s * a for a in row] for row in self.data],
                                   cols=self.cols)

    def hstack(self, other: "DenseRationalMatrix") -> "DenseRationalMatrix":
        assert self.rows == other.rows
        return DenseRationalMatrix([r1 + r2 for r1, r2 in
                                    zip(self.data, other.data)],
                                   cols=self.cols + other.cols)

    def vstack(self, other: "DenseRationalMatrix") -> "DenseRationalMatrix":
        assert self.cols == other.cols
        return DenseRationalMatrix(self.data + other.data, cols=self.cols)


def row_reduce(A: DenseRationalMatrix):
    """(rows, pivots) of the reduced row echelon form of A."""
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


def rank(A: DenseRationalMatrix) -> int:
    return len(row_reduce(A)[1])


def nullspace(A: DenseRationalMatrix) -> DenseRationalMatrix:
    """One basis column per free column, in increasing order."""
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
    return DenseRationalMatrix([[col[i] for col in basis_cols]
                                for i in range(n)], cols=len(basis_cols))


def solve(A: DenseRationalMatrix, B: DenseRationalMatrix):
    """The solution of A X = B with zero free variables, or None when the
    system is inconsistent."""
    rows, pivots = row_reduce(A.hstack(B))
    X = DenseRationalMatrix.zeros(A.cols, B.cols)
    for row, pc in zip(rows, pivots):
        if pc >= A.cols:
            return None
        X.data[pc] = row[A.cols:]
    return X


def quotient_dim(A: DenseRationalMatrix, B: DenseRationalMatrix) -> int:
    """dim ker A - dim(ker A /\\ rowspan B), via a joint rank."""
    K = nullspace(A)
    joint = rank(K.transpose().vstack(B))
    return K.cols - (K.cols + rank(B) - joint)
