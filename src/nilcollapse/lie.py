"""Nilpotent Lie algebras with inner products.

The basis handed to an algebra is always declared orthonormal; everything
downstream (codifferentials, curvature, number-operator rescaling) is phrased
in that basis. Structure constants are exact rationals, so cohomology ranks
are exact. `lower_central_grading` re-expresses the algebra exactly in a
rational orthogonal basis adapted to the lower central series, with the
weights and Gram that the rescaling's fiber metric reads; curvature reads
the float constants `c_float` gives.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .numerics import (REQUIRED, InputError, RationalMatrix, integer,
                       nullspace_exact, rank_exact, ratio, rational,
                       read_fields, read_json, row_reduce)


# ---------------------------------------------------------------------------
# exterior-algebra bookkeeping
# ---------------------------------------------------------------------------

def multi_indices(n: int, p: int) -> list[tuple[int, ...]]:
    """Strictly increasing multi-indices in lexicographic order."""
    return list(itertools.combinations(range(n), p))


def sort_with_sign(seq):
    """Sort a tuple of indices; return (sorted tuple, permutation sign) or
    None when an index repeats (the wedge vanishes)."""
    seq = list(seq)
    sign = 1
    for i in range(1, len(seq)):
        j = i
        while j > 0 and seq[j - 1] > seq[j]:
            seq[j - 1], seq[j] = seq[j], seq[j - 1]
            sign = -sign
            j -= 1
    for a, b in zip(seq, seq[1:]):
        if a == b:
            return None
    return tuple(seq), sign


# ---------------------------------------------------------------------------
# the algebra type
# ---------------------------------------------------------------------------

class NilpotentLieAlgebra:
    """Structure constants c^k_ij of [e_i, e_j] = sum_k c^k_ij e_k.

    `c[i][j][k]` holds c^k_ij exactly, of the canonical type (an int, or a
    Fraction with a denominator): every constant is read by
    `numerics.rational`, so a non-integral float raises InputError.
    """

    def __init__(self, n: int, c, name: str = ""):
        self.n = n
        self.name = name
        self.c = [[[rational(x) for x in jk] for jk in ijk] for ijk in c]

    @classmethod
    def from_brackets(cls, n: int, brackets, name: str = "") -> "NilpotentLieAlgebra":
        """brackets: iterable of (i, j, k, coeff), 0-based, i < j."""
        c = [[[0] * n for _ in range(n)] for _ in range(n)]
        for i, j, k, coeff in brackets:
            coeff = rational(coeff)
            c[i][j][k] += coeff
            c[j][i][k] -= coeff
        return cls(n, c, name=name)

    def c_float(self) -> np.ndarray:
        """The constants as the float array c[i, j, k] = c^k_ij."""
        return np.array(self.c, dtype=float)

    def bracket_matrix(self, i: int) -> RationalMatrix:
        """ad(e_i) as a matrix (column j = [e_i, e_j])."""
        return RationalMatrix([[self.c[i][j][k] for j in range(self.n)]
                               for k in range(self.n)], cols=self.n)


# ---------------------------------------------------------------------------
# presets and serialization
# ---------------------------------------------------------------------------

def abelian(n: int) -> NilpotentLieAlgebra:
    return NilpotentLieAlgebra.from_brackets(n, [], name=f"abelian:{n}")


def heisenberg(n: int) -> NilpotentLieAlgebra:
    if n < 3 or n % 2 == 0:
        raise InputError("heisenberg algebras have odd dimension >= 3")
    m = (n - 1) // 2
    brackets = [(2 * i, 2 * i + 1, n - 1, 1) for i in range(m)]
    return NilpotentLieAlgebra.from_brackets(n, brackets, name=f"heisenberg:{n}")


def filiform(n: int) -> NilpotentLieAlgebra:
    if n < 3:
        raise InputError("filiform algebras need dimension >= 3")
    brackets = [(0, j, j + 1, 1) for j in range(1, n - 1)]
    return NilpotentLieAlgebra.from_brackets(n, brackets, name=f"filiform:{n}")


_PRESETS = {"abelian": abelian, "heisenberg": heisenberg, "filiform": filiform}


def load_algebra(spec) -> NilpotentLieAlgebra:
    """Load from a preset name like "heisenberg:3", a dict, or a JSON path.
    Whatever it loads is validated: InputError unless a nilpotent Lie
    algebra."""
    if isinstance(spec, str) and ":" in spec and not spec.endswith(".json"):
        kind, _, dim = spec.partition(":")
        if kind not in _PRESETS:
            raise InputError(f"unknown preset family {kind!r}")
        # a suffix that is not all digits reaches `integer` as a string
        spec = _PRESETS[kind](integer(
            int(dim) if dim.isdecimal() else dim, f"the dimension of {kind}"))
    if not isinstance(spec, NilpotentLieAlgebra):
        alg = read_fields(read_json(spec, "algebra"), _ALGEBRA_FIELDS,
                          "algebra")
        n = alg["dim"]
        for i, j, k, _ in alg["brackets"]:
            if not (1 <= i < j <= n and 1 <= k <= n):
                raise InputError(f"bracket (i, j, k) = {(i, j, k)} needs "
                                 f"1 <= i < j <= dim and 1 <= k <= dim = {n}")
        try:
            spec = NilpotentLieAlgebra.from_brackets(n, [
                (i - 1, j - 1, k - 1, c) for i, j, k, c in alg["brackets"]],
                name=alg["name"])
        except InputError as exc:  # from reading a coefficient
            raise InputError(f"bracket coefficient c: {exc}") from exc
    rep = validate(spec)
    if not rep.ok():
        raise InputError(f"algebra invalid: {rep}")
    return spec


_BRACKET_FIELDS = {  # read in this order, as (i, j, k, c)
    **{name: (lambda x, name=name: integer(x, f"bracket index {name}"),
              REQUIRED) for name in "ijk"}, "c": (lambda c: c, REQUIRED)}
_ALGEBRA_FIELDS = {
    "dim": (lambda x: integer(x, "dim"), REQUIRED),
    "brackets": (lambda bs: [tuple(read_fields(
        b, _BRACKET_FIELDS, "bracket").values()) for b in bs], REQUIRED),
    "name": (str, "")}


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ValidationReport:
    antisymmetry_ok: bool
    jacobi_ok: bool
    nilpotent: bool
    first_violation: tuple | None = None

    def ok(self) -> bool:
        return self.antisymmetry_ok and self.jacobi_ok and self.nilpotent


def validate(algebra: NilpotentLieAlgebra) -> ValidationReport:
    c = algebra.c
    n = algebra.n
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if c[i][j][k] + c[j][i][k]:
                    return ValidationReport(False, False, False, (i, j, k))
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                for l in range(n):
                    s = sum(c[i][j][m] * c[m][k][l] + c[j][k][m] * c[m][i][l]
                            + c[k][i][m] * c[m][j][l] for m in range(n))
                    if s:
                        return ValidationReport(True, False, False, (i, j, k, l))
    nilpotent = not _lower_central_series(algebra)[-1].cols
    return ValidationReport(True, True, nilpotent, None)


def _span_union(mats: list[RationalMatrix], n: int) -> RationalMatrix:
    """Column span of a collection of exact matrices, as an n x r basis."""
    cols = [col for m in mats for col in m.transpose().tolist()]
    basis, _ = row_reduce(RationalMatrix(cols, cols=n))
    return RationalMatrix(basis, cols=n).transpose()


def _lower_central_series(algebra: NilpotentLieAlgebra) -> list[RationalMatrix]:
    """[n'_0, n'_1, ...] as column-basis matrices, ending with the first 0."""
    n = algebra.n
    series = [RationalMatrix.identity(n)]
    for _ in range(n + 1):
        prev = series[-1]
        if prev.cols == 0:
            break
        mats = [algebra.bracket_matrix(i) @ prev for i in range(n)]
        nxt = _span_union(mats, n)
        series.append(nxt)
        if nxt.cols == 0:
            break
    return series


def _center(algebra: NilpotentLieAlgebra) -> RationalMatrix:
    n = algebra.n
    rows = []
    for i in range(n):
        for k in range(n):
            rows.append([algebra.c[j][i][k] for j in range(n)])
    return nullspace_exact(RationalMatrix(rows, cols=n))


# ---------------------------------------------------------------------------
# lower-central-series grading and the number operator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AdaptedGrading:
    """Filtration data in a rational orthogonal adapted basis.

    `algebra` is the algebra re-expressed, with exact constants, in the
    basis f_i that Gram-Schmidt without normalization finds; `gram[i]` is
    the exact |f_i|^2, all 1 when the given basis is already adapted.
    filtration[i] is the depth index of f_i (nondecreasing); pieces[k] is
    the dimension of the k-th graded quotient, of vector weight 3**k.
    """

    algebra: NilpotentLieAlgebra
    filtration: tuple[int, ...]
    pieces: tuple[int, ...]
    gram: tuple[int | Fraction, ...]

    def vector_weight(self, i: int) -> int:
        return 3 ** self.filtration[i]

    def form_weight(self, idx: tuple[int, ...]) -> int:
        return sum(self.vector_weight(i) for i in idx)


def lower_central_grading(algebra: NilpotentLieAlgebra) -> AdaptedGrading:
    """Filtration n_[k] = n'_[k] + center, with graded pieces and 3^k weights.

    Gram-Schmidt without normalization, exact over Q, runs through the
    filtration spaces from the deepest: each new vector of n_[k] is
    orthogonal to n_[k+1]. The vectors, pieces listed by increasing depth,
    are the adapted basis; the algebra is re-expressed in it exactly.
    """
    report = validate(algebra)
    if not report.nilpotent:
        raise InputError("algebra is not nilpotent")
    n = algebra.n
    series = _lower_central_series(algebra)  # n'_0 = full, ..., 0
    center = _center(algebra)
    # S = last index with n'_S != 0 (Eq: filtration runs k = 0..S, n_[S] = center)
    S = max(k for k, m in enumerate(series) if m.cols > 0)
    filt_spaces = []
    for k in range(S + 1):
        prim = series[k] if k < len(series) else RationalMatrix.zeros(n, 0)
        filt_spaces.append(_span_union([prim, center], n))
    filt_spaces[0] = RationalMatrix.identity(n)
    dims = [m.cols for m in filt_spaces]  # n_[0] >= n_[1] >= ... >= n_[S]
    pieces = tuple(dims[k] - (dims[k + 1] if k + 1 <= S else 0)
                   for k in range(S + 1))
    found = []  # (depth, f, |f|^2), deepest first
    for k in range(S, -1, -1):
        for v in filt_spaces[k].transpose().tolist():
            w = v
            for _, u, g in found:
                t = ratio(sum(a * b for a, b in zip(u, v)), g)
                if t:
                    w = [a - t * b for a, b in zip(w, u)]
            if any(w):
                found.append((k, w, rational(sum(a * a for a in w))))
    found.sort(key=lambda f: f[0])  # stable: each piece keeps its order
    filtration = tuple(k for k, _, _ in found)
    gram = tuple(g for _, _, g in found)
    basis = [f for _, f, _ in found]
    # c'^k_ab = f_k . [f_a, f_b] / g_k, summed over the nonzero constants
    nonzero = [(i, j, k, x) for i, ci in enumerate(algebra.c)
               for j, cij in enumerate(ci) for k, x in enumerate(cij) if x]
    c = [[[0] * n for _ in range(n)] for _ in range(n)]
    for a, b in itertools.combinations(range(n), 2):
        br = [0] * n  # [f_a, f_b]
        for i, j, k, x in nonzero:
            if basis[a][i] and basis[b][j]:
                br[k] += basis[a][i] * basis[b][j] * x
        if any(br):
            c[a][b] = [ratio(sum(u * v for u, v in zip(fk, br) if v), g)
                       for fk, g in zip(basis, gram)]
            c[b][a] = [-x for x in c[a][b]]
    return AdaptedGrading(NilpotentLieAlgebra(n, c, name=algebra.name),
                          filtration, pieces, gram)


# ---------------------------------------------------------------------------
# Chevalley-Eilenberg complex
# ---------------------------------------------------------------------------

def ce_differential(algebra: NilpotentLieAlgebra, p: int) -> RationalMatrix:
    """Exact matrix of d on Lambda^p in the lexicographic multi-index basis."""
    n = algebra.n
    if not 0 <= p <= n:
        raise InputError(f"degree {p} out of range for dimension {n}")
    src = multi_indices(n, p)
    dst = {idx: r for r, idx in enumerate(multi_indices(n, p + 1))}
    entries = {}
    c = algebra.c
    for col, I in enumerate(src):
        for a, ia in enumerate(I):
            rest = I[:a] + I[a + 1:]
            # d tau^{ia} = - sum_{u<v} c^{ia}_{uv} tau^u ^ tau^v
            for u in range(n):
                for v in range(u + 1, n):
                    coeff = c[u][v][ia]
                    if not coeff:
                        continue
                    res = sort_with_sign((u, v) + rest)
                    if res is None:
                        continue
                    J, sign = res
                    val = -coeff * sign * (-1) ** a
                    key = (dst[J], col)
                    entries[key] = entries.get(key, 0) + val
    return RationalMatrix.from_entries(len(dst), len(src), entries)


def betti_numbers(algebra: NilpotentLieAlgebra) -> list[int]:
    """Exact cohomology dimensions of the invariant-form complex."""
    n = algebra.n
    ranks = [rank_exact(ce_differential(algebra, p)) for p in range(n + 1)]
    dims = [len(multi_indices(n, p)) for p in range(n + 1)]
    out = []
    for p in range(n + 1):
        prev = ranks[p - 1] if p > 0 else 0
        out.append(dims[p] - ranks[p] - prev)
    return out


# ---------------------------------------------------------------------------
# curvature of the left-invariant metric
# ---------------------------------------------------------------------------

# Each takes the float constants c[i, j, k] = c^k_ij of `c_float`.

def connection_coeffs(c: np.ndarray) -> np.ndarray:
    """Levi-Civita connection components w[i, j, k] in the orthonormal basis:
    w^i_jk = -(c^i_jk - c^j_ik - c^k_ij)/2."""
    cijk = np.transpose(c, (2, 0, 1))  # cijk[i, j, k] = c^i_jk
    return -0.5 * (cijk - np.transpose(cijk, (1, 0, 2))
                   - np.transpose(cijk, (1, 2, 0)))


def riemann_tensor(c: np.ndarray) -> np.ndarray:
    """R[i, j, k, l] with the derivative terms dropped (components constant)."""
    w = connection_coeffs(c)
    t1 = np.einsum("ijm,mlk->ijkl", w, w)
    t2 = np.einsum("ijm,mkl->ijkl", w, w)
    t3 = np.einsum("imk,mjl->ijkl", w, w)
    t4 = np.einsum("iml,mjk->ijkl", w, w)
    return -t1 + t2 + t3 - t4


def scalar_curvature(c: np.ndarray) -> tuple[float, float]:
    """Scalar curvature computed two independent ways: as the trace of the
    curvature tensor, and as -(1/4) sum (c^i_jk)^2. Both are returned; they
    must agree to 1e-10 relative."""
    R = riemann_tensor(c)
    kappa_trace = float(np.einsum("ijij->", R))
    kappa_structure = -0.25 * float((c * c).sum())
    if abs(kappa_trace - kappa_structure) > 1e-10 * max(1.0, abs(kappa_structure)):
        raise ArithmeticError(
            f"scalar-curvature routes disagree: {kappa_trace} vs {kappa_structure}")
    return kappa_trace, kappa_structure


# ---------------------------------------------------------------------------
# finite symmetry groups
# ---------------------------------------------------------------------------

class FiniteSymmetryGroup:
    """A finite group of orthogonal automorphisms of the algebra, stored
    exactly: each element is read by `RationalMatrix` (an integer, an
    integral float or a rational string), so every test is an equality.

    Construction checks the group axioms, which need no algebra: square
    elements of one shape, the identity among them, g^T g = I and closure
    under products (which implies inverses for a finite set). `check`
    adds the tests against an algebra."""

    def __init__(self, elements):
        self.elements = [g if isinstance(g, RationalMatrix)
                         else RationalMatrix(g) for g in elements]
        if not self.elements:
            raise InputError("group must contain at least the identity")
        n = self.elements[0].rows
        if any((g.rows, g.cols) != (n, n) for g in self.elements):
            raise InputError("group elements must be square of one shape")
        eye = RationalMatrix.identity(n)
        if eye not in self.elements:
            raise InputError("group does not contain the identity")
        for g in self.elements:
            if g.transpose() @ g != eye:
                raise InputError("group element is not orthogonal")
        for g in self.elements:
            for f in self.elements:
                if g @ f not in self.elements:
                    raise InputError("group not closed under products")

    def check(self, algebra: NilpotentLieAlgebra) -> None:
        n = algebra.n
        if self.elements[0].rows != n:
            raise InputError(f"group elements must be {n}x{n} matrices")
        d1 = ce_differential(algebra, 1)
        for g in self.elements:
            # automorphism: g acts on forms by g^-T = g, and that action
            # commutes with d on 1-forms, the dual of the bracket
            if d1 @ g != RationalMatrix(compound_matrix(g.tolist(), 2),
                                        cols=d1.rows) @ d1:
                raise InputError(
                    "group element is not a Lie-algebra automorphism")

    def invariant_forms(self, b: int) -> RationalMatrix:
        """Exact basis (columns) of the b-forms every element fixes: the
        pivot columns of the Reynolds projector |F|^-1 sum_g Lambda^b g. An
        orthogonal g acts on forms by its own compound (g^-T = g)."""
        acts = [RationalMatrix(compound_matrix(g.tolist(), b))
                for g in self.elements]
        P = sum(acts[1:], acts[0]).scale(ratio(1, len(acts)))
        _, pivots = row_reduce(P)
        return RationalMatrix([[row[j] for j in pivots] for row in P.tolist()],
                              cols=len(pivots))


def compound_matrix(rows, p: int) -> list[list]:
    """p-th compound of a square matrix given as rows: its p x p minors in
    the lexicographic multi-index basis, i.e. its action on Lambda^p.

    Each minor is expanded along its first row into (p-1)-minors of the rows
    below, so only + and * are used: exact on ints and Fractions, plain
    arithmetic on floats.
    """
    n = len(rows)
    minors = {((), ()): 1}
    for k in range(1, p + 1):
        cols = multi_indices(n, k)
        # a p x p minor only ever expands into the last k of its rows
        row_sets = [I for I in cols if I[0] >= p - k]
        minors = {(I, J): sum((-1) ** t * rows[I[0]][j]
                              * minors[(I[1:], J[:t] + J[t + 1:])]
                              for t, j in enumerate(J) if rows[I[0]][j])
                  for I in row_sets for J in cols}
    idx = multi_indices(n, p)
    return [[minors[(I, J)] for J in idx] for I in idx]
