"""Nilpotent Lie algebras with inner products.

The basis handed to an algebra is always declared orthonormal; everything
downstream (codifferentials, curvature, number-operator rescaling) is phrased
in that basis. Structure constants are kept as exact rationals whenever
possible so that cohomology ranks are exact; conjugated algebras fall back to
floats for the spectral operations only.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .numerics import (InputError, RationalMatrix, integer,
                       lowest_eigenvalues, nullspace_exact, rank_exact,
                       rational, row_reduce)


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

    `c[i][j][k]` holds c^k_ij. Entries are Fractions for exact algebras, or
    floats after a numeric change of basis.
    """

    def __init__(self, n: int, c, name: str = ""):
        self.n = n
        self.name = name
        self.exact = all(isinstance(x, (Fraction, int)) for ijk in c
                         for jk in ijk for x in jk)
        if self.exact:
            self.c = [[[Fraction(x) for x in jk] for jk in ijk] for ijk in c]
        else:
            self.c = [[[float(x) for x in jk] for jk in ijk] for ijk in c]

    @classmethod
    def from_brackets(cls, n: int, brackets, name: str = "") -> "NilpotentLieAlgebra":
        """brackets: iterable of (i, j, k, coeff), 0-based, i < j."""
        c = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
        for i, j, k, coeff in brackets:
            coeff = rational(coeff)
            c[i][j][k] += coeff
            c[j][i][k] -= coeff
        return cls(n, c, name=name)

    def c_float(self) -> np.ndarray:
        return np.array([[[float(x) for x in jk] for jk in ijk]
                         for ijk in self.c], dtype=float)

    def bracket_matrix(self, i: int) -> RationalMatrix:
        """ad(e_i) as a matrix (column j = [e_i, e_j])."""
        if not self.exact:
            raise InputError("exact bracket requested on a float algebra")
        return RationalMatrix([[self.c[i][j][k] for j in range(self.n)]
                               for k in range(self.n)], cols=self.n)

    def conjugate(self, Q: np.ndarray) -> "NilpotentLieAlgebra":
        """Change of basis e'_a = sum_i Q[i, a] e_i (new constants are floats
        unless Q is exactly rational-orthogonal; floats are fine here since
        conjugated algebras only feed spectral operations)."""
        Q = np.asarray(Q, dtype=float)
        c = self.c_float()
        Qinv = np.linalg.inv(Q)
        cp = np.einsum("ia,jb,ijk,ck->abc", Q, Q, c, Qinv)
        return NilpotentLieAlgebra(
            self.n, cp.tolist(), name=f"{self.name}~conj" if self.name else "")


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


def direct_sum(a: NilpotentLieAlgebra, b: NilpotentLieAlgebra) -> NilpotentLieAlgebra:
    n = a.n + b.n
    brackets = []
    for i in range(a.n):
        for j in range(i + 1, a.n):
            for k in range(a.n):
                if a.c[i][j][k]:
                    brackets.append((i, j, k, a.c[i][j][k]))
    for i in range(b.n):
        for j in range(i + 1, b.n):
            for k in range(b.n):
                if b.c[i][j][k]:
                    brackets.append((a.n + i, a.n + j, a.n + k, b.c[i][j][k]))
    return NilpotentLieAlgebra.from_brackets(
        n, brackets, name=f"{a.name}+{b.name}")


_PRESETS = {"abelian": abelian, "heisenberg": heisenberg, "filiform": filiform}


def load_algebra(spec) -> NilpotentLieAlgebra:
    """Load from a preset name like "heisenberg:3", a dict, or a JSON path.
    Whatever it loads is validated: InputError unless a nilpotent Lie
    algebra."""
    if isinstance(spec, NilpotentLieAlgebra):
        rep = validate(spec)
        if not rep.ok():
            raise InputError(f"algebra invalid: {rep}")
        return spec
    if isinstance(spec, str) and ":" in spec and not spec.endswith(".json"):
        kind, _, dim = spec.partition(":")
        if kind not in _PRESETS:
            raise InputError(f"unknown preset family {kind!r}")
        # a suffix that is not all digits reaches `integer` as a string
        return load_algebra(_PRESETS[kind](integer(
            int(dim) if dim.isdecimal() else dim, f"the dimension of {kind}")))
    if isinstance(spec, str):
        with open(spec) as fh:
            spec = json.load(fh)
    try:
        n = integer(spec["dim"], "dim")
        brackets = [(integer(b["i"], "bracket index i") - 1,
                     integer(b["j"], "bracket index j") - 1,
                     integer(b["k"], "bracket index k") - 1, b["c"])
                    for b in spec["brackets"]]
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed algebra description: {exc}") from exc
    for i, j, k, _ in brackets:
        if not (0 <= i < j < n and 0 <= k < n):
            raise InputError(f"bracket (i, j, k) = {(i + 1, j + 1, k + 1)} needs "
                             f"1 <= i < j <= dim and 1 <= k <= dim = {n}")
    try:
        algebra = NilpotentLieAlgebra.from_brackets(n, brackets,
                                                    name=spec.get("name", ""))
    except InputError as exc:  # from reading a coefficient
        raise InputError(f"bracket coefficient c: {exc}") from exc
    return load_algebra(algebra)


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
    zero = 0 if algebra.exact else 1e-10
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if abs(c[i][j][k] + c[j][i][k]) > zero:
                    return ValidationReport(False, False, False, (i, j, k))
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                for l in range(n):
                    s = sum(c[i][j][m] * c[m][k][l] + c[j][k][m] * c[m][i][l]
                            + c[k][i][m] * c[m][j][l] for m in range(n))
                    if abs(s) > zero:
                        return ValidationReport(True, False, False, (i, j, k, l))
    if algebra.exact:
        nilpotent = not _lower_central_series(algebra)[-1].cols
    else:
        cf = algebra.c_float()
        span = np.eye(n)
        for _ in range(n + 1):
            bracketed = np.einsum("ijk,jl->kil", cf, span).reshape(n, -1)
            span = _float_colspace(bracketed, zero)
            if span.shape[1] == 0:
                break
        nilpotent = span.shape[1] == 0
    return ValidationReport(True, True, nilpotent, None)


def _float_colspace(A: np.ndarray, tol: float) -> np.ndarray:
    if A.size == 0:
        return np.zeros((A.shape[0], 0))
    u, s, _ = np.linalg.svd(A, full_matrices=False)
    r = int((s > tol * max(1.0, s[0] if len(s) else 1.0)).sum())
    return u[:, :r]


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
    """Filtration data in an adapted orthonormal basis.

    filtration[i] is the depth index of basis vector i (nondecreasing);
    pieces[k] is the dimension of the k-th graded quotient; weights[k] = 3**k.
    `algebra` carries the (possibly re-expressed) adapted basis.
    """

    algebra: NilpotentLieAlgebra
    filtration: tuple[int, ...]
    pieces: tuple[int, ...]
    weights: tuple[int, ...] = field(default=())

    def __post_init__(self):
        if not self.weights:
            object.__setattr__(self, "weights",
                               tuple(3 ** k for k in range(len(self.pieces))))

    def vector_weight(self, i: int) -> int:
        return 3 ** self.filtration[i]

    def form_weight(self, idx: tuple[int, ...]) -> int:
        return sum(self.vector_weight(i) for i in idx)


def lower_central_grading(algebra: NilpotentLieAlgebra) -> AdaptedGrading:
    """Filtration n_[k] = n'_[k] + center, with graded pieces and 3^k weights.

    If the given orthonormal basis is not adapted to the filtration, a
    filtration-respecting Gram-Schmidt produces an adapted orthonormal basis
    and the algebra is re-expressed in it (float constants).
    """
    if not algebra.exact:
        raise InputError("lower_central_grading needs exact structure constants")
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

    def membership(space: RationalMatrix, i: int) -> bool:
        ei = RationalMatrix([[Fraction(1) if j == i else Fraction(0)]
                             for j in range(n)])
        return rank_exact(space.hstack(ei)) == space.cols

    filtration = []
    for i in range(n):
        k = 0
        for kk in range(S, -1, -1):
            if membership(filt_spaces[kk], i):
                k = kk
                break
        filtration.append(k)
    adapted = (all(a <= b for a, b in zip(filtration, filtration[1:]))
               and all(sum(1 for f in filtration if f >= k) == dims[k]
                       for k in range(S + 1)))
    pieces = tuple(dims[k] - (dims[k + 1] if k + 1 <= S else 0)
                   for k in range(S + 1))
    if adapted:
        return AdaptedGrading(algebra, tuple(filtration), pieces)
    # Gram-Schmidt an adapted orthonormal basis: complement of n_[k+1] in n_[k],
    # pieces listed by increasing depth.
    cols, filt = [], []
    deeper = np.zeros((n, 0))
    for k in range(S, -1, -1):
        space = filt_spaces[k].to_numpy()
        block = []
        for v in space.T:
            w = v - deeper @ (deeper.T @ v)
            for u in block:
                w = w - u * (u @ w)
            norm = np.linalg.norm(w)
            if norm > 1e-10:
                block.append(w / norm)
        deeper = np.column_stack([deeper] + block) if block else deeper
        cols = block + cols
        filt = [k] * len(block) + filt
    Q = np.column_stack(cols)
    return AdaptedGrading(algebra.conjugate(Q), tuple(filt), pieces)


# ---------------------------------------------------------------------------
# Chevalley-Eilenberg complex
# ---------------------------------------------------------------------------

def _ce_entries(algebra: NilpotentLieAlgebra, p: int):
    """Entries of d on Lambda^p, as ((row_index, col_index) -> coeff)."""
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
    return entries, len(src), len(dst)


def ce_differential(algebra: NilpotentLieAlgebra, p: int) -> RationalMatrix:
    """Exact matrix of d on Lambda^p in the lexicographic multi-index basis."""
    if not algebra.exact:
        raise InputError("exact differential requires exact structure constants")
    entries, ncols, nrows = _ce_entries(algebra, p)
    return RationalMatrix.from_entries(nrows, ncols, entries)


def ce_matrix(algebra: NilpotentLieAlgebra, p: int) -> np.ndarray:
    """Float matrix of d on Lambda^p (works for conjugated algebras too)."""
    entries, ncols, nrows = _ce_entries(algebra, p)
    m = np.zeros((nrows, ncols))
    for (r, cidx), val in entries.items():
        m[r, cidx] = float(val)
    return m


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

def connection_coeffs(algebra: NilpotentLieAlgebra) -> np.ndarray:
    """Levi-Civita connection components w[i, j, k] in the orthonormal basis:
    w^i_jk = -(c^i_jk - c^j_ik - c^k_ij)/2."""
    c = algebra.c_float()
    # c_float[j][k][i] = c^i_jk
    cijk = np.transpose(c, (2, 0, 1))  # cijk[i, j, k] = c^i_jk
    return -0.5 * (cijk - np.transpose(cijk, (1, 0, 2))
                   - np.transpose(cijk, (1, 2, 0)))


def riemann_tensor(algebra: NilpotentLieAlgebra) -> np.ndarray:
    """R[i, j, k, l] with the derivative terms dropped (components constant)."""
    w = connection_coeffs(algebra)
    t1 = np.einsum("ijm,mlk->ijkl", w, w)
    t2 = np.einsum("ijm,mkl->ijkl", w, w)
    t3 = np.einsum("imk,mjl->ijkl", w, w)
    t4 = np.einsum("iml,mjk->ijkl", w, w)
    return -t1 + t2 + t3 - t4


def scalar_curvature(algebra: NilpotentLieAlgebra) -> tuple[float, float]:
    """Scalar curvature computed two independent ways: as the trace of the
    curvature tensor, and as -(1/4) sum (c^i_jk)^2. Both are returned; they
    must agree to 1e-10 relative."""
    R = riemann_tensor(algebra)
    kappa_trace = float(np.einsum("ijij->", R))
    c = algebra.c_float()
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
        if not algebra.exact:
            raise InputError("symmetry check needs exact structure constants")
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
        P = sum(acts[1:], acts[0]).scale(Fraction(1, len(acts)))
        _, pivots = row_reduce(P)
        return RationalMatrix([[row[j] for j in pivots] for row in P.tolist()],
                              cols=len(pivots))


def compound_matrix(rows, p: int) -> list[list]:
    """p-th compound of a square matrix given as rows: its p x p minors in
    the lexicographic multi-index basis, i.e. its action on Lambda^p.

    Each minor is expanded along its first row into (p-1)-minors of the rows
    below, so only + and * are used: exact on Fractions, plain arithmetic on
    floats.
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


def invariant_basis(F: FiniteSymmetryGroup, p: int) -> np.ndarray:
    """Orthonormal basis (columns) of the F-invariant subspace of Lambda^p:
    the QR frame of the exact basis `F.invariant_forms(p)`."""
    return np.linalg.qr(F.invariant_forms(p).to_numpy())[0]


# ---------------------------------------------------------------------------
# invariant Laplacian and the collapsing rescaling
# ---------------------------------------------------------------------------

def invariant_laplacian(algebra: NilpotentLieAlgebra, p: int) -> np.ndarray:
    """d*d + dd* on Lambda^p, orthonormal basis."""
    d_p = ce_matrix(algebra, p)
    lap = d_p.T @ d_p
    if p > 0:
        d_prev = ce_matrix(algebra, p - 1)
        lap = lap + d_prev @ d_prev.T
    return lap


def rescaled_differential(algebra: NilpotentLieAlgebra, grading: AdaptedGrading,
                          eps: float) -> dict[int, np.ndarray]:
    """eps^{-N/2} d eps^{N/2} per degree, N the 3^k number operator extended
    multiplicatively to the exterior algebra. Still squares to zero."""
    n = algebra.n
    out = {}
    for p in range(n):
        d = ce_matrix(grading.algebra, p)
        src_w = np.array([grading.form_weight(I) for I in multi_indices(n, p)])
        dst_w = np.array([grading.form_weight(I) for I in multi_indices(n, p + 1)])
        scale = np.power(eps, 0.5 * (src_w[None, :] - dst_w[:, None]))
        out[p] = d * scale
    return out


def rescaled_laplacian(algebra: NilpotentLieAlgebra, grading: AdaptedGrading,
                       p: int, eps: float) -> np.ndarray:
    ds = rescaled_differential(algebra, grading, eps)
    n = algebra.n
    d_p = ds[p] if p < n else np.zeros((0, len(multi_indices(n, p))))
    lap = d_p.T @ d_p
    if p > 0:
        lap = lap + ds[p - 1] @ ds[p - 1].T
    return lap


def rescaled_spectrum(algebra: NilpotentLieAlgebra, grading: AdaptedGrading,
                      p: int, eps: float):
    from .report import SpectrumReport
    lap = rescaled_laplacian(algebra, grading, p, eps)
    return SpectrumReport.from_eigenvalues(
        p, lowest_eigenvalues(lap, lap.shape[0]))
