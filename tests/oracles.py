"""Builders only tests call, an exact matrix from a NumPy array and the
one-column complex of an algebra, and independent routes the tests check
the package against: the circle closed form of a total Betti number, the
invariant-form Laplacian of an algebra in floats, the rank of a complex's
total differential on a window of filtration indices, page r of a
spectral sequence built from r-tuple spaces, at the spots of the complex
or over the whole (a_max + 1) x (b_max + r) rectangle of spots, empty ones
included, each point of a bundle sweep built as a superconnection and
metric of its own, the metric of a recorded gauge and weights as a bare
callable, the number-operator rescaling of an algebra solved in floats
without a base, and the grid Laplacian assembled as a sparse matrix from
the sampled mass of any metric, solved by LAPACK or ARPACK, with the
square-root perturbation and metric-continuity checks built on it, and the
Bloch solve of every solved Fourier mode that the package prunes."""

from dataclasses import dataclass
from fractions import Fraction
from math import prod

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from nilcollapse import lie, spectral, superconnection as sconn
from nilcollapse.numerics import (InputError, RationalMatrix, nullspace_exact,
                                  rank_exact)
from nilcollapse.report import SpectrumReport, closeness_epsilon


def from_numpy(A) -> RationalMatrix:
    """The exact matrix of a NumPy array of integers or integral floats."""
    A = np.asarray(A)
    return RationalMatrix(A.tolist(), cols=A.shape[1])


def from_algebra(algebra) -> spectral.BigradedComplex:
    """One-column complex: the exterior-algebra cochain complex of the
    fiber."""
    model = spectral.AffineModel(algebra, [])
    return spectral.flat_bundle_complex(model.ranks, model.a0, [], "point")


def leray_circle(monodromies_on_cohomology, p: int) -> int:
    """Total-space Betti number over a circle from the fiber-cohomology
    holonomy: invariants in degree p plus coinvariants in degree p - 1."""
    def phi(q):
        if 0 <= q < len(monodromies_on_cohomology):
            return monodromies_on_cohomology[q]
        return None

    out = 0
    mp = phi(p)
    if mp is not None:
        A = mp - RationalMatrix.identity(mp.cols)
        out += A.cols - rank_exact(A)
    mq = phi(p - 1)
    if mq is not None:
        A = mq - RationalMatrix.identity(mq.cols)
        out += A.rows - rank_exact(A)
    return out


def invariant_laplacian(algebra, p: int) -> np.ndarray:
    """d*d + dd* on Lambda^p, orthonormal basis."""
    d_p = lie.ce_differential(algebra, p).to_numpy()
    lap = d_p.T @ d_p
    if p > 0:
        d_prev = lie.ce_differential(algebra, p - 1).to_numpy()
        lap = lap + d_prev @ d_prev.T
    return lap


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
    # dim(ker A /\\ rowspan B) = rank(B) - rank(A B^T):
    # y |-> B^T y maps onto rowspan(B); the intersection is the image of
    # ker(A B^T), and ker(B^T) sits inside ker(A B^T).
    inter = rank_exact(B) - rank_exact(A @ B.transpose())
    dim = ker_dim - inter
    if dim < 0:
        raise ArithmeticError(
            f"negative quotient dimension {dim}: kernel {ker_dim}, "
            f"intersection {inter}")
    return dim


def window_rank(cx, n: int, lo: int, hi: int) -> int:
    """R_n(lo, hi): the rank of the total differential from the degree-n
    spots with lo <= a < hi to the degree-(n + 1) spots in the same window,
    with the window clamped to 0..a_max + 1; one elimination per window."""
    lo, hi = max(lo, 0), min(hi, cx.a_max + 1)
    if lo >= hi:
        return 0
    rows = [(a, n + 1 - a) for a in range(lo, hi) if cx.dim(a, n + 1 - a)]
    cols = [(a, n - a) for a in range(lo, hi) if cx.dim(a, n - a)]
    return rank_exact(cx.block(rows, cols))


class TupleSpace:
    """The r-tuple space at one spot, in filtration form.

    A class on page r at (a, b) is a tuple (omega^{a+s, b-s})_{s<r} whose
    total differential vanishes in the first r output rows, taken modulo
    two kinds of trivial classes: tuples with zero leading component (they
    live one filtration step deeper), and differentials of degree-(p-1)
    data from up to r-1 filtration steps below that lands in filtration a.
    Everything is a constraint matrix or a column-span, so page dimensions
    reduce to exact quotient computations.
    """

    def __init__(self, cx, r: int, a: int, b: int):
        self.spots = [(a + s, b - s) for s in range(r)]
        self.ambient = sum(cx.dim(*s) for s in self.spots)
        self.lead_dim = cx.dim(a, b)
        self.constraints = cx.block([(a + s, b - s + 1) for s in range(r)],
                                    self.spots)
        # admissible boundaries: d(y) for y reaching down to filtration
        # a - r + 1 with d(y) supported in filtration >= a
        hat = [(a + t, b - 1 - t) for t in range(-(r - 1), r)]
        low_rows = [(a + s, b - s) for s in range(-(r - 1), 0)]
        self.boundary_cols = (cx.block(self.spots, hat)
                              @ nullspace_exact(cx.block(low_rows, hat)))

    def dimension(self) -> int:
        if self.ambient == 0:
            return 0
        deep = RationalMatrix.from_entries(
            self.ambient - self.lead_dim, self.ambient,
            {(i, self.lead_dim + i): 1
             for i in range(self.ambient - self.lead_dim)})
        return quotient_dim(self.constraints,
                            self.boundary_cols.transpose().vstack(deep))

    def cycle_basis(self) -> RationalMatrix:
        return nullspace_exact(self.constraints)

    def denominator_basis(self) -> RationalMatrix:
        """Columns spanning the trivial classes inside the cycle space.

        Boundaries are automatically cycles (total differential squares to
        zero), so only the deep part needs intersecting with the cycles.
        """
        if self.ambient == 0:
            return RationalMatrix.zeros(0, 0)
        lead = RationalMatrix.from_entries(
            self.lead_dim, self.ambient,
            {(i, i): 1 for i in range(self.lead_dim)})
        deep_ker = nullspace_exact(self.constraints.vstack(lead))
        return self.boundary_cols.hstack(deep_ker)


def tuple_page(cx, r: int, spots=None):
    """(dims, d_ranks) of page r, with a tuple space at each of `spots`
    (default: the spots of cx). `dims` holds every spot visited, zeros
    included, and `d_ranks` the nonzero ranks of d_r, the rank of the image
    of the source's cycles modulo the target's trivial classes. Page 0 is
    the complex with the ranks of D_0."""
    if r == 0:
        ranks = {s: rank_exact(m) for s, m in cx.maps.get(0, {}).items()}
        return dict(cx.dims), {s: k for s, k in ranks.items() if k}
    spaces = {s: TupleSpace(cx, r, *s) for s in (spots or cx.dims)}
    dims = {spot: space.dimension() for spot, space in spaces.items()}
    d_ranks = {}
    for (a, b), d in dims.items():
        dst = (a + r, b - r + 1)
        if not d or not dims.get(dst):
            continue
        src, dst = spaces[(a, b)], spaces[dst]
        LZ = cx.block(dst.spots, src.spots) @ src.cycle_basis()
        # the page differential maps cycles to cycles
        assert (dst.constraints @ LZ).is_zero()
        W = dst.denominator_basis()
        rk = rank_exact(LZ.hstack(W)) - rank_exact(W)
        if rk:
            d_ranks[(a, b)] = rk
    return dims, d_ranks


def rectangle_page(cx, r: int):
    """`tuple_page` over the rectangle a <= a_max, b < b_max + r."""
    return tuple_page(cx, r, [(a, b) for a in range(cx.a_max + 1)
                              for b in range(cx.b_max + r)])


def degeneration_point(algebra, base, phi: RationalMatrix, weights, t):
    """Point t of a monodromy degeneration as its own bundle: the holonomy
    D(t) phi D(t)^-1 for D(t) = diag(t^weights), exact for the float t, with
    its own equivariant metric."""
    conj = RationalMatrix([[v * Fraction(t) ** (weights[i] - weights[j])
                            for j, v in enumerate(row)]
                           for i, row in enumerate(phi.tolist())])
    sc = sconn.from_affine_bundle(spectral.AffineModel(algebra, [conj]), base)
    return sc, sconn.MetricField.equivariant(sc.bundle, base)


def adiabatic_point(base, delta):
    """Point delta of the adiabatic circle bundle sweep as its own
    superconnection: a2 = delta * a2 of the T = 1 bundle, with the identity
    metric."""
    unit = sconn.from_affine_bundle(spectral.AffineModel(
        lie.abelian(1), [RationalMatrix.identity(1)] * base.dim, T=[1]), base)
    sc = sconn.Superconnection(unit.bundle, base, a0=unit.a0,
                               a2=[unit.a2[0].scale(Fraction(delta))])
    return sc, sconn.MetricField.identity(sc.bundle, base)


def weighted_metric(h, weights):
    """The metric G(x)^T diag(e^{2 lambda_b}) G(x) on degree b, G(x) =
    exp(-sum_g x_g X_g / L_g) of h's recorded logarithms X, as a bare
    callable for `assembled_spectrum`: the metric that
    `spectrum(..., weights=lambda)` solves in its Bloch gauge. Its
    constructor checks that it is equivariant."""
    base = h.base

    def func(b, pts):
        r = h.bundle.rank(b)
        G = scipy.linalg.expm(sum(
            ((-pts[:, g, None, None] / base.circumferences[g]) * h.logs[g][b]
             for g in range(base.dim)), np.zeros((len(pts), r, r))))
        M = np.exp(np.asarray(weights[b], dtype=float))[:, None] * G
        return M.transpose(0, 2, 1) @ M
    return sconn.MetricField(h.bundle, base, func)


def rescaled_spectrum(grading, p: int, eps: float) -> SpectrumReport:
    """Spectrum on Lambda^p of W^T W + W W^T, W = eps^{-N/2} d eps^{N/2} in
    orthonormal forms, N the 3^k number operator extended multiplicatively
    to the exterior algebra: the float formula that `nil_rescale` solved
    with before it took a point base. d is the exact differential of the
    adapted algebra in floats; its entry from form J to form I takes the
    factor sqrt(g_J / g_I) eps^{(w_J - w_I)/2}, g a form's Gram product and
    w its weight."""
    alg = grading.algebra
    if p > alg.n:  # there are no p-forms
        return SpectrumReport.from_eigenvalues(p, np.zeros(0))

    def scaled(q):
        src, dst = lie.multi_indices(alg.n, q), lie.multi_indices(alg.n, q + 1)
        src_w, dst_w = (np.array([sum(map(grading.vector_weight, I))
                                  for I in forms]) for forms in (src, dst))
        src_g, dst_g = (np.array([float(prod(grading.gram[i] for i in I))
                                  for I in forms]) for forms in (src, dst))
        scale = np.power(eps, 0.5 * (src_w[None, :] - dst_w[:, None]))
        return (lie.ce_differential(alg, q).to_numpy() * scale
                * np.sqrt(src_g[None, :] / dst_g[:, None]))

    w = scaled(p)
    lap = w.T @ w
    if p > 0:
        v = scaled(p - 1)
        lap = lap + v @ v.T
    return SpectrumReport.from_eigenvalues(
        p, lowest_eigenvalues(lap, lap.shape[0]))


# ---------------------------------------------------------------------------
# the assembled grid Laplacian
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
    # imported here: ARPACK loads only when a solve needs it
    import scipy.sparse.linalg as spla
    scale = max(1.0, float(abs(L).max()))
    # a fixed start vector makes the Lanczos run repeatable; not the
    # constant vector, which spans an invariant subspace of every
    # translation-invariant operator
    lam = spla.eigsh(L, k=count, sigma=-1e-3 * scale, which="LM",
                     v0=np.random.default_rng(0).standard_normal(n),
                     return_eigenvectors=False)
    return np.sort(lam)


def _point_blocks(rows, cols, blocks, shape, offset) -> sp.coo_matrix:
    """COO matrix of the given shape with the r_out x r_in block blocks[k]
    (or one block for every k) from grid point cols[k] to grid point
    rows[k], placed `offset` = (row, column) entries in."""
    blocks = np.broadcast_to(blocks, (len(rows),) + np.shape(blocks)[-2:])
    _, r_out, r_in = blocks.shape
    bi, bj = np.indices((r_out, r_in))
    row_idx = offset[0] + (rows[:, None, None] * r_out + bi).ravel()
    col_idx = offset[1] + (cols[:, None, None] * r_in + bj).ravel()
    return sp.coo_matrix((blocks.ravel(), (row_idx, col_idx)), shape=shape)


def _spd_power(blocks: np.ndarray, power: float) -> np.ndarray:
    w, v = np.linalg.eigh(blocks)
    if w.min() <= 0:
        raise InputError("mass block not positive definite")
    return np.einsum("pij,pj,pkj->pik", v, w ** power, v)


class AssembledComplex(sconn.DiscreteComplex):
    """The total differential of `DiscreteComplex`'s layout and terms,
    assembled on the staggered grids as sparse matrices and weighted by the
    mass that the metric samples, so any checked metric of sc's base and
    bundle will do, a bare callable included: the route the Bloch solve is
    checked against."""

    def __init__(self, sc, h):
        self.sc, self.h, self.base, self.bundle = sc, h, sc.base, sc.bundle
        self._weighted = {}

    def differential(self, p: int) -> sp.csr_matrix:
        """The degree-p differential, one `_point_blocks` matrix per term."""
        src, dst = self.components(p), self.components(p + 1)
        src_off = np.cumsum([0] + [self.component_size(c) for c in src])
        dst_off = np.cumsum([0] + [self.component_size(c) for c in dst])
        N, pts = self.base.resolution, np.arange(self.base.npoints)
        grid = pts.reshape((N,) * self.base.dim)
        out = sp.csr_matrix((self.dim(p + 1), self.dim(p)))
        for i, j, gen, c in self.terms(p):
            at = (dst_off[i], src_off[j])
            if gen is None:
                out += _point_blocks(pts, pts, c, out.shape, at)
                continue
            # c (S - I) / h, where the one-step shift S crosses the seam
            # through the monodromy
            phi = self.bundle.monodromy(gen, src[j][1])
            step, eye = self.base.steps[gen], np.eye(len(phi))
            seam = (np.indices(grid.shape)[gen] == N - 1).ravel()
            shift = np.where(seam[:, None, None], phi, eye)
            out += _point_blocks(pts, np.roll(grid, -1, axis=gen).ravel(),
                                 c * (shift / step), out.shape, at)
            out += _point_blocks(pts, pts, c * (-eye / step), out.shape, at)
        out.eliminate_zeros()
        return out

    def _mass_power(self, p: int, power: float) -> sp.csr_matrix:
        """M_p^power of the degree-p mass: cell volume times the metric at
        each component's staggered points, one block per grid point."""
        pts = np.arange(self.base.npoints)
        out = sp.csr_matrix((self.dim(p), self.dim(p)))
        offset = 0
        for dirs, b in self.components(p):
            mass = float(np.prod(self.base.steps)) * self.h.sample(
                b, self.base.points(stagger=dirs))
            out += _point_blocks(pts, pts, _spd_power(mass, power), out.shape,
                                 (offset, offset))
            offset += self.component_size((dirs, b))
        return out

    def weighted_differential(self, p: int) -> sp.csr_matrix:
        """W_p = M_{p+1}^{1/2} D_p M_p^{-1/2}, the degree-p differential in
        orthonormal frames of the mass, where its adjoint is W_p^T; built
        once per complex."""
        if p not in self._weighted:
            self._weighted[p] = (self._mass_power(p + 1, 0.5)
                                 @ self.differential(p)
                                 @ self._mass_power(p, -0.5)).tocsr()
        return self._weighted[p]

    def laplacian(self, p: int) -> sp.csr_matrix:
        """W_p^T W_p + W_{p-1} W_{p-1}^T: the degree-p Laplacian d*d + dd*
        in the orthonormal frame of the mass, symmetric by construction."""
        W = self.weighted_differential(p)
        Wm = self.weighted_differential(p - 1)
        return (W.T @ W + Wm @ Wm.T).tocsr()

    def operator_norm(self, other: "AssembledComplex") -> float:
        """Weighted operator norm of the difference of the two total
        differentials (both complexes must share the grid and metric)."""
        worst = 0.0
        top = self.base.dim + self.bundle.top
        for p in range(top + 1):
            A = self.weighted_differential(p) - other.weighted_differential(p)
            if A.nnz == 0:
                continue
            G = (A.T @ A).toarray() if A.shape[1] <= 1500 else None
            if G is not None:
                worst = max(worst, float(np.sqrt(max(
                    0.0, np.linalg.eigvalsh(0.5 * (G + G.T))[-1]))))
            else:
                # imported here, as in lowest_eigenvalues
                import scipy.sparse.linalg as spla
                s = spla.svds(A, k=1, return_singular_vectors=False)
                worst = max(worst, float(s[0]))
        return worst


def all_mode_eigenvalues(dc, p: int, weights=None) -> np.ndarray:
    """Every eigenvalue of the degree-p Laplacian of the `DiscreteComplex`
    `dc` under `weights`, ascending: `eigvalsh` on the Fourier block of
    every solved mode, a paired mode's eigenvalues counted twice. This is
    the solve that `bloch_eigenvalues` prunes to the modes that can hold
    its lowest `count`. Weights are checked by `check_weights`, which
    keeps them as the complex's stack of one in degree p."""
    logs = None if weights is None else dc.check_weights(p, [weights])
    lam = np.linalg.eigvalsh(dc._laplacian_blocks(p, logs)[0])
    return np.sort(np.concatenate([lam.ravel(), lam[dc._paired].ravel()]))


def assembled_spectrum(sc, h, p: int, count: int = 12,
                       dc=None) -> SpectrumReport:
    """The `count` lowest eigenvalues of the assembled degree-p Laplacian of
    (sc, h), by `lowest_eigenvalues` and the rounding rule of every
    spectrum; `dc` is an `AssembledComplex` of (sc, h), built when None."""
    dc = AssembledComplex(sc, h) if dc is None else dc
    return SpectrumReport.from_eigenvalues(
        p, lowest_eigenvalues(dc.laplacian(p), min(count, dc.dim(p))))


# ---------------------------------------------------------------------------
# stability checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PerturbationReport:
    """Eq-style square-root eigenvalue continuity check between two flat
    superconnections on the same bundle and metric."""

    operator_norm: float
    bound: float
    max_difference: float
    max_ratio: float
    holds: bool


PERTURBATION_CONSTANT = 2.0 + np.sqrt(2.0)


def perturbation_check(sc1, sc2, h, p: int,
                       count: int = 8) -> PerturbationReport:
    """The difference sc2 - sc1 is an endomorphism-valued form when both
    live over h's base and bundle, which their complexes require. The
    spectra are `superconnection.spectrum`'s, the operator norm that of
    the assembled weighted differentials."""
    d1 = sconn.DiscreteComplex(sc1, h)
    d2 = sconn.DiscreteComplex(sc2, h)
    norm = AssembledComplex(sc1, h).operator_norm(AssembledComplex(sc2, h))
    s1 = sconn.spectrum(sc1, h, p, count=count, dc=d1)
    s2 = sconn.spectrum(sc2, h, p, count=count, dc=d2)
    diffs = np.abs(np.sqrt(s1.eigenvalues) - np.sqrt(s2.eigenvalues))
    bound = PERTURBATION_CONSTANT * norm
    max_diff = float(diffs.max(initial=0.0))
    ratio = max_diff / bound if bound > 0 else (0.0 if max_diff == 0 else np.inf)
    return PerturbationReport(norm, bound, max_diff, ratio,
                              bool(max_diff <= bound + 1e-9))


@dataclass(frozen=True)
class MetricContinuityReport:
    eps_in: float
    eps_out: float


def metric_continuity_check(sc, h1, h2, p: int, eps: float,
                            count: int = 8) -> MetricContinuityReport:
    """Smallest eps' with eps'-close spectra for two eps-close metrics,
    each solved assembled, so that either may be a bare callable."""
    s1 = assembled_spectrum(sc, h1, p, count=count)
    s2 = assembled_spectrum(sc, h2, p, count=count)
    return MetricContinuityReport(eps, closeness_epsilon(s1, s2))
