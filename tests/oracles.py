"""Builders only tests call, an exact matrix from a NumPy array and the
one-column complex of an algebra, and independent routes the tests check
the package against: the circle closed form of a total Betti number, the
invariant-form Laplacian of an algebra in floats, the rank of a complex's
total differential on a window of filtration indices, page r of a
spectral sequence built from r-tuple spaces, at the spots of the complex
or over the whole (a_max + 1) x (b_max + r) rectangle of spots, empty ones
included, each point of a bundle sweep built as a superconnection and
metric of its own, and the number-operator rescaling of an algebra solved
in floats without a base."""

from fractions import Fraction
from math import prod

import numpy as np

from nilcollapse import lie, spectral, superconnection as sconn
from nilcollapse.numerics import (InputError, RationalMatrix,
                                  lowest_eigenvalues, nullspace_exact,
                                  rank_exact)
from nilcollapse.report import SpectrumReport


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
    dims = {spot: sp.dimension() for spot, sp in spaces.items()}
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
    sc = sconn.from_affine_bundle(algebra, base, monodromy_action=[conj])
    return sc, sconn.MetricField.equivariant(sc.bundle, base)


def adiabatic_point(base, delta):
    """Point delta of the adiabatic circle bundle sweep as its own
    superconnection: a2 = delta * a2 of the T = 1 bundle, with the identity
    metric."""
    unit = sconn.from_affine_bundle(lie.abelian(1), base, T=[1])
    sc = sconn.Superconnection(unit.bundle, base, a0=unit.a0,
                               a2=[unit.a2[0].scale(Fraction(delta))])
    return sc, sconn.MetricField.identity(sc.bundle, base)


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
        src_w = np.array([grading.form_weight(I) for I in src])
        dst_w = np.array([grading.form_weight(I) for I in dst])
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
