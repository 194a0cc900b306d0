"""Independent routes the tests check the package against: the circle
closed form of a total Betti number, the invariant-form Laplacian of an
algebra in floats, and page r of a spectral sequence built over the whole
(a_max + 1) x (b_max + r) rectangle of spots, empty ones included."""

import numpy as np

from nilcollapse import lie, spectral
from nilcollapse.numerics import RationalMatrix, rank_exact


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
    d_p = lie.ce_matrix(algebra, p)
    lap = d_p.T @ d_p
    if p > 0:
        d_prev = lie.ce_matrix(algebra, p - 1)
        lap = lap + d_prev @ d_prev.T
    return lap


def rectangle_page(cx, r: int):
    """(dims, d_ranks) of page r >= 1 with a tuple space at every spot of
    the rectangle a <= a_max, b < b_max + r: `dims` holds every spot, zeros
    included, and `d_ranks` the nonzero ranks of d_r."""
    spaces = {(a, b): spectral._TupleSpace(cx, r, a, b)
              for a in range(cx.a_max + 1) for b in range(cx.b_max + r)}
    dims = {spot: sp.dimension() for spot, sp in spaces.items()}
    d_ranks = {}
    for (a, b), d in dims.items():
        dst = (a + r, b - r + 1)
        if not d or not dims.get(dst):
            continue
        src, dst = spaces[(a, b)], spaces[dst]
        LZ = cx.block(dst.spots, src.spots) @ src.cycle_basis()
        W = dst.denominator_basis()
        rk = rank_exact(LZ.hstack(W)) - rank_exact(W)
        if rk:
            d_ranks[(a, b)] = rk
    return dims, d_ranks
