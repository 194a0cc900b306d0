"""Shared test helpers: random orthogonal matrices, float constants in a
rotated basis, heisenberg:3 in a basis not adapted to its lower central
series, the exact flatness check of an affine model, a metric equivariant
for every flat bundle, randomly generated bigraded complexes whose
differential squares to zero exactly, a spy that logs calls, the test of
an exact number's canonical type, and the spectra of a `nil_rescale` sweep
on its point-base route."""

import itertools
from fractions import Fraction
from functools import reduce
from math import comb

import numpy as np

from nilcollapse import lab, lie, spectral
from nilcollapse import superconnection as sconn
from nilcollapse.numerics import RationalMatrix, solve_exact
from nilcollapse.spectral import BigradedComplex


def canonical(x) -> bool:
    """Whether x is of the exact kernel's canonical type: an int, or a
    Fraction whose denominator is greater than 1; never a bool or a float."""
    return type(x) is int or type(x) is Fraction and x.denominator > 1


def random_orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def conjugated(c, q):
    """Float constants c[i, j, k] = c^k_ij in the orthonormal basis
    e'_a = sum_i q[i, a] e_i, q orthogonal."""
    return np.einsum("ia,jb,ijk,ck->abc", q, q, c, q.T)


def check_model_flatness(alg, holonomies, T=None):
    """`check_flatness` on the exact blocks of the affine model."""
    model = spectral.AffineModel(alg, holonomies, T)
    sconn.check_flatness(model.ranks, model.a0,
                         list(zip(*map(model.actions, range(alg.n + 1)))),
                         model.a2)
    return model


def interpolated_metric(bundle, base):
    """A bare-callable metric equivariant for every flat bundle over `base`.

    In the fundamental cell it interpolates multilinearly in x_g / L_g
    between the pullbacks P^T P, P = prod_g A_g^-c_g, at the cell's corners
    c: I and A^-T A^-1 over a circle, and also B and AB over the torus. It
    is extended by h(x + k L) = P_k^T h(x) P_k, P_k = prod_g A_g^-k_g. The
    corners agree across each seam because the holonomies commute."""
    def func(b, pts):
        inv = [np.linalg.inv(bundle.monodromy(g, b)) for g in range(base.dim)]
        cells = np.floor(pts / base.circumferences)
        frac = pts / base.circumferences - cells

        def pull(k):
            return reduce(np.matmul, [np.linalg.matrix_power(m, int(e))
                                      for m, e in zip(inv, k)])

        out = np.zeros((len(pts), bundle.rank(b), bundle.rank(b)))
        for corner in itertools.product((0, 1), repeat=base.dim):
            weight = np.prod(np.where(corner, frac, 1 - frac), axis=1)
            P = pull(corner)
            out += weight[:, None, None] * (P.T @ P)
        for k in np.unique(cells, axis=0):
            at = (cells == k).all(axis=1)
            P = pull(k)
            out[at] = P.T @ out[at] @ P
        return out
    return sconn.MetricField(bundle, base, func)


# heisenberg:3 in the basis f3 = e3 + e1: [f1, f2] = f3 - f1 and
# [f2, f3] = f1 - f3, so the center e3 = f3 - f1 is no basis vector
HEIS3_SKEW = {"dim": 3, "name": "heisenberg:3 skew", "brackets": [
    {"i": 1, "j": 2, "k": 3, "c": 1}, {"i": 1, "j": 2, "k": 1, "c": -1},
    {"i": 2, "j": 3, "k": 1, "c": 1}, {"i": 2, "j": 3, "k": 3, "c": -1}]}


def filiform_torus_complex(n):
    """Torus2 complex of filiform:n with trivial holonomy and a2 the
    contraction by the central direction e_n, so it has D_0, D_1 and D_2."""
    alg = lie.filiform(n)
    ranks = [comb(n, b) for b in range(n + 1)]
    eye = [RationalMatrix.identity(r) for r in ranks]
    return spectral.flat_bundle_complex(
        ranks, [lie.ce_differential(alg, b) for b in range(n)], [eye, eye],
        "torus2", a2=spectral.contraction_blocks([0] * (n - 1) + [1], n))


def weight_complex(algebra):
    """The Chevalley-Eilenberg complex of `algebra` filtered by the 3^k form
    weight f of `lie.lower_central_grading`: a p-form of weight f sits at
    a = f_max - f, b = p - a + OFF with OFF = f_max - f_min, so every
    p-form has total degree p + OFF, and the differential, which never
    raises f, never lowers a."""
    grading = lie.lower_central_grading(algebra)
    n = algebra.n
    weights = [[grading.form_weight(I) for I in lie.multi_indices(n, p)]
               for p in range(n + 1)]
    f_max = max(map(max, weights))
    off = f_max - min(map(min, weights))
    where = {}  # (p, form index) -> (spot, index at the spot)
    dims = {}
    for p, ws in enumerate(weights):
        for k, f in enumerate(ws):
            spot = (f_max - f, p - f_max + f + off)
            where[(p, k)] = (spot, dims.get(spot, 0))
            dims[spot] = dims.get(spot, 0) + 1
    entries = {}  # (shift, source spot) -> {(row, col): value}
    for p in range(n):
        d = lie.ce_differential(grading.algebra, p).tolist()
        for i, j in itertools.product(range(len(d)), range(len(d[0]))):
            if d[i][j]:
                (src, col), (dst, row) = where[(p, j)], where[(p + 1, i)]
                entries.setdefault((dst[0] - src[0], src), {})[(row, col)] = \
                    d[i][j]
    maps = {}
    for (shift, (a, b)), ent in entries.items():
        maps.setdefault(shift, {})[(a, b)] = RationalMatrix.from_entries(
            dims[(a + shift, b + 1 - shift)], dims[(a, b)], ent)
    return BigradedComplex(dims, maps)


def random_flat_complex(rng, a_max=2, b_max=2, max_dim=3):
    """Random first-quadrant bigraded complex with an exactly flat total
    differential, every spot of the (a_max + 1) x (b_max + 1) rectangle
    drawing a dimension up to max_dim."""
    while True:
        dims = {(a, b): int(rng.integers(0, max_dim + 1))
                for a in range(a_max + 1) for b in range(b_max + 1)}
        if sum(dims.values()) >= 2:
            break
    return random_flat_complex_on(rng, dims)


def random_flat_complex_on(rng, dims):
    """Random complex with an exactly flat total differential on the spot
    dimensions `dims`.

    Construction: a nilpotent degree-raising map N built from a matching of
    basis elements (sources and targets disjoint, so N @ N = 0 by
    construction), conjugated by a unimodular filtration-preserving change of
    basis P. D = P N P^-1 then squares to zero exactly and only raises the
    first grading index, which is what the page machinery assumes.
    """
    a_max = max(a for (a, _), d in dims.items() if d)
    elems = [(a, b, i) for (a, b) in sorted(dims) for i in range(dims[(a, b)])]
    index = {e: k for k, e in enumerate(elems)}
    n = len(elems)

    # matching: each chosen source maps to one target of total degree + 1
    # sitting at equal or higher filtration; no element is both.
    N = [[Fraction(0)] * n for _ in range(n)]
    used = set()
    for u in elems:
        if u in used or rng.random() < 0.4:
            continue
        a, b, _ = u
        cands = [v for v in elems
                 if v not in used and v != u
                 and v[0] + v[1] == a + b + 1 and v[0] >= a]
        if not cands:
            continue
        v = cands[int(rng.integers(len(cands)))]
        used.add(u)
        used.add(v)
        N[index[v]][index[u]] = Fraction(int(rng.integers(1, 4)))

    # unipotent base change that only moves mass to higher filtration
    P = [[Fraction(1) if r == c else Fraction(0) for c in range(n)]
         for r in range(n)]
    for u in elems:
        for v in elems:
            if u[0] + u[1] == v[0] + v[1] and u[0] > v[0] and rng.random() < 0.5:
                P[index[u]][index[v]] = Fraction(int(rng.integers(-2, 3)))
    P = RationalMatrix(P)
    Pinv = solve_exact(P, RationalMatrix.identity(n))
    D = (P @ RationalMatrix(N) @ Pinv).tolist()

    maps = {}
    for (a, b), d in dims.items():
        if d == 0:
            continue
        for i in range(a_max - a + 1):
            ta, tb = a + i, b + 1 - i
            if tb < 0 or dims.get((ta, tb), 0) == 0:
                continue
            rows = [index[(ta, tb, j)] for j in range(dims[(ta, tb)])]
            cols = [index[(a, b, j)] for j in range(d)]
            block = RationalMatrix([[D[r][c] for c in cols] for r in rows],
                                   cols=len(cols))
            if not block.is_zero():
                maps.setdefault(i, {})[(a, b)] = block
    return BigradedComplex({k: v for k, v in dims.items() if v > 0}, maps)


def spy(monkeypatch, owner, name, events, tag):
    """Replace owner.name by a wrapper that appends `tag` to `events` on
    each call, then calls the original."""
    real = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *a, **kw: events.append(tag)
                        or real(*a, **kw))


def rescaled_spectra(algebra, p: int, sweep, count: int = 64):
    """The degree-p spectrum of `nil_rescale` at each sweep value, on the
    scenario's own route: the (superconnection, metric) points over a point
    base that `lab.prepare` builds, each solved by `superconnection.spectrum`.
    `algebra` is anything `lie.load_algebra` reads."""
    step = lab.prepare({"kind": "nil_rescale", "model": {"algebra": algebra},
                        "sweep_values": list(sweep), "degrees": [p],
                        "count": count})
    return [sconn.spectrum(sc, h, p, count=count) for sc, h in step.points]
