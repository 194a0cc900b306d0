"""Exact spectral-sequence machinery for finite bigraded complexes.

A bigraded complex carries a total differential D = D_0 + D_1 + D_2 + ...
where D_i raises the first grading by i and the second by 1 - i. All page
dimensions and differential ranks are computed over the rationals, so a
reported dimension is a theorem about the input, not a tolerance call.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

from . import lie
from .numerics import (REQUIRED, InputError, RationalMatrix, integer,
                       nullspace_exact, pivot_pairs, rank_exact, ratio,
                       read_blocks, read_fields, row_reduce, solve_exact)


class BigradedComplex:
    """Finite first-quadrant bigraded complex with differentials D_i of
    bidegree (i, 1-i)."""

    def __init__(self, dims, maps):
        if any(a < 0 or b < 0 or d < 0 for (a, b), d in dims.items()):
            raise InputError("bigraded spots must sit in the first quadrant "
                             "and have dimension >= 0")
        self.dims = {spot: d for spot, d in dims.items() if d > 0}
        self.maps: dict[int, dict[tuple[int, int], RationalMatrix]] = {}
        for i, per_spot in maps.items():
            bucket = {}
            for (a, b), mat in per_spot.items():
                if i < 0:
                    raise InputError(
                        f"D_{i} at {(a, b)} lowers the filtration: every "
                        f"shift must be >= 0")
                if not isinstance(mat, RationalMatrix):
                    mat = RationalMatrix(mat, cols=self.dim(a, b))
                want = (self.dim(a + i, b + 1 - i), self.dim(a, b))
                if (mat.rows, mat.cols) != want:
                    raise InputError(
                        f"D_{i} at {(a, b)} has shape {(mat.rows, mat.cols)}, "
                        f"expected {want}")
                if mat.rows and mat.cols:
                    bucket[(a, b)] = mat
            if bucket:
                self.maps[i] = bucket
        self.a_max = max((a for a, _ in self.dims), default=0)
        self.b_max = max((b for _, b in self.dims), default=0)
        self.check_complex()
        self._pairs: dict[int, list[tuple[tuple[int, int], int]]] = {}

    # -- access -------------------------------------------------------------

    def dim(self, a: int, b: int) -> int:
        return self.dims.get((a, b), 0)

    def check_complex(self) -> None:
        """D^2 = 0, graded piece by graded piece: at each spot and total
        shift s, the products D_i D_j of stored maps with i + j = s sum to
        zero. A product with a zero factor is zero, so the stored maps that
        are zero are passed over: every sum, and so every verdict, is the
        one of all the products."""
        maps = {i: {spot: mat for spot, mat in per_spot.items()
                    if not mat.is_zero()}
                for i, per_spot in self.maps.items()}
        sums = {}
        for j, first in maps.items():
            for (a, b), dj in first.items():
                mid = (a + j, b + 1 - j)
                for i, second in maps.items():
                    di = second.get(mid)
                    if di is not None:
                        key = ((a, b), i + j)
                        prod = di @ dj
                        sums[key] = sums[key] + prod if key in sums else prod
        for (spot, s), acc in sorted(sums.items()):
            if not acc.is_zero():
                raise InputError(f"D^2 != 0 in total shift {s} at spot {spot}")

    # -- total complex ------------------------------------------------------

    def total_spots(self, p: int) -> list[tuple[int, int]]:
        return [(a, p - a) for a in range(p + 1) if self.dim(a, p - a) > 0]

    def total_dim(self, p: int) -> int:
        return sum(self.dim(a, b) for a, b in self.total_spots(p))

    def block(self, row_spots, col_spots) -> RationalMatrix:
        """The total differential from the spots `col_spots` to the spots
        `row_spots`, one total degree higher, stacked in the order given:
        the block from s to t is D_{t_a - s_a} at s, and zero if t_a < s_a
        or that map is not stored or is zero, which is passed over."""
        blocks = {}
        for r, t in enumerate(row_spots):
            for c, s in enumerate(col_spots):
                mat = self.maps.get(t[0] - s[0], {}).get(s)
                if mat is not None and not mat.is_zero():
                    blocks[r, c] = mat
        return RationalMatrix.from_blocks(
            blocks, [self.dim(*t) for t in row_spots],
            [self.dim(*s) for s in col_spots])

    def pairs(self, n: int) -> list[tuple[tuple[int, int], int]]:
        """The pivot pairs of the total differential D_n, as (source spot,
        length): one `pivot_pairs` of the `block` with the degree-(n + 1)
        spots as rows, a ascending, and the degree-n spots as columns, a
        descending. A pair joins a row at a_row to its pivot column at
        a_col <= a_row, as D never lowers a, and length = a_row - a_col.
        The window rank R_n(lo, hi) is that of a leading corner, so it is
        the number of pairs with a_col >= lo and a_row < hi. Memoized."""
        if n not in self._pairs:
            rows, cols = self.total_spots(n + 1), self.total_spots(n)[::-1]
            row_a = [a for a, b in rows for _ in range(self.dim(a, b))]
            col_spot = [s for s in cols for _ in range(self.dim(*s))]
            self._pairs[n] = [
                (col_spot[j], row_a[i] - col_spot[j][0])
                for i, j in pivot_pairs(self.block(rows, cols))]
        return self._pairs[n]

    def top_total_degree(self) -> int:
        return max((a + b for a, b in self.dims), default=0)

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "dims": [[a, b, d] for (a, b), d in sorted(self.dims.items())],
            "maps": [
                {"shift": i, "a": a, "b": b,
                 "matrix": [[str(x) for x in row] for row in mat.tolist()]}
                for i in sorted(self.maps)
                for (a, b), mat in sorted(self.maps[i].items())
            ],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "BigradedComplex":
        """The complex of a parsed `to_dict` payload, read by its fields;
        each spot and each map may appear once."""
        cx = read_fields(payload, _COMPLEX_FIELDS, "complex")
        maps: dict[int, dict] = {}
        for m in cx["maps"]:
            per_spot, spot = maps.setdefault(m["shift"], {}), (m["a"], m["b"])
            if spot in per_spot:
                raise InputError(f"D_{m['shift']} at {spot} is listed twice")
            per_spot[spot] = m["matrix"]
        return cls(cx["dims"], maps)


def _read_dims(triples) -> dict:
    dims = {}
    for a, b, d in triples:
        spot = (integer(a, "spot a"), integer(b, "spot b"))
        if spot in dims:
            raise InputError(f"spot {spot} is listed twice")
        dims[spot] = integer(d, "spot dimension")
    return dims


_MAP_FIELDS = {name: (lambda x, name=name: integer(x, f"map {name}"), REQUIRED)
               for name in ("shift", "a", "b")} | {"matrix": (list, REQUIRED)}
_COMPLEX_FIELDS = {
    "dims": (_read_dims, REQUIRED),
    "maps": (lambda ms: [read_fields(m, _MAP_FIELDS, "map") for m in ms], [])}


# ---------------------------------------------------------------------------
# pages
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Page:
    """One page: dimensions plus the rank of the outgoing page differential."""

    r: int
    dims: dict
    d_ranks: dict

    def dim(self, a: int, b: int) -> int:
        return self.dims.get((a, b), 0)

    def total(self, p: int) -> int:
        return sum(d for (a, b), d in self.dims.items() if a + b == p)

    def totals(self) -> list[int]:
        top = max((a + b for a, b in self.dims), default=-1)
        return [self.total(p) for p in range(top + 1)]


def page(cx: BigradedComplex, r: int) -> Page:
    """Dimensions of page r together with the ranks of its differential d_r,
    counted off the pivot pairs `cx.pairs`. At a spot (a, b) of dimension g,
    the leading parts at a of the cycles of the window a..a+r-1 number
    Z_r = g - #(pairs out of the spot of length < r), and the boundaries of
    the window a-r+1..a in filtration a number B_r = #(pairs into it of
    length < r); dim E_r = Z_r - B_r, and rank d_r = Z_r - Z_{r+1} =
    #(pairs out of it of length r). Page 0 is the complex itself with the
    ranks of D_0. E_r is 0 wherever cx has no spot."""
    if r < 0:
        raise InputError("negative page index")
    dims, d_ranks = dict(cx.dims), {}
    for n in range(cx.top_total_degree()):
        for (a, b), length in cx.pairs(n):
            if length < r:
                dims[(a, b)] -= 1
                dims[(a + length, b + 1 - length)] -= 1
            elif length == r:
                d_ranks[(a, b)] = d_ranks.get((a, b), 0) + 1
    return Page(r, {s: d for s, d in dims.items() if d}, d_ranks)


@dataclass(frozen=True)
class SpectralSequence:
    """Pages E_1 ... E_{a_max+1} of a complex, each built once, its total
    Betti numbers by degree, and the first r whose page equals the last.
    d_r raises the filtration index by r, so every d_r with r > a_max is
    zero and the last page is E_infinity."""

    pages: list
    betti: list
    stabilizes_at: int

    @property
    def stable(self) -> Page:
        return self.pages[-1]


def spectral_sequence(cx: BigradedComplex) -> SpectralSequence:
    """All pages of `cx`, cross-checked two ways: page r+1 must be the
    homology of (page r, d_r), and the stable page's totals must be the total
    cohomology, with one `rank_exact` per total differential, the number of
    its pivot pairs. Both hold by construction of `page`'s pair counts and
    guard them; a failed check raises ArithmeticError naming spot or degree."""
    pages = [page(cx, r) for r in range(1, cx.a_max + 2)]
    for cur, nxt in zip(pages, pages[1:]):
        r = cur.r
        for a, b in set(cur.dims) | set(nxt.dims):
            expect = (cur.dim(a, b) - cur.d_ranks.get((a, b), 0)
                      - cur.d_ranks.get((a - r, b + r - 1), 0))
            if nxt.dim(a, b) != expect:
                raise ArithmeticError(
                    f"page recursion fails at {(a, b)}: "
                    f"dim E_{r + 1} = {nxt.dim(a, b)}, homology gives {expect}")
    top = cx.top_total_degree()
    ranks = [0] + [len(cx.pairs(p)) for p in range(top)] + [0]
    betti = [cx.total_dim(p) - ranks[p] - ranks[p + 1] for p in range(top + 1)]
    stable = pages[-1]
    for p, want in enumerate(betti):
        if stable.total(p) != want:
            raise ArithmeticError(
                f"E_infinity total {stable.total(p)} != total cohomology "
                f"{want} in degree {p}")
    first = next(pg.r for pg in pages if pg.dims == stable.dims)
    return SpectralSequence(pages, betti, first)


# ---------------------------------------------------------------------------
# model complexes for flat bundles over a k-torus: a point, a circle, T^2
# ---------------------------------------------------------------------------

_BASE_GENS = {"point": 0, "circle": 1, "torus2": 2}


def base_generators(kind: str) -> int:
    """The number of generators k of a base kind, the k-torus T^k; the one
    table of base kinds. InputError for a kind it does not list."""
    try:
        return _BASE_GENS[kind]
    except (KeyError, TypeError):
        raise InputError(f"unsupported base kind {kind!r}") from None


def flat_bundle_complex(ranks, a0, monodromies, base_kind: str,
                        a2=None) -> BigradedComplex:
    """Group-cochain model of the twisted cohomology over the base T^k: the
    Koszul complex of Z^k with coefficients in the fiber forms.

    ranks: fiber dims per degree. a0: per-degree fiber differential (zero
    when None). monodromies: per base generator, a per-degree list of
    holonomy matrices. a2: optional per-degree contraction blocks (T^2 only;
    the rank pattern is what matters, so the base area is taken to be 1).
    Every block is read by `numerics.read_blocks`. Spot (a, b) holds one
    copy of the fiber b-forms per component J in combinations(range(k), a);
    D_0 is (-1)^a a0 on each, D_1 takes J to J + {g} by
    (-1)^#(j in J, j > g) (Phi_g - I), and D_2 is a2.
    """
    k = base_generators(base_kind)
    if a2 is not None and k < 2:
        raise InputError("a2 needs a 2-dimensional base")
    ranks = [int(r) for r in ranks]
    m = len(ranks) - 1
    a0 = read_blocks(a0, [(ranks[b + 1], ranks[b]) for b in range(m)], "a0")
    steps = [[phi - RationalMatrix.identity(r) for phi, r in zip(
        read_blocks(gen, [(r, r) for r in ranks], f"monodromy[{g}]"), ranks)]
        for g, gen in enumerate(monodromies)]
    if len(steps) != k:
        raise InputError(f"a {base_kind} base needs {k} monodromy "
                         f"generators, got {len(steps)}")
    comps = [list(combinations(range(k), a)) for a in range(k + 2)]
    dims, d0, d1 = {}, {}, {}
    for a, here in enumerate(comps[:-1]):
        up = {J: i for i, J in enumerate(comps[a + 1])}
        # (component of J + {g}, component of J, g, whether the sign is -)
        arrows = [(up[tuple(sorted(J + (g,)))], i, g,
                   sum(j > g for j in J) % 2)
                  for i, J in enumerate(here) for g in range(k) if g not in J]
        for b, r in enumerate(ranks):
            dims[(a, b)] = len(here) * r
            if b < m:
                blk = -a0[b] if a % 2 else a0[b]
                d0[(a, b)] = RationalMatrix.from_blocks(
                    {(i, i): blk for i in range(len(here))},
                    [ranks[b + 1]] * len(here), [r] * len(here))
            if arrows:
                d1[(a, b)] = RationalMatrix.from_blocks(
                    {(t, s): -steps[g][b] if minus else steps[g][b]
                     for t, s, g, minus in arrows},
                    [r] * len(up), [r] * len(here))
    maps = {0: d0, 1: d1}
    if a2 is not None:
        maps[2] = {(0, b): blk for b, blk in enumerate(read_blocks(
            a2, [(ranks[b - 1], ranks[b]) for b in range(1, m + 1)], "a2",
            first=1), start=1)}
    return BigradedComplex({s: d for s, d in dims.items() if d > 0}, maps)


# ---------------------------------------------------------------------------
# exact matrix invariants of a holonomy
# ---------------------------------------------------------------------------

# a polynomial is its exact coefficients, low to high

def _poly_deriv(c: list) -> list:
    return [k * c[k] for k in range(1, len(c))]


def _poly_trim(c: list) -> list:
    while c and c[-1] == 0:
        c = c[:-1]
    return c


def _poly_mod(a: list, b: list) -> list:
    a, b = _poly_trim(a[:]), _poly_trim(b)
    while len(a) >= len(b) > 0:
        f = ratio(a[-1], b[-1])
        shift = len(a) - len(b)
        for i, bi in enumerate(b):
            a[shift + i] -= f * bi
        a = _poly_trim(a)
    return a


def _poly_gcd(a: list, b: list) -> list:
    """The monic gcd of two polynomials, of the canonical type; [] if both
    are zero."""
    a, b = _poly_trim(a), _poly_trim(b)
    while b:
        a, b = b, _poly_mod(a, b)
    if a:
        lead = a[-1]
        a = [ratio(x, lead) for x in a]
    return a


def minimal_polynomial(A: RationalMatrix) -> list:
    """Monic minimal polynomial, coefficients low to high, computed exactly."""
    if A.rows != A.cols:
        raise InputError("minimal polynomial needs a square matrix")
    n = A.rows
    if n == 0:
        return [1]
    powers = [RationalMatrix.identity(n)]
    vecs = [[x for row in powers[0].tolist() for x in row]]
    while rank_exact(RationalMatrix(vecs, cols=n * n)) == len(vecs):
        powers.append(powers[-1] @ A)
        vecs.append([x for row in powers[-1].tolist() for x in row])
    k = len(powers) - 1
    cols = RationalMatrix([[vecs[i][j] for i in range(k)]
                           for j in range(n * n)], cols=k)
    target = RationalMatrix([[vecs[k][j]] for j in range(n * n)], cols=1)
    x = solve_exact(cols, target)
    return [-row[0] for row in x.tolist()] + [1]


@dataclass(frozen=True)
class HolonomyFactorReport:
    """Jordan structure of a holonomy at the eigenvalue one, plus global
    semisimplicity, both decided exactly."""

    has_unipotent_block: bool
    semisimple: bool
    minimal_polynomial: tuple


def unipotent_factor(Phi: RationalMatrix) -> HolonomyFactorReport:
    if Phi.rows != Phi.cols:
        raise InputError("holonomy must be square")
    n = Phi.rows
    if n == 0:
        return HolonomyFactorReport(False, True, (1,))
    A = Phi - RationalMatrix.identity(n)
    unip = rank_exact(A @ A) < rank_exact(A)
    m = minimal_polynomial(Phi)
    g = _poly_gcd(m, _poly_deriv(m))
    return HolonomyFactorReport(bool(unip), len(g) <= 1, tuple(m))


def joint_generalized_one_eigenspace_dim(phis: list[RationalMatrix]) -> int:
    if not phis:
        raise InputError("need at least one holonomy")
    n = phis[0].rows
    stacked = None
    for Phi in phis:
        A = Phi - RationalMatrix.identity(n)
        P = A
        for _ in range(n - 1):  # (Phi - I)^n, whose kernel is the eigenspace
            if P.is_zero():  # and so is every further power
                break
            P = P @ A
        stacked = P if stacked is None else stacked.vstack(P)
    return n - rank_exact(stacked)


def inverse_exact(A: RationalMatrix) -> RationalMatrix:
    """The inverse of a holonomy; InputError if it has none."""
    if A.rows != A.cols:
        raise InputError("inverse needs a square matrix")
    try:
        return solve_exact(A, RationalMatrix.identity(A.rows))
    except InputError:
        raise InputError("holonomy is not invertible") from None


class AffineModel:
    """Exact blocks of an affine bundle's flat model, which the predictions
    and `superconnection.from_affine_bundle` read: `ranks[b]` = dim of the
    fiber b-forms, `a0[b]` the fiber differential, `a2[b - 1]` the
    contraction by T (None without T), and `actions(b)` each holonomy on
    b-forms, the compound of its inverse transpose. Each holonomy is
    inverted once; each degree's actions are built on first use and kept.

    With a finite symmetry group F (`lie.FiniteSymmetryGroup`, checked
    here), the fiber forms are the F-invariant ones: `basis[b]` is their
    exact basis `F.invariant_forms(b)`, and every block is expressed in
    these bases by `solve_exact`. A holonomy or T that does not preserve
    the invariant forms raises InputError. Without F, `basis` is None."""

    def __init__(self, algebra, holonomies, T=None, F=None):
        n = algebra.n
        holonomies = [g if isinstance(g, RationalMatrix) else RationalMatrix(g)
                      for g in holonomies]
        if any((g.rows, g.cols) != (n, n) for g in holonomies):
            raise InputError(f"holonomies must be {n}x{n} matrices")
        self._inverse_t = [inverse_exact(g).transpose().tolist()
                           for g in holonomies]
        self._actions: dict[int, list[RationalMatrix]] = {}
        self.basis = None
        if F is not None:
            F.check(algebra)
            self.basis = [F.invariant_forms(b) for b in range(n + 1)]
        self.ranks = ([comb(n, b) for b in range(n + 1)] if self.basis is None
                      else [B.cols for B in self.basis])
        self.a0 = [self._restrict(lie.ce_differential(algebra, b), b, b + 1)
                   for b in range(n)]
        self.a2 = None if T is None else [
            self._restrict(blk, b, b - 1)
            for b, blk in enumerate(contraction_blocks(T, n), start=1)]
        if F is not None:  # a holonomy leaving the sector fails here
            for b in range(n + 1):
                self.actions(b)

    def _restrict(self, mat: RationalMatrix, b_src: int,
                  b_dst: int) -> RationalMatrix:
        """`mat`, from b_src- to b_dst-forms, in the invariant bases."""
        if self.basis is None:
            return mat
        try:
            return solve_exact(self.basis[b_dst], mat @ self.basis[b_src])
        except InputError:
            raise InputError("a holonomy or T does not preserve the "
                             f"F-invariant {b_src}-forms") from None

    def actions(self, b: int) -> list[RationalMatrix]:
        """Every holonomy's action on b-forms, in generator order."""
        if b not in self._actions:
            self._actions[b] = [
                self._restrict(RationalMatrix(lie.compound_matrix(inv_t, b)),
                               b, b) for inv_t in self._inverse_t]
        return self._actions[b]


# ---------------------------------------------------------------------------
# predicted small-eigenvalue counts and the obstruction taxonomy
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SmallCountPrediction:
    degree: int
    count: int
    per_bidegree: dict
    obstruction_case: int | None


def contraction_blocks(v, n: int) -> list[RationalMatrix]:
    """Exact interior-multiplication blocks Lambda^b -> Lambda^{b-1}, b = 1..n,
    for a vector given as a row or column `RationalMatrix` or as entries it
    reads."""
    if not isinstance(v, RationalMatrix):
        v = RationalMatrix([list(v)])
    if min(v.rows, v.cols) > 1:
        raise InputError("contraction vector must be a row or a column")
    v = [x for row in v.tolist() for x in row]
    if len(v) != n:
        raise InputError(f"contraction vector has {len(v)} components, "
                         f"expected {n}")
    out = []
    for b in range(1, n + 1):
        src = lie.multi_indices(n, b)
        dst = {idx: r for r, idx in enumerate(lie.multi_indices(n, b - 1))}
        entries = {}
        for c, I in enumerate(src):
            for pos, i in enumerate(I):
                entries[(dst[I[:pos] + I[pos + 1:]], c)] = (-1) ** pos * v[i]
        out.append(RationalMatrix.from_entries(len(dst), len(src), entries))
    return out


def predict_small_counts(algebra, base_kind: str, degrees,
                         monodromy_action=None, F=None,
                         T=None) -> list[SmallCountPrediction]:
    """Number of collapsing eigenvalues in each total degree p of `degrees`,
    in order, from the limit flat structure: base cohomology with
    coefficients in the invariant fiber forms, holonomy replaced by its
    semisimple part.

    `monodromy_action`: per base generator, an exact automorphism matrix of
    the fiber algebra (rows/entries rational). The semisimple replacement is
    implemented by counting generalized 1-eigenspaces, which only depend on
    the semisimple part. With a finite symmetry group `F` the fiber forms
    are the F-invariant ones (`AffineModel`). One `AffineModel` serves the
    counts and the obstruction cases, so each holonomy is inverted once and
    each of its actions built at most once."""
    gens = base_generators(base_kind)
    n = algebra.n
    if monodromy_action is None:
        monodromy_action = [RationalMatrix.identity(n)] * gens
    if len(monodromy_action) != gens:
        raise InputError("one holonomy generator per base circle factor")
    if T is not None and gens < 2:
        raise InputError("a2 needs a 2-dimensional base")
    model = AffineModel(algebra, monodromy_action, T, F)

    def fixed_dim(b: int) -> int:
        """dim of the joint 1-generalized-eigenspace of the holonomies on
        the fiber b-forms."""
        if b < 0 or b > n:
            return 0
        if gens == 0:
            return model.ranks[b]
        return joint_generalized_one_eigenspace_dim(model.actions(b))

    cases = classify_obstructions(base_kind, degrees, model)
    out = []
    for p, case in zip(degrees, cases):
        per = {}
        total = 0
        for a in range(gens + 1):
            b = p - a
            h = comb(gens, a) * fixed_dim(b)
            if h:
                per[(a, b)] = h
                total += h
        out.append(SmallCountPrediction(p, total, per, case))
    return out


def classify_obstructions(base_kind: str, degrees,
                          model: AffineModel) -> list[int | None]:
    """For each degree p, which structural feature (if any) makes the naive
    fiberwise-harmonic count fail: 1 = fiber cohomology smaller than the
    fiber forms, 2 = holonomy acts non-semisimply on fiber cohomology,
    3 = the twisted-coefficient pages do not stabilize at page 2. Checked in
    that order on the blocks of `model`; None when no obstruction applies
    through degree p. Each fiber degree's case-2 check is made at most once,
    and so is case 3, which does not depend on p: the twisted model's pages
    are built once."""
    gens = base_generators(base_kind)
    n = len(model.ranks) - 1
    # case 1 in fiber degree q: H^q is all of the q-forms exactly when the
    # differentials into and out of degree q have rank 0, i.e. are zero
    harmonic = [all(d.is_zero() for d in model.a0[max(q - 1, 0):q + 1])
                for q in range(n + 1)]
    semisimple = {}  # case 2 in fiber degree q, decided on first need
    late = None  # case 3, decided on first need

    def case(p: int) -> int | None:
        nonlocal late
        if not all(harmonic[:min(p, n) + 1]):
            return 1
        if gens == 0:
            return None
        # case 2: holonomy non-semisimple on fiber cohomology
        for q in range(min(p, n) + 1):
            if q not in semisimple:
                semisimple[q] = all(
                    unipotent_factor(cohomology_action(model.a0, act, q))
                    .semisimple for act in model.actions(q))
            if not semisimple[q]:
                return 2
        # case 3: page 2 of the twisted model differs from the stable page
        if late is None:
            monos = zip(*map(model.actions, range(n + 1)))  # per generator
            cx = flat_bundle_complex(model.ranks, model.a0, list(monos),
                                     base_kind, a2=model.a2)
            late = spectral_sequence(cx).stabilizes_at > 2
        return 3 if late else None

    return [case(p) for p in degrees]


def cohomology_action(a0, form_act: RationalMatrix, q: int) -> RationalMatrix:
    """Induced action of a fiber automorphism on degree-q fiber cohomology;
    a0[b] is the fiber differential on b-forms (`AffineModel.a0`)."""
    d_out = a0[q] if q < len(a0) else None
    d_in = a0[q - 1] if q > 0 else None
    amb = form_act.cols
    K = nullspace_exact(d_out) if d_out is not None \
        else RationalMatrix.identity(amb)
    Im = d_in if d_in is not None else RationalMatrix.zeros(amb, 0)
    # pick cycle columns independent modulo the image
    _, pivots = row_reduce(Im.hstack(K))
    reps = [c - Im.cols for c in pivots if c >= Im.cols]
    R = RationalMatrix([[row[j] for j in reps] for row in K.tolist()],
                       cols=len(reps))
    if not reps:
        return RationalMatrix.zeros(0, 0)
    # solve [R | Im] x = form_act R; the R-part of x is the induced matrix
    aug = R.hstack(Im) if Im.cols else R
    X = solve_exact(aug, form_act @ R)
    return RationalMatrix(X.tolist()[:len(reps)], cols=len(reps))
