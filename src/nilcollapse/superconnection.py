"""Flat degree-1 superconnections on graded bundles over flat base models.

The base is a flat k-torus, a point (k = 0), a circle or a square 2-torus;
sections of a flat bundle with monodromy Phi are grid functions with a
Phi-twisted wraparound, and over a point they are one fiber vector. Exterior
derivatives are forward differences on the staggered (vertex / edge / face)
grids, which keeps d^2 = 0 exact at the discrete level, and metrics enter
through staggered mass matrices: weighted by their square roots, the
differential W gives the symmetric Laplacian W^T W + W W^T.
For metrics built from the holonomy's logarithms a gauge change makes that
Laplacian translation invariant, and `spectrum` solves it one Fourier mode
of the grid at a time.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from . import lie, spectral
from .numerics import (REQUIRED, InputError, RationalMatrix, integer,
                       lowest_eigenvalues, read_blocks, read_fields, read_json,
                       real)
from .report import SpectrumReport, closeness_epsilon


class FlatnessError(InputError):
    """A constructed superconnection violates one of the flatness identities."""


# ---------------------------------------------------------------------------
# base models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BaseModel:
    """A flat k-torus with N grid points per circle factor, k the
    generator count of `kind` in `spectral.base_generators`; a point has
    one grid point and no circumference."""

    kind: str  # "point" | "circle" | "torus2"
    resolution: int
    circumferences: tuple[float, ...] | None = None

    def __post_init__(self):
        spectral.base_generators(self.kind)
        object.__setattr__(self, "resolution",
                           integer(self.resolution, "resolution"))
        if self.resolution < 8:
            raise InputError("resolution must be >= 8")
        circ = self.circumferences
        try:
            circ = (1.0,) * self.dim if circ is None else tuple(
                real(c, "each circumference") for c in circ)
        except (TypeError, InputError) as exc:
            raise InputError(f"bad circumference list: {exc}") from exc
        if len(circ) != self.dim or any(c <= 0 for c in circ):
            raise InputError("bad circumference list")
        object.__setattr__(self, "circumferences", circ)

    @property
    def dim(self) -> int:
        return spectral.base_generators(self.kind)

    @property
    def npoints(self) -> int:
        return self.resolution ** self.dim

    @property
    def steps(self) -> tuple[float, ...]:
        return tuple(c / self.resolution for c in self.circumferences)

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.steps))

    def form_components(self, a: int) -> list[tuple[int, ...]]:
        """Coordinate directions carried by each degree-a form component."""
        return list(itertools.combinations(range(self.dim), a))

    def points(self, stagger: tuple[int, ...] = ()) -> np.ndarray:
        """Grid coordinates, staggered half a step in the given directions."""
        d = self.dim
        index = np.indices((self.resolution,) * d).reshape(d, self.npoints).T
        off = np.where(np.isin(np.arange(d), stagger), 0.5, 0.0)
        return (index + off) * np.array(self.steps, dtype=float)


# ---------------------------------------------------------------------------
# graded bundles
# ---------------------------------------------------------------------------

class GradedBundle:
    """Z-graded bundle given by per-degree ranks and grading-preserving
    monodromy matrices, one per base generator (identities when None), read
    exactly by `RationalMatrix` and invertible by `spectral.inverse_exact`;
    `Superconnection` tests that they commute. `gram[b]`, symmetric positive
    definite, is the exact Gram matrix of the fiber inner product that the
    degree-b blocks are written in (the identity when None). `monodromies`
    holds the exact blocks, `monodromy` and `inverse` the floats
    (`to_float`) of them and of their exact inverses."""

    def __init__(self, ranks, monodromies=None, generators: int = 1,
                 gram=None):
        self.ranks = tuple(integer(r, "each rank") for r in ranks)
        if not self.ranks or self.ranks[0] < 1 or min(self.ranks) < 0:
            raise InputError("ranks must be >= 0, the degree-0 rank >= 1")
        square = [(r, r) for r in self.ranks]
        if monodromies is None:
            monodromies = [[RationalMatrix.identity(r) for r in self.ranks]
                           for _ in range(generators)]
        self.monodromies = [read_blocks(gen, square, "monodromy")
                            for gen in monodromies]
        try:
            inverses = [[spectral.inverse_exact(m) for m in gen]
                        for gen in self.monodromies]
        except InputError:
            raise InputError("monodromy must be invertible") from None
        self.gram = None if gram is None else read_blocks(gram, square,
                                                          "gram")
        # R with G = R^T R: the orthonormal frame of each Gram
        self._frames = None if gram is None else [
            np.linalg.cholesky(G.to_numpy()).T for G in self.gram]
        self._monodromy, self._inverse = (
            [[self.to_float(m, b, b) for b, m in enumerate(gen)] for gen in ms]
            for ms in (self.monodromies, inverses))

    @property
    def top(self) -> int:
        return len(self.ranks) - 1

    def rank(self, b: int) -> int:
        return self.ranks[b] if 0 <= b <= self.top else 0

    def monodromy(self, gen: int, b: int) -> np.ndarray:
        return self._monodromy[gen][b]

    def inverse(self, gen: int, b: int) -> np.ndarray:
        return self._inverse[gen][b]

    def to_float(self, mat: RationalMatrix, b_src: int,
                 b_dst: int) -> np.ndarray:
        """The exact block `mat` from degree b_src to degree b_dst as floats
        in the orthonormal frames of the Grams: R_dst X R_src^-1."""
        X = mat.to_numpy()
        if self._frames is None:
            return X
        # (R_dst X R_src^-1)^T = R_src^-T (R_dst X)^T, a triangular solve
        return scipy.linalg.solve_triangular(
            self._frames[b_src], (self._frames[b_dst] @ X).T, trans="T").T


# ---------------------------------------------------------------------------
# metric fields
# ---------------------------------------------------------------------------

# the largest condition number of an eigenbasis whose logarithm is trusted:
# over 2,800 random rational near-defective matrices with n = 2-5 the error
# of V log(w) V^-1 against logm stayed below 1.5e-15 cond(V), so below
# 1.5e-12 here, within a decade of the 1000 eps at which logm itself warns
_EIGENBASIS_COND = 1e3


def _principal_log(phi: np.ndarray) -> np.ndarray:
    """The principal logarithm of `phi`, complex. With phi = V diag(w) V^-1
    and cond(V) <= _EIGENBASIS_COND it is V diag(log w) V^-1, the same
    primary matrix function that logm computes; a monodromy without a
    well-conditioned eigenbasis, such as a Jordan block, goes to logm. The
    block of a rank-0 degree is its own logarithm."""
    w, V = np.linalg.eig(phi)
    if not phi.size or np.linalg.cond(V) <= _EIGENBASIS_COND:
        return (V * np.log(w.astype(complex))) @ np.linalg.inv(V)
    return scipy.linalg.logm(phi)


class MetricField:
    """Graded fiber inner product h^E over one base, sampled where needed:
    a callable (b, points) -> stack of SPD matrices. Every constructor takes
    the bundle and the base, and checks on sample points that the metric is
    equivariant there, h(x + L_g e_g) = Phi_g^-T h(x) Phi_g^-1
    (`check_equivariance`). A `DiscreteComplex` refuses a metric of another
    bundle or base.

    Only `identity` (over a bundle whose monodromies are all the identity)
    and `equivariant` record `logs[gen][b]`, real logarithms X of the
    monodromies with h(x) = G(x)^T G(x), G(x) = exp(-sum_g x_g X_g / L_g);
    `with_fiber` keeps them, with `fiber_roots[b]` = fiber[b]^{+-1/2} (else
    identities). `spectrum` uses them to gauge the bundle to constant
    coefficients; a bare callable records none and is only ever assembled.
    """

    logs = fiber_roots = None
    # unit check points, sampled with their translates by one period
    _check_points = np.random.default_rng(0).uniform(size=8)

    def __init__(self, bundle: GradedBundle, base: BaseModel, func):
        _require_generators(bundle, base)
        self.bundle, self.base, self._func = bundle, base, func
        self.check_equivariance()

    @classmethod
    def identity(cls, bundle: GradedBundle, base: BaseModel) -> "MetricField":
        def func(b, pts):
            return np.broadcast_to(np.eye(bundle.rank(b)),
                                   (len(pts), bundle.rank(b), bundle.rank(b)))
        h = cls(bundle, base, func)
        if all(m == RationalMatrix.identity(m.rows)
               for gen in bundle.monodromies for m in gen):
            h.logs = [[np.zeros((r, r)) for r in bundle.ranks]
                      for _ in bundle.monodromies]
            h.fiber_roots = [(np.eye(r),) * 2 for r in bundle.ranks]
        return h

    @classmethod
    def equivariant(cls, bundle: GradedBundle, base: BaseModel) -> "MetricField":
        """h(x) = (Phi^{-s})^T Phi^{-s} along each generator, built from the
        principal matrix logarithm (`_principal_log`: one eigendecomposition
        when the eigenbasis is well conditioned, scipy's logm otherwise).
        This is the harmonic metric when the monodromy is diagonalizable with
        positive spectrum, and it degrades gracefully to unipotent blocks.
        Raises InputError for a monodromy that is invertible exactly but
        singular in floats (zero LU pivot), or one without a real
        logarithm."""
        phis = [[bundle.monodromy(gen, b) for b in range(len(bundle.ranks))]
                for gen in range(len(bundle.monodromies))]
        if any(np.linalg.slogdet(phi)[0] == 0
               for per_degree in phis for phi in per_degree):
            raise InputError("monodromy is singular in floats; supply a "
                             "metric explicitly")
        logs = [[_principal_log(phi) for phi in per_degree]
                for per_degree in phis]
        if any(np.abs(np.imag(X)).max(initial=0.0) > 1e-9
               for per_degree in logs for X in per_degree):
            raise InputError(
                "monodromy has no real logarithm; supply a metric explicitly")
        return cls._gauged(bundle, base, [[np.real(X) for X in per_degree]
                                          for per_degree in logs],
                           [(np.eye(r),) * 2 for r in bundle.ranks])

    @classmethod
    def _gauged(cls, bundle, base, logs, fiber_roots) -> "MetricField":
        """h(x) = (S G(x))^T S G(x) for S = fiber_roots[b][0]."""
        def func(b, pts):
            r = bundle.rank(b)
            M = fiber_roots[b][0] @ scipy.linalg.expm(sum(
                ((-pts[:, g, None, None] / base.circumferences[g]) * logs[g][b]
                 for g in range(base.dim)), np.zeros((len(pts), r, r))))
            return M.transpose(0, 2, 1) @ M
        h = cls(bundle, base, func)
        h.logs, h.fiber_roots = logs, fiber_roots
        return h

    def with_fiber(self, fiber) -> "MetricField":
        """h(x) = G(x)^T fiber[b] G(x) with this metric's logarithms, for one
        constant symmetric positive definite block per degree in the frame of
        `bundle.monodromy`: equivariant for every such fiber. InputError for
        a metric without logarithms, or a block of another shape or not SPD."""
        if self.logs is None:
            raise InputError("with_fiber needs a metric that records the "
                             "holonomy logarithms (identity or equivariant)")
        try:
            blocks = [np.asarray(F, dtype=float) for F in fiber]
        except (TypeError, ValueError) as exc:
            raise InputError(f"bad fiber blocks: {exc}") from None
        if [F.shape for F in blocks] != [(r, r) for r in self.bundle.ranks]:
            raise InputError("need one fiber block per degree, of the "
                             "degree's rank")
        roots = []
        for b, F in enumerate(blocks):
            if not (np.isfinite(F).all() and np.array_equal(F, F.T)):
                raise InputError(f"fiber[{b}] is not a finite symmetric block")
            try:
                S = _spd_power(F[None], 0.5)[0]
                roots.append((S, np.linalg.inv(S)))
            except InputError:
                raise InputError(
                    f"fiber[{b}] is not positive definite") from None
        return self._gauged(self.bundle, self.base, self.logs, roots)

    def sample(self, b: int, pts: np.ndarray) -> np.ndarray:
        return np.asarray(self._func(b, np.atleast_2d(pts)), dtype=float)

    def check_equivariance(self) -> None:
        base = self.base
        if not base.dim:  # no generator, nothing to compare
            return
        x = min(base.circumferences) * self._check_points[:4 * base.dim]
        steps = np.vstack([np.zeros(base.dim), np.diag(base.circumferences)])
        pts = (steps[:, None] + x.reshape(4, base.dim)).reshape(-1, base.dim)
        for b, r in enumerate(self.bundle.ranks):
            h0, *shifted = self.sample(b, pts).reshape(base.dim + 1, 4, r, r)
            for gen, h1 in enumerate(shifted):
                # the exact inverse: a monodromy may be singular in floats
                inv = self.bundle.inverse(gen, b)
                want = np.einsum("ij,pjk,kl->pil", inv.T, h0, inv)
                if np.abs(h1 - want).max(initial=0.0) > 1e-8 * max(
                        1.0, np.abs(h0).max(initial=0.0)):
                    raise InputError(
                        f"metric violates monodromy equivariance (degree {b})")


def _require_generators(bundle: GradedBundle, base: BaseModel) -> None:
    if len(bundle.monodromies) != base.dim:
        raise InputError(f"a {base.kind} base needs {base.dim} monodromy "
                         f"generators, the bundle has "
                         f"{len(bundle.monodromies)}")


# ---------------------------------------------------------------------------
# the superconnection
# ---------------------------------------------------------------------------

class Superconnection:
    """A flat degree-1 superconnection over a flat base.

    a0[b] : E^b -> E^{b+1} is the constant fiber differential; the connection
    is (monodromy, zero local potential); a2[b - 1] : E^b -> E^{b-1} is the
    coefficient of the base area form in the curvature term (2-torus only).
    Both are read exactly, as the monodromies are (zeros when None), and
    `check_flatness` tests them, so every superconnection is flat. `a0` and
    `a2` hold the exact blocks, `a0_block` and `a2_block` their floats.
    """

    def __init__(self, bundle: GradedBundle, base: BaseModel,
                 a0=None, a2=None):
        _require_generators(bundle, base)
        self.bundle = bundle
        self.base = base
        if a2 is not None and base.dim < 2:
            raise InputError("a2 needs a 2-dimensional base")
        m, rank = bundle.top, bundle.rank
        self.a0 = read_blocks(a0, [(rank(b + 1), rank(b))
                                    for b in range(m)], "a0")
        self.a2 = read_blocks(a2, [(rank(b - 1), rank(b))
                                    for b in range(1, m + 1)], "a2", first=1)
        check_flatness(bundle.ranks, self.a0, bundle.monodromies, self.a2)
        self._a0 = [bundle.to_float(x, b, b + 1) for b, x in enumerate(self.a0)]
        self._a2 = [bundle.to_float(x, b + 1, b) for b, x in enumerate(self.a2)]

    def a0_block(self, b: int) -> np.ndarray:
        if 0 <= b < self.bundle.top:
            return self._a0[b]
        return np.zeros((self.bundle.rank(b + 1), self.bundle.rank(b)))

    def a2_block(self, b: int) -> np.ndarray:
        if 1 <= b <= self.bundle.top:
            return self._a2[b - 1]
        return np.zeros((self.bundle.rank(b - 1), self.bundle.rank(b)))


def check_flatness(ranks, a0, monodromies, a2=None) -> None:
    """Test the flatness identities by equality on exact `RationalMatrix`
    blocks: a0[b]: E^b -> E^{b+1}, monodromies[gen][b] on E^b, and
    a2[b - 1]: E^b -> E^{b-1} (None without a curvature term). They are
    squares: a0[b+1] a0[b] = 0 ((a2)^2 lands in 4-forms, absent here);
    parallel_a0: Phi[b+1] a0[b] = a0[b] Phi[b];
    parallel_a2: Phi[b-1] a2[b] = a2[b] Phi[b];
    curvature: (nabla)^2 + a0 a2 + a2 a0 = 0, i.e. the two torus holonomies
    commute in each degree and a0[b-1] a2[b] + a2[b+1] a0[b] = 0.
    FlatnessError names the first identity that fails, its degree b and,
    for a parallel identity, the generator."""
    m = len(ranks) - 1

    def require(holds, identity, b, gen=None):
        if not holds:
            where = "" if gen is None else f" of generator {gen}"
            raise FlatnessError(f"flatness identity {identity!r} fails in "
                                f"degree {b}{where}")

    for b in range(m - 1):
        require((a0[b + 1] @ a0[b]).is_zero(), "squares", b)
    for gen, phi in enumerate(monodromies):
        for b in range(m):
            require(phi[b + 1] @ a0[b] == a0[b] @ phi[b], "parallel_a0", b, gen)
        for b in range(1, m + 1) if a2 is not None else ():
            require(phi[b - 1] @ a2[b - 1] == a2[b - 1] @ phi[b],
                    "parallel_a2", b, gen)
    if len(monodromies) == 2:
        for b, (p, q) in enumerate(zip(*monodromies)):
            require(p @ q == q @ p, "curvature", b)
    for b in range(m + 1) if a2 is not None else ():
        total = RationalMatrix.zeros(ranks[b], ranks[b])
        if b >= 1:
            total = total + a0[b - 1] @ a2[b - 1]
        if b < m:
            total = total + a2[b] @ a0[b]
        require(total.is_zero(), "curvature", b)


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def from_affine_bundle(algebra, base: BaseModel, monodromy_action=None,
                       T=None, F=None) -> Superconnection:
    """Superconnection of an affine bundle: fiber differential + holonomy of
    the affine action + interior multiplication by the curvature 2-form.

    `monodromy_action`: per base generator, an automorphism of the fiber
    algebra as an exact n x n matrix. `T`: curvature coefficient, the n
    vertical components of the area-form coefficient (2-torus base only).
    Both are read by `RationalMatrix` (a non-integral float raises
    InputError), and `spectral.AffineModel` builds the blocks exactly. With
    a finite symmetry group `F` the model holds the blocks on the
    F-invariant forms in their exact basis B, whose Gram matrices B^T B the
    bundle gets.
    """
    n = algebra.n
    if monodromy_action is None:
        monodromy_action = [RationalMatrix.identity(n)] * base.dim
    model = spectral.AffineModel(algebra, monodromy_action, T, F)
    gram = None if model.basis is None else [
        B.transpose() @ B for B in model.basis]
    bundle = GradedBundle(model.ranks, zip(*map(model.actions, range(n + 1))),
                          gram=gram)
    return Superconnection(bundle, base, a0=model.a0, a2=model.a2)


def load_bundle(source) -> tuple[Superconnection, MetricField]:
    """Superconnection plus metric from a JSON file path or a parsed dict:
    a fiber algebra with its holonomy actions and curvature term, or
    explicit per-degree blocks (identity monodromies, a zero a0 and no a2
    by default). Either way `Superconnection` tests the flatness identities
    exactly on the blocks as read (FlatnessError if they fail), and the
    metric, `identity` or `equivariant`, is built for the bundle and base
    and checked by its constructor (InputError if it is not equivariant)."""
    payload = read_json(source, "bundle")
    fiber_shape = isinstance(payload, dict) and "fiber" in payload
    b = read_fields(payload, _FIBER_BUNDLE_FIELDS if fiber_shape
                    else _EXPLICIT_BUNDLE_FIELDS, "bundle")
    base = b["base"]
    if b["metric"] not in ("identity", "equivariant"):
        raise InputError(f"unknown metric kind {b['metric']!r}")
    if fiber_shape:
        sc = from_affine_bundle(b["fiber"], base, T=b["a2"],
                                monodromy_action=b["monodromy_action"])
    else:
        bundle = GradedBundle(b["ranks"], b["monodromy"], generators=base.dim)
        sc = Superconnection(bundle, base, a0=b["a0_blocks"],
                             a2=b["a2_blocks"])
    make = (MetricField.identity if b["metric"] == "identity"
            else MetricField.equivariant)
    return sc, make(sc.bundle, base)


def _read_base(spec) -> BaseModel:
    try:
        return BaseModel(**read_fields(spec, _BASE_FIELDS, "base"))
    except InputError as exc:
        raise InputError(f"malformed base description: {exc}") from exc


# BaseModel reads the resolution and each circumference itself
_BASE_FIELDS = {"kind": (str, REQUIRED), "resolution": (lambda x: x, REQUIRED),
                "circumferences": (lambda x: x, None)}
_COMMON_FIELDS = {"base": (_read_base, REQUIRED), "metric": (str, "identity")}
_FIBER_BUNDLE_FIELDS = {
    **_COMMON_FIELDS, "fiber": (lie.load_algebra, REQUIRED),
    "monodromy_action": (list, None),  # read by spectral.AffineModel
    "a2": (lambda spec: read_fields(spec, {"interior": (list, REQUIRED)},
                                    "a2")["interior"], None)}
# GradedBundle and Superconnection read the blocks themselves
_EXPLICIT_BUNDLE_FIELDS = {
    **_COMMON_FIELDS, "ranks": (list, REQUIRED),
    "monodromy": (lambda gens: [list(gen) for gen in gens], None),
    "a0_blocks": (list, None), "a2_blocks": (list, None)}


# ---------------------------------------------------------------------------
# discretization
# ---------------------------------------------------------------------------

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


class DiscreteComplex:
    """Total differential on the staggered grids, weighted by the mass and
    assembled as sparse matrices or, for a gauged metric, as per-mode Fourier
    symbols. The metric, checked when it was built, must be one of the
    superconnection's own base and bundle (the same ranks, exact monodromies
    and Gram): InputError otherwise."""

    def __init__(self, sc: Superconnection, h: MetricField):
        if h.base != sc.base:
            raise InputError(f"metric was built over {h.base}, the "
                             f"superconnection lives over {sc.base}")
        if (h.bundle.ranks, h.bundle.monodromies, h.bundle.gram) != (
                sc.bundle.ranks, sc.bundle.monodromies, sc.bundle.gram):
            raise InputError("metric belongs to a different bundle")
        self.sc, self.h, self.base, self.bundle = sc, h, sc.base, sc.bundle
        self._weighted: dict[int, sp.csr_matrix] = {}
        self._half_steps: dict[tuple, tuple] = {}
        self._symbols: dict[int, np.ndarray] = {}

    # -- layout -------------------------------------------------------------

    def components(self, p: int) -> list[tuple[tuple[int, ...], int]]:
        out = []
        for a in range(self.base.dim + 1):
            b = p - a
            if 0 <= b <= self.bundle.top and self.bundle.rank(b) > 0:
                for dirs in self.base.form_components(a):
                    out.append((dirs, b))
        return out

    def component_size(self, comp) -> int:
        _, b = comp
        return self.base.npoints * self.bundle.rank(b)

    def dim(self, p: int) -> int:
        return sum(self.component_size(c) for c in self.components(p))

    # -- differential -------------------------------------------------------

    def terms(self, p: int) -> list[tuple[int, int, int | None, object]]:
        """Nonzero blocks of the degree-p differential as (dst, src, gen, coeff).

        dst and src index components(p + 1) and components(p). A block with
        gen set is coeff (a sign) times the twisted forward difference in
        direction gen; with gen None it is the pointwise fiber map coeff.
        `differential` and the Bloch symbol both read this list.
        """
        src = self.components(p)
        dst = {comp: i for i, comp in enumerate(self.components(p + 1))}
        out = []
        for j, (dirs, b) in enumerate(src):
            a = len(dirs)
            # base exterior derivative
            for gen in range(self.base.dim):
                if gen in dirs:
                    continue
                new_dirs = tuple(sorted(dirs + (gen,)))
                if (new_dirs, b) in dst:
                    out.append((dst[(new_dirs, b)], j, gen,
                                (-1) ** new_dirs.index(gen)))
            # fiber differential, with the Koszul sign on a-forms
            if (dirs, b + 1) in dst:
                out.append((dst[(dirs, b + 1)], j, None,
                            (-1) ** a * self.sc.a0_block(b)))
            # curvature term: 0-forms to area forms
            if a == 0 and self.base.dim == 2 and ((0, 1), b - 1) in dst:
                out.append((dst[((0, 1), b - 1)], j, None, self.sc.a2_block(b)))
        return out

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

    # -- Bloch reduction ----------------------------------------------------

    def bloch_ready(self) -> bool:
        """Whether the gauge w = fiber^{1/2} G(x) v of the metric's recorded
        holonomy logarithms makes every Laplacian translation invariant on
        the grid: it does when a0 and a2 intertwine them, which flatness
        implies for principal logarithms but not for others. Then each mass
        block is vol * I in the gauge and the fiber maps stay constant."""
        if self.h.logs is None:
            return False
        for X in self.h.logs:
            for b in range(self.bundle.top):
                if not (_intertwines(self.sc.a0_block(b), X[b + 1], X[b]) and
                        _intertwines(self.sc.a2_block(b + 1), X[b], X[b + 1])):
                    return False
        return True

    def _bloch_symbol(self, p: int, phase: np.ndarray) -> np.ndarray:
        """Fourier symbol of the gauged degree-p differential: one block per
        grid mode, phase[m, g] = exp(i theta_g) of mode m."""
        src, dst = self.components(p), self.components(p + 1)
        ranks = self.bundle.ranks
        src_off = np.cumsum([0] + [ranks[b] for _, b in src])
        dst_off = np.cumsum([0] + [ranks[b] for _, b in dst])
        out = np.zeros((len(phase), dst_off[-1], src_off[-1]), dtype=complex)
        N, X, S = self.base.resolution, self.h.logs, self.h.fiber_roots
        for i, j, gen, c in self.terms(p):
            dirs, b = src[j]
            blk = out[:, dst_off[i]:dst_off[i + 1], src_off[j]:src_off[j + 1]]
            if gen is None:
                # a2 reads vertex values at face centres, half a step on in
                # both directions: G(y) a2 G(x)^-1 = a2 G(y - x)
                half = [g for g in range(self.base.dim)
                        if (g in dst[i][0]) != (g in dirs)]
                if half:
                    c = c @ scipy.linalg.expm(
                        -sum(X[g][b] for g in half) / (2 * N))
                blk += S[dst[i][1]][0] @ c @ S[b][1]
            else:
                # (Phi^{1/2N} e^{i theta} - Phi^{-1/2N}) / h
                up, down = self._half_step(gen, b)
                blk += (c / self.base.steps[gen]) * (
                    phase[:, gen, None, None] * up - down)
        return out

    def _half_step(self, gen: int, b: int) -> tuple[np.ndarray, np.ndarray]:
        """(Phi^{1/2N}, Phi^{-1/2N}) of generator gen on degree b in the
        fiber gauge, S Phi^{+-1/2N} S^-1 for S = fiber^{1/2}, computed once
        per complex."""
        if (gen, b) not in self._half_steps:
            up = scipy.linalg.expm(
                self.h.logs[gen][b] / (2 * self.base.resolution))
            S, S_inv = self.h.fiber_roots[b]
            self._half_steps[(gen, b)] = (S @ up @ S_inv,
                                          S @ np.linalg.inv(up) @ S_inv)
        return self._half_steps[(gen, b)]

    def bloch_eigenvalues(self, p: int) -> np.ndarray:
        """Every eigenvalue of the degree-p Laplacian, ascending, from its
        N^d Hermitian Fourier blocks D^H D + D' D'^H (needs bloch_ready).
        The coefficients are real, so the block at mode -m is the conjugate
        of the one at m: only modes with index(m) <= index(-m mod N) are
        solved, each counted twice unless it is its own mirror. Each
        degree's symbol is built once per complex."""
        N, d = self.base.resolution, self.base.dim
        modes = np.indices((N,) * d).reshape(d, self.base.npoints).T
        mirror = (-modes % N) @ N ** np.arange(d - 1, -1, -1)
        keep = np.arange(len(modes)) <= mirror
        paired = mirror[keep] != np.flatnonzero(keep)
        phase = np.exp(1j * (2 * np.pi * modes[keep] / N))
        for q in (p - 1, p):
            if q not in self._symbols:
                self._symbols[q] = self._bloch_symbol(q, phase)
        Dp, Dm = self._symbols[p], self._symbols[p - 1]
        L = (np.conj(Dp.transpose(0, 2, 1)) @ Dp
             + Dm @ np.conj(Dm.transpose(0, 2, 1)))
        lam = np.linalg.eigvalsh(L)
        return np.sort(np.concatenate([lam.ravel(), lam[paired].ravel()]))

    # -- Laplacian ----------------------------------------------------------

    def _mass_power(self, p: int, power: float) -> sp.csr_matrix:
        """M_p^power of the degree-p mass: cell volume times the metric at
        each component's staggered points, one block per grid point."""
        pts = np.arange(self.base.npoints)
        out = sp.csr_matrix((self.dim(p), self.dim(p)))
        offset = 0
        for dirs, b in self.components(p):
            mass = self.base.cell_volume * self.h.sample(
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

    def operator_norm(self, other: "DiscreteComplex") -> float:
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
                # imported here, as in numerics.lowest_eigenvalues: no
                # other part of the package loads ARPACK
                import scipy.sparse.linalg as spla
                s = spla.svds(A, k=1, return_singular_vectors=False)
                worst = max(worst, float(s[0]))
        return worst


def _intertwines(a: np.ndarray, X_dst: np.ndarray, X_src: np.ndarray) -> bool:
    """X_dst a = a X_src up to rounding."""
    if a.size == 0:
        return True
    scale = max(1.0, np.abs(a).max()) * max(1.0, np.abs(X_dst).max(),
                                            np.abs(X_src).max())
    return bool(np.abs(X_dst @ a - a @ X_src).max() <= 1e-10 * scale)


def _spd_power(blocks: np.ndarray, power: float) -> np.ndarray:
    w, v = np.linalg.eigh(blocks)
    if w.min() <= 0:
        raise InputError("mass block not positive definite")
    return np.einsum("pij,pj,pkj->pik", v, w ** power, v)


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------

def spectrum(sc: Superconnection, h: MetricField, p: int, count: int = 12, *,
             dc: DiscreteComplex | None = None) -> SpectrumReport:
    """Lowest eigenvalues of the degree-p Laplacian.

    When the metric gauges the bundle to constant coefficients
    (`DiscreteComplex.bloch_ready`), the Laplacian splits into one small
    Hermitian block per Fourier mode of the grid and all blocks are solved in
    one batch. Otherwise it is assembled and solved by
    `numerics.lowest_eigenvalues`. `SpectrumReport.from_eigenvalues` rounds
    either result. The metric was checked when it was built; the complex
    refuses one of another bundle or base. `dc` is a `DiscreteComplex` of
    (sc, h) to solve on, built here when None (`spectra` shares one between
    degrees).
    """
    if p < 0:
        raise InputError(f"degree must be >= 0, got {p}")
    if count < 1:
        raise InputError("count must be >= 1")
    if dc is None:
        dc = DiscreteComplex(sc, h)
    elif dc.sc is not sc or dc.h is not h:
        raise InputError("dc is a complex of another superconnection or metric")
    k = min(count, dc.dim(p))
    lam = (dc.bloch_eigenvalues(p)[:k] if dc.bloch_ready()
           else lowest_eigenvalues(dc.laplacian(p), k))
    return SpectrumReport.from_eigenvalues(p, lam)


def spectra(sc: Superconnection, h: MetricField, degrees,
            count: int = 12) -> list[SpectrumReport]:
    """`spectrum` in each of `degrees`, in order, all solved on one
    `DiscreteComplex`: a weighted differential or Bloch symbol that two degrees
    share is built once."""
    dc = DiscreteComplex(sc, h)
    return [spectrum(sc, h, p, count, dc=dc) for p in degrees]


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


def perturbation_check(sc1: Superconnection, sc2: Superconnection,
                       h: MetricField, p: int, count: int = 8) -> PerturbationReport:
    """The difference sc2 - sc1 is an endomorphism-valued form when both
    live over h's base and bundle, which their complexes require."""
    d1 = DiscreteComplex(sc1, h)
    d2 = DiscreteComplex(sc2, h)
    norm = d1.operator_norm(d2)
    s1 = spectrum(sc1, h, p, count=count, dc=d1)
    s2 = spectrum(sc2, h, p, count=count, dc=d2)
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


def metric_continuity_check(sc: Superconnection, h1: MetricField,
                            h2: MetricField, p: int, eps: float,
                            count: int = 8) -> MetricContinuityReport:
    """Smallest eps' with eps'-close spectra for two eps-close metrics."""
    s1 = spectrum(sc, h1, p, count=count)
    s2 = spectrum(sc, h2, p, count=count)
    return MetricContinuityReport(eps, closeness_epsilon(s1, s2))
