"""Flat degree-1 superconnections on graded bundles over flat base models.

The base is a flat circle or square 2-torus; sections of a flat bundle with
monodromy Phi are grid functions with a Phi-twisted wraparound. Exterior
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
                       lowest_eigenvalues, rank_exact, read_fields, read_json,
                       real)
from .report import SpectrumReport, closeness_epsilon


class FlatnessError(InputError):
    """A constructed superconnection violates one of the flatness identities."""


# ---------------------------------------------------------------------------
# base models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BaseModel:
    kind: str  # "circle" | "torus2"
    resolution: int
    circumferences: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kind not in ("circle", "torus2"):
            raise InputError(f"unsupported base kind {self.kind!r}")
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
        return 1 if self.kind == "circle" else 2

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
        N = self.resolution
        axes = []
        for g in range(self.dim):
            off = 0.5 if g in stagger else 0.0
            axes.append((np.arange(N) + off) * self.steps[g])
        if self.dim == 1:
            return axes[0][:, None]
        X, Y = np.meshgrid(axes[0], axes[1], indexing="ij")
        return np.column_stack([X.ravel(), Y.ravel()])


# ---------------------------------------------------------------------------
# graded bundles
# ---------------------------------------------------------------------------

class GradedBundle:
    """Z-graded bundle given by per-degree ranks and grading-preserving
    monodromy matrices, one per base generator (identities when None), read
    exactly by `RationalMatrix` and invertible by `rank_exact`;
    `Superconnection` tests that they commute. `gram[b]`, symmetric positive
    definite, is the exact Gram matrix of the fiber inner product that the
    degree-b blocks are written in (the identity when None). `monodromies`
    holds the exact blocks, `monodromy` their floats (`to_float`)."""

    def __init__(self, ranks, monodromies=None, generators: int = 1,
                 gram=None):
        self.ranks = tuple(integer(r, "each rank") for r in ranks)
        if not self.ranks or self.ranks[0] < 1 or min(self.ranks) < 0:
            raise InputError("ranks must be >= 0, the degree-0 rank >= 1")
        square = [(r, r) for r in self.ranks]
        if monodromies is None:
            monodromies = [[RationalMatrix.identity(r) for r in self.ranks]
                           for _ in range(generators)]
        self.monodromies = [_read_blocks(gen, square, "monodromy")
                            for gen in monodromies]
        if any(rank_exact(m) < m.rows for gen in self.monodromies
               for m in gen):
            raise InputError("monodromy must be invertible")
        self.gram = None if gram is None else _read_blocks(gram, square,
                                                           "gram")
        # R with G = R^T R: the orthonormal frame of each Gram
        self._frames = None if gram is None else [
            np.linalg.cholesky(G.to_numpy()).T for G in self.gram]
        self._monodromy = [[self.to_float(m, b, b) for b, m in enumerate(gen)]
                           for gen in self.monodromies]

    @property
    def top(self) -> int:
        return len(self.ranks) - 1

    def rank(self, b: int) -> int:
        return self.ranks[b] if 0 <= b <= self.top else 0

    def monodromy(self, gen: int, b: int) -> np.ndarray:
        return self._monodromy[gen][b]

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


def _read_blocks(blocks, shapes, name, first=0) -> list[RationalMatrix]:
    """`blocks` read exactly, one of each of the given shapes, or zeros of
    those shapes when None; block k is named name[first + k] in errors."""
    if blocks is None:
        return [RationalMatrix.zeros(*shape) for shape in shapes]
    if len(blocks) != len(shapes):
        raise InputError(f"need {len(shapes)} {name} blocks, "
                         f"got {len(blocks)}")
    out = []
    for k, (x, shape) in enumerate(zip(blocks, shapes), start=first):
        if not isinstance(x, RationalMatrix):
            x = RationalMatrix(x, cols=shape[1])
        if (x.rows, x.cols) != shape:
            raise InputError(f"{name}[{k}] has wrong shape "
                             f"{(x.rows, x.cols)}, expected {shape}")
        out.append(x)
    return out


# ---------------------------------------------------------------------------
# metric fields
# ---------------------------------------------------------------------------

class MetricField:
    """Graded fiber inner product h^E over the base, sampled where needed.

    Stored as a callable (b, points) -> stack of SPD matrices; the bundle's
    monodromy fixes the required equivariance across the seam, which
    `check_equivariance` verifies on sample points.

    `identity` (over a bundle whose monodromies are all the identity),
    `equivariant`, `from_logs` and `conformal` of these also record
    `logs[gen][b]`, real logarithms X of the monodromies with
    h(x) = c G(x)^T G(x) for G(x) = exp(-sum_g x_g X_g / L_g), and the
    `base` they were built for (None for any base). `spectrum` uses them to
    gauge the bundle to constant coefficients; a metric built from a bare
    callable has neither and is only ever assembled.
    """

    def __init__(self, bundle: GradedBundle, func):
        self.bundle = bundle
        self._func = func
        self.logs = None
        self.base: BaseModel | None = None

    def _with_gauge(self, logs, base: BaseModel | None = None) -> "MetricField":
        self.logs, self.base = logs, base
        return self

    @classmethod
    def identity(cls, bundle: GradedBundle) -> "MetricField":
        def func(b, pts):
            return np.broadcast_to(np.eye(bundle.rank(b)),
                                   (len(pts), bundle.rank(b), bundle.rank(b)))
        logs = None
        if all(m == RationalMatrix.identity(m.rows)
               for gen in bundle.monodromies for m in gen):
            logs = [[np.zeros((r, r)) for r in bundle.ranks]
                    for _ in bundle.monodromies]
        return cls(bundle, func)._with_gauge(logs)

    @classmethod
    def equivariant(cls, bundle: GradedBundle, base: BaseModel) -> "MetricField":
        """h(x) = (Phi^{-s})^T Phi^{-s} along each generator, built from the
        principal matrix logarithm. This is the harmonic metric when the
        monodromy is diagonalizable with positive spectrum, and it degrades
        gracefully to unipotent blocks."""
        return cls.from_logs(bundle, base, [
            [scipy.linalg.logm(bundle.monodromy(gen, b))
             for b in range(len(bundle.ranks))]
            for gen in range(len(bundle.monodromies))])

    @classmethod
    def from_logs(cls, bundle: GradedBundle, base: BaseModel,
                  logs) -> "MetricField":
        """The metric of `equivariant` from given logarithms, logs[gen][b] of
        the degree-b monodromy of generator gen: h(x) = G(x)^T G(x) with
        G(x) = exp(-sum_g x_g logs[g][b] / L_g). Raises InputError if a
        logarithm is not real; the caller vouches that each is a logarithm
        of its monodromy, which `check_equivariance` tests on samples."""
        if any(np.abs(np.imag(X)).max(initial=0.0) > 1e-9
               for per_degree in logs for X in per_degree):
            raise InputError(
                "monodromy has no real logarithm; supply a metric explicitly")
        real = [[np.real(X) for X in per_degree] for per_degree in logs]

        def func(b, pts):
            pts = np.atleast_2d(pts)
            A = sum((-pts[:, g, None, None] / base.circumferences[g])
                    * real[g][b] for g in range(base.dim))
            M = scipy.linalg.expm(A)
            return M.transpose(0, 2, 1) @ M
        return cls(bundle, func)._with_gauge(real, base)

    @classmethod
    def conformal(cls, other: "MetricField", factor: float) -> "MetricField":
        # a constant positive factor cancels from M^{1/2} D M^{-1/2}
        h = cls(other.bundle, lambda b, pts: factor * other._func(b, pts))
        return h._with_gauge(other.logs if factor > 0 else None, other.base)

    def sample(self, b: int, pts: np.ndarray) -> np.ndarray:
        return np.asarray(self._func(b, np.atleast_2d(pts)), dtype=float)

    def check_equivariance(self, base: BaseModel) -> None:
        rng = np.random.default_rng(0)
        pts = rng.uniform(0, min(base.circumferences), size=(4, base.dim))
        for gen in range(base.dim):
            shift = np.zeros(base.dim)
            shift[gen] = base.circumferences[gen]
            for b in range(len(self.bundle.ranks)):
                # the exact inverse: a monodromy may be singular in floats
                inv = self.bundle.to_float(spectral.inverse_exact(
                    self.bundle.monodromies[gen][b]), b, b)
                h0 = self.sample(b, pts)
                h1 = self.sample(b, pts + shift)
                want = np.einsum("ij,pjk,kl->pil", inv.T, h0, inv)
                if np.abs(h1 - want).max(initial=0.0) > 1e-8 * max(
                        1.0, np.abs(h0).max(initial=0.0)):
                    raise InputError(
                        f"metric violates monodromy equivariance (degree {b})")


# ---------------------------------------------------------------------------
# the superconnection
# ---------------------------------------------------------------------------

class Superconnection:
    """A flat degree-1 superconnection over a flat base.

    a0[b] : E^b -> E^{b+1} is the constant fiber differential; the connection
    is (monodromy, zero local potential); a2[b - 1] : E^b -> E^{b-1} is the
    coefficient of the base area form in the curvature term (torus only).
    Both are read exactly, as the monodromies are (zeros when None), and
    `check_flatness` tests them, so every superconnection is flat. `a0` and
    `a2` hold the exact blocks, `a0_block` and `a2_block` their floats.
    """

    def __init__(self, bundle: GradedBundle, base: BaseModel,
                 a0=None, a2=None):
        self.bundle = bundle
        self.base = base
        if len(bundle.monodromies) != base.dim:
            raise InputError(
                f"a {base.kind} base needs {base.dim} monodromy generators, "
                f"the bundle has {len(bundle.monodromies)}")
        if a2 is not None and base.kind != "torus2":
            raise InputError("a2 needs a 2-dimensional base")
        m, rank = bundle.top, bundle.rank
        self.a0 = _read_blocks(a0, [(rank(b + 1), rank(b))
                                    for b in range(m)], "a0")
        self.a2 = _read_blocks(a2, [(rank(b - 1), rank(b))
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
    vertical components of the area-form coefficient (torus base only).
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
    exactly on the blocks as read: FlatnessError if they fail. InputError if
    the metric is not equivariant under the monodromy."""
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
    h = (MetricField.identity(sc.bundle) if b["metric"] == "identity"
         else MetricField.equivariant(sc.bundle, base))
    h.check_equivariance(base)
    return sc, h


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
    symbols."""

    def __init__(self, sc: Superconnection, h: MetricField,
                 check_metric: bool = True):
        self.sc = sc
        self.base = sc.base
        self.bundle = sc.bundle
        self.h = h
        if h.bundle is not sc.bundle and h.bundle.ranks != sc.bundle.ranks:
            raise InputError("metric belongs to a different bundle")
        if check_metric:
            h.check_equivariance(self.base)
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
        """Whether the gauge w = G(x) v of the metric's recorded holonomy
        logarithms makes every Laplacian translation invariant on the grid.

        It does when the metric recorded logarithms of exactly this bundle's
        monodromies, for this base, and a0 and a2 intertwine them (which
        flatness implies for principal logarithms). Then each mass block is
        vol * I in the gauge and the fiber maps stay constant.
        """
        h, d = self.h, self.base.dim
        if h.logs is None or h.base not in (None, self.base):
            return False
        if min(len(h.logs), len(self.bundle.monodromies)) < d:
            return False
        if (h.bundle.monodromies[:d], h.bundle.gram) != (
                self.bundle.monodromies, self.bundle.gram):
            return False
        for g in range(d):
            X = h.logs[g]
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
        N, X = self.base.resolution, self.h.logs
        for i, j, gen, c in self.terms(p):
            dirs, b = src[j]
            blk = out[:, dst_off[i]:dst_off[i + 1], src_off[j]:src_off[j + 1]]
            if gen is None:
                # a2 reads vertex values at face centres, half a step on in
                # both directions: G(y) a2 G(x)^-1 = a2 G(y - x)
                half = [g for g in range(self.base.dim)
                        if (g in dst[i][0]) != (g in dirs)]
                blk += c @ scipy.linalg.expm(
                    -sum(X[g][b] for g in half) / (2 * N)) if half else c
            else:
                # (Phi^{1/2N} e^{i theta} - Phi^{-1/2N}) / h
                up, down = self._half_step(gen, b)
                blk += (c / self.base.steps[gen]) * (
                    phase[:, gen, None, None] * up - down)
        return out

    def _half_step(self, gen: int, b: int) -> tuple[np.ndarray, np.ndarray]:
        """(Phi^{1/2N}, Phi^{-1/2N}) of generator gen on degree b, computed
        once per complex."""
        if (gen, b) not in self._half_steps:
            up = scipy.linalg.expm(
                self.h.logs[gen][b] / (2 * self.base.resolution))
            self._half_steps[(gen, b)] = up, np.linalg.inv(up)
        return self._half_steps[(gen, b)]

    def bloch_eigenvalues(self, p: int) -> np.ndarray:
        """Every eigenvalue of the degree-p Laplacian, ascending, from its
        N^d Hermitian Fourier blocks D^H D + D' D'^H (needs bloch_ready).
        The coefficients are real, so the block at mode -m is the conjugate
        of the one at m: only modes with index(m) <= index(-m mod N) are
        solved, each counted twice unless it is its own mirror. Each
        degree's symbol is built once per complex."""
        N, d = self.base.resolution, self.base.dim
        modes = np.indices((N,) * d).reshape(d, -1).T
        mirror = np.ravel_multi_index(tuple((-modes % N).T), (N,) * d)
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

def spectrum(sc: Superconnection, h: MetricField, p: int, count: int = 12,
             check_metric: bool = True, *,
             dc: DiscreteComplex | None = None) -> SpectrumReport:
    """Lowest eigenvalues of the degree-p Laplacian.

    When the metric gauges the bundle to constant coefficients
    (`DiscreteComplex.bloch_ready`), the Laplacian splits into one small
    Hermitian block per Fourier mode of the grid and all blocks are solved in
    one batch. Otherwise it is assembled and solved by
    `numerics.lowest_eigenvalues`. `SpectrumReport.from_eigenvalues` rounds
    either result. `dc` is a `DiscreteComplex` of (sc, h) to solve on, built
    here when None (`spectra` shares one between degrees).
    """
    if p < 0:
        raise InputError(f"degree must be >= 0, got {p}")
    if count < 1:
        raise InputError("count must be >= 1")
    if dc is None:
        dc = DiscreteComplex(sc, h, check_metric=check_metric)
    elif dc.sc is not sc or dc.h is not h:
        raise InputError("dc is a complex of another superconnection or metric")
    k = min(count, dc.dim(p))
    lam = (dc.bloch_eigenvalues(p)[:k] if dc.bloch_ready()
           else lowest_eigenvalues(dc.laplacian(p), k))
    return SpectrumReport.from_eigenvalues(p, lam)


def spectra(sc: Superconnection, h: MetricField, degrees, count: int = 12,
            check_metric: bool = True) -> list[SpectrumReport]:
    """`spectrum` in each of `degrees`, in order, all solved on one
    `DiscreteComplex`: a weighted differential or Bloch symbol that two degrees
    share is built once."""
    dc = DiscreteComplex(sc, h, check_metric=check_metric)
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
    if sc1.base != sc2.base:
        raise InputError(f"superconnections live over different bases: "
                         f"{sc1.base} and {sc2.base}")
    if sc1.bundle.ranks != sc2.bundle.ranks:
        raise InputError("superconnections live on different bundles")
    if (sc1.bundle.monodromies, sc1.bundle.gram) != (
            sc2.bundle.monodromies, sc2.bundle.gram):
        raise InputError("difference must be an endomorphism-valued "
                         "form: monodromies differ")
    d1 = DiscreteComplex(sc1, h)
    d2 = DiscreteComplex(sc2, h, check_metric=False)
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
