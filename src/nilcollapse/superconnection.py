"""Flat degree-1 superconnections on graded bundles over flat base models.

The base is a flat circle or square 2-torus; sections of a flat bundle with
monodromy Phi are grid functions with a Phi-twisted wraparound. Exterior
derivatives are forward differences on the staggered (vertex / edge / face)
grids, which keeps d^2 = 0 exact at the discrete level, and metrics enter
through staggered mass matrices, giving an h-symmetric Galerkin Laplacian.
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
import scipy.sparse.linalg as spla

from . import lie, spectral
from .numerics import (InputError, RationalMatrix, integer,
                       lowest_eigenvalues, real)
from .report import SpectrumReport


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
    monodromy matrices, one per base generator."""

    def __init__(self, ranks, monodromies=None, generators: int = 1):
        self.ranks = tuple(integer(r, "each rank") for r in ranks)
        if not self.ranks or self.ranks[0] < 1 or min(self.ranks) < 0:
            raise InputError("ranks must be >= 0, the degree-0 rank >= 1")
        if monodromies is None:
            monodromies = [[np.eye(r) for r in self.ranks]
                           for _ in range(generators)]
        self.monodromies = [[np.asarray(m, dtype=float) for m in gen]
                            for gen in monodromies]
        for gen in self.monodromies:
            if len(gen) != len(self.ranks):
                raise InputError("need one monodromy block per degree")
            for b, m in enumerate(gen):
                if m.shape != (self.ranks[b], self.ranks[b]):
                    raise InputError("monodromy block has wrong shape")
                if abs(np.linalg.det(m)) < 1e-12:
                    raise InputError("monodromy must be invertible")
        if len(self.monodromies) == 2:
            for b in range(len(self.ranks)):
                comm = (self.monodromies[0][b] @ self.monodromies[1][b]
                        - self.monodromies[1][b] @ self.monodromies[0][b])
                if np.abs(comm).max() > 1e-10:
                    raise InputError("torus monodromies must commute")

    @property
    def top(self) -> int:
        return len(self.ranks) - 1

    def rank(self, b: int) -> int:
        return self.ranks[b] if 0 <= b <= self.top else 0

    def monodromy(self, gen: int, b: int) -> np.ndarray:
        return self.monodromies[gen][b]


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
        if all(np.array_equal(m, np.eye(len(m)))
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
        # a constant positive factor cancels from the pencil (K, M)
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
                phi = self.bundle.monodromy(gen, b)
                h0 = self.sample(b, pts)
                h1 = self.sample(b, pts + shift)
                want = np.einsum("ij,pjk,kl->pil",
                                 np.linalg.inv(phi).T, h0, np.linalg.inv(phi))
                if np.abs(h1 - want).max() > 1e-8 * max(1.0, np.abs(h0).max()):
                    raise InputError(
                        f"metric violates monodromy equivariance (degree {b})")


# ---------------------------------------------------------------------------
# the superconnection
# ---------------------------------------------------------------------------

class Superconnection:
    """Components of a flat degree-1 superconnection over a flat base.

    a0[b] : E^b -> E^{b+1} is the constant fiber differential; the connection
    is (monodromy, zero local potential); a2[b] : E^b -> E^{b-1} is the
    coefficient of the base area form in the curvature term (torus only).
    """

    def __init__(self, bundle: GradedBundle, base: BaseModel,
                 a0=None, a2=None):
        self.bundle = bundle
        self.base = base
        if len(bundle.monodromies) != base.dim:
            raise InputError(
                f"a {base.kind} base needs {base.dim} monodromy generators, "
                f"the bundle has {len(bundle.monodromies)}")
        m = bundle.top
        if a2 is not None and base.kind != "torus2":
            raise InputError("a2 needs a 2-dimensional base")
        self.a0 = _blocks("a0", a0, [(bundle.rank(b + 1), bundle.rank(b))
                                     for b in range(m)], 0)
        self.a2 = _blocks("a2", a2, [(bundle.rank(b - 1), bundle.rank(b))
                                     for b in range(1, m + 1)], 1)

    def a0_block(self, b: int) -> np.ndarray:
        if 0 <= b < self.bundle.top:
            return self.a0[b]
        return np.zeros((self.bundle.rank(b + 1), self.bundle.rank(b)))

    def a2_block(self, b: int) -> np.ndarray:
        if 1 <= b <= self.bundle.top:
            return self.a2[b - 1]
        return np.zeros((self.bundle.rank(b - 1), self.bundle.rank(b)))


def _blocks(name, blocks, shapes, first):
    """Float blocks of the given shapes, zeros if `blocks` is None; block k
    is named name[first + k] in errors."""
    if blocks is None:
        return [np.zeros(shape) for shape in shapes]
    blocks = [np.asarray(x, dtype=float) for x in blocks]
    if len(blocks) != len(shapes):
        raise InputError(f"need one {name} block per adjacent degree pair")
    for b, (x, shape) in enumerate(zip(blocks, shapes), start=first):
        if x.shape != shape:
            raise InputError(f"{name}[{b}] has wrong shape {x.shape}")
    return blocks


@dataclass(frozen=True)
class FlatnessReport:
    """Max violation of each flatness identity."""

    squares: float           # (a0)^2 = 0; (a2)^2 lands in 4-forms, absent here
    parallel_a0: float       # a0 commutes with the holonomy
    parallel_a2: float       # a2 commutes with the holonomy
    curvature: float         # (nabla)^2 + a0 a2 + a2 a0 = 0

    @property
    def max_violation(self) -> float:
        return getattr(self, self.worst_identity())

    def ok(self) -> bool:
        return self.max_violation <= 1e-12

    def worst_identity(self) -> str:
        return max(("squares", "parallel_a0", "parallel_a2", "curvature"),
                   key=lambda name: getattr(self, name))


def check_flatness(sc: Superconnection) -> FlatnessReport:
    bundle, m = sc.bundle, sc.bundle.top
    sq = 0.0
    for b in range(m - 1):
        sq = max(sq, _absmax(sc.a0_block(b + 1) @ sc.a0_block(b)))
    pa0 = pa2 = 0.0
    for gen in range(len(bundle.monodromies)):
        for b in range(m):
            pa0 = max(pa0, _absmax(bundle.monodromy(gen, b + 1) @ sc.a0_block(b)
                                   - sc.a0_block(b) @ bundle.monodromy(gen, b)))
        for b in range(1, m + 1):
            pa2 = max(pa2, _absmax(bundle.monodromy(gen, b - 1) @ sc.a2_block(b)
                                   - sc.a2_block(b) @ bundle.monodromy(gen, b)))
    curv = 0.0
    if len(bundle.monodromies) == 2:
        for b in range(m + 1):
            curv = max(curv, _absmax(
                bundle.monodromy(0, b) @ bundle.monodromy(1, b)
                - bundle.monodromy(1, b) @ bundle.monodromy(0, b)))
    for b in range(m + 1):
        curv = max(curv, _absmax(sc.a0_block(b - 1) @ sc.a2_block(b)
                                 + sc.a2_block(b + 1) @ sc.a0_block(b)))
    return FlatnessReport(sq, pa0, pa2, curv)


def _absmax(A) -> float:
    A = np.asarray(A)
    return float(np.abs(A).max()) if A.size else 0.0


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
    InputError); `spectral.AffineModel` builds the blocks exactly and they
    are converted to floats once, here. With a finite symmetry group `F`
    the model holds the blocks on the F-invariant forms, in their exact
    basis B = QR, and each goes into the orthonormal frame Q as
    R_dst X R_src^-1. Raises FlatnessError naming the violated identity if
    the data is not flat.
    """
    n = algebra.n
    if monodromy_action is None:
        monodromy_action = [RationalMatrix.identity(n)] * base.dim
    model = spectral.AffineModel(algebra, monodromy_action, T, F)
    R = None if model.basis is None else [
        np.linalg.qr(B.to_numpy(), mode="r") for B in model.basis]

    def convert(mat, b_src, b_dst):
        mat = mat.to_numpy()
        if R is None:
            return mat
        # (R_dst X R_src^-1)^T = R_src^-T (R_dst X)^T, a triangular solve
        return scipy.linalg.solve_triangular(
            R[b_src], (R[b_dst] @ mat).T, trans="T").T

    monos = [[convert(act, b, b) for b, act in enumerate(per_degree)]
             for per_degree in zip(*map(model.actions, range(n + 1)))]
    bundle = GradedBundle(model.ranks, monos)
    a0 = [convert(blk, b, b + 1) for b, blk in enumerate(model.a0)]
    a2 = None if model.a2 is None else [
        convert(blk, b, b - 1) for b, blk in enumerate(model.a2, start=1)]
    return _require_flat(Superconnection(bundle, base, a0=a0, a2=a2))


def _require_flat(sc: Superconnection) -> Superconnection:
    """sc itself, or FlatnessError naming the worst-violated identity."""
    rep = check_flatness(sc)
    if not rep.ok():
        raise FlatnessError(
            f"flatness identity {rep.worst_identity()!r} violated "
            f"by {rep.max_violation:.3e}")
    return sc


def load_bundle(source) -> tuple[Superconnection, MetricField]:
    """Superconnection plus metric from a JSON file path or a parsed dict.

    Two shapes are accepted: a fiber-algebra description ("fiber",
    "monodromy_action", a0 = "ce_differential" or null, a2 = {"interior":
    [...T...]}) or explicit per-degree data ("ranks", "monodromy",
    "a0_blocks", "a2_blocks"). Every matrix entry and interior component
    is read by `RationalMatrix`: an integer, an integral float or a
    rational string. "metric" picks "identity" (default) or "equivariant".
    Raises FlatnessError if the superconnection is not flat and InputError
    if the metric is not equivariant under the monodromy.
    """
    import json
    if isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
        with open(source) as fh:
            payload = json.load(fh)
    else:
        payload = source
    if not isinstance(payload, dict) or "base" not in payload:
        raise InputError("bundle description needs a 'base' entry")
    b = payload["base"]
    try:
        base = BaseModel(b["kind"], b["resolution"], b.get("circumferences"))
    except (KeyError, TypeError, AttributeError, InputError) as exc:
        raise InputError(f"malformed base description: {exc}") from exc

    if "fiber" in payload:
        algebra = lie.load_algebra(payload["fiber"])
        a0_kind = payload.get("a0", "ce_differential")
        if a0_kind not in ("ce_differential", None):
            raise InputError(f"unknown a0 specification {a0_kind!r}")
        T = None
        a2_spec = payload.get("a2")
        if a2_spec is not None:
            if not (isinstance(a2_spec, dict)
                    and isinstance(a2_spec.get("interior"), list)):
                raise InputError("a2 must be {'interior': [components]}")
            T = a2_spec["interior"]
        sc = from_affine_bundle(algebra, base, T=T,
                                monodromy_action=payload.get("monodromy_action"))
        if a0_kind is None:
            # with a0 = 0 the curvature identity holds trivially; a2 stays
            sc = Superconnection(sc.bundle, base,
                                 a2=sc.a2 if T is not None else None)
    else:
        ranks = payload.get("ranks")
        if not isinstance(ranks, list):
            raise InputError("explicit bundle needs a list of 'ranks'")
        def floats(blocks):
            return (None if blocks is None
                    else [RationalMatrix(m).to_numpy() for m in blocks])

        monos = payload.get("monodromy")
        bundle = GradedBundle(ranks, None if monos is None else
                              [floats(gen) for gen in monos],
                              generators=base.dim)
        sc = _require_flat(Superconnection(
            bundle, base, a0=floats(payload.get("a0_blocks")),
            a2=floats(payload.get("a2_blocks"))))
    metric_kind = payload.get("metric", "identity")
    if metric_kind == "identity":
        h = MetricField.identity(sc.bundle)
    elif metric_kind == "equivariant":
        h = MetricField.equivariant(sc.bundle, base)
    else:
        raise InputError(f"unknown metric kind {metric_kind!r}")
    h.check_equivariance(base)
    return sc, h


# ---------------------------------------------------------------------------
# discretization
# ---------------------------------------------------------------------------

def _shift_blocks(base: BaseModel, gen: int, phi: np.ndarray):
    """(rows, cols, blocks) for the one-step shift with monodromy twist."""
    N = base.resolution
    idx = np.arange(base.npoints).reshape((N,) * base.dim)
    wrap = (np.indices(idx.shape)[gen] == N - 1).ravel()
    blocks = np.where(wrap[:, None, None], phi, np.eye(phi.shape[0]))
    return idx.ravel(), np.roll(idx, -1, axis=gen).ravel(), blocks


def _block_coo(rows, cols, blocks, nrow_pts, ncol_pts):
    r_out, r_in = blocks[0].shape
    data = np.array(blocks)
    bi, bj = np.meshgrid(np.arange(r_out), np.arange(r_in), indexing="ij")
    row_idx = (np.array(rows)[:, None, None] * r_out + bi[None]).ravel()
    col_idx = (np.array(cols)[:, None, None] * r_in + bj[None]).ravel()
    return sp.coo_matrix((data.ravel(), (row_idx, col_idx)),
                         shape=(nrow_pts * r_out, ncol_pts * r_in)).tocsr()


def _derivative(base: BaseModel, gen: int, phi: np.ndarray) -> sp.csr_matrix:
    rows, cols, blocks = _shift_blocks(base, gen, phi)
    npts = base.npoints
    S = _block_coo(rows, cols, blocks, npts, npts)
    I = sp.identity(npts * phi.shape[0], format="csr")
    return (S - I) / base.steps[gen]


def _pointwise(base: BaseModel, mat: np.ndarray) -> sp.csr_matrix:
    return sp.kron(sp.identity(base.npoints, format="csr"), mat, format="csr")


class DiscreteComplex:
    """Total differential and mass matrices on the staggered grids, assembled
    as sparse matrices or, for a gauged metric, as per-mode Fourier symbols."""

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
        self._mass_cache: dict[int, sp.csr_matrix] = {}
        self._diff_cache: dict[int, sp.csr_matrix] = {}
        self._half_steps: dict[tuple, tuple] = {}

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
        if p in self._diff_cache:
            return self._diff_cache[p]
        src, dst = self.components(p), self.components(p + 1)
        if not src or not dst:
            out = sp.csr_matrix((self.dim(p + 1), self.dim(p)))
        else:
            blocks = [[None] * len(src) for _ in dst]
            for i, j, gen, c in self.terms(p):
                b = src[j][1]
                blocks[i][j] = (_pointwise(self.base, c) if gen is None else
                                c * _derivative(self.base, gen,
                                                self.bundle.monodromy(gen, b)))
            # sp.bmat reads each block row's height and column's width off
            # its blocks, so block row 0 and column 0 get explicit zeros
            for i, j in [(i, 0) for i in range(len(dst))] + \
                        [(0, j) for j in range(len(src))]:
                if blocks[i][j] is None:
                    blocks[i][j] = sp.csr_matrix((self.component_size(dst[i]),
                                                  self.component_size(src[j])))
            out = sp.bmat(blocks, format="csr")
            out.eliminate_zeros()
        self._diff_cache[p] = out
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
        for g in range(d):
            X = h.logs[g]
            for b in range(len(self.bundle.ranks)):
                if not np.array_equal(self.bundle.monodromy(g, b),
                                      h.bundle.monodromy(g, b)):
                    return False
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
        solved, each counted twice unless it is its own mirror."""
        N, d = self.base.resolution, self.base.dim
        modes = np.indices((N,) * d).reshape(d, -1).T
        mirror = np.ravel_multi_index(tuple((-modes % N).T), (N,) * d)
        keep = np.arange(len(modes)) <= mirror
        paired = mirror[keep] != np.flatnonzero(keep)
        phase = np.exp(1j * (2 * np.pi * modes[keep] / N))
        Dp = self._bloch_symbol(p, phase)
        Dm = self._bloch_symbol(p - 1, phase)
        L = (np.conj(Dp.transpose(0, 2, 1)) @ Dp
             + Dm @ np.conj(Dm.transpose(0, 2, 1)))
        lam = np.linalg.eigvalsh(L)
        return np.sort(np.concatenate([lam.ravel(), lam[paired].ravel()]))

    # -- mass ---------------------------------------------------------------

    def _mass_blocks(self, p: int) -> np.ndarray | None:
        vol = self.base.cell_volume
        blocks = [vol * self.h.sample(b, self.base.points(stagger=dirs))
                  for dirs, b in self.components(p)]
        return blocks or None

    def mass(self, p: int) -> sp.csr_matrix:
        if p not in self._mass_cache:
            blocks = self._mass_blocks(p)
            self._mass_cache[p] = (sp.csr_matrix((0, 0)) if blocks is None
                                   else _block_diag_sparse(blocks))
        return self._mass_cache[p]

    def mass_powers(self, p: int, power: float) -> sp.csr_matrix:
        blocks = self._mass_blocks(p)
        if blocks is None:
            return sp.csr_matrix((0, 0))
        powered = [_spd_power(blk, power) for blk in blocks]
        return _block_diag_sparse(powered)

    # -- Laplacian ----------------------------------------------------------

    def stiffness(self, p: int) -> tuple[sp.csr_matrix, sp.csr_matrix]:
        """(K, M) of the pencil K v = lambda M v for the degree-p Laplacian."""
        M = self.mass(p)
        K = sp.csr_matrix((self.dim(p), self.dim(p)))
        if self.dim(p + 1) > 0:
            D = self.differential(p)
            K = K + D.T @ self.mass(p + 1) @ D
        if p > 0 and self.dim(p - 1) > 0:
            Dm = self.differential(p - 1)
            Minv = self.mass_powers(p - 1, -1.0)
            K = K + M @ Dm @ Minv @ Dm.T @ M
        return K.tocsr(), M

    def laplacian(self, p: int) -> sp.csr_matrix:
        """Symmetric matrix similar to the degree-p Laplacian (conjugated by
        the square root of the mass)."""
        K, _ = self.stiffness(p)
        Mhalf_inv = self.mass_powers(p, -0.5)
        L = Mhalf_inv @ K @ Mhalf_inv
        return (0.5 * (L + L.T)).tocsr()

    def operator_norm(self, other: "DiscreteComplex") -> float:
        """Weighted operator norm of the difference of the two total
        differentials (both complexes must share the grid and metric)."""
        worst = 0.0
        top = self.base.dim + self.bundle.top
        for p in range(top + 1):
            if self.dim(p) == 0 or self.dim(p + 1) == 0:
                continue
            X = self.differential(p) - other.differential(p)
            if X.nnz == 0:
                continue
            A = self.mass_powers(p + 1, 0.5) @ X @ self.mass_powers(p, -0.5)
            G = (A.T @ A).toarray() if A.shape[1] <= 1500 else None
            if G is not None:
                worst = max(worst, float(np.sqrt(max(
                    0.0, np.linalg.eigvalsh(0.5 * (G + G.T))[-1]))))
            else:
                s = spla.svds(A, k=1, return_singular_vectors=False)
                worst = max(worst, float(s[0]))
        return worst


def _intertwines(a: np.ndarray, X_dst: np.ndarray, X_src: np.ndarray) -> bool:
    """X_dst a = a X_src up to rounding."""
    if a.size == 0:
        return True
    scale = max(1.0, _absmax(a)) * max(1.0, _absmax(X_dst), _absmax(X_src))
    return _absmax(X_dst @ a - a @ X_src) <= 1e-10 * scale


def _block_diag_sparse(blocks) -> sp.csr_matrix:
    mats = []
    for blk in blocks:
        npts, r, _ = blk.shape
        rows = np.repeat(np.arange(npts * r), r)
        cols = (np.arange(npts)[:, None, None] * r
                + np.broadcast_to(np.arange(r), (npts, r, r))).ravel()
        mats.append(sp.coo_matrix((blk.ravel(), (rows, cols)),
                                  shape=(npts * r, npts * r)))
    return sp.block_diag(mats, format="csr") if mats else sp.csr_matrix((0, 0))


def _spd_power(blocks: np.ndarray, power: float) -> np.ndarray:
    w, v = np.linalg.eigh(blocks)
    if w.min() <= 0:
        raise InputError("mass block not positive definite")
    return np.einsum("pij,pj,pkj->pik", v, w ** power, v)


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------

def spectrum(sc: Superconnection, h: MetricField, p: int, count: int = 12,
             check_metric: bool = True) -> SpectrumReport:
    """Lowest eigenvalues of the degree-p Laplacian with the gap-rule split.

    When the metric gauges the bundle to constant coefficients
    (`DiscreteComplex.bloch_ready`), the Laplacian splits into one small
    Hermitian block per Fourier mode of the grid and all blocks are solved in
    one batch. Otherwise it is assembled and solved by
    `numerics.lowest_eigenvalues`. `SpectrumReport.from_eigenvalues` rounds
    either result.
    """
    if count < 1:
        raise InputError("count must be >= 1")
    dc = DiscreteComplex(sc, h, check_metric=check_metric)
    k = min(count, dc.dim(p))
    lam = (dc.bloch_eigenvalues(p)[:k] if dc.bloch_ready()
           else lowest_eigenvalues(dc.laplacian(p), k))
    return SpectrumReport.from_eigenvalues(p, lam)


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
    if sc1.bundle.ranks != sc2.bundle.ranks:
        raise InputError("superconnections live on different bundles")
    for gen in range(len(sc1.bundle.monodromies)):
        for b in range(len(sc1.bundle.ranks)):
            if _absmax(sc1.bundle.monodromy(gen, b)
                       - sc2.bundle.monodromy(gen, b)) > 1e-12:
                raise InputError("difference must be an endomorphism-valued "
                                 "form: monodromies differ")
    d1 = DiscreteComplex(sc1, h)
    d2 = DiscreteComplex(sc2, h, check_metric=False)
    norm = d1.operator_norm(d2)
    s1 = spectrum(sc1, h, p, count=count, check_metric=False)
    s2 = spectrum(sc2, h, p, count=count, check_metric=False)
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
    from .report import closeness_epsilon
    s1 = spectrum(sc, h1, p, count=count)
    s2 = spectrum(sc, h2, p, count=count)
    return MetricContinuityReport(eps, closeness_epsilon(s1, s2))
