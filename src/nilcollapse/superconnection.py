"""Flat degree-1 superconnections on graded bundles over flat base models.

The base is a flat k-torus, a point (k = 0), a circle or a square 2-torus;
sections of a flat bundle with monodromy Phi are grid functions with a
Phi-twisted wraparound, and over a point they are one fiber vector. Exterior
derivatives are forward differences on the staggered (vertex / edge / face)
grids, which keeps d^2 = 0 exact at the discrete level. Every metric records
the principal logarithms of the holonomy, and the gauge change they give
makes the Laplacian d*d + dd* translation invariant on the grid, so
`spectrum` solves it one Fourier mode of the grid at a time.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import lie, spectral
from .numerics import (REQUIRED, InputError, RationalMatrix, integer,
                       read_blocks, read_fields, read_json, real)
from .report import SpectrumReport


class FlatnessError(InputError):
    """A constructed superconnection violates one of the flatness identities."""


class WeightsError(InputError):
    """Weights refused by `check_weights`, first at stack index `point`."""

    def __init__(self, message: str, point: int):
        super().__init__(message)
        self.point = point


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
    monodromies[gen][b], as `spectral.AffineModel` holds them (`generators`
    identities when None), read exactly by `RationalMatrix` and invertible
    by `spectral.inverse_exact`; `Superconnection` tests that they commute.
    `gram[b]`, symmetric positive definite, is the exact Gram matrix of the
    fiber inner product that the degree-b blocks are written in (the
    identity when None). `monodromies` holds the exact blocks, `monodromy`
    and `inverse` the floats (`to_float`) of them and of their inverses."""

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
        # (R_dst X R_src^-1)^T = R_src^-T (R_dst X)^T
        return np.linalg.solve(self._frames[b_src].T,
                               (self._frames[b_dst] @ X).T).T


# ---------------------------------------------------------------------------
# matrix exponential and logarithm
# ---------------------------------------------------------------------------

_UNIT_ROUNDOFF = np.finfo(float).eps / 2
# the largest 1-norm of A / 2^s that _expm sums
_EXPM_THETA = 1.0
# the most square roots _logm takes, and the most Denman-Beavers steps of
# one; a monodromy with a real principal logarithm needs a handful of each
_MAX_STEPS = 64
# a Denman-Beavers step from Y to Y' about equals the error of Y, and the
# iteration converges quadratically, so after a step this small, relative
# to Y', the error of Y' is near its square, below the unit roundoff
_SQRT_TOL = 1e-10
_NO_REAL_LOG = "monodromy has no real logarithm; supply a metric explicitly"


def _norm1(A: np.ndarray) -> float:
    """The largest 1-norm (column sum) over a matrix or a stack of them."""
    return float(np.abs(A).sum(axis=-2).max(initial=0.0))


def _expm(A: np.ndarray) -> np.ndarray:
    """exp(A) of a square matrix or a stack of them, real or complex, by
    scaling and squaring a Taylor sum (Higham, SIAM J. Matrix Anal. Appl.
    26, 2005). The 1-norm fixes both counts before any product: s squarings
    take it to theta <= _EXPM_THETA, and the sum of exp(A / 2^s) stops at
    the first m for which its relative remainder, at most
    e^(2 theta) theta^(m+1) / (m+1)!, doubled by each squaring, is below
    the unit roundoff."""
    norm = _norm1(A)
    s = max(0, math.ceil(math.log2(norm / _EXPM_THETA))) if norm else 0
    theta = norm / 2 ** s
    m, bound = 0, 2 ** s * math.exp(2 * theta) * theta
    while bound > _UNIT_ROUNDOFF:
        m += 1
        bound *= theta / (m + 1)
    B = A / 2 ** s
    eye = np.eye(A.shape[-1], dtype=B.dtype)
    E = eye + np.zeros_like(B)
    for k in range(m, 0, -1):  # Horner: I + B (I + B (...) / 2) / 1
        E = eye + B @ E / k
    for _ in range(s):
        E = E @ E
    return E


def _sqrtm(A: np.ndarray) -> np.ndarray:
    """The principal square root of a real matrix by the Denman-Beavers
    iteration Y <- (Y + Z^-1) / 2, Z <- (Z + Y^-1) / 2 from Y = A, Z = I.
    InputError when it meets a singular iterate or does not converge in
    _MAX_STEPS, as for A with an eigenvalue on the closed negative real
    axis, which has no real principal square root."""
    Y, Z = A, np.eye(len(A))
    for _ in range(_MAX_STEPS):
        try:
            step = (np.linalg.inv(Z) - Y) / 2
            Y, Z = Y + step, (Z + np.linalg.inv(Y)) / 2
        except np.linalg.LinAlgError:
            break
        if _norm1(step) <= _SQRT_TOL * _norm1(Y):
            return Y
    raise InputError(_NO_REAL_LOG)


def _logm(phi: np.ndarray) -> np.ndarray:
    """The real principal logarithm of a real matrix by inverse scaling and
    squaring (Al-Mohy and Higham, SIAM J. Sci. Comput. 34, 2012): k square
    roots (`_sqrtm`) take E = phi^(1/2^k) - I to 1-norm rho <= 1/4, and
    log phi = 2^k log(I + E), the series sum_j (-1)^(j+1) E^j / j cut at
    the first m with rho^m / ((m+1)(1 - rho)) below the unit roundoff.
    InputError when phi has no real principal logarithm, or when the roots
    do not reach rho <= 1/4 in _MAX_STEPS."""
    eye = np.eye(len(phi))
    A = phi
    for k in range(_MAX_STEPS):
        E = A - eye
        rho = _norm1(E)
        if rho <= 0.25:
            break
        A = _sqrtm(A)
    else:
        raise InputError(_NO_REAL_LOG)
    m = 1
    while rho ** m > _UNIT_ROUNDOFF * (m + 1) * (1 - rho):
        m += 1
    S = (-1) ** (m + 1) / m * eye
    for j in range(m - 1, 0, -1):  # Horner: E (I - E (I / 2 - ...))
        S = (-1) ** (j + 1) / j * eye + E @ S
    return 2 ** k * (E @ S)


# the largest condition number of an eigenbasis whose logarithm is trusted:
# over 2,800 random rational near-defective matrices with n = 2-5 the error
# of V log(w) V^-1 against scipy's logm stayed below 1.5e-15 cond(V), so
# below 1.5e-12 here, within a decade of the 1000 eps at which that logm
# warns
_EIGENBASIS_COND = 1e3


def _principal_log(phi: np.ndarray) -> np.ndarray:
    """The principal logarithm of the real matrix `phi`. With
    phi = V diag(w) V^-1 and cond(V) <= _EIGENBASIS_COND it is
    V diag(log w) V^-1, complex, the primary matrix function; a monodromy
    without a well-conditioned eigenbasis, such as a Jordan block, goes to
    `_logm`, real, which raises InputError for one without a real principal
    logarithm. The fallback needs no complex branch: `MetricField.identity`,
    the one caller that accepts a complex logarithm, takes it of orthogonal
    monodromies only, which are normal and so have a unitary eigenbasis
    (`np.linalg.eig` gave cond(V) <= 37 over 6,000 rational orthogonal
    matrices with n = 4-8, the eigenvalue -1 repeated and rotation blocks).
    The block of a rank-0 degree is its own logarithm."""
    w, V = np.linalg.eig(phi)
    if not phi.size or np.linalg.cond(V) <= _EIGENBASIS_COND:
        return (V * np.log(w.astype(complex))) @ np.linalg.inv(V)
    return _logm(phi)


# ---------------------------------------------------------------------------
# metric fields
# ---------------------------------------------------------------------------


def _holonomy_logs(bundle: GradedBundle) -> list[list[np.ndarray]]:
    """The principal logarithm of every monodromy block, [gen][b]: real
    arrays when no imaginary part exceeds 1e-9, which rounding leaves on a
    real logarithm such as a rotation's, and complex arrays otherwise."""
    logs = [[_principal_log(bundle.monodromy(gen, b))
             for b in range(len(bundle.ranks))]
            for gen in range(len(bundle.monodromies))]
    if any(np.abs(np.imag(X)).max(initial=0.0) > 1e-9
           for X in itertools.chain(*logs)):
        return logs
    return [[np.real(X) for X in per_degree] for per_degree in logs]


class MetricField:
    """Graded fiber inner product h^E over one base, sampled where needed:
    a callable (b, points) -> stack of SPD matrices. Every constructor takes
    the bundle and the base, and checks on sample points that the metric is
    equivariant there, h(x + L_g e_g) = Phi_g^-T h(x) Phi_g^-1
    (`check_equivariance`). A `DiscreteComplex` refuses a metric of another
    bundle or base.

    `identity` and `equivariant` record `logs[gen][b]`, the principal
    logarithms X of the monodromies (`_holonomy_logs`), with
    h(x) = G(x)^H G(x), G(x) = exp(-sum_g x_g X_g / L_g); over the identity
    metric the monodromies are orthogonal, X is real or skew-Hermitian and
    G(x) unitary. `spectrum` uses them to gauge the bundle to constant
    coefficients, and its `weights` scale that gauge by a constant diagonal
    fiber root, for the metric G(x)^T diag(e^{2 lambda_b}) G(x) of real
    logarithms, equivariant for every weight. A bare callable records none,
    and a `DiscreteComplex` refuses it.
    """

    logs = None
    # unit check points, sampled with their translates by one period
    _check_points = np.array([
        0.6369616873214543, 0.2697867137638703, 0.04097352393619469,
        0.016527635528529094, 0.8132702392002724, 0.9127555772777217,
        0.6066357757671799, 0.7294965609839984])

    def __init__(self, bundle: GradedBundle, base: BaseModel, func):
        spectral.check_base(base.kind, len(bundle.monodromies))
        self.bundle, self.base, self._func = bundle, base, func
        self.check_equivariance()

    @classmethod
    def identity(cls, bundle: GradedBundle, base: BaseModel) -> "MetricField":
        def func(b, pts):
            return np.broadcast_to(np.eye(bundle.rank(b)),
                                   (len(pts), bundle.rank(b), bundle.rank(b)))
        h = cls(bundle, base, func)
        # the check passed, so every monodromy is orthogonal
        h.logs = _holonomy_logs(bundle)
        return h

    @classmethod
    def equivariant(cls, bundle: GradedBundle, base: BaseModel) -> "MetricField":
        """h(x) = (Phi^{-s})^T Phi^{-s} along each generator, built from the
        principal matrix logarithm (`_principal_log`: one eigendecomposition
        when the eigenbasis is well conditioned, inverse scaling and
        squaring by `_logm` otherwise) and sampled by one batched `_expm`.
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
        logs = _holonomy_logs(bundle)
        if not all(np.isrealobj(X) for X in itertools.chain(*logs)):
            raise InputError(_NO_REAL_LOG)

        def func(b, pts):
            r = bundle.rank(b)
            G = _expm(sum(
                ((-pts[:, g, None, None] / base.circumferences[g]) * logs[g][b]
                 for g in range(base.dim)), np.zeros((len(pts), r, r))))
            return G.transpose(0, 2, 1) @ G
        h = cls(bundle, base, func)
        h.logs = logs
        return h

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


# ---------------------------------------------------------------------------
# the superconnection
# ---------------------------------------------------------------------------

class Superconnection:
    """A flat degree-1 superconnection over a flat base.

    a0[b] : E^b -> E^{b+1} is the constant fiber differential; the connection
    is (monodromy, zero local potential); a2[b - 1] : E^b -> E^{b-1} is the
    coefficient of the base area form in the curvature term (2-torus only).
    `spectral.check_base` checks the bundle and a2 against the base. Both
    are read exactly, as the monodromies are (zeros when None), and
    `check_flatness` tests them, so every superconnection is flat. `a0` and
    `a2` hold the exact blocks, `a0_block` and `a2_block` their floats.
    """

    def __init__(self, bundle: GradedBundle, base: BaseModel,
                 a0=None, a2=None):
        spectral.check_base(base.kind, len(bundle.monodromies), a2)
        self.bundle = bundle
        self.base = base
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

def from_affine_bundle(model: spectral.AffineModel,
                       base: BaseModel) -> Superconnection:
    """Superconnection of an affine bundle over `base`, from the exact
    blocks of its `spectral.AffineModel`: fiber differential + holonomy of
    the affine action + interior multiplication by the curvature 2-form.
    With a finite symmetry group the model holds the blocks on the
    F-invariant forms in their exact basis B, whose Gram matrices B^T B the
    bundle gets. The bundle takes the model's `monodromies[gen][b]` as they
    are, and `Superconnection` checks the model against the base
    (`spectral.check_base`) and its flatness.
    """
    gram = None if model.basis is None else [
        B.transpose() @ B for B in model.basis]
    bundle = GradedBundle(model.ranks, model.monodromies, gram=gram)
    return Superconnection(bundle, base, a0=model.a0, a2=model.a2)


def load_bundle(source) -> tuple[Superconnection, MetricField]:
    """Superconnection plus metric from a JSON file path or a parsed dict:
    a fiber algebra with its holonomy actions (identities when absent) and
    curvature term, read into one `spectral.AffineModel`, or explicit
    per-degree blocks (identity monodromies, a zero a0 and no a2 by
    default). Either way `Superconnection` tests the flatness identities
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
        holonomies = b["monodromy_action"]
        if holonomies is None:
            holonomies = [RationalMatrix.identity(b["fiber"].n)] * base.dim
        sc = from_affine_bundle(spectral.AffineModel(
            b["fiber"], holonomies, b["a2"]), base)
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

class DiscreteComplex:
    """Total differential on the staggered grids, in the gauge of the
    metric's holonomy logarithms, as Fourier symbols of the grid: each
    degree's symbol is d + 1 constant blocks, D_p(theta) = C_0 +
    sum_g (e^{i theta_g} - 1) C_g, built once per complex. A sweep's
    weights are checked as one stack per degree (`check_weights`), and one
    solve forms every point's Laplacian blocks and `eigvalsh`-solves only
    the modes that can hold a reported eigenvalue (`bloch_eigenvalues`).
    The metric, checked when it was built, must be one of the
    superconnection's own base and bundle (the same ranks, exact monodromies
    and Gram) and record its logarithms (`MetricField.identity` or
    `equivariant`), and a0 and a2 must intertwine them, which flatness
    implies for principal logarithms: InputError otherwise. Then each mass
    block is vol * I in the gauge and the fiber maps stay constant."""

    def __init__(self, sc: Superconnection, h: MetricField):
        if h.base != sc.base:
            raise InputError(f"metric was built over {h.base}, the "
                             f"superconnection lives over {sc.base}")
        if (h.bundle.ranks, h.bundle.monodromies, h.bundle.gram) != (
                sc.bundle.ranks, sc.bundle.monodromies, sc.bundle.gram):
            raise InputError("metric belongs to a different bundle")
        if h.logs is None:
            raise InputError("a DiscreteComplex needs a metric that records "
                             "the holonomy logarithms: build it with "
                             "MetricField.identity or MetricField.equivariant")
        if not all(_intertwines(sc.a0_block(b), X[b + 1], X[b]) and
                   _intertwines(sc.a2_block(b + 1), X[b], X[b + 1])
                   for X in h.logs for b in range(sc.bundle.top)):
            raise InputError("the metric's holonomy logarithms do not "
                             "intertwine the fiber maps a0 and a2")
        self.sc, self.h, self.base, self.bundle = sc, h, sc.base, sc.bundle
        self._symbols: dict[int, tuple] = {}
        self._layouts: dict[int, tuple] = {}
        # degree -> (checked weights stack, its factors, {count: rows})
        self._sweeps: dict[int, tuple] = {}
        self._real = all(np.isrealobj(X) for X in itertools.chain(*h.logs))
        N, d, ranks = self.base.resolution, self.base.dim, self.bundle.ranks
        # Phi_g^{+-1/2N} of each generator g and degree b, by block size
        self._half_steps = {}
        for r in set(ranks) if d else ():
            keys = [(g, b) for g in range(d) for b in range(len(ranks))
                    if ranks[b] == r]
            Xh = np.array([h.logs[g][b] for g, b in keys]) / (2 * N)
            self._half_steps.update(
                zip(keys, zip(*_expm(np.stack([Xh, -Xh])))))
        # real coefficients: the Bloch block at mode -m is the conjugate of
        # the one at m, so only modes with index(m) <= index(-m mod N) solve;
        # a complex logarithm solves every mode
        modes = np.indices((N,) * d).reshape(d, self.base.npoints).T
        mirror = (-modes % N) @ N ** np.arange(d - 1, -1, -1)
        keep = (np.arange(len(modes)) <= mirror) | (not self._real)
        self._paired = (mirror[keep] != np.flatnonzero(keep)) & self._real
        # psi_0 = 1 and psi_g = e^{i theta_g} - 1 at each solved mode: the
        # symbol there is sum_a psi_a C_a and its Laplacian block
        # sum_ab conj(psi_a) psi_b K_ab, one row of _Q
        theta = 2 * np.pi * modes[keep] / N
        sin2 = np.sin(theta / 2) ** 2
        self._psi = np.hstack([np.ones((len(theta), 1)),
                               -2 * sin2 + 1j * np.sin(theta)])
        self._Q = (np.conj(self._psi)[:, :, None]
                   * self._psi[:, None, :]).reshape(len(theta), -1)
        # the solved modes, lowest base symbol sum_g 4 sin^2(theta_g/2)/h_g^2
        # first: the order in which a pruned solve takes them
        self._base_symbol = (4 * sin2 / np.square(self.base.steps)).sum(axis=1)
        self._order = np.argsort(self._base_symbol, kind="stable")

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

    def _layout(self, q: int) -> tuple[list, list, np.ndarray]:
        """`components(q)`, their fiber offsets, and each entry's index in
        the weights of all degrees end to end; built once per complex."""
        if q not in self._layouts:
            comps, ranks = self.components(q), self.bundle.ranks
            at = [range(sum(ranks[:b]), sum(ranks[:b + 1])) for _, b in comps]
            off = [0, *itertools.accumulate(map(len, at))]
            self._layouts[q] = comps, off, np.array(
                [i for r in at for i in r], dtype=int)
        return self._layouts[q]

    # -- differential -------------------------------------------------------

    def terms(self, p: int) -> list[tuple[int, int, int | None, object]]:
        """Nonzero blocks of the degree-p differential as (dst, src, gen, coeff).

        dst and src index components(p + 1) and components(p). A block with
        gen set is coeff (a sign) times the twisted forward difference in
        direction gen; with gen None it is the pointwise fiber map coeff.
        The Bloch symbol reads this list.
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

    # -- Bloch reduction ----------------------------------------------------

    def _coefficients(self, q: int) -> tuple[np.ndarray, np.ndarray]:
        """The Fourier symbol of the gauged degree-q differential as d + 1
        constant blocks C, D_q(theta) = C_0 + sum_g (e^{i theta_g} - 1) C_g
        with C_0 = D_q(0), read off `terms` and the complex's table of
        Phi^{+-1/2N}, and the log of the largest entry of D_q over the
        solved modes, -inf where it is zero at every one."""
        (src, src_off, _), (dst, dst_off, _) = (self._layout(q),
                                                self._layout(q + 1))
        d, N, X = self.base.dim, self.base.resolution, self.h.logs
        C = np.zeros((d + 1, dst_off[-1], src_off[-1]), dtype=complex)
        for i, j, gen, c in self.terms(q):
            dirs, b = src[j]
            blk = C[:, dst_off[i]:dst_off[i + 1], src_off[j]:src_off[j + 1]]
            if gen is None:
                # a2 reads vertex values at face centres, half a step on in
                # both directions: G(y) a2 G(x)^-1 = a2 G(y - x)
                half = [g for g in range(d) if (g in dst[i][0]) != (g in dirs)]
                if half:
                    c = c @ _expm(-sum(X[g][b] for g in half) / (2 * N))
                blk[0] += c
            else:
                # (Phi^{1/2N} e^{i theta} - Phi^{-1/2N}) / h
                up, down = self._half_steps[gen, b]
                c = c / self.base.steps[gen]
                blk[0] += c * (up - down)
                blk[1 + gen] += c * up
        D = self._psi @ C.reshape(d + 1, C[0].size)
        with np.errstate(divide="ignore"):  # log 0 = -inf
            peak = np.log(abs(D).max(axis=0, initial=0)).reshape(C.shape[1:])
        return C, peak

    def _symbol(self, q: int) -> tuple[np.ndarray, np.ndarray]:
        """`_coefficients(q)`, built once per complex."""
        if q not in self._symbols:
            self._symbols[q] = self._coefficients(q)
        return self._symbols[q]

    def check_weights(self, p: int, stack) -> list[np.ndarray]:
        """The log lambda_dst,i - lambda_src,j of the factor that scales
        entry (i, j) of the degree-(p - 1) and degree-p symbols, one row per
        point of `stack`, whose weights are one finite vector lambda_b per
        degree b; -inf where the symbol is zero at every mode. WeightsError
        at the first point with other weights, on a metric with a complex
        logarithm, or whose degree-p Laplacian might overflow: its
        eigenvalues are at most its dimension times the inner dimension
        times the largest scaled entry squared. The complex keeps the stack
        and factors for `bloch_eigenvalues`, which checks nothing again."""
        lam = [[np.asarray(w, dtype=float) for w in weights]
               for weights in stack]
        fits = [[w.shape for w in point] == [(r,) for r in self.bundle.ranks]
                for point in lam]
        if all(fits):
            flat = np.array([np.concatenate(point) for point in lam])
            fits = np.isfinite(flat).all(axis=1)
        if not all(fits):
            raise WeightsError("weights must be one finite vector per degree, "
                               "of the degree's rank", int(np.argmin(fits)))
        if not self._real:
            raise WeightsError("weights need a metric whose holonomy "
                               "logarithms are real", 0)
        at = [flat[:, self._layout(q)[2]] for q in (p - 1, p, p + 1)]
        logs = [np.where(np.isfinite(self._symbol(q)[1]),
                         at[k + 1][:, :, None] - at[k][:, None], -np.inf)
                for k, q in enumerate((p - 1, p))]
        peak = np.max([(self._symbol(q)[1] + log).reshape(len(lam), -1).max(
            axis=1, initial=-np.inf) for q, log in zip((p - 1, p), logs)],
            axis=0)
        size = at[1].shape[1] * (at[0].shape[1] + at[2].shape[1])
        over = ~(2 * peak + np.log(max(size, 1)) < np.log(np.finfo(float).max))
        if over.any():
            raise WeightsError(f"the weights take the degree-{p} Laplacian "
                               f"out of the float range", int(np.argmax(over)))
        self._sweeps[p] = list(stack), logs, {}
        return logs

    def _laplacian_blocks(self, p: int, logs) -> np.ndarray:
        """The Hermitian Fourier blocks D^H D + D' D'^H of the degree-p
        Laplacian, (points, modes, n, n), D the degree-p symbol and D' the
        degree-(p - 1) one. The factors `logs` of `check_weights` (None: one
        unscaled point) give the metric G(x)^T diag(e^{2 lambda}) G(x): in
        the gauge w = diag(e^lambda) G(x) v they scale the coefficients,
        nonzero entries only, so none overflows unless the operator does.
        With C_a and B_a the coefficients of D and D', each point's Gram
        blocks K_ab = C_a^H C_b + B_b B_a^H take two products, and every
        mode's block is its row of _Q times K."""
        (B, _), (C, _) = self._symbol(p - 1), self._symbol(p)
        B, C = B[None], C[None]
        if logs is not None:
            B, C = B * np.exp(logs[0])[:, None], C * np.exp(logs[1])[:, None]
        P, a, n = len(C), C.shape[1], C.shape[3]
        rows = C.transpose(0, 2, 1, 3).reshape(P, C.shape[2], a * n)
        cols = B.reshape(P, a * n, B.shape[3])               # [B_0; B_1; ..]
        CC = np.conj(rows.transpose(0, 2, 1)) @ rows          # C_a^H C_b
        BB = cols @ np.conj(cols.transpose(0, 2, 1))          # B_a B_b^H
        K = (CC.reshape(P, a, n, a, n).transpose(0, 1, 3, 2, 4)
             + BB.reshape(P, a, n, a, n).transpose(0, 3, 1, 2, 4))
        return (self._Q @ K.reshape(P, a * a, n * n)).reshape(
            P, len(self._Q), n, n)

    def bloch_eigenvalues(self, p: int, weights, count: int) -> np.ndarray:
        """The lowest `count` eigenvalues of the degree-p Laplacian under
        `weights` (all should it have fewer), ascending. A point of the
        stack `check_weights` last took in degree p (the same object) reads
        its row of one solve of the stack per `count`; other weights, or
        None, are a stack of one. Over every point's Fourier blocks (one
        per conjugate pair of modes with real logarithms), `eigvalsh`
        solves the shortest prefix of the modes in base-symbol order that
        holds `count` eigenvalues, and the modes that tie with its last.
        With mu a point's count-th eigenvalue so far, one batched Cholesky
        factorization of L - (mu + 1e-8 |mu|) I over the point's other
        modes certifies that their eigenvalues lie above mu; the modes it
        refuses (`_refused`) are solved too, which can only lower mu."""
        stack = self._sweeps.get(p, ((),))[0]
        i = next((i for i, w in enumerate(stack) if w is weights), None)
        if i is None:  # any other weights, or None: a stack of one
            self._sweeps[p], i = ([None], None, {}), 0
            if weights is not None:
                self.check_weights(p, [weights])
        _, logs, rows = self._sweeps[p]
        if count in rows:
            return rows[count][i].copy()
        L = self._laplacian_blocks(p, logs)
        n, order = L.shape[-1], self._order
        held = np.cumsum(n * (1 + self._paired[order]))
        k = min(int(np.searchsorted(held, count)) + 1, len(order))
        ties = np.flatnonzero(self._base_symbol[order[k:]]
                              != self._base_symbol[order[k - 1]])
        k += ties[0] if len(ties) else len(order) - k
        solved, rest = order[:k], order[k:]
        lam = np.linalg.eigvalsh(L.take(solved, axis=1))
        rows[count] = low = _lowest(lam, self._paired[solved], count)
        # one certificate per point: a stacked one would hold the shifted
        # blocks of every point at once, temporaries large enough to cost
        # page faults on every solve
        for j in range(len(L)) if len(rest) else ():
            mu = low[j, -1]
            more = rest[self._refused(L[j, rest] - (mu + 1e-8 * abs(mu))
                                      * np.eye(n))]
            if len(more):
                both = np.concatenate([lam[j], np.linalg.eigvalsh(L[j, more])])
                low[j] = _lowest(both[None], self._paired[np.concatenate(
                    [solved, more])], count)
        return low[i].copy()

    @staticmethod
    def _refused(A: np.ndarray) -> np.ndarray:
        """The indices, ascending, of the blocks in the stack A that are not
        positive definite: a batch that `np.linalg.cholesky` factors holds
        none, and one it refuses is halved until each refused block stands
        alone."""
        out, stack = [], [(0, len(A))]
        while stack:
            lo, hi = stack.pop()
            try:
                np.linalg.cholesky(A[lo:hi])
            except np.linalg.LinAlgError:
                if hi - lo == 1:
                    out.append(lo)
                else:
                    mid = (lo + hi) // 2
                    stack += [(mid, hi), (lo, mid)]
        return np.array(sorted(out), dtype=int)


def _lowest(lam: np.ndarray, paired: np.ndarray, count: int) -> np.ndarray:
    """The lowest `count` of each point's per-mode eigenvalues `lam`,
    (points, modes, n), ascending, a paired mode's counted twice."""
    both = np.concatenate([lam, lam[:, paired]], axis=1)
    return np.sort(both.reshape(len(lam), -1), axis=1)[:, :count]


def _intertwines(a: np.ndarray, X_dst: np.ndarray, X_src: np.ndarray) -> bool:
    """X_dst a = a X_src up to rounding."""
    if a.size == 0:
        return True
    scale = max(1.0, np.abs(a).max()) * max(1.0, np.abs(X_dst).max(),
                                            np.abs(X_src).max())
    return bool(np.abs(X_dst @ a - a @ X_src).max() <= 1e-10 * scale)


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------

def spectrum(sc: Superconnection, h: MetricField, p: int, count: int = 12, *,
             dc: DiscreteComplex | None = None,
             weights=None) -> SpectrumReport:
    """Lowest eigenvalues of the degree-p Laplacian.

    The metric's holonomy logarithms gauge the bundle to constant
    coefficients, so the Laplacian splits into one small Hermitian block
    per Fourier mode of the grid, and `DiscreteComplex.bloch_eigenvalues`
    solves the modes that can hold the lowest `count` eigenvalues and
    certifies by Cholesky that the others hold none of them;
    `SpectrumReport.from_eigenvalues` rounds the result. The metric was checked when it was built; the
    complex refuses one of another bundle or base, or one that records no
    logarithms. `dc` is a `DiscreteComplex` of (sc, h) to solve on, built
    here when None. `weights`, one vector lambda_b per degree, solve the
    metric G(x)^T diag(e^{2 lambda_b}) G(x).
    """
    if p < 0:
        raise InputError(f"degree must be >= 0, got {p}")
    if count < 1:
        raise InputError("count must be >= 1")
    if dc is None:
        dc = DiscreteComplex(sc, h)
    elif dc.sc is not sc or dc.h is not h:
        raise InputError("dc is a complex of another superconnection or metric")
    return SpectrumReport.from_eigenvalues(
        p, dc.bloch_eigenvalues(p, weights, count))
