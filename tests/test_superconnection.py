"""Superconnection layer: flatness identities, the discretized complex, and
spectra checked against closed forms for flat and monodromy-twisted circles."""

import dataclasses
import inspect
import itertools
import re
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from nilcollapse import lab, lie, report, spectral
from nilcollapse import superconnection as sconn
from nilcollapse.numerics import InputError, RationalMatrix, rank_exact
from tests import oracles
from tests.conftest import (canonical, check_model_flatness,
                            interpolated_metric, spy)

SOL = np.array([[2.0, 1.0], [1.0, 1.0]])
MU = (3.0 + np.sqrt(5.0)) / 2.0  # larger eigenvalue of SOL
UNIPOTENT = np.array([[1.0, 1.0], [0.0, 1.0]])
FLIP = [[[[0, 1], [1, 0]]]]  # one monodromy generator: the flip in degree 0


def circle(n=32):
    return sconn.BaseModel("circle", n)


def torus(n=12):
    return sconn.BaseModel("torus2", n)


def circle_bundle(base, delta):
    """Invariant-forms model of an oriented circle bundle with curvature
    coupling delta: the abelian(1) fiber with T = [delta]."""
    return sconn.from_affine_bundle(spectral.AffineModel(
        lie.abelian(1), [np.eye(1)] * base.dim, T=[Fraction(delta)]), base)


# ---------------------------------------------------------------------------
# base model and bundle bookkeeping
# ---------------------------------------------------------------------------

def test_base_model_validation():
    with pytest.raises(InputError):
        sconn.BaseModel("line", 32)
    with pytest.raises(InputError):
        sconn.BaseModel("circle", 4)
    with pytest.raises(InputError):
        sconn.BaseModel("circle", 32, (1.0, 2.0))
    b = sconn.BaseModel("torus2", 16, (2.0, 3.0))
    assert b.dim == 2 and b.npoints == 256
    assert b.steps == (2.0 / 16, 3.0 / 16)
    assert float(np.prod(b.steps)) == pytest.approx(6.0 / 256)


def test_point_base_is_the_zero_torus():
    # one grid point, no coordinate and no circumference; the kinds and
    # their generator counts come from spectral.base_generators alone
    b = sconn.BaseModel("point", 8)
    assert (b.dim, b.npoints, b.circumferences) == (0, 1, ())
    assert b.points().shape == b.points(stagger=()).shape == (1, 0)
    assert float(np.prod(b.steps)) == 1.0
    assert [spectral.base_generators(k) for k in ("point", "circle",
                                                  "torus2")] == [0, 1, 2]
    with pytest.raises(InputError, match="unsupported base kind 'torus3'"):
        spectral.base_generators("torus3")
    with pytest.raises(InputError, match="bad circumference list"):
        sconn.BaseModel("point", 8, (1.0,))


def test_point_base_solves_the_fiber_complex():
    # over a point the Laplacian is the fiber's a0^T a0 + a0 a0^T: one
    # Bloch block, and the same eigenvalues assembled by the oracle
    bundle = sconn.GradedBundle([1, 2], generators=0)
    base = sconn.BaseModel("point", 8)
    sc = sconn.Superconnection(bundle, base, a0=[[[3], [4]]])
    h = sconn.MetricField.identity(bundle, base)
    bare = sconn.MetricField(bundle, base, h.sample)
    for p, want in ((0, [25.0]), (1, [0.0, 25.0]), (2, [])):
        for rep in (sconn.spectrum(sc, h, p),
                    oracles.assembled_spectrum(sc, bare, p)):
            assert np.allclose(rep.eigenvalues, want, rtol=1e-14, atol=1e-14)
    with pytest.raises(InputError, match="a point base needs 0 monodromy "
                                         "generators, got 1"):
        sconn.Superconnection(sconn.GradedBundle([1]), base)
    with pytest.raises(InputError, match="a2 needs a 2-dimensional base"):
        sconn.Superconnection(sconn.GradedBundle([1, 1], generators=0), base,
                              a2=[[[1]]])


def test_base_model_points_stagger():
    b = circle(8)
    pts = b.points()
    mid = b.points(stagger=(0,))
    assert pts.shape == (8, 1)
    assert np.allclose(mid - pts, 1.0 / 16)


def test_graded_bundle_validation():
    with pytest.raises(InputError):
        sconn.GradedBundle([])
    with pytest.raises(InputError):
        sconn.GradedBundle([2], [[np.array([[1.0, 1.0], [1.0, 1.0]])]])
    # the bundle checks shapes and invertibility only: that torus
    # monodromies commute is the exact flatness identity 'curvature', which
    # the superconnection tests
    a = RationalMatrix([[1, 1], [0, 1]])
    b = RationalMatrix([[1, 0], [1, 1]])
    bundle = sconn.GradedBundle([2], [[a.to_numpy()], [b]], generators=2)
    assert bundle.monodromies == [[a], [b]]
    with pytest.raises(sconn.FlatnessError,
                       match="'curvature' fails in degree 0$"):
        sconn.check_flatness([2], [], [[a], [b]])
    with pytest.raises(sconn.FlatnessError,
                       match="'curvature' fails in degree 0$"):
        sconn.Superconnection(bundle, torus())
    sconn.check_flatness([2], [], [[a], [a]])
    sconn.Superconnection(sconn.GradedBundle([2], [[a], [a]]), torus())


def test_superconnection_is_flat_by_construction():
    # the first used to build, with D_1 D_0 = 1 on the grid, and the
    # second with a float a0 that no identity was tested on
    with pytest.raises(sconn.FlatnessError,
                       match="'squares' fails in degree 0$"):
        sconn.Superconnection(sconn.GradedBundle([1, 1, 1]), circle(8),
                              a0=[[[1]], [[1]]])
    with pytest.raises(InputError, match="non-integral float 0.1"):
        sconn.Superconnection(sconn.GradedBundle([1, 1]), circle(8),
                              a0=[[[0.1]]])
    sc = sconn.Superconnection(sconn.GradedBundle([1, 1]), circle(8),
                               a0=[[["1/10"]]])
    assert sc.a0 == [RationalMatrix([["1/10"]])]
    assert np.array_equal(sc.a0_block(0), [[0.1]])


def test_monodromy_invertibility_is_decided_exactly():
    # det = 1, but in floats 10^20 + 1 rounds to 10^20 and the rows agree
    big = 10 ** 20
    bundle = sconn.GradedBundle([2], [[[[big + 1, 1], [big, 1]]]])
    assert bundle.monodromies[0][0] == RationalMatrix([[big + 1, 1], [big, 1]])
    with pytest.raises(InputError, match="monodromy must be invertible"):
        sconn.GradedBundle([2], [[[[big, 1], [big, 1]]]])
    # the equivariance check inverts it exactly too: no LinAlgError
    with pytest.raises(InputError, match="metric violates monodromy"):
        sconn.load_bundle({"base": {"kind": "circle", "resolution": 8},
                           "ranks": [2], "monodromy": [[[[big + 1, 1],
                                                         [big, 1]]]]})


def test_bundle_with_a_zero_rank_degree():
    # empty blocks are read with their column count, and the equivariance
    # check passes over the empty degree instead of failing on its max
    sc, h = sconn.load_bundle({"base": {"kind": "torus2", "resolution": 8},
                               "ranks": [1, 0, 1], "a0_blocks": [[], [[]]]})
    assert [(x.rows, x.cols) for x in sc.a0] == [(0, 1), (1, 0)]
    zeros = [int(np.sum(sconn.spectrum(sc, h, p, count=3).eigenvalues
                        <= report.ZERO_TOL)) for p in range(5)]
    assert zeros == [1, 2, 2, 2, 1]


def test_small_invertible_holonomy_action_builds():
    # diag(3, 3, 9, 27, 81) is an automorphism of filiform:5; on 2-forms it
    # acts by entries 1/2187 .. 1/9, whose determinant (about 1e-21) an
    # absolute bound such as |det| < 1e-12 calls singular
    phi = RationalMatrix.from_entries(5, 5, {(i, i): v for i, v in
                                             enumerate([3, 3, 9, 27, 81])})
    sc = sconn.from_affine_bundle(spectral.AffineModel(lie.filiform(5), [phi]),
                                  circle(8))
    assert sc.bundle.ranks == (1, 5, 10, 10, 5, 1)
    assert abs(np.linalg.det(sc.bundle.monodromy(0, 2))) < 1e-12


def test_graded_bundle_reads_ranks_as_integers():
    assert sconn.GradedBundle([np.int64(1), 2.0]).ranks == (1, 2)
    for ranks in ([1.5], [True], ["1"], [1, -1]):
        with pytest.raises(InputError, match="rank"):
            sconn.GradedBundle(ranks)


def test_spectrum_needs_a_positive_count():
    sc = sconn.Superconnection(sconn.GradedBundle([1]), circle(8))
    h = sconn.MetricField.identity(sc.bundle, sc.base)
    assert len(sconn.spectrum(sc, h, 0, count=1).eigenvalues) == 1
    for count in (0, -1):
        with pytest.raises(InputError, match="count must be >= 1"):
            sconn.spectrum(sc, h, 0, count=count)


def test_superconnection_shape_validation():
    bundle = sconn.GradedBundle([1, 1])
    with pytest.raises(InputError):
        sconn.Superconnection(bundle, circle(), a0=[np.zeros((2, 1))])
    with pytest.raises(InputError):
        # a2 needs a two-dimensional base
        sconn.Superconnection(bundle, circle(), a2=[np.ones((1, 1))])
    with pytest.raises(InputError, match="contraction vector"):
        spectral.AffineModel(lie.heisenberg(3), [np.eye(3)] * 2, T=[0, 1])


def test_superconnection_needs_one_monodromy_per_base_direction():
    # one generator over a torus used to fail later, inside `spectrum`
    with pytest.raises(InputError, match="torus2 base needs 2 monodromy"):
        sconn.Superconnection(sconn.GradedBundle([1]), torus())
    # a second generator over a circle used to be ignored
    with pytest.raises(InputError, match="circle base needs 1 monodromy"):
        sconn.Superconnection(sconn.GradedBundle([1], generators=2), circle())
    with pytest.raises(InputError, match="torus2 base needs 2 monodromy"):
        sconn.from_affine_bundle(
            spectral.AffineModel(lie.abelian(2), [np.eye(2)]), torus(8))


# ---------------------------------------------------------------------------
# flatness
# ---------------------------------------------------------------------------

def test_flatness_of_affine_models():
    for alg, base in [(lie.heisenberg(3), circle(8)),
                      (lie.abelian(2), circle(8)),
                      (lie.abelian(3), torus(8))]:
        model = check_model_flatness(alg, [np.eye(alg.n)] * base.dim)
        sconn.from_affine_bundle(model, base)


def test_flatness_of_twisted_circle():
    model = check_model_flatness(lie.abelian(2), [SOL])
    sc = sconn.from_affine_bundle(model, circle(8))
    assert np.array_equal(sc.bundle.monodromy(0, 1), np.linalg.inv(SOL).T)


def test_circle_bundle_model_is_flat():
    check_model_flatness(lie.abelian(1), [np.eye(1)] * 2, T=[1])
    sc = circle_bundle(torus(8), 1.0)
    assert np.array_equal(sc.a2_block(1), [[1.0]])
    with pytest.raises(InputError):
        circle_bundle(circle(8), 1.0)


def test_from_affine_bundle_rejects_non_automorphism():
    bad = np.diag([1.0, 1.0, 2.0])  # scales the center only: not compatible
    with pytest.raises(sconn.FlatnessError):
        sconn.from_affine_bundle(
            spectral.AffineModel(lie.heisenberg(3), [bad]), circle(8))


def test_flatness_report_names_violated_identity():
    one, two = RationalMatrix([[1]]), RationalMatrix([[2]])
    with pytest.raises(sconn.FlatnessError, match="flatness identity "
                       "'parallel_a0' fails in degree 0 of generator 0$"):
        sconn.check_flatness([1, 1], [one], [[one, two]])
    with pytest.raises(sconn.FlatnessError, match="flatness identity "
                       "'curvature' fails in degree 0$"):
        sconn.check_flatness([1, 1], [one], [[one, one]] * 2, a2=[one])


@st.composite
def explicit_bundles(draw):
    """(base, ranks, monodromies, a0, a2) of a small explicit bundle over a
    circle or a torus: ranks at most 2 per degree, entries in -2..2. Each
    block is zero, the identity or random, and the second torus generator
    may repeat the first, so that flat and non-flat bundles both occur."""
    base = draw(st.sampled_from([circle(8), torus(8)]))
    ranks = [draw(st.integers(1, 2))] + draw(
        st.lists(st.integers(0, 2), max_size=2))

    def block(rows, cols, kinds):
        kind = draw(st.sampled_from(kinds))
        if kind == "zero":
            return RationalMatrix.zeros(rows, cols)
        if kind == "identity":
            return RationalMatrix.identity(rows)
        row = st.lists(st.integers(-2, 2), min_size=cols, max_size=cols)
        return RationalMatrix(draw(st.lists(row, min_size=rows,
                                            max_size=rows)), cols=cols)

    def monodromy(r):
        m = block(r, r, ["identity", "random"])
        return m if rank_exact(m) == r else RationalMatrix.identity(r)

    monos = [[monodromy(r) for r in ranks]]
    if base.dim == 2:
        monos.append(monos[0] if draw(st.booleans())
                     else [monodromy(r) for r in ranks])
    a0 = [block(ranks[b + 1], ranks[b], ["zero", "random"])
          for b in range(len(ranks) - 1)]
    a2 = None if base.dim == 1 or draw(st.booleans()) else [
        block(ranks[b - 1], ranks[b], ["zero", "random"])
        for b in range(1, len(ranks))]
    return base, ranks, monos, a0, a2


@given(explicit_bundles())
@settings(max_examples=80, deadline=None)
def test_superconnection_is_flat_exactly_when_check_flatness_holds(data):
    base, ranks, monos, a0, a2 = data
    bundle = sconn.GradedBundle(ranks, monos, generators=base.dim)
    try:
        sconn.check_flatness(ranks, a0, monos, a2)
    except sconn.FlatnessError as exc:
        with pytest.raises(sconn.FlatnessError, match=re.escape(str(exc))):
            sconn.Superconnection(bundle, base, a0=a0, a2=a2)
        return
    sc = sconn.Superconnection(bundle, base, a0=a0, a2=a2)
    dc = oracles.AssembledComplex(sc, interpolated_metric(bundle, base))
    for p in range(base.dim + len(ranks)):
        prod = dc.differential(p + 1) @ dc.differential(p)
        assert prod.nnz == 0 or abs(prod).max() <= 1e-12


def test_contraction_matrix_matches_exact_blocks():
    v = [1, -2, 3]
    blocks = spectral.contraction_blocks(v, 3)
    sc = sconn.from_affine_bundle(
        spectral.AffineModel(lie.abelian(3), [np.eye(3)] * 2, T=v), torus(8))
    for b in range(1, 4):
        assert sc.a2[b - 1] == blocks[b - 1]
        assert np.array_equal(sc.a2_block(b), blocks[b - 1].to_numpy())


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def test_identity_metric_fails_equivariance_for_twisted_bundle():
    bundle = sconn.GradedBundle([2], [[SOL]])
    with pytest.raises(InputError, match="equivariance"):
        sconn.MetricField.identity(bundle, circle(16))


def test_equivariant_metric_passes_its_own_check():
    bundle = sconn.GradedBundle([2], [[SOL]])
    h = sconn.MetricField.equivariant(bundle, circle(16))  # checked here
    # samples are symmetric positive definite
    g = h.sample(0, circle(16).points())
    assert np.abs(g - np.transpose(g, (0, 2, 1))).max() < 1e-12
    assert np.linalg.eigvalsh(g).min() > 0


def test_with_fiber_keeps_the_logarithms_and_is_checked(monkeypatch):
    # a constant diagonal fiber metric e^{2 lambda} is `spectrum`'s weights
    # lambda: every weight solves on the one complex of the metric that
    # records the logarithms, checked once when it was built
    checked = []
    check = sconn.MetricField.check_equivariance
    monkeypatch.setattr(sconn.MetricField, "check_equivariance",
                        lambda m: checked.append(m) or check(m))
    sc, h = twisted_circle(circle(16), SOL)
    assert checked == [h]
    dc = sconn.DiscreteComplex(sc, h)
    for weights in ([[0.0], [0.5, -0.25], [1.0]], [[-1.0], [0.0, 0.3], [0.2]]):
        for p in range(3):
            sconn.spectrum(sc, h, p, 8, dc=dc, weights=weights)
    assert checked == [h] and dc.h.logs is h.logs
    # zero weights, the identity fiber, solve the metric itself
    zero = [np.zeros(r) for r in sc.bundle.ranks]
    for p in range(3):
        assert np.array_equal(
            sconn.spectrum(sc, h, p, 8, dc=dc, weights=zero).eigenvalues,
            sconn.spectrum(sc, h, p, 8, dc=dc).eigenvalues)
    # and a nonzero weight solves G(x)^T e^{2 lambda} G(x), checked when
    # the oracle is built
    for p in range(3):
        assert_bloch_matches_assembled(sc, h, p,
                                       weights=[[0.4], [0.5, -0.25], [1.0]])


def test_with_fiber_checks_its_blocks():
    # one finite vector per degree, of the degree's rank, on a metric that
    # records logarithms
    sc, h = twisted_circle(circle(8), SOL)
    for weights in ([[0.0], [0.0, 0.0]], [[0.0], [0.0], [0.0]],
                    [[0.0], [0.0, 0.0], [0.0], [0.0]],
                    [[0.0, 0.0], [0.0], [0.0]]):
        with pytest.raises(InputError, match="one finite vector per degree"):
            sconn.spectrum(sc, h, 1, weights=weights)
    # a bare callable records no logarithms to gauge the weights with
    with pytest.raises(InputError, match="records the holonomy logarithms"):
        sconn.spectrum(sc, bare(h), 0, weights=[[0.0], [0.0, 0.0], [0.0]])


def test_conformal_factor_must_be_positive():
    # a weight is the log of the fiber root, so every finite weight is a
    # positive factor; the factor 0 (weight -inf), inf and NaN are refused
    sc = sconn.from_affine_bundle(
        spectral.AffineModel(lie.abelian(1), [np.eye(1)]), circle(8))
    h = sconn.MetricField.identity(sc.bundle, sc.base)
    for bad in (-np.inf, np.inf, np.nan):
        with pytest.raises(InputError, match="one finite vector per degree"):
            sconn.spectrum(sc, h, 0, weights=[[0.0], [bad]])
    for p in range(2):
        assert_bloch_matches_assembled(sc, h, p,
                                       weights=[[0.0], [np.log(2.0)]])


def test_every_metric_takes_the_base_it_is_checked_on():
    bundle = sconn.GradedBundle([2], [[SOL]])
    h = sconn.MetricField.equivariant(bundle, circle(16))
    assert h.base == circle(16)
    with pytest.raises(InputError, match="2 monodromy generators"):
        sconn.MetricField.identity(bundle, torus(8))
    # a bare callable is checked too: the constant identity is not
    # equivariant under SOL
    with pytest.raises(InputError, match="equivariance"):
        sconn.MetricField(bundle, circle(16), lambda b, pts: np.broadcast_to(
            np.eye(2), (len(pts), 2, 2)))


def test_metric_singular_in_floats_is_refused_before_logm():
    # det 1 exactly, but 10^20 + 1 is 10^20 in floats: the float monodromy
    # has rank 1, and its logarithm would warn that it is singular
    with pytest.raises(InputError, match="singular in floats"):
        sconn.load_bundle({
            "base": {"kind": "circle", "resolution": 8}, "ranks": [2],
            "monodromy": [[[[10 ** 20 + 1, 1], [10 ** 20, 1]]]],
            "metric": "equivariant"})


def test_equivariant_metric_needs_real_logarithm():
    flip = np.array([[0.0, 1.0], [1.0, 0.0]])
    bundle = sconn.GradedBundle([2], [[flip]])
    with pytest.raises(InputError):
        sconn.MetricField.equivariant(bundle, circle(16))


def near_jordan(k):
    # Q [[1, 1], [0, 1 + 1/k]] Q^-1 over Q: cond(V) of its eigenbasis is
    # about 4k + 10, so k = 240 falls below _EIGENBASIS_COND and 260 above
    Q, Q_inv = RationalMatrix([[1, 2], [1, 3]]), RationalMatrix([[3, -2],
                                                                 [-1, 1]])
    J = RationalMatrix([[1, 1], [0, 1 + Fraction(1, k)]])
    return (Q @ J @ Q_inv).to_numpy()


def h3_unipotent_compounds():
    # the degree-b monodromies of heisenberg:3 under the unipotent holonomy
    # of the lab's unipotent degeneration: Jordan blocks in degrees 1 and 2
    sc = sconn.from_affine_bundle(spectral.AffineModel(
        lie.heisenberg(3), [RationalMatrix([[1, 0, 0], [1, 1, 0], [0, 0, 1]])]),
        circle(8))
    return [sc.bundle.monodromy(0, b) for b in range(4)]


@pytest.mark.parametrize("phi, via_logm", [
    (SOL, False),
    (np.array([[0.0, -1.0], [1.0, 0.0]]), False),
    (np.diag([2.0, 2.0, 3.0]), False),
    (near_jordan(240), False),
    (near_jordan(260), True),
    (UNIPOTENT, True),
    *zip(h3_unipotent_compounds(), (False, True, True, False)),
], ids=["sol", "rotation", "repeated-eigenvalue", "below-bound",
        "above-bound", "jordan", "h3-degree0", "h3-degree1", "h3-degree2",
        "h3-degree3"])
def test_principal_log_matches_logm_on_both_sides_of_the_bound(
        monkeypatch, phi, via_logm):
    # the eigendecomposition path is the same primary function as scipy's
    # logm; a basis conditioned worse than the bound, or defective, goes to
    # the inverse scaling and squaring fallback _logm
    cond = np.linalg.cond(np.linalg.eig(phi)[1])
    assert (cond > sconn._EIGENBASIS_COND) == via_logm
    want = scipy.linalg.logm(phi)
    calls = []
    spy(monkeypatch, sconn, "_logm", calls, phi)
    X = sconn._principal_log(phi)
    assert len(calls) == via_logm
    assert np.abs(X - want).max() <= 1e-11 * np.abs(want).max()
    assert np.abs(scipy.linalg.expm(X) - phi).max() <= 1e-12 * np.abs(
        phi).max()


@pytest.mark.parametrize("phi, via_logm", [
    (-np.eye(2), False), (np.array([[-1.0, 1.0], [0.0, -1.0]]), True),
    (np.array([[-2.0, 1.0], [0.0, -2.0]]), True),
], ids=["minus-identity", "minus-jordan", "minus-two-jordan"])
def test_monodromy_without_real_logarithm_is_refused(monkeypatch, phi,
                                                     via_logm):
    # the eigendecomposition gives -I a complex logarithm; a defective block
    # on the negative axis has no real square root, so _logm's
    # Denman-Beavers iteration meets a singular iterate (-1) or wanders
    # until its step bound (-2)
    bundle = sconn.GradedBundle([2], [[phi]])
    calls = []
    spy(monkeypatch, sconn, "_logm", calls, phi)
    with pytest.raises(InputError, match="monodromy has no real logarithm"):
        sconn.MetricField.equivariant(bundle, circle(16))
    assert len(calls) == via_logm


def orthogonal_with_repeated_minus_one():
    # every 4 x 4 signed permutation with -1 at least twice among its
    # eigenvalues, and diag(-1, -1, 1, 1) conjugated by the reflection in
    # (1, 1, 1, 1), whose -1 eigenspace lies on no coordinate plane
    for perm in itertools.permutations(range(4)):
        for signs in itertools.product((1, -1), repeat=4):
            P = np.zeros((4, 4), dtype=int)
            P[list(perm), range(4)] = signs
            if np.isclose(np.linalg.eigvals(P), -1).sum() >= 2:
                yield P.tolist()
    H = RationalMatrix.identity(4) - RationalMatrix([[Fraction(1, 2)] * 4] * 4)
    yield H @ RationalMatrix([[-1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 1, 0],
                              [0, 0, 0, 1]]) @ H


def test_identity_metric_takes_orthogonal_logarithms_by_eigendecomposition(
        monkeypatch):
    # an orthogonal monodromy is normal, so its eigenbasis stays well
    # conditioned even for a repeated eigenvalue -1, and its complex
    # logarithm never reaches the real-only fallback _logm
    calls = []
    spy(monkeypatch, sconn, "_logm", calls, None)
    cases = list(orthogonal_with_repeated_minus_one())
    assert len(cases) == 104
    for phi in cases:
        bundle = sconn.GradedBundle([4], [[phi]])
        X = sconn.MetricField.identity(bundle, circle(8)).logs[0][0]
        want = bundle.monodromy(0, 0)
        assert np.abs(scipy.linalg.expm(X) - want).max() <= 1e-12
    assert not calls


def _relative_error(got, want):
    return np.abs(got - want).max(initial=0.0) / max(
        np.abs(want).max(initial=0.0), np.finfo(float).tiny)


ROTATION = np.array([[0.6, -0.8], [0.8, 0.6]])
FLIP_LOG = sconn._principal_log(np.array([[0.0, 1.0], [1.0, 0.0]]))


# each log scaled to 1-norms 1e-8 ... 20; scipy's Pade approximant loses
# 3e-13 on SOL's symmetric log at 1-norm 5 and 1e-12 at 20 against a
# 50-digit reference, where _expm stays within 1e-15, so SOL's stops at 3
EXPM_NORMS = {"sol-log": (scipy.linalg.logm(SOL), (1e-8, 1e-4, 0.1, 1, 3)),
              "rotation-log": (np.array([[0.0, -1.0], [1.0, 0.0]]),
                               (1e-8, 1e-4, 0.1, 1, 3, 20)),
              "flip-log": (FLIP_LOG, (1e-8, 1, 20))}


@pytest.mark.parametrize("A", [
    *(norm / np.abs(X).sum(axis=0).max() * X
      for X, norms in EXPM_NORMS.values() for norm in norms),
    FLIP_LOG, -FLIP_LOG / 32,
    np.linspace(-2.0, 2.0, 5)[:, None, None] * scipy.linalg.logm(SOL),
    np.linspace(0.0, 1.0, 4)[:, None, None] * FLIP_LOG,
    np.zeros((0, 0)), np.zeros((3, 0, 0)), np.zeros((3, 2, 2)),
], ids=[*(f"{kind}-norm-{n:g}" for kind, (_, norms) in EXPM_NORMS.items()
          for n in norms),
        "flip-log", "flip-log-scaled", "sol-stack", "flip-stack", "empty",
        "empty-stack", "zero-stack"])
def test_expm_matches_scipy(A):
    # scaling and squaring a Taylor sum, real or complex, on one matrix or
    # a stack, against scipy's Pade approximant
    got = sconn._expm(A)
    assert got.shape == A.shape and got.dtype == np.result_type(A, float)
    assert _relative_error(got, scipy.linalg.expm(A)) <= 1e-13


def rational_defective(seed, count=12):
    # Q J Q^-1 over Q: J upper bidiagonal, a Jordan block of each run of
    # equal positive rational eigenvalues, Q an integer matrix of
    # determinant +-1 from unit triangular factors
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n = int(rng.integers(2, 6))
        lam = [Fraction(int(p), int(q)) for p, q in
               zip(rng.integers(1, 5, n), rng.integers(1, 4, n))]
        J = [[0] * n for _ in range(n)]
        for i in range(n):
            if i and rng.random() < 0.6:
                lam[i] = lam[i - 1]
                J[i - 1][i] = 1
            J[i][i] = lam[i]
        L = np.tril(rng.integers(-2, 3, (n, n)), -1) + np.eye(n, dtype=int)
        U = np.triu(rng.integers(-2, 3, (n, n)), 1) + np.eye(n, dtype=int)
        Q = RationalMatrix((L @ U).tolist())
        phi = Q @ RationalMatrix(J) @ spectral.inverse_exact(Q)
        out.append(phi.to_numpy())
    return out


@pytest.mark.parametrize("phi", [
    near_jordan(260), UNIPOTENT, *h3_unipotent_compounds(),
    np.array([[2.0, 1.0], [0.0, 2.0]]), np.kron(ROTATION, UNIPOTENT),
    *rational_defective(0),
], ids=["above-bound", "jordan", *(f"h3-degree{b}" for b in range(4)),
        "jordan-two", "rotation-jordan",
        *(f"rational-{i}" for i in range(12))])
def test_logm_fallback_matches_scipy(phi):
    # inverse scaling and squaring: Denman-Beavers square roots to within
    # 1/4 of the identity, then the series of log(I + E)
    X = sconn._logm(phi)
    assert np.isrealobj(X)
    assert _relative_error(X, scipy.linalg.logm(phi)) <= 1e-11


def test_logm_refuses_square_roots_that_never_converge(monkeypatch):
    # an iteration that never nears the identity stops at its step bound
    monkeypatch.setattr(sconn, "_sqrtm", lambda A: A)
    with pytest.raises(InputError, match="no real logarithm"):
        sconn._logm(SOL)


def test_equivariant_metric_over_a_zero_rank_degree():
    # the empty block is its own logarithm: degree 1 has no forms, and
    # degree 0 solves as the bundle without it
    sol = [[2, 1], [1, 1]]
    sc, h = sconn.load_bundle({"base": {"kind": "circle", "resolution": 16},
                               "ranks": [2, 0], "monodromy": [[sol, []]],
                               "metric": "equivariant"})
    assert h.logs[0][1].shape == (0, 0)
    alone = sconn.load_bundle({"base": {"kind": "circle", "resolution": 16},
                               "ranks": [2], "monodromy": [[sol]],
                               "metric": "equivariant"})
    assert np.array_equal(sconn.spectrum(sc, h, 0).eigenvalues,
                          sconn.spectrum(*alone, 0).eigenvalues)


@pytest.mark.parametrize("fiber, kind, T", [
    ("heisenberg:3", "point", None), ("heisenberg:3", "circle", None),
    ("abelian:1", "torus2", [1])], ids=["point", "circle", "torus2"])
def test_equivariant_and_identity_metrics_agree_on_identity_holonomy(
        fiber, kind, T):
    # with identity holonomies every logarithm is zero and exp of a zero
    # stack is exactly I, so the sweeps' equivariant metric is the identity
    # metric bit for bit: the same logarithms, samples and spectra
    base, alg = sconn.BaseModel(kind, 8), lie.load_algebra(fiber)
    sc = sconn.from_affine_bundle(
        spectral.AffineModel(alg, [np.eye(alg.n)] * base.dim, T=T), base)
    eq = sconn.MetricField.equivariant(sc.bundle, base)
    ident = sconn.MetricField.identity(sc.bundle, base)
    assert len(eq.logs) == len(ident.logs) == base.dim
    for X, Y in zip(itertools.chain(*eq.logs), itertools.chain(*ident.logs)):
        assert X.dtype == Y.dtype and np.array_equal(X, Y)
    pts = np.random.default_rng(1).uniform(size=(5, base.dim))
    for b, r in enumerate(sc.bundle.ranks):
        assert np.array_equal(eq.sample(b, pts), np.broadcast_to(
            np.eye(r), (5, r, r)))
        assert np.array_equal(ident.sample(b, pts), eq.sample(b, pts))
    rng = np.random.default_rng(2)
    weights = [rng.normal(size=r) for r in sc.bundle.ranks]
    dcs = [sconn.DiscreteComplex(sc, h) for h in (eq, ident)]
    for p in range(base.dim + len(sc.bundle.ranks)):
        for lam in (None, weights):
            x, y = (dc.bloch_eigenvalues(p, lam, dc.dim(p)) for dc in dcs)
            assert np.array_equal(x, y)


# ---------------------------------------------------------------------------
# discrete complex
# ---------------------------------------------------------------------------

def test_discrete_differential_squares_to_zero():
    sc = circle_bundle(torus(8), 1.0)
    h = sconn.MetricField.identity(sc.bundle, sc.base)
    dc = oracles.AssembledComplex(sc, h)
    for p in range(3):
        prod = dc.differential(p + 1) @ dc.differential(p)
        assert prod.nnz == 0 or abs(prod).max() < 1e-13


def test_discrete_differential_squares_to_zero_twisted():
    sc = sconn.from_affine_bundle(spectral.AffineModel(lie.abelian(2), [SOL]),
                                  circle(8))
    h = sconn.MetricField.equivariant(sc.bundle, sc.base)
    dc = oracles.AssembledComplex(sc, h)
    for p in range(2):
        prod = dc.differential(p + 1) @ dc.differential(p)
        assert abs(prod).max() < 1e-12


def test_component_bookkeeping():
    sc = circle_bundle(torus(8), 1.0)
    h = sconn.MetricField.identity(sc.bundle, sc.base)
    dc = sconn.DiscreteComplex(sc, h)
    # degree p mixes base-form degree a and fiber degree b with a + b = p
    assert dc.components(0) == [((), 0)]
    assert len(dc.components(1)) == 3
    assert dc.dim(1) == 3 * 64


def test_flat_circle_function_spectrum():
    # untwisted rank-1 bundle: eigenvalues (2 pi k)^2 with O(N^-2) error
    bundle = sconn.GradedBundle([1])
    sc = sconn.Superconnection(bundle, circle(64))
    h = sconn.MetricField.identity(bundle, sc.base)
    rep = sconn.spectrum(sc, h, 0, count=5)
    exact = np.array([0.0] + [(2 * np.pi) ** 2] * 2 + [(4 * np.pi) ** 2] * 2)
    assert np.allclose(rep.eigenvalues, exact, rtol=5e-3)
    assert rep.eigenvalues[0] < 1e-12


def test_twisted_circle_closed_form():
    # one-step holonomy 2 on a line bundle: lowest eigenvalue (ln 2)^2
    bundle = sconn.GradedBundle([1], [[np.array([[2.0]])]])
    sc = sconn.Superconnection(bundle, circle(128))
    h = sconn.MetricField.equivariant(bundle, circle(128))
    rep = sconn.spectrum(sc, h, 0, count=3)
    ln2 = np.log(2.0)
    exact = np.array([ln2 ** 2,
                      (2 * np.pi) ** 2 + ln2 ** 2,
                      (2 * np.pi) ** 2 + ln2 ** 2])
    assert np.allclose(rep.eigenvalues, exact, rtol=1e-2)


def test_hodge_kernel_dimensions_circle_bundle():
    # harmonic dimensions of the adiabatic model at delta = 1: (1, 2, 2, 1)
    sc = circle_bundle(torus(10), 1.0)
    h = sconn.MetricField.identity(sc.bundle, sc.base)
    for p, expect in enumerate([1, 2, 2, 1]):
        rep = sconn.spectrum(sc, h, p, count=6)
        assert int(np.sum(rep.eigenvalues < 1e-10)) == expect


def test_spectrum_empty_degree():
    bundle = sconn.GradedBundle([1])
    sc = sconn.Superconnection(bundle, circle(8))
    h = sconn.MetricField.identity(bundle, sc.base)
    rep = sconn.spectrum(sc, h, 5)
    assert rep.eigenvalues.size == 0


# ---------------------------------------------------------------------------
# Bloch solve against the assembled oracle
# ---------------------------------------------------------------------------

HYPERBOLIC_2 = [[2, 0, 0], [0, "1/2", 0], [0, 0, 1]]
HYPERBOLIC_4 = [[4, 0, 0], [0, "1/4", 0], [0, 0, 1]]


def heisenberg_torus_with_curvature(base):
    sc = sconn.from_affine_bundle(spectral.AffineModel(
        lie.heisenberg(3), [HYPERBOLIC_2, HYPERBOLIC_4], T=[0, 0, 1]), base)
    return sc, sconn.MetricField.equivariant(sc.bundle, base)


def twisted_circle(base, phi):
    sc = sconn.from_affine_bundle(spectral.AffineModel(lie.abelian(2), [phi]),
                                  base)
    return sc, sconn.MetricField.equivariant(sc.bundle, base)


def bare(h):
    """The same metric as a bare callable, which records no logarithms:
    only the assembled oracle solves it."""
    return sconn.MetricField(h.bundle, h.base, h.sample)


def assert_bloch_matches_assembled(sc, h, p, count=8, weights=None):
    """The Bloch spectrum of (sc, h), with `weights` if given, against the
    assembled spectrum of the same metric as a bare callable."""
    bloch = sconn.spectrum(sc, h, p, count=count, weights=weights).eigenvalues
    metric = bare(h) if weights is None else oracles.weighted_metric(h,
                                                                     weights)
    dc = oracles.AssembledComplex(sc, metric)
    oracle = oracles.assembled_spectrum(sc, metric, p, count, dc=dc).eigenvalues
    scale = max(1.0, float(abs(dc.laplacian(p)).max()))
    assert bloch.shape == oracle.shape
    assert np.abs(bloch - oracle).max(initial=0.0) <= 1e-10 * scale
    assert (np.sum(bloch <= report.ZERO_TOL)
            == np.sum(oracle <= report.ZERO_TOL))


def test_spectra_solve_every_degree_on_one_complex():
    # each degree's report on one shared complex is the one `spectrum`
    # gives alone; a complex of another metric is refused
    sc, h = twisted_circle(circle(9), UNIPOTENT)
    alone = [sconn.spectrum(sc, h, p, count=5).to_dict() for p in range(4)]
    dc = sconn.DiscreteComplex(sc, h)
    assert [sconn.spectrum(sc, h, p, 5, dc=dc).to_dict()
            for p in range(4)] == alone
    dc = sconn.DiscreteComplex(
        sc, sconn.MetricField.equivariant(sc.bundle, sc.base))
    with pytest.raises(InputError, match="another superconnection or metric"):
        sconn.spectrum(sc, h, 0, dc=dc)


def preset_bundles(name, torus_resolution=12):
    """(sc, h, weights) at every sweep point of a numerical preset, built by
    the `lab.prepare` that `lab.run` solves; torus presets at a smaller
    resolution."""
    cfg = lab.load_scenario(name)
    if cfg.kind == "circle_bundle_adiabatic":
        cfg = dataclasses.replace(cfg, resolution=torus_resolution)
    step = lab.prepare(cfg)
    for lam in step.weights:
        yield step.sc, step.h, lam


@pytest.mark.parametrize("name", [n for n, cfg in lab.PRESETS.items()
                                  if cfg["kind"] != "nil_rescale"])
def test_bloch_matches_assembled_on_presets(name):
    for sc, h, lam in preset_bundles(name):
        for p in range(sc.base.dim + sc.bundle.top + 1):
            assert_bloch_matches_assembled(sc, h, p, weights=lam)


def test_bloch_matches_assembled_twisted_circles():
    base = circle(64)
    bundle = sconn.GradedBundle([2], [[SOL]])
    assert_bloch_matches_assembled(sconn.Superconnection(bundle, base),
                                   sconn.MetricField.equivariant(bundle, base), 0)
    for phi in (SOL, UNIPOTENT):
        sc, h = twisted_circle(base, phi)
        for p in range(4):
            assert_bloch_matches_assembled(sc, h, p)


def test_bloch_matches_assembled_heisenberg_over_torus():
    base = torus(8)
    sc = sconn.from_affine_bundle(spectral.AffineModel(
        lie.heisenberg(3), [np.eye(3)] * 2, T=[0, 0, 1]), base)
    h = sconn.MetricField.identity(sc.bundle, sc.base)
    for p in range(5):
        assert_bloch_matches_assembled(sc, h, p, count=12)


def test_bloch_matches_assembled_twisted_torus_with_curvature():
    # commuting hyperbolic holonomies that fix the curvature direction e3:
    # the a2 term then reads vertex values across a half-step gauge twist
    sc, h = heisenberg_torus_with_curvature(torus(8))
    for p in range(5):
        assert_bloch_matches_assembled(sc, h, p, count=12)


def test_bloch_matches_assembled_at_odd_resolution():
    # at odd N only the zero mode is its own conjugate
    for phi in (SOL, UNIPOTENT):
        sc, h = twisted_circle(circle(9), phi)
        for p in range(4):
            assert_bloch_matches_assembled(sc, h, p)
    sc, h = heisenberg_torus_with_curvature(torus(9))
    for p in range(6):
        assert_bloch_matches_assembled(sc, h, p, count=12)


def all_modes_eigenvalues(dc, p):
    """The Bloch spectrum solved on every one of the N^d modes, both of
    each conjugate pair, with each mode's symbol
    D(theta) = C_0 + sum_g (e^{i theta_g} - 1) C_g formed from the
    complex's coefficient blocks and squared as D^H D + D' D'^H."""
    N, d = dc.base.resolution, dc.base.dim
    theta = np.meshgrid(*[2 * np.pi * np.arange(N) / N] * d, indexing="ij")
    psi = np.exp(1j * np.stack(theta, axis=-1).reshape(-1, d)) - 1
    psi = np.hstack([np.ones((len(psi), 1)), psi])
    Dp, Dm = (np.einsum("ma,aij->mij", psi, dc._symbol(q)[0])
              for q in (p, p - 1))
    L = (np.conj(Dp.transpose(0, 2, 1)) @ Dp
         + Dm @ np.conj(Dm.transpose(0, 2, 1)))
    return np.sort(np.linalg.eigvalsh(L).ravel())


@pytest.mark.parametrize("N", [8, 9])
def test_conjugate_pair_solve_matches_all_modes(N):
    cases = [twisted_circle(circle(N), SOL),
             heisenberg_torus_with_curvature(torus(N))]
    for sc, h in cases:
        dc = sconn.DiscreteComplex(sc, h)
        # real logarithms: one block per conjugate pair of modes
        assert len(dc._paired) < sc.base.npoints
        for p in range(sc.base.dim + sc.bundle.top + 1):
            want = all_modes_eigenvalues(dc, p)
            got = dc.bloch_eigenvalues(p, None, dc.dim(p))
            scale = max(1.0, float(np.abs(want).max(initial=0.0)))
            assert got.shape == want.shape
            assert np.abs(got - want).max(initial=0.0) <= 1e-12 * scale


PRUNED_CASES = {
    "sol": lambda: twisted_circle(circle(12), SOL),
    "unipotent": lambda: twisted_circle(circle(12), UNIPOTENT),
    "torus": lambda: heisenberg_torus_with_curvature(torus(8)),
    # the flip's logarithm is complex: every mode solves, none paired
    "flip": lambda: sconn.load_bundle({
        "base": {"kind": "circle", "resolution": 16}, "ranks": [2],
        "monodromy": FLIP, "metric": "identity"}),
}


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_pruned_solve_matches_the_all_mode_solve_bitwise(data):
    # the lowest `count` eigenvalues of the prefix and the certified modes
    # are the lowest `count` of every mode's `eigvalsh`, bit for bit: one
    # block's eigvalsh does not depend on the batch it is solved in
    case = data.draw(st.sampled_from(sorted(PRUNED_CASES)))
    sc, h = PRUNED_CASES[case]()
    dc = sconn.DiscreteComplex(sc, h)
    weights = None
    if dc._real and data.draw(st.booleans()):
        weights = [np.array(data.draw(st.lists(
            st.floats(-2, 2), min_size=r, max_size=r)))
            for r in sc.bundle.ranks]
    p = data.draw(st.integers(0, sc.base.dim + sc.bundle.top))
    count = data.draw(st.integers(1, dc.dim(p) + 3))
    want = oracles.all_mode_eigenvalues(dc, p, weights)[:count]
    got = dc.bloch_eigenvalues(p, weights, count)
    assert got.dtype == want.dtype and np.array_equal(got, want)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_sweep_stack_matches_each_point_alone_bitwise(data):
    # a checked stack of 2-4 weights solves once, and each point's row is
    # the solve of that point alone and the all-mode solve, bit for bit,
    # in either mode order: reversed, the prefix holds the highest modes
    # and the certificate refuses the lowest. A complex logarithm takes no
    # weights, so the flip solves its one unweighted point
    case = data.draw(st.sampled_from(sorted(PRUNED_CASES)))
    sc, h = PRUNED_CASES[case]()
    dc = sconn.DiscreteComplex(sc, h)
    p = data.draw(st.integers(0, sc.base.dim + sc.bundle.top))
    count = data.draw(st.integers(1, dc.dim(p) + 3))
    stack = [None]
    if dc._real:
        stack = [[np.array(data.draw(st.lists(
            st.floats(-2, 2), min_size=r, max_size=r)))
            for r in sc.bundle.ranks] for _ in range(data.draw(
                st.integers(2, 4)))]
        dc.check_weights(p, stack)
    order = dc._order[::-1] if data.draw(st.booleans()) else dc._order
    dc._order = order
    rows = [dc.bloch_eigenvalues(p, w, count) for w in stack]
    for weights, row in zip(stack, rows):
        alone = sconn.DiscreteComplex(sc, h)
        alone._order = order
        assert np.array_equal(row, alone.bloch_eigenvalues(p, weights, count))
        want = oracles.all_mode_eigenvalues(alone, p, weights)[:count]
        assert row.dtype == want.dtype and np.array_equal(row, want)


ZERO_WEIGHTS = [np.zeros(1), np.zeros(2), np.zeros(1)]
REFUSING_STACKS = {
    # these weights put a low eigenvalue of the middle point past the
    # prefix, while the unweighted points hold theirs in it
    "unipotent": [ZERO_WEIGHTS, [np.array([-0.267]),
                                 np.array([-1.469, 1.967]),
                                 np.array([0.199])], ZERO_WEIGHTS],
    # the first point's count-th eigenvalue, 40.7, lies below the
    # second's, 81.2: certified at the first point's mu, the second would
    # pass a mode that holds one of its lowest eigenvalues
    "sol": [[np.array([-1.03]), np.array([-0.02, 0.09]), np.array([-0.08])],
            [np.array([0.16]), np.array([-1.15, 1.11]), np.array([-0.89])]],
}


@pytest.mark.parametrize("case, count", [("unipotent", 10), ("sol", 8)])
def test_certificate_refuses_modes_at_one_point_of_a_stack(
        monkeypatch, case, count):
    # after one Gram product and one prefix solve for the stack, each
    # point's certificate runs with its own mu, only the weighted point's
    # refuses a mode, which is solved too, and every row is the point's
    # own solve
    sc, h = PRUNED_CASES[case]()
    stack = [[w.copy() for w in weights] for weights in REFUSING_STACKS[case]]
    dc = sconn.DiscreteComplex(sc, h)
    dc.check_weights(1, stack)
    refused, blocks, solves = [], [], []
    real = sconn.DiscreteComplex._refused
    monkeypatch.setattr(sconn.DiscreteComplex, "_refused", staticmethod(
        lambda A: refused.append(real(A)) or refused[-1]))
    spy(monkeypatch, sconn.DiscreteComplex, "_laplacian_blocks", blocks, 1)
    spy(monkeypatch, np.linalg, "eigvalsh", solves, 1)
    rows = [dc.bloch_eigenvalues(1, w, count) for w in stack]
    assert blocks == [1] and [len(r) > 0 for r in refused] == [
        i == 1 for i in range(len(stack))]
    # the prefix of every point, then the refusing point's modes
    assert solves == [1, 1]
    monkeypatch.undo()
    for weights, row in zip(stack, rows):
        alone = sconn.DiscreteComplex(sc, h)
        assert np.array_equal(row, alone.bloch_eigenvalues(1, weights, count))
        assert np.array_equal(
            row, oracles.all_mode_eigenvalues(alone, 1, weights)[:count])


@pytest.mark.parametrize("name", ["example3_circle_bundle",
                                  "example7_heisenberg_circle",
                                  "cor7_heisenberg_T2"])
def test_certificate_solves_the_lowest_modes_when_they_come_last(
        monkeypatch, name):
    # with the mode order reversed the prefix holds the highest modes, so
    # mu is large and the Cholesky certificate refuses every mode that
    # holds a reported eigenvalue: the fallback solves each of them, and
    # the spectrum is the all-mode one bit for bit
    count, p = lab.load_scenario(name).count, 1
    for sc, h, lam in preset_bundles(name):
        dc = sconn.DiscreteComplex(sc, h)
        L = dc._laplacian_blocks(p, dc.check_weights(p, [lam]))[0]
        want = oracles.all_mode_eigenvalues(dc, p, lam)[:count]
        holders = np.flatnonzero(np.linalg.eigvalsh(L)[:, 0] <= want[-1])
        solves, eigvalsh = [], np.linalg.eigvalsh
        with monkeypatch.context() as m:
            m.setattr(dc, "_order", dc._order[::-1])
            m.setattr(np.linalg, "eigvalsh",
                      lambda A: solves.append(A) or eigvalsh(A))
            got = dc.bloch_eigenvalues(p, lam, count)
        assert np.array_equal(got, want)
        prefix, fallback = solves
        for mode in holders:
            assert not any(np.array_equal(L[mode], B)
                           for B in prefix.reshape(-1, *L.shape[1:]))
            assert any(np.array_equal(L[mode], B) for B in fallback)


def test_modes_that_tie_at_the_reported_eigenvalue_solve_in_the_prefix(
        monkeypatch):
    # on the flat square torus the modes (1, 0) and (0, 1) share one base
    # symbol, and each holds 4 N^2 sin^2(pi / N) twice, with its conjugate:
    # at count 2 or 3 the prefix ends at the first of them and takes the
    # other as a tie, so the certificate refuses nothing
    base = torus(8)
    bundle = sconn.GradedBundle([1], generators=2)
    dc = sconn.DiscreteComplex(sconn.Superconnection(bundle, base),
                               sconn.MetricField.identity(bundle, base))
    refused, real = [], sconn.DiscreteComplex._refused
    monkeypatch.setattr(sconn.DiscreteComplex, "_refused", staticmethod(
        lambda A: refused.append(real(A)) or refused[-1]))
    lam1 = 4 * 8 ** 2 * np.sin(np.pi / 8) ** 2
    for count in (2, 3, 4, 5):
        got = dc.bloch_eigenvalues(0, None, count)
        assert np.array_equal(got, oracles.all_mode_eigenvalues(dc, 0)[:count])
        assert got[0] < 1e-12 and np.allclose(got[1:], lam1, rtol=1e-12)
    assert len(refused) == 4 and not any(map(len, refused))


CONFORMAL_CASES = {
    "sol": lambda: twisted_circle(circle(12), SOL),
    "unipotent": lambda: twisted_circle(circle(12), UNIPOTENT),
    "torus": lambda: heisenberg_torus_with_curvature(torus(8)),
}


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_bloch_matches_assembled_conformal_metrics(data):
    # constant diagonal fiber metrics e^{2 lambda_b} enter the Bloch path as
    # weights that scale the symbol entrywise, and the assembled mass as
    # G(x)^T e^{2 lambda} G(x): two routes to one spectrum. The oracle metric
    # is checked for equivariance when it is built, for every weight
    case = data.draw(st.sampled_from(sorted(CONFORMAL_CASES)))
    sc, h = CONFORMAL_CASES[case]()
    weights = [np.array(data.draw(st.lists(
        st.floats(-2, 2), min_size=r, max_size=r))) for r in sc.bundle.ranks]
    p = data.draw(st.integers(0, sc.base.dim + sc.bundle.top))
    assert_bloch_matches_assembled(sc, h, p, count=12, weights=weights)


def test_bloch_path_only_for_recorded_gauges(monkeypatch):
    solved = []
    spy(monkeypatch, sconn.DiscreteComplex, "bloch_eigenvalues", solved, 0)
    base = circle(32)
    bundle = sconn.GradedBundle([2], [[SOL]])
    sc = sconn.Superconnection(bundle, base)
    h = sconn.MetricField.equivariant(bundle, base)
    want = sconn.spectrum(sc, h, 0, count=4).eigenvalues
    assert solved == [0]
    # the same metric as a bare callable records no logarithms: refused,
    # and only the assembled oracle solves it
    with pytest.raises(InputError, match="MetricField.identity or "
                                         "MetricField.equivariant"):
        sconn.spectrum(sc, bare(h), 0, count=4)
    got = oracles.assembled_spectrum(sc, bare(h), 0, count=4).eigenvalues
    assert np.allclose(got, want, rtol=1e-9)
    # an identity metric over an orthogonal monodromy records the flip's
    # complex logarithm and solves on the Bloch path too
    flip = sconn.GradedBundle([2], FLIP)
    flat = sconn.MetricField.identity(flip, base)
    assert flat.logs is not None and np.iscomplexobj(flat.logs[0][0])
    sconn.spectrum(sconn.Superconnection(flip, base), flat, 0, count=4)
    assert solved == [0, 0]
    # a metric of another base with the same circumference, or of an
    # untwisted bundle with the same ranks, is refused, not solved
    others = [
        (sconn.MetricField.equivariant(bundle, circle(16)), "built over"),
        (sconn.MetricField.identity(sconn.GradedBundle([2]), base),
         "different bundle"),
    ]
    for other, message in others:
        with pytest.raises(InputError, match=message):
            sconn.spectrum(sc, other, 0, count=4)
    assert solved == [0, 0]


def test_a_bare_callable_carries_no_logarithms():
    # only identity and equivariant record logarithms: the constructor takes
    # none from its caller, and a complex refuses a metric without them, so
    # no logarithm chosen by hand can gauge the flip bundle
    assert "logs" not in inspect.signature(sconn.MetricField).parameters
    base = circle(16)
    flip = sconn.GradedBundle([2], FLIP)
    sc = sconn.Superconnection(flip, base)
    h = sconn.MetricField(flip, base, lambda b, pts: np.broadcast_to(
        np.eye(2), (len(pts), 2, 2)))
    assert h.logs is None
    with pytest.raises(InputError, match="records the holonomy logarithms"):
        sconn.DiscreteComplex(sc, h)
    # the periodic and the antiperiodic modes of the forward difference,
    # assembled by the oracle and solved on the Bloch path of the identity
    # metric, which records the flip's principal logarithm
    anti = (32 * np.sin(np.pi / 32)) ** 2
    periodic = (32 * np.sin(np.pi / 16)) ** 2
    for lam in (oracles.assembled_spectrum(sc, h, 0, count=4).eigenvalues,
                sconn.spectrum(sc, sconn.MetricField.identity(flip, base), 0,
                               count=4).eigenvalues):
        assert lam[0] <= report.ZERO_TOL
        assert np.allclose(lam[1:], [anti, anti, periodic], rtol=1e-9, atol=0)
        assert np.round(lam, 2).tolist() == [0.0, 9.84, 9.84, 38.97]


def test_complex_refuses_a_metric_of_another_bundle_or_base():
    # the identity metric of an untwisted bundle is equivariant there, but
    # not under the superconnection's SOL monodromy
    base = circle(16)
    sc = sconn.Superconnection(sconn.GradedBundle([2], [[SOL]]), base)
    foreign = sconn.MetricField.identity(sconn.GradedBundle([2]), base)
    with pytest.raises(InputError, match="different bundle"):
        sconn.spectrum(sc, foreign, 0, count=3)
    # the same circumference at another resolution is another base
    h = sconn.MetricField.equivariant(sc.bundle, base)
    finer = sconn.Superconnection(sc.bundle, circle(32))
    with pytest.raises(InputError) as err:
        sconn.DiscreteComplex(finer, h)
    assert str(base) in str(err.value) and str(circle(32)) in str(err.value)
    # an equal bundle built twice is the same bundle
    twin = sconn.GradedBundle([2], [[SOL]])
    sconn.DiscreteComplex(sc, sconn.MetricField.equivariant(twin, base))


def test_arpack_path_is_repeatable_and_matches_bloch():
    # 3 * 28^2 = 2352 unknowns in degree 1: above the dense cutoff
    sc = circle_bundle(torus(28), 0.3)
    h = sconn.MetricField.identity(sc.bundle, sc.base)
    first = oracles.assembled_spectrum(sc, bare(h), 1, count=6).eigenvalues
    again = oracles.assembled_spectrum(sc, bare(h), 1, count=6).eigenvalues
    assert np.array_equal(first, again)
    bloch = sconn.spectrum(sc, h, 1, count=6).eigenvalues
    scale = float(abs(oracles.AssembledComplex(sc, h).laplacian(1)).max())
    assert np.abs(bloch - first).max() <= 1e-10 * scale


# ---------------------------------------------------------------------------
# stability checks
# ---------------------------------------------------------------------------

def test_perturbation_bound_on_coupling_pair():
    base = torus(10)
    sc1 = circle_bundle(base, 0.7)
    sc2 = circle_bundle(base, 0.9)
    h = sconn.MetricField.identity(sc1.bundle, sc1.base)
    rep = oracles.perturbation_check(sc1, sc2, h, 1)
    assert rep.holds
    assert rep.operator_norm == pytest.approx(0.2, rel=1e-6)
    assert rep.max_difference <= rep.bound
    assert rep.bound == pytest.approx(oracles.PERTURBATION_CONSTANT * 0.2)


def test_perturbation_check_solves_on_the_complexes_it_built(monkeypatch):
    # one DiscreteComplex per superconnection serves the spectrum, and the
    # oracle's assembled complexes the operator norm; the report is the one
    # of two fresh solves
    base = torus(8)
    sc1, sc2 = circle_bundle(base, 0.7), circle_bundle(base, 0.9)
    h = sconn.MetricField.identity(sc1.bundle, sc1.base)
    built = []
    init = sconn.DiscreteComplex.__init__
    monkeypatch.setattr(sconn.DiscreteComplex, "__init__",
                        lambda *a, **k: built.append(1) or init(*a, **k))
    rep = oracles.perturbation_check(sc1, sc2, h, 1, count=6)
    assert len(built) == 2
    lam1 = sconn.spectrum(sc1, h, 1, count=6).eigenvalues
    lam2 = sconn.spectrum(sc2, h, 1, count=6).eigenvalues
    assert rep.max_difference == float(
        np.abs(np.sqrt(lam1) - np.sqrt(lam2)).max())


def test_perturbation_check_requires_one_base():
    # another resolution used to end in scipy's "inconsistent shapes",
    # other circumferences in a report on two different tori
    sc1 = circle_bundle(torus(10), 0.7)
    h = sconn.MetricField.identity(sc1.bundle, sc1.base)
    for base in (torus(12), sconn.BaseModel("torus2", 10, (1.0, 2.0))):
        with pytest.raises(InputError, match=re.escape(str(base))):
            oracles.perturbation_check(sc1, circle_bundle(base, 0.9), h, 1)


def test_perturbation_check_requires_same_connection_part():
    base = circle(16)
    b1 = sconn.GradedBundle([2], [[SOL]])
    b2 = sconn.GradedBundle([2], [[np.eye(2)]])
    sc1 = sconn.Superconnection(b1, base)
    sc2 = sconn.Superconnection(b2, base)
    h = sconn.MetricField.equivariant(b1, base)
    with pytest.raises(InputError):
        oracles.perturbation_check(sc1, sc2, h, 0)


def test_metric_continuity_conformal():
    # a global conformal factor cancels out of the symmetrized operator
    sc = circle_bundle(torus(8), 0.5)
    h1 = sconn.MetricField.identity(sc.bundle, sc.base)
    h2 = sconn.MetricField(sc.bundle, sc.base, lambda b, pts: np.broadcast_to(
        np.e * np.eye(sc.bundle.rank(b)),
        (len(pts), sc.bundle.rank(b), sc.bundle.rank(b))))
    rep = oracles.metric_continuity_check(sc, h1, h2, 1, eps=1.0)
    assert rep.eps_out < 1e-8


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_load_bundle_fiber_form(tmp_path):
    payload = {
        "base": {"kind": "circle", "resolution": 16},
        "fiber": "heisenberg:3",
        "metric": "identity",
    }
    import json
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(payload))
    sc, h = sconn.load_bundle(str(path))
    assert sc.bundle.ranks == (1, 3, 3, 1)
    for b in range(3):
        assert np.array_equal(sc.a0_block(b), lie.ce_differential(
            lie.heisenberg(3), b).to_numpy())
    # scaling the center only is no automorphism: the exact check says so
    path.write_text(json.dumps(dict(payload, monodromy_action=[
        [[1, 0, 0], [0, 1, 0], [0, 0, 2]]])))
    with pytest.raises(sconn.FlatnessError, match="'parallel_a0' fails in "
                       "degree 1 of generator 0"):
        sconn.load_bundle(str(path))


def test_load_bundle_explicit_form():
    payload = {
        "base": {"kind": "circle", "resolution": 16},
        "ranks": [2],
        "monodromy": [[[["2", "1"], ["1", "1"]]]],
        "metric": "equivariant",
    }
    sc, h = sconn.load_bundle(payload)
    assert np.allclose(sc.bundle.monodromy(0, 0), SOL)
    rep = sconn.spectrum(sc, h, 0, count=2)
    assert rep.eigenvalues[0] == pytest.approx(np.log(MU) ** 2, rel=1e-3)


def test_orthogonal_flip_with_identity_metric_solves_on_the_bloch_path(
        monkeypatch):
    # the identity metric is equivariant under the flip, whose principal
    # logarithm is complex: spectrum solves every Fourier mode in its
    # unitary gauge; the flip's +1 and -1 eigenvectors carry periodic and
    # antiperiodic modes, each with the discrete eigenvalues
    # 4 N^2 sin^2(theta / 2) in degrees 0 and 1
    N = 16
    sc, h = sconn.load_bundle({
        "base": {"kind": "circle", "resolution": N}, "ranks": [2],
        "monodromy": FLIP, "metric": "identity"})
    solved = []
    spy(monkeypatch, sconn.DiscreteComplex, "bloch_eigenvalues", solved, 0)
    k = np.arange(N)
    theta = np.concatenate([2 * np.pi * k / N, np.pi * (2 * k + 1) / N])
    want = np.sort(4 * N ** 2 * np.sin(theta / 2) ** 2)[:8]
    for p in (0, 1):
        got = sconn.spectrum(sc, h, p, count=8).eigenvalues
        assert np.allclose(got, want, rtol=1e-10, atol=1e-10)
    assert len(solved) == 2


ORTHOGONAL_BUNDLES = {
    # e1 <-> e2 and e3 -> -e3, an automorphism of heisenberg:3 with the
    # eigenvalue -1, so its logarithms on 1- and 2-forms are complex
    "heisenberg3-swap": ({"base": {"kind": "circle", "resolution": 16},
                          "fiber": "heisenberg:3", "monodromy_action": [
                              [[0, 1, 0], [1, 0, 0], [0, 0, -1]]]}, 5),
    "torus2-flip": ({"base": {"kind": "torus2", "resolution": 8},
                     "ranks": [2], "monodromy": FLIP * 2}, 3),
}


@pytest.mark.parametrize("name", sorted(ORTHOGONAL_BUNDLES))
def test_identity_metric_over_orthogonal_holonomy_matches_assembled(name):
    payload, degrees = ORTHOGONAL_BUNDLES[name]
    sc, h = sconn.load_bundle(dict(payload, metric="identity"))
    assert not sconn.DiscreteComplex(sc, h)._real
    for p in range(degrees):
        assert_bloch_matches_assembled(sc, h, p, count=12)


def test_complex_logarithms_solve_every_mode():
    # a complex logarithm breaks the conjugate symmetry of the Bloch
    # blocks, so every mode solves; the quarter turn's logarithm is real
    # up to rounding in its imaginary part, and keeps the pairs
    cases = {"flip": (FLIP, False), "quarter-turn": ([[[[0, -1], [1, 0]]]],
                                                    True)}
    for name, (mono, real) in cases.items():
        sc, h = sconn.load_bundle({"base": {"kind": "circle",
                                            "resolution": 16},
                                   "ranks": [2], "monodromy": mono})
        dc = sconn.DiscreteComplex(sc, h)
        assert dc._real == real and np.isrealobj(h.logs[0][0]) == real, name
        assert (len(dc._paired) < sc.base.npoints) == real, name
        assert dc._paired.any() == real, name
        for p in range(2):
            want = all_modes_eigenvalues(dc, p)
            got = dc.bloch_eigenvalues(p, None, dc.dim(p))
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    # weights scale a real gauge only
    with pytest.raises(InputError, match="holonomy logarithms are real"):
        sconn.spectrum(*sconn.load_bundle(
            {"base": {"kind": "circle", "resolution": 16}, "ranks": [2],
             "monodromy": FLIP}), 0, weights=[[0.0, 0.5]])


def test_load_bundle_errors():
    with pytest.raises(InputError):
        sconn.load_bundle({"fiber": "heisenberg:3"})
    with pytest.raises(InputError):
        sconn.load_bundle({"base": {"kind": "circle", "resolution": 16},
                           "fiber": "heisenberg:3", "metric": "hyperbolic"})
    with pytest.raises(InputError):
        sconn.load_bundle({"base": {"kind": "circle", "resolution": 16}})


def test_load_bundle_without_a0_keeps_a2():
    # abelian:1 has a zero fiber differential, so the explicit bundle with
    # no a0 blocks and its a2 must give the same superconnection as the
    # fiber shape; dropping a2 turned the third degree-1 eigenvalue from 1
    # into a third zero
    base = {"kind": "torus2", "resolution": 8}
    sc, h = sconn.load_bundle({"base": base, "ranks": [1, 1],
                               "a2_blocks": [[[1]]]})
    assert np.array_equal(sc.a2_block(1), [[1.0]])
    lam = sconn.spectrum(sc, h, 1, count=4).eigenvalues
    ref = sconn.spectrum(*sconn.load_bundle({
        "base": base, "fiber": "abelian:1", "a2": {"interior": [1]}}),
        1, count=4).eigenvalues
    assert np.array_equal(lam, ref)
    assert lam[:3] == pytest.approx([0, 0, 1], abs=1e-9)
    assert lam[3] == pytest.approx(31.85, abs=0.01)


def test_load_bundle_builds_holonomy_actions_exactly(monkeypatch):
    # the README's circle bundle: the compounds see exact entries only
    seen = []
    compound = lie.compound_matrix

    def spy(rows, p):
        seen.extend(x for row in rows for x in row)
        return compound(rows, p)

    monkeypatch.setattr(lie, "compound_matrix", spy)
    sc, _ = sconn.load_bundle({
        "base": {"kind": "circle", "resolution": 64},
        "fiber": "abelian:2",
        "monodromy_action": [[["1", "1"], ["0", "1"]]],
        "metric": "equivariant",
    })
    assert seen and all(map(canonical, seen))
    assert np.array_equal(sc.bundle.monodromy(0, 1), [[1.0, 0.0], [-1.0, 1.0]])


def test_load_bundle_rejects_inexact_and_malformed_entries():
    base = {"kind": "torus2", "resolution": 8}
    bad = [
        {"base": base, "fiber": "abelian:1", "a2": {"interior": [0.1]}},
        {"base": base, "fiber": "abelian:1", "a2": {"interior": 1}},
        {"base": {"kind": "circle", "resolution": 8}, "fiber": "abelian:2",
         "monodromy_action": [[[1, 0.5], [0, 1]]]},
        {"base": {"kind": "circle", "resolution": 8}, "ranks": [1],
         "monodromy": [[[[0.5]]]]},
        {"base": {"kind": "circle", "resolution": "high"}, "ranks": [1]},
        {"base": {"kind": "circle", "resolution": 8,
                  "circumferences": ["wide"]}, "ranks": [1]},
        {"base": {"kind": "circle", "resolution": 8}, "ranks": [1, 1],
         "monodromy": [[[2], [1]]]},
        {"base": {"kind": "circle", "resolution": 8}, "fiber": "abelian:2",
         "monodromy_action": [[1, 2]]},
    ]
    for payload in bad:
        with pytest.raises(InputError):
            sconn.load_bundle(payload)
    sc, _ = sconn.load_bundle(
        {"base": base, "fiber": "abelian:1", "a2": {"interior": ["1/10"]}})
    assert np.array_equal(sc.a2_block(1), [[0.1]])


def test_from_affine_bundle_converts_the_exact_model_blocks():
    # heisenberg:3 over the torus, hyperbolic holonomies fixing e3, T = e3:
    # every float block is the exact builder's block, converted once
    model = spectral.AffineModel(lie.heisenberg(3),
                                 [HYPERBOLIC_2, HYPERBOLIC_4], T=[0, 0, 1])
    sc = sconn.from_affine_bundle(model, torus(8))
    for b in range(3):
        assert np.array_equal(sc.a0_block(b), model.a0[b].to_numpy())
        assert np.array_equal(sc.a2_block(b + 1), model.a2[b].to_numpy())
    for gen in range(2):
        for b in range(4):
            assert np.array_equal(sc.bundle.monodromy(gen, b),
                                  model.monodromies[gen][b].to_numpy())
    # on 1-forms the action is the inverse transpose
    assert model.monodromies[0][1] == spectral.inverse_exact(
        RationalMatrix(HYPERBOLIC_2)).transpose()


def test_from_affine_bundle_takes_exact_data_only():
    # the exact model that from_affine_bundle reads refuses float data
    with pytest.raises(InputError, match="non-integral float"):
        spectral.AffineModel(lie.heisenberg(3), [
            np.diag([2.0, 0.5, 1.0]), np.diag([4.0, 0.25, 1.0])])
    with pytest.raises(InputError, match="non-integral float 0.1"):
        spectral.AffineModel(lie.abelian(1), [np.eye(1)] * 2, T=[0.1])
    with pytest.raises(InputError, match="3x3"):
        spectral.AffineModel(lie.heisenberg(3), [np.eye(2)])


# ---------------------------------------------------------------------------
# the F-invariant sector: spectrum against the pages of the same model
# ---------------------------------------------------------------------------

Z2_HEIS3 = lie.FiniteSymmetryGroup([np.eye(3), np.diag([-1, -1, 1])])
SECTOR_MODELS = {
    # hyperbolic holonomy commuting with F, equivariant metric
    "circle": (circle(12), dict(holonomies=[HYPERBOLIC_2]), "equivariant",
               [1, 1, 0, 1, 1]),
    # identity holonomies, curvature along the F-fixed e3, identity metric
    "torus2": (torus(12), dict(holonomies=[np.eye(3)] * 2, T=[0, 0, 1]),
               "identity", [1, 2, 1, 1, 2, 1]),
}


@pytest.mark.parametrize("kind", sorted(SECTOR_MODELS))
def test_invariant_sector_zero_counts_are_the_total_betti_numbers(kind):
    base, data, metric, want = SECTOR_MODELS[kind]
    alg = lie.heisenberg(3)
    model = spectral.AffineModel(alg, F=Z2_HEIS3, **data)
    sc = sconn.from_affine_bundle(model, base)
    h = (sconn.MetricField.equivariant(sc.bundle, base) if metric == "equivariant"
         else sconn.MetricField.identity(sc.bundle, sc.base))
    betti = spectral.spectral_sequence(spectral.flat_bundle_complex(
        model.ranks, model.a0, model.monodromies, kind, a2=model.a2)).betti
    zeros = [int(np.sum(sconn.spectrum(sc, h, p, count=64).eigenvalues
                        <= report.ZERO_TOL)) for p in range(len(betti))]
    assert zeros == betti == want


C3 = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
CYCLIC3 = lie.FiniteSymmetryGroup([np.eye(3), C3, C3 @ C3])


@pytest.mark.parametrize("base, data", [
    (circle(8), dict(holonomies=[[[3, 1, 1], [1, 3, 1], [1, 1, 3]]])),
    (torus(8), dict(holonomies=[np.eye(3)] * 2, T=[1, 1, 1]))],
    ids=["circle", "torus2"])
def test_invariant_sector_spectrum_is_part_of_the_full_spectrum(base, data):
    # F permutes the coordinates, so its invariant forms have no basis of
    # unit vectors and the sector blocks go through the QR frame change; F
    # commutes with the holonomy, T and both metrics, so the sector's
    # Laplacian is the full one restricted to an invariant subspace
    full = sconn.from_affine_bundle(
        spectral.AffineModel(lie.abelian(3), **data), base)
    sector = sconn.from_affine_bundle(
        spectral.AffineModel(lie.abelian(3), F=CYCLIC3, **data), base)
    assert sector.bundle.ranks == (1, 1, 1, 1)

    def eigenvalues(sc, p):
        h = (sconn.MetricField.equivariant(sc.bundle, base) if base.dim == 1
             else sconn.MetricField.identity(sc.bundle, sc.base))
        return sconn.spectrum(sc, h, p, count=10 ** 4).eigenvalues

    for p in range(base.dim + 4):
        whole, part = eigenvalues(full, p), eigenvalues(sector, p)
        scale = max(1.0, float(np.abs(whole).max(initial=0.0)))
        assert part.size and all(
            np.abs(whole - lam).min() <= 1e-10 * scale for lam in part)
