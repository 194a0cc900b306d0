"""Superconnection layer: flatness identities, the discretized complex, and
spectra checked against closed forms for flat and monodromy-twisted circles."""

import dataclasses
import inspect
import re
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from nilcollapse import lab, lie, report, spectral
from nilcollapse import superconnection as sconn
from nilcollapse.numerics import InputError, RationalMatrix, rank_exact
from tests.conftest import (canonical, check_model_flatness,
                            interpolated_metric, spy)

SOL = np.array([[2.0, 1.0], [1.0, 1.0]])
MU = (3.0 + np.sqrt(5.0)) / 2.0  # larger eigenvalue of SOL
UNIPOTENT = np.array([[1.0, 1.0], [0.0, 1.0]])


def circle(n=32):
    return sconn.BaseModel("circle", n)


def torus(n=12):
    return sconn.BaseModel("torus2", n)


def circle_bundle(base, delta):
    """Invariant-forms model of an oriented circle bundle with curvature
    coupling delta: the abelian(1) fiber with T = [delta]."""
    return sconn.from_affine_bundle(lie.abelian(1), base, T=[Fraction(delta)])


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
    assert b.cell_volume == pytest.approx(6.0 / 256)


def test_point_base_is_the_zero_torus():
    # one grid point, no coordinate and no circumference; the kinds and
    # their generator counts come from spectral.base_generators alone
    b = sconn.BaseModel("point", 8)
    assert (b.dim, b.npoints, b.circumferences) == (0, 1, ())
    assert b.points().shape == b.points(stagger=()).shape == (1, 0)
    assert b.cell_volume == 1.0
    assert [spectral.base_generators(k) for k in ("point", "circle",
                                                  "torus2")] == [0, 1, 2]
    with pytest.raises(InputError, match="unsupported base kind 'torus3'"):
        spectral.base_generators("torus3")
    with pytest.raises(InputError, match="bad circumference list"):
        sconn.BaseModel("point", 8, (1.0,))


def test_point_base_solves_the_fiber_complex():
    # over a point the Laplacian is the fiber's a0^T a0 + a0 a0^T: one
    # Bloch block, and the same eigenvalues assembled
    bundle = sconn.GradedBundle([1, 2], generators=0)
    base = sconn.BaseModel("point", 8)
    sc = sconn.Superconnection(bundle, base, a0=[[[3], [4]]])
    h = sconn.MetricField.identity(bundle, base)
    bare = sconn.MetricField(bundle, base, h.sample)  # always assembled
    for p, want in ((0, [25.0]), (1, [0.0, 25.0]), (2, [])):
        for metric in (h, bare):
            assert np.allclose(sconn.spectrum(sc, metric, p).eigenvalues,
                               want, rtol=1e-14, atol=1e-14)
    with pytest.raises(InputError, match="a point base needs 0 monodromy "
                                         "generators, the bundle has 1"):
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
    sc = sconn.from_affine_bundle(lie.filiform(5), circle(8),
                                  monodromy_action=[phi])
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
        sconn.from_affine_bundle(lie.heisenberg(3), torus(8), T=[0, 1])


def test_superconnection_needs_one_monodromy_per_base_direction():
    # one generator over a torus used to fail later, inside `spectrum`
    with pytest.raises(InputError, match="torus2 base needs 2 monodromy"):
        sconn.Superconnection(sconn.GradedBundle([1]), torus())
    # a second generator over a circle used to be ignored
    with pytest.raises(InputError, match="circle base needs 1 monodromy"):
        sconn.Superconnection(sconn.GradedBundle([1], generators=2), circle())
    with pytest.raises(InputError):
        sconn.from_affine_bundle(lie.abelian(2), torus(8),
                                 monodromy_action=[np.eye(2)])


# ---------------------------------------------------------------------------
# flatness
# ---------------------------------------------------------------------------

def test_flatness_of_affine_models():
    for alg, base in [(lie.heisenberg(3), circle(8)),
                      (lie.abelian(2), circle(8)),
                      (lie.abelian(3), torus(8))]:
        check_model_flatness(alg, [np.eye(alg.n)] * base.dim)
        sconn.from_affine_bundle(alg, base)


def test_flatness_of_twisted_circle():
    check_model_flatness(lie.abelian(2), [SOL])
    sc = sconn.from_affine_bundle(lie.abelian(2), circle(8),
                                  monodromy_action=[SOL])
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
        sconn.from_affine_bundle(lie.heisenberg(3), circle(8),
                                 monodromy_action=[bad])


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
    dc = sconn.DiscreteComplex(sc, interpolated_metric(bundle, base))
    for p in range(base.dim + len(ranks)):
        prod = dc.differential(p + 1) @ dc.differential(p)
        assert prod.nnz == 0 or abs(prod).max() <= 1e-12


def test_contraction_matrix_matches_exact_blocks():
    v = [1, -2, 3]
    blocks = spectral.contraction_blocks(v, 3)
    sc = sconn.from_affine_bundle(lie.abelian(3), torus(8), T=v)
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
    bundle, base = sconn.GradedBundle([2], [[SOL]]), circle(16)
    h = sconn.MetricField.equivariant(bundle, base)
    checked = []
    check = sconn.MetricField.check_equivariance
    monkeypatch.setattr(sconn.MetricField, "check_equivariance",
                        lambda m: checked.append(m) or check(m))
    fiber = np.array([[2.0, 1.0], [1.0, 3.0]])
    g = h.with_fiber([fiber])
    assert checked == [g]
    assert g.logs is h.logs and (g.bundle, g.base) == (bundle, base)
    # h(x) = G(x)^T fiber G(x) for the gauge G(x) = exp(-x X) of the
    # recorded logarithm (circumference 1)
    pts = base.points()
    G = scipy.linalg.expm(-pts[:, 0, None, None] * h.logs[0][0])
    want = G.transpose(0, 2, 1) @ fiber @ G
    assert np.abs(g.sample(0, pts) - want).max() <= 1e-12 * np.abs(want).max()
    # the identity fiber is the metric itself
    same = h.with_fiber([np.eye(2)]).sample(0, pts)
    assert np.abs(same - h.sample(0, pts)).max() <= 1e-12 * np.abs(same).max()


def test_with_fiber_checks_its_blocks():
    # one constant symmetric positive definite block per degree, of the
    # degree's rank, on a metric that records logarithms
    bundle, base = sconn.GradedBundle([2, 1], [[SOL, np.eye(1)]]), circle(16)
    h = sconn.MetricField.equivariant(bundle, base)
    I2, I1 = np.eye(2), np.eye(1)
    for fiber in ([], [I2], [I2, I1, I1], [I1, I2], [I2, I2], [I2, [1.0]]):
        with pytest.raises(InputError, match="one fiber block per degree"):
            h.with_fiber(fiber)
    with pytest.raises(InputError, match="bad fiber blocks"):
        h.with_fiber([[[1, 2], [3]], I1])
    for fiber, message in [
            ([[[1, 1], [0, 1]], I1], r"fiber\[0\] is not a finite symmetric"),
            ([I2, [[np.nan]]], r"fiber\[1\] is not a finite symmetric"),
            ([I2, [[np.inf]]], r"fiber\[1\] is not a finite symmetric"),
            ([[[1, 2], [2, 1]], I1], r"fiber\[0\] is not positive definite"),
            ([I2, [[0.0]]], r"fiber\[1\] is not positive definite")]:
        with pytest.raises(InputError, match=message):
            h.with_fiber(fiber)
    # a bare callable records no logarithms to gauge a fiber with
    with pytest.raises(InputError, match="records the holonomy logarithms"):
        sconn.MetricField(bundle, base, h.sample).with_fiber([I2, I1])


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


def test_conformal_factor_must_be_positive():
    h = sconn.MetricField.identity(sconn.GradedBundle([1]), circle(8))
    for factor in (-1.0, 0.0):
        with pytest.raises(InputError, match="not positive definite"):
            h.with_fiber([[[factor]]])
    with pytest.raises(InputError, match="not a finite symmetric"):
        h.with_fiber([[[float("nan")]]])
    assert h.with_fiber([[[2.0]]]).logs is h.logs


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
    sc = sconn.from_affine_bundle(
        lie.heisenberg(3), circle(8),
        monodromy_action=[RationalMatrix([[1, 0, 0], [1, 1, 0], [0, 0, 1]])])
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
    # the eigendecomposition path is the same primary function as logm; a
    # basis conditioned worse than the bound, or defective, goes to logm
    cond = np.linalg.cond(np.linalg.eig(phi)[1])
    assert (cond > sconn._EIGENBASIS_COND) == via_logm
    want = scipy.linalg.logm(phi)
    calls = []
    spy(monkeypatch, sconn.scipy.linalg, "logm", calls, phi)
    X = sconn._principal_log(phi)
    assert len(calls) == via_logm
    assert np.abs(X - want).max() <= 1e-11 * np.abs(want).max()
    assert np.abs(scipy.linalg.expm(X) - phi).max() <= 1e-12 * np.abs(
        phi).max()


@pytest.mark.parametrize("phi, via_logm", [
    (-np.eye(2), False), (np.array([[-1.0, 1.0], [0.0, -1.0]]), True),
], ids=["minus-identity", "minus-jordan"])
def test_monodromy_without_real_logarithm_is_refused(monkeypatch, phi,
                                                     via_logm):
    bundle = sconn.GradedBundle([2], [[phi]])
    calls = []
    spy(monkeypatch, sconn.scipy.linalg, "logm", calls, phi)
    with pytest.raises(InputError, match="monodromy has no real logarithm"):
        sconn.MetricField.equivariant(bundle, circle(16))
    assert len(calls) == via_logm


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


# ---------------------------------------------------------------------------
# discrete complex
# ---------------------------------------------------------------------------

def test_discrete_differential_squares_to_zero():
    sc = circle_bundle(torus(8), 1.0)
    h = sconn.MetricField.identity(sc.bundle, sc.base)
    dc = sconn.DiscreteComplex(sc, h)
    for p in range(3):
        prod = dc.differential(p + 1) @ dc.differential(p)
        assert prod.nnz == 0 or abs(prod).max() < 1e-13


def test_discrete_differential_squares_to_zero_twisted():
    sc = sconn.from_affine_bundle(lie.abelian(2), circle(8),
                                  monodromy_action=[SOL])
    h = sconn.MetricField.equivariant(sc.bundle, sc.base)
    dc = sconn.DiscreteComplex(sc, h)
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
    sc = sconn.from_affine_bundle(
        lie.heisenberg(3), base, T=[0, 0, 1],
        monodromy_action=[HYPERBOLIC_2, HYPERBOLIC_4])
    return sc, sconn.MetricField.equivariant(sc.bundle, base)


def twisted_circle(base, phi):
    sc = sconn.from_affine_bundle(lie.abelian(2), base, monodromy_action=[phi])
    return sc, sconn.MetricField.equivariant(sc.bundle, base)


def bare(h):
    """The same metric as a bare callable, which `spectrum` always assembles."""
    return sconn.MetricField(h.bundle, h.base, h.sample)


def assert_bloch_matches_assembled(sc, h, p, count=8):
    assert sconn.DiscreteComplex(sc, h).bloch_ready()
    bloch = sconn.spectrum(sc, h, p, count=count).eigenvalues
    oracle = sconn.spectrum(sc, bare(h), p, count=count).eigenvalues
    L = sconn.DiscreteComplex(sc, h).laplacian(p)
    scale = max(1.0, float(abs(L).max()))
    assert bloch.shape == oracle.shape
    assert np.abs(bloch - oracle).max(initial=0.0) <= 1e-10 * scale
    assert (np.sum(bloch <= report.ZERO_TOL)
            == np.sum(oracle <= report.ZERO_TOL))


def test_spectra_solve_every_degree_on_one_complex():
    # each degree's report is the one `spectrum` gives alone, on the Bloch
    # and on the assembled path; a complex of another metric is refused
    sc, h = twisted_circle(circle(9), UNIPOTENT)
    for metric in (h, bare(h)):
        alone = [sconn.spectrum(sc, metric, p, count=5).to_dict()
                 for p in range(4)]
        assert [rep.to_dict() for rep in
                sconn.spectra(sc, metric, range(4), count=5)] == alone
    dc = sconn.DiscreteComplex(sc, bare(h))
    with pytest.raises(InputError, match="another superconnection or metric"):
        sconn.spectrum(sc, h, 0, dc=dc)


def preset_bundles(name, torus_resolution=12):
    """(sc, h) at every sweep point of a numerical preset, built by the
    `lab.prepare` that `lab.run` solves; torus presets at a smaller
    resolution."""
    cfg = lab.load_scenario(name)
    if cfg.kind == "circle_bundle_adiabatic":
        cfg = dataclasses.replace(cfg, resolution=torus_resolution)
    yield from lab.prepare(cfg).points


@pytest.mark.parametrize("name", [n for n, cfg in lab.PRESETS.items()
                                  if cfg["kind"] != "nil_rescale"])
def test_bloch_matches_assembled_on_presets(name):
    for sc, h in preset_bundles(name):
        for p in range(sc.base.dim + sc.bundle.top + 1):
            assert_bloch_matches_assembled(sc, h, p)


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
    sc = sconn.from_affine_bundle(lie.heisenberg(3), base, T=[0, 0, 1])
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
    """The Bloch spectrum solved on every one of the N^d modes."""
    N, d = dc.base.resolution, dc.base.dim
    theta = np.meshgrid(*[2 * np.pi * np.arange(N) / N] * d, indexing="ij")
    phase = np.exp(1j * np.stack(theta, axis=-1).reshape(-1, d))
    Dp, Dm = dc._bloch_symbol(p, phase), dc._bloch_symbol(p - 1, phase)
    L = (np.conj(Dp.transpose(0, 2, 1)) @ Dp
         + Dm @ np.conj(Dm.transpose(0, 2, 1)))
    return np.sort(np.linalg.eigvalsh(L).ravel())


@pytest.mark.parametrize("N", [8, 9])
def test_conjugate_pair_solve_matches_all_modes(N):
    cases = [twisted_circle(circle(N), SOL),
             heisenberg_torus_with_curvature(torus(N))]
    for sc, h in cases:
        dc = sconn.DiscreteComplex(sc, h)
        assert dc.bloch_ready()
        for p in range(sc.base.dim + sc.bundle.top + 1):
            want = all_modes_eigenvalues(dc, p)
            got = dc.bloch_eigenvalues(p)
            scale = max(1.0, float(np.abs(want).max(initial=0.0)))
            assert got.shape == want.shape
            assert np.abs(got - want).max(initial=0.0) <= 1e-12 * scale


def test_bloch_matches_assembled_conformal_metrics():
    # a constant fiber metric enters the Bloch gauge as its square root and
    # the assembled mass as G(x)^T fiber G(x): two routes to one spectrum
    base = circle(48)
    sc = sconn.from_affine_bundle(lie.abelian(2), base, monodromy_action=[SOL])
    h = sconn.MetricField.equivariant(sc.bundle, base).with_fiber(
        [[[2.5]], [[2.0, 1.0], [1.0, 3.0]], [[0.5]]])
    for p in range(3):
        assert_bloch_matches_assembled(sc, h, p)
    sc = circle_bundle(torus(10), 0.5)
    h = sconn.MetricField.identity(sc.bundle, sc.base).with_fiber(
        [[[np.e]], [[0.3]]])
    for p in range(4):
        assert_bloch_matches_assembled(sc, h, p)


def test_bloch_path_only_for_recorded_gauges(monkeypatch):
    assembled = []
    laplacian = sconn.DiscreteComplex.laplacian
    monkeypatch.setattr(sconn.DiscreteComplex, "laplacian",
                        lambda dc, p: assembled.append(p) or laplacian(dc, p))
    base = circle(32)
    bundle = sconn.GradedBundle([2], [[SOL]])
    sc = sconn.Superconnection(bundle, base)
    h = sconn.MetricField.equivariant(bundle, base)
    want = sconn.spectrum(sc, h, 0, count=4).eigenvalues
    assert assembled == []
    # the same metric as a bare callable records no logarithms
    got = sconn.spectrum(sc, bare(h), 0, count=4).eigenvalues
    assert assembled == [0]
    assert np.allclose(got, want, rtol=1e-9)
    # nor does an identity metric over an orthogonal monodromy
    flip = sconn.GradedBundle([2], [[[[0, 1], [1, 0]]]])
    assert sconn.MetricField.identity(flip, base).logs is None
    # a metric of another base with the same circumference, or of an
    # untwisted bundle with the same ranks, is refused, not assembled
    assembled.clear()
    others = [
        (sconn.MetricField.equivariant(bundle, circle(16)), "built over"),
        (sconn.MetricField.identity(sconn.GradedBundle([2]), base),
         "different bundle"),
    ]
    for other, message in others:
        with pytest.raises(InputError, match=message):
            sconn.spectrum(sc, other, 0, count=4)
    assert assembled == []


def test_a_bare_callable_carries_no_logarithms():
    # only identity and equivariant record logarithms: the constructor takes
    # none from its caller, so a zero logarithm cannot send the flip bundle,
    # whose holonomy has none that is real, down the Bloch path
    assert "logs" not in inspect.signature(sconn.MetricField).parameters
    base = circle(16)
    flip = sconn.GradedBundle([2], [[[[0, 1], [1, 0]]]])
    sc = sconn.Superconnection(flip, base)
    h = sconn.MetricField(flip, base, lambda b, pts: np.broadcast_to(
        np.eye(2), (len(pts), 2, 2)))
    assert h.logs is None and not sconn.DiscreteComplex(sc, h).bloch_ready()
    # the periodic and the antiperiodic modes of the forward difference
    lam = sconn.spectrum(sc, h, 0, count=4).eigenvalues
    anti = (32 * np.sin(np.pi / 32)) ** 2
    periodic = (32 * np.sin(np.pi / 16)) ** 2
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
    first = sconn.spectrum(sc, bare(h), 1, count=6).eigenvalues
    again = sconn.spectrum(sc, bare(h), 1, count=6).eigenvalues
    assert np.array_equal(first, again)
    bloch = sconn.spectrum(sc, h, 1, count=6).eigenvalues
    scale = float(abs(sconn.DiscreteComplex(sc, h).laplacian(1)).max())
    assert np.abs(bloch - first).max() <= 1e-10 * scale


# ---------------------------------------------------------------------------
# stability checks
# ---------------------------------------------------------------------------

def test_perturbation_bound_on_coupling_pair():
    base = torus(10)
    sc1 = circle_bundle(base, 0.7)
    sc2 = circle_bundle(base, 0.9)
    h = sconn.MetricField.identity(sc1.bundle, sc1.base)
    rep = sconn.perturbation_check(sc1, sc2, h, 1)
    assert rep.holds
    assert rep.operator_norm == pytest.approx(0.2, rel=1e-6)
    assert rep.max_difference <= rep.bound
    assert rep.bound == pytest.approx(sconn.PERTURBATION_CONSTANT * 0.2)


def test_perturbation_check_solves_on_the_complexes_it_built(monkeypatch):
    # one DiscreteComplex per superconnection serves both the operator norm
    # and the spectrum; the report is the one of two fresh solves
    base = torus(8)
    sc1, sc2 = circle_bundle(base, 0.7), circle_bundle(base, 0.9)
    h = sconn.MetricField.identity(sc1.bundle, sc1.base)
    built = []
    init = sconn.DiscreteComplex.__init__
    monkeypatch.setattr(sconn.DiscreteComplex, "__init__",
                        lambda *a, **k: built.append(1) or init(*a, **k))
    rep = sconn.perturbation_check(sc1, sc2, h, 1, count=6)
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
            sconn.perturbation_check(sc1, circle_bundle(base, 0.9), h, 1)


def test_perturbation_check_requires_same_connection_part():
    base = circle(16)
    b1 = sconn.GradedBundle([2], [[SOL]])
    b2 = sconn.GradedBundle([2], [[np.eye(2)]])
    sc1 = sconn.Superconnection(b1, base)
    sc2 = sconn.Superconnection(b2, base)
    h = sconn.MetricField.equivariant(b1, base)
    with pytest.raises(InputError):
        sconn.perturbation_check(sc1, sc2, h, 0)


def test_metric_continuity_conformal():
    # a global conformal factor cancels out of the symmetrized operator
    sc = circle_bundle(torus(8), 0.5)
    h1 = sconn.MetricField.identity(sc.bundle, sc.base)
    h2 = h1.with_fiber([np.e * np.eye(r) for r in sc.bundle.ranks])
    rep = sconn.metric_continuity_check(sc, h1, h2, 1, eps=1.0)
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


def test_orthogonal_flip_with_identity_metric_is_assembled():
    # the identity metric is equivariant under the flip, which has no real
    # logarithm, so spectrum assembles W^T W + W W^T; the flip's +1 and -1
    # eigenvectors carry periodic and antiperiodic modes, each with the
    # discrete eigenvalues 4 N^2 sin^2(theta / 2) in degrees 0 and 1
    N = 16
    sc, h = sconn.load_bundle({
        "base": {"kind": "circle", "resolution": N}, "ranks": [2],
        "monodromy": [[[[0, 1], [1, 0]]]], "metric": "identity"})
    assert not sconn.DiscreteComplex(sc, h).bloch_ready()
    k = np.arange(N)
    theta = np.concatenate([2 * np.pi * k / N, np.pi * (2 * k + 1) / N])
    want = np.sort(4 * N ** 2 * np.sin(theta / 2) ** 2)[:8]
    for p in (0, 1):
        got = sconn.spectrum(sc, h, p, count=8).eigenvalues
        assert np.allclose(got, want, rtol=1e-10, atol=1e-10)


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
    holonomies = [HYPERBOLIC_2, HYPERBOLIC_4]
    sc = sconn.from_affine_bundle(lie.heisenberg(3), torus(8),
                                  monodromy_action=holonomies, T=[0, 0, 1])
    model = spectral.AffineModel(lie.heisenberg(3), holonomies, T=[0, 0, 1])
    for b in range(3):
        assert np.array_equal(sc.a0_block(b), model.a0[b].to_numpy())
        assert np.array_equal(sc.a2_block(b + 1), model.a2[b].to_numpy())
    for gen in range(2):
        for b in range(4):
            assert np.array_equal(sc.bundle.monodromy(gen, b),
                                  model.actions(b)[gen].to_numpy())
    # on 1-forms the action is the inverse transpose
    assert model.actions(1)[0] == spectral.inverse_exact(
        RationalMatrix(HYPERBOLIC_2)).transpose()


def test_from_affine_bundle_takes_exact_data_only():
    with pytest.raises(InputError, match="non-integral float"):
        sconn.from_affine_bundle(lie.heisenberg(3), torus(8), monodromy_action=[
            np.diag([2.0, 0.5, 1.0]), np.diag([4.0, 0.25, 1.0])])
    with pytest.raises(InputError, match="non-integral float 0.1"):
        sconn.from_affine_bundle(lie.abelian(1), torus(8), T=[0.1])
    with pytest.raises(InputError, match="3x3"):
        sconn.from_affine_bundle(lie.heisenberg(3), circle(8),
                                 monodromy_action=[np.eye(2)])


# ---------------------------------------------------------------------------
# the F-invariant sector: spectrum against the pages of the same model
# ---------------------------------------------------------------------------

Z2_HEIS3 = lie.FiniteSymmetryGroup([np.eye(3), np.diag([-1, -1, 1])])
SECTOR_MODELS = {
    # hyperbolic holonomy commuting with F, equivariant metric
    "circle": (circle(12), dict(monodromy_action=[HYPERBOLIC_2]), "equivariant",
               [1, 1, 0, 1, 1]),
    # identity holonomies, curvature along the F-fixed e3, identity metric
    "torus2": (torus(12), dict(T=[0, 0, 1]), "identity", [1, 2, 1, 1, 2, 1]),
}


@pytest.mark.parametrize("kind", sorted(SECTOR_MODELS))
def test_invariant_sector_zero_counts_are_the_total_betti_numbers(kind):
    base, data, metric, want = SECTOR_MODELS[kind]
    alg = lie.heisenberg(3)
    sc = sconn.from_affine_bundle(alg, base, F=Z2_HEIS3, **data)
    h = (sconn.MetricField.equivariant(sc.bundle, base) if metric == "equivariant"
         else sconn.MetricField.identity(sc.bundle, sc.base))
    holonomies = data.get("monodromy_action", [np.eye(3)] * base.dim)
    model = spectral.AffineModel(alg, holonomies, T=data.get("T"), F=Z2_HEIS3)
    monos = list(zip(*map(model.actions, range(alg.n + 1))))
    betti = spectral.spectral_sequence(spectral.flat_bundle_complex(
        model.ranks, model.a0, monos, kind, a2=model.a2)).betti
    zeros = [int(np.sum(sconn.spectrum(sc, h, p, count=64).eigenvalues
                        <= report.ZERO_TOL)) for p in range(len(betti))]
    assert zeros == betti == want


C3 = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
CYCLIC3 = lie.FiniteSymmetryGroup([np.eye(3), C3, C3 @ C3])


@pytest.mark.parametrize("base, data", [
    (circle(8), dict(monodromy_action=[[[3, 1, 1], [1, 3, 1], [1, 1, 3]]])),
    (torus(8), dict(T=[1, 1, 1]))], ids=["circle", "torus2"])
def test_invariant_sector_spectrum_is_part_of_the_full_spectrum(base, data):
    # F permutes the coordinates, so its invariant forms have no basis of
    # unit vectors and the sector blocks go through the QR frame change; F
    # commutes with the holonomy, T and both metrics, so the sector's
    # Laplacian is the full one restricted to an invariant subspace
    full = sconn.from_affine_bundle(lie.abelian(3), base, **data)
    sector = sconn.from_affine_bundle(lie.abelian(3), base, F=CYCLIC3, **data)
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
