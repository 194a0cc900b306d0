"""End-to-end acceptance checks for the whole package, with runtime budgets.

Each test exercises one of the headline guarantees: exact curvature
cross-checks over randomized algebra bases, exact harmonic counts, closed-form
twisted-circle spectra with second-order convergence, collapse counts matching
the algebraic predictions, page/total-cohomology consistency on randomized
complexes, and the square-root eigenvalue stability bound."""

import time
from fractions import Fraction

import numpy as np
import pytest

from nilcollapse import lab, lie, spectral
from nilcollapse import superconnection as sconn
from nilcollapse.numerics import RationalMatrix
from tests.conftest import (check_model_flatness, conjugated,
                            random_flat_complex, random_orthogonal,
                            rescaled_spectra)
from tests.oracles import invariant_laplacian, leray_circle

UNIP = RationalMatrix([[1, 1], [0, 1]])
MU = (3.0 + np.sqrt(5.0)) / 2.0


def _elapsed(t0):
    return time.monotonic() - t0


# -- 1 ----------------------------------------------------------------------

def test_curvature_routes_agree_on_randomized_bases():
    t0 = time.monotonic()
    rng = np.random.default_rng(12345)
    presets = [lie.heisenberg(3), lie.heisenberg(5), lie.heisenberg(7),
               lie.filiform(3), lie.filiform(4), lie.filiform(5),
               lie.filiform(6), lie.filiform(7),
               lie.abelian(2), lie.abelian(5),
               # heisenberg:3 + abelian:2, filiform:4 + heisenberg:3 and
               # heisenberg:3 + filiform:3, one summand after the other
               lie.NilpotentLieAlgebra.from_brackets(5, [(0, 1, 2, 1)]),
               lie.NilpotentLieAlgebra.from_brackets(
                   7, [(0, 1, 2, 1), (0, 2, 3, 1), (4, 5, 6, 1)]),
               lie.NilpotentLieAlgebra.from_brackets(
                   6, [(0, 1, 2, 1), (3, 4, 5, 1)])]
    checked = 0
    for k in range(104):
        alg = presets[k % len(presets)]
        q = random_orthogonal(rng, alg.n)
        # raises ArithmeticError if the two routes differ beyond 1e-10
        kt, ks = lie.scalar_curvature(conjugated(alg.c_float(), q))
        base = lie.scalar_curvature(alg.c_float())[1]
        assert kt == pytest.approx(base, abs=1e-9)
        checked += 1
    assert checked >= 100
    assert _elapsed(t0) <= 5.0


# -- 2 ----------------------------------------------------------------------

def test_harmonic_form_counts_heisenberg3():
    alg = lie.heisenberg(3)
    assert lie.betti_numbers(alg)[1] == 2
    for p, expect in enumerate([1, 2, 2, 1]):
        lap = invariant_laplacian(alg, p)
        w = np.linalg.eigvalsh(lap)
        assert int(np.sum(np.abs(w) < 1e-12)) == expect


# -- 3 ----------------------------------------------------------------------

def test_rescaled_family_collapse_count():
    alg = lie.heisenberg(3)
    [pred] = spectral.predict_small_counts(alg, "point", [1])
    assert pred.count == 3
    sweep = (1e-1, 1e-2, 1e-3, 1e-4)
    for eps, rep in zip(sweep, rescaled_spectra(alg, 1, sweep)):
        assert np.abs(rep.eigenvalues - np.array([0.0, 0.0, eps])).max() <= 1e-12
        near_zero = int(np.sum(rep.eigenvalues <= 10 * eps))
        assert near_zero == pred.count


# -- 4 ----------------------------------------------------------------------

def test_twisted_circle_spectrum_and_convergence_order():
    t0 = time.monotonic()
    phi = np.array([[2.0, 1.0], [1.0, 1.0]])
    exact = np.log(MU) ** 2
    errs = []
    for n in (256, 512, 1024):
        base = sconn.BaseModel("circle", n)
        bundle = sconn.GradedBundle([2], [[phi]])
        sc = sconn.Superconnection(bundle, base)
        h = sconn.MetricField.equivariant(bundle, base)
        lam = sconn.spectrum(sc, h, 0, count=2).eigenvalues[0]
        errs.append(abs(lam - exact))
    assert errs[-1] <= 1e-4
    slope = np.polyfit(np.log([256, 512, 1024]), np.log(errs), 1)[0]
    assert -slope == pytest.approx(2.0, abs=0.2)
    assert _elapsed(t0) <= 10.0


# -- 5 ----------------------------------------------------------------------

def test_unipotent_degeneration_scenario():
    t0 = time.monotonic()
    rep = lab.run("example7_heisenberg_circle")
    d = rep.degrees[0]
    assert d.predicted_small_count == 3
    assert d.observed_small_count == 3
    assert d.prediction_matches and d.kernel_stable
    thirds = []
    for spec in d.spectra:
        lam = spec.eigenvalues
        assert int(np.sum(lam <= 1e-10)) == 2
        assert lam[3] >= 0.5
        thirds.append(lam[2])
    # the third eigenvalue decays monotonically along the sweep
    assert all(a > b for a, b in zip(thirds, thirds[1:]))
    assert _elapsed(t0) <= 30.0


# -- 6 ----------------------------------------------------------------------

def test_random_complex_pages_consistent():
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    for _ in range(100):
        cx = random_flat_complex(rng)
        # the builder checks the stable totals against total cohomology
        # and page r+1 against the homology of (page r, d_r)
        spectral.spectral_sequence(cx)
    assert _elapsed(t0) <= 60.0


# -- 7 ----------------------------------------------------------------------

def test_circle_closed_form_matches_stable_page():
    rng = np.random.default_rng(77)
    checked = 0
    while checked < 50:
        a, b = (int(x) for x in rng.integers(-2, 3, size=2))
        g = RationalMatrix([[1, a], [0, 1]]) @ RationalMatrix([[1, 0], [b, 1]])
        ranks = [1, 2, 1]
        a0 = [RationalMatrix.zeros(2, 1), RationalMatrix.zeros(1, 2)]
        model = spectral.AffineModel(lie.abelian(2), [g])
        acts = [model.actions(q)[0] for q in range(3)]
        cx = spectral.flat_bundle_complex(ranks, a0, [acts], "circle")
        assert spectral.spectral_sequence(cx).stable.totals() == \
            [leray_circle(acts, p) for p in range(4)]
        checked += 1
    model = spectral.AffineModel(lie.abelian(2), [UNIP])
    acts = [model.actions(q)[0] for q in range(3)]
    assert [leray_circle(acts, p) for p in range(4)] == [1, 2, 2, 1]


# -- 8 ----------------------------------------------------------------------

def test_circle_bundle_count_versus_pages():
    t0 = time.monotonic()
    cfg = dict(lab.PRESETS["cor7_heisenberg_T2"])
    cfg["resolution"] = 64
    cfg["name"] = "cor7_64"
    rep = lab.run(cfg)
    d = rep.degrees[0]
    assert d.predicted_small_count == 3
    assert d.observed_small_count == 3
    for spec in d.spectra:
        assert int(np.sum(spec.eigenvalues <= 1e-10)) == 2
    decaying = [s for s in d.slopes if not s.undetermined]
    assert decaying and decaying[0].slope == pytest.approx(2.0, abs=0.1)
    # the algebraic side: the page-2 count exceeds the stable one
    ranks = [1, 1]
    a0 = [RationalMatrix.zeros(1, 1)]
    eye = RationalMatrix.identity(1)
    cx = spectral.flat_bundle_complex(ranks, a0, [[eye, eye], [eye, eye]],
                                      "torus2", a2=[RationalMatrix([[1]])])
    p2 = spectral.page(cx, 2)
    assert p2.total(1) == 3
    assert spectral.spectral_sequence(cx).stable.total(1) == 2
    assert sum(p2.d_ranks.values()) > 0
    assert _elapsed(t0) <= 60.0


# -- 9 ----------------------------------------------------------------------

def test_square_root_perturbation_bound():
    rng = np.random.default_rng(31)
    base_t = sconn.BaseModel("torus2", 8)
    base_c = sconn.BaseModel("circle", 16)
    for k in range(50):
        if k % 2 == 0:
            c1, c2 = rng.uniform(0.1, 1.5, size=2)
            sc1 = sconn.from_affine_bundle(lie.abelian(1), base_t,
                                           T=[Fraction(c1)])
            sc2 = sconn.from_affine_bundle(lie.abelian(1), base_t,
                                           T=[Fraction(c2)])
            h = sconn.MetricField.identity(sc1.bundle, sc1.base)
            rep = sconn.perturbation_check(sc1, sc2, h, 1, count=6)
        else:
            c1, c2 = rng.uniform(0.1, 2.0, size=2)
            bundle = sconn.GradedBundle([1, 1])
            sc1 = sconn.Superconnection(bundle, base_c, a0=[[[Fraction(c1)]]])
            sc2 = sconn.Superconnection(bundle, base_c, a0=[[[Fraction(c2)]]])
            h = sconn.MetricField.identity(bundle, base_c)
            rep = sconn.perturbation_check(sc1, sc2, h, 0, count=6)
        assert rep.holds
        assert rep.max_difference <= sconn.PERTURBATION_CONSTANT * rep.operator_norm + 1e-9


# -- 10 ---------------------------------------------------------------------

def test_all_constructed_superconnections_are_flat():
    # each model's exact blocks pass the exact flatness check, which
    # from_affine_bundle also runs before it hands out the float blocks
    circle = sconn.BaseModel("circle", 8)
    torus = sconn.BaseModel("torus2", 8)
    cases = [
        (lie.heisenberg(3), circle, {}),
        (lie.heisenberg(5), circle, {}),
        (lie.abelian(2), circle, dict(monodromy_action=[UNIP.to_numpy()])),
        (lie.abelian(2), circle, dict(monodromy_action=[[[2, 1], [1, 1]]])),
        (lie.abelian(3), torus, {}),
        (lie.heisenberg(3), torus, dict(T=[0.0, 0.0, 1.0])),
        (lie.abelian(1), torus, dict(T=[1])),
        (lie.abelian(1), torus, dict(T=["1/4"])),
    ]
    for alg, base, data in cases:
        model = check_model_flatness(alg, data.get(
            "monodromy_action", [np.eye(alg.n)] * base.dim), data.get("T"))
        sc = sconn.from_affine_bundle(alg, base, **data)
        assert sc.bundle.ranks == tuple(model.ranks)
