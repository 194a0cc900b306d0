"""Exact bigraded complexes, their pages, and the small-eigenvalue count
predictions. Cross-checked three independent ways: total cohomology, the
closed-form circle answer (invariants plus coinvariants), and page-by-page
recursion on randomly generated flat complexes."""

from fractions import Fraction

import numpy as np
import pytest

from nilcollapse import lie, spectral
from nilcollapse.numerics import InputError, RationalMatrix, rank_exact
from tests.conftest import filiform_torus_complex, random_flat_complex

UNIP = RationalMatrix([[1, 1], [0, 1]])
SOL = RationalMatrix([[2, 1], [1, 1]])


def circle_model(g):
    """Torus fiber over the circle with holonomy g (an exact 2x2 matrix)."""
    ranks = [1, 2, 1]
    a0 = [RationalMatrix.zeros(2, 1), RationalMatrix.zeros(1, 2)]
    monos = [[spectral.form_action(g, b) for b in range(3)]]
    return spectral.flat_bundle_complex(ranks, a0, monos, "circle")


def circle_bundle_complex(coeff=Fraction(1)):
    """Invariant-forms model of an oriented circle bundle over the 2-torus."""
    ranks = [1, 1]
    a0 = [RationalMatrix.zeros(1, 1)]
    eye = RationalMatrix.identity(1)
    monos = [[eye, eye], [eye, eye]]
    return spectral.flat_bundle_complex(ranks, a0, monos, "torus2",
                                        a2=[RationalMatrix([[coeff]])])


# ---------------------------------------------------------------------------
# complex construction and validation
# ---------------------------------------------------------------------------

def test_complex_rejects_nonflat_differential():
    dims = {(0, 0): 1, (0, 1): 1, (0, 2): 1}
    maps = {0: {(0, 0): RationalMatrix([[1]]), (0, 1): RationalMatrix([[1]])}}
    with pytest.raises(InputError):
        spectral.BigradedComplex(dims, maps)


def test_complex_rejects_bad_shapes():
    dims = {(0, 0): 2, (0, 1): 1}
    maps = {0: {(0, 0): RationalMatrix([[1]])}}
    with pytest.raises(InputError):
        spectral.BigradedComplex(dims, maps)


def test_complex_reads_spots_and_dimensions_as_integers():
    cx = spectral.BigradedComplex.from_dict({"dims": [[0.0, 0, 1.0]]})
    assert cx.dims == {(0, 0): 1} and type(cx.dims[(0, 0)]) is int
    for dims in ([[0, 0, 1.5]], [[0, True, 1]], [[0, 0, "1"]], [[0, 0, -1]],
                 [[-1, 0, 1]]):
        with pytest.raises(InputError):
            spectral.BigradedComplex.from_dict({"dims": dims})


def test_total_complex_bookkeeping():
    cx = spectral.from_algebra(lie.heisenberg(3))
    assert cx.total_dim(1) == 3
    assert cx.top_total_degree() == 3
    assert spectral.spectral_sequence(cx).betti == [1, 2, 2, 1]


def test_block_matches_total_differential_with_d2():
    cx = filiform_torus_complex(4)
    assert cx.shifts() == [0, 1, 2]

    def offsets(spots):
        out, k = {}, 0
        for s in spots:
            out[s] = k
            k += cx.dim(*s)
        return out

    for p in range(cx.top_total_degree()):
        rows, cols = cx.total_spots(p + 1), cx.total_spots(p)
        full = cx.total_differential(p)
        assert full == cx.block(rows, cols)
        # the same matrix placed block by block from the D_i
        oracle = np.zeros((full.rows, full.cols))
        r_off, c_off = offsets(rows), offsets(cols)
        for s in cols:
            for i in cx.shifts():
                t = (s[0] + i, s[1] + 1 - i)
                if t in r_off:
                    oracle[r_off[t]:r_off[t] + cx.dim(*t),
                           c_off[s]:c_off[s] + cx.dim(*s)] = cx.D(i, *s).to_numpy()
        assert np.array_equal(full.to_numpy(), oracle)
        # any spot order and any single pair give the matching sub-blocks
        rev = cx.block(rows[::-1], cols[::-1]).to_numpy()
        r_rev, c_rev = offsets(rows[::-1]), offsets(cols[::-1])
        for t in rows:
            for s in cols:
                sub = oracle[r_off[t]:r_off[t] + cx.dim(*t),
                             c_off[s]:c_off[s] + cx.dim(*s)]
                assert np.array_equal(cx.block([t], [s]).to_numpy(), sub)
                assert np.array_equal(rev[r_rev[t]:r_rev[t] + cx.dim(*t),
                                          c_rev[s]:c_rev[s] + cx.dim(*s)], sub)
        if p + 1 < cx.top_total_degree():
            assert (cx.total_differential(p + 1) @ full).is_zero()


def test_serialization_round_trip(tmp_path):
    cx = circle_model(UNIP)
    cx2 = spectral.BigradedComplex.from_dict(cx.to_dict())
    assert cx2.dims == cx.dims
    for i in cx.shifts():
        for spot in cx.dims:
            assert cx2.D(i, *spot) == cx.D(i, *spot)
    path = tmp_path / "cx.json"
    spectral.save_complex(cx, path)
    cx3 = spectral.load_complex(path)
    assert cx3.dims == cx.dims


def test_from_dict_rejects_inexact_floats():
    payload = {"dims": [[0, 0, 1], [0, 1, 1]],
               "maps": [{"shift": 0, "a": 0, "b": 0, "matrix": [[0.1]]}]}
    with pytest.raises(InputError, match="non-integral float 0.1"):
        spectral.BigradedComplex.from_dict(payload)
    # rational strings and integral floats stay exact
    for entry, want in (("1/3", Fraction(1, 3)), (2.0, Fraction(2)),
                        ("0.1", Fraction(1, 10))):
        payload["maps"][0]["matrix"] = [[entry]]
        cx = spectral.BigradedComplex.from_dict(payload)
        assert cx.D(0, 0, 0).tolist() == [[want]]


# ---------------------------------------------------------------------------
# pages
# ---------------------------------------------------------------------------

def test_page_zero_returns_raw_dimensions():
    cx = spectral.from_algebra(lie.heisenberg(3))
    p0 = spectral.page(cx, 0)
    assert p0.dims == {(0, 0): 1, (0, 1): 3, (0, 2): 3, (0, 3): 1}


def test_one_column_complex_stabilizes_at_page_one():
    cx = spectral.from_algebra(lie.heisenberg(3))
    assert spectral.page(cx, 1).totals() == [1, 2, 2, 1]
    assert spectral.spectral_sequence(cx).stable.totals() == [1, 2, 2, 1]


def test_unipotent_circle_model_pages():
    cx = circle_model(UNIP)
    p2 = spectral.page(cx, 2)
    assert p2.dim(0, 1) == 1
    assert p2.dim(1, 1) == 1
    assert p2.totals() == [1, 2, 2, 1]
    assert spectral.spectral_sequence(cx).stable.totals() == [1, 2, 2, 1]


def test_hyperbolic_circle_model_pages():
    cx = circle_model(SOL)
    assert spectral.spectral_sequence(cx).stable.totals() == [1, 1, 1, 1]
    # invariants of the degree-1 holonomy vanish
    p2 = spectral.page(cx, 2)
    assert p2.dim(0, 1) == 0 and p2.dim(1, 1) == 0


def test_circle_bundle_complex_degenerates_at_page_three():
    cx = circle_bundle_complex()
    p2 = spectral.page(cx, 2)
    pinf = spectral.spectral_sequence(cx).stable
    assert p2.totals() == [1, 3, 3, 1]
    assert pinf.totals() == [1, 2, 2, 1]
    assert p2.d_ranks.get((0, 1)) == 1  # the coupling differential is nonzero


def test_page_recursion_on_models():
    # the builder checks page r+1 against the homology of (page r, d_r)
    for cx in (circle_model(UNIP), circle_model(SOL), circle_bundle_complex()):
        spectral.spectral_sequence(cx)


def test_random_flat_complexes_stabilize_to_total_cohomology():
    rng = np.random.default_rng(42)
    for _ in range(15):
        cx = random_flat_complex(rng)
        seq = spectral.spectral_sequence(cx)  # checks the stable totals
        top = cx.top_total_degree()
        euler = sum((-1) ** p * cx.total_dim(p) for p in range(top + 1))
        for pr in seq.pages[:seq.stabilizes_at]:
            assert sum((-1) ** p * t for p, t in enumerate(pr.totals())) == euler
        # spot dimensions never grow from page to page
        prev = seq.pages[0]
        for cur in seq.pages[1:seq.stabilizes_at]:
            for spot, d in cur.dims.items():
                assert d <= prev.dims.get(spot, 0) or prev.dims.get(spot, 0) == 0
            prev = cur


def _old_stable_page(cx):
    """The stable page and its index as first defined: page a_max + b_max + 1,
    and the smallest r whose page has the same dimensions."""
    r_stab = cx.a_max + cx.b_max + 1
    final = spectral.page(cx, r_stab)
    return final, next(r for r in range(1, r_stab + 1)
                       if spectral.page(cx, r).dims == final.dims)


def test_stable_page_matches_the_old_bound():
    rng = np.random.default_rng(5)
    cases = [filiform_torus_complex(4)]
    for a_max in (1, 2, 3):
        for b_max in (1, 2, 3):
            cases += [random_flat_complex(rng, a_max, b_max) for _ in range(3)]
    seen = set()
    for cx in cases:
        seq = spectral.spectral_sequence(cx)
        final, r_old = _old_stable_page(cx)
        assert [pg.r for pg in seq.pages] == list(range(1, cx.a_max + 2))
        assert seq.stable.dims == final.dims
        assert seq.stable.d_ranks == final.d_ranks == {}
        assert seq.stabilizes_at == r_old
        seen.add(r_old)
    assert seen >= {1, 2, 3, 4}


def _corrupt_page(monkeypatch, bad_r):
    """Make `spectral.page` report one class too many at (0, 0) on page
    bad_r."""
    real = spectral.page

    def corrupt(cx, r):
        pg = real(cx, r)
        if r != bad_r:
            return pg
        return spectral.Page(r, {**pg.dims, (0, 0): pg.dim(0, 0) + 1},
                             pg.d_ranks)

    monkeypatch.setattr(spectral, "page", corrupt)


def test_corrupted_page_recursion_raises(monkeypatch):
    _corrupt_page(monkeypatch, 2)
    with pytest.raises(ArithmeticError,
                       match=r"fails at \(0, 0\): dim E_2 = 2, homology gives 1"):
        spectral.spectral_sequence(circle_bundle_complex())


def test_corrupted_stable_page_raises(monkeypatch):
    # one column has a single page, so only the total cohomology catches it
    _corrupt_page(monkeypatch, 1)
    with pytest.raises(ArithmeticError,
                       match="E_infinity total 2 != total cohomology 1 in degree 0"):
        spectral.spectral_sequence(spectral.from_algebra(lie.heisenberg(3)))


# ---------------------------------------------------------------------------
# circle closed form
# ---------------------------------------------------------------------------

def test_leray_circle_closed_form_unipotent():
    monos = [spectral.form_action(UNIP, b) for b in range(3)]
    assert [spectral.leray_circle(monos, p) for p in range(4)] == [1, 2, 2, 1]


def test_leray_circle_closed_form_hyperbolic():
    monos = [spectral.form_action(SOL, b) for b in range(3)]
    assert [spectral.leray_circle(monos, p) for p in range(4)] == [1, 1, 1, 1]


def test_leray_matches_stable_page_for_nil_fiber():
    # 3-dim nilpotent fiber over the circle with trivial holonomy
    alg = lie.heisenberg(3)
    ranks = [len(lie.multi_indices(3, b)) for b in range(4)]
    a0 = [lie.ce_differential(alg, b) for b in range(3)]
    eye = [RationalMatrix.identity(r) for r in ranks]
    cx = spectral.flat_bundle_complex(ranks, a0, [eye], "circle")
    betti = lie.betti_numbers(alg)
    monos = [RationalMatrix.identity(b) for b in betti]
    expect = [spectral.leray_circle(monos, p) for p in range(5)]
    assert spectral.spectral_sequence(cx).stable.totals() == expect == [1, 3, 4, 3, 1]


def test_leray_matches_stable_page_random_holonomy():
    rng = np.random.default_rng(9)
    for _ in range(10):
        # random unimodular integer holonomy on a 2-torus fiber
        a, b, c = (int(x) for x in rng.integers(-2, 3, size=3))
        d = (1 + b * c) // a if a and (1 + b * c) % a == 0 else None
        if d is None:
            g = RationalMatrix([[1, a], [0, 1]]) @ RationalMatrix([[1, 0], [b, 1]])
        else:
            g = RationalMatrix([[a, b], [c, d]])
        cx = circle_model(g)
        monos = [spectral.form_action(g, q) for q in range(3)]
        assert spectral.spectral_sequence(cx).stable.totals() == \
            [spectral.leray_circle(monos, p) for p in range(4)]


# ---------------------------------------------------------------------------
# holonomy invariants
# ---------------------------------------------------------------------------

def test_minimal_polynomial_ascending_coefficients():
    assert spectral.minimal_polynomial(RationalMatrix([[2]])) == \
        [Fraction(-2), Fraction(1)]
    assert spectral.minimal_polynomial(UNIP) == [1, -2, 1]       # (x-1)^2
    assert spectral.minimal_polynomial(SOL) == [1, -3, 1]        # x^2-3x+1
    assert spectral.minimal_polynomial(RationalMatrix.identity(3)) == [-1, 1]


def test_unipotent_factor_flags():
    rep = spectral.unipotent_factor(UNIP)
    assert rep.has_unipotent_block and not rep.semisimple
    rep = spectral.unipotent_factor(SOL)
    assert not rep.has_unipotent_block and rep.semisimple
    rep = spectral.unipotent_factor(RationalMatrix.identity(2))
    assert not rep.has_unipotent_block and rep.semisimple


def test_unipotent_factor_conjugation_invariant():
    S = RationalMatrix([[1, 2], [3, 7]])  # det 1
    Sinv = spectral.inverse_exact(S)
    for g in (UNIP, SOL):
        rep1 = spectral.unipotent_factor(g)
        rep2 = spectral.unipotent_factor(S @ g @ Sinv)
        assert rep1.semisimple == rep2.semisimple
        assert rep1.minimal_polynomial == rep2.minimal_polynomial


def test_generalized_one_eigenspace_dims():
    assert spectral.joint_generalized_one_eigenspace_dim([UNIP]) == 2
    assert spectral.joint_generalized_one_eigenspace_dim([SOL]) == 0
    assert spectral.joint_generalized_one_eigenspace_dim(
        [RationalMatrix.identity(3)]) == 3
    assert spectral.joint_generalized_one_eigenspace_dim(
        [UNIP, RationalMatrix.identity(2)]) == 2
    assert spectral.joint_generalized_one_eigenspace_dim([UNIP, SOL]) == 0


def test_exact_matrix_helpers():
    g = SOL
    ginv = spectral.inverse_exact(g)
    assert g @ ginv == RationalMatrix.identity(2)
    # the exact compound holds the minors' determinants
    rng = np.random.default_rng(2)
    A = RationalMatrix.from_numpy(rng.integers(-2, 3, size=(3, 3)))
    for p in range(4):
        idx = lie.multi_indices(3, p)
        dets = [[np.linalg.det(A.to_numpy()[np.ix_(I, J)]) for J in idx]
                for I in idx]
        cf = RationalMatrix(lie.compound_matrix(A.tolist(), p)).to_numpy()
        assert np.allclose(cf, dets)


def test_form_action_is_multiplicative():
    for b in range(3):
        lhs = spectral.form_action(UNIP @ SOL, b)
        rhs = spectral.form_action(UNIP, b) @ spectral.form_action(SOL, b)
        assert lhs == rhs


# ---------------------------------------------------------------------------
# small-count predictions
# ---------------------------------------------------------------------------

def test_predict_nil_fiber_over_point():
    pred = spectral.predict_small_count(lie.heisenberg(3), "point", 1)
    assert pred.count == 3
    assert pred.obstruction_case == 1


def test_predict_unipotent_circle():
    pred = spectral.predict_small_count(lie.abelian(2), "circle", 1,
                                        monodromy_action=[UNIP])
    assert pred.count == 3
    assert pred.obstruction_case == 2
    assert pred.per_bidegree == {(0, 1): 2, (1, 0): 1}


def test_predict_hyperbolic_circle():
    pred = spectral.predict_small_count(lie.abelian(2), "circle", 1,
                                        monodromy_action=[SOL])
    assert pred.count == 1
    assert pred.obstruction_case is None
    assert pred.per_bidegree == {(1, 0): 1}


def test_predict_circle_bundle_over_torus():
    pred = spectral.predict_small_count(lie.abelian(1), "torus2", 1,
                                        T=[Fraction(1)])
    assert pred.count == 3
    assert pred.obstruction_case == 3
    # without the curvature data the obstruction is invisible
    pred0 = spectral.predict_small_count(lie.abelian(1), "torus2", 1)
    assert pred0.count == 3 and pred0.obstruction_case is None


def test_predict_product_bundle():
    pred = spectral.predict_small_count(lie.abelian(2), "circle", 1)
    assert pred.count == 3
    assert pred.obstruction_case is None


def test_predict_rejects_unknown_base():
    with pytest.raises(InputError):
        spectral.predict_small_count(lie.abelian(2), "sphere", 1)


# ---------------------------------------------------------------------------
# the F-invariant sector, decided exactly
# ---------------------------------------------------------------------------

FLIP3 = lie.FiniteSymmetryGroup([np.eye(3), np.diag([1, 1, -1])])


def test_invariant_sector_counts_the_joint_fixed_space():
    # on the invariant 1-forms e1, e2 no nonzero form is fixed by both
    # holonomies, though each one fixes a line
    holonomies = [RationalMatrix([[1, 0, 0], [0, 2, 0], [0, 0, 1]]),
                  RationalMatrix([[2, 0, 0], [0, 1, 0], [0, 0, 1]])]
    pred = spectral.predict_small_count(lie.abelian(3), "torus2", 1,
                                        monodromy_action=holonomies, F=FLIP3)
    assert pred.count == 2
    assert pred.per_bidegree == {(1, 0): 2}


def test_invariant_sector_decides_case_two():
    # a unipotent block on the invariant 1-forms e1, e2
    pred = spectral.predict_small_count(
        lie.abelian(3), "circle", 1, F=FLIP3,
        monodromy_action=[RationalMatrix([[1, 1, 0], [0, 1, 0], [0, 0, 1]])])
    assert pred.obstruction_case == 2


def test_holonomy_leaving_the_invariant_sector_is_rejected():
    # e1 + e3 is not F-invariant, and this holonomy sends e3 to it
    with pytest.raises(InputError, match="F-invariant"):
        spectral.predict_small_count(
            lie.abelian(3), "circle", 1, F=FLIP3,
            monodromy_action=[RationalMatrix([[1, 0, 1], [0, 1, 0],
                                              [0, 0, 1]])])


def test_invariant_sector_predictions_heisenberg3():
    F = lie.FiniteSymmetryGroup([np.eye(3), np.diag([-1, -1, 1])])
    alg = lie.heisenberg(3)
    circle = spectral.predict_small_counts(
        alg, "circle", range(5), F=F,
        monodromy_action=[RationalMatrix([[2, 0, 0], [0, "1/2", 0],
                                          [0, 0, 1]])])
    torus = spectral.predict_small_counts(alg, "torus2", range(6), F=F,
                                          T=[0, 0, 1])
    assert [p.count for p in circle] == [1, 2, 2, 2, 1]
    assert [p.count for p in torus] == [1, 3, 4, 4, 3, 1]
    # de3 = -e1^e2 pairs the only invariant 1- and 2-forms
    assert [p.obstruction_case for p in circle] == [None, 1, 1, 1, 1]


def test_cohomology_action_unipotent():
    # induced holonomy on degree-1 fiber cohomology keeps the unipotent block
    a0 = spectral.AffineModel(lie.abelian(2), []).a0
    act = spectral.cohomology_action(a0, spectral.form_action(UNIP, 1), 1)
    assert not spectral.unipotent_factor(act).semisimple
