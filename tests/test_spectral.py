"""Exact bigraded complexes, their pages, and the small-eigenvalue count
predictions. Cross-checked four independent ways: total cohomology, the
closed-form circle answer (invariants plus coinvariants), page-by-page
recursion on randomly generated flat complexes, and pages built from r-tuple
spaces (`tests.oracles.tuple_page`)."""

import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nilcollapse import lie, spectral
from nilcollapse.numerics import (InputError, RationalMatrix, rank_exact,
                                 read_json)
from tests.conftest import (HEIS3_SKEW, filiform_torus_complex,
                            random_flat_complex, random_flat_complex_on,
                            weight_complex)
from tests.oracles import leray_circle, rectangle_page, tuple_page

UNIP = RationalMatrix([[1, 1], [0, 1]])
SOL = RationalMatrix([[2, 1], [1, 1]])


def torus_fiber_actions(g):
    """The action of g (an exact 2x2 holonomy) on the 0-, 1- and 2-forms of
    the 2-torus fiber."""
    model = spectral.AffineModel(lie.abelian(2), [g])
    return [model.actions(b)[0] for b in range(3)]


def circle_model(g):
    """Torus fiber over the circle with holonomy g (an exact 2x2 matrix)."""
    ranks = [1, 2, 1]
    a0 = [RationalMatrix.zeros(2, 1), RationalMatrix.zeros(1, 2)]
    monos = [torus_fiber_actions(g)]
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


def test_complex_rejects_filtration_lowering_map():
    # shapes fit, but a D_-1 has no place in the pages
    dims = {(1, 0): 1, (0, 2): 1}
    with pytest.raises(InputError, match=r"D_-1 at \(1, 0\) lowers the "
                       r"filtration: every shift must be >= 0"):
        spectral.BigradedComplex(dims, {-1: {(1, 0): RationalMatrix([[1]])}})


def test_check_complex_sums_the_products_of_one_total_shift():
    # in total shift 2 at (0, 1) the products D_2 D_0 = 1, D_1 D_1 = -2 and
    # D_0 D_2 = c are each nonzero, and no two of them cancel: only their
    # sum vanishes, at c = 1
    def cx(c):
        one = RationalMatrix([[1]])
        dims = {(0, 1): 1, (0, 2): 1, (1, 1): 1, (2, 0): 1, (2, 1): 1}
        return spectral.BigradedComplex(dims, {
            0: {(0, 1): one, (2, 0): RationalMatrix([[c]])},
            1: {(0, 1): one, (1, 1): RationalMatrix([[-2]])},
            2: {(0, 1): one, (0, 2): one}})

    assert cx(1).total_dim(1) == 1
    with pytest.raises(InputError, match=r"D\^2 != 0 in total shift 2 at "
                       r"spot \(0, 1\)"):
        cx(-1)


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
    assert sorted(cx.maps) == [0, 1, 2]

    def offsets(spots):
        out, k = {}, 0
        for s in spots:
            out[s] = k
            k += cx.dim(*s)
        return out

    for p in range(cx.top_total_degree()):
        rows, cols = cx.total_spots(p + 1), cx.total_spots(p)
        full = cx.block(rows, cols)
        assert cx.window_rank(p, 0, cx.a_max + 1) == rank_exact(full)
        # the same matrix placed block by block from the D_i
        oracle = np.zeros((full.rows, full.cols))
        r_off, c_off = offsets(rows), offsets(cols)
        for s in cols:
            for i in sorted(cx.maps):
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
            assert (cx.block(cx.total_spots(p + 2), rows) @ full).is_zero()


def test_serialization_round_trip(tmp_path):
    cx = circle_model(UNIP)
    cx2 = spectral.BigradedComplex.from_dict(cx.to_dict())
    assert cx2.dims == cx.dims
    for i in sorted(cx.maps):
        for spot in cx.dims:
            assert cx2.D(i, *spot) == cx.D(i, *spot)
    path = tmp_path / "cx.json"
    path.write_text(json.dumps(cx.to_dict()))
    cx3 = spectral.BigradedComplex.from_dict(read_json(path, "complex"))
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


def test_page_visits_only_the_spots_of_the_complex():
    # deep and sparse: 16 of the 11 x 11 spots occupied, and a d_10 possible
    # from (0, 10) to (10, 1); the tuple spaces of the whole rectangle agree
    deepest = set()
    for seed in range(3):
        rng = np.random.default_rng(seed)
        dims = {(0, 10): 1, (10, 1): 1}
        while len(dims) < 16:
            spot = tuple(int(x) for x in rng.integers(0, 11, size=2))
            dims[spot] = int(rng.integers(1, 3))
        cx = random_flat_complex_on(rng, dims)
        assert cx.a_max == 10 and len(cx.dims) == 16
        for r in range(1, cx.a_max + 2):
            want, want_ranks = rectangle_page(cx, r)
            assert all(d == 0 for spot, d in want.items() if spot not in cx.dims)
            pg = spectral.page(cx, r)
            assert pg.dims == {s: d for s, d in want.items() if d}
            assert pg.d_ranks == want_ranks
            if pg.d_ranks:
                deepest.add(r)
    assert max(deepest) >= 5


def test_window_rank_is_clamped_and_memoized(monkeypatch):
    cx = filiform_torus_complex(4)
    whole = [cx.window_rank(p, 0, cx.a_max + 1) for p in range(9)]
    assert whole == [rank_exact(cx.block(cx.total_spots(p + 1),
                                         cx.total_spots(p))) for p in range(9)]
    monkeypatch.setattr(spectral, "rank_exact", None)  # no rank is taken again
    assert [cx.window_rank(p, -3, 99) for p in range(9)] == whole
    assert cx.window_rank(4, 2, 2) == cx.window_rank(4, 5, 1) == 0


def _assert_pages_match_the_oracle(cx):
    for r in range(cx.a_max + 2):
        pg = spectral.page(cx, r)
        dims, d_ranks = tuple_page(cx, r)
        assert pg.dims == {s: d for s, d in dims.items() if d}
        assert pg.d_ranks == d_ranks


@given(st.integers(1, 4), st.integers(1, 3), st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_page_matches_the_tuple_space_oracle(a_max, b_max, seed):
    _assert_pages_match_the_oracle(
        random_flat_complex(np.random.default_rng(seed), a_max, b_max))


@pytest.mark.parametrize("name, drops", [
    ("heisenberg:3", [{1: 1}, {1: 1}]),
    ("filiform:4", [{1: 1, 5: 1}, {1: 2, 5: 2}]),
    ("filiform:5", [{1: 1, 5: 1, 17: 1}, {1: 3, 5: 3, 17: 1}]),
    pytest.param(HEIS3_SKEW, [{1: 1}, {1: 1}], id="heisenberg:3-skew"),
])
def test_weight_filtration_predicts_the_rates(name, drops):
    # the eigenvalues of order eps^r of the nil_rescale Laplacian in degree
    # p number E_r - E_{r+1} of the weight complex in total degree p + OFF,
    # and the zero modes the E_infinity total
    algebra = lie.load_algebra(name)
    cx = weight_complex(algebra)
    off = cx.a_max  # the 0-form, of weight 0, sits at a = f_max = OFF
    seq = spectral.spectral_sequence(cx)
    for p, want in zip((1, 2), drops):
        totals = [pg.total(p + off) for pg in seq.pages]
        assert {pg.r: t - u for pg, t, u in zip(seq.pages, totals, totals[1:])
                if t != u} == want
    assert [seq.stable.total(p + off) for p in range(algebra.n + 1)] == \
        lie.betti_numbers(algebra)
    if name == "filiform:4":
        _assert_pages_match_the_oracle(cx)


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
    monos = torus_fiber_actions(UNIP)
    assert [leray_circle(monos, p) for p in range(4)] == [1, 2, 2, 1]


def test_leray_circle_closed_form_hyperbolic():
    monos = torus_fiber_actions(SOL)
    assert [leray_circle(monos, p) for p in range(4)] == [1, 1, 1, 1]


def test_leray_matches_stable_page_for_nil_fiber():
    # 3-dim nilpotent fiber over the circle with trivial holonomy
    alg = lie.heisenberg(3)
    ranks = [len(lie.multi_indices(3, b)) for b in range(4)]
    a0 = [lie.ce_differential(alg, b) for b in range(3)]
    eye = [RationalMatrix.identity(r) for r in ranks]
    cx = spectral.flat_bundle_complex(ranks, a0, [eye], "circle")
    betti = lie.betti_numbers(alg)
    monos = [RationalMatrix.identity(b) for b in betti]
    expect = [leray_circle(monos, p) for p in range(5)]
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
        monos = torus_fiber_actions(g)
        assert spectral.spectral_sequence(cx).stable.totals() == \
            [leray_circle(monos, p) for p in range(4)]


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
    model = spectral.AffineModel(lie.abelian(2), [UNIP @ SOL, UNIP, SOL])
    for b in range(3):
        both, unip, sol = model.actions(b)
        assert both == unip @ sol


# ---------------------------------------------------------------------------
# small-count predictions
# ---------------------------------------------------------------------------

def test_predict_nil_fiber_over_point():
    [pred] = spectral.predict_small_counts(lie.heisenberg(3), "point", [1])
    assert pred.count == 3
    assert pred.obstruction_case == 1


def test_predict_unipotent_circle():
    [pred] = spectral.predict_small_counts(lie.abelian(2), "circle", [1],
                                           monodromy_action=[UNIP])
    assert pred.count == 3
    assert pred.obstruction_case == 2
    assert pred.per_bidegree == {(0, 1): 2, (1, 0): 1}


def test_predict_hyperbolic_circle():
    [pred] = spectral.predict_small_counts(lie.abelian(2), "circle", [1],
                                           monodromy_action=[SOL])
    assert pred.count == 1
    assert pred.obstruction_case is None
    assert pred.per_bidegree == {(1, 0): 1}


def test_predict_circle_bundle_over_torus():
    [pred] = spectral.predict_small_counts(lie.abelian(1), "torus2", [1],
                                           T=[Fraction(1)])
    assert pred.count == 3
    assert pred.obstruction_case == 3
    # without the curvature data the obstruction is invisible
    [pred0] = spectral.predict_small_counts(lie.abelian(1), "torus2", [1])
    assert pred0.count == 3 and pred0.obstruction_case is None


def test_predict_product_bundle():
    [pred] = spectral.predict_small_counts(lie.abelian(2), "circle", [1])
    assert pred.count == 3
    assert pred.obstruction_case is None


def test_predict_rejects_unknown_base():
    with pytest.raises(InputError):
        spectral.predict_small_counts(lie.abelian(2), "sphere", [1])


def test_curvature_term_needs_a_two_dimensional_base():
    # a2 over a circle or a point used to be dropped without a word: the
    # prediction read 1, 4, 6 with and without T
    alg, T = lie.heisenberg(3), [0, 0, 1]
    for kind, holonomies in (("circle", [RationalMatrix.identity(3)]),
                             ("point", [])):
        with pytest.raises(InputError, match="a2 needs a 2-dimensional base"):
            spectral.predict_small_counts(alg, kind, [0, 1, 2],
                                          monodromy_action=holonomies, T=T)
        model = spectral.AffineModel(alg, holonomies, T=T)
        monos = [list(m) for m in zip(*map(model.actions, range(4)))]
        with pytest.raises(InputError, match="a2 needs a 2-dimensional base"):
            spectral.flat_bundle_complex(model.ranks, model.a0, monos, kind,
                                         a2=model.a2)
    counts = spectral.predict_small_counts(alg, "circle", [0, 1, 2])
    assert [pred.count for pred in counts] == [1, 4, 6]


# ---------------------------------------------------------------------------
# the F-invariant sector, decided exactly
# ---------------------------------------------------------------------------

FLIP3 = lie.FiniteSymmetryGroup([np.eye(3), np.diag([1, 1, -1])])


def test_invariant_sector_counts_the_joint_fixed_space():
    # on the invariant 1-forms e1, e2 no nonzero form is fixed by both
    # holonomies, though each one fixes a line
    holonomies = [RationalMatrix([[1, 0, 0], [0, 2, 0], [0, 0, 1]]),
                  RationalMatrix([[2, 0, 0], [0, 1, 0], [0, 0, 1]])]
    [pred] = spectral.predict_small_counts(lie.abelian(3), "torus2", [1],
                                           monodromy_action=holonomies,
                                           F=FLIP3)
    assert pred.count == 2
    assert pred.per_bidegree == {(1, 0): 2}


def test_invariant_sector_decides_case_two():
    # a unipotent block on the invariant 1-forms e1, e2
    [pred] = spectral.predict_small_counts(
        lie.abelian(3), "circle", [1], F=FLIP3,
        monodromy_action=[RationalMatrix([[1, 1, 0], [0, 1, 0], [0, 0, 1]])])
    assert pred.obstruction_case == 2


def test_holonomy_leaving_the_invariant_sector_is_rejected():
    # e1 + e3 is not F-invariant, and this holonomy sends e3 to it
    with pytest.raises(InputError, match="F-invariant"):
        spectral.predict_small_counts(
            lie.abelian(3), "circle", [1], F=FLIP3,
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
    act = spectral.cohomology_action(a0, torus_fiber_actions(UNIP)[1], 1)
    assert not spectral.unipotent_factor(act).semisimple
