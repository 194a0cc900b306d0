"""Fiber Lie-algebra layer: validation, cohomology, curvature of the
left-invariant metric, symmetry restriction, and the rescaling family.

The numeric expectations below (curvature components, Betti numbers, graded
weights) were derived by hand from the structure constants and are frozen
here as independent oracles."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nilcollapse import lie, spectral
from nilcollapse.numerics import InputError, RationalMatrix, rank_exact
from tests.conftest import (HEIS3_SKEW, canonical, conjugated,
                            random_orthogonal, rescaled_spectra)
from tests.oracles import invariant_laplacian


HEIS3 = lie.heisenberg(3)
HEIS3_C = HEIS3.c_float()


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------

def test_preset_construction():
    assert HEIS3.n == 3
    assert HEIS3.c[0][1][2] == 1 and HEIS3.c[1][0][2] == -1
    assert lie.abelian(4).c_float().max() == 0.0
    assert lie.filiform(4).c[0][2][3] == 1
    with pytest.raises(InputError):
        lie.heisenberg(4)


def test_validate_accepts_presets():
    heis3_plus_abelian2 = lie.NilpotentLieAlgebra.from_brackets(
        5, [(0, 1, 2, 1)], name="heisenberg:3+abelian:2")
    for alg in (HEIS3, lie.abelian(2), lie.filiform(5), lie.heisenberg(5),
                heis3_plus_abelian2):
        rep = lie.validate(alg)
        assert rep.ok(), alg.name


def test_validate_flags_broken_antisymmetry():
    c = [[[Fraction(0)] * 2 for _ in range(2)] for _ in range(2)]
    c[0][1][0] = Fraction(1)  # c[1][0][0] left at 0
    rep = lie.validate(lie.NilpotentLieAlgebra(2, c))
    assert not rep.antisymmetry_ok and not rep.ok()


def test_validate_flags_non_nilpotent():
    alg = lie.NilpotentLieAlgebra.from_brackets(2, [(0, 1, 1, 1)])
    rep = lie.validate(alg)
    assert rep.antisymmetry_ok and rep.jacobi_ok and not rep.nilpotent


def test_validate_flags_jacobi_failure():
    # [e1,e2] = e3, [e1,e3] = e1 breaks the Jacobi identity on (e1,e2,e3)
    alg = lie.NilpotentLieAlgebra.from_brackets(3, [(0, 1, 2, 1), (0, 2, 0, 1)])
    assert not lie.validate(alg).jacobi_ok


def test_load_algebra_forms():
    assert lie.load_algebra("heisenberg:3").c == HEIS3.c
    alg = lie.load_algebra({"dim": 3, "brackets":
                            [{"i": 1, "j": 2, "k": 3, "c": "1"}]})
    assert alg.c == HEIS3.c
    with pytest.raises(InputError):
        lie.load_algebra({"dim": 3, "brackets": [{"i": 2, "j": 1, "k": 3, "c": "1"}]})
    with pytest.raises(InputError):
        lie.load_algebra({"brackets": []})
    with pytest.raises(InputError):
        lie.load_algebra("nosuch:3")


def test_load_algebra_reads_indices_as_integers():
    # an integral float is the integer it spells; a fractional one or a
    # bool is rejected, never truncated
    alg = lie.load_algebra({"dim": 3.0, "brackets":
                            [{"i": 1.0, "j": 2, "k": 3.0, "c": "1"}]})
    assert alg.n == 3 and alg.c == HEIS3.c
    bracket = {"i": 1, "j": 2, "k": 3, "c": "1"}
    for spec in ({"dim": 3.7, "brackets": [bracket]},
                 {"dim": True, "brackets": [bracket]},
                 {"dim": 3, "brackets": [dict(bracket, i=1.5)]},
                 {"dim": 3, "brackets": [dict(bracket, k=False)]}):
        with pytest.raises(InputError, match="must be an integer"):
            lie.load_algebra(spec)
    with pytest.raises(InputError, match="must be an integer"):
        lie.load_algebra("filiform:4.0")


def test_load_algebra_validates_what_it_loads():
    # [e1,e2] = e3, [e1,e3] = e1 breaks the Jacobi identity
    spec = {"dim": 3, "brackets": [{"i": 1, "j": 2, "k": 3, "c": 1},
                                   {"i": 1, "j": 3, "k": 1, "c": 1}]}
    with pytest.raises(InputError, match="algebra invalid"):
        lie.load_algebra(spec)
    with pytest.raises(InputError, match="algebra invalid"):
        lie.load_algebra(lie.NilpotentLieAlgebra.from_brackets(
            3, [(0, 1, 2, 1), (0, 2, 0, 1)]))


# ---------------------------------------------------------------------------
# invariant-form cohomology
# ---------------------------------------------------------------------------

def test_differential_squares_to_zero_exactly():
    for alg in (HEIS3, lie.filiform(5), lie.heisenberg(5)):
        for p in range(alg.n - 1):
            prod = lie.ce_differential(alg, p + 1) @ lie.ce_differential(alg, p)
            assert prod.is_zero()


def test_betti_numbers_frozen_oracles():
    assert lie.betti_numbers(HEIS3) == [1, 2, 2, 1]
    # filiform:4 by hand: only d(e2^e4) and d(e3^e4) are nonzero in degree 2
    assert lie.betti_numbers(lie.filiform(4)) == [1, 2, 2, 2, 1]
    # abelian: full exterior algebra survives
    assert lie.betti_numbers(lie.abelian(3)) == [1, 3, 3, 1]


def test_betti_poincare_duality_and_euler():
    for alg in (HEIS3, lie.heisenberg(5), lie.filiform(5), lie.filiform(6)):
        b = lie.betti_numbers(alg)
        assert b == b[::-1]
        assert sum((-1) ** p * bp for p, bp in enumerate(b)) == 0


def test_multi_index_sort_sign():
    idx, sgn = lie.sort_with_sign((2, 0, 1))
    assert idx == (0, 1, 2) and sgn == 1
    idx, sgn = lie.sort_with_sign((1, 0))
    assert idx == (0, 1) and sgn == -1
    assert lie.sort_with_sign((0, 0)) is None


# ---------------------------------------------------------------------------
# curvature
# ---------------------------------------------------------------------------

def test_connection_coeffs_heisenberg3():
    w = lie.connection_coeffs(HEIS3_C)
    assert w[2, 0, 1] == pytest.approx(-0.5)
    assert w[2, 1, 0] == pytest.approx(0.5)
    assert w[0, 1, 2] == pytest.approx(0.5)
    assert w[0, 2, 1] == pytest.approx(0.5)
    assert w[1, 0, 2] == pytest.approx(-0.5)
    assert w[1, 2, 0] == pytest.approx(-0.5)
    assert np.count_nonzero(np.abs(w) > 1e-14) == 6


def test_connection_is_metric_compatible():
    # w^i_jk antisymmetric in (i, j): orthonormal-frame compatibility
    for alg in (HEIS3, lie.filiform(4), lie.heisenberg(5)):
        w = lie.connection_coeffs(alg.c_float())
        assert np.abs(w + np.transpose(w, (1, 0, 2))).max() < 1e-14


def test_riemann_tensor_heisenberg3():
    R = lie.riemann_tensor(HEIS3_C)
    assert R[0, 1, 0, 1] == pytest.approx(-0.75)
    assert R[0, 2, 0, 2] == pytest.approx(0.25)
    assert R[1, 2, 1, 2] == pytest.approx(0.25)
    # pair symmetry and antisymmetry
    assert np.abs(R - np.transpose(R, (2, 3, 0, 1))).max() < 1e-14
    assert np.abs(R + np.transpose(R, (1, 0, 2, 3))).max() < 1e-14


def test_scalar_curvature_closed_forms():
    kt, ks = lie.scalar_curvature(HEIS3_C)
    assert kt == pytest.approx(-0.5, abs=1e-14)
    assert ks == pytest.approx(-0.5, abs=1e-14)
    assert lie.scalar_curvature(lie.abelian(4).c_float())[0] == 0.0
    assert lie.scalar_curvature(lie.heisenberg(5).c_float())[1] == \
        pytest.approx(-1.0)
    assert lie.scalar_curvature(lie.filiform(4).c_float())[1] == \
        pytest.approx(-1.0)


@given(st.integers(0, 10 ** 6))
@settings(max_examples=25, deadline=None)
def test_scalar_curvature_orthogonal_invariance(seed):
    rng = np.random.default_rng(seed)
    q = random_orthogonal(rng, 3)
    kt, ks = lie.scalar_curvature(conjugated(HEIS3_C, q))
    assert kt == pytest.approx(-0.5, abs=1e-9)
    assert ks == pytest.approx(-0.5, abs=1e-9)


# ---------------------------------------------------------------------------
# symmetry groups and invariant sectors
# ---------------------------------------------------------------------------

def test_symmetry_group_check():
    g = np.diag([-1.0, -1.0, 1.0])
    F = lie.FiniteSymmetryGroup([np.eye(3), g])
    F.check(HEIS3)
    with pytest.raises(InputError):
        lie.FiniteSymmetryGroup([g]).check(HEIS3)  # identity missing
    with pytest.raises(InputError):
        lie.FiniteSymmetryGroup([np.eye(3), np.diag([2.0, 1.0, 1.0])]).check(HEIS3)


def test_symmetry_group_rejects_non_automorphism():
    swap = np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
    with pytest.raises(InputError):
        lie.FiniteSymmetryGroup([np.eye(3), swap]).check(HEIS3)


def test_symmetry_group_axioms_checked_at_construction():
    # a non-group never yields a basis of "invariant" forms, with or
    # without an algebra to check against
    cases = [([np.eye(3), np.diag([2, 1, 1])], "not orthogonal"),
             ([np.diag([-1, 1, 1])], "identity"),
             ([np.eye(3), np.eye(2)], "square of one shape"),
             ([np.eye(3), np.diag([-1, 1, 1]), np.diag([1, -1, 1])],
              "not closed")]
    for elements, reason in cases:
        with pytest.raises(InputError, match=reason):
            lie.FiniteSymmetryGroup(elements)


def test_invariant_basis_dimensions():
    F = lie.FiniteSymmetryGroup([np.eye(3), np.diag([-1.0, -1.0, 1.0])])
    assert F.invariant_forms(0).cols == 1
    assert F.invariant_forms(1).cols == 1   # span(e3)
    assert F.invariant_forms(2).cols == 1   # span(e1^e2)
    assert F.invariant_forms(3).cols == 1


def test_symmetry_group_reads_exact_entries():
    # rational strings load, and membership is decided by equality
    F = lie.FiniteSymmetryGroup([[["1", "0", "0"], ["0", "1", "0"],
                                  ["0", "0", "1"]],
                                 [["-2/2", "0", "0"], ["0", "-1", "0"],
                                  ["0", "0", "3/3"]]])
    F.check(HEIS3)
    assert F.elements[1] == RationalMatrix(np.diag([-1, -1, 1]))
    assert F.invariant_forms(2) == RationalMatrix([[1], [0], [0]])
    U = np.linalg.qr(F.invariant_forms(2).to_numpy())[0]
    assert np.allclose(U.T @ U, np.eye(1)) and abs(U[0, 0]) == 1.0
    # a rotation by a non-rational angle cannot be an exact element
    c, s = np.cos(0.3), np.sin(0.3)
    with pytest.raises(InputError, match="non-integral float"):
        lie.FiniteSymmetryGroup([np.eye(3), [[c, -s, 0], [s, c, 0], [0, 0, 1]]])


def test_symmetry_group_check_needs_an_exact_algebra():
    # every algebra is exact, so a float constant is refused at construction
    # and the check always compares exact matrices
    with pytest.raises(InputError, match="non-integral float"):
        lie.NilpotentLieAlgebra(3, (0.3 * HEIS3_C).tolist())
    with pytest.raises(InputError, match="non-integral float"):
        lie.NilpotentLieAlgebra.from_brackets(3, [(0, 1, 2, 0.3)])
    lie.FiniteSymmetryGroup([np.eye(3), np.diag([-1, -1, 1])]).check(HEIS3)


def test_restricted_model_blocks_square_to_zero_exactly():
    cases = [(lie.heisenberg(5), [-1, -1, -1, -1, 1]),
             (lie.filiform(5), [-1, 1, -1, 1, -1])]
    for alg, signs in cases:
        F = lie.FiniteSymmetryGroup([np.eye(5), np.diag(signs)])
        model = spectral.AffineModel(alg, [], F=F)
        assert model.ranks == [B.cols for B in model.basis]
        assert sum(model.ranks) == 16  # half of the 32 forms
        assert not all(blk.is_zero() for blk in model.a0)
        for b in range(alg.n - 1):
            assert (model.a0[b + 1] @ model.a0[b]).is_zero()


def test_compound_matrix_properties():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((4, 4))
    B = rng.standard_normal((4, 4))

    def compound(M, p):
        return np.array(lie.compound_matrix(M.tolist(), p), dtype=float)

    for p in range(5):
        lhs = compound(A @ B, p)
        rhs = compound(A, p) @ compound(B, p)
        assert np.allclose(lhs, rhs, atol=1e-10)
    assert compound(A, 4)[0, 0] == pytest.approx(np.linalg.det(A))


@given(st.integers(0, 4), st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_compound_matrix_same_over_fractions_and_floats(n, seed):
    rng = np.random.default_rng(seed)
    A, B = rng.integers(-3, 4, size=(2, n, n))

    def exact(M, p):
        return lie.compound_matrix([[Fraction(int(x)) for x in row]
                                    for row in M], p)

    for p in range(n + 1):
        ce = exact(A, p)
        cf = lie.compound_matrix(A.astype(float).tolist(), p)
        assert not any(isinstance(x, float) for row in ce for x in row)
        # integer entries keep every float step exact
        assert np.array_equal(np.array(ce, dtype=float), np.array(cf))
        # Cauchy-Binet: C_p(AB) = C_p(A) C_p(B), exactly and in floats
        assert RationalMatrix(exact(A @ B, p)) \
            == RationalMatrix(ce) @ RationalMatrix(exact(B, p))
        cf_ab = lie.compound_matrix((A @ B).astype(float).tolist(), p)
        cf_b = lie.compound_matrix(B.astype(float).tolist(), p)
        assert np.allclose(np.array(cf_ab, dtype=float),
                           np.array(cf) @ np.array(cf_b, dtype=float))
    if n:
        assert exact(A, n)[0][0] == round(np.linalg.det(A.astype(float)))


# ---------------------------------------------------------------------------
# grading and the rescaling family
# ---------------------------------------------------------------------------

def test_lower_central_grading_heisenberg3():
    g = lie.lower_central_grading(HEIS3)
    assert g.filtration == (0, 0, 1)
    assert g.pieces == (2, 1)
    assert [g.vector_weight(i) for i in range(3)] == [1, 1, 3]
    assert g.vector_weight(2) == 3
    assert sum(map(g.vector_weight, (0, 2))) == 4
    assert g.gram == (1, 1, 1) and g.algebra.c == HEIS3.c
    # the same algebra in a basis not adapted to its filtration: an exact
    # orthogonal adapted basis, with a rational Gram
    skew = lie.load_algebra(HEIS3_SKEW)
    g = lie.lower_central_grading(skew)
    assert g.filtration == (0, 0, 1) and g.pieces == (2, 1)
    assert g.gram == (Fraction(1, 2), 1, 2)
    assert all(map(canonical, g.gram))
    assert lie.validate(g.algebra).ok()
    assert lie.betti_numbers(g.algebra) == [1, 2, 2, 1]


def test_lower_central_grading_filiform4():
    g = lie.lower_central_grading(lie.filiform(4))
    assert g.filtration == (0, 0, 1, 2)
    assert g.pieces == (2, 1, 1)
    assert [g.vector_weight(i) for i in range(4)] == [1, 1, 3, 9]


def test_grading_rejects_bad_input():
    with pytest.raises(InputError):
        lie.lower_central_grading(
            lie.NilpotentLieAlgebra.from_brackets(2, [(0, 1, 1, 1)]))


def test_invariant_laplacian_kernels_heisenberg3():
    expected = [1, 2, 2, 1]
    for p in range(4):
        lap = invariant_laplacian(HEIS3, p)
        w = np.linalg.eigvalsh(lap)
        assert int(np.sum(np.abs(w) < 1e-12)) == expected[p]


def test_rescaled_differential_squares_to_zero():
    # the rescaling conjugates the differential of the adapted algebra, so
    # it squares to zero when that exact differential does
    for alg in (HEIS3, lie.load_algebra(HEIS3_SKEW), lie.filiform(5)):
        adapted = lie.lower_central_grading(alg).algebra
        for p in range(alg.n - 1):
            assert (lie.ce_differential(adapted, p + 1)
                    @ lie.ce_differential(adapted, p)).is_zero()


def test_rescaled_spectrum_heisenberg3_exact():
    sweep = (1e-1, 1e-2, 1e-3)
    for eps, rep in zip(sweep, rescaled_spectra(HEIS3, 1, sweep)):
        assert np.allclose(rep.eigenvalues, [0.0, 0.0, eps], atol=1e-15)
    # [f1, f2] has length 2 in the orthonormal adapted basis
    for p in (1, 2):
        for eps, rep in zip(sweep, rescaled_spectra(HEIS3_SKEW, p, sweep)):
            assert np.allclose(rep.eigenvalues, [0.0, 0.0, 4 * eps],
                               rtol=1e-12, atol=0.0)


def test_rescaled_spectrum_limits_to_betti_kernel():
    # as eps -> 0 the kernel dimension grows to the full small count
    rep1, rep2 = rescaled_spectra(lie.filiform(4), 1, (1.0, 1e-6))
    zeros = int(np.sum(rep1.eigenvalues < 1e-12))
    near = int(np.sum(rep2.eigenvalues < 1e-3))
    assert zeros == lie.betti_numbers(lie.filiform(4))[1]
    assert near >= zeros


def test_bracket_matrix_and_center():
    ad1 = HEIS3.bracket_matrix(0)
    assert ad1.tolist()[2][1] == 1  # [e1, e2] = e3
    assert rank_exact(ad1) == 1
