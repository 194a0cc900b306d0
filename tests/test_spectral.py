"""Exact bigraded complexes, their pages, and the small-eigenvalue count
predictions. Cross-checked four independent ways: total cohomology, the
closed-form circle answer (invariants plus coinvariants), page-by-page
recursion on randomly generated flat complexes, and pages built from r-tuple
spaces (`tests.oracles.tuple_page`)."""

import hashlib
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nilcollapse import lie, spectral
from nilcollapse.numerics import (InputError, RationalMatrix, rank_exact,
                                 read_json)
from tests.conftest import (HEIS3_SKEW, canonical, filiform_torus_complex,
                            random_flat_complex, random_flat_complex_on, spy,
                            weight_complex)
from tests.oracles import (from_algebra, from_numpy, leray_circle,
                           rectangle_page, tuple_page, window_rank)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402  the benchmark's filiform payloads

UNIP = RationalMatrix([[1, 1], [0, 1]])
SOL = RationalMatrix([[2, 1], [1, 1]])


def torus_fiber_actions(g):
    """The action of g (an exact 2x2 holonomy) on the 0-, 1- and 2-forms of
    the 2-torus fiber."""
    model = spectral.AffineModel(lie.abelian(2), [g])
    return model.monodromies[0]


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
    # sum vanishes, at c = 1. The listed zero D_0 at (1, 1) is passed over,
    # and stays stored
    def cx(c):
        one = RationalMatrix([[1]])
        dims = {(0, 1): 1, (0, 2): 1, (1, 1): 1, (1, 2): 1, (2, 0): 1,
                (2, 1): 1}
        return spectral.BigradedComplex(dims, {
            0: {(0, 1): one, (1, 1): RationalMatrix([["0"]]),
                (2, 0): RationalMatrix([[c]])},
            1: {(0, 1): one, (1, 1): RationalMatrix([[-2]])},
            2: {(0, 1): one, (0, 2): one}})

    assert cx(1).total_dim(1) == 1
    assert cx(1).maps[0][(1, 1)].is_zero()
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


ONE = [[1]]


@pytest.mark.parametrize("ranks, a0, monodromies, kind, reason", [
    ([1, 1], [[[0]]], [[ONE]], "circle",
     "need 2 monodromy[0] blocks, got 1"),
    ([1, 1], [], [[ONE, ONE]], "circle", "need 1 a0 blocks, got 0"),
    ([1, 1, 1], [ONE, ONE, ONE], [], "point", "need 2 a0 blocks, got 3"),
    ([1, 1], [ONE], [[ONE, ONE], [ONE, ONE, ONE]], "torus2",
     "need 2 monodromy[1] blocks, got 3"),
    ([1, 1], [ONE], [[ONE, ONE]], "point",
     "a point base needs 0 monodromy generators, got 1"),
    ([1, 1], [ONE], [[ONE, ONE]], "torus2",
     "a torus2 base needs 2 monodromy generators, got 1"),
    ([1, 2], [[[1, 0]]], [[ONE, [[1, 0], [0, 1]]]], "circle",
     "a0[0] has wrong shape (1, 2), expected (2, 1)"),
], ids=["short-monodromy", "no-a0", "third-a0", "third-monodromy",
        "point-with-generator", "torus2-with-one-generator", "a0-shape"])
def test_flat_bundle_complex_names_the_bad_block(ranks, a0, monodromies,
                                                 kind, reason):
    # every block is read by numerics.read_blocks; a missing or extra block
    # used to raise a bare IndexError, and a point dropped its generator
    with pytest.raises(InputError) as exc:
        spectral.flat_bundle_complex(ranks, a0, monodromies, kind)
    assert str(exc.value) == reason


def _sha256(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()
                          ).hexdigest()


def test_koszul_complexes_are_the_ones_of_the_kind_branches():
    # to_dict digests of three complexes as the point, circle and torus2
    # branches built them, before the one Koszul loop replaced them
    torus = workloads._filiform_payload(random.Random(0), 0, 5)
    t2 = spectral.AffineModel(lie.abelian(2), [UNIP])
    circle = spectral.flat_bundle_complex(
        t2.ranks, t2.a0, t2.monodromies, "circle")
    h3 = spectral.AffineModel(lie.heisenberg(3), [])
    point = spectral.flat_bundle_complex(h3.ranks, h3.a0, [], "point")
    assert [_sha256(torus), _sha256(circle.to_dict()),
            _sha256(point.to_dict())] == [
        "df6d7d6948f185c99635b9368172e8df76bbab8b120684ee789a023121fbf30e",
        "a5e505a41146b79bd8b2543ca1be19ade330a06fbd92fa701b00792706b13efd",
        "39be36d6b994f3ec16e55fd1651827e9c584c7c4d6b67d3e85aaaef8c7d26392"]


def test_total_complex_bookkeeping():
    cx = from_algebra(lie.heisenberg(3))
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
        assert len(cx.pairs(p)) == rank_exact(full)
        # the same matrix placed block by block from the D_i
        oracle = np.zeros((full.rows, full.cols))
        r_off, c_off = offsets(rows), offsets(cols)
        for s in cols:
            for i, per_spot in cx.maps.items():
                t = (s[0] + i, s[1] + 1 - i)
                if t in r_off and s in per_spot:
                    oracle[r_off[t]:r_off[t] + cx.dim(*t),
                           c_off[s]:c_off[s] + cx.dim(*s)] = \
                        per_spot[s].to_numpy()
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
    assert cx2.dims == cx.dims and cx2.maps == cx.maps
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
        assert cx.maps[0][(0, 0)].tolist() == [[want]]


# ---------------------------------------------------------------------------
# pages
# ---------------------------------------------------------------------------

def test_page_zero_returns_raw_dimensions():
    cx = from_algebra(lie.heisenberg(3))
    p0 = spectral.page(cx, 0)
    assert p0.dims == {(0, 0): 1, (0, 1): 3, (0, 2): 3, (0, 3): 1}


def test_one_column_complex_stabilizes_at_page_one():
    cx = from_algebra(lie.heisenberg(3))
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


def test_pairs_count_the_rank_and_are_memoized(monkeypatch):
    cx = filiform_torus_complex(4)
    first = spectral.page(cx, 1)
    pairs = [cx.pairs(p) for p in range(9)]
    assert [len(ps) for ps in pairs] == [
        rank_exact(cx.block(cx.total_spots(p + 1), cx.total_spots(p)))
        for p in range(9)]
    # no elimination is made again
    monkeypatch.setattr(spectral, "pivot_pairs", None)
    assert [cx.pairs(p) for p in range(9)] == pairs
    assert spectral.page(cx, 1) == first
    assert spectral.spectral_sequence(cx).pages[0] == first


def twisted_heisenberg_torus_complex():
    """Torus2 complex of heisenberg:3 with the commuting unipotent holonomies
    A and A^2 and a2 the contraction by the central direction e3."""
    A = RationalMatrix([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    model = spectral.AffineModel(lie.heisenberg(3), [A, A @ A], T=[0, 0, 1])
    return spectral.flat_bundle_complex(model.ranks, model.a0,
                                        model.monodromies, "torus2",
                                        a2=model.a2)


def test_pairs_count_every_window_rank():
    # R_n(lo, hi) is the leading corner of the block with rows a ascending
    # and columns a descending: the pairs with a_col >= lo and a_row < hi
    cases = [filiform_torus_complex(4), twisted_heisenberg_torus_complex()]
    cases += [spectral.BigradedComplex.from_dict(
        workloads._filiform_payload(random.Random(seed), seed, 5))
        for seed in range(4)]
    for cx in cases:
        for n in range(cx.top_total_degree() + 1):
            for lo in range(-1, cx.a_max + 2):
                for hi in range(lo, cx.a_max + 3):
                    assert sum(1 for (a, _), length in cx.pairs(n)
                               if a >= lo and a + length < hi) == \
                        window_rank(cx, n, lo, hi), (n, lo, hi)
    # the twist gives the heisenberg model pairs of length 1, a nonzero d_1
    assert any(length == 1 for _, length in cases[1].pairs(1))


def test_check_complex_multiplies_only_nonzero_maps(monkeypatch):
    # the seed-0 filiform:5 payload lists 32 maps, 18 of them zero: of the
    # 48 products D_i D_j of listed maps, the 12 without a zero factor are
    # formed, and the payload reads back as it was written
    payload = workloads._filiform_payload(random.Random(0), 0, 5)
    cx = spectral.BigradedComplex.from_dict(payload)
    assert cx.to_dict() == payload
    products = []
    spy(monkeypatch, RationalMatrix, "__matmul__", products, None)
    cx.check_complex()
    assert len(products) == 12


def test_benchmark_payload_is_stored_as_ints():
    # the seed-0 filiform:5 payload is all integer strings: reading it makes
    # no Fraction, so its eliminations do integer arithmetic
    cx = spectral.BigradedComplex.from_dict(
        workloads._filiform_payload(random.Random(0), 0, 5))
    entries = [x for per_spot in cx.maps.values() for mat in per_spot.values()
               for row in mat.tolist() for x in row]
    assert entries and all(type(x) is int for x in entries)


def _filtered_conjugate(cx, rng):
    """cx with each total differential D_n replaced by P_{n+1} D_n P_n^-1:
    P_n is a random exact change of basis of degree n, invertible at each
    spot and block lower triangular in a, so it keeps the filtration."""
    def rand(rows, cols):
        return RationalMatrix(rng.integers(-2, 3, size=(rows, cols)).tolist(),
                              cols=cols)

    def change(spots):
        blocks = {}
        for r, t in enumerate(spots):
            for c, s in enumerate(spots):
                if t == s:
                    blocks[r, c] = rand(cx.dim(*t), cx.dim(*s))
                    while rank_exact(blocks[r, c]) < cx.dim(*t):
                        blocks[r, c] = rand(cx.dim(*t), cx.dim(*s))
                elif t[0] > s[0]:
                    blocks[r, c] = rand(cx.dim(*t), cx.dim(*s))
        dims = [cx.dim(*s) for s in spots]
        return RationalMatrix.from_blocks(blocks, dims, dims)

    P = [change(cx.total_spots(n)) for n in range(cx.top_total_degree() + 1)]
    maps = {}
    for n in range(cx.top_total_degree()):
        rows, cols = cx.total_spots(n + 1), cx.total_spots(n)
        D = (P[n + 1] @ cx.block(rows, cols)
             @ spectral.inverse_exact(P[n])).tolist()
        r0 = 0
        for t in rows:
            c0 = 0
            for s in cols:
                if t[0] >= s[0]:
                    maps.setdefault(t[0] - s[0], {})[s] = [
                        row[c0:c0 + cx.dim(*s)]
                        for row in D[r0:r0 + cx.dim(*t)]]
                c0 += cx.dim(*s)
            r0 += cx.dim(*t)
    return spectral.BigradedComplex(cx.dims, maps)


@given(st.integers(1, 4), st.integers(1, 3), st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_pages_do_not_see_a_filtered_change_of_basis(a_max, b_max, seed):
    # the pairs depend on the order of rows and columns inside a filtration
    # level, the pages must not
    rng = np.random.default_rng(seed)
    cx = random_flat_complex(rng, a_max, b_max)
    cx2 = _filtered_conjugate(cx, rng)
    for r in range(cx.a_max + 2):
        assert spectral.page(cx2, r) == spectral.page(cx, r)
    assert spectral.spectral_sequence(cx2).stabilizes_at == \
        spectral.spectral_sequence(cx).stabilizes_at


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
        spectral.spectral_sequence(from_algebra(lie.heisenberg(3)))


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


def test_poly_gcd_of_integer_polynomials_stays_exact():
    # gcd(x^2 - 2, 2x) = 1: the division by a leading coefficient of int
    # polynomials is exact, never int / int, a float
    g = spectral._poly_gcd([-2, 0, 1], [0, 2])
    assert g == [1] and all(map(canonical, g))
    g = spectral._poly_gcd([3, 0, 3], [0, 2, 0, 2])  # gcd = x^2 + 1
    assert g == [1, 0, 1] and all(map(canonical, g))
    assert spectral._poly_mod([1, 0, 2], [1, 2]) == [Fraction(3, 2)]


def test_unipotent_factor_flags():
    assert not spectral.unipotent_factor(UNIP).semisimple
    assert spectral.unipotent_factor(SOL).semisimple
    assert spectral.unipotent_factor(RationalMatrix.identity(2)).semisimple


def test_unipotent_factor_conjugation_invariant():
    S = RationalMatrix([[1, 2], [3, 7]])  # det 1
    Sinv = spectral.inverse_exact(S)
    for g in (UNIP, SOL):
        rep1 = spectral.unipotent_factor(g)
        rep2 = spectral.unipotent_factor(S @ g @ Sinv)
        assert rep1.semisimple == rep2.semisimple
        assert rep1.minimal_polynomial == rep2.minimal_polynomial


def test_generalized_one_eigenspace_dims(monkeypatch):
    assert spectral.joint_generalized_one_eigenspace_dim([UNIP]) == 2
    assert spectral.joint_generalized_one_eigenspace_dim([SOL]) == 0
    assert spectral.joint_generalized_one_eigenspace_dim(
        [RationalMatrix.identity(3)]) == 3
    assert spectral.joint_generalized_one_eigenspace_dim(
        [UNIP, RationalMatrix.identity(2)]) == 2
    assert spectral.joint_generalized_one_eigenspace_dim([UNIP, SOL]) == 0
    # the powers of Phi - I stop at the first zero one: none for the
    # identity, A^2 for a Jordan block of size 2, A^n for an invertible A
    jordan = RationalMatrix([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0],
                             [0, 0, 0, 1]])
    for phi, dim, matmuls in [(RationalMatrix.identity(4), 4, 0),
                              (jordan, 4, 1), (SOL, 0, 1)]:
        products = []
        spy(monkeypatch, RationalMatrix, "__matmul__", products, None)
        assert spectral.joint_generalized_one_eigenspace_dim([phi]) == dim
        monkeypatch.undo()
        assert len(products) == matmuls


def test_exact_matrix_helpers():
    g = SOL
    ginv = spectral.inverse_exact(g)
    assert g @ ginv == RationalMatrix.identity(2)
    # the exact compound holds the minors' determinants
    rng = np.random.default_rng(2)
    A = from_numpy(rng.integers(-2, 3, size=(3, 3)))
    for p in range(4):
        idx = lie.multi_indices(3, p)
        dets = [[np.linalg.det(A.to_numpy()[np.ix_(I, J)]) for J in idx]
                for I in idx]
        cf = RationalMatrix(lie.compound_matrix(A.tolist(), p)).to_numpy()
        assert np.allclose(cf, dets)


def test_form_action_is_multiplicative():
    model = spectral.AffineModel(lie.abelian(2), [UNIP @ SOL, UNIP, SOL])
    for both, unip, sol in zip(*model.monodromies):  # per degree
        assert both == unip @ sol


# ---------------------------------------------------------------------------
# small-count predictions
# ---------------------------------------------------------------------------

def test_predict_nil_fiber_over_point():
    [pred] = spectral.predict_small_counts(
        spectral.AffineModel(lie.heisenberg(3), []), "point", [1])
    assert pred.count == 3
    assert pred.obstruction_case == 1


def test_predict_unipotent_circle():
    [pred] = spectral.predict_small_counts(
        spectral.AffineModel(lie.abelian(2), [UNIP]), "circle", [1])
    assert pred.count == 3
    assert pred.obstruction_case == 2
    assert pred.per_bidegree == {(0, 1): 2, (1, 0): 1}


def test_predict_hyperbolic_circle():
    [pred] = spectral.predict_small_counts(
        spectral.AffineModel(lie.abelian(2), [SOL]), "circle", [1])
    assert pred.count == 1
    assert pred.obstruction_case is None
    assert pred.per_bidegree == {(1, 0): 1}


def test_predict_circle_bundle_over_torus():
    eye = [RationalMatrix.identity(1)] * 2
    [pred] = spectral.predict_small_counts(
        spectral.AffineModel(lie.abelian(1), eye, T=[Fraction(1)]), "torus2",
        [1])
    assert pred.count == 3
    assert pred.obstruction_case == 3
    # without the curvature data the obstruction is invisible
    [pred0] = spectral.predict_small_counts(
        spectral.AffineModel(lie.abelian(1), eye), "torus2", [1])
    assert pred0.count == 3 and pred0.obstruction_case is None


def test_predict_product_bundle():
    [pred] = spectral.predict_small_counts(spectral.AffineModel(
        lie.abelian(2), [RationalMatrix.identity(2)]), "circle", [1])
    assert pred.count == 3
    assert pred.obstruction_case is None


def test_predict_rejects_unknown_base():
    with pytest.raises(InputError):
        spectral.predict_small_counts(spectral.AffineModel(
            lie.abelian(2), [RationalMatrix.identity(2)]), "sphere", [1])


def test_predict_needs_one_holonomy_per_base_generator():
    # the model carries its holonomies; the base kind must have as many
    # generators
    model = spectral.AffineModel(lie.abelian(2), [UNIP])
    for kind, k in (("point", 0), ("torus2", 2)):
        with pytest.raises(InputError, match=f"a {kind} base needs {k} "
                           "monodromy generators, got 1"):
            spectral.predict_small_counts(model, kind, [1])


def test_curvature_term_needs_a_two_dimensional_base():
    # a2 over a circle or a point used to be dropped without a word: the
    # prediction read 1, 4, 6 with and without T
    alg, T = lie.heisenberg(3), [0, 0, 1]
    for kind, holonomies in (("circle", [RationalMatrix.identity(3)]),
                             ("point", [])):
        model = spectral.AffineModel(alg, holonomies, T=T)
        with pytest.raises(InputError, match="a2 needs a 2-dimensional base"):
            spectral.predict_small_counts(model, kind, [0, 1, 2])
        with pytest.raises(InputError, match="a2 needs a 2-dimensional base"):
            spectral.flat_bundle_complex(model.ranks, model.a0,
                                         model.monodromies, kind, a2=model.a2)
    counts = spectral.predict_small_counts(spectral.AffineModel(
        alg, [RationalMatrix.identity(3)]), "circle", [0, 1, 2])
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
    [pred] = spectral.predict_small_counts(
        spectral.AffineModel(lie.abelian(3), holonomies, F=FLIP3), "torus2",
        [1])
    assert pred.count == 2
    assert pred.per_bidegree == {(1, 0): 2}


def test_invariant_sector_decides_case_two():
    # a unipotent block on the invariant 1-forms e1, e2
    [pred] = spectral.predict_small_counts(spectral.AffineModel(
        lie.abelian(3), [RationalMatrix([[1, 1, 0], [0, 1, 0], [0, 0, 1]])],
        F=FLIP3), "circle", [1])
    assert pred.obstruction_case == 2


def test_holonomy_leaving_the_invariant_sector_is_rejected():
    # e1 + e3 is not F-invariant, and this holonomy sends e3 to it
    with pytest.raises(InputError, match="F-invariant"):
        spectral.AffineModel(
            lie.abelian(3), [RationalMatrix([[1, 0, 1], [0, 1, 0], [0, 0, 1]])],
            F=FLIP3)


def test_invariant_sector_predictions_heisenberg3():
    F = lie.FiniteSymmetryGroup([np.eye(3), np.diag([-1, -1, 1])])
    alg = lie.heisenberg(3)
    circle = spectral.predict_small_counts(spectral.AffineModel(
        alg, [RationalMatrix([[2, 0, 0], [0, "1/2", 0], [0, 0, 1]])], F=F),
        "circle", range(5))
    torus = spectral.predict_small_counts(spectral.AffineModel(
        alg, [RationalMatrix.identity(3)] * 2, T=[0, 0, 1], F=F), "torus2",
        range(6))
    assert [p.count for p in circle] == [1, 2, 2, 2, 1]
    assert [p.count for p in torus] == [1, 3, 4, 4, 3, 1]
    # de3 = -e1^e2 pairs the only invariant 1- and 2-forms
    assert [p.obstruction_case for p in circle] == [None, 1, 1, 1, 1]


def test_cohomology_action_unipotent():
    # induced holonomy on degree-1 fiber cohomology keeps the unipotent block
    a0 = spectral.AffineModel(lie.abelian(2), []).a0
    act = spectral.cohomology_action(a0, torus_fiber_actions(UNIP)[1], 1)
    assert not spectral.unipotent_factor(act).semisimple
