"""The rounding rule for raw eigenvalues, the zero rule and multiplicative
spectrum closeness."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from nilcollapse import lie, spectral, superconnection as sconn
from nilcollapse.numerics import InputError
from nilcollapse.report import ZERO_TOL, SpectrumReport, closeness_epsilon
from tests import oracles
from tests.conftest import rescaled_spectra


def test_spectrum_report_sorts_and_splits():
    rep = SpectrumReport.from_eigenvalues(1, [4.0, 0.0, 1e-4])
    assert list(rep.eigenvalues) == [0.0, 1e-4, 4.0]
    assert rep.to_dict() == {"degree": 1, "eigenvalues": [0.0, 1e-4, 4.0]}


def test_rounding_rule():
    # negative rounding reads 0, relative to max(1, max |lambda|) ...
    rep = SpectrumReport.from_eigenvalues(0, [1e6, -1e-5, 2.0])
    assert list(rep.eigenvalues) == [0.0, 2.0, 1e6]
    assert list(SpectrumReport.from_eigenvalues(0, [-1e-7, 1.0]).eigenvalues) \
        == [0.0, 1.0]
    # ... and a negative eigenvalue beyond both bounds is an error
    with pytest.raises(ArithmeticError, match="significantly negative"):
        SpectrumReport.from_eigenvalues(0, [-1e-3, 1.0])


def _lowest_set_to(real, value):
    def solve(*args):
        lam = np.array(real(*args), dtype=float)
        lam[0] = value
        return lam
    return solve


def _spectrum_routes():
    sc = sconn.from_affine_bundle(
        spectral.AffineModel(lie.abelian(1), [np.eye(1)]),
        sconn.BaseModel("circle", 8))
    h = sconn.MetricField.identity(sc.bundle, sc.base)
    bare = sconn.MetricField(sc.bundle, sc.base, h.sample)
    return {
        # the tests' oracle assembles the grid Laplacian of a bare callable
        "assembled": (oracles, "lowest_eigenvalues",
                      lambda: oracles.assembled_spectrum(sc, bare, 1,
                                                         count=4)),
        "bloch": (sconn.DiscreteComplex, "bloch_eigenvalues",
                  lambda: sconn.spectrum(sc, h, 1, count=4)),
        # the point base of nil_rescale solves its one Fourier block
        "nil_rescale": (sconn.DiscreteComplex, "bloch_eigenvalues",
                        lambda: rescaled_spectra("heisenberg:3", 1,
                                                 (0.1, 0.05))[0]),
    }


@pytest.mark.parametrize("route", ["assembled", "bloch", "nil_rescale"])
def test_every_spectrum_goes_through_the_rounding_rule(monkeypatch, route):
    owner, name, solve = _spectrum_routes()[route]
    real = getattr(owner, name)
    clean = solve().eigenvalues
    monkeypatch.setattr(owner, name, _lowest_set_to(real, -1e-3))
    with pytest.raises(ArithmeticError, match="significantly negative"):
        solve()
    monkeypatch.setattr(owner, name, _lowest_set_to(real, -1e-14))
    lam = solve().eigenvalues
    assert lam[0] == 0.0 and np.array_equal(lam[1:], clean[1:])


def multiplicities(eigenvalues):
    """Runs of sorted eigenvalues within 1e-8 relative of the run's first."""
    out = []
    for lam in eigenvalues:
        if out and abs(lam - out[-1][0]) <= 1e-8 * max(1.0, abs(lam)):
            out[-1] = (out[-1][0], out[-1][1] + 1)
        else:
            out.append((float(lam), 1))
    return out


def test_multiplicities_groups_close_values():
    rep = SpectrumReport.from_eigenvalues(0, [0.0, 1.0, 1.0 + 1e-10, 2.0])
    assert multiplicities(rep.eigenvalues) == [(0.0, 1), (1.0, 2), (2.0, 1)]


def test_epsilon_close_boundary():
    e = np.e
    assert closeness_epsilon([1.0, 2.0], [e, 2 * e]) <= 1.0 + 1e-12
    assert not closeness_epsilon([1.0, 2.0], [e, 2 * e]) <= 0.5
    assert closeness_epsilon([0.0, 1.0], [0.0, 1.0]) <= 0.0


def test_epsilon_close_zero_handling():
    # a true zero against a positive value fails for every finite eps
    assert not closeness_epsilon([0.0, 1.0], [1e-9, 1.0]) <= 50.0
    # an entry at most ZERO_TOL is zero: close to a true zero at eps 0
    assert closeness_epsilon([1e-11, 1.0], [0.0, 1.0]) <= 0.0


def test_epsilon_close_input_errors():
    with pytest.raises(InputError, match="length mismatch"):
        closeness_epsilon([1.0], [1.0, 2.0])


def test_closeness_epsilon_values():
    assert closeness_epsilon([1.0, 2.0], [np.e, 2.0]) == pytest.approx(1.0)
    assert closeness_epsilon([1.0], [1.0]) == 0.0
    assert closeness_epsilon([0.0], [1.0]) == np.inf
    assert closeness_epsilon([1e-12], [1.0]) == np.inf  # below zero tolerance


def test_closeness_epsilon_certifies_epsilon_close():
    s1, s2 = [0.5, 3.0, 7.0], [0.4, 3.3, 7.2]
    eps = closeness_epsilon(s1, s2)
    assert closeness_epsilon(s1, s2) <= eps + 1e-12
    assert not closeness_epsilon(s1, s2) <= eps - 1e-6


# exact zeros, values on both sides of the zero rule, and the bulk
_ENTRIES = st.sampled_from([0.0, 1e-12, ZERO_TOL, 1e-9]) | st.floats(
    1e-12, 1e3, allow_nan=False)


@given(st.integers(1, 4).flatmap(
    lambda n: st.tuples(*[st.lists(_ENTRIES, min_size=n, max_size=n)] * 2)))
@settings(max_examples=200, deadline=None)
@example(([1e-12, 1.0], [0.0, 1.0]))  # below ZERO_TOL is the zero it meets
@example(([0.0], [1.0]))  # zero against positive: close at inf, either way
def test_closeness_epsilon_certifies_itself_either_way_round(pair):
    s1, s2 = pair
    eps = closeness_epsilon(s1, s2)
    assert eps == closeness_epsilon(s2, s1)
    for e in (0.0, eps, np.inf):
        assert (closeness_epsilon(s1, s2) <= e) == (
            closeness_epsilon(s2, s1) <= e)

