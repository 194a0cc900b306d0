"""Shared spectrum reporting: the one rounding rule for raw float eigenvalues,
the one zero rule, sorted eigenvalue lists, and multiplicative
epsilon-closeness of spectra."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import InputError

# an eigenvalue lambda of a float spectrum is zero iff lambda <= ZERO_TOL
ZERO_TOL = 1e-10


@dataclass(frozen=True)
class SpectrumReport:
    """Lowest eigenvalues in a fixed total degree, ascending."""

    degree: int
    eigenvalues: np.ndarray

    @classmethod
    def from_eigenvalues(cls, degree: int, eigenvalues) -> "SpectrumReport":
        """The report of raw float eigenvalues of a positive semidefinite
        operator, by the one rounding rule every spectrum goes through: an
        eigenvalue below -1e-6 that is not rounding (|lambda| >= 1e-10 times
        max(1, max |lambda|)) raises ArithmeticError; every other negative
        one is rounding and reads 0.
        """
        lam = np.sort(np.asarray(eigenvalues, dtype=float))
        scale = max(1.0, float(np.abs(lam).max(initial=0.0)))
        if np.any((lam < -1e-6) & (np.abs(lam) >= 1e-10 * scale)):
            raise ArithmeticError(
                "Laplacian produced a significantly negative eigenvalue")
        return cls(degree, np.maximum(lam, 0.0))

    def to_dict(self) -> dict:
        return {
            "degree": self.degree,
            "eigenvalues": [float(x) for x in self.eigenvalues],
        }


def epsilon_close(s1, s2, eps: float) -> bool:
    """Multiplicative sandwich e^{-eps} l2 <= l1 <= e^{eps} l2, index by index.

    Zero-vs-zero pairs pass; zero against a positive entry fails for every
    finite eps. Inputs may be SpectrumReports or plain sequences.
    """
    worst = closeness_epsilon(s1, s2)
    if eps < 0:
        raise InputError("eps must be nonnegative")
    return worst <= eps


def closeness_epsilon(s1, s2) -> float:
    """Smallest eps for which the spectra are eps-close (inf if impossible);
    an entry at most ZERO_TOL is zero."""
    l1 = np.asarray(getattr(s1, "eigenvalues", s1), dtype=float)
    l2 = np.asarray(getattr(s2, "eigenvalues", s2), dtype=float)
    if l1.shape != l2.shape:
        raise InputError(f"length mismatch: {l1.shape} vs {l2.shape}")
    worst = 0.0
    for a, b in zip(l1, l2):
        if a <= ZERO_TOL and b <= ZERO_TOL:
            continue
        if a <= ZERO_TOL or b <= ZERO_TOL:
            return float("inf")
        # the larger over the smaller: the same float for (a, b) and (b, a)
        worst = max(worst, float(np.log(max(a, b) / min(a, b))))
    return worst
