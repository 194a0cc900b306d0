"""Shared spectrum reporting: the one rounding rule for raw float eigenvalues,
sorted eigenvalue lists, the largest-relative-gap split into "small" and
"bulk" eigenvalues, and multiplicative epsilon-closeness of spectra."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import InputError

SMALL_FLOOR = 1e-8


def gap_split(eigenvalues) -> tuple[int, int, float]:
    """Split a sorted nonnegative spectrum at its largest relative gap.

    Returns (small_count, gap_index, gap_ratio): eigenvalues [0, small_count)
    sit below the gap. SMALL_FLOOR keeps exact zeros from producing infinite
    ratios against one another.
    """
    lam = np.maximum(np.asarray(eigenvalues, dtype=float), 0.0)
    if lam.size == 0:
        return 0, 0, 0.0
    lo = np.maximum(np.concatenate([[0.0], lam[:-1]]), SMALL_FLOOR)
    ratios = lam / lo
    idx = int(np.argmax(ratios))
    return idx, idx, float(ratios[idx])


@dataclass(frozen=True)
class SpectrumReport:
    """Lowest eigenvalues in a fixed total degree, ascending."""

    degree: int
    eigenvalues: np.ndarray
    small_count: int
    gap_index: int
    gap_ratio: float

    @classmethod
    def from_eigenvalues(cls, degree: int, eigenvalues) -> "SpectrumReport":
        """The report of raw float eigenvalues of a positive semidefinite
        operator, by the one rounding rule every spectrum goes through: an
        eigenvalue below -1e-6 that is not rounding (|lambda| >= 1e-10 times
        max(1, max |lambda|)) raises ArithmeticError; every other negative
        one is rounding and reads 0. Then the gap rule splits the spectrum.
        """
        lam = np.sort(np.asarray(eigenvalues, dtype=float))
        scale = max(1.0, float(np.abs(lam).max(initial=0.0)))
        if np.any((lam < -1e-6) & (np.abs(lam) >= 1e-10 * scale)):
            raise ArithmeticError(
                "Laplacian produced a significantly negative eigenvalue")
        lam = np.maximum(lam, 0.0)
        small, idx, ratio = gap_split(lam)
        return cls(degree, lam, small, idx, ratio)

    def multiplicities(self) -> list[tuple[float, int]]:
        out: list[tuple[float, int]] = []
        for lam in self.eigenvalues:
            if out and abs(lam - out[-1][0]) <= 1e-8 * max(1.0, abs(lam)):
                out[-1] = (out[-1][0], out[-1][1] + 1)
            else:
                out.append((float(lam), 1))
        return out

    def to_dict(self) -> dict:
        return {
            "degree": self.degree,
            "eigenvalues": [float(x) for x in self.eigenvalues],
            "small_count": self.small_count,
            "gap_index": self.gap_index,
            "gap_ratio": self.gap_ratio,
        }


def epsilon_close(s1, s2, eps: float, zero_tol: float = 0.0) -> bool:
    """Multiplicative sandwich e^{-eps} l2 <= l1 <= e^{eps} l2, index by index.

    Zero-vs-zero pairs pass; zero against a positive entry fails for every
    finite eps. Inputs may be SpectrumReports or plain sequences.
    """
    l1 = np.asarray(getattr(s1, "eigenvalues", s1), dtype=float)
    l2 = np.asarray(getattr(s2, "eigenvalues", s2), dtype=float)
    if l1.shape != l2.shape:
        raise InputError(f"length mismatch: {l1.shape} vs {l2.shape}")
    if eps < 0:
        raise InputError("eps must be nonnegative")
    for a, b in zip(l1, l2):
        a, b = max(a, 0.0), max(b, 0.0)
        if a <= zero_tol and b <= zero_tol:
            continue
        if not (np.exp(-eps) * b <= a <= np.exp(eps) * b):
            return False
    return True


def closeness_epsilon(s1, s2) -> float:
    """Smallest eps for which the spectra are eps-close (inf if impossible);
    entries up to 1e-10 count as zero."""
    zero_tol = 1e-10
    l1 = np.asarray(getattr(s1, "eigenvalues", s1), dtype=float)
    l2 = np.asarray(getattr(s2, "eigenvalues", s2), dtype=float)
    if l1.shape != l2.shape:
        raise InputError(f"length mismatch: {l1.shape} vs {l2.shape}")
    worst = 0.0
    for a, b in zip(l1, l2):
        a, b = max(a, 0.0), max(b, 0.0)
        if a <= zero_tol and b <= zero_tol:
            continue
        if a <= zero_tol or b <= zero_tol:
            return float("inf")
        worst = max(worst, abs(np.log(a / b)))
    return worst
