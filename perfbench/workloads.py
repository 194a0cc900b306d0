"""The benchmark's workloads: inputs made from a seed, one pass over them, and
the checks each output must pass.

Each workload is chosen to load a different layer (see README.md):

- twisted_circle_conv: dense `eigvalsh` on mid-size Laplacians;
- ss_filiform5_T2: exact rational arithmetic and page recursion only;
- presets_check: the five presets, many small calls across every layer;
- adiabatic_T2_64: grid assembly and the ARPACK shift-invert solve at the
  ROADMAP baseline size, and ss_filiform6_T2, the same page recursion as
  ss_filiform5_T2 one dimension up; both are for traced one-off runs and are
  not benchmarked.

Seed 0 gives the inputs named above. Any other seed applies only variations
that keep every checked answer: a reversed sweep order, a different run order,
or a change of sign or order of the fiber basis. The package never sees the
seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

from nilcollapse import lab, lie, spectral
from nilcollapse import superconnection as sconn
from nilcollapse.numerics import RationalMatrix

ZERO = 1e-10
MU = (3.0 + np.sqrt(5.0)) / 2.0          # larger eigenvalue of [[2,1],[1,1]]
CIRCLE_HOLONOMY = ((2.0, 1.0), (1.0, 1.0))
CIRCLE_LADDER = (256, 512, 1024)
# total cohomology of the torus2 complex of filiform:n, by total degree
FILIFORM_TOTALS = {5: [1, 4, 6, 9, 9, 6, 4, 1],
                   6: [1, 4, 7, 10, 12, 10, 7, 4, 1]}
PRESET_COUNTS = {"example1_heisenberg_point": 3, "example3_circle_bundle": 3,
                 "example7_heisenberg_circle": 3, "example9_sol_circle": 1,
                 "cor7_heisenberg_T2": 3}


@dataclass
class Op:
    """One checked operation: `call` runs the package, `check` returns an
    error message or None, `facts` pulls reportable numbers from the output.
    `reference` names the kind of work the op's time is measured against:
    "lapack" (dense eigensolves) for an op that is mostly large dense
    eigensolves, "mixed" (interpreted exact arithmetic and a small eigensolve)
    for any other."""

    label: str
    call: Callable[[], object]
    check: Callable[[object], str | None]
    facts: Callable[[object], dict] = lambda out: {}
    reference: str = "mixed"


def build(name: str, seed: int) -> list[Op]:
    """The operations of one pass of workload `name`, inputs made from seed."""
    try:
        maker = _WORKLOADS[name]
    except KeyError:
        raise ValueError(f"unknown workload {name!r}; "
                         f"choose from {', '.join(_WORKLOADS)}") from None
    return maker(random.Random(seed), seed)


# ---------------------------------------------------------------------------
# adiabatic_T2_64
# ---------------------------------------------------------------------------

def _adiabatic(rng, seed) -> list[Op]:
    cfg = dict(lab.PRESETS["cor7_heisenberg_T2"], resolution=64,
               name="cor7_64")
    if seed and rng.random() < 0.5:
        cfg["sweep_values"] = tuple(reversed(cfg["sweep_values"]))
    return [Op("cor7@64", lambda: lab.run(cfg), _check_adiabatic)]


def _check_adiabatic(rep) -> str | None:
    d = rep.degrees[0]
    if not d.predicted_small_count == d.observed_small_count == 3:
        return (f"predicted {d.predicted_small_count}, "
                f"observed {d.observed_small_count}, want 3")
    zeros = [int(np.sum(s.eigenvalues <= ZERO)) for s in d.spectra]
    if zeros != [2] * len(d.spectra):
        return f"zero eigenvalues per sweep point {zeros}, want 2 each"
    decaying = [s for s in d.slopes if not s.undetermined]
    if not decaying or abs(decaying[0].slope - 2.0) > 0.1:
        return f"decay slopes {[s.slope for s in decaying]}, want 2 +- 0.1"
    return None


# ---------------------------------------------------------------------------
# twisted_circle_conv
# ---------------------------------------------------------------------------

def _signed_permutation(rng, n: int) -> np.ndarray:
    P = np.zeros((n, n))
    for i, j in enumerate(rng.sample(range(n), n)):
        P[i, j] = rng.choice((-1.0, 1.0))
    return P


def _twisted_circle(rng, seed) -> list[Op]:
    phi = np.array(CIRCLE_HOLONOMY)
    if seed:
        # an orthogonal change of fiber basis: a gauge-equivalent bundle
        P = _signed_permutation(rng, 2)
        phi = P @ phi @ P.T

    def ladder():
        lams = []
        for n in CIRCLE_LADDER:
            base = sconn.BaseModel("circle", n)
            bundle = sconn.GradedBundle([2], [[phi]])
            sc = sconn.Superconnection(bundle, base)
            h = sconn.MetricField.equivariant(bundle, base)
            lams.append(sconn.spectrum(sc, h, 0, count=2).eigenvalues[0])
        return lams

    return [Op("circle ladder", ladder, _check_circle, _circle_facts,
               reference="lapack")]


def _circle_errors(lams) -> list[float]:
    return [abs(lam - np.log(MU) ** 2) for lam in lams]


def _check_circle(lams) -> str | None:
    errs = _circle_errors(lams)
    if errs[-1] > 1e-4:
        return f"error {errs[-1]:.3e} at N={CIRCLE_LADDER[-1]}, want <= 1e-4"
    order = -np.polyfit(np.log(CIRCLE_LADDER), np.log(errs), 1)[0]
    if abs(order - 2.0) > 0.2:
        return f"convergence order {order:.3f}, want 2 +- 0.2"
    return None


def _circle_facts(lams) -> dict:
    return {"closed_form_err": _circle_errors(lams)[-1]}


# ---------------------------------------------------------------------------
# ss_filiform5_T2, ss_filiform6_T2
# ---------------------------------------------------------------------------

def _filiform_payload(rng, seed, n: int = 6) -> dict:
    """Torus2 complex of filiform:n with a2 the contraction by the central
    direction e_n, with fiber basis vectors negated at random for seed != 0.

    Sign changes keep the zero pattern and the size of every entry, so the
    exact kernel does the same work for every seed. A permutation of the
    basis would too keep every answer, but it reorders elimination and moved
    the pass time by up to 25 % between seeds.
    """
    sign = [rng.choice((-1, 1)) for _ in range(n)] if seed else [1] * n
    # new basis vector m is sign[m] times the old one
    brackets = [(0, j, j + 1, sign[0] * sign[j] * sign[j + 1])
                for j in range(1, n - 1)]
    alg = lie.NilpotentLieAlgebra.from_brackets(n, brackets,
                                                name=f"filiform:{n}")
    T = [0] * (n - 1) + [sign[n - 1]]
    ranks = [len(lie.multi_indices(n, b)) for b in range(n + 1)]
    a0 = [lie.ce_differential(alg, b) for b in range(n)]
    eye = [RationalMatrix.identity(r) for r in ranks]
    cx = spectral.flat_bundle_complex(ranks, a0, [eye, eye], "torus2",
                                      a2=spectral.contraction_blocks(T, n))
    return cx.to_dict()


def _filiform(n: int):
    def make(rng, seed) -> list[Op]:
        cfg = {"kind": "spectral_sequence_report", "name": f"filiform{n}_T2",
               "model": {"payload": _filiform_payload(rng, seed, n)}}
        return [Op(f"filiform:{n} pages", lambda: lab.run(cfg),
                   lambda rep: _check_filiform(rep, FILIFORM_TOTALS[n]))]
    return make


def _check_filiform(rep, want: list[int]) -> str | None:
    pages = rep.pages
    if pages["stabilizes_at"] != 3:
        return f"stabilizes at {pages['stabilizes_at']}, want 3"
    totals = [0] * len(want)
    for a, b, d in pages["e_infinity"]:
        totals[a + b] += d
    if totals != want or pages["total_cohomology"] != totals:
        return (f"E_infinity totals {totals}, total cohomology "
                f"{pages['total_cohomology']}, want {want}")
    return None


# ---------------------------------------------------------------------------
# presets_check
# ---------------------------------------------------------------------------

def _presets(rng, seed) -> list[Op]:
    names = list(lab.PRESETS)
    if seed:
        rng.shuffle(names)
    ops = []
    for name in names:
        cfg = dict(lab.PRESETS[name], name=name)
        if seed and rng.random() < 0.5:
            cfg["sweep_values"] = tuple(reversed(cfg["sweep_values"]))
        ops.append(Op(name, lambda cfg=cfg: lab.run(cfg),
                      lambda rep, name=name: _check_preset(rep, name)))
    return ops


def _check_preset(rep, name) -> str | None:
    if not rep.passed():
        return "run --check verdict failed"
    got = rep.degrees[0].predicted_small_count
    if got != PRESET_COUNTS[name]:
        return f"predicted {got}, want {PRESET_COUNTS[name]}"
    return None


_WORKLOADS = {
    "twisted_circle_conv": _twisted_circle,
    "ss_filiform5_T2": _filiform(5),
    "presets_check": _presets,
    # Not in BENCHMARK.json, for traced one-off runs: one pass takes 5 s and
    # 30 s, too long to find the machine's fast state within a run (see
    # README.md). ss_filiform5_T2 and presets_check time the same layers.
    "ss_filiform6_T2": _filiform(6),
    "adiabatic_T2_64": _adiabatic,
}
WORKLOADS = tuple(_WORKLOADS)
