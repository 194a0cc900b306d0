"""Command-line front end.

Exit codes: 0 success, 1 validation error (also an unreadable or non-JSON
file), 2 numerical-consistency error, or a usage error that click reports,
such as `--p x` or `--fmt xml`, 3 acceptance failure (run --check).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click

from . import lab, lie, spectral, superconnection as sconn
from .numerics import InputError, read_json


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _guard(fn):
    """Map exception classes onto the documented exit codes."""
    import functools

    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except InputError as exc:
            _fail(1, str(exc))
        except ArithmeticError as exc:
            _fail(2, str(exc))
    return wrapped


@click.group()
def main():
    """Spectra of collapsing fiber-bundle Laplacians."""


@main.command()
@click.argument("model")
@_guard
def validate(model):
    """Validate an algebra, bundle, complex, or scenario JSON file."""
    payload = read_json(model, "input")
    if isinstance(payload, dict) and "base" in payload:
        sconn.load_bundle(payload)
        click.echo("bundle: ok (flatness and metric equivariance verified)")
    elif isinstance(payload, dict) and "dims" in payload:
        spectral.BigradedComplex.from_dict(payload)
        click.echo("complex: ok (differential squares to zero)")
    elif isinstance(payload, dict) and "kind" in payload:
        lab.prepare(payload)
        click.echo("scenario: ok (built and checked, nothing solved)")
    else:
        algebra = lie.load_algebra(payload)
        click.echo(f"algebra: ok (n = {algebra.n}, nilpotent)")


@main.group(name="lie")
def lie_group():
    """Fiber Lie-algebra computations."""


@lie_group.command()
@click.argument("algebra")
@_guard
def betti(algebra):
    """Cohomology dimensions of the fiber algebra's form complex."""
    alg = lie.load_algebra(algebra)  # a JSON path or a preset
    nums = lie.betti_numbers(alg)
    click.echo(" ".join(str(b) for b in nums))


@lie_group.command()
@click.argument("algebra")
@_guard
def curvature(algebra):
    """Scalar curvature of the associated left-invariant metric."""
    alg = lie.load_algebra(algebra)
    kappa_trace, kappa_structure = lie.scalar_curvature(alg.c_float())
    click.echo(f"{kappa_trace:.12g} (cross-check {kappa_structure:.12g})")


@main.command()
@click.argument("bundle")
@click.option("--p", "degree", type=int, default=1, show_default=True,
              help="total form degree")
@click.option("--modes", type=int, default=12, show_default=True,
              help="number of low eigenvalues")
@_guard
def spectrum(bundle, degree, modes):
    """Low spectrum of a superconnection Laplacian from a bundle file."""
    sc, h = sconn.load_bundle(bundle)
    rep = sconn.spectrum(sc, h, degree, count=modes)
    click.echo(json.dumps(rep.to_dict(), indent=1, sort_keys=True))


@main.command()
@click.argument("complex_file")
@_guard
def ss(complex_file):
    """Pages and stable page of a bigraded complex."""
    report = lab.run({"kind": "spectral_sequence_report",
                      "model": {"complex": complex_file}})
    click.echo(json.dumps(report.pages, indent=1, sort_keys=True))


@main.command(name="run")
@click.argument("scenario")
@click.option("--out", type=click.Path(), default=None,
              help="output directory for report files")
@click.option("--fmt", "formats", multiple=True,
              type=click.Choice(["json", "csv", "plotdata"]),
              default=("json",), show_default=True)
@click.option("--check", is_flag=True,
              help="exit 3 unless predictions match observations")
@_guard
def run_cmd(scenario, out, formats, check):
    """Run a scenario (preset name or JSON file) and emit reports."""
    report = lab.run(scenario)
    if out is not None:
        outdir = Path(out)
        outdir.mkdir(parents=True, exist_ok=True)
        stem = report.config.name or report.config.kind
        ext = {"json": "json", "csv": "csv", "plotdata": "dat"}
        for fmt in formats:
            lab.emit(report, fmt, outdir / f"{stem}.{ext[fmt]}")
    summary = {
        "kind": report.config.kind,
        "name": report.config.name,
        "degrees": [
            {"p": d.degree,
             "predicted": d.predicted_small_count,
             "observed": d.observed_small_count,
             "prediction_matches": d.prediction_matches,
             "kernel_stable": d.kernel_stable}
            for d in report.degrees
        ],
    }
    click.echo(json.dumps(summary, indent=1, sort_keys=True))
    if check and not report.passed():
        _fail(3, "; ".join(["scenario acceptance check failed",
                            *report.failures()]))


if __name__ == "__main__":
    main()
