"""Benchmark for nilcollapse: time one workload end to end, or per layer.

Run from the repository root:

    python3 perfbench/run.py --workload <name|all> [--seed N] [--seconds S]
                             [--trace 0|1]

The package is imported from ./src only. Passes over the workload repeat
while the next one is expected to end within --seconds (at least one pass);
every output is checked. Each op is bracketed by a fixed reference
computation, and its time is also reported in units of that computation's
time, which cancels most of the slowdown that other load on the host causes.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. The line before it,
starting with '# summary ', holds pass counts, the raw pass times, the
failure share and the environment (threads, versions, commit).
See perfbench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

# BLAS and OpenMP read these once, when numpy loads: set them first.
THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(THREADS)

import gc  # noqa: E402
import hashlib  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from fractions import Fraction  # noqa: E402
from functools import cache  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 6          # extra set-ups in child processes, for a median
PROBE_TIMEOUT = 60
SUMMARY = "# summary "


def setup(workload: str, seed: int):
    """Import the package from ./src and build the workload's inputs.

    Returns (seconds taken, package, ops)."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import nilcollapse
    if Path(nilcollapse.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"nilcollapse imported from {nilcollapse.__file__}, "
                          f"not from {SRC}")
    import workloads
    ops = workloads.build(workload, seed)
    return time.perf_counter() - t0, nilcollapse, ops


def probe_setup(workload: str, seed: int) -> float:
    """Set-up time measured in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1])


@cache
def _ref_matrix(n: int):
    import numpy  # after set-up, so that set-up times the numpy import
    return numpy.cos(numpy.add.outer(numpy.arange(n * 1.0), numpy.arange(n)))


def _ref_python() -> None:
    total = Fraction(0)
    for i in range(1, 1200):
        total += Fraction(i, i + 7)


def _ref_lapack(n: int) -> None:
    import numpy
    numpy.linalg.eigvalsh(_ref_matrix(n))


REFERENCES = {
    "lapack": lambda: _ref_lapack(400),
    "mixed": lambda: (_ref_python(), _ref_lapack(160)),
}


def reference_s(kind: str) -> float:
    """Seconds taken by a fixed piece of work of the given kind (see
    `workloads.Op.reference`) that never calls the package. Interference
    from outside the process slows it as it slows the op it brackets. The
    median of three takes out short spikes."""
    work, times = REFERENCES[kind], []
    for _ in range(3):
        t0 = time.perf_counter()
        work()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_pass(ops) -> tuple[list[float], list[float], list]:
    """Run every op once; returns (seconds in the package per op, the same
    in reference units, outcomes), where an outcome is (op, output, error or
    None). An op's time in reference units is its time over the mean of the
    reference times taken just before and just after it."""
    times, costs, outcomes = [], [], []
    for op in ops:
        ref = reference_s(op.reference)
        t0 = time.perf_counter()
        try:
            out, err = op.call(), None
        except Exception:  # a raising op is a failed op; keep measuring
            out, err = None, traceback.format_exc()
        times.append(time.perf_counter() - t0)
        costs.append(2.0 * times[-1] / (ref + reference_s(op.reference)))
        if err is None:
            try:
                err = op.check(out)
            except Exception:
                err = traceback.format_exc()
        outcomes.append((op, out, err))
    return times, costs, outcomes


def pass_cost(op_costs: list[list[float]]) -> float:
    """One pass in reference units: the sum over ops of each op's median."""
    return sum(statistics.median(costs) for costs in op_costs)


def environment() -> dict:
    import numpy
    import scipy
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {"threads": THREADS, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "commit": _git_commit(), "src_sha256": digest.hexdigest()[:16],
            "cpus": os.cpu_count()}


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def tail(times: list[float]) -> str:
    """Highest percentile with at least ten samples above it, if any."""
    n = len(times)
    if n < 11:
        return f"no tail percentile (n={n} < 11)"
    return (f"p{100 * (n - 10) / n:.0f}={sorted(times)[n - 11]:.4f} s "
            f"(n={n})")


def measure(args) -> tuple[dict, dict]:
    setup_main, package, ops = setup(args.workload, args.seed)
    setups = [setup_main]
    # the probes are spread over the run, so that their median does not
    # hang on how busy the machine was in one moment
    probes_due = [args.seconds * i / SETUP_PROBES
                  for i in range(SETUP_PROBES)]
    tracer = None
    if args.trace:
        import tracer as tracer_mod
        tracer = tracer_mod.Tracer()

    plain, traced, traced_ids = [], [], []
    plain_costs, traced_costs = [[] for _ in ops], [[] for _ in ops]
    attempted = failed = 0
    facts: dict[str, list] = {}
    start = time.perf_counter()
    k = 0
    while True:
        gc.collect()  # start each pass with no garbage left by the last
        if tracer is not None and k % 2 == 1:
            tracer.new_pass(k)
            with tracer.install(package):
                times, costs, outcomes = run_pass(ops)
            traced.append(sum(times))
            traced_ids.append(k)
            for i, c in enumerate(costs):
                traced_costs[i].append(c)
        else:
            times, costs, outcomes = run_pass(ops)
            plain.append(sum(times))
            for i, c in enumerate(costs):
                plain_costs[i].append(c)
        for op, out, err in outcomes:
            attempted += 1
            if err is not None:
                failed += 1
                print(f"FAILED {op.label}: {err}", file=sys.stderr)
            else:
                for key, value in op.facts(out).items():
                    facts.setdefault(key, []).append(value)
        k += 1
        while probes_due and time.perf_counter() - start >= probes_due[0]:
            setups.append(probe_setup(args.workload, args.seed))
            probes_due.pop(0)
        if tracer is not None and not traced:
            continue
        # stop before a pass that would end after --seconds, so that a run
        # lasts --seconds plus set-up, whatever the pass length
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(plain + traced) > args.seconds:
            break
    setups += [probe_setup(args.workload, args.seed) for _ in probes_due]

    cost = pass_cost(plain_costs)
    env = environment()
    summary = {"workload": args.workload, "seed": args.seed,
               "passes": len(plain), "traced_passes": len(traced),
               "pass_ref": cost, "wall_s": statistics.median(plain),
               "wall_tail": tail(plain), "pass_s": plain,
               "setup_s": statistics.median(setups),
               "failed_frac": failed / attempted, "env": env}
    summary.update({key: statistics.median(v) for key, v in facts.items()})
    if tracer is None:
        metrics = {
            "pass_ref": (cost, "ref"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "MB"),
        }
    else:
        layers = tracer_mod.layer_metrics(tracer, traced_ids)
        layers["trace.overhead_frac"] = pass_cost(traced_costs) / cost - 1.0
        layers["closed_form_err"] = summary.get("closed_form_err", 0.0)
        metrics = {key: (value, _unit(key)) for key, value in layers.items()}
        _write_spans(args, tracer, env)
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {key: {"value": value, "unit": unit}
                          for key, (value, unit) in metrics.items()}}
    return result, summary


def _unit(key: str) -> str:
    if key.endswith("_s"):
        return "s"
    if key.endswith(("_frac", "_ratio", "_density", "_err")):
        return "1"
    return "count"


def _write_spans(args, tracer, env) -> None:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-spans.jsonl"
    with open(path, "w") as fh:
        fh.write(json.dumps({"workload": args.workload, "seed": args.seed,
                             "env": env}) + "\n")
        for name, start, end, parent, pass_id in tracer.spans:
            fh.write(json.dumps([name, start, end, parent, pass_id]) + "\n")
    print(f"# spans written to {path.relative_to(ROOT)}", file=sys.stderr)


def run_all(args) -> tuple[dict, dict]:
    """Every workload in its own process, one after another; prints a table
    of each workload's summary and merges the results."""
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    summaries = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"workload {name} exited {proc.returncode}")
        result = json.loads(lines[-1])
        summaries[name] = json.loads(next(
            line[len(SUMMARY):] for line in lines if line.startswith(SUMMARY)))
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            merged["metrics"][f"{name}/{key}"] = metric
    for name, summary in summaries.items():
        cells = [f"pass_ref {summary['pass_ref']:.4g} ref",
                 f"wall_s {summary['wall_s']:.4g} s",
                 f"setup_s {summary['setup_s']:.4g} s"]
        rss = merged["metrics"].get(f"{name}/peak_rss_mb")
        if rss is not None:
            cells.append(f"peak_rss_mb {rss['value']:.4g} MB")
        cells.append(f"failed_frac {summary['failed_frac']:.4g} 1")
        if "closed_form_err" in summary:
            cells.append(f"closed_form_err {summary['closed_form_err']:.4g} 1")
        print(f"{name:22s} " + "; ".join(cells))
    return merged, {"workloads": summaries}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        if args.setup_only:
            print(repr(setup(args.workload, args.seed)[0]))
            return 0
        if args.workload == "all":
            result, summary = run_all(args)
        else:
            result, summary = measure(args)
    except (ImportError, ValueError, RuntimeError,
            subprocess.TimeoutExpired) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    print(SUMMARY + json.dumps(summary))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
