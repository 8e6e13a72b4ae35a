"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload bd-fixed --seed 1 --seconds 45 --trace 0

``--trace 0`` measures the end-to-end metrics of BENCHMARK.json with no
tracing; ``--trace 1`` runs the workload with every layer wrapped and
reports the per-layer metrics.  The last line of standard output is the
result; the line before it is a JSON report with the run manifest, sample
counts, per-cell sum rates, the reference comparison and every failed
output check.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sys
from dataclasses import asdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference.json"
REFERENCE_RTOL = 1e-9
# One BLAS thread: the solver's dense work is einsum and small vector
# algebra, which does not call BLAS, and one thread keeps timings steadier
# on a shared machine.
BLAS_THREADS = 1


def parse_args(argv):
    p = argparse.ArgumentParser(description="bdris benchmark: one workload, one seed")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="shrink the workload to smoke-test size (see smoke.py)")
    p.add_argument("--update-reference", action="store_true",
                   help="store this run's per-cell sum rates as the seed's reference")
    return p.parse_args(argv)


def git_revision():
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def manifest(args, inputs):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name", "unknown"),
                 "version": blas.get("version", "unknown"),
                 "threads": BLAS_THREADS},
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "git_revision": git_revision(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "workload": asdict(inputs.workload),
        "config": asdict(inputs.config),
    }


def load_reference():
    return json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}


def compare_reference(workload, seed, rates):
    """Whether per-cell sum rates reproduce the stored reference of the seed."""
    ref = load_reference().get(workload, {}).get(str(seed))
    if ref is None:
        return "no reference for this seed"
    if ref == rates:
        return "bit-identical"
    if len(ref) != len(rates) or None in ref or None in rates:
        return "differs: cells or failures do not match"
    diff = max(abs(a - b) / abs(b) for a, b in zip(rates, ref))
    verdict = "within" if diff <= REFERENCE_RTOL else "differs: outside"
    return f"{verdict} rtol {REFERENCE_RTOL:g} (max rel diff {diff:.3g})"


def update_reference(workload, seed, rates):
    table = load_reference()
    table.setdefault(workload, {})[str(seed)] = rates
    REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "bdris" / "__init__.py").is_file():
        print(f"bdris sources not found under {SRC}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))

    import bdris
    import measure
    import workloads

    if not Path(bdris.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"imported bdris from {bdris.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = workloads.WORKLOADS[args.workload]
    if args.tiny:
        workload = workloads.tiny(workload)

    if args.trace:
        tracer, inputs, passes, wall, problems = measure.traced_run(
            workload, args.seed, args.seconds)
        overhead, differ = measure.untraced_overhead(passes, args.seconds)
        problems += differ
        values = measure.per_layer(tracer, passes, wall, overhead)
        declared = spec["per_layer"]
        samples = {"spans": len(tracer.spans)}
    else:
        setup_s = measure.setup_seconds(args.workload, args.seed, args.tiny, SRC)
        inputs = workloads.setup(workload, args.seed)
        passes, problems = measure.run_for(inputs, args.seconds)
        values = measure.end_to_end(inputs, passes, setup_s)
        declared = spec["end_to_end"]
        samples = {"setup": measure.SETUP_SAMPLES}

    names = [m["name"] for m in declared]
    if set(values) != set(names):
        raise RuntimeError("measured metrics differ from BENCHMARK.json: "
                           f"{sorted(set(values) ^ set(names))}")
    if not all(math.isfinite(values[n]) for n in names):
        raise RuntimeError(f"non-finite metric: {values}")

    solves = [s for p in passes for s in p.solves]
    ok = measure.succeeded(passes)
    rates = [s.sum_rate if s.error is None else None for s in passes[0].solves]
    if args.tiny:
        reference = "not checked at smoke-test size"
    else:
        reference = compare_reference(args.workload, args.seed, rates)
        if args.update_reference:
            update_reference(args.workload, args.seed, rates)
    timed = measure.succeeded([p for p in passes if p.complete])
    samples.update(passes=len(passes), solves=len(solves), timed_solves=len(timed),
                   timed_iterations=sum(s.trace.num_iterations for s in timed))
    report = {"manifest": manifest(args, inputs), "samples": samples,
              "pass_wall_s": [p.wall for p in passes], "cell_sum_rates": rates,
              "reference": reference, "problems": problems,
              "failures": [str(s.error) for s in solves if s.error is not None]}
    print(json.dumps({"report": report}, default=str))
    print(json.dumps({
        "correct": not problems,
        "attempted": len(solves),
        "failed": len(solves) - len(ok),
        "metrics": {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
