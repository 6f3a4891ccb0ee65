"""srnoma benchmark: training, search and oracle throughput in one process.

    python3 bench/run.py --workload train-smoke --seed 0 --seconds 30 --trace 0

Run from anywhere; the package is imported from ``src/`` and the scenes are
read from ``configs/`` of the tree this file sits in.  With ``--trace 0`` the
last stdout line is a JSON object with the end-to-end metrics; with
``--trace 1`` untraced rounds alternate with rounds in which every layer is
wrapped (see ``tracer.py``), and the JSON carries the per-layer metrics plus
the tracing overhead.  Full results go to ``bench/out/``.  See README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import pathlib
import platform
import resource
import sys

# one BLAS thread: A3C's two workers are the only parallelism, within nproc
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# glibc mallopt parameters
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("train-smoke", "train-default", "search"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _pin_malloc_thresholds() -> None:
    """Fix glibc's mmap threshold at 16 MiB (and the trim threshold at twice
    that, as glibc's own adjustment would).  By default the mmap threshold
    rises as large blocks are freed, so whether a replay buffer comes from
    fresh zero pages or from reused heap that calloc must clear depends on
    the run's history, and peak RSS moved by up to 55 MB between runs."""
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return  # not glibc: keep the allocator's defaults
    libc.mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    libc.mallopt(M_MMAP_THRESHOLD, 16 << 20)
    libc.mallopt(M_TRIM_THRESHOLD, 32 << 20)


def _machine() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "blas_threads": {k: os.environ.get(k) for k in BLAS_THREADS},
    }


def main(argv=None) -> int:
    args = _parse(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "srnoma" / "__init__.py").is_file() or \
            not (ROOT / "configs" / "scalar.yaml").is_file():
        print(f"error: no srnoma source tree (src/srnoma, configs/) under {ROOT}",
              file=sys.stderr)
        return 2
    os.environ.update(BLAS_THREADS)  # before numpy is first imported
    _pin_malloc_thresholds()
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from tracer import Tracer, layer_metrics

    spec = workloads.WORKLOADS[args.workload]
    inputs, setup_s, setup_wall_s = workloads.timed_setup(spec, ROOT, args.seed)
    tracer = Tracer() if args.trace else None
    passes = workloads.timed_pass(inputs, args.seconds, tracer)
    measured = passes[-1]
    errors = [e for p in passes for e in p.errors] + workloads.final_checks(inputs, measured)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if args.trace:
        metrics = layer_metrics(tracer, passes[0].medians(spec.wall_clock),
                                measured.medians(spec.wall_clock))
    else:
        metrics = {"setup_s": {"value": setup_s, "unit": "s"},
                   "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"}}
        for name, value in measured.medians(spec.wall_clock).items():
            metrics[name] = {"value": value, "unit": workloads.THROUGHPUT[name]}
    missing = [k for k in workloads.THROUGHPUT if not measured.rates[k]]
    if missing:
        errors.append(f"no successful call measured {missing}")
    result = {
        "correct": not errors,
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": metrics,
    }

    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "machine": _machine(), "result": result, "errors": errors,
        "setup_wall_s": setup_wall_s, "reference_kernel_s": workloads.REFERENCE_KERNEL_S,
        "passes": [{"rounds": p.rounds, "seconds": p.seconds, "attempted": p.attempted,
                    "failed": p.failed, "failures": p.failures, "rates": p.rates,
                    "wall_rates": p.wall_rates, "kernels": p.kernels}
                   for p in passes],
    }
    if tracer is not None:
        tracer.write(OUT / f"{stem}-spans.jsonl")
        detail["patched_at"] = tracer.patched_at
    (OUT / f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")

    for error in errors[:20]:
        print(f"CHECK FAILED: {error}", file=sys.stderr)
    for name, entry in metrics.items():
        print(f"{name:40s} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
