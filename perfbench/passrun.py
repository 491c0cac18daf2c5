"""One pass of a workload in a fresh interpreter.

    python3 perfbench/passrun.py SPEC_JSON

SPEC_JSON names the workload, seed, whether to trace, the checkout root,
the output file, and the parent's clock reading taken just before this
process was started.  The parent sets SQUAREQUAD_CACHE to a private
directory.  With ``setup_only`` the pass stops after import and input
generation, which gives the parent one more set-up sample.
"""

from __future__ import annotations

import json
import math
import os
import resource
import sys
import time
import traceback
from pathlib import Path

import workloads


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    names = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
             "openblas_get_num_threads64_", "openblas_get_num_threads")
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in names:
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _rule_digits(squarequad) -> float:
    """-log10 of the worst weight or node error of the 512-point Chebyshev Gauss rule."""
    import numpy as np

    n = 512
    rule = squarequad.gauss_rule(squarequad.JacobiWeight(-0.5, -0.5), n)
    k = np.arange(1, n + 1)
    exact_nodes = np.sort(np.cos((2 * k - 1) * np.pi / (2 * n)))
    werr = float(np.max(np.abs(rule.weights - np.pi / n) / (np.pi / n)))
    xerr = float(np.max(np.abs(rule.nodes - exact_nodes)))
    return -math.log10(max(werr, xerr))


def main(spec_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    root = Path(spec["root"]).resolve()
    cache = Path(os.environ["SQUAREQUAD_CACHE"]).resolve()

    import numpy as np

    import squarequad
    import squarequad.cli  # noqa: F401
    import squarequad.testproblems  # noqa: F401

    if not Path(squarequad.__file__).resolve().is_relative_to(root / "src"):
        raise SystemExit(f"squarequad imported from {squarequad.__file__}, not {root / 'src'}")
    if squarequad.testproblems.cache_dir().resolve() != cache:
        raise SystemExit("squarequad would not use the private cache directory")

    ops = workloads.make_ops(spec["workload"], spec["seed"])
    ready = time.monotonic()
    result = {
        "setup_s": ready - spec["spawned"],
        "numpy": np.__version__,
        "python": sys.version.split()[0],
        "blas_threads": _blas_threads(),
    }
    if spec["setup_only"]:
        _write(spec["out"], result)
        return 0

    tracer = None
    if spec["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    records = []
    for op in ops:
        t0 = time.perf_counter()
        try:
            if tracer is None:
                values = workloads.run_op(op, squarequad)
            else:
                values = tracer.run_span(f"bench.{op['label']}", workloads.run_op,
                                         op, squarequad, tracer)
            error = None
        except Exception:  # one failed operation must not hide the others
            values, error = {}, traceback.format_exc(limit=3)
        records.append({"label": op["label"], "seconds": time.perf_counter() - t0,
                        "values": values, "error": error})
    result["ops"] = records
    result["ops_s"] = sum(r["seconds"] for r in records)
    if tracer is not None:
        tracer.active = False
        result["trace"] = tracer.dump()
    if spec["rule_digits"]:
        result["rule_digits"] = _rule_digits(squarequad)
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    _write(spec["out"], result)
    return 0


def _write(path, doc):
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        json.dump(doc, fh)
    os.replace(tmp, path)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
