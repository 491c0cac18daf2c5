"""squarequad benchmark: cold and warm passes of three table workloads.

    python3 perfbench/run.py --workload cubature-tables --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a squarequad checkout; the library is imported from
``src/``.  Each cycle of a workload runs its operations in passes, each in
a fresh interpreter: a cold pass with an empty private SQUAREQUAD_CACHE,
then warm passes reusing what the cold pass wrote.  Cycles repeat, one
after another, while the next one still fits in ``--seconds``; there is
always at least one.  The time left then goes to more warm passes on the
last cycle's cache.  With ``--trace 1`` a cycle is one traced cold pass,
one traced warm pass and one untraced cold pass, whose difference from the
traced one is the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
when every checked value passed the gate, 1 when one did not, and 2 when
the benchmark could not run at all (for example outside a checkout).
Per-run records, with the machine record and the span dumps of traced
runs, are written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent

END_TO_END = (
    ("cold_s", "s"),
    ("warm_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("rule_digits", "digits"),
    ("passed_frac", "ratio"),
)

SETUP_ONLY_SAMPLES = 4  # extra set-up-only interpreters per run, for a steady median
RUN_LIMIT_S = 170.0  # every process of one workload run ends within this


class Run:
    """Spawns the passes of one workload run inside a private scratch directory."""

    def __init__(self, root: Path, workload: str, seed: int, trace: bool):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.ops = workloads.make_ops(workload, seed)
        self.nproc = len(os.sched_getaffinity(0))
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.tmp = root / ".perfbench_tmp" / f"{workload}-{os.getpid()}-{time.time_ns()}"
        self.errors = []
        self._npass = 0

    def spawn(self, cache: Path, *, trace=False, setup_only=False, rule_digits=False):
        """Run one pass; returns its result dict, or None if it did not finish."""
        self._npass += 1
        spec_path = self.tmp / f"pass{self._npass}.json"
        out_path = self.tmp / f"pass{self._npass}.out.json"
        cache.mkdir(parents=True, exist_ok=True)
        env = dict(os.environ)
        src = str(self.root / "src")
        env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
        env["SQUAREQUAD_CACHE"] = str(cache)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = str(self.nproc)
        spec = {
            "workload": self.workload, "seed": self.seed, "trace": trace,
            "setup_only": setup_only, "rule_digits": rule_digits,
            "root": str(self.root), "out": str(out_path),
        }
        spec["spawned"] = time.monotonic()
        spec_path.write_text(json.dumps(spec))
        timeout = max(1.0, self.deadline - time.monotonic())
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "passrun.py"), str(spec_path)],
                cwd=self.root, env=env, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True, timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            self.errors.append(f"pass {self._npass} killed after {timeout:.0f} s")
            return None
        if proc.returncode != 0 or not out_path.exists():
            self.errors.append(f"pass {self._npass} exited {proc.returncode}: {proc.stderr[-2000:]}")
            return None
        result = json.loads(out_path.read_text())
        result["wall_s"] = time.monotonic() - spec["spawned"]
        return result

    def cycle(self, index: int) -> dict:
        """One cold pass and one warm pass on its cache; tracing adds an untraced cold pass."""
        cache = self.tmp / f"cache{index}"
        passes = {"cold": self.spawn(cache, trace=self.trace, rule_digits=True)}
        passes["warm"] = self.spawn(cache, trace=self.trace)
        if self.trace:
            passes["untraced_cold"] = self.spawn(self.tmp / f"cache{index}-untraced")
        return passes

    def _fits(self, start, seconds, cost) -> bool:
        now = time.monotonic()
        return now - start + cost <= seconds and now + 1.5 * cost <= self.deadline

    def execute(self, seconds: float) -> tuple:
        self.tmp.mkdir(parents=True)
        try:
            setups = [self.spawn(self.tmp / "cache-setup", setup_only=True)
                      for _ in range(SETUP_ONLY_SAMPLES)]
            cycles = []
            start = time.monotonic()
            while True:
                t0 = time.monotonic()
                cycles.append(self.cycle(len(cycles)))
                if any(p is None for p in cycles[-1].values()):
                    return setups, cycles
                if not self._fits(start, seconds, time.monotonic() - t0):
                    break
            # an untraced run spends the time left on more warm passes over the
            # last cache, since a warm pass is often too short for a steady median
            last = cycles[-1]
            while not self.trace and self._fits(start, seconds, last["warm"]["wall_s"]):
                result = last[f"warm{len(last)}"] = self.spawn(self.tmp / f"cache{len(cycles) - 1}")
                if result is None:
                    break
            return setups, cycles
        finally:
            shutil.rmtree(self.tmp, ignore_errors=True)


def _gate_pass(run: Run, golden: dict, result) -> tuple:
    if result is None:
        n = len(workloads.expected_keys(run.ops, golden))
        return n, n, ["<pass did not finish>"]
    values = {}
    for rec in result["ops"]:
        values.update(rec["values"])
        if rec["error"]:
            run.errors.append(f"{rec['label']}: {rec['error']}")
    attempted, failed = workloads.gate(run.ops, golden, values)
    return attempted, len(failed), failed


def _median(values):
    return statistics.median(values) if values else None


def _source_sha(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "squarequad").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _git_commit(root: Path):
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _exact_count_mismatches(out_dir: Path, key: str, per_cycle: list) -> list:
    """Names of exact counters that differ between cycles or from an earlier run."""
    bad = {m for m in tracing.EXACT_COUNTS if len({c[m] for c in per_cycle}) > 1}
    record_path = out_dir / "exact_counts.json"
    record = json.loads(record_path.read_text()) if record_path.exists() else {}
    now = {m: per_cycle[0][m] for m in tracing.EXACT_COUNTS}
    if key in record:
        bad |= {m for m in tracing.EXACT_COUNTS if record[key].get(m) != now[m]}
    else:
        record[key] = now
        record_path.write_text(json.dumps(record, indent=1, sort_keys=True))
    return sorted(bad)


def run_workload(root: Path, workload: str, seed: int, seconds: float, trace: bool,
                 golden: dict) -> dict:
    run = Run(root, workload, seed, trace)
    setups, cycles = run.execute(seconds)

    attempted = failed = 0
    failed_keys = []
    for c in cycles:
        for result in c.values():
            a, f, keys = _gate_pass(run, golden[workload], result)
            attempted += a
            failed += f
            failed_keys += keys
    finished = [p for c in cycles for p in c.values() if p is not None]
    first = (finished or [p for p in setups if p is not None] or [{}])[0]
    machine = {
        "nproc": run.nproc,
        "python": first.get("python", platform.python_version()),
        "numpy": first.get("numpy"),
        "blas_threads": first.get("blas_threads"),
        "git_commit": _git_commit(root),
        "source_sha256": _source_sha(root),
        "machine": platform.machine(),
    }
    complete = [c for c in cycles if all(p is not None for p in c.values())]
    report = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "cycles": len(cycles), "machine": machine, "attempted": attempted,
        "failed": failed, "failed_keys": failed_keys[:50], "errors": run.errors,
        "correct": failed == 0 and bool(complete) and not run.errors,
    }

    if not trace:
        setup_samples = [p["setup_s"] for p in setups + finished if p is not None]
        rss_kb = [p["maxrss_kb"] for p in finished if "maxrss_kb" in p]
        rss_kb.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        values = {
            "cold_s": _median([c["cold"]["ops_s"] for c in complete]),
            "warm_s": _median([p["ops_s"] for c in complete
                               for name, p in c.items() if name.startswith("warm")]),
            "setup_s": _median(setup_samples),
            "peak_rss_mb": max(rss_kb) / 1024.0,
            "rule_digits": _median([c["cold"]["rule_digits"] for c in complete]),
            "passed_frac": 1.0 - failed / attempted,
        }
        report["metrics"] = {name: {"value": values[name], "unit": unit}
                             for name, unit in END_TO_END}
        report["op_seconds"] = [
            {name: {r["label"]: r["seconds"] for r in p["ops"]} for name, p in c.items()}
            for c in complete
        ]
        report["setup_samples_s"] = setup_samples
    else:
        per_cycle = []
        for c in complete:
            m = tracing.layer_metrics([c["cold"]["trace"], c["warm"]["trace"]])
            m["trace.overhead_s"] = c["cold"]["ops_s"] - c["untraced_cold"]["ops_s"]
            per_cycle.append(m)
        out_dir = root / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        values = {}
        if per_cycle:
            inputs = hashlib.sha256(json.dumps(run.ops, sort_keys=True).encode()).hexdigest()
            key = f"{workload}|inputs={inputs[:16]}|src={machine['source_sha256'][:16]}"
            mismatched = _exact_count_mismatches(out_dir, key, per_cycle)
            if mismatched:
                print(f"EXACT-COUNT MISMATCH on {workload}: {', '.join(mismatched)}",
                      file=sys.stderr)
            report["exact_count_mismatches"] = mismatched
            values = {name: _median([m[name] for m in per_cycle])
                      for name, _ in tracing.PER_LAYER if name in per_cycle[0]}
            values["selfcheck.count_mismatches"] = len(mismatched)
            spans_path = out_dir / f"spans-{workload}-seed{seed}-{time.time_ns()}.json"
            spans_path.write_text(json.dumps({
                "workload": workload, "seed": seed, "machine": machine,
                "span_fields": ["id", "parent", "name", "start", "end"],
                "cycles": [{name: c[name]["trace"] for name in ("cold", "warm")}
                           for c in complete],
            }))
            report["spans_file"] = str(spans_path.relative_to(root))
        report["metrics"] = {name: {"value": values.get(name), "unit": unit}
                             for name, unit in tracing.PER_LAYER}
    return report


def _write_record(root: Path, report: dict) -> None:
    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    name = f"{report['workload']}-seed{report['seed']}-trace{int(report['trace'])}-{time.time_ns()}.json"
    (out_dir / name).write_text(json.dumps(report, indent=1))


def _print_report(report: dict) -> None:
    m = report["machine"]
    print(f"# {report['workload']} seed={report['seed']} trace={int(report['trace'])} "
          f"cycles={report['cycles']} nproc={m['nproc']} python={m['python']} "
          f"numpy={m['numpy']} blas_threads={m['blas_threads']} "
          f"commit={m['git_commit'] or 'n/a'} src={m['source_sha256'][:12]}")
    for name, entry in report["metrics"].items():
        shown = "n/a" if entry["value"] is None else f"{entry['value']:.6g}"
        print(f"{report['workload']:<18} {name:<40} {shown:>16} {entry['unit']}")
    print(f"{report['workload']:<18} checked values: {report['attempted']} attempted, "
          f"{report['failed']} failed")
    for err in report["errors"]:
        print(f"ERROR {report['workload']}: {err}", file=sys.stderr)
    for key in report["failed_keys"]:
        print(f"GATE FAIL {report['workload']}: {key}", file=sys.stderr)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd().resolve()
    if not (root / "src" / "squarequad" / "__init__.py").is_file():
        print(f"perfbench: {root} holds no src/squarequad; run from a checkout root",
              file=sys.stderr)
        return 2
    golden = json.loads((HERE / "golden.json").read_text())

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    reports = []
    for name in names:
        report = run_workload(root, name, args.seed, args.seconds, bool(args.trace), golden)
        _write_record(root, report)
        _print_report(report)
        reports.append(report)

    correct = all(r["correct"] for r in reports)
    if len(reports) == 1:
        metrics = reports[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": v for r in reports for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
