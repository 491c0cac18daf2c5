"""Spans and counters around the calls into each squarequad layer.

Everything here lives in the benchmark: the library is not modified.  The
tracer replaces each public function of a layer module, in every squarequad
module that holds a reference to it, with a wrapper that records a span
(id, parent id, name, start, end) and, for a few names, a counter.  Wrapping
the name a caller resolves at run time is what makes a layer reached only
through another one visible: ``fredholm`` calls ``gmres`` through its own
module globals, so ``fredholm.gmres`` is the attribute replaced.

``install`` runs in the pass process; ``layer_metrics`` runs in the parent
on the plain data the passes wrote out, and needs neither numpy nor
squarequad.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter

LAYERS = ("tridiag", "orthopoly", "rules", "cubature", "linsolve", "fredholm",
          "testproblems", "cli")

# counts that must repeat exactly between runs of the same code and inputs
EXACT_COUNTS = (
    "linsolve.matvecs",
    "linsolve.flops",
    "linsolve.gmres.iterations",
    "fredholm.kernel_evals",
    "tridiag.eig_tridiag.calls",
    "testproblems.cache_writes",
)


class Tracer:
    """In-memory span list plus named counters and maxima for one process."""

    def __init__(self):
        self.spans = []  # [id, parent id or None, name, start, end]
        self.counts = Counter()
        self.maxima = {}
        self.rule_keys = set()
        self.active = True
        self._stack = []

    def _open(self, name):
        rec = [len(self.spans), self._stack[-1] if self._stack else None, name,
               time.perf_counter(), 0.0]
        self.spans.append(rec)
        self._stack.append(rec[0])
        return rec

    def _close(self, rec):
        rec[4] = time.perf_counter()
        self._stack.pop()

    def run_span(self, name, fn, *args, **kwargs):
        """Call fn inside a span named name (used for the benchmark's own ops)."""
        rec = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(rec)

    def bump(self, key, amount=1):
        self.counts[key] += int(amount)

    def at_least(self, key, value):
        self.maxima[key] = max(self.maxima.get(key, 0), int(value))

    def wrap(self, fn, name, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            state = before(args, kwargs) if before is not None else None
            rec = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(rec)
            if after is not None:
                after(tracer, args, kwargs, out, state)
            return out

        return traced

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "counts": dict(self.counts),
            "maxima": dict(self.maxima),
            "rule_distinct": len(self.rule_keys),
        }


# ---------------------------------------------------------------- counters


def _hooks(np, tp):
    """Counter hooks keyed by span name: (before, after)."""

    def eig_after(tr, args, kwargs, out, state):
        tr.at_least("tridiag.eig_tridiag.max_n", len(out.values))

    def rule_after(kind):
        def after(tr, args, kwargs, out, state):
            w, n = args[0], args[1]
            tr.rule_keys.add((float(w.alpha), float(w.beta), int(n), kind))
        return after

    def eval_orth_after(tr, args, kwargs, out, state):
        tr.bump("orthopoly.eval_orthonormal.values", out.size)

    def apply_after(tr, args, kwargs, out, state):
        tr.bump("cubature.integrand_evals", args[0].npoints)

    def matvec_before(args, kwargs):
        return args[0].flops

    def matvec_after(tr, args, kwargs, out, state):
        tr.bump("linsolve.flops", args[0].flops - state)

    def to_dense_after(tr, args, kwargs, out, state):
        n = args[0].N
        tr.bump("linsolve.dense_bytes", 8 * n * n)

    def cond_after(tr, args, kwargs, out, state):
        op = args[0]
        n = op.N if hasattr(op, "N") else np.asarray(op).shape[0]
        tr.at_least("linsolve.condition_number_inf.max_n", n)
        tr.bump("linsolve.dense_bytes", 8 * n * n)  # the explicit inverse

    def gmres_after(tr, args, kwargs, out, state):
        tr.bump("linsolve.gmres.iterations", out[1].iterations)

    def interp_after(tr, args, kwargs, out, state):
        points = np.broadcast(np.asarray(args[1]), np.asarray(args[2])).size
        tr.bump("fredholm.interpolant_eval.points", points)

    def disk_get_after(tr, args, kwargs, out, state):
        tr.bump("testproblems.cache_reads")
        if out is not None:
            tr.bump("testproblems.cache_hits")

    def disk_store_after(tr, args, kwargs, out, state):
        tr.bump("testproblems.cache_writes")
        # the store rewrites the whole file, so its size is the bytes written
        tr.bump("testproblems.cache_bytes", tp._cache_file(args[0]).stat().st_size)

    return {
        "tridiag.eig_tridiag": (None, eig_after),
        "rules.gauss_rule": (None, rule_after("gauss")),
        "rules.antigauss_rule": (None, rule_after("antigauss")),
        "orthopoly.eval_orthonormal": (None, eval_orth_after),
        "cubature.apply": (None, apply_after),
        "linsolve.matvec": (matvec_before, matvec_after),
        "linsolve.to_dense": (None, to_dense_after),
        "linsolve.condition_number_inf": (None, cond_after),
        "linsolve.gmres": (None, gmres_after),
        "fredholm.interpolant_eval": (None, interp_after),
        "testproblems.cache_read": (None, disk_get_after),
        "testproblems.cache_write": (None, disk_store_after),
    }


def _counting_kernel(tracer, np, fn):
    @functools.wraps(fn)
    def kernel(*args):
        out = fn(*args)
        if tracer.active:
            tracer.bump("fredholm.kernel_evals", np.size(out))
        return out

    return kernel


def install(tracer: Tracer) -> None:
    """Wrap every layer's public functions wherever squarequad refers to them."""
    import numpy as np

    import squarequad.cli  # noqa: F401  (makes every layer module importable below)
    from squarequad import cubature, linsolve
    from squarequad import testproblems as tp

    hooks = _hooks(np, tp)
    wrappers = {}
    for layer in LAYERS:
        mod = sys.modules[f"squarequad.{layer}"]
        for attr in mod.__all__:
            fn = getattr(mod, attr)
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                name = f"{layer}.{attr}"
                wrappers[fn] = tracer.wrap(fn, name, *hooks.get(name, (None, None)))
    for modname, mod in list(sys.modules.items()):
        if modname != "squarequad" and not modname.startswith("squarequad."):
            continue
        for attr, val in list(vars(mod).items()):
            if inspect.isfunction(val) and val in wrappers:
                setattr(mod, attr, wrappers[val])

    # methods and the private disk-cache entry points: the only way to see
    # apply, matvec, densification and cache traffic from outside
    methods = (
        (cubature.CubatureRule2D, "apply", "cubature.apply"),
        (linsolve.SystemOperator, "matvec", "linsolve.matvec"),
        (linsolve.SystemOperator, "to_dense", "linsolve.to_dense"),
        (tp, "_disk_get", "testproblems.cache_read"),
        (tp, "_disk_store", "testproblems.cache_write"),
    )
    for owner, attr, name in methods:
        setattr(owner, attr, tracer.wrap(getattr(owner, attr), name, *hooks[name]))

    # kernels are looked up in these registries when a case builds its problem
    for registry in (tp.KERNELS_1D, tp.KERNELS_2D):
        for key, fn in list(registry.items()):
            registry[key] = _counting_kernel(tracer, np, fn)


# ------------------------------------------------------------- aggregation

# (metric, unit) in the order they are reported
PER_LAYER = (
    ("tridiag.eig_tridiag.calls", "count"),
    ("tridiag.eig_tridiag.self_s", "s"),
    ("tridiag.eig_tridiag.max_n", "count"),
    ("rules.calls", "count"),
    ("rules.self_s", "s"),
    ("rules.distinct_ratio", "ratio"),
    ("orthopoly.eval_orthonormal.calls", "count"),
    ("orthopoly.eval_orthonormal.self_s", "s"),
    ("orthopoly.eval_orthonormal.values", "count"),
    ("cubature.bracketing_diagnostic.calls", "count"),
    ("cubature.bracketing_diagnostic.self_s", "s"),
    ("cubature.apply.self_s", "s"),
    ("cubature.integrand_evals", "count"),
    ("fredholm.kernel_evals", "count"),
    ("fredholm.assemble_system.self_s", "s"),
    ("fredholm.solve_nystrom.self_s", "s"),
    ("fredholm.interpolant_eval.self_s", "s"),
    ("fredholm.interpolant_eval.points", "count"),
    ("linsolve.matvecs", "count"),
    ("linsolve.flops", "flop"),
    ("linsolve.matvec.self_s", "s"),
    ("linsolve.condition_number_inf.self_s", "s"),
    ("linsolve.condition_number_inf.max_n", "count"),
    ("linsolve.dense_bytes", "computed_B"),
    ("linsolve.gmres.self_s", "s"),
    ("linsolve.gmres.iterations", "count"),
    ("linsolve.lu_solve.self_s", "s"),
    ("linsolve.stein_solve.self_s", "s"),
    ("testproblems.run_case.self_s", "s"),
    ("testproblems.cache_reads", "count"),
    ("testproblems.cache_hits", "count"),
    ("testproblems.cache_writes", "count"),
    ("testproblems.cache_bytes", "B"),
    ("cli.main.self_s", "s"),
    ("cli.stdout_bytes", "B"),
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
    ("selfcheck.count_mismatches", "count"),
)


def self_times(spans) -> tuple:
    """Per-name total self time and call count of one process's spans.

    Self time is a span's duration minus the time its direct children
    cover; spans of one process nest, so children never overlap.
    """
    covered = Counter()
    for _sid, parent, _name, start, end in spans:
        if parent is not None:
            covered[parent] += end - start
    self_s = Counter()
    calls = Counter()
    for sid, _parent, name, start, end in spans:
        self_s[name] += (end - start) - covered[sid]
        calls[name] += 1
    return self_s, calls


def layer_metrics(traces) -> dict:
    """Per-layer metrics of one cold + warm cycle from the passes' trace dumps."""
    self_s, calls, counts, maxima = Counter(), Counter(), Counter(), {}
    distinct = 0
    nspans = 0
    for t in traces:
        s, c = self_times(t["spans"])
        self_s.update(s)
        calls.update(c)
        counts.update(t["counts"])
        for k, v in t["maxima"].items():
            maxima[k] = max(maxima.get(k, 0), v)
        distinct += t["rule_distinct"]
        nspans += len(t["spans"])
    rule_calls = calls["rules.gauss_rule"] + calls["rules.antigauss_rule"]
    out = {}
    for metric, _unit in PER_LAYER:
        if metric.endswith(".self_s"):
            base = metric[: -len(".self_s")]
            if base == "rules":
                out[metric] = self_s["rules.gauss_rule"] + self_s["rules.antigauss_rule"]
            else:
                out[metric] = self_s[base]
        elif metric.endswith(".calls"):
            base = metric[: -len(".calls")]
            out[metric] = rule_calls if base == "rules" else calls[base]
        elif metric.endswith(".max_n"):
            out[metric] = maxima.get(metric, 0)
        elif metric == "rules.distinct_ratio":
            out[metric] = distinct / rule_calls if rule_calls else 0.0
        elif metric == "linsolve.matvecs":
            out[metric] = calls["linsolve.matvec"]
        elif metric == "trace.spans":
            out[metric] = nspans
        elif metric in ("trace.overhead_s", "selfcheck.count_mismatches"):
            continue  # filled in by the caller, which has the untraced pass
        else:
            out[metric] = counts[metric]
    return out
