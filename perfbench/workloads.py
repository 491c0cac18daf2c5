"""The three workloads: seeded inputs, the operations a pass runs, and the
correctness gate their outputs are held to.

Input generation and the gate use only the standard library, so the parent
process can rebuild a pass's inputs from the seed without importing numpy
or squarequad.
"""

from __future__ import annotations

import contextlib
import io
import math
import random

WORKLOADS = ("cubature-tables", "nonsep-eq2", "separable-solves")

# The default seed is the one golden.json and baseline.json were made with;
# confirm a claimed gain on the held-out seed as well.
DEFAULT_SEED = 1
HELDOUT_SEED = 90210

# cubature-tables rule batch: Jacobi exponents drawn from a box and kept when
# the companion nodes stay in the square, sizes from a fixed mid range
RULE_BATCH = 16
RULE_EXPONENTS = (-0.45, 1.5)
RULE_SIZES = (24, 80)
RULE_KINDS = ("gauss", "antigauss", "averaged")
MASS_RTOL = 1e-12

# eq2 rows kept from table 4; the (256,16) row runs the same dense O(N^3)
# inverse that makes the full table cost about 90 s and 2.7 GB
EQ2_SIZES = ((16, 16), (64, 16), (256, 16))


def _contained(alpha: float, beta: float) -> bool:
    """Companion-node containment inequalities, restated for input generation."""
    s = alpha + beta
    if alpha < -0.5 or beta < -0.5:
        return False
    c3 = (2.0 * alpha + 1.0) * (s + 2.0) + 0.5 * (alpha + 1.0) * s * (s + 1.0)
    c4 = (2.0 * beta + 1.0) * (s + 2.0) + 0.5 * (beta + 1.0) * s * (s + 1.0)
    return c3 >= 0.0 and c4 >= 0.0


def jacobi_mass(alpha: float, beta: float) -> float:
    """Total mass 2^(a+b+1) B(a+1, b+1) of the Jacobi weight, via lgamma."""
    return math.exp(
        (alpha + beta + 1.0) * math.log(2.0)
        + math.lgamma(alpha + 1.0)
        + math.lgamma(beta + 1.0)
        - math.lgamma(alpha + beta + 2.0)
    )


def _rule_batch(seed: int) -> list:
    rng = random.Random(seed)
    ops = []
    for i in range(RULE_BATCH):
        exps = []
        while len(exps) < 2:
            a = round(rng.uniform(*RULE_EXPONENTS), 3)
            b = round(rng.uniform(*RULE_EXPONENTS), 3)
            if _contained(a, b):
                exps.append((a, b))
        kind = rng.choice(RULE_KINDS)
        n1 = rng.randint(*RULE_SIZES)
        n2 = rng.randint(*RULE_SIZES)
        (a1, b1), (a2, b2) = exps
        argv = ["rule", "--alpha1", repr(a1), "--beta1", repr(b1),
                "--alpha2", repr(a2), "--beta2", repr(b2),
                "--n1", str(n1), "--n2", str(n2), "--kind", kind]
        ops.append({
            "label": f"rule{i:02d}-{kind}-{n1}x{n2}",
            "type": "rule",
            "argv": argv,
            "mass": jacobi_mass(a1, b1) * jacobi_mass(a2, b2),
        })
    return ops


def make_ops(workload: str, seed: int) -> list:
    """The operations one pass of a workload runs, in order."""
    if workload == "cubature-tables":
        tables = [{"label": f"reproduce-{ident}", "type": "cli", "argv": ["reproduce", ident]}
                  for ident in ("1", "2", "fig1")]
        return tables + _rule_batch(seed)
    if workload == "nonsep-eq2":
        return [{"label": "eq2", "type": "case", "case": "eq2", "solver": None,
                 "sizes": [list(s) for s in EQ2_SIZES]}]
    if workload == "separable-solves":
        runs = (("eq1", "lu"), ("eq3", "gmres-sk"), ("eq3", "stein"),
                ("eq4", None), ("eq4", "stein"))
        return [{"label": f"{case}-{solver or 'auto'}", "type": "case", "case": case,
                 "solver": solver, "sizes": None} for case, solver in runs]
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")


# ------------------------------------------------------------ pass side


def _parse_table(label, text) -> dict:
    """Values of a `reproduce <table>` CSV, keyed label|n1,n2|metric."""
    lines = text.splitlines()
    header = lines[1].split(",")
    out = {}
    for line in lines[2:]:
        cells = line.split(",")
        size = f"{cells[0]},{cells[1]}"
        for name, cell in zip(header[2:-1], cells[2:-1]):
            if cell:
                out[f"{label}|{size}|{name}"] = float(cell)
    return out


def _parse_fig1(label, text) -> dict:
    out = {}
    section = None
    header = []
    for line in text.splitlines():
        if line.startswith("# "):
            section = line[2:].split(":")[0]
            header = []
        elif not header:
            header = line.split(",")
        else:
            cells = line.split(",")
            for name, cell in zip(header[1:], cells[1:]):
                out[f"{label}|{section}|{header[0]}={cells[0]}|{name}"] = float(cell)
    return out


def _parse_rule(label, text) -> dict:
    total = 0.0
    lo, hi = math.inf, -math.inf
    for line in text.splitlines()[2:]:
        x1, x2, w = (float(c) for c in line.split(","))
        total += w
        lo = min(lo, x1, x2)
        hi = max(hi, x1, x2)
    return {f"{label}|weight_sum": total, f"{label}|node_min": lo, f"{label}|node_max": hi}


def run_op(op, squarequad, tracer=None) -> dict:
    """Run one operation in this process and return its checked values."""
    if op["type"] == "case":
        sizes = None if op["sizes"] is None else [tuple(s) for s in op["sizes"]]
        report = squarequad.testproblems.run_case(op["case"], sizes=sizes, solver=op["solver"])
        return {f"{op['label']}|{r.size[0]},{r.size[1]}|{r.metric}": r.computed
                for r in report.rows}
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = squarequad.cli.main(op["argv"])
    text = buf.getvalue()
    if rc != 0:
        raise RuntimeError(f"squarequad {' '.join(op['argv'])} exited {rc}")
    if tracer is not None and tracer.active:
        tracer.bump("cli.stdout_bytes", len(text.encode()))
    if op["type"] == "rule":
        return _parse_rule(op["label"], text)
    if op["argv"][1] == "fig1":
        return _parse_fig1(op["label"], text)
    return _parse_table(op["label"], text)


# ------------------------------------------------------------ gate

_SMALL = 5e-15
_COND_RTOL = 5e-3


def value_kind(key: str) -> str:
    metric = key.rsplit("|", 1)[1]
    if metric in ("iters", "holds"):
        return "exact"
    if metric.startswith("kappa_"):
        return "cond"
    return "error"


def value_ok(kind: str, computed: float, golden: float) -> bool:
    if not math.isfinite(computed):
        return False
    if kind == "exact":
        return computed == golden
    if kind == "cond":
        return abs(computed - golden) <= _COND_RTOL * abs(golden)
    if abs(computed) <= _SMALL and abs(golden) <= _SMALL:
        return True
    return golden != 0.0 and 0.5 <= computed / golden <= 2.0


def expected_keys(ops, golden: dict) -> dict:
    """Every value a pass must produce, mapped to the check it must pass."""
    out = {}
    for op in ops:
        if op["type"] == "rule":
            label = op["label"]
            out[f"{label}|weight_sum"] = ("mass", op["mass"])
            out[f"{label}|node_min"] = ("min", -1.0)
            out[f"{label}|node_max"] = ("max", 1.0)
        else:
            prefix = op["label"] + "|"
            for key, val in golden.items():
                if key.startswith(prefix):
                    out[key] = (value_kind(key), val)
    return out


def gate(ops, golden: dict, values: dict) -> tuple:
    """(attempted, failed keys) for one pass's values against the gate."""
    expected = expected_keys(ops, golden)
    failed = []
    for key, (kind, ref) in expected.items():
        got = values.get(key)
        if got is None:
            ok = False
        elif kind == "mass":
            ok = abs(got - ref) <= MASS_RTOL * ref
        elif kind == "min":
            ok = got >= ref
        elif kind == "max":
            ok = got <= ref
        else:
            ok = value_ok(kind, got, ref)
        if not ok:
            failed.append(key)
    extra = sorted(set(values) - set(expected))
    return len(expected) + len(extra), failed + extra
