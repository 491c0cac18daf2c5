"""Shared fixtures plus the acceptance summary printer."""

import re

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite",
    max_examples=200,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
settings.load_profile("suite")


@pytest.fixture(scope="session", autouse=True)
def _isolated_cache(tmp_path_factory):
    # the suite never reads or writes the user's cache; tests that set
    # SQUAREQUAD_CACHE themselves override this for their own duration
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("SQUAREQUAD_CACHE", str(tmp_path_factory.mktemp("squarequad-cache")))
        yield


@pytest.fixture
def rng():
    return np.random.default_rng(987234)


@pytest.fixture
def interpolant_evals(monkeypatch):
    """Rule kinds of the solutions passed to interpolant_eval, one per call."""
    from squarequad import fredholm

    calls = []
    evaluate = fredholm.interpolant_eval

    def spy(sol, *args, **kwargs):
        calls.append(sol.rulekind)
        return evaluate(sol, *args, **kwargs)

    monkeypatch.setattr(fredholm, "interpolant_eval", spy)
    return calls


_CRIT = re.compile(r"test_criterion_(\d+)")
_outcomes: dict = {}


def pytest_runtest_logreport(report):
    m = _CRIT.search(report.nodeid)
    if m is None or "test_acceptance" not in report.nodeid:
        return
    if report.when == "call" or (report.when == "setup" and report.failed):
        crit = int(m.group(1))
        _outcomes[crit] = _outcomes.get(crit, True) and report.passed


def pytest_terminal_summary(terminalreporter):
    if not _outcomes:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for crit in sorted(_outcomes):
        verdict = "PASS" if _outcomes[crit] else "FAIL"
        terminalreporter.write_line(f"ACCEPTANCE {crit}: {verdict}")
