"""Shared pytest hooks and helpers: collect acceptance-criterion outcomes and
print them as a summary section at the end of the run; measure the traced
memory peak of a block; reference functions that only the tests call."""

import tracemalloc
from contextlib import contextmanager
from types import SimpleNamespace

import numpy as np
from scipy import special

from scopesets.errors import ParameterError

CRITERION_LINES = []


@contextmanager
def peak_traced_mb():
    """Measure the peak traced allocation of the block, in MB (1e6 bytes).

    numpy reports its array buffers to ``tracemalloc``, so the peak covers
    them.  Yields a namespace whose ``mb`` is set when the block exits.
    """
    peak = SimpleNamespace(mb=float("nan"))
    tracemalloc.start()
    try:
        yield peak
    finally:
        peak.mb = tracemalloc.get_traced_memory()[1] / 1e6
        tracemalloc.stop()


def normal_cdf(x):
    """Standard normal CDF."""
    return special.ndtr(x)


def f_cdf(x, d1, d2):
    """F-distribution CDF via the regularized incomplete beta."""
    if d1 <= 0 or d2 <= 0:
        raise ParameterError("F degrees of freedom must be positive")
    if np.any(np.asarray(x) < 0):
        raise ParameterError("F argument must be >= 0")
    return special.fdtr(d1, d2, x)


def zero_inclusion_event(spec, beta_hat, q: float) -> bool:
    """Exact zero-level inclusion event for an estimate, via the half-space form.

    The event fails iff some direction u with u'b <= 0 has u'v > q ||u||,
    where v and b are the whitened estimate and target; the constrained
    maximum is ||v|| when v'b <= 0 and the norm of v projected off b
    otherwise.
    """
    w, v = np.linalg.eigh(spec.limit_matrix)
    root_inv = (v / np.sqrt(w)) @ v.T
    scale = spec.tau * spec.xi
    v = root_inv @ np.asarray(beta_hat, dtype=float) / scale
    b = root_inv @ spec.beta / scale
    nb = np.linalg.norm(b)
    if nb == 0.0 or float(v @ b) <= 0.0:
        stat = float(np.linalg.norm(v))
    else:
        proj = v - (float(v @ b) / (nb * nb)) * b
        stat = float(np.linalg.norm(proj))
    return stat <= q


def record_criterion(line: str) -> None:
    CRITERION_LINES.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in CRITERION_LINES:
            terminalreporter.write_line(line)
