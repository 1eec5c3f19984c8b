"""Shared pytest hooks and helpers: collect acceptance-criterion outcomes and
print them as a summary section at the end of the run; measure the traced
memory peak of a block."""

import tracemalloc
from contextlib import contextmanager
from types import SimpleNamespace

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


def record_criterion(line: str) -> None:
    CRITERION_LINES.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in CRITERION_LINES:
            terminalreporter.write_line(line)
