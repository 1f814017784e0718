"""Shared fixtures for the test suite.

CI runs the suite under a small seed matrix (``REPRO_TEST_SEED`` in
{0, 1, 2}); tests exercising stochastic paths take the ``test_seed``
fixture so the matrix actually varies their draws while a plain local
``pytest`` run stays at seed 0.  Seed resolution lives in
:func:`repro.testing.resolve_test_seed`, shared with
``benchmarks/conftest.py`` and the sweep engine.
"""

import io

import pytest

from repro.testing import resolve_test_seed

TEST_SEED = resolve_test_seed()


@pytest.fixture
def test_seed() -> int:
    """The seed for this CI matrix leg (0 outside the matrix)."""
    return TEST_SEED


@pytest.fixture(scope="session")
def run_cli():
    """Call ``python -m repro`` in-process: ``run_cli(argv) -> (exit
    code, stdout text)``; a usage error raises ``SystemExit``."""
    from repro.cli import main

    def run(argv):
        out = io.StringIO()
        code = main([str(a) for a in argv], out=out)
        return code, out.getvalue()

    return run
