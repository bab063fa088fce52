"""Shared pytest wiring for the test suite.

``--chaos-seeds N`` controls how many seeds the randomized chaos tests
(:mod:`tests.test_chaos_convergence`) run with. The default keeps the
tier-1 suite fast; CI's chaos smoke job raises it.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro


def pytest_addoption(parser):
    parser.addoption(
        "--chaos-seeds",
        type=int,
        default=2,
        help="number of seeds to run the chaos convergence tests with",
    )


def pytest_generate_tests(metafunc):
    if "chaos_seed" in metafunc.fixturenames:
        count = metafunc.config.getoption("--chaos-seeds")
        metafunc.parametrize("chaos_seed", range(count))


@pytest.fixture
def run_example(tmp_path):
    """Run ``examples/<name>.py`` as a script inside ``tmp_path``.

    A fresh interpreter, so process-global counters (block ids, say)
    start where a user's run would; returns the directory the example
    wrote its outputs into.
    """
    src = Path(repro.__file__).resolve().parent.parent
    examples = src.parent / "examples"

    def run(name: str) -> Path:
        env = dict(os.environ, PYTHONPATH=str(src))
        subprocess.run(
            [sys.executable, str(examples / f"{name}.py")],
            cwd=tmp_path, env=env, check=True, capture_output=True,
        )
        return tmp_path

    return run
