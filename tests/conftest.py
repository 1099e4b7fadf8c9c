"""Shared fixtures."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

from repro.core.deployment import SecuredDeployment, default_home_environment
from repro.netsim.simulator import Simulator


BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"


@pytest.fixture(scope="session")
def gate():
    """``benchmarks/regression.py`` as a module: the pure gate and the one
    config block every threshold lives in (importing it runs no benchmark)."""
    spec = importlib.util.spec_from_file_location("regression_gate", BENCH_DIR / "regression.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("regression_gate", module)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def env(sim: Simulator):
    return default_home_environment(sim)


@pytest.fixture
def deployment() -> SecuredDeployment:
    return SecuredDeployment.build()
