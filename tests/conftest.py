import json
from pathlib import Path

import pytest

import regen_lock


@pytest.fixture(scope="session")
def lock():
    """The behaviour lock: statuses, digests and hashes pinned on one
    platform (x86_64, Python 3.11, numpy 2.4.6)."""
    path = Path(__file__).parent / "data" / "behaviour_lock.json"
    return json.loads(path.read_text())


@pytest.fixture(scope="session")
def regress_cq(tmp_path_factory):
    """One ``nsdpkit regress --suite cq`` run: (exit code, stdout, report)."""
    return regen_lock.regress("cq", tmp_path_factory.mktemp("regress-cq"))


@pytest.fixture(scope="session")
def regress_solvers(tmp_path_factory):
    """One ``nsdpkit regress --suite solvers`` run: (exit code, stdout, report)."""
    return regen_lock.regress("solvers", tmp_path_factory.mktemp("regress-solvers"))
