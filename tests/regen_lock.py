"""Rewrite tests/data/behaviour_lock.json from the current source.

Run from the root of a checkout:

    PYTHONPATH=src python tests/regen_lock.py

``lock_entries`` computes every entry of the lock: each check's verdict
status and content digest at each fixture, each fixture's recovery
status, the ``regress --suite cq`` and ``--suite solvers`` report
hashes and the platform they were computed on.  ``test_behaviour_lock``
compares the same function's output with the file.  The script prints
the OpenBLAS core that numpy's bundled library runs on this machine
(bits may differ between cores; the name is not written to the lock),
the report hash of every ``regress`` suite (the ``msr``, ``props`` and
``full`` ones are printed only, not locked), then every entry whose
status or digest moved, then rewrites the file.  It writes nothing, and
prints what failed, when a ``regress`` run fails or a verdict of the
matrix does not replay (``failed_replays``).
"""

import contextlib
import ctypes
import io
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from nsdpkit import cli, cq, fixtures, kkt, solvers

LOCK_PATH = Path(__file__).parent / "data" / "behaviour_lock.json"
#: every check runs at every fixture it applies to
ALL_SCOPES = ("default", "embedding", "full")


def verdict_matrix(registry, msr_samples):
    """Verdict of every registered check on every fixture.

    The checks at one fixture share one point context, as in diagnose.
    """
    verdicts = {}
    for fix in registry:
        ctx = cq.PointContext.at(fix.problem, fix.x_bar, curves=fix.curves,
                                 embedding=fix.embedding,
                                 msr_samples=msr_samples)
        names = cq.checks_in(ALL_SCOPES, fix.embedding)
        for name, verdict in cq.run_checks(ctx, names):
            verdicts[fix.fixture_id, name] = verdict
    return verdicts


def replay_target(fix, check):
    """What a verdict of ``check`` at ``fix`` replays against."""
    return fix.embedding if check in cq.checks_in(("embedding",), fix.embedding) \
        else fix.problem


def failed_replays(registry, matrix):
    """One line per verdict of ``verdict_matrix`` that does not replay."""
    return [f"verdict {fid} {check}: {verdict.status} does not replay"
            for (fid, check), verdict in matrix.items()
            if not cq.replay_witness(replay_target(registry.get(fid), check), verdict)]


def penalty_recoveries(registry):
    """Feasibility and recovered multiplier of the penalty run `regress` uses."""
    outcomes = {}
    for fix in registry:
        pen = solvers.solve_external_penalty(
            fix.problem, fix.x0,
            rho_schedule=lambda k: 10.0 ** k,
            inner_tol_schedule=lambda k: 1e-10,
            max_outer=8)
        feasibility = kkt.kkt_residual(fix.problem, pen.final.x,
                                       pen.final.y).feasibility
        rec = kkt.recover_multiplier(fix.problem, pen.certificate(),
                                     fix.x_bar, tol=1e-4)
        outcomes[fix.fixture_id] = (feasibility, rec)
    return outcomes


#: the suites whose ``regress`` report hashes the lock pins
LOCKED_SUITES = ("cq", "solvers")
#: the suites whose report hashes the script prints but does not lock
PRINTED_SUITES = ("msr", "props", "full")


def regress(suite, out_dir):
    """Run ``nsdpkit regress --suite <suite>`` into out_dir: (exit code,
    stdout, report)."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        rc = cli.main(["regress", "--suite", suite, "--out-dir", str(out_dir)])
    report = json.loads((Path(out_dir) / "report.json").read_text())
    return rc, stdout.getvalue(), report


def lock_entries(matrix, recoveries, reports, msr_samples):
    """The lock as a dict, from ``verdict_matrix``, ``penalty_recoveries``
    and the ``regress`` report of each of ``LOCKED_SUITES``, by suite."""
    verdicts = {}
    for (fid, check), verdict in matrix.items():
        text = cq.verdict_to_text(verdict, generated_at="-")
        verdicts.setdefault(fid, {})[check] = {
            "digest": cq.content_digest(text), "status": verdict.status}
    return {
        "generated_with": {"machine": platform.machine(),
                           "numpy": np.__version__,
                           "python": platform.python_version()},
        "msr_samples": msr_samples,
        "recovery": {fid: rec.status for fid, (_, rec) in recoveries.items()},
        **{f"regress_{suite}_sha256": reports[suite]["content_sha256"]
           for suite in LOCKED_SUITES},
        "verdicts": verdicts,
    }


def _flat(lock):
    flat = {f"recovery {fid}": status for fid, status in lock["recovery"].items()}
    for fid, checks in lock["verdicts"].items():
        for check, entry in checks.items():
            flat[f"verdict {fid} {check}"] = f"{entry['status']} {entry['digest']}"
    for key in ("generated_with", "msr_samples",
                *(f"regress_{suite}_sha256" for suite in LOCKED_SUITES)):
        flat[key] = json.dumps(lock.get(key), sort_keys=True)
    return flat


def moved(old, new):
    """One line per entry of the lock whose value differs between two locks."""
    a, b = _flat(old), _flat(new)
    return [f"{key}: {a.get(key)} -> {b.get(key)}"
            for key in sorted(a.keys() | b.keys()) if a.get(key) != b.get(key)]


def openblas_core():
    """Name of the OpenBLAS core in numpy's bundled library, or "unknown"
    where that library or its query is absent."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            query = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        query.restype = ctypes.c_char_p
        return query().decode()
    return "unknown"


def main():
    old = json.loads(LOCK_PATH.read_text())
    registry = fixtures.default_registry()
    reports = {}
    for suite in LOCKED_SUITES + PRINTED_SUITES:
        with tempfile.TemporaryDirectory() as tmp:
            rc, stdout, reports[suite] = regress(suite, tmp)
        if rc != cli.EXIT_OK:
            print(stdout, end="")
            print(f"regress --suite {suite} failed; the lock is left as it is")
            return 1
    matrix = verdict_matrix(registry, old["msr_samples"])
    failed = failed_replays(registry, matrix)
    if failed:
        print("\n".join(failed))
        print(f"{len(failed)} verdicts do not replay; the lock is left as it is")
        return 1
    new = lock_entries(matrix, penalty_recoveries(registry), reports,
                       old["msr_samples"])
    lines = moved(old, new)
    print(f"OpenBLAS core: {openblas_core()}")
    for suite, report in reports.items():
        print(f"regress --suite {suite}: {report['content_sha256']}")
    for line in lines:
        print(line)
    print(f"{len(lines)} entries moved")
    LOCK_PATH.write_text(json.dumps(new, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
