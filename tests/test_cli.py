import json

import numpy as np
import pytest

from nsdpkit import cli, fixtures, kkt, model


def scaled_identity_poly(**kwargs):
    return model.MatrixPolyProblem(
        n=1, m=2, c0=0.0, c_lin=np.array([1.0]), c_quad=np.zeros((1, 1)),
        a0=np.zeros((2, 2)), a_lin=(np.eye(2),), b_quad={},
        name="scaled-identity", **kwargs)


def run(argv):
    return cli.main([str(a) for a in argv])


# ---------------------------------------------------------------------------
# solve


def test_solve_al_fixture(tmp_path, capsys):
    rc = run(["solve", "--fixture", "ex-4.2", "--solver", "al",
              "--out-dir", tmp_path])
    out = capsys.readouterr().out
    assert rc == cli.EXIT_OK
    assert "termination: converged" in out
    assert (tmp_path / "ex-4.2-al-summary.txt").exists()
    trace_path = tmp_path / "ex-4.2-al.trace"
    cert = kkt.read_trace(trace_path, 1, 2)
    assert len(cert) == 2
    assert abs(cert.final.x[0]) <= 1e-12


def test_solve_sqp_fixture(tmp_path, capsys):
    rc = run(["solve", "--fixture", "ex-4.2", "--solver", "sqp",
              "--out-dir", tmp_path])
    assert rc == cli.EXIT_OK
    assert "termination: converged" in capsys.readouterr().out


def test_solve_penalty_divergence_note(tmp_path, capsys):
    rc = run(["solve", "--fixture", "ex-3.1", "--solver", "penalty",
              "--out-dir", tmp_path])
    out = capsys.readouterr().out
    assert rc == cli.EXIT_CAP
    assert "termination: iteration_cap" in out
    assert "multiplier estimates diverged" in out
    summary = (tmp_path / "ex-3.1-penalty-summary.txt").read_text()
    assert "may admit no Lagrange multiplier" in summary


def test_solve_missing_problem_file(tmp_path, capsys):
    rc = run(["solve", "--problem", tmp_path / "nope.json",
              "--out-dir", tmp_path])
    assert rc == cli.EXIT_ERROR
    assert "error:" in capsys.readouterr().err


def test_solve_unknown_fixture(tmp_path, capsys):
    rc = run(["solve", "--fixture", "ex-9.9", "--out-dir", tmp_path])
    assert rc == cli.EXIT_ERROR
    assert "unknown fixture" in capsys.readouterr().err


def test_out_dir_from_environment(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("NSDPKIT_OUT_DIR", str(tmp_path / "envout"))
    rc = run(["solve", "--fixture", "ex-4.2", "--solver", "al"])
    capsys.readouterr()
    assert rc == cli.EXIT_OK
    assert (tmp_path / "envout" / "ex-4.2-al-summary.txt").exists()


# ---------------------------------------------------------------------------
# diagnose


def test_diagnose_fixture_matches_tables(tmp_path, capsys):
    rc = run(["diagnose", "--fixture", "ex-4.2", "--out-dir", tmp_path])
    out = capsys.readouterr().out
    assert rc == cli.EXIT_OK
    assert "MISMATCH" not in out
    assert "(matches expected)" in out
    verdicts = sorted(p.name for p in tmp_path.glob("*.verdict"))
    assert len(verdicts) == len(cli.DEFAULT_CHECKS)
    assert "ex-4.2-robinson.verdict" in verdicts


def test_diagnose_problem_file_mismatch(tmp_path, capsys):
    poly = scaled_identity_poly(
        x_bar=np.array([0.0]),
        expected={"checks": {
            "robinson": ["CERTIFIED_HOLDS", "NO_VIOLATION_FOUND"],
            "weak-crcq": "VIOLATED",
        }})
    path = tmp_path / "scaled-identity.json"
    model.save_problem(poly, path)
    rc = run(["diagnose", "--problem", path, "--checks", "robinson,weak-crcq",
              "--out-dir", tmp_path])
    out = capsys.readouterr().out
    assert rc == cli.EXIT_MISMATCH
    assert "MISMATCH" in out
    assert "1 mismatch(es): weak-crcq" in out


def test_diagnose_point_override_skips_comparison(tmp_path, capsys):
    poly = scaled_identity_poly(
        x_bar=np.array([0.0]),
        expected={"checks": {"weak-crcq": "VIOLATED"}})
    path = tmp_path / "scaled-identity.json"
    model.save_problem(poly, path)
    rc = run(["diagnose", "--problem", path, "--point=1.0",
              "--checks", "robinson", "--out-dir", tmp_path])
    out = capsys.readouterr().out
    assert rc == cli.EXIT_OK
    assert "robinson: CERTIFIED_HOLDS" in out
    assert "no expected table" in out


def test_diagnose_infeasible_point(tmp_path, capsys):
    poly = scaled_identity_poly(x_bar=np.array([0.0]))
    path = tmp_path / "scaled-identity.json"
    model.save_problem(poly, path)
    rc = run(["diagnose", "--problem", path, "--point=-0.5",
              "--checks", "robinson", "--out-dir", tmp_path])
    err = capsys.readouterr().err
    assert rc == cli.EXIT_ERROR
    assert "point is infeasible" in err
    # Frobenius norm of the negative part of G(-0.5) = -I/2
    assert "7.071e-01" in err


def test_diagnose_unknown_budget_field(tmp_path, capsys):
    rc = run(["diagnose", "--fixture", "ex-4.2", "--budget", "bogus=1",
              "--out-dir", tmp_path])
    assert rc == cli.EXIT_ERROR
    assert "unknown budget field" in capsys.readouterr().err


def test_diagnose_unknown_check_fails_before_any_run(tmp_path, capsys):
    rc = run(["diagnose", "--fixture", "ex-4.3",
              "--checks", "nondegeneracy,bogus", "--out-dir", tmp_path])
    assert rc == cli.EXIT_ERROR
    assert "unknown check 'bogus'" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.verdict"))


def assert_clean_error(rc, capsys, fragment):
    err = capsys.readouterr().err
    assert rc == cli.EXIT_ERROR
    assert f"error: {fragment}" in err
    assert "Traceback" not in err


def test_problem_file_with_nan_is_rejected(tmp_path, capsys):
    path = tmp_path / "scaled-identity.json"
    model.save_problem(scaled_identity_poly(x_bar=np.array([0.0])), path)
    data = json.loads(path.read_text())
    data["constraint"]["constant"][0] = float("nan")
    path.write_text(json.dumps(data))  # json writes the NaN literal
    rc = run(["diagnose", "--problem", path, "--out-dir", tmp_path])
    assert_clean_error(rc, capsys, "constraint.constant has a non-finite entry")
    assert not list(tmp_path.glob("*.verdict"))


@pytest.mark.parametrize("path,value,fragment", [
    (("n",), None, "n must be an integer"),
    (("constraint", "linear"), 5, "constraint.linear must be a list of 1 matrices"),
    (("objective",), [1.0], "objective must be a JSON object"),
    ((), [1, 2], "problem document must be a JSON object"),
], ids=["n-null", "constraint-linear-5", "objective-list", "top-level-list"])
def test_malformed_problem_file_exits_3(tmp_path, capsys, path, value, fragment):
    doc = model.problem_to_dict(scaled_identity_poly(x_bar=np.array([0.0])))
    if path:
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
    else:
        doc = value
    problem = tmp_path / "bad.json"
    problem.write_text(json.dumps(doc))
    rc = run(["diagnose", "--problem", problem, "--out-dir", tmp_path])
    assert_clean_error(rc, capsys, fragment)
    assert not list(tmp_path.glob("*.verdict"))


@pytest.mark.parametrize("config,fragment", [
    ([1, 2], "--config must hold a JSON object"),
    ({"safeguard_polcy": "zero"}, "unknown config key(s) 'safeguard_polcy'"),
    ({"safeguard_policy": "zero", "theta": 0.5},
     "unknown config key(s) 'safeguard_policy'"),
], ids=["not-an-object", "misspelled-key", "removed-key"])
def test_config_rejects_what_it_cannot_use(tmp_path, capsys, config, fragment):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    rc = run(["solve", "--fixture", "ex-4.2", "--config", path,
              "--out-dir", tmp_path])
    assert_clean_error(rc, capsys, fragment)
    assert not list(tmp_path.glob("*.trace"))


@pytest.mark.parametrize("command,option,value", [
    ("diagnose", "--point", "nan"),
    ("diagnose", "--point", "inf"),
    ("solve", "--x0", "nan"),
])
def test_non_finite_vector_is_rejected(tmp_path, capsys, command, option, value):
    path = tmp_path / "scaled-identity.json"
    model.save_problem(scaled_identity_poly(x_bar=np.array([0.0])), path)
    rc = run([command, "--problem", path, f"{option}={value}",
              "--out-dir", tmp_path])
    assert_clean_error(rc, capsys, f"{option} '{value}' has a non-finite entry")


@pytest.mark.parametrize("argv", [
    ["diagnose", "--fixture", "ex-4.2"],
    ["solve", "--fixture", "ex-4.2"],
    ["regress", "--suite", "cq"],
])
def test_kernel_failure_exits_3(tmp_path, capsys, monkeypatch, argv):
    from nsdpkit import linalg

    def stall(M):
        raise linalg.JacobiConvergenceError(float("nan"), 100)

    monkeypatch.setattr(linalg, "_jacobi_2x2", stall)
    rc = run(argv + ["--out-dir", tmp_path])
    assert_clean_error(rc, capsys, "Jacobi iteration did not converge")


def test_reduction_failure_exits_3(tmp_path, capsys, monkeypatch):
    from nsdpkit import caratheodory

    def fail(*args, **kwargs):
        raise caratheodory.ReductionError("reduction failed to terminate")

    monkeypatch.setattr(caratheodory, "reduce", fail)
    rc = run(["regress", "--suite", "solvers", "--out-dir", tmp_path])
    assert_clean_error(rc, capsys, "reduction failed to terminate")


def test_diagnose_verdict_file_replayable(tmp_path, capsys):
    from nsdpkit import cq
    rc = run(["diagnose", "--fixture", "ex-3.1", "--checks", "weak-cpld",
              "--out-dir", tmp_path])
    capsys.readouterr()
    assert rc == cli.EXIT_OK
    payload = cq.read_verdict(tmp_path / "ex-3.1-weak-cpld.verdict")
    assert payload["status"] == "VIOLATED"
    problem = fixtures.default_registry().get("ex-3.1").problem
    assert cq.replay_witness(problem, payload)


# ---------------------------------------------------------------------------
# regress


def load_tables():
    from importlib import resources
    raw = resources.files("nsdpkit").joinpath(
        "data/expected_verdicts.json").read_text()
    return json.loads(raw)


def test_regress_cq_deterministic(tmp_path, capsys, lock):
    reports = []
    hashes = []
    for sub in ("a", "b"):
        rc = run(["regress", "--suite", "cq", "--out-dir", tmp_path / sub])
        out = capsys.readouterr().out
        assert rc == cli.EXIT_OK
        assert "0 failed" in out
        report = json.loads((tmp_path / sub / "report.json").read_text())
        hashes.append(report.pop("content_sha256"))
        report.pop("generated-at")
        reports.append(report)
    assert reports[0] == reports[1]
    assert hashes[0] == hashes[1]
    assert hashes[0] == lock["regress_cq_sha256"]
    assert reports[0]["summary"]["failed"] == 0


def test_regress_unknown_budget_field(tmp_path, capsys):
    rc = run(["regress", "--suite", "cq", "--budget", "bogus=1",
              "--out-dir", tmp_path])
    assert rc == cli.EXIT_ERROR
    assert "error: unknown budget field 'bogus'" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_regress_rejects_implication_breaking_tables(tmp_path, capsys):
    tables = load_tables()
    tables["ex-3.2"]["checks"]["seq-cpld"] = "VIOLATED"
    path = tmp_path / "tables.json"
    path.write_text(json.dumps(tables))
    rc = run(["regress", "--suite", "cq", "--expected", path,
              "--out-dir", tmp_path])
    err = capsys.readouterr().err
    assert rc == cli.EXIT_MISMATCH
    assert "break the implication ordering" in err
    assert "ex-3.2" in err and "seq-cpld" in err


def test_regress_flags_wrong_but_consistent_table(tmp_path, capsys):
    tables = load_tables()
    tables["ex-3.2"]["checks"]["weak-robinson"] = "VIOLATED"
    path = tmp_path / "tables.json"
    path.write_text(json.dumps(tables))
    rc = run(["regress", "--suite", "cq", "--expected", path,
              "--out-dir", tmp_path])
    out = capsys.readouterr().out
    assert rc == cli.EXIT_MISMATCH
    assert "FAIL" in out
    assert "ex-3.2" in out and "weak-robinson" in out


# ---------------------------------------------------------------------------
# fixtures listing


def test_fixtures_listing(capsys):
    rc = run(["fixtures"])
    out = capsys.readouterr().out
    assert rc == cli.EXIT_OK
    for fid in fixtures.default_registry().names():
        assert fid in out


def test_entry_point_rejects_missing_source(tmp_path, capsys):
    rc = run(["diagnose", "--out-dir", tmp_path])
    assert rc == cli.EXIT_ERROR
    assert "need --fixture or --problem" in capsys.readouterr().err
