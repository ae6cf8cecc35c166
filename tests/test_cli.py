import json

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from nsdpkit import cli, fixtures, kkt, model

import regen_lock


def scaled_identity_poly(m=2, **kwargs):
    return model.MatrixPolyProblem(
        n=1, m=m, c0=0.0, c_lin=np.array([1.0]), c_quad=np.zeros((1, 1)),
        a0=np.zeros((m, m)), a_lin=(np.eye(m),), b_quad={},
        name="scaled-identity", **kwargs)


def run(argv):
    return cli.main([str(a) for a in argv])


def assert_clean_error(rc, capsys, fragment, code=cli.EXIT_ERROR):
    """``rc`` is ``code`` and stderr is one line, ``error: <fragment>...``."""
    err = capsys.readouterr().err.splitlines()
    assert rc == code
    assert len(err) == 1 and err[0].startswith(f"error: {fragment}"), err


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


def test_diagnose_problem_without_point_exits_3(tmp_path, capsys):
    path = tmp_path / "scaled-identity.json"
    model.save_problem(scaled_identity_poly(), path)
    rc = run(["diagnose", "--problem", path, "--out-dir", tmp_path])
    assert_clean_error(rc, capsys, "no reference point: give --point or a file x_bar")


def test_diagnose_subset_cap_exits_3(tmp_path, capsys):
    # G(x) = x I vanishes at x_bar = 0, so the kernel has m - r = 13 columns
    path = tmp_path / "scaled-identity.json"
    model.save_problem(scaled_identity_poly(m=13, x_bar=np.array([0.0])), path)
    rc = run(["diagnose", "--problem", path, "--checks", "weak-crcq",
              "--out-dir", tmp_path])
    assert_clean_error(rc, capsys, "subset enumeration over 13 columns exceeds the cap 12")


def test_diagnose_rejects_implication_breaking_tables(tmp_path, capsys):
    tables = load_tables()
    tables["ex-3.2"]["checks"]["seq-cpld"] = "VIOLATED"
    path = tmp_path / "tables.json"
    path.write_text(json.dumps(tables))
    rc = run(["diagnose", "--fixture", "ex-3.2", "--checks", "nondegeneracy",
              "--expected", path, "--out-dir", tmp_path])
    assert_clean_error(rc, capsys, "expected-verdict tables break the implication "
                       "ordering: ex-3.2: ", code=cli.EXIT_MISMATCH)
    assert not list(tmp_path.glob("*.verdict"))


def test_problem_file_with_nan_is_rejected(tmp_path, capsys):
    path = tmp_path / "scaled-identity.json"
    model.save_problem(scaled_identity_poly(x_bar=np.array([0.0])), path)
    data = json.loads(path.read_text())
    data["constraint"]["constant"][0] = float("nan")
    path.write_text(json.dumps(data))  # json writes the NaN literal
    rc = run(["diagnose", "--problem", path, "--out-dir", tmp_path])
    assert_clean_error(rc, capsys, "constraint.constant has a non-finite entry")
    assert not list(tmp_path.glob("*.verdict"))


UNKNOWN_CHECK = "expected table 'scaled-identity'.checks names unknown check 'nondegeneracyy'"


@pytest.mark.parametrize("path,value,fragment,extra", [
    (("n",), None, "n must be an integer", []),
    (("constraint", "linear"), 5, "constraint.linear must be a list of 1 matrices", []),
    (("objective",), [1.0], "objective must be a JSON object", []),
    ((), [1, 2], "problem document must be a JSON object", []),
    (("expected",), {"checks": {"nondegeneracyy": "VIOLATED"}}, UNKNOWN_CHECK, []),
    (("expected",), {"checks": {"robinson": ["VIOLATED", "VIOLATD"]}},
     "expected table 'scaled-identity'.checks['robinson'] has unknown status 'VIOLATD'",
     []),
    # --point drops the file's table, but only after checking it
    (("expected",), {"checks": {"nondegeneracyy": "VIOLATD"}}, UNKNOWN_CHECK,
     ["--point=1.0"]),
], ids=["n-null", "constraint-linear-5", "objective-list", "top-level-list",
        "expected-unknown-check", "expected-unknown-status",
        "expected-unknown-check-with-point"])
def test_malformed_problem_file_exits_3(tmp_path, capsys, path, value, fragment, extra):
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
    rc = run(["diagnose", "--problem", problem, *extra, "--out-dir", tmp_path])
    assert_clean_error(rc, capsys, fragment)
    assert not list(tmp_path.glob("*.verdict"))


@pytest.mark.parametrize("config,fragment", [
    ([1, 2], "--config must hold a JSON object"),
    ({"safeguard_polcy": "zero"}, "unknown config key(s) 'safeguard_polcy'"),
    ({"safeguard_policy": "zero", "theta": 0.5},
     "unknown config key(s) 'safeguard_policy'"),
    ({"theta": "x"}, "config key 'theta' must be a finite number"),
    ({"max_outer": 12.5}, "config key 'max_outer' must be an integer"),
    ({"rho1": True}, "config key 'rho1' must be a finite number"),
], ids=["not-an-object", "misspelled-key", "removed-key", "string-float",
        "float-int", "bool-float"])
def test_config_rejects_what_it_cannot_use(tmp_path, capsys, config, fragment):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    rc = run(["solve", "--fixture", "ex-4.2", "--config", path,
              "--out-dir", tmp_path])
    assert_clean_error(rc, capsys, fragment)
    assert not list(tmp_path.glob("*.trace"))


@pytest.mark.parametrize("solver,config,fragment", [
    ("al", {"max_outer": 0}, "config key 'max_outer' must be at least 1"),
    ("penalty", {"max_outer": 0}, "config key 'max_outer' must be at least 1"),
    ("sqp", {"max_iter": 0}, "config key 'max_iter' must be at least 1"),
    ("al", {"target_tol": -1.0}, "config key 'target_tol' must be at least 0.0"),
    ("penalty", {"target_tol": -1.0}, "config key 'target_tol' must be at least 0.0"),
    ("sqp", {"target_tol": -1.0}, "config key 'target_tol' must be at least 0.0"),
    ("al", {"inner_max_iter": 0}, "inner_max_iter must be at least 1"),
    ("al", {"stagnation_window": 0}, "stagnation_window must be at least 1"),
    ("penalty", {"stagnation_window": 0}, "stagnation_window must be at least 1"),
    ("al", {"inner_memory": -1}, "inner_memory must be at least 0"),
    ("al", {"trust_radius": 0.0}, "trust_radius must be positive"),
    ("penalty", {"trust_radius": -1.0}, "trust_radius must be positive"),
    ("penalty", {"rho_growth": 1.0}, "config key 'rho_growth' must exceed 1"),
    ("penalty", {"rho_growth": 0.0}, "config key 'rho_growth' must exceed 1"),
], ids=["al-max_outer", "penalty-max_outer", "sqp-max_iter", "al-target_tol",
        "penalty-target_tol", "sqp-target_tol", "al-inner_max_iter",
        "al-stagnation_window", "penalty-stagnation_window", "al-inner_memory",
        "al-trust_radius", "penalty-trust_radius", "penalty-rho_growth-1",
        "penalty-rho_growth-0"])
def test_config_rejects_values_below_floor(tmp_path, capsys, solver,
                                          config, fragment):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    rc = run(["solve", "--fixture", "ex-4.2", "--solver", solver,
              "--config", path, "--out-dir", tmp_path])
    assert_clean_error(rc, capsys, fragment)
    assert not list(tmp_path.glob("*.trace"))


def test_solve_empty_trace_exits_3(tmp_path, capsys):
    # G(x) = 2x^2 - 1 linearizes at x0 = 0 to the infeasible -1 >= 0, so
    # SQP stops before its first record.
    poly = model.MatrixPolyProblem(
        n=1, m=1, c0=0.0, c_lin=np.array([1.0]), c_quad=np.zeros((1, 1)),
        a0=-np.eye(1), a_lin=(np.zeros((1, 1)),), b_quad={(0, 0): 2.0 * np.eye(1)},
        name="circle", x_bar=np.array([1.0]))
    path = tmp_path / "circle.json"
    model.save_problem(poly, path)
    rc = run(["solve", "--problem", path, "--x0", "0", "--solver", "sqp",
              "--out-dir", tmp_path])
    assert_clean_error(rc, capsys, "the sqp solver recorded no iteration "
                       "(termination: subproblem_infeasible)")
    assert not list(tmp_path.glob("*.trace"))


def test_solve_unbounded_exits_3(tmp_path, capsys):
    # f(x) = -x - x^2 over the constant G = 1: the AL inner loop leaves
    # its trust radius in the first outer iteration
    poly = model.MatrixPolyProblem(
        n=1, m=1, c0=0.0, c_lin=np.array([-1.0]), c_quad=-np.eye(1),
        a0=np.eye(1), a_lin=(np.zeros((1, 1)),), b_quad={}, name="concave")
    path = tmp_path / "concave.json"
    model.save_problem(poly, path)
    rc = run(["solve", "--problem", path, "--solver", "al", "--out-dir", tmp_path])
    assert_clean_error(rc, capsys, "the al solver did not converge "
                       "(termination: unbounded)")
    assert (tmp_path / "concave-al.trace").exists()


@pytest.mark.parametrize("argv", [
    ["diagnose", "--point", "5"], ["solve", "--point", "5"], ["solve", "--x0", "5"],
    ["diagnose", "--problem"], ["solve", "--problem"],
])
def test_fixture_rejects_point_and_x0(tmp_path, capsys, argv):
    if argv[-1] == "--problem":  # a valid file, which would run on its own
        argv = argv + [tmp_path / "one.json"]
        model.save_problem(scaled_identity_poly(x_bar=np.zeros(1)), argv[-1])
        fragment = "give --fixture or --problem, not both"
    else:
        fragment = "--point and --x0 apply only to --problem"
    rc = run(argv + ["--fixture", "ex-4.2", "--out-dir", tmp_path])
    assert_clean_error(rc, capsys, fragment)
    assert not list(tmp_path.glob("*.verdict")) + list(tmp_path.glob("*.trace"))


@pytest.mark.parametrize("budget,fragment", [
    ("n_q=16.0", "budget field 'n_q' must be an integer"),
    ("angle_grid=1e3", "budget field 'angle_grid' must be an integer"),
    ("t0=nan", "budget field 't0' must be a finite number"),
], ids=["float-n_q", "float-angle_grid", "nan-t0"])
def test_budget_rejects_wrong_type(tmp_path, capsys, budget, fragment):
    rc = run(["diagnose", "--fixture", "ex-4.2", "--checks", "robinson",
              "--budget", budget, "--out-dir", tmp_path])
    assert_clean_error(rc, capsys, fragment)
    assert not list(tmp_path.glob("*.verdict"))


#: Options a subcommand used to parse without reading them, each given
#: after an otherwise valid and cheap command line.
REMOVED_OPTIONS = [
    ("solve", "--seed", "5"), ("solve", "--budget", "n_q=1"),
    ("solve", "--msr-samples", "-3"), ("solve", "--expected", "tables.json"),
    ("diagnose", "--x0", "0"), ("diagnose", "--config", "nope.json"),
    ("regress", "--fixture", "nope"), ("regress", "--problem", "nope.json"),
    ("regress", "--point", "0"), ("regress", "--x0", "0"),
    ("regress", "--config", "nope.json"),
]
VALID = {"solve": ["solve", "--fixture", "ex-4.2"],
         "diagnose": ["diagnose", "--fixture", "ex-4.2", "--checks", "nondegeneracy"],
         "regress": ["regress", "--suite", "props", "--prop-cases", "1"]}


@pytest.mark.parametrize("argv", [
    VALID["solve"] + ["--solver", "bogus"],
    VALID["diagnose"] + ["--bogus", "1"],
    VALID["diagnose"] + ["--msr-samples", "abc"],
    ["regress", "--suite", "bogus"],
    # counts below 1, rejected before any suite or check runs
    pytest.param(["regress", "--suite", "full", "--msr-samples", "0"],
                 id="regress-msr-samples-0"),
    pytest.param(["diagnose", "--fixture", "ex-4.2", "--checks", "nondegeneracy,msr",
                  "--msr-samples", "0"], id="diagnose-msr-samples-0"),
    pytest.param(["regress", "--suite", "props", "--prop-cases", "-1"],
                 id="regress-prop-cases-negative"),
    pytest.param(["regress", "--suite", "props", "--prop-cases", "0"],
                 id="regress-prop-cases-0"),
] + [VALID[command] + [option, value] for command, option, value in REMOVED_OPTIONS],
    ids=lambda argv: f"{argv[0]}-{argv[-2].lstrip('-')}")
def test_usage_error_exits_3(tmp_path, capsys, argv):
    tables = tmp_path / "tables.json"
    tables.write_text(json.dumps(load_tables()))
    rc = run([tables if a == "tables.json" else a for a in argv]
             + ["--out-dir", tmp_path / "out"])
    err = capsys.readouterr().err
    assert rc == cli.EXIT_ERROR
    assert "error:" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_help_exits_0(capsys):
    assert run(["diagnose", "--help"]) == cli.EXIT_OK
    assert "--checks" in capsys.readouterr().out


@pytest.mark.parametrize("command", sorted(VALID))
@pytest.mark.parametrize("via", ["option", "environment"])
@pytest.mark.parametrize("below", ["", "out"], ids=["file", "under-file"])
def test_unusable_out_dir_exits_3(tmp_path, capsys, monkeypatch, command, via,
                                  below):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    out = blocker / below
    argv = VALID[command]
    if via == "option":
        argv = argv + ["--out-dir", out]
    else:
        monkeypatch.setenv("NSDPKIT_OUT_DIR", str(out))
    assert_clean_error(run(argv), capsys, "[Errno")


@pytest.mark.parametrize("command", ["diagnose", "regress"])
@pytest.mark.parametrize("tables,fragment", [
    ([1, 2], "expected-verdict tables must be a JSON object"),
    ({"ex-4.2": {"checks": 5}},
     "expected table 'ex-4.2'.checks must be a JSON object"),
    (None, "[Errno 2] No such file or directory"),
    ({"ex-4.2": {"checks": {"robinsn": "VIOLATED"}}},
     "expected table 'ex-4.2'.checks names unknown check 'robinsn'"),
    ({"ex-4.2": {"checks": {"nondegeneracy": "VIOLATD"}}},
     "expected table 'ex-4.2'.checks['nondegeneracy'] has unknown status 'VIOLATD'"),
    ({"ex-4.2": {}, "ex-9.9": {}},
     "expected-verdict tables name unknown fixture 'ex-9.9'"),
], ids=["list", "checks-number", "missing", "unknown-check", "unknown-status",
        "unknown-fixture"])
def test_malformed_expected_tables_exit_3(tmp_path, capsys, command, tables,
                                          fragment):
    path = tmp_path / "tables.json"
    if tables is not None:
        path.write_text(json.dumps(tables))
    argv = ["diagnose", "--fixture", "ex-4.2", "--checks", "nondegeneracy"] \
        if command == "diagnose" else ["regress", "--suite", "cq"]
    rc = run(argv + ["--expected", path, "--out-dir", tmp_path / "out"])
    assert_clean_error(rc, capsys, fragment)
    assert not (tmp_path / "out").exists()


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

    monkeypatch.setattr(linalg, "_decompose_2x2", stall)
    rc = run(argv + ["--out-dir", tmp_path])
    assert_clean_error(rc, capsys, "Jacobi iteration did not converge")


def test_stacked_kernel_failure_exits_3(tmp_path, capsys, monkeypatch):
    # m = 3, G(x) = [[x1, x2, 0], [x2, 1, 0], [0, 0, 1]]: diagonal at x_bar = 0,
    # so the point itself decomposes, but dense along e2, where the weak
    # check's stacked sequences stop at the sweep cap
    from nsdpkit import linalg

    e = np.eye(3)
    poly = model.MatrixPolyProblem(
        n=2, m=3, c0=0.0, c_lin=np.array([1.0, 1.0]), c_quad=np.zeros((2, 2)),
        a0=np.diag([0.0, 1.0, 1.0]),
        a_lin=(np.outer(e[0], e[0]), np.outer(e[0], e[1]) + np.outer(e[1], e[0])),
        b_quad={}, name="dense-along-e2", x_bar=np.zeros(2))
    path = tmp_path / "dense-along-e2.json"
    model.save_problem(poly, path)
    monkeypatch.setattr(linalg, "_JACOBI_MAX_SWEEPS", 0)
    rc = run(["diagnose", "--problem", path, "--checks", "weak-crcq",
              "--out-dir", tmp_path])
    assert_clean_error(rc, capsys, "Jacobi iteration did not converge after 0 sweeps")


def test_reduction_failure_exits_3(tmp_path, capsys, monkeypatch):
    from nsdpkit import caratheodory

    def fail(*args, **kwargs):
        raise caratheodory.ReductionError("null direction produced no usable step")

    monkeypatch.setattr(caratheodory, "reduce", fail)
    rc = run(["regress", "--suite", "solvers", "--out-dir", tmp_path])
    assert_clean_error(rc, capsys, "null direction produced no usable step")


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


def test_regress_cq_deterministic(tmp_path, regress_cq, lock):
    reports = []
    hashes = []
    for rc, out, report in (regress_cq, regen_lock.regress("cq", tmp_path)):
        assert rc == cli.EXIT_OK
        assert "0 failed" in out
        report = dict(report)
        hashes.append(report.pop("content_sha256"))
        report.pop("generated-at")
        reports.append(report)
    assert reports[0] == reports[1]
    assert hashes[0] == hashes[1]
    assert hashes[0] == lock["regress_cq_sha256"]
    assert reports[0]["summary"]["failed"] == 0


def test_residual_rows_and_summary_read_the_stored_residuals(monkeypatch):
    fix = fixtures.default_registry().get("ex-4.2")
    trace = cli._run_solver(fix.problem, fix.x0, "al", {"max_outer": 4})
    recomputed = [kkt.kkt_residual(fix.problem, rec.x, rec.y) for rec in trace.records]
    calls = []
    monkeypatch.setattr(kkt, "kkt_residual", lambda *args: calls.append(args))
    rows = cli._residual_rows(fix.fixture_id, "al", trace)
    summary = cli._summary_text(fix, "al", trace)
    assert calls == []
    assert [row[4:8] for row in rows] == [
        (res.stationarity, res.feasibility, res.complementarity,
         res.dual_feasibility) for res in recomputed]
    assert f"stationarity: {recomputed[-1].stationarity:.6e}" in summary


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


# ---------------------------------------------------------------------------
# fuzz of the three subcommands

#: JSON documents the fuzz hands over as files, by name; "missing" names
#: no file.
FUZZ_FILES = {
    "problem": model.problem_to_dict(scaled_identity_poly(x_bar=np.array([0.0]))),
    "problem-list": [1, 2],
    "problem-n-null": {**model.problem_to_dict(scaled_identity_poly()), "n": None},
    "problem-asymmetric": {**model.problem_to_dict(scaled_identity_poly()),
                           "constraint": {"constant": [[0.0, 1.0], [0.0, 0.0]],
                                          "linear": [[1.0, 0.0, 1.0]]}},
    "problem-empty-lists": {**model.problem_to_dict(scaled_identity_poly()),
                            "constraint": {"constant": [], "linear": [[]]}},
    "config-ok": {"max_outer": 4, "theta": 0.25},
    "config-list": [1, 2],
    "config-theta-str": {"theta": "x"},
    "config-theta-out-of-range": {"theta": 2.0},
    "config-max-outer-float": {"max_outer": 12.5},
    "config-bool": {"inner_memory": True},
    "config-unknown": {"safeguard_policy": "zero"},
    "tables-list": [1, 2],
    "tables-checks-number": {"ex-4.2": {"checks": 5}},
    "tables-status-number": {"ex-4.2": {"checks": {"robinson": 5}}},
    "tables-not-object": {"ex-4.2": "VIOLATED"},
    "tables-broken-order": {"ex-3.2": {"checks": {
        "seq-cpld": "VIOLATED", "seq-crcq": "CERTIFIED_HOLDS"}}},
}
VECTORS = ["0", "0.5", "-0.5", "nan", "inf", "1,2", "abc", ""]
BAD_BUDGETS = ["n_q=16.0", "angle_grid=1e3", "bogus=1", "n_q", "t0=nan",
               "t0=-1", "shrink_levels=3", "n_q=true", "seed=-1"]
#: Option values per subcommand.  Sources, checks and budgets stay cheap,
#: and every regress value is rejected before a suite runs.
FUZZ_OPTIONS = {
    "solve": {
        "--point": VECTORS, "--x0": VECTORS,
        "--config": [f for f in FUZZ_FILES if f.startswith("config")] + ["missing"],
        "--solver": ["al", "penalty", "sqp", "bogus"],
        "--seed": ["5"], "--budget": ["n_q=1"], "--msr-samples": ["-3"],
        "--expected": ["tables-list"], "--checks": ["nondegeneracy"],
    },
    "diagnose": {
        "--point": VECTORS, "--budget": BAD_BUDGETS + ["n_q=2", "t0=0.05"],
        "--seed": ["0", "7", "-1", "abc"], "--msr-samples": ["abc", "5"],
        "--expected": [f for f in FUZZ_FILES if f.startswith("tables")] + ["missing"],
        "--x0": ["0"], "--config": ["config-ok"], "--solver": ["al"],
    },
    "regress": {
        "--suite": ["bogus", ""], "--budget": BAD_BUDGETS,
        "--seed": ["abc"], "--msr-samples": ["abc"],
        "--expected": [f for f in FUZZ_FILES if f.startswith("tables")] + ["missing"],
        "--fixture": ["ex-4.2"], "--problem": ["problem"], "--point": ["0"],
        "--x0": ["0"], "--config": ["config-ok"], "--checks": ["nondegeneracy"],
    },
}
SOURCES = [["--fixture", "ex-4.2"], ["--fixture", "ex-9.9"], ["--problem", "problem"],
           ["--problem", "problem-list"], ["--problem", "problem-n-null"],
           ["--problem", "problem-asymmetric"], ["--problem", "problem-empty-lists"],
           ["--problem", "missing"], []]
CHECK_LISTS = ["nondegeneracy", "nondegeneracy,bogus", ",", "nlp-crcq", "msr,,"]
DOCUMENTED = {"solve": {0, 2, 3}, "diagnose": {0, 1, 3}, "regress": {0, 1, 3}}
FILE_NAMES = set(FUZZ_FILES) | {"missing"}


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    for name, doc in FUZZ_FILES.items():
        (root / f"{name}.json").write_text(json.dumps(doc))
    return root


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_fuzzed_command_lines_exit_with_documented_codes(fuzz_dir, data):
    command = data.draw(st.sampled_from(sorted(FUZZ_OPTIONS)))
    pool = FUZZ_OPTIONS[command]
    if command == "regress":  # cheapest suite, should an option slip through
        argv = ["regress", "--suite", "props", "--prop-cases", "1"]
    else:
        argv = [command] + data.draw(st.sampled_from(SOURCES))
    if command == "diagnose":
        argv += ["--checks", data.draw(st.sampled_from(CHECK_LISTS))]
    options = data.draw(st.lists(st.sampled_from(sorted(pool)), unique=True,
                                 min_size=1 if command == "regress" else 0,
                                 max_size=3))
    for option in options:
        argv += [option, data.draw(st.sampled_from(pool[option]))]
    argv = [fuzz_dir / f"{a}.json" if a in FILE_NAMES else a for a in argv]
    rc = run(argv + ["--out-dir", fuzz_dir / "out"])
    event(f"{command} exit {rc}")
    assert rc in DOCUMENTED[command], argv
