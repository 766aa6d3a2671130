"""In-process exercises of the weberosc command-line front end."""

import json
import math

import pytest

from weberosc import cli, dynamics, forced, specfun, weber


def _read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def test_zeros_table(capsys):
    assert cli.main(["zeros", "--count", "12"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "k,alpha_k,J0(alpha_k)"
    assert len(out) == 13
    for line in out[1:]:
        k, ak, j0 = line.split(",")
        assert float(ak) == specfun.bessel_j0_zero(int(k))
        assert abs(float(j0)) <= 1e-11


def test_zeros_rejects_bad_count():
    assert cli.main(["zeros", "--count", "0"]) == 2


def test_transient_csv_roundtrip(tmp_path, capsys):
    rc = cli.main(["transient", "--preset", "I", "--drag", "0.5",
                   "--samples", "41", "--out", str(tmp_path)])
    assert rc == 0
    path = tmp_path / "transient_I_A0.5.csv"
    header, rows = _read_csv(path)
    assert header == ["t", "x", "xdot", "z", "zdot", "theta", "rho",
                      "Ry", "Rz"]
    assert len(rows) == 41
    # repr rendering: re-parsing reproduces the computed floats bit-exactly
    cfg = dynamics.apply_preset(weber.PhysicalConfig(), "I", A=0.5)
    res = dynamics.run_transient(cfg, n_samples=41)
    for row, s in zip(rows, res.samples):
        assert float(row[0]) == s.t
        assert float(row[1]) == s.x
        assert float(row[7]) == s.Ry
    summary = capsys.readouterr().out
    assert "preset=I A=0.5" in summary
    assert "truncated=False" in summary


def test_transient_oracle_flag(tmp_path, capsys):
    rc = cli.main(["transient", "--preset", "I", "--drag", "0.5",
                   "--samples", "21", "--oracle", "--out", str(tmp_path)])
    assert rc == 0
    assert "max_rel_err=" in capsys.readouterr().out


def test_transient_default_drag_set(tmp_path):
    rc = cli.main(["transient", "--preset", "V", "--samples", "11",
                   "--out", str(tmp_path)])
    assert rc == 0
    for A in dynamics.DEFAULT_DRAG_SET:
        assert (tmp_path / ("transient_V_A%g.csv" % A)).exists()


def test_transient_bad_drag(tmp_path):
    assert cli.main(["transient", "--preset", "I", "--drag", "0.5,zap",
                     "--out", str(tmp_path)]) == 2


def test_config_file_merge(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"preset": "I", "drag": [0.5],
                               "n_samples": 11, "out": str(tmp_path)}))
    assert cli.main(["transient", "--config", str(cfg)]) == 0
    assert (tmp_path / "transient_I_A0.5.csv").exists()


def test_config_unknown_key(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"presett": "I"}))
    assert cli.main(["transient", "--config", str(cfg)]) == 2


def test_config_not_a_dict(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text("[1, 2]")
    assert cli.main(["transient", "--config", str(cfg)]) == 2


def test_config_missing_file(tmp_path):
    assert cli.main(["transient",
                     "--config", str(tmp_path / "nope.json")]) == 2


def test_forced_summary_and_csv(tmp_path, capsys):
    rc = cli.main(["forced", "--preset", "I", "--drag", "1", "--mu", "1",
                   "--terms", "12", "--samples", "21",
                   "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "forced mu=1 A=1" in out
    assert "n_terms=12" in out
    tb = float(out.split("t_bar=(")[1].split(",")[0])
    assert tb == pytest.approx(10.5031, abs=5e-3)
    header, rows = _read_csv(tmp_path / "forced_A1.csv")
    assert header == ["t", "x", "xdot", "c1", "c2", "x_particular"]
    assert len(rows) == 21


def test_forced_zero_mu_matches_transient_closed_form(tmp_path):
    """mu=0 particular part vanishes, so the forced path must reproduce
    the homogeneous closed form exactly (only 3 expansion terms needed:
    their coefficients are multiplied by mu=0)."""
    rc = cli.main(["forced", "--preset", "I", "--drag", "1", "--mu", "0",
                   "--terms", "3", "--samples", "21",
                   "--out", str(tmp_path)])
    assert rc == 0
    _, rows = _read_csv(tmp_path / "forced_A1.csv")
    cfg = dynamics.apply_preset(weber.PhysicalConfig(), "I", A=1.0)
    sol = weber.solve_ivp(weber.map_params(cfg), cfg.x0, cfg.v0)
    for row in rows:
        t, x = float(row[0]), float(row[1])
        xref, _ = weber.eval_solution(sol, t)
        assert x == pytest.approx(xref, rel=1e-10, abs=1e-12)
        assert float(row[5]) == 0.0  # x_particular


def test_forced_rejects_constant_branch(tmp_path):
    assert cli.main(["forced", "--preset", "V", "--mu", "1",
                     "--out", str(tmp_path)]) == 2


def test_forced_numeric_failure_exit_code(tmp_path):
    """The Wronskian of preset IV at A = 0.5 loses all accuracy past t ~ 6,
    so the Lagrange integrands cannot be fitted: a typed numeric failure
    (exit 3), not a crash."""
    assert cli.main(["forced", "--preset", "IV", "--mu", "1", "--drag", "0.5",
                     "--terms", "20", "--out", str(tmp_path)]) == 3


def test_polar_default_range(tmp_path, capsys):
    rc = cli.main(["polar", "--preset", "I", "--samples", "31",
                   "--out", str(tmp_path)])
    assert rc == 0
    assert "theta_max=15.0" in capsys.readouterr().out
    header, rows = _read_csv(tmp_path / "polar.csv")
    assert header == ["theta", "rho"]
    assert len(rows) == 31
    assert float(rows[-1][0]) == pytest.approx(15.0)


def test_polar_requires_theta_max_when_q_not_positive(tmp_path):
    assert cli.main(["polar", "--preset", "V", "--out", str(tmp_path)]) == 2
    assert cli.main(["polar", "--preset", "V", "--theta-max", "20",
                     "--out", str(tmp_path)]) == 0


def test_tol_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("WEBEROSC_TOL", "1e-15")
    # an impossible tolerance turns the oracle cross-check into exit 3
    rc = cli.main(["transient", "--preset", "I", "--drag", "0.5",
                   "--samples", "21", "--oracle", "--out", str(tmp_path)])
    assert rc == 3
    monkeypatch.setenv("WEBEROSC_TOL", "zap")
    assert cli.main(["transient", "--preset", "I", "--drag", "0.5",
                     "--samples", "21", "--oracle",
                     "--out", str(tmp_path)]) == 2
