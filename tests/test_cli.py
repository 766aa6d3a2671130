"""In-process exercises of the weberosc command-line front end."""

from dataclasses import replace
import json
import math

import pytest

from weberosc import cli, dynamics, forced, oracle, specfun, weber
from weberosc.errors import ConfigError


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


@pytest.mark.parametrize("count", ["0", "-3"])
def test_zeros_refused_count_prints_nothing(capsys, count):
    assert cli.main(["zeros", "--count", count]) == 2
    assert capsys.readouterr().out == ""


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


def test_zero_crossings_skip_rounding_noise():
    """A first sample of +-5.6e-17 where x(0) = 0 is not a crossing."""
    tail = [0.0099, 0.5, -0.3, -0.7, 0.2]
    exact = cli._zero_crossings([0.0] + tail)
    assert exact == 2
    for noise in (5.6e-17, -5.6e-17):
        assert cli._zero_crossings([noise] + tail) == exact
    assert cli._zero_crossings([]) == 0
    assert cli._zero_crossings([0.0, 0.0]) == 0


def test_transient_oracle_flag(tmp_path, capsys):
    rc = cli.main(["transient", "--preset", "I", "--drag", "0.5",
                   "--samples", "21", "--oracle", "--out", str(tmp_path)])
    assert rc == 0
    assert "max_rel_err=" in capsys.readouterr().out
    # x0 = 2 lies past the rod end L = 1: no sample is kept, none checked
    cfg = tmp_path / "off_rod.json"
    cfg.write_text(json.dumps({"x0": 2.0}))
    rc = cli.main(["transient", "--preset", "II", "--drag", "1", "--oracle",
                   "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 0
    assert "max_rel_err=-" in capsys.readouterr().out


def test_transient_default_drag_set(tmp_path):
    rc = cli.main(["transient", "--preset", "V", "--samples", "11",
                   "--out", str(tmp_path)])
    assert rc == 0
    for A in dynamics.DEFAULT_DRAG_SET:
        assert (tmp_path / ("transient_V_A%g.csv" % A)).exists()


def test_transient_bad_drag(tmp_path):
    assert cli.main(["transient", "--preset", "I", "--drag", "0.5,zap",
                     "--out", str(tmp_path)]) == 2


def test_config_file_merge(tmp_path):
    """A config file sets the physics; --preset then sets q and k2 and
    --drag sets A over it."""
    cfg = tmp_path / "arm.json"
    cfg.write_text(json.dumps({"omega0": 2.5, "k2": 99.0, "A": 3.0}))
    assert cli.main(["transient", "--config", str(cfg), "--preset", "I",
                     "--drag", "0.5", "--samples", "11",
                     "--out", str(tmp_path)]) == 0
    _, rows = _read_csv(tmp_path / "transient_I_A0.5.csv")
    ref = dynamics.apply_preset(weber.PhysicalConfig(omega0=2.5), "I", A=0.5)
    res = dynamics.run_transient(ref, n_samples=11)
    assert [float(row[1]) for row in rows] == [s.x for s in res.samples]


def test_config_unknown_key(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"presett": "I"}))
    assert cli.main(["transient", "--config", str(cfg)]) == 2


def test_config_not_a_dict(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text("[1, 2]")
    assert cli.main(["transient", "--config", str(cfg)]) == 2


def test_config_malformed_json(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text('{"x0": 2.0')
    assert cli.main(["transient", "--config", str(cfg)]) == 2
    assert "config %s: Expecting" % cfg in capsys.readouterr().err


def test_write_csv_leaves_nothing_when_a_row_fails(tmp_path):
    """A row that raises midway leaves neither the target nor a .tmp."""
    def rows():
        yield (1.0, 2.0)
        raise ConfigError("row 2")

    with pytest.raises(ConfigError):
        cli.write_csv(str(tmp_path / "out.csv"), ["a", "b"], rows())
    assert list(tmp_path.iterdir()) == []


def test_config_missing_file(tmp_path):
    assert cli.main(["transient",
                     "--config", str(tmp_path / "nope.json")]) == 2


@pytest.mark.parametrize("bad", [
    {"preset": "I"}, {"drag": [0.5]}, {"n_samples": 11}, {"out": "."},
    {"oracle": False}, {"n_terms": 7},
])
def test_config_run_key_types(tmp_path, bad):
    """A config file holds PhysicalConfig fields only: run keys are
    unknown keys (exit 2, no CSV); run values come from flags."""
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(bad))
    for command in ("transient", "forced", "polar"):
        assert cli.main([command, "--config", str(cfg),
                         "--out", str(tmp_path)]) == 2
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("bad, flags", [
    ({"k2": "10"}, ["--preset", "V"]),
    ({"A": True}, []),
    ({"q": None}, ["--preset", "I"]),
    ({"omega0": 10 ** 400}, []),
    ({"k2": -1}, ["--preset", "I"]),
    ({"A": -1}, []),
    ({"H": -5}, []),
])
def test_config_values_must_be_numbers(tmp_path, bad, flags):
    """A config file is one PhysicalConfig: a value it refuses (a string,
    bool, null, out-of-range integer or a sign-rule breach) is refused by
    name, even when --preset or --drag would replace it.  H is no longer
    a field, so it is an unknown key."""
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(bad))
    key = next(iter(bad))
    with pytest.raises(ConfigError, match=key):
        cli.load_config(str(cfg))
    assert cli.main(["transient", "--config", str(cfg), "--drag", "0.5",
                     "--samples", "11", "--out", str(tmp_path)] + flags) == 2
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("argv", [
    ["transient", "--preset", "I", "--drag", "0.5"],
    ["polar", "--preset", "I"],
])
def test_unforced_commands_refuse_mu(tmp_path, argv):
    """transient and polar draw the mu = 0 closed form: a config's mu is
    refused (exit 2, no CSV) instead of silently dropped."""
    cfg = tmp_path / "mu.json"
    cfg.write_text(json.dumps({"mu": 1.0}))
    assert cli.main(argv + ["--config", str(cfg), "--samples", "11",
                            "--out", str(tmp_path)]) == 2
    assert not list(tmp_path.glob("*.csv"))


_READS = {
    "transient": ["--preset", "--drag", "--samples", "--oracle", "--config",
                  "--out"],
    "forced": ["--preset", "--drag", "--mu", "--samples", "--terms",
               "--config", "--out"],
    "polar": ["--preset", "--samples", "--theta-max", "--config", "--out"],
    "zeros": ["--count"],
}
_FLAG_ARGS = {
    "--preset": ["I"], "--drag": ["0.5"], "--mu": ["3"], "--samples": ["3"],
    "--terms": ["7"], "--oracle": [], "--config": ["arm.json"],
    "--out": ["."], "--theta-max": ["1"], "--count": ["5"],
}


@pytest.mark.parametrize("command, flag", [
    (command, flag) for command in sorted(_READS)
    for flag in sorted(_FLAG_ARGS) if flag not in _READS[command]])
def test_unread_flag_is_usage_error(tmp_path, monkeypatch, command, flag):
    """A flag its command would not read is refused by argparse (exit 2)
    before anything runs: polar --drag 0.5 cannot pass for a damped
    curve."""
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.main([command, flag] + _FLAG_ARGS[flag])
    assert exc.value.code == 2
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("command", ["transient", "forced"])
def test_drag_list_with_colliding_file_names(tmp_path, command):
    """0.2 and 0.2000001 both print as A0.2: the list is refused before
    the first CSV is written, instead of one run overwriting the other."""
    assert cli.main([command, "--preset", "I", "--drag", "0.2,0.2000001",
                     "--samples", "11", "--out", str(tmp_path)]) == 2
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_input_is_config_error(tmp_path, value):
    """A NaN or infinite value in any field is exit 2, never NaN output."""
    for name in weber.PhysicalConfig.__dataclass_fields__:
        with pytest.raises(ConfigError, match=name):
            weber.PhysicalConfig(**{name: value})
    out = ["--out", str(tmp_path)]
    assert cli.main(["transient", "--preset", "V", "--drag=%r" % value]
                    + out) == 2
    assert cli.main(["forced", "--preset", "I", "--mu=%r" % value] + out) == 2
    # a bad drag later in the list is refused before any CSV is written
    for argv in (["transient"], ["forced", "--mu", "1"]):
        assert cli.main(argv + ["--preset", "I",
                                "--drag=0.5,%r" % value] + out) == 2
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("command", ["forced", "polar", "transient"])
@pytest.mark.parametrize("samples", [0, 1])
def test_too_few_samples_is_config_error(tmp_path, command, samples):
    """A grid needs both ends: fewer than 2 samples is exit 2, and no CSV
    is written."""
    mu = ["--mu", "1"] if command == "forced" else []
    assert cli.main([command, "--preset", "I", "--samples", str(samples),
                     "--out", str(tmp_path)] + mu) == 2
    assert not list(tmp_path.glob("*.csv"))


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


def test_forced_csv_rows_match_library_calls(tmp_path):
    """Each row, re-read, equals the separate library calls bit for bit."""
    rc = cli.main(["forced", "--preset", "I", "--mu", "1", "--terms", "10",
                   "--samples", "11", "--out", str(tmp_path)])
    assert rc == 0
    cfg = replace(dynamics.apply_preset(weber.PhysicalConfig(), "I"), mu=1.0)
    fs = forced.solve_forced_ivp(cfg, n_terms=10)
    horizon = dynamics.horizon(cfg)
    ps = forced.variation_constants(weber.map_params(cfg), cfg.mu,
                                    n_terms=10, t_end=horizon)
    _, rows = _read_csv(tmp_path / "forced_A0.csv")
    assert len(rows) == 11
    for i, row in enumerate(rows):
        t = horizon * i / 10
        x, xdot = forced.eval_forced(fs, t)
        c1 = -cfg.mu * forced.integrate_expansion(fs.exp1, t)
        c2 = cfg.mu * forced.integrate_expansion(fs.exp2, t)
        xbar, _ = forced.eval_forced(ps, t)
        assert [float(v).hex() for v in row] == \
            [v.hex() for v in (t, x, xdot, c1, c2, xbar)]


def test_forced_rows_stay_on_the_fitted_span(tmp_path, capsys):
    """With q = 0.08 the rows run to 1/q = 12.5 s, past the default
    t_end = 10 s: both t_bar lie beyond the last row, and x follows the
    oracle to the end."""
    cfg_path = tmp_path / "arm.json"
    cfg_path.write_text(json.dumps({"q": 0.08}))
    rc = cli.main(["forced", "--config", str(cfg_path), "--mu", "1",
                   "--drag", "0.3", "--terms", "40", "--samples", "26",
                   "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    t_bars = out.split("t_bar=(")[1].split(")")[0].split(",")
    _, rows = _read_csv(tmp_path / "forced_A0.3.csv")
    assert float(rows[-1][0]) == 12.5
    assert min(float(v) for v in t_bars) > 12.5
    cfg = weber.PhysicalConfig(q=0.08, A=0.3, mu=1.0)
    res = oracle.integrate_ode(weber.map_params(cfg), cfg.mu, cfg.x0,
                               cfg.v0, 12.5, rel_tol=1e-11, n_samples=26)
    x_ref = res.x.tolist()
    err = max(abs(float(row[1]) - v) for row, v in zip(rows, x_ref))
    assert err <= 1e-2 * max(map(abs, x_ref))


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


def test_forced_refuses_overlong_expansion(tmp_path, capsys):
    """3,184 terms reach past the J0-integral cap: exit 2 before the fit,
    no CSV, and the message names the term count and its limit."""
    assert cli.main(["forced", "--mu", "1", "--terms", "3184",
                     "--out", str(tmp_path)]) == 2
    assert not list(tmp_path.glob("*.csv"))
    err = capsys.readouterr().err
    assert "n_terms = 3184 exceeds the limit of 3183 terms" in err


def test_forced_numeric_failure_exit_code(tmp_path):
    """Preset IV at A = 0.5 out to t_end = 25 needs a Kummer series of
    more than 500 terms while searching for t_bar: a typed numeric
    failure (exit 3), not a crash."""
    cfg = tmp_path / "long.json"
    cfg.write_text(json.dumps({"t_end": 25.0}))
    assert cli.main(["forced", "--preset", "IV", "--mu", "1", "--drag", "0.5",
                     "--terms", "20", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 3
    assert not list(tmp_path.glob("*.csv"))


def test_forced_root_failure_exit_code(tmp_path):
    """On preset IV at A = 0.5 neither Lagrange integrand changes sign in
    (10, 15], so no t_bar exists there: exit 4."""
    assert cli.main(["forced", "--preset", "IV", "--mu", "1", "--drag", "0.5",
                     "--terms", "20", "--out", str(tmp_path)]) == 4
    assert not list(tmp_path.glob("*.csv"))


# a slow spin-down arm whose x1 x2' at t = 0 leaves the double range
_OVERFLOW_ARM = {"q": 0.014153800993282034, "k2": 17.8592306700409}


@pytest.mark.parametrize("args, config", [
    pytest.param(["transient", "--drag", "0.5", "--samples", "11"],
                 {"q": 0.0, "k2": 1.0, "t_end": 10000.0},
                 id="constant-branch"),
    pytest.param(["transient", "--drag", "1.2599284728674824",
                  "--samples", "11"], _OVERFLOW_ARM, id="transient-w0"),
    pytest.param(["polar", "--samples", "5"], _OVERFLOW_ARM, id="polar-w0"),
    pytest.param(["transient", "--preset", "I", "--drag", "0.5",
                  "--samples", "11"], {"v0": 1.7e308}, id="transient-v0"),
    pytest.param(["forced", "--mu", "1.7e308", "--terms", "10",
                  "--samples", "101"], None, id="forced-mu"),
])
def test_constant_branch_overflow_exit_code(tmp_path, args, config):
    """A value past the double range is a typed numeric failure (exit 3)
    with no CSV, not an OverflowError crash or rows of 0, NaN or inf:
    q = 0 with a growing exponential; W(0) on two slow spin-down arms
    (nu = 205.1 and 209.8), where RK45 reaches |x| = 0.25 and 0.33; the
    constants at v0 = 1.7e308; and the forced row at mu = 1.7e308."""
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        args = args + ["--config", str(cfg)]
    assert cli.main(args + ["--out", str(tmp_path)]) == 3
    assert not list(tmp_path.glob("*.csv"))


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


@pytest.mark.parametrize("preset, theta_max", [("III", "-2"), ("I", "-1"),
                                               ("I", "100")])
def test_polar_rejects_negative_theta_max(tmp_path, capsys, preset,
                                          theta_max):
    """theta < 0 lies before the motion starts on every branch of q, and
    past w0 / (2 q) = 15 (preset I) the arm has stopped: the refusal names
    the value given, not the first sample past the range."""
    assert cli.main(["polar", "--preset", preset, "--theta-max", theta_max,
                     "--out", str(tmp_path)]) == 2
    assert not (tmp_path / "polar.csv").exists()
    assert "theta = %s outside" % theta_max in capsys.readouterr().err


def test_tol_env_override(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "DEFAULT_TOL", 1e-15)
    # an impossible tolerance turns the oracle cross-check into exit 3
    rc = cli.main(["transient", "--preset", "I", "--drag", "0.5",
                   "--samples", "21", "--oracle", "--out", str(tmp_path)])
    assert rc == 3
