import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import enkpf
from enkpf import read_matrix_csv, write_matrix_csv
from enkpf.cli import console_main, main


def _write_run_config(path, seed=7, out=None):
    payload = {
        "model": {"kind": "lorenz96", "q": 8, "lead_time": 0.05},
        "filter": {"kind": "enkpf", "policy": {"mode": "adaptive_ess", "band": [0.25, 0.5]}},
        "ensemble_size": 15,
        "cycles": 3,
        "observation": {"components": [1, 3, 5, 7], "noise_variance": 0.5},
        "seed": seed,
    }
    if out is not None:
        payload["output_dir"] = str(out)
    path.write_text(json.dumps(payload))
    return path


def test_run_writes_outputs(tmp_path, capsys):
    cfg = _write_run_config(tmp_path / "cfg.json")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    assert capsys.readouterr().err.strip() == "completed 3 cycles"
    for name in ("cycles.csv", "final_ensemble.csv", "truth.csv"):
        assert (out / name).exists()


def test_run_seed_flag_overrides_config(tmp_path):
    cfg = _write_run_config(tmp_path / "cfg.json", seed=7)
    main(["run", "--config", str(cfg), "--out", str(tmp_path / "a")])
    main(["run", "--config", str(cfg), "--seed", "7", "--out", str(tmp_path / "b")])
    main(["run", "--config", str(cfg), "--seed", "8", "--out", str(tmp_path / "c")])
    a = (tmp_path / "a" / "cycles.csv").read_bytes()
    b = (tmp_path / "b" / "cycles.csv").read_bytes()
    c = (tmp_path / "c" / "cycles.csv").read_bytes()
    assert a == b
    assert a != c


def test_run_rejects_unknown_config_keys(tmp_path):
    cfg = tmp_path / "cfg.json"
    payload = json.loads(_write_run_config(cfg).read_text())
    payload["parallel"] = True
    cfg.write_text(json.dumps(payload))
    with pytest.raises(ValueError):
        main(["run", "--config", str(cfg)])


def test_run_reports_divergence(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "model": {"kind": "lorenz96", "q": 8, "dt": 0.25, "lead_time": 0.25},
                "observation": {"noise_variance": 0.5},
                "ensemble_size": 10,
                "cycles": 50,
                "seed": 1,
                "output_dir": str(tmp_path / "boom"),
            }
        )
    )
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["run", "--config", str(cfg)]) == 1
    assert "run aborted" in capsys.readouterr().err


def test_sweep_stdout_and_file_agree(tmp_path, capsys):
    payload = {
        "priors": ["gaussian"],
        "observations": ["y1"],
        "dims": [10],
        "ensemble_size": 40,
        "gamma_grid": [0.0, 0.5, 1.0],
        "seed": 3,
    }
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps(payload))
    assert main(["sweep", "--config", str(cfg)]) == 0
    stdout = capsys.readouterr().out
    lines = stdout.strip().splitlines()
    assert lines[0] == "prior,y,q,gamma,ess_frac,ess_frac_approx"
    assert len(lines) == 4
    # gamma=1 keeps full diversity (up to rounding in 1/sum(w^2) at w=1/N)
    assert abs(float(lines[-1].split(",")[4]) - 1.0) < 1e-12

    payload["output"] = str(tmp_path / "sweep.csv")
    cfg.write_text(json.dumps(payload))
    assert main(["sweep", "--config", str(cfg)]) == 0
    assert (tmp_path / "sweep.csv").read_text() == stdout

    # output paths in directories that do not exist yet are created
    payload["output"] = str(tmp_path / "fresh" / "dir" / "sweep.csv")
    cfg.write_text(json.dumps(payload))
    assert main(["sweep", "--config", str(cfg)]) == 0
    assert (tmp_path / "fresh" / "dir" / "sweep.csv").read_text() == stdout


def test_summarize_stdout(tmp_path, capsys):
    run_cfg = _write_run_config(tmp_path / "cfg.json", out=tmp_path / "out")
    main(["run", "--config", str(run_cfg)])
    capsys.readouterr()
    assert main(["summarize", "--in", str(tmp_path / "out" / "cycles.csv")]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "score,p10,p50,mean,p90"
    assert {line.split(",")[0] for line in lines[1:]} == {"rmse", "crps_1", "crps_2"}
    summary = tmp_path / "summary.csv"
    main(["summarize", "--in", str(tmp_path / "out" / "cycles.csv"), "--out", str(summary)])
    assert summary.read_text() == "\n".join(lines) + "\n"
    # the run wrote its own summary through the same writer
    assert (tmp_path / "out" / "summary.csv").read_text() == summary.read_text()


def _write_update_inputs(tmp_path):
    gen = np.random.default_rng(12)
    write_matrix_csv(tmp_path / "ens.csv", gen.standard_normal((6, 25)))
    (tmp_path / "obs.csv").write_text(
        "component,value,noise_variance\n1,0.4,0.25\n4,-0.2,0.25\n"
    )
    return tmp_path / "ens.csv", tmp_path / "obs.csv"


def test_update_fixed_gamma(tmp_path, capsys):
    ens_csv, obs_csv = _write_update_inputs(tmp_path)
    out = tmp_path / "upd.csv"
    rc = main(
        ["update", "--ensemble", str(ens_csv), "--obs", str(obs_csv), "--gamma", "0.5", "--out", str(out)]
    )
    assert rc == 0
    err = capsys.readouterr().err
    assert err.startswith("gamma=0.5 ess_frac=")
    updated = read_matrix_csv(out)
    assert updated.shape == (6, 25)
    assert not np.array_equal(updated, read_matrix_csv(ens_csv))


def test_update_auto_gamma_stdout(tmp_path, capsys):
    ens_csv, obs_csv = _write_update_inputs(tmp_path)
    assert main(["update", "--ensemble", str(ens_csv), "--obs", str(obs_csv), "--gamma", "auto"]) == 0
    captured = capsys.readouterr()
    gamma = float(captured.err.split()[0].split("=")[1])
    assert 0.0 <= gamma <= 1.0
    lines = captured.out.strip().splitlines()
    assert lines[0] == "6,25"
    assert len(lines) == 7
    out = tmp_path / "upd.csv"
    args = ["update", "--ensemble", str(ens_csv), "--obs", str(obs_csv), "--gamma", "auto"]
    assert main(args + ["--out", str(out)]) == 0
    assert capsys.readouterr().err == captured.err
    assert out.read_text() == captured.out


def test_update_is_repeatable(tmp_path, capsys):
    ens_csv, obs_csv = _write_update_inputs(tmp_path)
    args = ["update", "--ensemble", str(ens_csv), "--obs", str(obs_csv), "--gamma", "0.3"]
    main(args)
    first = capsys.readouterr()
    main(args)
    second = capsys.readouterr()
    assert first.out == second.out
    main(args + ["--seed", "99"])
    third = capsys.readouterr()
    assert third.out != first.out


def test_update_rejects_bad_obs_file(tmp_path):
    ens_csv, _ = _write_update_inputs(tmp_path)
    bad = tmp_path / "bad_obs.csv"
    bad.write_text("site,value,noise_variance\n1,0.4,0.25\n")
    with pytest.raises(ValueError):
        main(["update", "--ensemble", str(ens_csv), "--obs", str(bad), "--gamma", "0.5"])
    out_of_range = tmp_path / "range_obs.csv"
    out_of_range.write_text("component,value,noise_variance\n7,0.4,0.25\n")
    with pytest.raises(ValueError):
        main(["update", "--ensemble", str(ens_csv), "--obs", str(out_of_range), "--gamma", "0.5"])


def _huge_forecast(tmp_path):
    ens_csv, obs_csv = _write_update_inputs(tmp_path)
    write_matrix_csv(ens_csv, 1e200 * read_matrix_csv(ens_csv))
    return ens_csv, obs_csv


def _overflowing_forecast(tmp_path):
    ens_csv, obs_csv = _write_update_inputs(tmp_path)
    signs = np.sign(read_matrix_csv(ens_csv))
    write_matrix_csv(ens_csv, 1e308 * signs)
    return ens_csv, obs_csv


def _ragged_ensemble(tmp_path):
    ens_csv, obs_csv = _write_update_inputs(tmp_path)
    lines = ens_csv.read_text().splitlines()
    lines[2] = lines[2].rsplit(",", 1)[0]
    ens_csv.write_text("\n".join(lines) + "\n")
    return ens_csv, obs_csv


def _ensemble_cell(cell):
    """Inputs whose forecast has `cell` in column 2 of body line 3."""

    def make_inputs(tmp_path):
        ens_csv, obs_csv = _write_update_inputs(tmp_path)
        lines = ens_csv.read_text().splitlines()
        cells = lines[2].split(",")
        cells[1] = cell
        lines[2] = ",".join(cells)
        ens_csv.write_text("\n".join(lines) + "\n")
        return ens_csv, obs_csv

    return make_inputs


def _ensemble_text(text):
    """Inputs whose forecast file holds `text`."""

    def make_inputs(tmp_path):
        ens_csv, obs_csv = _write_update_inputs(tmp_path)
        ens_csv.write_text(text)
        return ens_csv, obs_csv

    return make_inputs


def _short_body(tmp_path):
    ens_csv, obs_csv = _write_update_inputs(tmp_path)
    lines = ens_csv.read_text().splitlines()
    ens_csv.write_text("\n".join(lines[:-1]) + "\n")
    return ens_csv, obs_csv


def _two_field_obs_row(tmp_path):
    ens_csv, obs_csv = _write_update_inputs(tmp_path)
    obs_csv.write_text("component,value,noise_variance\n1,0.4\n")
    return ens_csv, obs_csv


def _missing_obs(tmp_path):
    ens_csv, _ = _write_update_inputs(tmp_path)
    return ens_csv, tmp_path / "no_such_obs.csv"


def _second_obs_row(row):
    """Inputs whose observation file has `row` after one good row (file line 3)."""

    def make_inputs(tmp_path):
        ens_csv, obs_csv = _write_update_inputs(tmp_path)
        obs_csv.write_text(f"component,value,noise_variance\n1,0.4,0.25\n{row}\n")
        return ens_csv, obs_csv

    return make_inputs


def _no_inputs(tmp_path):
    # --gamma is checked before either file is read
    return tmp_path / "no_such_ensemble.csv", tmp_path / "no_such_obs.csv"


def _bad_gamma(text):
    return _no_inputs, text, f"--gamma must be 'auto' or a number in [0, 1], got '{text}'"


@pytest.mark.parametrize(
    "make_inputs, gamma, expected",
    [
        (_huge_forecast, "0.5", "forecast covariance is not finite"),
        (_overflowing_forecast, "0.5", "forecast covariance is not finite"),
        (_ragged_ensemble, "0.5", "ens.csv, line 3: the number of columns changed from 25 to 24"),
        (_short_body, "0.5", "does not match header"),
        # Python's float reads both cells, np.loadtxt neither
        (_ensemble_cell("1_0"), "0.5",
         "ens.csv, line 3, column 2: could not convert string '1_0' to float64"),
        (_ensemble_cell("\u0661"), "0.5",
         "ens.csv, line 3, column 2: could not convert string '\u0661' to float64"),
        # int() reads both headers, as (10, 1) and (1, 1)
        (_ensemble_text("1_0,1\n" + "1\n" * 10), "0.5",
         "ens.csv, line 1: bad matrix header '1_0,1'"),
        (_ensemble_text("\u0661,1\n1\n"), "0.5",
         "ens.csv, line 1: bad matrix header '\u0661,1'"),
        (_two_field_obs_row, "0.5", "malformed observation row"),
        (_missing_obs, "0.5", "no_such_obs.csv"),
        (_second_obs_row("1.5,0.4,0.25"), "0.5",
         "observation line 3: component must be an integer, got '1.5'"),
        (_second_obs_row("4,-0.2,-0.5"), "0.5",
         "observation line 3: noise_variance must be a positive finite number, got '-0.5'"),
        (_second_obs_row("4,-0.2,0"), "0.5",
         "observation line 3: noise_variance must be a positive finite number, got '0'"),
        (_second_obs_row("4,-0.2,inf"), "0.5",
         "observation line 3: noise_variance must be a positive finite number, got 'inf'"),
        (_second_obs_row("4,nan,0.25"), "0.5",
         "observation line 3: value must be a finite number, got 'nan'"),
        _bad_gamma("abc"),
        _bad_gamma("1.5"),
        _bad_gamma("-0.1"),
        _bad_gamma("nan"),
    ],
    ids=[
        "huge_forecast",
        "overflowing_forecast",
        "ragged_ensemble",
        "short_body",
        "digit_separator",
        "non_ascii_digit",
        "header_digit_separator",
        "header_non_ascii_digit",
        "two_field_obs_row",
        "missing_obs",
        "fractional_component",
        "negative_noise_variance",
        "zero_noise_variance",
        "infinite_noise_variance",
        "nan_value",
        "gamma_not_a_number",
        "gamma_above_one",
        "gamma_below_zero",
        "gamma_nan",
    ],
)
def test_console_script_reports_bad_update_input_in_one_line(tmp_path, make_inputs, gamma, expected):
    ens_csv, obs_csv = make_inputs(tmp_path)
    src = str(Path(enkpf.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "enkpf.cli", "update", "--ensemble", str(ens_csv),
         "--obs", str(obs_csv), "--gamma", gamma],
        capture_output=True, text=True, env=env, cwd=tmp_path,
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    (line,) = proc.stderr.splitlines()
    assert line.startswith("enkpf: ") and expected in line


_FORECAST = np.random.default_rng(12).standard_normal((6, 25))
_TWO_OBS = [(1, 0.4, 0.25), (4, -0.2, 0.25)]


@pytest.mark.parametrize(
    "states, obs_rows, gamma, check",
    [
        pytest.param(_FORECAST[:, :2], _TWO_OBS, "auto", None, id="two_members"),
        pytest.param(_FORECAST, [(c, 0.1 * c, 0.25) for c in range(1, 7)], "auto", None,
                     id="every_component_observed"),
        # zero spread: no gain, no noise, equal weights; the forecast comes back
        pytest.param(np.repeat(_FORECAST[:, :1], 25, axis=1), _TWO_OBS, "auto", np.array_equal,
                     id="duplicated_members"),
        # only member 1 keeps a weight at gamma = 0, so resampling copies it
        pytest.param(_FORECAST, [(c, _FORECAST[c - 1, 0], 1e-8) for c in range(1, 7)], "0",
                     lambda analysis, forecast: np.all(analysis == forecast[:, :1]),
                     id="all_but_one_weight_underflow"),
        pytest.param(_FORECAST, _TWO_OBS, "0", None, id="fixed_gamma_0"),
        pytest.param(_FORECAST, _TWO_OBS, "1", None, id="fixed_gamma_1"),
    ],
)
def test_console_script_update_edge_cases(tmp_path, capsys, states, obs_rows, gamma, check):
    write_matrix_csv(tmp_path / "ens.csv", states)
    rows = "".join(f"{c},{float(v)!r},{s2!r}\n" for c, v, s2 in obs_rows)
    (tmp_path / "obs.csv").write_text("component,value,noise_variance\n" + rows)
    argv = ["update", "--ensemble", str(tmp_path / "ens.csv"), "--obs", str(tmp_path / "obs.csv"),
            "--gamma", gamma, "--out", str(tmp_path / "analysis.csv")]
    assert console_main(argv) == 0
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("gamma=") and "ess_frac=" in line
    if gamma != "auto":
        assert float(line.split()[0].split("=")[1]) == float(gamma)
    analysis = read_matrix_csv(tmp_path / "analysis.csv")
    assert analysis.shape == states.shape and np.all(np.isfinite(analysis))
    assert check is None or check(analysis, states)


@pytest.mark.parametrize("gamma", ["1", "auto"])
def test_console_script_reports_a_singular_innovation_covariance(tmp_path, capsys, gamma):
    # the first component's spread is exactly 1 and it is observed twice with
    # a noise variance below its rounding, so H P H' + R = [[1, 1], [1, 1]]
    write_matrix_csv(tmp_path / "ens.csv", np.array([[-1.0, 0.0, 1.0], [0.3, 0.1, -0.2]]))
    (tmp_path / "obs.csv").write_text(
        "component,value,noise_variance\n1,0.0,1e-300\n1,0.0,1e-300\n"
    )
    argv = ["update", "--ensemble", str(tmp_path / "ens.csv"), "--obs", str(tmp_path / "obs.csv"),
            "--gamma", gamma]
    assert console_main(argv) == 1
    captured = capsys.readouterr()
    (line,) = captured.err.splitlines()
    assert line == "enkpf: 2-th leading minor of the array is not positive definite"
    assert captured.out == ""


# a valid row's cells, extremes included: values up to +-1e308, variances down to 5e-324
_VALUES = st.one_of(
    st.floats(min_value=-10.0, max_value=10.0),
    st.sampled_from([1e308, -1e308, 1e-300, 1e150]),
)
_VARIANCES = st.one_of(
    st.floats(min_value=0.01, max_value=10.0),
    st.floats(min_value=1e-300, max_value=1e-290),
    st.sampled_from([1e-300, 5e-324, 2.2e-308, 1e308]),
)
_GOOD_ROWS = st.tuples(st.integers(min_value=1, max_value=6).map(str),
                       _VALUES.map(repr), _VARIANCES.map(repr))
# cells a row may be refused for: components out of range or not integers,
# non-numeric, non-finite or nonpositive numbers
_BAD_CELLS = st.sampled_from(["", "x", "1_0", "0x10", "1e400", "nan", "-inf", "\u0661"])
_ANY_CELLS = st.one_of(
    _BAD_CELLS,
    st.sampled_from(["0", "-1", "7", "1.5", "1e3", "99999999999999999999", "0.0", "-0.5"]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
)


@st.composite
def _obs_files(draw):
    """Observation CSV text: mostly valid rows, some with a refused cell or ragged."""
    header = draw(st.sampled_from(["component,value,noise_variance"] * 9 + ["site,value,var"]))
    rows = []
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        cells = list(draw(_GOOD_ROWS))
        if draw(st.integers(min_value=0, max_value=9)) == 0:
            cells[draw(st.integers(min_value=0, max_value=2))] = draw(_ANY_CELLS)
        width = draw(st.sampled_from([3] * 18 + [2, 4]))
        rows.append(",".join((cells + ["1"])[:width]))
    return "\n".join([header] + rows) + "\n"


# forecasts at the ordinary scale, far below and above it, and at +-1e308
_SCALED_FORECASTS = (
    _FORECAST, _FORECAST, 1e-150 * _FORECAST, 1e150 * _FORECAST, 1e308 * np.sign(_FORECAST),
)


@settings(max_examples=150)
@given(
    obs_text=_obs_files(),
    states=st.sampled_from(_SCALED_FORECASTS),
    gamma=st.sampled_from(["auto", "auto", "0", "0.5", "1"]),
)
def test_generated_update_inputs_exit_in_one_line(obs_text, states, gamma):
    # whatever the observation file holds, `enkpf update` exits 0 with a finite
    # analysis or 1 with one message line, never with a traceback
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        write_matrix_csv(tmp / "ens.csv", states)
        (tmp / "obs.csv").write_text(obs_text)
        argv = ["update", "--ensemble", str(tmp / "ens.csv"), "--obs", str(tmp / "obs.csv"),
                "--gamma", gamma, "--out", str(tmp / "analysis.csv")]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = console_main(argv)
        lines = err.getvalue().splitlines()
        assert code in (0, 1)
        assert len(lines) == 1, lines
        if code == 0:
            assert lines[0].startswith("gamma=")
            assert np.all(np.isfinite(read_matrix_csv(tmp / "analysis.csv")))
        else:
            assert lines[0].startswith(("enkpf:", "update failed:")), lines


def test_parser_is_reused_and_each_parse_stands_alone(tmp_path):
    from enkpf.cli import _build_parser

    ens_csv, obs_csv = _write_update_inputs(tmp_path)
    update = ["update", "--ensemble", str(ens_csv), "--obs", str(obs_csv), "--gamma", "0.5"]
    assert main([*update, "--seed", "3", "--out", str(tmp_path / "seed3.csv")]) == 0
    with pytest.raises(SystemExit) as refused:
        main([*update, "--taper", "no_such_taper"])
    assert refused.value.code == 2
    # no --seed: the default 0 comes back, not the first call's 3
    assert main([*update, "--out", str(tmp_path / "default.csv")]) == 0
    assert main([*update, "--seed", "0", "--out", str(tmp_path / "seed0.csv")]) == 0
    default = (tmp_path / "default.csv").read_bytes()
    assert default == (tmp_path / "seed0.csv").read_bytes() != (tmp_path / "seed3.csv").read_bytes()
    args = _build_parser().parse_args(["summarize", "--in", "cycles.csv"])
    assert (args.command, args.infile, args.out) == ("summarize", "cycles.csv", None)
    assert not hasattr(args, "seed")
    assert _build_parser() is _build_parser()


def test_console_script_runs_kdv_without_dealiasing(tmp_path, capsys):
    payload = {
        "model": {"kind": "kdv", "dealias": False},
        "filter": {"kind": "enkpf", "policy": {"mode": "fixed", "gamma": 0.05}},
        "ensemble_size": 16,
        "cycles": 3,
        "observation": {"components": [13, 38, 58, 76, 88, 106], "noise_variance": 0.02},
    }
    finals = []
    for dealias in (False, True):
        payload["model"]["dealias"] = dealias
        cfg = tmp_path / f"kdv_{dealias}.json"
        cfg.write_text(json.dumps(payload))
        out = tmp_path / f"out_{dealias}"
        assert console_main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert capsys.readouterr().err == "completed 3 cycles\n"
        assert len((out / "cycles.csv").read_text().splitlines()) == 4
        finals.append(read_matrix_csv(out / "final_ensemble.csv"))
    assert np.all(np.isfinite(finals[0]))
    assert not np.array_equal(*finals)  # the flag reaches the solver


_RUN_BASE = {
    "model": {"kind": "lorenz96", "q": 8, "lead_time": 0.05},
    "observation": {"noise_variance": 0.5},
    "ensemble_size": 10,
    "cycles": 1,
}
_SWEEP_BASE = {"priors": ["gaussian"], "observations": ["y1"], "dims": [10], "gamma_grid": [0, 1]}


@pytest.mark.parametrize(
    "command, payload, expected",
    [
        ("run", {**_RUN_BASE, "filter": "pf"}, 'filter must be a JSON object, got "pf"'),
        ("run", {**_RUN_BASE, "model": "lorenz96"}, 'model must be a JSON object, got "lorenz96"'),
        ("run", {**_RUN_BASE, "model": None}, "model must be a JSON object, got null"),
        ("run", {**_RUN_BASE, "observation": {"components": [1]}}, "'noise_variance'"),
        ("sweep", {**_SWEEP_BASE, "dims": "abc"},
         'sweep.dims must be a list of integers, got "abc"'),
        ("sweep", {**_SWEEP_BASE, "priors": "gaussian"},
         "sweep.priors must be a list drawn from ['gaussian', 'bimodal'], got \"gaussian\""),
        ("sweep", {**_SWEEP_BASE, "priors": ["foo"]},
         "sweep.priors must be a list drawn from ['gaussian', 'bimodal'], got [\"foo\"]"),
        ("sweep", {**_SWEEP_BASE, "observations": ["y9"]},
         "sweep.observations must be a list drawn from ['y1', 'y2'], got [\"y9\"]"),
        ("run", {**_RUN_BASE, "model": {"kind": "lorenz96", "q": "x"}},
         'model.q must be an integer, got "x"'),
        ("run", {**_RUN_BASE, "taper": {"kind": "gaspari_cohn", "support": "x"}},
         'taper.support must be a number, got "x"'),
        ("run", {**_RUN_BASE, "observation": {"noise_variance": 0.5, "schedule": {"interval": "x"}}},
         'observation.schedule.interval must be a number, got "x"'),
        ("run", {**_RUN_BASE, "ensemble_size": "x"}, 'config.ensemble_size must be an integer'),
        ("sweep", {**_SWEEP_BASE, "ensemble_size": "x"},
         'sweep.ensemble_size must be an integer, got "x"'),
        ("sweep", {**_SWEEP_BASE, "output": 5}, "sweep.output must be a string, got 5"),
        ("run", {**_RUN_BASE, "model": {"kind": "static_prior", "q": 3, "y": 5}},
         "model.y must be a string or a list of numbers, got 5"),
        ("run", {**_RUN_BASE, "observation": {"components": [1.7], "noise_variance": 0.5}},
         "observation.components must be a list of integers, got [1.7]"),
        ("sweep", {**_SWEEP_BASE, "dims": [1.5]},
         "sweep.dims must be a list of integers, got [1.5]"),
        ("run", {**_RUN_BASE, "filter": {"policy": {"band": [0.1, 0.2, 0.3]}}},
         "filter.policy.band must be a list of 2 numbers, got [0.1, 0.2, 0.3]"),
        ("run", {**_RUN_BASE, "observation": {"noise_variance": 10**400}},
         "config.observation.noise_variance must be a number, got 1000"),
        ("run", {**_RUN_BASE, "observation": {"noise_variance": float("inf")}},
         "config.observation.noise_variance must be a number, got Infinity"),
        ("run", {**_RUN_BASE, "model": {"kind": "lorenz96", "forcing": float("nan")}},
         "config.model.forcing must be a number, got NaN"),
        ("run", {**_RUN_BASE, "filter": {"kind": "enkpf", "policy": {"mode": "adaptive_spread"}}},
         "config.filter.policy.mode must be one of ['fixed', 'adaptive_ess', 'adaptive_div'], "
         'got "adaptive_spread"'),
    ],
    ids=[
        "filter_string",
        "model_string",
        "model_null",
        "observation_without_noise_variance",
        "sweep_dims_string",
        "sweep_priors_string",
        "sweep_priors_unknown",
        "sweep_observations_unknown",
        "model_q_string",
        "taper_support_string",
        "schedule_interval_string",
        "ensemble_size_string",
        "sweep_ensemble_size_string",
        "sweep_output_number",
        "static_prior_y_number",
        "components_fractional",
        "sweep_dims_fractional",
        "band_three_values",
        "noise_variance_overflow",
        "noise_variance_infinite",
        "forcing_nan",
        "policy_mode_removed",
    ],
)
def test_console_script_names_bad_config_key(tmp_path, capsys, command, payload, expected):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(payload))
    assert console_main([command, "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("enkpf: ") and expected in line
