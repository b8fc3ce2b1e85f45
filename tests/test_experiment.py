import dataclasses
import io
import json
import types
import typing
from pathlib import Path

import numpy as np
import pytest

import enkpf.experiment
from enkpf import (
    CYCLES_HEADER,
    CycleRecord,
    DivergenceError,
    ExperimentConfig,
    FilterSpec,
    GammaPolicy,
    KdVConfig,
    Lorenz96Config,
    ObservationScheme,
    StaticPriorConfig,
    SweepConfig,
    TaperSpec,
    experiment_config_from_dict,
    load_experiment_config,
    load_sweep_config,
    read_cycles_csv,
    read_matrix_csv,
    run_experiment,
    static_prior_ensemble,
    static_prior_observation,
    summarize,
    write_matrix_csv,
)
from enkpf.config import _MODELS
from enkpf.experiment import _fmt

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def test_static_prior_uses_one_base_sample():
    # the q-dim prior is the leading block of the same 250-dim draw
    big = static_prior_ensemble(StaticPriorConfig("gaussian", 250), 50, np.random.default_rng(3))
    small = static_prior_ensemble(StaticPriorConfig("gaussian", 10), 50, np.random.default_rng(3))
    assert np.array_equal(small.states, big.states[:10])


def test_static_prior_bimodal_shift():
    gauss = static_prior_ensemble(StaticPriorConfig("gaussian", 5), 8, np.random.default_rng(4))
    bim = static_prior_ensemble(StaticPriorConfig("bimodal", 5), 8, np.random.default_rng(4))
    assert np.array_equal(bim.states[0, 4:], gauss.states[0, 4:] + 6.0)
    assert np.array_equal(bim.states[0, :4], gauss.states[0, :4])
    assert np.array_equal(bim.states[1:], gauss.states[1:])


def test_static_prior_observation_presets():
    def observation(prior, q, y):
        return static_prior_observation(StaticPriorConfig(prior, q, y))

    assert np.array_equal(observation("gaussian", 4, "y1"), np.zeros(4))
    assert np.array_equal(observation("gaussian", 4, "y2"), [1.5, 1.5, 0, 0])
    assert np.array_equal(observation("bimodal", 3, "y1"), [-2.0, 0, 0])
    assert np.array_equal(observation("bimodal", 3, "y2"), [3.0, 0, 0])
    assert np.array_equal(observation("gaussian", 2, (0.7, -0.1)), [0.7, -0.1])
    with pytest.raises(ValueError):
        observation("gaussian", 4, "y9")


def test_config_validation():
    model = StaticPriorConfig(prior="gaussian", q=10)
    obs = ObservationScheme(noise_variance=0.25)
    with pytest.raises(ValueError):
        ExperimentConfig(model=model, cycles=5, observation=obs)  # static: single update
    with pytest.raises(ValueError):
        ExperimentConfig(model=Lorenz96Config(), cycles=0)
    with pytest.raises(ValueError):
        ExperimentConfig(model=model, observation=ObservationScheme(components=(11,)))
    with pytest.raises(ValueError):
        FilterSpec(kind="enkf", policy=GammaPolicy())
    cfg = ExperimentConfig(model=model, cycles=0, observation=obs)
    assert cfg.cycle_interval == 0.0
    assert np.array_equal(cfg.observed_indices, np.arange(10))


def test_observed_indices_are_one_based():
    cfg = ExperimentConfig(
        model=Lorenz96Config(q=8),
        observation=ObservationScheme(components=(1, 3, 8)),
        cycles=1,
    )
    assert np.array_equal(cfg.observed_indices, [0, 2, 7])


def test_static_run_produces_single_record():
    cfg = ExperimentConfig(
        model=StaticPriorConfig(prior="bimodal", q=10, y="y2"),
        filter=FilterSpec(kind="enkpf", policy=GammaPolicy.fixed(0.4)),
        ensemble_size=50,
        cycles=0,
        observation=ObservationScheme(noise_variance=9.0),
        seed=11,
    )
    records, finals = run_experiment(cfg)
    assert len(records) == 1
    rec = records[0]
    assert rec.cycle == 1 and rec.time == 0.0
    assert rec.gamma == 0.4
    assert 1.0 / 50 <= rec.ess_frac <= 1.0
    assert 1.0 / 50 <= rec.div_frac <= 1.0
    assert np.isnan(rec.rmse)  # no truth in a synthetic single update
    assert finals["analysis"].states.shape == (10, 50)
    assert finals["truth"] is None


def test_dynamic_run_records_and_outputs(tmp_path):
    cfg = ExperimentConfig(
        model=Lorenz96Config(q=8, lead_time=0.05),
        filter=FilterSpec(kind="enkf"),
        ensemble_size=20,
        cycles=4,
        observation=ObservationScheme(components=(1, 3, 5, 7), noise_variance=0.5),
        seed=3,
        output_dir=str(tmp_path / "out"),
    )
    records, finals = run_experiment(cfg)
    assert len(records) == 4
    assert [r.cycle for r in records] == [1, 2, 3, 4]
    assert np.allclose([r.time for r in records], [0.05, 0.1, 0.15, 0.2])
    assert all(r.gamma == 1.0 and r.ess_frac == 1.0 for r in records)
    assert all(np.isfinite(r.rmse) for r in records)
    assert all(r.wall_ms == 0.0 for r in records)  # timing off by default
    out = tmp_path / "out"
    assert (out / "cycles.csv").read_text().splitlines()[0] == CYCLES_HEADER
    assert read_matrix_csv(out / "final_ensemble.csv").shape == (8, 20)
    assert read_matrix_csv(out / "truth.csv").shape == (8, 1)
    parsed = read_cycles_csv(out / "cycles.csv")
    assert parsed == records


def test_same_seed_bitwise_identical_csv(tmp_path):
    base = {
        "model": {"kind": "lorenz96", "q": 8, "lead_time": 0.05},
        "filter": {"kind": "enkpf", "policy": {"mode": "adaptive_ess"}},
        "ensemble_size": 15,
        "cycles": 3,
        "observation": {"components": [1, 4, 7], "noise_variance": 0.5},
        "seed": 42,
    }
    cfg = experiment_config_from_dict(base)
    run_experiment(cfg, out_dir=str(tmp_path / "a"))
    run_experiment(cfg, out_dir=str(tmp_path / "b"))
    assert (tmp_path / "a" / "cycles.csv").read_bytes() == (
        tmp_path / "b" / "cycles.csv"
    ).read_bytes()
    assert (tmp_path / "a" / "final_ensemble.csv").read_bytes() == (
        tmp_path / "b" / "final_ensemble.csv"
    ).read_bytes()


def test_divergence_leaves_valid_prefix(tmp_path):
    # an unstable step size blows the model up after the first few cycles
    cfg = ExperimentConfig(
        model=Lorenz96Config(q=8, dt=0.25, lead_time=0.25),
        filter=FilterSpec(kind="enkf"),
        ensemble_size=10,
        cycles=50,
        observation=ObservationScheme(noise_variance=0.5),
        seed=1,
        output_dir=str(tmp_path / "boom"),
    )
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError):
            run_experiment(cfg)
    text = (tmp_path / "boom" / "cycles.csv").read_text()
    lines = text.splitlines()
    assert lines[0] == CYCLES_HEADER
    assert text.endswith("\n")  # flushed per cycle: no torn final row
    parsed = read_cycles_csv(tmp_path / "boom" / "cycles.csv")
    assert len(parsed) == len(lines) - 1 < 50


@pytest.mark.parametrize(
    "model, name",
    [
        (Lorenz96Config(q=8, lead_time=0.05), "lorenz96_propagate"),
        (KdVConfig(grid_points=32, lead_time=0.001), "kdv_propagate"),
    ],
    ids=["lorenz96", "kdv"],
)
def test_one_propagation_per_cycle(monkeypatch, model, name):
    # the truth rides as column N+1 of the ensemble matrix
    widths = []
    propagate = getattr(enkpf.experiment, name)

    def counted(state, *args):
        widths.append(np.shape(state)[1])
        return propagate(state, *args)

    monkeypatch.setattr(enkpf.experiment, name, counted)
    cfg = ExperimentConfig(
        model=model,
        filter=FilterSpec(kind="enkf"),
        ensemble_size=12,
        cycles=3,
        observation=ObservationScheme(components=(1, 4, 7), noise_variance=0.5),
        seed=5,
    )
    records, finals = run_experiment(cfg)
    assert widths == [13] * 3
    assert finals["analysis"].n_members == 12
    assert finals["truth"].shape == (cfg.state_dim,)


def test_truth_divergence_leaves_valid_prefix(tmp_path, monkeypatch):
    # only the truth blows up: the one finiteness check of the stacked
    # propagation must still end the run
    initial_states = enkpf.experiment._initial_states

    def blown_truth(cfg, root):
        ens, truth = initial_states(cfg, root)
        return ens, 1e100 * truth

    monkeypatch.setattr(enkpf.experiment, "_initial_states", blown_truth)
    cfg = ExperimentConfig(
        model=Lorenz96Config(q=8, lead_time=0.05),
        filter=FilterSpec(kind="enkf"),
        ensemble_size=10,
        cycles=5,
        observation=ObservationScheme(noise_variance=0.5),
        seed=1,
        output_dir=str(tmp_path / "boom"),
    )
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError, match="lorenz96 state became non-finite"):
            run_experiment(cfg)
    text = (tmp_path / "boom" / "cycles.csv").read_text()
    lines = text.splitlines()
    assert lines[0] == CYCLES_HEADER
    assert text.endswith("\n")
    assert len(read_cycles_csv(tmp_path / "boom" / "cycles.csv")) == len(lines) - 1 < 5


def test_overflowing_covariance_ends_the_run_as_a_divergence(monkeypatch):
    # finite forecasts whose sample covariance overflows: the check where
    # the covariance is formed names it, and the loop makes it a divergence
    propagate = enkpf.experiment.lorenz96_propagate

    def blown(state, *args):
        return 1e200 * propagate(state, *args)

    monkeypatch.setattr(enkpf.experiment, "lorenz96_propagate", blown)
    cfg = ExperimentConfig(
        model=Lorenz96Config(q=8, lead_time=0.05),
        ensemble_size=10,
        cycles=3,
        observation=ObservationScheme(noise_variance=0.5),
        seed=1,
    )
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError, match="cycle 1: forecast covariance is not finite"):
            run_experiment(cfg)


def test_summarize_constant_scores():
    recs = [CycleRecord(i + 1, 0.1 * i, 1.0, 1.0, 1.0, 2.5, 2.5, 2.5, 0.0) for i in range(7)]
    for row in summarize(recs):
        assert row[1:] == (2.5, 2.5, 2.5, 2.5)


def test_summarize_quantiles_interpolate():
    recs = [
        CycleRecord(i, 0.0, 1.0, 1.0, 1.0, float(v), float(v), float(v), 0.0)
        for i, v in enumerate(range(1, 101), start=1)
    ]
    name, p10, p50, mean, p90 = summarize(recs)[0]
    assert name == "rmse"
    assert p10 == pytest.approx(10.9)
    assert p50 == pytest.approx(50.5)
    assert mean == pytest.approx(50.5)
    assert p90 == pytest.approx(90.1)


def test_summarize_rejects_empty():
    with pytest.raises(ValueError):
        summarize([])


def test_matrix_csv_roundtrip_exact(tmp_path):
    gen = np.random.default_rng(9)
    m = gen.standard_normal((6, 4)) * np.exp(gen.uniform(-8, 8, (6, 4)))
    path = tmp_path / "m.csv"
    write_matrix_csv(path, m)
    assert path.read_text().splitlines()[0] == "6,4"
    back = read_matrix_csv(path)
    assert np.array_equal(back, m)  # 17 significant digits reproduce doubles


def test_matrix_csv_write_creates_a_missing_directory_only(tmp_path, monkeypatch):
    m = np.arange(6.0).reshape(2, 3)
    nested = tmp_path / "a" / "b" / "m.csv"
    write_matrix_csv(nested, m)
    assert np.array_equal(read_matrix_csv(nested), m)
    # the directory now exists, so a second write opens the file and makes no directory
    calls = []
    original = Path.mkdir
    monkeypatch.setattr(Path, "mkdir", lambda *a, **k: calls.append(a) or original(*a, **k))
    write_matrix_csv(nested, 2.0 * m)
    write_matrix_csv(tmp_path / "a" / "n.csv", m)
    assert calls == []
    assert np.array_equal(read_matrix_csv(nested), 2.0 * m)


def test_matrix_csv_matches_per_element_format():
    # the reference writer: _fmt on every element, joined per row
    gen = np.random.default_rng(8)
    m = gen.standard_normal((5, 7)) * 10.0 ** gen.integers(-300, 300, (5, 7))
    m[0, :6] = [0.0, -0.0, 5e-324, -2.2e-310, 1e300, -1e300]
    m[1, :3] = [np.nan, np.inf, -np.inf]
    reference = "5,7\n" + "".join(",".join(_fmt(v) for v in row) + "\n" for row in m)
    buf = io.StringIO()
    write_matrix_csv(buf, m)
    assert buf.getvalue() == reference


def test_matrix_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("not,a,header\n1.0,2.0\n")
    with pytest.raises(ValueError):
        read_matrix_csv(path)


def test_config_parsing_rejects_unknown_keys(tmp_path):
    good = {
        "model": {"kind": "lorenz96", "q": 8},
        "observation": {"components": "all", "noise_variance": 0.5},
        "cycles": 2,
    }
    cfg = experiment_config_from_dict(good)
    assert cfg.state_dim == 8
    for bad in (
        {**good, "extra": 1},
        {**good, "model": {"kind": "lorenz96", "qq": 8}},
        {**good, "observation": {"noise_variance": 0.5, "sites": [1]}},
        {**good, "filter": {"kind": "enkpf", "policy": {"mode": "adaptive_ess", "tau": 0.1}}},
    ):
        with pytest.raises(ValueError):
            experiment_config_from_dict(bad)
    with pytest.raises(ValueError):
        experiment_config_from_dict({"model": {"kind": "heat"}, "observation": {"noise_variance": 1.0}})


def test_config_scalars_checked_by_json_type():
    good = {
        "model": {"kind": "lorenz96", "q": 8, "lead_time": 1},
        "observation": {"noise_variance": 1, "components": None},
        "taper": {"kind": "triangular", "support": 3},
        "record_timing": True,
    }
    cfg = experiment_config_from_dict(good)  # integers pass as numbers, null where optional
    assert cfg.model.lead_time == 1 and cfg.observation.components is None
    for bad, message in (
        ({**good, "cycles": 2.0}, "config.cycles must be an integer, got 2.0"),
        ({**good, "seed": True}, "config.seed must be an integer, got true"),
        ({**good, "record_timing": 1}, "config.record_timing must be true or false, got 1"),
        ({**good, "output_dir": 5}, "config.output_dir must be a string, got 5"),
        ({**good, "model": {"kind": "kdv", "dealias": "no"}}, "model.dealias must be true or"),
        ({**good, "filter": {"policy": {"band": None}}}, "filter.policy.band must"),
    ):
        with pytest.raises(ValueError, match=message):
            experiment_config_from_dict(bad)


def test_load_config_file(tmp_path):
    payload = {
        "model": {"kind": "static_prior", "prior": "gaussian", "q": 20, "y": "y2"},
        "filter": {"kind": "pf"},
        "observation": {"noise_variance": 0.25},
        "ensemble_size": 30,
        "cycles": 1,
        "seed": 5,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(payload))
    cfg = load_experiment_config(path)
    assert isinstance(cfg.model, StaticPriorConfig)
    assert cfg.model.y == "y2"
    assert cfg.filter.kind == "pf"
    records, _ = run_experiment(cfg)
    assert records[0].gamma == 0.0


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.stem)
def test_shipped_configs_parse(path):
    if path.stem == "sweep":
        assert load_sweep_config(path).output == "runs/diversity_sweep.csv"
    else:
        assert load_experiment_config(path).output_dir == f"runs/{path.stem}"


def _readable(hint) -> bool:
    """Whether the config reader has a rule for `hint`; the fields of a
    dataclass are checked on their own."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        alternatives = [a for a in args if a is not type(None)]
        if len(alternatives) > 1 and all(map(dataclasses.is_dataclass, alternatives)):
            return set(alternatives) == set(_MODELS.values())  # read by kind
        return all(map(_readable, alternatives))
    if origin is tuple:
        items = set(args[:-1] if args[-1] is Ellipsis else args)
        (item,) = items if len(items) == 1 else (None,)
        return item in (bool, int, float, str) or typing.get_origin(item) is typing.Literal
    if origin is typing.Literal:
        return all(isinstance(a, str) for a in args)
    return dataclasses.is_dataclass(hint) or hint in (bool, int, float, str)


# the fields without a default, for building each config class
_REQUIRED = {ExperimentConfig: {"model": Lorenz96Config()}}


def test_config_reader_handles_every_field_type():
    unreadable = []
    pending, seen = [ExperimentConfig, SweepConfig], set()
    while pending:
        cls = pending.pop()
        seen.add(cls)
        hints = typing.get_type_hints(cls)
        for f in dataclasses.fields(cls):
            hint = hints[f.name]
            if not _readable(hint):
                unreadable.append(f"{cls.__name__}.{f.name}: {hint}")
            inner = typing.get_args(hint) or (hint,)
            pending += [t for t in inner if dataclasses.is_dataclass(t) and t not in seen]
    assert seen >= {FilterSpec, GammaPolicy, Lorenz96Config, StaticPriorConfig, ObservationScheme}
    assert unreadable == []
    # the walk is not vacuous: types without a reader rule are caught
    assert not any(map(_readable, (list[int], dict, tuple[int, float], tuple[FilterSpec, ...])))
    # every constructor applies the rule itself, first: a value no field type
    # takes is refused in one line that names the field, numpy scalars too
    unchecked = []
    for cls in seen:
        for f in dataclasses.fields(cls):
            for bad in (np.int64(3), np.float64("nan"), [[]]):
                try:
                    cls(**{**_REQUIRED.get(cls, {}), f.name: bad})
                except Exception as err:  # a TypeError, too, shows a skipped rule
                    one_line = isinstance(err, ValueError) and len(str(err).splitlines()) == 1
                    if one_line and str(err).startswith(f"{f.name} must be "):
                        continue
                unchecked.append(f"{cls.__name__}.{f.name} = {bad!r}")
    assert unchecked == []


@pytest.mark.parametrize(
    "cls, kwargs, message",
    [
        (ObservationScheme, {"components": (1.7,)}, "components must be a list of integers, got [1.7]"),
        (StaticPriorConfig, {"q": 3, "y": 5}, "y must be a string or a list of numbers, got 5"),
        (Lorenz96Config, {"q": "40"}, 'q must be an integer, got "40"'),
        (TaperSpec, {"support": "x"}, 'support must be a number, got "x"'),
        (Lorenz96Config, {"q": 40.5}, "q must be an integer, got 40.5"),
        (ExperimentConfig, {"seed": "3"}, 'seed must be an integer, got "3"'),
        (ExperimentConfig, {"ensemble_size": 10.5}, "ensemble_size must be an integer, got 10.5"),
        (KdVConfig, {"dealias": "no"}, 'dealias must be true or false, got "no"'),
        (Lorenz96Config, {"forcing": float("nan")}, "forcing must be a number, got NaN"),
        (ObservationScheme, {"noise_variance": float("inf")},
         "noise_variance must be a number, got Infinity"),
        (SweepConfig, {"dims": "abc"}, 'dims must be a list of integers, got "abc"'),
        (FilterSpec, {"kind": "particle"}, "kind must be one of ['pf', 'enkf', 'enkpf'], got \"particle\""),
        (TaperSpec, {"topology": "torus"}, "topology must be one of ['line', 'ring'], got \"torus\""),
        (StaticPriorConfig, {"y": "y9"}, "y must be one of ['y1', 'y2'], got \"y9\""),
        (GammaPolicy, {"band": (0.1, 0.2, 0.3)}, "band must be a list of 2 numbers, got [0.1, 0.2, 0.3]"),
    ],
    ids=[
        "components_fractional",
        "static_prior_y_number",
        "q_string",
        "taper_support_string",
        "q_fractional",
        "seed_string",
        "ensemble_size_fractional",
        "dealias_string",
        "forcing_nan",
        "noise_variance_infinite",
        "sweep_dims_string",
        "filter_kind_unknown",
        "taper_topology_unknown",
        "y_preset_unknown",
        "band_three_values",
    ],
)
def test_constructors_refuse_what_the_reader_refuses(cls, kwargs, message):
    with pytest.raises(ValueError) as err:
        cls(**{**_REQUIRED.get(cls, {}), **kwargs})
    assert str(err.value) == message


def test_constructors_store_numbers_as_floats_and_lists_as_tuples():
    policy = GammaPolicy(mode="fixed", gamma=1, band=[0, 1], grid=[0, 1])
    assert (policy.gamma, policy.band, policy.grid) == (1.0, (0.0, 1.0), (0.0, 1.0))
    assert all(type(v) is float for v in (policy.gamma, *policy.band, *policy.grid))
    assert ObservationScheme(components=[3, 1]).components == (3, 1)
    assert StaticPriorConfig(q=2, y=[1, -2]).y == (1.0, -2.0)
