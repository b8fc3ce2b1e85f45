"""Twin-experiment harness: configuration, cycling loop, CSV outputs.

A run alternates model propagation and a filter update against observations
synthesized from a truth trajectory, recording per-cycle diagnostics and
scores. All randomness descends from one seed through keyed streams
(cycle, role), so reruns are bitwise reproducible. Records are flushed per
cycle; an aborted run leaves a valid prefix on disk.
"""

from __future__ import annotations

import json
import time
import types
import typing
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .blas import single_thread
from .bridge import enkpf_update
from .ensemble import Ensemble, TaperSpec, sample_moments, tapered_covariance
from .errors import DivergenceError
from .filters import UpdateDiagnostics, enkf_update, pf_update
from .gamma import GammaPolicy, weight_variance_asymptotic
from .mixture import _mixture_from_cov
from .models import (
    KdVConfig,
    Lorenz96Config,
    kdv_initial,
    kdv_propagate,
    kdv_truth,
    lorenz96_initial,
    lorenz96_propagate,
)
from .observation import LinearGaussianObservation
from .resampling import ess
from .rng import RngNode
from .scoring import crps, rmse

__all__ = [
    "StaticPriorConfig",
    "ObservationScheme",
    "FilterSpec",
    "ExperimentConfig",
    "CycleRecord",
    "CYCLES_HEADER",
    "SUMMARY_HEADER",
    "static_prior_ensemble",
    "static_prior_observation",
    "run_experiment",
    "summarize",
    "diversity_sweep",
    "write_matrix_csv",
    "read_matrix_csv",
    "read_cycles_csv",
    "write_summary_csv",
    "experiment_config_from_dict",
    "load_experiment_config",
]

STATIC_BASE_DIM = 250

CYCLES_HEADER = "cycle,time,gamma,ess_frac,div_frac,rmse,crps_1,crps_2,wall_ms"
SUMMARY_HEADER = "score,p10,p50,mean,p90"


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class StaticPriorConfig:
    """Propagation-free single-update scenario with a synthetic prior.

    The prior ensemble comes from one standard-normal base sample of
    dimension 250 (first q components used); the bimodal variant shifts the
    first component of the second half of the members by +6. `y` is either
    a preset name (y1 / y2) or an explicit q-vector.
    """

    prior: str = "gaussian"
    q: int = 50
    y: str | tuple = "y1"

    def __post_init__(self):
        if self.prior not in ("gaussian", "bimodal"):
            raise ValueError(f"unknown prior {self.prior!r}")
        if not 1 <= self.q <= STATIC_BASE_DIM:
            raise ValueError(f"q must lie in [1, {STATIC_BASE_DIM}]")
        if isinstance(self.y, str):
            if self.y not in ("y1", "y2"):
                raise ValueError("y preset must be 'y1' or 'y2'")
        else:
            y = tuple(float(v) for v in self.y)
            if len(y) != self.q:
                raise ValueError("explicit y must have length q")
            object.__setattr__(self, "y", y)

    # observation noise standard deviations of the canonical scenarios
    DEFAULT_SIGMA = {"gaussian": 0.5, "bimodal": 3.0}


@dataclass(frozen=True)
class ObservationScheme:
    """Which components are observed (1-based; None = all), the iid noise
    variance, and the model-time interval between observations (None = the
    model's lead time)."""

    components: tuple[int, ...] | None = None
    noise_variance: float = 1.0
    interval: float | None = None

    def __post_init__(self):
        if not self.noise_variance > 0:
            raise ValueError("noise_variance must be positive")
        if self.components is not None:
            comps = tuple(int(c) for c in self.components)
            if len(comps) == 0 or len(set(comps)) != len(comps):
                raise ValueError("components must be nonempty and distinct")
            object.__setattr__(self, "components", comps)
        if self.interval is not None and not self.interval > 0:
            raise ValueError("interval must be positive")


@dataclass(frozen=True)
class FilterSpec:
    kind: str = "enkpf"
    policy: GammaPolicy | None = None

    def __post_init__(self):
        if self.kind not in ("pf", "enkf", "enkpf"):
            raise ValueError(f"unknown filter kind {self.kind!r}")
        if self.kind == "enkpf" and self.policy is None:
            object.__setattr__(self, "policy", GammaPolicy())
        if self.kind != "enkpf" and self.policy is not None:
            raise ValueError("only the bridged filter takes a gamma policy")


@dataclass(frozen=True)
class ExperimentConfig:
    model: Lorenz96Config | KdVConfig | StaticPriorConfig
    filter: FilterSpec = field(default_factory=FilterSpec)
    ensemble_size: int = 100
    cycles: int = 1
    observation: ObservationScheme = field(default_factory=ObservationScheme)
    taper: TaperSpec = field(default_factory=TaperSpec)
    seed: int = 0
    output_dir: str | None = None
    record_timing: bool = False

    def __post_init__(self):
        if self.ensemble_size < 2:
            raise ValueError("ensemble_size must be at least 2")
        if int(self.seed) < 0:
            raise ValueError("seed must be a nonnegative integer")
        static = isinstance(self.model, StaticPriorConfig)
        if static:
            if self.cycles not in (0, 1):
                raise ValueError("a static-prior scenario is a single update (cycles 0 or 1)")
            if self.observation.interval is not None:
                raise ValueError("a static-prior scenario has no observation interval")
        elif self.cycles < 1:
            raise ValueError("cycles must be at least 1")
        q = self.state_dim
        comps = self.observation.components
        if comps is not None and (min(comps) < 1 or max(comps) > q):
            raise ValueError(f"observed components must lie in [1, {q}]")

    @property
    def state_dim(self) -> int:
        m = self.model
        if isinstance(m, KdVConfig):
            return m.grid_points
        return m.q

    @property
    def observed_indices(self) -> np.ndarray:
        comps = self.observation.components
        if comps is None:
            return np.arange(self.state_dim)
        return np.asarray(comps, dtype=int) - 1

    @property
    def cycle_interval(self) -> float:
        if isinstance(self.model, StaticPriorConfig):
            return 0.0
        return (
            self.observation.interval
            if self.observation.interval is not None
            else self.model.lead_time
        )


@dataclass(frozen=True)
class CycleRecord:
    cycle: int
    time: float
    gamma: float
    ess_frac: float
    div_frac: float
    rmse: float
    crps_1: float
    crps_2: float
    wall_ms: float


# ---------------------------------------------------------------------------
# scenario construction


def static_prior_ensemble(prior: str, q: int, n_members: int, gen: np.random.Generator) -> Ensemble:
    """Draw the canonical synthetic prior: one (250, N) standard-normal base
    sample, first q rows kept; the bimodal prior shifts component 1 of the
    second half of the members by +6."""
    if not 1 <= q <= STATIC_BASE_DIM:
        raise ValueError(f"q must lie in [1, {STATIC_BASE_DIM}]")
    base = gen.standard_normal((STATIC_BASE_DIM, n_members))
    x = base[:q].copy()
    if prior == "bimodal":
        x[0, n_members // 2 :] += 6.0
    elif prior != "gaussian":
        raise ValueError(f"unknown prior {prior!r}")
    return Ensemble(x)


def static_prior_observation(prior: str, q: int, y_spec) -> np.ndarray:
    """Resolve a preset observation vector for the synthetic scenarios."""
    if not isinstance(y_spec, str):
        y = np.asarray(y_spec, dtype=float)
        if y.shape != (q,):
            raise ValueError("explicit y must be a q-vector")
        return y
    if y_spec not in ("y1", "y2"):
        raise ValueError(f"unknown y preset {y_spec!r}")
    y = np.zeros(q)
    if prior == "gaussian":
        if y_spec == "y2":
            y[: min(2, q)] = 1.5
    else:
        y[0] = -2.0 if y_spec == "y1" else 3.0
    return y


# ---------------------------------------------------------------------------
# the cycling loop


def _propagator(model):
    if isinstance(model, Lorenz96Config):
        return lambda state, duration: lorenz96_propagate(state, model, duration)
    if isinstance(model, KdVConfig):
        return lambda state, duration: kdv_propagate(state, model, duration)
    return None


def _initial_states(cfg: ExperimentConfig, root: RngNode):
    model = cfg.model
    if isinstance(model, Lorenz96Config):
        ens = lorenz96_initial(
            root.child("init", "ensemble").generator(), cfg.ensemble_size, model.q
        )
        truth = root.child("init", "truth").generator().standard_normal(model.q)
        return ens, truth
    if isinstance(model, KdVConfig):
        return kdv_initial(model, cfg.ensemble_size), kdv_truth(model)
    ens = static_prior_ensemble(
        model.prior, model.q, cfg.ensemble_size, root.child("init", "ensemble").generator()
    )
    return ens, None


def _apply_filter(spec: FilterSpec, ens, obs, taper, node):
    if spec.kind == "pf":
        out, _, diag = pf_update(ens, obs, node)
        return out, diag
    if spec.kind == "enkf":
        out = enkf_update(ens, obs, taper, node)
        n = float(ens.n_members)
        return out, UpdateDiagnostics(gamma=1.0, ess=n, div=n)
    return enkpf_update(ens, obs, spec.policy, taper, node)


def _fmt(v) -> str:
    return f"{v:.17g}"


class _CycleWriter:
    """Appends one line per analysis cycle, flushed immediately."""

    def __init__(self, path: Path):
        self._fh = open(path, "w")
        self._fh.write(CYCLES_HEADER + "\n")
        self._fh.flush()

    def write(self, rec: CycleRecord):
        fields = [str(rec.cycle)] + [
            _fmt(v)
            for v in (
                rec.time,
                rec.gamma,
                rec.ess_frac,
                rec.div_frac,
                rec.rmse,
                rec.crps_1,
                rec.crps_2,
                rec.wall_ms,
            )
        ]
        self._fh.write(",".join(fields) + "\n")
        self._fh.flush()

    def close(self):
        self._fh.close()


@single_thread()
def run_experiment(cfg: ExperimentConfig, out_dir: str | None = None):
    """Run the configured experiment; returns (records, final states).

    Writes cycles.csv incrementally plus summary.csv, final_ensemble.csv,
    and truth.csv on completion when an output directory is set. A filter
    degeneracy or model divergence aborts the run with the partial
    cycles.csv left behind.
    """
    target = out_dir if out_dir is not None else cfg.output_dir
    out = None
    if target is not None:
        out = Path(target)
        out.mkdir(parents=True, exist_ok=True)

    root = RngNode(cfg.seed)
    ens, truth = _initial_states(cfg, root)
    propagate = _propagator(cfg.model)
    static = propagate is None
    q = cfg.state_dim
    idx = cfg.observed_indices
    r = idx.size
    noise_cov = cfg.observation.noise_variance * np.eye(r)
    noise_std = float(np.sqrt(cfg.observation.noise_variance))
    interval = cfg.cycle_interval
    n_members = cfg.ensemble_size
    n_cycles = 1 if static else cfg.cycles

    records: list[CycleRecord] = []
    writer = _CycleWriter(out / "cycles.csv") if out else None
    try:
        for cycle in range(1, n_cycles + 1):
            started = time.perf_counter() if cfg.record_timing else 0.0
            if static:
                y = static_prior_observation(cfg.model.prior, q, cfg.model.y)[idx]
                t = 0.0
            else:
                ens = propagate(ens, interval)
                truth = propagate(truth, interval)
                noise = root.child("cycle", cycle, "obs").generator().standard_normal(r)
                y = truth[idx] + noise_std * noise
                t = cycle * interval
            obs = LinearGaussianObservation.from_indices(idx, noise_cov, y, q)
            node = root.child("cycle", cycle, "update")
            try:
                ens, diag = _apply_filter(cfg.filter, ens, obs, cfg.taper, node)
            except np.linalg.LinAlgError as err:
                # a forecast covariance too wild to factor is a divergence too
                raise DivergenceError(f"filter update failed at cycle {cycle}: {err}") from err
            if truth is not None:
                score_rmse = rmse(ens, truth)
                score_crps1 = crps(ens.states[0], truth[0])
                score_crps2 = crps(ens.states[1], truth[1]) if q > 1 else float("nan")
            else:
                score_rmse = score_crps1 = score_crps2 = float("nan")
            wall = (time.perf_counter() - started) * 1e3 if cfg.record_timing else 0.0
            rec = CycleRecord(
                cycle=cycle,
                time=t,
                gamma=diag.gamma,
                ess_frac=diag.ess / n_members,
                div_frac=diag.div / n_members,
                rmse=score_rmse,
                crps_1=score_crps1,
                crps_2=score_crps2,
                wall_ms=wall,
            )
            records.append(rec)
            if writer:
                writer.write(rec)
    finally:
        if writer:
            writer.close()

    if out:
        write_summary_csv(out / "summary.csv", summarize(records))
        write_matrix_csv(out / "final_ensemble.csv", ens.states)
        if truth is not None:
            write_matrix_csv(out / "truth.csv", truth[:, None])
    return records, {"analysis": ens, "truth": truth}


def summarize(records) -> list[tuple[str, float, float, float, float]]:
    """Per-score decile/mean table: rows (score, p10, p50, mean, p90).

    Quantiles interpolate linearly between order statistics.
    """
    rows = []
    for name in ("rmse", "crps_1", "crps_2"):
        vals = np.asarray([getattr(rec, name) for rec in records], dtype=float)
        if vals.size == 0:
            raise ValueError("no records to summarize")
        p10, p50, p90 = np.quantile(vals, [0.1, 0.5, 0.9])
        rows.append((name, float(p10), float(p50), float(vals.mean()), float(p90)))
    return rows


# ---------------------------------------------------------------------------
# single-update diversity sweep


@single_thread()
def diversity_sweep(
    priors=("gaussian", "bimodal"),
    observations=("y1", "y2"),
    dims=(10, 50, 250),
    n_members: int = 50,
    taper: TaperSpec = TaperSpec(kind="triangular", support=10.0, topology="line"),
    gamma_grid=None,
    seed: int = 0,
    raw_moment_estimates: bool = False,
):
    """ess/N of the mixture weights across gamma for the synthetic scenarios.

    Returns rows (prior, y, q, gamma, ess_frac, ess_frac_approx); the
    approximation predicts ess ~ N / (1 + N^2 Var) from the asymptotic
    weight variance with moments estimated from the sample (tapered unless
    raw_moment_estimates is set).
    """
    if gamma_grid is None:
        gamma_grid = tuple(k / 20.0 for k in range(21))
    node = RngNode(seed).child("init", "ensemble")
    rows = []
    for prior in priors:
        for q in dims:
            # a fresh generator per scenario, so every prior and q shares one base sample
            ens = static_prior_ensemble(prior, q, n_members, node.generator())
            sigma2 = StaticPriorConfig.DEFAULT_SIGMA[prior] ** 2
            tapered = tapered_covariance(ens, taper)
            mom = sample_moments(ens) if raw_moment_estimates else tapered
            for y_name in observations:
                y = static_prior_observation(prior, q, y_name)
                obs = LinearGaussianObservation.from_indices(
                    np.arange(q), sigma2 * np.eye(q), y, q
                )
                for gamma in gamma_grid:
                    w = _mixture_from_cov(ens.states, tapered.cov, obs, gamma).weights
                    frac = ess(w) / n_members
                    nsq_var = weight_variance_asymptotic(mom.cov, mom.mean, obs, gamma)
                    approx = 1.0 / (1.0 + nsq_var)
                    rows.append((prior, y_name, q, float(gamma), frac, approx))
    return rows


# ---------------------------------------------------------------------------
# file formats


@contextmanager
def _text_out(target):
    """`target` itself when it is an open text stream, else the file at that
    path, opened for writing after creating its directory."""
    if hasattr(target, "write"):
        yield target
        return
    parent = Path(target).parent
    if str(parent) not in ("", "."):
        parent.mkdir(parents=True, exist_ok=True)
    with open(target, "w") as fh:
        yield fh


def write_matrix_csv(target, matrix: np.ndarray):
    """(q, N) matrix as CSV: first line 'q,N', then q comma-separated rows.

    `target` is a path or an open text stream, as for every writer here.
    """
    matrix = np.asarray(matrix, dtype=float)
    q, n = matrix.shape
    # one %-format per row of Python floats writes _fmt's digits without a
    # format call per numpy scalar, which took half the writer's time
    row_format = ",".join(["%.17g"] * n) + "\n"
    with _text_out(target) as fh:
        fh.write(f"{q},{n}\n")
        for row in matrix:
            fh.write(row_format % tuple(row.tolist()))


def read_matrix_csv(path) -> np.ndarray:
    with open(path) as fh:
        header = fh.readline().strip()
        try:
            q, n = (int(v) for v in header.split(","))
        except ValueError as err:
            raise ValueError(f"bad matrix header {header!r}") from err
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.shape != (q, n):
        raise ValueError(f"matrix body {data.shape} does not match header ({q}, {n})")
    return data


def read_cycles_csv(path) -> list[CycleRecord]:
    with open(path) as fh:
        header = fh.readline().strip()
        if header != CYCLES_HEADER:
            raise ValueError(f"unexpected cycles header {header!r}")
        records = []
        for line in fh:
            parts = line.strip().split(",")
            if len(parts) != 9:
                raise ValueError(f"malformed cycles row {line!r}")
            records.append(
                CycleRecord(int(parts[0]), *(float(v) for v in parts[1:]))
            )
    return records


def write_summary_csv(target, rows):
    with _text_out(target) as fh:
        fh.write(SUMMARY_HEADER + "\n")
        for name, p10, p50, mean, p90 in rows:
            fh.write(",".join([name] + [_fmt(v) for v in (p10, p50, mean, p90)]) + "\n")


def write_sweep_csv(target, rows):
    with _text_out(target) as fh:
        fh.write("prior,y,q,gamma,ess_frac,ess_frac_approx\n")
        for prior, y_name, q, gamma, frac, approx in rows:
            fh.write(
                ",".join([prior, y_name, str(q), _fmt(gamma), _fmt(frac), _fmt(approx)]) + "\n"
            )


# ---------------------------------------------------------------------------
# JSON configuration

_MODELS = {"lorenz96": Lorenz96Config, "kdv": KdVConfig, "static_prior": StaticPriorConfig}


def _keys(cls) -> set:
    """The JSON keys of a section that maps one to one onto a dataclass."""
    return {f.name for f in fields(cls)}


def _reject_unknown(d, allowed, context: str):
    if not isinstance(d, dict):
        raise ValueError(f"{context} must be a JSON object, got {json.dumps(d)}")
    unknown = sorted(set(d) - set(allowed))
    if unknown:
        raise ValueError(f"unknown keys in {context}: {unknown}")


_SCALARS = {bool: "true or false", int: "an integer", float: "a number", str: "a string"}


def _scalar(value, kind, context: str):
    """`value` when its JSON type is `kind`, else a ValueError naming the key
    `context`. An integer passes as a number; true and false pass only as
    booleans."""
    if kind is bool:
        fits = isinstance(value, bool)
    else:
        fits = isinstance(value, (int, float) if kind is float else kind)
        fits = fits and not isinstance(value, bool)
    if not fits:
        raise ValueError(f"{context} must be {_SCALARS[kind]}, got {json.dumps(value)}")
    return value


def _check_scalars(d: dict, cls, context: str):
    """_scalar on every key of `d` that names a bool, int, float or str field
    of dataclass `cls`, where null also passes if the field is `X | None`.
    Other fields are left to their own parsers."""
    for name, hint in typing.get_type_hints(cls).items():
        if name not in d:
            continue
        union = typing.get_origin(hint) in (typing.Union, types.UnionType)
        kinds = typing.get_args(hint) if union else (hint,)
        rest = [k for k in kinds if k is not type(None)]
        if len(rest) != 1 or rest[0] not in _SCALARS:
            continue
        if d[name] is not None or len(kinds) == 1:
            _scalar(d[name], rest[0], f"{context}.{name}")


def _list_of(values, cast, context: str) -> tuple:
    """A JSON array with `cast` applied to each item; `context` names the key."""
    if isinstance(values, list):
        try:
            return tuple(cast(v) for v in values)
        except (TypeError, ValueError):
            pass
    what = {int: "integers", float: "numbers"}[cast]
    raise ValueError(f"{context} must be a list of {what}, got {json.dumps(values)}")


def _choices_of(values, choices, context: str) -> tuple:
    """A JSON array whose items all come from `choices`."""
    if not isinstance(values, list) or any(v not in choices for v in values):
        drawn = f"a list drawn from {list(choices)}"
        raise ValueError(f"{context} must be {drawn}, got {json.dumps(values)}")
    return tuple(values)


def _model_from_dict(d: dict):
    # keys of any model first, which also checks that the section is an object
    _reject_unknown(d, {"kind"}.union(*map(_keys, _MODELS.values())), "model")
    cls = _MODELS.get(d.get("kind"))
    if cls is None:
        raise ValueError(f"unknown model kind {d.get('kind')!r}")
    _reject_unknown(d, {"kind"} | _keys(cls), "model")
    _check_scalars(d, cls, "model")
    return cls(**{k: v for k, v in d.items() if k != "kind"})


def _policy_from_dict(d: dict) -> GammaPolicy:
    _reject_unknown(d, _keys(GammaPolicy), "filter.policy")
    _check_scalars(d, GammaPolicy, "filter.policy")
    body = dict(d)
    for key in ("band", "grid"):
        if key in body:
            body[key] = _list_of(body[key], float, f"filter.policy.{key}")
    return GammaPolicy(**body)


def _filter_from_dict(d: dict) -> FilterSpec:
    _reject_unknown(d, _keys(FilterSpec), "filter")
    _check_scalars(d, FilterSpec, "filter")
    policy = _policy_from_dict(d["policy"]) if d.get("policy") is not None else None
    return FilterSpec(kind=d.get("kind", "enkpf"), policy=policy)


def _observation_from_dict(d: dict) -> ObservationScheme:
    _reject_unknown(d, {"components", "noise_variance", "schedule"}, "observation")
    if "noise_variance" not in d:
        raise ValueError("observation requires the 'noise_variance' key")
    _check_scalars(d, ObservationScheme, "observation")
    comps = d.get("components")
    if comps == "all":
        comps = None
    elif comps is not None:
        comps = _list_of(comps, int, "observation.components")
    interval = None
    if d.get("schedule") is not None:
        _reject_unknown(d["schedule"], {"interval"}, "observation.schedule")
        _check_scalars(d["schedule"], ObservationScheme, "observation.schedule")
        interval = d["schedule"].get("interval")
    return ObservationScheme(
        components=comps,
        noise_variance=float(d["noise_variance"]),
        interval=interval,
    )


def _taper_from_dict(d: dict) -> TaperSpec:
    _reject_unknown(d, _keys(TaperSpec), "taper")
    _check_scalars(d, TaperSpec, "taper")
    return TaperSpec(**d)


def experiment_config_from_dict(d: dict) -> ExperimentConfig:
    """Strict parse of the run-configuration schema; unknown keys error out."""
    _reject_unknown(d, _keys(ExperimentConfig), "config")
    _check_scalars(d, ExperimentConfig, "config")
    for key in ("model", "observation"):
        if key not in d:
            raise ValueError(f"config requires the {key!r} section")
    return ExperimentConfig(
        model=_model_from_dict(d["model"]),
        filter=_filter_from_dict(d.get("filter", {"kind": "enkpf"})),
        ensemble_size=d.get("ensemble_size", 100),
        cycles=d.get("cycles", 1),
        observation=_observation_from_dict(d["observation"]),
        taper=_taper_from_dict(d.get("taper", {})),
        seed=d.get("seed", 0),
        output_dir=d.get("output_dir"),
        record_timing=d.get("record_timing", False),
    )


def load_experiment_config(path) -> ExperimentConfig:
    with open(path) as fh:
        return experiment_config_from_dict(json.load(fh))


def sweep_config_from_dict(d: dict) -> dict:
    """Strict parse of the diversity-sweep schema into diversity_sweep kwargs."""
    allowed = {
        "priors",
        "observations",
        "dims",
        "ensemble_size",
        "taper",
        "gamma_grid",
        "seed",
        "raw_moment_estimates",
        "output",
    }
    _reject_unknown(d, allowed, "sweep config")
    kwargs = {}
    for key, choices in (("priors", ("gaussian", "bimodal")), ("observations", ("y1", "y2"))):
        if key in d:
            kwargs[key] = _choices_of(d[key], choices, f"sweep config {key!r}")
    if "dims" in d:
        kwargs["dims"] = _list_of(d["dims"], int, "sweep config 'dims'")
    if "ensemble_size" in d:
        kwargs["n_members"] = _scalar(d["ensemble_size"], int, "sweep config 'ensemble_size'")
    if "taper" in d:
        kwargs["taper"] = _taper_from_dict(d["taper"])
    if "gamma_grid" in d:
        kwargs["gamma_grid"] = _list_of(d["gamma_grid"], float, "sweep config 'gamma_grid'")
    if "seed" in d:
        kwargs["seed"] = _scalar(d["seed"], int, "sweep config 'seed'")
    if "raw_moment_estimates" in d:
        context = "sweep config 'raw_moment_estimates'"
        kwargs["raw_moment_estimates"] = _scalar(d["raw_moment_estimates"], bool, context)
    if d.get("output") is not None:
        _scalar(d["output"], str, "sweep config 'output'")
    return kwargs
