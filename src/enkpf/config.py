"""Run and sweep configuration. The config dataclasses are the JSON schema:
an object becomes a dataclass with its fields as the only keys, and each
constructor checks its values by their annotations (enkpf.schema)."""

from __future__ import annotations

import json
import typing
from dataclasses import MISSING, dataclass, field, fields, is_dataclass

import numpy as np

from .ensemble import TaperSpec
from .gamma import GammaPolicy
from .models import KdVConfig, Lorenz96Config
from .schema import FieldError, _mismatch, _reject_unknown, check_fields, check_value, field_hints

__all__ = [
    "StaticPriorConfig",
    "ObservationScheme",
    "FilterSpec",
    "ExperimentConfig",
    "SweepConfig",
    "experiment_config_from_dict",
    "load_experiment_config",
    "load_sweep_config",
]

STATIC_BASE_DIM = 250

Prior = typing.Literal["gaussian", "bimodal"]
YPreset = typing.Literal["y1", "y2"]
FilterKind = typing.Literal["pf", "enkf", "enkpf"]


@dataclass(frozen=True)
class StaticPriorConfig:
    """Propagation-free single-update scenario with a synthetic prior.

    The prior ensemble comes from one standard-normal base sample of
    dimension 250 (first q components used); the bimodal variant shifts the
    first component of the second half of the members by +6. `y` is either
    a preset name (y1 / y2) or an explicit q-vector.
    """

    prior: Prior = "gaussian"
    q: int = 50
    y: str | tuple[float, ...] = "y1"

    def __post_init__(self):
        check_fields(self)
        if not 1 <= self.q <= STATIC_BASE_DIM:
            raise ValueError(f"q must lie in [1, {STATIC_BASE_DIM}]")
        if isinstance(self.y, str):
            check_value(self.y, YPreset, "y")
        elif len(self.y) != self.q:
            raise ValueError("explicit y must have length q")

    # observation noise standard deviations of the canonical scenarios
    DEFAULT_SIGMA = {"gaussian": 0.5, "bimodal": 3.0}


@dataclass(frozen=True)
class ObservationScheme:
    """Which components are observed (1-based; None = all) and the iid
    noise variance. Observations come every model.lead_time."""

    components: tuple[int, ...] | None = None
    noise_variance: float = 1.0

    def __post_init__(self):
        check_fields(self)
        if not self.noise_variance > 0:
            raise ValueError("noise_variance must be positive")
        comps = self.components
        if comps is not None and (len(comps) == 0 or len(set(comps)) != len(comps)):
            raise ValueError("components must be nonempty and distinct")


@dataclass(frozen=True)
class FilterSpec:
    kind: FilterKind = "enkpf"
    policy: GammaPolicy | None = None

    def __post_init__(self):
        check_fields(self)
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
        check_fields(self)
        if self.ensemble_size < 2:
            raise ValueError("ensemble_size must be at least 2")
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")
        if isinstance(self.model, StaticPriorConfig):
            if not 0 <= self.cycles <= 1:
                raise ValueError("a static-prior scenario is a single update (cycles 0 or 1)")
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
        return self.model.lead_time


@dataclass(frozen=True)
class SweepConfig:
    """The diversity sweep: every prior, observation preset and dimension,
    ensemble_size members, each gamma of gamma_grid. `output` is where the
    CLI writes the table (stdout when None)."""

    priors: tuple[Prior, ...] = typing.get_args(Prior)
    observations: tuple[YPreset, ...] = typing.get_args(YPreset)
    dims: tuple[int, ...] = (10, 50, 250)
    ensemble_size: int = 50
    taper: TaperSpec = TaperSpec(kind="triangular", support=10.0, topology="line")
    gamma_grid: tuple[float, ...] = tuple(k / 20.0 for k in range(21))
    seed: int = 0
    raw_moment_estimates: bool = False
    output: str | None = None

    def __post_init__(self):
        check_fields(self)


_MODELS = {"lorenz96": Lorenz96Config, "kdv": KdVConfig, "static_prior": StaticPriorConfig}


def _from_json(value, hint, key: str):
    """Parsed JSON `value` built into the dataclass that `hint` names; `key`
    names it in errors.

    A dataclass takes an object whose keys are its field names (absent
    fields keep their defaults), and a union of model configs picks the
    class by the object's `kind`. Any other value goes to the constructor
    as it is, whose type check refuses it under `key`.
    """
    classes = [a for a in typing.get_args(hint) or (hint,) if is_dataclass(a)]
    if not classes or (value is None and type(None) in typing.get_args(hint)):
        return value
    if len(classes) > 1:  # the model section, whose class is named by its kind
        if not isinstance(value, dict):
            raise _mismatch(value, hint, key)
        kind = check_value(value.get("kind"), typing.Literal[tuple(_MODELS)], f"{key}.kind")
        value = {k: v for k, v in value.items() if k != "kind"}
        classes = [_MODELS[kind]]
    (cls,) = classes
    hints = field_hints(cls)
    _reject_unknown(value, hints, key)
    for f in fields(cls):
        if f.name not in value and f.default is MISSING and f.default_factory is MISSING:
            raise ValueError(f"{key} requires the {f.name!r} key")
    kwargs = {k: _from_json(v, hints[k], f"{key}.{k}") for k, v in value.items()}
    try:
        return cls(**kwargs)
    except FieldError as err:
        raise ValueError(f"{key}.{err}") from None


def experiment_config_from_dict(d: dict) -> ExperimentConfig:
    """Strict parse of the run-configuration schema; unknown keys error out.

    The observation section differs from ObservationScheme in two ways: it
    is required and so is its noise_variance, and components "all" stands
    for null.
    """
    if not isinstance(d, dict):
        raise _mismatch(d, ExperimentConfig, "config")
    if "observation" not in d:
        raise ValueError("config requires the 'observation' key")
    obs = d["observation"]
    _reject_unknown(obs, field_hints(ObservationScheme), "config.observation")
    if "noise_variance" not in obs:
        raise ValueError("config.observation requires the 'noise_variance' key")
    if obs.get("components") == "all":
        obs = {**obs, "components": None}
    return _from_json({**d, "observation": obs}, ExperimentConfig, "config")


def load_experiment_config(path) -> ExperimentConfig:
    with open(path) as fh:
        return experiment_config_from_dict(json.load(fh))


def load_sweep_config(path) -> SweepConfig:
    """Strict parse of a diversity-sweep configuration file."""
    with open(path) as fh:
        return _from_json(json.load(fh), SweepConfig, "sweep")
