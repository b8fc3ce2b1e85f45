"""Twin-experiment harness: the cycling loop, its CSV records and the
diversity sweep (configs in enkpf.config, matrix files in enkpf.matrix_csv).

A run alternates model propagation and a filter update against observations
synthesized from a truth trajectory, recording per-cycle diagnostics and
scores. All randomness descends from one seed through keyed streams
(cycle, role), so reruns are bitwise reproducible. Records are flushed per
cycle; an aborted run leaves a valid prefix on disk.
"""

from __future__ import annotations

import time
import typing
from dataclasses import astuple, dataclass, replace
from pathlib import Path

import numpy as np

from .blas import single_thread
from .bridge import UpdateDiagnostics, enkf_update, enkpf_update, pf_update
from .config import (
    STATIC_BASE_DIM,
    ExperimentConfig,
    FilterSpec,
    StaticPriorConfig,
    SweepConfig,
    load_experiment_config,  # unused here: perfbench/cases.py imports it from this module
)
from .ensemble import Ensemble, sample_moments, tapered_covariance
from .errors import DivergenceError
from .gamma import weight_variance_asymptotic
from .matrix_csv import _text_out, write_matrix_csv
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
    "CycleRecord",
    "CYCLES_HEADER",
    "SUMMARY_HEADER",
    "static_prior_ensemble",
    "static_prior_observation",
    "run_experiment",
    "summarize",
    "diversity_sweep",
    "read_cycles_csv",
    "write_summary_csv",
    "write_sweep_csv",
]

SUMMARY_HEADER = "score,p10,p50,mean,p90"


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


# cycles.csv: one column per CycleRecord field, in field order
_CYCLE_TYPES = typing.get_type_hints(CycleRecord)
CYCLES_HEADER = ",".join(_CYCLE_TYPES)
_CYCLE_ROW = ",".join("%d" if t is int else "%.17g" for t in _CYCLE_TYPES.values()) + "\n"


# ---------------------------------------------------------------------------
# scenario construction


def static_prior_ensemble(model: StaticPriorConfig, n_members: int, gen) -> Ensemble:
    """Draw the canonical synthetic prior: one (250, N) standard-normal base
    sample, first q rows kept; the bimodal prior shifts component 1 of the
    second half of the members by +6."""
    x = gen.standard_normal((STATIC_BASE_DIM, n_members))[: model.q].copy()
    if model.prior == "bimodal":
        x[0, n_members // 2 :] += 6.0
    return Ensemble(x)


def static_prior_observation(model: StaticPriorConfig) -> np.ndarray:
    """The scenario's observation vector, its y preset resolved."""
    if not isinstance(model.y, str):
        return np.asarray(model.y)
    y = np.zeros(model.q)
    if model.prior == "bimodal":
        y[0] = -2.0 if model.y == "y1" else 3.0
    elif model.y == "y2":
        y[:2] = 1.5
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
    ens = static_prior_ensemble(model, cfg.ensemble_size, root.child("init", "ensemble").generator())
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
        self._fh.write(_CYCLE_ROW % astuple(rec))
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
    # built once per run: each cycle swaps in its y and shares R's factor
    scheme = LinearGaussianObservation.from_indices(
        idx, cfg.observation.noise_variance * np.eye(r), np.zeros(r), q
    )
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
                y = static_prior_observation(cfg.model)[idx]
                t = 0.0
            else:
                # the truth advances as column N+1 of the ensemble matrix: one
                # propagator call, whose divergence check covers both
                stacked = propagate(np.column_stack((ens.states, truth)), interval)
                ens, truth = Ensemble(stacked[:, :n_members]), stacked[:, n_members]
                noise = root.child("cycle", cycle, "obs").standard_normal(r)
                y = truth[idx] + noise_std * noise
                t = cycle * interval
            obs = scheme.with_y(y)
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
def diversity_sweep(cfg: SweepConfig = SweepConfig(), **changes):
    """ess/N of the mixture weights across gamma for the synthetic scenarios.

    Keyword arguments replace fields of `cfg`. Returns rows (prior, y, q,
    gamma, ess_frac, ess_frac_approx); the approximation predicts
    ess ~ N / (1 + N^2 Var) from the asymptotic weight variance with moments
    estimated from the sample (tapered unless raw_moment_estimates is set).
    """
    cfg = replace(cfg, **changes)
    node = RngNode(cfg.seed).child("init", "ensemble")
    rows = []
    for prior in cfg.priors:
        for q in cfg.dims:
            # a fresh generator per scenario, so every prior and q shares one base sample
            ens = static_prior_ensemble(
                StaticPriorConfig(prior, q), cfg.ensemble_size, node.generator()
            )
            sigma2 = StaticPriorConfig.DEFAULT_SIGMA[prior] ** 2
            tapered = tapered_covariance(ens, cfg.taper)
            mom = sample_moments(ens) if cfg.raw_moment_estimates else tapered
            for y_name in cfg.observations:
                y = static_prior_observation(StaticPriorConfig(prior, q, y_name))
                obs = LinearGaussianObservation.from_indices(
                    np.arange(q), sigma2 * np.eye(q), y, q
                )
                for gamma in cfg.gamma_grid:
                    w = _mixture_from_cov(ens.states, tapered.cov, obs, gamma).weights
                    frac = ess(w) / cfg.ensemble_size
                    nsq_var = weight_variance_asymptotic(mom.cov, mom.mean, obs, gamma)
                    approx = 1.0 / (1.0 + nsq_var)
                    rows.append((prior, y_name, q, gamma, frac, approx))
    return rows


# ---------------------------------------------------------------------------
# file formats


def read_cycles_csv(path) -> list[CycleRecord]:
    with open(path) as fh:
        header = fh.readline().strip()
        if header != CYCLES_HEADER:
            raise ValueError(f"unexpected cycles header {header!r}")
        records = []
        for line in fh:
            parts = line.strip().split(",")
            if len(parts) != len(_CYCLE_TYPES):
                raise ValueError(f"malformed cycles row {line!r}")
            records.append(CycleRecord(*(t(v) for t, v in zip(_CYCLE_TYPES.values(), parts))))
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

