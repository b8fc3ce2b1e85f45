"""Twin-experiment harness: configuration, cycling loop, CSV outputs.

A run alternates model propagation and a filter update against observations
synthesized from a truth trajectory, recording per-cycle diagnostics and
scores. All randomness descends from one seed through keyed streams
(cycle, role), so reruns are bitwise reproducible. Records are flushed per
cycle; an aborted run leaves a valid prefix on disk.
"""

from __future__ import annotations

import ctypes
import functools
import json
import re
import time
import typing
from contextlib import contextmanager
from dataclasses import MISSING, astuple, dataclass, field, fields, is_dataclass, replace
from pathlib import Path

import numpy as np

from .blas import single_thread
from .bridge import UpdateDiagnostics, enkf_update, enkpf_update, pf_update
from .compiled import load as load_library
from .ensemble import Ensemble, TaperSpec, sample_moments, tapered_covariance
from .errors import DivergenceError
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
from .schema import FieldError, _mismatch, _reject_unknown, check_fields, check_value, field_hints
from .scoring import crps, rmse

__all__ = [
    "StaticPriorConfig",
    "ObservationScheme",
    "FilterSpec",
    "ExperimentConfig",
    "SweepConfig",
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
    "load_sweep_config",
]

STATIC_BASE_DIM = 250

SUMMARY_HEADER = "score,p10,p50,mean,p90"

Prior = typing.Literal["gaussian", "bimodal"]
YPreset = typing.Literal["y1", "y2"]
FilterKind = typing.Literal["pf", "enkf", "enkpf"]


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
    """Which components are observed (1-based; None = all), the iid noise
    variance, and the model-time interval between observations (None = the
    model's lead time)."""

    components: tuple[int, ...] | None = None
    noise_variance: float = 1.0
    interval: float | None = None

    def __post_init__(self):
        check_fields(self)
        if not self.noise_variance > 0:
            raise ValueError("noise_variance must be positive")
        comps = self.components
        if comps is not None and (len(comps) == 0 or len(set(comps)) != len(comps)):
            raise ValueError("components must be nonempty and distinct")
        if self.interval is not None and not self.interval > 0:
            raise ValueError("interval must be positive")


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


@contextmanager
def _text_out(target):
    """`target` itself when it is an open text stream, else the file at that
    path, opened for writing; its directory is created only when missing."""
    if hasattr(target, "write"):
        yield target
        return
    try:
        fh = open(target, "w")
    except FileNotFoundError:
        Path(target).parent.mkdir(parents=True, exist_ok=True)
        fh = open(target, "w")
    with fh:
        yield fh


def write_matrix_csv(target, matrix: np.ndarray):
    """(q, N) matrix as CSV: first line 'q,N', then q comma-separated rows.

    `target` is a path or an open text stream, as for every writer here.
    Every value is written as '%.17g' % v. The formatter of _csv.c does
    that where it builds, into one buffer that goes to the stream's binary
    layer when it has one; otherwise each row is %-formatted in Python,
    with the same bytes.
    """
    matrix = np.asarray(matrix, dtype=float)
    q, n = matrix.shape
    format_body = _csv_formatter()
    with _text_out(target) as fh:
        fh.write(f"{q},{n}\n")
        if format_body is None:
            _write_rows(fh, matrix)
            return
        body = format_body(matrix)
        if hasattr(fh, "buffer"):
            fh.flush()
            fh.buffer.write(body)
        else:
            fh.write(str(body, "ascii"))


def _write_rows(fh, matrix):
    """The Python path of write_matrix_csv, and the reference the compiled
    formatter is tested against."""
    # one %-format per row of Python floats writes _fmt's digits without a
    # format call per numpy scalar, which took half the writer's time
    row_format = ",".join(["%.17g"] * matrix.shape[1]) + "\n"
    for row in matrix:
        fh.write(row_format % tuple(row.tolist()))


@functools.cache
def _csv_formatter():
    """csv_format of _csv.c as a function from a (q, N) matrix to a
    memoryview of its CSV body, or None where it cannot be built or loaded
    (see enkpf.compiled)."""
    dll = load_library("_csv")
    if dll is None:
        return None
    fmt, width = dll.csv_format, ctypes.c_long.in_dll(dll, "csv_field_max").value
    fmt.argtypes = [ctypes.c_void_p, ctypes.c_long, ctypes.c_long, ctypes.c_void_p]
    fmt.restype = ctypes.c_long

    def format_body(matrix):
        x = np.ascontiguousarray(matrix, dtype=np.float64)
        q, n = x.shape
        buf = np.empty(width * x.size, np.uint8)
        size = fmt(x.ctypes.data, q, n, buf.ctypes.data)
        return memoryview(buf)[:size]

    return format_body


def read_matrix_csv(path) -> np.ndarray:
    """The matrix write_matrix_csv wrote at `path`. Every error names the
    path, and one in a body line names that line as well.

    The parser of _csv.c reads a body in the form the writer gives it:
    q lines of N values, each '[-+]?(d+(.d*)?|.d+)([eE][-+]?d+)?', with ','
    between values and '\n' after each line. Anything else (spaces,
    comments, blank lines, CRLF, inf or nan, another shape), and every
    input where it cannot be built, goes to np.loadtxt, which reads the
    same values bitwise and raises every error.
    """
    parse_body = _csv_parser()
    if parse_body is not None:
        with open(path, "rb") as fh:
            text = fh.read()
        header = _STRICT_HEADER.match(text)
        if header is not None:
            data = parse_body(text, header.end(), int(header[1]), int(header[2]))
            if data is not None:
                return data
    return _read_rows(path)


_STRICT_HEADER = re.compile(rb"(\d+),(\d+)\n")
# ASCII digits only, unlike int(), which also takes '1_0' and other scripts'
# digits; spaces around each number are allowed, as np.loadtxt allows them
# around a value
_HEADER = re.compile(r"(\d+)\s*,\s*(\d+)", re.ASCII)
_TOKEN = re.compile(rb"[^,\n]*")
_OFFSET_BITS = np.uint64(2**51 - 1)


@functools.cache
def _csv_parser():
    """csv_parse of _csv.c as a function of the file's bytes, the offset of
    the body and the header's (q, N) that gives the (q, N) matrix, or None
    where the body is not in the parser's form; or None itself where _csv.c
    cannot be built or loaded (see enkpf.compiled)."""
    dll = load_library("_csv")
    if dll is None:
        return None
    parse = dll.csv_parse
    parse.argtypes = [ctypes.c_void_p, ctypes.c_long, ctypes.c_long, ctypes.c_long, ctypes.c_void_p]
    parse.restype = ctypes.c_long

    def parse_body(text, start, q, n):
        body = np.frombuffer(text, np.uint8, offset=start)
        if not 0 < 2 * q * n <= body.size:  # every value takes two bytes or more
            return None
        data = np.empty((q, n))
        slow = parse(body.ctypes.data, body.size, q, n, data.ctypes.data)
        if slow < 0:
            return None
        if slow:
            # a value outside the parser's exact tiers is a NaN whose low
            # 51 bits give the offset of its text in the body
            flat = data.reshape(-1)
            bits = flat.view(np.uint64)
            for k in np.flatnonzero(np.isnan(flat)):
                flat[k] = float(_TOKEN.match(text, start + int(bits[k] & _OFFSET_BITS))[0])
        return data

    return parse_body


def _read_rows(path) -> np.ndarray:
    """The np.loadtxt path of read_matrix_csv, and the reference the
    compiled parser is tested against."""
    with open(path) as fh:
        header = fh.readline().strip()
        shape = _HEADER.fullmatch(header)
        if shape is None:
            raise ValueError(f"{path}, line 1: bad matrix header {header!r}")
        q, n = int(shape[1]), int(shape[2])
        try:
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as err:
            raise ValueError(_refusal(path, err)) from err
    if data.shape != (q, n):
        raise ValueError(f"{path}: matrix body {data.shape} does not match header ({q}, {n})")
    return data


# numpy's place of a refused value, ' at row k, column c.' at the end, or of
# a ragged row, ' at row k' before '; '; its row counts data rows, from 0 in
# the first and from 1 in the second
_NUMPY_ROW = re.compile(r" at row \d+(?:, column (\d+)\.$|(?=; ))")


def _refusal(path, err) -> str:
    """np.loadtxt's message `err` about the body of `path`, placed at the
    file line and, where numpy names it, the (1-based) column."""
    message, line = str(err), _refused_line(path)
    numpy_row = _NUMPY_ROW.search(message)
    if line and numpy_row:
        message = message[: numpy_row.start()] + message[numpy_row.end() :]
        if numpy_row[1]:
            line += f", column {numpy_row[1]}"
    return f"{path}{line}: {message}"


def _refused_line(path) -> str:
    """', line k' for the first body line of a matrix CSV that np.loadtxt
    refuses: one with a value that is not a number, or with another number
    of values than the first body line. Blank lines and '#' comments are
    skipped as np.loadtxt skips them."""
    width = None
    with open(path) as fh:
        next(fh)
        for number, line in enumerate(fh, 2):
            text = line.split("#")[0]
            if not text.strip():
                continue
            cells = text.split(",")
            width = width or len(cells)
            if len(cells) != width or not all(map(_loadtxt_reads, cells)):
                return f", line {number}"
    return ""


def _loadtxt_reads(cell: str) -> bool:
    """Whether np.loadtxt reads `cell` as a float: Python's float reads it
    without its surrounding whitespace, and it is ASCII without '_' (float
    also takes non-ASCII digits and '_' between digits; numpy does not)."""
    text = cell.strip()
    if not text.isascii() or "_" in text:
        return False
    try:
        float(text)
    except ValueError:
        return False
    return True


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


# ---------------------------------------------------------------------------
# JSON configuration
#
# The config dataclasses are the schema: a JSON object becomes a dataclass
# with its fields as the only keys, and each constructor checks its values
# by their annotations (enkpf.schema).

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

    The observation section differs from ObservationScheme in three ways:
    it is required and so is its noise_variance, components "all" stands
    for null, and the field interval is written schedule.interval.
    """
    if not isinstance(d, dict):
        raise _mismatch(d, ExperimentConfig, "config")
    if "observation" not in d:
        raise ValueError("config requires the 'observation' key")
    obs = d["observation"]
    _reject_unknown(obs, {"components", "noise_variance", "schedule"}, "config.observation")
    if "noise_variance" not in obs:
        raise ValueError("config.observation requires the 'noise_variance' key")
    obs = {k: v for k, v in obs.items() if k != "schedule"}
    if obs.get("components") == "all":
        obs["components"] = None
    schedule = d["observation"].get("schedule")
    if schedule is not None:
        key = "config.observation.schedule"
        _reject_unknown(schedule, {"interval"}, key)
        if "interval" in schedule:
            hint = field_hints(ObservationScheme)["interval"]
            obs["interval"] = check_value(schedule["interval"], hint, f"{key}.interval")
    return _from_json({**d, "observation": obs}, ExperimentConfig, "config")


def load_experiment_config(path) -> ExperimentConfig:
    with open(path) as fh:
        return experiment_config_from_dict(json.load(fh))


def load_sweep_config(path) -> SweepConfig:
    """Strict parse of a diversity-sweep configuration file."""
    with open(path) as fh:
        return _from_json(json.load(fh), SweepConfig, "sweep")
