"""Command-line front end.

Subcommands:
  run        execute a configured twin experiment
  sweep      single-update diversity curves across gamma
  summarize  quantile table from a cycles.csv
  update     one bridged analysis step on an ensemble stored as CSV
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from typing import get_args

import numpy as np

from .blas import single_thread
from .bridge import enkpf_update
from .ensemble import Ensemble, TaperKind, TaperSpec, Topology
from .errors import DegenerateWeightsError, DivergenceError
from .experiment import (
    _fmt,
    diversity_sweep,
    load_experiment_config,
    load_sweep_config,
    read_cycles_csv,
    read_matrix_csv,
    run_experiment,
    summarize,
    write_matrix_csv,
    write_summary_csv,
    write_sweep_csv,
)
from .gamma import GammaPolicy
from .observation import LinearGaussianObservation
from .rng import RngNode


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first main() call of a process:
    building it takes several times as long as a parse."""
    parser = argparse.ArgumentParser(prog="enkpf", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a configured experiment")
    p_run.add_argument("--config", required=True, help="JSON experiment configuration")
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.add_argument("--out", default=None, help="override the config output directory")

    p_sweep = sub.add_parser("sweep", help="diversity curves over gamma")
    p_sweep.add_argument("--config", required=True, help="JSON sweep configuration")

    p_sum = sub.add_parser("summarize", help="quantile table from cycle records")
    p_sum.add_argument("--in", dest="infile", required=True, help="cycles.csv to summarize")
    p_sum.add_argument("--out", default=None, help="write summary csv here instead of stdout")

    p_upd = sub.add_parser("update", help="one bridged analysis step on a stored ensemble")
    p_upd.add_argument("--ensemble", required=True, help="ensemble matrix csv (header 'q,N')")
    p_upd.add_argument(
        "--obs",
        required=True,
        help="observation csv with header component,value,noise_variance (components 1-based)",
    )
    p_upd.add_argument("--gamma", required=True, help="bridge parameter in [0,1], or 'auto'")
    p_upd.add_argument("--taper", default="none", choices=get_args(TaperKind))
    p_upd.add_argument("--taper-support", type=float, default=0.0)
    p_upd.add_argument("--taper-topology", default="line", choices=get_args(Topology))
    p_upd.add_argument("--seed", type=int, default=0)
    p_upd.add_argument("--out", default=None, help="write updated ensemble here (default stdout)")
    return parser


def _cmd_run(args) -> int:
    cfg = load_experiment_config(args.config)
    if args.seed is not None:
        from dataclasses import replace

        cfg = replace(cfg, seed=args.seed)
    try:
        records, _ = run_experiment(cfg, out_dir=args.out)
    except (DegenerateWeightsError, DivergenceError) as err:
        print(f"run aborted: {err}", file=sys.stderr)
        return 1
    print(f"completed {len(records)} cycles", file=sys.stderr)
    return 0


def _cmd_sweep(args) -> int:
    cfg = load_sweep_config(args.config)
    write_sweep_csv(cfg.output or sys.stdout, diversity_sweep(cfg))
    return 0


def _cmd_summarize(args) -> int:
    write_summary_csv(args.out or sys.stdout, summarize(read_cycles_csv(args.infile)))
    return 0


# each observation CSV column: name, parser, what a valid value is, its test
_OBS_COLUMNS = (
    ("component", int, "an integer", lambda c: True),
    ("value", float, "a finite number", math.isfinite),
    ("noise_variance", float, "a positive finite number", lambda s2: 0 < s2 < math.inf),
)


def _obs_field(text: str, column, line_no: int):
    name, parse, what, valid = column
    try:
        if valid(value := parse(text)):
            return value
    except ValueError:
        pass
    raise ValueError(f"observation line {line_no}: {name} must be {what}, got {text!r}")


def _read_obs_csv(path, state_dim: int) -> LinearGaussianObservation:
    rows = []
    with open(path) as fh:
        header = fh.readline().strip()
        if header != ",".join(column[0] for column in _OBS_COLUMNS):
            raise ValueError(f"unexpected observation header {header!r}")
        for line_no, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            fields = line.strip().split(",")
            if len(fields) != 3:
                raise ValueError(f"malformed observation row {line.strip()!r}")
            rows.append([_obs_field(*pair, line_no) for pair in zip(fields, _OBS_COLUMNS)])
    if not rows:
        raise ValueError("observation file holds no rows")
    components, values, variances = zip(*rows)
    if min(components) < 1 or max(components) > state_dim:
        raise ValueError(f"observed components must lie in [1, {state_dim}]")
    idx = np.asarray(components, dtype=int) - 1
    return LinearGaussianObservation.from_indices(
        idx, np.diag(variances), np.asarray(values), state_dim
    )


def _gamma_policy(text: str) -> GammaPolicy:
    if text == "auto":
        return GammaPolicy()
    try:
        gamma = float(text)
    except ValueError:
        gamma = math.nan
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"--gamma must be 'auto' or a number in [0, 1], got {text!r}")
    return GammaPolicy.fixed(gamma)


def _cmd_update(args) -> int:
    policy = _gamma_policy(args.gamma)
    states = read_matrix_csv(args.ensemble)
    ens = Ensemble(states)
    obs = _read_obs_csv(args.obs, ens.q)
    taper = TaperSpec(kind=args.taper, support=args.taper_support, topology=args.taper_topology)
    node = RngNode(args.seed).child("cycle", 1, "update")
    try:
        out, diag = enkpf_update(ens, obs, policy, taper, node)
    except (DegenerateWeightsError, DivergenceError) as err:
        print(f"update failed: {err}", file=sys.stderr)
        return 1
    n = ens.n_members
    print(
        f"gamma={_fmt(diag.gamma)} ess_frac={_fmt(diag.ess / n)} div_frac={_fmt(diag.div / n)}",
        file=sys.stderr,
    )
    write_matrix_csv(args.out or sys.stdout, out.states)
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {
        "run": _cmd_run,
        "sweep": _cmd_sweep,
        "summarize": _cmd_summarize,
        "update": _cmd_update,
    }[args.command]
    with single_thread():
        return handler(args)


def console_main(argv=None) -> int:
    """The `enkpf` console script: main() with bad input reported as one
    line on stderr and exit code 1 instead of a traceback.

    np.linalg.LinAlgError is a ValueError, so it is caught here too. Numpy's
    floating-point warnings are silenced: non-finite states and covariances
    are caught by explicit checks, which give the one-line message.
    """
    try:
        with np.errstate(all="ignore"):
            return main(argv)
    except (ValueError, OSError) as err:
        print("enkpf: " + " ".join(str(err).splitlines()), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(console_main())
