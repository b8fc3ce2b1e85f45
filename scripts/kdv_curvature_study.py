"""Waveform-roughness comparison on the dispersive wave model.

For each seed, runs ten assimilation cycles with a small-gamma bridged
update and with a plain Kalman update, then compares the largest member
curvature of the two final ensembles. The bridged update resamples prior
waveforms instead of shifting them linearly, so it should stay smoother
on most seeds.
"""

import argparse
from dataclasses import replace
from pathlib import Path

from enkpf import FilterSpec, GammaPolicy, curvature, load_experiment_config, run_experiment

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "kdv_enkpf.json"


def make_config(kind, seed, gamma):
    """configs/kdv_enkpf.json with the filter and seed replaced and no outputs."""
    policy = GammaPolicy.fixed(gamma) if kind == "enkpf" else None
    return replace(
        load_experiment_config(CONFIG),
        filter=FilterSpec(kind=kind, policy=policy),
        seed=seed,
        output_dir=None,
    )


def max_curvature(kind, seed, gamma):
    ens = run_experiment(make_config(kind, seed, gamma))[1]["analysis"]
    return max(curvature(member) for member in ens.states.T)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, default=10, help="number of replicate runs")
    ap.add_argument("--gamma", type=float, default=0.05, help="bridge parameter of the bridged run")
    args = ap.parse_args()

    wins = 0
    for seed in range(args.seeds):
        c_bridge = max_curvature("enkpf", seed, args.gamma)
        c_kalman = max_curvature("enkf", seed, 1.0)
        wins += c_bridge <= c_kalman
        tag = "win" if c_bridge <= c_kalman else "loss"
        print(f"seed {seed}: bridged {c_bridge:8.2f}  kalman {c_kalman:8.2f}  {tag}")
    print(f"\nbridged update smoother on {wins}/{args.seeds} seeds")


if __name__ == "__main__":
    main()
