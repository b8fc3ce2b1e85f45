"""Twin-experiment comparison of the Kalman and bridged updates on the
40-variable chaotic ring model.

Runs both filters against the same synthetic truth (shared seed) and
prints the mean analysis RMSE plus the per-score decile table. The setup
is configs/lorenz96_enkpf.json, with the Kalman run's filter replaced:
every second component observed with noise variance 0.5, 400 members and
a Gaspari-Cohn ring taper of support 10.
"""

import argparse
from dataclasses import replace
from pathlib import Path

import numpy as np

from enkpf import FilterSpec, load_experiment_config, run_experiment, summarize

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "lorenz96_enkpf.json"


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--cycles", type=int, default=200)
    ap.add_argument("--seed", type=int, default=None, help="override the config's seed")
    ap.add_argument("--out", default=None, help="write per-filter run outputs under this directory")
    args = ap.parse_args()

    base = load_experiment_config(CONFIG)
    if args.seed is not None:
        base = replace(base, seed=args.seed)
    results = {}
    for kind in ("enkf", "enkpf"):
        cfg = replace(
            base,
            filter=base.filter if kind == "enkpf" else FilterSpec(kind=kind),
            cycles=args.cycles,
            output_dir=f"{args.out}/{kind}" if args.out else None,
        )
        records, _ = run_experiment(cfg)
        results[kind] = records
        mean_rmse = float(np.mean([r.rmse for r in records]))
        mean_gamma = float(np.mean([r.gamma for r in records]))
        print(
            f"{kind:6s} mean rmse {mean_rmse:.4f}  mean gamma {mean_gamma:.3f}  "
            f"({len(records)} cycles)"
        )

    for kind, records in results.items():
        print(f"\n{kind} score table:")
        print("  score    p10     p50     mean    p90")
        for name, p10, p50, mean, p90 in summarize(records):
            print(f"  {name:7s}{p10:8.4f}{p50:8.4f}{mean:8.4f}{p90:8.4f}")


if __name__ == "__main__":
    main()
