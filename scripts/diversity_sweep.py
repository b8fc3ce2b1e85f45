"""Single-update weight-diversity curves across the bridge parameter.

Sweeps gamma for Gaussian and bimodal priors at several state dimensions
and reports ess/N of the mixture weights next to the asymptotic
prediction 1 / (1 + N^2 Var(w)). Optionally writes the full table to CSV
and, when matplotlib is importable, saves the curves as a figure.
"""

import argparse

from enkpf import diversity_sweep, write_sweep_csv


def group_curves(rows):
    curves = {}
    for prior, y, q, gamma, frac, approx in rows:
        curves.setdefault((prior, y, q), []).append((gamma, frac, approx))
    return curves


def print_table(curves, marks=(0.0, 0.25, 0.5, 0.75, 1.0)):
    print("ess/N measured/predicted at selected gamma")
    for (prior, y, q), pts in curves.items():
        by_gamma = {round(g, 6): (f, a) for g, f, a in pts}
        cells = "  ".join(
            f"g={g:.2f} {by_gamma[g][0]:.2f}/{by_gamma[g][1]:.2f}" for g in marks
        )
        print(f"{prior:8s} {y}  q={q:<3d}  {cells}")


def save_plot(curves, path):
    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("matplotlib not available; skipping plot")
        return
    panels = list(dict.fromkeys((prior, y) for (prior, y, _q) in curves))
    fig, axes = plt.subplots(1, len(panels), figsize=(3.6 * len(panels), 3.2), sharey=True)
    axes = [axes] if len(panels) == 1 else list(axes)
    for ax, panel in zip(axes, panels):
        for (prior, y, q), pts in curves.items():
            if (prior, y) != panel:
                continue
            gs, fr, pred = zip(*pts)
            (line,) = ax.plot(gs, fr, label=f"q={q}")
            ax.plot(gs, pred, linestyle="--", color=line.get_color())
        ax.set_title(f"{panel[0]}, {panel[1]}")
        ax.set_xlabel("gamma")
        ax.set_ylim(0.0, 1.05)
    axes[0].set_ylabel("ess / N  (solid measured, dashed predicted)")
    axes[-1].legend(loc="lower right", fontsize=8)
    fig.tight_layout()
    fig.savefig(path, dpi=150)
    print(f"wrote plot to {path}")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--members", type=int, default=50)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument(
        "--raw-moments",
        action="store_true",
        help="estimate the weight-variance moments without tapering",
    )
    ap.add_argument("--out", default=None, help="write the full table as CSV")
    ap.add_argument("--plot", default=None, help="save the curves to this image file")
    args = ap.parse_args()

    rows = diversity_sweep(
        ensemble_size=args.members, seed=args.seed, raw_moment_estimates=args.raw_moments
    )
    if args.out:
        write_sweep_csv(args.out, rows)
        print(f"wrote {len(rows)} rows to {args.out}")
    print_table(group_curves(rows))
    if args.plot:
        save_plot(group_curves(rows), args.plot)


if __name__ == "__main__":
    main()
