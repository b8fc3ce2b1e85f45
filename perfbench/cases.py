"""Workloads, their input cases, and the digests that check their outputs.

Every workload has a table of CASES input cases, and a run's --seed only
chooses the order in which they are visited. That way every output a run
produces has a reference digest in reference.json, made once from the
program by make_reference.py.

- l96_enkpf: case k is the shipped config with experiment seed
  `config seed + k` and a fixed cycle count (one batch of cycles). The
  digest covers cycles.csv without its wall_ms column, final_ensemble.csv
  and truth.csv.
- update_cli: case k is one stored forecast ensemble (q=40, N=400) and one
  observation file of every second component at noise variance 0.5, made
  here from k with numpy alone, never with enkpf. The request runs with
  `--seed k`. The digest covers the output matrix file and the
  diagnostics line on stderr.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = Path(__file__).resolve().parent / "reference.json"

CASES = 32


@dataclass(frozen=True)
class CyclingWorkload:
    name: str
    config: str  # shipped config, relative to the checkout root
    cycles: int  # cycles per batch; one batch is one case

    def experiment_config(self, case: int, cycles: int | None = None):
        """The shipped config with only seed, cycles and timing changed."""
        from dataclasses import replace

        from enkpf.experiment import load_experiment_config

        cfg = load_experiment_config(ROOT / self.config)
        return replace(
            cfg,
            seed=cfg.seed + case,
            cycles=self.cycles if cycles is None else cycles,
            output_dir=None,
            record_timing=True,
        )


@dataclass(frozen=True)
class UpdateWorkload:
    name: str
    q: int = 40
    members: int = 400
    noise_variance: float = 0.5

    def write_case(self, case: int, case_dir: Path) -> None:
        """Forecast and observation files of one request.

        The forecast is a smooth random field around a Lorenz-96-like
        climatology (mean 2.3, sd 3.6), members spread with unit variance
        and correlation over about two neighbours on the ring. The truth
        is one more draw from the same law, observed at components
        1, 3, ..., 39 with iid N(0, noise_variance) noise.
        """
        gen = np.random.default_rng([case, 1208])
        q, n = self.q, self.members
        center = 2.3 + 3.6 * gen.standard_normal(q)
        members = center[:, None] + _ring_smooth(gen.standard_normal((q, n)))
        truth = center + _ring_smooth(gen.standard_normal(q))
        comps = np.arange(1, q + 1, 2)
        y = truth[comps - 1] + np.sqrt(self.noise_variance) * gen.standard_normal(comps.size)
        case_dir.mkdir(parents=True, exist_ok=True)
        with open(case_dir / "forecast.csv", "w") as fh:
            fh.write(f"{q},{n}\n")
            for row in members:
                fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
        with open(case_dir / "obs.csv", "w") as fh:
            fh.write("component,value,noise_variance\n")
            for c, v in zip(comps, y):
                fh.write(f"{c},{v:.17g},{self.noise_variance!r}\n")

    @staticmethod
    def argv(case: int, case_dir: Path, out: Path) -> list[str]:
        return [
            "update",
            "--ensemble", str(case_dir / "forecast.csv"),
            "--obs", str(case_dir / "obs.csv"),
            "--gamma", "auto",
            "--taper", "gaspari_cohn",
            "--taper-support", "10",
            "--taper-topology", "ring",
            "--seed", str(case),
            "--out", str(out),
        ]


def _ring_smooth(z: np.ndarray) -> np.ndarray:
    """Unit-variance moving average over +-2 neighbours on the ring (axis 0)."""
    s = z + 0.6 * (np.roll(z, 1, axis=0) + np.roll(z, -1, axis=0))
    s = s + 0.2 * (np.roll(z, 2, axis=0) + np.roll(z, -2, axis=0))
    return s / np.sqrt(1.0 + 2 * 0.36 + 2 * 0.04)


WORKLOADS = {
    "l96_enkpf": CyclingWorkload("l96_enkpf", "configs/lorenz96_enkpf.json", cycles=20),
    "update_cli": UpdateWorkload("update_cli"),
}


def cycling_digest(out_dir: Path) -> tuple[str, list[float]]:
    """Digest of one cycling batch, and the wall_ms column of cycles.csv."""
    h = hashlib.sha256()
    walls = []
    with open(out_dir / "cycles.csv") as fh:
        header = fh.readline().rstrip("\n").split(",")
        wall = header.index("wall_ms")
        keep = [i for i in range(len(header)) if i != wall]
        h.update(",".join(header[i] for i in keep).encode() + b"\n")
        for line in fh:
            fields = line.rstrip("\n").split(",")
            h.update(",".join(fields[i] for i in keep).encode() + b"\n")
            walls.append(float(fields[wall]))
    for name in ("final_ensemble.csv", "truth.csv"):
        h.update((out_dir / name).read_bytes())
    return h.hexdigest(), walls


def update_digest(out: Path, diagnostics: str) -> str:
    """Digest of one request: the output matrix and the gamma/ess/div line
    the CLI prints to stderr."""
    h = hashlib.sha256(out.read_bytes())
    h.update(diagnostics.encode())
    return h.hexdigest()
