"""Golden-output gate: short runs of the shipped cycling configs against
checked-in outputs.

For each config the gate keeps cycles.csv without its wall_ms column,
truth.csv, and the per-component mean and spread of final_ensemble.csv.
A change that means to alter these numbers regenerates the files and says
why:

    PYTHONPATH=src python tests/test_golden.py
"""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from enkpf import load_experiment_config, run_experiment
from enkpf.experiment import _fmt, read_matrix_csv

GOLDEN = Path(__file__).parent / "golden"
CONFIGS = Path(__file__).parent.parent / "configs"
CYCLES = {"lorenz96_enkpf": 5, "lorenz96_enkf": 5, "kdv_enkpf": 3, "kdv_pf_benchmark": 3}


def _golden_tables(name: str, work: Path) -> dict[str, str]:
    cfg = replace(load_experiment_config(CONFIGS / f"{name}.json"), cycles=CYCLES[name])
    run_experiment(cfg, out_dir=str(work))
    cycle_lines = (work / "cycles.csv").read_text().splitlines()
    ens = read_matrix_csv(work / "final_ensemble.csv")
    moments = ["component,mean,spread"] + [
        f"{k},{_fmt(m)},{_fmt(s)}"
        for k, (m, s) in enumerate(zip(ens.mean(axis=1), ens.std(axis=1, ddof=1)), start=1)
    ]
    return {
        "cycles.csv": "\n".join(line.rsplit(",", 1)[0] for line in cycle_lines) + "\n",
        "truth.csv": (work / "truth.csv").read_text(),
        "ensemble_moments.csv": "\n".join(moments) + "\n",
    }


def _numbers(text: str) -> tuple[str, np.ndarray]:
    header, *rows = text.splitlines()
    return header, np.array([[float(v) for v in row.split(",")] for row in rows])


@pytest.mark.parametrize("name", sorted(CYCLES))
def test_golden_outputs(name, tmp_path):
    for fname, text in _golden_tables(name, tmp_path).items():
        want_header, want = _numbers((GOLDEN / name / fname).read_text())
        got_header, got = _numbers(text)
        assert got_header == want_header, f"{name}/{fname}"
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0, err_msg=f"{name}/{fname}")


if __name__ == "__main__":
    import tempfile

    for name in sorted(CYCLES):
        with tempfile.TemporaryDirectory() as work:
            tables = _golden_tables(name, Path(work))
        (GOLDEN / name).mkdir(parents=True, exist_ok=True)
        for fname, text in tables.items():
            (GOLDEN / name / fname).write_text(text)
        print(f"wrote {GOLDEN / name}")
