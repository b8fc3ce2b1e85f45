"""Set-up time of one workload, measured in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py <src dir> <config path | "update_cli">

Times everything from the first line of this script until the first op
could start: importing enkpf, parsing the config and building the initial
ensemble and truth through the same function `run_experiment` calls
(cycling workloads), or importing the CLI (update_cli). Prints the
elapsed seconds.
"""

import time

_START = time.perf_counter()

import sys  # noqa: E402


def main() -> None:
    sys.path.insert(0, sys.argv[1])
    target = sys.argv[2]
    if target == "update_cli":
        from enkpf.cli import main as _cli_main  # noqa: F401
    else:
        from enkpf import RngNode, load_experiment_config
        from enkpf.experiment import _initial_states

        cfg = load_experiment_config(target)
        _initial_states(cfg, RngNode(cfg.seed))
    print(repr(time.perf_counter() - _START))


if __name__ == "__main__":
    main()
