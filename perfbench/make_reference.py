"""Write reference.json: the output digest of every input case.

    python3 perfbench/make_reference.py

Run it at a commit whose outputs are trusted (the references in the repo
come from the seed code) and only there: a change that is meant to keep
outputs identical is checked against these digests, and one that changes
them on purpose regenerates them and says why. Every workload is
regenerated together with the platform key: the digests are bitwise, so
they hold only for the platform recorded beside them; see README.md.
"""

from __future__ import annotations

import json
import shutil
import sys

import envinfo
import run
from cases import CASES, REFERENCE, WORKLOADS, CyclingWorkload


def main() -> int:
    run.import_program()
    reference = {"workloads": {}}
    tmp = run.WORK / "tmp-reference"
    try:
        for name in sorted(WORKLOADS):
            wl = WORKLOADS[name]
            runner = run.make_runner(wl, None, tmp / name)
            digests = []
            for case in range(CASES):
                call = runner.run(case)
                if call.error:
                    raise SystemExit(f"{name} case {case} failed: {call.error}")
                digests.append(call.digest)
                print(f"{name} case {case}: {call.digest[:16]}", file=sys.stderr)
            entry = {"digests": digests}
            if isinstance(wl, CyclingWorkload):
                entry["cycles"] = wl.cycles
            reference["workloads"][name] = entry
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    reference["platform"] = envinfo.platform_key(envinfo.environment())
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
