"""Record reference.json: the output digest of every op in each universe.

    python3 perfbench/record_reference.py

Run from the root of a source checkout whose outputs are known good. Both
collapse universes are recorded with the fast engine; the first
`TABLEAU_CHECK` chunks of the tableau workload are also run on the tableau
engine, which must give the same digests, since the two engines are
bit-identical.
"""

from __future__ import annotations

import json
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import (  # noqa: E402
    REFERENCE_PATH,
    SCHEDULE_BIG,
    SCHEDULE_SMALL,
    SINGLESHOT_CHUNKS,
    WORKLOADS,
    schedule_sequence,
)

TABLEAU_CHECK = 8


def main() -> int:
    import numpy as np

    digests = {}
    for name in ("collapse-fast", "collapse-tableau"):
        wl = WORKLOADS[name]
        wl.setup()
        digests[name] = [
            wl.digest(wl.run(k, engine="fast")[1]) for k in range(wl.chunks)
        ]
    tableau = WORKLOADS["collapse-tableau"]
    for k in range(TABLEAU_CHECK):
        if tableau.digest(tableau.run(k)[1]) != digests["collapse-tableau"][k]:
            print(f"collapse-tableau chunk {k}: engines disagree", file=sys.stderr)
            return 1

    ss = WORKLOADS["singleshot"]
    ss.setup()
    digests["singleshot"] = [ss.digest(ss.run(k)[1]) for k in range(SINGLESHOT_CHUNKS)]

    sched = WORKLOADS["schedule"]
    sched.setup()
    for pool, size in (("small", SCHEDULE_SMALL), ("big", SCHEDULE_BIG)):
        digests[f"schedule-{pool}"] = []
        for k in range(size):
            out = sched.run(schedule_sequence(pool, k))[1]
            if not out[1].ok:
                print(f"schedule-{pool} {k}: verification failed", file=sys.stderr)
                return 1
            digests[f"schedule-{pool}"].append(sched.digest(out))

    payload = {
        "recorded_with": {"python": platform.python_version(), "numpy": np.__version__},
        "digests": digests,
    }
    with open(REFERENCE_PATH, "w") as fh:
        json.dump(payload, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"wrote {sum(map(len, digests.values()))} digests to {REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
