"""Run every workload on several seeds and record medians and quartiles.

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline.json

Each (workload, seed) is one `run.py --trace 0` process, run one after
another. The output records the environment (program revision, Python,
numpy, nproc) and, per workload and metric, the ten values, their median,
quartiles and spread (quartile distance over the median). Use the same
seeds and `--seconds` on both sides of a before/after comparison.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def revision() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT
        )
    except OSError:  # no git
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    import numpy

    report = {
        "environment": {
            "program_revision": revision(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "nproc": os.cpu_count(),
        },
        "seconds": seconds,
        "seeds": seed_list(args.seeds),
        "workloads": {},
    }
    for name in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        attempted = failed = 0
        for seed in report["seeds"]:
            argv = [
                sys.executable, str(HERE / "run.py"), "--workload", name,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
            ]
            proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            result = json.loads(proc.stdout.splitlines()[-1])
            attempted += result["attempted"]
            failed += result["failed"]
            for metric, entry in result["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
        wl = WORKLOADS[name]
        report["workloads"][name] = {
            "why": wl.why,
            "params": wl.params,
            "ops_attempted": attempted,
            "ops_failed": failed,
            "metrics": {m: summarise(v) for m, v in values.items()},
        }
        for metric, s in report["workloads"][name]["metrics"].items():
            print(
                f"{name:<17} {metric:<13} median {s['median']:12.4f} "
                f"spread {s['spread']:.4f}",
                flush=True,
            )
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
