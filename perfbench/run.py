"""Benchmark for colexjump: one workload per process, metrics as JSON.

    python3 perfbench/run.py --workload collapse-fast --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from the root of a source checkout; the package is imported from
`src/`. With `--trace 0` the run reports the end-to-end metrics: set-up time
is the median of several fresh-process set-ups, taken before and after the
timed phase, then ops run for `--seconds` and every op's output digest is
checked against `reference.json`. Times are reported at nominal host speed
(see `speed.py`); the raw wall-clock figures are printed beside them. With
`--trace 1` the run reports the per-layer metrics: half the time untraced,
then the same ops again under the tracer, whose spans go to `.bench_out/`.
The last line of standard output is one JSON object: correct, attempted
(ops), failed (ops that raised or whose digest differs from the reference)
and metrics.
"""

from __future__ import annotations

import argparse
import itertools
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

SETUP_BEFORE = SETUP_AFTER = 3  # fresh set-up processes around the timed phase
SETUP_CAL_JOBS = 100  # calibration jobs just before and just after each set-up
CAL_EVERY_S = 0.2  # calibrate between ops at least this often ...
CAL_JOBS = 4  # ... with this many jobs
MIN_OPS = 100  # so that at least ten ops lie beyond p90
HARD_CAP_S = 120  # stop a phase here even below MIN_OPS
CHILD_TIMEOUT_S = 150

sys.path.insert(0, str(HERE))
from speed import calibrate, scale, slowdown  # noqa: E402
from workloads import WORKLOADS, load_reference  # noqa: E402


def parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


# -- set-up -------------------------------------------------------------------------


def set_up(wl, seed, ref, tracer_factory=None):
    """Import, build, warm up; returns (set-up seconds, warm-up ok, tracer)."""
    t0 = time.perf_counter()
    import colexjump  # noqa: F401  (set-up time starts before this import)

    tracer = None
    if tracer_factory is not None:
        tracer = tracer_factory()
        tracer.install()
    try:
        wl.setup()
        inp = next(wl.inputs(seed))  # the warm-up op
        _, out = wl.run(wl.prepare(inp))
        ok = wl.digest(out) == ref[inp[0]][inp[1]]
    finally:
        if tracer is not None:
            tracer.uninstall()
    return time.perf_counter() - t0, ok, tracer


def timed_setup(wl, seed, ref) -> tuple[float, float, bool]:
    """Set-up seconds, the host's slowdown around them, and warm-up check."""
    cal = calibrate(SETUP_CAL_JOBS)
    setup_s, ok, _ = set_up(wl, seed, ref)
    cal += calibrate(SETUP_CAL_JOBS)
    return setup_s, slowdown(cal), ok


def setup_sample(wl_name: str, seed: int) -> tuple[float, float, bool]:
    """`timed_setup` in a fresh process."""
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", wl_name, "--seed", str(seed), "--setup-only"],
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process failed:\n{proc.stderr}")
    sample = json.loads(proc.stdout.splitlines()[-1])
    return sample["setup_s"], sample["slowdown"], sample["ok"]


# -- timed ops ----------------------------------------------------------------------


class Phase:
    """Per-op clock readings, calibrations, work done and output checks of
    one timed phase."""

    def __init__(self):
        self.spans: list[tuple[float, float]] = []  # (start, end) of each op
        self.batches: list[tuple[float, list[float]]] = []  # calibrations
        self.digests: list[str | None] = []
        self.items = 0
        self.failed = 0

    @property
    def ops(self) -> int:
        return len(self.spans)

    @property
    def times(self) -> list[float]:
        return [end - start for start, end in self.spans]

    def calibrate(self) -> None:
        self.batches.append((time.perf_counter(), calibrate(CAL_JOBS)))

    def scaled(self) -> list[float]:
        """Op times at nominal host speed."""
        return scale(self.spans, self.batches)


def run_ops(wl, inputs, ref, seconds, min_ops, tracer=None) -> Phase:
    phase = Phase()
    clock = time.perf_counter
    begin = last_cal = clock()
    phase.calibrate()
    for op, inp in enumerate(inputs):
        if clock() - last_cal >= CAL_EVERY_S:
            phase.calibrate()
            last_cal = clock()
        prepared = wl.prepare(inp)
        if tracer is not None:
            tracer.op = op
        t0 = clock()
        try:
            items, out = wl.run(prepared)
        except Exception as exc:  # a failed op counts in error_frac
            t1 = clock()
            print(f"op {op} {inp} raised {exc!r}", file=sys.stderr)
            phase.failed += 1
            phase.digests.append(None)
        else:
            t1 = clock()
            phase.items += items
            d = wl.digest(out)
            phase.digests.append(d)
            if d != ref[inp[0]][inp[1]]:
                print(f"op {op} {inp}: digest {d} differs from reference", file=sys.stderr)
                phase.failed += 1
        phase.spans.append((t0, t1))
        elapsed = t1 - begin
        if elapsed >= seconds and (phase.ops >= min_ops or elapsed >= HARD_CAP_S):
            break
    phase.calibrate()
    return phase


def timed_inputs(wl, seed):
    return itertools.islice(wl.inputs(seed), 1, None)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# -- modes --------------------------------------------------------------------------


def end_to_end(wl, args, ref) -> dict:
    samples = [setup_sample(wl.name, args.seed) for _ in range(SETUP_BEFORE)]
    samples.append(timed_setup(wl, args.seed, ref))
    phase = run_ops(wl, timed_inputs(wl, args.seed), ref, args.seconds, MIN_OPS)
    samples += [setup_sample(wl.name, args.seed) for _ in range(SETUP_AFTER)]
    raw_ms = [t * 1e3 for t in phase.times]
    scaled_ms = [t * 1e3 for t in phase.scaled()]
    setups = [s / slow for s, slow, _ in samples]

    def figures(times_ms, setup_times):
        return {
            "work_per_s": (phase.items / sum(times_ms) * 1e3, "1/s"),
            "chunk_p50_ms": (statistics.median(times_ms), "ms"),
            "chunk_p90_ms": (statistics.quantiles(times_ms, n=10)[8], "ms"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }

    metrics = figures(scaled_ms, setups)
    raw = figures(raw_ms, [s for s, _, _ in samples])
    jobs = [t for _, batch in phase.batches for t in batch]
    # work_per_s is trials_per_s or steps_per_s, depending on the workload
    shown = {"work_per_s": (f"{wl.unit}_per_s", f"{wl.unit}/s")}
    print(f"workload {wl.name}  seed {args.seed}  ops {phase.ops}  {wl.unit} {phase.items}")
    print(f"  {'':<14} {'nominal':>12} {'wall':>12}")
    for name, (value, unit) in metrics.items():
        label, unit = shown.get(name, (name, unit))
        print(f"  {label:<14} {value:12.4f} {raw[name][0]:12.4f} {unit}")
    print(f"  {'error_frac':<14} {phase.failed / phase.ops:12.4f}  ({phase.failed} of {phase.ops} ops)")
    print(
        f"  host slowdown against nominal: {slowdown(jobs):.3f} over {len(jobs)} "
        f"calibration jobs; set-ups {[round(slow, 3) for _, slow, _ in samples]}"
    )
    print(f"  set-up samples (s, wall) {[round(s, 4) for s, _, _ in samples]}")
    return {
        "correct": phase.failed == 0 and all(ok for _, _, ok in samples),
        "attempted": phase.ops,
        "failed": phase.failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }


def traced(wl, args, ref) -> dict:
    from tracer import METRICS, Tracer

    _, ok, setup_tracer = set_up(wl, args.seed, ref, Tracer)
    half = args.seconds / 2
    plain = run_ops(wl, timed_inputs(wl, args.seed), ref, half, 1)
    tracer = Tracer()
    tracer.install()
    try:
        spans = run_ops(wl, timed_inputs(wl, args.seed), ref, half, 1, tracer)
    finally:
        tracer.uninstall()
    common = min(plain.ops, spans.ops)
    same_outputs = plain.digests[:common] == spans.digests[:common]
    trials = spans.items if wl.unit == "trials" else 0
    steps = spans.items if wl.unit == "steps" else 0
    values = tracer.layer_metrics(trials, steps)
    values["jump.min_weight_table.calls"] = (
        setup_tracer.calls()["jump.min_weight_table"] + tracer.calls()["jump.min_weight_table"]
    )
    values["jump.min_weight_table.setup_s"] = setup_tracer.total_s("jump.min_weight_table")
    values["jump.make_context.setup_s"] = setup_tracer.total_s("jump.make_context")
    values["trace.overhead_frac"] = (
        sum(spans.scaled()[:common]) / sum(plain.scaled()[:common]) - 1
    )
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"spans-{wl.name}.tsv.gz")

    print(
        f"workload {wl.name}  seed {args.seed}  traced ops {spans.ops} "
        f"({spans.items} {wl.unit}), untraced ops {plain.ops}"
    )
    print(f"  traced and untraced digests equal on {common} ops: {same_outputs}")
    units = {m["name"]: m["unit"] for m in METRICS}
    for m in METRICS:
        print(f"  {m['name']:<56} {values[m['name']]:14.4f} {m['unit']}")
    failed = plain.failed + spans.failed
    return {
        "correct": ok and failed == 0 and same_outputs,
        "attempted": plain.ops + spans.ops,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": units[name]} for name in units
        },
    }


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    results = {}
    for name in WORKLOADS:
        argv = [
            sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        results[name] = json.loads(lines[-1])
    print(json.dumps({"workloads": results}, sort_keys=True))
    return 0


def main(argv=None) -> int:
    args = parse(argv)
    if not (SRC / "colexjump" / "__init__.py").is_file():
        print(f"error: no colexjump sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    ref = load_reference()
    wl = WORKLOADS[args.workload]
    if args.setup_only:
        setup_s, slow, ok = timed_setup(wl, args.seed, ref)
        print(json.dumps({"setup_s": setup_s, "slowdown": slow, "ok": ok}))
        return 0
    result = traced(wl, args, ref) if args.trace else end_to_end(wl, args, ref)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
