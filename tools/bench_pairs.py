"""Interleaved parent/change benchmark of two source checkouts; writes one
BENCH json.

    python3 tools/bench_pairs.py --parent P --change C --work W --out BENCH.json

`P` and `C` are checkouts (each with `src/` and `perfbench/`), `W` a
scratch directory for CLI outputs. On fixed seeds the script records:

- `--pairs` interleaved pairs of `perfbench/run.py --seconds S --trace 0`
  on every workload (the parent runs first on odd pair indices, the change
  first on even ones), with per-metric medians, quartiles and pair wins;
- `jump_trial` blow-up and round-trip CPU time per trial, as medians over
  `--pairs` interleaved processes per side;
- one traced collapse-tableau run per side (`--trace 1`), its per-layer
  readings named in `TRACED`: repair and string-correction counts, the
  self time of extraction, measurement, generator set-up, discard and the
  final 2D decode, and Pauli products per trial;
- one digest per side of outputs that must not change: both engines'
  collapse stats and traces, tableau collapses with the signed stabilizer
  group of their residual 2D states, `jump_trial` with that of every 3D
  state its blow-ups return, `exhaustive_weight1_collapse`,
  `run_single_shot_trials`
  stats on the inner and tetrahedral codes of tetra15 from trial 0 and
  from trial 2^64 - 1030, `philox_words` at the (trials, draws) shapes
  that batches draw (`PHILOX_SHAPES`) from trial 0 and from the last such
  span below 2^64, at seeds 0, 808 and 2^64 - 1, CLI `jump collapse|roundtrip`, `simulate
  collapse --trace` and `simulate singleshot --kind 3d|inner` at
  `--workers` 1 and 2. A state is digested by its canonical signed
  stabilizer group, not by its tableau rows, so that two checkouts that
  hold the same states in different rows digest alike. A second digest
  covers every compiled `FrameProgram` on tetra15 (collapse, and
  single-shot on the inner and the tetrahedral code, under the four noise
  structures), so `compare` shows whether the compile changed;
- the stage split of a collapse-tableau trial (`tableau-stages`): per
  side, `--pairs` interleaved processes, each the median microseconds per
  trial of every step on fixed seeds, and the median of those medians;
- whole `simulate collapse` and `simulate singleshot --kind 3d` processes
  on tetra15 at 10^5 and 10^6 trials with `--workers` 1 and 2, timed by
  wall clock (`cli-times`): per pair one process per side, the sides
  alternating as for perfbench, with per-command medians, quartiles and
  pair wins.

`python3 tools/bench_pairs.py digest W`, `... jump-times`, `...
tableau-stages` and `... cli-times W --pair I` run one side's part in a
checkout whose `src/` is on PYTHONPATH. None of them sets a thread-count
environment variable.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("schedule", "collapse-fast", "collapse-tableau", "singleshot")
FIRST_SEED = 2001  # pair i runs seed FIRST_SEED + i - 1; the traced run, FIRST_SEED
TRACED = (
    "flux.repair_flux.calls_per_trial",
    "flux.string_correction.calls_per_trial",
    "jump.collapse.self_us_per_trial",
    "flux.extract_flux.self_us_per_trial",
    "tableau.Tableau.measure.self_us_per_trial",
    "noise.trial_rng.self_us_per_trial",
    "jump.discard_qubits.self_us_per_trial",
    "jump.ideal_decode_2d.self_us_per_trial",
    "pauli.PauliOperator.__mul__.calls_per_trial",
)
# (p, q, seed) of the digested collapse runs, p = q = 1 among them
COLLAPSE_POINTS = ((0.05, 0.05, 7), (0.0, 0.2, 11), (0.15, 0.0, 3), (1.0, 1.0, 5))
JUMP_POINTS = ((0.02, 0.02, 5), (0.1, 0.1, 9))
# (p, q) of the digested single-shot runs, each over SINGLE_SHOT_TRIALS
# trials (three batches) from trial 0 and from the last such span below 2^64
SINGLE_SHOT_POINTS = ((0.02, 0.02), (1.0, 1.0), (0.0, 0.3), (0.3, 0.0))
SINGLE_SHOT_TRIALS = 1030
# (trials, draws) of the digested `philox_words` calls: a collapse-fast op,
# inner and tetrahedral single-shot ops, a collapse-tableau op and a full
# tetrahedral single-shot batch
PHILOX_SHAPES = ((400, 42), (30, 28), (30, 75), (70, 42), (512, 75))
PHILOX_SEEDS = (0, 808, 2**64 - 1)
JUMP_TRIALS = 600
# the steps of a collapse-tableau trial that `tableau_stages` times, each the
# self time of a function wrapped at the one binding site the trial calls it
# through: "slot lookup" is what `collapse` does between its callees, "logical
# read" what `_collapse_step` does after its callees, "trial glue" what
# `_tableau_trial` does around its callees
STAGES = {
    "copy": ("tableau", "Tableau.copy"),
    "noise": ("montecarlo", "_apply_noise"),
    "slot measurement": ("jump", "_measure_slots"),
    "slot lookup": ("montecarlo", "collapse"),
    "discard": ("jump", "discard_qubits"),
    "finish": ("jump", "_finish_collapse"),
    "2D decode": ("montecarlo", "ideal_decode_2d"),
    "logical read": ("montecarlo", "_collapse_step"),
    "residual key": ("montecarlo", "CollapsePlan.residual_key"),
    "trial glue": ("montecarlo", "_tableau_trial"),
}
# collapse-tableau's noise and op size (perfbench's workload), and the
# batches each `tableau-stages` process times after one warm-up batch
STAGE_NOISE = (0.05, 0.05, 808)
STAGE_BATCH = 70
STAGE_BATCHES = 60
# the timed `simulate` commands (flags after `simulate`) and trial counts
CLI_COMMANDS = {"collapse": ["collapse"], "singleshot-3d": ["singleshot", "--kind", "3d"]}
CLI_TRIALS = (10**5, 10**6)
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
METHOD = (
    "perfbench: for pair i in 1..pairs, seed 2000 + i, every workload (schedule, "
    "collapse-fast, collapse-tableau, singleshot, in that order) ran perfbench/run.py "
    "--seconds S --trace 0 once per side, one process at a time, the parent first on odd "
    "i; each side from its own checkout with PYTHONDONTWRITEBYTECODE=1. Quartiles are "
    "statistics.quantiles(method='inclusive'). jump_trial_us: tetra15 rgb, "
    "NoiseSpec(0.02, 0.02, 5), one warm-up trial per action, then the CPU time "
    "(time.process_time) of trials 0..599, median per process; one process per side "
    "per pair, alternating as above; uncalibrated, not a perfbench workload. "
    "traced_collapse_tableau: perfbench/run.py --workload collapse-tableau --seed 2001 "
    "--trace 1, once per side. cli_times_s: for pair i in 1..pairs, one process per side, "
    "alternating as above, runs per command and trial count `python -m colexjump.cli "
    "simulate ... --builtin tetra15 --p 0.02 --q 0.02 --seed 2000 + i` with --workers 1 "
    "and 2 (workers 1 first on odd i), wall seconds per whole process; cli_speedup per "
    "side = workers-1 median / workers-2 median; no thread-count variable set. output_digest: sha256 of "
    "the outputs listed in the script's docstring, states by their canonical signed "
    "stabilizer group (`outputs`), and of every compiled FrameProgram's arrays "
    "(`programs`), once per side in the same work directory. tableau_stages: tetra15 "
    "rgb, NoiseSpec(0.05, 0.05, 808), one warm-up batch then 60 batches of 70 trials, "
    "each batch drawn as `_tableau_batch` draws it (the draw's time split evenly over its "
    "trials) and each trial run by `montecarlo._tableau_trial` with the functions of "
    "STAGES wrapped by self-time timers (time.perf_counter_ns); per process the median "
    "us/trial of each stage and of the whole trial, one process per side per pair, "
    "alternating as above, and per side the median over processes."
)


# -- one side ----------------------------------------------------------------------


def digest(work: Path) -> dict:
    """sha256 over every output this benchmark must leave unchanged
    (`outputs`), and over every compiled frame program (`programs`)."""
    # the tests' canonical signed stabilizer group of a state, from this
    # script's own checkout, so both sides digest their states alike
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
    from tableau_checks import signed_group

    from colexjump import montecarlo
    from colexjump.cli import main as cli
    from colexjump.jump import collapse, make_context
    from colexjump.montecarlo import (
        exhaustive_weight1_collapse,
        jump_trial,
        run_collapse_trials,
        run_single_shot_trials,
    )
    from colexjump.noise import NoiseSpec, philox_words, trial_rng
    from colexjump.pauli import PauliOperator
    from colexjump.colex import minimal_colex

    h = hashlib.sha256()

    def feed(*parts):
        h.update(repr(parts).encode())

    ctx = make_context(minimal_colex(3), "rgb")
    for p, q, seed in COLLAPSE_POINTS:
        for engine in ("fast", "tableau"):
            trace = io.StringIO()
            stats = run_collapse_trials(ctx, NoiseSpec(p, q, seed), 140, 33, trace, engine)
            feed(engine, p, q, seed, stats.as_dict(), trace.getvalue())
    for t in range(40):
        rng = trial_rng(13, t)
        state = ctx.states3[("zero", "plus")[t % 2]].copy()
        state.apply(PauliOperator(ctx.n3, (t * 2654435761) % (1 << ctx.n3), t % 5 << t % 11))
        slot = ctx.slots[t % len(ctx.slots)]
        flips = {(slot[1], slot[0]): {t % len(slot[2])}} if t % 3 else None
        out = collapse(ctx, state, 0.1 * (t % 4), rng, flips)
        s = out.residual_state
        feed(t, out.measurement_record, out.repair_record, out.logical_flip_flags)
        feed({k: (op.x, op.z, op.sign) for k, op in out.applied_correction.items()})
        feed(signed_group(s))
    blow_up, blown = montecarlo.blow_up, []

    def recording(*args):  # the group of each 3D state a blow-up returns
        state3 = blow_up(*args)
        blown.append(signed_group(state3))
        return state3

    montecarlo.blow_up = recording
    try:
        for p, q, seed in JUMP_POINTS:
            for action in ("blowup", "roundtrip"):
                noise = NoiseSpec(p, q, seed)
                feed(action, p, q, seed, [jump_trial(ctx, noise, action, t) for t in range(60)])
                feed(blown)
                blown.clear()
    finally:
        montecarlo.blow_up = blow_up
    feed(exhaustive_weight1_collapse(ctx))
    for code in (ctx.inner_code, ctx.code3):
        for p, q in SINGLE_SHOT_POINTS:
            for offset in (0, 2**64 - SINGLE_SHOT_TRIALS):
                noise = NoiseSpec(p, q, 11)
                stats = run_single_shot_trials(code, noise, SINGLE_SHOT_TRIALS, offset)
                feed(code.n, p, q, offset, stats.as_dict())
    for seed in PHILOX_SEEDS:
        for count, draws in PHILOX_SHAPES:
            for first in (0, 2**64 - count):
                feed(seed, first, count, draws, philox_words(seed, first, count, draws).tolist())
    base = ["--builtin", "tetra15", "--p", "0.05", "--q", "0.05", "--seed", "5"]
    runs = [["jump", action, *base, "--trials", "20"] for action in ("collapse", "roundtrip")]
    simulate = {
        "collapse": ["collapse", "--trials", "600", "--trace"],
        "singleshot-3d": ["singleshot", "--kind", "3d", "--trials", "2000"],
        "singleshot-inner": ["singleshot", "--kind", "inner", "--trials", "2000"],
    }
    for name, flags in simulate.items():
        for workers in ("1", "2"):
            out_dir = work / f"simulate-{name}-w{workers}"
            shutil.rmtree(out_dir, ignore_errors=True)
            runs.append(
                ["simulate", *flags, *base, "--out-dir", str(out_dir), "--workers", workers]
            )
    for argv in runs:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli(argv)
        feed(argv[:2], code, stdout.getvalue())
        if "--out-dir" in argv:
            out_dir = Path(argv[argv.index("--out-dir") + 1])
            for f in sorted(out_dir.iterdir()):
                feed(f.name, f.read_bytes())
            shutil.rmtree(out_dir)
    return {"outputs": h.hexdigest(), "programs": program_digest(ctx)}


def program_digest(ctx) -> str:
    """sha256 over every compiled `FrameProgram` of the context: collapse,
    then single-shot on its inner and its tetrahedral code, each under the
    four noise structures (p > 0, q > 0), by their draw kinds, octet
    tables, lookups, merged steps, failure table and |delta0| rows."""
    from colexjump.montecarlo import collapse_plan, single_shot_plan

    h = hashlib.sha256()

    def feed(*arrays):
        for a in arrays:
            h.update(repr((a.dtype.str, a.shape)).encode())
            h.update(a.tobytes())

    plans = (collapse_plan(ctx), single_shot_plan(ctx.inner_code), single_shot_plan(ctx.code3))
    for plan in plans:
        for noisy in (False, True):
            for flips in (False, True):
                program = plan.program(noisy, flips)
                feed(program.kinds, program.tables, program.fail)
                for bits, effects in program.lookups:
                    h.update(repr(bits).encode())
                    feed(effects)
                for bits, shifts, masks, effects in program.steps:
                    h.update(repr(bits).encode())
                    feed(shifts, masks, effects)
                feed(program.size_rows, program.size_offsets)
    return h.hexdigest()


def jump_times() -> dict:
    """CPU microseconds per `jump_trial`, median over the trials of one
    process, per action."""
    from colexjump.colex import minimal_colex
    from colexjump.jump import make_context
    from colexjump.montecarlo import jump_trial
    from colexjump.noise import NoiseSpec

    ctx = make_context(minimal_colex(3), "rgb")
    noise = NoiseSpec(0.02, 0.02, 5)
    out = {}
    for action in ("blowup", "roundtrip"):
        jump_trial(ctx, noise, action, 0)  # warm-up: states, tables
        times = []
        for t in range(JUMP_TRIALS):
            t0 = time.process_time()
            jump_trial(ctx, noise, action, t)
            times.append(time.process_time() - t0)
        out[action] = statistics.median(times) * 1e6
    return out


def tableau_stages() -> dict:
    """Median microseconds per trial of each step of a collapse-tableau
    trial (`STAGES`, "draw" and "total"), over the trials of one process."""
    import importlib

    from colexjump import montecarlo
    from colexjump.colex import minimal_colex
    from colexjump.jump import make_context
    from colexjump.noise import NoiseSpec, TrialStream, philox_words, uniforms

    ctx = make_context(minimal_colex(3), "rgb")
    noise = NoiseSpec(*STAGE_NOISE)
    width = 2 * ctx.n3 + sum(len(duals) for _, _, duals in ctx.slots)
    spent: dict[str, int] = {}  # stage -> self nanoseconds in the current trial
    children = [0]  # per open span, the time its child spans took

    def timed(stage, fn):
        def wrapper(*args, **kwargs):
            children.append(0)
            t0 = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                took = time.perf_counter_ns() - t0
                spent[stage] = spent.get(stage, 0) + took - children.pop()
                children[-1] += took

        return wrapper

    restore = []
    for stage, (module, name) in STAGES.items():
        owner = importlib.import_module(f"colexjump.{module}")
        *path, attr = name.split(".")
        for part in path:
            owner = getattr(owner, part)
        restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, timed(stage, getattr(owner, attr)))
    samples: dict[str, list[float]] = {s: [] for s in ("draw", *STAGES, "total")}
    try:
        for b in range(STAGE_BATCHES + 1):
            first = b * STAGE_BATCH
            t0 = time.perf_counter_ns()
            rows = uniforms(philox_words(noise.seed, first, STAGE_BATCH, width))
            draw = (time.perf_counter_ns() - t0) / STAGE_BATCH
            for t, row in enumerate(rows, first):
                spent.clear()
                montecarlo._tableau_trial(ctx, noise, t, TrialStream(noise.seed, t, row))
                if b:  # the first batch warms up
                    samples["draw"].append(draw / 1e3)
                    for stage in STAGES:
                        samples[stage].append(spent.get(stage, 0) / 1e3)
                    samples["total"].append((draw + sum(spent.values())) / 1e3)
    finally:
        for owner, attr, fn in restore:
            setattr(owner, attr, fn)
    return {stage: statistics.median(v) for stage, v in samples.items()}


def cli_times(work: Path, pair: int) -> dict:
    """Wall seconds of whole `simulate` processes with `--workers` 1 and 2,
    per command and trial count, on pair `pair`'s seed."""
    times = {}
    for name, flags in CLI_COMMANDS.items():
        for trials in CLI_TRIALS:
            runs = times[f"{name} {trials}"] = {}
            for workers in ("1", "2") if pair % 2 else ("2", "1"):
                out_dir = work / f"cli-{name}-w{workers}"
                argv = [
                    sys.executable, "-m", "colexjump.cli", "simulate", *flags,
                    "--builtin", "tetra15", "--p", "0.02", "--q", "0.02",
                    "--seed", str(FIRST_SEED + pair - 1), "--trials", str(trials),
                    "--workers", workers, "--out-dir", str(out_dir),
                ]
                t0 = time.perf_counter()
                subprocess.run(argv, check=True, capture_output=True)
                runs[workers] = time.perf_counter() - t0
                shutil.rmtree(out_dir)
    return times


# -- both sides --------------------------------------------------------------------


def _run(root: Path, argv: list[str]) -> str:
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, *argv], cwd=root, env=env, capture_output=True, text=True, check=True
    )
    return proc.stdout.strip().splitlines()[-1]


def _summary(values: dict, better: str) -> dict:
    parent, change = values["parent"], values["change"]
    q = {side: statistics.quantiles(v, n=4, method="inclusive") for side, v in values.items()}
    wins = sum((c > p) if better == "higher" else (c < p) for p, c in zip(parent, change))
    return {
        "parent": parent,
        "change": change,
        "parent_median": q["parent"][1],
        "change_median": q["change"][1],
        "parent_iqr": q["parent"][2] - q["parent"][0],
        "ratio": q["change"][1] / q["parent"][1],
        "better": better,
        "change_wins": f"{wins}/{len(parent)}",
    }


def _order(i: int) -> tuple[str, str]:
    return ("parent", "change") if i % 2 else ("change", "parent")


def compare(args) -> dict:
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    me = str(Path(__file__).resolve())
    work = args.work.resolve()
    work.mkdir(parents=True, exist_ok=True)
    result = {
        "environment": {
            "python": sys.version.split()[0],
            "cpus": os.cpu_count(),
            "thread_variables": {v: os.environ.get(v) for v in THREAD_VARIABLES},
        },
        "method": METHOD,
    }

    # one work directory for both sides: the output paths are in the outputs
    digests = {
        side: json.loads(_run(root, [me, "digest", str(work)])) for side, root in roots.items()
    }
    result["output_digest"] = digests | {"equal": digests["parent"] == digests["change"]}
    print("digests", digests, flush=True)

    runs = {w: {} for w in WORKLOADS}
    for i in range(1, args.pairs + 1):
        seed = FIRST_SEED + i - 1
        for w in WORKLOADS:
            for side in _order(i):
                out = json.loads(_run(roots[side], [
                    "perfbench/run.py", "--workload", w, "--seed", str(seed),
                    "--seconds", str(args.seconds), "--trace", "0",
                ]))
                for name, m in out["metrics"].items():
                    runs[w].setdefault(name, {"parent": [], "change": []})[side].append(m["value"])
                runs[w].setdefault("failed_ops", {"parent": [], "change": []})[side].append(
                    out["failed"]
                )
                print(i, w, side, round(out["metrics"]["work_per_s"]["value"], 1), flush=True)
    better = {"work_per_s": "higher"}
    result["workloads"] = {
        w: {
            name: v if name == "failed_ops" else _summary(v, better.get(name, "lower"))
            for name, v in metrics.items()
        }
        for w, metrics in runs.items()
    }

    times = {"blowup": {"parent": [], "change": []}, "roundtrip": {"parent": [], "change": []}}
    for i in range(1, args.pairs + 1):
        for side in _order(i):
            for action, us in json.loads(_run(roots[side], [me, "jump-times"])).items():
                times[action][side].append(us)
    result["jump_trial_us"] = {a: _summary(v, "lower") for a, v in times.items()}

    stages = {"parent": [], "change": []}
    for i in range(1, args.pairs + 1):
        for side in _order(i):
            stages[side].append(json.loads(_run(roots[side], [me, "tableau-stages"])))
    result["tableau_stages_us"] = {
        side: {s: statistics.median(r[s] for r in runs) for s in runs[0]}
        for side, runs in stages.items()
    } | {"runs": stages}

    traced = {}
    for side, root in roots.items():
        out = json.loads(_run(root, [
            "perfbench/run.py", "--workload", "collapse-tableau", "--seed", str(FIRST_SEED),
            "--seconds", str(args.seconds), "--trace", "1",
        ]))
        traced[side] = {name: out["metrics"][name]["value"] for name in TRACED}
    result["traced_collapse_tableau"] = traced

    cli = {}
    for i in range(1, args.pairs + 1):
        for side in _order(i):
            out = json.loads(_run(roots[side], [me, "cli-times", str(work), "--pair", str(i)]))
            for key, runs in out.items():
                for workers, seconds in runs.items():
                    name = f"{key} workers {workers}"
                    cli.setdefault(name, {"parent": [], "change": []})[side].append(seconds)
    result["cli_times_s"] = {name: _summary(v, "lower") for name, v in cli.items()}
    result["cli_speedup"] = {
        key: {
            side: statistics.median(cli[f"{key} workers 1"][side])
            / statistics.median(cli[f"{key} workers 2"][side])
            for side in roots
        }
        for key in dict.fromkeys(name.rsplit(" workers ", 1)[0] for name in cli)
    }
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="mode")
    one = sub.add_parser("digest")
    one.add_argument("work", type=Path)
    sub.add_parser("jump-times")
    sub.add_parser("tableau-stages")
    cli = sub.add_parser("cli-times")
    cli.add_argument("work", type=Path)
    cli.add_argument("--pair", type=int, required=True)
    ap.add_argument("--parent", type=Path)
    ap.add_argument("--change", type=Path)
    ap.add_argument("--work", type=Path)
    ap.add_argument("--out", type=Path)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=20.0)
    args = ap.parse_args(argv)
    if args.mode == "digest":
        print(json.dumps(digest(args.work)))
    elif args.mode == "jump-times":
        print(json.dumps(jump_times()))
    elif args.mode == "tableau-stages":
        print(json.dumps(tableau_stages()))
    elif args.mode == "cli-times":
        print(json.dumps(cli_times(args.work, args.pair)))
    else:
        if None in (args.parent, args.change, args.work, args.out):
            ap.error("--parent, --change, --work and --out are required")
        if args.pairs < 2:
            ap.error("--pairs must be at least 2, to give quartiles")
        result = compare(args)
        args.out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
