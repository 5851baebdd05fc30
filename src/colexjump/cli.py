"""Command-line entry point: build, inspect, jump, simulate, schedule.

Each action's parser takes exactly the flags that action reads. Every
output file embeds the tool version, the parsed configuration and the hash
of the lattice it ran on; a run that draws random numbers also prints and
embeds its seed, so reruns with identical inputs are byte-identical.

Exit codes: 0 success, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys

VERSION = "0.1.0"


def _out_dir(args) -> str:
    return args.out_dir or os.environ.get("COLEXJUMP_OUTDIR", ".")


def _load_colex(args):
    from . import colex as colex_mod
    from .hexfamily import builtin_colex

    if args.builtin is not None:
        return builtin_colex(args.builtin)
    return colex_mod.load(args.colex)


class SystemExit2(Exception):
    """Usage-level error discovered after parsing."""


def _write_json(args, cx, results, seed=None) -> str:
    """Write `results` with the run's metadata to <out-dir>/<label>.json,
    making the directory if needed; returns the path."""
    config = {k: v for k, v in sorted(vars(args).items()) if k != "func" and v is not None}
    payload = {
        "tool": "colexjump",
        "version": VERSION,
        "config": config,
        "colex_hash": cx.content_hash(),
        "results": results,
    }
    if seed is not None:
        payload["seed"] = seed
    out_dir = _out_dir(args)
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, args.label + ".json")
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path


# -- colex -------------------------------------------------------------------------


def cmd_colex(args) -> int:
    from .boundary import boundary_structure
    from .colex import save, validate

    cx = _load_colex(args)
    if args.action == "hash":
        print(cx.content_hash())
        return 0
    if args.action == "validate":
        report = validate(cx)
        if report.ok:
            print(f"{cx.name or 'colex'}: valid")
            return 0
        print(f"{cx.name or 'colex'}: INVALID")
        for v in report.violations:
            print(f"  [{v.code}] {v.message}")
        return 1
    print(f"name      {cx.name}")
    print(f"dimension {cx.dimension}")
    print(f"vertices  {cx.n_vertices}")
    print(f"edges     {len(cx.edges)}")
    print(f"plaquettes {len(cx.plaquettes)}")
    print(f"cells     {len(cx.cells)}")
    print(f"hash      {cx.content_hash()}")
    bs = boundary_structure(cx)
    for i, r in enumerate(bs.regions):
        print(f"region {i}: {r.colors} {r.classification} ({len(r.vertices)} vertices)")
    print(f"borders   {[(b.pair, 'odd' if b.odd else 'even') for b in bs.borders]}")
    print(f"corners   {[(c.color, c.vertex) for c in bs.corners]}")
    if args.save:
        save(cx, args.save)
    return 0


# -- code build ----------------------------------------------------------------------


def _build_code(args, cx):
    """The `--kind` code on `cx`. Only the inner code reads `--facet`
    (default rgb); the facet it ran on is echoed in the config."""
    from .codes import build_2d, build_3d, build_inner
    from .split import split_colex

    if args.kind != "inner":
        if args.facet is not None:
            raise SystemExit2(f"--facet applies only to --kind inner, not {args.kind}")
        return build_2d(cx) if args.kind == "2d" else build_3d(cx)
    if args.facet is None:
        args.facet = "rgb"
    return build_inner(split_colex(cx, args.facet))


def cmd_code_build(args) -> int:
    from .codes import code_parameters
    from .pauli import export_check_matrix

    cx = _load_colex(args)
    code = _build_code(args, cx)
    try:
        n, k, d = code_parameters(code, want_distance=not args.no_distance)
    except ValueError:
        n, k, d = code_parameters(code, want_distance=False)
    print(f"kind {code.kind}")
    print(f"n={n} k={k}" + (f" d={d}" if d is not None else ""))
    text = export_check_matrix({"S": code.S, "G": code.G, "L": code.L})
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(f"# colexjump {VERSION} colex={cx.content_hash()}\n")
            fh.write(text)
        print(f"check matrices written to {args.output}")
    else:
        print(text)
    return 0


# -- jump ----------------------------------------------------------------------------


def cmd_jump(args) -> int:
    from .jump import make_context
    from .montecarlo import jump_trials, run_collapse_trials
    from .noise import NoiseSpec

    spec = NoiseSpec(args.p, args.q, args.seed)
    cx = _load_colex(args)
    ctx = make_context(cx, args.facet)
    print(f"seed {args.seed}")
    if args.action == "collapse":
        # the Monte Carlo trial, on the tableau engine: a collapse of the state
        stats = run_collapse_trials(ctx, spec, args.trials, engine="tableau")
        failures = stats.total_failures
    else:
        failures = sum(value != 1 for value in jump_trials(ctx, spec, args.action, args.trials))
    print(f"{args.action}: {args.trials} trials, {failures} logical failures")
    return 0


# -- simulate ------------------------------------------------------------------------


def cmd_simulate(args) -> int:
    """`simulate collapse` and `simulate singleshot`: trials to CSV and JSON."""
    from .montecarlo import stats_csv_rows, write_csv
    from .noise import NoiseSpec

    cx = _load_colex(args)
    # every check runs before the output directory is made or the seed printed
    spec = NoiseSpec(args.p, args.q, args.seed)
    runner = _span_runner(args, cx)
    out_dir = _out_dir(args)
    os.makedirs(out_dir, exist_ok=True)
    print(f"seed {args.seed}")
    trace_fh = None
    if args.action == "collapse" and args.trace:
        trace_fh = open(os.path.join(out_dir, args.label + ".trace.jsonl"), "w")
    try:
        stats = _run_partitioned(args, cx, runner, trace_fh)
    finally:
        if trace_fh:
            trace_fh.close()

    csv_path = os.path.join(out_dir, args.label + ".csv")
    write_csv(csv_path, stats_csv_rows([(spec, stats)]))
    json_path = _write_json(args, cx, stats.as_dict(), args.seed)
    print(
        f"{args.action}: {stats.trials} trials, {stats.total_failures} failures "
        f"-> {csv_path}, {json_path}"
    )
    return 0


def cmd_measure_k(args) -> int:
    from .colex import color_set
    from .jump import make_context
    from .noise import measure_K

    cx = _load_colex(args)
    ctx = make_context(cx, args.facet)
    pairs = list(ctx.pairs)
    if args.pair is not None:
        try:
            pairs = [color_set(args.pair)]
        except ValueError:  # a letter that names no color
            pairs = [None]
        if pairs[0] not in ctx.pairs:
            raise SystemExit2(
                f"--pair {args.pair!r} is not a color pair of the facet: "
                f"use one of {', '.join(ctx.pairs)}"
            )
    values = {pair: measure_K(ctx, pair, args.cap) for pair in pairs}
    path = _write_json(args, cx, {"K_hat": values, "cap": args.cap})
    print(f"K_hat {values} -> {path}")
    return 0


def cmd_exhaustive_weight1(args) -> int:
    from .jump import make_context
    from .montecarlo import exhaustive_weight1_collapse

    cx = _load_colex(args)
    failures = exhaustive_weight1_collapse(make_context(cx, args.facet))
    path = _write_json(args, cx, {
        "mode": "exhaustive-weight1",
        "faults_checked": "all single qubit Paulis and measurement flips",
        "failures": [list(map(str, f)) for f in failures],
    })
    print(f"exhaustive weight-1: {len(failures)} failures -> {path}")
    return 0 if not failures else 1


def _span_runner(args, cx):
    """The `simulate collapse` or `singleshot` trials of `args` on the
    lattice `cx`, as (first trial, count, trace_fh) -> TrialStats on one
    context or code, built here once."""
    from .jump import make_context
    from .montecarlo import run_collapse_trials, run_single_shot_trials
    from .noise import NoiseSpec

    spec = NoiseSpec(args.p, args.q, args.seed)
    if args.action == "collapse":
        ctx = make_context(cx, args.facet)
        return lambda first, count, trace_fh: run_collapse_trials(
            ctx, spec, count, trial_offset=first, trace_fh=trace_fh
        )
    code = _build_code(args, cx)
    return lambda first, count, trace_fh: run_single_shot_trials(
        code, spec, count, trial_offset=first
    )


def _run_partitioned(args, cx, runner, trace_fh=None):
    """Split trials across workers; merging is associative and trial-keyed.

    The main process runs the first span on `runner` (a `_span_runner`),
    writing its trace to `trace_fh`. Each further worker is a process that
    builds its own runner on `cx` and returns its span's statistics and
    trace text, written after it in trial order, so the trace is the same
    bytes as a one-worker run's.
    """
    trials = args.trials
    workers = max(1, min(args.workers, trials))
    if workers == 1:
        return runner(0, trials, trace_fh)
    from concurrent.futures import ProcessPoolExecutor

    chunk = (trials + workers - 1) // workers
    traced = trace_fh is not None
    spans = [(args, cx, lo, min(chunk, trials - lo), traced) for lo in range(chunk, trials, chunk)]
    with ProcessPoolExecutor(max_workers=len(spans)) as pool:
        parts = pool.map(_worker_entry, spans)
        stats = runner(0, chunk, trace_fh)
        for part, text in parts:
            stats = stats.merge(part)
            if traced:
                trace_fh.write(text)
    return stats


def _worker_entry(packed):
    """Run one span of trials; returns (stats, trace text of the span)."""
    args, cx, lo, n, traced = packed
    trace = io.StringIO() if traced else None
    stats = _span_runner(args, cx)(lo, n, trace)
    return stats, trace.getvalue() if trace is not None else ""


# -- schedule ------------------------------------------------------------------------


def cmd_schedule(args) -> int:
    from .scheduler import schedule, verify

    if args.action == "make":
        seq = _read_sequence(args.sequence)
        sched = schedule(seq, range(args.stack))
        lines = [
            json.dumps(
                {
                    "meta": {
                        "tool": "colexjump",
                        "version": VERSION,
                        "stack": args.stack,
                        "initial_order": sched.initial_order,
                        "initial_labels": sched.initial_labels,
                        "sequence": sched.access_sequence,
                    }
                },
                sort_keys=True,
            )
        ]
        for s, (r1, r2) in enumerate(sched.steps, start=1):
            for rnd, swaps in ((1, r1), (2, r2)):
                lines.append(
                    json.dumps(
                        {"step": s, "round": rnd, "swaps": [list(p) for p in swaps]},
                        sort_keys=True,
                    )
                )
        text = "\n".join(lines) + "\n"
        if args.output:
            with open(args.output, "w") as fh:
                fh.write(text)
            print(f"schedule written to {args.output} ({sched.total_steps} steps)")
        else:
            sys.stdout.write(text)
        return 0
    sched = _read_schedule(args.schedule)
    result = verify(sched)
    if result:
        print(f"OK: {sched.total_steps} steps verified")
        return 0
    where = "" if result.step is None else f" at step {result.step}"
    print(f"VIOLATION{where}: {result.violation}")
    return 1


def _read_sequence(path) -> list[int]:
    """Parse a `--sequence` file of whitespace-separated qubit ids; a token
    that is not an integer is a usage error."""
    from .colex import read_text

    seq = []
    for i, tok in enumerate(read_text(path).split(), start=1):
        try:
            seq.append(int(tok))
        except ValueError:
            raise SystemExit2(f"{path}: token {i} ({tok!r}) is not an integer") from None
    return seq


def _read_schedule(path):
    """Parse a `schedule make` file: a meta line, then one record for each
    round (1 and 2) of each step 1..T, in any order. A file of any other
    shape is a usage error."""
    from .colex import read_text
    from .scheduler import SwapSchedule

    lines = []  # (line number in the file, record) of every non-blank line
    for lineno, text in enumerate(read_text(path).split("\n"), start=1):
        if text.strip():
            try:
                lines.append((lineno, json.loads(text)))
            except json.JSONDecodeError as exc:
                raise SystemExit2(f"{path} line {lineno}: not JSON: {exc}") from None
    meta = lines[0][1].get("meta") if lines and isinstance(lines[0][1], dict) else None
    if not isinstance(meta, dict):
        raise SystemExit2(f"{path}: the first line must be the meta record")
    fields = {"stack": int, "sequence": list, "initial_order": list, "initial_labels": list}
    for key, kind in fields.items():
        if not isinstance(meta.get(key), kind):
            raise SystemExit2(f"{path}: meta needs {key!r} as {kind.__name__}")
    rounds: dict[tuple[int, int], tuple] = {}
    for lineno, rec in lines[1:]:
        where = f"{path} line {lineno}"
        if not isinstance(rec, dict) or not {"step", "round", "swaps"} <= rec.keys():
            raise SystemExit2(f"{where}: a record needs step, round and swaps")
        key = (rec["step"], rec["round"])
        if not isinstance(key[0], int):
            raise SystemExit2(f"{where}: step {key[0]!r} is not an int")
        if rec["round"] not in (1, 2):
            raise SystemExit2(f"{where}: round {rec['round']!r} is not 1 or 2")
        if key in rounds:
            raise SystemExit2(f"{where}: second record for step {key[0]} round {key[1]}")
        swaps = rec["swaps"]
        if not isinstance(swaps, list) or not all(
            isinstance(p, list) and len(p) == 2 for p in swaps
        ):
            raise SystemExit2(f"{where}: swaps must be a list of position pairs")
        rounds[key] = tuple(tuple(p) for p in swaps)
    total = len(rounds) // 2
    if rounds.keys() != {(s, r) for s in range(1, total + 1) for r in (1, 2)}:
        raise SystemExit2(
            f"{path}: steps must run 1..{total}, each with one round 1 and one round 2"
        )
    return SwapSchedule(
        stack_size=meta["stack"],
        access_sequence=meta["sequence"],
        initial_order=meta["initial_order"],
        initial_labels=meta["initial_labels"],
        steps=[(rounds[s, 1], rounds[s, 2]) for s in range(1, total + 1)],
    )


# -- parser --------------------------------------------------------------------------


def _at_least(low: int, below: int | None = None):
    """argparse type: an int no smaller than `low`, and smaller than `below`
    if given (else a usage error)."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        if below is not None and value >= below:
            raise argparse.ArgumentTypeError(f"must be below {below}, got {value}")
        return value

    return parse


# trial generators are keyed by (seed, trial) as two uint64 words, so trial
# indices 0..trials - 1 lie in [0, 2^64)
_SEED = _at_least(0, below=2**64)
_TRIALS = _at_least(0, below=2**64 + 1)
# the largest `schedule make --stack`: the scheduler holds a label and a
# position per stack qubit, so the bound is checked before any is made
STACK_MAX = 2**16
_STACK = _at_least(1, below=STACK_MAX + 1)
# the most `simulate --workers`: a run starts one process per worker at
# once, so the bound is checked before any is started
WORKERS_MAX = 64
_WORKERS = _at_least(1, below=WORKERS_MAX + 1)


# the longest file name (in bytes) that Linux and macOS file systems take,
# and the longest suffix a run appends to its `--label`
_NAME_MAX = 255
_LONGEST_SUFFIX = ".trace.jsonl"


def _stem(text: str) -> str:
    """argparse type: a file name stem, not empty, with no path separator,
    and short enough that every output file name fits the file system."""
    if not text or os.sep in text or (os.altsep and os.altsep in text):
        raise argparse.ArgumentTypeError(f"must be a file name stem, got {text!r}")
    if len(os.fsencode(text + _LONGEST_SUFFIX)) > _NAME_MAX:
        raise argparse.ArgumentTypeError(
            f"must be at most {_NAME_MAX - len(_LONGEST_SUFFIX)} bytes long, "
            f"got {len(os.fsencode(text))}"
        )
    return text


def build_parser() -> argparse.ArgumentParser:
    """`colexjump <command> <action> [flags]`: one parser per action, holding
    exactly the flags that action reads; no flag may be abbreviated."""
    return _parsers()[0]


def _parsers():
    """The `build_parser` parser, and the parser of each (command, action)."""
    actions_of = {}
    parser = argparse.ArgumentParser(
        prog="colexjump",
        description="Color-code lattices, dimensional jumps, and stack scheduling",
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version", version=f"colexjump {VERSION}")
    commands = parser.add_subparsers(dest="command", required=True)

    def command(name, summary, actions):
        sub = commands.add_parser(name, help=summary, allow_abbrev=False)
        sub = sub.add_subparsers(dest="action", required=True)
        for action, (func, *flags) in actions.items():
            p = actions_of[name, action] = sub.add_parser(action, allow_abbrev=False)
            p.set_defaults(func=func)
            for add in flags:
                add(p)

    def flag(*names, **kwargs):
        return lambda p: p.add_argument(*names, **kwargs)

    def source(p):
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--builtin", help="tri7, tetra15, or tri-hex-d{3,5,7}")
        group.add_argument("--colex", help="path to a colex JSON file")

    def noise(trials):
        def add(p):
            p.add_argument("--p", type=float, default=0.0, help="qubit error rate")
            p.add_argument("--q", type=float, default=0.0, help="measurement flip rate")
            p.add_argument("--trials", type=_TRIALS, default=trials)
            p.add_argument("--seed", type=_SEED, default=0)
        return add

    def outputs(p):
        p.add_argument("--label", type=_stem, default="results", help="output file stem")
        p.add_argument("--out-dir", help="output directory (or COLEXJUMP_OUTDIR)")

    facet = flag("--facet", default="rgb")
    inner_facet = flag("--facet", help="facet of --kind inner (default rgb)")
    workers = flag("--workers", type=_WORKERS, default=1,
                   help=f"processes to split the trials over, 1 to {WORKERS_MAX}")
    command("colex", "validate / info / hash a lattice", {
        "validate": (cmd_colex, source),
        "hash": (cmd_colex, source),
        "info": (cmd_colex, source, flag("--save", help="write the canonical form here")),
    })
    command("code", "build code groups and parameters", {
        "build": (cmd_code_build, source,
                  flag("--kind", choices=["2d", "3d", "inner"], required=True), inner_facet,
                  flag("--no-distance", action="store_true"),
                  flag("--output", help="write check matrices to this file")),
    })
    jump = (cmd_jump, source, facet, noise(trials=1))
    command("jump", "run collapse / blowup / roundtrip trials",
            {"collapse": jump, "blowup": jump, "roundtrip": jump})
    command("simulate", "Monte Carlo harnesses with CSV/JSON output", {
        "collapse": (cmd_simulate, source, facet, noise(trials=1000), outputs, workers,
                     flag("--trace", action="store_true", help="write per-trial trace")),
        "singleshot": (cmd_simulate, source,
                       flag("--kind", choices=["3d", "inner"], default="3d"), inner_facet,
                       noise(trials=1000), outputs, workers),
        "measure-k": (cmd_measure_k, source, facet,
                      flag("--pair", help="color pair (default: all)"),
                      flag("--cap", type=_at_least(1), default=4, help="flux length cap"),
                      outputs),
        "exhaustive-weight1": (cmd_exhaustive_weight1, source, facet, outputs),
    })
    command("schedule", "make or verify stack swap schedules", {
        "make": (cmd_schedule,
                 flag("--stack", type=_STACK, required=True,
                      help=f"stack size, 1 to {STACK_MAX}"),
                 flag("--sequence", required=True, help="file of whitespace-separated qubit ids"),
                 flag("--output", help="write the schedule here")),
        "verify": (cmd_schedule, flag("--schedule", required=True, help="schedule file")),
    })
    return parser, actions_of


def main(argv=None) -> int:
    parser, actions_of = _parsers()
    args, extra = parser.parse_known_args(argv)
    # usage errors name the action's usage line, not the top-level one
    action_parser = actions_of[args.command, args.action]
    if extra:
        action_parser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        return args.func(args)
    except SystemExit2 as exc:
        action_parser.error(str(exc))  # exits 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
