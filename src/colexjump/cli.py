"""Command-line entry point: build, inspect, jump, simulate, schedule.

Every stochastic subcommand prints its seed, and every output file embeds
the tool version, the parsed configuration, the seed, and the hash of the
lattice it ran on, so reruns with identical inputs are byte-identical.

Exit codes: 0 success, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys

import numpy as np

VERSION = "0.1.0"


def _out_dir(args) -> str:
    return args.out_dir or os.environ.get("COLEXJUMP_OUTDIR", ".")


def _load_colex(args):
    from . import colex as colex_mod
    from .hexfamily import builtin_colex

    if getattr(args, "builtin", None):
        return builtin_colex(args.builtin)
    if getattr(args, "colex", None):
        return colex_mod.load(args.colex)
    raise SystemExit2("one of --builtin or --colex is required")


class SystemExit2(Exception):
    """Usage-level error discovered after parsing."""


def _emit(path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _meta(args, colex_obj=None, seed=None) -> dict:
    config = {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in ("func",) and v is not None
    }
    meta = {"tool": "colexjump", "version": VERSION, "config": config}
    if colex_obj is not None:
        meta["colex_hash"] = colex_obj.content_hash()
    if seed is not None:
        meta["seed"] = seed
    return meta


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
    if args.action == "info":
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
    raise SystemExit2(f"unknown colex action {args.action}")


# -- code build ----------------------------------------------------------------------


def cmd_code_build(args) -> int:
    from .codes import build_2d, build_3d, build_inner, code_parameters
    from .pauli import export_check_matrix
    from .split import split_colex

    cx = _load_colex(args)
    if args.kind == "2d":
        code = build_2d(cx)
    elif args.kind == "3d":
        code = build_3d(cx)
    elif args.kind == "inner":
        code = build_inner(split_colex(cx, args.facet))
    else:
        raise SystemExit2(f"unknown code kind {args.kind}")
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
    from .montecarlo import run_collapse_trials
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
        failures = sum(
            _jump_trial(ctx, spec, args.action, t) != 1 for t in range(args.trials)
        )
    print(f"{args.action}: {args.trials} trials, {failures} logical failures")
    return 0


def _jump_trial(ctx, spec, action, t):
    """One blow-up or round-trip trial; returns the tracked logical's value."""
    from .jump import blow_up, collapse, encoded_state, ideal_decode_2d, logical_operator
    from .noise import trial_rng

    rng = trial_rng(spec.seed, t)
    logical = "zero" if t % 2 == 0 else "plus"
    kind = "Z" if logical == "zero" else "X"
    if action == "blowup":
        state2 = encoded_state(ctx.code2, logical)
        _apply_noise(state2, spec.p_qubit, ctx.n2, rng)
        state3, _ = blow_up(ctx, state2, spec.q_meas, rng)
        return state3.expect(_embedded_logical(ctx, kind))
    if action == "roundtrip":
        state2 = encoded_state(ctx.code2, logical)
        state3, _ = blow_up(ctx, state2, spec.q_meas, rng)
        _apply_noise(state3, spec.p_qubit, ctx.n3, rng)
        out = collapse(ctx, state3, spec.q_meas, rng)
        ideal_decode_2d(ctx, out.residual_state)
        return out.residual_state.expect(logical_operator(ctx.code2, kind))
    raise SystemExit2(f"unknown jump action {action}")


def _apply_noise(state, p, n, rng):
    from .noise import sample_qubit_noise, to_mask
    from .pauli import PauliOperator

    ex, ez = sample_qubit_noise(p, n, rng)
    if ex.any() or ez.any():
        state.apply(PauliOperator(n, to_mask(ex), to_mask(ez)))


def _embedded_logical(ctx, kind):
    from .jump import embed_operator, logical_operator

    return embed_operator(
        logical_operator(ctx.code2, kind), ctx.n3, ctx.split.outer_vertices
    )


# -- simulate ------------------------------------------------------------------------


def cmd_simulate(args) -> int:
    from .jump import make_context
    from .montecarlo import (
        exhaustive_weight1_collapse,
        run_collapse_trials,
        run_single_shot_trials,
        stats_csv_rows,
        write_csv,
    )
    from .noise import NoiseSpec, measure_K

    if args.trace and args.action != "collapse":
        raise SystemExit2(
            f"--trace is only written by simulate collapse, not {args.action}"
        )
    if args.exhaustive_weight1 and args.action != "collapse":
        raise SystemExit2(
            f"--exhaustive-weight1 applies to simulate collapse, not {args.action}"
        )
    cx = _load_colex(args)
    out_dir = _out_dir(args)
    os.makedirs(out_dir, exist_ok=True)
    print(f"seed {args.seed}")

    if args.action == "measure-k":
        from .jump import make_context

        ctx = make_context(cx, args.facet)
        values = {}
        pairs = [args.pair] if args.pair else list(ctx.pairs)
        for pair in pairs:
            values[pair] = measure_K(ctx, pair, args.cap)
        payload = _meta(args, cx, args.seed)
        payload["results"] = {"K_hat": values, "cap": args.cap}
        path = os.path.join(out_dir, args.label + ".json")
        _emit(path, payload)
        print(f"K_hat {values} -> {path}")
        return 0

    spec = NoiseSpec(args.p, args.q, args.seed)
    if args.action == "collapse":
        ctx = make_context(cx, args.facet)
        if args.exhaustive_weight1:
            failures = exhaustive_weight1_collapse(ctx)
            payload = _meta(args, cx, args.seed)
            payload["results"] = {
                "mode": "exhaustive-weight1",
                "faults_checked": "all single qubit Paulis and measurement flips",
                "failures": [list(map(str, f)) for f in failures],
            }
            path = os.path.join(out_dir, args.label + ".json")
            _emit(path, payload)
            print(f"exhaustive weight-1: {len(failures)} failures -> {path}")
            return 0 if not failures else 1
        trace_fh = None
        if args.trace:
            trace_fh = open(os.path.join(out_dir, args.label + ".trace.jsonl"), "w")
        try:
            stats = _run_partitioned(
                args,
                lambda lo, n: run_collapse_trials(
                    ctx, spec, n, trial_offset=lo, trace_fh=trace_fh
                ),
                trace_fh,
            )
        finally:
            if trace_fh:
                trace_fh.close()
    elif args.action == "singleshot":
        from .codes import build_3d, build_inner
        from .split import split_colex

        if args.kind == "inner":
            code = build_inner(split_colex(cx, args.facet))
        else:
            code = build_3d(cx)
        stats = _run_partitioned(
            args,
            lambda lo, n: run_single_shot_trials(code, spec, n, trial_offset=lo),
        )
    else:
        raise SystemExit2(f"unknown simulate action {args.action}")

    rows = stats_csv_rows([(spec, stats)])
    csv_path = os.path.join(out_dir, args.label + ".csv")
    write_csv(csv_path, rows)
    payload = _meta(args, cx, args.seed)
    payload["results"] = stats.as_dict()
    json_path = os.path.join(out_dir, args.label + ".json")
    _emit(json_path, payload)
    print(
        f"{args.action}: {stats.trials} trials, {stats.total_failures} failures "
        f"-> {csv_path}, {json_path}"
    )
    return 0


def _run_partitioned(args, runner, trace_fh=None):
    """Split trials across workers; merging is associative and trial-keyed.

    Each worker returns its statistics and the trace text of its span; the
    spans are written to `trace_fh` in trial order, so the trace is the same
    bytes as a one-worker run's.
    """
    trials = args.trials
    workers = max(1, min(args.workers, trials))
    if workers == 1:
        return runner(0, trials)
    from concurrent.futures import ProcessPoolExecutor

    chunk = (trials + workers - 1) // workers
    spans = [
        (lo, min(chunk, trials - lo)) for lo in range(0, trials, chunk)
    ]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        parts = list(pool.map(_worker_entry, [(args, lo, n) for lo, n in spans]))
    stats = parts[0][0]
    for part, _ in parts[1:]:
        stats = stats.merge(part)
    if trace_fh is not None:
        for _, text in parts:
            trace_fh.write(text)
    return stats


def _worker_entry(packed):
    """Run one span of trials; returns (stats, trace text of the span)."""
    args, lo, n = packed
    from .jump import make_context
    from .montecarlo import run_collapse_trials, run_single_shot_trials
    from .noise import NoiseSpec

    cx = _load_colex(args)
    spec = NoiseSpec(args.p, args.q, args.seed)
    if args.action == "collapse":
        ctx = make_context(cx, args.facet)
        trace = io.StringIO() if args.trace else None
        stats = run_collapse_trials(ctx, spec, n, trial_offset=lo, trace_fh=trace)
        return stats, trace.getvalue() if trace is not None else ""
    from .codes import build_3d, build_inner
    from .split import split_colex

    if args.kind == "inner":
        code = build_inner(split_colex(cx, args.facet))
    else:
        code = build_3d(cx)
    return run_single_shot_trials(code, spec, n, trial_offset=lo), ""


# -- schedule ------------------------------------------------------------------------


def cmd_schedule(args) -> int:
    from .scheduler import ScheduleError, SwapSchedule, schedule, verify

    needed = {"make": ("stack", "sequence"), "verify": ("schedule",)}[args.action]
    missing = [f"--{name}" for name in needed if getattr(args, name) is None]
    if missing:
        raise SystemExit2(f"schedule {args.action} needs {' and '.join(missing)}")
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
    if args.action == "verify":
        sched = _read_schedule(args.schedule)
        result = verify(sched)
        if result:
            print(f"OK: {sched.total_steps} steps verified")
            return 0
        print(f"VIOLATION at step {result.step}: {result.violation}")
        return 1
    raise SystemExit2(f"unknown schedule action {args.action}")


def _read_sequence(path) -> list[int]:
    with open(path) as fh:
        return [int(tok) for tok in fh.read().split()]


def _read_schedule(path):
    from .scheduler import SwapSchedule

    with open(path) as fh:
        lines = [json.loads(line) for line in fh if line.strip()]
    meta = lines[0]["meta"]
    sched = SwapSchedule(
        stack_size=meta["stack"],
        access_sequence=meta["sequence"],
        initial_order=meta["initial_order"],
        initial_labels=meta["initial_labels"],
    )
    per_step: dict[int, dict[int, tuple]] = {}
    for rec in lines[1:]:
        per_step.setdefault(rec["step"], {})[rec["round"]] = tuple(
            tuple(p) for p in rec["swaps"]
        )
    for s in sorted(per_step):
        rounds = per_step[s]
        sched.steps.append((rounds.get(1, ()), rounds.get(2, ())))
    return sched


# -- parser --------------------------------------------------------------------------


def _at_least(low: int):
    """argparse type: an int no smaller than `low` (else a usage error)."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="colexjump",
        description="Color-code lattices, dimensional jumps, and stack scheduling",
    )
    parser.add_argument("--version", action="version", version=f"colexjump {VERSION}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_colex_source(p):
        p.add_argument("--builtin", help="tri7, tetra15, or tri-hex-d{3,5,7}")
        p.add_argument("--colex", help="path to a colex JSON file")

    p = sub.add_parser("colex", help="validate / info / hash a lattice")
    p.add_argument("action", choices=["validate", "info", "hash"])
    add_colex_source(p)
    p.add_argument("--save", help="write the canonical form to this path")
    p.set_defaults(func=cmd_colex)

    p = sub.add_parser("code", help="build code groups and parameters")
    p.add_argument("action", choices=["build"])
    add_colex_source(p)
    p.add_argument("--kind", choices=["2d", "3d", "inner"], required=True)
    p.add_argument("--facet", default="rgb")
    p.add_argument("--no-distance", action="store_true")
    p.add_argument("--output", help="write check matrices to this file")
    p.set_defaults(func=cmd_code_build)

    p = sub.add_parser("jump", help="run collapse / blowup / roundtrip trials")
    p.add_argument("action", choices=["collapse", "blowup", "roundtrip"])
    add_colex_source(p)
    p.add_argument("--facet", default="rgb")
    p.add_argument("--p", type=float, default=0.0, help="qubit error rate")
    p.add_argument("--q", type=float, default=0.0, help="measurement flip rate")
    p.add_argument("--trials", type=_at_least(0), default=1)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_jump)

    p = sub.add_parser("simulate", help="Monte Carlo harnesses with CSV/JSON output")
    p.add_argument("action", choices=["collapse", "singleshot", "measure-k"])
    add_colex_source(p)
    p.add_argument("--facet", default="rgb")
    p.add_argument("--kind", choices=["3d", "inner"], default="3d")
    p.add_argument("--p", type=float, default=0.0)
    p.add_argument("--q", type=float, default=0.0)
    p.add_argument("--trials", type=_at_least(0), default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--pair", help="color pair for measure-k (default: all)")
    p.add_argument("--cap", type=int, default=4, help="flux length cap for measure-k")
    p.add_argument("--label", default="results", help="output file stem")
    p.add_argument("--out-dir", help="output directory (or COLEXJUMP_OUTDIR)")
    p.add_argument("--trace", action="store_true", help="write per-trial trace")
    p.add_argument("--workers", type=_at_least(1), default=1)
    p.add_argument("--exhaustive-weight1", action="store_true")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("schedule", help="make or verify stack swap schedules")
    p.add_argument("action", choices=["make", "verify"])
    p.add_argument("--stack", type=int, help="stack size for make")
    p.add_argument("--sequence", help="file of whitespace-separated qubit ids")
    p.add_argument("--schedule", help="schedule file for verify")
    p.add_argument("--output", help="write the schedule here")
    p.set_defaults(func=cmd_schedule)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SystemExit2 as exc:
        parser.error(str(exc))  # exits 2
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
