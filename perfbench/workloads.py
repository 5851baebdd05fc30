"""The four benchmark workloads: parameters, seeded op inputs, set-up, ops.

An *op* is the unit one `--workers` process runs: one chunk of consecutive
Monte Carlo trials, or one `schedule` + `verify` of one access sequence.

Every op input is drawn from a fixed universe (trial chunks of a fixed noise
stream, access sequences generated from fixed keys), and `reference.json`
holds the digest of every member's output, recorded with
`record_reference.py`. The `--seed` argument only picks which members a run
uses and in which order, so any seed gives inputs whose correct outputs are
known and the same seed always gives the same inputs.

Nothing here imports `colexjump` at module level: set-up time is measured
from just before that import. Ops call the program through its module
attributes, looked up at call time, so the tracer's wrappers are the ones
called while it is installed.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# Monte Carlo trials are keyed by (noise seed, trial index); every universe
# chunk is a trial range of this one stream.
NOISE_SEED = 808
COLLAPSE_P = 0.05  # criterion 8's high point, for both p and q
SINGLESHOT_P = 0.02  # criterion 11's point, for both p and q
# Op sizes: the largest chunk that still gives about 100 ops in a 20-second
# run on the reference host. Each call of a trial entry point prepares its
# states once (see README, "Op size and per-call set-up"), so a larger chunk
# is closer to what a `--workers` process pays.
COLLAPSE_FAST_CHUNK = 400  # trials per op
COLLAPSE_TABLEAU_CHUNK = 70
SINGLESHOT_CHUNK = 30  # trials per code in one op
# Universe sizes, in ops: more than a run uses.
COLLAPSE_FAST_CHUNKS = 400
COLLAPSE_TABLEAU_CHUNKS = 300
SINGLESHOT_CHUNKS = 300
SINGLESHOT_CODES = ("inner", "tetra")
SCHEDULE_SMALL = 8000
SCHEDULE_BIG = 80
BIG_EVERY = 100  # one sequence in 100 is 128 x 1000, as in criterion 10


def digest(payload) -> str:
    """First 10 hex digits of the SHA-256 of sorted, compact JSON."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:10]


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)["digests"]


def _shuffled(n: int, rng: random.Random) -> list[int]:
    order = list(range(n))
    rng.shuffle(order)
    return order


def schedule_sequence(pool: str, k: int) -> tuple[int, list[int]]:
    """(stack size, access sequence) of universe member `k` of `pool`.

    Criterion 10's distribution: stack size 2^U(0,7.01), length
    10^U(0,2.2); the big pool holds 128-qubit, 1000-step sequences.
    """
    rng = random.Random(f"schedule-{pool}/{k}")
    if pool == "big":
        n, length = 128, 1000
    else:
        n = int(2 ** rng.uniform(0, 7.01))
        length = int(10 ** rng.uniform(0, 2.2))
    return n, [rng.randrange(n) for _ in range(length)]


class CollapseWorkload:
    unit = "trials"

    def __init__(self, name: str, engine: str, chunk: int, chunks: int, why: str):
        self.name = name
        self.engine = engine
        self.chunk = chunk
        self.chunks = chunks
        self.why = why
        self.params = {
            "lattice": "tetra15",
            "facet": "rgb",
            "engine": engine,
            "p": COLLAPSE_P,
            "q": COLLAPSE_P,
            "noise_seed": NOISE_SEED,
            "trials_per_op": chunk,
            "universe_ops": chunks,
        }

    def setup(self) -> None:
        from colexjump import NoiseSpec, make_context, minimal_colex, montecarlo

        self.mc = montecarlo
        self.ctx = make_context(minimal_colex(3), "rgb")
        self.noise = NoiseSpec(COLLAPSE_P, COLLAPSE_P, NOISE_SEED)

    def inputs(self, seed: int):
        """Endless (reference pool, member) stream for this seed."""
        order = _shuffled(self.chunks, random.Random(seed))
        for k in itertools.cycle(order):
            yield (self.name, k)

    def prepare(self, inp):
        return inp[1]

    def run(self, k: int, engine: str | None = None):
        """One op; returns (trials done, output). `engine` overrides the
        workload's engine on the same trials."""
        stats = self.mc.run_collapse_trials(
            self.ctx,
            self.noise,
            self.chunk,
            trial_offset=k * self.chunk,
            engine=engine or self.engine,
        )
        return stats.trials, stats

    @staticmethod
    def digest(stats) -> str:
        return digest(stats.as_dict())


class SingleShotWorkload:
    """One op is a chunk of trials on the inner code, then the same trial
    range on the tetrahedral code, so op times stay unimodal."""

    unit = "trials"
    name = "singleshot"
    why = (
        "tetra15 inner then tetrahedral code, p=q=0.02, 2x30 trials/op: only "
        "single_shot_ec path; 2^15-support table dominates setup_s"
    )
    params = {
        "lattice": "tetra15",
        "facet": "rgb",
        "codes": list(SINGLESHOT_CODES),
        "p": SINGLESHOT_P,
        "q": SINGLESHOT_P,
        "noise_seed": NOISE_SEED,
        "trials_per_op": SINGLESHOT_CHUNK * len(SINGLESHOT_CODES),
        "universe_ops": SINGLESHOT_CHUNKS,
    }

    def setup(self) -> None:
        from colexjump import (
            NoiseSpec,
            build_3d,
            build_inner,
            minimal_colex,
            montecarlo,
            split_colex,
        )

        self.mc = montecarlo
        colex = minimal_colex(3)
        self.codes = {
            "inner": build_inner(split_colex(colex, "rgb")),
            "tetra": build_3d(colex),
        }
        self.noise = NoiseSpec(SINGLESHOT_P, SINGLESHOT_P, NOISE_SEED)

    def inputs(self, seed: int):
        order = _shuffled(SINGLESHOT_CHUNKS, random.Random(seed))
        for k in itertools.cycle(order):
            yield ("singleshot", k)

    def prepare(self, inp):
        return inp[1]

    def run(self, k: int):
        out = {
            code: self.mc.run_single_shot_trials(
                self.codes[code],
                self.noise,
                SINGLESHOT_CHUNK,
                trial_offset=k * SINGLESHOT_CHUNK,
            )
            for code in SINGLESHOT_CODES
        }
        return sum(stats.trials for stats in out.values()), out

    @staticmethod
    def digest(out) -> str:
        return digest({code: stats.as_dict() for code, stats in out.items()})


class ScheduleWorkload:
    unit = "steps"
    name = "schedule"
    why = (
        "schedule + verify, one sequence per op, stack 2^U(0,7), length "
        "10^U(0,2.2), 1 in 100 at 128x1000 (criterion 10): only scheduler path"
    )
    params = {
        "stack_size": "2^U(0,7.01)",
        "length": "10^U(0,2.2)",
        "big_every": BIG_EVERY,
        "big": "128 x 1000",
        "universe_small": SCHEDULE_SMALL,
        "universe_big": SCHEDULE_BIG,
    }

    def setup(self) -> None:
        from colexjump import scheduler

        self.scheduler = scheduler

    def inputs(self, seed: int):
        rng = random.Random(seed)
        small = itertools.cycle(_shuffled(SCHEDULE_SMALL, rng))
        big = itertools.cycle(_shuffled(SCHEDULE_BIG, rng))
        for i in itertools.count():
            if i % BIG_EVERY == BIG_EVERY - 1:
                yield ("schedule-big", next(big))
            else:
                yield ("schedule-small", next(small))

    def prepare(self, inp):
        pool, k = inp
        return schedule_sequence(pool.removeprefix("schedule-"), k)

    def run(self, prepared):
        n, seq = prepared
        sched = self.scheduler.schedule(seq, range(n))
        result = self.scheduler.verify(sched)
        return len(seq), (sched, result)

    @staticmethod
    def digest(output) -> str:
        sched, result = output
        return digest({"steps": sched.steps, "ok": result.ok})


WORKLOADS = {
    w.name: w
    for w in (
        CollapseWorkload(
            "collapse-fast",
            "fast",
            COLLAPSE_FAST_CHUNK,
            COLLAPSE_FAST_CHUNKS,
            "tetra15 rgb, fast engine, p=q=0.05, 400 trials/op: production Monte "
            "Carlo path (criterion 8); bypasses tableau, pauli, boundary, scheduler",
        ),
        CollapseWorkload(
            "collapse-tableau",
            "tableau",
            COLLAPSE_TABLEAU_CHUNK,
            COLLAPSE_TABLEAU_CHUNKS,
            "tableau engine, same noise, 70 trials/op: exact-oracle path of jump "
            "collapse; Tableau, PauliOperator.__mul__, discard_qubits, from_stabilizers, gf2",
        ),
        SingleShotWorkload(),
        ScheduleWorkload(),
    )
}
