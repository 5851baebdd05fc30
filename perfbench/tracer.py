"""Outside-in tracer: wraps colexjump's layer functions from the benchmark.

Each target is replaced at every binding site, not only in its defining
module: `from .noise import trial_rng` leaves a second reference in
`montecarlo`, and a missed one would silently zero a layer. `install`
therefore replaces every module-level and class-level reference it finds
and then asks the garbage collector for any reference it did not replace,
raising if one is left.

A span records (target, op id, start, end, self time, parent span, info).
Self time is the span's duration minus the time its child spans took,
including the tracer's own bookkeeping for them. Spans stay in memory until
the run ends, when they are summarised and written out.
"""

from __future__ import annotations

import gc
import gzip
import sys
import time
import types

# (module, qualified name) of every traced function, grouped by layer.
TARGETS = (
    ("montecarlo", "run_collapse_trials"),
    ("montecarlo", "CollapseEngine.run_trial"),
    ("montecarlo", "run_single_shot_trials"),
    ("noise", "trial_rng"),
    ("noise", "sample_qubit_noise"),
    ("flux", "extract_flux"),
    ("flux", "repair_flux"),
    ("flux", "string_correction"),
    ("jump", "make_context"),
    ("jump", "JumpContext.cached_string_correction"),
    ("jump", "collapse"),
    ("jump", "discard_qubits"),
    ("jump", "ideal_decode_2d"),
    ("jump", "single_shot_ec"),
    ("jump", "min_weight_table"),
    ("boundary", "boundary_structure"),
    ("colex", "validate"),
    ("tableau", "Tableau.expect"),
    ("tableau", "Tableau.measure"),
    ("tableau", "Tableau.apply"),
    ("tableau", "from_stabilizers"),
    ("pauli", "PauliOperator.__mul__"),
    ("gf2", "solve"),
    ("scheduler", "schedule"),
    ("scheduler", "verify"),
)

ALL = ("collapse-fast", "collapse-tableau", "singleshot", "schedule")
TRIALS = ALL[:3]
TABLEAU_PATHS = ("collapse-tableau", "singleshot")


def _m(name, unit, better, moves, exercised, zero_on=()):
    return {
        "name": name,
        "unit": unit,
        "better": better,
        "moves": moves,
        "exercised": exercised,
        "zero_on": zero_on,
    }


# Every per-layer metric, the end-to-end metric it should move, the
# workloads that exercise it, and those on which it must stay zero.
METRICS = (
    _m("montecarlo.run_collapse_trials.self_us_per_trial", "us/trial", "lower",
       "work_per_s, chunk_p90_ms", ("collapse-fast", "collapse-tableau"),
       ("singleshot", "schedule")),
    _m("montecarlo.CollapseEngine.run_trial.self_us_per_trial", "us/trial", "lower",
       "work_per_s, chunk_p90_ms", ("collapse-fast",),
       ("collapse-tableau", "singleshot", "schedule")),
    _m("montecarlo.run_single_shot_trials.self_us_per_trial", "us/trial", "lower",
       "work_per_s, chunk_p90_ms", ("singleshot",),
       ("collapse-fast", "collapse-tableau", "schedule")),
    _m("noise.trial_rng.self_us_per_trial", "us/trial", "lower",
       "work_per_s", TRIALS, ("schedule",)),
    _m("noise.sample_qubit_noise.self_us_per_trial", "us/trial", "lower",
       "work_per_s", TRIALS, ("schedule",)),
    _m("flux.repair_flux.calls_per_trial", "calls/trial", "lower",
       "work_per_s", ("collapse-fast", "collapse-tableau"), ("singleshot", "schedule")),
    _m("flux.repair_flux.self_us_per_trial", "us/trial", "lower",
       "work_per_s", ("collapse-fast", "collapse-tableau"), ("singleshot", "schedule")),
    _m("flux.repair_flux.active_frac", "frac", "lower",
       "work_per_s", ("collapse-fast", "collapse-tableau"), ("singleshot", "schedule")),
    _m("flux.repair_flux.endpoints_max", "count", "lower",
       "work_per_s", ("collapse-fast", "collapse-tableau"), ("singleshot", "schedule")),
    _m("flux.string_correction.calls_per_trial", "calls/trial", "lower",
       "work_per_s", (), ("singleshot", "schedule")),
    _m("jump.JumpContext.cached_string_correction.hit_frac", "frac", "higher",
       "work_per_s", ("collapse-fast", "collapse-tableau"), ("singleshot", "schedule")),
    _m("flux.extract_flux.self_us_per_trial", "us/trial", "lower",
       "work_per_s", ("collapse-tableau",), ("collapse-fast", "singleshot", "schedule")),
    _m("jump.collapse.self_us_per_trial", "us/trial", "lower",
       "work_per_s", ("collapse-tableau",), ("collapse-fast", "singleshot", "schedule")),
    _m("jump.discard_qubits.self_us_per_trial", "us/trial", "lower",
       "work_per_s", ("collapse-tableau",), ("collapse-fast", "singleshot", "schedule")),
    _m("jump.ideal_decode_2d.self_us_per_trial", "us/trial", "lower",
       "work_per_s", ("collapse-tableau",), ("collapse-fast", "singleshot", "schedule")),
    _m("jump.single_shot_ec.self_us_per_trial", "us/trial", "lower",
       "work_per_s", ("singleshot",), ("collapse-fast", "collapse-tableau", "schedule")),
    _m("jump.single_shot_ec.calls_per_trial", "calls/trial", "lower",
       "work_per_s", ("singleshot",), ("collapse-fast", "collapse-tableau", "schedule")),
    _m("jump.min_weight_table.calls", "count", "lower",
       "setup_s", TRIALS, ("schedule",)),
    _m("jump.min_weight_table.setup_s", "s", "lower",
       "setup_s on singleshot", TRIALS, ("schedule",)),
    _m("jump.make_context.setup_s", "s", "lower",
       "setup_s", ("collapse-fast", "collapse-tableau"), ("singleshot", "schedule")),
    _m("boundary.boundary_structure.calls_per_trial", "calls/trial", "lower",
       "work_per_s", ("singleshot",), ("collapse-fast", "collapse-tableau", "schedule")),
    _m("boundary.boundary_structure.self_us_per_trial", "us/trial", "lower",
       "work_per_s", ("singleshot",), ("collapse-fast", "collapse-tableau", "schedule")),
    _m("colex.validate.calls_per_trial", "calls/trial", "lower",
       "work_per_s", ("singleshot",), ("collapse-fast", "collapse-tableau", "schedule")),
    _m("colex.validate.self_us_per_trial", "us/trial", "lower",
       "work_per_s", ("singleshot",), ("collapse-fast", "collapse-tableau", "schedule")),
    _m("tableau.Tableau.expect.calls_per_trial", "calls/trial", "lower",
       "work_per_s", TABLEAU_PATHS, ("collapse-fast", "schedule")),
    _m("tableau.Tableau.expect.self_us_per_trial", "us/trial", "lower",
       "work_per_s", TABLEAU_PATHS, ("collapse-fast", "schedule")),
    _m("tableau.Tableau.measure.calls_per_trial", "calls/trial", "lower",
       "work_per_s", TABLEAU_PATHS, ("collapse-fast", "schedule")),
    _m("tableau.Tableau.measure.self_us_per_trial", "us/trial", "lower",
       "work_per_s", TABLEAU_PATHS, ("collapse-fast", "schedule")),
    _m("tableau.Tableau.apply.self_us_per_trial", "us/trial", "lower",
       "work_per_s", TABLEAU_PATHS, ("collapse-fast", "schedule")),
    # On singleshot these count only the per-call state preparation of
    # run_single_shot_trials (3 calls per op), not per-trial work.
    _m("tableau.from_stabilizers.calls_per_trial", "calls/trial", "lower",
       "work_per_s", ("collapse-tableau",), ("collapse-fast", "schedule")),
    _m("tableau.from_stabilizers.self_us_per_trial", "us/trial", "lower",
       "work_per_s", ("collapse-tableau",), ("collapse-fast", "schedule")),
    _m("pauli.PauliOperator.__mul__.calls_per_trial", "calls/trial", "lower",
       "work_per_s", TABLEAU_PATHS, ("collapse-fast", "schedule")),
    _m("pauli.PauliOperator.__mul__.self_us_per_trial", "us/trial", "lower",
       "work_per_s", TABLEAU_PATHS, ("collapse-fast", "schedule")),
    _m("gf2.solve.calls_per_trial", "calls/trial", "lower",
       "work_per_s", ("collapse-tableau",), ("collapse-fast", "schedule")),
    _m("gf2.solve.self_us_per_trial", "us/trial", "lower",
       "work_per_s", ("collapse-tableau",), ("collapse-fast", "schedule")),
    _m("scheduler.schedule.self_us_per_step", "us/step", "lower",
       "work_per_s", ("schedule",), TRIALS),
    _m("scheduler.verify.self_us_per_step", "us/step", "lower",
       "work_per_s", ("schedule",), TRIALS),
    _m("scheduler.swaps_per_step", "swaps/step", "lower",
       "work_per_s", ("schedule",), TRIALS),
    _m("trace.overhead_frac", "frac", "lower",
       "none: traced over untraced time of the same ops, minus 1", ()),
)


def _repair_info(args, result):
    """(inner endpoints, repair active) of one repair_flux call."""
    return len(args[0].inner_endpoints()), bool(result[0])


def _schedule_info(args, result):
    """Swaps in the schedule, both rounds of every step."""
    return sum(len(r1) + len(r2) for r1, r2 in result.steps)


_INFO = {
    "flux.repair_flux": _repair_info,
    "scheduler.schedule": _schedule_info,
}
_NO_RESULT = object()


class Tracer:
    """Records a span around every call of a target while installed."""

    def __init__(self):
        self.names = [f"{mod}.{qual}" for mod, qual in TARGETS]
        self.spans: list = []
        self.op = -1  # id of the op running now, set by the caller
        self._stack: list = []
        self._restore: list = []  # (owner, attribute, original)
        self._wrappers: list = []

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [
            m
            for name, m in sorted(sys.modules.items())
            if m is not None and (name == "colexjump" or name.startswith("colexjump."))
        ]
        originals = []
        for key, (mod, qual) in enumerate(TARGETS):
            owner = sys.modules[f"colexjump.{mod}"]
            *cls_path, attr = qual.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
            if not isinstance(original, types.FunctionType):
                raise TypeError(f"{self.names[key]} is not a plain function")
            wrapper = self._wrap(key, original)
            if cls_path:
                sites = self._replace(owner, attr, original, wrapper)
            else:
                sites = 0
                for m in modules:  # a plain loop: a closure here would hold `original`
                    sites += self._rebind(m, original, wrapper)
            if not sites:
                raise RuntimeError(f"no binding site found for {self.names[key]}")
            originals.append((self.names[key], original))
        self._check_no_stray_references(originals)

    def _replace(self, owner, attr, original, wrapper) -> int:
        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapper)
        return 1

    def _rebind(self, module, original, wrapper) -> int:
        """Replace `original` among the module's globals; returns the number
        of sites replaced."""
        sites = 0
        for attr, value in list(vars(module).items()):
            if value is original:
                sites += self._replace(module, attr, original, wrapper)
        return sites

    def _check_no_stray_references(self, originals) -> None:
        """Raise if anything but the tracer still refers to an original."""
        mine = {id(entry) for entry in self._restore}
        mine.update(id(entry) for entry in originals)
        for w in self._wrappers:
            mine.add(id(w.__dict__))
            mine.update(id(cell) for cell in w.__closure__)
        for name, original in originals:
            for ref in gc.get_referrers(original):
                if id(ref) in mine or isinstance(ref, types.FrameType):
                    continue
                self.uninstall()
                raise RuntimeError(
                    f"{name} is still referenced by an unwrapped "
                    f"{type(ref).__name__}; its layer would be missed"
                )

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        self._wrappers.clear()

    def _wrap(self, key: int, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns
        info = _INFO.get(self.names[key])

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            frame = [0, index]  # [time taken by child spans, own span index]
            stack.append(frame)
            result = _NO_RESULT
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                extra = None
                if info is not None and result is not _NO_RESULT:
                    extra = info(args, result)
                spans[index] = (
                    key,
                    self.op,
                    start,
                    end,
                    end - start - frame[0],
                    parent[1] if parent is not None else -1,
                    extra,
                )
                if parent is not None:
                    parent[0] += clock() - start

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        self._wrappers.append(wrapper)
        return wrapper

    # -- summaries ---------------------------------------------------------

    def calls(self) -> dict[str, int]:
        out = dict.fromkeys(self.names, 0)
        for span in self.spans:
            out[self.names[span[0]]] += 1
        return out

    def _by_name(self, name: str) -> list:
        key = self.names.index(name)
        return [s for s in self.spans if s[0] == key]

    def total_s(self, name: str) -> float:
        """Wall time inside `name`, children included, in seconds."""
        return sum(s[3] - s[2] for s in self._by_name(name)) / 1e9

    def layer_metrics(self, trials: int, steps: int) -> dict[str, float]:
        """Per-trial and per-step metrics of the spans recorded so far."""
        calls = dict.fromkeys(self.names, 0)
        self_ns = dict.fromkeys(self.names, 0)
        for span in self.spans:
            name = self.names[span[0]]
            calls[name] += 1
            self_ns[name] += span[4]
        per_trial = (lambda v: v / trials) if trials else (lambda v: 0.0)
        per_step = (lambda v: v / steps) if steps else (lambda v: 0.0)
        out = {}
        for m in METRICS:
            target, _, kind = m["name"].rpartition(".")
            if kind == "self_us_per_trial":
                out[m["name"]] = per_trial(self_ns[target] / 1e3)
            elif kind == "calls_per_trial":
                out[m["name"]] = per_trial(calls[target])
            elif kind == "self_us_per_step":
                out[m["name"]] = per_step(self_ns[target] / 1e3)

        repairs = [s[6] for s in self._by_name("flux.repair_flux") if s[6]]
        out["flux.repair_flux.active_frac"] = (
            sum(active for _, active in repairs) / len(repairs) if repairs else 0.0
        )
        out["flux.repair_flux.endpoints_max"] = max(
            (ends for ends, _ in repairs), default=0
        )
        cached = self.names.index("jump.JumpContext.cached_string_correction")
        lookups = {i for i, s in enumerate(self.spans) if s[0] == cached}
        misses = {s[5] for s in self._by_name("flux.string_correction")} & lookups
        out["jump.JumpContext.cached_string_correction.hit_frac"] = (
            1 - len(misses) / len(lookups) if lookups else 0.0
        )
        swaps = sum(s[6] for s in self._by_name("scheduler.schedule") if s[6])
        out["scheduler.swaps_per_step"] = per_step(swaps)
        return out

    def write(self, path) -> None:
        """Spans as gzipped tab-separated text, times in ns from the first
        span; a header line gives the target of each name id."""
        origin = self.spans[0][2] if self.spans else 0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("# names " + " ".join(f"{i}={n}" for i, n in enumerate(self.names)) + "\n")
            fh.write("index\top\tname_id\tstart_ns\tend_ns\tself_ns\tparent\n")
            for i, (key, op, start, end, self_ns, parent, _) in enumerate(self.spans):
                fh.write(f"{i}\t{op}\t{key}\t{start - origin}\t{end - origin}\t{self_ns}\t{parent}\n")
