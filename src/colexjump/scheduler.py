"""Constant-depth stack scheduling by two rounds of parallel swaps.

Positions are 1-indexed with position 1 the top of the stack. Each position
carries an integer label: the step at which its qubit must next be on top.
After the top qubit is used, its label becomes its next use (or a fresh
value beyond the last step if it is never needed again), and two rounds of
parallel compare-swaps run:

  round 1: positions (1,2), (3,4), ...   swap when left label > right label
  round 2: positions (2,3), (4,5), ...   swap when left label > right label

Labels at even positions stay below everything deeper after the two rounds,
which keeps the next needed qubit no deeper than two positions per step, so
it reaches the top exactly on time. The verifier replays a schedule from
scratch and checks that invariant chain at every step, with no Python-level
scan of the stack beyond the replay: labels are distinct, so a canonical
round leaves each of its pairs in order, and "every label at an odd (even)
position is below every deeper label" reduces to the labels at the odd
(even) positions increasing, which `verify` tests on a slice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import lt

import numpy as np


@dataclass
class StackState:
    step: int  # the step about to be performed (1-based)
    labels: np.ndarray  # labels[i]: step at which position i+1's qubit is next needed
    qubit_ids: np.ndarray

    @classmethod
    def initial(cls, order, labels) -> "StackState":
        return cls(1, np.array(labels, dtype=np.int64), np.array(order, dtype=np.int64))

    def copy(self) -> "StackState":
        return StackState(self.step, self.labels.copy(), self.qubit_ids.copy())


@dataclass
class SwapSchedule:
    stack_size: int
    access_sequence: list[int]
    initial_order: list[int]
    initial_labels: list[int]
    steps: list[tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]]] = field(
        default_factory=list
    )

    @property
    def total_steps(self) -> int:
        return len(self.steps)


class ScheduleError(ValueError):
    pass


def _placeholders(stack_qubits, total_steps) -> dict[int, int]:
    """One distinct beyond-the-end label per stack qubit, fixed by sort order."""
    return {q: total_steps + 1 + i for i, q in enumerate(sorted(stack_qubits))}


def _next_use_of_top(access_sequence, stack_qubits):
    """next_use[s-1]: when the qubit used at step s is needed again (the
    step index, or its placeholder once it is never used again)."""
    total = len(access_sequence)
    placeholder = _placeholders(stack_qubits, total)
    out = [0] * total
    upcoming = dict(placeholder)
    for s in range(total, 0, -1):
        q = access_sequence[s - 1]
        out[s - 1] = upcoming[q]
        upcoming[q] = s
    return out


def init_labels(access_sequence, stack_qubits=None) -> StackState:
    """Order qubits by first use; unused qubits go to the bottom.

    Labels start strictly increasing with the top label equal to 1.
    """
    if not access_sequence:
        raise ScheduleError("access sequence must be non-empty")
    seq_qubits = []
    seen = set()
    for q in access_sequence:
        if q not in seen:
            seen.add(q)
            seq_qubits.append(q)
    if stack_qubits is None:
        stack_qubits = sorted(seen)
    missing = seen - set(stack_qubits)
    if missing:
        raise ScheduleError(f"sequence uses qubits not on the stack: {sorted(missing)}")
    total = len(access_sequence)
    first_use = {}
    for s, q in enumerate(access_sequence, start=1):
        first_use.setdefault(q, s)
    never_used = [q for q in stack_qubits if q not in first_use]
    placeholder = _placeholders(stack_qubits, total)
    order = sorted(first_use, key=first_use.get)
    labels = [first_use[q] for q in order]
    for q in sorted(never_used):
        order.append(q)
        labels.append(placeholder[q])
    return StackState.initial(order, labels)


def _one_round(labels: list[int], qubits: list[int], start: int):
    """One in-place parallel compare-swap round; returns the swap list.

    start 0: pairs (1,2),(3,4),...; start 1: pairs (2,3),(4,5),... The
    pairs of a round are disjoint, so swapping them one after another is
    the parallel round.
    """
    swaps = []
    for i in range(start, len(labels) - 1, 2):
        if labels[i] > labels[i + 1]:
            labels[i], labels[i + 1] = labels[i + 1], labels[i]
            qubits[i], qubits[i + 1] = qubits[i + 1], qubits[i]
            swaps.append((i + 1, i + 2))
    return tuple(swaps)


def _two_rounds(labels: list[int], qubits: list[int]):
    """Both in-place rounds; returns (round1 swaps, round2 swaps)."""
    return (_one_round(labels, qubits, 0), _one_round(labels, qubits, 1))


def advance(state: StackState, next_use_of_top: int):
    """Relabel the top, run the two swap rounds, move to the next step.

    Returns (new state, (round1 swaps, round2 swaps)) with swaps as 1-based
    position pairs.
    """
    labels = state.labels.tolist()
    qubits = state.qubit_ids.tolist()
    if next_use_of_top <= state.step:
        raise ScheduleError("next use of the top qubit must lie in the future")
    if next_use_of_top in labels[1:]:
        raise ScheduleError(f"label collision on {next_use_of_top}")
    labels[0] = next_use_of_top
    rounds = _two_rounds(labels, qubits)
    new = StackState(
        state.step + 1, np.array(labels, dtype=np.int64), np.array(qubits, dtype=np.int64)
    )
    return new, rounds


def schedule(access_sequence, stack_qubits=None, internal_slots: int = 2) -> SwapSchedule:
    """Full swap schedule: per step, the pair of parallel swap rounds.

    The processing unit is opaque; it only needs at least two internal
    slots so two-qubit gates are possible.
    """
    if internal_slots < 2:
        raise ScheduleError("at least two internal slots are required")
    state = init_labels(access_sequence, stack_qubits)
    total = len(access_sequence)
    labels = state.labels.tolist()
    qubits = state.qubit_ids.tolist()
    nxt = _next_use_of_top(access_sequence, qubits)
    sched = SwapSchedule(
        stack_size=len(qubits),
        access_sequence=list(access_sequence),
        initial_order=list(qubits),
        initial_labels=list(labels),
    )
    for s in range(1, total + 1):
        if qubits[0] != access_sequence[s - 1]:
            raise ScheduleError(
                f"step {s}: qubit {access_sequence[s-1]} is not on top "
                f"(found {qubits[0]})"
            )
        labels[0] = nxt[s - 1]
        sched.steps.append(_two_rounds(labels, qubits))
    return sched


@dataclass
class VerifyResult:
    ok: bool
    violation: str | None = None
    step: int | None = None

    def __bool__(self) -> bool:
        return self.ok


def _increasing(labels: list[int]) -> bool:
    return all(map(lt, labels, labels[1:]))


def _malformed(sched: SwapSchedule) -> str | None:
    """Why the schedule's initial stack cannot be replayed, or None."""
    order, labels = sched.initial_order, sched.initial_labels
    if not all(type(q) is int for q in (*order, *sched.access_sequence)):
        return "qubits must be ints"
    if not all(type(label) is int for label in labels):
        return "labels must be ints"
    on_stack = set(order)
    if len(on_stack) != len(order):
        return "duplicate qubits in the initial order"
    if sched.stack_size != len(order):
        return f"stack size {sched.stack_size} != {len(order)} qubits in the initial order"
    if len(labels) != len(order):
        return f"{len(labels)} initial labels for {len(order)} qubits"
    for q in sched.access_sequence:
        if q not in on_stack:
            return f"qubit {q} of the sequence is not on the stack"
    return None


def verify(sched: SwapSchedule, access_sequence=None) -> VerifyResult:
    """Replay a schedule from scratch, checking every invariant.

    Checks per step: the required qubit sits on top with its label equal to
    the step number; labels stay distinct; the recorded swaps of each round
    equal the canonical round's (which covers their shape, disjointness and
    any missed swap). At step 1 the top label must also be minimal and the
    odd-position labels (`labels[0::2]`) increasing after round 1. A stack
    that is not a permutation of ints (repeated qubits, a sequence qubit
    missing, sizes that disagree) fails with step None.

    Why that suffices, once the replayed rounds match:

    - Ordering: labels are distinct, so a canonical round leaves each of its
      pairs in order. The even-position labels therefore increase after
      round 2 whenever the odd-position labels did after round 1, and at
      every later step the odd-position labels increase after round 1
      because the pairs (2, 3), ... sorted in round 2 and the even labels
      increased. Only step 1's odd check can fail.
    - Minimality: for s >= 2 it follows from step s - 1's ordering, as
      round 2 never touches position 1.
    - Distinctness: swaps only permute labels, so only the relabelled top
      can collide. A set of the current labels trades the top's old label
      for its new one.
    """
    if access_sequence is None:
        access_sequence = sched.access_sequence
    if list(access_sequence) != list(sched.access_sequence):
        return VerifyResult(False, "access sequence mismatch", None)
    reason = _malformed(sched)
    if reason is not None:
        return VerifyResult(False, reason, None)
    labels = list(sched.initial_labels)
    qubits = list(sched.initial_order)
    total = len(access_sequence)
    nxt = _next_use_of_top(access_sequence, qubits)
    if len(sched.steps) != total:
        return VerifyResult(False, "schedule length mismatch", None)
    live = set(labels)
    if len(live) != len(labels):
        return VerifyResult(False, "duplicate labels", 1)
    for s in range(1, total + 1):
        top = labels[0]
        if qubits[0] != access_sequence[s - 1]:
            return VerifyResult(
                False, f"qubit {access_sequence[s-1]} not at position 1", s
            )
        if top != s:
            return VerifyResult(False, f"top label {top} != step {s}", s)
        if s == 1 and min(labels) != top:
            return VerifyResult(False, "top label is not minimal", s)
        new_label = nxt[s - 1]
        live.discard(top)
        if new_label in live:
            return VerifyResult(False, "duplicate labels", s)
        live.add(new_label)
        labels[0] = new_label
        # replay the canonical rounds; the recorded swaps must match exactly,
        # which subsumes the shape, disjointness, and missed-swap conditions
        # (each canonical round swaps exactly the label-decreasing disjoint
        # pairs of its parity)
        recorded = sched.steps[s - 1]
        if _one_round(labels, qubits, 0) != tuple(recorded[0]):
            return VerifyResult(False, "round 1 swaps diverge from the rule", s)
        if s == 1 and not _increasing(labels[0::2]):
            return VerifyResult(False, "odd-position ordering broken", s)
        if _one_round(labels, qubits, 1) != tuple(recorded[1]):
            return VerifyResult(False, "round 2 swaps diverge from the rule", s)
    return VerifyResult(True)
