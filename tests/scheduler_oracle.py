"""The schedule verifier that the local per-step checks replaced, kept as
the oracle of `test_scheduler.py`.

It rebuilt a suffix-minimum list twice per step for the ordering
invariants, scanned the whole stack for the top label's minimality and for
a collision of the new label, and took the initial stack as given. The
functions below are that code unchanged.
"""

from __future__ import annotations

from itertools import accumulate

from colexjump.scheduler import SwapSchedule, VerifyResult, _next_use_of_top, _one_round


def _sorted_tail_invariant(labels: list[int], even: bool) -> bool:
    """even: labels[2n] < labels[2n+k] for all n>=1, k>0 (1-based);
    odd: labels[2n+1] < labels[2n+1+k] for n>=0."""
    # positions are 1-based; lists 0-based
    suffix_min = list(accumulate(reversed(labels), min))[::-1]
    start = 1 if even else 0  # index of first even (odd) position
    return all(labels[i] < suffix_min[i + 1] for i in range(start, len(labels) - 1, 2))


def verify(sched: SwapSchedule, access_sequence=None) -> VerifyResult:
    """Replay a schedule from scratch, checking every invariant.

    Checks per step: the required qubit sits on top with its label equal to
    the step number and minimal over the stack; recorded swaps are disjoint
    within each round; the even-position ordering holds after round 2 and
    the odd-position ordering after round 1; labels stay distinct.
    """
    if access_sequence is None:
        access_sequence = sched.access_sequence
    if list(access_sequence) != list(sched.access_sequence):
        return VerifyResult(False, "access sequence mismatch", None)
    labels = list(sched.initial_labels)
    qubits = list(sched.initial_order)
    total = len(access_sequence)
    nxt = _next_use_of_top(access_sequence, qubits)
    if len(sched.steps) != total:
        return VerifyResult(False, "schedule length mismatch", None)
    if len(set(labels)) != len(labels):
        return VerifyResult(False, "duplicate labels", 1)
    for s in range(1, total + 1):
        if qubits[0] != access_sequence[s - 1]:
            return VerifyResult(
                False, f"qubit {access_sequence[s-1]} not at position 1", s
            )
        if labels[0] != s:
            return VerifyResult(False, f"top label {labels[0]} != step {s}", s)
        if min(labels) != labels[0]:
            return VerifyResult(False, "top label is not minimal", s)
        new_label = nxt[s - 1]
        if new_label in labels[1:]:
            return VerifyResult(False, "duplicate labels", s)
        labels[0] = new_label
        # replay the canonical rounds; the recorded swaps must match exactly,
        # which subsumes the shape, disjointness, and missed-swap conditions
        # (each canonical round swaps exactly the label-decreasing disjoint
        # pairs of its parity)
        recorded = sched.steps[s - 1]
        if _one_round(labels, qubits, 0) != tuple(recorded[0]):
            return VerifyResult(False, "round 1 swaps diverge from the rule", s)
        if not _sorted_tail_invariant(labels, even=False):
            return VerifyResult(False, "odd-position ordering broken", s)
        if _one_round(labels, qubits, 1) != tuple(recorded[1]):
            return VerifyResult(False, "round 2 swaps diverge from the rule", s)
        if not _sorted_tail_invariant(labels, even=True):
            return VerifyResult(False, "even-position ordering broken", s)
    return VerifyResult(True)
