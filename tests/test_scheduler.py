"""Stack scheduling: the two-round swap procedure and its verifier."""

from dataclasses import replace

import pytest
import scheduler_oracle as oracle

from colexjump.noise import trial_rng
from colexjump.scheduler import (
    ScheduleError,
    StackState,
    SwapSchedule,
    VerifyResult,
    _next_use_of_top,
    _two_rounds,
    advance,
    init_labels,
    schedule,
    verify,
)


def test_worked_trace():
    """Labels [1,2,3,4], step 1, next use 5: update to [5,2,3,4]; round one
    swaps (1,2) and leaves (3,4); round two swaps (2,3); result [2,3,5,4]."""
    state = StackState.initial([0, 1, 2, 3], [1, 2, 3, 4])
    new, (round1, round2) = advance(state, 5)
    assert new.labels.tolist() == [2, 3, 5, 4]
    assert round1 == ((1, 2),)
    assert round2 == ((2, 3),)
    assert new.labels[0] == state.step + 1


def test_init_orders_by_first_use():
    state = init_labels([4, 2, 7, 2, 4])
    assert state.qubit_ids.tolist() == [4, 2, 7]
    assert state.labels.tolist() == [1, 2, 3]
    assert state.labels[0] == 1


def test_init_single_qubit():
    state = init_labels([5])
    assert state.labels.tolist() == [1]


def test_init_requires_nonempty():
    with pytest.raises(ScheduleError):
        init_labels([])


def test_init_respects_forced_top():
    state = init_labels([1, 0], [0, 1])
    assert state.qubit_ids[0] == 1  # first-used qubit on top


def test_advance_label_rules():
    state = StackState.initial([0, 1], [1, 2])
    with pytest.raises(ScheduleError):
        advance(state, 1)  # must lie in the future
    with pytest.raises(ScheduleError):
        advance(state, 2)  # collides with another label


def test_sinking_element():
    """With the top relabeled beyond everything, it sinks two positions per
    step while the rest stay sorted."""
    labels = [1, 2, 3, 4, 5, 6, 7, 8]
    state = StackState.initial(list(range(8)), labels)
    state, _ = advance(state, 100)
    assert state.labels.tolist() == [2, 3, 100, 4, 5, 6, 7, 8][: len(labels)]
    state2, _ = advance(state, 101)
    assert state2.labels[0] == 3
    assert state2.labels.tolist().index(100) == 4  # sank two more positions


def test_single_position_stack_never_swaps():
    sched = schedule([0, 0, 0, 0], [0])
    assert all(r1 == () and r2 == () for r1, r2 in sched.steps)
    assert verify(sched)


def test_round_robin_schedule_verifies():
    seq = [i % 5 for i in range(60)]
    sched = schedule(seq, range(8))
    assert verify(sched)


def test_adversarial_reverse_reuse():
    seq = []
    n = 16
    for rounds in range(12):
        seq.extend(range(n))
        seq.extend(reversed(range(n)))
    sched = schedule(seq, range(n))
    assert verify(sched)


def test_randomized_verification_batch():
    for trial in range(400):
        rng = trial_rng(31, trial)
        n = int(rng.integers(1, 64))
        length = int(rng.integers(1, 200))
        seq = rng.integers(0, n, size=length).tolist()
        sched = schedule(seq, range(n))
        result = verify(sched)
        assert result, f"trial {trial}: {result.violation} at {result.step}"


def test_labels_stay_permutation():
    rng = trial_rng(32, 0)
    n = 12
    seq = rng.integers(0, n, size=64).tolist()
    state = init_labels(seq, range(n))
    from colexjump.scheduler import _next_use_of_top

    nxt = _next_use_of_top(seq, range(n))
    qubits = sorted(state.qubit_ids.tolist())
    for s in range(1, len(seq) + 1):
        assert len(set(state.labels.tolist())) == n
        state, rounds = advance(state, nxt[s - 1])
        for swaps in rounds:
            flat = [p for pair in swaps for p in pair]
            assert len(flat) == len(set(flat))  # disjoint within a round
        assert sorted(state.qubit_ids.tolist()) == qubits


def test_tampered_schedule_detected():
    sched = schedule([0, 1, 2, 0, 3, 1], range(5))
    for si, (r1, r2) in enumerate(sched.steps):
        if r1:
            sched.steps[si] = (r1[1:], r2)
            break
    result = verify(sched)
    assert not result
    assert result.step is not None


def test_verify_rejects_wrong_sequence():
    sched = schedule([0, 1, 0], range(2))
    assert not verify(sched, [1, 0, 1])


def test_internal_slots_validated():
    with pytest.raises(ScheduleError):
        schedule([0, 1], range(2), internal_slots=1)


def test_schedule_depth_exactly_two_rounds():
    sched = schedule([i % 7 for i in range(50)], range(10))
    assert all(len(step) == 2 for step in sched.steps)


def _replayed(seq, order, labels, stack_size=None) -> SwapSchedule:
    """Canonical rounds recorded from a given initial stack, as `schedule`
    records them from the stack it builds itself."""
    lab, qub = list(labels), list(order)
    nxt = _next_use_of_top(seq, qub)
    steps = []
    for s in range(len(seq)):
        lab[0] = nxt[s]
        steps.append(_two_rounds(lab, qub))
    size = len(order) if stack_size is None else stack_size
    return SwapSchedule(size, list(seq), list(order), list(labels), steps)


@pytest.mark.parametrize(
    "sched, violation",
    [
        (
            _replayed([0, 1, 0, 2], [0, 1, 2, 1], [1, 2, 4, 9]),
            "duplicate qubits in the initial order",
        ),
        (
            _replayed([0, 1, 0, 2], [0, 1, 2], [1, 2, 4], stack_size=99),
            "stack size 99 != 3 qubits in the initial order",
        ),
        (
            replace(schedule([0, 1, 0, 2], range(3)), initial_order=[0, 1, 5]),
            "qubit 2 of the sequence is not on the stack",
        ),
        (
            replace(schedule([0, 1, 0, 2], range(4)), initial_labels=[1, 2, 4]),
            "3 initial labels for 4 qubits",
        ),
        (
            replace(schedule([0, 1, 0, 2], range(3)), initial_labels=[1.0, 2.0, 4.0]),
            "labels must be ints",
        ),
        (
            replace(schedule([0, 1, 0, 2], range(3)), initial_labels=["1", "2", "4"]),
            "labels must be ints",
        ),
        (
            replace(schedule([0, 1, 0, 2], range(3)), initial_order=[0, 1, [2]]),
            "qubits must be ints",
        ),
    ],
    ids=["repeated-qubit", "stack-size", "missing-qubit", "label-count",
         "float-labels", "str-labels", "list-qubit"],
)
def test_malformed_stack_is_a_violation(sched, violation):
    assert verify(sched) == VerifyResult(False, violation, None)


def _verdict(result):
    return result.ok, result.violation, result.step


def _criterion_10_sequence(rng, trial):
    if trial % 100 == 0:
        n, length = 128, 1000
    else:
        n = int(2 ** rng.uniform(0, 7.01))
        length = int(10 ** rng.uniform(0, 2.2))
    return n, rng.integers(0, n, size=length).tolist()


def _corruptions(sched, rng):
    """(kind, corrupted copy) pairs; each copy keeps a well-formed stack."""
    n, steps = len(sched.initial_order), sched.steps
    pick = lambda k: int(rng.integers(k))  # noqa: E731
    busy = [(s, r) for s, step in enumerate(steps) for r in (0, 1) if step[r]]

    def step_edit(s, r, swaps):
        new = list(steps)
        rounds = list(new[s])
        rounds[r] = tuple(swaps)
        new[s] = tuple(rounds)
        return replace(sched, steps=new)

    if busy:
        s, r = busy[pick(len(busy))]
        swaps = list(steps[s][r])
        i = pick(len(swaps))
        yield "dropped swap", step_edit(s, r, swaps[:i] + swaps[i + 1:])
        a, b = swaps[i]
        wrong = swaps[:i] + [(a + 1, b + 1)] + swaps[i + 1:]
        yield "wrong parity", step_edit(s, r, wrong)
        if len(swaps) > 1:
            yield "reversed round", step_edit(s, r, swaps[::-1])
        yield "round copied to the other", step_edit(s, 1 - r, steps[s][r])
    if steps:
        s, r = pick(len(steps)), pick(2)
        free = [p for p in range(1 + r, n, 2) if (p, p + 1) not in steps[s][r]]
        if free:
            p = free[pick(len(free))]
            added = sorted(steps[s][r] + ((p, p + 1),))
            yield "added swap", step_edit(s, r, added)
    labels, order = sched.initial_labels, sched.initial_order
    if n > 1:
        i, j = sorted(rng.choice(n, size=2, replace=False).tolist())
        swapped = list(labels)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        yield "swapped labels", replace(sched, initial_labels=swapped)
        yield "swapped labels, re-recorded", _replayed(
            sched.access_sequence, order, swapped
        )
        swapped = list(order)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        yield "swapped order", replace(sched, initial_order=swapped)
    i = pick(n)
    for kind, value in (
        ("shifted label", labels[i] + int(rng.integers(-3, 4))),
        ("duplicated label", labels[(i + 1 + pick(n - 1)) % n] if n > 1 else None),
        ("label at or below the step", int(rng.integers(-2, 2))),
        ("label at a later use", int(rng.integers(1, len(steps) + 2))),
    ):
        if value is None:
            continue
        shifted = list(labels)
        shifted[i] = value
        yield kind, replace(sched, initial_labels=shifted)
        if len(set(shifted)) == n:
            yield kind + ", re-recorded", _replayed(sched.access_sequence, order, shifted)
    if steps:
        yield "truncated", replace(sched, steps=steps[: pick(len(steps))])


def test_verify_matches_oracle_on_criterion_10_schedules():
    """The local checks give the full-scan verifier's verdict, violation and
    step on 300 criterion-10 schedules and on corrupted copies of each."""
    kinds, violations = {}, set()
    for trial in range(300):
        rng = trial_rng(1011, trial)
        n, seq = _criterion_10_sequence(rng, trial)
        sched = schedule(seq, range(n))
        assert _verdict(verify(sched)) == (True, None, None)
        assert _verdict(oracle.verify(sched)) == (True, None, None)
        for kind, bad in _corruptions(sched, rng):
            want = _verdict(oracle.verify(bad))
            assert _verdict(verify(bad)) == want, (trial, kind)
            rejected = kinds.setdefault(kind, [0, 0])
            rejected[want[0]] += 1
            violations.add(want[1])
    assert all(rejected for rejected, _ in kinds.values()), kinds
    # "even-position ordering broken" cannot show: once round 2 matches the
    # rule, the even-position ordering follows from the odd-position one
    assert {
        "round 1 swaps diverge from the rule",
        "round 2 swaps diverge from the rule",
        "odd-position ordering broken",
        "top label is not minimal",
        "duplicate labels",
        "schedule length mismatch",
    } <= violations
    assert any(v.startswith("top label") and "!=" in v for v in violations if v)
    assert any(v.endswith("not at position 1") for v in violations if v)
