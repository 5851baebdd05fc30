"""Per-trial oracle of the compiled single-shot batch: the frame step loop.

`frame_trials` runs the single-shot harness one trial at a time, stepping
a Pauli frame through every plaquette measurement of both rounds as Python
ints. It reads nothing from the code's `SingleShotPlan`: its own noiseless
pass over each encoded state (`_reference`), with every random outcome
forced to +1, records each plaquette's reference value or the stabilizer
row its measurement replaces, and the reference values of the final
checks; its own cell masks and cell decoding table serve the final decode.
It draws each trial's numbers from that trial's own generator, in the
harness's order: the X then the Z noise of every qubit when p > 0, then
per plaquette the outcome draw of a random measurement and the flip draw
when q > 0. A random measurement updates the frame by the stabilizer row
it replaces when its outcome draw agrees with the frame's parity on the
plaquette (see `montecarlo._Frame`). Each round is corrected by
`jump.single_shot_decode` on the trial's own outcomes, not by the decode
table's precomposed effects.
"""

from __future__ import annotations

import numpy as np

from colexjump.gf2 import checks_table
from colexjump.jump import (
    _code_dual_structure,
    encoded_state,
    logical_operator,
    single_shot_decode,
)
from colexjump.noise import NoiseSpec, trial_rng
from colexjump.pauli import PauliOperator

_ROUNDS = ("Z", "X")


def _row_mask(bits: np.ndarray) -> int:
    """A bool vector as an int, bit j holding entry j."""
    return sum(1 << j for j in np.flatnonzero(bits).tolist())


def _parity(mask: int) -> int:
    return mask.bit_count() & 1


def _mask(support) -> int:
    return sum(1 << q for q in support)


def _value(state, op) -> int:
    """op's +-1 value on the state, which must hold one."""
    value = state.expect(op)
    assert value is not None, f"{op!r} has no definite value"
    return value


def _reference(code, logical) -> dict:
    """The noiseless pass from `logical`'s encoded state, random outcomes
    forced to +1: per round, one (support mask, reference value or None,
    X and Z masks of the replaced row) per plaquette in decode order; the
    count of random outcomes (`draws`); and the final checks' reference
    values: every stabilizer generator's (X mask, Z mask, value) on an
    inner code, else the Z- and X-type cell bits and the tracked logical."""
    state = encoded_state(code, logical)
    order = _code_dual_structure(code).order
    rounds = []
    for basis in _ROUNDS:
        steps = []
        for pi in order:
            support = code.colex.plaquette_vertices(pi)
            op = PauliOperator.from_support(code.n, basis, support)
            row = state.pivot_row(op)
            value = state.measure(op, force=1)
            if row is None:
                steps.append((_mask(support), value, 0, 0))
            else:
                steps.append((_mask(support), None, row.x, row.z))
        rounds.append(steps)
    ref = {"rounds": rounds, "draws": sum(v is None for s in rounds for _, v, _, _ in s)}
    if logical is None:
        ref["stabilizers"] = [(g.x, g.z, _value(state, g)) for g in code.S.generators]
    else:
        for basis in _ROUNDS:
            ref["cells_" + basis] = tuple(
                int(_value(state, PauliOperator.from_support(code.n, basis, vs)) < 0)
                for vs, _ in code.colex.cells
            )
        kind = "Z" if logical == "zero" else "X"
        ref["logical"] = _value(state, logical_operator(code, kind))
    return ref


def _syndrome(reference: tuple, masks: list[int], frame: int) -> tuple:
    """Check bits of the framed state: the reference bits flipped by the
    frame's overlap parity with each check."""
    return tuple(bit ^ _parity(frame & mask) for bit, mask in zip(reference, masks))


def frame_trials(code, noise: NoiseSpec, trial_offset: int, trials: int) -> list:
    """(decode key of every round, failed) of each trial, in trial order."""
    dual = _code_dual_structure(code)
    n, q = code.n, noise.q_meas
    noisy = noise.p_qubit > 0
    logicals = ("zero", "plus") if code.L.generators else (None,)
    refs = {logical: _reference(code, logical) for logical in logicals}
    width = (2 * n if noisy else 0) + max(
        ref["draws"] + (2 * len(dual.order) if q > 0 else 0) for ref in refs.values()
    )
    cells = [tuple(vs) for vs, _ in code.colex.cells]
    cell_masks = [_mask(vs) for vs in cells]
    cell_table = {key: _mask(support) for key, support in checks_table(n, cells).items()}
    all_mask = (1 << n) - 1  # the support of both logicals
    out = []
    for t in range(trial_offset, trial_offset + trials):
        row = trial_rng(noise.seed, t).random(width)
        if noisy:
            frame = _row_mask(row[: 2 * n] < noise.p_qubit)
            row = row[2 * n :]
        else:
            frame = 0
        logical = logicals[t % len(logicals)]
        ref = refs[logical]
        fx, fz = frame & all_mask, frame >> n
        draws = iter(row.tolist())
        keys = []
        for basis, round_steps in zip(_ROUNDS, ref["rounds"]):
            outcomes, key = [], 0
            for pi, (mask, value, gx, gz) in zip(dual.order, round_steps):
                # a Z-type plaquette reads the frame's X part, and vice versa
                flipped = _parity((fx if basis == "Z" else fz) & mask)
                if value is None:
                    up = next(draws) < 0.5
                    if up == flipped:
                        fx ^= gx
                        fz ^= gz
                    value = 1 if up else -1
                elif flipped:
                    value = -value
                if q > 0 and next(draws) < q:
                    value = -value
                if value < 0:
                    key ^= dual.key_masks[pi]
                outcomes.append(value)
            report = single_shot_decode(code, dual, dict(zip(dual.order, outcomes)), basis)
            keys.append(key)
            if basis == "Z":
                fx ^= report.correction.x
            else:
                fz ^= report.correction.z
        if logical is None:
            failed = any(
                value != (-1) ** _parity((fx & gz) ^ (fz & gx))
                for gx, gz, value in ref["stabilizers"]
            )
        else:
            # the final ideal decode: Z-type cells, X correction, then X-type cells
            fx ^= cell_table[_syndrome(ref["cells_Z"], cell_masks, fx)]
            fz ^= cell_table[_syndrome(ref["cells_X"], cell_masks, fz)]
            side = fx if logical == "zero" else fz
            failed = ref["logical"] != (-1) ** _parity(side & all_mask)
        out.append((tuple(keys), failed))
    return out
