"""Per-trial oracle of the compiled single-shot batch: the frame step loop.

`frame_trials` runs the single-shot harness one trial at a time on the
code's `SingleShotPlan`, stepping a Pauli frame through every plaquette
measurement of both rounds as Python ints. It draws each trial's numbers
from that trial's own generator, in the harness's order: the X then the Z
noise of every qubit when p > 0, then per plaquette the outcome draw of a
random measurement and the flip draw when q > 0. A random measurement
updates the frame by the stabilizer row it replaces when its outcome draw
agrees with the frame's parity on the plaquette (see
`run_single_shot_trials`). Each round is corrected by
`jump.single_shot_decode` on the trial's own outcomes, not by the plan's
decode table.
"""

from __future__ import annotations

import numpy as np

from colexjump.jump import single_shot_decode
from colexjump.montecarlo import single_shot_plan
from colexjump.noise import NoiseSpec, trial_rng


def _row_mask(bits: np.ndarray) -> int:
    """A bool vector as an int, bit j holding entry j."""
    return sum(1 << j for j in np.flatnonzero(bits).tolist())


def _parity(mask: int) -> int:
    return mask.bit_count() & 1


def _syndrome(reference: tuple, masks: list[int], frame: int) -> tuple:
    """Check bits of the framed state: the reference bits flipped by the
    frame's overlap parity with each check."""
    return tuple(bit ^ _parity(frame & mask) for bit, mask in zip(reference, masks))


def frame_trials(code, noise: NoiseSpec, trial_offset: int, trials: int) -> list:
    """(decode key of every round, failed) of each trial, in trial order."""
    plan = single_shot_plan(code)
    n, q = code.n, noise.q_meas
    noisy = noise.p_qubit > 0
    width = (2 * n if noisy else 0) + max(
        ref.draws + (len(plan.dual.order) * len(ref.rounds) if q > 0 else 0)
        for ref in plan.references.values()
    )
    out = []
    for t in range(trial_offset, trial_offset + trials):
        row = trial_rng(noise.seed, t).random(width)
        if noisy:
            frame = _row_mask(row[: 2 * n] < noise.p_qubit)
            row = row[2 * n :]
        else:
            frame = 0
        logical = ("zero" if t % 2 == 0 else "plus") if code.L.generators else None
        ref = plan.references[logical]
        fx, fz = frame & plan.all_mask, frame >> n
        draws = iter(row.tolist())
        keys = []
        for basis, round_steps in ref.rounds:
            outcomes, key = [], 0
            for mask, value, gx, gz, key_mask in round_steps:
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
                    key ^= key_mask
                outcomes.append(value)
            report = single_shot_decode(
                code, plan.dual, dict(zip(plan.dual.order, outcomes)), basis
            )
            keys.append(key)
            if basis == "Z":
                fx ^= report.correction.x
            else:
                fz ^= report.correction.z
        if logical is None:
            failed = any(
                value != (-1) ** _parity((fx & gz) ^ (fz & gx))
                for gx, gz, value in ref.stabilizers
            )
        else:
            # the final ideal decode: Z-type cells, X correction, then X-type cells
            fx ^= plan.cell_table[_syndrome(ref.cells_z, plan.cell_masks, fx)]
            fz ^= plan.cell_table[_syndrome(ref.cells_x, plan.cell_masks, fz)]
            kind = "Z" if logical == "zero" else "X"
            failed = ref.logical != (-1) ** _parity((fx if kind == "Z" else fz) & plan.all_mask)
        out.append((tuple(keys), failed))
    return out
