"""Per-slot oracle of the tableau collapse.

`oracle_collapse` measures every slot as `jump.collapse` does, then builds
each slot's observed `FluxConfiguration` and runs `jump.repair_slot` on it,
slot by slot, with no table. `jump.collapse` reads the same repairs from
`JumpContext.slot_repairs` and must give the same outcome.
"""

from __future__ import annotations

from colexjump.flux import FluxConfiguration, extract_flux
from colexjump.jump import CollapseOutcome, _finish_collapse, discard_qubits, repair_slot
from colexjump.pauli import PauliOperator


def with_edges(flux: FluxConfiguration, edges) -> FluxConfiguration:
    """`flux`'s slot (pair, basis and duals) holding the dual edges `edges`."""
    return FluxConfiguration(flux.pair, flux.basis, frozenset(edges), flux.duals)


def oracle_collapse(ctx, state3, meas_flip_prob=0.0, rng=None, injected_flips=None) -> CollapseOutcome:
    fluxes = [
        extract_flux(state3, ctx.split, pair, basis, rng, duals)
        for basis, pair, duals in ctx.slots
    ]
    measured = []
    for (basis, pair, duals), flux in zip(ctx.slots, fluxes):
        observed = flux
        if meas_flip_prob > 0:
            flips = {i for i in range(len(duals)) if rng.random() < meas_flip_prob}
            observed = with_edges(flux, flux.edges ^ flips)
        if injected_flips and (pair, basis) in injected_flips:
            observed = with_edges(observed, observed.edges ^ set(injected_flips[(pair, basis)]))
        measured.append((flux, observed))
    record, repairs = {}, {}
    corrections = {"X": PauliOperator.identity(ctx.n2), "Z": PauliOperator.identity(ctx.n2)}
    for flux, observed in measured:
        r = repair_slot(ctx, observed)
        record[(flux.pair, flux.basis)] = r.record
        repairs[(flux.pair, flux.basis)] = (r.delta0, r.gamma_eff, tuple(sorted(flux.edges)))
        corrections[r.kind] = corrections[r.kind] * r.correction
    outer_state = discard_qubits(state3, list(ctx.split.inner_vertices))
    return _finish_collapse(ctx, outer_state, corrections, record, repairs)
