"""Outcome-based oracle of the single-shot decoder.

`oracle_decode` decodes one round from its dict of recorded +-1 outcomes,
with no decode key: it multiplies each pair's plaquette outcomes on each
cell, reconciles the cell estimates by majority, repairs each pair's flux
against the majority with `flux.t_join`, multiplies each region's repaired
outcomes, and looks the syndrome up in the code's stabilizer table.
`jump.single_shot_decode` must give the same report on every pattern.
"""

from __future__ import annotations

from colexjump.flux import SINK, t_join
from colexjump.jump import DualStructure, SingleShotReport
from colexjump.pauli import PauliOperator


def oracle_decode(code, dual: DualStructure, outcomes: dict, basis: str) -> SingleShotReport:
    by_pair = dual.by_pair
    # product of each pair's recorded plaquettes on each cell, read once
    parity: dict[tuple, int] = {}
    for pair, entries in by_pair.items():
        for pi, ends in entries:
            for end in ends:
                if end != SINK:
                    parity[pair, end[1]] = parity.get((pair, end[1]), 1) * outcomes[pi]
    cell_syndrome = {}
    for ci, pairs in enumerate(dual.cell_pairs):
        votes = [parity.get((p, ci), 1) for p in pairs]
        cell_syndrome[ci] = 1 if votes.count(-1) <= len(votes) // 2 else -1

    # per-pair flux repair against the reconciled cell estimates
    repaired = dict(outcomes)
    delta0_sizes = {}
    for pair in sorted(by_pair):
        entries = by_pair[pair]
        mismatched = [
            ci
            for ci, pairs in enumerate(dual.cell_pairs)
            if pair in pairs and parity.get((pair, ci), 1) != cell_syndrome[ci]
        ]
        if not mismatched:
            delta0_sizes[pair] = 0
            continue
        flips = t_join(dual.ends[pair], mismatched)
        delta0_sizes[pair] = len(flips)
        for i in flips:
            pi = entries[i][0]
            repaired[pi] = -repaired[pi]

    # stabilizer syndrome: cells, plus region products for frozen geometries
    syndrome_bits = list(cell_syndrome.values())
    for plaquettes in dual.region_plaquettes:
        prod = 1
        for pi in plaquettes:
            prod *= repaired[pi]
        syndrome_bits.append(prod)

    syndrome = tuple(0 if v == 1 else 1 for v in syndrome_bits)
    support = dual.table.get(syndrome)
    if support is None:
        raise ValueError("no correction matches the repaired syndrome")
    corr_type = "X" if basis == "Z" else "Z"
    correction = PauliOperator.from_support(code.n, corr_type, support)
    return SingleShotReport(outcomes, cell_syndrome, delta0_sizes, correction, syndrome)
