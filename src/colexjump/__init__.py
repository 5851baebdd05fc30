"""Color-code lattices, dimensional jumps, and constant-depth stack scheduling.

Submodules:
    gf2         GF(2) elimination on int rows, minimum-weight tables
    pauli       symplectic Pauli operators, groups, centralizers, distances
    tableau     stabilizer simulator with destabilizer bookkeeping
    colex       colored cell complexes, validation, canonical file format
    boundary    regions / borders / corners of a colex ball
    hexfamily   procedural triangular codes on the hexagonal lattice
    split       facet splitting and dual edges
    codes       stabilizer / gauge / logical groups from colexes
    flux        flux extraction, matching repair, string corrections
    jump        collapse, blow-up, single-shot error correction
    noise       noise model, seeded RNG streams, lattice-constant measurement
    montecarlo  trial harnesses with exact residual accounting
    scheduler   two-round parallel swap scheduling for qubit stacks
    cli         command-line interface
"""

from .boundary import BoundaryStructure, boundary_structure
from .codes import (
    CodeTriple,
    build_2d,
    build_3d,
    build_inner,
    code_parameters,
    region_operator,
    restrict_gauge_to_outer,
    shared_logicals,
    verify_redundancy,
)
from .colex import Colex, ValidationReport, load, minimal_colex, save, validate
from .flux import FluxConfiguration, extract_flux, repair_flux, string_correction
from .hexfamily import builtin_colex, triangular_hex_colex
from .jump import (
    CollapseOutcome,
    JumpContext,
    blow_up,
    collapse,
    encoded_3d,
    encoded_state,
    ideal_collapse,
    ideal_decode_2d,
    make_context,
    single_shot_ec,
)
from .montecarlo import (
    TrialStats,
    exhaustive_weight1_collapse,
    run_collapse_trials,
    run_single_shot_trials,
    wilson_interval,
)
from .noise import NoiseSpec, alpha_bound_analytic, measure_K, trial_rng
from .pauli import (
    PauliGroup,
    PauliOperator,
    commutes,
    logical_qubit_count,
    min_weight_logical,
)
from .scheduler import SwapSchedule, advance, init_labels, schedule, verify
from .split import DualEdge, SplitResult, dual_edges, split_colex
from .tableau import Tableau, from_stabilizers

__version__ = "0.1.0"
