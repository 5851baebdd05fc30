"""A full dimensional jump, narrated.

Splits the tetrahedron at its rgb facet, shows the dual-edge structure that
carries flux, collapses an encoded 3D state onto the outer triangle, and
blows it back up.
"""

import colexjump as cj
from colexjump.jump import embed_operator, logical_operator

ctx = cj.make_context(cj.minimal_colex(3), facet="rgb")
print(f"outer: {ctx.split.outer!r}")
print(f"inner: {ctx.split.inner!r}")
print(f"interface cells -> outer plaquettes: {ctx.split.outer_plaquette_of_cell}")

print("\n== dual edges per color pair ==")
for pair in ctx.pairs:
    print(f"  {pair}: {list(ctx.duals[pair])}")

print("\n== collapse of an encoded zero state ==")
state = cj.encoded_3d(ctx, "zero")
out = cj.collapse(ctx, state, meas_flip_prob=0.0, rng=cj.trial_rng(0, 0))
print("  inner plaquette readings:",
      {f"{p}:{b}": rec for (p, b), rec in sorted(out.measurement_record.items())})
print("  applied corrections:",
      {k: v.weight for k, v in out.applied_correction.items()})
print("  logical expectations on the residual 2D state:", out.logical_flip_flags)

print("\n== with one lying measurement ==")
state = cj.encoded_3d(ctx, "zero")
out = cj.collapse(ctx, state, 0.0, cj.trial_rng(0, 1), injected_flips={("rg", "Z"): {1}})
d0, geff, true = out.repair_record[("rg", "Z")]
print(f"  observed rg flux repaired: delta0={d0} gamma_eff={geff} (true {true})")
print("  logical still intact:", out.logical_flip_flags["Z"] == 1)

print("\n== blow-up and round trip ==")
rng = cj.trial_rng(0, 2)
state2 = cj.encoded_state(ctx.code2, "plus")
state3 = cj.blow_up(ctx, state2, 0.0, rng)
cells = [
    cj.PauliOperator.from_support(ctx.n3, basis, ctx.colex3.cell_vertices(ci))
    for ci in range(len(ctx.colex3.cells))
    for basis in ("X", "Z")
]
print("  all 3D cell operators read +1:", all(state3.expect(op) == 1 for op in cells))
xbar = embed_operator(logical_operator(ctx.code2, "X"), ctx.n3, ctx.split.outer_vertices)
print("  logical X preserved in 3D:", state3.expect(xbar) == 1)
out = cj.collapse(ctx, state3, 0.0, rng)
print("  and preserved after collapsing back:", out.logical_flip_flags["X"] == 1)
