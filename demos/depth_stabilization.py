"""Depth under the Frobenius functor and the three-way comparison.

The module S/(xy, xz) over F_2[x,y,z] has depth 1.  Applying the Frobenius
functor bracket-powers the relations; over an F-pure ring the depth can
only drop, so it stabilizes: the stabilizing depth.  Three independent
routes agree level by level:

  * Koszul homology of the variables (top nonvanishing index n - depth),
  * n - projective dimension through a minimal free resolution,
  * a greedy regular-sequence search with explicit witnesses.

The truncation profiles also realize the extension-side Koszul grade, and
a sequence regular at every level bounds the classical grade of the
perfect-closure base change.

Run:  python3 demos/depth_stabilization.py
"""

from charp import (ModulePresentation, cdepth_lower_bound,
                   classical_depth_search, depth_at_origin, free_resolution,
                   frobenius_functor, kdepth_truncation_profile, parse_ring,
                   regular_sequence_check, sdepth)

R = parse_ring("F_2[x,y,z]")
M = ModulePresentation.cyclic(R, [R.poly("x*y"), R.poly("x*z")])
print(f"module: {M!r}")

cx, pd = free_resolution(M)
print(f"\nminimal free resolution has length {pd}; "
      f"ranks {[cx.rank(i) for i in range(cx.length + 1)]}")
print(f"depth at the origin: {depth_at_origin(M)} (= 3 - pd = {3 - pd})")

greedy = classical_depth_search(M)
print(f"greedy search: bound {greedy.bound}, witness "
      f"({', '.join(map(str, greedy.witness))}), exhaustive={greedy.exhaustive}")

print("\nFrobenius levels:")
for e in range(3):
    Fe = frobenius_functor(M, e)
    print(f"  F^{e}(M) = coker{[[str(x) for x in col] for col in Fe.columns]}"
          f"  depth {depth_at_origin(Fe)}")

rep = sdepth(M, e_max=4, window=2)
print(f"\nper-level depths {[d for _, d in rep.per_e_depth]}; "
      f"stabilizing depth = {rep.stabilized_value}")

kd = kdepth_truncation_profile(M, e_max=3)
pats = [sorted(p.nonzero_homology) for p in kd.profiles]
print(f"truncation profiles (nonzero Koszul homology): {pats}")
print(f"stable grade {kd.stable_kgrade} (profiles settled: {kd.stable})")

seq = [R.poly("x + y + z")]
flags = regular_sequence_check(seq, M, range(4))
print(f"\nx+y+z regular on F^e(M) for e = 0..3: {flags}")
cd = cdepth_lower_bound(M, e_max=3)
print(f"longest sequence regular at every level: {cd.bound} "
      f"(witness {', '.join(map(str, cd.witness))})")
print(f"comparison chain: kdepth {kd.stable_kgrade} = sdepth "
      f"{rep.stabilized_value} >= cdepth bound {cd.bound}")

# The stabilizing depth can sit strictly below the starting depth.  Over
# the F-pure ring R = F_2[x,y]/(x*y), the module R/(x) is a polynomial
# line (depth 1), but already in F(R/(x)) = R/(x^2) the class of x is
# killed by the whole maximal ideal: x*x = x^2 and y*x = 0 in R.
Q = parse_ring("F_2[x,y]/(x*y)")
N = ModulePresentation.cyclic(Q, [Q.free().poly("x")])
drop = sdepth(N, e_max=3)
print(f"\nstrict drop over {Q!r}: module R/(x) has per-level depths "
      f"{[d for _, d in drop.per_e_depth]}")
print(f"depth = {depth_at_origin(N)} > sdepth = {drop.stabilized_value}")
