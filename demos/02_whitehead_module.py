"""Compute Wh1(pi; Gamma) and walk the duality bookkeeping.

``wh1_general`` splits the quotient Gamma[pi] / (twisted conjugation,
identity coordinate) into one summand per nontrivial conjugacy class [x],
the coinvariants H0(C(x); Gamma) of its centralizer, each read off the
diagonal of the Smith normal form of a small cokernel; the tests certify
that diagonal against a reference that also builds U, V with U M V = D.

For Gamma = Z/2 with the trivial action every summand is Z/2, so the
quotient is the Z/2-vector space on the nontrivial conjugacy classes, of
dimension ``involution_space(profile).dim``; the demo checks the two agree.
The class-inversion involution induces the duality map; the detection
quotient has dimension equal to the number of inversion-swapped class
pairs, ``profile.swapped_pairs``.  Both that dimension and dim Z4 are read
off ``involution_space``.
"""

from whdetect.analysis import conjugacy_classes
from whdetect.catalog import binary_polyhedral, cyclic, dicyclic
from whdetect.coset import realize_presentation
from whdetect.whitehead import CoefficientSystem, involution_space, wh1_general

for name, pres in [
    ("cyclic_5", cyclic(5)),
    ("dicyclic_8 (quaternion)", dicyclic(2)),
    ("dicyclic_12", dicyclic(3)),
    ("binary_icosahedral_120", binary_polyhedral(5)),
]:
    G = realize_presentation(pres, 10_000)
    prof = conjugacy_classes(G)
    sp = involution_space(prof)
    general = wh1_general(G, CoefficientSystem((2,)))
    assert general.invariant_factors == (2,) * sp.dim
    print(f"{name}: |pi| = {G.order}, {prof.n_classes} classes")
    print(f"  Wh1(pi; Z/2) = (Z/2)^{sp.dim}   [one Z/2 per nontrivial class]")
    print(f"  s = {prof.self_inverse_count} self-inverse classes, "
          f"p = {prof.paired_count} swapped pairs")
    print(f"  dim Z4 = s + p = {sp.z4_dim}, "
          f"detection rank = p = {sp.quotient_dim}\n")

# An integer coefficient system with a sign action:
G = realize_presentation(cyclic(2), 100)
res = wh1_general(G, CoefficientSystem((0,), (((-1,),),)))
print(f"Gamma = Z with sign action over Z/2: invariant factors "
      f"{res.invariant_factors}")
