"""Reproduce the ambivalence classification of finite 3-manifold groups.

A finite group is *ambivalent* when every element is conjugate to its
inverse.  For the fundamental groups of elliptic 3-manifolds this property
decides whether the Whitehead-module obstruction can detect exotic
homeomorphisms: a non-ambivalent group has positive detection rank.

This script enumerates every builtin group up to order 240 from its
presentation alone (no lookup tables), tests ambivalence by direct
conjugation, and prints the resulting classification.
"""

from whdetect.analysis import is_ambivalent
from whdetect.coset import element_order, realize_presentation
from whdetect.pipeline import reproduce_table_73

diffs, computed = reproduce_table_73(240)

ambivalent = sorted(n for n, a in computed.items() if a)
non_ambivalent = sorted(n for n, a in computed.items() if not a)

print(f"checked {len(computed)} groups, classification "
      f"{'DIFFERS from' if diffs else 'matches'} expectations\n")
print("ambivalent (detection rank 0):")
for n in ambivalent:
    print(f"  {n}")
print(f"\nnon-ambivalent: {len(non_ambivalent)} groups, e.g. "
      f"{', '.join(non_ambivalent[:6])}, ...")

# The odd-parameter dicyclic groups fail ambivalence on an order-4 element:
from whdetect.catalog import dicyclic  # noqa: E402

G = realize_presentation(dicyclic(3), 10_000)
verdict = is_ambivalent(G)
w = verdict.witness
print(f"\ndicyclic_12 witness: element {w} of order {element_order(G, w)} "
      "is not conjugate to its inverse")
