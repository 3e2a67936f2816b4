"""Seifert-fibered inputs: from invariants to a detection verdict.

A Seifert datum (b; (eps, g); (alpha_1, beta_1), ...) determines a
fundamental-group presentation.  The group is finite exactly when the datum
is ``spherical`` (orientable total space, orbifold Euler characteristic
> 0 and Euler number != 0); then the full pipeline runs.  Otherwise the
group is infinite and the regular fiber h has infinite order; in the o1/n1
cases h is central, and a central element of order > 2 rules out
ambivalence outright (detection rank is positive without ever enumerating
the group).
"""

from whdetect.catalog import Epsilon, SeifertInvariants, euler_number, \
    orbifold_euler_characteristic
from whdetect.pipeline import analyze

data = [
    ("3-torus", SeifertInvariants(0, Epsilon.O1, 1)),
    ("torus bundle, e = 2", SeifertInvariants(-2, Epsilon.O1, 1)),
    ("torus bundle, e = -5", SeifertInvariants(5, Epsilon.O1, 1)),
    ("lens datum b=3", SeifertInvariants(3, Epsilon.O1, 0)),
    ("lens datum (5:2), b=1", SeifertInvariants(1, Epsilon.O1, 0, ((5, 2),))),
    ("Poincare sphere", SeifertInvariants(-1, Epsilon.O1, 0,
                                          ((2, 1), (3, 1), (5, 1)))),
    ("noncentral fiber o2", SeifertInvariants(0, Epsilon.O2, 1)),
]

for name, s in data:
    chi = orbifold_euler_characteristic(s)
    e = euler_number(s)
    r = analyze(s)
    order = r.order if r.order is not None else "infinite"
    print(f"{name}: chi_orb = {chi}, e = {e}")
    print(f"  |pi| = {order}, lemma = {r.lemma74}, "
          f"rank = {r.detection_rank}, verdict = {r.verdict}\n")
