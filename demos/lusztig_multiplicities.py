"""The two roads to a q-weight multiplicity.

The alternating sum over the Weyl group and the energy generating function
over bounded oscillating tableaux compute the same polynomial; this script
walks one type C example and one spin type B example end to end.
"""

from krlab.identities import thm_b_rhs, thm_c_rhs
from krlab.kr_column import energy_col, vac_qt_energy
from krlab.oscillating import GSSOT, SSOT, enumerate_chains, phi_c
from krlab.partitions import norm, oc, oc_bar
from krlab.polynomials import Poly, poly_str
from krlab.qweight import kl_poly, kl_qt_B

print("Type C, n = 4, lambda = (1,1), mu = 0")
lam, mu, n, g = (1, 1), (), 4, 1
oracle = kl_poly("C", n, (2, 2, 0, 0), (0, 0, 0, 0))
print("  alternating sum:", poly_str(oracle, ("q",)))

shape = norm(oc((1, 1, 0, 0), g))
weight = oc_bar((0, 0, 0, 0), g)
print("  complement shape %s, weight vector %s, bound g = %d" % (shape, weight, g))
for chain in enumerate_chains(SSOT, shape, weight, two_g=2 * g):
    t = phi_c(chain, SSOT, weight)
    print(
        "    chain with factors %s carries energy %d"
        % (" (x) ".join(str(f.word) for f in t), energy_col(t))
    )
print("  combinatorial side:", poly_str(thm_c_rhs(lam, mu, n, g), ("q",)))
print("  the bound is free: g = %d gives %s" % (g + 1, poly_str(thm_c_rhs(lam, mu, n, g + 1), ("q",))))

print()
print("Type B spin, n = 3, lambda = (3/2)^3, mu = (1/2)^3, with q on long")
print("roots and t on short roots")
oracle = kl_qt_B(3, (3, 3, 3), (1, 1, 1))
print("  alternating sum:", poly_str(oracle, ("q", "t")))
g = 1
shape = norm(oc((1, 1, 1), g))
weight = oc_bar((0, 0, 0), g)
per_chain = Poly.zero(2)
for chain in enumerate_chains(GSSOT, shape, weight, two_g=2 * g + 1):
    t = phi_c(chain, GSSOT, weight)
    per_chain = per_chain + vac_qt_energy(t)
    print(
        "    factors %s give %s"
        % (
            " (x) ".join(str(f.word) for f in t),
            poly_str(vac_qt_energy(t), ("q", "t")),
        )
    )
rhs = thm_b_rhs((1, 1, 1), (), 3, g)
# thm_b_rhs walks the chains once, without listing them: the same sum
assert rhs == per_chain == oracle, (rhs, per_chain, oracle)
print("  combinatorial side:", poly_str(rhs, ("q", "t")))

print()
print("A value outside the spin region fails positivity, which is why the")
print("spin hypothesis matters:")
print("  B_2, lambda = (1,0), mu = 0:", poly_str(kl_qt_B(2, (2, 0), (0, 0)), ("q", "t")))
